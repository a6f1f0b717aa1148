//! Property tests for the [`BackendSpec`] grammar: every representable
//! value round-trips through `Display` → `parse`, and malformed strings
//! produce descriptive errors rather than panics.

use backend::{BackendSpec, DeviceKind, KernelStrategy};
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = BackendSpec> {
    (
        0usize..4,
        0usize..64,
        0usize..3,
        1usize..16,
        1usize..16,
        1usize..8,
    )
        .prop_map(|(kind, threads, d, devices, hosts, streams)| match kind {
            0 => BackendSpec::Cpu { threads },
            1 => BackendSpec::GpuSim {
                device: DeviceKind::ALL[d],
                devices,
            },
            2 => BackendSpec::Pipelined {
                device: DeviceKind::ALL[d],
                devices,
            },
            _ => BackendSpec::Cluster {
                device: DeviceKind::ALL[d],
                hosts,
                devices,
                streams,
            },
        })
}

fn arb_garbage() -> impl Strategy<Value = String> {
    let charset: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789:-".chars().collect();
    proptest::collection::vec(proptest::sample::select(charset), 0..16)
        .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_round_trips_for_every_value(spec in arb_spec()) {
        let rendered = spec.to_string();
        let back = BackendSpec::parse(&rendered);
        prop_assert_eq!(back, Ok(spec), "rendered as {}", rendered);
    }

    #[test]
    fn canonical_form_is_a_fixed_point(spec in arb_spec()) {
        let rendered = spec.to_string();
        let again = BackendSpec::parse(&rendered).unwrap().to_string();
        prop_assert_eq!(&rendered, &again);
    }

    #[test]
    fn explicit_cpu_thread_counts_parse(threads in 0usize..10_000) {
        let spec = BackendSpec::parse(&format!("cpu:{threads}")).unwrap();
        prop_assert_eq!(spec, BackendSpec::Cpu { threads });
    }

    #[test]
    fn arbitrary_garbage_never_panics(s in arb_garbage()) {
        // Any outcome is fine as long as errors are descriptive Results,
        // not panics.
        if let Err(err) = BackendSpec::parse(&s) {
            prop_assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn kernel_names_round_trip(k in 0usize..KernelStrategy::ALL.len()) {
        let strategy = KernelStrategy::ALL[k];
        prop_assert_eq!(KernelStrategy::parse(strategy.name()), Ok(strategy));
        // The paper's labels are spellings of two of the four strategies.
        prop_assert_eq!(KernelStrategy::parse("precomputed"), Ok(KernelStrategy::Batched));
        prop_assert_eq!(KernelStrategy::parse("unrolled"), Ok(KernelStrategy::Tape));
    }
}

#[test]
fn malformed_specs_error_without_panicking() {
    for bad in [
        "cpu:",
        "cpu:-1",
        "cpu:1.5",
        "cpu:four",
        "gpusim:-1",
        "gpusim:",
        "gpusim::",
        "gpusim:tesla-c2050:",
        "pipelined:-1",
        "pipelined:",
        "pipelined::",
        "cluster:",
        "cluster::",
        "cluster:-1",
        "cluster:0",
        "cluster:2:0",
        "cluster:2:2:0",
        "cluster:2:2:2:2",
        "cluster:quadro",
        "cluster:gtx-580:2:2:2:2",
        "cuda",
        ":cpu",
    ] {
        let err = BackendSpec::parse(bad).expect_err(bad);
        let msg = err.to_string();
        assert!(
            msg.contains(&bad.split(':').next().unwrap_or("").to_string())
                || msg.contains("invalid")
                || msg.contains("unknown"),
            "error for {bad:?} should be descriptive: {msg}"
        );
    }
}
