//! Property tests for the [`SolverSpec`] grammar: every representable
//! value round-trips through `Display` → `parse`, and malformed strings
//! produce descriptive errors (naming the valid alternatives) rather
//! than panics.

use proptest::prelude::*;
use sshopm::SolverSpec;

fn arb_spec() -> impl Strategy<Value = SolverSpec> {
    proptest::sample::select(vec![SolverSpec::SsHopm, SolverSpec::Geap, SolverSpec::Qrst])
}

fn arb_garbage() -> impl Strategy<Value = String> {
    let charset: Vec<char> = "abcdefghijklmnopqrstuvwxyz0123456789:.-".chars().collect();
    proptest::collection::vec(proptest::sample::select(charset), 0..16)
        .prop_map(|chars| chars.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn display_round_trips_for_every_value(spec in arb_spec()) {
        let rendered = spec.to_string();
        let back = SolverSpec::parse(&rendered);
        prop_assert_eq!(back, Ok(spec), "rendered as {}", rendered);
    }

    #[test]
    fn canonical_form_is_a_fixed_point(spec in arb_spec()) {
        let rendered = spec.to_string();
        let again = SolverSpec::parse(&rendered).unwrap().to_string();
        prop_assert_eq!(&rendered, &again);
    }

    #[test]
    fn arbitrary_garbage_never_panics(s in arb_garbage()) {
        // Any outcome is fine as long as errors are descriptive Results
        // that name the valid forms, not panics.
        if let Err(err) = SolverSpec::parse(&s) {
            let msg = err.to_string();
            prop_assert!(msg.contains("\"sshopm\""), "{}", msg);
            prop_assert!(msg.contains("geap"), "{}", msg);
            prop_assert!(msg.contains("qrst"), "{}", msg);
        }
    }
}
