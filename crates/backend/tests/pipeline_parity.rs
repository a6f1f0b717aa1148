//! Acceptance suite for the pipelined launch path: double-buffering
//! chunks through two streams changes *when* work runs, never *what* it
//! computes. On a 10 000-tensor seeded batch the pipelined backend must
//! produce bitwise-identical eigenpairs to the synchronous one — with and
//! without an active fault plan — while its event timeline shows real
//! transfer/compute overlap.

use backend::{BackendSpec, GpuSimBackend, KernelStrategy, ResilientBackend, SolveBackend};
use gpusim::{DeviceSpec, FaultPlan, TransferModel};
use rand::SeedableRng;
use sshopm::{starts, Eigenpair, IterationPolicy, Shift, SsHopm};
use symtensor::TensorBatch;
use telemetry::Telemetry;

fn workload(t: usize, seed: u64) -> (TensorBatch<f32>, Vec<Vec<f32>>, SsHopm) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let tensors = TensorBatch::random(4, 3, t, &mut rng).unwrap();
    let starts = starts::random_uniform_starts::<f32, _>(3, 4, &mut rng);
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(3));
    (tensors, starts, solver)
}

fn assert_bitwise_equal(got: &[Vec<Eigenpair<f32>>], want: &[Vec<Eigenpair<f32>>]) {
    assert_eq!(got.len(), want.len());
    for (t, (g_row, w_row)) in got.iter().zip(want).enumerate() {
        assert_eq!(g_row.len(), w_row.len(), "tensor {t} row length");
        for (v, (g, w)) in g_row.iter().zip(w_row).enumerate() {
            assert_eq!(
                g.lambda.to_bits(),
                w.lambda.to_bits(),
                "tensor {t} start {v}: lambda {} != {}",
                g.lambda,
                w.lambda
            );
            for (gx, wx) in g.x.iter().zip(&w.x) {
                assert_eq!(gx.to_bits(), wx.to_bits(), "tensor {t} start {v}: x");
            }
        }
    }
}

/// Headline acceptance: 10k tensors, synchronous single-launch vs
/// double-buffered pipeline — identical bits, strictly smaller makespan.
#[test]
fn pipelined_10k_matches_synchronous_bitwise_and_overlaps() {
    let (tensors, starts, solver) = workload(10_000, 0x5eed);
    let tel = Telemetry::disabled();

    let sync = GpuSimBackend::new(DeviceSpec::tesla_c2050(), KernelStrategy::General)
        .solve_batch(&tensors, &starts, &solver, &tel)
        .unwrap();
    let piped = BackendSpec::parse("pipelined")
        .unwrap()
        .build_gpusim(KernelStrategy::General)
        .unwrap()
        .with_streams(2)
        .unwrap()
        .solve_batch(&tensors, &starts, &solver, &tel)
        .unwrap();

    assert_bitwise_equal(&piped.results, &sync.results);

    let timeline = piped
        .timeline
        .as_ref()
        .expect("pipelined run has a timeline");
    assert!(
        timeline.overlap_seconds() > 0.0,
        "no transfer/compute overlap: {}",
        timeline.summary()
    );
    assert!(
        timeline.makespan() < timeline.serial_seconds(),
        "double-buffering should beat serialization: {}",
        timeline.summary()
    );
    // Perf claim against the apples-to-apples baseline: the same chunked
    // schedule executed on a single stream (no overlap, same per-chunk
    // launch overhead).
    let serial = BackendSpec::parse("pipelined")
        .unwrap()
        .build_gpusim(KernelStrategy::General)
        .unwrap()
        .with_streams(1)
        .unwrap()
        .solve_batch(&tensors, &starts, &solver, &tel)
        .unwrap();
    assert_bitwise_equal(&serial.results, &sync.results);
    assert!(
        piped.seconds < serial.seconds,
        "double-buffered {} s should beat single-stream {} s at 10k tensors",
        piped.seconds,
        serial.seconds
    );
}

/// Multi-device parity: the same proportional split fed through
/// per-device stream queues leaves every bit unchanged.
#[test]
fn pipelined_multi_device_matches_multi_gpu_bitwise() {
    let (tensors, starts, solver) = workload(2_000, 42);
    let tel = Telemetry::disabled();

    let multi = GpuSimBackend::on_host(
        vec![DeviceSpec::tesla_c2050(); 2],
        TransferModel::pcie2(),
        KernelStrategy::General,
    )
    .unwrap()
    .solve_batch(&tensors, &starts, &solver, &tel)
    .unwrap();
    let piped = BackendSpec::parse("pipelined:2")
        .unwrap()
        .build_gpusim(KernelStrategy::General)
        .unwrap()
        .with_streams(2)
        .unwrap()
        .solve_batch(&tensors, &starts, &solver, &tel)
        .unwrap();

    assert_bitwise_equal(&piped.results, &multi.results);
}

/// Fault-plan acceptance: a resilient pipelined run under an injected
/// fault plan still recovers every tensor to the bits of a clean
/// synchronous run — recovery cancels one stream's in-flight ops, not the
/// arithmetic.
#[test]
fn pipelined_under_faults_matches_clean_run_bitwise() {
    let (tensors, starts, solver) = workload(10_000, 0xfau64);
    let tel = Telemetry::disabled();

    let clean = GpuSimBackend::new(DeviceSpec::tesla_c2050(), KernelStrategy::General)
        .solve_batch(&tensors, &starts, &solver, &tel)
        .unwrap();

    let spec: BackendSpec = "pipelined:tesla-c2050:2".parse().unwrap();
    let plan = FaultPlan::new(20260806)
        .with_ecc(0.2)
        .with_watchdog(0.2)
        .with_transfer(0.2);
    let faulty = ResilientBackend::from_spec(&spec, KernelStrategy::General, plan)
        .unwrap()
        .with_retries(3)
        .with_failover(true)
        .with_streams(2)
        .unwrap()
        .solve_batch(&tensors, &starts, &solver, &tel)
        .unwrap();

    let log = &faulty.fault_log;
    assert!(
        !log.injected.is_empty(),
        "plan should fire: {}",
        log.summary()
    );
    assert_eq!(log.failed, 0, "failover should recover everything");
    assert!(log.accounts_for_all_faults(), "{}", log.summary());
    assert_bitwise_equal(&faulty.results, &clean.results);

    let timeline = faulty
        .timeline
        .as_ref()
        .expect("resilient run has a timeline");
    assert!(timeline.makespan() > 0.0);
}
