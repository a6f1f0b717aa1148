//! Fault-injection acceptance suite: a resilient run under an active
//! [`FaultPlan`] must either recover each tensor to the *bit-identical*
//! eigenpairs of a fault-free CPU run, or report that tensor's exact index
//! in `fault_log.failed_indices` — never a silently wrong answer. The
//! ledger must account for every injected fault.

use backend::{
    parse_fault_plan, BackendSpec, CpuParallel, FaultLog, GpuSimBackend, KernelStrategy,
    ResilientBackend, SolveBackend,
};
use gpusim::{DeviceSpec, FaultPlan, TransferModel};
use proptest::prelude::*;
use rand::SeedableRng;
use sshopm::{starts, Eigenpair, IterationPolicy, Shift, SsHopm};
use symtensor::TensorBatch;
use telemetry::Telemetry;

fn workload(
    m: usize,
    n: usize,
    t: usize,
    v: usize,
    seed: u64,
) -> (TensorBatch<f32>, Vec<Vec<f32>>, SsHopm) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let tensors = TensorBatch::random(m, n, t, &mut rng).unwrap();
    let starts = starts::random_uniform_starts::<f32, _>(n, v, &mut rng);
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(3));
    (tensors, starts, solver)
}

fn cpu_reference(
    tensors: &TensorBatch<f32>,
    starts: &[Vec<f32>],
    solver: &SsHopm,
) -> Vec<Vec<Eigenpair<f32>>> {
    CpuParallel::new(1, KernelStrategy::General)
        .solve_batch(tensors, starts, solver, &Telemetry::disabled())
        .unwrap()
        .results
}

/// Assert the resilience contract: every tensor is either bitwise equal to
/// the fault-free reference or listed in `failed_indices` with an empty
/// result row.
fn assert_recovered_or_reported(
    results: &[Vec<Eigenpair<f32>>],
    reference: &[Vec<Eigenpair<f32>>],
    log: &FaultLog,
) {
    assert!(
        log.accounts_for_all_faults(),
        "ledger out of balance: {}",
        log.summary()
    );
    assert_eq!(results.len(), reference.len());
    for (t, (got, want)) in results.iter().zip(reference).enumerate() {
        if log.failed_indices.contains(&t) {
            assert!(got.is_empty(), "failed tensor {t} has a result row");
            continue;
        }
        assert_eq!(got.len(), want.len(), "tensor {t} row length");
        for (v, (g, w)) in got.iter().zip(want).enumerate() {
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

/// The headline acceptance run: a seeded plan injecting at least three
/// fault kinds into a 10 000-tensor batch on two simulated C2050s, with
/// retries and failover on, recovers every tensor bitwise.
#[test]
fn seeded_faults_on_10k_batch_recover_bitwise() {
    let (tensors, starts, solver) = workload(4, 3, 10_000, 4, 0x5eed);
    let spec = BackendSpec::parse("gpusim:tesla-c2050:2").unwrap();
    let plan = FaultPlan::new(20260806)
        .with_ecc(0.25)
        .with_watchdog(0.2)
        .with_transfer(0.2)
        .with_device_loss(0.01);
    let backend = ResilientBackend::from_spec(&spec, KernelStrategy::General, plan)
        .unwrap()
        .with_retries(3)
        .with_failover(true);
    let report = backend
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    let log = &report.fault_log;

    let mut kinds: Vec<&str> = log.injected.iter().map(|f| f.kind.name()).collect();
    kinds.sort_unstable();
    kinds.dedup();
    assert!(
        kinds.len() >= 3,
        "want >= 3 distinct fault kinds, got {kinds:?} ({})",
        log.summary()
    );
    assert!(!log.injected.is_empty());
    assert_eq!(log.observed, log.injected.len(), "{}", log.summary());
    assert_eq!(log.failed, 0, "failover should recover everything");
    assert!(log.failed_indices.is_empty());
    assert!(log.retries > 0, "transient faults should have retried");

    let reference = cpu_reference(&tensors, &starts, &solver);
    assert_recovered_or_reported(&report.results, &reference, log);
    // Fault handling costs modeled time, never correctness.
    assert!(report.seconds > 0.0 && report.seconds.is_finite());
}

/// ECC corruption with failover disabled: the poisoned tensor fails
/// *alone* — one empty row, one failed index — and the rest of the chunk
/// still matches the reference bitwise.
#[test]
fn poisoned_tensor_fails_alone_without_failover() {
    let (tensors, starts, solver) = workload(4, 3, 40, 4, 7);
    let plan = FaultPlan::new(11).with_ecc(1.0);
    let backend = ResilientBackend::new(
        vec![DeviceSpec::tesla_c2050()],
        TransferModel::pcie2(),
        KernelStrategy::General,
        plan,
    )
    .unwrap()
    .with_retries(0)
    .with_failover(false);
    let report = backend
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    let log = &report.fault_log;
    assert_eq!(log.injected.len(), 1, "{}", log.summary());
    assert_eq!(log.observed, 1);
    assert_eq!(log.failed, 1);
    assert_eq!(log.recovered, 0);
    assert_eq!(log.failed_indices.len(), 1);
    assert!(!log.degraded, "no CPU work without failover");
    let reference = cpu_reference(&tensors, &starts, &solver);
    assert_recovered_or_reported(&report.results, &reference, log);
    // 39 of 40 tensors survived.
    let live = report.results.iter().filter(|r| !r.is_empty()).count();
    assert_eq!(live, 39);
}

/// Pin (satellite): ECC poisoning never clones the chunk. The clean launch
/// reads straight from the borrowed arena slice, so with a fault injected
/// every *fault-free* tensor's eigenpairs are bitwise identical to an
/// inactive-plan run of the exact same backend — not merely close, the
/// same bits out of the same buffers. Only the poisoned tensor's 15 packed
/// entries are ever copied (into the one-tensor scratch batch).
#[test]
fn ecc_leaves_fault_free_tensors_bitwise_untouched() {
    let (tensors, starts, solver) = workload(4, 3, 40, 4, 7);
    let build = |plan: FaultPlan| {
        ResilientBackend::new(
            vec![DeviceSpec::tesla_c2050()],
            TransferModel::pcie2(),
            KernelStrategy::General,
            plan,
        )
        .unwrap()
        .with_retries(0)
        .with_failover(false)
    };
    let faulty = build(FaultPlan::new(11).with_ecc(1.0))
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    let clean = build(FaultPlan::new(11))
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    assert_eq!(faulty.fault_log.injected.len(), 1);
    assert!(clean.fault_log.injected.is_empty());
    let poisoned = faulty.fault_log.failed_indices[0];
    for (t, (got, want)) in faulty.results.iter().zip(&clean.results).enumerate() {
        if t == poisoned {
            assert!(got.is_empty(), "poisoned tensor {t} fails alone");
            continue;
        }
        assert_eq!(got.len(), want.len(), "tensor {t}");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.lambda.to_bits(), w.lambda.to_bits(), "tensor {t}");
            for (gx, wx) in g.x.iter().zip(&w.x) {
                assert_eq!(gx.to_bits(), wx.to_bits(), "tensor {t}");
            }
        }
    }
}

/// A certain watchdog timeout on every attempt exhausts the retry budget,
/// then fails over to the CPU — deterministically: retries, failovers and
/// degraded mode are all exact.
#[test]
fn retry_exhaustion_fails_over_to_cpu() {
    let (tensors, starts, solver) = workload(3, 3, 30, 3, 3);
    let plan = FaultPlan::new(5).with_watchdog(1.0);
    let backend = ResilientBackend::new(
        vec![DeviceSpec::tesla_c2050()],
        TransferModel::pcie2(),
        KernelStrategy::General,
        plan,
    )
    .unwrap()
    .with_retries(2)
    .with_failover(true);
    let report = backend
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    let log = &report.fault_log;
    // One chunk, three attempts (initial + 2 retries), all timed out.
    assert_eq!(log.injected.len(), 3, "{}", log.summary());
    assert_eq!(log.retries, 2);
    assert_eq!(log.failovers, 1);
    assert!(log.degraded);
    assert_eq!(log.failed, 0);
    assert_eq!(log.recovered, 3);
    let reference = cpu_reference(&tensors, &starts, &solver);
    assert_recovered_or_reported(&report.results, &reference, log);
    // Each timeout costs at least the watchdog interval of modeled time.
    assert!(report.seconds >= 3.0 * gpusim::WATCHDOG_TIMEOUT_SECONDS);
}

/// Certain device loss kills both devices; failover walks device → device
/// → CPU and still recovers everything bitwise.
#[test]
fn device_loss_fails_over_across_devices_then_cpu() {
    let (tensors, starts, solver) = workload(4, 3, 600, 4, 17);
    let plan = FaultPlan::new(23).with_device_loss(1.0);
    let backend = ResilientBackend::new(
        vec![DeviceSpec::tesla_c2050(); 2],
        TransferModel::pcie2(),
        KernelStrategy::General,
        plan,
    )
    .unwrap()
    .with_failover(true);
    let report = backend
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    let log = &report.fault_log;
    // Both devices die on the first chunk's attempts; no further faults
    // can be injected once nothing is left to inject into.
    assert_eq!(log.injected.len(), 2, "{}", log.summary());
    assert!(log.degraded);
    assert_eq!(log.failed, 0);
    assert!(log.failovers >= 2);
    let reference = cpu_reference(&tensors, &starts, &solver);
    assert_recovered_or_reported(&report.results, &reference, log);
}

/// A degraded run's clock is modeled, not measured: the same seeded plan
/// on the same batch, with chunks lost to a host failure and finished on
/// the CPU, reports the same `seconds` to the bit every time.
#[test]
fn degraded_runs_report_a_reproducible_modeled_clock() {
    let (tensors, starts, solver) = workload(4, 3, 1024, 4, 9);
    let spec = BackendSpec::parse("gpusim:2").unwrap();
    let plan = parse_fault_plan("seed=9,host-loss=0.3,ecc=0.2").unwrap();
    let run = || {
        ResilientBackend::from_spec(&spec, KernelStrategy::General, plan)
            .unwrap()
            .with_failover(true)
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap()
    };
    let (a, b) = (run(), run());
    assert!(a.fault_log.degraded, "{}", a.fault_log.summary());
    assert_eq!(a.fault_log.failed, 0, "{}", a.fault_log.summary());
    let timeline = a.timeline.as_ref().expect("resilient runs have a timeline");
    assert_eq!(a.seconds.to_bits(), timeline.makespan().to_bits());
    assert_eq!(
        a.seconds.to_bits(),
        b.seconds.to_bits(),
        "{} vs {}",
        a.seconds,
        b.seconds
    );
}

/// A run whose first tensor failed still reports its start count: the
/// longest row, not the first. This is `report --tensors 2 --backend
/// gpusim --faults seed=1,ecc=1`: tensor 0 is poisoned and, with no
/// failover, fails alone.
#[test]
fn a_failed_first_tensor_keeps_the_run_reports_start_count() {
    let (tensors, starts, solver) = workload(4, 3, 2, 32, 1);
    let spec = BackendSpec::parse("gpusim").unwrap();
    let plan = parse_fault_plan("seed=1,ecc=1").unwrap();
    let backend = ResilientBackend::from_spec(&spec, KernelStrategy::Batched, plan).unwrap();
    let (report, run) = backend
        .solve_batch_with_report(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    assert_eq!(report.fault_log.failed_indices, vec![0]);
    assert!(report.results[0].is_empty());
    assert_eq!(report.num_starts(), 32);
    assert_eq!(run.workload.num_starts, 32);
    assert_eq!(run.workload.total_solves, 64);
}

/// Without failover a dead device takes its whole share of the batch with
/// it: every tensor is reported failed, none silently wrong.
#[test]
fn device_loss_without_failover_fails_the_batch_loudly() {
    let (tensors, starts, solver) = workload(4, 3, 50, 2, 29);
    let plan = FaultPlan::new(31).with_device_loss(1.0);
    let backend = ResilientBackend::new(
        vec![DeviceSpec::tesla_c2050()],
        TransferModel::pcie2(),
        KernelStrategy::General,
        plan,
    )
    .unwrap()
    .with_failover(false);
    let report = backend
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    let log = &report.fault_log;
    assert_eq!(log.injected.len(), 1);
    assert_eq!(log.failed, 1);
    assert_eq!(log.recovered, 0);
    assert_eq!(log.failed_indices.len(), 50);
    assert!(report.results.iter().all(Vec::is_empty));
    assert!(log.accounts_for_all_faults());
}

/// An inactive plan makes the resilient backend a plain chunked launcher:
/// bitwise identical to `GpuSimBackend`, with an all-zero fault log.
#[test]
fn inactive_plan_matches_plain_gpu_backend_bitwise() {
    let (tensors, starts, solver) = workload(4, 3, 300, 4, 41);
    let resilient = ResilientBackend::new(
        vec![DeviceSpec::tesla_c2050()],
        TransferModel::pcie2(),
        KernelStrategy::Tape,
        FaultPlan::new(9),
    )
    .unwrap();
    let plain = GpuSimBackend::new(DeviceSpec::tesla_c2050(), KernelStrategy::Tape);
    let a = resilient
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    let b = plain
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    assert!(a.fault_log.injected.is_empty());
    assert!(!a.fault_log.degraded);
    assert_eq!(a.kernel, b.kernel);
    for ((t, v, got), (_, _, want)) in a.iter_flat().zip(b.iter_flat()) {
        assert_eq!(got.lambda.to_bits(), want.lambda.to_bits(), "t{t} v{v}");
    }
}

/// Regression (satellite): empty batches and empty device lists are clean
/// errors or empty reports on every backend — no aborts.
#[test]
fn empty_batches_and_device_lists_are_not_panics() {
    let telemetry = Telemetry::disabled();
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(3));
    let no_tensors = TensorBatch::<f32>::new(4, 3).unwrap();
    let starts = vec![vec![1.0_f32, 0.0, 0.0]];

    let gpu = GpuSimBackend::new(DeviceSpec::tesla_c2050(), KernelStrategy::General);
    let report = gpu
        .solve_batch(&no_tensors, &starts, &solver, &telemetry)
        .unwrap();
    assert_eq!(report.num_tensors(), 0);

    let multi = GpuSimBackend::on_host(
        vec![DeviceSpec::tesla_c2050(); 2],
        TransferModel::pcie2(),
        KernelStrategy::General,
    )
    .unwrap();
    let report = multi
        .solve_batch(&no_tensors, &starts, &solver, &telemetry)
        .unwrap();
    assert_eq!(report.num_tensors(), 0);

    let err = GpuSimBackend::on_host(Vec::new(), TransferModel::pcie2(), KernelStrategy::General)
        .unwrap_err();
    assert!(err.to_string().contains("at least one device"), "{err}");
    let err = ResilientBackend::new(
        Vec::new(),
        TransferModel::pcie2(),
        KernelStrategy::General,
        FaultPlan::new(0),
    )
    .unwrap_err();
    assert!(err.to_string().contains("at least one device"), "{err}");

    let resilient = ResilientBackend::new(
        vec![DeviceSpec::tesla_c2050()],
        TransferModel::pcie2(),
        KernelStrategy::General,
        FaultPlan::new(0),
    )
    .unwrap();
    let report = resilient
        .solve_batch(&no_tensors, &starts, &solver, &telemetry)
        .unwrap();
    assert_eq!(report.num_tensors(), 0);
}

/// Regression (satellite): adaptive shifts on GPU backends are clean
/// errors now, not panics.
#[test]
fn adaptive_shift_on_gpu_backend_is_an_error() {
    let (tensors, starts, _) = workload(4, 3, 2, 2, 1);
    let adaptive = SsHopm::new(Shift::Adaptive);
    let gpu = GpuSimBackend::new(DeviceSpec::tesla_c2050(), KernelStrategy::General);
    let err = gpu
        .solve_batch(&tensors, &starts, &adaptive, &Telemetry::disabled())
        .unwrap_err();
    assert!(err.to_string().contains("Shift::Fixed"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The resilience contract holds for arbitrary fault seeds, retry
    /// budgets and failover settings: every tensor is bitwise-recovered
    /// or exactly reported, and the ledger always balances.
    #[test]
    fn any_seeded_fault_run_recovers_or_reports(
        fault_seed in 0u64..512,
        data_seed in 0u64..16,
        retries in 0u32..3,
        failover_bit in 0u32..2,
        devices in 1usize..3,
    ) {
        let failover = failover_bit == 1;
        let (tensors, starts, solver) = workload(3, 3, 20, 3, data_seed);
        let plan = FaultPlan::new(fault_seed)
            .with_ecc(0.4)
            .with_watchdog(0.3)
            .with_transfer(0.3)
            .with_device_loss(0.15);
        let backend = ResilientBackend::new(
            vec![DeviceSpec::tesla_c2050(); devices],
            TransferModel::pcie2(),
            KernelStrategy::General,
            plan,
        )
        .unwrap()
        .with_retries(retries)
        .with_failover(failover);
        let report = backend
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap();
        let log = &report.fault_log;
        prop_assert!(log.accounts_for_all_faults(), "{}", log.summary());
        let reference = cpu_reference(&tensors, &starts, &solver);
        for (t, (got, want)) in report.results.iter().zip(&reference).enumerate() {
            if log.failed_indices.contains(&t) {
                prop_assert!(got.is_empty());
                continue;
            }
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                prop_assert_eq!(g.lambda.to_bits(), w.lambda.to_bits(), "tensor {}", t);
            }
        }
        // Failed tensors exist only when failover is off (or impossible).
        if failover {
            prop_assert_eq!(log.failed, 0, "{}", log.summary());
        }
        // The same seed replays to the same ledger.
        let replay = backend
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap();
        prop_assert_eq!(&replay.fault_log.injected, &log.injected);
        prop_assert_eq!(replay.fault_log.failed_indices, log.failed_indices.clone());
    }
}

/// Each device deals the chunks it runs round-robin over its own streams,
/// so an even device count still double-buffers: a fault-free `gpusim:2`
/// run with four chunks per device puts work on all four streams and
/// models a shorter makespan than one stream per device, bit for bit the
/// same eigenpairs.
#[test]
fn resilient_chunks_double_buffer_with_an_even_device_count() {
    let (tensors, starts, solver) = workload(4, 3, 2048, 8, 61);
    let spec = BackendSpec::parse("gpusim:2").unwrap();
    let run = |streams: usize| {
        ResilientBackend::from_spec(&spec, KernelStrategy::General, FaultPlan::new(0))
            .unwrap()
            .with_streams(streams)
            .unwrap()
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap()
    };
    let (one, two) = (run(1), run(2));
    let timeline = two
        .timeline
        .as_ref()
        .expect("resilient runs have a timeline");
    let used: std::collections::BTreeSet<_> = timeline.ops.iter().map(|o| o.stream).collect();
    assert_eq!(used.len(), 4, "{}", timeline.summary());
    assert!(
        two.seconds < one.seconds,
        "2 streams per device {} s should beat 1 stream {} s",
        two.seconds,
        one.seconds
    );
    for ((t, v, a), (_, _, b)) in two.iter_flat().zip(one.iter_flat()) {
        assert_eq!(
            a.lambda.to_bits(),
            b.lambda.to_bits(),
            "tensor {t} start {v}"
        );
    }
}

/// A resilient run deals chunks of its simulated GPUs' chunk size, which
/// the CLI's `--chunk-tensors` sets: with every launch timing out and no
/// retries, each of the 300 tensors' chunks records one fault — 2 chunks
/// of the default 256 tensors, 19 of 16.
#[test]
fn resilient_chunks_follow_the_inner_chunk_size() {
    let (tensors, starts, solver) = workload(4, 3, 300, 8, 67);
    let spec = BackendSpec::parse("gpusim:2").unwrap();
    let plan = parse_fault_plan("seed=1,watchdog=1").unwrap();
    let injected = |chunk_tensors: Option<usize>| {
        let mut backend = ResilientBackend::from_spec(&spec, KernelStrategy::General, plan)
            .unwrap()
            .with_retries(0);
        if let Some(chunk) = chunk_tensors {
            backend.inner = backend.inner.with_chunk_tensors(chunk).unwrap();
        }
        let report = backend
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap();
        report.fault_log.injected.len()
    };
    assert_eq!(injected(None), 2);
    assert_eq!(injected(Some(16)), 19);
}
