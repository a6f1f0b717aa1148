//! Every backend produces a unified `RunReport` with per-chunk latency
//! quantiles; summaries are derived from its renderers (golden-pinned
//! here); stream-timeline observations land in the telemetry snapshot.

use backend::{
    BackendSpec, CpuParallel, FaultLog, GpuSimBackend, KernelStrategy, ResilientBackend,
    SolveBackend,
};
use gpusim::{DeviceSpec, FaultPlan, TransferModel};
use rand::SeedableRng;
use sshopm::{starts, IterationPolicy, Shift, SsHopm};
use std::sync::Arc;
use symtensor::TensorBatch;
use telemetry::{MemorySink, RunReport, Telemetry, RUN_REPORT_SCHEMA_VERSION};

const NUM_TENSORS: usize = 8;
const NUM_STARTS: usize = 4;

fn workload() -> (TensorBatch<f32>, Vec<Vec<f32>>, SsHopm) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xca11);
    let tensors = TensorBatch::random(4, 3, NUM_TENSORS, &mut rng).unwrap();
    let starts = starts::random_uniform_starts::<f32, _>(3, NUM_STARTS, &mut rng);
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(20));
    (tensors, starts, solver)
}

fn all_backends() -> Vec<Box<dyn SolveBackend<f32>>> {
    let strategy = KernelStrategy::General;
    let device = DeviceSpec::tesla_c2050();
    vec![
        Box::new(CpuParallel::new(1, strategy)),
        Box::new(CpuParallel::new(2, strategy)),
        Box::new(GpuSimBackend::new(device.clone(), strategy)),
        Box::new(
            GpuSimBackend::on_host(vec![device.clone(); 2], TransferModel::pcie2(), strategy)
                .unwrap(),
        ),
        Box::new(
            BackendSpec::parse("pipelined")
                .unwrap()
                .build_gpusim(strategy)
                .unwrap()
                .with_chunk_tensors(2)
                .unwrap(),
        ),
    ]
}

#[test]
fn every_backend_reports_chunk_latency_quantiles() {
    let (batch, starts, solver) = workload();
    for backend in all_backends() {
        let tel = Telemetry::enabled();
        let (report, run) = backend
            .solve_batch_with_report(&batch, &starts, &solver, &tel)
            .unwrap();
        assert_eq!(run.schema_version, RUN_REPORT_SCHEMA_VERSION);
        assert_eq!(run.backend, report.backend);
        assert_eq!(run.workload.num_tensors, NUM_TENSORS as u64);
        assert_eq!(run.workload.num_starts, NUM_STARTS as u64);
        let chunk = run
            .latency("chunk")
            .unwrap_or_else(|| panic!("no chunk latency for {}", report.backend));
        assert!(chunk.count() > 0, "{}", report.backend);
        assert!(chunk.p50() > 0.0, "{}", report.backend);
        assert!(chunk.p90() >= chunk.p50(), "{}", report.backend);
        assert!(chunk.p99() >= chunk.p90(), "{}", report.backend);
        // The serialized form round-trips and carries the quantiles.
        let back = RunReport::parse_json(&run.to_json_pretty()).unwrap();
        assert_eq!(back.latency("chunk").unwrap().count(), chunk.count());
        // Prometheus rendering mentions the chunk latency family.
        let prom = run.to_prometheus();
        assert!(prom.contains("latency=\"chunk\""), "{}", report.backend);
    }
}

#[test]
fn resilient_backend_reports_chunk_latency_and_fault_rates() {
    let (batch, starts, solver) = workload();
    let plan = FaultPlan::new(7).with_watchdog(1.0);
    let backend = ResilientBackend::new(
        vec![DeviceSpec::tesla_c2050(); 2],
        TransferModel::pcie2(),
        KernelStrategy::General,
        plan,
    )
    .unwrap()
    .with_retries(3);
    let tel = Telemetry::enabled();
    let (report, run) = backend
        .solve_batch_with_report(&batch, &starts, &solver, &tel)
        .unwrap();
    let chunk = run.latency("chunk").expect("chunk latency");
    assert!(chunk.count() > 0);
    assert!(chunk.p99() > 0.0);
    assert_eq!(run.faults.injected, report.fault_log.injected.len() as u64);
    assert!(run.faults.injected > 0, "plan with p=0.5 injected nothing");
    assert_eq!(run.faults.retries, u64::from(report.fault_log.retries));
    // The rendered text carries the same fault line the CLI prints.
    assert!(run.render_text().contains(&report.fault_log.summary()));
}

#[test]
fn summaries_are_derived_from_run_report_renderers() {
    // Golden pins: the legacy one-line formats must survive the
    // delegation to RunReport::headline / FaultStats::summary_line.
    let (batch, starts, solver) = workload();
    let tel = Telemetry::disabled();
    let report = CpuParallel::new(1, KernelStrategy::General)
        .solve_batch(&batch, &starts, &solver, &tel)
        .unwrap();
    let expected = format!(
        "backend cpu (general kernel): 8 tensors x 4 starts, {} iterations, \
         {:.3} ms, {:.2} GFLOP/s",
        report.total_iterations,
        report.seconds * 1e3,
        report.gflops()
    );
    assert_eq!(report.summary(), expected);
    assert_eq!(report.summary(), report.run_report().headline());

    let log = FaultLog {
        observed: 2,
        recovered: 2,
        failed: 0,
        failed_indices: vec![],
        retries: 3,
        failovers: 1,
        degraded: false,
        ..FaultLog::default()
    };
    assert_eq!(
        log.summary(),
        "faults: 0 injected, 2 observed, 2 recovered, 0 failed (0 tensors lost), \
         3 retries, 1 failovers"
    );
    assert_eq!(log.summary(), log.stats().summary_line());
}

#[test]
fn pipelined_observations_land_in_snapshot_and_sink() {
    // Regression for the --metrics-out path: stream-scheduler op durations
    // must appear as histogram observations in the snapshot (and stream
    // through the sink), not only as trace spans.
    let (batch, starts, solver) = workload();
    let sink = Arc::new(MemorySink::new());
    let tel = Telemetry::with_sink(Box::new(Arc::clone(&sink)));
    let backend = BackendSpec::parse("pipelined")
        .unwrap()
        .build_gpusim(KernelStrategy::General)
        .unwrap()
        .with_chunk_tensors(2)
        .unwrap();
    backend.solve_batch(&batch, &starts, &solver, &tel).unwrap();

    let snap = tel.snapshot();
    let kernels = snap.histogram("gpu.kernel").expect("gpu.kernel histogram");
    assert!(
        kernels.count >= (NUM_TENSORS / 2) as u64,
        "{}",
        kernels.count
    );
    assert!(kernels.p50() > 0.0);
    let observed = sink
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e,
                telemetry::Event::Observation {
                    name: "gpu.kernel",
                    ..
                }
            )
        })
        .count() as u64;
    assert_eq!(observed, kernels.count);
    // The unified report reached the sink as a structured event too.
    assert!(sink.events().iter().any(|e| matches!(
        e,
        telemetry::Event::Custom {
            name: "run.report",
            ..
        }
    )));
}

/// A resilient run reports like the plain backend it wraps: one device row
/// per device that ran chunks, whose tensors add up to the batch, and the
/// same `batch.*` progress counters.
#[test]
fn resilient_reports_carry_device_rows_and_batch_counters() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5a7);
    let batch = TensorBatch::<f32>::random(4, 3, 600, &mut rng).unwrap();
    let starts = starts::random_uniform_starts::<f32, _>(3, NUM_STARTS, &mut rng);
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(3));
    let spec = BackendSpec::parse("gpusim:2").unwrap();
    let run = |backend: &dyn SolveBackend<f32>| {
        let tel = Telemetry::enabled();
        let report = backend.solve_batch(&batch, &starts, &solver, &tel).unwrap();
        let snap = tel.snapshot();
        let counters: Vec<Option<u64>> = [
            "batch.tensors_done",
            "batch.solves",
            "batch.converged",
            "batch.iterations",
        ]
        .iter()
        .map(|name| snap.counter(name))
        .collect();
        (report, counters)
    };
    let plain = spec.build::<f32>(KernelStrategy::General).unwrap();
    let (_, plain_counters) = run(&*plain);
    let resilient =
        ResilientBackend::from_spec(&spec, KernelStrategy::General, FaultPlan::new(0)).unwrap();
    let (report, counters) = run(&resilient);

    assert_eq!(report.profiles.len(), 2);
    assert_eq!(
        report.profiles.iter().map(|p| p.num_tensors).sum::<usize>(),
        batch.len()
    );
    assert_eq!(report.run_report().devices.len(), 2);
    assert!(
        plain_counters.iter().all(Option::is_some),
        "{plain_counters:?}"
    );
    assert_eq!(counters, plain_counters);
}

/// An empty batch's report names the kernels a one-tensor batch of the
/// same shape reports, not the strategy that chose them: under `tape` at
/// (4, 3) the cpu backend runs the batched kernels, and the simulated GPU,
/// plain or resilient, the unrolled variant.
#[test]
fn an_empty_batch_reports_the_kernels_a_full_one_does() {
    let strategy = KernelStrategy::Tape;
    let device = DeviceSpec::tesla_c2050();
    let resilient = ResilientBackend::new(
        vec![device.clone()],
        TransferModel::pcie2(),
        strategy,
        FaultPlan::new(0),
    )
    .unwrap();
    let backends: [(&dyn SolveBackend<f32>, &str); 3] = [
        (&CpuParallel::new(1, strategy), "batched"),
        (&GpuSimBackend::new(device, strategy), "unrolled"),
        (&resilient, "unrolled"),
    ];
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xe3);
    let one = TensorBatch::<f32>::random(4, 3, 1, &mut rng).unwrap();
    let none = TensorBatch::<f32>::new(4, 3).unwrap();
    let starts = starts::random_uniform_starts::<f32, _>(3, NUM_STARTS, &mut rng);
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(3));
    let tel = Telemetry::disabled();
    for (backend, kernel) in backends {
        let full = backend.solve_batch(&one, &starts, &solver, &tel).unwrap();
        let empty = backend.solve_batch(&none, &starts, &solver, &tel).unwrap();
        let label = backend.label();
        assert_eq!(full.kernel, kernel, "{label}: one tensor");
        assert_eq!(empty.kernel, kernel, "{label}: no tensors");
        assert_eq!(empty.num_tensors(), 0, "{label}");
    }
}
