//! The simulated GPU's shift rule, on every simulated-GPU backend: the
//! device kernel stages one `α` for a whole launch, so only SS-HOPM under
//! a fixed shift runs there. Every other solve — a convex, concave or
//! adaptive shift, GEAP, QRST — is a typed error that points at the cpu
//! backends, never a panic and never a silently different iteration.

use backend::{BackendSpec, KernelStrategy, ResilientBackend, SolveBackend};
use gpusim::FaultPlan;
use rand::SeedableRng;
use sshopm::{starts, IterationPolicy, Shift, SolverSpec};
use symtensor::TensorBatch;
use telemetry::Telemetry;

/// The five simulated-GPU substrates: one device, one host of two, a
/// pipelined host, a two-host cluster and the resilient wrapper.
fn gpu_backends() -> Vec<(&'static str, Box<dyn SolveBackend<f64>>)> {
    let strategy = KernelStrategy::General;
    let mut backends: Vec<(&'static str, Box<dyn SolveBackend<f64>>)> =
        ["gpusim", "gpusim:2", "pipelined", "cluster:2:1"]
            .into_iter()
            .map(|spec| {
                let backend = BackendSpec::parse(spec).unwrap().build(strategy).unwrap();
                (spec, backend)
            })
            .collect();
    let spec = BackendSpec::parse("gpusim:2").unwrap();
    let resilient = ResilientBackend::from_spec(&spec, strategy, FaultPlan::new(7)).unwrap();
    backends.push(("resilient", Box::new(resilient)));
    backends
}

fn workload() -> (TensorBatch<f64>, Vec<Vec<f64>>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(20);
    let tensors = TensorBatch::random(4, 3, 5, &mut rng).unwrap();
    let starts = starts::random_uniform_starts(3, 4, &mut rng);
    (tensors, starts)
}

#[test]
fn only_a_fixed_shift_runs_on_a_simulated_gpu() {
    let (tensors, starts) = workload();
    let policy = IterationPolicy::Fixed(6);
    let rejected = [
        ("sshopm", Shift::Convex),
        ("sshopm", Shift::Concave),
        ("sshopm", Shift::Adaptive),
        ("geap", Shift::Convex),
        ("qrst", Shift::Convex),
    ];
    let pinned = SolverSpec::parse("sshopm:0.5")
        .unwrap()
        .build::<f64>(Shift::Convex, policy);
    let cpu = BackendSpec::parse("cpu").unwrap();
    let reference = cpu
        .build::<f64>(KernelStrategy::General)
        .unwrap()
        .solve_batch(&tensors, &starts, &*pinned, &Telemetry::disabled())
        .unwrap();

    for (label, backend) in gpu_backends() {
        for (spec, shift) in rejected {
            let solver = SolverSpec::parse(spec).unwrap().build::<f64>(shift, policy);
            let err = backend
                .solve_batch(&tensors, &starts, &*solver, &Telemetry::disabled())
                .unwrap_err();
            let at = format!("{label}: {spec} under {shift:?}");
            assert!(err.0.contains("Shift::Fixed"), "{at}: {err}");
            assert!(err.0.contains("cpu backend"), "{at}: {err}");
        }

        let report = backend
            .solve_batch(&tensors, &starts, &*pinned, &Telemetry::disabled())
            .unwrap_or_else(|e| panic!("{label}: sshopm:0.5 must run: {e}"));
        assert_eq!(
            report.total_iterations, reference.total_iterations,
            "{label}"
        );
        assert_eq!(report.results.len(), reference.results.len(), "{label}");
        for (row, want) in report.results.iter().zip(&reference.results) {
            assert_eq!(row.len(), want.len(), "{label}");
            for (pair, want) in row.iter().zip(want) {
                assert_eq!(pair.alpha, 0.5, "{label}");
                assert_eq!(pair.lambda.to_bits(), want.lambda.to_bits(), "{label}");
            }
        }
    }
}
