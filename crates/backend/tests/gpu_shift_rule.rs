//! The simulated GPU's shift rule, on every simulated-GPU backend: the
//! device runs what the lockstep lanes run, SS-HOPM under a shift that is
//! a constant of each tensor — fixed, convex or concave, one `α` per
//! block — and returns the cpu backend's bits for it. The adaptive shift,
//! GEAP and QRST re-evaluate per iterate, so they are a typed error that
//! points at the cpu backends, never a panic and never a silently
//! different iteration.

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
fn tensor_constant_shifts_run_on_a_simulated_gpu() {
    let (tensors, starts) = workload();
    let cpu = BackendSpec::parse("cpu")
        .unwrap()
        .build::<f64>(KernelStrategy::General)
        .unwrap();
    let accepted = [
        ("sshopm", Shift::Fixed(0.0)),
        ("sshopm", Shift::Convex),
        ("sshopm", Shift::Concave),
        ("sshopm", Shift::Fixed(0.5)),
    ];
    let policies = [
        IterationPolicy::Fixed(6),
        IterationPolicy::Converge {
            tol: 1e-10,
            max_iters: 200,
        },
    ];
    let rejected = [
        ("sshopm", Shift::Adaptive),
        ("geap", Shift::Convex),
        ("qrst", Shift::Convex),
    ];
    let gpus = gpu_backends();

    for policy in policies {
        for (spec, shift) in accepted {
            let solver = SolverSpec::parse(spec).unwrap().build::<f64>(shift, policy);
            let reference = cpu
                .solve_batch(&tensors, &starts, &*solver, &Telemetry::disabled())
                .unwrap();
            for (label, backend) in &gpus {
                let at = format!("{label}: {spec} under {shift:?}, {policy:?}");
                let report = backend
                    .solve_batch(&tensors, &starts, &*solver, &Telemetry::disabled())
                    .unwrap_or_else(|e| panic!("{at} must run: {e}"));
                assert_eq!(report.total_iterations, reference.total_iterations, "{at}");
                assert_eq!(report.results.len(), reference.results.len(), "{at}");
                for (row, want) in report.results.iter().zip(&reference.results) {
                    assert_eq!(row.len(), want.len(), "{at}");
                    for (pair, want) in row.iter().zip(want) {
                        assert_eq!(pair.lambda.to_bits(), want.lambda.to_bits(), "{at}");
                        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&pair.x), bits(&want.x), "{at}");
                        assert_eq!(pair.alpha.to_bits(), want.alpha.to_bits(), "{at}");
                        assert_eq!(pair.iterations, want.iterations, "{at}");
                        assert_eq!(pair.converged, want.converged, "{at}");
                    }
                }
            }
        }
    }

    let policy = policies[0];
    for (label, backend) in &gpus {
        for (spec, shift) in rejected {
            let solver = SolverSpec::parse(spec).unwrap().build::<f64>(shift, policy);
            let err = backend
                .solve_batch(&tensors, &starts, &*solver, &Telemetry::disabled())
                .unwrap_err();
            let at = format!("{label}: {spec} under {shift:?}");
            assert!(err.0.contains("constant of each tensor"), "{at}: {err}");
            assert!(err.0.contains("cpu backend"), "{at}: {err}");
        }
    }
}
