//! The lending contract of `SolveBackend::solve_batch_each`: every
//! tensor's row of pairs is lent exactly once, bit-identical to the row
//! `solve_batch` returns for it. `CpuParallel` lends from its lane engine
//! and from its per-tensor engine, on one to three workers; the simulated
//! GPU and a backend that implements only `solve_batch` lend through the
//! trait's default.

use backend::{BackendError, BackendSpec, BatchReport, KernelStrategy, SolveBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sshopm::{starts, Eigenpair, IterationPolicy, Shift, Solver, SolverSpec, SsHopm};
use std::sync::Mutex;
use symtensor::{Scalar, TensorBatch};
use telemetry::Telemetry;

/// The rows `backend` lends for `batch`, in tensor order. Fails unless
/// every tensor's row arrives exactly once.
fn lent<S: Scalar>(
    backend: &dyn SolveBackend<S>,
    batch: &TensorBatch<S>,
    starts: &[Vec<S>],
    solver: &dyn Solver<S>,
) -> Vec<Vec<Eigenpair<S>>> {
    let rows: Vec<Mutex<Option<Vec<Eigenpair<S>>>>> =
        (0..batch.len()).map(|_| Mutex::new(None)).collect();
    let each = |t: usize, row: &[Eigenpair<S>]| {
        let earlier = rows[t].lock().unwrap().replace(row.to_vec());
        assert!(earlier.is_none(), "tensor {t} lent twice");
    };
    backend
        .solve_batch_each(batch, starts, solver, &Telemetry::disabled(), &each)
        .unwrap();
    rows.into_iter()
        .enumerate()
        .map(|(t, row)| {
            let row = row.into_inner().unwrap();
            row.unwrap_or_else(|| panic!("tensor {t} was never lent"))
        })
        .collect()
}

fn bits<S: Scalar>(v: S) -> u64 {
    v.to_f64().to_bits()
}

/// Assert that the rows `backend` lends are the rows its `solve_batch`
/// returns, to the bit in λ, `x`, iterations, `converged` and `alpha`.
fn assert_lends_its_rows<S: Scalar>(
    backend: &dyn SolveBackend<S>,
    batch: &TensorBatch<S>,
    starts: &[Vec<S>],
    solver: &dyn Solver<S>,
    at: &str,
) {
    let report = backend
        .solve_batch(batch, starts, solver, &Telemetry::disabled())
        .unwrap();
    let got = lent(backend, batch, starts, solver);
    assert_eq!(got.len(), report.results.len(), "{at}");
    for (t, (got, want)) in got.iter().zip(&report.results).enumerate() {
        assert_eq!(got.len(), want.len(), "{at}: tensor {t}");
        for (v, (g, w)) in got.iter().zip(want).enumerate() {
            let pair = format!("{at}: tensor {t} start {v}");
            assert_eq!(bits(g.lambda), bits(w.lambda), "{pair}");
            assert_eq!(g.x.len(), w.x.len(), "{pair}");
            for (a, b) in g.x.iter().zip(&w.x) {
                assert_eq!(bits(*a), bits(*b), "{pair}");
            }
            assert_eq!(g.iterations, w.iterations, "{pair}");
            assert_eq!(g.converged, w.converged, "{pair}");
            assert_eq!(g.alpha.to_bits(), w.alpha.to_bits(), "{pair}");
        }
    }
}

/// `count` random (4, 3) tensors and five starts, the third of them zero.
fn workload(count: usize, seed: u64) -> (TensorBatch<f64>, Vec<Vec<f64>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tensors = TensorBatch::random(4, 3, count, &mut rng).unwrap();
    let mut starts = starts::random_uniform_starts(3, 4, &mut rng);
    starts.insert(2, vec![0.0; 3]);
    (tensors, starts)
}

fn cpu(spec: &str, strategy: KernelStrategy) -> Box<dyn SolveBackend<f64>> {
    spec.parse::<BackendSpec>()
        .unwrap()
        .build::<f64>(strategy)
        .unwrap()
}

/// On `cpu`, `cpu:2` and `cpu:3`, the lane engine (the batched plan under
/// a tensor-constant shift) and the per-tensor engine (the general plan,
/// or any plan under the adaptive shift, GEAP or QRST) lend the rows
/// their `solve_batch` returns: converging and zero-cap solves, a
/// poisoned start, no starts, and a batch of more than one lane stream.
#[test]
fn cpu_backends_lend_the_rows_solve_batch_returns() {
    let converge = IterationPolicy::Converge {
        tol: 1e-12,
        max_iters: 300,
    };
    let solvers: Vec<(&str, Box<dyn Solver<f64>>)> = vec![
        (
            "convex",
            Box::new(SsHopm::new(Shift::Convex).with_policy(converge)),
        ),
        (
            "shift 0",
            Box::new(SsHopm::new(Shift::Fixed(0.0)).with_policy(converge)),
        ),
        (
            "zero cap",
            Box::new(SsHopm::new(Shift::Convex).with_policy(IterationPolicy::Fixed(0))),
        ),
        (
            "adaptive",
            Box::new(SsHopm::new(Shift::Adaptive).with_policy(converge)),
        ),
        (
            "geap",
            SolverSpec::parse("geap")
                .unwrap()
                .build(Shift::Convex, converge),
        ),
    ];
    let (tensors, starts) = workload(9, 1);
    for spec in ["cpu", "cpu:2", "cpu:3"] {
        for strategy in [KernelStrategy::Batched, KernelStrategy::General] {
            let backend = cpu(spec, strategy);
            for (name, solver) in &solvers {
                let at = format!("{spec} {strategy} {name}");
                assert_lends_its_rows(&*backend, &tensors, &starts, &**solver, &at);
                let none = format!("{at}, no starts");
                assert_lends_its_rows(&*backend, &tensors, &[], &**solver, &none);
            }
        }
    }

    // More tensors than one lane stream holds.
    let (tensors, starts) = workload(sshopm::lockstep::STREAM_TENSORS + 7, 2);
    let solver = SsHopm::new(Shift::Fixed(0.5)).with_policy(IterationPolicy::Fixed(4));
    for spec in ["cpu", "cpu:2", "cpu:3"] {
        for strategy in [KernelStrategy::Batched, KernelStrategy::General] {
            let at = format!("{spec} {strategy} streams");
            assert_lends_its_rows(&*cpu(spec, strategy), &tensors, &starts, &solver, &at);
        }
    }
}

/// The simulated GPU lends through the trait's default: its
/// `solve_batch`'s rows, in order.
#[test]
fn gpusim_lends_through_the_default() {
    let (tensors, starts) = workload(11, 3);
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_tolerance(1e-12);
    for spec in ["gpusim", "gpusim:2", "pipelined:2"] {
        for strategy in [KernelStrategy::Batched, KernelStrategy::General] {
            let backend = cpu(spec, strategy);
            let at = format!("{spec} {strategy}");
            assert_lends_its_rows(&*backend, &tensors, &starts, &solver, &at);
        }
    }
    // A shift the device cannot stage is the same error either way.
    let backend = cpu("gpusim", KernelStrategy::Batched);
    let adaptive = SsHopm::new(Shift::Adaptive);
    let err = backend
        .solve_batch_each(
            &tensors,
            &starts,
            &adaptive,
            &Telemetry::disabled(),
            &|_, _| {},
        )
        .unwrap_err();
    let want = backend
        .solve_batch(&tensors, &starts, &adaptive, &Telemetry::disabled())
        .unwrap_err();
    assert_eq!(err.to_string(), want.to_string());
}

/// A backend that implements only `solve_batch`, handing back fixed rows.
struct Stub(Vec<Vec<Eigenpair<f64>>>);

impl SolveBackend<f64> for Stub {
    fn label(&self) -> String {
        "stub".to_string()
    }

    fn solve_batch(
        &self,
        _batch: &TensorBatch<f64>,
        _starts: &[Vec<f64>],
        solver: &dyn Solver<f64>,
        _telemetry: &Telemetry,
    ) -> Result<BatchReport<f64>, BackendError> {
        Ok(BatchReport {
            backend: "stub".to_string(),
            kernel: "general".to_string(),
            solver: solver.name().to_string(),
            results: self.0.clone(),
            total_iterations: 0,
            seconds: 0.0,
            useful_flops: 0,
            profiles: Vec::new(),
            hosts: Vec::new(),
            comm: Default::default(),
            fault_log: Default::default(),
            kernel_cache: None,
            timeline: None,
        })
    }
}

/// The default lends a stub's rows as they are, in order, on the calling
/// thread.
#[test]
fn the_default_lends_solve_batch_rows_in_order() {
    let pair = |lambda: f64| Eigenpair {
        lambda,
        x: vec![1.0, 0.0, 0.0],
        iterations: 2,
        converged: true,
        alpha: 0.5,
    };
    let rows = vec![vec![pair(1.0), pair(2.0)], vec![], vec![pair(f64::NAN)]];
    let stub = Stub(rows);
    let (tensors, starts) = workload(3, 4);
    let solver = SsHopm::new(Shift::Convex);
    assert_lends_its_rows(&stub, &tensors, &starts, &solver, "stub");
    let caller = std::thread::current().id();
    let order = Mutex::new(Vec::new());
    stub.solve_batch_each(
        &tensors,
        &starts,
        &solver,
        &Telemetry::disabled(),
        &|t, _| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(t);
        },
    )
    .unwrap();
    assert_eq!(order.into_inner().unwrap(), [0, 1, 2]);
}
