//! Solver-parity: the `Solver`-trait refactor must be invisible to the
//! default path. `SolverSpec::parse("sshopm")` built with the caller's
//! shift and a `Converge` policy is the *same object* the pre-trait code
//! constructed with `SsHopm::new(shift).with_tolerance(tol)`, so every
//! backend must produce bitwise-identical eigenpairs, iteration counts
//! and convergence flags for the two spellings.

use backend::{BatchReport, CpuParallel, GpuSimBackend, KernelStrategy, SolveBackend};
use gpusim::{DeviceSpec, TransferModel};
use rand::SeedableRng;
use sshopm::{starts, IterationPolicy, Shift, Solver, SolverSpec, SsHopm};
use symtensor::TensorBatch;
use telemetry::Telemetry;

const NUM_TENSORS: usize = 6;
const NUM_STARTS: usize = 8;
const TOL: f64 = 1e-6;
const MAX_ITERS: usize = 200;

fn workload(m: usize, n: usize) -> (TensorBatch<f32>, Vec<Vec<f32>>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xbeef);
    let tensors = TensorBatch::random(m, n, NUM_TENSORS, &mut rng).unwrap();
    let starts = starts::random_uniform_starts::<f32, _>(n, NUM_STARTS, &mut rng);
    (tensors, starts)
}

fn backends(strategy: KernelStrategy) -> Vec<Box<dyn SolveBackend<f32>>> {
    vec![
        Box::new(CpuParallel::new(1, strategy)),
        Box::new(CpuParallel::new(4, strategy)),
        Box::new(GpuSimBackend::new(DeviceSpec::tesla_c2050(), strategy)),
        Box::new(
            GpuSimBackend::on_host(
                vec![DeviceSpec::tesla_c2050(); 2],
                TransferModel::pcie2(),
                strategy,
            )
            .unwrap(),
        ),
    ]
}

fn assert_bitwise_equal(got: &BatchReport<f32>, want: &BatchReport<f32>, label: &str) {
    assert_eq!(got.total_iterations, want.total_iterations, "{label}");
    for ((t, v, g), (_, _, w)) in got.iter_flat().zip(want.iter_flat()) {
        assert_eq!(
            g.lambda.to_bits(),
            w.lambda.to_bits(),
            "{label}: tensor {t} start {v} lambda"
        );
        assert_eq!(g.iterations, w.iterations, "{label}: tensor {t} start {v}");
        assert_eq!(g.converged, w.converged, "{label}: tensor {t} start {v}");
        for (i, (gx, wx)) in g.x.iter().zip(&w.x).enumerate() {
            assert_eq!(
                gx.to_bits(),
                wx.to_bits(),
                "{label}: tensor {t} start {v} x[{i}]"
            );
        }
    }
}

/// The exact solver the CLI builds for `--solver sshopm --shift A --tol
/// T` — the refactored spec path.
fn spec_solver(spec: &str, shift: Shift) -> Box<dyn Solver<f32>> {
    SolverSpec::parse(spec).unwrap().build::<f32>(
        shift,
        IterationPolicy::Converge {
            tol: TOL,
            max_iters: MAX_ITERS,
        },
    )
}

/// The pre-refactor construction: a concrete `SsHopm` configured the way
/// every call site spelled it before the `Solver` trait existed.
fn legacy_solver(shift: Shift) -> SsHopm {
    SsHopm::new(shift)
        .with_tolerance(TOL)
        .with_max_iters(MAX_ITERS)
}

#[test]
fn default_spec_is_bitwise_identical_to_pre_refactor_sshopm() {
    let (tensors, starts) = workload(4, 3);
    for shift in [Shift::Fixed(1.0), Shift::Fixed(0.0), Shift::Convex] {
        let spec = spec_solver("sshopm", shift);
        let legacy = legacy_solver(shift);
        for backend in backends(KernelStrategy::General) {
            // GPU backends reject adaptive shifts for any solver; skip
            // those combinations (covered by the resilience suite).
            let via_spec =
                match backend.solve_batch(&tensors, &starts, &*spec, &Telemetry::disabled()) {
                    Ok(report) => report,
                    Err(_) => continue,
                };
            let via_legacy = backend
                .solve_batch(&tensors, &starts, &legacy, &Telemetry::disabled())
                .unwrap();
            assert_bitwise_equal(
                &via_spec,
                &via_legacy,
                &format!("{} shift {shift:?}", via_spec.backend),
            );
            assert_eq!(via_spec.solver, "sshopm");
        }
    }
}

#[test]
fn boxed_and_borrowed_solver_spellings_agree() {
    // The blanket impls (`&T`, `Box<T>`) must not change behaviour: a
    // boxed trait object, a bare reference and a double reference all
    // drive the same iteration.
    let (tensors, starts) = workload(4, 3);
    let concrete = legacy_solver(Shift::Fixed(1.0));
    let boxed: Box<dyn Solver<f32>> = Box::new(legacy_solver(Shift::Fixed(1.0)));
    let backend = CpuParallel::new(1, KernelStrategy::General);
    let via_concrete = backend
        .solve_batch(&tensors, &starts, &concrete, &Telemetry::disabled())
        .unwrap();
    let via_boxed = backend
        .solve_batch(&tensors, &starts, &*boxed, &Telemetry::disabled())
        .unwrap();
    let via_double_ref = backend
        .solve_batch(&tensors, &starts, &&concrete, &Telemetry::disabled())
        .unwrap();
    assert_bitwise_equal(&via_boxed, &via_concrete, "boxed vs concrete");
    assert_bitwise_equal(&via_double_ref, &via_concrete, "&& vs concrete");
}
