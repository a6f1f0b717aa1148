//! Convergence-trace behaviour from Kolda & Mayo's SS-HOPM analysis:
//! with the sufficient shift `|α| ≥ (m−1)·‖A‖_F` the shifted objective is
//! convex on the sphere and the λ sequence is monotone nondecreasing;
//! with α = 0 (plain S-HOPM) convergence is *not* guaranteed and the λ
//! sequence can oscillate. The recorded [`ConvergenceTrace`] must capture
//! both behaviours.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sshopm::{IterationPolicy, Shift, Solver, SsHopm};
use symtensor::SymTensor;
use telemetry::ConvergenceTrace;

/// Monotone tolerance: fixed-point roundoff per iteration, not algorithmic
/// decrease. The Kolda–Mayo guarantee is exact in real arithmetic.
const MONOTONE_TOL: f64 = 1e-12;

fn random_tensor(m: usize, n: usize, seed: u64) -> SymTensor<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    SymTensor::random(m, n, &mut rng)
}

fn first_start(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    sshopm::starts::random_uniform_starts(n, 1, &mut rng).remove(0)
}

#[test]
fn convex_shift_gives_monotone_nondecreasing_lambda_trace() {
    for seed in 0..20u64 {
        let a = random_tensor(4, 3, seed);
        let x0 = first_start(3, 1000 + seed);
        let solver = SsHopm::new(Shift::Convex).with_tolerance(1e-12);
        let (pair, trace) = solver.solve_trace(a.view(), &x0, false);
        assert!(pair.converged, "seed {seed} did not converge");
        assert_eq!(trace.len(), pair.iterations + 1);
        assert!(
            trace.is_monotone_nondecreasing(MONOTONE_TOL),
            "seed {seed}: max decrease {} violates Kolda–Mayo monotonicity",
            trace.max_decrease()
        );
        // The shift actually used satisfies the convexity bound.
        let m = a.order() as f64;
        assert!(pair.alpha >= (m - 1.0) * a.frobenius_norm() - 1e-9);
    }
}

#[test]
fn zero_shift_oscillates_on_some_tensor_and_trace_captures_it() {
    // α = 0 is plain S-HOPM, which Kolda & Mayo show need not converge for
    // general tensors. Search a deterministic seed stream for a tensor
    // whose λ sequence actually decreases somewhere; the guarantee of this
    // test is that the trace machinery *detects* the oscillation.
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(60));
    let mut oscillating: Option<(u64, ConvergenceTrace)> = None;
    for seed in 0..300u64 {
        let a = random_tensor(4, 3, seed);
        let x0 = first_start(3, 5000 + seed);
        let (_, trace) = solver.solve_trace(a.view(), &x0, false);
        assert_eq!(trace.len(), 61);
        if trace.has_decrease(1e-9) {
            oscillating = Some((seed, trace));
            break;
        }
    }
    let (seed, trace) =
        oscillating.expect("no oscillating α = 0 trajectory found in 300 deterministic seeds");
    assert!(trace.max_decrease() > 1e-9, "seed {seed}");
    assert!(!trace.is_monotone_nondecreasing(MONOTONE_TOL));

    // The same tensor under the convex sufficient shift is monotone: the
    // oscillation is the shift's fault, not the tensor's.
    let a = random_tensor(4, 3, seed);
    let x0 = first_start(3, 5000 + seed);
    let convex = SsHopm::new(Shift::Convex).with_tolerance(1e-12);
    let (pair, fixed_trace) = convex.solve_trace(a.view(), &x0, false);
    assert!(pair.converged);
    assert!(fixed_trace.is_monotone_nondecreasing(MONOTONE_TOL));
}

#[test]
fn residual_recording_is_optional_and_consistent() {
    let a = random_tensor(3, 4, 11);
    let x0 = first_start(4, 11);
    let solver = SsHopm::new(Shift::Convex).with_tolerance(1e-12);

    let (pair, without) = solver.solve_trace(a.view(), &x0, false);
    assert!(without.records.iter().all(|r| r.residual.is_none()));

    let (pair_r, with) = solver.solve_trace(a.view(), &x0, true);
    assert_eq!(
        pair.lambda, pair_r.lambda,
        "residual probes must not perturb the solve"
    );
    assert!(with.records.iter().all(|r| r.residual.is_some()));
    // Residual at the final iterate matches the eigenpair's own residual
    // and is small for a converged run.
    let last = with.records.last().unwrap();
    assert!(
        last.residual.unwrap() < 1e-5,
        "converged={} iters={} residual={}",
        pair_r.converged,
        pair_r.iterations,
        last.residual.unwrap()
    );
    assert!((last.residual.unwrap() - pair_r.residual(&a)).abs() < 1e-12);

    // Both traces record identical λ and shift sequences.
    assert_eq!(without.lambdas(), with.lambdas());
    for (u, v) in without.records.iter().zip(with.records.iter()) {
        assert_eq!(u.k, v.k);
        assert_eq!(u.alpha, v.alpha);
    }
}

#[test]
fn trace_serializes_for_export() {
    let a = random_tensor(4, 3, 3);
    let x0 = first_start(3, 3);
    let solver = SsHopm::new(Shift::Convex).with_tolerance(1e-10);
    let (_, trace) = solver.solve_trace(a.view(), &x0, true);
    let json = trace.to_value().to_json();
    let parsed = serde::Value::parse_json(&json).unwrap();
    let records = parsed.as_seq().unwrap();
    assert_eq!(records.len(), trace.len());
    assert!(records[0].get("lambda").unwrap().as_f64().is_some());
}
