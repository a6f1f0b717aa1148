//! The core SS-HOPM iteration (Figure 1 of the paper).
//!
//! ```text
//! repeat
//!     if α ≥ 0:  x̂_{k+1} ← A·x_kᵐ⁻¹ + α·x_k
//!     else:      x̂_{k+1} ← −(A·x_kᵐ⁻¹ + α·x_k)
//!     x_{k+1} ← x̂_{k+1} / ‖x̂_{k+1}‖
//!     λ_{k+1} ← A·x_{k+1}ᵐ
//! until λ converges
//! ```

use crate::shift::Shift;
use symtensor::kernels::{GeneralKernels, TensorKernels};
use symtensor::scalar::{norm2, normalize};
use symtensor::{Scalar, SymTensorRef};

/// Per-iteration observables handed to an [`IterationObserver`].
///
/// `k = 0` reports the initial iterate (λ of the normalized start vector,
/// before any update); `k ≥ 1` reports the state after the `k`-th update.
#[derive(Debug)]
pub struct IterationUpdate<'a, S> {
    /// Iteration index (0 = initial iterate).
    pub k: usize,
    /// Rayleigh quotient `λ_k = A·x_kᵐ`.
    pub lambda: f64,
    /// Shift α in effect for the update producing this iterate (for
    /// `k = 0`, the shift that the first update will use).
    pub alpha: f64,
    /// The current unit iterate.
    pub x: &'a [S],
}

/// Observes each solver iteration; see [`Solver::solve_one`](crate::Solver::solve_one).
///
/// Implemented for any `FnMut(&IterationUpdate<S>)` closure. Observation
/// happens at iteration granularity, outside the `axm`/`axm1` kernels, so
/// a cheap observer adds negligible cost; the unobserved solve paths
/// monomorphize the no-op observer away entirely.
pub trait IterationObserver<S> {
    /// Handle one iteration's observables.
    fn observe(&mut self, update: &IterationUpdate<'_, S>);
}

/// The do-nothing observer used by the plain solve paths.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl<S> IterationObserver<S> for NoopObserver {
    #[inline]
    fn observe(&mut self, _update: &IterationUpdate<'_, S>) {}
}

impl<S, F: FnMut(&IterationUpdate<'_, S>)> IterationObserver<S> for F {
    #[inline]
    fn observe(&mut self, update: &IterationUpdate<'_, S>) {
        self(update)
    }
}

/// When to stop iterating.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IterationPolicy {
    /// Stop when `|λ_{k+1} − λ_k|` falls below the tolerance, or after the
    /// maximum number of iterations, whichever comes first.
    Converge {
        /// Absolute tolerance on successive eigenvalue estimates.
        tol: f64,
        /// Hard iteration cap.
        max_iters: usize,
    },
    /// Run exactly this many iterations (the regime used for the paper's
    /// GPU throughput benchmarks, where every thread does identical work).
    Fixed(usize),
}

impl IterationPolicy {
    /// The stopping rule unpacked: the `|Δλ|` tolerance, the iteration
    /// cap, and whether `|Δλ|` is tested at all (not under
    /// [`Fixed`](Self::Fixed), whose solves always report converged).
    pub(crate) fn limits(self) -> (f64, usize, bool) {
        match self {
            IterationPolicy::Converge { tol, max_iters } => (tol, max_iters, true),
            IterationPolicy::Fixed(k) => (0.0, k, false),
        }
    }
}

impl Default for IterationPolicy {
    fn default() -> Self {
        IterationPolicy::Converge {
            tol: 1e-10,
            max_iters: 1000,
        }
    }
}

/// A computed (approximate) eigenpair with solve metadata.
#[derive(Debug, Clone)]
pub struct Eigenpair<S> {
    /// Eigenvalue estimate `λ = A·xᵐ`.
    pub lambda: S,
    /// Unit eigenvector estimate.
    pub x: Vec<S>,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the convergence criterion was met (always `true` under
    /// [`IterationPolicy::Fixed`]).
    pub converged: bool,
    /// The (final) shift used.
    pub alpha: f64,
}

impl<S: Scalar> Eigenpair<S> {
    /// The pair a solve returns when it cannot run or its kernels fail:
    /// `lambda = NaN`, `converged = false`, `iterations = 0`, with the
    /// iterate `x` it stopped at and the shift then in effect. Batch
    /// drivers thus fail per tensor instead of aborting the process.
    pub(crate) fn poisoned(x: Vec<S>, alpha: f64) -> Self {
        Self {
            lambda: S::from_f64(f64::NAN),
            x,
            iterations: 0,
            converged: false,
            alpha,
        }
    }

    /// Eigenpair residual `‖A·xᵐ⁻¹ − λ·x‖₂`, the definitional measure of
    /// eigenpair quality (Definition 3 of the paper).
    ///
    /// Accepts anything that views as a packed tensor — `&SymTensor<S>` or
    /// a borrowed [`SymTensorRef`] straight out of a
    /// [`symtensor::TensorBatch`] arena.
    pub fn residual<'a>(&self, a: impl Into<SymTensorRef<'a, S>>) -> f64
    where
        S: 'a,
    {
        let a = a.into();
        let n = a.dim();
        let mut y = vec![S::ZERO; n];
        if symtensor::kernels::axm1(a, &self.x, &mut y).is_err() {
            // A residual cannot be evaluated against a mismatched tensor;
            // infinity keeps "smaller is better" orderings meaningful.
            return f64::INFINITY;
        }
        let mut acc = 0.0f64;
        for (yi, xi) in y.iter().zip(&self.x) {
            let d = yi.to_f64() - self.lambda.to_f64() * xi.to_f64();
            acc += d * d;
        }
        acc.sqrt()
    }

    /// True if the eigenvalue and every eigenvector component are finite.
    ///
    /// SS-HOPM with a valid (convex/concave) shift converges monotonically
    /// (Kolda–Mayo), so a NaN or infinity in the result is never a
    /// legitimate answer — it indicates corrupted input data or a diverged
    /// iteration, and resilient callers treat it as a detected fault.
    pub fn is_finite(&self) -> bool {
        self.lambda.is_finite() && self.x.iter().all(|v| v.is_finite())
    }

    /// The eigenpair with the eigenvector's sign flipped; for even tensor
    /// order this is an equally valid eigenpair (`λ, −x`), for odd order the
    /// eigenvalue flips too (`−λ, −x`).
    pub fn negated(&self, m: usize) -> Self {
        Self {
            lambda: if m.is_multiple_of(2) {
                self.lambda
            } else {
                -self.lambda
            },
            x: self.x.iter().map(|&v| -v).collect(),
            iterations: self.iterations,
            converged: self.converged,
            alpha: self.alpha,
        }
    }
}

/// The SS-HOPM solver: a shift policy plus an iteration policy.
#[derive(Debug, Clone, Copy)]
pub struct SsHopm {
    shift: Shift,
    policy: IterationPolicy,
}

impl SsHopm {
    /// Create a solver with the given shift policy and default convergence
    /// policy (`tol = 1e-10`, `max_iters = 1000`).
    pub fn new(shift: Shift) -> Self {
        Self {
            shift,
            policy: IterationPolicy::default(),
        }
    }

    /// Replace the convergence tolerance (keeps the iteration cap).
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        if let IterationPolicy::Converge { max_iters, .. } = self.policy {
            self.policy = IterationPolicy::Converge { tol, max_iters };
        }
        self
    }

    /// Replace the iteration cap (keeps the tolerance).
    pub fn with_max_iters(mut self, max_iters: usize) -> Self {
        if let IterationPolicy::Converge { tol, .. } = self.policy {
            self.policy = IterationPolicy::Converge { tol, max_iters };
        }
        self
    }

    /// Replace the whole iteration policy.
    pub fn with_policy(mut self, policy: IterationPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The shift policy.
    pub fn shift(&self) -> Shift {
        self.shift
    }

    /// The iteration policy.
    pub fn policy(&self) -> IterationPolicy {
        self.policy
    }

    /// Run SS-HOPM from `x0` with the default on-the-fly kernels.
    ///
    /// Accepts `&SymTensor<S>` or a borrowed [`SymTensorRef`] (e.g. one
    /// tensor of a [`symtensor::TensorBatch`] arena) — no copy either way.
    ///
    /// A mismatched or zero `x0`, or a kernel/tensor shape mismatch, yields
    /// a *poisoned* eigenpair (`lambda = NaN`, `converged = false`,
    /// `iterations = 0`) rather than a panic, so batch drivers degrade
    /// per-tensor; see [`Eigenpair::is_finite`].
    pub fn solve<'a, S: Scalar>(
        &self,
        a: impl Into<SymTensorRef<'a, S>>,
        x0: &[S],
    ) -> Eigenpair<S> {
        self.solve_with(&GeneralKernels, a, x0)
    }

    /// Run SS-HOPM from `x0` using a caller-chosen kernel implementation
    /// (general / precomputed / unrolled). Observed, traced and
    /// scratch-reusing solves go through the [`Solver`](crate::Solver)
    /// trait.
    pub fn solve_with<'a, S: Scalar, K: TensorKernels<S> + ?Sized>(
        &self,
        kernels: &K,
        a: impl Into<SymTensorRef<'a, S>>,
        x0: &[S],
    ) -> Eigenpair<S> {
        self.iterate(kernels, a.into(), x0, &mut NoopObserver, &mut Vec::new())
    }

    /// The iteration behind [`solve_with`](Self::solve_with) and
    /// [`Solver::solve_one`](crate::Solver::solve_one), monomorphized for
    /// each: the observer sees the initial iterate (`k = 0`) and each
    /// later one, outside the kernel inner loops, and with
    /// [`NoopObserver`] compiles away. `scratch` is the one length-`n` work
    /// vector, cleared and resized before use, so a driver that passes the
    /// same buffer to every solve allocates only the returned eigenvector
    /// and, under a convex or concave shift, the one index class its
    /// `‖A‖_F` walk uses, however many iterations it runs.
    pub(crate) fn iterate<S, K, O>(
        &self,
        kernels: &K,
        a: SymTensorRef<'_, S>,
        x0: &[S],
        observer: &mut O,
        scratch: &mut Vec<S>,
    ) -> Eigenpair<S>
    where
        S: Scalar,
        K: TensorKernels<S> + ?Sized,
        O: IterationObserver<S> + ?Sized,
    {
        let n = a.dim();
        let Some(mut x) = unit_start(x0, n) else {
            return Eigenpair::poisoned(vec![S::ZERO; n], 0.0);
        };
        let (tol, max_iters, converge_mode) = self.policy.limits();

        let mut lambda = match kernels.axm(a, &x) {
            Ok(v) => v,
            Err(_) => return Eigenpair::poisoned(x, 0.0),
        };
        // Fixed, convex and concave shifts are constants of the tensor:
        // resolve them once per solve. Only the adaptive shift is
        // re-evaluated at each iterate.
        let fixed_alpha = self.shift.fixed_value(a);
        let mut alpha = fixed_alpha.unwrap_or_else(|| self.shift.value_at(a, &x));
        observer.observe(&IterationUpdate {
            k: 0,
            lambda: lambda.to_f64(),
            alpha,
            x: &x,
        });
        scratch.clear();
        scratch.resize(n, S::ZERO);
        let y = scratch;
        let mut iterations = 0;
        let mut converged = false;

        for _ in 0..max_iters {
            // x̂ ← A x^{m-1} + α x   (negated when α < 0).
            if kernels.axm1(a, &x, y).is_err() {
                return Eigenpair::poisoned(x, alpha);
            }
            let alpha_s = S::from_f64(alpha);
            if alpha >= 0.0 {
                for (yi, &xi) in y.iter_mut().zip(x.iter()) {
                    *yi += alpha_s * xi;
                }
            } else {
                for (yi, &xi) in y.iter_mut().zip(x.iter()) {
                    *yi = -(*yi + alpha_s * xi);
                }
            }
            let nrm = norm2(y);
            if nrm == S::ZERO {
                // Degenerate: A x^{m-1} = -alpha x exactly. x is already an
                // eigenvector of the shifted map; stop here.
                iterations += 1;
                converged = converge_mode;
                break;
            }
            for (xi, &yi) in x.iter_mut().zip(y.iter()) {
                *xi = yi / nrm;
            }
            let new_lambda = match kernels.axm(a, &x) {
                Ok(v) => v,
                Err(_) => return Eigenpair::poisoned(x, alpha),
            };
            iterations += 1;
            observer.observe(&IterationUpdate {
                k: iterations,
                lambda: new_lambda.to_f64(),
                alpha,
                x: &x,
            });
            if converge_mode && (new_lambda - lambda).abs().to_f64() <= tol {
                lambda = new_lambda;
                converged = true;
                break;
            }
            lambda = new_lambda;
            if fixed_alpha.is_none() {
                alpha = self.shift.value_at(a, &x);
            }
        }

        Eigenpair {
            lambda,
            x,
            iterations,
            converged: converged || !converge_mode,
            alpha,
        }
    }
}

/// The unit vector a solve on an `n`-dimensional tensor starts from:
/// `x0` normalized, or `None` when `x0` has the wrong length or is zero.
/// Every solver, the lane driver included, answers `None` with a
/// [poisoned](Eigenpair::poisoned) pair whose `x` is the zero vector.
pub(crate) fn unit_start<S: Scalar>(x0: &[S], n: usize) -> Option<Vec<S>> {
    if x0.len() != n {
        return None;
    }
    let mut x = x0.to_vec();
    (normalize(&mut x) != S::ZERO).then_some(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Solver;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor::{PrecomputedTables, SymTensor};

    /// The λ of every iterate, the initial one included.
    fn lambda_trace(solver: &SsHopm, a: &SymTensor<f64>, x0: &[f64]) -> Vec<f64> {
        Solver::solve_trace(solver, a.view(), x0, false).1.lambdas()
    }

    fn random_tensor(m: usize, n: usize, seed: u64) -> SymTensor<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        SymTensor::random(m, n, &mut rng)
    }

    #[test]
    fn matrix_case_recovers_dominant_eigenpair() {
        // m=2 with alpha=0 is the classical power method. diag(3, 1):
        // dominant eigenpair (3, e_0).
        let mut a = SymTensor::<f64>::zeros(2, 2);
        a.set(&[0, 0], 3.0).unwrap();
        a.set(&[1, 1], 1.0).unwrap();
        let solver = SsHopm::new(Shift::Fixed(0.0)).with_tolerance(1e-14);
        let pair = solver.solve(&a, &[0.5, 0.5]);
        assert!(pair.converged);
        assert!((pair.lambda - 3.0).abs() < 1e-6);
        assert!(pair.x[0].abs() > 0.999);
    }

    #[test]
    fn converged_pairs_satisfy_eigen_equation() {
        for seed in 0..5 {
            let a = random_tensor(4, 3, seed);
            let solver = SsHopm::new(Shift::Convex).with_tolerance(1e-13);
            let pair = solver.solve(&a, &[0.3, -0.5, 0.8]);
            assert!(pair.converged, "seed {seed}");
            assert!(
                pair.residual(&a) < 1e-5,
                "seed {seed}: {}",
                pair.residual(&a)
            );
            // Unit eigenvector.
            let nrm: f64 = pair.x.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!((nrm - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn convex_shift_converges_monotonically() {
        let a = random_tensor(4, 3, 10);
        let solver = SsHopm::new(Shift::Convex).with_tolerance(1e-13);
        let trace = lambda_trace(&solver, &a, &[1.0, 1.0, 1.0]);
        // Kolda-Mayo: with alpha above the convexity bound, lambda_k is
        // nondecreasing.
        for w in trace.windows(2) {
            assert!(w[1] >= w[0] - 1e-10, "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn concave_shift_converges_to_local_minimum() {
        let a = random_tensor(4, 3, 11);
        let up = SsHopm::new(Shift::Convex).solve(&a, &[0.2, 0.3, 0.9]);
        let down = SsHopm::new(Shift::Concave).solve(&a, &[0.2, 0.3, 0.9]);
        assert!(down.lambda <= up.lambda);
        let trace = lambda_trace(&SsHopm::new(Shift::Concave), &a, &[0.2, 0.3, 0.9]);
        for w in trace.windows(2) {
            assert!(w[1] <= w[0] + 1e-10);
        }
    }

    #[test]
    fn adaptive_shift_converges_at_least_as_fast_as_fixed_bound() {
        let mut fixed_total = 0usize;
        let mut adaptive_total = 0usize;
        for seed in 20..30 {
            let a = random_tensor(4, 3, seed);
            let x0 = [0.6, -0.7, 0.4];
            let fixed = SsHopm::new(Shift::Convex)
                .with_tolerance(1e-12)
                .solve(&a, &x0);
            let adaptive = SsHopm::new(Shift::Adaptive)
                .with_tolerance(1e-12)
                .solve(&a, &x0);
            assert!(adaptive.converged && fixed.converged, "seed {seed}");
            assert!(adaptive.residual(&a) < 1e-4);
            fixed_total += fixed.iterations;
            adaptive_total += adaptive.iterations;
        }
        assert!(
            adaptive_total <= fixed_total,
            "adaptive {adaptive_total} vs fixed {fixed_total}"
        );
    }

    #[test]
    fn fixed_policy_runs_exact_iteration_count() {
        let a = random_tensor(4, 3, 31);
        let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(17));
        let pair = solver.solve(&a, &[1.0, 0.0, 0.0]);
        assert_eq!(pair.iterations, 17);
        assert!(pair.converged, "fixed policy always reports success");
    }

    #[test]
    fn unconverged_solve_is_reported() {
        let a = random_tensor(4, 3, 32);
        let solver = SsHopm::new(Shift::Convex)
            .with_tolerance(0.0)
            .with_max_iters(2);
        let pair = solver.solve(&a, &[1.0, 1.0, 1.0]);
        assert!(!pair.converged);
        assert_eq!(pair.iterations, 2);
    }

    #[test]
    fn tensor_constant_shifts_match_their_fixed_value_bitwise() {
        fn check<S: Scalar>(a: &SymTensor<S>, x0: &[S]) {
            for shift in [Shift::Convex, Shift::Concave] {
                let alpha = shift.fixed_value(a).unwrap();
                let got = SsHopm::new(shift).solve(a, x0);
                let want = SsHopm::new(Shift::Fixed(alpha)).solve(a, x0);
                let bits = |v: S| v.to_f64().to_bits();
                let (m, n) = (a.order(), a.dim());
                assert_eq!(bits(got.lambda), bits(want.lambda), "({m},{n}) {shift:?}");
                assert_eq!(
                    got.x.iter().map(|&v| bits(v)).collect::<Vec<_>>(),
                    want.x.iter().map(|&v| bits(v)).collect::<Vec<_>>()
                );
                assert_eq!(got.iterations, want.iterations);
                assert_eq!(got.converged, want.converged);
                assert_eq!(got.alpha.to_bits(), want.alpha.to_bits());
            }
        }
        for (seed, (m, n)) in [(3, 3), (4, 3), (6, 3)].into_iter().enumerate() {
            let a = random_tensor(m, n, 40 + seed as u64);
            let x0 = [0.3, -0.5, 0.8];
            check(&a, &x0);
            check(&a.to_f32(), &x0.map(|v| v as f32));
        }
    }

    #[test]
    fn precomputed_kernels_give_identical_trajectory() {
        let a = random_tensor(4, 3, 33);
        let tables = PrecomputedTables::new(4, 3);
        let solver = SsHopm::new(Shift::Convex).with_tolerance(1e-13);
        let p1 = solver.solve(&a, &[0.1, 0.2, 0.97]);
        let p2 = solver.solve_with(&tables, &a, &[0.1, 0.2, 0.97]);
        assert!((p1.lambda - p2.lambda).abs() < 1e-12);
        for (a1, b1) in p1.x.iter().zip(&p2.x) {
            assert!((a1 - b1).abs() < 1e-12);
        }
    }

    #[test]
    fn rank_one_tensor_recovers_its_vector() {
        // A = v^(x)m: lambda_max = 1 with eigenvector v (for unit v).
        let mut v = vec![0.6, -0.8, 0.0];
        symtensor::scalar::normalize(&mut v);
        let a = SymTensor::<f64>::rank_one(4, &v);
        let pair = SsHopm::new(Shift::Convex)
            .with_tolerance(1e-14)
            .solve(&a, &[1.0, 1.0, 1.0]);
        assert!((pair.lambda - 1.0).abs() < 1e-6, "{}", pair.lambda);
        let dot: f64 = pair.x.iter().zip(&v).map(|(a, b)| a * b).sum();
        assert!(dot.abs() > 0.9999, "{dot}");
    }

    #[test]
    fn negated_eigenpair_is_valid_for_even_order() {
        let a = random_tensor(4, 3, 34);
        let pair = SsHopm::new(Shift::Convex)
            .with_tolerance(1e-14)
            .solve(&a, &[0.3, 0.3, 0.9]);
        let neg = pair.negated(4);
        assert_eq!(neg.lambda, pair.lambda);
        // For even order the sign-flipped pair has the identical residual.
        assert!((neg.residual(&a) - pair.residual(&a)).abs() < 1e-12);
        assert!(neg.residual(&a) < 1e-5, "{}", neg.residual(&a));
    }

    #[test]
    fn negated_eigenpair_flips_lambda_for_odd_order() {
        let a = random_tensor(3, 3, 35);
        let pair = SsHopm::new(Shift::Convex)
            .with_tolerance(1e-13)
            .solve(&a, &[0.3, 0.3, 0.9]);
        let neg = pair.negated(3);
        assert_eq!(neg.lambda, -pair.lambda);
        assert!(neg.residual(&a) < 1e-5);
    }

    #[test]
    fn f32_solve_matches_f64_to_single_precision() {
        let a64 = random_tensor(4, 3, 36);
        let a32 = a64.to_f32();
        let s = SsHopm::new(Shift::Convex).with_tolerance(1e-6);
        let p64 = s.solve(&a64, &[0.5, 0.5, 0.7]);
        let p32 = s.solve(&a32, &[0.5f32, 0.5, 0.7]);
        assert!((p64.lambda - p32.lambda as f64).abs() < 1e-3);
    }

    #[test]
    fn zero_starting_vector_poisons_result() {
        let a = random_tensor(4, 3, 37);
        let pair = SsHopm::new(Shift::Convex).solve(&a, &[0.0, 0.0, 0.0]);
        assert!(pair.lambda.is_nan());
        assert!(!pair.converged);
        assert_eq!(pair.iterations, 0);
        assert!(!pair.is_finite());
    }

    #[test]
    fn wrong_length_start_poisons_result() {
        let a = random_tensor(4, 3, 38);
        let pair = SsHopm::new(Shift::Convex).solve(&a, &[1.0, 0.0]);
        assert!(pair.lambda.is_nan());
        assert!(!pair.converged);
        assert_eq!(pair.iterations, 0);
    }

    #[test]
    fn traced_solve_matches_untraced() {
        let a = random_tensor(4, 3, 39);
        let solver = SsHopm::new(Shift::Convex).with_tolerance(1e-12);
        let plain = solver.solve(&a, &[0.9, 0.1, 0.4]);
        let (traced, trace) = Solver::solve_trace(&solver, a.view(), &[0.9, 0.1, 0.4], false);
        assert_eq!(plain.lambda.to_bits(), traced.lambda.to_bits());
        assert_eq!(plain.iterations, traced.iterations);
        assert_eq!(trace.len(), traced.iterations + 1);
    }
}
