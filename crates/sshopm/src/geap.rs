//! GEAP: the generalized eigenproblem adaptive power method of Kolda &
//! Mayo, with the shift re-chosen every iteration from the **projected**
//! Hessian spectrum.
//!
//! Where [`Shift::Adaptive`](crate::Shift) looks at the full Hessian
//! `H(x) = m(m−1)·A·x^{m−2}`, GEAP projects it onto the tangent space of
//! the unit sphere at the current iterate first —
//! `C(x) = P_x·H(x)·P_x` with `P_x = I − x·xᵀ` — and drops the radial
//! eigenvalue, because curvature along `x` itself is irrelevant to the
//! constrained ascent. The per-iteration shift
//!
//! ```text
//! α_k = max(0, (τ − λ_min^tangent(C(x_k))) / m)
//! ```
//!
//! is exactly enough convexity at `x_k` (plus the margin `τ`), so λ is
//! monotonically nondecreasing like the convex fixed shift but without
//! paying the global worst-case bound `(m−1)·‖A‖_F` — which is what
//! makes GEAP converge in fewer iterations, and converge at crossing
//! DW-MRI voxels where the unshifted S-HOPM oscillates.

use crate::shift::{sufficient_shift, SHIFT_MARGIN};
use crate::solver::{Eigenpair, IterationObserver, IterationPolicy, IterationUpdate, NoopObserver};
use crate::traits::Solver;
use linalg::{Matrix, SymmetricEigen};
use symtensor::kernels::{axm2_matrix, GeneralKernels, TensorKernels};
use symtensor::scalar::{norm2, normalize};
use symtensor::{Scalar, SymTensorRef};

/// The adaptive-shift GEAP solver (maximization variant): a convexity
/// margin `τ` plus an iteration policy.
#[derive(Debug, Clone, Copy)]
pub struct Geap {
    tau: f64,
    policy: IterationPolicy,
}

impl Default for Geap {
    fn default() -> Self {
        Self::new()
    }
}

impl Geap {
    /// Create a GEAP solver with the default margin ([`SHIFT_MARGIN`])
    /// and convergence policy (`tol = 1e-10`, `max_iters = 1000`).
    pub fn new() -> Self {
        Self {
            tau: SHIFT_MARGIN,
            policy: IterationPolicy::default(),
        }
    }

    /// Replace the convexity margin `τ`.
    pub fn with_margin(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
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

    /// The convexity margin `τ`.
    pub fn margin(&self) -> f64 {
        self.tau
    }

    /// Run GEAP from `x0` with the default on-the-fly kernels.
    ///
    /// # Panics
    /// Panics if `x0.len() != a.dim()` or `x0` is the zero vector.
    pub fn solve<'a, S: Scalar>(
        &self,
        a: impl Into<SymTensorRef<'a, S>>,
        x0: &[S],
    ) -> Eigenpair<S> {
        self.solve_one(
            &GeneralKernels,
            a.into(),
            x0,
            &mut NoopObserver,
            &mut Vec::new(),
        )
    }

    /// The GEAP shift at the unit iterate `x`: `max(0, (τ − λ_min)/m)`
    /// over the tangent spectrum of the projected Hessian, falling back
    /// to the global sufficient bound when the spectrum is unavailable
    /// (eigen-iteration failure on degenerate data).
    fn shift_at<S: Scalar>(&self, a: SymTensorRef<'_, S>, x: &[S]) -> f64 {
        let m = a.order() as f64;
        match tangent_hessian_min(a, x) {
            Some(lambda_min) => ((self.tau - lambda_min) / m).max(0.0),
            // No tangent space (n = 1): the constrained problem is
            // trivially convex.
            None if a.dim() == 1 => 0.0,
            None => sufficient_shift(a) + self.tau,
        }
    }
}

/// Smallest tangent eigenvalue of the projected Hessian
/// `P·(m(m−1)·A·x^{m−2})·P`, with the radial (parallel-to-`x`)
/// eigenvalue dropped. `None` when there is no tangent space (`n = 1`),
/// no Hessian (`m < 2`), or the eigen-iteration fails.
fn tangent_hessian_min<S: Scalar>(a: SymTensorRef<'_, S>, x: &[S]) -> Option<f64> {
    let n = a.dim();
    if n < 2 || a.order() < 2 {
        return None;
    }
    let m = a.order() as f64;
    let axm2 = axm2_matrix(a, x).ok()?;
    let scale = m * (m - 1.0);
    let h = Matrix::from_fn(n, n, |i, j| scale * axm2[i * n + j].to_f64());
    let xf: Vec<f64> = x.iter().map(|v| v.to_f64()).collect();
    let p = Matrix::from_fn(n, n, |i, j| {
        let delta = if i == j { 1.0 } else { 0.0 };
        delta - xf[i] * xf[j]
    });
    let c = p.matmul(&h).ok()?.matmul(&p).ok()?;
    let eig = SymmetricEigen::new(&c).ok()?;

    // C always carries one (numerically) zero eigenvalue along x itself;
    // identify the eigenvector most parallel to x and skip it.
    let mut radial_col = 0;
    let mut best_dot = -1.0;
    for col in 0..n {
        let dot: f64 = (0..n)
            .map(|r| eig.eigenvectors[(r, col)] * xf[r])
            .sum::<f64>()
            .abs();
        if dot > best_dot {
            best_dot = dot;
            radial_col = col;
        }
    }
    let mut min: Option<f64> = None;
    for col in 0..n {
        if col == radial_col {
            continue;
        }
        let v = eig.eigenvalues[col];
        min = Some(match min {
            Some(cur) if cur <= v => cur,
            _ => v,
        });
    }
    min
}

impl<S: Scalar> Solver<S> for Geap {
    fn name(&self) -> &'static str {
        "geap"
    }

    fn policy(&self) -> IterationPolicy {
        self.policy
    }

    fn solve_one(
        &self,
        kernels: &dyn TensorKernels<S>,
        a: SymTensorRef<'_, S>,
        x0: &[S],
        observer: &mut dyn IterationObserver<S>,
        scratch: &mut Vec<S>,
    ) -> Eigenpair<S> {
        let n = a.dim();
        let poisoned = |x: Vec<S>, alpha: f64| Eigenpair {
            lambda: S::from_f64(f64::NAN),
            x,
            iterations: 0,
            converged: false,
            alpha,
        };
        if x0.len() != n {
            return poisoned(vec![S::ZERO; n], 0.0);
        }
        let mut x = x0.to_vec();
        if normalize(&mut x) == S::ZERO {
            return poisoned(x, 0.0);
        }

        let (tol, max_iters) = match self.policy {
            IterationPolicy::Converge { tol, max_iters } => (tol, max_iters),
            IterationPolicy::Fixed(k) => (0.0, k),
        };
        let converge_mode = matches!(self.policy, IterationPolicy::Converge { .. });

        let mut lambda = match kernels.axm(a, &x) {
            Ok(v) => v,
            Err(_) => return poisoned(x, 0.0),
        };
        let mut alpha = self.shift_at(a, &x);
        observer.observe(&IterationUpdate {
            k: 0,
            lambda: lambda.to_f64(),
            alpha,
            x: &x,
        });
        scratch.clear();
        scratch.resize(n, S::ZERO);
        let y = scratch;
        let mut cand = vec![S::ZERO; n];
        let mut iterations = 0;
        let mut converged = false;

        'iterate: for _ in 0..max_iters {
            // x̂ ← A x^{m-1} + α x with the per-iterate GEAP shift
            // (always ≥ 0: GEAP here is the maximization variant). The
            // projected spectrum deliberately ignores radial curvature,
            // which is concave when λ < 0 — so safeguard the step: accept
            // only a nondecreasing λ, otherwise escalate α (first by the
            // radial bound −λ, then the global sufficient bound, which
            // restores the fixed-shift monotonicity guarantee).
            let mut attempt = 0usize;
            let new_lambda = loop {
                if kernels.axm1(a, &x, y).is_err() {
                    return poisoned(x, alpha);
                }
                let alpha_s = S::from_f64(alpha);
                for (yi, &xi) in y.iter_mut().zip(x.iter()) {
                    *yi += alpha_s * xi;
                }
                let nrm = norm2(y);
                if nrm == S::ZERO {
                    // Degenerate: x already solves the shifted fixed point.
                    iterations += 1;
                    converged = converge_mode;
                    break 'iterate;
                }
                for (ci, &yi) in cand.iter_mut().zip(y.iter()) {
                    *ci = yi / nrm;
                }
                let nl = match kernels.axm(a, &cand) {
                    Ok(v) => v,
                    Err(_) => return poisoned(x, alpha),
                };
                let slack = 1e-12 * lambda.to_f64().abs().max(1.0);
                if attempt >= 2 || nl.to_f64() >= lambda.to_f64() - slack {
                    break nl;
                }
                attempt += 1;
                alpha = if attempt == 1 {
                    alpha.max(self.tau - lambda.to_f64())
                } else {
                    sufficient_shift(a) + self.tau
                };
            };
            x.copy_from_slice(&cand);
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
            alpha = self.shift_at(a, &x);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, Stability};
    use crate::shift::Shift;
    use crate::solver::SsHopm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor::SymTensor;

    fn random_tensor(m: usize, n: usize, seed: u64) -> SymTensor<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        SymTensor::random(m, n, &mut rng)
    }

    #[test]
    fn lambda_is_monotone_nondecreasing_in_the_convex_case() {
        // The GEAP property test: with α_k from the projected Hessian
        // (maximization variant, α_k ≥ 0), the eigenvalue sequence is
        // nondecreasing — the adaptive analogue of the Kolda–Mayo
        // fixed-shift monotonicity theorem.
        for seed in 0..12u64 {
            let a = random_tensor(4, 3, seed);
            let solver = Geap::new().with_tolerance(1e-13);
            let mut trace = Vec::new();
            let pair = solver.solve_one(
                &GeneralKernels,
                a.view(),
                &[0.48, -0.62, 0.62],
                &mut |u: &IterationUpdate<'_, f64>| trace.push(u.lambda),
                &mut Vec::new(),
            );
            assert!(pair.converged, "seed {seed}");
            for w in trace.windows(2) {
                assert!(
                    w[1] >= w[0] - 1e-9,
                    "seed {seed}: lambda decreased {} -> {}",
                    w[0],
                    w[1]
                );
            }
        }
    }

    #[test]
    fn converged_pairs_satisfy_eigen_equation() {
        for seed in 0..6u64 {
            let a = random_tensor(4, 3, seed);
            let pair = Geap::new()
                .with_tolerance(1e-13)
                .solve(&a, &[0.3, -0.5, 0.8]);
            assert!(pair.converged, "seed {seed}");
            assert!(
                pair.residual(&a) < 1e-5,
                "seed {seed}: residual {}",
                pair.residual(&a)
            );
            let nrm: f64 = pair.x.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!((nrm - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn geap_lands_on_local_maxima() {
        for seed in 0..8u64 {
            let a = random_tensor(4, 3, seed + 40);
            let pair = Geap::new()
                .with_tolerance(1e-14)
                .solve(&a, &[0.48, -0.62, 0.62]);
            if !pair.converged || pair.residual(&a) > 1e-6 {
                continue;
            }
            let s = classify(&a, pair.lambda, &pair.x, 1e-5);
            assert!(
                s == Stability::NegativeStable || s == Stability::Degenerate,
                "seed {seed}: {s:?}"
            );
        }
    }

    #[test]
    fn geap_needs_no_more_iterations_than_the_fixed_convex_bound() {
        let mut fixed_total = 0usize;
        let mut geap_total = 0usize;
        for seed in 20..30u64 {
            let a = random_tensor(4, 3, seed);
            let x0 = [0.6, -0.7, 0.4];
            let fixed = SsHopm::new(Shift::Convex)
                .with_tolerance(1e-12)
                .solve(&a, &x0);
            let geap = Geap::new().with_tolerance(1e-12).solve(&a, &x0);
            assert!(geap.converged && fixed.converged, "seed {seed}");
            fixed_total += fixed.iterations;
            geap_total += geap.iterations;
        }
        assert!(
            geap_total <= fixed_total,
            "geap {geap_total} vs fixed convex {fixed_total}"
        );
    }

    #[test]
    fn fixed_policy_runs_exact_iteration_count() {
        let a = random_tensor(4, 3, 31);
        let solver = Geap::new().with_policy(IterationPolicy::Fixed(9));
        let pair = solver.solve(&a, &[1.0, 0.0, 0.0]);
        assert_eq!(pair.iterations, 9);
        assert!(pair.converged);
    }

    #[test]
    fn trait_surface_reports_geap() {
        let solver = Geap::new();
        let d: &dyn Solver<f64> = &solver;
        assert_eq!(d.name(), "geap");
        assert_eq!(d.fixed_shift(), None);
        assert_eq!(d.policy(), IterationPolicy::default());
        assert_eq!(Geap::new().with_margin(0.5).margin(), 0.5);
    }

    #[test]
    fn zero_starting_vector_poisons_result() {
        let a = random_tensor(4, 3, 37);
        let pair = Geap::new().solve(&a, &[0.0, 0.0, 0.0]);
        assert!(pair.lambda.is_nan());
        assert!(!pair.converged);
        assert_eq!(pair.iterations, 0);
    }

    #[test]
    fn matrix_case_recovers_dominant_eigenpair() {
        let mut a = SymTensor::<f64>::zeros(2, 2);
        a.set(&[0, 0], 3.0).unwrap();
        a.set(&[1, 1], 1.0).unwrap();
        let pair = Geap::new().with_tolerance(1e-14).solve(&a, &[0.5, 0.5]);
        assert!(pair.converged);
        assert!((pair.lambda - 3.0).abs() < 1e-6);
        assert!(pair.x[0].abs() > 0.999);
    }
}
