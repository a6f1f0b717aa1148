//! QRST: the QR algorithm for symmetric tensors of Batselier & Wong
//! (arXiv 1411.1926), adapted to this crate's solver contract.
//!
//! Where the power family updates a single vector, QRST updates an
//! entire orthogonal basis: each iteration takes the first-slice matrix
//! of the rotated tensor, QR-factors a shifted copy of it, and applies
//! the orthogonal factor to *every* mode —
//!
//! ```text
//! C_k[i,j] = B_k[i, j, 0, …, 0]
//! Q_k R_k  = C_k + β·I              (β = (m−1)·‖A‖_F + τ, so C_k + β·I ≻ 0)
//! B_{k+1}  = B_k ×₁ Q_k ×₂ Q_k ⋯ ×ₘ Q_k,    U_{k+1} = U_k · Q_k
//! ```
//!
//! The first column of `Q_k` reproduces the convex-shifted power step
//! (`Q_k·e₁ ∝ C_k·e₁ + β·e₁`), so the primary trajectory `U_k·e₁`
//! converges like SS-HOPM with the Kolda–Mayo bound — but the remaining
//! columns keep rotating the rest of the basis, and at the end *every*
//! column of `U` is a candidate eigenvector. The solver validates all
//! `n` candidates against the original packed tensor and returns the one
//! with the smallest eigenpair residual, which is how QRST surfaces
//! eigenpairs (secondary fiber directions, saddles) that a single power
//! trajectory from the same start never visits.
//!
//! The iteration works on a dense `n^m` copy in `f64`; at the paper's
//! shape (`m = 4`, `n = 3`) that is an 81-entry buffer and a 3×3 QR per
//! iteration, so the cost stays comparable to a power step.

use crate::shift::{sufficient_shift, SHIFT_MARGIN};
use crate::solver::{Eigenpair, IterationObserver, IterationPolicy, IterationUpdate, NoopObserver};
use crate::traits::Solver;
use linalg::{Matrix, Qr};
use symtensor::kernels::{GeneralKernels, TensorKernels};
use symtensor::scalar::normalize;
use symtensor::{Scalar, SymTensorRef};

/// The QRST solver: an iteration policy plus the convexity margin added
/// to the QR shift.
#[derive(Debug, Clone, Copy)]
pub struct Qrst {
    tau: f64,
    policy: IterationPolicy,
}

impl Default for Qrst {
    fn default() -> Self {
        Self::new()
    }
}

impl Qrst {
    /// Create a QRST solver with the default margin ([`SHIFT_MARGIN`])
    /// and convergence policy (`tol = 1e-10`, `max_iters = 1000`).
    pub fn new() -> Self {
        Self {
            tau: SHIFT_MARGIN,
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

    /// Run QRST from `x0` with the default on-the-fly kernels.
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
}

/// Expand a packed symmetric tensor into a dense row-major `n^m` buffer
/// of `f64` values (the last index varies fastest).
fn densify<S: Scalar>(a: SymTensorRef<'_, S>) -> Vec<f64> {
    let (m, n) = (a.order(), a.dim());
    let len = n.pow(m as u32);
    let mut out = vec![0.0f64; len];
    let mut idx = vec![0usize; m];
    for (pos, slot) in out.iter_mut().enumerate() {
        let mut lin = pos;
        for s in idx.iter_mut().rev() {
            *s = lin % n;
            lin /= n;
        }
        *slot = match a.get(&idx) {
            Ok(v) => v.to_f64(),
            // Unreachable: every decoded index is in range by construction.
            Err(_) => 0.0,
        };
    }
    out
}

/// In-place orthogonal similarity: contract every mode of the dense
/// order-`m` tensor `b` with `Qᵀ` (`b ← b ×ₜ Qᵀ` for all `t`), i.e.
/// `b'[i₁…iₘ] = Σ q[j₁,i₁]…q[jₘ,iₘ]·b[j₁…jₘ]`. `buf` is a same-length
/// work buffer.
fn rotate_all_modes(b: &mut [f64], buf: &mut [f64], q: &Matrix, m: usize, n: usize) {
    for t in 0..m {
        // Mode `t` has stride n^{m-1-t}; each contiguous group of
        // `stride` entries shares the trailing indices.
        let stride = n.pow((m - 1 - t) as u32);
        let block = stride * n;
        buf.iter_mut().for_each(|v| *v = 0.0);
        for (chunk_out, chunk_in) in buf.chunks_mut(block).zip(b.chunks(block)) {
            for i in 0..n {
                for j in 0..n {
                    let w = q[(j, i)];
                    if w == 0.0 {
                        continue;
                    }
                    let src = &chunk_in[j * stride..(j + 1) * stride];
                    let dst = &mut chunk_out[i * stride..(i + 1) * stride];
                    for (d, s) in dst.iter_mut().zip(src) {
                        *d += w * s;
                    }
                }
            }
        }
        b.copy_from_slice(buf);
    }
}

/// The first-slice matrix `C[i,j] = b[i, j, 0, …, 0]`.
fn first_slice(b: &[f64], m: usize, n: usize) -> Matrix {
    let row_stride = n.pow((m - 1) as u32);
    let col_stride = n.pow((m - 2) as u32);
    Matrix::from_fn(n, n, |i, j| b[i * row_stride + j * col_stride])
}

/// Householder reflection `H = I − 2·v·vᵀ/(vᵀv)` with `v = u − e₁`, the
/// symmetric orthogonal map swapping the unit vector `u` with `e₁`.
/// Returns the identity when `u` is already (numerically) `e₁`.
fn reflection_to_e1(u: &[f64]) -> Matrix {
    let n = u.len();
    let mut v = u.to_vec();
    v[0] -= 1.0;
    let vtv: f64 = v.iter().map(|&c| c * c).sum();
    if vtv <= f64::EPSILON {
        return Matrix::identity(n);
    }
    Matrix::from_fn(n, n, |i, j| {
        let delta = if i == j { 1.0 } else { 0.0 };
        delta - 2.0 * v[i] * v[j] / vtv
    })
}

impl<S: Scalar> Solver<S> for Qrst {
    fn name(&self) -> &'static str {
        "qrst"
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
        _scratch: &mut Vec<S>,
    ) -> Eigenpair<S> {
        let (m, n) = (a.order(), a.dim());
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
        let mut x_s = x0.to_vec();
        if normalize(&mut x_s) == S::ZERO {
            return poisoned(x_s, 0.0);
        }

        let (tol, max_iters) = match self.policy {
            IterationPolicy::Converge { tol, max_iters } => (tol, max_iters),
            IterationPolicy::Fixed(k) => (0.0, k),
        };
        let converge_mode = matches!(self.policy, IterationPolicy::Converge { .. });
        let beta = sufficient_shift(a) + self.tau;

        // Rotate the dense copy so the starting vector becomes e1; from
        // here on the primary trajectory lives in the first column of U.
        let xf: Vec<f64> = x_s.iter().map(|v| v.to_f64()).collect();
        let mut u = reflection_to_e1(&xf);
        let mut b = densify(a);
        let mut buf = vec![0.0f64; b.len()];
        rotate_all_modes(&mut b, &mut buf, &u, m, n);

        let mut lambda = b[0];
        observer.observe(&IterationUpdate {
            k: 0,
            lambda,
            alpha: beta,
            x: &x_s,
        });

        let mut iterations = 0;
        let mut converged = false;
        for _ in 0..max_iters {
            let c = first_slice(&b, m, n);
            let shifted = Matrix::from_fn(n, n, |i, j| c[(i, j)] + if i == j { beta } else { 0.0 });
            let qr = match Qr::new(&shifted) {
                Ok(qr) => qr,
                // C + beta*I is positive definite by the Kolda-Mayo bound,
                // so factorization failure means corrupted (non-finite)
                // input; stop and let the caller see converged = false.
                Err(_) => break,
            };
            let mut q = qr.q();
            // Canonical signs: positive R diagonal, so Q·e1 is the
            // *un-negated* shifted power direction and odd-order lambda
            // traces do not alternate sign.
            let r = qr.r();
            for j in 0..n {
                if r[(j, j)] < 0.0 {
                    for i in 0..n {
                        q[(i, j)] = -q[(i, j)];
                    }
                }
            }

            rotate_all_modes(&mut b, &mut buf, &q, m, n);
            u = match u.matmul(&q) {
                Ok(next) => next,
                Err(_) => break,
            };
            let new_lambda = b[0];
            iterations += 1;

            for (dst, i) in x_s.iter_mut().zip(0..n) {
                *dst = S::from_f64(u[(i, 0)]);
            }
            observer.observe(&IterationUpdate {
                k: iterations,
                lambda: new_lambda,
                alpha: beta,
                x: &x_s,
            });
            let delta = (new_lambda - lambda).abs();
            lambda = new_lambda;
            if converge_mode && delta <= tol {
                converged = true;
                break;
            }
        }

        // Every column of U is a candidate eigenvector; validate each
        // against the original packed tensor and keep the best.
        let mut best: Option<Eigenpair<S>> = None;
        for col in 0..n {
            let mut x: Vec<S> = (0..n).map(|row| S::from_f64(u[(row, col)])).collect();
            if normalize(&mut x) == S::ZERO {
                continue;
            }
            let lambda = match kernels.axm(a, &x) {
                Ok(v) => v,
                Err(_) => return poisoned(x, beta),
            };
            let pair = Eigenpair {
                lambda,
                x,
                iterations,
                converged: converged || !converge_mode,
                alpha: beta,
            };
            let replace = match &best {
                Some(cur) => pair.residual(a) < cur.residual(a),
                None => true,
            };
            if replace {
                best = Some(pair);
            }
        }
        match best {
            Some(pair) => pair,
            // Unreachable in practice: U is orthogonal, so every column
            // is unit-norm. Fall back to the (normalized) start.
            None => {
                let lambda = kernels
                    .axm(a, &x_s)
                    .unwrap_or_else(|_| S::from_f64(f64::NAN));
                Eigenpair {
                    lambda,
                    x: x_s,
                    iterations,
                    converged: false,
                    alpha: beta,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor::SymTensor;

    fn random_tensor(m: usize, n: usize, seed: u64) -> SymTensor<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        SymTensor::random(m, n, &mut rng)
    }

    #[test]
    fn matrix_case_recovers_dominant_eigenpair() {
        let mut a = SymTensor::<f64>::zeros(2, 2);
        a.set(&[0, 0], 3.0).unwrap();
        a.set(&[1, 1], 1.0).unwrap();
        let pair = Qrst::new().with_tolerance(1e-14).solve(&a, &[0.5, 0.5]);
        assert!(pair.converged);
        assert!((pair.lambda - 3.0).abs() < 1e-6, "{}", pair.lambda);
        assert!(pair.residual(&a) < 1e-6);
    }

    #[test]
    fn converged_pairs_satisfy_eigen_equation() {
        for seed in 0..6u64 {
            let a = random_tensor(4, 3, seed);
            let pair = Qrst::new()
                .with_tolerance(1e-13)
                .solve(&a, &[0.3, -0.5, 0.8]);
            assert!(pair.converged, "seed {seed}");
            assert!(
                pair.residual(&a) < 1e-5,
                "seed {seed}: residual {}",
                pair.residual(&a)
            );
            let nrm: f64 = pair.x.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!((nrm - 1.0).abs() < 1e-10, "seed {seed}: norm {nrm}");
        }
    }

    #[test]
    fn odd_order_traces_do_not_alternate_sign() {
        let a = random_tensor(3, 3, 5);
        let mut trace = Vec::new();
        let pair = Qrst::new().with_tolerance(1e-12).solve_one(
            &GeneralKernels,
            a.view(),
            &[0.6, -0.7, 0.4],
            &mut |u: &IterationUpdate<'_, f64>| trace.push(u.lambda),
            &mut Vec::new(),
        );
        assert!(pair.converged);
        assert!(pair.residual(&a) < 1e-5, "{}", pair.residual(&a));
        // The tail of the trace must settle, not oscillate in sign.
        let tail = &trace[trace.len().saturating_sub(3)..];
        for w in tail.windows(2) {
            assert!((w[1] - w[0]).abs() < 1e-6, "{:?}", tail);
        }
    }

    #[test]
    fn fixed_policy_runs_exact_iteration_count() {
        let a = random_tensor(4, 3, 31);
        let pair = Qrst::new()
            .with_policy(IterationPolicy::Fixed(11))
            .solve(&a, &[1.0, 0.0, 0.0]);
        assert_eq!(pair.iterations, 11);
        assert!(pair.converged);
    }

    #[test]
    fn trait_surface_reports_qrst() {
        let solver = Qrst::new();
        let d: &dyn Solver<f64> = &solver;
        assert_eq!(d.name(), "qrst");
        assert_eq!(d.fixed_shift(), None);
        assert_eq!(d.policy(), IterationPolicy::default());
    }

    #[test]
    fn f32_tensors_solve_too() {
        // The iteration runs on an internal f64 copy, so a tight Δλ
        // tolerance is attainable even for f32 inputs; only the final
        // eigenpair evaluation rounds to f32.
        let a = random_tensor(4, 3, 12).to_f32();
        let pair = Qrst::new()
            .with_tolerance(1e-10)
            .solve(&a, &[0.5f32, 0.5, 0.7]);
        assert!(pair.converged);
        assert!(pair.residual(&a) < 1e-3, "{}", pair.residual(&a));
    }

    #[test]
    fn zero_starting_vector_poisons_result() {
        let a = random_tensor(4, 3, 37);
        let pair = Qrst::new().solve(&a, &[0.0, 0.0, 0.0]);
        assert!(pair.lambda.is_nan());
        assert!(!pair.converged);
        assert_eq!(pair.iterations, 0);
    }

    #[test]
    fn rotation_helpers_are_consistent() {
        // Rotating a dense rank-one tensor v^{(x)m} by H that maps v to e1
        // must concentrate all mass in b[0].
        let mut v = vec![0.6, -0.8, 0.0];
        symtensor::scalar::normalize(&mut v);
        let a = SymTensor::<f64>::rank_one(4, &v);
        let mut b = densify(a.view());
        let mut buf = vec![0.0; b.len()];
        let h = reflection_to_e1(&v);
        rotate_all_modes(&mut b, &mut buf, &h, 4, 3);
        assert!((b[0] - 1.0).abs() < 1e-12, "{}", b[0]);
        let rest: f64 = b[1..].iter().map(|x| x.abs()).sum();
        assert!(rest < 1e-10, "{rest}");
    }
}
