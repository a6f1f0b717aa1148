//! Shift selection for SS-HOPM.
//!
//! The shift `α` forces the underlying function
//! `f̂(x) = A·xᵐ + α·(xᵀx)^{m/2}` to be convex (`α ≥ 0`, converges to local
//! maxima of `A·xᵐ` on the sphere) or concave (`α < 0`, local minima).
//! Kolda & Mayo prove convergence whenever `|α|` exceeds `β(A) =
//! (m−1)·max_{‖x‖=1} ρ(A·x^{m−2})`; since `ρ(A·x^{m−2}) ≤ ‖A‖_F` on the
//! sphere, `(m−1)·‖A‖_F` is a computable sufficient bound.
//!
//! The adaptive variant re-picks the shift every iteration from the spectrum of
//! the current Hessian (the idea behind Kolda & Mayo's later GEAP method):
//! just enough convexity at the current iterate rather than a global bound,
//! which typically converges in fewer iterations than the worst-case fixed
//! shift.

use linalg::{Matrix, SymmetricEigen};
use symtensor::kernels::axm2_matrix;
use symtensor::{Scalar, SymTensorRef};

/// How SS-HOPM chooses its shift `α`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shift {
    /// A user-supplied fixed shift. `Fixed(0.0)` recovers the unshifted
    /// symmetric higher-order power method (S-HOPM) of De Lathauwer et al. /
    /// Kofidis & Regalia — the paper's experimental setting (`α = 0`).
    Fixed(f64),
    /// The sufficient convexity bound `α = (m−1)·‖A‖_F + τ`: guaranteed
    /// convergence to a local *maximum* for every starting vector.
    Convex,
    /// The mirrored bound `α = −(m−1)·‖A‖_F − τ`: guaranteed convergence to
    /// a local *minimum*.
    Concave,
    /// Per-iteration adaptive shift: `α_k = max(0, (τ − λ_min(H(x_k)))/m)`
    /// where `H(x) = m(m−1)·A·x^{m−2}`, i.e. exactly enough to make the
    /// current iterate's Hessian positive semidefinite plus a margin `τ`.
    Adaptive,
}

/// Margin added to the theoretical bounds so strict inequalities hold in
/// floating point.
pub const SHIFT_MARGIN: f64 = 1e-6;

/// The sufficient convexity bound `(m−1)·‖A‖_F` of Kolda & Mayo.
///
/// Accepts `&SymTensor<S>` or a borrowed [`SymTensorRef`] (e.g. one tensor
/// of a [`symtensor::TensorBatch`] arena).
pub fn sufficient_shift<'a, S: Scalar>(a: impl Into<SymTensorRef<'a, S>>) -> f64 {
    let a = a.into();
    (a.order() as f64 - 1.0) * a.frobenius_norm().to_f64()
}

impl Shift {
    /// The fixed shift value used for the whole solve, or `None` for the
    /// adaptive policy (which must be evaluated per iterate).
    ///
    /// `Fixed`, `Convex` and `Concave` are constants of the tensor, so
    /// [`SsHopm`](crate::SsHopm) resolves them once per solve, not once per
    /// iteration. For `Convex` and `Concave` each call walks the tensor for
    /// `‖A‖_F`.
    pub fn fixed_value<'a, S: Scalar>(&self, a: impl Into<SymTensorRef<'a, S>>) -> Option<f64> {
        match self {
            Shift::Fixed(v) => Some(*v),
            Shift::Convex => Some(sufficient_shift(a) + SHIFT_MARGIN),
            Shift::Concave => Some(-sufficient_shift(a) - SHIFT_MARGIN),
            Shift::Adaptive => None,
        }
    }

    /// Evaluate the adaptive shift at the current unit iterate `x`:
    /// `max(0, (τ − λ_min(m(m−1)·A·x^{m−2}))/m)`.
    ///
    /// Falls back to the fixed value for non-adaptive policies.
    pub fn value_at<'a, S: Scalar>(&self, a: impl Into<SymTensorRef<'a, S>>, x: &[S]) -> f64 {
        let a = a.into();
        if let Some(v) = self.fixed_value(a) {
            return v;
        }
        let m = a.order() as f64;
        let lambda_min = hessian_spectrum(a, x).map_or(0.0, |e| e.min());
        ((SHIFT_MARGIN - lambda_min) / m).max(0.0)
    }
}

/// Spectrum of the scaled Hessian `H(x) = m(m−1)·A·x^{m−2}` at a unit
/// vector `x`. Returns `None` for order-1 tensors (no Hessian).
pub fn hessian_spectrum<'a, S: Scalar>(
    a: impl Into<SymTensorRef<'a, S>>,
    x: &[S],
) -> Option<SymmetricEigen> {
    let a = a.into();
    if a.order() < 2 {
        return None;
    }
    let n = a.dim();
    let m = a.order() as f64;
    let mat = axm2_matrix(a, x).ok()?;
    let scale = m * (m - 1.0);
    let h = Matrix::from_fn(n, n, |i, j| scale * mat[i * n + j].to_f64());
    SymmetricEigen::new(&h).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor::SymTensor;

    fn random_tensor(seed: u64) -> SymTensor<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        SymTensor::random(4, 3, &mut rng)
    }

    #[test]
    fn fixed_shift_passes_through() {
        let a = random_tensor(1);
        assert_eq!(Shift::Fixed(2.5).fixed_value(&a), Some(2.5));
        assert_eq!(Shift::Fixed(-1.0).fixed_value(&a), Some(-1.0));
    }

    #[test]
    fn convex_bound_exceeds_frobenius_scale() {
        let a = random_tensor(2);
        let alpha = Shift::Convex.fixed_value(&a).unwrap();
        assert!(alpha > 3.0 * a.frobenius_norm() - 1e-12);
        let beta = Shift::Concave.fixed_value(&a).unwrap();
        assert!((alpha + beta).abs() < 1e-12, "concave mirrors convex");
    }

    #[test]
    fn adaptive_shift_is_nonnegative_and_bounded() {
        let a = random_tensor(4);
        let x = [1.0, 0.0, 0.0];
        let alpha = Shift::Adaptive.value_at(&a, &x);
        assert!(alpha >= 0.0);
        // Never needs more than the global sufficient bound times m
        // (the Hessian spectral radius is at most m(m-1) ||A||_F).
        assert!(alpha <= (4.0 - 1.0) * 4.0 * a.frobenius_norm() + 1.0);
    }

    #[test]
    fn adaptive_shift_zero_for_convex_tensor() {
        // Rank-one tensor v^(x)4 with v = e_0: at x = e_0 the Hessian
        // m(m-1) A x^{m-2} = 12 * e_0 e_0^T is PSD, so no shift is needed.
        let a = SymTensor::<f64>::rank_one(4, &[1.0, 0.0, 0.0]);
        let alpha = Shift::Adaptive.value_at(&a, &[1.0, 0.0, 0.0]);
        assert!(alpha <= SHIFT_MARGIN, "{alpha}");
    }

    #[test]
    fn hessian_spectrum_matches_quadratic_form_case() {
        // m=2: H = 2A; for A = diag(1, 3) eigenvalues are 2 and 6.
        let mut a = SymTensor::<f64>::zeros(2, 2);
        a.set(&[0, 0], 1.0).unwrap();
        a.set(&[1, 1], 3.0).unwrap();
        let eig = hessian_spectrum(&a, &[1.0, 0.0]).unwrap();
        assert!((eig.eigenvalues[0] - 2.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn hessian_spectrum_none_for_order_one() {
        let a = SymTensor::<f64>::zeros(1, 3);
        assert!(hessian_spectrum(&a, &[1.0, 0.0, 0.0]).is_none());
    }

    #[test]
    fn sufficient_shift_scales_with_tensor() {
        let a = random_tensor(5);
        let mut b = a.clone();
        b.scale(2.0);
        let sa = sufficient_shift(&a);
        let sb = sufficient_shift(&b);
        assert!((sb - 2.0 * sa).abs() < 1e-9);
    }
}
