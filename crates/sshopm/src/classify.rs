//! Eigenpair classification via the projected Hessian (Kolda & Mayo).
//!
//! For an eigenpair `(λ, x)` of a symmetric order-`m` tensor define the
//! projected Hessian on the tangent space of the unit sphere at `x`:
//!
//! ```text
//! C(λ, x) = P_x · ((m−1)·A·x^{m−2} − λ·I) · P_x,    P_x = I − x·xᵀ
//! ```
//!
//! The eigenpair is **negative stable** (all tangent eigenvalues < 0) iff
//! `x` is a local maximum of `A·xᵐ` on the sphere — these are the
//! eigenpairs SS-HOPM with `α ≥ β(A)` converges to, and in the DW-MRI
//! application they are the fiber directions. **Positive stable** pairs are
//! local minima (found by the concave/negative-shift variant), and
//! indefinite pairs are saddles, which SS-HOPM almost never returns but a
//! lucky starting vector can land on.

use linalg::{Matrix, SymmetricEigen};
use symtensor::kernels::axm2_matrix;
use symtensor::multinomial::MAX_ORDER;
use symtensor::{Scalar, SymTensorRef};

/// Stability classification of a tensor eigenpair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stability {
    /// All tangent-space Hessian eigenvalues negative: local maximum of the
    /// homogeneous form on the sphere.
    NegativeStable,
    /// All tangent-space Hessian eigenvalues positive: local minimum.
    PositiveStable,
    /// Mixed signs: saddle point.
    Saddle,
    /// At least one tangent eigenvalue is (numerically) zero: degenerate,
    /// cannot be classified at this tolerance.
    Degenerate,
}

impl Stability {
    /// True for eigenpairs corresponding to local maxima (the ones the
    /// fiber-detection application keeps).
    pub fn is_local_max(self) -> bool {
        self == Stability::NegativeStable
    }
}

/// Classify an eigenpair by the sign pattern of the projected Hessian
/// spectrum. `tol` is the relative threshold below which a tangent
/// eigenvalue is considered zero (use ~`1e-6` for converged pairs).
///
/// At `n = 3` (the DW-MRI shape) the two tangent eigenvalues come in
/// closed form from a stack-held 3×3, without allocating; every other `n`
/// runs the dense Jacobi path, which is also the reference the n = 3 form
/// is tested against. `x` is taken to be a unit vector, as Kolda–Mayo's
/// definition assumes.
///
/// For `n = 1` every unit "vector" (±1) is trivially both a maximum and a
/// minimum; we report [`Stability::Degenerate`]. A wrong-length, zero or
/// non-finite `x` has no tangent space to classify and is
/// [`Stability::Degenerate`] too.
pub fn classify<'a, S: Scalar>(
    a: impl Into<SymTensorRef<'a, S>>,
    lambda: S,
    x: &[S],
    tol: f64,
) -> Stability {
    let a = a.into();
    let n = a.dim();
    if x.len() != n || n == 1 {
        return Stability::Degenerate;
    }
    if x.iter().any(|v| !v.is_finite()) || x.iter().all(|&v| v == S::ZERO) {
        return Stability::Degenerate;
    }
    if n == 3 {
        classify_dim3(a, lambda, x, tol)
    } else {
        classify_jacobi(a, lambda, x, tol)
    }
}

/// The n = 3 closed form: build `B = (m−1)·A·x^{m−2} − λI` on the stack,
/// restrict it to an orthonormal tangent basis `{u, v}` of `x`, and take
/// the two eigenvalues of that symmetric 2×2 directly. `C`'s third
/// eigenvalue, along `x`, is zero, so the scale is the same as the Jacobi
/// path's spectral radius.
fn classify_dim3<S: Scalar>(a: SymTensorRef<'_, S>, lambda: S, x: &[S], tol: f64) -> Stability {
    let m = a.order();
    if m < 2 {
        // Order-0/1 tensors have no Hessian.
        return Stability::Degenerate;
    }
    let xf = [x[0].to_f64(), x[1].to_f64(), x[2].to_f64()];
    let h = axm2_dim3(a, xf);
    let lam = lambda.to_f64();
    let w = (m - 1) as f64;
    let b = [
        [w * h[0] - lam, w * h[1], w * h[2]],
        [w * h[1], w * h[3] - lam, w * h[4]],
        [w * h[2], w * h[4], w * h[5] - lam],
    ];
    let bilinear = |p: [f64; 3], q: [f64; 3]| {
        (0..3)
            .map(|i| p[i] * (b[i][0] * q[0] + b[i][1] * q[1] + b[i][2] * q[2]))
            .sum::<f64>()
    };

    // Tangent basis: Gram–Schmidt the axis least aligned with x̂ against
    // x̂, then complete the frame with the cross product.
    let unit = |v: [f64; 3]| {
        let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
        v.map(|c| c / norm)
    };
    let xh = unit(xf);
    let k = (0..3)
        .min_by(|&i, &j| xh[i].abs().total_cmp(&xh[j].abs()))
        .unwrap_or(0);
    let mut u = xh.map(|c| -xh[k] * c);
    u[k] += 1.0;
    let u = unit(u);
    let v = [
        xh[1] * u[2] - xh[2] * u[1],
        xh[2] * u[0] - xh[0] * u[2],
        xh[0] * u[1] - xh[1] * u[0],
    ];

    let (p, q, r) = (bilinear(u, u), bilinear(u, v), bilinear(v, v));
    let mean = 0.5 * (p + r);
    let radius = (0.5 * (p - r)).hypot(q);
    let tangent = [mean + radius, mean - radius];
    let spectral_radius = tangent[0].abs().max(tangent[1].abs());
    sign_pattern(&tangent, spectral_radius.max(lam.abs()).max(1e-30), tol)
}

/// The six unique entries of `A·x^{m−2}` (00 01 02 11 12 22) of an
/// order-`m ≥ 2`, dimension-3 tensor, in f64 straight from the packed
/// values. The storage order is reverse-lexicographic in the monomial
/// counts `(k₀, k₁, k₂)`, so one counted walk visits every class; class
/// `k` adds `C(m−2; k − e_i − e_j)·a_k·x^{k − e_i − e_j}` to entry
/// `(i, j)`, and that coefficient is `C(m; k)·k_i·(k_j − [i = j]) / (m(m−1))`.
fn axm2_dim3<S: Scalar>(a: SymTensorRef<'_, S>, x: [f64; 3]) -> [f64; 6] {
    const ENTRIES: [(usize, usize); 6] = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)];
    let m = a.order();
    let norm = (m * (m - 1)) as f64;
    let values = a.values();
    // `pow[c][k]` is `x[c].powi(k)` for every exponent an entry takes,
    // `k ≤ m − 2`: 3(m − 1) `powi` calls per Hessian, and each product
    // below multiplies the same values in the same order as `powi` inline.
    let mut pow = [[1.0f64; MAX_ORDER - 1]; 3];
    for (row, &xc) in pow.iter_mut().zip(&x) {
        for (k, p) in row.iter_mut().enumerate().take(m - 1) {
            *p = xc.powi(k as i32);
        }
    }
    let mut h = [0.0f64; 6];
    let mut rank = 0;
    // C(m; k0, m−k0, 0) = C(m, k0), stepped down exactly as k0 falls.
    let mut outer = 1.0f64;
    for k0 in (0..=m).rev() {
        let mut coeff = outer;
        for k1 in (0..=m - k0).rev() {
            let k = [k0, k1, m - k0 - k1];
            let av = values[rank].to_f64() * coeff / norm;
            rank += 1;
            for (e, &(i, j)) in ENTRIES.iter().enumerate() {
                let mut d = k;
                let ci = d[i];
                if ci == 0 {
                    continue;
                }
                d[i] -= 1;
                let cj = d[j];
                if cj == 0 {
                    continue;
                }
                d[j] -= 1;
                h[e] += (ci * cj) as f64 * av * pow[0][d[0]] * pow[1][d[1]] * pow[2][d[2]];
            }
            // (k0, k1, k2) → (k0, k1 − 1, k2 + 1).
            coeff = coeff * k1 as f64 / (k[2] + 1) as f64;
        }
        // C(m, k0) → C(m, k0 − 1).
        outer = outer * k0 as f64 / (m - k0 + 1) as f64;
    }
    h
}

/// The dense path for any `n`: `C = P·B·P` with `P = I − x·xᵀ`, a Jacobi
/// eigen-solve, and the eigenvalue along `x` dropped.
fn classify_jacobi<S: Scalar>(a: SymTensorRef<'_, S>, lambda: S, x: &[S], tol: f64) -> Stability {
    let n = a.dim();
    let m = a.order() as f64;
    let lam = lambda.to_f64();

    // B = (m-1) A x^{m-2} - lambda I (dense n x n, f64). Order-1 tensors
    // have no Hessian; report them degenerate instead of panicking.
    let Ok(axm2) = axm2_matrix(a, x) else {
        return Stability::Degenerate;
    };
    let mut b = Matrix::from_fn(n, n, |i, j| (m - 1.0) * axm2[i * n + j].to_f64());
    for i in 0..n {
        b[(i, i)] -= lam;
    }

    // P = I - x x^T; C = P B P.
    let xf: Vec<f64> = x.iter().map(|v| v.to_f64()).collect();
    let p = Matrix::from_fn(n, n, |i, j| {
        let delta = if i == j { 1.0 } else { 0.0 };
        delta - xf[i] * xf[j]
    });
    // Both products are n x n by construction and cannot mismatch.
    let Ok(pb) = p.matmul(&b) else {
        return Stability::Degenerate;
    };
    let Ok(c) = pb.matmul(&p) else {
        return Stability::Degenerate;
    };
    let eig = match SymmetricEigen::new(&c) {
        Ok(e) => e,
        Err(_) => return Stability::Degenerate,
    };

    // C always has a zero eigenvalue along x itself; drop the single
    // eigenvalue whose eigenvector is (numerically) parallel to x and
    // classify the remaining n-1 tangent eigenvalues.
    let mut tangent: Vec<f64> = Vec::with_capacity(n - 1);
    let mut dropped_parallel = false;
    // Identify the column most parallel to x.
    let mut best_col = 0;
    let mut best_dot = -1.0;
    for col in 0..n {
        let dot: f64 = (0..n)
            .map(|r| eig.eigenvectors[(r, col)] * xf[r])
            .sum::<f64>()
            .abs();
        if dot > best_dot {
            best_dot = dot;
            best_col = col;
        }
    }
    for col in 0..n {
        if col == best_col && !dropped_parallel {
            dropped_parallel = true;
            continue;
        }
        tangent.push(eig.eigenvalues[col]);
    }

    let scale = eig.spectral_radius().max(lam.abs()).max(1e-30);
    sign_pattern(&tangent, scale, tol)
}

/// The class of a set of tangent eigenvalues: any within `tol · scale` of
/// zero makes it degenerate, otherwise their signs decide.
fn sign_pattern(tangent: &[f64], scale: f64, tol: f64) -> Stability {
    let thresh = tol * scale;
    let pos = tangent.iter().filter(|&&v| v > thresh).count();
    let neg = tangent.iter().filter(|&&v| v < -thresh).count();
    let zero = tangent.len() - pos - neg;

    if zero > 0 {
        Stability::Degenerate
    } else if neg == tangent.len() {
        Stability::NegativeStable
    } else if pos == tangent.len() {
        Stability::PositiveStable
    } else {
        Stability::Saddle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shift::Shift;
    use crate::solver::SsHopm;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor::SymTensor;

    #[test]
    fn matrix_extremes_classify_as_expected() {
        // A = diag(3, 1): on the sphere, e_0 is the max (lambda=3), e_1 the
        // min (lambda=1).
        let mut a = SymTensor::<f64>::zeros(2, 2);
        a.set(&[0, 0], 3.0).unwrap();
        a.set(&[1, 1], 1.0).unwrap();
        assert_eq!(
            classify(&a, 3.0, &[1.0, 0.0], 1e-8),
            Stability::NegativeStable
        );
        assert_eq!(
            classify(&a, 1.0, &[0.0, 1.0], 1e-8),
            Stability::PositiveStable
        );
    }

    #[test]
    fn matrix_saddle_in_3d() {
        // diag(3, 2, 1): e_1 is a saddle of the quadratic form on the sphere.
        let mut a = SymTensor::<f64>::zeros(2, 3);
        a.set(&[0, 0], 3.0).unwrap();
        a.set(&[1, 1], 2.0).unwrap();
        a.set(&[2, 2], 1.0).unwrap();
        assert_eq!(classify(&a, 2.0, &[0.0, 1.0, 0.0], 1e-8), Stability::Saddle);
    }

    #[test]
    fn convex_sshopm_lands_on_negative_stable_pairs() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = SymTensor::<f64>::random(4, 3, &mut rng);
            let pair = SsHopm::new(Shift::Convex)
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
    fn concave_sshopm_lands_on_positive_stable_pairs() {
        for seed in 10..18u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = SymTensor::<f64>::random(4, 3, &mut rng);
            let pair = SsHopm::new(Shift::Concave)
                .with_tolerance(1e-14)
                .solve(&a, &[0.48, -0.62, 0.62]);
            if !pair.converged || pair.residual(&a) > 1e-6 {
                continue;
            }
            let s = classify(&a, pair.lambda, &pair.x, 1e-5);
            assert!(
                s == Stability::PositiveStable || s == Stability::Degenerate,
                "seed {seed}: {s:?}"
            );
        }
    }

    #[test]
    fn sphere_of_identity_tensor_is_degenerate() {
        // For A = I (m=2), every unit vector is an eigenvector with
        // lambda=1; the projected Hessian is identically zero on the
        // tangent space.
        let a = SymTensor::<f64>::diagonal_ones(2, 3);
        let s = classify(&a, 1.0, &[1.0, 0.0, 0.0], 1e-8);
        assert_eq!(s, Stability::Degenerate);
    }

    #[test]
    fn n1_is_degenerate() {
        let a = SymTensor::<f64>::from_values(3, 1, vec![2.0]).unwrap();
        assert_eq!(classify(&a, 2.0, &[1.0], 1e-8), Stability::Degenerate);
    }

    /// The reference Hessian: `powi` three times per (class, entry) pair.
    fn axm2_dim3_powi<S: Scalar>(a: SymTensorRef<'_, S>, x: [f64; 3]) -> [f64; 6] {
        const ENTRIES: [(usize, usize); 6] = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)];
        let m = a.order();
        let norm = (m * (m - 1)) as f64;
        let values = a.values();
        let mut h = [0.0f64; 6];
        let mut rank = 0;
        // C(m; k0, m−k0, 0) = C(m, k0), stepped down exactly as k0 falls.
        let mut outer = 1.0f64;
        for k0 in (0..=m).rev() {
            let mut coeff = outer;
            for k1 in (0..=m - k0).rev() {
                let k = [k0, k1, m - k0 - k1];
                let av = values[rank].to_f64() * coeff / norm;
                rank += 1;
                for (e, &(i, j)) in ENTRIES.iter().enumerate() {
                    let mut d = k;
                    let ci = d[i];
                    if ci == 0 {
                        continue;
                    }
                    d[i] -= 1;
                    let cj = d[j];
                    if cj == 0 {
                        continue;
                    }
                    d[j] -= 1;
                    h[e] += (ci * cj) as f64
                        * av
                        * x[0].powi(d[0] as i32)
                        * x[1].powi(d[1] as i32)
                        * x[2].powi(d[2] as i32);
                }
                // (k0, k1, k2) → (k0, k1 − 1, k2 + 1).
                coeff = coeff * k1 as f64 / (k[2] + 1) as f64;
            }
            // C(m, k0) → C(m, k0 − 1).
            outer = outer * k0 as f64 / (m - k0 + 1) as f64;
        }
        h
    }

    #[test]
    fn dim3_hessian_power_table_keeps_the_bits() {
        let mut rng = StdRng::seed_from_u64(5);
        let points = crate::starts::random_uniform_starts::<f64, _>(3, 6, &mut rng);
        let axes = [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0]];
        for m in 2..=8 {
            for seed in 0..4u64 {
                let a = SymTensor::<f64>::random(m, 3, &mut StdRng::seed_from_u64(seed));
                for x in points.iter().map(|p| [p[0], p[1], p[2]]).chain(axes) {
                    let got = axm2_dim3(a.view(), x).map(f64::to_bits);
                    let want = axm2_dim3_powi(a.view(), x).map(f64::to_bits);
                    assert_eq!(got, want, "m={m} seed {seed} x={x:?}");
                }
            }
        }
    }

    #[test]
    fn dim3_hessian_matches_axm2_matrix() {
        let mut rng = StdRng::seed_from_u64(3);
        let x = [0.3, -0.5, 0.81];
        for m in 2..=7 {
            let a = SymTensor::<f64>::random(m, 3, &mut rng);
            let h = axm2_dim3(a.view(), x);
            let want = axm2_matrix(&a, &x).unwrap();
            for (e, (i, j)) in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
                .into_iter()
                .enumerate()
            {
                let w = want[i * 3 + j];
                assert!(
                    (h[e] - w).abs() <= 1e-12 * (1.0 + w.abs()),
                    "m={m} ({i},{j}): {} vs {w}",
                    h[e]
                );
            }
        }
    }

    /// Both paths on one point, in f64 and f32.
    fn assert_paths_agree(a: &SymTensor<f64>, lambda: f64, x: &[f64], what: &str) {
        let want = classify_jacobi(a.view(), lambda, x, 1e-5);
        assert_eq!(classify_dim3(a.view(), lambda, x, 1e-5), want, "{what}");
        let a32 = a.to_f32();
        let x32: Vec<f32> = x.iter().map(|&v| v as f32).collect();
        let want32 = classify_jacobi(a32.view(), lambda as f32, &x32, 1e-3);
        let got32 = classify_dim3(a32.view(), lambda as f32, &x32, 1e-3);
        assert_eq!(got32, want32, "{what} (f32)");
    }

    #[test]
    fn dim3_closed_form_matches_jacobi_path() {
        let mut rng = StdRng::seed_from_u64(21);
        let starts = crate::starts::random_uniform_starts::<f64, _>(3, 4, &mut rng);
        let mut seen = [0usize; 4];
        for m in 2..=6 {
            for seed in 0..12u64 {
                let a = SymTensor::<f64>::random(m, 3, &mut StdRng::seed_from_u64(seed));
                for shift in [Shift::Convex, Shift::Concave] {
                    for x0 in &starts {
                        let pair = SsHopm::new(shift).with_tolerance(1e-13).solve(&a, x0);
                        if pair.converged {
                            assert_paths_agree(&a, pair.lambda, &pair.x, "sshopm pair");
                        }
                    }
                }
                // Arbitrary unit points with the Rayleigh value: saddles.
                for x in &starts {
                    let lambda = symtensor::kernels::axm(&a, x).unwrap();
                    assert_paths_agree(&a, lambda, x, "unit point");
                    seen[classify_dim3(a.view(), lambda, x, 1e-5) as usize] += 1;
                }
            }
        }
        // The unit points reach both definite classes and saddles.
        assert!(seen[0] > 0 && seen[1] > 0 && seen[2] > 0, "{seen:?}");
    }

    #[test]
    fn zero_or_non_finite_x_is_degenerate() {
        let a = SymTensor::<f64>::random(4, 3, &mut StdRng::seed_from_u64(2));
        for x in [[0.0; 3], [f64::NAN, 0.0, 1.0], [f64::INFINITY, 0.0, 0.0]] {
            assert_eq!(classify(&a, 1.0, &x, 1e-5), Stability::Degenerate);
        }
        let a4 = SymTensor::<f64>::random(4, 4, &mut StdRng::seed_from_u64(2));
        assert_eq!(classify(&a4, 1.0, &[0.0; 4], 1e-5), Stability::Degenerate);
    }

    #[test]
    fn local_max_flag() {
        assert!(Stability::NegativeStable.is_local_max());
        assert!(!Stability::PositiveStable.is_local_max());
        assert!(!Stability::Saddle.is_local_max());
        assert!(!Stability::Degenerate.is_local_max());
    }
}
