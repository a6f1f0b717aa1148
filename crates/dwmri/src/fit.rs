//! Least-squares fit of a symmetric tensor to ADC measurements.
//!
//! The homogeneous form evaluates as (Equation 4 of the paper)
//!
//! ```text
//! A·gᵐ = Σ_classes C(m; k) · a_class · g₁^{k₁} g₂^{k₂} g₃^{k₃}
//! ```
//!
//! which is *linear* in the packed unique entries `a_class`. Given `N ≥ U`
//! measurements `(gᵢ, Dᵢ)` the design matrix has row
//! `[C(m;k)*g_i^k]_classes`, and the packed tensor is the least-squares
//! solution — the same construction used to map spherical-harmonic
//! coefficients onto tensor entries in the paper's reference \[6\].

use crate::fiber::Dir3;
use linalg::{lstsq, LinalgError, Matrix};
use symtensor::index::IndexClassIter;
use symtensor::SymTensor;

/// Fit an order-`m` symmetric tensor in 3D to ADC measurements.
///
/// # Errors
/// Returns [`LinalgError::DimensionMismatch`] if `directions` and
/// `values` differ in length, and the underlying linear-algebra error if
/// the system is underdetermined (`measurements.len() < C(m+2, m)`) or
/// the directions are degenerate (e.g. all coplanar).
pub fn fit_tensor(
    m: usize,
    directions: &[Dir3],
    values: &[f64],
) -> Result<SymTensor<f64>, LinalgError> {
    if directions.len() != values.len() {
        return Err(LinalgError::DimensionMismatch {
            context: "fit_tensor needs one value per direction",
        });
    }
    let design = design_matrix(m, directions);
    let coeffs = lstsq(&design, values)?;
    SymTensor::from_values(m, 3, coeffs).map_err(|_| LinalgError::DimensionMismatch {
        context: "fit_tensor: one coefficient per unique entry of the order-m tensor",
    })
}

/// The `N × U` design matrix whose row `i` contains, for each index class,
/// `C(m; k) · gᵢ^k`.
pub fn design_matrix(m: usize, directions: &[Dir3]) -> Matrix {
    let classes: Vec<(u64, Vec<usize>)> = IndexClassIter::new(m, 3)
        .map(|c| (c.occurrences(), c.indices().to_vec()))
        .collect();
    let u = classes.len();
    Matrix::from_fn(directions.len(), u, |i, j| {
        let (coeff, ref rep) = classes[j];
        let g = &directions[i];
        let mono: f64 = rep.iter().map(|&k| g[k]).product();
        coeff as f64 * mono
    })
}

/// Evaluate the fitted form `A·gᵐ` at a direction (convenience wrapper
/// around the symmetric kernel, for residual checks). A tensor whose
/// dimension is not 3 evaluates to NaN.
pub fn evaluate(tensor: &SymTensor<f64>, g: &Dir3) -> f64 {
    symtensor::kernels::axm(tensor, g).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adc::{adc, Diffusivities};
    use crate::fiber::FiberConfig;
    use crate::sampling::{gradient_directions, min_measurements};

    #[test]
    fn exact_recovery_of_noiseless_order4_profile() {
        // The quadratic-compartment ADC model is itself a degree-4-or-less
        // even polynomial on the sphere only in special cases; but any
        // homogeneous quartic A g^4 must fit a *generated* quartic exactly.
        // Generate data from a known tensor, fit, compare.
        let truth = SymTensor::<f64>::from_fn(4, 3, |c| (c.rank() as f64 * 0.37).sin());
        let dirs = gradient_directions(24);
        let vals: Vec<f64> = dirs.iter().map(|g| evaluate(&truth, g)).collect();
        let fitted = fit_tensor(4, &dirs, &vals).unwrap();
        assert!(fitted.max_abs_diff(&truth).unwrap() < 1e-9);
    }

    #[test]
    fn minimum_measurement_count_suffices_in_general_position() {
        // Exactly 15 directions determine an order-4 tensor — provided the
        // directions are in general position. Random directions are.
        use rand::{Rng, SeedableRng};
        let truth = SymTensor::<f64>::from_fn(4, 3, |c| 1.0 / (1.0 + c.rank() as f64));
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let dirs: Vec<Dir3> = (0..min_measurements(4))
            .map(|_| {
                let mut v = [
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0),
                    rng.gen_range(-1.0..1.0f64),
                ];
                crate::fiber::normalize3(&mut v);
                v
            })
            .collect();
        let vals: Vec<f64> = dirs.iter().map(|g| evaluate(&truth, g)).collect();
        let fitted = fit_tensor(4, &dirs, &vals).unwrap();
        assert!(fitted.max_abs_diff(&truth).unwrap() < 1e-9);
    }

    #[test]
    fn fifteen_point_fibonacci_lattice_is_a_degenerate_design() {
        // A cautionary special case: the 15-point Fibonacci lattice is NOT
        // in general position for order 4 — its Gram matrix is numerically
        // singular. (Real protocols use electrostatic-repulsion point sets
        // with headroom; see `standard_protocol`.) The fit still
        // interpolates the measurements, but the coefficients are not
        // uniquely determined.
        let truth = SymTensor::<f64>::from_fn(4, 3, |c| 1.0 / (1.0 + c.rank() as f64));
        let dirs = gradient_directions(min_measurements(4));
        let vals: Vec<f64> = dirs.iter().map(|g| evaluate(&truth, g)).collect();
        let design = design_matrix(4, &dirs);
        let gram_min = linalg::SymmetricEigen::new(&design.gram()).unwrap().min();
        assert!(
            gram_min.abs() < 1e-10,
            "expected singular design, min eig {gram_min:e}"
        );
        if let Ok(fitted) = fit_tensor(4, &dirs, &vals) {
            for (g, v) in dirs.iter().zip(&vals) {
                assert!((evaluate(&fitted, g) - v).abs() < 1e-7);
            }
        }
    }

    #[test]
    fn mismatched_lengths_are_a_typed_error() {
        let dirs = gradient_directions(20);
        for values in [vec![1.0; 19], vec![1.0; 21], Vec::new()] {
            let err = fit_tensor(4, &dirs, &values).unwrap_err();
            assert!(
                matches!(err, LinalgError::DimensionMismatch { .. }),
                "{err}"
            );
        }
    }

    #[test]
    fn underdetermined_system_errors() {
        let dirs = gradient_directions(10); // < 15
        let vals = vec![1.0; 10];
        assert!(fit_tensor(4, &dirs, &vals).is_err());
    }

    #[test]
    fn quadratic_adc_fits_quartic_form_on_sphere() {
        // On the unit sphere, a quadratic profile q(g) equals the quartic
        // q(g)·(g·g), so an order-4 fit reproduces single-fiber ADC exactly.
        let f = FiberConfig::single([0.0, 0.6, 0.8]);
        let d = Diffusivities::default();
        let dirs = gradient_directions(30);
        let vals: Vec<f64> = dirs.iter().map(|g| adc(&f, &d, g)).collect();
        let fitted = fit_tensor(4, &dirs, &vals).unwrap();
        // Check at held-out directions.
        for g in gradient_directions(17) {
            let want = adc(&f, &d, &g);
            let got = evaluate(&fitted, &g);
            assert!((got - want).abs() < 1e-8, "{got} vs {want}");
        }
    }

    #[test]
    fn crossing_adc_fits_exactly_too() {
        // A sum of quadratic compartments is still quadratic, hence exactly
        // representable as a quartic on the sphere.
        let f = FiberConfig::crossing_at_angle(1.2);
        let d = Diffusivities::default();
        let dirs = gradient_directions(40);
        let vals: Vec<f64> = dirs.iter().map(|g| adc(&f, &d, g)).collect();
        let fitted = fit_tensor(4, &dirs, &vals).unwrap();
        for g in gradient_directions(23) {
            assert!((evaluate(&fitted, &g) - adc(&f, &d, &g)).abs() < 1e-8);
        }
    }

    #[test]
    fn noisy_fit_stays_close() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let f = FiberConfig::single([1.0, 0.0, 0.0]);
        let d = Diffusivities::default();
        let dirs = gradient_directions(45);
        let vals: Vec<f64> = dirs
            .iter()
            .map(|g| adc(&f, &d, g) * (1.0 + rng.gen_range(-0.02..0.02)))
            .collect();
        let fitted = fit_tensor(4, &dirs, &vals).unwrap();
        // Still peaks near the fiber: value along fiber >> transverse.
        let along = evaluate(&fitted, &[1.0, 0.0, 0.0]);
        let across = evaluate(&fitted, &[0.0, 1.0, 0.0]);
        assert!(along > 2.0 * across, "{along} vs {across}");
    }

    #[test]
    fn design_matrix_row_evaluates_form() {
        // design_matrix * packed_values == pointwise evaluation.
        let truth = SymTensor::<f64>::from_fn(4, 3, |c| 0.1 * c.rank() as f64 - 0.4);
        let dirs = gradient_directions(12);
        let design = design_matrix(4, &dirs);
        let prod = design.matvec(truth.values()).unwrap();
        for (i, g) in dirs.iter().enumerate() {
            assert!((prod[i] - evaluate(&truth, g)).abs() < 1e-12);
        }
    }

    #[test]
    fn order6_fit_works() {
        let truth = SymTensor::<f64>::from_fn(6, 3, |c| ((c.rank() * 7 % 11) as f64 - 5.0) / 10.0);
        let dirs = gradient_directions(40); // >= 28
        let vals: Vec<f64> = dirs.iter().map(|g| evaluate(&truth, g)).collect();
        let fitted = fit_tensor(6, &dirs, &vals).unwrap();
        assert!(fitted.max_abs_diff(&truth).unwrap() < 1e-7);
    }
}
