//! Starting-vector generation.
//!
//! SS-HOPM converges to different eigenpairs from different starting
//! vectors, so finding multiple eigenpairs means covering the unit sphere
//! with starts. The paper uses 128 random vectors per tensor, each entry
//! drawn uniformly from `[−1, 1]` and then normalized; it also suggests a
//! deterministic evenly-spaced alternative, which we provide as the
//! Fibonacci sphere for `n = 3` and a seeded-but-reproducible design for
//! general `n`.

use rand::Rng;
use symtensor::scalar::normalize;
use symtensor::Scalar;

/// The paper's scheme: entries i.i.d. uniform on `[−1, 1]`, then
/// normalized to the unit sphere. (This is *not* a uniform distribution on
/// the sphere — it is mildly biased toward the cube's corners — but matches
/// the paper; use [`random_gaussian_starts`] for exactly uniform coverage.)
pub fn random_uniform_starts<S: Scalar, R: Rng + ?Sized>(
    n: usize,
    count: usize,
    rng: &mut R,
) -> Vec<Vec<S>> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut v: Vec<S> = (0..n)
            .map(|_| S::from_f64(rng.gen_range(-1.0..=1.0)))
            .collect();
        if normalize(&mut v) != S::ZERO {
            out.push(v);
        }
    }
    out
}

/// Exactly-uniform sphere coverage via normalized Gaussian samples
/// (Box–Muller from uniform draws, no external distributions crate).
pub fn random_gaussian_starts<S: Scalar, R: Rng + ?Sized>(
    n: usize,
    count: usize,
    rng: &mut R,
) -> Vec<Vec<S>> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut v: Vec<S> = (0..n).map(|_| S::from_f64(gaussian(rng))).collect();
        if normalize(&mut v) != S::ZERO {
            out.push(v);
        }
    }
    out
}

/// One standard normal sample by Box–Muller.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

/// Deterministic, evenly-spaced starting vectors on the 2-sphere (`n = 3`)
/// using the Fibonacci lattice — the paper's suggested deterministic
/// alternative to random starts.
///
/// `count >= 1` is a debug-checked precondition; `count == 0` yields an
/// empty list in release builds.
pub fn fibonacci_sphere<S: Scalar>(count: usize) -> Vec<Vec<S>> {
    debug_assert!(count > 0, "need at least one starting vector");
    let golden = (1.0 + 5.0f64.sqrt()) / 2.0;
    (0..count)
        .map(|i| {
            // Latitude chosen so points split the sphere into equal-area
            // bands; longitude advances by the golden angle.
            let z = 1.0 - (2.0 * i as f64 + 1.0) / count as f64;
            let r = (1.0 - z * z).max(0.0).sqrt();
            let theta = 2.0 * std::f64::consts::PI * (i as f64 / golden).fract();
            vec![
                S::from_f64(r * theta.cos()),
                S::from_f64(r * theta.sin()),
                S::from_f64(z),
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor::scalar::norm2;

    #[test]
    fn uniform_starts_are_unit_and_counted() {
        let mut rng = StdRng::seed_from_u64(1);
        let starts = random_uniform_starts::<f64, _>(3, 128, &mut rng);
        assert_eq!(starts.len(), 128);
        for s in &starts {
            assert_eq!(s.len(), 3);
            assert!((norm2(s) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn gaussian_starts_are_unit() {
        let mut rng = StdRng::seed_from_u64(2);
        let starts = random_gaussian_starts::<f32, _>(5, 64, &mut rng);
        assert_eq!(starts.len(), 64);
        for s in &starts {
            assert!((norm2(s) - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn fibonacci_points_are_unit_and_distinct() {
        let pts = fibonacci_sphere::<f64>(128);
        assert_eq!(pts.len(), 128);
        for p in &pts {
            assert!((norm2(p) - 1.0).abs() < 1e-12);
        }
        // No two points identical.
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                let d: f64 = pts[i]
                    .iter()
                    .zip(&pts[j])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                assert!(d > 1e-6, "points {i} and {j} coincide");
            }
        }
    }

    #[test]
    fn fibonacci_covers_both_hemispheres() {
        let pts = fibonacci_sphere::<f64>(100);
        let north = pts.iter().filter(|p| p[2] > 0.0).count();
        assert!((40..=60).contains(&north), "north count {north}");
    }

    #[test]
    fn fibonacci_minimum_pairwise_distance_scales() {
        // Equal-area layout: nearest-neighbor distance ~ 2/sqrt(count).
        let pts = fibonacci_sphere::<f64>(256);
        let mut min_d2 = f64::INFINITY;
        for i in 0..pts.len() {
            for j in i + 1..pts.len() {
                let d2: f64 = pts[i]
                    .iter()
                    .zip(&pts[j])
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum();
                min_d2 = min_d2.min(d2);
            }
        }
        let expected = 2.0 / (256.0f64).sqrt();
        assert!(
            min_d2.sqrt() > 0.3 * expected,
            "{} vs {}",
            min_d2.sqrt(),
            expected
        );
    }

    #[test]
    fn gaussian_starts_cover_all_orthants_in_3d() {
        let mut rng = StdRng::seed_from_u64(3);
        let starts = random_gaussian_starts::<f64, _>(3, 400, &mut rng);
        let mut seen = [false; 8];
        for s in &starts {
            let idx =
                (s[0] > 0.0) as usize | ((s[1] > 0.0) as usize) << 1 | ((s[2] > 0.0) as usize) << 2;
            seen[idx] = true;
        }
        assert!(seen.iter().all(|&b| b), "orthant coverage {seen:?}");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn fibonacci_zero_count_panics() {
        fibonacci_sphere::<f64>(0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn fibonacci_zero_count_is_empty_in_release() {
        assert!(fibonacci_sphere::<f64>(0).is_empty());
    }

    #[test]
    fn seeded_generation_is_reproducible() {
        let a = random_uniform_starts::<f64, _>(3, 16, &mut StdRng::seed_from_u64(9));
        let b = random_uniform_starts::<f64, _>(3, 16, &mut StdRng::seed_from_u64(9));
        assert_eq!(a, b);
    }
}
