//! Multistart driver: run SS-HOPM from many starting vectors and
//! deduplicate the converged eigenpairs into a spectrum.
//!
//! For a symmetric order-`m`, dimension-`n` tensor there are at most
//! `((m−1)ⁿ − 1)/(m−2)` distinct complex eigenpairs (Cartwright &
//! Sturmfels); the real ones reachable by SS-HOPM are found by sphere
//! coverage. Deduplication must respect the sign symmetry: for even `m`,
//! `(λ, −x)` is the same eigenpair as `(λ, x)`; for odd `m` the negation is
//! `(−λ, −x)`.

use crate::classify::{classify, Stability};
use crate::solver::Eigenpair;
use crate::traits::Solver;
use std::borrow::Borrow;
use symtensor::{Scalar, SymTensorRef, TensorBatchRef};
use telemetry::Telemetry;

/// Tolerances used to decide two converged eigenpairs are the same.
#[derive(Debug, Clone, Copy)]
pub struct DedupConfig {
    /// Relative tolerance on eigenvalues: two values match when their
    /// difference is within `lambda_tol · max(1, |λ₁|, |λ₂|)`, so the
    /// test is scale-invariant for large spectra and degrades gracefully
    /// to an absolute test near zero.
    pub lambda_tol: f64,
    /// Euclidean tolerance on (unit) eigenvectors, after sign alignment.
    pub vector_tol: f64,
}

impl Default for DedupConfig {
    fn default() -> Self {
        Self {
            lambda_tol: 1e-6,
            vector_tol: 1e-4,
        }
    }
}

/// A deduplicated eigenpair with its classification and multiplicity
/// (how many starting vectors converged to it — a proxy for the size of its
/// basin of attraction).
#[derive(Debug, Clone)]
pub struct SpectrumEntry<S> {
    /// The representative eigenpair (first one found).
    pub pair: Eigenpair<S>,
    /// Stability classification.
    pub stability: Stability,
    /// Number of starts that converged to this eigenpair.
    pub basin_count: usize,
}

/// The result of a multistart sweep.
#[derive(Debug, Clone)]
pub struct Spectrum<S> {
    /// Distinct eigenpairs, sorted by descending eigenvalue.
    pub entries: Vec<SpectrumEntry<S>>,
    /// Number of starts that failed to converge.
    pub failures: usize,
    /// Total number of starts attempted.
    pub total_starts: usize,
}

impl<S: Scalar> Spectrum<S> {
    /// The eigenpairs classified as local maxima, descending by eigenvalue.
    pub fn local_maxima(&self) -> impl Iterator<Item = &SpectrumEntry<S>> {
        self.entries.iter().filter(|e| e.stability.is_local_max())
    }

    /// The largest eigenvalue found (`None` if nothing converged).
    pub fn max_lambda(&self) -> Option<S> {
        self.entries.first().map(|e| e.pair.lambda)
    }
}

/// True if `(l1, x1)` and `(l2, x2)` represent the same eigenpair of an
/// order-`m` tensor, modulo the sign symmetry.
fn same_pair<S: Scalar>(m: usize, l1: S, x1: &[S], l2: S, x2: &[S], cfg: &DedupConfig) -> bool {
    // Relative λ tolerance: eigenvalues scale with ‖A‖, so an absolute
    // test either over-merges small spectra or splits large ones. The
    // max(1, ·) floor keeps near-zero eigenvalues on an absolute scale.
    let scale = l1.to_f64().abs().max(l2.to_f64().abs()).max(1.0);
    let lambda_tol = cfg.lambda_tol * scale;
    let d_direct = vec_dist(x1, x2);
    let d_flipped = vec_dist_neg(x1, x2);
    if m.is_multiple_of(2) {
        // (lambda, x) == (lambda, -x).
        (l1 - l2).abs().to_f64() <= lambda_tol && d_direct.min(d_flipped) <= cfg.vector_tol
    } else {
        // (lambda, x) == itself, and (-lambda, -x) is its mirror.
        let direct = (l1 - l2).abs().to_f64() <= lambda_tol && d_direct <= cfg.vector_tol;
        let mirrored = (l1 + l2).abs().to_f64() <= lambda_tol && d_flipped <= cfg.vector_tol;
        direct || mirrored
    }
}

fn vec_dist<S: Scalar>(a: &[S], b: &[S]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&p, &q)| {
            let d = p.to_f64() - q.to_f64();
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

fn vec_dist_neg<S: Scalar>(a: &[S], b: &[S]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&p, &q)| {
            let d = p.to_f64() + q.to_f64();
            d * d
        })
        .sum::<f64>()
        .sqrt()
}

/// Run any [`Solver`] from every start in `starts` and collect the
/// deduplicated spectrum. Unconverged runs are counted but not included.
/// `classify_tol` is forwarded to [`classify`].
pub fn multistart<'a, S: Scalar, V: Solver<S> + ?Sized>(
    solver: &V,
    a: impl Into<SymTensorRef<'a, S>>,
    starts: &[Vec<S>],
    cfg: &DedupConfig,
    classify_tol: f64,
) -> Spectrum<S> {
    let a = a.into();
    spectrum_from_pairs(
        a,
        starts.iter().map(|x0| solver.solve_pair(a, x0)),
        cfg,
        classify_tol,
    )
}

/// Build a deduplicated [`Spectrum`] from eigenpairs that were already
/// computed — the dedup/classify half of [`multistart`], decoupled from the
/// solving half so the pairs can come from any execution backend (the
/// batched CPU driver, the simulated GPU, a multi-device split, ...).
///
/// The pairs may be owned or borrowed (`&rows[t]` from a batch report); a
/// pair is cloned only when it becomes a new entry's representative.
/// Unconverged pairs, and pairs with a non-finite λ or `x`, are counted as
/// failures and excluded, exactly as in [`multistart`]; `total_starts` is
/// the number of pairs consumed.
pub fn spectrum_from_pairs<'a, S: Scalar, I>(
    a: impl Into<SymTensorRef<'a, S>>,
    pairs: I,
    cfg: &DedupConfig,
    classify_tol: f64,
) -> Spectrum<S>
where
    I: IntoIterator,
    I::Item: Borrow<Eigenpair<S>>,
{
    let a = a.into();
    let m = a.order();
    let mut entries: Vec<SpectrumEntry<S>> = Vec::new();
    let mut failures = 0usize;
    let mut total_starts = 0usize;

    for item in pairs {
        let pair = item.borrow();
        total_starts += 1;
        if !pair.converged || !pair.lambda.is_finite() || pair.x.iter().any(|v| !v.is_finite()) {
            failures += 1;
            continue;
        }
        let seen = entries.iter_mut().find(|entry| {
            same_pair(
                m,
                entry.pair.lambda,
                &entry.pair.x,
                pair.lambda,
                &pair.x,
                cfg,
            )
        });
        match seen {
            Some(entry) => entry.basin_count += 1,
            None => entries.push(SpectrumEntry {
                pair: pair.clone(),
                stability: classify(a, pair.lambda, &pair.x, classify_tol),
                basin_count: 1,
            }),
        }
    }

    entries.sort_by(|a, b| {
        b.pair
            .lambda
            .partial_cmp(&a.pair.lambda)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Spectrum {
        entries,
        failures,
        total_starts,
    }
}

/// The post-solve pass over a whole batch: [`spectrum_from_pairs`] on
/// every tensor's row of borrowed pairs (`rows[t]`, as in a batch
/// report), with `finish` turning each spectrum into the caller's result
/// as soon as it is built.
///
/// With telemetry enabled the pass records one `sshopm.spectra` span and
/// the `spectra.entries` / `spectra.failures` counters; disabled, it
/// records nothing.
pub fn spectra_from_rows<'a, S: Scalar, T>(
    batch: impl Into<TensorBatchRef<'a, S>>,
    rows: &[Vec<Eigenpair<S>>],
    cfg: &DedupConfig,
    classify_tol: f64,
    telemetry: &Telemetry,
    mut finish: impl FnMut(Spectrum<S>) -> T,
) -> Vec<T> {
    let _span = telemetry.span("sshopm.spectra");
    let (mut entries, mut failures) = (0u64, 0u64);
    let out = batch
        .into()
        .iter()
        .zip(rows)
        .map(|(a, row)| {
            let spectrum = spectrum_from_pairs(a, row, cfg, classify_tol);
            entries += spectrum.entries.len() as u64;
            failures += spectrum.failures as u64;
            finish(spectrum)
        })
        .collect();
    telemetry.counter("spectra.entries", entries);
    telemetry.counter("spectra.failures", failures);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shift::Shift;
    use crate::solver::SsHopm;
    use crate::starts::{fibonacci_sphere, random_uniform_starts};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor::SymTensor;

    #[test]
    fn matrix_spectrum_recovers_all_eigenvalues() {
        // diag(3, 2, 1) with convex shift: local max is 3. With enough
        // starts and both shifts we can see 3 and 1; 2 is a saddle.
        let mut a = SymTensor::<f64>::zeros(2, 3);
        a.set(&[0, 0], 3.0).unwrap();
        a.set(&[1, 1], 2.0).unwrap();
        a.set(&[2, 2], 1.0).unwrap();
        let starts = fibonacci_sphere::<f64>(64);
        let up = multistart(
            &SsHopm::new(Shift::Convex).with_tolerance(1e-14),
            &a,
            &starts,
            &DedupConfig::default(),
            1e-6,
        );
        assert!(up.failures == 0);
        assert!((up.max_lambda().unwrap() - 3.0).abs() < 1e-6);
        let down = multistart(
            &SsHopm::new(Shift::Concave).with_tolerance(1e-14),
            &a,
            &starts,
            &DedupConfig::default(),
            1e-6,
        );
        let min = down.entries.last().unwrap().pair.lambda;
        assert!((min - 1.0).abs() < 1e-6);
    }

    #[test]
    fn dedup_collapses_repeated_basins() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = SymTensor::<f64>::random(4, 3, &mut rng);
        let starts = random_uniform_starts::<f64, _>(3, 128, &mut rng);
        let spectrum = multistart(
            &SsHopm::new(Shift::Convex).with_tolerance(1e-13),
            &a,
            &starts,
            &DedupConfig::default(),
            1e-5,
        );
        // Far fewer distinct pairs than starts; all basins accounted for.
        assert!(spectrum.entries.len() < 20, "{}", spectrum.entries.len());
        let total: usize = spectrum.entries.iter().map(|e| e.basin_count).sum();
        assert_eq!(total + spectrum.failures, 128);
        // Entries are sorted by descending lambda.
        for w in spectrum.entries.windows(2) {
            assert!(w[0].pair.lambda >= w[1].pair.lambda);
        }
        // Every reported pair satisfies the eigen equation.
        for e in &spectrum.entries {
            assert!(e.pair.residual(&a) < 1e-5);
        }
    }

    #[test]
    fn eigenpair_count_respects_cartwright_sturmfels_bound() {
        // (m-1)^n - 1) / (m-2) complex pairs bounds the real count;
        // for m=4, n=3: (3^3-1)/2 = 13. With even m, +/-x are identified,
        // so we can see at most 13 distinct classes.
        let mut rng = StdRng::seed_from_u64(6);
        let a = SymTensor::<f64>::random(4, 3, &mut rng);
        let starts = random_uniform_starts::<f64, _>(3, 256, &mut rng);
        let both: Vec<SpectrumEntry<f64>> = {
            let mut all = Vec::new();
            for shift in [Shift::Convex, Shift::Concave] {
                let s = multistart(
                    &SsHopm::new(shift).with_tolerance(1e-13),
                    &a,
                    &starts,
                    &DedupConfig::default(),
                    1e-5,
                );
                all.extend(s.entries);
            }
            all
        };
        assert!(both.len() <= 13, "found {} pairs", both.len());
    }

    #[test]
    fn lambda_dedup_tolerance_is_relative() {
        let cfg = DedupConfig::default();
        let x = vec![0.6f64, 0.8, 0.0];
        // |Δλ| = 50 but relative to |λ| ≈ 1e9 that is 5e-8 < 1e-6: same.
        assert!(same_pair(4, 1.0e9, &x, 1.0e9 + 50.0, &x, &cfg));
        // Near zero the floor keeps the test absolute: 5e-7 < 1e-6 merges,
        // 5e-6 does not.
        assert!(same_pair(4, 0.0, &x, 5.0e-7, &x, &cfg));
        assert!(!same_pair(4, 0.0, &x, 5.0e-6, &x, &cfg));
        // A genuinely different large eigenvalue still splits.
        assert!(!same_pair(4, 1.0e9, &x, 1.001e9, &x, &cfg));
    }

    #[test]
    fn multistart_accepts_any_solver() {
        // The driver is generic in the iteration: GEAP through a trait
        // object must find the dominant local maximum of diag(3, 2, 1)
        // exactly as SS-HOPM does.
        let mut a = SymTensor::<f64>::zeros(2, 3);
        a.set(&[0, 0], 3.0).unwrap();
        a.set(&[1, 1], 2.0).unwrap();
        a.set(&[2, 2], 1.0).unwrap();
        let starts = fibonacci_sphere::<f64>(32);
        let geap: Box<dyn crate::traits::Solver<f64>> =
            Box::new(crate::geap::Geap::new().with_tolerance(1e-14));
        let spectrum = multistart(&*geap, &a, &starts, &DedupConfig::default(), 1e-6);
        assert!((spectrum.max_lambda().unwrap() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn even_order_sign_flip_is_same_pair() {
        let cfg = DedupConfig::default();
        let x = vec![0.6f64, 0.8, 0.0];
        let neg: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!(same_pair(4, 1.5, &x, 1.5, &neg, &cfg));
        assert!(!same_pair(4, 1.5, &x, -1.5, &neg, &cfg));
    }

    #[test]
    fn odd_order_mirror_is_same_pair() {
        let cfg = DedupConfig::default();
        let x = vec![0.6f64, 0.8, 0.0];
        let neg: Vec<f64> = x.iter().map(|v| -v).collect();
        assert!(same_pair(3, 1.5, &x, -1.5, &neg, &cfg));
        assert!(!same_pair(3, 1.5, &x, 1.5, &neg, &cfg));
    }

    #[test]
    fn local_maxima_filter() {
        let mut a = SymTensor::<f64>::zeros(2, 3);
        a.set(&[0, 0], 3.0).unwrap();
        a.set(&[1, 1], 2.0).unwrap();
        a.set(&[2, 2], 1.0).unwrap();
        let starts = fibonacci_sphere::<f64>(64);
        let spectrum = multistart(
            &SsHopm::new(Shift::Convex).with_tolerance(1e-14),
            &a,
            &starts,
            &DedupConfig::default(),
            1e-6,
        );
        let maxima: Vec<_> = spectrum.local_maxima().collect();
        assert_eq!(maxima.len(), 1);
        assert!((maxima[0].pair.lambda - 3.0).abs() < 1e-6);
    }

    #[test]
    fn spectrum_from_pairs_matches_multistart() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = SymTensor::<f64>::random(4, 3, &mut rng);
        let starts = random_uniform_starts::<f64, _>(3, 64, &mut rng);
        let solver = SsHopm::new(Shift::Convex).with_tolerance(1e-13);
        let direct = multistart(&solver, &a, &starts, &DedupConfig::default(), 1e-5);
        let pairs: Vec<_> = starts.iter().map(|x0| solver.solve(&a, x0)).collect();
        let rebuilt = spectrum_from_pairs(&a, pairs, &DedupConfig::default(), 1e-5);
        assert_eq!(direct.entries.len(), rebuilt.entries.len());
        assert_eq!(direct.failures, rebuilt.failures);
        assert_eq!(direct.total_starts, rebuilt.total_starts);
        for (d, r) in direct.entries.iter().zip(&rebuilt.entries) {
            assert_eq!(d.pair.lambda, r.pair.lambda);
            assert_eq!(d.basin_count, r.basin_count);
            assert_eq!(d.stability, r.stability);
        }
    }

    #[test]
    fn empty_starts_give_empty_spectrum() {
        let a = SymTensor::<f64>::diagonal_ones(4, 3);
        let spectrum = multistart(
            &SsHopm::new(Shift::Convex),
            &a,
            &[],
            &DedupConfig::default(),
            1e-6,
        );
        assert!(spectrum.entries.is_empty());
        assert_eq!(spectrum.total_starts, 0);
        assert!(spectrum.max_lambda().is_none());
    }
}
