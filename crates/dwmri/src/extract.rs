//! Fiber-direction extraction: SS-HOPM multistart → local maxima → axes.
//!
//! The eigenpairs of the fitted tensor that are local maxima of `A·gᵐ` on
//! the sphere (negative-stable, found by convexly-shifted SS-HOPM) are the
//! fiber directions (Section IV–V of the paper). Because the ADC is
//! antipodally symmetric and `m` is even, `g` and `−g` describe the same
//! axis; estimates are canonicalized to a positive leading component.

use crate::fiber::Dir3;
use backend::{BackendError, SolveBackend};
use sshopm::solver::IterationPolicy;
use sshopm::{
    multistart, spectra_from_rows, spectrum_from_pairs, DedupConfig, Shift, Solver, SolverSpec,
    Spectrum, Stability,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;
use symtensor::{SymTensorRef, TensorBatch};
use telemetry::Telemetry;

/// The stability classifier's tolerance, in every extraction path.
const CLASSIFY_TOL: f64 = 1e-5;

/// Tuning for fiber extraction.
#[derive(Debug, Clone)]
pub struct ExtractConfig {
    /// Starting vectors per tensor (the paper uses 128).
    pub num_starts: usize,
    /// Which eigen-iteration to run per voxel (`sshopm` by default;
    /// `geap`/`qrst` trade iteration cost for basin coverage).
    pub solver: SolverSpec,
    /// SS-HOPM shift policy. The paper uses `α = 0` for its clean synthetic
    /// set; `Shift::Convex` is the safe default for noisy data. Ignored by
    /// solvers that pick their own shift (`geap`, `qrst`).
    pub shift: Shift,
    /// Convergence tolerance on the eigenvalue.
    pub tol: f64,
    /// Iteration cap per solve.
    pub max_iters: usize,
    /// Keep at most this many fibers (strongest eigenvalues first).
    pub max_fibers: usize,
    /// Discard maxima whose eigenvalue is below this fraction of the
    /// largest one (rejects spurious shallow maxima from noise).
    pub relative_threshold: f64,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        Self {
            num_starts: 128,
            solver: SolverSpec::default(),
            shift: Shift::Convex,
            tol: 1e-10,
            max_iters: 1000,
            max_fibers: 3,
            relative_threshold: 0.5,
        }
    }
}

/// One extracted fiber axis.
#[derive(Debug, Clone)]
pub struct FiberEstimate {
    /// Unit axis, canonicalized so the first nonzero component is positive.
    pub direction: Dir3,
    /// The eigenvalue (peak ADC value of the fitted form along the axis).
    pub lambda: f64,
    /// Fraction of starting vectors that converged into this basin.
    pub basin_fraction: f64,
}

/// Canonicalize an axis: flip sign so the first component with magnitude
/// above 1e-12 is positive.
pub fn canonicalize_axis(mut d: Dir3) -> Dir3 {
    for i in 0..3 {
        if d[i].abs() > 1e-12 {
            if d[i] < 0.0 {
                d = [-d[0], -d[1], -d[2]];
            }
            break;
        }
    }
    d
}

/// Extract fiber directions from a fitted order-`m` (even) tensor.
///
/// Runs SS-HOPM from `cfg.num_starts` deterministic Fibonacci-sphere
/// starts, keeps negative-stable (local-max) eigenpairs, applies the
/// relative eigenvalue threshold and returns at most `cfg.max_fibers`
/// estimates, strongest first. A tensor that is not 3-dimensional, or
/// `cfg.num_starts == 0`, is a [`backend::BackendError`], as in the batch
/// form.
pub fn extract_fibers<'a>(
    tensor: impl Into<SymTensorRef<'a, f64>>,
    cfg: &ExtractConfig,
) -> Result<Vec<FiberEstimate>, backend::BackendError> {
    let tensor = tensor.into();
    check_dim3(tensor.dim())?;
    check_starts(cfg)?;
    let starts = sshopm::starts::fibonacci_sphere::<f64>(cfg.num_starts);
    let solver = extraction_solver(cfg);
    let spectrum = multistart(
        &*solver,
        tensor,
        &starts,
        &DedupConfig::default(),
        CLASSIFY_TOL,
    );
    Ok(spectrum_to_fibers(&spectrum, cfg))
}

/// Extract fiber directions from a whole batch of fitted tensors (one per
/// voxel) through an execution backend.
///
/// Every tensor is solved from the same `cfg.num_starts` Fibonacci-sphere
/// starts in one [`SolveBackend::solve_batch_each`] call — this is the
/// paper's application workload (Section VI): thousands of independent
/// voxels, each a small batched SS-HOPM problem. The batch arena
/// guarantees a uniform shape by construction and hands the backend one
/// contiguous buffer (a single coalesced host→device transfer on the GPU
/// backends). Each voxel's row of pairs becomes its fibers as soon as it
/// is lent (on the worker that solved it, on [`backend::CpuParallel`]),
/// so no per-start pair outlives its voxel. The result is one
/// `Vec<FiberEstimate>` per input tensor, in order, each identical to
/// what [`extract_fibers`] returns for that tensor whatever the backend's
/// thread count.
///
/// With telemetry enabled the pass adds the `spectra.entries` /
/// `spectra.failures` counters once, summed over the voxels; it records
/// no `sshopm.spectra` span, as it runs inside the backend's
/// `batch.solve`.
///
/// Note the GPU-simulated backends support only [`Shift::Fixed`]; pass a
/// CPU backend for the convex/adaptive shifts recommended for noisy data.
/// A batch of non-3-dimensional tensors, `cfg.num_starts == 0`, backend
/// failures (unsupported shift, an exhausted resilient run) and a backend
/// that lends a voxel's row twice or never surface as
/// [`backend::BackendError`], never panics.
pub fn extract_fibers_with(
    tensors: &TensorBatch<f64>,
    cfg: &ExtractConfig,
    backend: &dyn SolveBackend<f64>,
    telemetry: &Telemetry,
) -> Result<Vec<Vec<FiberEstimate>>, backend::BackendError> {
    let starts = batch_starts(tensors, cfg)?;
    let solver = extraction_solver(cfg);
    let voxels: Vec<OnceLock<Vec<FiberEstimate>>> =
        (0..tensors.len()).map(|_| OnceLock::new()).collect();
    let (entries, failures) = (AtomicU64::new(0), AtomicU64::new(0));
    let stray = AtomicBool::new(false);
    let batch = tensors.view();
    let each = |t: usize, row: &[sshopm::Eigenpair<f64>]| {
        let (Ok(a), Some(voxel)) = (batch.try_get(t), voxels.get(t)) else {
            stray.store(true, Relaxed);
            return;
        };
        let spectrum = spectrum_from_pairs(a, row, &DedupConfig::default(), CLASSIFY_TOL);
        entries.fetch_add(spectrum.entries.len() as u64, Relaxed);
        failures.fetch_add(spectrum.failures as u64, Relaxed);
        if voxel.set(spectrum_to_fibers(&spectrum, cfg)).is_err() {
            stray.store(true, Relaxed);
        }
    };
    backend.solve_batch_each(tensors, &starts, &*solver, telemetry, &each)?;
    telemetry.counter("spectra.entries", entries.into_inner());
    telemetry.counter("spectra.failures", failures.into_inner());
    if stray.into_inner() {
        return Err(BackendError(format!(
            "backend {} lent a row twice or for no voxel",
            backend.label()
        )));
    }
    voxels
        .into_iter()
        .enumerate()
        .map(|(t, voxel)| {
            voxel.into_inner().ok_or_else(|| {
                BackendError(format!(
                    "backend {} lent no row for voxel {t}",
                    backend.label()
                ))
            })
        })
        .collect()
}

/// [`extract_fibers_with`], additionally returning the backend's
/// [`backend::BatchReport`] so callers can render throughput, fault, and
/// latency observability (e.g. a unified [`telemetry::RunReport`]) for the
/// extraction run instead of only the fiber directions. The report keeps
/// every voxel's row of pairs, so the pass runs after the solve, on the
/// calling thread ([`spectra_from_rows`]).
pub fn extract_fibers_reported(
    tensors: &TensorBatch<f64>,
    cfg: &ExtractConfig,
    backend: &dyn SolveBackend<f64>,
    telemetry: &Telemetry,
) -> Result<(Vec<Vec<FiberEstimate>>, backend::BatchReport<f64>), backend::BackendError> {
    let starts = batch_starts(tensors, cfg)?;
    let solver = extraction_solver(cfg);
    let report = backend.solve_batch(tensors, &starts, &*solver, telemetry)?;
    // The per-start pairs stay inside the report (its workload/throughput
    // accounting is derived from `results`); the pass borrows them.
    let fibers = spectra_from_rows(
        tensors,
        &report.results,
        &DedupConfig::default(),
        CLASSIFY_TOL,
        telemetry,
        |spectrum| spectrum_to_fibers(&spectrum, cfg),
    );
    Ok((fibers, report))
}

/// Check the batch and the start count; the starts every batch
/// extraction runs.
fn batch_starts(
    tensors: &TensorBatch<f64>,
    cfg: &ExtractConfig,
) -> Result<Vec<Vec<f64>>, BackendError> {
    if !tensors.is_empty() {
        check_dim3(tensors.dim())?;
    }
    check_starts(cfg)?;
    Ok(sshopm::starts::fibonacci_sphere::<f64>(cfg.num_starts))
}

fn check_dim3(n: usize) -> Result<(), backend::BackendError> {
    if n == 3 {
        return Ok(());
    }
    Err(backend::BackendError(format!(
        "fiber extraction needs dimension-3 tensors, file has n={n}"
    )))
}

/// No start finds no fiber, and `spectrum_to_fibers` divides each basin
/// count by the number of starts.
fn check_starts(cfg: &ExtractConfig) -> Result<(), backend::BackendError> {
    if cfg.num_starts > 0 {
        return Ok(());
    }
    Err(backend::BackendError(
        "fiber extraction needs at least one start (num_starts = 0)".into(),
    ))
}

fn extraction_solver(cfg: &ExtractConfig) -> Box<dyn Solver<f64>> {
    cfg.solver.build(
        cfg.shift,
        IterationPolicy::Converge {
            tol: cfg.tol,
            max_iters: cfg.max_iters,
        },
    )
}

/// Shared back half of fiber extraction: local maxima of the deduplicated
/// spectrum → canonicalized, thresholded, strongest-first estimates.
fn spectrum_to_fibers(spectrum: &Spectrum<f64>, cfg: &ExtractConfig) -> Vec<FiberEstimate> {
    let mut maxima: Vec<FiberEstimate> = spectrum
        .entries
        .iter()
        .filter(|e| {
            e.stability == Stability::NegativeStable || e.stability == Stability::Degenerate
        })
        .filter_map(|e| match e.pair.x[..] {
            [x0, x1, x2] => Some(FiberEstimate {
                direction: canonicalize_axis([x0, x1, x2]),
                lambda: e.pair.lambda,
                basin_fraction: e.basin_count as f64 / cfg.num_starts as f64,
            }),
            // A wrong-length vector from a backend is no direction.
            _ => None,
        })
        .collect();

    // Strongest first; threshold relative to the strongest.
    maxima.sort_by(|a, b| b.lambda.total_cmp(&a.lambda));
    if let Some(strongest) = maxima.first().map(|f| f.lambda) {
        maxima.retain(|f| f.lambda >= cfg.relative_threshold * strongest);
    }
    maxima.truncate(cfg.max_fibers);
    maxima
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adc::{adc, Diffusivities};
    use crate::fiber::FiberConfig;
    use crate::fit::fit_tensor;
    use crate::metrics::angular_error_deg;
    use crate::sampling::gradient_directions;
    use symtensor::SymTensor;

    fn fit_config(f: &FiberConfig) -> SymTensor<f64> {
        let d = Diffusivities::default();
        let dirs = gradient_directions(30);
        let vals: Vec<f64> = dirs.iter().map(|g| adc(f, &d, g)).collect();
        fit_tensor(4, &dirs, &vals).unwrap()
    }

    #[test]
    fn single_fiber_is_recovered() {
        let truth = FiberConfig::single([0.0, 0.6, 0.8]);
        let tensor = fit_config(&truth);
        let fibers = extract_fibers(&tensor, &ExtractConfig::default()).unwrap();
        assert!(!fibers.is_empty());
        let err = angular_error_deg(&fibers[0].direction, &truth.directions[0]);
        assert!(err < 1.0, "angular error {err} deg");
    }

    #[test]
    fn orthogonal_crossing_yields_two_fibers() {
        let truth = FiberConfig::crossing([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]);
        let tensor = fit_config(&truth);
        let fibers = extract_fibers(&tensor, &ExtractConfig::default()).unwrap();
        assert_eq!(fibers.len(), 2, "{fibers:?}");
        // Each truth direction matched by some estimate within 2 degrees.
        for t in &truth.directions {
            let best = fibers
                .iter()
                .map(|f| angular_error_deg(&f.direction, t))
                .fold(f64::INFINITY, f64::min);
            assert!(best < 2.0, "direction {t:?} err {best}");
        }
    }

    #[test]
    fn sixty_degree_crossing_resolved_by_order4() {
        let truth = FiberConfig::crossing_at_angle(60.0f64.to_radians());
        let tensor = fit_config(&truth);
        let cfg = ExtractConfig {
            relative_threshold: 0.7,
            ..Default::default()
        };
        let fibers = extract_fibers(&tensor, &cfg).unwrap();
        assert!(
            fibers.len() >= 2,
            "60-degree crossing should give two maxima: {fibers:?}"
        );
    }

    #[test]
    fn shallow_crossing_merges_into_one_peak() {
        // Below the order-4 resolution limit, the two lobes merge: a single
        // maximum along the bisector.
        let truth = FiberConfig::crossing_at_angle(20.0f64.to_radians());
        let tensor = fit_config(&truth);
        let fibers = extract_fibers(&tensor, &ExtractConfig::default()).unwrap();
        assert_eq!(fibers.len(), 1, "{fibers:?}");
        // The merged peak is along the bisector (+x).
        let err = angular_error_deg(&fibers[0].direction, &[1.0, 0.0, 0.0]);
        assert!(err < 2.0, "bisector error {err}");
    }

    #[test]
    fn estimates_are_sorted_and_canonicalized() {
        let truth = FiberConfig::new(vec![[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], vec![0.7, 0.3]);
        let tensor = fit_config(&truth);
        let cfg = ExtractConfig {
            relative_threshold: 0.1,
            ..Default::default()
        };
        let fibers = extract_fibers(&tensor, &cfg).unwrap();
        for w in fibers.windows(2) {
            assert!(w[0].lambda >= w[1].lambda);
        }
        for f in &fibers {
            let first_nonzero = f.direction.iter().find(|v| v.abs() > 1e-12).unwrap();
            assert!(*first_nonzero > 0.0, "{:?}", f.direction);
        }
        // The dominant fiber (weight 0.7) comes first.
        let err = angular_error_deg(&fibers[0].direction, &[1.0, 0.0, 0.0]);
        assert!(err < 2.0);
    }

    #[test]
    fn basin_fractions_are_sane() {
        let truth = FiberConfig::single([1.0, 0.0, 0.0]);
        let tensor = fit_config(&truth);
        let fibers = extract_fibers(&tensor, &ExtractConfig::default()).unwrap();
        let total: f64 = fibers.iter().map(|f| f.basin_fraction).sum();
        assert!(total <= 1.0 + 1e-12);
        assert!(fibers[0].basin_fraction > 0.3);
    }

    #[test]
    fn canonicalize_flips_negative_leading() {
        assert_eq!(canonicalize_axis([-1.0, 0.0, 0.0]), [1.0, 0.0, 0.0]);
        assert_eq!(canonicalize_axis([0.0, -0.5, 0.5]), [0.0, 0.5, -0.5]);
        let z = canonicalize_axis([0.0, 0.0, 1.0]);
        assert_eq!(z, [0.0, 0.0, 1.0]);
    }

    #[test]
    fn batched_extraction_matches_per_tensor_path() {
        // One, two and three solve threads all return the per-tensor
        // path's fibers bit for bit.
        use backend::{CpuParallel, KernelStrategy};

        let configs = [
            FiberConfig::single([0.0, 0.6, 0.8]),
            FiberConfig::crossing([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
            FiberConfig::crossing_at_angle(60.0f64.to_radians()),
            FiberConfig::single([1.0, 0.0, 0.0]),
            FiberConfig::crossing_at_angle(75.0f64.to_radians()),
        ];
        let fitted: Vec<_> = configs.iter().map(fit_config).collect();
        let tensors = TensorBatch::from_tensors(&fitted).unwrap();
        let cfg = ExtractConfig::default();
        let want: Vec<_> = tensors
            .iter()
            .map(|tensor| extract_fibers(tensor, &cfg).unwrap())
            .collect();

        for threads in [1, 2, 3] {
            let batched = extract_fibers_with(
                &tensors,
                &cfg,
                &CpuParallel::new(threads, KernelStrategy::General),
                &Telemetry::disabled(),
            )
            .unwrap();
            assert_eq!(batched.len(), tensors.len());
            for (got, want) in batched.iter().zip(&want) {
                assert_eq!(got.len(), want.len(), "cpu:{threads}");
                for (g, w) in got.iter().zip(want) {
                    assert_eq!(g.lambda.to_bits(), w.lambda.to_bits(), "cpu:{threads}");
                    assert_eq!(g.direction.map(f64::to_bits), w.direction.map(f64::to_bits));
                    assert_eq!(g.basin_fraction.to_bits(), w.basin_fraction.to_bits());
                }
            }
        }
    }

    /// A backend that hands back fixed rows instead of solving.
    struct Stub(Vec<Vec<sshopm::Eigenpair<f64>>>);

    impl SolveBackend<f64> for Stub {
        fn label(&self) -> String {
            "stub".to_string()
        }

        fn solve_batch(
            &self,
            _batch: &TensorBatch<f64>,
            _starts: &[Vec<f64>],
            solver: &dyn Solver<f64>,
            _telemetry: &Telemetry,
        ) -> Result<backend::BatchReport<f64>, backend::BackendError> {
            Ok(backend::BatchReport {
                backend: "stub".to_string(),
                kernel: "general".to_string(),
                solver: solver.name().to_string(),
                results: self.0.clone(),
                total_iterations: 0,
                seconds: 0.0,
                useful_flops: 0,
                profiles: Vec::new(),
                hosts: Vec::new(),
                comm: Default::default(),
                fault_log: Default::default(),
                kernel_cache: None,
                timeline: None,
            })
        }
    }

    #[test]
    fn malformed_converged_pairs_do_not_panic() {
        let pair = |lambda: f64, x: Vec<f64>| sshopm::Eigenpair {
            lambda,
            x,
            iterations: 3,
            converged: true,
            alpha: 0.0,
        };
        let mut row = vec![pair(1.0, vec![1.0, 0.0, 0.0]); 5];
        row.push(pair(f64::NAN, vec![0.0, 1.0, 0.0]));
        row.push(pair(f64::NAN, vec![0.0, 0.0, 1.0]));
        // A wrong-length vector is an unclassifiable entry, not a fiber.
        row.push(pair(1.0, vec![0.0, 1.0]));
        let tensors = TensorBatch::from_tensors(&[SymTensor::<f64>::diagonal_ones(4, 3)]).unwrap();
        let cfg = ExtractConfig {
            num_starts: 8,
            ..Default::default()
        };
        let telemetry = Telemetry::enabled();
        let (fibers, _) =
            extract_fibers_reported(&tensors, &cfg, &Stub(vec![row.clone()]), &telemetry).unwrap();
        assert_eq!(fibers.len(), 1);
        assert_eq!(fibers[0].len(), 1, "{fibers:?}");
        assert_eq!(fibers[0][0].direction, [1.0, 0.0, 0.0]);
        assert_eq!(fibers[0][0].basin_fraction, 5.0 / 8.0);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("spectra.entries"), Some(2));
        assert_eq!(snap.counter("spectra.failures"), Some(2));

        // The lending path, through the trait's default, alike.
        let telemetry = Telemetry::enabled();
        let lent = extract_fibers_with(&tensors, &cfg, &Stub(vec![row]), &telemetry).unwrap();
        assert_eq!(lent.len(), 1);
        assert_eq!(lent[0].len(), 1, "{lent:?}");
        assert_eq!(lent[0][0].direction, [1.0, 0.0, 0.0]);
        assert_eq!(lent[0][0].basin_fraction, 5.0 / 8.0);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("spectra.entries"), Some(2));
        assert_eq!(snap.counter("spectra.failures"), Some(2));
    }

    /// The lending path keeps each voxel's fibers and counts the same
    /// spectrum entries and failures as the report path, on a stub's rows
    /// (through the trait's default) and on both CPU engines.
    #[test]
    fn lending_extraction_matches_the_report_path() {
        use backend::{CpuParallel, KernelStrategy};

        let fitted: Vec<_> = (1..=6)
            .map(|k| fit_config(&FiberConfig::crossing_at_angle(f64::from(k) * 15.0)))
            .collect();
        let tensors = TensorBatch::from_tensors(&fitted).unwrap();
        let cfg = ExtractConfig {
            num_starts: 24,
            max_iters: 40,
            ..Default::default()
        };
        let counts = |snap: &telemetry::TelemetrySnapshot| {
            let entries = snap.counter("spectra.entries");
            (entries, snap.counter("spectra.failures"))
        };
        for threads in [1, 2] {
            for strategy in [KernelStrategy::Batched, KernelStrategy::General] {
                let backend = CpuParallel::new(threads, strategy);
                let (kept, lent) = (Telemetry::enabled(), Telemetry::enabled());
                let (want, _) = extract_fibers_reported(&tensors, &cfg, &backend, &kept).unwrap();
                let got = extract_fibers_with(&tensors, &cfg, &backend, &lent).unwrap();
                let at = format!("cpu:{threads} {strategy}");
                assert_eq!(got.len(), want.len(), "{at}");
                for (g, w) in got.iter().flatten().zip(want.iter().flatten()) {
                    assert_eq!(g.lambda.to_bits(), w.lambda.to_bits(), "{at}");
                    assert_eq!(g.direction.map(f64::to_bits), w.direction.map(f64::to_bits));
                    assert_eq!(g.basin_fraction.to_bits(), w.basin_fraction.to_bits());
                }
                let (kept, lent) = (kept.snapshot(), lent.snapshot());
                assert_eq!(counts(&lent), counts(&kept), "{at}");
                // The capped solves leave some starts unconverged.
                assert!(lent.counter("spectra.failures") > Some(0), "{at}");
                assert!(kept.span("sshopm.spectra").is_some(), "{at}");
                assert!(lent.span("sshopm.spectra").is_none(), "{at}");
            }
        }
    }

    /// A backend that lends no row for a voxel fails the extraction with
    /// a typed error rather than returning an empty fiber list.
    #[test]
    fn a_voxel_whose_row_never_arrives_is_a_typed_error() {
        let tensors = TensorBatch::from_tensors(&[
            SymTensor::<f64>::diagonal_ones(4, 3),
            SymTensor::<f64>::diagonal_ones(4, 3),
        ])
        .unwrap();
        let pair = sshopm::Eigenpair {
            lambda: 1.0,
            x: vec![1.0, 0.0, 0.0],
            iterations: 3,
            converged: true,
            alpha: 0.0,
        };
        let cfg = ExtractConfig::default();
        let one_row = Stub(vec![vec![pair; 4]]);
        let Err(err) = extract_fibers_with(&tensors, &cfg, &one_row, &Telemetry::disabled()) else {
            panic!("a missing row must not pass as a voxel without fibers");
        };
        assert_eq!(err.to_string(), "backend stub lent no row for voxel 1");
    }

    #[test]
    fn non_3d_tensor_is_a_typed_error() {
        let Err(err) = extract_fibers(
            &SymTensor::<f64>::diagonal_ones(4, 4),
            &ExtractConfig::default(),
        ) else {
            panic!("a dimension-4 tensor must not extract fibers");
        };
        assert_eq!(
            err.to_string(),
            "fiber extraction needs dimension-3 tensors, file has n=4"
        );
    }

    #[test]
    fn lockstep_batched_solves_match_sequential_on_crossing_fixtures() {
        // The lockstep lane driver (kernel strategy `batched` + fixed
        // shift) must be bitwise-indistinguishable from the scalar
        // per-tensor general kernels on real fitted DW-MRI tensors — here
        // a sweep of two-fiber crossing voxels across the hard low-angle
        // range.
        use backend::{CpuParallel, KernelStrategy};
        use sshopm::SsHopm;
        use telemetry::Telemetry;

        let fitted: Vec<SymTensor<f64>> = (1..=9)
            .map(|k| fit_config(&FiberConfig::crossing_at_angle(f64::from(k) * 10.0)))
            .collect();
        let tensors = TensorBatch::from_tensors(&fitted).unwrap();
        let starts = sshopm::starts::fibonacci_sphere(16);
        let solver = SsHopm::new(Shift::Fixed(1.0)).with_policy(IterationPolicy::Converge {
            tol: 1e-12,
            max_iters: 2000,
        });
        let scalar = CpuParallel::new(1, KernelStrategy::General)
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap();
        let lockstep = CpuParallel::new(1, KernelStrategy::Batched)
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap();
        assert_eq!(lockstep.kernel, "batched");
        assert_eq!(lockstep.total_iterations, scalar.total_iterations);
        for ((t, v, got), (_, _, want)) in lockstep.iter_flat().zip(scalar.iter_flat()) {
            assert_eq!(
                got.lambda.to_bits(),
                want.lambda.to_bits(),
                "crossing tensor {t} start {v}"
            );
            assert_eq!(got.iterations, want.iterations);
            assert_eq!(got.converged, want.converged);
            for (g, w) in got.x.iter().zip(&want.x) {
                assert_eq!(g.to_bits(), w.to_bits());
            }
        }
    }

    #[test]
    fn non_3d_batch_is_a_typed_error() {
        use backend::{CpuParallel, KernelStrategy};

        let tensors = TensorBatch::from_tensors(&[SymTensor::<f64>::diagonal_ones(4, 4)]).unwrap();
        let Err(err) = extract_fibers_reported(
            &tensors,
            &ExtractConfig::default(),
            &CpuParallel::new(1, KernelStrategy::General),
            &Telemetry::disabled(),
        ) else {
            panic!("a dimension-4 batch must not extract fibers");
        };
        assert_eq!(
            err.to_string(),
            "fiber extraction needs dimension-3 tensors, file has n=4"
        );
    }

    #[test]
    fn zero_starts_is_a_typed_error() {
        use backend::{CpuParallel, KernelStrategy};

        let tensor = fit_config(&FiberConfig::single([1.0, 0.0, 0.0]));
        let tensors = TensorBatch::from_tensors(std::slice::from_ref(&tensor)).unwrap();
        let cfg = ExtractConfig {
            num_starts: 0,
            ..Default::default()
        };
        let want = "fiber extraction needs at least one start (num_starts = 0)";
        let Err(err) = extract_fibers(&tensor, &cfg) else {
            panic!("no start must not extract fibers");
        };
        assert_eq!(err.to_string(), want);
        for strategy in [KernelStrategy::General, KernelStrategy::Batched] {
            let Err(err) = extract_fibers_reported(
                &tensors,
                &cfg,
                &CpuParallel::new(1, strategy),
                &Telemetry::disabled(),
            ) else {
                panic!("no start must not extract fibers ({strategy})");
            };
            assert_eq!(err.to_string(), want, "{strategy}");
        }
    }

    #[test]
    fn batched_extraction_records_telemetry() {
        use backend::{CpuParallel, KernelStrategy};
        use telemetry::Telemetry;

        let tensors =
            TensorBatch::from_tensors(&[fit_config(&FiberConfig::single([1.0, 0.0, 0.0]))])
                .unwrap();
        let telemetry = Telemetry::enabled();
        let fibers = extract_fibers_with(
            &tensors,
            &ExtractConfig::default(),
            &CpuParallel::new(1, KernelStrategy::General),
            &telemetry,
        )
        .unwrap();
        assert_eq!(fibers.len(), 1);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("batch.tensors_done"), Some(1));
        assert_eq!(snap.counter("batch.solves"), Some(128));
    }

    #[test]
    fn qrst_covers_eigenpairs_fixed_shift_sshopm_misses() {
        // On a crossing-fiber voxel the fitted order-4 form has, besides
        // the two fiber maxima, a through-plane eigenpair along ±z (the
        // transverse diffusivity, λ ≈ 0.3). A shifted power iteration can
        // only converge to local maxima, so fixed-shift SS-HOPM never
        // reports it — but QRST validates every column of its rotating
        // basis and surfaces it from some starts.
        let truth = FiberConfig::crossing_at_angle(75.0f64.to_radians());
        let tensor = fit_config(&truth);
        let starts = sshopm::starts::fibonacci_sphere::<f64>(32);
        let policy = IterationPolicy::Converge {
            tol: 1e-10,
            max_iters: 1000,
        };
        let spectrum = |spec: &str| {
            let solver = SolverSpec::parse(spec)
                .unwrap()
                .build::<f64>(Shift::Fixed(0.0), policy);
            multistart(&*solver, &tensor, &starts, &DedupConfig::default(), 1e-5)
        };

        let fixed = spectrum("sshopm");
        let qrst = spectrum("qrst");

        // Both find the two crossing maxima (λ ≈ 1.0036).
        for s in [&fixed, &qrst] {
            let maxima = s
                .entries
                .iter()
                .filter(|e| e.stability == Stability::NegativeStable && e.pair.lambda > 1.0)
                .count();
            assert_eq!(maxima, 2, "expected both fiber maxima");
        }

        // The through-plane eigenpair is invisible to the fixed-shift
        // power iteration...
        let through_plane = |s: &Spectrum<f64>| {
            s.entries
                .iter()
                .filter(|e| e.pair.lambda < 0.5 && e.pair.x[2].abs() > 0.99)
                .count()
        };
        assert_eq!(through_plane(&fixed), 0, "power iteration found a minimum?");
        // ...but QRST recovers it.
        assert!(
            through_plane(&qrst) >= 1,
            "qrst should surface the through-plane eigenpair: {:#?}",
            qrst.entries
                .iter()
                .map(|e| (e.pair.lambda, e.pair.x.clone()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn geap_matches_convex_sshopm_maxima_with_fewer_iterations() {
        // GEAP's per-iterate projected-Hessian shift reaches the same
        // local maxima as convexly-shifted SS-HOPM but without the
        // worst-case-sized constant shift slowing every step.
        let truth = FiberConfig::crossing_at_angle(75.0f64.to_radians());
        let tensor = fit_config(&truth);
        let starts = sshopm::starts::fibonacci_sphere::<f64>(32);
        let policy = IterationPolicy::Converge {
            tol: 1e-10,
            max_iters: 1000,
        };
        let run = |spec: &str| {
            let solver = SolverSpec::parse(spec)
                .unwrap()
                .build::<f64>(Shift::Convex, policy);
            let s = multistart(&*solver, &tensor, &starts, &DedupConfig::default(), 1e-5);
            let iters: usize = s
                .entries
                .iter()
                .map(|e| e.pair.iterations * e.basin_count)
                .sum();
            (s, iters)
        };
        let (convex, convex_iters) = run("sshopm");
        let (geap, geap_iters) = run("geap");

        let maxima = |s: &Spectrum<f64>| {
            let mut lambdas: Vec<f64> = s
                .entries
                .iter()
                .filter(|e| e.stability == Stability::NegativeStable)
                .map(|e| e.pair.lambda)
                .collect();
            lambdas.sort_by(f64::total_cmp);
            lambdas
        };
        let (want, got) = (maxima(&convex), maxima(&geap));
        assert_eq!(want.len(), got.len(), "{want:?} vs {got:?}");
        for (w, g) in want.iter().zip(&got) {
            assert!((w - g).abs() < 1e-8, "{w} vs {g}");
        }
        assert!(
            geap_iters * 2 < convex_iters,
            "geap took {geap_iters} iterations vs convex sshopm's {convex_iters}"
        );
    }

    #[test]
    fn max_fibers_cap_is_respected() {
        let truth = FiberConfig::crossing([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]);
        let tensor = fit_config(&truth);
        let cfg = ExtractConfig {
            max_fibers: 1,
            ..Default::default()
        };
        let fibers = extract_fibers(&tensor, &cfg).unwrap();
        assert_eq!(fibers.len(), 1);
    }
}
