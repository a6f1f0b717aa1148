//! The correctness gate: every returned eigenpair re-checked on its own in
//! f64 against the eigenpair definition, fibers scored against the
//! phantom's ground truth, and the lockstep iteration count and eigenvalues
//! checked against the reference kernels.

use crate::workload::{Kind, Workload, FIXED_ITERS};
use dwmri::{score_voxel, FiberEstimate, Phantom};
use sshopm::{Eigenpair, SsHopm};
use symtensor::kernels::{axm, GeneralKernels};
use symtensor::{Scalar, TensorBatch};

/// A converged pair's residual `‖A·xᵐ⁻¹ − λx‖` may be at most this
/// multiple of `‖A‖_F`. A tolerance of 1e-10 on successive λ leaves
/// residuals near `sqrt(1e-10)·‖A‖` on the slowest solves.
const CONVERGED_RESIDUAL: f64 = 1e-3;
/// After a fixed 20 iterations a pair is only an approximate eigenpair;
/// it fails when its residual is not at least an order of magnitude below
/// the tensor's scale.
const FIXED_RESIDUAL: f64 = 1e-1;
/// Unit-norm tolerance of returned eigenvectors, by scalar precision.
const UNIT_TOL_F64: f64 = 1e-10;
const UNIT_TOL_F32: f64 = 1e-5;
/// Angular threshold under which an estimate matches a true fiber.
pub const MATCH_DEG: f64 = 10.0;
/// The gate's quality floor: a broken solver lands far outside these.
const MAX_FIBER_ERR_DEG: f64 = 5.0;
/// Share of voxels the fibers workloads must resolve. The lockstep
/// workload's 20 unconverged iterations leave duplicate maxima that count
/// as spurious fibers, so only its angular error is gated.
const MIN_FIBER_HIT_FRAC: f64 = 0.95;
/// The share of solves that may fail before the gate fails the run.
const MAX_FAILED_FRAC: f64 = 0.05;
/// Tensors whose lockstep eigenvalues are re-solved with the reference
/// kernels.
const REFERENCE_SAMPLE: usize = 16;

/// Outcome of re-checking every eigenpair of a batch.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PairCheck {
    pub solves: u64,
    pub nonfinite: u64,
    pub not_unit: u64,
    pub not_converged: u64,
    pub residual_fail: u64,
    pub converged: u64,
    pub failed: u64,
    pub max_rel_residual: f64,
}

impl PairCheck {
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.solves.max(1) as f64
    }
}

/// Re-check every pair in f64: finite, unit norm, converged, and residual
/// within the policy's scaled tolerance.
pub fn check_pairs<S: Scalar>(
    w: &Workload,
    batch: &TensorBatch<S>,
    results: &[Vec<Eigenpair<S>>],
) -> PairCheck {
    let tensors = batch.to_f64();
    let single = std::mem::size_of::<S>() == 4;
    let unit_tol = if single { UNIT_TOL_F32 } else { UNIT_TOL_F64 };
    let rel_tol = if w.kind == Kind::Table3Lockstep {
        FIXED_RESIDUAL
    } else {
        CONVERGED_RESIDUAL
    };
    let mut c = PairCheck::default();
    for (a, row) in tensors.iter().zip(results) {
        let scale = a.frobenius_norm().max(f64::MIN_POSITIVE);
        for p in row {
            c.solves += 1;
            let pair = Eigenpair {
                lambda: p.lambda.to_f64(),
                x: p.x.iter().map(|v| v.to_f64()).collect(),
                iterations: p.iterations,
                converged: p.converged,
                alpha: p.alpha,
            };
            let mut bad = false;
            if !pair.is_finite() {
                c.nonfinite += 1;
                c.failed += 1;
                continue;
            }
            let norm = pair.x.iter().map(|v| v * v).sum::<f64>().sqrt();
            if (norm - 1.0).abs() > unit_tol {
                c.not_unit += 1;
                bad = true;
            }
            if pair.converged {
                c.converged += 1;
            } else {
                c.not_converged += 1;
                bad = true;
            }
            let rel = pair.residual(a) / scale;
            c.max_rel_residual = c.max_rel_residual.max(rel);
            if rel > rel_tol {
                c.residual_fail += 1;
                bad = true;
            }
            c.failed += u64::from(bad);
        }
    }
    c
}

/// Fiber quality against the phantom's ground truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiberScore {
    /// Mean matched angular error, degrees.
    pub err_deg: f64,
    /// Share of voxels with every true fiber matched and none spurious.
    pub hit_frac: f64,
}

pub fn score_fibers(phantom: &Phantom, fibers: &[Vec<FiberEstimate>]) -> FiberScore {
    let scores: Vec<_> = phantom
        .voxels
        .iter()
        .zip(fibers)
        .map(|(v, f)| score_voxel(&v.truth, f, MATCH_DEG))
        .collect();
    let agg = dwmri::metrics::DatasetScore::aggregate(&scores);
    FiberScore {
        err_deg: agg.mean_error_deg,
        hit_frac: agg.accuracy(),
    }
}

/// The CLI printed the same fibers the library pipeline extracted, to its
/// four printed decimals.
pub fn cli_matches_library(cli: &[Vec<[f64; 3]>], library: &[Vec<FiberEstimate>]) -> bool {
    cli.len() == library.len()
        && cli.iter().zip(library).all(|(c, l)| {
            c.len() == l.len()
                && c.iter().zip(l).all(|(d, f)| {
                    d.iter()
                        .zip(&f.direction)
                        .all(|(p, q)| (p - q).abs() <= 5.001e-5)
                })
        })
}

/// Every gate condition that failed, as messages (empty when all hold).
pub fn gate(w: &Workload, pairs: &PairCheck, score: FiberScore) -> Vec<String> {
    let mut errors = Vec::new();
    if pairs.solves != w.solves() as u64 {
        errors.push(format!(
            "{} pairs returned, expected {}",
            pairs.solves,
            w.solves()
        ));
    }
    if pairs.nonfinite > 0 {
        errors.push(format!("{} non-finite eigenpairs", pairs.nonfinite));
    }
    if pairs.not_unit > 0 {
        errors.push(format!(
            "{} eigenvectors are not unit length",
            pairs.not_unit
        ));
    }
    if pairs.failed_frac() > MAX_FAILED_FRAC {
        errors.push(format!(
            "{:.4} of solves failed (cap {MAX_FAILED_FRAC}): {pairs:?}",
            pairs.failed_frac()
        ));
    }
    let accurate = score.err_deg <= MAX_FIBER_ERR_DEG;
    if !accurate {
        errors.push(format!("mean fiber error {:.3} deg", score.err_deg));
    }
    let resolved = score.hit_frac >= MIN_FIBER_HIT_FRAC;
    if w.kind != Kind::Table3Lockstep && !resolved {
        errors.push(format!("only {:.3} of voxels resolved", score.hit_frac));
    }
    errors
}

/// The table3-lockstep checks: exactly `tensors × starts × 20` iterations,
/// and eigenvalues equal to a reference re-solve with [`GeneralKernels`] on
/// a sample of tensors.
pub fn check_lockstep(
    batch: &TensorBatch<f32>,
    starts: &[Vec<f32>],
    results: &[Vec<Eigenpair<f32>>],
    total_iterations: u64,
    solver: &SsHopm,
) -> Vec<String> {
    let mut errors = Vec::new();
    let expected = (batch.len() * starts.len() * FIXED_ITERS) as u64;
    if total_iterations != expected {
        errors.push(format!(
            "lockstep ran {total_iterations} iterations, expected {expected}"
        ));
    }
    let step = (batch.len() / REFERENCE_SAMPLE).max(1);
    for t in (0..batch.len()).step_by(step) {
        let a = batch.get(t);
        for (v, x0) in starts.iter().enumerate() {
            let reference = solver.solve_with(&GeneralKernels, a, x0);
            let got = results[t][v].lambda;
            let tol = 1e-4 * got.abs().max(1.0);
            if (reference.lambda - got).abs() > tol || results[t][v].iterations != FIXED_ITERS {
                errors.push(format!(
                    "tensor {t} start {v}: lockstep lambda {got} vs reference {}",
                    reference.lambda
                ));
                return errors;
            }
            // λ is the Rayleigh quotient of the returned vector.
            if let Ok(q) = axm(a, &results[t][v].x) {
                if (q - got).abs() > tol {
                    errors.push(format!("tensor {t} start {v}: lambda {got} vs A x^m {q}"));
                    return errors;
                }
            }
        }
    }
    errors
}
