//! Per-layer measurements made beside the timed pipeline, on the
//! workload's own tensors and eigenpairs: kernel timings, exact kernel-call
//! counts, lane utilisation of the lockstep driver, and the dedup pass.

use crate::trace::Tracer;
use backend::{BackendError, BatchReport, SolveBackend};
use dwmri::{ExtractConfig, FiberEstimate};
use sshopm::{spectrum_from_pairs, BatchSolver, DedupConfig, Eigenpair, Solver};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use symtensor::kernels::TensorKernels;
use symtensor::{BatchedKernels, LanePanel, Scalar, SymTensorRef, TensorBatch, LANE_WIDTH};
use telemetry::Telemetry;

/// Tensors (or lane panels) sampled by the kernel timings.
const SAMPLE: usize = 64;
/// Iterates per sampled tensor: its first returned eigenvectors.
const ITERATES: usize = 8;

/// Per tensor-evaluation kernel times, nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct KernelTimes {
    pub axm_ns: f64,
    pub axm1_ns: f64,
}

/// Median over seven batches of the time per call of `batch`, which makes
/// some number of calls and returns it. Each batch runs for at least 10 ms.
fn ns_per_call(mut batch: impl FnMut() -> u64) -> f64 {
    let mut per_call = Vec::new();
    for _ in 0..7 {
        let started = Instant::now();
        let mut calls = 0u64;
        while started.elapsed().as_secs_f64() < 0.01 {
            calls += batch();
        }
        per_call.push(started.elapsed().as_secs_f64() * 1e9 / calls as f64);
    }
    crate::metrics::median(&mut per_call)
}

fn sample_indices(len: usize) -> impl Iterator<Item = usize> {
    let step = (len / SAMPLE).max(1);
    (0..len).step_by(step).take(SAMPLE)
}

/// Scalar kernels (`TensorKernels`, the tape path): each sampled tensor
/// evaluated at its own returned eigenvectors.
pub fn time_scalar_kernels<S: Scalar>(
    kernels: &dyn TensorKernels<S>,
    batch: &TensorBatch<S>,
    results: &[Vec<Eigenpair<S>>],
) -> KernelTimes {
    let work: Vec<(SymTensorRef<'_, S>, Vec<&[S]>)> = sample_indices(batch.len())
        .map(|t| {
            let xs = results[t].iter().take(ITERATES).map(|p| p.x.as_slice());
            (batch.get(t), xs.collect())
        })
        .collect();
    let mut y = vec![S::ZERO; batch.dim()];
    let axm_ns = ns_per_call(|| {
        let mut calls = 0;
        for (a, xs) in &work {
            for x in xs {
                black_box(kernels.axm(*a, black_box(x)).ok());
                calls += 1;
            }
        }
        calls
    });
    let axm1_ns = ns_per_call(|| {
        let mut calls = 0;
        for (a, xs) in &work {
            for x in xs {
                black_box(kernels.axm1(*a, black_box(x), &mut y).ok());
                calls += 1;
            }
        }
        calls
    });
    KernelTimes { axm_ns, axm1_ns }
}

/// Lane kernels (`LanePanel`, the lockstep path): each sampled full panel
/// evaluated at its lanes' returned eigenvectors; times are per lane, that
/// is per tensor evaluation.
pub fn time_lane_kernels<S: Scalar>(
    kernels: &BatchedKernels,
    batch: &TensorBatch<S>,
    results: &[Vec<Eigenpair<S>>],
) -> Result<KernelTimes, String> {
    let n = batch.dim();
    let full_panels = batch.len() / LANE_WIDTH;
    let mut work = Vec::new();
    for p in sample_indices(full_panels) {
        let panel = LanePanel::gather(kernels, batch.view(), p * LANE_WIDTH, LANE_WIDTH)
            .map_err(|e| e.to_string())?;
        let starts = results[p * LANE_WIDTH].len().min(ITERATES);
        let iterates: Vec<Vec<S>> = (0..starts)
            .map(|v| {
                let mut xs = vec![S::ZERO; n * LANE_WIDTH];
                for w in 0..LANE_WIDTH {
                    for (i, &xi) in results[p * LANE_WIDTH + w][v].x.iter().enumerate() {
                        xs[i * LANE_WIDTH + w] = xi;
                    }
                }
                xs
            })
            .collect();
        work.push((panel, iterates));
    }
    let mut out = vec![S::ZERO; LANE_WIDTH];
    let mut ys = vec![S::ZERO; n * LANE_WIDTH];
    let axm_ns = ns_per_call(|| {
        let mut evals = 0;
        for (panel, iterates) in &work {
            for xs in iterates {
                black_box(panel.axm(kernels, black_box(xs), &mut out).ok());
                evals += LANE_WIDTH as u64;
            }
        }
        evals
    });
    let axm1_ns = ns_per_call(|| {
        let mut evals = 0;
        for (panel, iterates) in &work {
            for xs in iterates {
                black_box(panel.axm1(kernels, black_box(xs), &mut ys).ok());
                evals += LANE_WIDTH as u64;
            }
        }
        evals
    });
    Ok(KernelTimes { axm_ns, axm1_ns })
}

/// A `TensorKernels` wrapper counting every call exactly.
pub struct CountingKernels<'a, S: Scalar> {
    inner: &'a dyn TensorKernels<S>,
    axm: AtomicU64,
    axm1: AtomicU64,
}

impl<'a, S: Scalar> CountingKernels<'a, S> {
    pub fn new(inner: &'a dyn TensorKernels<S>) -> Self {
        CountingKernels {
            inner,
            axm: AtomicU64::new(0),
            axm1: AtomicU64::new(0),
        }
    }

    /// `(axm calls, axm1 calls)` so far.
    pub fn counts(&self) -> (u64, u64) {
        (
            self.axm.load(Ordering::Relaxed),
            self.axm1.load(Ordering::Relaxed),
        )
    }
}

impl<S: Scalar> TensorKernels<S> for CountingKernels<'_, S> {
    fn axm(&self, a: SymTensorRef<'_, S>, x: &[S]) -> symtensor::Result<S> {
        self.axm.fetch_add(1, Ordering::Relaxed);
        self.inner.axm(a, x)
    }

    fn axm1(&self, a: SymTensorRef<'_, S>, x: &[S], y: &mut [S]) -> symtensor::Result<()> {
        self.axm1.fetch_add(1, Ordering::Relaxed);
        self.inner.axm1(a, x, y)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// Re-run the scalar batch driver over the whole batch with counting
/// kernels; returns the exact `(axm, axm1)` call counts. The re-run must
/// reproduce the timed run's eigenvalues bit for bit, which shows the
/// counts describe the same computation.
pub fn count_scalar_calls<S: Scalar>(
    kernels: &dyn TensorKernels<S>,
    batch: &TensorBatch<S>,
    starts: &[Vec<S>],
    solver: &dyn Solver<S>,
    reference: &[Vec<Eigenpair<S>>],
) -> Result<(u64, u64), String> {
    let counting = CountingKernels::new(kernels);
    let rerun = BatchSolver::new(solver).with_threads(1).run(
        &counting,
        batch,
        starts,
        &Telemetry::disabled(),
    );
    let same = rerun.results.len() == reference.len()
        && rerun.results.iter().zip(reference).all(|(r, q)| {
            r.len() == q.len()
                && r.iter()
                    .zip(q)
                    .all(|(a, b)| a.lambda.to_f64().to_bits() == b.lambda.to_f64().to_bits())
        });
    if !same {
        return Err("counting-kernel re-run diverged from the timed run".to_string());
    }
    Ok(counting.counts())
}

/// The lockstep driver's lane accounting, from the per-pair iteration
/// counts: each panel of `LANE_WIDTH` tensors iterates one start until its
/// slowest lane retires, and computes every lane slot on each iteration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneCounts {
    /// Lane-iterations computed (panel iterations × `LANE_WIDTH`).
    pub slots: u64,
    /// Lane-iterations that advanced an unretired solve.
    pub useful: u64,
    /// Per-lane `axm` evaluations (one per slot, plus λ₀ per panel start).
    pub axm_evals: u64,
    /// Per-lane `axm1` evaluations (one per slot).
    pub axm1_evals: u64,
}

pub fn lane_counts<S>(results: &[Vec<Eigenpair<S>>]) -> LaneCounts {
    let mut c = LaneCounts::default();
    let lanes = LANE_WIDTH as u64;
    for panel in results.chunks(LANE_WIDTH) {
        for v in 0..panel[0].len() {
            let iters = panel.iter().map(|row| row[v].iterations as u64);
            let longest = iters.clone().max().unwrap_or(0);
            c.useful += iters.sum::<u64>();
            c.slots += lanes * longest;
            c.axm1_evals += lanes * longest;
            c.axm_evals += lanes * (longest + 1);
        }
    }
    c
}

/// Time `spectrum_from_pairs` over every tensor's pairs, as fiber
/// extraction calls it (each voxel's pairs cloned into the pass).
pub fn time_dedup<S: Scalar>(
    batch: &TensorBatch<S>,
    results: &[Vec<Eigenpair<S>>],
    tracer: &Tracer,
) -> f64 {
    let started = Instant::now();
    let span = tracer.begin("sshopm.spectrum_from_pairs");
    for (a, pairs) in batch.iter().zip(results) {
        black_box(spectrum_from_pairs(
            a,
            pairs.iter().cloned(),
            &DedupConfig::default(),
            1e-5,
        ));
    }
    tracer.end(span);
    started.elapsed().as_secs_f64()
}

/// Hands fiber extraction pairs that were already computed, so the
/// lockstep workload's f32 eigenpairs can be scored with the production
/// dedup, classify and selection code.
struct Replay(Mutex<Option<BatchReport<f64>>>);

impl SolveBackend<f64> for Replay {
    fn label(&self) -> String {
        "replay".to_string()
    }

    fn solve_batch(
        &self,
        _batch: &TensorBatch<f64>,
        _starts: &[Vec<f64>],
        _solver: &dyn Solver<f64>,
        _telemetry: &Telemetry,
    ) -> Result<BatchReport<f64>, BackendError> {
        self.0
            .lock()
            .map_err(|_| BackendError("replay lock poisoned".to_string()))?
            .take()
            .ok_or_else(|| BackendError("replay holds one batch".to_string()))
    }
}

/// Extract fibers from a finished f32 batch (widened to f64), with a span
/// around the extraction.
pub fn extract_from_pairs(
    tensors: &TensorBatch<f64>,
    report: &BatchReport<f32>,
    cfg: &ExtractConfig,
    tracer: &Tracer,
) -> Result<Vec<Vec<FiberEstimate>>, String> {
    let widen = |p: &Eigenpair<f32>| Eigenpair {
        lambda: f64::from(p.lambda),
        x: p.x.iter().map(|&v| f64::from(v)).collect(),
        iterations: p.iterations,
        converged: p.converged,
        alpha: p.alpha,
    };
    let replay = Replay(Mutex::new(Some(BatchReport {
        backend: report.backend.clone(),
        kernel: report.kernel.clone(),
        solver: report.solver.clone(),
        results: report
            .results
            .iter()
            .map(|row| row.iter().map(widen).collect())
            .collect(),
        total_iterations: report.total_iterations,
        seconds: report.seconds,
        useful_flops: report.useful_flops,
        profiles: Vec::new(),
        hosts: Vec::new(),
        comm: Default::default(),
        fault_log: Default::default(),
        kernel_cache: None,
        timeline: None,
    })));
    let span = tracer.begin("dwmri.extract_fibers_reported");
    let fibers = dwmri::extract_fibers_reported(tensors, cfg, &replay, &Telemetry::disabled())
        .map_err(|e| e.to_string())?
        .0;
    tracer.end(span);
    Ok(fibers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(iterations: usize) -> Eigenpair<f64> {
        Eigenpair {
            lambda: 1.0,
            x: vec![1.0, 0.0, 0.0],
            iterations,
            converged: true,
            alpha: 0.0,
        }
    }

    #[test]
    fn lane_counts_charge_every_slot_until_the_slowest_lane() {
        let _g = crate::tests::serial();
        // One full panel (8 tensors, one start): lanes take 1..=8
        // iterations, so the panel runs 8 iterations on 8 slots.
        let full: Vec<Vec<_>> = (1..=8).map(|k| vec![pair(k)]).collect();
        let c = lane_counts(&full);
        assert_eq!(c.slots, 64);
        assert_eq!(c.useful, 36);
        assert_eq!(c.axm1_evals, 64);
        assert_eq!(c.axm_evals, 72);
        // A tail panel of two tensors still computes eight lanes.
        let tail = vec![vec![pair(5)], vec![pair(5)]];
        assert_eq!(lane_counts(&tail).slots, 40);
        assert_eq!(lane_counts(&tail).useful, 10);
    }
}
