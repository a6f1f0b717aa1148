//! Batched solves: the paper's workload shape — many independent small
//! tensors (DW-MRI voxels), each solved from many starting vectors.
//!
//! The CPU parallelization mirrors the paper's OpenMP `omp for` over the
//! tensor loop: rayon's `par_iter` over tensors, each worker running all
//! starting vectors for its tensor sequentially. Every tensor shares the
//! same set of starting vectors (Section V-C: "every thread block can use
//! the same set of starting vectors").

use crate::solver::{Eigenpair, NoopObserver, SsHopm};
use crate::traits::Solver;
use rayon::prelude::*;
use std::time::Instant;
use symtensor::kernels::{GeneralKernels, TensorKernels};
use symtensor::{Scalar, SymTensorRef, TensorBatchRef};
use telemetry::Telemetry;

/// Results of a batched solve: `results[t][v]` is the eigenpair computed
/// for tensor `t` from starting vector `v`.
#[derive(Debug, Clone)]
pub struct BatchResult<S> {
    /// Per-tensor, per-start eigenpairs.
    pub results: Vec<Vec<Eigenpair<S>>>,
    /// Total SS-HOPM iterations across all solves (for flop accounting).
    pub total_iterations: u64,
}

impl<S: Scalar> BatchResult<S> {
    /// Flatten to `(tensor index, start index, eigenpair)` triples.
    pub fn iter_flat(&self) -> impl Iterator<Item = (usize, usize, &Eigenpair<S>)> {
        self.results
            .iter()
            .enumerate()
            .flat_map(|(t, row)| row.iter().enumerate().map(move |(v, p)| (t, v, p)))
    }

    /// Number of tensors solved.
    pub fn num_tensors(&self) -> usize {
        self.results.len()
    }
}

/// Batched eigensolver driver over a set of same-shaped tensors, generic
/// in the per-tensor iteration `V` (any [`Solver`] — [`SsHopm`] by
/// default, [`crate::Geap`], [`crate::Qrst`], or a boxed/borrowed trait
/// object for runtime selection).
#[derive(Debug, Clone, Copy)]
pub struct BatchSolver<V = SsHopm> {
    solver: V,
    /// Number of worker threads: `1` for the sequential baseline, `k` for
    /// the paper's 4-core / 8-core configurations, `0` for "all cores".
    pub threads: usize,
}

impl<V> BatchSolver<V> {
    /// Create a batch driver around a configured per-tensor solver.
    pub fn new(solver: V) -> Self {
        Self { solver, threads: 0 }
    }

    /// Restrict the solve to `threads` worker threads (0 = rayon default,
    /// 1 = strictly sequential on the calling thread).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The per-tensor solver this driver runs.
    pub fn solver(&self) -> &V {
        &self.solver
    }

    /// The single batched-solve path every substrate-independent caller
    /// goes through: solve every tensor from every starting vector,
    /// honoring [`with_threads`](Self::with_threads) —
    ///
    /// * `threads == 1` — strictly sequential on the calling thread (no
    ///   rayon involvement at all; the paper's "CPU – 1 core" row);
    /// * `threads == 0` — parallel over tensors on the current/global
    ///   rayon pool;
    /// * `threads == k` — parallel on a dedicated pool of exactly `k`
    ///   workers (the paper's 4-core / 8-core rows).
    ///
    /// Every path records the same telemetry names — a `batch.solve` span,
    /// a `batch.tensor_seconds` histogram and the `batch.tensors_done` /
    /// `batch.solves` / `batch.converged` / `batch.iterations` counters —
    /// so traces from different substrates are directly comparable.
    pub fn run<'a, S: Scalar, K: TensorKernels<S> + ?Sized>(
        &self,
        kernels: &K,
        batch: impl Into<TensorBatchRef<'a, S>>,
        starts: &[Vec<S>],
        telemetry: &Telemetry,
    ) -> BatchResult<S>
    where
        V: Solver<S>,
    {
        let batch = batch.into();
        let _batch_span = telemetry.span("batch.solve");
        if self.threads == 1 {
            let mut results = Vec::with_capacity(batch.len());
            let mut total_iterations = 0u64;
            // One iteration buffer for the whole batch: the sequential
            // path performs no per-voxel allocation beyond the results.
            let mut scratch = Vec::new();
            for a in batch.iter() {
                let (row, iters) =
                    solve_one_tensor(&self.solver, kernels, a, starts, telemetry, &mut scratch);
                total_iterations += iters;
                results.push(row);
            }
            return BatchResult {
                results,
                total_iterations,
            };
        }

        let solve_all = || {
            let rows: Vec<(Vec<Eigenpair<S>>, u64)> = (0..batch.len())
                .into_par_iter()
                .map(|i| {
                    solve_one_tensor(
                        &self.solver,
                        kernels,
                        batch.get(i),
                        starts,
                        telemetry,
                        &mut Vec::new(),
                    )
                })
                .collect();
            let mut results = Vec::with_capacity(rows.len());
            let mut total_iterations = 0u64;
            for (row, iters) in rows {
                results.push(row);
                total_iterations += iters;
            }
            BatchResult {
                results,
                total_iterations,
            }
        };

        on_workers(self.threads, solve_all)
    }

    /// Convenience: solve with the default on-the-fly kernels, parallel.
    pub fn solve<'a, S: Scalar>(
        &self,
        batch: impl Into<TensorBatchRef<'a, S>>,
        starts: &[Vec<S>],
    ) -> BatchResult<S>
    where
        V: Solver<S>,
    {
        self.run(&GeneralKernels, batch, starts, &Telemetry::disabled())
    }
}

/// Run `op` on `threads` workers: the one place a thread count becomes a
/// pool. `0` is the ambient pool and `k` a dedicated pool of `k` workers;
/// a pool that fails to build (only on resource exhaustion) degrades to
/// the ambient pool rather than aborting. Callers keep their own
/// `threads == 1` path, which stays on the calling thread.
pub(crate) fn on_workers<R: Send>(threads: usize, op: impl FnOnce() -> R + Send) -> R {
    if threads == 0 {
        return op();
    }
    match rayon::ThreadPoolBuilder::new().num_threads(threads).build() {
        Ok(pool) => pool.install(op),
        Err(_) => op(),
    }
}

/// Solve every start for one tensor, recording per-tensor telemetry.
///
/// The timing sits at tensor granularity — the disabled path costs one
/// `is_enabled` branch per tensor, nothing per iteration or per start.
fn solve_one_tensor<S: Scalar, V: Solver<S> + ?Sized, K: TensorKernels<S> + ?Sized>(
    solver: &V,
    kernels: &K,
    a: SymTensorRef<'_, S>,
    starts: &[Vec<S>],
    telemetry: &Telemetry,
    scratch: &mut Vec<S>,
) -> (Vec<Eigenpair<S>>, u64) {
    let started = telemetry.is_enabled().then(Instant::now);
    let mut row = Vec::with_capacity(starts.len());
    let mut iters = 0u64;
    let mut converged = 0u64;
    for x0 in starts {
        let pair = solver.solve_one(&kernels, a, x0, &mut NoopObserver, scratch);
        iters += pair.iterations as u64;
        converged += u64::from(pair.converged);
        row.push(pair);
    }
    if let Some(started) = started {
        telemetry.observe("batch.tensor_seconds", started.elapsed().as_secs_f64());
        telemetry.counter("batch.tensors_done", 1);
        telemetry.counter("batch.solves", starts.len() as u64);
        telemetry.counter("batch.converged", converged);
        telemetry.counter("batch.iterations", iters);
    }
    (row, iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shift::Shift;
    use crate::solver::IterationPolicy;
    use crate::starts::random_uniform_starts;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor::{PrecomputedTables, TensorBatch};

    fn workload(t: usize, v: usize, seed: u64) -> (TensorBatch<f64>, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tensors = TensorBatch::random(4, 3, t, &mut rng).unwrap();
        let starts = random_uniform_starts(3, v, &mut rng);
        (tensors, starts)
    }

    /// `run` on `threads` workers with telemetry off.
    fn run_on<V: Solver<f64>, K: TensorKernels<f64> + ?Sized>(
        solver: BatchSolver<V>,
        threads: usize,
        kernels: &K,
        tensors: &TensorBatch<f64>,
        starts: &[Vec<f64>],
    ) -> BatchResult<f64> {
        solver
            .with_threads(threads)
            .run(kernels, tensors, starts, &Telemetry::disabled())
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let (tensors, starts) = workload(8, 6, 1);
        let solver = BatchSolver::new(
            SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(25)),
        );
        let seq = run_on(solver, 1, &GeneralKernels, &tensors, &starts);
        let par = run_on(solver, 0, &GeneralKernels, &tensors, &starts);
        assert_eq!(seq.total_iterations, par.total_iterations);
        for (t, v, p) in seq.iter_flat() {
            let q = &par.results[t][v];
            assert_eq!(p.lambda, q.lambda, "tensor {t} start {v}");
            assert_eq!(p.x, q.x);
        }
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let (tensors, starts) = workload(6, 4, 2);
        let base = BatchSolver::new(SsHopm::new(Shift::Convex).with_tolerance(1e-12));
        let r1 = run_on(base, 1, &GeneralKernels, &tensors, &starts);
        let r4 = run_on(base, 4, &GeneralKernels, &tensors, &starts);
        for (t, v, p) in r1.iter_flat() {
            let q = &r4.results[t][v];
            assert_eq!(p.lambda, q.lambda);
        }
    }

    #[test]
    fn fixed_iteration_budget_is_deterministic() {
        let (tensors, starts) = workload(4, 8, 3);
        let solver = BatchSolver::new(
            SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(30)),
        );
        let res = solver.solve(&tensors, &starts);
        assert_eq!(res.total_iterations, 4 * 8 * 30);
        assert_eq!(res.num_tensors(), 4);
        for (_, _, p) in res.iter_flat() {
            assert_eq!(p.iterations, 30);
        }
    }

    #[test]
    fn precomputed_kernels_agree_with_general_in_batch() {
        let (tensors, starts) = workload(5, 5, 4);
        let tables = PrecomputedTables::new(4, 3);
        let solver = BatchSolver::new(SsHopm::new(Shift::Convex).with_tolerance(1e-13));
        let g = run_on(solver, 0, &GeneralKernels, &tensors, &starts);
        let p = run_on(solver, 0, &tables, &tensors, &starts);
        for (t, v, pair) in g.iter_flat() {
            let q = &p.results[t][v];
            assert!((pair.lambda - q.lambda).abs() < 1e-10);
        }
    }

    #[test]
    fn all_converged_pairs_have_small_residuals() {
        let (tensors, starts) = workload(6, 10, 5);
        let solver = BatchSolver::new(SsHopm::new(Shift::Convex).with_tolerance(1e-13));
        let res = solver.solve(&tensors, &starts);
        for (t, _, p) in res.iter_flat() {
            if p.converged {
                assert!(p.residual(tensors.get(t)) < 1e-5);
            }
        }
    }

    #[test]
    fn instrumented_batch_records_progress_metrics() {
        let (tensors, starts) = workload(5, 3, 6);
        let solver = BatchSolver::new(
            SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(10)),
        );
        let tel = Telemetry::enabled();
        let res = solver.run(&GeneralKernels, &tensors, &starts, &tel);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("batch.tensors_done"), Some(5));
        assert_eq!(snap.counter("batch.solves"), Some(15));
        assert_eq!(snap.counter("batch.iterations"), Some(res.total_iterations));
        let hist = snap.histogram("batch.tensor_seconds").unwrap();
        assert_eq!(hist.count, 5);
        let span = snap.span("batch.solve").unwrap();
        assert_eq!(span.count, 1);

        // The uninstrumented run agrees bit-for-bit.
        let plain = run_on(solver, 0, &GeneralKernels, &tensors, &starts);
        for (t, v, p) in res.iter_flat() {
            assert_eq!(p.lambda, plain.results[t][v].lambda);
        }
    }

    #[test]
    fn sequential_and_parallel_record_the_same_telemetry_names() {
        // Satellite: traces from different thread configurations must be
        // comparable — identical span/counter/histogram names either way.
        let (tensors, starts) = workload(3, 2, 9);
        let solver =
            BatchSolver::new(SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(5)));
        let tel_seq = Telemetry::enabled();
        let tel_par = Telemetry::enabled();
        solver
            .with_threads(1)
            .run(&GeneralKernels, &tensors, &starts, &tel_seq);
        solver
            .with_threads(2)
            .run(&GeneralKernels, &tensors, &starts, &tel_par);
        let (seq, par) = (tel_seq.snapshot(), tel_par.snapshot());
        for name in [
            "batch.tensors_done",
            "batch.solves",
            "batch.converged",
            "batch.iterations",
        ] {
            assert_eq!(seq.counter(name), par.counter(name), "{name}");
        }
        assert_eq!(
            seq.histogram("batch.tensor_seconds").map(|h| h.count),
            par.histogram("batch.tensor_seconds").map(|h| h.count)
        );
        assert_eq!(
            seq.span("batch.solve").map(|s| s.count),
            par.span("batch.solve").map(|s| s.count)
        );
    }

    #[test]
    fn convenience_entry_points_agree_with_run() {
        // The one convenience wrapper, `solve`, must stay bit-identical to
        // `run` with the general kernels, sequential or parallel.
        let (tensors, starts) = workload(3, 4, 7);
        let solver =
            BatchSolver::new(SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(8)));
        let base = solver.solve(&tensors, &starts);
        let seq = run_on(solver, 1, &GeneralKernels, &tensors, &starts);
        let par = run_on(solver, 2, &GeneralKernels, &tensors, &starts);
        for (t, v, p) in base.iter_flat() {
            assert_eq!(p.lambda, seq.results[t][v].lambda);
            assert_eq!(p.lambda, par.results[t][v].lambda);
        }
    }

    #[test]
    fn empty_batch() {
        let solver = BatchSolver::new(SsHopm::new(Shift::Convex));
        let empty = TensorBatch::<f64>::new(4, 3).unwrap();
        let res = solver.solve(&empty, &[]);
        assert_eq!(res.num_tensors(), 0);
        assert_eq!(res.total_iterations, 0);
    }
}
