//! Lockstep batched SS-HOPM: iterate a *panel* of tensors simultaneously
//! through the vectorized [`LanePanel`] kernels.
//!
//! The scalar batch driver ([`crate::BatchSolver`]) evaluates the kernels
//! once per tensor per iteration. With a fixed shift, every tensor in a
//! panel executes the *same* instruction sequence — only the data differs
//! — so the driver here evaluates each kernel once per panel per
//! iteration for all `LANE_WIDTH` lanes (the compiled straight-line panels
//! on [`COMPILED_SHAPES`](symtensor::lanes::COMPILED_SHAPES), a walk of
//! the shared tables elsewhere), and runs the shift-and-normalize step
//! lane-wise too: the shift, the sum of squares, the `sqrt` and the
//! division for every lane at once (the CPU analogue of the paper's
//! one-thread-block-per-tensor GPU mapping). A per-lane *retirement mask*
//! freezes tensors whose eigenvalue estimate has converged while the rest
//! of the panel keeps iterating, so ragged convergence costs bookkeeping,
//! not extra kernel work.
//!
//! Lockstep execution requires a state-independent update rule, so the
//! driver accepts exactly the solvers whose [`Solver::fixed_shift`]
//! reports `Some` (fixed-shift SS-HOPM — the paper's GPU setting);
//! adaptive solvers fall back to the scalar path, with the batched
//! kernels still serving per-tensor products.

use crate::batch::{on_workers, BatchResult};
use crate::solver::{Eigenpair, IterationPolicy};
use crate::traits::Solver;
use rayon::prelude::*;
use std::time::Instant;
use symtensor::scalar::{norm2, normalize};
use symtensor::{BatchedKernels, LanePanel, Scalar, TensorBatchRef, LANE_WIDTH};
use telemetry::Telemetry;

/// The fixed shift a solver must expose to run in lockstep: `Some(α)`
/// exactly when the solver is fixed-shift SS-HOPM. GEAP/QRST (and
/// adaptive-shift SS-HOPM) re-evaluate state per iterate, which breaks
/// the "same instruction stream for every lane" premise.
pub fn lockstep_alpha<S: Scalar>(solver: &dyn Solver<S>) -> Option<f64> {
    if solver.name() == "sshopm" {
        solver.fixed_shift()
    } else {
        None
    }
}

/// Solve every tensor of `batch` from every start in lockstep panels of
/// up to [`LANE_WIDTH`] tensors, using the fixed shift `alpha`.
///
/// Arithmetic is ordered identically to the scalar
/// [`SsHopm`](crate::SsHopm) iteration over
/// [`PrecomputedTables`](symtensor::PrecomputedTables), so results are
/// bitwise equal to `BatchSolver::solve_sequential` with those kernels.
/// Mismatched or zero starting vectors yield per-lane poisoned eigenpairs
/// (`lambda = NaN`), never a panic.
///
/// `threads == 1` runs panels sequentially on the calling thread;
/// `threads == 0` uses the current rayon pool; `threads == k` builds a
/// dedicated `k`-worker pool. Telemetry names match the scalar driver
/// (`batch.solve`, `batch.tensor_seconds`, `batch.tensors_done`,
/// `batch.solves`, `batch.converged`, `batch.iterations`).
pub fn solve_batch_lockstep<S: Scalar>(
    kernels: &BatchedKernels,
    batch: TensorBatchRef<'_, S>,
    starts: &[Vec<S>],
    alpha: f64,
    policy: IterationPolicy,
    threads: usize,
    telemetry: &Telemetry,
) -> BatchResult<S> {
    let _batch_span = telemetry.span("batch.solve");
    let count = batch.len();
    let num_panels = count.div_ceil(LANE_WIDTH);
    // The scalar solver normalizes each start once; every lane of every
    // panel shares the starts, so one normalization serves the batch.
    let n = kernels.dim();
    let unit_starts: Vec<Option<Vec<S>>> = starts
        .iter()
        .map(|x0| {
            let mut x = x0.clone();
            (x0.len() == n && normalize(&mut x) != S::ZERO).then_some(x)
        })
        .collect();

    let solve_panel_at = |p: usize| -> (Vec<Vec<Eigenpair<S>>>, u64) {
        let start = p * LANE_WIDTH;
        let width = LANE_WIDTH.min(count - start);
        let started = telemetry.is_enabled().then(Instant::now);
        let (rows, iters, converged) = match LanePanel::gather(kernels, batch, start, width) {
            Ok(panel) => solve_panel(kernels, &panel, width, &unit_starts, alpha, policy),
            // A shape mismatch between the batch and the kernel tables
            // poisons the whole panel rather than aborting the batch.
            Err(_) => (vec![vec![poisoned_pair(n, 0.0); starts.len()]; width], 0, 0),
        };
        if let Some(started) = started {
            let per_tensor = started.elapsed().as_secs_f64() / width as f64;
            for _ in 0..width {
                telemetry.observe("batch.tensor_seconds", per_tensor);
            }
            telemetry.counter("batch.tensors_done", width as u64);
            telemetry.counter("batch.solves", (width * starts.len()) as u64);
            telemetry.counter("batch.converged", converged);
            telemetry.counter("batch.iterations", iters);
        }
        (rows, iters)
    };

    let collect = |panels: Vec<(Vec<Vec<Eigenpair<S>>>, u64)>| {
        let mut results = Vec::with_capacity(count);
        let mut total_iterations = 0u64;
        for (rows, iters) in panels {
            total_iterations += iters;
            results.extend(rows);
        }
        BatchResult {
            results,
            total_iterations,
        }
    };

    if threads == 1 {
        return collect((0..num_panels).map(solve_panel_at).collect());
    }
    let solve_all = || {
        collect(
            (0..num_panels)
                .into_par_iter()
                .map(solve_panel_at)
                .collect(),
        )
    };
    on_workers(threads, solve_all)
}

fn poisoned_pair<S: Scalar>(n: usize, alpha: f64) -> Eigenpair<S> {
    Eigenpair {
        lambda: S::from_f64(f64::NAN),
        x: vec![S::ZERO; n],
        iterations: 0,
        converged: false,
        alpha,
    }
}

/// Iterate one gathered panel through all starting vectors (`None` marks
/// a start the scalar solver would poison). Returns the per-tensor rows
/// (`rows[w][v]`), total iterations, and converged count.
fn solve_panel<S: Scalar>(
    kernels: &BatchedKernels,
    panel: &LanePanel<S>,
    width: usize,
    unit_starts: &[Option<Vec<S>>],
    alpha: f64,
    policy: IterationPolicy,
) -> (Vec<Vec<Eigenpair<S>>>, u64, u64) {
    let n = kernels.dim();
    let (tol, max_iters) = match policy {
        IterationPolicy::Converge { tol, max_iters } => (tol, max_iters),
        IterationPolicy::Fixed(k) => (0.0, k),
    };
    let converge_mode = matches!(policy, IterationPolicy::Converge { .. });

    let mut rows: Vec<Vec<Eigenpair<S>>> = vec![Vec::with_capacity(unit_starts.len()); width];
    let mut total_iters = 0u64;
    let mut total_converged = 0u64;

    // Lane work buffers, reused across starts (`lane` allocates only if a
    // norm leaves the range of the sum of squares).
    let mut xs = vec![S::ZERO; n * LANE_WIDTH];
    let mut ys = vec![S::ZERO; n * LANE_WIDTH];
    let mut out = [S::ZERO; LANE_WIDTH];
    let mut lane = Vec::new();

    for x0 in unit_starts {
        let Some(x0) = x0 else {
            for row in rows.iter_mut() {
                row.push(poisoned_pair(n, 0.0));
            }
            continue;
        };
        for (xi, &v) in xs.chunks_exact_mut(LANE_WIDTH).zip(x0) {
            xi.fill(v);
        }

        // λ₀ per lane.
        if panel.axm(kernels, &xs, &mut out).is_err() {
            for row in rows.iter_mut() {
                row.push(poisoned_pair(n, alpha));
            }
            continue;
        }
        let mut lambda = out;

        // The retirement mask: lanes drop out as they converge; the panel
        // keeps iterating until every lane has retired or the cap hits.
        let mut active = [false; LANE_WIDTH];
        active[..width].iter_mut().for_each(|a| *a = true);
        let mut iterations = [0usize; LANE_WIDTH];
        let mut converged = [false; LANE_WIDTH];
        let mut poisoned = [false; LANE_WIDTH];

        for _ in 0..max_iters {
            if !active.iter().any(|&a| a) {
                break;
            }
            // ŷ ← A x^{m-1} for every lane in one panel evaluation.
            if panel.axm1(kernels, &xs, &mut ys).is_err() {
                for w in 0..width {
                    if active[w] {
                        active[w] = false;
                        poisoned[w] = true;
                    }
                }
                break;
            }
            let sum_sq = shift_and_sum_squares(&mut ys, &xs, alpha);
            let mut nrm = sum_sq.map(S::sqrt);
            for w in 0..LANE_WIDTH {
                // `norm2` is the plain root whenever the sum of squares is
                // positive and finite; a live lane whose sum underflowed or
                // overflowed takes `norm2` itself, which rescales.
                if active[w] && !(sum_sq[w] > S::ZERO && sum_sq[w].is_finite()) {
                    lane.clear();
                    lane.extend(ys.iter().skip(w).step_by(LANE_WIDTH));
                    nrm[w] = norm2(&lane);
                }
            }
            // Degenerate: x already solves the shifted fixed point.
            for w in 0..LANE_WIDTH {
                if active[w] && nrm[w] == S::ZERO {
                    iterations[w] += 1;
                    converged[w] = converge_mode;
                    active[w] = false;
                }
            }
            // x ← ŷ/‖ŷ‖ on the live lanes; retired lanes stay frozen.
            for (xi, yi) in xs
                .chunks_exact_mut(LANE_WIDTH)
                .zip(ys.chunks_exact(LANE_WIDTH))
            {
                for w in 0..LANE_WIDTH {
                    let q = yi[w] / nrm[w];
                    xi[w] = if active[w] { q } else { xi[w] };
                }
            }
            // λ_{k+1} per lane in one panel evaluation (retired lanes'
            // iterates are frozen, so their recomputed λ is unchanged and
            // unread).
            if panel.axm(kernels, &xs, &mut out).is_err() {
                for w in 0..width {
                    if active[w] {
                        active[w] = false;
                        poisoned[w] = true;
                    }
                }
                break;
            }
            for w in 0..LANE_WIDTH {
                if !active[w] {
                    continue;
                }
                let new_lambda = out[w];
                iterations[w] += 1;
                if converge_mode && (new_lambda - lambda[w]).abs().to_f64() <= tol {
                    converged[w] = true;
                    active[w] = false;
                }
                lambda[w] = new_lambda;
            }
        }

        for (w, row) in rows.iter_mut().enumerate() {
            if poisoned[w] {
                row.push(poisoned_pair(n, alpha));
                continue;
            }
            let pair = Eigenpair {
                lambda: lambda[w],
                x: (0..n).map(|i| xs[i * LANE_WIDTH + w]).collect(),
                iterations: iterations[w],
                converged: converged[w] || !converge_mode,
                alpha,
            };
            total_iters += pair.iterations as u64;
            total_converged += u64::from(pair.converged);
            row.push(pair);
        }
    }

    (rows, total_iters, total_converged)
}

/// ŷ ← ŷ + α x (negated when α < 0) on every lane, and each lane's sum
/// of squares: the scalar iteration's per-component order, `LANE_WIDTH`
/// lanes per step.
fn shift_and_sum_squares<S: Scalar>(ys: &mut [S], xs: &[S], alpha: f64) -> [S; LANE_WIDTH] {
    let alpha_s = S::from_f64(alpha);
    let mut sum_sq = [S::ZERO; LANE_WIDTH];
    for (yi, xi) in ys
        .chunks_exact_mut(LANE_WIDTH)
        .zip(xs.chunks_exact(LANE_WIDTH))
    {
        for w in 0..LANE_WIDTH {
            let shifted = yi[w] + alpha_s * xi[w];
            let v = if alpha >= 0.0 { shifted } else { -shifted };
            yi[w] = v;
            sum_sq[w] += v * v;
        }
    }
    sum_sq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchSolver;
    use crate::shift::Shift;
    use crate::solver::SsHopm;
    use crate::starts::random_uniform_starts;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor::lanes::COMPILED_SHAPES;
    use symtensor::{PrecomputedTables, SymTensor, TensorBatch};

    fn workload<S: Scalar>(
        m: usize,
        n: usize,
        t: usize,
        v: usize,
        seed: u64,
    ) -> (TensorBatch<S>, Vec<Vec<S>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tensors = TensorBatch::random(m, n, t, &mut rng).unwrap();
        let starts = random_uniform_starts(n, v, &mut rng);
        (tensors, starts)
    }

    fn bits<S: Scalar>(v: S) -> u64 {
        v.to_f64().to_bits()
    }

    /// Solve on the scalar table path and in lockstep, assert that λ, x,
    /// iteration counts and flags agree to the bit, and return the
    /// lockstep result.
    fn assert_lockstep_matches_scalar<S: Scalar>(
        tensors: &TensorBatch<S>,
        starts: &[Vec<S>],
        solver: SsHopm,
        at: &str,
    ) -> BatchResult<S> {
        let (m, n) = (tensors.order(), tensors.dim());
        let tables = PrecomputedTables::new(m, n);
        let reference = BatchSolver::new(solver).solve_sequential(&tables, tensors, starts);
        let alpha = lockstep_alpha::<S>(&solver).unwrap();
        let got = solve_batch_lockstep(
            &BatchedKernels::new(m, n),
            tensors.view(),
            starts,
            alpha,
            solver.policy(),
            1,
            &Telemetry::disabled(),
        );
        assert_eq!(got.num_tensors(), reference.num_tensors(), "{at}");
        assert_eq!(got.total_iterations, reference.total_iterations, "{at}");
        for (t, v, want) in reference.iter_flat() {
            let have = &got.results[t][v];
            let pair = format!("{at}: tensor {t} start {v}");
            assert_eq!(bits(want.lambda), bits(have.lambda), "{pair}");
            assert_eq!(want.iterations, have.iterations, "{pair}");
            assert_eq!(want.converged, have.converged, "{pair}");
            assert_eq!(want.x.len(), have.x.len(), "{pair}");
            for (a, b) in want.x.iter().zip(&have.x) {
                assert_eq!(bits(*a), bits(*b), "{pair}");
            }
        }
        got
    }

    fn check_every_panel_shape<S: Scalar>(seed: u64, tol: f64) {
        let shapes = COMPILED_SHAPES.iter().chain(&[(5, 4)]);
        for (k, &(m, n)) in shapes.enumerate() {
            // 11 tensors: one full panel plus a ragged 3-lane tail.
            let (tensors, starts) = workload::<S>(m, n, 11, 3, seed + k as u64);
            let converge = SsHopm::new(Shift::Fixed(2.5))
                .with_tolerance(tol)
                .with_max_iters(200);
            let fixed = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(20));
            let negative = SsHopm::new(Shift::Fixed(-3.0))
                .with_tolerance(tol)
                .with_max_iters(200);
            for (name, solver) in [
                ("converge", converge),
                ("fixed", fixed),
                ("negative shift", negative),
            ] {
                let at = format!("{} ({m},{n}) {name}", S::NAME);
                assert_lockstep_matches_scalar(&tensors, &starts, solver, &at);
            }
        }
    }

    /// Every compiled panel shape, plus (5, 4) on the table walk, in both
    /// precisions, under both policies and both shift signs.
    #[test]
    fn lockstep_is_bitwise_equal_to_scalar_precomputed_path() {
        check_every_panel_shape::<f32>(40, 1e-5);
        check_every_panel_shape::<f64>(42, 1e-12);
    }

    #[test]
    fn lockstep_matches_scalar_under_fixed_iteration_policy() {
        let (tensors, starts) = workload::<f64>(4, 3, 9, 3, 7);
        let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(20));
        let got = assert_lockstep_matches_scalar(&tensors, &starts, solver, "fixed");
        assert_eq!(got.total_iterations, 9 * 3 * 20);
        for (_, _, have) in got.iter_flat() {
            assert_eq!(have.iterations, 20);
            assert!(have.converged);
        }
    }

    #[test]
    fn negative_shift_branch_matches_scalar() {
        let (tensors, starts) = workload::<f64>(4, 3, 5, 3, 13);
        let solver = SsHopm::new(Shift::Fixed(-3.0)).with_tolerance(1e-12);
        assert_lockstep_matches_scalar(&tensors, &starts, solver, "negative shift");
    }

    /// `scale · D` for three diagonal tensors `D` (`d_{k…k}` a permutation
    /// of `1..=n`, every other class zero) and their diagonals. The stable
    /// unit eigenvectors of each `D` under α = 0 are the axes, with `λ = d_k`.
    fn scaled_diagonals<S: Scalar>(
        m: usize,
        n: usize,
        scale: f64,
    ) -> (TensorBatch<S>, Vec<Vec<f64>>) {
        let diagonals: Vec<Vec<f64>> = vec![
            (1..=n).map(|d| d as f64).collect(),
            (1..=n).rev().map(|d| d as f64).collect(),
            (1..=n).map(|d| (d % n + 1) as f64).collect(),
        ];
        let tensors = diagonals
            .iter()
            .map(|d| {
                SymTensor::from_fn(m, n, |class| {
                    let i = class.indices();
                    if i[0] == i[m - 1] {
                        S::from_f64(scale * d[i[0]])
                    } else {
                        S::ZERO
                    }
                })
            })
            .collect::<Vec<_>>();
        (TensorBatch::from_tensors(&tensors).unwrap(), diagonals)
    }

    fn check_out_of_range_scales<S: Scalar>(scales: &[i32]) {
        for (m, n) in [(4, 3), (5, 4)] {
            for &e in scales {
                let scale = 2f64.powi(e);
                let (tensors, diagonals) = scaled_diagonals::<S>(m, n, scale);
                let mut rng = StdRng::seed_from_u64(5);
                let starts = random_uniform_starts::<S, _>(n, 6, &mut rng);
                let solver =
                    SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(200));
                let at = format!("{} ({m},{n}) 2^{e}", S::NAME);
                let got = assert_lockstep_matches_scalar(&tensors, &starts, solver, &at);
                for (t, v, pair) in got.iter_flat() {
                    let x: Vec<f64> = pair.x.iter().map(|v| v.to_f64()).collect();
                    let pair_at = format!("{at}: tensor {t} start {v}: λ {} x {x:?}", pair.lambda);
                    // `Fixed` flags every pair converged: each must be unit.
                    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
                    assert!(pair.converged, "{pair_at}");
                    assert!((norm - 1.0).abs() < 1e-6, "{pair_at}");
                    let k = (0..n)
                        .max_by(|&i, &j| x[i].abs().total_cmp(&x[j].abs()))
                        .unwrap();
                    for (i, &xi) in x.iter().enumerate() {
                        let axis = if i == k { xi.signum() } else { 0.0 };
                        assert!((xi - axis).abs() <= 1e-10, "{pair_at}");
                    }
                    let lambda = pair.lambda.to_f64() / scale;
                    assert!((lambda - diagonals[t][k]).abs() <= 1e-6, "{pair_at}");
                }
            }
        }
    }

    /// Tensors whose ‖ŷ‖² overflows or underflows still converge to their
    /// unit eigenvectors (not to x = 0, nor stuck at the start), on the
    /// compiled (4, 3) panels and the (5, 4) table walk alike.
    #[test]
    fn out_of_range_norms_still_reach_unit_eigenvectors() {
        check_out_of_range_scales::<f64>(&[700, -600]);
        check_out_of_range_scales::<f32>(&[100, -100]);
    }

    #[test]
    fn thread_count_does_not_change_lockstep_results() {
        let (tensors, starts) = workload::<f64>(4, 3, 20, 2, 3);
        let kernels = BatchedKernels::new(4, 3);
        let policy = IterationPolicy::Converge {
            tol: 1e-12,
            max_iters: 1000,
        };
        let tel = Telemetry::disabled();
        let r1 = solve_batch_lockstep(&kernels, tensors.view(), &starts, 1.0, policy, 1, &tel);
        let r4 = solve_batch_lockstep(&kernels, tensors.view(), &starts, 1.0, policy, 4, &tel);
        for (t, v, p) in r1.iter_flat() {
            let q = &r4.results[t][v];
            assert_eq!(p.lambda.to_bits(), q.lambda.to_bits());
            assert_eq!(p.iterations, q.iterations);
        }
    }

    #[test]
    fn bad_starts_poison_per_lane_without_panicking() {
        let (tensors, _) = workload::<f64>(4, 3, 3, 1, 5);
        let kernels = BatchedKernels::new(4, 3);
        let starts = vec![vec![0.0; 3], vec![1.0, 0.0], vec![0.5, 0.5, 0.5]];
        let res = solve_batch_lockstep(
            &kernels,
            tensors.view(),
            &starts,
            1.0,
            IterationPolicy::default(),
            1,
            &Telemetry::disabled(),
        );
        for t in 0..3 {
            assert!(res.results[t][0].lambda.is_nan(), "zero start");
            assert!(res.results[t][1].lambda.is_nan(), "short start");
            assert!(res.results[t][2].lambda.is_finite(), "good start");
            assert!(!res.results[t][0].converged);
            assert_eq!(res.results[t][0].iterations, 0);
        }
    }

    #[test]
    fn lockstep_alpha_gates_on_solver_identity() {
        let fixed: &dyn Solver<f64> = &SsHopm::new(Shift::Fixed(1.25));
        assert_eq!(lockstep_alpha(fixed), Some(1.25));
        let adaptive: &dyn Solver<f64> = &SsHopm::new(Shift::Adaptive);
        assert_eq!(lockstep_alpha(adaptive), None);
        let geap: &dyn Solver<f64> = &crate::Geap::new();
        assert_eq!(lockstep_alpha(geap), None);
        let qrst: &dyn Solver<f64> = &crate::Qrst::new();
        assert_eq!(lockstep_alpha(qrst), None);
    }

    #[test]
    fn telemetry_names_match_the_scalar_driver() {
        let (tensors, starts) = workload::<f64>(4, 3, 10, 2, 21);
        let kernels = BatchedKernels::new(4, 3);
        let tel = Telemetry::enabled();
        let res = solve_batch_lockstep(
            &kernels,
            tensors.view(),
            &starts,
            1.0,
            IterationPolicy::Fixed(5),
            1,
            &tel,
        );
        let snap = tel.snapshot();
        assert_eq!(snap.counter("batch.tensors_done"), Some(10));
        assert_eq!(snap.counter("batch.solves"), Some(20));
        assert_eq!(snap.counter("batch.iterations"), Some(res.total_iterations));
        assert_eq!(
            snap.histogram("batch.tensor_seconds").map(|h| h.count),
            Some(10)
        );
        assert_eq!(snap.span("batch.solve").map(|s| s.count), Some(1));
    }

    #[test]
    fn empty_batch_and_empty_starts() {
        let kernels = BatchedKernels::new(4, 3);
        let empty = TensorBatch::<f64>::new(4, 3).unwrap();
        let res = solve_batch_lockstep(
            &kernels,
            empty.view(),
            &[],
            1.0,
            IterationPolicy::default(),
            1,
            &Telemetry::disabled(),
        );
        assert_eq!(res.num_tensors(), 0);
        assert_eq!(res.total_iterations, 0);
    }
}
