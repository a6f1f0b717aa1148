//! Lockstep batched SS-HOPM: [`LANE_WIDTH`] solves advance together
//! through the vectorized [`LanePanel`] kernels, one tensor per lane.
//!
//! The scalar batch driver ([`crate::BatchSolver`]) evaluates the kernels
//! once per tensor per iteration. Under a shift that is a constant of the
//! tensor, every solve executes the *same* instruction sequence — only the
//! data differs — so the driver here evaluates each kernel once per panel
//! per iteration for all `LANE_WIDTH` lanes (the compiled straight-line
//! panels on [`COMPILED_SHAPES`](symtensor::lanes::COMPILED_SHAPES), a walk
//! of the shared tables elsewhere), and runs the shift-and-normalize step
//! lane-wise too: each lane's own shift, the sum of squares, the `sqrt`
//! and the division for every lane at once.
//!
//! The batch is cut into *tensor streams*, runs of [`STREAM_TENSORS`]
//! consecutive tensors, each one unit of parallel work. Within a stream a
//! lane keeps one tensor until all of its starts are done, then loads the
//! stream's next unclaimed tensor into its column and resolves that
//! tensor's shift (the CPU analogue of the paper's one-block-per-tensor GPU
//! mapping). A solve that converges, reaches the iteration cap or
//! degenerates hands its lane to the next solve at once, so no lane waits
//! for a slower one; only a stream's last tensors leave lanes idle.
//! Results are indexed by tensor, so they do not depend on which lane or
//! worker ran them.
//!
//! The stream loop is one body compiled twice: for the baseline target,
//! and for AVX2, which a stream runs when the CPU has it. Everything
//! between the loop and the arithmetic is `#[inline(always)]`, so the AVX2
//! compilation runs the panels, the shift, the normalization and the
//! convergence test in 256-bit registers. It enables no FMA, so both
//! compilations return the same bits.
//!
//! Lockstep execution needs an update rule that does not depend on the
//! iterate, so the driver accepts exactly the solvers whose
//! [`Solver::tensor_shift`] reports `Some` (SS-HOPM under a fixed, convex
//! or concave shift); adaptive solvers fall back to the scalar path, with
//! the batched kernels still serving per-tensor products.

use crate::batch::{on_workers, BatchResult};
use crate::shift::Shift;
use crate::solver::{unit_start, Eigenpair, IterationPolicy};
use crate::traits::Solver;
use rayon::prelude::*;
use std::ops::Range;
use std::time::Instant;
use symtensor::scalar::norm2;
use symtensor::{BatchedKernels, LanePanel, Scalar, SymTensorRef, TensorBatchRef, LANE_WIDTH};
use telemetry::Telemetry;

/// Tensors per stream: 64 panels' worth. The lanes a stream's last
/// tensors leave idle cost it about 1% of its lane slots: on a 320×320
/// phantom at α = 0 with 16 starts, 98.8% of lane slots advance a solve,
/// against 95.9% with streams of 128 tensors and 99.4% with 1024. Streams
/// stay short enough that the paper's 1024-tensor batch still splits over
/// two workers.
pub const STREAM_TENSORS: usize = 64 * LANE_WIDTH;

/// The shift a solver must expose to run in lockstep: `Some` exactly when
/// the solver is SS-HOPM under a shift that is a constant of each tensor
/// ([`Solver::tensor_shift`]: fixed, convex or concave). GEAP/QRST and
/// adaptive-shift SS-HOPM re-evaluate state per iterate, which breaks the
/// "same instruction stream for every lane" premise.
///
/// The name dates from when lanes ran only one fixed `α`; the benchmark
/// under `perfbench/` calls the gate by it.
pub fn lockstep_alpha<S: Scalar>(solver: &dyn Solver<S>) -> Option<Shift> {
    if solver.name() == "sshopm" {
        solver.tensor_shift()
    } else {
        None
    }
}

/// Solve every tensor of `batch` from every start in lockstep lanes,
/// under the tensor-constant `shift`, resolved once per tensor with
/// [`Shift::fixed_value`].
///
/// Arithmetic is ordered identically to the scalar
/// [`SsHopm`](crate::SsHopm) iteration over
/// [`PrecomputedTables`](symtensor::PrecomputedTables), so results are
/// bitwise equal to [`BatchSolver::run`](crate::BatchSolver::run) with those
/// kernels.
/// Mismatched or zero starting vectors yield per-lane poisoned eigenpairs
/// (`lambda = NaN`), never a panic; so does [`Shift::Adaptive`], which is
/// not a constant of the tensor.
///
/// `threads == 1` runs the streams sequentially on the calling thread;
/// `threads == 0` uses the current rayon pool; `threads == k` builds a
/// dedicated `k`-worker pool. Telemetry names match the scalar driver
/// (`batch.solve`, `batch.tensor_seconds`, `batch.tensors_done`,
/// `batch.solves`, `batch.converged`, `batch.iterations`), plus
/// `batch.lane_slots`: panel iterations × [`LANE_WIDTH`], so
/// `batch.iterations / batch.lane_slots` is the measured share of lane
/// slots that advanced a solve; and `batch.avx2_streams`, the streams the
/// AVX2 compilation of the stream loop ran (absent where the CPU has no
/// AVX2).
pub fn solve_batch_lockstep<S: Scalar>(
    kernels: &BatchedKernels,
    batch: TensorBatchRef<'_, S>,
    starts: &[Vec<S>],
    shift: Shift,
    policy: IterationPolicy,
    threads: usize,
    telemetry: &Telemetry,
) -> BatchResult<S> {
    let _batch_span = telemetry.span("batch.solve");
    Run::new(kernels, batch, starts, shift, policy, telemetry).solve(threads)
}

/// [`solve_batch_lockstep`], lending each tensor's finished row of pairs
/// to `each`, by batch index, on the worker that solved it, instead of
/// returning the rows; returns the total iterations.
///
/// Every tensor's row is lent exactly once, bit-identical to the row
/// [`solve_batch_lockstep`] returns for it, in no fixed order. The lane
/// keeps the row's memory, and each pair's `x`, for its next tensor, so
/// a caller that keeps only what it derives from each row makes the solve
/// allocate per stream, not per pair. Telemetry is
/// [`solve_batch_lockstep`]'s.
#[allow(clippy::too_many_arguments)]
pub fn solve_batch_lockstep_each<S: Scalar>(
    kernels: &BatchedKernels,
    batch: TensorBatchRef<'_, S>,
    starts: &[Vec<S>],
    shift: Shift,
    policy: IterationPolicy,
    threads: usize,
    telemetry: &Telemetry,
    each: &(dyn Fn(usize, &[Eigenpair<S>]) + Sync),
) -> u64 {
    let _batch_span = telemetry.span("batch.solve");
    let mut run = Run::new(kernels, batch, starts, shift, policy, telemetry);
    run.each = Some(each);
    run.solve(threads).total_iterations
}

/// What every stream of one batched solve shares.
struct Run<'a, S> {
    kernels: &'a BatchedKernels,
    batch: TensorBatchRef<'a, S>,
    /// The unit starts; `None` marks a start the scalar solver poisons.
    starts: Vec<Option<Vec<S>>>,
    /// The unit starts in lane form: blocks of `LANE_WIDTH` starts, each
    /// laid out like an iterate buffer.
    start_lanes: Vec<S>,
    shift: Shift,
    tol: f64,
    max_iters: usize,
    converge_mode: bool,
    telemetry: &'a Telemetry,
    /// Run the AVX2 compilation of the stream loop where the CPU has it;
    /// tests clear it to check the baseline compilation on any host.
    /// Only x86-64 has the AVX2 compilation.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    dispatch: bool,
    /// The caller's closure each finished row is lent to; `None`, the
    /// default, keeps the rows.
    each: Option<&'a Each<'a, S>>,
}

/// A closure a finished row is lent to, with its tensor's batch index.
type Each<'a, S> = dyn Fn(usize, &[Eigenpair<S>]) + Sync + 'a;

/// One stream's kept rows, in tensor order (none when they are lent), and
/// its total iterations.
type Stream<S> = (Vec<Vec<Eigenpair<S>>>, u64);

impl<'a, S: Scalar> Run<'a, S> {
    fn new(
        kernels: &'a BatchedKernels,
        batch: TensorBatchRef<'a, S>,
        starts: &[Vec<S>],
        shift: Shift,
        policy: IterationPolicy,
        telemetry: &'a Telemetry,
    ) -> Self {
        // The scalar solver normalizes each start once; every lane shares
        // the starts, so one normalization serves the batch.
        let n = kernels.dim();
        let starts: Vec<Option<Vec<S>>> = starts.iter().map(|x0| unit_start(x0, n)).collect();
        let (tol, max_iters, converge_mode) = policy.limits();
        // The same starts in lane form, `LANE_WIDTH` per block, for the λ₀
        // panels; a poisoned start's lanes stay zero and are never read.
        let mut start_lanes = vec![S::ZERO; starts.len().div_ceil(LANE_WIDTH) * n * LANE_WIDTH];
        for (v, x0) in starts.iter().enumerate() {
            let block = &mut start_lanes[(v / LANE_WIDTH) * n * LANE_WIDTH..];
            for (i, &e) in x0.iter().flatten().enumerate() {
                block[i * LANE_WIDTH + v % LANE_WIDTH] = e;
            }
        }
        Self {
            kernels,
            batch,
            starts,
            start_lanes,
            shift,
            tol,
            max_iters,
            converge_mode,
            telemetry,
            dispatch: true,
            each: None,
        }
    }

    /// Cut the batch into streams and solve them on `threads` workers:
    /// the kept rows (none when they are lent) and the total iterations.
    fn solve(&self, threads: usize) -> BatchResult<S> {
        let count = self.batch.len();
        let stream =
            |s: usize| self.stream(s * STREAM_TENSORS..count.min((s + 1) * STREAM_TENSORS));
        let num_streams = count.div_ceil(STREAM_TENSORS);
        let collect = |streams: Vec<Stream<S>>| {
            let kept = if self.each.is_some() { 0 } else { count };
            let mut results = Vec::with_capacity(kept);
            let mut total_iterations = 0u64;
            for (rows, iters) in streams {
                total_iterations += iters;
                results.extend(rows);
            }
            BatchResult {
                results,
                total_iterations,
            }
        };

        if threads == 1 {
            return collect((0..num_streams).map(stream).collect());
        }
        on_workers(threads, || {
            collect((0..num_streams).into_par_iter().map(stream).collect())
        })
    }

    /// Solve every tensor of `tensors` from every start, in the AVX2
    /// compilation of the stream loop where the CPU has AVX2 and in the
    /// baseline one elsewhere. Both return the same bits.
    fn stream(&self, tensors: Range<usize>) -> Stream<S> {
        #[cfg(target_arch = "x86_64")]
        if self.dispatch && std::arch::is_x86_feature_detected!("avx2") {
            self.telemetry.counter("batch.avx2_streams", 1);
            // SAFETY: `stream_avx2` requires nothing beyond AVX2, and the
            // `is_x86_feature_detected!` just above found it on this CPU.
            return unsafe { self.stream_avx2(tensors) };
        }
        self.stream_lanes(tensors)
    }

    /// [`Run::stream_lanes`] compiled for AVX2: it and everything it
    /// inlines, down to the lane panels, may use the 256-bit registers.
    /// Only `avx2` is enabled, not `fma`, so every operation rounds as the
    /// baseline code's does. Callers must check that the CPU has AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn stream_avx2(&self, tensors: Range<usize>) -> Stream<S> {
        self.stream_lanes(tensors)
    }

    /// The stream loop, inlined into each compilation. Returns the
    /// stream's kept rows, in tensor order, and their total iterations.
    /// Counts are kept in the stream and emitted once, so disabled
    /// telemetry costs one branch per stream.
    #[inline(always)]
    fn stream_lanes(&self, tensors: Range<usize>) -> Stream<S> {
        let started = self.telemetry.is_enabled().then(Instant::now);
        let len = tensors.len();
        let mut lanes = Lanes::new(self, tensors);
        for w in 0..LANE_WIDTH {
            lanes.refill(w);
        }
        lanes.find_next_cap();
        while lanes.live.contains(&true) {
            lanes.step();
        }
        if let Some(started) = started {
            let t = self.telemetry;
            let per_tensor = started.elapsed().as_secs_f64() / len as f64;
            for _ in 0..len {
                t.observe("batch.tensor_seconds", per_tensor);
            }
            t.counter("batch.tensors_done", len as u64);
            t.counter("batch.solves", (len * self.starts.len()) as u64);
            t.counter("batch.converged", lanes.converged);
            t.counter("batch.iterations", lanes.iterations_done);
            t.counter("batch.lane_slots", lanes.slots * LANE_WIDTH as u64);
        }
        (lanes.kept, lanes.iterations_done)
    }
}

/// The lanes of one stream: the panel holding each lane's tensor, the
/// lane-major iterates, each lane's solve in progress and the row of its
/// tensor's pairs.
///
/// λ₀ needs one `A·xᵐ` before a solve's first update. Rather than a panel
/// call for whichever lanes refilled on an iteration, a lane that claims a
/// tensor evaluates λ₀ for all of that tensor's starts at once: the tensor
/// in every lane of a second panel, `LANE_WIDTH` starts per call.
struct Lanes<'r, 'a, S> {
    run: &'r Run<'a, S>,
    /// When rows are kept, row `t` holds the pairs of the stream's `t`-th
    /// tensor, in start order, moved here when the tensor is done.
    kept: Vec<Vec<Eigenpair<S>>>,
    /// Each lane's row: its tensor's pairs so far, in start order, sized
    /// for every start when the lane claims a tensor into an empty row.
    row: [Vec<Eigenpair<S>>; LANE_WIDTH],
    /// The batch index of the stream's first tensor, of the next tensor a
    /// lane may claim, and one past the stream's last.
    first: usize,
    next: usize,
    end: usize,
    panel: LanePanel<S>,
    /// The tensor being claimed, in every lane.
    claimed: LanePanel<S>,
    /// λ₀ of lane `w`'s tensor from start `v` at `lambda0[w * V + v]`,
    /// for `V` starts.
    lambda0: Vec<S>,
    /// Component `i` of lane `w`'s iterate at `xs[i * LANE_WIDTH + w]`.
    xs: Vec<S>,
    ys: Vec<S>,
    /// A lane's components, only when its norm leaves the range of the
    /// plain sum of squares.
    lane: Vec<S>,
    /// Each lane's tensor (a row index), or `None` before it claims one.
    tensor: [Option<usize>; LANE_WIDTH],
    /// Whether the lanes can run each lane's tensor; the starts of one
    /// they cannot (a shape the kernels were not built for, or a shift
    /// that is not a constant of the tensor) are poisoned.
    runnable: [bool; LANE_WIDTH],
    /// Each lane's next start to run on its tensor.
    next_start: [usize; LANE_WIDTH],
    /// Each lane's shift, resolved once per tensor; the scalar form the
    /// update multiplies by; and the scalar iteration's `α ≥ 0` test, false
    /// where the update negates.
    alpha: [f64; LANE_WIDTH],
    alpha_s: [S; LANE_WIDTH],
    nonnegative: [bool; LANE_WIDTH],
    lambda: [S; LANE_WIDTH],
    /// A solve is in progress on the lane.
    live: [bool; LANE_WIDTH],
    /// Panel iterations run, and the count at which each lane's solve
    /// began: a solve's iteration count is their difference.
    slots: u64,
    began: [u64; LANE_WIDTH],
    /// The panel iteration at which the first live lane reaches the
    /// iteration cap.
    next_cap: u64,
    iterations_done: u64,
    converged: u64,
}

impl<'r, 'a, S: Scalar> Lanes<'r, 'a, S> {
    fn new(run: &'r Run<'a, S>, tensors: Range<usize>) -> Self {
        let n = run.kernels.dim();
        let kept = match run.each {
            Some(_) => Vec::new(),
            None => (0..tensors.len()).map(|_| Vec::new()).collect(),
        };
        Self {
            run,
            kept,
            row: std::array::from_fn(|_| Vec::new()),
            first: tensors.start,
            next: tensors.start,
            end: tensors.end,
            panel: LanePanel::zeros(run.kernels),
            claimed: LanePanel::zeros(run.kernels),
            lambda0: vec![S::ZERO; LANE_WIDTH * run.starts.len()],
            xs: vec![S::ZERO; n * LANE_WIDTH],
            ys: vec![S::ZERO; n * LANE_WIDTH],
            lane: Vec::new(),
            tensor: [None; LANE_WIDTH],
            runnable: [false; LANE_WIDTH],
            next_start: [0; LANE_WIDTH],
            alpha: [0.0; LANE_WIDTH],
            alpha_s: [S::ZERO; LANE_WIDTH],
            nonnegative: [true; LANE_WIDTH],
            lambda: [S::ZERO; LANE_WIDTH],
            live: [false; LANE_WIDTH],
            slots: 0,
            began: [0; LANE_WIDTH],
            next_cap: 0,
            iterations_done: 0,
            converged: 0,
        }
    }

    /// Write lane `w`'s pair for its current start, with the lane's
    /// column of the iterates as `x`, into the lane's row: the one write
    /// path. A row the lane kept from its last tensor has the slot, and
    /// the pair is overwritten in place, `x` keeping its allocation;
    /// otherwise the pair is new.
    fn write(&mut self, w: usize, lambda: S, iterations: usize, converged: bool, alpha: f64) {
        self.iterations_done += iterations as u64;
        self.converged += u64::from(converged);
        let xs = &self.xs;
        let x = (0..self.run.kernels.dim()).map(|i| xs[i * LANE_WIDTH + w]);
        let row = &mut self.row[w];
        match row.get_mut(self.next_start[w] - 1) {
            Some(pair) => {
                pair.lambda = lambda;
                pair.x.clear();
                pair.x.extend(x);
                pair.iterations = iterations;
                pair.converged = converged;
                pair.alpha = alpha;
            }
            None => row.push(Eigenpair {
                lambda,
                x: x.collect(),
                iterations,
                converged,
                alpha,
            }),
        }
    }

    /// Write a poisoned pair (`λ = NaN`, `x = 0`) for lane `w`'s current
    /// start, as the scalar solver returns for a start it cannot run.
    fn poison(&mut self, w: usize, alpha: f64) {
        for i in 0..self.run.kernels.dim() {
            self.xs[i * LANE_WIDTH + w] = S::ZERO;
        }
        self.write(w, S::from_f64(f64::NAN), 0, false, alpha);
    }

    /// Hand on lane `w`'s finished row, for the stream's `t`-th tensor:
    /// lend it to the caller, the lane keeping its memory, or move it to
    /// the kept rows, the lane starting an empty one.
    fn hand_off(&mut self, w: usize, t: usize) {
        match self.run.each {
            Some(each) => each(self.first + t, &self.row[w]),
            None => self.kept[t] = std::mem::take(&mut self.row[w]),
        }
    }

    /// Hand lane `w` its next solve: the next start of its tensor, or the
    /// first start of the stream's next unclaimed tensor. Solves that need
    /// no iteration (poisoned starts, a zero iteration cap) finish here,
    /// and a tensor with all its starts done is handed on here, whether or
    /// not any of them iterated; a lane with no tensor left idles.
    #[inline(always)]
    fn refill(&mut self, w: usize) {
        let run = self.run;
        loop {
            let Some(t) = self.tensor[w] else {
                if self.claim(w) {
                    continue;
                }
                return;
            };
            let v = self.next_start[w];
            let Some(x0) = run.starts.get(v) else {
                self.tensor[w] = None;
                self.hand_off(w, t);
                continue;
            };
            self.next_start[w] = v + 1;
            let Some(x0) = x0.as_ref().filter(|_| self.runnable[w]) else {
                self.poison(w, 0.0);
                continue;
            };
            for (i, &e) in x0.iter().enumerate() {
                self.xs[i * LANE_WIDTH + w] = e;
            }
            let lambda0 = self.lambda0[w * run.starts.len() + v];
            if run.max_iters == 0 {
                self.write(w, lambda0, 0, !run.converge_mode, self.alpha[w]);
                continue;
            }
            self.lambda[w] = lambda0;
            self.began[w] = self.slots;
            self.live[w] = true;
            return;
        }
    }

    /// Load the stream's next unclaimed tensor into lane `w`, resolve its
    /// shift and evaluate its λ₀ from every start; `false` when the stream
    /// has none left. A tensor the lane cannot run (a shape the kernels
    /// were not built for, or a shift that is not a constant of the
    /// tensor) is claimed all the same, and its starts are poisoned.
    #[inline(always)]
    fn claim(&mut self, w: usize) -> bool {
        let run = self.run;
        if self.next == self.end {
            return false;
        }
        let t = self.next;
        self.next += 1;
        let alpha = match run.batch.try_get(t) {
            Ok(a) => self.load(w, a),
            Err(_) => None,
        };
        if self.row[w].is_empty() {
            self.row[w].reserve_exact(run.starts.len());
        }
        self.tensor[w] = Some(t - self.first);
        self.next_start[w] = 0;
        self.runnable[w] = alpha.is_some();
        if let Some(alpha) = alpha {
            self.alpha[w] = alpha;
            self.alpha_s[w] = S::from_f64(alpha);
            self.nonnegative[w] = alpha >= 0.0;
        }
        true
    }

    /// Load tensor `a` into lane `w` and into every lane of the claim
    /// panel, evaluate its λ₀ from every start there, and resolve its
    /// shift; `None` if the lane cannot run it.
    #[inline(always)]
    fn load(&mut self, w: usize, a: SymTensorRef<'_, S>) -> Option<f64> {
        let run = self.run;
        let (n, starts) = (run.kernels.dim(), run.starts.len());
        self.panel.load(run.kernels, w, a).ok()?;
        for lane in 0..LANE_WIDTH {
            self.claimed.load(run.kernels, lane, a).ok()?;
        }
        let lambda0 = &mut self.lambda0[w * starts..(w + 1) * starts];
        let blocks = run.start_lanes.chunks_exact(n * LANE_WIDTH);
        for (xs, lambda0) in blocks.zip(lambda0.chunks_mut(LANE_WIDTH)) {
            let mut out = [S::ZERO; LANE_WIDTH];
            self.claimed.axm(run.kernels, xs, &mut out).ok()?;
            lambda0.copy_from_slice(&out[..lambda0.len()]);
        }
        run.shift.fixed_value(a)
    }

    /// One panel iteration of every live lane — ŷ ← A·xᵐ⁻¹ with the lane's
    /// shift, x ← ŷ/‖ŷ‖, λ ← A·xᵐ — after which each finished solve writes
    /// its pair and refills its lane. The per-lane work on the way is what
    /// every iteration needs; the rest waits for the rare iteration on
    /// which a lane's norm leaves the range of its sum of squares, a lane
    /// converges, or a lane reaches the cap.
    #[inline(always)]
    fn step(&mut self) {
        let run = self.run;
        self.slots += 1;
        if self
            .panel
            .axm1(run.kernels, &self.xs, &mut self.ys)
            .is_err()
        {
            self.abandon_live();
            return;
        }
        let sum_sq =
            shift_and_sum_squares(&mut self.ys, &self.xs, &self.alpha_s, &self.nonnegative);
        let mut nrm = sum_sq.map(S::sqrt);
        let mut ended = [false; LANE_WIDTH];
        if (0..LANE_WIDTH).any(|w| self.live[w] && !(sum_sq[w] > S::ZERO && sum_sq[w].is_finite()))
        {
            ended = self.rescale(sum_sq, &mut nrm);
        }
        // x ← ŷ/‖ŷ‖ on the live lanes; the others keep theirs.
        let live = self.live;
        for (xi, yi) in self
            .xs
            .chunks_exact_mut(LANE_WIDTH)
            .zip(self.ys.chunks_exact(LANE_WIDTH))
        {
            for w in 0..LANE_WIDTH {
                let q = yi[w] / nrm[w];
                xi[w] = if live[w] { q } else { xi[w] };
            }
        }
        let mut out = [S::ZERO; LANE_WIDTH];
        if self.panel.axm(run.kernels, &self.xs, &mut out).is_err() {
            self.abandon_live();
            return;
        }
        let mut converged = [false; LANE_WIDTH];
        if run.converge_mode {
            converged = std::array::from_fn(|w| {
                live[w] && (out[w] - self.lambda[w]).abs().to_f64() <= run.tol
            });
        }
        // A lane that is not live keeps no λ: a refill sets it.
        self.lambda = out;
        if self.slots >= self.next_cap || converged.contains(&true) || ended.contains(&true) {
            self.retire(ended, converged);
        }
    }

    /// The norms of the live lanes whose sum of squares underflowed or
    /// overflowed, from `norm2`, which rescales. A lane whose ŷ vanished
    /// (x already solves the shifted fixed point) finishes here with its x
    /// and λ as they were; the lanes returned refill after the update.
    #[cold]
    fn rescale(
        &mut self,
        sum_sq: [S; LANE_WIDTH],
        nrm: &mut [S; LANE_WIDTH],
    ) -> [bool; LANE_WIDTH] {
        let mut degenerate = [false; LANE_WIDTH];
        for w in 0..LANE_WIDTH {
            if self.live[w] && !(sum_sq[w] > S::ZERO && sum_sq[w].is_finite()) {
                self.lane.clear();
                self.lane.extend(self.ys.iter().skip(w).step_by(LANE_WIDTH));
                nrm[w] = norm2(&self.lane);
                if nrm[w] == S::ZERO {
                    self.finish(w, self.run.converge_mode);
                    degenerate[w] = true;
                }
            }
        }
        degenerate
    }

    /// Finish the live lanes that converged or reached the cap, refill
    /// them and the `ended` ones, and find the next cap.
    #[inline(always)]
    fn retire(&mut self, mut ended: [bool; LANE_WIDTH], converged: [bool; LANE_WIDTH]) {
        let max_iters = self.run.max_iters as u64;
        for w in 0..LANE_WIDTH {
            if self.live[w] && (converged[w] || self.slots - self.began[w] == max_iters) {
                self.finish(w, converged[w]);
                ended[w] = true;
            }
        }
        for (w, &ended) in ended.iter().enumerate() {
            if ended {
                self.refill(w);
            }
        }
        self.find_next_cap();
    }

    fn find_next_cap(&mut self) {
        let max_iters = self.run.max_iters as u64;
        self.next_cap = (0..LANE_WIDTH)
            .filter(|&w| self.live[w])
            .map(|w| self.began[w].saturating_add(max_iters))
            .min()
            .unwrap_or(u64::MAX);
    }

    /// Write lane `w`'s solve into its row and free the lane.
    fn finish(&mut self, w: usize, converged: bool) {
        self.live[w] = false;
        let iterations = (self.slots - self.began[w]) as usize;
        let converged = converged || !self.run.converge_mode;
        self.write(w, self.lambda[w], iterations, converged, self.alpha[w]);
    }

    /// End every live lane's solve with a poisoned pair and refill the
    /// lane: the kernels rejected the lane buffers, whose fixed lengths
    /// rule that out.
    #[cold]
    fn abandon_live(&mut self) {
        for w in 0..LANE_WIDTH {
            if self.live[w] {
                self.live[w] = false;
                self.poison(w, self.alpha[w]);
                self.refill(w);
            }
        }
        self.find_next_cap();
    }
}

/// ŷ ← ŷ + α x on every lane with that lane's α, negated on the lanes
/// that fail the `α ≥ 0` test, and each lane's sum of squares: the scalar
/// iteration's per-component order, `LANE_WIDTH` lanes per step.
#[inline(always)]
fn shift_and_sum_squares<S: Scalar>(
    ys: &mut [S],
    xs: &[S],
    alpha: &[S; LANE_WIDTH],
    nonnegative: &[bool; LANE_WIDTH],
) -> [S; LANE_WIDTH] {
    // A sign chosen lane by lane costs the loop its vector form, so lanes
    // that share one (all of them, unless a shift is NaN) take a loop with
    // the sign fixed.
    match (nonnegative.contains(&true), nonnegative.contains(&false)) {
        (true, false) => shift_lanes(ys, xs, alpha, |_, v| v),
        (false, _) => shift_lanes(ys, xs, alpha, |_, v| -v),
        (true, true) => shift_lanes(ys, xs, alpha, |w, v| if nonnegative[w] { v } else { -v }),
    }
}

#[inline(always)]
fn shift_lanes<S: Scalar>(
    ys: &mut [S],
    xs: &[S],
    alpha: &[S; LANE_WIDTH],
    sign: impl Fn(usize, S) -> S,
) -> [S; LANE_WIDTH] {
    let mut sum_sq = [S::ZERO; LANE_WIDTH];
    for (yi, xi) in ys
        .chunks_exact_mut(LANE_WIDTH)
        .zip(xs.chunks_exact(LANE_WIDTH))
    {
        for w in 0..LANE_WIDTH {
            let v = sign(w, yi[w] + alpha[w] * xi[w]);
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
    use crate::solver::SsHopm;
    use crate::starts::random_uniform_starts;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Mutex;
    use symtensor::lanes::COMPILED_SHAPES;
    use symtensor::{PrecomputedTables, SymTensor, TensorBatch};

    /// `t` random tensors, tensor `k` scaled by `1 + k/4` so that
    /// neighbouring lanes carry different convex and concave shifts, and
    /// `v` random starts.
    fn workload<S: Scalar>(
        m: usize,
        n: usize,
        t: usize,
        v: usize,
        seed: u64,
    ) -> (TensorBatch<S>, Vec<Vec<S>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tensors = TensorBatch::random(m, n, t, &mut rng).unwrap();
        let stride = tensors.stride();
        for (k, values) in tensors.values_mut().chunks_mut(stride).enumerate() {
            let scale = S::from_f64(1.0 + k as f64 / 4.0);
            values.iter_mut().for_each(|e| *e *= scale);
        }
        let starts = random_uniform_starts(n, v, &mut rng);
        (tensors, starts)
    }

    fn bits<S: Scalar>(v: S) -> u64 {
        v.to_f64().to_bits()
    }

    fn lockstep<S: Scalar>(
        tensors: &TensorBatch<S>,
        starts: &[Vec<S>],
        solver: SsHopm,
        threads: usize,
        telemetry: &Telemetry,
    ) -> BatchResult<S> {
        let shift = lockstep_alpha::<S>(&solver).unwrap();
        let (m, n) = (tensors.order(), tensors.dim());
        solve_batch_lockstep(
            &BatchedKernels::new(m, n),
            tensors.view(),
            starts,
            shift,
            solver.policy(),
            threads,
            telemetry,
        )
    }

    /// [`lockstep`] in the baseline compilation of the stream loop, the one
    /// a CPU without AVX2 runs, on any host.
    fn lockstep_baseline<S: Scalar>(
        tensors: &TensorBatch<S>,
        starts: &[Vec<S>],
        solver: SsHopm,
        threads: usize,
        telemetry: &Telemetry,
    ) -> BatchResult<S> {
        let shift = lockstep_alpha::<S>(&solver).unwrap();
        let kernels = BatchedKernels::new(tensors.order(), tensors.dim());
        let policy = solver.policy();
        let mut run = Run::new(&kernels, tensors.view(), starts, shift, policy, telemetry);
        run.dispatch = false;
        run.solve(threads)
    }

    /// Assert that two results agree to the bit in λ, x, α, iteration
    /// counts and flags.
    fn assert_same<S: Scalar>(want: &BatchResult<S>, got: &BatchResult<S>, at: &str) {
        assert_eq!(got.num_tensors(), want.num_tensors(), "{at}");
        assert_eq!(got.total_iterations, want.total_iterations, "{at}");
        for (t, row) in want.results.iter().enumerate() {
            assert_eq!(got.results[t].len(), row.len(), "{at}: tensor {t}");
        }
        for (t, v, want) in want.iter_flat() {
            let have = &got.results[t][v];
            let pair = format!("{at}: tensor {t} start {v}");
            assert_eq!(bits(want.lambda), bits(have.lambda), "{pair}");
            assert_eq!(want.alpha.to_bits(), have.alpha.to_bits(), "{pair}");
            assert_eq!(want.iterations, have.iterations, "{pair}");
            assert_eq!(want.converged, have.converged, "{pair}");
            assert_eq!(want.x.len(), have.x.len(), "{pair}");
            for (a, b) in want.x.iter().zip(&have.x) {
                assert_eq!(bits(*a), bits(*b), "{pair}");
            }
        }
    }

    /// Solve on the scalar table path and in lockstep on one, two and
    /// three threads, and in the baseline compilation of the stream loop
    /// on one, assert that every pair agrees to the bit, and return the
    /// one-thread lockstep result. On an AVX2 host the first three run the
    /// AVX2 compilation, so both compilations are checked there.
    fn assert_lockstep_matches_scalar<S: Scalar>(
        tensors: &TensorBatch<S>,
        starts: &[Vec<S>],
        solver: SsHopm,
        at: &str,
    ) -> BatchResult<S> {
        let tables = PrecomputedTables::new(tensors.order(), tensors.dim());
        let tel = Telemetry::disabled();
        let reference = BatchSolver::new(solver)
            .with_threads(1)
            .run(&tables, tensors, starts, &tel);
        let got = lockstep(tensors, starts, solver, 1, &tel);
        assert_same(&reference, &got, at);
        for threads in [2, 3] {
            let par = lockstep(tensors, starts, solver, threads, &tel);
            assert_same(&reference, &par, &format!("{at}, {threads} threads"));
        }
        let baseline = lockstep_baseline(tensors, starts, solver, 1, &tel);
        assert_same(&reference, &baseline, &format!("{at}, baseline code"));
        got
    }

    /// The solvers every panel shape is checked under: both policies,
    /// both signs of a fixed shift, and the convex and concave shifts,
    /// which differ from lane to lane.
    fn solvers(tol: f64) -> [(&'static str, SsHopm); 5] {
        let converge = |shift| SsHopm::new(shift).with_tolerance(tol).with_max_iters(200);
        [
            ("converge", converge(Shift::Fixed(2.5))),
            (
                "fixed",
                SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(20)),
            ),
            ("negative shift", converge(Shift::Fixed(-3.0))),
            ("convex", converge(Shift::Convex)),
            ("concave", converge(Shift::Concave)),
        ]
    }

    fn check_every_panel_shape<S: Scalar>(seed: u64, tol: f64) {
        let shapes = COMPILED_SHAPES.iter().chain(&[(5, 4)]);
        for (k, &(m, n)) in shapes.enumerate() {
            // 11 tensors: a full panel's worth plus three.
            let (tensors, starts) = workload::<S>(m, n, 11, 3, seed + k as u64);
            for (name, solver) in solvers(tol) {
                let at = format!("{} ({m},{n}) {name}", S::NAME);
                assert_lockstep_matches_scalar(&tensors, &starts, solver, &at);
            }
        }
    }

    /// Every compiled panel shape, plus (5, 4) on the table walk, in both
    /// precisions, under both policies, both fixed-shift signs and the
    /// per-lane convex and concave shifts, on one to three threads.
    #[test]
    fn lockstep_is_bitwise_equal_to_scalar_precomputed_path() {
        check_every_panel_shape::<f32>(40, 1e-5);
        check_every_panel_shape::<f64>(42, 1e-12);
    }

    /// Batches shorter than a panel, and one that crosses a stream
    /// boundary, refill lanes exactly as the scalar path solves.
    #[test]
    fn batch_sizes_around_panels_and_streams_match_scalar() {
        for count in [1, 7, STREAM_TENSORS + 3] {
            let (tensors, starts) = workload::<f64>(4, 3, count, 3, 50 + count as u64);
            for (name, solver) in [
                ("convex", SsHopm::new(Shift::Convex).with_tolerance(1e-10)),
                (
                    "fixed",
                    SsHopm::new(Shift::Fixed(0.5)).with_tolerance(1e-12),
                ),
            ] {
                let at = format!("{count} tensors {name}");
                assert_lockstep_matches_scalar(&tensors, &starts, solver, &at);
            }
        }
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

    /// A zero iteration cap finishes every solve at its λ₀ without
    /// iterating, under either policy.
    #[test]
    fn zero_iteration_caps_match_scalar() {
        let (tensors, starts) = workload::<f64>(4, 3, 10, 3, 8);
        for (name, policy) in [
            (
                "converge",
                IterationPolicy::Converge {
                    tol: 1e-10,
                    max_iters: 0,
                },
            ),
            ("fixed", IterationPolicy::Fixed(0)),
        ] {
            let solver = SsHopm::new(Shift::Convex).with_policy(policy);
            let got = assert_lockstep_matches_scalar(&tensors, &starts, solver, name);
            assert_eq!(got.total_iterations, 0, "{name}");
        }
    }

    #[test]
    fn negative_shift_branch_matches_scalar() {
        let (tensors, starts) = workload::<f64>(4, 3, 5, 3, 13);
        let solver = SsHopm::new(Shift::Fixed(-3.0)).with_tolerance(1e-12);
        assert_lockstep_matches_scalar(&tensors, &starts, solver, "negative shift");
    }

    /// A NaN shift fails the `α ≥ 0` test, so its lanes negate like the
    /// scalar iteration's and run to the cap.
    #[test]
    fn nan_shift_lanes_match_scalar() {
        let (tensors, starts) = workload::<f64>(4, 3, 9, 2, 14);
        let solver = SsHopm::new(Shift::Fixed(f64::NAN)).with_max_iters(5);
        let got = assert_lockstep_matches_scalar(&tensors, &starts, solver, "NaN shift");
        assert!(got.iter_flat().all(|(_, _, p)| !p.converged));
    }

    /// A start that already solves the shifted fixed point (ŷ = 0) ends
    /// its solve after one iteration with x and λ as they were, while the
    /// other lanes keep iterating, and its lane refills at once.
    #[test]
    fn degenerate_solves_end_in_place_and_refill() {
        // A·e₀³ = d·e₀, with d = 1 on every third tensor: from e₀ under
        // α = −1, ŷ = −(d·e₀ − e₀) vanishes exactly there and nowhere else.
        let tensors: Vec<SymTensor<f64>> = (0..11)
            .map(|t| {
                let d = if t % 3 == 0 { 1.0 } else { 2.0 + t as f64 };
                SymTensor::from_fn(4, 3, |class| match class.indices() {
                    [0, 0, 0, 0] => d,
                    [0, 0, 0, _] => 0.0,
                    [1, 1, 1, 1] => 0.5,
                    _ => 0.01,
                })
            })
            .collect();
        let tensors = TensorBatch::from_tensors(&tensors).unwrap();
        let e0 = vec![1.0, 0.0, 0.0];
        let starts = vec![e0.clone(), vec![0.3, 0.5, -0.4], e0, vec![-0.1, 0.9, 0.2]];
        for policy in [IterationPolicy::default(), IterationPolicy::Fixed(30)] {
            let solver = SsHopm::new(Shift::Fixed(-1.0)).with_policy(policy);
            let got = assert_lockstep_matches_scalar(&tensors, &starts, solver, "degenerate");
            let degenerate = got.iter_flat().filter(|(_, _, p)| p.iterations == 1);
            assert!(degenerate.count() >= 8, "{policy:?}");
        }
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
        let solver = SsHopm::new(Shift::Convex).with_tolerance(1e-12);
        let tel = Telemetry::disabled();
        let one = lockstep(&tensors, &starts, solver, 1, &tel);
        for threads in [2, 3] {
            let par = lockstep(&tensors, &starts, solver, threads, &tel);
            assert_same(&one, &par, &format!("{threads} threads"));
        }
    }

    /// Zero and short starts, in the middle of the list as well as first,
    /// poison only their own pairs, exactly as the scalar path does.
    #[test]
    fn bad_starts_poison_per_lane_without_panicking() {
        let (tensors, _) = workload::<f64>(4, 3, 10, 1, 5);
        let starts = vec![
            vec![0.0; 3],
            vec![0.5, 0.5, 0.5],
            vec![1.0, 0.0],
            vec![0.0; 3],
            vec![-0.2, 0.9, 0.1],
            vec![1.0, 0.0, 0.0, 0.0],
        ];
        for shift in [Shift::Fixed(1.0), Shift::Convex] {
            let solver = SsHopm::new(shift);
            let res = assert_lockstep_matches_scalar(&tensors, &starts, solver, "bad starts");
            for row in &res.results {
                for (v, pair) in row.iter().enumerate() {
                    let good = v == 1 || v == 4;
                    assert_eq!(pair.lambda.is_finite(), good, "start {v}");
                    if !good {
                        assert!(!pair.converged);
                        assert_eq!(pair.iterations, 0);
                    }
                }
            }
        }
    }

    /// An adaptive shift is not a constant of the tensor: passed to the
    /// driver directly, it poisons every pair instead of panicking.
    #[test]
    fn adaptive_shift_poisons_instead_of_panicking() {
        let (tensors, starts) = workload::<f64>(4, 3, 3, 2, 6);
        let res = solve_batch_lockstep(
            &BatchedKernels::new(4, 3),
            tensors.view(),
            &starts,
            Shift::Adaptive,
            IterationPolicy::default(),
            1,
            &Telemetry::disabled(),
        );
        assert_eq!(res.num_tensors(), 3);
        assert_eq!(res.total_iterations, 0);
        for (_, _, pair) in res.iter_flat() {
            assert!(pair.lambda.is_nan() && !pair.converged);
        }
    }

    #[test]
    fn lockstep_alpha_gates_on_solver_identity() {
        for shift in [Shift::Fixed(1.25), Shift::Convex, Shift::Concave] {
            let sshopm: &dyn Solver<f64> = &SsHopm::new(shift);
            assert_eq!(lockstep_alpha(sshopm), Some(shift));
        }
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
        let tel = Telemetry::enabled();
        let solver = SsHopm::new(Shift::Fixed(1.0)).with_policy(IterationPolicy::Fixed(5));
        let res = lockstep(&tensors, &starts, solver, 1, &tel);
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

    /// With telemetry on, every stream the AVX2 compilation ran counts
    /// once: all of them on an AVX2 host, none elsewhere and none in the
    /// baseline compilation.
    #[test]
    fn avx2_streams_count_the_streams_the_avx2_code_ran() {
        // Two streams: a full one and three tensors.
        let (tensors, starts) = workload::<f64>(4, 3, STREAM_TENSORS + 3, 2, 24);
        let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(3));
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        let avx2_streams =
            |tel: &Telemetry| tel.snapshot().counter("batch.avx2_streams").unwrap_or(0);
        for threads in [1, 2] {
            let tel = Telemetry::enabled();
            lockstep(&tensors, &starts, solver, threads, &tel);
            let want = if avx2 { 2 } else { 0 };
            assert_eq!(avx2_streams(&tel), want, "{threads} threads");
        }
        let tel = Telemetry::enabled();
        lockstep_baseline(&tensors, &starts, solver, 1, &tel);
        assert_eq!(avx2_streams(&tel), 0);
    }

    /// Lane slots the retired per-start panels computed for the same
    /// pairs: each panel of `LANE_WIDTH` consecutive tensors iterated one
    /// start until its slowest lane finished.
    fn per_start_panel_slots<S>(results: &[Vec<Eigenpair<S>>]) -> u64 {
        let mut slots = 0;
        for panel in results.chunks(LANE_WIDTH) {
            for v in 0..panel[0].len() {
                let longest = panel.iter().map(|row| row[v].iterations).max();
                slots += (LANE_WIDTH * longest.unwrap_or(0)) as u64;
            }
        }
        slots
    }

    #[test]
    fn lane_slots_count_panel_iterations() {
        // Every lane of every panel iteration is busy under `Fixed(k)`.
        let (tensors, starts) = workload::<f64>(4, 3, 16, 4, 22);
        let tel = Telemetry::enabled();
        let fixed = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(7));
        let res = lockstep(&tensors, &starts, fixed, 1, &tel);
        let snap = tel.snapshot();
        assert_eq!(res.total_iterations, 16 * 4 * 7);
        assert_eq!(snap.counter("batch.lane_slots"), Some(res.total_iterations));

        // Ragged convergence idles lanes only at the end of a stream.
        let (tensors, starts) = workload::<f64>(4, 3, 64, 16, 23);
        for threads in [1, 2] {
            let tel = Telemetry::enabled();
            let converge = SsHopm::new(Shift::Fixed(0.0)).with_tolerance(1e-10);
            let res = lockstep(&tensors, &starts, converge, threads, &tel);
            let slots = tel.snapshot().counter("batch.lane_slots").unwrap();
            let per_start = per_start_panel_slots(&res.results);
            assert!(slots >= res.total_iterations, "{threads} threads");
            assert!(
                slots < per_start,
                "{threads} threads: {slots} slots, {per_start} with per-start panels"
            );
        }
    }

    #[test]
    fn empty_batch_and_empty_starts() {
        let kernels = BatchedKernels::new(4, 3);
        let empty = TensorBatch::<f64>::new(4, 3).unwrap();
        let res = solve_batch_lockstep(
            &kernels,
            empty.view(),
            &[],
            Shift::Fixed(1.0),
            IterationPolicy::default(),
            1,
            &Telemetry::disabled(),
        );
        assert_eq!(res.num_tensors(), 0);
        assert_eq!(res.total_iterations, 0);
        let (tensors, _) = workload::<f64>(4, 3, 3, 0, 9);
        let res = solve_batch_lockstep(
            &kernels,
            tensors.view(),
            &[],
            Shift::Convex,
            IterationPolicy::default(),
            2,
            &Telemetry::disabled(),
        );
        assert_eq!(res.num_tensors(), 3);
        assert!(res.results.iter().all(Vec::is_empty));
    }

    /// Solve `tensors` in lockstep under `engine` on `threads` workers, in
    /// the AVX2 compilation where the CPU has it (`dispatch`) or else the
    /// baseline one: the kept rows or, with `lend`, the lent rows, each
    /// checked to arrive exactly once, in tensor order.
    fn drive<S: Scalar>(
        kernels: &BatchedKernels,
        tensors: &TensorBatch<S>,
        starts: &[Vec<S>],
        (shift, policy): (Shift, IterationPolicy),
        (threads, dispatch, lend): (usize, bool, bool),
    ) -> BatchResult<S> {
        let tel = Telemetry::disabled();
        let mut run = Run::new(kernels, tensors.view(), starts, shift, policy, &tel);
        run.dispatch = dispatch;
        if !lend {
            return run.solve(threads);
        }
        let rows: Vec<Mutex<Option<Vec<Eigenpair<S>>>>> =
            (0..tensors.len()).map(|_| Mutex::new(None)).collect();
        let each = |t: usize, row: &[Eigenpair<S>]| {
            let earlier = rows[t].lock().unwrap().replace(row.to_vec());
            assert!(earlier.is_none(), "tensor {t} lent twice");
        };
        run.each = Some(&each);
        let res = run.solve(threads);
        assert!(res.results.is_empty(), "a lending solve kept rows");
        let results = rows
            .into_iter()
            .enumerate()
            .map(|(t, row)| {
                let row = row.into_inner().unwrap();
                row.unwrap_or_else(|| panic!("tensor {t} was never lent"))
            })
            .collect();
        BatchResult {
            results,
            total_iterations: res.total_iterations,
        }
    }

    /// Assert that the lending path lends every tensor's row exactly
    /// once, bit-identical to the kept row, with the same iteration total:
    /// on one, two and three threads, in both compilations.
    fn assert_lent_rows_are_kept_rows<S: Scalar>(
        kernels: &BatchedKernels,
        tensors: &TensorBatch<S>,
        starts: &[Vec<S>],
        engine: (Shift, IterationPolicy),
        at: &str,
    ) -> BatchResult<S> {
        let kept = drive(kernels, tensors, starts, engine, (1, true, false));
        for threads in [1, 2, 3] {
            for dispatch in [true, false] {
                let lent = drive(kernels, tensors, starts, engine, (threads, dispatch, true));
                let how = format!("{at}, lent on {threads} threads, dispatch {dispatch}");
                assert_same(&kept, &lent, &how);
            }
        }
        kept
    }

    /// The lanes reuse a lent row, and each pair's `x`, for their next
    /// tensor; every row still arrives once, holding its own tensor's
    /// pairs: converged, capped, fixed-count, zero-cap and poisoned
    /// solves, per-lane shifts, both precisions, the compiled panels and
    /// the table walk, and batches of one to three streams.
    #[test]
    fn lent_rows_are_bitwise_the_kept_rows() {
        let converge = |shift| (shift, IterationPolicy::default());
        let capped = IterationPolicy::Converge {
            tol: 1e-14,
            max_iters: 4,
        };
        let engines = [
            ("convex", converge(Shift::Convex)),
            ("concave", converge(Shift::Concave)),
            ("negative shift", converge(Shift::Fixed(-3.0))),
            ("capped", (Shift::Fixed(0.0), capped)),
            ("fixed", (Shift::Fixed(0.5), IterationPolicy::Fixed(20))),
            ("fixed 0", (Shift::Convex, IterationPolicy::Fixed(0))),
        ];
        for (m, n) in [(4, 3), (5, 4)] {
            let kernels = BatchedKernels::new(m, n);
            let (tensors, starts) = workload::<f64>(m, n, 11, 3, 60 + m as u64);
            let (tensors32, starts32) = workload::<f32>(m, n, 11, 3, 70 + m as u64);
            for (name, engine) in engines {
                let at = format!("({m},{n}) {name}");
                assert_lent_rows_are_kept_rows(&kernels, &tensors, &starts, engine, &at);
                assert_lent_rows_are_kept_rows(&kernels, &tensors32, &starts32, engine, &at);
            }
        }

        // Zero, short and long starts among good ones poison their pairs.
        let kernels = BatchedKernels::new(4, 3);
        let (tensors, mut starts) = workload::<f64>(4, 3, 10, 3, 61);
        starts.splice(
            1..1,
            [vec![0.0; 3], vec![1.0, 0.0], vec![1.0, 0.0, 0.0, 0.0]],
        );
        let res = assert_lent_rows_are_kept_rows(
            &kernels,
            &tensors,
            &starts,
            converge(Shift::Convex),
            "bad starts",
        );
        assert!(res.iter_flat().any(|(_, v, p)| v == 2 && p.lambda.is_nan()));

        // Three streams: two full ones and three tensors.
        let count = 2 * STREAM_TENSORS + 3;
        let (tensors, starts) = workload::<f64>(4, 3, count, 2, 62);
        let engine = (Shift::Fixed(0.0), IterationPolicy::Fixed(3));
        let res = assert_lent_rows_are_kept_rows(&kernels, &tensors, &starts, engine, "streams");
        assert_eq!(res.total_iterations, (count * 2 * 3) as u64);
    }

    /// A tensor the lanes cannot run (a shift that is not a constant of
    /// the tensor, a shape the kernels were not built for) is lent its
    /// poisoned row once, like any other.
    #[test]
    fn rows_no_lane_iterates_are_lent_once() {
        let kernels = BatchedKernels::new(4, 3);
        let (tensors, starts) = workload::<f64>(4, 3, 12, 3, 63);
        let adaptive = (Shift::Adaptive, IterationPolicy::default());
        let res = assert_lent_rows_are_kept_rows(&kernels, &tensors, &starts, adaptive, "adaptive");
        let (other, _) = workload::<f64>(5, 3, 12, 0, 64);
        let engine = (Shift::Convex, IterationPolicy::default());
        let wrong = assert_lent_rows_are_kept_rows(&kernels, &other, &starts, engine, "shape");
        for res in [res, wrong] {
            assert_eq!(res.num_tensors(), 12);
            assert_eq!(res.total_iterations, 0);
            assert!(res
                .iter_flat()
                .all(|(_, _, p)| p.lambda.is_nan() && !p.converged));
        }
    }

    /// With no starts every tensor is lent an empty row, once.
    #[test]
    fn empty_starts_lend_every_tensor_an_empty_row() {
        let kernels = BatchedKernels::new(4, 3);
        let (tensors, _) = workload::<f64>(4, 3, STREAM_TENSORS + 5, 0, 65);
        let engine = (Shift::Convex, IterationPolicy::default());
        let res = assert_lent_rows_are_kept_rows(&kernels, &tensors, &[], engine, "no starts");
        assert_eq!(res.num_tensors(), STREAM_TENSORS + 5);
        assert!(res.results.iter().all(Vec::is_empty));
    }
}
