//! The batched SS-HOPM kernels mapped onto the simulated GPU exactly as in
//! Section V of the paper: one thread block per tensor, one thread per
//! starting vector, the packed tensor staged into block-shared memory, the
//! iteration vectors in per-thread registers.
//!
//! A launch prices work that is already done: the caller solves the batch
//! (the `backend` crate runs `sshopm`'s lane driver once per batch, the CPU
//! analogue of this mapping) and hands the launch only what the mapping's
//! cost depends on ([`IterationCounts`]): the shape, the scalar width, the
//! start count and each solve's iteration count. The cost is a pass over
//! those counts ([`crate::exec::run_grid`]).
//!
//! Two kernel variants mirror the paper's, and differ only in that cost:
//!
//! * **Unrolled** — straight-line kernels (compiled for
//!   [`symtensor::lanes::COMPILED_SHAPES`]); `x`/`y` live in registers,
//!   coefficients are compile-time constants.
//! * **General** — the Figure 2/3 loops with shared index/coefficient
//!   tables. Crucially, the dynamically-indexed iteration vectors cannot
//!   live in the register file (on a real GPU a dynamically indexed local
//!   array spills to *local memory*, which is device memory); the model
//!   charges those accesses as global traffic with an issue-slot penalty.
//!   This is the indirection the paper's Section V-D unrolling removes and
//!   is the main source of its 18.7× GPU unrolled speedup.

use crate::counters::OpCounters;
use crate::device::DeviceSpec;
use crate::error::GpuError;
use crate::exec::{run_grid, GridConfig, GridCost, LaunchStats};
use crate::multi::{problem_traffic_bytes, HostTransfer};
use crate::occupancy::{KernelResources, Occupancy};
use crate::stream::{Op, StreamId, StreamQueue};
use crate::timing::{estimate, weights, TimingEstimate};
use std::ops::Range;
use symtensor::flops;
use symtensor::lanes::COMPILED_SHAPES;
use symtensor::multinomial::{num_unique_entries, try_num_unique_entries};

/// Which kernel variant to launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuVariant {
    /// Figure 2/3 loop kernels with shared tables (works for any shape).
    General,
    /// Straight-line generated kernels (only for compiled shapes).
    Unrolled,
}

impl GpuVariant {
    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            GpuVariant::General => "general",
            GpuVariant::Unrolled => "unrolled",
        }
    }
}

/// What a launch prices: a batch's shape and scalar width, and the
/// iteration count of every (tensor, start) solve in tensor-major order —
/// tensor `t`'s row is `iterations[t * num_starts..(t + 1) * num_starts]`.
/// This is all the Section V-B mapping's cost depends on; the eigenpairs
/// themselves never reach the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IterationCounts<'a> {
    pub(crate) order: usize,
    pub(crate) dim: usize,
    pub(crate) elem_bytes: usize,
    pub(crate) num_starts: usize,
    iterations: &'a [u64],
}

impl<'a> IterationCounts<'a> {
    /// The counts of a batch of order-`order`, dimension-`dim` tensors
    /// whose scalars are `elem_bytes` wide, each solved from `num_starts`
    /// starts.
    ///
    /// # Errors
    /// [`GpuError::EmptyStarts`] when `num_starts` is zero, and
    /// [`GpuError::RaggedCounts`] when `iterations` is not a whole number
    /// of rows of `num_starts`.
    pub fn new(
        order: usize,
        dim: usize,
        elem_bytes: usize,
        num_starts: usize,
        iterations: &'a [u64],
    ) -> Result<Self, GpuError> {
        if num_starts == 0 {
            return Err(GpuError::EmptyStarts);
        }
        if !iterations.len().is_multiple_of(num_starts) {
            return Err(GpuError::RaggedCounts {
                counts: iterations.len(),
                starts: num_starts,
            });
        }
        Ok(Self {
            order,
            dim,
            elem_bytes,
            num_starts,
            iterations,
        })
    }

    /// Tensors counted: the blocks of a launch.
    pub(crate) fn num_tensors(&self) -> usize {
        self.iterations.len() / self.num_starts
    }

    /// Total iterations of every solve.
    pub fn total(&self) -> u64 {
        self.iterations.iter().sum()
    }

    /// The counts of tensors `tensors.start..tensors.end`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds (slice-indexing semantics).
    pub fn slice(&self, tensors: Range<usize>) -> IterationCounts<'a> {
        let v = self.num_starts;
        IterationCounts {
            iterations: &self.iterations[tensors.start * v..tensors.end * v],
            ..*self
        }
    }

    /// Each tensor's row of counts, in order.
    fn rows(&self) -> impl Iterator<Item = &'a [u64]> {
        self.iterations.chunks_exact(self.num_starts)
    }
}

/// Per-thread, per-iteration operation counts for a given shape and
/// variant. These are analytic counts of exactly what the corresponding
/// kernel executes per SS-HOPM iteration; the cost pass multiplies them by
/// each thread's actual iteration count.
fn per_iteration_counters(m: usize, n: usize, variant: GpuVariant) -> OpCounters {
    let u = num_unique_entries(m, n);
    let inc = flops::distinct_incidences(m, n);
    let (m64, n64) = (m as u64, n as u64);

    let mut c = OpCounters::default();
    // A·x^{m-1}: per (class, distinct index) incidence — monomial product
    // (m-2 muls), coefficient and value multiplies, one accumulate.
    c.fmul += inc * m64;
    c.fadd += inc;
    // shift-add alpha*x and the lambda = A·x^m evaluation.
    c.ffma += n64; // y += alpha * x
    c.fmul += u * (m64 + 1); // monomial + coeff + value per class
    c.fadd += u;
    // normalization: sum of squares (ffma), sqrt, divide by the norm.
    c.ffma += n64;
    c.fsqrt += 1;
    c.fdiv += n64;
    // Tensor reads from shared memory: one per class for A·x^m, one per
    // incidence for A·x^{m-1}.
    c.shared_loads += u + inc;

    match variant {
        GpuVariant::Unrolled => {
            // Index information folded into the instruction stream: no
            // integer bookkeeping, vectors in registers.
        }
        GpuVariant::General => {
            // UPDATEINDEX + MULTINOMIAL passes: O(m) integer work per class
            // for A·x^m and per incidence for A·x^{m-1}.
            c.int_ops += u * 2 * m64 + inc * 2 * m64;
            // Index representations read from the shared tables.
            c.shared_loads += u * m64 + inc * m64;
            // Dynamically-indexed x/y cannot stay in registers: local
            // (= device) memory traffic. Per class, A·x^m reads x m times;
            // per incidence, A·x^{m-1} reads x (m-1) times and
            // reads+writes y once each.
            c.global_loads += u * m64 + inc * (m64 - 1) + inc;
            c.global_stores += inc;
        }
    }
    c
}

/// Issue-slot weight of one iteration's instructions (divergence-aware
/// warp accounting multiplies this by the slowest lane's iteration count).
fn per_iteration_weight(c: &OpCounters) -> u64 {
    c.fadd + c.fmul + c.ffma + c.int_ops
        + weights::FDIV * c.fdiv
        + weights::FSQRT * c.fsqrt
        + weights::SHARED * c.shared_accesses()
        // Local-memory (spilled vector) accesses cost several issue slots
        // even when the latency itself is hidden.
        + 4 * c.global_words()
}

/// Everything the launch reports besides the numerics.
#[derive(Debug, Clone)]
pub struct LaunchReport {
    /// Kernel variant launched.
    pub variant: GpuVariant,
    /// Grid geometry.
    pub grid: GridConfig,
    /// Static resource footprint used for occupancy.
    pub resources: KernelResources,
    /// Occupancy on the target device.
    pub occupancy: Occupancy,
    /// The cost pass's warp and operation statistics.
    pub stats: LaunchStats,
    /// Useful floating-point operations executed.
    pub useful_flops: u64,
    /// The timing estimate.
    pub timing: TimingEstimate,
    /// Estimated achieved GFLOP/s.
    pub gflops: f64,
    /// Host↔device staging for this launch: one coalesced copy each way,
    /// because the batch arena is a single contiguous allocation. Kernel
    /// timing (`timing`/`gflops`) deliberately excludes it — the copy
    /// *time* lives on the event timeline, where the stream scheduler
    /// charges each `HostToDevice`/`DeviceToHost` op against the caller's
    /// [`crate::TransferModel`].
    pub host_transfer: HostTransfer,
}

impl LaunchReport {
    /// Fold the report of a later chunk launched on the *same device and
    /// variant* into this one, giving one per-device report: counts,
    /// stats, flops and serial kernel seconds add up; occupancy and
    /// resources are per-launch constants and carry over.
    pub fn merge(&mut self, next: &LaunchReport) {
        self.grid.num_blocks += next.grid.num_blocks;
        self.stats.counters.merge(&next.stats.counters);
        self.stats.warp_serial_instructions += next.stats.warp_serial_instructions;
        self.stats.thread_instructions += next.stats.thread_instructions;
        self.stats.num_warps += next.stats.num_warps;
        self.useful_flops += next.useful_flops;
        // Kernel time on one device is serial regardless of streams (one
        // compute engine), so seconds add; per-chunk launch overhead is
        // already inside each estimate.
        let (sa, sb) = (self.timing.seconds, next.timing.seconds);
        self.timing.compute_seconds += next.timing.compute_seconds;
        self.timing.memory_seconds += next.timing.memory_seconds;
        self.timing.seconds += next.timing.seconds;
        if sa + sb > 0.0 {
            self.timing.issue_efficiency =
                (self.timing.issue_efficiency * sa + next.timing.issue_efficiency * sb) / (sa + sb);
        }
        self.timing.active_sms = self.timing.active_sms.max(next.timing.active_sms);
        self.gflops = self.timing.gflops(self.useful_flops);
        self.host_transfer.down_bytes += next.host_transfer.down_bytes;
        self.host_transfer.up_bytes += next.host_transfer.up_bytes;
        self.host_transfer.down_copies += next.host_transfer.down_copies;
        self.host_transfer.up_copies += next.host_transfer.up_copies;
    }
}

/// Enqueue one batched SS-HOPM launch of `counts` on `stream` of `queue`.
///
/// The call charges the iteration counts ([`run_grid`]) and enqueues
/// `HostToDevice(arena + starts)`, `Kernel(analytic estimate)` and
/// `DeviceToHost(packed eigenpairs)` ops; the *clock* is deferred — the
/// queue's scheduler resolves them against the device's copy/compute
/// engines at [`StreamQueue::synchronize`]. The kernel op's duration is
/// the full [`TimingEstimate::seconds`], launch overhead included, so
/// chunked callers pay the overhead per chunk exactly like real launches.
///
/// # Errors
/// Returns a [`GpuError`] if `counts` holds no tensor, the shape is too
/// large to model, or the unrolled variant is requested for a shape with
/// no compiled kernel.
pub fn enqueue_sshopm(
    queue: &mut StreamQueue,
    stream: StreamId,
    device: &DeviceSpec,
    counts: IterationCounts<'_>,
    variant: GpuVariant,
) -> Result<LaunchReport, GpuError> {
    // An empty batch may carry any shape: fail before sizing its tables.
    if counts.num_tensors() == 0 {
        return Err(GpuError::EmptyBatch);
    }
    let (m, n) = (counts.order, counts.dim);
    if try_num_unique_entries(m, n).is_err() {
        return Err(GpuError::ShapeTooLarge { m, n });
    }
    if variant == GpuVariant::Unrolled && !COMPILED_SHAPES.contains(&(m, n)) {
        return Err(GpuError::NoUnrolledKernel { m, n });
    }

    let grid = GridConfig {
        num_blocks: counts.num_tensors(),
        threads_per_block: counts.num_starts,
        warp_size: device.warp_size,
    };
    let resources = KernelResources::sshopm(
        m,
        n,
        counts.num_starts,
        counts.elem_bytes,
        variant == GpuVariant::Unrolled,
    );
    let occupancy = Occupancy::compute(device, &resources);

    let per_iteration = per_iteration_counters(m, n, variant);
    let u = num_unique_entries(m, n);
    // Cooperative staging of the tensor (and, for the general variant,
    // the index/coefficient tables) from global into shared memory. The
    // block's 15 (for the paper shape) values sit contiguously in the
    // arena at `block * stride`, so consecutive blocks read adjacent,
    // naturally aligned segments of device memory.
    let table_words = match variant {
        GpuVariant::General => u * m as u64 + u, // index reps + coeffs
        GpuVariant::Unrolled => 0,
    };
    let cost = GridCost {
        per_iteration,
        iteration_weight: per_iteration_weight(&per_iteration),
        // Final eigenvector/eigenvalue write-back to global memory.
        per_thread: OpCounters {
            global_stores: n as u64 + 1,
            ..Default::default()
        },
        // Consecutive threads load consecutive words: fully coalesced, so
        // the word count is the traffic (transactions only round up).
        per_block: OpCounters {
            global_loads: u + table_words,
            shared_stores: u + table_words,
            ..Default::default()
        },
    };
    let stats = run_grid(grid, &cost, counts.rows().map(|row| row.iter().copied()));

    let useful_flops = stats.counters.useful_flops();
    let timing = estimate(device, grid.num_blocks, &stats, &occupancy);
    let gflops = timing.gflops(useful_flops);

    // The arena is contiguous, so the whole tensor payload goes down in a
    // single coalesced DMA (plus the shared starts); results come back in
    // one packed copy. A Vec-of-tensors layout would need one DMA per
    // tensor, paying the per-transfer latency once per tensor.
    let (down_bytes, up_bytes) = problem_traffic_bytes(
        grid.num_blocks,
        grid.threads_per_block,
        m,
        n,
        counts.elem_bytes,
    );
    let host_transfer = HostTransfer {
        down_bytes,
        up_bytes,
        down_copies: 1,
        up_copies: 1,
    };

    // The launch as the device sees it: upload, compute, download — three
    // in-order ops on the caller's stream, scheduled lazily against the
    // device's engines.
    queue.enqueue(
        stream,
        Op::HostToDevice {
            bytes: host_transfer.down_bytes,
        },
    );
    queue.enqueue(
        stream,
        Op::Kernel {
            seconds: timing.seconds,
        },
    );
    queue.enqueue(
        stream,
        Op::DeviceToHost {
            bytes: host_transfer.up_bytes,
        },
    );

    Ok(LaunchReport {
        variant,
        grid,
        resources,
        occupancy,
        stats,
        useful_flops,
        timing,
        gflops,
        host_transfer,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::multi::TransferModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use symtensor::{SymTensor, TensorBatch};

    /// One launch of `counts`, alone on a fresh single-device queue.
    pub(crate) fn launch(
        device: &DeviceSpec,
        counts: IterationCounts<'_>,
        variant: GpuVariant,
    ) -> Result<LaunchReport, GpuError> {
        let mut queue = StreamQueue::new(1, TransferModel::pcie2());
        let stream = queue.stream(0);
        enqueue_sshopm(&mut queue, stream, device, counts, variant)
    }

    /// `t` tensors × `v` starts, each solve `iters` long: what a fixed
    /// iteration budget runs.
    pub(crate) fn uniform(t: usize, v: usize, iters: u64) -> Vec<u64> {
        vec![iters; t * v]
    }

    /// Counts that differ from solve to solve, as a convergence policy's
    /// do.
    fn ragged(t: usize, v: usize, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..t * v).map(|_| rng.gen_range(5u64..200)).collect()
    }

    /// `iterations` as (4, 3) `f32` solves from `v` starts each.
    pub(crate) fn paper_shape(v: usize, iterations: &[u64]) -> IterationCounts<'_> {
        IterationCounts::new(4, 3, 4, v, iterations).unwrap()
    }

    #[test]
    fn counts_are_tensor_major_rows() {
        let iterations: Vec<u64> = (0..12).collect();
        let counts = paper_shape(4, &iterations);
        assert_eq!(counts.num_tensors(), 3);
        assert_eq!(counts.total(), 66);
        let middle = counts.slice(1..2);
        assert_eq!(middle.num_tensors(), 1);
        assert_eq!(
            middle.rows().collect::<Vec<_>>(),
            vec![&[4u64, 5, 6, 7][..]]
        );
        assert_eq!(
            (
                middle.order,
                middle.dim,
                middle.elem_bytes,
                middle.num_starts
            ),
            (4, 3, 4, 4)
        );
        assert_eq!(counts.slice(3..3).num_tensors(), 0);
    }

    #[test]
    fn unrolled_is_faster_than_general() {
        let iterations = uniform(64, 128, 20);
        let counts = paper_shape(128, &iterations);
        let device = DeviceSpec::tesla_c2050();
        let general = launch(&device, counts, GpuVariant::General).unwrap();
        let unrolled = launch(&device, counts, GpuVariant::Unrolled).unwrap();
        // Paper Table III(a): 18.7x on the GPU. The model should show a
        // large multiple (>4x) without hand-tuning to the exact figure.
        let speedup = general.timing.seconds / unrolled.timing.seconds;
        assert!(speedup > 4.0, "unrolled speedup only {speedup:.2}x");
        assert!(unrolled.gflops > general.gflops);
    }

    #[test]
    fn achieved_gflops_is_a_plausible_fraction_of_peak() {
        let iterations = uniform(1024, 128, 20);
        let device = DeviceSpec::tesla_c2050();
        let report = launch(&device, paper_shape(128, &iterations), GpuVariant::Unrolled).unwrap();
        let frac = report.gflops / device.peak_sp_gflops();
        // Paper: 31% of peak. Accept a generous band around it.
        assert!(
            (0.1..=0.6).contains(&frac),
            "achieved fraction {frac:.3} ({:.1} GFLOPS)",
            report.gflops
        );
    }

    #[test]
    fn throughput_ramps_with_problem_size_then_saturates() {
        // Figure 5's GPU curve: small T underutilizes the device.
        let device = DeviceSpec::tesla_c2050();
        let mut last = 0.0;
        let mut series = Vec::new();
        for t in [1usize, 4, 16, 64, 256, 1024] {
            let iterations = uniform(t, 128, 20);
            let report =
                launch(&device, paper_shape(128, &iterations), GpuVariant::Unrolled).unwrap();
            series.push((t, report.gflops));
            assert!(
                report.gflops >= last * 0.95,
                "throughput should not collapse as T grows: {series:?}"
            );
            last = report.gflops;
        }
        // Saturation: the last doubling gains little.
        let g256 = series[4].1;
        let g1024 = series[5].1;
        assert!(g1024 < g256 * 1.5, "{series:?}");
        // Ramp: 1024 tensors much faster than 1.
        assert!(g1024 > series[0].1 * 5.0, "{series:?}");
    }

    #[test]
    fn divergence_costs_show_up_with_convergence_policy() {
        let iterations = ragged(16, 64, 6);
        let device = DeviceSpec::tesla_c2050();
        let report = launch(&device, paper_shape(64, &iterations), GpuVariant::Unrolled).unwrap();
        // Different threads converge at different iterations: SIMD
        // efficiency strictly below 1.
        let eff = report.stats.simd_efficiency(32);
        assert!(eff < 1.0, "expected divergence, got efficiency {eff}");
        assert!(eff > 0.1, "efficiency implausibly low: {eff}");
    }

    #[test]
    fn report_carries_consistent_metadata() {
        let iterations = uniform(10, 32, 5);
        let device = DeviceSpec::tesla_c2050();
        let report = launch(&device, paper_shape(32, &iterations), GpuVariant::General).unwrap();
        assert_eq!(report.grid.num_blocks, 10);
        assert_eq!(report.grid.threads_per_block, 32);
        assert_eq!(report.variant.name(), "general");
        assert!(report.useful_flops > 0);
        assert!(report.gflops > 0.0);
        assert!(report.occupancy.blocks_per_sm > 0);
    }

    #[test]
    fn general_variant_moves_local_memory_traffic() {
        let iterations = uniform(8, 32, 10);
        let counts = paper_shape(32, &iterations);
        let device = DeviceSpec::tesla_c2050();
        let g = launch(&device, counts, GpuVariant::General).unwrap();
        let u = launch(&device, counts, GpuVariant::Unrolled).unwrap();
        assert!(g.stats.counters.global_words() > 10 * u.stats.counters.global_words());
    }

    #[test]
    fn unrolled_errors_for_ungenerated_shape() {
        let iterations = uniform(1, 32, 5);
        let counts = IterationCounts::new(5, 5, 4, 32, &iterations).unwrap();
        let err = launch(&DeviceSpec::tesla_c2050(), counts, GpuVariant::Unrolled).unwrap_err();
        assert_eq!(err, GpuError::NoUnrolledKernel { m: 5, n: 5 });
    }

    #[test]
    fn mixed_shapes_are_rejected_at_batch_construction() {
        // A launch never sees a mixed-shape batch: the arena rejects the
        // stray tensor before anything is solved or priced.
        let mut rng = StdRng::seed_from_u64(10);
        let mut batch = TensorBatch::<f32>::new(4, 3).unwrap();
        batch
            .push(&SymTensor::<f32>::random(4, 3, &mut rng))
            .unwrap();
        let err = batch
            .push(&SymTensor::<f32>::random(3, 3, &mut rng))
            .unwrap_err();
        assert_eq!(
            err,
            symtensor::Error::ShapeMismatch {
                expected: (4, 3),
                found: (3, 3)
            }
        );
        assert_eq!(batch.len(), 1, "the bad tensor must not be staged");
    }

    #[test]
    fn host_transfer_is_one_coalesced_copy_each_way() {
        let iterations = uniform(8, 32, 5);
        let device = DeviceSpec::tesla_c2050();
        let report = launch(&device, paper_shape(32, &iterations), GpuVariant::General).unwrap();
        let ht = report.host_transfer;
        assert_eq!(ht.down_copies, 1);
        assert_eq!(ht.up_copies, 1);
        // 8 tensors x 15 packed entries + 32 starts of 3 floats, f32.
        assert_eq!(ht.down_bytes, (8 * 15 + 32 * 3) * 4);
        assert_eq!(ht.up_bytes, 8 * 32 * (3 + 1) * 4);
    }

    #[test]
    fn empty_batch_and_empty_starts_error_cleanly() {
        let device = DeviceSpec::tesla_c2050();
        let err = launch(&device, paper_shape(1, &[]), GpuVariant::General).unwrap_err();
        assert_eq!(err, GpuError::EmptyBatch);
        // An empty batch may carry a shape far too large to tabulate.
        let huge = IterationCounts::new(6, 2000, 4, 1, &[]).unwrap();
        let err = launch(&device, huge, GpuVariant::General).unwrap_err();
        assert_eq!(err, GpuError::EmptyBatch);

        let err = IterationCounts::new(4, 3, 4, 0, &[]).unwrap_err();
        assert_eq!(err, GpuError::EmptyStarts);
        let err = IterationCounts::new(4, 3, 4, 2, &[5, 5, 5]).unwrap_err();
        assert_eq!(
            err,
            GpuError::RaggedCounts {
                counts: 3,
                starts: 2
            }
        );
        assert!(err.to_string().contains("3 iteration counts"), "{err}");
    }
}
