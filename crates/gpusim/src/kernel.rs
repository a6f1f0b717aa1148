//! The batched SS-HOPM kernels mapped onto the simulated GPU exactly as in
//! Section V of the paper: one thread block per tensor, one thread per
//! starting vector, the packed tensor staged into block-shared memory, the
//! iteration vectors in per-thread registers.
//!
//! The eigenpairs come from one numeric engine, `sshopm`'s lane driver
//! ([`sshopm::solve_batch_lockstep`]), the CPU analogue of that mapping:
//! it resolves the shift once per tensor (one `α` per block) and returns
//! the scalar iteration's bits. What a launch costs is a pass over their
//! iteration counts ([`crate::exec::run_grid`]).
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
use crate::multi::HostTransfer;
use crate::occupancy::{KernelResources, Occupancy};
use crate::stream::{Op, StreamId, StreamQueue};
use crate::timing::{estimate, weights, TimingEstimate};
use sshopm::{BatchResult, IterationPolicy, Shift};
use symtensor::flops;
use symtensor::lanes::COMPILED_SHAPES;
use symtensor::multinomial::{num_unique_entries, try_num_unique_entries};
use symtensor::{BatchedKernels, Scalar, TensorBatchRef};
use telemetry::Telemetry;

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

/// Launch the batched SS-HOPM problem on the simulated device.
///
/// This is a thin synchronous wrapper over the asynchronous path: it
/// builds the batch shape's [`BatchedKernels`], enqueues the launch's
/// three ops (upload, kernel, download) on a default stream of a fresh
/// single-device [`StreamQueue`] via [`enqueue_sshopm`] and immediately
/// synchronizes. Callers that want transfer/compute overlap enqueue on
/// their own queue instead (see [`crate::Cluster::launch`]).
///
/// Takes the batch as a borrowed [`TensorBatchRef`] (or anything that
/// converts into one, e.g. `&TensorBatch`): same-shape is guaranteed by
/// construction, and the packed arena is exactly the buffer a real driver
/// would ship to the device in one `cudaMemcpy`. Starting vectors are
/// shared by all blocks (Section V-C), and `shift` is resolved once per
/// tensor. Returns the eigenpairs, laid out and counted like a CPU batch,
/// plus the performance report.
///
/// # Errors
/// Returns a [`GpuError`] if the batch or `starts` is empty, the shift is
/// [`Shift::Adaptive`], the shape is too large to model, or the unrolled
/// variant is requested for a shape with no compiled kernel. (Mixed shapes
/// cannot reach the launch: [`symtensor::TensorBatch`] rejects them at
/// construction.)
pub fn launch_sshopm<'a, S: Scalar>(
    device: &DeviceSpec,
    batch: impl Into<TensorBatchRef<'a, S>>,
    starts: &[Vec<S>],
    policy: IterationPolicy,
    shift: Shift,
    variant: GpuVariant,
) -> Result<(BatchResult<S>, LaunchReport), GpuError> {
    let batch = batch.into();
    // An empty batch may carry any shape: fail before building its tables.
    if batch.is_empty() {
        return Err(GpuError::EmptyBatch);
    }
    let kernels = BatchedKernels::new(batch.order(), batch.dim());
    let mut queue = StreamQueue::new(1, crate::multi::TransferModel::pcie2());
    let stream = queue.stream(0);
    let out = enqueue_sshopm(
        &mut queue, stream, device, &kernels, batch, starts, policy, shift, variant,
    )?;
    // Default-stream semantics: block until everything is resolved. The
    // timeline of a lone launch carries no overlap to report; the
    // kernel-only `timing` in the report matches the paper's convention of
    // excluding transfers.
    let _ = queue.synchronize();
    Ok(out)
}

/// Enqueue one batched SS-HOPM launch on `stream` of `queue`.
///
/// The eigenpairs come back now, from one [`sshopm::solve_batch_lockstep`]
/// call over `kernels` on the current rayon pool, telemetry disabled (the
/// caller records the batch); the *clock* is deferred — the call charges
/// their iteration counts ([`run_grid`]) and enqueues
/// `HostToDevice(arena + starts)`, `Kernel(analytic estimate)` and
/// `DeviceToHost(packed eigenpairs)` ops that the queue's scheduler
/// resolves against the device's copy/compute engines at
/// [`StreamQueue::synchronize`]. The kernel op's duration is the full
/// [`TimingEstimate::seconds`], launch overhead included, so chunked
/// callers pay the overhead per chunk exactly like real launches.
///
/// # Errors
/// Same contract as [`launch_sshopm`], plus
/// [`GpuError::MismatchedShapes`] when `kernels` were built for another
/// shape than the batch's.
#[allow(clippy::too_many_arguments)]
pub fn enqueue_sshopm<'a, S: Scalar>(
    queue: &mut StreamQueue,
    stream: StreamId,
    device: &DeviceSpec,
    kernels: &BatchedKernels,
    batch: impl Into<TensorBatchRef<'a, S>>,
    starts: &[Vec<S>],
    policy: IterationPolicy,
    shift: Shift,
    variant: GpuVariant,
) -> Result<(BatchResult<S>, LaunchReport), GpuError> {
    let batch = batch.into();
    if batch.is_empty() {
        return Err(GpuError::EmptyBatch);
    }
    if starts.is_empty() {
        return Err(GpuError::EmptyStarts);
    }
    if matches!(shift, Shift::Adaptive) {
        return Err(GpuError::AdaptiveShift);
    }
    let m = batch.order();
    let n = batch.dim();
    if try_num_unique_entries(m, n).is_err() {
        return Err(GpuError::ShapeTooLarge { m, n });
    }
    if (kernels.order(), kernels.dim()) != (m, n) {
        return Err(GpuError::MismatchedShapes {
            expected: (kernels.order(), kernels.dim()),
            found: (m, n),
        });
    }
    if variant == GpuVariant::Unrolled && !COMPILED_SHAPES.contains(&(m, n)) {
        return Err(GpuError::NoUnrolledKernel { m, n });
    }

    let grid = GridConfig {
        num_blocks: batch.len(),
        threads_per_block: starts.len(),
        warp_size: device.warp_size,
    };
    let resources = KernelResources::sshopm(
        m,
        n,
        starts.len(),
        std::mem::size_of::<S>(),
        variant == GpuVariant::Unrolled,
    );
    let occupancy = Occupancy::compute(device, &resources);

    let result = sshopm::solve_batch_lockstep(
        kernels,
        batch,
        starts,
        shift,
        policy,
        0,
        &Telemetry::disabled(),
    );

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
    let stats = run_grid(
        grid,
        &cost,
        result
            .results
            .iter()
            .map(|row| row.iter().map(|pair| pair.iterations as u64)),
    );

    let useful_flops = stats.counters.useful_flops();
    let timing = estimate(device, grid.num_blocks, &stats, &occupancy);
    let gflops = timing.gflops(useful_flops);

    // The arena is contiguous, so the whole tensor payload goes down in a
    // single coalesced DMA (plus the shared starts); results come back in
    // one packed copy. A Vec-of-tensors layout would need one DMA per
    // tensor, paying the per-transfer latency `batch.len()` times.
    let elem = std::mem::size_of::<S>() as u64;
    let host_transfer = HostTransfer {
        down_bytes: (batch.values().len() + starts.len() * n) as u64 * elem,
        up_bytes: (batch.len() * starts.len()) as u64 * (n as u64 + 1) * elem,
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

    Ok((
        result,
        LaunchReport {
            variant,
            grid,
            resources,
            occupancy,
            stats,
            useful_flops,
            timing,
            gflops,
            host_transfer,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sshopm::starts::random_uniform_starts;
    use sshopm::{BatchSolver, SsHopm};
    use symtensor::{PrecomputedTables, SymTensor, TensorBatch};

    fn workload(t: usize, v: usize, seed: u64) -> (TensorBatch<f32>, Vec<Vec<f32>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tensors = TensorBatch::random(4, 3, t, &mut rng).unwrap();
        let starts = random_uniform_starts(3, v, &mut rng);
        (tensors, starts)
    }

    #[test]
    fn gpu_results_match_cpu_batch_exactly() {
        let (tensors, starts) = workload(8, 32, 1);
        let policy = IterationPolicy::Fixed(20);
        let device = DeviceSpec::tesla_c2050();
        for shift in [Shift::Fixed(0.0), Shift::Convex, Shift::Concave] {
            let (gpu, _) = launch_sshopm(
                &device,
                &tensors,
                &starts,
                policy,
                shift,
                GpuVariant::General,
            )
            .unwrap();
            let cpu = BatchSolver::new(SsHopm::new(shift).with_policy(policy))
                .with_threads(1)
                .run(
                    &PrecomputedTables::new(4, 3),
                    &tensors,
                    &starts,
                    &Telemetry::disabled(),
                );
            assert_eq!(gpu.total_iterations, cpu.total_iterations);
            for t in 0..8 {
                for v in 0..32 {
                    let (g, c) = (&gpu.results[t][v], &cpu.results[t][v]);
                    assert_eq!(g.lambda.to_bits(), c.lambda.to_bits(), "{shift:?}");
                    assert_eq!(g.x, c.x, "{shift:?}");
                    assert_eq!(g.alpha.to_bits(), c.alpha.to_bits(), "{shift:?}");
                    assert_eq!(g.iterations, c.iterations, "{shift:?}");
                }
            }
        }
    }

    #[test]
    fn unrolled_variant_matches_unrolled_cpu() {
        let (tensors, starts) = workload(4, 32, 2);
        let policy = IterationPolicy::Fixed(15);
        let device = DeviceSpec::tesla_c2050();
        let (gpu, _) = launch_sshopm(
            &device,
            &tensors,
            &starts,
            policy,
            Shift::Fixed(0.0),
            GpuVariant::Unrolled,
        )
        .unwrap();
        // Per tensor, the batched kernels run the compiled straight-line
        // code on (4, 3).
        let k = BatchedKernels::new(4, 3);
        let cpu = BatchSolver::new(SsHopm::new(Shift::Fixed(0.0)).with_policy(policy))
            .with_threads(1)
            .run(&k, &tensors, &starts, &Telemetry::disabled());
        for t in 0..4 {
            for v in 0..32 {
                assert_eq!(gpu.results[t][v].lambda, cpu.results[t][v].lambda);
            }
        }
    }

    #[test]
    fn unrolled_is_faster_than_general() {
        let (tensors, starts) = workload(64, 128, 3);
        let policy = IterationPolicy::Fixed(20);
        let device = DeviceSpec::tesla_c2050();
        let (_, general) = launch_sshopm(
            &device,
            &tensors,
            &starts,
            policy,
            Shift::Fixed(0.0),
            GpuVariant::General,
        )
        .unwrap();
        let (_, unrolled) = launch_sshopm(
            &device,
            &tensors,
            &starts,
            policy,
            Shift::Fixed(0.0),
            GpuVariant::Unrolled,
        )
        .unwrap();
        // Paper Table III(a): 18.7x on the GPU. The model should show a
        // large multiple (>4x) without hand-tuning to the exact figure.
        let speedup = general.timing.seconds / unrolled.timing.seconds;
        assert!(speedup > 4.0, "unrolled speedup only {speedup:.2}x");
        assert!(unrolled.gflops > general.gflops);
    }

    #[test]
    fn achieved_gflops_is_a_plausible_fraction_of_peak() {
        let (tensors, starts) = workload(1024, 128, 4);
        let policy = IterationPolicy::Fixed(20);
        let device = DeviceSpec::tesla_c2050();
        let (_, report) = launch_sshopm(
            &device,
            &tensors,
            &starts,
            policy,
            Shift::Fixed(0.0),
            GpuVariant::Unrolled,
        )
        .unwrap();
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
        let policy = IterationPolicy::Fixed(20);
        let device = DeviceSpec::tesla_c2050();
        let mut last = 0.0;
        let mut series = Vec::new();
        for t in [1usize, 4, 16, 64, 256, 1024] {
            let (tensors, starts) = workload(t, 128, 5);
            let (_, report) = launch_sshopm(
                &device,
                &tensors,
                &starts,
                policy,
                Shift::Fixed(0.0),
                GpuVariant::Unrolled,
            )
            .unwrap();
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
        let (tensors, starts) = workload(16, 64, 6);
        let device = DeviceSpec::tesla_c2050();
        let policy = IterationPolicy::Converge {
            tol: 1e-6,
            max_iters: 500,
        };
        let (_, report) = launch_sshopm(
            &device,
            &tensors,
            &starts,
            policy,
            Shift::Fixed(0.2),
            GpuVariant::Unrolled,
        )
        .unwrap();
        // Different threads converge at different iterations: SIMD
        // efficiency strictly below 1.
        let eff = report.stats.simd_efficiency(32);
        assert!(eff < 1.0, "expected divergence, got efficiency {eff}");
        assert!(eff > 0.1, "efficiency implausibly low: {eff}");
    }

    #[test]
    fn report_carries_consistent_metadata() {
        let (tensors, starts) = workload(10, 32, 7);
        let device = DeviceSpec::tesla_c2050();
        let (res, report) = launch_sshopm(
            &device,
            &tensors,
            &starts,
            IterationPolicy::Fixed(5),
            Shift::Fixed(0.0),
            GpuVariant::General,
        )
        .unwrap();
        assert_eq!(res.results.len(), 10);
        assert_eq!(res.results[0].len(), 32);
        assert_eq!(report.grid.num_blocks, 10);
        assert_eq!(report.grid.threads_per_block, 32);
        assert_eq!(report.variant.name(), "general");
        assert!(report.useful_flops > 0);
        assert!(report.gflops > 0.0);
        assert!(report.occupancy.blocks_per_sm > 0);
    }

    #[test]
    fn general_variant_moves_local_memory_traffic() {
        let (tensors, starts) = workload(8, 32, 8);
        let device = DeviceSpec::tesla_c2050();
        let policy = IterationPolicy::Fixed(10);
        let (_, g) = launch_sshopm(
            &device,
            &tensors,
            &starts,
            policy,
            Shift::Fixed(0.0),
            GpuVariant::General,
        )
        .unwrap();
        let (_, u) = launch_sshopm(
            &device,
            &tensors,
            &starts,
            policy,
            Shift::Fixed(0.0),
            GpuVariant::Unrolled,
        )
        .unwrap();
        assert!(g.stats.counters.global_words() > 10 * u.stats.counters.global_words());
    }

    #[test]
    fn unrolled_errors_for_ungenerated_shape() {
        let mut rng = StdRng::seed_from_u64(9);
        let tensors = TensorBatch::<f32>::random(5, 5, 1, &mut rng).unwrap();
        let starts = random_uniform_starts(5, 32, &mut rng);
        let device = DeviceSpec::tesla_c2050();
        let err = launch_sshopm(
            &device,
            &tensors,
            &starts,
            IterationPolicy::Fixed(5),
            Shift::Fixed(0.0),
            GpuVariant::Unrolled,
        )
        .unwrap_err();
        assert_eq!(err, GpuError::NoUnrolledKernel { m: 5, n: 5 });
    }

    #[test]
    fn adaptive_shift_and_foreign_kernels_error_cleanly() {
        let (tensors, starts) = workload(2, 8, 13);
        let device = DeviceSpec::tesla_c2050();
        let policy = IterationPolicy::Fixed(5);
        let err = launch_sshopm(
            &device,
            &tensors,
            &starts,
            policy,
            Shift::Adaptive,
            GpuVariant::General,
        )
        .unwrap_err();
        assert_eq!(err, GpuError::AdaptiveShift);

        let mut queue = StreamQueue::new(1, crate::multi::TransferModel::pcie2());
        let stream = queue.stream(0);
        let err = enqueue_sshopm(
            &mut queue,
            stream,
            &device,
            &BatchedKernels::new(3, 3),
            &tensors,
            &starts,
            policy,
            Shift::Fixed(0.0),
            GpuVariant::General,
        )
        .unwrap_err();
        assert_eq!(
            err,
            GpuError::MismatchedShapes {
                expected: (3, 3),
                found: (4, 3)
            }
        );
    }

    #[test]
    fn mixed_shapes_are_rejected_at_batch_construction() {
        // A mixed-shape launch is now structurally impossible: the batch
        // arena rejects the stray tensor before any device is involved.
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
        let (tensors, starts) = workload(8, 32, 12);
        let device = DeviceSpec::tesla_c2050();
        let (_, report) = launch_sshopm(
            &device,
            &tensors,
            &starts,
            IterationPolicy::Fixed(5),
            Shift::Fixed(0.0),
            GpuVariant::General,
        )
        .unwrap();
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
        let none = TensorBatch::<f32>::new(4, 3).unwrap();
        let starts = vec![vec![1.0f32, 0.0, 0.0]];
        let err = launch_sshopm(
            &device,
            &none,
            &starts,
            IterationPolicy::Fixed(5),
            Shift::Fixed(0.0),
            GpuVariant::General,
        )
        .unwrap_err();
        assert_eq!(err, GpuError::EmptyBatch);
        // An empty batch may carry a shape far too large to tabulate.
        let huge = TensorBatch::<f32>::new(6, 2000).unwrap();
        let err = launch_sshopm(
            &device,
            &huge,
            &starts,
            IterationPolicy::Fixed(5),
            Shift::Fixed(0.0),
            GpuVariant::General,
        )
        .unwrap_err();
        assert_eq!(err, GpuError::EmptyBatch);

        let mut rng = StdRng::seed_from_u64(11);
        let tensors = TensorBatch::<f32>::random(4, 3, 1, &mut rng).unwrap();
        let no_starts: Vec<Vec<f32>> = Vec::new();
        let err = launch_sshopm(
            &device,
            &tensors,
            &no_starts,
            IterationPolicy::Fixed(5),
            Shift::Fixed(0.0),
            GpuVariant::General,
        )
        .unwrap_err();
        assert_eq!(err, GpuError::EmptyStarts);
    }
}
