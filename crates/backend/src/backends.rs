//! The [`SolveBackend`] trait and its two substrate implementations: the
//! CPU ([`CpuParallel`]) and the simulated GPU ([`GpuSimBackend`]), whose
//! topology — one device, one multi-GPU host or a cluster — is data.

use crate::report::{BatchReport, DeviceProfile};
use crate::spec::{device_slug, BackendError};
use crate::strategy::{KernelRegistry, KernelStrategy};
use gpusim::{
    Cluster, DeviceSlice, DeviceSpec, GpuError, Host, IterationCounts, ProfileSnapshot, Schedule,
    TransferModel,
};
use sshopm::batch::{BatchResult, BatchSolver};
use sshopm::{Eigenpair, IterationPolicy, Shift, Solver};
use std::time::Instant;
use symtensor::{flops, BatchedKernels, Scalar, TensorBatch, TensorBatchRef};
use telemetry::{CommStats, HostStats, Telemetry};

/// Tensors per launch chunk, for pipelined and cluster schedules and for
/// the resilient backend, whose chunks bound the blast radius of a fault.
pub(crate) const CHUNK_TENSORS: usize = 256;

/// An execution substrate for the paper's batched SS-HOPM workload: many
/// same-shaped tensors, each solved from a shared set of starting vectors.
///
/// Implementations differ only in *where* the arithmetic runs; the
/// numerics are the identical library kernels everywhere, so all backends
/// produce bit-identical eigenpairs for the same kernel strategy (the
/// backend-parity test in this crate asserts exactly that).
///
/// The trait is object-safe: dispatch on `Box<dyn SolveBackend<S>>` built
/// from a [`crate::BackendSpec`].
pub trait SolveBackend<S: Scalar>: Sync {
    /// Human-readable backend label for reports (`cpu:4`, `gpusim:...`).
    fn label(&self) -> String;

    /// Solve every tensor from every starting vector with `solver`'s
    /// iteration scheme (SS-HOPM, GEAP, QRST, ...), recording progress on
    /// `telemetry`.
    ///
    /// The batch arrives as a [`TensorBatch`]: one contiguous arena of
    /// same-shape packed tensors, so every backend can hand sub-ranges
    /// around by zero-copy slicing and GPU-style substrates can model the
    /// host→device staging as a single coalesced transfer. Uniform shape
    /// is guaranteed by construction. CPU substrates run any
    /// [`Solver`]; GPU-simulated backends run the solvers the lockstep
    /// lanes run ([`sshopm::lockstep_alpha`]: SS-HOPM under a fixed,
    /// convex or concave shift, each a constant of the tensor, so one `α`
    /// per thread block) and return a descriptive [`BackendError`]
    /// pointing at the CPU backends otherwise: the adaptive shift and the
    /// GEAP and QRST iterations re-evaluate per iterate, so they stay on
    /// the CPU. Overflowing shapes are reported as errors, never panics.
    fn solve_batch(
        &self,
        batch: &TensorBatch<S>,
        starts: &[Vec<S>],
        solver: &dyn Solver<S>,
        telemetry: &Telemetry,
    ) -> Result<BatchReport<S>, BackendError>;

    /// Like [`solve_batch`](SolveBackend::solve_batch), but also returns
    /// the unified [`telemetry::RunReport`] with the run's aggregated
    /// telemetry (counters, gauges, histograms) folded in. Every backend
    /// produces one, with per-chunk latency quantiles.
    fn solve_batch_with_report(
        &self,
        batch: &TensorBatch<S>,
        starts: &[Vec<S>],
        solver: &dyn Solver<S>,
        telemetry: &Telemetry,
    ) -> Result<(BatchReport<S>, telemetry::RunReport), BackendError> {
        let report = self.solve_batch(batch, starts, solver, telemetry)?;
        let mut run = report.run_report();
        if telemetry.is_enabled() {
            run.merge_telemetry(&telemetry.snapshot());
        }
        Ok((report, run))
    }

    /// Like [`solve_batch`](SolveBackend::solve_batch), but lend each
    /// tensor's row of pairs to `each`, by batch index, instead of
    /// returning a report: every tensor's row exactly once, bit-identical
    /// to the row `solve_batch` returns for it, in no fixed order and
    /// possibly from several threads at once.
    ///
    /// The default calls `solve_batch` and lends its rows in order on the
    /// calling thread. [`CpuParallel`] lends each row on the worker that
    /// solved it, and its lanes reuse the row's memory for their next
    /// tensor, so a caller that keeps only what it derives from each row
    /// never holds the per-start pairs. With no report, that path emits
    /// no `run.report` event.
    fn solve_batch_each(
        &self,
        batch: &TensorBatch<S>,
        starts: &[Vec<S>],
        solver: &dyn Solver<S>,
        telemetry: &Telemetry,
        each: &(dyn Fn(usize, &[Eigenpair<S>]) + Sync),
    ) -> Result<(), BackendError> {
        let report = self.solve_batch(batch, starts, solver, telemetry)?;
        for (t, row) in report.results.iter().enumerate() {
            each(t, row);
        }
        Ok(())
    }
}

/// Attach the kernel-registry activity since `cache_before` and emit the
/// run's unified report as a structured `run.report` event, so sinks
/// (JSON-lines, memory) and the snapshot's event list carry the same
/// record the `report` renderers print. The last step of every
/// successful solve.
pub(crate) fn finish<S: Scalar>(
    mut report: BatchReport<S>,
    cache_before: &kernelgen::CacheStats,
    telemetry: &Telemetry,
) -> BatchReport<S> {
    report.kernel_cache = kernel_cache_delta(cache_before);
    if telemetry.is_enabled() {
        use serde::Serialize as _;
        telemetry.event("run.report", report.run_report().to_value());
    }
    report
}

/// A report with no results, for an empty batch; `kernel` is the name the
/// backend reports for a non-empty batch of the same shape.
pub(crate) fn empty_report<S: Scalar>(
    label: String,
    kernel: &str,
    solver: &dyn Solver<S>,
) -> BatchReport<S> {
    BatchReport::new(label, kernel, solver.name(), Vec::new(), 0, 0.0, 0)
}

/// What the process-wide kernel registry did since `before`, in the
/// [`telemetry::KernelCacheStats`] export form reports carry. `None` when
/// this solve touched no registry-managed kernels, so reports from paths
/// that never consult the registry stay unchanged.
fn kernel_cache_delta(before: &kernelgen::CacheStats) -> Option<telemetry::KernelCacheStats> {
    let d = KernelRegistry::global().stats().delta_since(before);
    if d.is_empty() {
        return None;
    }
    Some(telemetry::KernelCacheStats {
        memo_hits: d.memo_hits,
        memo_misses: d.memo_misses,
    })
}

/// The paper's CPU rows: `threads == 1` is the strictly sequential
/// "CPU – 1 core" row on the calling thread, `k > 1` the OpenMP rows on a
/// dedicated `k`-worker rayon pool, `0` the global pool.
#[derive(Debug, Clone, Copy)]
pub struct CpuParallel {
    /// Worker threads: `1` = sequential on the calling thread, `0` = the
    /// global rayon pool, `k` = a dedicated pool of exactly `k` workers
    /// (the 4-core / 8-core benchmark rows).
    pub threads: usize,
    /// Kernel strategy, resolved to a plan per shape by the registry; the
    /// plan, not the strategy, picks the engine.
    pub strategy: KernelStrategy,
}

impl CpuParallel {
    /// A CPU backend on `threads` workers (`1` = sequential, `0` = all
    /// cores).
    pub fn new(threads: usize, strategy: KernelStrategy) -> Self {
        Self { threads, strategy }
    }
}

impl<S: Scalar> SolveBackend<S> for CpuParallel {
    fn label(&self) -> String {
        match self.threads {
            0 => "cpu:all".to_string(),
            1 => "cpu".to_string(),
            k => format!("cpu:{k}"),
        }
    }

    fn solve_batch(
        &self,
        batch: &TensorBatch<S>,
        starts: &[Vec<S>],
        solver: &dyn Solver<S>,
        telemetry: &Telemetry,
    ) -> Result<BatchReport<S>, BackendError> {
        let label = SolveBackend::<S>::label(self);
        let (m, n) = (batch.order(), batch.dim());
        let registry = KernelRegistry::global();
        let cache_before = registry.stats();
        // The plan picks the engine: a plan that is the batched kernels
        // runs SS-HOPM under a fixed, convex or concave shift in lockstep
        // lanes (one tensor per lane, each with its own shift, LANE_WIDTH
        // lanes per kernel call); every other plan, and every other solver
        // or shift, runs the per-tensor loop over the plan's kernels.
        let plan = registry.plan::<S>(m, n, self.strategy);
        if batch.is_empty() {
            return Ok(empty_report(label, plan.kernels.name(), solver));
        }
        let lockstep = plan.lanes.as_ref().zip(sshopm::lockstep_alpha(solver));
        let started = Instant::now();
        let result = match lockstep {
            Some((lanes, shift)) => sshopm::solve_batch_lockstep(
                lanes,
                batch.view(),
                starts,
                shift,
                solver.policy(),
                self.threads,
                telemetry,
            ),
            None => BatchSolver::new(solver).with_threads(self.threads).run(
                &*plan.kernels,
                batch,
                starts,
                telemetry,
            ),
        };
        let report = BatchReport::new(
            label,
            plan.kernels.name(),
            solver.name(),
            result.results,
            result.total_iterations,
            started.elapsed().as_secs_f64(),
            result.total_iterations * flops::sshopm_iter_flops(m, n),
        );
        Ok(finish(report, &cache_before, telemetry))
    }

    /// The engines' lending paths, picked as `solve_batch` picks the
    /// engine: each row is lent on the worker that solved it.
    fn solve_batch_each(
        &self,
        batch: &TensorBatch<S>,
        starts: &[Vec<S>],
        solver: &dyn Solver<S>,
        telemetry: &Telemetry,
        each: &(dyn Fn(usize, &[Eigenpair<S>]) + Sync),
    ) -> Result<(), BackendError> {
        if batch.is_empty() {
            return Ok(());
        }
        let plan = KernelRegistry::global().plan::<S>(batch.order(), batch.dim(), self.strategy);
        match plan.lanes.as_ref().zip(sshopm::lockstep_alpha(solver)) {
            Some((lanes, shift)) => sshopm::solve_batch_lockstep_each(
                lanes,
                batch.view(),
                starts,
                shift,
                solver.policy(),
                self.threads,
                telemetry,
                each,
            ),
            None => BatchSolver::new(solver)
                .with_threads(self.threads)
                .run_each(&*plan.kernels, batch, starts, telemetry, each),
        };
        Ok(())
    }
}

/// The shift a simulated GPU runs `solver` under: its
/// [`sshopm::lockstep_alpha`], resolved once per tensor (one `α` per
/// block), or an error pointing at the CPU backends.
pub(crate) fn device_shift<S: Scalar>(
    solver: &dyn Solver<S>,
    what: &str,
) -> Result<Shift, BackendError> {
    sshopm::lockstep_alpha(solver).ok_or_else(|| {
        BackendError(format!(
            "{what} runs only SS-HOPM under a shift that is a constant of each tensor \
             (Shift::Fixed, Shift::Convex or Shift::Concave: one α per block); solver `{}` \
             has no such shift — run it on a cpu backend",
            solver.name()
        ))
    })
}

/// The eigenpairs a simulated GPU returns for `batch`, and each solve's
/// iteration count, tensor-major, for the simulator to price: one
/// lane-driver call on the ambient rayon pool, telemetry disabled (the
/// backend records the batch). The device runs what the lanes run, one
/// `α` per tensor.
pub(crate) fn solve_in_lanes<S: Scalar>(
    lanes: &BatchedKernels,
    batch: TensorBatchRef<'_, S>,
    starts: &[Vec<S>],
    shift: Shift,
    policy: IterationPolicy,
) -> (BatchResult<S>, Vec<u64>) {
    let telemetry = Telemetry::disabled();
    let result = sshopm::solve_batch_lockstep(lanes, batch, starts, shift, policy, 0, &telemetry);
    let iterations = result
        .results
        .iter()
        .flatten()
        .map(|p| p.iterations as u64)
        .collect();
    (result, iterations)
}

/// Record the same progress counters the CPU drivers emit, so traces from
/// different substrates stay comparable.
pub(crate) fn record_batch_counters<S: Scalar>(telemetry: &Telemetry, report: &BatchReport<S>) {
    if !telemetry.is_enabled() {
        return;
    }
    telemetry.counter("batch.tensors_done", report.num_tensors() as u64);
    telemetry.counter(
        "batch.solves",
        report.results.iter().map(|row| row.len() as u64).sum(),
    );
    telemetry.counter("batch.converged", report.num_converged());
    telemetry.counter("batch.iterations", report.total_iterations);
}

/// The report row of one simulated `device` that ran work (its launch
/// reports merged into `slice`), with its profile snapshot emitted.
/// `device_index` is global and host-major.
pub(crate) fn device_profile(
    device: &DeviceSpec,
    device_index: usize,
    host_index: usize,
    slice: &DeviceSlice,
    telemetry: &Telemetry,
) -> DeviceProfile {
    let snapshot = ProfileSnapshot::from_report(device, &slice.report);
    snapshot.emit(telemetry);
    DeviceProfile {
        device_index,
        host_index,
        num_tensors: slice.num_tensors,
        transfer_seconds: slice.transfer_seconds,
        snapshot,
    }
}

/// The spec family a [`GpuSimBackend`] was built from. It fixes the label
/// and the report convention when the backend is built; the arithmetic
/// is the same for all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Family {
    /// `gpusim`, `gpusim:<device>`: the paper's Table III convention —
    /// kernel time only, no transfers, no timeline.
    Device,
    /// `gpusim:<device>:N` and the `gpu` command: the stream timeline's
    /// makespan, PCIe included, with the timeline attached.
    Devices,
    /// `pipelined:…`: like `Devices`, with chunks double-buffered over
    /// the streams.
    Pipelined,
    /// `cluster:…`: the slowest shard's NIC time plus its makespan, one
    /// host row per shard and the communication accounting.
    Cluster,
}

/// Simulated GPUs (Section V of the paper): one thread block per tensor,
/// one thread per starting vector, on a [`Cluster`] of hosts × devices —
/// one device, a multi-GPU host (Section V-B: the tensors are independent,
/// so the batch splits across devices with no communication) or several
/// hosts sharded over modeled NICs. Every spec family solves the batch in
/// one lane-driver call and prices its iteration counts through the one
/// [`Cluster::launch`]; only the clock and the report rows differ:
///
/// * one device (`gpusim`, [`GpuSimBackend::new`]): `seconds` is the
///   analytic kernel estimate; transfers are excluded, as in the paper's
///   timings.
/// * one host (`gpusim:<device>:N`, `pipelined:…`,
///   [`GpuSimBackend::on_host`]): `seconds` is the stream timeline's
///   makespan, PCIe included, and the timeline is attached.
/// * a cluster (`cluster:…`): `seconds` is the slowest shard's NIC time
///   plus its makespan, with one host row per shard and the NIC traffic
///   charged against the Al Daas et al. lower bound.
#[derive(Debug, Clone)]
pub struct GpuSimBackend {
    cluster: Cluster,
    strategy: KernelStrategy,
    family: Family,
    streams_per_device: usize,
    chunk_tensors: usize,
}

impl GpuSimBackend {
    /// A single simulated device with the given kernel strategy.
    pub fn new(device: DeviceSpec, strategy: KernelStrategy) -> Self {
        Self::from_parts(Cluster::from(device), strategy, Family::Device)
    }

    /// `devices` on one host behind the `transfer` link, timed by the
    /// stream timeline even for a single device.
    ///
    /// Errors when the device list is empty.
    pub fn on_host(
        devices: Vec<DeviceSpec>,
        transfer: TransferModel,
        strategy: KernelStrategy,
    ) -> Result<Self, BackendError> {
        Ok(Self::from_parts(
            Cluster::single_host(devices, transfer)?,
            strategy,
            Family::Devices,
        ))
    }

    /// A backend over `cluster` reporting as `family`, one stream per
    /// device and the default chunk size.
    pub(crate) fn from_parts(cluster: Cluster, strategy: KernelStrategy, family: Family) -> Self {
        Self {
            cluster,
            strategy,
            family,
            streams_per_device: 1,
            chunk_tensors: CHUNK_TENSORS,
        }
    }

    /// Set the number of streams per device, which chunked schedules and
    /// the resilient wrapper deal chunks over (on a `cluster` backend,
    /// more than one stream turns chunking on). Zero is an error (the
    /// CLI's `--streams` flag lands here): a device with no streams can
    /// never receive a chunk.
    pub fn with_streams(mut self, streams_per_device: usize) -> Result<Self, BackendError> {
        if streams_per_device == 0 {
            return Err(BackendError(
                "invalid --streams 0: need at least one stream per device".to_string(),
            ));
        }
        self.streams_per_device = streams_per_device;
        Ok(self)
    }

    /// Set the tensors per chunk of a chunked schedule: `pipelined` specs,
    /// `cluster` specs with more than one stream per device, and the
    /// [`ResilientBackend`](crate::ResilientBackend) that wraps this
    /// backend. Zero is an error (the CLI's `--chunk-tensors` flag lands
    /// here): a zero-sized pipeline chunk would make no progress.
    pub fn with_chunk_tensors(mut self, chunk_tensors: usize) -> Result<Self, BackendError> {
        if chunk_tensors == 0 {
            return Err(BackendError(
                "invalid --chunk-tensors 0: need at least one tensor per pipeline chunk"
                    .to_string(),
            ));
        }
        self.chunk_tensors = chunk_tensors;
        Ok(self)
    }

    /// The host/device/link topology the batch runs on.
    pub(crate) fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// Streams per device.
    pub(crate) fn streams_per_device(&self) -> usize {
        self.streams_per_device
    }

    /// Tensors per chunk of a chunked schedule or a resilient run.
    pub(crate) fn chunk_tensors(&self) -> usize {
        self.chunk_tensors
    }

    /// Whether the backend was built from a `cluster` spec.
    pub(crate) fn is_cluster(&self) -> bool {
        self.family == Family::Cluster
    }

    /// Kernel implementation in use (mapped onto a GPU variant).
    pub(crate) fn strategy(&self) -> KernelStrategy {
        self.strategy
    }

    /// How each device runs its slice: `gpusim` specs launch it whole,
    /// `pipelined` specs always cut it into double-buffered chunks, and
    /// `cluster` specs chunk when they run more than one stream per device.
    pub(crate) fn schedule(&self) -> Schedule {
        let chunked = match self.family {
            Family::Device | Family::Devices => false,
            Family::Pipelined => true,
            Family::Cluster => self.streams_per_device > 1,
        };
        if chunked {
            Schedule::pipelined(self.chunk_tensors, self.streams_per_device)
        } else {
            Schedule::SYNCHRONOUS
        }
    }
}

impl<S: Scalar> SolveBackend<S> for GpuSimBackend {
    fn label(&self) -> String {
        let host = &self.cluster.hosts()[0];
        let slug = device_slug(host.devices[0].name);
        let devices = self.cluster.num_devices();
        let streams = self.streams_per_device;
        match self.family {
            Family::Device => format!("gpusim:{slug}"),
            Family::Devices => format!("gpusim:{slug}:{devices}"),
            Family::Pipelined => format!("pipelined:gpusim:{slug}:{devices}x{streams}"),
            Family::Cluster => format!(
                "cluster:gpusim:{slug}:{}x{}x{streams}",
                self.cluster.num_hosts(),
                host.num_devices()
            ),
        }
    }

    fn solve_batch(
        &self,
        batch: &TensorBatch<S>,
        starts: &[Vec<S>],
        solver: &dyn Solver<S>,
        telemetry: &Telemetry,
    ) -> Result<BatchReport<S>, BackendError> {
        let label = SolveBackend::<S>::label(self);
        let (m, n) = (batch.order(), batch.dim());
        let variant = crate::strategy::gpu_variant(self.strategy, m, n);
        if batch.is_empty() {
            return Ok(empty_report(label, variant.name(), solver));
        }
        let shift = device_shift(solver, "GpuSimBackend")?;
        if starts.is_empty() {
            return Err(GpuError::EmptyStarts.into());
        }
        let registry = KernelRegistry::global();
        let cache_before = registry.stats();
        let _batch_span = telemetry.span("batch.solve");
        let lanes = registry.batched(m, n);
        let (result, iterations) =
            solve_in_lanes(&lanes, batch.view(), starts, shift, solver.policy());
        let elem = std::mem::size_of::<S>();
        let counts = IterationCounts::new(m, n, elem, starts.len(), &iterations)?;
        let launch = self.cluster.launch(counts, variant, self.schedule())?;
        let mut report = BatchReport::new(
            label,
            variant.name(),
            solver.name(),
            result.results,
            result.total_iterations,
            launch.seconds,
            launch.useful_flops,
        );
        record_batch_counters(telemetry, &report);
        let comm = CommStats {
            nic_bytes: launch.nic_bytes,
            lower_bound_bytes: launch.comm_lower_bound_bytes,
            ratio: launch.comm_ratio(),
        };
        for shard in launch.shards {
            let hosts = self.cluster.hosts();
            let host = &hosts[shard.host_index];
            // Global (host-major) index of this host's first device.
            let base: usize = hosts[..shard.host_index]
                .iter()
                .map(Host::num_devices)
                .sum();
            for slice in &shard.slices {
                let mut profile = device_profile(
                    &host.devices[slice.device_index],
                    base + slice.device_index,
                    shard.host_index,
                    slice,
                    telemetry,
                );
                if self.family == Family::Device {
                    // Table III: the one kernel estimate, transfers out.
                    profile.transfer_seconds = 0.0;
                    report.seconds = slice.report.timing.seconds;
                }
                report.profiles.push(profile);
            }
            match self.family {
                Family::Device => {}
                Family::Devices | Family::Pipelined => {
                    shard.timeline.emit(telemetry);
                    report.timeline = Some(shard.timeline);
                }
                Family::Cluster => {
                    shard.timeline.emit(telemetry);
                    report.hosts.push(HostStats {
                        host_index: shard.host_index as u64,
                        num_devices: host.num_devices() as u64,
                        num_tensors: shard.num_tensors as u64,
                        nic_down_bytes: shard.nic_down_bytes,
                        nic_up_bytes: shard.nic_up_bytes,
                        nic_seconds: shard.nic_seconds,
                        seconds: shard.seconds,
                    });
                }
            }
        }
        if self.family == Family::Cluster {
            if telemetry.is_enabled() {
                telemetry.counter("cluster.hosts", report.hosts.len() as u64);
                telemetry.counter("cluster.nic_bytes", comm.nic_bytes);
            }
            report.comm = comm;
        }
        Ok(finish(report, &cache_before, telemetry))
    }
}
