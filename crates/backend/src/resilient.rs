//! [`ResilientBackend`]: fault-tolerant batched execution over simulated
//! GPUs.
//!
//! Wraps a [`GpuSimBackend`] — its topology, kernel strategy and streams —
//! but splits the batch into small chunks and survives the faults a
//! [`gpusim::FaultPlan`] injects:
//!
//! * **Transient launch failures** (watchdog timeouts, transfer errors)
//!   are retried on the same device with exponential backoff, up to
//!   `max_retries` extra attempts per device.
//! * **Device loss** is sticky: the device is marked dead and, when
//!   failover is enabled, its chunks move to the next live device — or to
//!   the CPU once every simulated device is gone.
//! * **Host loss** is device loss at cluster scale: every device on the
//!   struck host dies at once, so surviving chunks ladder from the lost
//!   host to a sibling host's devices and finally to the CPU. On a
//!   single-host backend a host loss is a total loss.
//! * **ECC corruption** poisons one tensor with NaN before the launch;
//!   the post-launch scan detects the non-finite eigenpairs and re-solves
//!   that single tensor on the CPU from the pristine data. Only the
//!   affected tensor's packed entries (15 scalars at the paper shape) are
//!   ever copied into a one-tensor scratch batch — the chunk itself
//!   launches straight from the borrowed arena slice, so the fault-free
//!   tensors' results come out of the exact same buffers as a fault-free
//!   run. With failover disabled the poisoned tensor *fails alone* — its
//!   batch index lands in [`FaultLog::failed_indices`] and its result row
//!   is empty, while the rest of the chunk stands.
//!
//! Every substrate runs the identical library kernels, so recovered
//! results are **bit-identical** to a fault-free run (the resilience test
//! suite asserts this against a sequential CPU solve). The price of a
//! fault shows up only in the modeled wall time: timeouts, backoff waits
//! and re-solves all cost seconds, never correctness.
//!
//! Execution is stream-based: each device deals the chunks it runs
//! round-robin over its own streams ([`gpusim::DeviceStreams`], the rule
//! the pipelined launch uses), so fault recovery is
//! **in-flight-chunk granular**. A faulted attempt marks the chunk's
//! stream, cancels only that stream's pending ops from the mark
//! ([`StreamQueue::cancel_from`]), and enqueues a [`Op::Stall`] for the
//! watchdog/backoff time — other streams' chunks (earlier successful
//! launches included) keep their place on the event timeline. The modeled
//! wall-clock is the resolved [`gpusim::Timeline`] makespan plus any CPU
//! fallback time.

use crate::backends::{
    device_profile, empty_report, finish, fixed_alpha, record_batch_counters, GpuSimBackend,
    SolveBackend, CHUNK_TENSORS,
};
use crate::report::{BatchReport, FaultLog};
use crate::spec::{device_slug, BackendError, BackendSpec};
use crate::strategy::KernelStrategy;
use gpusim::{
    corrupt_tensor, problem_traffic_bytes, DeviceSlice, DeviceSpec, DeviceStreams, FaultKind,
    FaultPlan, FaultSite, LaunchReport, Op, StreamQueue, TransferModel, BACKOFF_BASE_SECONDS,
    WATCHDOG_TIMEOUT_SECONDS,
};
use sshopm::batch::BatchSolver;
use sshopm::{Eigenpair, Solver};
use symtensor::{flops, Scalar, TensorBatch};
use telemetry::Telemetry;

/// A fault-tolerant execution backend over one or more simulated GPUs.
///
/// Construct with [`ResilientBackend::from_spec`] (the CLI path) or
/// [`ResilientBackend::new`], then layer on [`with_retries`] and
/// [`with_failover`]. With an inactive [`FaultPlan`] this behaves exactly
/// like the plain multi-GPU backend, modulo chunked launches.
///
/// [`with_retries`]: ResilientBackend::with_retries
/// [`with_failover`]: ResilientBackend::with_failover
#[derive(Debug, Clone)]
pub struct ResilientBackend {
    /// The simulated GPUs the chunks run on: their topology (chunks are
    /// dealt round-robin across its devices, host-major; a
    /// [`FaultKind::HostLoss`] kills every device of the struck device's
    /// host), kernel strategy and streams per device.
    pub inner: GpuSimBackend,
    /// The fault schedule to run under.
    pub plan: FaultPlan,
    /// Extra launch attempts per device after a transient fault.
    pub max_retries: u32,
    /// Move failed chunks to other devices / the CPU instead of failing.
    pub failover: bool,
}

impl ResilientBackend {
    /// A resilient backend over `devices` on one host; errors if the list
    /// is empty.
    ///
    /// Defaults: 2 retries, failover disabled, 2 streams per device.
    pub fn new(
        devices: Vec<DeviceSpec>,
        transfer: TransferModel,
        strategy: KernelStrategy,
        plan: FaultPlan,
    ) -> Result<Self, BackendError> {
        let inner = GpuSimBackend::on_host(devices, transfer, strategy)?.with_streams(2)?;
        Ok(Self::wrap(inner, plan))
    }

    /// Wrap the simulated GPUs a [`BackendSpec`] describes, with the
    /// streams its schedule runs: a resilient run is always chunked, so a
    /// `gpusim` spec runs as its `pipelined` form (2 streams per device)
    /// and a `cluster` spec keeps its own stream field. `cpu` specs have
    /// no devices to fail and are rejected.
    pub fn from_spec(
        spec: &BackendSpec,
        strategy: KernelStrategy,
        plan: FaultPlan,
    ) -> Result<Self, BackendError> {
        let chunked = match *spec {
            BackendSpec::Cpu { .. } => {
                return Err(BackendError(format!(
                    "fault injection requires a gpusim backend, got {spec}: cpu backends have \
                     no simulated devices to fail"
                )))
            }
            BackendSpec::GpuSim { device, devices } => BackendSpec::Pipelined { device, devices },
            other => other,
        };
        Ok(Self::wrap(chunked.build_gpusim(strategy)?, plan))
    }

    fn wrap(inner: GpuSimBackend, plan: FaultPlan) -> Self {
        Self {
            inner,
            plan,
            max_retries: 2,
            failover: false,
        }
    }

    /// Number of hosts the devices sit on.
    pub fn num_hosts(&self) -> usize {
        self.inner.cluster().num_hosts()
    }

    /// Set the per-device retry budget for transient faults.
    pub fn with_retries(mut self, max_retries: u32) -> Self {
        self.max_retries = max_retries;
        self
    }

    /// Enable or disable failover to other devices / the CPU.
    pub fn with_failover(mut self, failover: bool) -> Self {
        self.failover = failover;
        self
    }

    /// Set the number of streams per device. Zero is an error (the CLI's
    /// `--streams` flag lands here): a device with no streams can never
    /// receive a chunk.
    pub fn with_streams(mut self, streams_per_device: usize) -> Result<Self, BackendError> {
        self.inner = self.inner.with_streams(streams_per_device)?;
        Ok(self)
    }
}

/// What one launch attempt of one chunk did.
enum Attempt<S> {
    /// The launch completed; rows are the chunk's eigenpairs.
    Completed(Vec<Vec<Eigenpair<S>>>),
    /// A transient fault (watchdog / transfer) killed the attempt.
    Transient,
    /// The device dropped off the bus.
    DeviceLost,
}

impl<S: Scalar> SolveBackend<S> for ResilientBackend {
    fn label(&self) -> String {
        let cluster = self.inner.cluster();
        let slug = device_slug(cluster.hosts()[0].devices[0].name);
        let (hosts, devices) = (cluster.num_hosts(), cluster.num_devices());
        if hosts > 1 {
            format!(
                "resilient:cluster:gpusim:{slug}:{hosts}x{}",
                devices / hosts
            )
        } else {
            format!("resilient:gpusim:{slug}:{devices}")
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
        let strategy = self.inner.strategy();
        if batch.is_empty() {
            return Ok(empty_report(label, strategy, solver));
        }
        if starts.is_empty() {
            return Err(gpusim::GpuError::EmptyStarts.into());
        }
        let (m, n) = (batch.order(), batch.dim());
        let alpha = fixed_alpha(solver, "ResilientBackend")?;
        let variant = crate::strategy::gpu_variant(strategy, m, n);
        let cache_before = crate::strategy::KernelRegistry::global().stats();
        // The CPU kernels used for failover and NaN recovery: every plan
        // returns the bits every GPU variant computes, so CPU re-solves are
        // bit-identical to what the device would have produced. The plan
        // comes from the process-wide registry, so repeated re-solves share
        // one memoized kernel object.
        let cpu_plan = crate::strategy::KernelRegistry::global().plan::<S>(m, n, strategy);
        let cpu_kernels = cpu_plan.kernels;
        let num_entries = batch.stride();
        let _span = telemetry.span("resilient.solve");

        let mut log = FaultLog::default();
        let mut results: Vec<Vec<Eigenpair<S>>> = vec![Vec::new(); batch.len()];
        let cluster = self.inner.cluster();
        let devices = cluster.flat_devices();
        let ndev = devices.len();
        // Every GPU-side cost — transfers, kernels, watchdog stalls — is an
        // op on a per-device stream of one queue over every device (timed
        // against the root host's PCIe link); the wall-clock is the
        // timeline makespan.
        let mut queue = StreamQueue::new(ndev, cluster.hosts()[0].pcie);
        let mut streams: Vec<DeviceStreams> = (0..ndev)
            .map(|d| DeviceStreams::new(&mut queue, d, self.inner.streams_per_device()))
            .collect();
        // Per device that ran chunks: tensors solved and its merged
        // launch reports, for the report's device rows.
        let mut ran: Vec<Option<(usize, LaunchReport)>> = vec![None; ndev];
        let mut cpu_seconds = 0.0_f64;
        let mut alive = vec![true; ndev];
        let mut total_iterations = 0u64;
        let mut useful_flops = 0u64;
        let iter_flops = flops::sshopm_iter_flops(m, n);

        let num_chunks = batch.len().div_ceil(CHUNK_TENSORS);
        for chunk_index in 0..num_chunks {
            let lo = chunk_index * CHUNK_TENSORS;
            let hi = (lo + CHUNK_TENSORS).min(batch.len());
            // Zero-copy view into the arena: the chunk is never cloned,
            // faults or not.
            let chunk = batch.slice(lo..hi);
            // Bytes a faulted attempt had in flight when it was torn down.
            let (chunk_down_bytes, _) =
                problem_traffic_bytes(chunk.len(), starts.len(), m, n, std::mem::size_of::<S>());
            // Faults injected into this chunk, not yet resolved either way.
            let mut pending: Vec<gpusim::InjectedFault> = Vec::new();
            let mut rows: Option<Vec<Vec<Eigenpair<S>>>> = None;
            let mut ecc_failed_locals: Vec<usize> = Vec::new();

            'devices: for offset in 0..ndev {
                let dev = (chunk_index + offset) % ndev;
                if !alive[dev] {
                    if !self.failover {
                        // The chunk's home device is gone and we may not
                        // move the work: the whole chunk fails.
                        break 'devices;
                    }
                    continue 'devices;
                }
                if offset > 0 {
                    // The chunk runs somewhere other than its home device.
                    log.failovers += 1;
                }
                let stream = streams[dev].deal();
                for attempt in 0..=self.max_retries {
                    let site = FaultSite {
                        device_index: dev,
                        chunk_index,
                        attempt,
                    };
                    let faults = self.plan.faults_at(site, chunk.len());
                    log.injected.extend(faults.iter().cloned());
                    pending.extend(faults.iter().cloned());
                    let host_lost = faults.iter().any(|f| f.kind == FaultKind::HostLoss);
                    let device_lost =
                        host_lost || faults.iter().any(|f| f.kind == FaultKind::DeviceLoss);
                    let transient = faults.iter().any(|f| {
                        matches!(
                            f.kind,
                            FaultKind::WatchdogTimeout | FaultKind::TransferFailure
                        )
                    });
                    let outcome = if device_lost {
                        // Losing the board aborts the attempt; any other
                        // fault drawn alongside dies with it (and is
                        // observed as part of the failed launch). The
                        // in-flight upload is cancelled — only *this*
                        // stream's pending ops, other chunks keep their
                        // timeline slots — and the watchdog time shows up
                        // as a stall on the dead device's engine.
                        log.observed += faults.len();
                        let mark = queue.mark(stream);
                        queue.enqueue(
                            stream,
                            Op::HostToDevice {
                                bytes: chunk_down_bytes,
                            },
                        );
                        queue.cancel_from(mark);
                        queue.enqueue(
                            stream,
                            Op::Stall {
                                seconds: WATCHDOG_TIMEOUT_SECONDS,
                            },
                        );
                        if host_lost {
                            // The whole host dropped: every sibling device
                            // dies with it, so this chunk (and all later
                            // ones homed here) ladder to the next host's
                            // devices, then to the CPU.
                            let struck = cluster.host_of_device(dev);
                            for (d, a) in alive.iter_mut().enumerate() {
                                if cluster.host_of_device(d) == struck {
                                    *a = false;
                                }
                            }
                        } else {
                            alive[dev] = false;
                        }
                        Attempt::DeviceLost
                    } else if transient {
                        // Same scoped teardown, plus exponential backoff
                        // before the retry re-enqueues on this stream.
                        log.observed += faults.len();
                        let mark = queue.mark(stream);
                        queue.enqueue(
                            stream,
                            Op::HostToDevice {
                                bytes: chunk_down_bytes,
                            },
                        );
                        queue.cancel_from(mark);
                        queue.enqueue(
                            stream,
                            Op::Stall {
                                seconds: WATCHDOG_TIMEOUT_SECONDS
                                    + BACKOFF_BASE_SECONDS * f64::from(1u32 << attempt.min(16)),
                            },
                        );
                        Attempt::Transient
                    } else {
                        // Clean launch straight from the borrowed arena
                        // slice — the fault-free tensors' results come out
                        // of exactly the buffers a fault-free run reads.
                        let ecc = faults.iter().find(|f| f.kind == FaultKind::EccCorruption);
                        let (res, report) = gpusim::enqueue_sshopm(
                            &mut queue,
                            stream,
                            &devices[dev],
                            chunk,
                            starts,
                            solver.policy(),
                            alpha,
                            variant,
                        )?;
                        useful_flops += report.useful_flops;
                        match &mut ran[dev] {
                            Some((tensors, merged)) => {
                                *tensors += chunk.len();
                                merged.merge(&report);
                            }
                            None => ran[dev] = Some((chunk.len(), report)),
                        }
                        let mut chunk_rows = res.results;
                        total_iterations += chunk_rows
                            .iter()
                            .flatten()
                            .map(|p| p.iterations as u64)
                            .sum::<u64>();
                        if let Some(f) = ecc {
                            // ECC corruption hits one tensor: copy just its
                            // packed entries (15 scalars at the paper
                            // shape) into a one-tensor scratch batch,
                            // flip an entry to NaN, and launch that alone —
                            // never the whole chunk.
                            let j = f.tensor_index.unwrap_or(0);
                            let entry = self.plan.ecc_entry(site, num_entries);
                            let corrupted = corrupt_tensor(&chunk.get(j).to_owned(), entry);
                            let scratch = match TensorBatch::from_tensors(&[corrupted]) {
                                Ok(b) => b,
                                // The tensor came out of a valid batch, so
                                // its shape cannot overflow the arena stride.
                                Err(e) => {
                                    return Err(BackendError(format!("ECC scratch batch: {e}")))
                                }
                            };
                            let (pres, preport) = gpusim::enqueue_sshopm(
                                &mut queue,
                                stream,
                                &devices[dev],
                                &scratch,
                                starts,
                                solver.policy(),
                                alpha,
                                variant,
                            )?;
                            useful_flops += preport.useful_flops;
                            if let Some((_, merged)) = &mut ran[dev] {
                                merged.merge(&preport);
                            }
                            let prow = pres.results.into_iter().next().unwrap_or_default();
                            total_iterations +=
                                prow.iter().map(|p| p.iterations as u64).sum::<u64>();
                            let detected = prow.iter().any(|p| !p.is_finite());
                            chunk_rows[j] = prow;
                            if detected {
                                log.observed += 1;
                            }
                            if self.failover {
                                // Re-solve just the poisoned tensor on the
                                // CPU from the pristine arena slice — same
                                // kernels, bit-identical eigenpairs.
                                let started = std::time::Instant::now();
                                let cpu = BatchSolver::new(solver).solve_sequential(
                                    &*cpu_kernels,
                                    chunk.slice(j..j + 1),
                                    starts,
                                );
                                cpu_seconds += started.elapsed().as_secs_f64();
                                total_iterations += cpu.total_iterations;
                                useful_flops += cpu.total_iterations * iter_flops;
                                chunk_rows[j] = cpu.results.into_iter().next().unwrap_or_default();
                                log.degraded = true;
                            } else {
                                // The poisoned tensor fails alone; the
                                // rest of the chunk stands.
                                chunk_rows[j] = Vec::new();
                                ecc_failed_locals.push(j);
                                log.failed += 1;
                                if let Some(pos) = pending.iter().position(|p| p == f) {
                                    pending.remove(pos);
                                }
                            }
                        }
                        Attempt::Completed(chunk_rows)
                    };
                    match outcome {
                        Attempt::Completed(r) => {
                            rows = Some(r);
                            break 'devices;
                        }
                        Attempt::DeviceLost => {
                            // Sticky: stop retrying here. Failover (if
                            // any) happens at the device loop.
                            if !self.failover {
                                break 'devices;
                            }
                            continue 'devices;
                        }
                        Attempt::Transient => {
                            if attempt < self.max_retries {
                                log.retries += 1;
                            } else if !self.failover {
                                break 'devices;
                            }
                            // Retries exhausted with failover: fall
                            // through to the next device.
                        }
                    }
                }
            }

            if rows.is_none() && self.failover {
                // Every device is dead or exhausted: degrade to the CPU.
                log.failovers += 1;
                log.degraded = true;
                let started = std::time::Instant::now();
                let cpu = BatchSolver::new(solver).solve_sequential(&*cpu_kernels, chunk, starts);
                cpu_seconds += started.elapsed().as_secs_f64();
                total_iterations += cpu.total_iterations;
                useful_flops += cpu.total_iterations * iter_flops;
                rows = Some(cpu.results);
            }

            match rows {
                Some(r) => {
                    for (local, row) in r.into_iter().enumerate() {
                        results[lo + local] = row;
                    }
                    for j in ecc_failed_locals {
                        log.failed_indices.push(lo + j);
                    }
                    log.recovered += pending.len();
                }
                None => {
                    log.failed += pending.len();
                    log.failed_indices.extend(lo..hi);
                }
            }
        }

        log.failed_indices.sort_unstable();
        if telemetry.is_enabled() {
            telemetry.counter("fault.injected", log.injected.len() as u64);
            telemetry.counter("fault.observed", log.observed as u64);
            telemetry.counter("fault.recovered", log.recovered as u64);
            telemetry.counter("fault.retries", u64::from(log.retries));
            telemetry.counter("fault.failovers", u64::from(log.failovers));
            telemetry.counter("fault.failed_tensors", log.failed_indices.len() as u64);
        }
        // Devices run concurrently (the scheduler resolves their streams
        // against independent engines); CPU fallback work serializes after.
        let timeline = queue.synchronize();
        let mut report = BatchReport::new(
            label,
            variant.name(),
            solver.name(),
            results,
            total_iterations,
            timeline.makespan() + cpu_seconds,
            useful_flops,
        );
        report.fault_log = log;
        record_batch_counters(telemetry, &report);
        for (dev, row) in ran.into_iter().enumerate() {
            if let Some((num_tensors, launched)) = row {
                let slice = DeviceSlice {
                    device_index: dev,
                    num_tensors,
                    report: launched,
                    transfer_seconds: timeline.copy_seconds(dev),
                    total_seconds: timeline.device_busy_seconds(dev),
                };
                let host = cluster.host_of_device(dev);
                let profile = device_profile(&devices[dev], dev, host, &slice, telemetry);
                report.profiles.push(profile);
            }
        }
        timeline.emit(telemetry);
        report.timeline = Some(timeline);
        Ok(finish(report, &cache_before, telemetry))
    }
}

/// Parse a `--faults` spec string into a [`FaultPlan`].
///
/// Grammar: comma-separated `key=value` fields, e.g.
/// `seed=42,ecc=0.01,watchdog=0.005,transfer=0.005,device-loss=0.001`.
/// Keys: `seed` (u64, default 0) and the five per-attempt probabilities
/// (`ecc`, `watchdog`, `transfer`, `device-loss`, `host-loss`), each in
/// `[0, 1]`, default 0.
pub fn parse_fault_plan(s: &str) -> Result<FaultPlan, BackendError> {
    let mut plan = FaultPlan::new(0);
    for field in s.split(',') {
        let field = field.trim();
        if field.is_empty() {
            continue;
        }
        let Some((key, value)) = field.split_once('=') else {
            return Err(BackendError(format!(
                "malformed fault field {field:?} in {s:?}: expected key=value"
            )));
        };
        match key.trim() {
            "seed" => {
                plan.seed = value.trim().parse::<u64>().map_err(|_| {
                    BackendError(format!(
                        "invalid fault seed {value:?} in {s:?}: expected a non-negative integer"
                    ))
                })?;
            }
            key @ ("ecc" | "watchdog" | "transfer" | "device-loss" | "host-loss") => {
                let p = value.trim().parse::<f64>().map_err(|_| {
                    BackendError(format!(
                        "invalid probability {value:?} for fault kind {key:?} in {s:?}"
                    ))
                })?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(BackendError(format!(
                        "probability {p} for fault kind {key:?} in {s:?} is outside [0, 1]"
                    )));
                }
                plan = match key {
                    "ecc" => plan.with_ecc(p),
                    "watchdog" => plan.with_watchdog(p),
                    "transfer" => plan.with_transfer(p),
                    "device-loss" => plan.with_device_loss(p),
                    _ => plan.with_host_loss(p),
                };
            }
            other => {
                return Err(BackendError(format!(
                    "unknown fault kind {other:?} in {s:?}: expected seed, ecc, watchdog, \
                     transfer, device-loss or host-loss"
                )));
            }
        }
    }
    Ok(plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_fault_specs() {
        let plan = parse_fault_plan(
            "seed=42,ecc=0.5,watchdog=0.25,transfer=0.125,device-loss=0.0625,host-loss=0.03125",
        )
        .unwrap();
        assert_eq!(plan.seed, 42);
        assert_eq!(plan.ecc, 0.5);
        assert_eq!(plan.watchdog, 0.25);
        assert_eq!(plan.transfer, 0.125);
        assert_eq!(plan.device_loss, 0.0625);
        assert_eq!(plan.host_loss, 0.03125);
        assert!(plan.is_active());
    }

    #[test]
    fn parses_partial_and_spaced_specs() {
        let plan = parse_fault_plan(" seed=7 , ecc=1.0 ").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.ecc, 1.0);
        assert_eq!(plan.watchdog, 0.0);
        let empty = parse_fault_plan("").unwrap();
        assert!(!empty.is_active());
    }

    #[test]
    fn rejects_malformed_fault_specs() {
        for (spec, needle) in [
            ("ecc", "expected key=value"),
            ("ecc=x", "invalid probability"),
            ("ecc=1.5", "outside [0, 1]"),
            ("ecc=-0.1", "outside [0, 1]"),
            ("seed=-1", "invalid fault seed"),
            ("cosmic-ray=0.5", "unknown fault kind"),
        ] {
            let err = parse_fault_plan(spec).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{spec:?} -> {err}, wanted {needle:?}"
            );
        }
    }

    #[test]
    fn from_spec_rejects_cpu_backends() {
        let cpu = BackendSpec::Cpu { threads: 4 };
        let err = ResilientBackend::from_spec(&cpu, KernelStrategy::General, FaultPlan::new(0))
            .unwrap_err();
        assert!(err.to_string().contains("gpusim"), "{err}");
    }

    #[test]
    fn from_spec_builds_gpu_device_lists() {
        let spec = BackendSpec::parse("gpusim:tesla-c2050:3").unwrap();
        let backend =
            ResilientBackend::from_spec(&spec, KernelStrategy::General, FaultPlan::new(1))
                .unwrap()
                .with_retries(5)
                .with_failover(true);
        assert_eq!(backend.inner.cluster().num_devices(), 3);
        assert_eq!(backend.max_retries, 5);
        assert!(backend.failover);
        assert_eq!(
            SolveBackend::<f64>::label(&backend),
            "resilient:gpusim:tesla-c2050:3"
        );
    }

    #[test]
    fn from_spec_builds_cluster_host_maps() {
        let spec = BackendSpec::parse("cluster:3:2").unwrap();
        let backend =
            ResilientBackend::from_spec(&spec, KernelStrategy::General, FaultPlan::new(1)).unwrap();
        let cluster = backend.inner.cluster();
        assert_eq!(cluster.num_devices(), 6);
        let host_of: Vec<usize> = (0..6).map(|d| cluster.host_of_device(d)).collect();
        assert_eq!(host_of, vec![0, 0, 1, 1, 2, 2]);
        assert_eq!(backend.num_hosts(), 3);
        assert_eq!(
            SolveBackend::<f64>::label(&backend),
            "resilient:cluster:gpusim:tesla-c2050:3x2"
        );
    }

    #[test]
    fn zero_streams_is_a_typed_error_naming_the_flag() {
        let spec = BackendSpec::parse("gpusim:2").unwrap();
        let backend =
            ResilientBackend::from_spec(&spec, KernelStrategy::General, FaultPlan::new(0)).unwrap();
        let err = backend.with_streams(0).unwrap_err();
        assert!(err.to_string().contains("--streams"), "{err}");
    }
}
