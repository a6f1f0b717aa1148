//! [`BatchReport`]: one result type for every execution backend.

use gpusim::{InjectedFault, ProfileSnapshot, Timeline};
use sshopm::Eigenpair;
use symtensor::Scalar;
use telemetry::{
    CommStats, DeviceStats, FaultStats, Histogram, HostStats, KernelCacheStats, RunReport,
    ThroughputStats, WorkloadStats,
};

/// Per-device profile of a GPU-backed solve (empty for CPU backends).
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// Index into the backend's device list (global, host-major, for
    /// cluster backends).
    pub device_index: usize,
    /// Index of the host owning this device (0 for single-host backends).
    pub host_index: usize,
    /// Tensors assigned to this device.
    pub num_tensors: usize,
    /// Host↔device transfer seconds attributed to this slice (0 when the
    /// backend models kernel time only, as the paper's timings do).
    pub transfer_seconds: f64,
    /// The full launch profile.
    pub snapshot: ProfileSnapshot,
}

/// The fault ledger of one batched solve: what was injected, what the
/// backend actually observed (NaN scans, failed launches), and how it was
/// resolved. Trivially all-zero for non-resilient backends.
///
/// Invariant maintained by `ResilientBackend`: every injected fault is
/// accounted for — `recovered + failed == injected.len()`.
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    /// Every fault the [`gpusim::FaultPlan`] injected, in injection order.
    pub injected: Vec<InjectedFault>,
    /// Faults the backend detected (failed attempts plus NaN-poisoned
    /// tensors found by the post-launch scan). With NaN poisoning this
    /// equals `injected.len()` — nothing goes wrong silently.
    pub observed: usize,
    /// Injected faults whose effects were fully recovered (the affected
    /// tensors ended up with correct eigenpairs).
    pub recovered: usize,
    /// Injected faults that could not be recovered.
    pub failed: usize,
    /// Batch-global indices of tensors with no valid result (empty result
    /// rows in the report). Sorted ascending.
    pub failed_indices: Vec<usize>,
    /// Launch attempts retried after a transient fault.
    pub retries: u32,
    /// Chunks moved to another device (or the CPU) after a device loss or
    /// retry exhaustion.
    pub failovers: u32,
    /// True if any work ran on the CPU fallback because every simulated
    /// device was lost or exhausted its retries.
    pub degraded: bool,
}

impl FaultLog {
    /// True when the ledger balances: every injected fault is either
    /// recovered or failed.
    pub fn accounts_for_all_faults(&self) -> bool {
        self.recovered + self.failed == self.injected.len()
    }

    /// The ledger in [`RunReport`] export form.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            injected: self.injected.len() as u64,
            observed: self.observed as u64,
            recovered: self.recovered as u64,
            failed: self.failed as u64,
            failed_tensors: self.failed_indices.len() as u64,
            retries: self.retries as u64,
            failovers: self.failovers as u64,
            degraded: self.degraded,
        }
    }

    /// One-line summary for CLI output, derived from the [`RunReport`]
    /// renderer so text and JSON can never disagree.
    pub fn summary(&self) -> String {
        self.stats().summary_line()
    }
}

/// Everything a batched solve reports, regardless of substrate:
/// the eigenpairs, the iteration/flop accounting, the wall time, and (for
/// GPU backends) the per-device profile snapshots.
///
/// This unifies what used to be scattered across `sshopm::BatchResult`,
/// `gpusim::LaunchReport`/`ClusterReport` and ad-hoc `(seconds, iterations)`
/// tuples in the benchmark drivers.
#[derive(Debug, Clone)]
pub struct BatchReport<S> {
    /// Human-readable backend label (e.g. `cpu:4`, `gpusim:tesla-c2050`).
    pub backend: String,
    /// The kernels that ran: the resolved CPU kernels' name (`general`,
    /// `blocked`, `batched`, `unrolled`) or the GPU variant's.
    pub kernel: String,
    /// Solver that produced the eigenpairs (e.g. `sshopm`, `geap`,
    /// `qrst`).
    pub solver: String,
    /// Per-tensor, per-start eigenpairs: `results[t][v]`.
    pub results: Vec<Vec<Eigenpair<S>>>,
    /// Total SS-HOPM iterations across all solves.
    pub total_iterations: u64,
    /// Wall-clock seconds (measured for CPU backends, modeled for GPU).
    pub seconds: f64,
    /// Useful floating-point operations executed (FMA counted as 2).
    pub useful_flops: u64,
    /// One profile per device that received work; empty for CPU backends.
    pub profiles: Vec<DeviceProfile>,
    /// One row per host shard (NIC bytes/seconds, shard makespan); empty
    /// for single-host backends.
    pub hosts: Vec<HostStats>,
    /// Inter-node communication vs. the Al Daas et al. lower bound;
    /// all-zero for single-host backends.
    pub comm: CommStats,
    /// Fault-injection ledger; all-zero unless a resilient backend ran
    /// with an active fault plan.
    pub fault_log: FaultLog,
    /// Kernel-registry memo activity attributable to this solve. `None`
    /// when the solve touched no registry-managed kernels.
    pub kernel_cache: Option<KernelCacheStats>,
    /// The resolved stream/event timeline behind `seconds`, when the
    /// backend models asynchronous execution (`None` for CPU backends and
    /// the single-launch GPU backend, whose clock has no ops to overlap).
    pub timeline: Option<Timeline>,
}

impl<S: Scalar> BatchReport<S> {
    /// A report of `results` with no device, host, comm, fault, cache or
    /// timeline rows; each backend fills in what its substrate measured.
    pub(crate) fn new(
        backend: String,
        kernel: &str,
        solver: &str,
        results: Vec<Vec<Eigenpair<S>>>,
        total_iterations: u64,
        seconds: f64,
        useful_flops: u64,
    ) -> Self {
        Self {
            backend,
            kernel: kernel.to_string(),
            solver: solver.to_string(),
            results,
            total_iterations,
            seconds,
            useful_flops,
            profiles: Vec::new(),
            hosts: Vec::new(),
            comm: CommStats::default(),
            fault_log: FaultLog::default(),
            kernel_cache: None,
            timeline: None,
        }
    }

    /// Number of tensors solved.
    pub fn num_tensors(&self) -> usize {
        self.results.len()
    }

    /// Starting vectors per tensor: the longest row, since a failed
    /// tensor's row is empty (0 for an empty batch, or one where every
    /// tensor failed).
    pub fn num_starts(&self) -> usize {
        self.results.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Flatten to `(tensor index, start index, eigenpair)` triples.
    pub fn iter_flat(&self) -> impl Iterator<Item = (usize, usize, &Eigenpair<S>)> {
        self.results
            .iter()
            .enumerate()
            .flat_map(|(t, row)| row.iter().enumerate().map(move |(v, p)| (t, v, p)))
    }

    /// Number of solves that converged.
    pub fn num_converged(&self) -> u64 {
        self.iter_flat().filter(|(_, _, p)| p.converged).count() as u64
    }

    /// Achieved GFLOP/s (0 for an empty or instantaneous batch).
    pub fn gflops(&self) -> f64 {
        if self.seconds > 0.0 {
            self.useful_flops as f64 / self.seconds / 1e9
        } else {
            0.0
        }
    }

    /// One-line summary, directly comparable across backends. Derived
    /// from the [`RunReport`] renderer so text and JSON can never
    /// disagree.
    pub fn summary(&self) -> String {
        self.run_report().headline()
    }

    /// The unified, schema-versioned observability record of this run.
    ///
    /// Latency distributions are derived from the stream timeline when the
    /// backend modeled one: `chunk` is the distribution of kernel-op
    /// durations (one launch per chunk), `stream` the per-stream busy
    /// windows, `device` the per-device completion times. Backends with no
    /// timeline (CPU substrates and the single-launch GPU backend) still
    /// report a `chunk` distribution — the whole batch as one chunk — so
    /// every backend's report carries p50/p90/p99 chunk latencies.
    pub fn run_report(&self) -> RunReport {
        let mut report = RunReport::new(self.backend.clone(), self.kernel.clone());
        report.solver = self.solver.clone();
        report.workload = WorkloadStats {
            num_tensors: self.num_tensors() as u64,
            num_starts: self.num_starts() as u64,
            total_solves: (self.num_tensors() * self.num_starts()) as u64,
            converged_solves: self.num_converged(),
            total_iterations: self.total_iterations,
        };
        report.throughput = ThroughputStats {
            seconds: self.seconds,
            useful_flops: self.useful_flops,
            gflops: self.gflops(),
            tensors_per_second: if self.seconds > 0.0 {
                self.num_tensors() as f64 / self.seconds
            } else {
                0.0
            },
        };
        report.faults = self.fault_log.stats();
        report.kernel_cache = self.kernel_cache;
        let timeline_chunks = self
            .timeline
            .as_ref()
            .map(Timeline::kernel_latencies)
            .filter(|h| !h.is_empty());
        match timeline_chunks {
            Some(chunks) => {
                report.push_latency("chunk", chunks);
                if let Some(t) = &self.timeline {
                    report.push_latency("stream", t.stream_latencies());
                    report.push_latency("device", t.device_latencies());
                }
            }
            None => {
                // No resolved ops to attribute: the batch is one chunk.
                let mut whole = Histogram::new();
                if self.num_tensors() > 0 || self.seconds > 0.0 {
                    whole.observe(self.seconds);
                }
                report.push_latency("chunk", whole);
            }
        }
        for p in &self.profiles {
            report.devices.push(DeviceStats {
                device_index: p.device_index as u64,
                host_index: p.host_index as u64,
                device: p.snapshot.device.clone(),
                num_tensors: p.num_tensors as u64,
                occupancy: p.snapshot.occupancy,
                gflops: p.snapshot.gflops,
                seconds: p.snapshot.seconds,
                transfer_seconds: p.transfer_seconds,
            });
        }
        report.hosts = self.hosts.clone();
        report.comm = self.comm.clone();
        if !self.hosts.is_empty() {
            // Per-host shard completion times, the cluster analogue of the
            // `device` distribution.
            let mut host_lat = Histogram::new();
            for h in &self.hosts {
                host_lat.observe(h.seconds);
            }
            report.push_latency("host", host_lat);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(lambda: f64, converged: bool) -> Eigenpair<f64> {
        Eigenpair {
            lambda,
            x: vec![1.0, 0.0, 0.0],
            iterations: 3,
            converged,
            alpha: 0.0,
        }
    }

    #[test]
    fn accessors_and_summary() {
        let report = BatchReport {
            backend: "cpu:4".to_string(),
            kernel: "general".to_string(),
            solver: "sshopm".to_string(),
            results: vec![
                vec![pair(2.0, true), pair(1.0, false)],
                vec![pair(0.5, true), pair(0.25, true)],
            ],
            total_iterations: 12,
            seconds: 0.5,
            useful_flops: 1_000_000_000,
            profiles: Vec::new(),
            hosts: Vec::new(),
            comm: CommStats::default(),
            fault_log: FaultLog::default(),
            kernel_cache: None,
            timeline: None,
        };
        assert_eq!(report.num_tensors(), 2);
        assert_eq!(report.num_starts(), 2);
        assert_eq!(report.num_converged(), 3);
        assert_eq!(report.iter_flat().count(), 4);
        assert!((report.gflops() - 2.0).abs() < 1e-12);
        let s = report.summary();
        assert!(s.contains("backend cpu:4"), "{s}");
        assert!(s.contains("2 tensors x 2 starts"), "{s}");
        assert!(s.contains("GFLOP/s"), "{s}");
    }

    #[test]
    fn empty_report_is_well_behaved() {
        let report: BatchReport<f64> = BatchReport {
            backend: "cpu".to_string(),
            kernel: "general".to_string(),
            solver: "sshopm".to_string(),
            results: Vec::new(),
            total_iterations: 0,
            seconds: 0.0,
            useful_flops: 0,
            profiles: Vec::new(),
            hosts: Vec::new(),
            comm: CommStats::default(),
            fault_log: FaultLog::default(),
            kernel_cache: None,
            timeline: None,
        };
        assert_eq!(report.num_tensors(), 0);
        assert_eq!(report.num_starts(), 0);
        assert_eq!(report.gflops(), 0.0);
    }
}
