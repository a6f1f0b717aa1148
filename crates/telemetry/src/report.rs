//! [`RunReport`]: one schema-versioned record unifying every signal a
//! batched solve produces.
//!
//! The stack's observability signals used to live in silos — backend
//! `BatchReport`/`FaultLog` summaries, gpusim `Timeline` spans and
//! `ProfileSnapshot` occupancy numbers, and the telemetry snapshot's
//! counters and histograms. A [`RunReport`] is the unified export shape:
//! workload and throughput stats, a fault ledger ([`FaultStats`]), named
//! latency distributions ([`Histogram`] — per chunk, per stream, per
//! device), per-device occupancy/GFLOPS rows ([`DeviceStats`]), plus any
//! counters and gauges folded in from a [`TelemetrySnapshot`].
//!
//! Three renderers share the same fields, so no format can drift from
//! another: JSON (via [`serde::Serialize`], parseable back with
//! [`RunReport::parse_json`]), Prometheus text exposition
//! ([`RunReport::to_prometheus`] — the future service daemon's `/health`
//! body), and human text ([`RunReport::render_text`], whose first line,
//! [`RunReport::headline`], is exactly the one-line summary the CLI
//! prints after every solve).

use crate::histogram::Histogram;
use crate::metrics::TelemetrySnapshot;
use serde::{Deserialize, Error, Serialize, Value};
use std::fmt::Write as _;

/// Version stamp written into every serialized [`RunReport`] and every
/// committed bench baseline; bump when the schema changes shape.
pub const RUN_REPORT_SCHEMA_VERSION: u64 = 1;

/// Batch size and convergence accounting of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkloadStats {
    /// Tensors in the batch.
    pub num_tensors: u64,
    /// Starting vectors per tensor.
    pub num_starts: u64,
    /// Individual (tensor, start) solves.
    pub total_solves: u64,
    /// Solves that met the convergence criterion.
    pub converged_solves: u64,
    /// SS-HOPM iterations summed over all solves.
    pub total_iterations: u64,
}

/// Wall-clock and flop-rate accounting of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ThroughputStats {
    /// Wall-clock seconds (measured for CPU substrates, modeled for GPU).
    pub seconds: f64,
    /// Useful floating-point operations executed (FMA counted as 2).
    pub useful_flops: u64,
    /// Achieved GFLOP/s (0 for an empty or instantaneous run).
    pub gflops: f64,
    /// Tensors completed per second (0 for an empty or instantaneous run).
    pub tensors_per_second: f64,
}

/// The fault/retry/failover ledger of one run, in export form. All-zero
/// for non-resilient backends.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Faults the fault plan injected.
    pub injected: u64,
    /// Faults the backend detected.
    pub observed: u64,
    /// Injected faults fully recovered.
    pub recovered: u64,
    /// Injected faults that could not be recovered.
    pub failed: u64,
    /// Tensors left with no valid result.
    pub failed_tensors: u64,
    /// Launch attempts retried after a transient fault.
    pub retries: u64,
    /// Chunks moved to another device or the CPU.
    pub failovers: u64,
    /// True if any work ran on the CPU fallback.
    pub degraded: bool,
}

impl FaultStats {
    /// True when nothing fault-related happened at all.
    pub fn is_empty(&self) -> bool {
        self.injected == 0
            && self.observed == 0
            && self.failed_tensors == 0
            && self.retries == 0
            && self.failovers == 0
            && !self.degraded
    }

    /// The one-line fault summary the CLI prints; `FaultLog::summary` in
    /// the backend crate delegates here, so the text is derived from the
    /// same fields the JSON renderer serializes.
    pub fn summary_line(&self) -> String {
        format!(
            "faults: {} injected, {} observed, {} recovered, {} failed \
             ({} tensors lost), {} retries, {} failovers{}",
            self.injected,
            self.observed,
            self.recovered,
            self.failed,
            self.failed_tensors,
            self.retries,
            self.failovers,
            if self.degraded { ", degraded mode" } else { "" }
        )
    }
}

/// One named latency distribution inside a [`RunReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStat {
    /// Distribution name (`chunk`, `stream`, `device`, or a telemetry
    /// histogram name like `batch.tensor_seconds`).
    pub name: String,
    /// The distribution itself.
    pub histogram: Histogram,
}

/// One host's headline numbers inside a [`RunReport`] — the per-host
/// generalization of [`DeviceStats`] for cluster-sharded runs. Empty for
/// single-host backends.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HostStats {
    /// Index into the cluster's host list (host 0 is the root).
    pub host_index: u64,
    /// Devices installed in this host.
    pub num_devices: u64,
    /// Tensors sharded onto this host.
    pub num_tensors: u64,
    /// Bytes shipped root→host over the NIC (0 for the root).
    pub nic_down_bytes: u64,
    /// Bytes shipped host→root over the NIC (0 for the root).
    pub nic_up_bytes: u64,
    /// Modeled NIC transfer seconds, both ways.
    pub nic_seconds: f64,
    /// NIC time plus the host's device-level makespan.
    pub seconds: f64,
}

/// Inter-node communication accounting of one run: achieved NIC traffic
/// charged against the Al Daas et al. lower bound. All-zero for
/// single-host backends.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommStats {
    /// Total bytes that crossed NICs, both directions.
    pub nic_bytes: u64,
    /// The communication lower bound for the run's problem and topology.
    pub lower_bound_bytes: u64,
    /// Achieved bytes over the bound (1.0 when the bound is zero).
    pub ratio: f64,
}

impl CommStats {
    /// True when no inter-node communication was modeled at all.
    pub fn is_empty(&self) -> bool {
        self.nic_bytes == 0 && self.lower_bound_bytes == 0
    }
}

/// Kernel-registry activity attributable to one run: how often the
/// memoized kernels that executed the batch were reused or built.
///
/// Plain data by design — the producing registry lives in the `kernelgen`
/// crate, which this crate must not depend on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelCacheStats {
    /// Kernel objects served from the in-process memo map.
    pub memo_hits: u64,
    /// Requests that missed the memo map and built the kernels.
    pub memo_misses: u64,
}

impl KernelCacheStats {
    /// True when the run touched no memoized kernels at all.
    pub fn is_empty(&self) -> bool {
        self.memo_hits == 0 && self.memo_misses == 0
    }

    /// The one-line rendering used by `render_text`.
    pub fn summary_line(&self) -> String {
        format!(
            "kernel cache: {} memo hits / {} misses",
            self.memo_hits, self.memo_misses,
        )
    }
}

/// One device's headline numbers inside a [`RunReport`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceStats {
    /// Index into the backend's device list (global, host-major, for
    /// cluster backends).
    pub device_index: u64,
    /// Index of the host owning this device (0 for single-host backends).
    pub host_index: u64,
    /// Device model name.
    pub device: String,
    /// Tensors assigned to this device.
    pub num_tensors: u64,
    /// Occupancy fraction in `[0, 1]`.
    pub occupancy: f64,
    /// Achieved GFLOP/s on this device.
    pub gflops: f64,
    /// Kernel seconds on this device.
    pub seconds: f64,
    /// Host↔device transfer seconds attributed to this device.
    pub transfer_seconds: f64,
}

/// The unified, schema-versioned observability record of one batched run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Schema version ([`RUN_REPORT_SCHEMA_VERSION`] when built here).
    pub schema_version: u64,
    /// Backend label (e.g. `cpu:4`, `pipelined:gpusim:tesla-c2050:1x2`).
    pub backend: String,
    /// Kernel strategy in effect (after shape fallback).
    pub kernel: String,
    /// Solver that produced the results (e.g. `sshopm`, `geap`, `qrst`);
    /// empty when the producing layer predates solver tagging.
    pub solver: String,
    /// Batch size and convergence accounting.
    pub workload: WorkloadStats,
    /// Wall-clock and flop-rate accounting.
    pub throughput: ThroughputStats,
    /// Fault/retry/failover rates.
    pub faults: FaultStats,
    /// Named latency distributions (always includes `chunk`).
    pub latencies: Vec<LatencyStat>,
    /// Per-device occupancy/GFLOPS rows (empty for CPU substrates).
    pub devices: Vec<DeviceStats>,
    /// Per-host shard rows (empty for single-host backends).
    pub hosts: Vec<HostStats>,
    /// Inter-node communication vs. the lower bound (all-zero for
    /// single-host backends).
    pub comm: CommStats,
    /// Kernel-registry cache activity during the run (`None` when the
    /// producing layer predates the registry, or nothing was memoized).
    pub kernel_cache: Option<KernelCacheStats>,
    /// Counters folded in from a telemetry snapshot, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges folded in from a telemetry snapshot, sorted by name.
    pub gauges: Vec<(String, f64)>,
}

impl RunReport {
    /// An empty report for `backend`/`kernel` at the current schema
    /// version.
    pub fn new(backend: impl Into<String>, kernel: impl Into<String>) -> RunReport {
        RunReport {
            schema_version: RUN_REPORT_SCHEMA_VERSION,
            backend: backend.into(),
            kernel: kernel.into(),
            ..RunReport::default()
        }
    }

    /// Add (or merge into) a named latency distribution.
    pub fn push_latency(&mut self, name: impl Into<String>, histogram: Histogram) {
        let name = name.into();
        match self.latencies.iter_mut().find(|l| l.name == name) {
            Some(existing) => existing.histogram.merge(&histogram),
            None => self.latencies.push(LatencyStat { name, histogram }),
        }
    }

    /// A named latency distribution, if present.
    pub fn latency(&self, name: &str) -> Option<&Histogram> {
        self.latencies
            .iter()
            .find(|l| l.name == name)
            .map(|l| &l.histogram)
    }

    /// Fold a telemetry snapshot in: counters and gauges are copied, and
    /// every aggregated histogram (e.g. `batch.tensor_seconds`,
    /// `gpu.kernel`) becomes an additional latency distribution.
    pub fn merge_telemetry(&mut self, snap: &TelemetrySnapshot) {
        for c in &snap.counters {
            self.counters.push((c.name.clone(), c.value));
        }
        for g in &snap.gauges {
            self.gauges.push((g.name.clone(), g.value));
        }
        for h in &snap.histograms {
            self.push_latency(h.name.clone(), h.to_histogram());
        }
    }

    /// The one-line summary the CLI prints after every solve; the backend
    /// crate's `BatchReport::summary` delegates here.
    pub fn headline(&self) -> String {
        format!(
            "backend {} ({} kernel): {} tensors x {} starts, {} iterations, \
             {:.3} ms, {:.2} GFLOP/s",
            self.backend,
            self.kernel,
            self.workload.num_tensors,
            self.workload.num_starts,
            self.workload.total_iterations,
            self.throughput.seconds * 1e3,
            self.throughput.gflops
        )
    }

    /// Multi-line human-readable rendering: headline, fault line (when
    /// anything fault-related happened), latency quantiles, device rows.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headline());
        if !self.faults.is_empty() {
            let _ = writeln!(out, "{}", self.faults.summary_line());
        }
        if !self.latencies.is_empty() {
            let _ = writeln!(out, "latencies (seconds):");
            for l in &self.latencies {
                let h = &l.histogram;
                let _ = writeln!(
                    out,
                    "  {:<24} count {:>8}  p50 {:>12.6}  p90 {:>12.6}  p99 {:>12.6}  \
                     mean {:>12.6}  max {:>12.6}",
                    l.name,
                    h.count(),
                    h.p50(),
                    h.p90(),
                    h.p99(),
                    h.mean(),
                    h.max(),
                );
            }
        }
        if !self.comm.is_empty() {
            let _ = writeln!(
                out,
                "comm: {} NIC bytes vs {} lower bound ({:.3}x)",
                self.comm.nic_bytes, self.comm.lower_bound_bytes, self.comm.ratio
            );
        }
        if let Some(kc) = self.kernel_cache.filter(|kc| !kc.is_empty()) {
            let _ = writeln!(out, "{}", kc.summary_line());
        }
        for h in &self.hosts {
            let _ = writeln!(
                out,
                "  host {}{}: {} devices, {} tensors, NIC {} B down + {} B up \
                 ({:.3} ms), total {:.3} ms",
                h.host_index,
                if h.host_index == 0 { " (root)" } else { "" },
                h.num_devices,
                h.num_tensors,
                h.nic_down_bytes,
                h.nic_up_bytes,
                h.nic_seconds * 1e3,
                h.seconds * 1e3,
            );
        }
        for d in &self.devices {
            let _ = writeln!(
                out,
                "  device {} ({}): {} tensors, occupancy {:.2}, {:.2} GFLOP/s, \
                 kernel {:.3} ms + transfer {:.3} ms",
                d.device_index,
                d.device,
                d.num_tensors,
                d.occupancy,
                d.gflops,
                d.seconds * 1e3,
                d.transfer_seconds * 1e3,
            );
        }
        out
    }

    /// Compact JSON.
    pub fn to_json(&self) -> String {
        self.to_value().to_json()
    }

    /// Pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// Parse a report back from its JSON form (any schema-version-1
    /// document).
    pub fn parse_json(input: &str) -> Result<RunReport, String> {
        let value = Value::parse_json(input).map_err(|e| format!("run report: {e}"))?;
        RunReport::from_value(&value).map_err(|e| format!("run report: {e}"))
    }

    /// Prometheus text exposition (the `/health`-endpoint body): gauges
    /// for throughput/occupancy, counters for work and faults, and one
    /// `histogram`-typed family per latency distribution with cumulative
    /// `le` buckets.
    pub fn to_prometheus(&self) -> String {
        let labels = format!(
            "backend=\"{}\",kernel=\"{}\"",
            prom_label(&self.backend),
            prom_label(&self.kernel)
        );
        let mut out = String::new();
        let gauge = |out: &mut String, name: &str, help: &str, value: f64| {
            let _ = writeln!(out, "# HELP tensor_eig_{name} {help}");
            let _ = writeln!(out, "# TYPE tensor_eig_{name} gauge");
            let _ = writeln!(out, "tensor_eig_{name}{{{labels}}} {}", prom_f64(value));
        };
        let counter = |out: &mut String, name: &str, help: &str, value: u64| {
            let _ = writeln!(out, "# HELP tensor_eig_{name} {help}");
            let _ = writeln!(out, "# TYPE tensor_eig_{name} counter");
            let _ = writeln!(out, "tensor_eig_{name}{{{labels}}} {value}");
        };
        gauge(
            &mut out,
            "run_seconds",
            "Wall-clock of the run (measured for CPU, modeled for GPU)",
            self.throughput.seconds,
        );
        gauge(
            &mut out,
            "run_gflops",
            "Achieved GFLOP/s",
            self.throughput.gflops,
        );
        gauge(
            &mut out,
            "run_tensors_per_second",
            "Tensors completed per second",
            self.throughput.tensors_per_second,
        );
        counter(
            &mut out,
            "run_tensors_total",
            "Tensors in the batch",
            self.workload.num_tensors,
        );
        counter(
            &mut out,
            "run_solves_total",
            "Individual (tensor, start) solves",
            self.workload.total_solves,
        );
        counter(
            &mut out,
            "run_converged_total",
            "Solves that converged",
            self.workload.converged_solves,
        );
        counter(
            &mut out,
            "run_iterations_total",
            "SS-HOPM iterations executed",
            self.workload.total_iterations,
        );
        counter(
            &mut out,
            "run_useful_flops_total",
            "Useful floating-point operations (FMA = 2)",
            self.throughput.useful_flops,
        );
        for (name, value) in [
            ("faults_injected_total", self.faults.injected),
            ("faults_observed_total", self.faults.observed),
            ("faults_recovered_total", self.faults.recovered),
            ("faults_failed_total", self.faults.failed),
            ("fault_retries_total", self.faults.retries),
            ("fault_failovers_total", self.faults.failovers),
            ("fault_lost_tensors_total", self.faults.failed_tensors),
        ] {
            counter(&mut out, name, "Fault-injection ledger", value);
        }
        gauge(
            &mut out,
            "run_degraded",
            "1 when any work ran on the CPU fallback",
            if self.faults.degraded { 1.0 } else { 0.0 },
        );
        if !self.comm.is_empty() {
            counter(
                &mut out,
                "nic_bytes_total",
                "Bytes that crossed NICs, both directions",
                self.comm.nic_bytes,
            );
            counter(
                &mut out,
                "comm_lower_bound_bytes",
                "Al Daas et al. communication lower bound",
                self.comm.lower_bound_bytes,
            );
            gauge(
                &mut out,
                "comm_ratio",
                "Achieved NIC bytes over the communication lower bound",
                self.comm.ratio,
            );
        }
        if let Some(kc) = self.kernel_cache.filter(|kc| !kc.is_empty()) {
            for (name, value) in [
                ("kernel_cache_memo_hits_total", kc.memo_hits),
                ("kernel_cache_memo_misses_total", kc.memo_misses),
            ] {
                counter(&mut out, name, "Kernel-registry cache ledger", value);
            }
        }
        for h in &self.hosts {
            let host_labels = format!("{labels},host_index=\"{}\"", h.host_index);
            let _ = writeln!(
                out,
                "# HELP tensor_eig_host_seconds NIC plus device makespan per host"
            );
            let _ = writeln!(out, "# TYPE tensor_eig_host_seconds gauge");
            let _ = writeln!(
                out,
                "tensor_eig_host_seconds{{{host_labels}}} {}",
                prom_f64(h.seconds)
            );
            let _ = writeln!(
                out,
                "# HELP tensor_eig_host_nic_bytes_total NIC bytes per host, both directions"
            );
            let _ = writeln!(out, "# TYPE tensor_eig_host_nic_bytes_total counter");
            let _ = writeln!(
                out,
                "tensor_eig_host_nic_bytes_total{{{host_labels}}} {}",
                h.nic_down_bytes + h.nic_up_bytes
            );
        }
        for d in &self.devices {
            let dev_labels = format!(
                "{labels},device=\"{}\",device_index=\"{}\"",
                prom_label(&d.device),
                d.device_index
            );
            let _ = writeln!(
                out,
                "# HELP tensor_eig_device_occupancy Occupancy fraction per device"
            );
            let _ = writeln!(out, "# TYPE tensor_eig_device_occupancy gauge");
            let _ = writeln!(
                out,
                "tensor_eig_device_occupancy{{{dev_labels}}} {}",
                prom_f64(d.occupancy)
            );
            let _ = writeln!(
                out,
                "# HELP tensor_eig_device_gflops Achieved GFLOP/s per device"
            );
            let _ = writeln!(out, "# TYPE tensor_eig_device_gflops gauge");
            let _ = writeln!(
                out,
                "tensor_eig_device_gflops{{{dev_labels}}} {}",
                prom_f64(d.gflops)
            );
        }
        let _ = writeln!(
            out,
            "# HELP tensor_eig_latency_seconds Latency distributions (per chunk / stream / device)"
        );
        let _ = writeln!(out, "# TYPE tensor_eig_latency_seconds histogram");
        for l in &self.latencies {
            let h = &l.histogram;
            let lat_labels = format!("{labels},latency=\"{}\"", prom_label(&l.name));
            let mut cumulative = 0u64;
            let top = h
                .buckets()
                .iter()
                .rposition(|&c| c > 0)
                .map_or(0, |i| i + 1);
            for (i, &c) in h.buckets().iter().take(top).enumerate() {
                cumulative += c;
                let _ = writeln!(
                    out,
                    "tensor_eig_latency_seconds_bucket{{{lat_labels},le=\"{}\"}} {cumulative}",
                    prom_f64(crate::histogram::bucket_upper_edge(i))
                );
            }
            let _ = writeln!(
                out,
                "tensor_eig_latency_seconds_bucket{{{lat_labels},le=\"+Inf\"}} {}",
                h.count()
            );
            let _ = writeln!(
                out,
                "tensor_eig_latency_seconds_sum{{{lat_labels}}} {}",
                prom_f64(h.sum())
            );
            let _ = writeln!(
                out,
                "tensor_eig_latency_seconds_count{{{lat_labels}}} {}",
                h.count()
            );
        }
        for (name, value) in &self.counters {
            let _ = writeln!(
                out,
                "tensor_eig_counter_{}{{{labels}}} {value}",
                prom_name(name)
            );
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(
                out,
                "tensor_eig_gauge_{}{{{labels}}} {}",
                prom_name(name),
                prom_f64(*value)
            );
        }
        out
    }
}

/// Sanitize a metric-name fragment: Prometheus names admit only
/// `[a-zA-Z0-9_:]`, and ours should avoid `:` (reserved for recording
/// rules), so everything else becomes `_`.
fn prom_name(s: &str) -> String {
    s.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Escape a label value per the exposition format (`\`, `"`, newline).
fn prom_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Render a float the exposition format accepts (no `inf`/`NaN` leaks).
fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

impl Serialize for FaultStats {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("injected", Value::UInt(self.injected)),
            ("observed", Value::UInt(self.observed)),
            ("recovered", Value::UInt(self.recovered)),
            ("failed", Value::UInt(self.failed)),
            ("failed_tensors", Value::UInt(self.failed_tensors)),
            ("retries", Value::UInt(self.retries)),
            ("failovers", Value::UInt(self.failovers)),
            ("degraded", Value::Bool(self.degraded)),
        ])
    }
}

fn get_u64(value: &Value, key: &str) -> u64 {
    value.get(key).and_then(Value::as_u64).unwrap_or(0)
}

fn get_f64(value: &Value, key: &str) -> f64 {
    value.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

fn get_str(value: &Value, key: &str) -> String {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_default()
        .to_owned()
}

impl<'de> Deserialize<'de> for FaultStats {
    fn from_value(value: &'de Value) -> Result<Self, Error> {
        Ok(FaultStats {
            injected: get_u64(value, "injected"),
            observed: get_u64(value, "observed"),
            recovered: get_u64(value, "recovered"),
            failed: get_u64(value, "failed"),
            failed_tensors: get_u64(value, "failed_tensors"),
            retries: get_u64(value, "retries"),
            failovers: get_u64(value, "failovers"),
            degraded: matches!(value.get("degraded"), Some(Value::Bool(true))),
        })
    }
}

impl Serialize for KernelCacheStats {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("memo_hits", Value::UInt(self.memo_hits)),
            ("memo_misses", Value::UInt(self.memo_misses)),
        ])
    }
}

impl<'de> Deserialize<'de> for KernelCacheStats {
    fn from_value(value: &'de Value) -> Result<Self, Error> {
        Ok(KernelCacheStats {
            memo_hits: get_u64(value, "memo_hits"),
            memo_misses: get_u64(value, "memo_misses"),
        })
    }
}

impl Serialize for RunReport {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("schema_version", Value::UInt(self.schema_version)),
            ("backend", Value::Str(self.backend.clone())),
            ("kernel", Value::Str(self.kernel.clone())),
            ("solver", Value::Str(self.solver.clone())),
            (
                "workload",
                Value::object(vec![
                    ("num_tensors", Value::UInt(self.workload.num_tensors)),
                    ("num_starts", Value::UInt(self.workload.num_starts)),
                    ("total_solves", Value::UInt(self.workload.total_solves)),
                    (
                        "converged_solves",
                        Value::UInt(self.workload.converged_solves),
                    ),
                    (
                        "total_iterations",
                        Value::UInt(self.workload.total_iterations),
                    ),
                ]),
            ),
            (
                "throughput",
                Value::object(vec![
                    ("seconds", Value::Float(self.throughput.seconds)),
                    ("useful_flops", Value::UInt(self.throughput.useful_flops)),
                    ("gflops", Value::Float(self.throughput.gflops)),
                    (
                        "tensors_per_second",
                        Value::Float(self.throughput.tensors_per_second),
                    ),
                ]),
            ),
            ("faults", self.faults.to_value()),
            (
                "latencies",
                Value::Map(
                    self.latencies
                        .iter()
                        .map(|l| (l.name.clone(), l.histogram.to_value()))
                        .collect(),
                ),
            ),
            (
                "devices",
                Value::Seq(
                    self.devices
                        .iter()
                        .map(|d| {
                            Value::object(vec![
                                ("device_index", Value::UInt(d.device_index)),
                                ("host_index", Value::UInt(d.host_index)),
                                ("device", Value::Str(d.device.clone())),
                                ("num_tensors", Value::UInt(d.num_tensors)),
                                ("occupancy", Value::Float(d.occupancy)),
                                ("gflops", Value::Float(d.gflops)),
                                ("seconds", Value::Float(d.seconds)),
                                ("transfer_seconds", Value::Float(d.transfer_seconds)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "hosts",
                Value::Seq(
                    self.hosts
                        .iter()
                        .map(|h| {
                            Value::object(vec![
                                ("host_index", Value::UInt(h.host_index)),
                                ("num_devices", Value::UInt(h.num_devices)),
                                ("num_tensors", Value::UInt(h.num_tensors)),
                                ("nic_down_bytes", Value::UInt(h.nic_down_bytes)),
                                ("nic_up_bytes", Value::UInt(h.nic_up_bytes)),
                                ("nic_seconds", Value::Float(h.nic_seconds)),
                                ("seconds", Value::Float(h.seconds)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "comm",
                Value::object(vec![
                    ("nic_bytes", Value::UInt(self.comm.nic_bytes)),
                    (
                        "lower_bound_bytes",
                        Value::UInt(self.comm.lower_bound_bytes),
                    ),
                    ("ratio", Value::Float(self.comm.ratio)),
                ]),
            ),
            (
                "counters",
                Value::Map(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Value::Map(
                    self.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::Float(*v)))
                        .collect(),
                ),
            ),
        ];
        // Reports from layers that never touch the kernel registry simply
        // omit the key, mirroring the pre-registry schema.
        if let Some(kc) = &self.kernel_cache {
            fields.push(("kernel_cache", kc.to_value()));
        }
        Value::object(fields)
    }
}

impl<'de> Deserialize<'de> for RunReport {
    fn from_value(value: &'de Value) -> Result<Self, Error> {
        let schema_version = value
            .get("schema_version")
            .and_then(Value::as_u64)
            .ok_or_else(|| Error::custom("missing schema_version"))?;
        if schema_version != RUN_REPORT_SCHEMA_VERSION {
            return Err(Error::custom(format!(
                "unsupported schema_version {schema_version} (current is \
                 {RUN_REPORT_SCHEMA_VERSION})"
            )));
        }
        let workload = value
            .get("workload")
            .ok_or_else(|| Error::custom("missing workload"))?;
        let throughput = value
            .get("throughput")
            .ok_or_else(|| Error::custom("missing throughput"))?;
        let faults = match value.get("faults") {
            Some(f) => FaultStats::from_value(f)?,
            None => FaultStats::default(),
        };
        let mut latencies = Vec::new();
        if let Some(Value::Map(pairs)) = value.get("latencies") {
            for (name, hv) in pairs {
                latencies.push(LatencyStat {
                    name: name.clone(),
                    histogram: Histogram::from_value(hv)?,
                });
            }
        }
        let mut devices = Vec::new();
        if let Some(seq) = value.get("devices").and_then(Value::as_seq) {
            for d in seq {
                devices.push(DeviceStats {
                    device_index: get_u64(d, "device_index"),
                    host_index: get_u64(d, "host_index"),
                    device: get_str(d, "device"),
                    num_tensors: get_u64(d, "num_tensors"),
                    occupancy: get_f64(d, "occupancy"),
                    gflops: get_f64(d, "gflops"),
                    seconds: get_f64(d, "seconds"),
                    transfer_seconds: get_f64(d, "transfer_seconds"),
                });
            }
        }
        let mut hosts = Vec::new();
        if let Some(seq) = value.get("hosts").and_then(Value::as_seq) {
            for h in seq {
                hosts.push(HostStats {
                    host_index: get_u64(h, "host_index"),
                    num_devices: get_u64(h, "num_devices"),
                    num_tensors: get_u64(h, "num_tensors"),
                    nic_down_bytes: get_u64(h, "nic_down_bytes"),
                    nic_up_bytes: get_u64(h, "nic_up_bytes"),
                    nic_seconds: get_f64(h, "nic_seconds"),
                    seconds: get_f64(h, "seconds"),
                });
            }
        }
        // Reports written before the cluster backend carry no "comm" key;
        // default to the all-zero record.
        let comm = match value.get("comm") {
            Some(c) => CommStats {
                nic_bytes: get_u64(c, "nic_bytes"),
                lower_bound_bytes: get_u64(c, "lower_bound_bytes"),
                ratio: get_f64(c, "ratio"),
            },
            None => CommStats::default(),
        };
        // Reports written before the kernel registry carry no
        // "kernel_cache" key; that parses as `None`, not an error.
        let kernel_cache = match value.get("kernel_cache") {
            Some(kc) => Some(KernelCacheStats::from_value(kc)?),
            None => None,
        };
        let mut counters = Vec::new();
        if let Some(Value::Map(pairs)) = value.get("counters") {
            for (name, v) in pairs {
                counters.push((name.clone(), v.as_u64().unwrap_or(0)));
            }
        }
        let mut gauges = Vec::new();
        if let Some(Value::Map(pairs)) = value.get("gauges") {
            for (name, v) in pairs {
                gauges.push((name.clone(), v.as_f64().unwrap_or(0.0)));
            }
        }
        Ok(RunReport {
            schema_version,
            backend: get_str(value, "backend"),
            kernel: get_str(value, "kernel"),
            solver: get_str(value, "solver"),
            workload: WorkloadStats {
                num_tensors: get_u64(workload, "num_tensors"),
                num_starts: get_u64(workload, "num_starts"),
                total_solves: get_u64(workload, "total_solves"),
                converged_solves: get_u64(workload, "converged_solves"),
                total_iterations: get_u64(workload, "total_iterations"),
            },
            throughput: ThroughputStats {
                seconds: get_f64(throughput, "seconds"),
                useful_flops: get_u64(throughput, "useful_flops"),
                gflops: get_f64(throughput, "gflops"),
                tensors_per_second: get_f64(throughput, "tensors_per_second"),
            },
            faults,
            latencies,
            devices,
            hosts,
            comm,
            kernel_cache,
            counters,
            gauges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        let mut r = RunReport::new("gpusim:tesla-c2050", "unrolled");
        r.solver = "sshopm".into();
        r.workload = WorkloadStats {
            num_tensors: 8,
            num_starts: 16,
            total_solves: 128,
            converged_solves: 120,
            total_iterations: 2560,
        };
        r.throughput = ThroughputStats {
            seconds: 0.004,
            useful_flops: 4_000_000,
            gflops: 1.0,
            tensors_per_second: 2000.0,
        };
        let mut h = Histogram::new();
        for v in [1e-4, 2e-4, 3e-4, 5e-3] {
            h.observe(v);
        }
        r.push_latency("chunk", h);
        r.devices.push(DeviceStats {
            device_index: 0,
            host_index: 1,
            device: "Tesla C2050".into(),
            num_tensors: 8,
            occupancy: 0.67,
            gflops: 1.0,
            seconds: 0.004,
            transfer_seconds: 0.001,
        });
        r.hosts.push(HostStats {
            host_index: 1,
            num_devices: 2,
            num_tensors: 8,
            nic_down_bytes: 4096,
            nic_up_bytes: 1024,
            nic_seconds: 0.0005,
            seconds: 0.0045,
        });
        r.comm = CommStats {
            nic_bytes: 5120,
            lower_bound_bytes: 5000,
            ratio: 1.024,
        };
        r.kernel_cache = Some(KernelCacheStats {
            memo_hits: 3,
            memo_misses: 1,
        });
        r.counters.push(("batch.solves".into(), 128));
        r.gauges.push(("gpu.occupancy".into(), 0.67));
        r
    }

    #[test]
    fn headline_matches_cli_format() {
        let r = sample();
        let h = r.headline();
        assert_eq!(
            h,
            "backend gpusim:tesla-c2050 (unrolled kernel): 8 tensors x 16 starts, \
             2560 iterations, 4.000 ms, 1.00 GFLOP/s"
        );
    }

    #[test]
    fn json_round_trips() {
        let r = sample();
        let back = RunReport::parse_json(&r.to_json_pretty()).expect("parse");
        assert_eq!(back, r);
    }

    #[test]
    fn reports_without_a_solver_field_still_parse() {
        // Baselines written before solver tagging carry no "solver" key;
        // they must keep parsing with an empty solver string.
        let mut v = sample().to_value();
        if let Value::Map(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "solver");
        }
        let back = RunReport::from_value(&v).expect("parse");
        assert_eq!(back.solver, "");
        assert_eq!(back.backend, "gpusim:tesla-c2050");
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let mut v = sample().to_value();
        if let Value::Map(pairs) = &mut v {
            pairs[0].1 = Value::UInt(999);
        }
        let err = RunReport::from_value(&v).unwrap_err();
        assert!(err.to_string().contains("schema_version"), "{err}");
    }

    #[test]
    fn push_latency_merges_same_name() {
        let mut r = RunReport::new("cpu", "general");
        let mut a = Histogram::new();
        a.observe(1e-3);
        let mut b = Histogram::new();
        b.observe(2e-3);
        r.push_latency("chunk", a);
        r.push_latency("chunk", b);
        assert_eq!(r.latencies.len(), 1);
        assert_eq!(r.latency("chunk").map(Histogram::count), Some(2));
    }

    #[test]
    fn text_rendering_lists_latency_quantiles() {
        let text = sample().render_text();
        assert!(text.contains("backend gpusim:tesla-c2050"), "{text}");
        assert!(text.contains("chunk"), "{text}");
        assert!(text.contains("p50"), "{text}");
        assert!(text.contains("p99"), "{text}");
        assert!(text.contains("device 0 (Tesla C2050)"), "{text}");
        assert!(text.contains("host 1: 2 devices"), "{text}");
        assert!(
            text.contains("comm: 5120 NIC bytes vs 5000 lower bound"),
            "{text}"
        );
        // No faults happened, so no fault line.
        assert!(!text.contains("faults:"), "{text}");
    }

    #[test]
    fn reports_without_hosts_or_comm_still_parse() {
        // Reports written before the cluster backend carry neither key.
        let mut v = sample().to_value();
        if let Value::Map(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "hosts" && k != "comm");
        }
        let back = RunReport::from_value(&v).expect("parse");
        assert!(back.hosts.is_empty());
        assert!(back.comm.is_empty());
    }

    #[test]
    fn reports_without_kernel_cache_still_parse() {
        // Reports written before the kernel registry carry no such key.
        let mut v = sample().to_value();
        if let Value::Map(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "kernel_cache");
        }
        let back = RunReport::from_value(&v).expect("parse");
        assert!(back.kernel_cache.is_none());
        // And a `None` block serializes to an absent key, not a null.
        let v = back.to_value();
        assert!(v.get("kernel_cache").is_none());
    }

    #[test]
    fn kernel_cache_block_renders_and_round_trips() {
        let r = sample();
        let text = r.render_text();
        assert!(
            text.contains("kernel cache: 3 memo hits / 1 misses"),
            "{text}"
        );
        let back = RunReport::parse_json(&r.to_json()).expect("parse");
        assert_eq!(back.kernel_cache, r.kernel_cache);
        let prom = r.to_prometheus();
        for name in [
            "tensor_eig_kernel_cache_memo_hits_total",
            "tensor_eig_kernel_cache_memo_misses_total",
        ] {
            assert!(prom.contains(name), "{prom}");
        }
    }

    #[test]
    fn fault_line_matches_legacy_format() {
        let f = FaultStats {
            injected: 3,
            observed: 3,
            recovered: 2,
            failed: 1,
            failed_tensors: 1,
            retries: 4,
            failovers: 1,
            degraded: true,
        };
        assert_eq!(
            f.summary_line(),
            "faults: 3 injected, 3 observed, 2 recovered, 1 failed (1 tensors lost), \
             4 retries, 1 failovers, degraded mode"
        );
        assert!(!f.is_empty());
        assert!(FaultStats::default().is_empty());
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let text = sample().to_prometheus();
        assert!(
            text.contains("# TYPE tensor_eig_run_seconds gauge"),
            "{text}"
        );
        assert!(
            text.contains("# TYPE tensor_eig_latency_seconds histogram"),
            "{text}"
        );
        assert!(
            text.contains("le=\"+Inf\"}} 4") || text.contains("le=\"+Inf\"} 4"),
            "{text}"
        );
        assert!(text.contains("tensor_eig_latency_seconds_count"), "{text}");
        assert!(text.contains("latency=\"chunk\""), "{text}");
        // Counter names survive sanitization ('.' -> '_').
        assert!(text.contains("tensor_eig_counter_batch_solves"), "{text}");
        assert!(text.contains("tensor_eig_comm_ratio"), "{text}");
        assert!(
            text.contains("tensor_eig_host_nic_bytes_total") && text.contains("host_index=\"1\""),
            "{text}"
        );
    }
}
