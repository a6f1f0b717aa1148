//! Structured profiling: a machine-readable snapshot of everything one
//! kernel launch reported.
//!
//! [`LaunchReport`] is the in-process report; [`ProfileSnapshot`] is its
//! export shape — a flat, serializable record combining the device, the
//! grid, the occupancy result, the operation-counter breakdown, the
//! memory-system view (coalescing and traffic), divergence statistics, and
//! the analytic timing components. The bench binaries and the CLI
//! `profile` subcommand serialize it as JSON; [`Telemetry`] custom events
//! carry it through sinks.
//!
//! A snapshot describes one *launch*; the per-op view of a whole batch —
//! when each upload, kernel, and download ran and how much transfer hid
//! behind compute — is the [`crate::stream::Timeline`], emitted as
//! modeled telemetry spans (one chrome://tracing row per stream) by
//! [`crate::stream::Timeline::emit`] and summarized by the CLI's
//! `profile --pipeline` alongside this snapshot.

use crate::device::DeviceSpec;
use crate::kernel::LaunchReport;
use crate::memory::{coalesced_transactions, uncoalesced_transactions};
use serde::{Serialize, Value};
use telemetry::Telemetry;

/// A serializable profile of one simulated kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSnapshot {
    /// Device the launch was modelled on.
    pub device: String,
    /// Kernel variant ("general" / "unrolled").
    pub variant: String,
    /// Thread blocks in the grid (= tensors).
    pub num_blocks: usize,
    /// Threads per block (= starting vectors).
    pub threads_per_block: usize,
    /// Warps launched in total.
    pub num_warps: usize,

    /// Registers per thread (occupancy input).
    pub registers_per_thread: usize,
    /// Shared memory per block in bytes (occupancy input).
    pub shared_mem_per_block: usize,
    /// Resident blocks per SM.
    pub blocks_per_sm: usize,
    /// Resident warps per SM.
    pub warps_per_sm: usize,
    /// Occupancy fraction in `[0, 1]`.
    pub occupancy: f64,
    /// Resource that bounded occupancy.
    pub occupancy_limiter: String,

    /// Full operation-counter breakdown summed over all threads.
    pub counters: CounterBreakdown,
    /// Useful floating-point operations (FMA = 2).
    pub useful_flops: u64,
    /// SIMD efficiency in `[0, 1]` (1 = no divergence, full warps).
    pub simd_efficiency: f64,
    /// Issue slots lost to divergence: warp-serial minus the
    /// divergence-free per-lane cost, in weighted instruction units.
    pub divergence_overhead_instructions: u64,

    /// Global-memory words moved (loads + stores).
    pub global_words: u64,
    /// 128-byte transactions assuming the kernel's coalesced access
    /// pattern (consecutive threads touch consecutive words).
    pub coalesced_transactions: u64,
    /// Transactions the same traffic would need fully uncoalesced — the
    /// ratio to `coalesced_transactions` is the coalescing win.
    pub uncoalesced_transactions: u64,
    /// Shared-memory accesses (all conflict-free broadcasts / unit
    /// strides in this kernel; bank-conflict replay factor 1).
    pub shared_accesses: u64,

    /// Compute-bound seconds.
    pub compute_seconds: f64,
    /// Memory-bound seconds.
    pub memory_seconds: f64,
    /// Total estimated seconds (max of the two plus launch overhead).
    pub seconds: f64,
    /// Issue efficiency applied by the timing model.
    pub issue_efficiency: f64,
    /// SMs with work.
    pub active_sms: usize,
    /// Achieved GFLOP/s.
    pub gflops: f64,
    /// Device peak single-precision GFLOP/s, for the achieved fraction.
    pub peak_gflops: f64,
}

/// The per-kind operation counts of a launch, in export form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterBreakdown {
    /// Floating-point adds/subtracts.
    pub fadd: u64,
    /// Floating-point multiplies.
    pub fmul: u64,
    /// Fused multiply-adds.
    pub ffma: u64,
    /// Divisions.
    pub fdiv: u64,
    /// Square roots.
    pub fsqrt: u64,
    /// Integer/address operations.
    pub int_ops: u64,
    /// Shared-memory loads.
    pub shared_loads: u64,
    /// Shared-memory stores.
    pub shared_stores: u64,
    /// Global-memory loads.
    pub global_loads: u64,
    /// Global-memory stores.
    pub global_stores: u64,
}

impl ProfileSnapshot {
    /// Build a snapshot from a launch report on `device`.
    pub fn from_report(device: &DeviceSpec, report: &LaunchReport) -> ProfileSnapshot {
        let c = &report.stats.counters;
        let global_words = c.global_words();
        ProfileSnapshot {
            device: device.name.to_owned(),
            variant: report.variant.name().to_owned(),
            num_blocks: report.grid.num_blocks,
            threads_per_block: report.grid.threads_per_block,
            num_warps: report.stats.num_warps,
            registers_per_thread: report.resources.registers_per_thread,
            shared_mem_per_block: report.resources.shared_mem_per_block,
            blocks_per_sm: report.occupancy.blocks_per_sm,
            warps_per_sm: report.occupancy.warps_per_sm,
            occupancy: report.occupancy.fraction,
            occupancy_limiter: report.occupancy.limiter.to_owned(),
            counters: CounterBreakdown {
                fadd: c.fadd,
                fmul: c.fmul,
                ffma: c.ffma,
                fdiv: c.fdiv,
                fsqrt: c.fsqrt,
                int_ops: c.int_ops,
                shared_loads: c.shared_loads,
                shared_stores: c.shared_stores,
                global_loads: c.global_loads,
                global_stores: c.global_stores,
            },
            useful_flops: report.useful_flops,
            simd_efficiency: report.stats.simd_efficiency(report.grid.warp_size),
            divergence_overhead_instructions: report.stats.warp_serial_instructions.saturating_sub(
                report.stats.thread_instructions / (report.grid.warp_size as u64).max(1),
            ),
            global_words,
            coalesced_transactions: coalesced_transactions(global_words as usize) as u64,
            uncoalesced_transactions: uncoalesced_transactions(global_words as usize) as u64,
            shared_accesses: c.shared_accesses(),
            compute_seconds: report.timing.compute_seconds,
            memory_seconds: report.timing.memory_seconds,
            seconds: report.timing.seconds,
            issue_efficiency: report.timing.issue_efficiency,
            active_sms: report.timing.active_sms,
            gflops: report.gflops,
            peak_gflops: device.peak_sp_gflops(),
        }
    }

    /// Fraction of device peak the launch achieved.
    pub fn peak_fraction(&self) -> f64 {
        if self.peak_gflops > 0.0 {
            self.gflops / self.peak_gflops
        } else {
            0.0
        }
    }

    /// Pretty-printed JSON.
    pub fn to_json_pretty(&self) -> String {
        self.to_value().to_json_pretty()
    }

    /// Emit this snapshot as a `gpu.launch` custom telemetry event and
    /// mirror its headline numbers onto gauges.
    pub fn emit(&self, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        telemetry.event("gpu.launch", self.to_value());
        telemetry.gauge("gpu.gflops", self.gflops);
        telemetry.gauge("gpu.occupancy", self.occupancy);
        telemetry.gauge("gpu.simd_efficiency", self.simd_efficiency);
        telemetry.counter("gpu.useful_flops", self.useful_flops);
        telemetry.counter("gpu.launches", 1);
    }
}

impl Serialize for CounterBreakdown {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("fadd", Value::UInt(self.fadd)),
            ("fmul", Value::UInt(self.fmul)),
            ("ffma", Value::UInt(self.ffma)),
            ("fdiv", Value::UInt(self.fdiv)),
            ("fsqrt", Value::UInt(self.fsqrt)),
            ("int_ops", Value::UInt(self.int_ops)),
            ("shared_loads", Value::UInt(self.shared_loads)),
            ("shared_stores", Value::UInt(self.shared_stores)),
            ("global_loads", Value::UInt(self.global_loads)),
            ("global_stores", Value::UInt(self.global_stores)),
        ])
    }
}

impl Serialize for ProfileSnapshot {
    fn to_value(&self) -> Value {
        Value::object(vec![
            ("device", Value::Str(self.device.clone())),
            ("variant", Value::Str(self.variant.clone())),
            ("num_blocks", Value::UInt(self.num_blocks as u64)),
            (
                "threads_per_block",
                Value::UInt(self.threads_per_block as u64),
            ),
            ("num_warps", Value::UInt(self.num_warps as u64)),
            (
                "registers_per_thread",
                Value::UInt(self.registers_per_thread as u64),
            ),
            (
                "shared_mem_per_block",
                Value::UInt(self.shared_mem_per_block as u64),
            ),
            ("blocks_per_sm", Value::UInt(self.blocks_per_sm as u64)),
            ("warps_per_sm", Value::UInt(self.warps_per_sm as u64)),
            ("occupancy", Value::Float(self.occupancy)),
            (
                "occupancy_limiter",
                Value::Str(self.occupancy_limiter.clone()),
            ),
            ("counters", self.counters.to_value()),
            ("useful_flops", Value::UInt(self.useful_flops)),
            ("simd_efficiency", Value::Float(self.simd_efficiency)),
            (
                "divergence_overhead_instructions",
                Value::UInt(self.divergence_overhead_instructions),
            ),
            ("global_words", Value::UInt(self.global_words)),
            (
                "coalesced_transactions",
                Value::UInt(self.coalesced_transactions),
            ),
            (
                "uncoalesced_transactions",
                Value::UInt(self.uncoalesced_transactions),
            ),
            ("shared_accesses", Value::UInt(self.shared_accesses)),
            ("compute_seconds", Value::Float(self.compute_seconds)),
            ("memory_seconds", Value::Float(self.memory_seconds)),
            ("seconds", Value::Float(self.seconds)),
            ("issue_efficiency", Value::Float(self.issue_efficiency)),
            ("active_sms", Value::UInt(self.active_sms as u64)),
            ("gflops", Value::Float(self.gflops)),
            ("peak_gflops", Value::Float(self.peak_gflops)),
            ("peak_fraction", Value::Float(self.peak_fraction())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{tests::launch, GpuVariant, IterationCounts};

    fn sample_snapshot() -> ProfileSnapshot {
        // 6 tensors × 32 starts, 12 iterations each.
        let iterations = [12u64; 6 * 32];
        let counts = IterationCounts::new(4, 3, 4, 32, &iterations).unwrap();
        let device = DeviceSpec::tesla_c2050();
        let report = launch(&device, counts, GpuVariant::General).unwrap();
        ProfileSnapshot::from_report(&device, &report)
    }

    #[test]
    fn snapshot_matches_report_fields() {
        let snap = sample_snapshot();
        assert_eq!(snap.variant, "general");
        assert_eq!(snap.num_blocks, 6);
        assert_eq!(snap.threads_per_block, 32);
        assert!(snap.useful_flops > 0);
        assert!(snap.occupancy > 0.0 && snap.occupancy <= 1.0);
        assert!(snap.seconds > 0.0);
        assert!(snap.peak_fraction() > 0.0 && snap.peak_fraction() < 1.0);
        assert_eq!(
            snap.global_words,
            snap.counters.global_loads + snap.counters.global_stores
        );
        assert!(snap.coalesced_transactions <= snap.uncoalesced_transactions);
    }

    #[test]
    fn snapshot_serializes_to_parseable_json() {
        let snap = sample_snapshot();
        let json = snap.to_json_pretty();
        let value = Value::parse_json(&json).expect("valid JSON");
        assert_eq!(
            value.get("variant").and_then(Value::as_str),
            Some("general")
        );
        assert_eq!(
            value.get("useful_flops").and_then(Value::as_u64),
            Some(snap.useful_flops)
        );
        let counters = value.get("counters").expect("counters object");
        assert_eq!(
            counters.get("ffma").and_then(Value::as_u64),
            Some(snap.counters.ffma)
        );
        assert!(value.get("peak_fraction").and_then(Value::as_f64).is_some());
    }

    #[test]
    fn emit_reaches_telemetry() {
        let snap = sample_snapshot();
        let tel = Telemetry::enabled();
        snap.emit(&tel);
        let agg = tel.snapshot();
        assert_eq!(agg.counter("gpu.launches"), Some(1));
        assert_eq!(agg.counter("gpu.useful_flops"), Some(snap.useful_flops));
        assert_eq!(agg.gauge("gpu.gflops"), Some(snap.gflops));
        assert_eq!(agg.events.len(), 1);
        assert_eq!(agg.events[0].0, "gpu.launch");

        // Disabled handle: emit is a no-op.
        snap.emit(&Telemetry::disabled());
    }
}
