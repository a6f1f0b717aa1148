//! The analytic timing model: counted work → estimated seconds → GFLOPS.
//!
//! ## Model
//!
//! Let `I` be the divergence-aware warp-serial instruction count of the
//! whole launch (each warp charged its slowest lane; expensive instructions
//! pre-weighted in issue slots). An SM issues `issue_rate` warp
//! instructions per cycle when enough warps are resident to hide latency.
//!
//! * **Parallelism**: with `B` blocks and `blocks_per_sm` resident blocks,
//!   at most `min(num_sms, ceil(B / blocks_per_sm))` SMs have work; work is
//!   assumed evenly divided among them (the blocks are homogeneous).
//! * **Latency hiding**: an SM needs roughly `warps_needed` resident warps
//!   to keep its pipelines full (Fermi arithmetic latency ≈ 18 cycles at
//!   ~1 IPC); below that, issue efficiency degrades proportionally.
//! * **Memory bound**: global traffic divided by bandwidth gives a floor.
//! * **Overhead**: a fixed per-launch cost (driver + kernel launch).
//!
//! `estimated seconds = max(compute, memory) + overhead`.

use crate::device::DeviceSpec;
use crate::exec::LaunchStats;
use crate::occupancy::Occupancy;

/// Resident warps an SM needs for full issue efficiency.
pub const WARPS_NEEDED: f64 = 16.0;

/// Fixed per-launch overhead in seconds (driver, launch, sync).
pub const LAUNCH_OVERHEAD_S: f64 = 10e-6;

/// Issue-slot weights for expensive operations, used when kernels compute
/// their weighted instruction counts.
pub mod weights {
    /// Plain FP add/mul/FMA and integer ops: one issue slot.
    pub const SIMPLE: u64 = 1;
    /// Division (software-expanded on Fermi).
    pub const FDIV: u64 = 8;
    /// Square root (special function unit).
    pub const FSQRT: u64 = 8;
    /// Shared-memory access (conflict-free).
    pub const SHARED: u64 = 1;
}

/// The timing breakdown of one launch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingEstimate {
    /// Seconds in the compute-bound term.
    pub compute_seconds: f64,
    /// Seconds in the memory-bound term.
    pub memory_seconds: f64,
    /// Total estimate (max of the above plus overhead).
    pub seconds: f64,
    /// Issue efficiency applied (1.0 = full latency hiding).
    pub issue_efficiency: f64,
    /// Number of SMs with work.
    pub active_sms: usize,
}

impl TimingEstimate {
    /// Achieved GFLOP/s for a given number of useful flops.
    pub fn gflops(&self, useful_flops: u64) -> f64 {
        useful_flops as f64 / self.seconds / 1e9
    }
}

/// Estimate the run time of a launch.
///
/// `num_blocks` is the grid size; `stats` the launch's cost pass
/// ([`crate::exec::run_grid`]); `occ` the occupancy of the kernel on
/// `device`.
///
/// If the occupancy is zero (kernel cannot fit), the estimate is infinite.
pub fn estimate(
    device: &DeviceSpec,
    num_blocks: usize,
    stats: &LaunchStats,
    occ: &Occupancy,
) -> TimingEstimate {
    if occ.blocks_per_sm == 0 || num_blocks == 0 {
        return TimingEstimate {
            compute_seconds: f64::INFINITY,
            memory_seconds: 0.0,
            seconds: f64::INFINITY,
            issue_efficiency: 0.0,
            active_sms: 0,
        };
    }

    // Blocks are distributed breadth-first across SMs, so any grid with at
    // least `num_sms` blocks lights up the whole chip.
    let active_sms = device.num_sms.min(num_blocks).max(1);

    // Resident warps per active SM: capped by what the grid supplies.
    let warps_per_block = stats.num_warps as f64 / num_blocks.max(1) as f64;
    let resident_blocks = occ
        .blocks_per_sm
        .min(num_blocks.div_ceil(active_sms))
        .max(1);
    let resident_warps = resident_blocks as f64 * warps_per_block;
    let issue_efficiency = (resident_warps / WARPS_NEEDED).min(1.0);

    let clock_hz = device.clock_ghz * 1e9;
    let cycles = stats.warp_serial_instructions as f64
        / (active_sms as f64 * device.issue_rate * issue_efficiency);
    let compute_seconds = cycles / clock_hz;

    let global_bytes = stats.counters.global_words() * 4;
    let memory_seconds = crate::memory::transfer_seconds(global_bytes, device.mem_bandwidth_gbs);

    let seconds = compute_seconds.max(memory_seconds) + LAUNCH_OVERHEAD_S;
    TimingEstimate {
        compute_seconds,
        memory_seconds,
        seconds,
        issue_efficiency,
        active_sms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::OpCounters;

    fn stats(warp_serial: u64, warps: usize, global_words: u64) -> LaunchStats {
        LaunchStats {
            counters: OpCounters {
                global_loads: global_words,
                ..Default::default()
            },
            warp_serial_instructions: warp_serial,
            thread_instructions: warp_serial * 32,
            num_warps: warps,
        }
    }

    fn full_occ() -> Occupancy {
        Occupancy {
            blocks_per_sm: 8,
            warps_per_sm: 32,
            fraction: 0.67,
            limiter: "block slots",
        }
    }

    #[test]
    fn zero_occupancy_is_infinite() {
        let d = DeviceSpec::tesla_c2050();
        let occ = Occupancy {
            blocks_per_sm: 0,
            warps_per_sm: 0,
            fraction: 0.0,
            limiter: "block too large",
        };
        let t = estimate(&d, 100, &stats(1000, 400, 0), &occ);
        assert!(t.seconds.is_infinite());
        assert_eq!(t.active_sms, 0);
    }

    #[test]
    fn compute_time_scales_with_instructions() {
        let d = DeviceSpec::tesla_c2050();
        // 1024 blocks, 4 warps each: device fully active.
        let t1 = estimate(&d, 1024, &stats(1_000_000, 4096, 0), &full_occ());
        let t2 = estimate(&d, 1024, &stats(2_000_000, 4096, 0), &full_occ());
        assert!((t2.compute_seconds / t1.compute_seconds - 2.0).abs() < 1e-9);
        assert_eq!(t1.active_sms, 14);
        assert!((t1.issue_efficiency - 1.0).abs() < 1e-12);
    }

    #[test]
    fn small_grids_use_fewer_sms() {
        let d = DeviceSpec::tesla_c2050();
        // Blocks spread breadth-first: 4 blocks light up 4 SMs.
        let t = estimate(&d, 4, &stats(1000, 16, 0), &full_occ());
        assert_eq!(t.active_sms, 4);
        // The 4-block launch also runs at reduced issue efficiency (only
        // one resident block per SM): 1000/(4 SMs x 0.25) = 1000 cycles.
        assert!((t.issue_efficiency - 0.25).abs() < 1e-12);
        // 56 blocks fill all 14 SMs at full efficiency; 14x the total work
        // across 3.5x the SMs at 4x the efficiency comes out equal.
        let big = estimate(&d, 56, &stats(14_000, 224, 0), &full_occ());
        assert_eq!(big.active_sms, 14);
        assert!((big.issue_efficiency - 1.0).abs() < 1e-12);
        assert!((big.compute_seconds - t.compute_seconds).abs() < 1e-12);
        assert!(big.compute_seconds < t.compute_seconds * 14.0);
    }

    #[test]
    fn low_resident_warps_reduce_issue_efficiency() {
        let d = DeviceSpec::tesla_c2050();
        let occ_one_block = Occupancy {
            blocks_per_sm: 1,
            warps_per_sm: 4,
            fraction: 0.083,
            limiter: "shared memory",
        };
        // 14 blocks, 4 warps each -> one block per SM, 4 resident warps.
        let t = estimate(&d, 14, &stats(10_000, 56, 0), &occ_one_block);
        assert!((t.issue_efficiency - 4.0 / WARPS_NEEDED).abs() < 1e-9);
    }

    #[test]
    fn memory_bound_launch_is_floored_by_bandwidth() {
        let d = DeviceSpec::tesla_c2050();
        // Tiny compute, huge traffic: 144 GB/s moving 1.44 GB = 10 ms.
        let words = 1_440_000_000 / 4;
        let t = estimate(&d, 1024, &stats(100, 4096, words as u64), &full_occ());
        assert!((t.memory_seconds - 0.01).abs() < 1e-4);
        assert!(t.seconds >= t.memory_seconds);
    }

    #[test]
    fn gflops_inverts_seconds() {
        let d = DeviceSpec::tesla_c2050();
        let t = estimate(&d, 1024, &stats(1_000_000, 4096, 0), &full_occ());
        let g = t.gflops(1_000_000_000);
        assert!((g - 1.0 / t.seconds).abs() < 1e-9);
    }

    #[test]
    fn overhead_dominates_trivial_launches() {
        let d = DeviceSpec::tesla_c2050();
        let t = estimate(&d, 1, &stats(10, 4, 10), &full_occ());
        assert!(t.seconds >= LAUNCH_OVERHEAD_S);
        assert!(t.seconds < LAUNCH_OVERHEAD_S * 2.0);
    }

    /// Regression pin (satellite): the stream/pipeline refactor must not
    /// silently retune the per-launch overhead the Table II/III baselines
    /// (and the per-chunk charging in chunked paths) are built on.
    #[test]
    fn launch_overhead_constant_is_pinned() {
        assert_eq!(LAUNCH_OVERHEAD_S, 10e-6);
        // It is additive on top of the engine terms: the same launch with
        // the overhead subtracted reproduces max(compute, memory).
        let d = DeviceSpec::tesla_c2050();
        let t = estimate(&d, 1024, &stats(1_000_000, 4096, 0), &full_occ());
        assert!(
            (t.seconds - t.compute_seconds.max(t.memory_seconds) - LAUNCH_OVERHEAD_S).abs() < 1e-18
        );
    }
}
