//! The functional execution engine: a grid of thread blocks executed on CPU
//! threads, with SIMT warp accounting.
//!
//! Blocks are independent (the paper's problem has no inter-block
//! communication), so they run in parallel via rayon. Within a block,
//! threads are grouped into warps of `warp_size`; the engine tracks, per
//! warp, the *maximum* per-thread instruction count — a warp in a real SIMT
//! machine executes until its slowest lane finishes, which is exactly how
//! convergence divergence costs time on the GPU.

use crate::counters::OpCounters;
use rayon::prelude::*;

/// Grid geometry for a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridConfig {
    /// Number of thread blocks.
    pub num_blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Threads per warp (32 on NVIDIA hardware).
    pub warp_size: usize,
}

impl GridConfig {
    /// Total threads in the grid.
    pub fn total_threads(&self) -> usize {
        self.num_blocks * self.threads_per_block
    }

    /// Warps per block (rounded up — a trailing partial warp still occupies
    /// a full warp slot).
    pub fn warps_per_block(&self) -> usize {
        self.threads_per_block.div_ceil(self.warp_size)
    }

    /// Total warps in the grid.
    pub fn total_warps(&self) -> usize {
        self.num_blocks * self.warps_per_block()
    }
}

/// Result of one thread's execution: its output value plus its accounting.
#[derive(Debug, Clone)]
pub struct ThreadRecord<T> {
    /// The kernel's per-thread output.
    pub output: T,
    /// Operation counts for this thread.
    pub counters: OpCounters,
    /// Issue-slot-weighted instruction count for warp-serial accounting
    /// (expensive ops like division count as several slots).
    pub weighted_instructions: u64,
}

/// Aggregated statistics of a whole launch.
#[derive(Debug, Clone, Default)]
pub struct LaunchStats {
    /// Sum of all threads' counters (plus block-level staging traffic).
    pub counters: OpCounters,
    /// Divergence-aware issue cost: `Σ_warps max_lane(weighted_instructions)`.
    pub warp_serial_instructions: u64,
    /// `Σ_threads weighted_instructions` (the divergence-free lower bound).
    pub thread_instructions: u64,
    /// Number of warps launched.
    pub num_warps: usize,
}

impl LaunchStats {
    /// SIMD efficiency in `[0, 1]`: thread work over warp-serial work
    /// scaled by warp width. 1.0 means no divergence *and* full warps.
    pub fn simd_efficiency(&self, warp_size: usize) -> f64 {
        if self.warp_serial_instructions == 0 {
            return 1.0;
        }
        self.thread_instructions as f64 / (self.warp_serial_instructions as f64 * warp_size as f64)
    }
}

/// Execute a grid. `block_fn(block_idx)` produces the block's per-thread
/// records plus any block-level staging counters (e.g. the cooperative
/// global→shared tensor load). Blocks run in parallel; per-warp serial
/// costs are computed here.
pub fn run_grid<T, F>(config: GridConfig, block_fn: F) -> (Vec<Vec<T>>, LaunchStats)
where
    T: Send,
    F: Fn(usize) -> (Vec<ThreadRecord<T>>, OpCounters) + Sync,
{
    let per_block: Vec<(Vec<T>, LaunchStats)> = (0..config.num_blocks)
        .into_par_iter()
        .map(|b| {
            let (records, staging) = block_fn(b);
            // Internal-contract check only (all in-crate callers size the
            // records from the grid config); debug-only so library builds
            // carry no abort path.
            debug_assert_eq!(
                records.len(),
                config.threads_per_block,
                "block_fn must return one record per thread"
            );
            let mut stats = LaunchStats {
                counters: staging,
                num_warps: config.warps_per_block(),
                ..Default::default()
            };
            let mut outputs = Vec::with_capacity(records.len());
            for warp in records.chunks(config.warp_size) {
                let mut warp_max = 0u64;
                for rec in warp {
                    stats.counters.merge(&rec.counters);
                    stats.thread_instructions += rec.weighted_instructions;
                    warp_max = warp_max.max(rec.weighted_instructions);
                }
                stats.warp_serial_instructions += warp_max;
            }
            for rec in records {
                outputs.push(rec.output);
            }
            (outputs, stats)
        })
        .collect();

    let mut outputs = Vec::with_capacity(config.num_blocks);
    let mut total = LaunchStats::default();
    for (out, stats) in per_block {
        outputs.push(out);
        total.counters.merge(&stats.counters);
        total.warp_serial_instructions += stats.warp_serial_instructions;
        total.thread_instructions += stats.thread_instructions;
        total.num_warps += stats.num_warps;
    }
    (outputs, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(weight: u64) -> ThreadRecord<u64> {
        ThreadRecord {
            output: weight,
            counters: OpCounters {
                fadd: weight,
                ..Default::default()
            },
            weighted_instructions: weight,
        }
    }

    #[test]
    fn geometry_helpers() {
        let g = GridConfig {
            num_blocks: 10,
            threads_per_block: 128,
            warp_size: 32,
        };
        assert_eq!(g.total_threads(), 1280);
        assert_eq!(g.warps_per_block(), 4);
        assert_eq!(g.total_warps(), 40);
        let partial = GridConfig {
            num_blocks: 1,
            threads_per_block: 33,
            warp_size: 32,
        };
        assert_eq!(partial.warps_per_block(), 2);
    }

    #[test]
    fn uniform_threads_have_no_divergence_cost() {
        let g = GridConfig {
            num_blocks: 4,
            threads_per_block: 64,
            warp_size: 32,
        };
        let (outputs, stats) = run_grid(g, |_b| {
            (
                (0..64).map(|_| record(100)).collect(),
                OpCounters::default(),
            )
        });
        assert_eq!(outputs.len(), 4);
        // 8 warps total, each warp-serial cost 100.
        assert_eq!(stats.warp_serial_instructions, 800);
        assert_eq!(stats.thread_instructions, 4 * 64 * 100);
        assert!((stats.simd_efficiency(32) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn divergent_warp_charges_slowest_lane() {
        let g = GridConfig {
            num_blocks: 1,
            threads_per_block: 32,
            warp_size: 32,
        };
        let (_, stats) = run_grid(g, |_b| {
            // One slow lane (1000), the rest fast (10).
            let recs = (0..32)
                .map(|t| record(if t == 0 { 1000 } else { 10 }))
                .collect();
            (recs, OpCounters::default())
        });
        assert_eq!(stats.warp_serial_instructions, 1000);
        assert_eq!(stats.thread_instructions, 1000 + 31 * 10);
        assert!(stats.simd_efficiency(32) < 0.05);
    }

    #[test]
    fn staging_counters_are_accumulated_per_block() {
        let g = GridConfig {
            num_blocks: 3,
            threads_per_block: 32,
            warp_size: 32,
        };
        let (_, stats) = run_grid(g, |_b| {
            let staging = OpCounters {
                global_loads: 15,
                shared_stores: 15,
                ..Default::default()
            };
            ((0..32).map(|_| record(1)).collect(), staging)
        });
        assert_eq!(stats.counters.global_loads, 45);
        assert_eq!(stats.counters.shared_stores, 45);
    }

    #[test]
    fn outputs_preserve_block_and_thread_order() {
        let g = GridConfig {
            num_blocks: 2,
            threads_per_block: 4,
            warp_size: 32,
        };
        let (outputs, _) = run_grid(g, |b| {
            let recs = (0..4)
                .map(|t| ThreadRecord {
                    output: (b, t),
                    counters: OpCounters::default(),
                    weighted_instructions: 1,
                })
                .collect();
            (recs, OpCounters::default())
        });
        assert_eq!(outputs[1][2], (1, 2));
        assert_eq!(outputs[0][3], (0, 3));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn wrong_record_count_panics() {
        let g = GridConfig {
            num_blocks: 1,
            threads_per_block: 8,
            warp_size: 32,
        };
        let _ = run_grid(g, |_b| {
            ((0..7).map(|_| record(1)).collect(), OpCounters::default())
        });
    }
}
