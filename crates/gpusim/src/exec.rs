//! The launch's cost pass: a grid of thread blocks, one per tensor, one
//! thread per starting vector, charged with SIMT warp accounting from the
//! number of iterations each solve ran.
//!
//! The eigenpairs are computed outside the simulator; what a thread costs
//! depends only on its iteration count, which is all a launch is given
//! ([`crate::IterationCounts`]). Within a block, threads are grouped into
//! warps of `warp_size` consecutive starts, and each warp is charged its
//! *slowest* thread: a warp in a real SIMT machine executes until its
//! slowest lane finishes, which is exactly how convergence divergence
//! costs time on the GPU.

use crate::counters::OpCounters;

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

/// What a launch charges, given each thread's iteration count.
#[derive(Debug, Clone, Copy, Default)]
pub struct GridCost {
    /// Operations one iteration executes.
    pub per_iteration: OpCounters,
    /// Issue-slot weight of one iteration for warp-serial accounting
    /// (expensive ops like division count as several slots).
    pub iteration_weight: u64,
    /// Operations each thread executes once (its final write-back).
    pub per_thread: OpCounters,
    /// Operations each block executes once (the cooperative global→shared
    /// staging of its tensor).
    pub per_block: OpCounters,
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

/// Charge a grid. `blocks` yields, for each block in order, the iteration
/// count of each of its threads in order; a warp is `warp_size`
/// consecutive threads of one block, charged at its slowest.
pub fn run_grid<B, T>(config: GridConfig, cost: &GridCost, blocks: B) -> LaunchStats
where
    B: IntoIterator<Item = T>,
    T: IntoIterator<Item = u64>,
{
    let (mut iterations, mut warp_serial_iterations) = (0u64, 0u64);
    let (mut num_blocks, mut num_threads) = (0u64, 0u64);
    for block in blocks {
        let mut threads = 0usize;
        let mut warp_max = 0u64;
        for iters in block {
            if threads.is_multiple_of(config.warp_size) {
                warp_serial_iterations += warp_max;
                warp_max = 0;
            }
            warp_max = warp_max.max(iters);
            iterations += iters;
            threads += 1;
        }
        warp_serial_iterations += warp_max;
        // Internal-contract check only (the launch sizes every block from
        // the grid config); debug-only so library builds carry no abort
        // path.
        debug_assert_eq!(
            threads, config.threads_per_block,
            "one iteration count per thread"
        );
        num_blocks += 1;
        num_threads += threads as u64;
    }
    let mut counters = cost.per_iteration.scaled(iterations);
    counters.merge(&cost.per_thread.scaled(num_threads));
    counters.merge(&cost.per_block.scaled(num_blocks));
    LaunchStats {
        counters,
        warp_serial_instructions: cost.iteration_weight * warp_serial_iterations,
        thread_instructions: cost.iteration_weight * iterations,
        num_warps: num_blocks as usize * config.warps_per_block(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One `fadd` and one issue slot per iteration.
    fn unit_cost() -> GridCost {
        GridCost {
            per_iteration: OpCounters {
                fadd: 1,
                ..Default::default()
            },
            iteration_weight: 1,
            ..Default::default()
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
        let stats = run_grid(g, &unit_cost(), (0..4).map(|_| [100u64; 64]));
        assert_eq!(stats.num_warps, 8);
        // 8 warps total, each warp-serial cost 100.
        assert_eq!(stats.warp_serial_instructions, 800);
        assert_eq!(stats.thread_instructions, 4 * 64 * 100);
        assert_eq!(stats.counters.fadd, 4 * 64 * 100);
        assert!((stats.simd_efficiency(32) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn divergent_warp_charges_slowest_lane() {
        let g = GridConfig {
            num_blocks: 1,
            threads_per_block: 32,
            warp_size: 32,
        };
        // One slow lane (1000), the rest fast (10).
        let block = (0..32).map(|t| if t == 0 { 1000 } else { 10 });
        let stats = run_grid(g, &unit_cost(), [block]);
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
        let cost = GridCost {
            per_block: OpCounters {
                global_loads: 15,
                shared_stores: 15,
                ..Default::default()
            },
            per_thread: OpCounters {
                global_stores: 4,
                ..Default::default()
            },
            ..unit_cost()
        };
        let stats = run_grid(g, &cost, (0..3).map(|_| [1u64; 32]));
        assert_eq!(stats.counters.global_loads, 45);
        assert_eq!(stats.counters.shared_stores, 45);
        assert_eq!(stats.counters.global_stores, 3 * 32 * 4);
    }

    #[test]
    fn partial_warps_are_charged_per_block() {
        // 33 threads per block: a full warp and a one-thread warp, each
        // charged at its own slowest lane, block by block.
        let g = GridConfig {
            num_blocks: 2,
            threads_per_block: 33,
            warp_size: 32,
        };
        let block = |b: u64| (0..33u64).map(move |t| if t == 32 { 7 * b } else { b });
        let stats = run_grid(g, &unit_cost(), [block(1), block(2)]);
        assert_eq!(stats.num_warps, 4);
        assert_eq!(stats.warp_serial_instructions, (1 + 7) + (2 + 14));
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
        let _ = run_grid(g, &unit_cost(), [[1u64; 7]]);
    }
}
