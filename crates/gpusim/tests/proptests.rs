//! Property tests for the GPU simulator: launch geometry for arbitrary
//! workloads, occupancy monotonicity, and timing-model scaling laws.

use gpusim::{
    Cluster, DeviceSpec, GpuVariant, IterationCounts, KernelResources, LaunchReport, Occupancy,
    Schedule,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `t` tensors × `v` starts of iteration counts that differ from solve to
/// solve, as a convergence policy's do.
fn ragged(t: usize, v: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..t * v).map(|_| rng.gen_range(1u64..200)).collect()
}

/// One synchronous launch of (4, 3) `f32` solves, `v` starts per tensor.
fn launch(v: usize, iterations: &[u64], variant: GpuVariant) -> LaunchReport {
    let counts = IterationCounts::new(4, 3, 4, v, iterations).unwrap();
    let report = Cluster::from(DeviceSpec::tesla_c2050())
        .launch(counts, variant, Schedule::SYNCHRONOUS)
        .unwrap();
    report.shards[0].slices[0].report.clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn functional_parity_with_cpu(t in 1usize..8, v in 1usize..16, iters in 1u64..12) {
        let report = launch(v, &vec![iters; t * v], GpuVariant::General);
        prop_assert_eq!(report.grid.num_blocks, t);
        prop_assert!(report.timing.seconds.is_finite());
    }

    #[test]
    fn flops_scale_linearly_with_iterations(seed in 0u64..100) {
        let iterations = ragged(4, 8, seed);
        let doubled: Vec<u64> = iterations.iter().map(|k| 2 * k).collect();
        let r1 = launch(8, &iterations, GpuVariant::Unrolled);
        let r2 = launch(8, &doubled, GpuVariant::Unrolled);
        prop_assert_eq!(r2.useful_flops, 2 * r1.useful_flops);
        prop_assert_eq!(r2.stats.warp_serial_instructions, 2 * r1.stats.warp_serial_instructions);
    }

    #[test]
    fn occupancy_is_monotone_in_block_footprint(
        regs in 1usize..63,
        smem in 0usize..48_000,
        threads_pow in 0u32..5,
    ) {
        let device = DeviceSpec::tesla_c2050();
        let threads = 32usize << threads_pow;
        let base = Occupancy::compute(&device, &KernelResources {
            registers_per_thread: regs,
            shared_mem_per_block: smem,
            threads_per_block: threads,
        });
        // More shared memory can never increase occupancy.
        let bigger = Occupancy::compute(&device, &KernelResources {
            registers_per_thread: regs,
            shared_mem_per_block: smem + 4096,
            threads_per_block: threads,
        });
        prop_assert!(bigger.blocks_per_sm <= base.blocks_per_sm);
        // More registers can never increase occupancy.
        if regs + 8 <= device.max_registers_per_thread {
            let more_regs = Occupancy::compute(&device, &KernelResources {
                registers_per_thread: regs + 8,
                shared_mem_per_block: smem,
                threads_per_block: threads,
            });
            prop_assert!(more_regs.blocks_per_sm <= base.blocks_per_sm);
        }
    }

    #[test]
    fn warp_accounting_bounds(t in 1usize..6, v in 1usize..40, seed in 0u64..100) {
        let device = DeviceSpec::tesla_c2050();
        let report = launch(v, &ragged(t, v, seed), GpuVariant::General);
        let eff = report.stats.simd_efficiency(device.warp_size);
        prop_assert!(eff > 0.0 && eff <= 1.0 + 1e-12, "efficiency {eff}");
        // Warp-serial cost is at least the per-thread mean and at most the sum.
        let ws = report.stats.warp_serial_instructions;
        let ti = report.stats.thread_instructions;
        prop_assert!(ws <= ti);
        prop_assert!(ws * (device.warp_size as u64) >= ti);
    }
}

#[test]
fn more_tensors_never_slower_throughput_at_scale() {
    let r64 = launch(64, &vec![10; 64 * 64], GpuVariant::Unrolled);
    let r256 = launch(64, &vec![10; 256 * 64], GpuVariant::Unrolled);
    assert!(
        r256.gflops >= r64.gflops * 0.9,
        "{} vs {}",
        r256.gflops,
        r64.gflops
    );
}
