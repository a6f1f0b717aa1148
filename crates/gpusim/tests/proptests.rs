//! Property tests for the GPU simulator: functional parity with the CPU
//! solver for arbitrary workloads, occupancy monotonicity, and timing-model
//! scaling laws.

use gpusim::{launch_sshopm, DeviceSpec, GpuVariant, KernelResources, Occupancy};
use proptest::prelude::*;
use sshopm::starts::random_uniform_starts;
use sshopm::{BatchSolver, IterationPolicy, Shift, SsHopm};
use symtensor::kernels::GeneralKernels;
use symtensor::TensorBatch;
use telemetry::Telemetry;

fn workload(t: usize, v: usize, seed: u64) -> (TensorBatch<f32>, Vec<Vec<f32>>) {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    let tensors = TensorBatch::random(4, 3, t, &mut rng).unwrap();
    let starts = random_uniform_starts(3, v, &mut rng);
    (tensors, starts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn functional_parity_with_cpu(t in 1usize..8, v in 1usize..16, seed in 0u64..1000, iters in 1usize..12) {
        let (tensors, starts) = workload(t, v, seed);
        let policy = IterationPolicy::Fixed(iters);
        let device = DeviceSpec::tesla_c2050();
        let (gpu, report) = launch_sshopm(&device, &tensors, &starts, policy, Shift::Fixed(0.0), GpuVariant::General).unwrap();
        let cpu = BatchSolver::new(SsHopm::new(Shift::Fixed(0.0)).with_policy(policy))
            .with_threads(1)
            .run(&GeneralKernels, &tensors, &starts, &Telemetry::disabled());
        for ti in 0..t {
            for vi in 0..v {
                prop_assert_eq!(gpu.results[ti][vi].lambda, cpu.results[ti][vi].lambda);
                prop_assert_eq!(&gpu.results[ti][vi].x, &cpu.results[ti][vi].x);
            }
        }
        prop_assert_eq!(report.grid.num_blocks, t);
        prop_assert!(report.timing.seconds.is_finite());
    }

    #[test]
    fn flops_scale_linearly_with_iterations(seed in 0u64..100, iters in 1usize..20) {
        let (tensors, starts) = workload(4, 8, seed);
        let device = DeviceSpec::tesla_c2050();
        let (_, r1) = launch_sshopm(&device, &tensors, &starts,
            IterationPolicy::Fixed(iters), Shift::Fixed(0.0), GpuVariant::Unrolled).unwrap();
        let (_, r2) = launch_sshopm(&device, &tensors, &starts,
            IterationPolicy::Fixed(2 * iters), Shift::Fixed(0.0), GpuVariant::Unrolled).unwrap();
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
        let (tensors, starts) = workload(t, v, seed);
        let device = DeviceSpec::tesla_c2050();
        let (_, report) = launch_sshopm(&device, &tensors, &starts,
            IterationPolicy::Converge { tol: 1e-5, max_iters: 200 }, Shift::Fixed(0.5), GpuVariant::General).unwrap();
        let eff = report.stats.simd_efficiency(device.warp_size);
        prop_assert!(eff > 0.0 && eff <= 1.0 + 1e-12, "efficiency {eff}");
        // Warp-serial cost is at least the per-thread mean and at most the sum.
        let ws = report.stats.warp_serial_instructions;
        let ti = report.stats.thread_instructions;
        prop_assert!(ws <= ti);
        prop_assert!(ws * (device.warp_size as u64) >= ti);
    }

    #[test]
    fn more_tensors_never_slower_throughput_at_scale(seed in 0u64..50) {
        let device = DeviceSpec::tesla_c2050();
        let policy = IterationPolicy::Fixed(10);
        let (t64, starts) = workload(64, 64, seed);
        let (t256, _) = workload(256, 64, seed + 1);
        let (_, r64) = launch_sshopm(&device, &t64, &starts, policy, Shift::Fixed(0.0), GpuVariant::Unrolled).unwrap();
        let (_, r256) = launch_sshopm(&device, &t256, &starts, policy, Shift::Fixed(0.0), GpuVariant::Unrolled).unwrap();
        prop_assert!(r256.gflops >= r64.gflops * 0.9, "{} vs {}", r256.gflops, r64.gflops);
    }
}
