//! Benchmarks of the GPU simulator itself: functional-execution throughput
//! of a launch (how fast the simulator runs, not the modeled GPU time) and
//! the cost of the occupancy/timing analytics, so simulator regressions
//! are caught like any other performance regression.

use backend::{GpuSimBackend, KernelStrategy};
use bench::{run_on, Workload};
use criterion::{criterion_group, criterion_main, Criterion};
use gpusim::{DeviceSpec, KernelResources, Occupancy};
use sshopm::IterationPolicy;
use std::hint::black_box;

fn bench_launch(c: &mut Criterion) {
    let workload = Workload::random(32, 32, 4, 3, 6);
    let policy = IterationPolicy::Fixed(10);

    let mut group = c.benchmark_group("gpusim_launch_32x32");
    group.sample_size(10);
    for strategy in [KernelStrategy::General, KernelStrategy::Tape] {
        let gpu = GpuSimBackend::new(DeviceSpec::tesla_c2050(), strategy);
        group.bench_function(strategy.name(), |b| {
            b.iter(|| black_box(run_on(&gpu, &workload, policy, 0.0)))
        });
    }
    group.finish();
}

fn bench_occupancy(c: &mut Criterion) {
    let device = DeviceSpec::tesla_c2050();
    c.bench_function("occupancy_calculator", |b| {
        b.iter(|| {
            for m in 2..8usize {
                for n in 2..8usize {
                    let res = KernelResources::sshopm(m, n, 128, 4, true);
                    black_box(Occupancy::compute(&device, &res));
                }
            }
        })
    });
}

criterion_group!(benches, bench_launch, bench_occupancy);
criterion_main!(benches);
