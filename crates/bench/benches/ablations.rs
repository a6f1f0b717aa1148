//! Ablation benchmarks for the design choices called out in DESIGN.md:
//!
//! * **storage-compute trade-off** (paper Section III-B5): computing index
//!   representations and multinomials on the fly vs precomputed tables,
//!   across tensor shapes (the tables cost `(m+2)x` storage);
//! * **starting-vector scheme**: random uniform (the paper's) vs
//!   deterministic Fibonacci starts — convergence iteration counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sshopm::{Shift, SsHopm};
use std::hint::black_box;
use symtensor::kernels::{axm1, PrecomputedTables};
use symtensor::SymTensor;

fn ablation_precomputed_tables(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_tables_axm1");
    for (m, n) in [(3usize, 3usize), (4, 3), (4, 5), (6, 3), (5, 3)] {
        let mut rng = StdRng::seed_from_u64(7);
        let a = SymTensor::<f32>::random(m, n, &mut rng);
        let tables = PrecomputedTables::new(m, n);
        let x: Vec<f32> = (0..n).map(|i| 0.2 + 0.1 * i as f32).collect();
        let mut y = vec![0.0f32; n];

        group.bench_with_input(
            BenchmarkId::new("on_the_fly", format!("{m}x{n}")),
            &(),
            |b, _| {
                b.iter(|| {
                    axm1(black_box(a.view()), black_box(&x), &mut y).unwrap();
                    black_box(y[0])
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("precomputed", format!("{m}x{n}")),
            &(),
            |b, _| {
                b.iter(|| {
                    tables
                        .axm1(black_box(a.view()), black_box(&x), &mut y)
                        .unwrap();
                    black_box(y[0])
                })
            },
        );
    }
    group.finish();
}

fn ablation_start_schemes(c: &mut Criterion) {
    // Total iterations to convergence over a fixed start budget: the work
    // metric that decides between random and deterministic coverage.
    let mut rng = StdRng::seed_from_u64(8);
    let a = SymTensor::<f64>::random(4, 3, &mut rng);
    let random_starts = sshopm::starts::random_uniform_starts::<f64, _>(3, 16, &mut rng);
    let fib_starts = sshopm::starts::fibonacci_sphere::<f64>(16);
    let solver = SsHopm::new(Shift::Convex).with_tolerance(1e-10);

    let mut group = c.benchmark_group("ablation_starts_16solves");
    group.sample_size(10);
    group.bench_function("random_uniform", |b| {
        b.iter(|| {
            let total: usize = random_starts
                .iter()
                .map(|x0| solver.solve(black_box(&a), x0).iterations)
                .sum();
            black_box(total)
        })
    });
    group.bench_function("fibonacci", |b| {
        b.iter(|| {
            let total: usize = fib_starts
                .iter()
                .map(|x0| solver.solve(black_box(&a), x0).iterations)
                .sum();
            black_box(total)
        })
    });
    group.finish();
}

criterion_group!(benches, ablation_precomputed_tables, ablation_start_schemes);
criterion_main!(benches);
