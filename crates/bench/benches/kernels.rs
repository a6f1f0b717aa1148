//! Criterion microbenchmarks of the two computational kernels across
//! implementations (Table II's computation rows, measured): dense baseline
//! vs symmetric on-the-fly vs precomputed tables vs unrolled, at the
//! paper's application shape (4,3) and at two larger shapes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use symtensor::kernels::{axm, axm1, PrecomputedTables};
use symtensor::{BlockedKernels, DenseTensor, SymTensor, TensorKernels, UnrolledKernels};

fn bench_axm(c: &mut Criterion) {
    let mut group = c.benchmark_group("axm");
    for (m, n) in [(4usize, 3usize), (4, 5), (6, 3)] {
        let mut rng = StdRng::seed_from_u64(1);
        let a = SymTensor::<f32>::random(m, n, &mut rng);
        let dense = DenseTensor::from_sym(&a);
        let tables = PrecomputedTables::new(m, n);
        let unroll = UnrolledKernels::for_shape(m, n).unwrap();
        let blocked = BlockedKernels::for_shape(m, n).unwrap();
        let x: Vec<f32> = (0..n).map(|i| 0.2 + 0.1 * i as f32).collect();

        group.bench_with_input(
            BenchmarkId::new("dense", format!("{m}x{n}")),
            &(),
            |b, _| b.iter(|| black_box(dense.axm_dense(black_box(&x)).unwrap())),
        );
        group.bench_with_input(
            BenchmarkId::new("general", format!("{m}x{n}")),
            &(),
            |b, _| b.iter(|| black_box(axm(black_box(&a), black_box(&x)))),
        );
        group.bench_with_input(
            BenchmarkId::new("precomputed", format!("{m}x{n}")),
            &(),
            |b, _| b.iter(|| black_box(tables.axm(black_box(&a), black_box(&x)).unwrap())),
        );
        group.bench_with_input(
            BenchmarkId::new("blocked", format!("{m}x{n}")),
            &(),
            |b, _| {
                b.iter(|| {
                    black_box(TensorKernels::axm(
                        &blocked,
                        black_box(a.view()),
                        black_box(&x),
                    ))
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("unrolled", format!("{m}x{n}")),
            &(),
            |b, _| {
                b.iter(|| {
                    black_box(TensorKernels::axm(
                        &unroll,
                        black_box(a.view()),
                        black_box(&x),
                    ))
                })
            },
        );
    }
    group.finish();
}

fn bench_axm1(c: &mut Criterion) {
    let mut group = c.benchmark_group("axm1");
    for (m, n) in [(4usize, 3usize), (4, 5), (6, 3)] {
        let mut rng = StdRng::seed_from_u64(2);
        let a = SymTensor::<f32>::random(m, n, &mut rng);
        let dense = DenseTensor::from_sym(&a);
        let tables = PrecomputedTables::new(m, n);
        let unroll = UnrolledKernels::for_shape(m, n).unwrap();
        let blocked = BlockedKernels::for_shape(m, n).unwrap();
        let x: Vec<f32> = (0..n).map(|i| 0.2 + 0.1 * i as f32).collect();
        let mut y = vec![0.0f32; n];

        group.bench_with_input(
            BenchmarkId::new("dense", format!("{m}x{n}")),
            &(),
            |b, _| b.iter(|| black_box(dense.axm1_dense(black_box(&x)).unwrap())),
        );
        group.bench_with_input(
            BenchmarkId::new("general", format!("{m}x{n}")),
            &(),
            |b, _| {
                b.iter(|| {
                    axm1(black_box(&a), black_box(&x), &mut y).unwrap();
                    black_box(y[0])
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("precomputed", format!("{m}x{n}")),
            &(),
            |b, _| {
                b.iter(|| {
                    tables.axm1(black_box(&a), black_box(&x), &mut y).unwrap();
                    black_box(y[0])
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("blocked", format!("{m}x{n}")),
            &(),
            |b, _| {
                b.iter(|| {
                    TensorKernels::axm1(&blocked, black_box(a.view()), black_box(&x), &mut y)
                        .unwrap();
                    black_box(y[0])
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("unrolled", format!("{m}x{n}")),
            &(),
            |b, _| {
                b.iter(|| {
                    TensorKernels::axm1(&unroll, black_box(a.view()), black_box(&x), &mut y)
                        .unwrap();
                    black_box(y[0])
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_axm, bench_axm1);
criterion_main!(benches);
