//! Criterion benchmarks of the SS-HOPM iteration itself: per-solve cost
//! under the general vs unrolled kernels, and fixed vs adaptive shifts
//! (the adaptive shift pays a Hessian eigensolve per iteration but
//! converges in fewer iterations).

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sshopm::{IterationPolicy, Shift, SsHopm};
use std::hint::black_box;
use symtensor::kernels::GeneralKernels;
use symtensor::{SymTensor, UnrolledKernels};

fn bench_single_solve(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let a = SymTensor::<f32>::random(4, 3, &mut rng);
    let x0 = [0.48f32, -0.62, 0.62];
    let policy = IterationPolicy::Fixed(20);
    let unroll = UnrolledKernels::for_shape(4, 3).unwrap();

    let mut group = c.benchmark_group("sshopm_solve_20iters");
    group.bench_function("general", |b| {
        let s = SsHopm::new(Shift::Fixed(0.0)).with_policy(policy);
        b.iter(|| black_box(s.solve_with(&GeneralKernels, black_box(&a), &x0)))
    });
    group.bench_function("unrolled", |b| {
        let s = SsHopm::new(Shift::Fixed(0.0)).with_policy(policy);
        b.iter(|| black_box(s.solve_with(&unroll, black_box(&a), &x0)))
    });
    group.finish();
}

fn bench_shift_policies(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(4);
    let a = SymTensor::<f64>::random(4, 3, &mut rng);
    let x0 = [0.48f64, -0.62, 0.62];

    let mut group = c.benchmark_group("sshopm_to_convergence");
    group.bench_function("fixed_convex_bound", |b| {
        let s = SsHopm::new(Shift::Convex).with_tolerance(1e-12);
        b.iter(|| black_box(s.solve(black_box(&a), &x0)))
    });
    group.bench_function("adaptive", |b| {
        let s = SsHopm::new(Shift::Adaptive).with_tolerance(1e-12);
        b.iter(|| black_box(s.solve(black_box(&a), &x0)))
    });
    group.bench_function("zero_shift", |b| {
        let s = SsHopm::new(Shift::Fixed(0.0)).with_tolerance(1e-12);
        b.iter(|| black_box(s.solve(black_box(&a), &x0)))
    });
    group.finish();
}

fn bench_refinement(c: &mut Criterion) {
    // The mixed-precision workflow: rough SS-HOPM solve, then Newton
    // polish. Measures the per-pair polish cost (bordered LU solves).
    let mut rng = StdRng::seed_from_u64(5);
    let a = SymTensor::<f64>::random(4, 3, &mut rng);
    let rough = SsHopm::new(Shift::Convex)
        .with_tolerance(1e-6)
        .solve(&a, &[0.48, -0.62, 0.62]);

    let mut group = c.benchmark_group("newton_refine");
    group.bench_function("rough_plus_polish", |b| {
        b.iter(|| black_box(sshopm::refine(&a, &rough, 4, 1e-14)))
    });
    group.bench_function("tight_sshopm_only", |b| {
        let s = SsHopm::new(Shift::Convex)
            .with_tolerance(1e-15)
            .with_max_iters(100_000);
        b.iter(|| black_box(s.solve(black_box(&a), &[0.48, -0.62, 0.62])))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_single_solve,
    bench_shift_policies,
    bench_refinement
);
criterion_main!(benches);
