//! Pins that a tensor-constant shift costs nothing per iteration. A
//! `Convex` or `Concave` solve resolves `α = ±((m−1)·‖A‖_F + τ)` once, so
//! with a caller-held scratch buffer it allocates the returned eigenvector
//! and the one index class of the `‖A‖_F` walk, however many iterations it
//! runs. A regression here means the shift went back to being re-derived
//! inside the iteration loop.
//!
//! The lockstep lane driver allocates each result pair's eigenvector, each
//! tensor row once at its final size, and a few buffers per stream; its
//! refills and iterations allocate nothing.
//!
//! It also pins the post-solve pass: the n = 3 stability class allocates
//! nothing, dedup clones a pair only for a new spectrum entry, and the
//! batch pass adds nothing per tensor with telemetry disabled.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sshopm::lockstep::STREAM_TENSORS;
use sshopm::{
    classify, solve_batch_lockstep, spectra_from_rows, spectrum_from_pairs, DedupConfig, Eigenpair,
    IterationPolicy, NoopObserver, Shift, Solver, SsHopm,
};
use symtensor::{
    BatchedKernels, PrecomputedTables, SymTensor, TensorBatch, TensorKernels, UnrolledKernels,
};
use telemetry::Telemetry;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Counting per thread keeps
    /// allocations other threads make (the test harness's own
    /// bookkeeping) out of a measured window; the `const` initialiser
    /// means touching the counter never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations made by one `Solver::solve_one` of exactly `iters`
/// iterations, with the scratch buffer already sized.
fn solve_allocs(
    shift: Shift,
    iters: usize,
    kernels: &dyn TensorKernels<f64>,
    a: &SymTensor<f64>,
) -> u64 {
    let solver = SsHopm::new(shift).with_policy(IterationPolicy::Fixed(iters));
    let mut scratch = vec![0.0; a.dim()];
    let before = allocs();
    let x0 = [0.3, -0.5, 0.8];
    let pair = solver.solve_one(kernels, a.view(), &x0, &mut NoopObserver, &mut scratch);
    let after = allocs();
    assert_eq!(pair.iterations, iters);
    after - before
}

#[test]
fn tensor_constant_shifts_allocate_per_solve_not_per_iteration() {
    let a = SymTensor::<f64>::random(4, 3, &mut StdRng::seed_from_u64(12));
    let unrolled = UnrolledKernels::for_shape(4, 3).unwrap();
    let tables = PrecomputedTables::new(4, 3);
    let kernels: [(&str, &dyn TensorKernels<f64>); 2] =
        [("unrolled", &unrolled), ("precomputed", &tables)];

    for (name, k) in kernels {
        for shift in [Shift::Convex, Shift::Concave] {
            let short = solve_allocs(shift, 5, k, &a);
            let long = solve_allocs(shift, 500, k, &a);
            assert_eq!(
                short, long,
                "{name} {shift:?}: allocations grow with the iteration count"
            );
            assert!(long <= 2, "{name} {shift:?}: {long} allocations per solve");
        }
    }

    let before = allocs();
    let norm = a.view().frobenius_norm();
    let after = allocs();
    assert!(norm > 0.0);
    assert!(
        after - before <= 1,
        "frobenius_norm made {} allocations",
        after - before
    );
}

#[test]
fn lockstep_allocates_per_pair_row_and_stream_not_per_iteration() {
    // Two streams: one full and one of three tensors.
    let count = STREAM_TENSORS + 3;
    let streams = 2;
    let mut rng = StdRng::seed_from_u64(19);
    let tensors = TensorBatch::<f64>::random(4, 3, count, &mut rng).unwrap();
    let starts = sshopm::starts::random_uniform_starts::<f64, _>(3, 16, &mut rng);
    let kernels = BatchedKernels::new(4, 3);
    let solve = |iters| {
        let before = allocs();
        let res = solve_batch_lockstep(
            &kernels,
            tensors.view(),
            &starts,
            Shift::Fixed(0.0),
            IterationPolicy::Fixed(iters),
            1,
            &Telemetry::disabled(),
        );
        let made = allocs() - before;
        assert_eq!(res.total_iterations, (count * starts.len() * iters) as u64);
        made
    };
    let short = solve(5);
    let long = solve(50);
    assert_eq!(short, long, "allocations grow with the iteration count");
    // One eigenvector per pair and one row per tensor. Per batch: the
    // normalized starts, their list and their lane form, the result list
    // and the list of stream results. Per stream: the rows list, the two
    // panels, the λ₀ block and the two iterate buffers.
    let pairs = count * starts.len();
    let bound = pairs + count + (starts.len() + 2) + 2 + 6 * streams;
    assert!(
        short <= bound as u64,
        "{short} allocations for {pairs} pairs of {count} tensors, bound {bound}"
    );
}

/// Converged eigenpairs of one (4, 3) tensor from 16 starts.
fn sixteen_pairs(a: &SymTensor<f64>) -> Vec<Eigenpair<f64>> {
    let starts = sshopm::starts::fibonacci_sphere::<f64>(16);
    let solver = SsHopm::new(Shift::Convex).with_tolerance(1e-12);
    starts.iter().map(|x0| solver.solve(a, x0)).collect()
}

#[test]
fn dim3_classify_allocates_nothing() {
    for m in 2..=6 {
        let a = SymTensor::<f64>::random(m, 3, &mut StdRng::seed_from_u64(m as u64));
        let a32 = a.to_f32();
        let x = [0.48, -0.62, 0.62];
        let norm = x.iter().map(|v: &f64| v * v).sum::<f64>().sqrt();
        let x = x.map(|v| v / norm);
        let x32 = x.map(|v| v as f32);
        let lambda = symtensor::kernels::axm(&a, &x).unwrap();

        let before = allocs();
        let s64 = classify(&a, lambda, &x, 1e-5);
        let s32 = classify(&a32, lambda as f32, &x32, 1e-5);
        let after = allocs();
        assert_eq!(after - before, 0, "m={m}: {s64:?}/{s32:?}");
    }
}

#[test]
fn borrowed_dedup_allocates_per_entry_not_per_pair() {
    let a = SymTensor::<f64>::random(4, 3, &mut StdRng::seed_from_u64(5));
    let pairs = sixteen_pairs(&a);
    // 128 pairs over the same distinct eigenpairs as the 16.
    let many: Vec<_> = pairs.iter().cycle().take(128).cloned().collect();
    let dedup = |rows: &[Eigenpair<f64>]| {
        let before = allocs();
        let spectrum = spectrum_from_pairs(&a, rows, &DedupConfig::default(), 1e-5);
        (allocs() - before, spectrum)
    };
    let (few_allocs, few) = dedup(&pairs);
    let (many_allocs, spectrum) = dedup(&many);
    assert_eq!(spectrum.entries.len(), few.entries.len());
    assert_eq!(spectrum.total_starts, 128);
    assert_eq!(
        few_allocs, many_allocs,
        "dedup allocations grow with the pairs"
    );
    // The entry list plus one vector clone per entry.
    assert!(
        few_allocs <= 1 + few.entries.len() as u64 + 1,
        "{few_allocs} allocations for {} entries",
        few.entries.len()
    );
}

#[test]
fn disabled_telemetry_adds_nothing_to_the_batch_pass() {
    let a = SymTensor::<f64>::random(4, 3, &mut StdRng::seed_from_u64(5));
    let rows = vec![sixteen_pairs(&a)];
    let batch = TensorBatch::from_tensors(std::slice::from_ref(&a)).unwrap();
    let cfg = DedupConfig::default();

    let before = allocs();
    let alone = spectrum_from_pairs(&a, &rows[0], &cfg, 1e-5);
    let per_tensor = allocs() - before;

    let before = allocs();
    let out = spectra_from_rows(&batch, &rows, &cfg, 1e-5, &Telemetry::disabled(), |s| {
        s.entries.len()
    });
    let pass = allocs() - before;
    assert_eq!(out, vec![alone.entries.len()]);
    // The tensor's own dedup plus the output vector, nothing else.
    assert_eq!(pass, per_tensor + 1);
}
