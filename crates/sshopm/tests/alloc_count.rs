//! Pins that a tensor-constant shift costs nothing per iteration. A
//! `Convex` or `Concave` solve resolves `α = ±((m−1)·‖A‖_F + τ)` once, so
//! with a caller-held scratch buffer it allocates the returned eigenvector
//! and the one index class of the `‖A‖_F` walk, however many iterations it
//! runs. A regression here means the shift went back to being re-derived
//! inside the iteration loop.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kernelgen::KernelRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sshopm::{IterationPolicy, Shift, SsHopm};
use symtensor::{PrecomputedTables, SymTensor, TensorKernels};

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

/// Allocations made by one `solve_with_scratch` of exactly `iters`
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
    let pair = solver.solve_with_scratch(kernels, a, &[0.3, -0.5, 0.8], &mut scratch);
    let after = allocs();
    assert_eq!(pair.iterations, iters);
    after - before
}

#[test]
fn tensor_constant_shifts_allocate_per_solve_not_per_iteration() {
    let a = SymTensor::<f64>::random(4, 3, &mut StdRng::seed_from_u64(12));
    let registry = KernelRegistry::new();
    let tape = registry.tape::<f64>(4, 3).unwrap();
    let tables = PrecomputedTables::new(4, 3);
    let kernels: [(&str, &dyn TensorKernels<f64>); 2] =
        [("tape", &*tape), ("precomputed", &tables)];

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
