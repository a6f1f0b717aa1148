//! Pins the registry's memoization with an allocation counter: the first
//! request for a shape's batched kernels or tape pays the construction
//! cost, and every later request is an `Arc` clone out of the memo map —
//! zero heap allocations. This is the whole point of routing kernel
//! materialization through [`KernelRegistry`] instead of the old
//! build-a-fresh-box-per-call `resolve`, so a regression here means a
//! hot solve loop went back to re-deriving the precomputed and lane
//! tables per chunk.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use kernelgen::{KernelRegistry, KernelStrategy};

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

#[test]
fn memoized_requests_do_not_allocate() {
    let registry = KernelRegistry::new();

    // Cold: builds the batched kernels (with their tables), a tape, and
    // the plan's kernel objects.
    let batched = registry.batched(4, 3);
    let tape = registry.tape::<f64>(5, 4).unwrap();
    let plan = registry.plan::<f64>(4, 3, KernelStrategy::Batched);
    assert!(allocs() > 0, "cold construction must have allocated");

    // Warm: every request is a map lookup plus an Arc clone.
    let before = allocs();
    let batched2 = registry.batched(4, 3);
    let tape2 = registry.tape::<f64>(5, 4).unwrap();
    let plan2 = registry.plan::<f64>(4, 3, KernelStrategy::Batched);
    let after = allocs();
    assert_eq!(
        after - before,
        0,
        "memoized batched/tape/plan requests must not allocate"
    );

    // The memo really is sharing one object, not rebuilding equal ones.
    assert!(std::sync::Arc::ptr_eq(&batched, &batched2));
    assert!(std::sync::Arc::ptr_eq(&tape, &tape2));
    assert!(std::sync::Arc::ptr_eq(&plan.kernels, &plan2.kernels));
    assert_eq!(plan.kernels.name(), "batched");
}
