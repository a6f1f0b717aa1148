//! The kernel registry: the single place kernel materialization, caching,
//! and shape-based resolution live. Backends ask for a [`KernelPlan`] and
//! get a memoized, shareable kernel object instead of a freshly boxed one
//! per `solve_batch` call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::Mutex;
use symtensor::lanes::COMPILED_SHAPES;
use symtensor::{BatchedKernels, BlockedKernels, GeneralKernels, Scalar, TensorKernels};

use crate::strategy::KernelStrategy;

/// Snapshot of registry activity counters, also usable as a delta between
/// two snapshots (see [`CacheStats::delta_since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Memoized kernel objects served from the in-process map.
    pub memo_hits: u64,
    /// Requests that missed the in-process map and built the kernels.
    pub memo_misses: u64,
    /// Always 0: every kernel is compiled in, none is generated at run
    /// time. The measured benchmark (`perfbench/`) still reports this as
    /// `kernelgen.generated`; the field goes when that metric does.
    pub generated: u64,
}

impl CacheStats {
    /// Counter-wise difference against an earlier snapshot.
    pub fn delta_since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            memo_hits: self.memo_hits.saturating_sub(before.memo_hits),
            memo_misses: self.memo_misses.saturating_sub(before.memo_misses),
            generated: self.generated.saturating_sub(before.generated),
        }
    }

    /// True when every counter is zero (nothing worth reporting).
    pub fn is_empty(&self) -> bool {
        self.memo_hits == 0 && self.memo_misses == 0
    }
}

#[derive(Default)]
struct Counters {
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
}

/// A materialized kernel selection. `kernels.name()` says which
/// implementation the strategy resolved to for the shape (`general`,
/// `blocked` or `batched`).
#[derive(Clone)]
pub struct KernelPlan<S> {
    /// The kernels; cloning the plan clones an `Arc`, not the tables.
    pub kernels: Arc<dyn TensorKernels<S> + Send + Sync>,
    /// The same object as `kernels` in its lane form: set exactly when
    /// the plan is the batched kernels, so an engine that can run the
    /// batch in lockstep lanes (`sshopm::solve_batch_lockstep`) finds
    /// their panels here and needs no strategy of its own.
    pub lanes: Option<Arc<BatchedKernels>>,
}

impl<S: Scalar> KernelPlan<S> {
    fn per_tensor(kernels: Arc<dyn TensorKernels<S> + Send + Sync>) -> Self {
        KernelPlan {
            kernels,
            lanes: None,
        }
    }
}

impl<S: Scalar> std::fmt::Debug for KernelPlan<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelPlan")
            .field("kernels", &self.kernels.name())
            .field("lanes", &self.lanes.is_some())
            .finish()
    }
}

/// Memoizing kernel registry. The `batched` kernels (which own their
/// precomputed and lane tables) are built at most once per shape; every
/// other strategy's kernels are stateless or compiled in.
///
/// Most callers use the process-wide [`KernelRegistry::global`] instance so
/// repeated `solve_batch` calls — and concurrent backends — share tables;
/// tests build private instances to keep counters isolated.
pub struct KernelRegistry {
    batched: Mutex<HashMap<(usize, usize), Arc<BatchedKernels>>>,
    counters: Counters,
}

impl Default for KernelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        KernelRegistry {
            batched: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        }
    }

    /// The process-wide registry shared by every backend.
    pub fn global() -> &'static KernelRegistry {
        static GLOBAL: OnceLock<KernelRegistry> = OnceLock::new();
        GLOBAL.get_or_init(KernelRegistry::new)
    }

    /// Snapshot the activity counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memo_hits: self.counters.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.counters.memo_misses.load(Ordering::Relaxed),
            generated: 0,
        }
    }

    /// Drop every memoized kernel object.
    pub fn clear_memory(&self) {
        self.batched.lock().clear();
    }

    /// Materialize kernels for `(m, n, S, strategy)`.
    ///
    /// `Tape` resolves along one chain: the batched kernels on
    /// [`COMPILED_SHAPES`], whose lane panels and per-tensor path are both
    /// the compiled straight-line code there, else `Blocked`. `Blocked`
    /// beyond order 8 is `General`. Every plan returns `General`'s bits.
    pub fn plan<S: Scalar>(&self, m: usize, n: usize, strategy: KernelStrategy) -> KernelPlan<S> {
        match strategy {
            KernelStrategy::General => KernelPlan::per_tensor(Arc::new(GeneralKernels)),
            KernelStrategy::Blocked => match BlockedKernels::for_shape(m, n) {
                Some(k) => KernelPlan::per_tensor(Arc::new(k)),
                None => KernelPlan::per_tensor(Arc::new(GeneralKernels)),
            },
            KernelStrategy::Batched => {
                let lanes = self.batched(m, n);
                KernelPlan {
                    kernels: lanes.clone(),
                    lanes: Some(lanes),
                }
            }
            KernelStrategy::Tape if COMPILED_SHAPES.contains(&(m, n)) => {
                self.plan(m, n, KernelStrategy::Batched)
            }
            KernelStrategy::Tape => self.plan(m, n, KernelStrategy::Blocked),
        }
    }

    /// Shared lane-vectorized kernels (and their lane tables) for `(m, n)`,
    /// built at most once per registry.
    pub fn batched(&self, m: usize, n: usize) -> Arc<BatchedKernels> {
        let mut map = self.batched.lock();
        if let Some(k) = map.get(&(m, n)) {
            self.counters.memo_hits.fetch_add(1, Ordering::Relaxed);
            return k.clone();
        }
        self.counters.memo_misses.fetch_add(1, Ordering::Relaxed);
        let k = Arc::new(BatchedKernels::new(m, n));
        map.insert((m, n), k.clone());
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_honors_available_strategies() {
        let r = KernelRegistry::new();
        // (5, 4) has no compiled kernels: `Tape` runs `blocked` there, and
        // every other strategy runs its own.
        for strategy in KernelStrategy::ALL {
            let plan = r.plan::<f64>(5, 4, strategy);
            let want = match strategy {
                KernelStrategy::Tape => "blocked",
                other => other.name(),
            };
            assert_eq!(plan.kernels.name(), want, "{strategy} at (5,4)");
        }
        // On a compiled shape `Tape` runs the batched kernels, whose
        // panels and per-tensor path are the compiled straight-line code.
        let plan = r.plan::<f64>(4, 3, KernelStrategy::Tape);
        assert_eq!(plan.kernels.name(), "batched");
    }

    #[test]
    fn fallback_chains_are_preserved() {
        let r = KernelRegistry::new();
        // Tape: the memoized batched kernels on a compiled shape ...
        let plan = r.plan::<f64>(4, 3, KernelStrategy::Tape);
        assert_eq!(plan.kernels.name(), "batched");
        let lanes = plan.lanes.expect("a batched plan carries its lanes");
        assert!(Arc::ptr_eq(&lanes, &r.batched(4, 3)));
        let before = r.stats();
        // ... else blocked (orders 1-8) ...
        let plan = r.plan::<f64>(7, 7, KernelStrategy::Tape);
        assert_eq!(plan.kernels.name(), "blocked");
        assert!(plan.lanes.is_none());
        let plan = r.plan::<f64>(1, 3, KernelStrategy::Tape);
        assert_eq!(plan.kernels.name(), "blocked");
        // ... else general: (14, 20) is beyond the blocked orders.
        let plan = r.plan::<f64>(14, 20, KernelStrategy::Tape);
        assert_eq!(plan.kernels.name(), "general");
        assert!(plan.lanes.is_none());
        // Blocked beyond order 8 is general.
        let plan = r.plan::<f64>(9, 3, KernelStrategy::Blocked);
        assert_eq!(plan.kernels.name(), "general");
        // Only a batched plan touches the memo.
        assert_eq!(r.stats(), before);
    }

    #[test]
    fn memoized_kinds_return_the_same_object() {
        let r = KernelRegistry::new();
        let a = r.batched(4, 3);
        let b = r.batched(4, 3);
        assert!(Arc::ptr_eq(&a, &b));
        let c = r.batched(5, 4);
        assert!(!Arc::ptr_eq(&a, &c));
        let s = r.stats();
        assert_eq!(s.memo_hits, 1);
        assert_eq!(s.memo_misses, 2);
        assert_eq!(s.generated, 0);
    }

    #[test]
    fn clear_memory_forgets_memoized_objects() {
        let r = KernelRegistry::new();
        let a = r.batched(4, 3);
        r.clear_memory();
        let b = r.batched(4, 3);
        assert!(!Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn stats_delta_and_hit_rate() {
        let a = CacheStats {
            memo_hits: 1,
            memo_misses: 2,
            generated: 0,
        };
        let b = CacheStats {
            memo_hits: 4,
            memo_misses: 2,
            generated: 0,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.memo_hits, 3);
        assert_eq!(d.memo_misses, 0);
        assert!(!d.is_empty());
        assert!(CacheStats::default().is_empty());
        assert!(a.delta_since(&b).is_empty(), "deltas saturate at zero");
    }

    #[test]
    fn global_is_a_singleton() {
        let a = KernelRegistry::global() as *const _;
        let b = KernelRegistry::global() as *const _;
        assert_eq!(a, b);
    }
}
