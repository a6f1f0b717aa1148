//! The kernel registry: the single place kernel materialization, caching,
//! and shape-based resolution live. Backends ask for a [`KernelPlan`] and
//! get a memoized, shareable kernel object instead of a freshly boxed one
//! per `solve_batch` call.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;
use symtensor::{BatchedKernels, BlockedKernels, GeneralKernels, Scalar, TensorKernels};
use unrolled::UnrolledKernels;

use crate::artifact;
use crate::strategy::{KernelError, KernelStrategy};
use crate::tape::{tape_supported, KernelTape, TapeKernels};

/// Snapshot of registry activity counters, also usable as a delta between
/// two snapshots (see [`CacheStats::delta_since`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CacheStats {
    /// Memoized kernel objects served from the in-process map.
    pub memo_hits: u64,
    /// Requests that missed the in-process map (and went to disk and/or
    /// the generator).
    pub memo_misses: u64,
    /// Tapes loaded and validated from the on-disk artifact cache.
    pub disk_hits: u64,
    /// Artifact-cache lookups that missed (absent, corrupt, truncated, or
    /// stale-version entries all count here — none are trusted).
    pub disk_misses: u64,
    /// Tapes generated at runtime.
    pub generated: u64,
    /// Wall-clock seconds spent generating (and writing back) tapes.
    pub generate_seconds: f64,
}

impl CacheStats {
    /// Counter-wise difference against an earlier snapshot.
    pub fn delta_since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            memo_hits: self.memo_hits.saturating_sub(before.memo_hits),
            memo_misses: self.memo_misses.saturating_sub(before.memo_misses),
            disk_hits: self.disk_hits.saturating_sub(before.disk_hits),
            disk_misses: self.disk_misses.saturating_sub(before.disk_misses),
            generated: self.generated.saturating_sub(before.generated),
            generate_seconds: (self.generate_seconds - before.generate_seconds).max(0.0),
        }
    }

    /// True when every counter is zero (nothing worth reporting).
    pub fn is_empty(&self) -> bool {
        self.memo_hits == 0
            && self.memo_misses == 0
            && self.disk_hits == 0
            && self.disk_misses == 0
            && self.generated == 0
    }

    /// Fraction of artifact-cache lookups that hit, if any were made.
    pub fn artifact_hit_rate(&self) -> Option<f64> {
        let total = self.disk_hits + self.disk_misses;
        (total > 0).then(|| self.disk_hits as f64 / total as f64)
    }
}

#[derive(Default)]
struct Counters {
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    generated: AtomicU64,
    generate_nanos: AtomicU64,
}

/// A materialized kernel selection. `kernels.name()` says which
/// implementation the strategy resolved to for the shape (`general`,
/// `blocked`, `batched`, `unrolled` or `tape`).
#[derive(Clone)]
pub struct KernelPlan<S> {
    /// The kernels; cloning the plan clones an `Arc`, not the tables.
    pub kernels: Arc<dyn TensorKernels<S> + Send + Sync>,
}

impl<S: Scalar> std::fmt::Debug for KernelPlan<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KernelPlan")
            .field("kernels", &self.kernels.name())
            .finish()
    }
}

/// Type-erased memoized tape kernels, keyed by shape plus scalar type: the
/// stored value is always an `Arc<TapeKernels<S>>` for the `TypeId` of `S`.
type TapeMap = HashMap<(usize, usize, TypeId), Arc<dyn Any + Send + Sync>>;

/// Memoizing kernel registry with an optional on-disk artifact cache for
/// generated tapes. Two kinds are memoized per shape: the `batched`
/// kernels (which own their precomputed and lane tables) and the runtime
/// tapes (per scalar type).
///
/// Most callers use the process-wide [`KernelRegistry::global`] instance so
/// repeated `solve_batch` calls — and concurrent backends — share tables;
/// tests build private instances to keep counters isolated.
pub struct KernelRegistry {
    cache_dir: Mutex<Option<PathBuf>>,
    batched: Mutex<HashMap<(usize, usize), Arc<BatchedKernels>>>,
    tapes: Mutex<TapeMap>,
    counters: Counters,
}

impl Default for KernelRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl KernelRegistry {
    /// An empty registry with no artifact-cache directory (tapes are
    /// generated in memory only).
    pub fn new() -> Self {
        KernelRegistry {
            cache_dir: Mutex::new(None),
            batched: Mutex::new(HashMap::new()),
            tapes: Mutex::new(HashMap::new()),
            counters: Counters::default(),
        }
    }

    /// An empty registry persisting generated tapes under `dir`.
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> Self {
        let r = Self::new();
        r.set_cache_dir(Some(dir.into()));
        r
    }

    /// The process-wide registry shared by every backend.
    pub fn global() -> &'static KernelRegistry {
        static GLOBAL: OnceLock<KernelRegistry> = OnceLock::new();
        GLOBAL.get_or_init(KernelRegistry::new)
    }

    /// Set (or clear) the artifact-cache directory.
    pub fn set_cache_dir(&self, dir: Option<PathBuf>) {
        *self.cache_dir.lock() = dir;
    }

    /// The configured artifact-cache directory, if any.
    pub fn cache_dir(&self) -> Option<PathBuf> {
        self.cache_dir.lock().clone()
    }

    /// Snapshot the activity counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            memo_hits: self.counters.memo_hits.load(Ordering::Relaxed),
            memo_misses: self.counters.memo_misses.load(Ordering::Relaxed),
            disk_hits: self.counters.disk_hits.load(Ordering::Relaxed),
            disk_misses: self.counters.disk_misses.load(Ordering::Relaxed),
            generated: self.counters.generated.load(Ordering::Relaxed),
            generate_seconds: self.counters.generate_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }

    /// Drop every memoized kernel object (the disk cache is untouched).
    pub fn clear_memory(&self) {
        self.batched.lock().clear();
        self.tapes.lock().clear();
    }

    /// Remove every artifact under the configured cache directory.
    ///
    /// # Errors
    /// Propagates filesystem errors from the removal.
    pub fn clear_disk(&self) -> io::Result<usize> {
        match self.cache_dir() {
            Some(dir) => Self::clear_disk_at(&dir),
            None => Ok(0),
        }
    }

    /// Remove every artifact under an explicit directory (the `cache clear`
    /// CLI path).
    ///
    /// # Errors
    /// Propagates filesystem errors from the removal.
    pub fn clear_disk_at(dir: &Path) -> io::Result<usize> {
        artifact::clear_dir(dir)
    }

    /// Materialize kernels for `(m, n, S, strategy)`.
    ///
    /// `Tape` resolves along one chain: the build-time [`UnrolledKernels`]
    /// on `unrolled::GENERATED_SHAPES` (no tape is generated, loaded or
    /// persisted), else the memoized tape when [`tape_supported`], else
    /// `Blocked`. `Blocked` beyond order 8 is `General`.
    pub fn plan<S: Scalar>(&self, m: usize, n: usize, strategy: KernelStrategy) -> KernelPlan<S> {
        let kernels: Arc<dyn TensorKernels<S> + Send + Sync> = match strategy {
            KernelStrategy::General => Arc::new(GeneralKernels),
            KernelStrategy::Blocked => match BlockedKernels::for_shape(m, n) {
                Some(k) => Arc::new(k),
                None => Arc::new(GeneralKernels),
            },
            KernelStrategy::Batched => self.batched(m, n),
            KernelStrategy::Tape => match UnrolledKernels::for_shape(m, n) {
                Some(k) => Arc::new(k),
                None => match self.tape::<S>(m, n) {
                    Ok(k) => k,
                    Err(_) => return self.plan(m, n, KernelStrategy::Blocked),
                },
            },
        };
        KernelPlan { kernels }
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

    /// Shared tape kernels for `(m, n, S)`: memoized in-process, loaded
    /// from the artifact cache when configured, generated (and written
    /// back) otherwise.
    ///
    /// # Errors
    /// Returns [`KernelError`] if the shape is not [`tape_supported`].
    pub fn tape<S: Scalar>(&self, m: usize, n: usize) -> Result<Arc<TapeKernels<S>>, KernelError> {
        if !tape_supported(m, n) {
            return Err(KernelError(format!(
                "shape ({m}, {n}) has no tape kernel (order outside 2..=20, or tape too large)"
            )));
        }
        let key = (m, n, TypeId::of::<S>());
        if let Some(entry) = self.tapes.lock().get(&key) {
            if let Ok(k) = entry.clone().downcast::<TapeKernels<S>>() {
                self.counters.memo_hits.fetch_add(1, Ordering::Relaxed);
                return Ok(k);
            }
        }
        self.counters.memo_misses.fetch_add(1, Ordering::Relaxed);

        let dir = self.cache_dir();
        let tape = match dir
            .as_deref()
            .and_then(|d| artifact::load(d, m, n, S::NAME))
        {
            Some(t) => {
                self.counters.disk_hits.fetch_add(1, Ordering::Relaxed);
                t
            }
            None => {
                if dir.is_some() {
                    self.counters.disk_misses.fetch_add(1, Ordering::Relaxed);
                }
                let started = Instant::now();
                let t = KernelTape::generate(m, n)?;
                if let Some(d) = dir.as_deref() {
                    // A write failure only costs the next process a
                    // regeneration; the in-memory tape is still good.
                    let _ = artifact::store(d, &t, S::NAME);
                }
                self.counters.generated.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .generate_nanos
                    .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                t
            }
        };
        let kernels = Arc::new(TapeKernels::<S>::new(Arc::new(tape)));
        self.tapes
            .lock()
            .insert(key, kernels.clone() as Arc<dyn Any + Send + Sync>);
        Ok(kernels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_honors_available_strategies() {
        let r = KernelRegistry::new();
        // (5, 4) has no compiled kernels, so every strategy runs its own.
        for strategy in KernelStrategy::ALL {
            let plan = r.plan::<f64>(5, 4, strategy);
            assert_eq!(plan.kernels.name(), strategy.name(), "{strategy} at (5,4)");
        }
        // On a compiled shape `Tape` runs the compiled straight-line code.
        let plan = r.plan::<f64>(4, 3, KernelStrategy::Tape);
        assert_eq!(plan.kernels.name(), "unrolled");
    }

    #[test]
    fn fallback_chains_are_preserved() {
        let r = KernelRegistry::new();
        // Tape: compiled code on a generated shape, else a runtime tape ...
        let plan = r.plan::<f64>(4, 3, KernelStrategy::Tape);
        assert_eq!(plan.kernels.name(), "unrolled");
        let plan = r.plan::<f64>(7, 7, KernelStrategy::Tape);
        assert_eq!(plan.kernels.name(), "tape");
        // ... else blocked (order 1 has no tape) ...
        let plan = r.plan::<f64>(1, 3, KernelStrategy::Tape);
        assert_eq!(plan.kernels.name(), "blocked");
        // ... else general: (14, 20) is beyond the tape and blocked ranges.
        let plan = r.plan::<f64>(14, 20, KernelStrategy::Tape);
        assert_eq!(plan.kernels.name(), "general");
        // Blocked beyond order 8 is general.
        let plan = r.plan::<f64>(9, 3, KernelStrategy::Blocked);
        assert_eq!(plan.kernels.name(), "general");
    }

    #[test]
    fn memoized_kinds_return_the_same_object() {
        let r = KernelRegistry::new();
        let a = r.batched(4, 3);
        let b = r.batched(4, 3);
        assert!(Arc::ptr_eq(&a, &b));
        let a = r.tape::<f64>(5, 4).unwrap();
        let b = r.tape::<f64>(5, 4).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let s = r.stats();
        assert_eq!(s.memo_hits, 2);
        assert_eq!(s.memo_misses, 2);
        assert_eq!(s.generated, 1);
        // No cache dir configured: disk counters never move.
        assert_eq!(s.disk_hits + s.disk_misses, 0);
    }

    #[test]
    fn tape_is_keyed_per_scalar() {
        let r = KernelRegistry::new();
        let _ = r.tape::<f64>(5, 4).unwrap();
        let _ = r.tape::<f32>(5, 4).unwrap();
        assert_eq!(r.stats().memo_misses, 2, "f32 and f64 are distinct entries");
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
            disk_hits: 1,
            disk_misses: 1,
            generated: 1,
            generate_seconds: 0.5,
        };
        let b = CacheStats {
            memo_hits: 4,
            memo_misses: 2,
            disk_hits: 4,
            disk_misses: 1,
            generated: 1,
            generate_seconds: 0.5,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.memo_hits, 3);
        assert_eq!(d.disk_hits, 3);
        assert_eq!(d.artifact_hit_rate(), Some(1.0));
        assert!(!d.is_empty());
        assert!(CacheStats::default().is_empty());
        assert_eq!(CacheStats::default().artifact_hit_rate(), None);
    }

    #[test]
    fn global_is_a_singleton() {
        let a = KernelRegistry::global() as *const _;
        let b = KernelRegistry::global() as *const _;
        assert_eq!(a, b);
    }
}
