//! # kernelgen — runtime kernel generation behind a content-addressed cache
//!
//! The paper's Section V-D resolves index representations and multinomial
//! coefficients at code-generation time and unrolls the `A·xᵐ` / `A·xᵐ⁻¹`
//! loops into straight-line FP code. The `unrolled` crate does exactly that
//! at *build* time, but only for the shapes listed in its `build.rs`
//! ([`unrolled::GENERATED_SHAPES`]). This crate extends the idea to **any
//! small shape at runtime**: the same straight-line structure is emitted as
//! *data* — a flat [`KernelTape`] of pre-resolved entry offsets and folded
//! multinomial coefficients — and executed by a tight loop
//! ([`TapeKernels`]), giving near-unrolled performance without a compiler
//! in the loop.
//!
//! Three layers live here:
//!
//! * [`KernelTape`] / [`TapeKernels`] — the generator and its executor.
//!   The tape replays the *exact* floating-point operation order of the
//!   generated unrolled code, so on a generated shape the results are
//!   bitwise identical to [`unrolled::UnrolledKernels`].
//! * an **artifact cache** — generated tapes are serialized to disk keyed
//!   by a content hash of `(m, n, scalar, tape-format version)`, the way
//!   wasmer caches compiled modules: corrupt, truncated, or
//!   version-mismatched entries are detected (magic, header fields, and an
//!   FNV-1a payload checksum) and silently regenerated, never trusted.
//! * [`KernelRegistry`] — the single place kernel lifetime, caching, and
//!   shape-based resolution live. Callers ask for a [`KernelPlan`] for
//!   `(m, n, scalar, strategy)` and get back a memoized, shareable kernel
//!   object. [`KernelStrategy::Tape`] runs the faster build-time unrolled
//!   code where a shape has it and a tape elsewhere.
//!
//! ```
//! use kernelgen::{KernelRegistry, KernelStrategy};
//! use symtensor::{SymTensor, TensorKernels};
//!
//! let registry = KernelRegistry::new();
//! // (4, 3) is in unrolled::GENERATED_SHAPES: the compiled code runs and
//! // no tape is generated.
//! let plan = registry.plan::<f64>(4, 3, KernelStrategy::Tape);
//! assert_eq!(plan.kernels.name(), "unrolled");
//! assert_eq!(registry.stats().generated, 0);
//!
//! // (5, 4) is not — the runtime tape covers it.
//! let plan = registry.plan::<f64>(5, 4, KernelStrategy::Tape);
//! assert_eq!(plan.kernels.name(), "tape");
//!
//! let a = SymTensor::<f64>::from_fn(5, 4, |c| c.rank() as f64);
//! let x = [0.1, 0.2, 0.3, 0.4];
//! assert!(plan.kernels.axm(a.view(), &x).unwrap().is_finite());
//! ```

#![deny(missing_docs)]

mod artifact;
mod registry;
mod strategy;
mod tape;

pub use artifact::{artifact_path, inspect_dir, DiskEntry, TAPE_FORMAT_VERSION};
pub use registry::{CacheStats, KernelPlan, KernelRegistry};
pub use strategy::{KernelError, KernelStrategy};
pub use tape::{tape_supported, KernelTape, TapeKernels};
