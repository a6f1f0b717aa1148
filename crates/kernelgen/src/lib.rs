//! # kernelgen — kernel strategies and the memoizing kernel registry
//!
//! The paper's Section V-D resolves index representations and multinomial
//! coefficients at code-generation time and unrolls the `A·xᵐ` / `A·xᵐ⁻¹`
//! loops into straight-line FP code. `symtensor`'s build script does that
//! for the shapes of `symtensor::lanes::COMPILED_SHAPES`, in one walk that
//! writes both the scalar [`symtensor::UnrolledKernels`] and the lockstep
//! lane panels. Every kernel in the workspace sums the index classes in
//! the same order, so the strategies are one numeric family: they differ
//! in speed, never in bits.
//!
//! This crate holds the two pieces that pick among them:
//!
//! * [`KernelStrategy`] — the `--kernel` choice (`general`, `blocked`,
//!   `batched`, `tape`; `precomputed` and `unrolled` are spellings of
//!   `batched` and `tape`).
//! * [`KernelRegistry`] — the single place a strategy is resolved for a
//!   shape. Callers ask for a [`KernelPlan`] for `(m, n, scalar, strategy)`
//!   and get back a shareable kernel object; the `batched` kernels, which
//!   own their tables, are memoized per shape.
//!
//! ```
//! use kernelgen::{KernelRegistry, KernelStrategy};
//! use symtensor::{SymTensor, TensorKernels};
//!
//! let registry = KernelRegistry::new();
//! // (4, 3) has compiled kernels: `tape` runs them.
//! let plan = registry.plan::<f64>(4, 3, KernelStrategy::Tape);
//! assert_eq!(plan.kernels.name(), "unrolled");
//!
//! // (5, 4) has none: `tape` runs the blocked kernels, with the same bits.
//! let plan = registry.plan::<f64>(5, 4, KernelStrategy::Tape);
//! assert_eq!(plan.kernels.name(), "blocked");
//!
//! let a = SymTensor::<f64>::from_fn(5, 4, |c| c.rank() as f64);
//! let x = [0.1, 0.2, 0.3, 0.4];
//! let general = registry.plan::<f64>(5, 4, KernelStrategy::General);
//! assert_eq!(
//!     plan.kernels.axm(a.view(), &x).unwrap().to_bits(),
//!     general.kernels.axm(a.view(), &x).unwrap().to_bits(),
//! );
//! ```

#![deny(missing_docs)]

mod registry;
mod strategy;

pub use registry::{CacheStats, KernelPlan, KernelRegistry};
pub use strategy::{KernelError, KernelStrategy};
