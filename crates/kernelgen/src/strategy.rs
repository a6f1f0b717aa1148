//! Kernel-strategy selection: *how* the tensor contractions are computed,
//! independently of *where* the batch runs.
//!
//! The enum lives here (rather than in `backend`, where it started) because
//! the [`KernelRegistry`](crate::KernelRegistry) is the single place a
//! strategy is resolved for a shape; `backend` re-exports it unchanged.

use std::fmt;

/// Error type for kernel-strategy parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelError(pub String);

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel error: {}", self.0)
    }
}

impl std::error::Error for KernelError {}

/// Which `A·xᵐ` / `A·xᵐ⁻¹` implementation a backend should use.
///
/// One numeric family: every strategy walks the index classes in one
/// order with the same exact coefficients and the same association, so
/// all of them return `General`'s bits and differ only in speed. Each is
/// resolved per shape by [`KernelRegistry::plan`](crate::KernelRegistry::plan).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelStrategy {
    /// On-the-fly index/coefficient computation (works for every shape).
    General,
    /// Const-generic blocked kernels (orders 1–8, any dimension).
    Blocked,
    /// Lane-vectorized kernels over the packed `TensorBatch` arena
    /// ([`symtensor::BatchedKernels`]), built on the Section V-C
    /// precomputed tables. SS-HOPM batches under a fixed, convex or
    /// concave shift run the lockstep lane driver, which updates
    /// [`symtensor::LANE_WIDTH`] tensors per kernel call, each lane with
    /// its own shift; per-tensor calls run the compiled scalar kernels
    /// where a shape has them and the tables elsewhere.
    Batched,
    /// The Section V-D straight-line kernels
    /// ([`symtensor::UnrolledKernels`]) on
    /// `symtensor::lanes::COMPILED_SHAPES`, `Blocked` elsewhere.
    Tape,
}

impl KernelStrategy {
    /// All strategies, for sweeps and tests.
    pub const ALL: [KernelStrategy; 4] = [
        KernelStrategy::General,
        KernelStrategy::Blocked,
        KernelStrategy::Batched,
        KernelStrategy::Tape,
    ];

    /// Short name for reports and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            KernelStrategy::General => "general",
            KernelStrategy::Blocked => "blocked",
            KernelStrategy::Batched => "batched",
            KernelStrategy::Tape => "tape",
        }
    }

    /// Parse a CLI token: one of the four names, or the paper's labels
    /// `precomputed` (a spelling of `batched`) and `unrolled` (a spelling
    /// of `tape`).
    pub fn parse(s: &str) -> Result<Self, KernelError> {
        match s {
            "general" => Ok(KernelStrategy::General),
            "blocked" => Ok(KernelStrategy::Blocked),
            "batched" | "precomputed" => Ok(KernelStrategy::Batched),
            "tape" | "unrolled" => Ok(KernelStrategy::Tape),
            other => Err(KernelError(format!(
                "unknown kernel strategy {other:?}: expected one of general, blocked, \
                 batched, tape (or precomputed = batched, unrolled = tape)"
            ))),
        }
    }
}

impl fmt::Display for KernelStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for s in KernelStrategy::ALL {
            assert_eq!(KernelStrategy::parse(s.name()).unwrap(), s);
            assert_eq!(s.to_string(), s.name());
        }
        assert_eq!(
            KernelStrategy::parse("precomputed").unwrap(),
            KernelStrategy::Batched
        );
        assert_eq!(
            KernelStrategy::parse("unrolled").unwrap(),
            KernelStrategy::Tape
        );
        assert!(KernelStrategy::parse("fused").is_err());
    }

    #[test]
    fn parse_error_lists_tape() {
        let err = KernelStrategy::parse("nope").unwrap_err();
        assert!(err.0.contains("tape"), "{err}");
        assert!(err.0.contains("precomputed = batched"), "{err}");
        assert!(err.0.contains("unrolled = tape"), "{err}");
    }
}
