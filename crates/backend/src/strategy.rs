//! Kernel-strategy selection: *how* the tensor contractions are computed,
//! independently of *where* the batch runs.
//!
//! The strategy enum and the kernel registry live in `kernelgen`; this
//! module re-exports them and adds the one backend-specific mapping:
//! strategy → simulated-GPU kernel variant.

pub use kernelgen::{KernelPlan, KernelRegistry, KernelStrategy};

use gpusim::GpuVariant;
use unrolled::UnrolledKernels;

/// Map a strategy onto a simulated-GPU kernel variant for shape `(m, n)`.
///
/// `Tape` resolves as [`KernelRegistry::plan`] does: the `Unrolled` variant
/// on generated shapes, else `Tape` where a tape is supported, else
/// `General`; every other strategy runs as `General`. Also returns the CPU
/// strategy computing the same numbers, for bit-identical CPU re-solves.
pub fn gpu_variant(strategy: KernelStrategy, m: usize, n: usize) -> (GpuVariant, KernelStrategy) {
    match strategy {
        KernelStrategy::Tape if UnrolledKernels::for_shape(m, n).is_some() => {
            (GpuVariant::Unrolled, KernelStrategy::Tape)
        }
        KernelStrategy::Tape if kernelgen::tape_supported(m, n) => {
            (GpuVariant::Tape, KernelStrategy::Tape)
        }
        _ => (GpuVariant::General, KernelStrategy::General),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_honors_available_strategies() {
        let registry = KernelRegistry::new();
        // (5, 4) has no compiled kernels, so every strategy runs its own.
        for strategy in KernelStrategy::ALL {
            let plan = registry.plan::<f64>(5, 4, strategy);
            assert_eq!(plan.kernels.name(), strategy.name(), "{strategy} at (5,4)");
        }
    }

    #[test]
    fn unrolled_falls_back_for_ungenerated_shape() {
        let registry = KernelRegistry::new();
        let unrolled = KernelStrategy::parse("unrolled").unwrap();
        // (7, 7) has no generated kernel: a runtime tape computes it.
        let plan = registry.plan::<f64>(7, 7, unrolled);
        assert_eq!(plan.kernels.name(), "tape");
        assert_eq!(
            gpu_variant(unrolled, 7, 7),
            (GpuVariant::Tape, KernelStrategy::Tape)
        );
        // Order 1 has no tape: blocked on the CPU, general on the GPU.
        let plan = registry.plan::<f64>(1, 3, unrolled);
        assert_eq!(plan.kernels.name(), "blocked");
        assert_eq!(
            gpu_variant(unrolled, 1, 3),
            (GpuVariant::General, KernelStrategy::General)
        );
        // (14, 20) is beyond the tape and blocked ranges: all the way to general.
        let plan = registry.plan::<f64>(14, 20, unrolled);
        assert_eq!(plan.kernels.name(), "general");
    }

    #[test]
    fn gpu_variant_mapping() {
        assert_eq!(
            gpu_variant(KernelStrategy::Tape, 4, 3),
            (GpuVariant::Unrolled, KernelStrategy::Tape)
        );
        // The tape generator covers (5, 9); the slot cap rules out (5, 40).
        assert_eq!(
            gpu_variant(KernelStrategy::Tape, 5, 9),
            (GpuVariant::Tape, KernelStrategy::Tape)
        );
        assert_eq!(
            gpu_variant(KernelStrategy::Tape, 5, 40),
            (GpuVariant::General, KernelStrategy::General)
        );
        for s in [
            KernelStrategy::General,
            KernelStrategy::Blocked,
            KernelStrategy::Batched,
        ] {
            assert_eq!(
                gpu_variant(s, 4, 3),
                (GpuVariant::General, KernelStrategy::General)
            );
        }
    }
}
