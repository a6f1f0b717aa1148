//! Kernel-strategy selection: *how* the tensor contractions are computed,
//! independently of *where* the batch runs.
//!
//! The strategy enum and the kernel registry live in `kernelgen`; this
//! module re-exports them and adds the one backend-specific mapping:
//! strategy → simulated-GPU kernel variant.

pub use kernelgen::{KernelPlan, KernelRegistry, KernelStrategy};

use gpusim::GpuVariant;
use symtensor::UnrolledKernels;

/// Map a strategy onto a simulated-GPU kernel variant for shape `(m, n)`.
///
/// `Tape` runs the `Unrolled` variant on shapes with compiled kernels;
/// everything else runs as `General`. Every variant returns `General`'s
/// bits, so any CPU plan re-solves a tensor exactly as the device would.
pub fn gpu_variant(strategy: KernelStrategy, m: usize, n: usize) -> GpuVariant {
    match strategy {
        KernelStrategy::Tape if UnrolledKernels::for_shape(m, n).is_some() => GpuVariant::Unrolled,
        _ => GpuVariant::General,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_honors_available_strategies() {
        let registry = KernelRegistry::new();
        // (5, 4) has no compiled kernels: `tape` runs `blocked`, and every
        // other strategy runs its own.
        for strategy in KernelStrategy::ALL {
            let plan = registry.plan::<f64>(5, 4, strategy);
            let want = match strategy {
                KernelStrategy::Tape => "blocked",
                other => other.name(),
            };
            assert_eq!(plan.kernels.name(), want, "{strategy} at (5,4)");
        }
    }

    #[test]
    fn unrolled_falls_back_for_ungenerated_shape() {
        let registry = KernelRegistry::new();
        let unrolled = KernelStrategy::parse("unrolled").unwrap();
        // (7, 7) has no compiled kernels: blocked on the CPU, general on
        // the GPU.
        let plan = registry.plan::<f64>(7, 7, unrolled);
        assert_eq!(plan.kernels.name(), "blocked");
        assert_eq!(gpu_variant(unrolled, 7, 7), GpuVariant::General);
        let plan = registry.plan::<f64>(1, 3, unrolled);
        assert_eq!(plan.kernels.name(), "blocked");
        assert_eq!(gpu_variant(unrolled, 1, 3), GpuVariant::General);
        // (14, 20) is beyond the blocked orders: all the way to general.
        let plan = registry.plan::<f64>(14, 20, unrolled);
        assert_eq!(plan.kernels.name(), "general");
    }

    #[test]
    fn gpu_variant_mapping() {
        assert_eq!(
            gpu_variant(KernelStrategy::Tape, 4, 3),
            GpuVariant::Unrolled
        );
        assert_eq!(gpu_variant(KernelStrategy::Tape, 5, 9), GpuVariant::General);
        assert_eq!(
            gpu_variant(KernelStrategy::Tape, 5, 40),
            GpuVariant::General
        );
        for s in [
            KernelStrategy::General,
            KernelStrategy::Blocked,
            KernelStrategy::Batched,
        ] {
            assert_eq!(gpu_variant(s, 4, 3), GpuVariant::General);
        }
    }
}
