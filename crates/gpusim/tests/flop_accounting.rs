//! Cross-checks between the simulator's counted work and the closed-form
//! Table II flop formulas, plus algebraic properties of [`OpCounters`].
//!
//! The simulator counts operations bottom-up (per thread, per iteration);
//! `symtensor::flops` derives the same quantities top-down from the
//! combinatorial formulas. Agreement must be *exact* — these are integer
//! counts of the same arithmetic, not estimates.

use gpusim::{
    Cluster, DeviceSpec, GpuVariant, IterationCounts, LaunchReport, OpCounters, Schedule,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use symtensor::flops::sshopm_iter_flops;

/// `t` tensors × `v` starts of iteration counts that differ from solve to
/// solve, as a convergence policy's do.
fn ragged(t: usize, v: usize, seed: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..t * v).map(|_| rng.gen_range(1u64..200)).collect()
}

/// One synchronous launch of `counts` (`f32` scalars) on `device`.
fn launch(device: &DeviceSpec, counts: IterationCounts<'_>, variant: GpuVariant) -> LaunchReport {
    let report = Cluster::from(device.clone())
        .launch(counts, variant, Schedule::SYNCHRONOUS)
        .unwrap();
    report.shards[0].slices[0].report.clone()
}

/// Counted useful flops of a launch == Σ_threads iterations × the
/// closed-form per-iteration count, for both kernel variants.
#[test]
fn launch_useful_flops_match_closed_form_exactly() {
    for (m, n) in [(3, 3), (4, 3), (4, 4), (3, 5)] {
        // Counts that differ per thread exercise the per-thread scaling
        // rather than a uniform T·V·k.
        let iterations = ragged(7, 32, 42 + m as u64 * 10 + n as u64);
        let counts = IterationCounts::new(m, n, 4, 32, &iterations).unwrap();
        let device = DeviceSpec::tesla_c2050();
        for variant in [GpuVariant::General, GpuVariant::Unrolled] {
            if variant == GpuVariant::Unrolled
                && symtensor::UnrolledKernels::for_shape(m, n).is_none()
            {
                continue;
            }
            let report = launch(&device, counts, variant);
            let total_iterations: u64 = iterations.iter().sum();
            assert!(total_iterations > 0);
            assert_eq!(
                report.useful_flops,
                total_iterations * sshopm_iter_flops(m, n),
                "[{m},{n}] {} counted flops diverge from Table II formula",
                variant.name()
            );
        }
    }
}

/// Fixed iteration budgets give the fully closed-form total
/// `T · V · k · sshopm_iter_flops(m, n)` — the quantity the paper's
/// Table III GFLOPS figures divide by.
#[test]
fn fixed_policy_flops_are_t_v_k_times_per_iteration() {
    let (t, v, k) = (9, 64, 25);
    let iterations = vec![k as u64; t * v];
    let counts = IterationCounts::new(4, 3, 4, v, &iterations).unwrap();
    let device = DeviceSpec::tesla_c2050();
    for variant in [GpuVariant::General, GpuVariant::Unrolled] {
        let report = launch(&device, counts, variant);
        assert_eq!(
            report.useful_flops,
            (t * v * k) as u64 * sshopm_iter_flops(4, 3)
        );
    }
}

fn counters_strategy() -> impl Strategy<Value = OpCounters> {
    (
        (0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000),
        (0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000),
    )
        .prop_map(
            |((fadd, fmul, ffma, fdiv, fsqrt), (int_ops, sl, ss, gl, gs))| OpCounters {
                fadd,
                fmul,
                ffma,
                fdiv,
                fsqrt,
                int_ops,
                shared_loads: sl,
                shared_stores: ss,
                global_loads: gl,
                global_stores: gs,
            },
        )
}

fn merged(a: &OpCounters, b: &OpCounters) -> OpCounters {
    let mut out = *a;
    out.merge(b);
    out
}

proptest! {
    /// `merge` is commutative and associative, so the aggregation order of
    /// blocks/warps/threads in `run_grid` cannot change launch totals.
    #[test]
    fn merge_is_commutative_and_associative(
        a in counters_strategy(),
        b in counters_strategy(),
        c in counters_strategy(),
    ) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
        prop_assert_eq!(
            merged(&merged(&a, &b), &c),
            merged(&a, &merged(&b, &c))
        );
    }

    /// Derived totals are additive under merge: counting then summing
    /// equals summing then counting.
    #[test]
    fn derived_totals_are_additive(a in counters_strategy(), b in counters_strategy()) {
        let ab = merged(&a, &b);
        prop_assert_eq!(ab.useful_flops(), a.useful_flops() + b.useful_flops());
        prop_assert_eq!(
            ab.arithmetic_instructions(),
            a.arithmetic_instructions() + b.arithmetic_instructions()
        );
        prop_assert_eq!(ab.shared_accesses(), a.shared_accesses() + b.shared_accesses());
        prop_assert_eq!(ab.global_words(), a.global_words() + b.global_words());
    }

    /// The zero counter is the identity of `merge`.
    #[test]
    fn default_is_merge_identity(a in counters_strategy()) {
        prop_assert_eq!(merged(&a, &OpCounters::default()), a);
        prop_assert_eq!(merged(&OpCounters::default(), &a), a);
    }
}
