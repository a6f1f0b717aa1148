//! Cross-checks between the simulator's counted work and the closed-form
//! Table II flop formulas, plus algebraic properties of [`OpCounters`].
//!
//! The simulator counts operations bottom-up (per thread, per iteration);
//! `symtensor::flops` derives the same quantities top-down from the
//! combinatorial formulas. Agreement must be *exact* — these are integer
//! counts of the same arithmetic, not estimates.

use gpusim::{launch_sshopm, DeviceSpec, GpuVariant, OpCounters};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sshopm::starts::random_uniform_starts;
use sshopm::IterationPolicy;
use symtensor::flops::sshopm_iter_flops;
use symtensor::TensorBatch;

fn workload(
    m: usize,
    n: usize,
    t: usize,
    v: usize,
    seed: u64,
) -> (TensorBatch<f32>, Vec<Vec<f32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let tensors = TensorBatch::random(m, n, t, &mut rng).unwrap();
    let starts = random_uniform_starts(n, v, &mut rng);
    (tensors, starts)
}

/// Counted useful flops of a launch == Σ_threads iterations × the
/// closed-form per-iteration count, for both kernel variants.
#[test]
fn launch_useful_flops_match_closed_form_exactly() {
    for (m, n) in [(3, 3), (4, 3), (4, 4), (3, 5)] {
        let (tensors, starts) = workload(m, n, 7, 32, 42 + m as u64 * 10 + n as u64);
        let device = DeviceSpec::tesla_c2050();
        // A convergence policy makes per-thread iteration counts differ,
        // exercising the per-thread scaling rather than a uniform T·V·k.
        let policy = IterationPolicy::Converge {
            tol: 1e-5,
            max_iters: 200,
        };
        for variant in [GpuVariant::General, GpuVariant::Unrolled] {
            if variant == GpuVariant::Unrolled
                && symtensor::UnrolledKernels::for_shape(m, n).is_none()
            {
                continue;
            }
            let (res, report) =
                launch_sshopm(&device, &tensors, &starts, policy, 0.4, variant).unwrap();
            let total_iterations: u64 = res
                .results
                .iter()
                .flatten()
                .map(|p| p.iterations as u64)
                .sum();
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
    let (tensors, starts) = workload(4, 3, t, v, 7);
    let device = DeviceSpec::tesla_c2050();
    for variant in [GpuVariant::General, GpuVariant::Unrolled] {
        let (_, report) = launch_sshopm(
            &device,
            &tensors,
            &starts,
            IterationPolicy::Fixed(k),
            0.0,
            variant,
        )
        .unwrap();
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
