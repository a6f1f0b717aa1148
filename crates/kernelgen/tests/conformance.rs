//! Kernel-family conformance: how every `--kernel` spelling resolves for
//! a shape, and that each numeric family computes one set of numbers.
//!
//! The strategies form two families. `general`, `blocked` and `batched`
//! (spelled `precomputed` too) walk the index classes in one order with
//! the same exact coefficients, so their solves are bitwise equal; `tape`
//! (spelled `unrolled` too) runs straight-line code, pinned bitwise to the
//! generated kernels and to 1e-12 of general by `differential.rs`.

use backend::{
    gpu_variant, BatchReport, CpuParallel, KernelRegistry, KernelStrategy, SolveBackend,
};
use gpusim::GpuVariant;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sshopm::{IterationPolicy, Shift, SsHopm};
use symtensor::{Scalar, TensorBatch};
use telemetry::Telemetry;
use unrolled::GENERATED_SHAPES;

/// Every spelling × shape: the CPU kernels `plan` returns, the simulated
/// GPU variant, and whether a tape was generated. (12, 24) is beyond the
/// tape budget and the blocked orders; `batched` is left out there because
/// its tables would hold C(35, 12) ≈ 8.3e8 classes.
#[test]
fn every_spelling_resolves_along_one_chain() {
    use GpuVariant::{General as G, Tape as T, Unrolled as U};
    #[rustfmt::skip]
    let table: &[(&str, (usize, usize), &str, GpuVariant)] = &[
        ("general",     (4, 3),   "general",  G),
        ("general",     (5, 4),   "general",  G),
        ("general",     (1, 3),   "general",  G),
        ("general",     (12, 24), "general",  G),
        ("blocked",     (4, 3),   "blocked",  G),
        ("blocked",     (5, 4),   "blocked",  G),
        ("blocked",     (1, 3),   "blocked",  G),
        ("blocked",     (12, 24), "general",  G),
        ("precomputed", (4, 3),   "batched",  G),
        ("precomputed", (5, 4),   "batched",  G),
        ("precomputed", (1, 3),   "batched",  G),
        ("batched",     (4, 3),   "batched",  G),
        ("batched",     (5, 4),   "batched",  G),
        ("batched",     (1, 3),   "batched",  G),
        ("unrolled",    (4, 3),   "unrolled", U),
        ("unrolled",    (5, 4),   "tape",     T),
        ("unrolled",    (1, 3),   "blocked",  G),
        ("unrolled",    (12, 24), "general",  G),
        ("tape",        (4, 3),   "unrolled", U),
        ("tape",        (5, 4),   "tape",     T),
        ("tape",        (1, 3),   "blocked",  G),
        ("tape",        (12, 24), "general",  G),
    ];
    for &(spelling, (m, n), kernels, variant) in table {
        let strategy = KernelStrategy::parse(spelling).unwrap();
        let registry = KernelRegistry::new();
        let plan = registry.plan::<f64>(m, n, strategy);
        let at = format!("{spelling} at ({m},{n})");
        assert_eq!(plan.kernels.name(), kernels, "{at}");
        assert_eq!(gpu_variant(strategy, m, n).0, variant, "{at}");
        let generated = registry.stats().generated;
        assert_eq!(generated, u64::from(kernels == "tape"), "{at}");
    }

    // Every compiled shape runs its compiled code in both precisions,
    // without generating, loading or persisting a tape.
    for &(m, n) in GENERATED_SHAPES {
        let registry = KernelRegistry::new();
        let f32_plan = registry.plan::<f32>(m, n, KernelStrategy::Tape);
        let f64_plan = registry.plan::<f64>(m, n, KernelStrategy::Tape);
        assert_eq!(f32_plan.kernels.name(), "unrolled", "({m},{n})");
        assert_eq!(f64_plan.kernels.name(), "unrolled", "({m},{n})");
        assert_eq!(gpu_variant(KernelStrategy::Tape, m, n).0, U, "({m},{n})");
        assert!(
            registry.stats().is_empty(),
            "({m},{n}) touched the registry"
        );
    }

    // The CPU strategy paired with each GPU variant computes what the
    // device computes (the resilient backend re-solves with it).
    assert_eq!(
        gpu_variant(KernelStrategy::Tape, 4, 3).1,
        KernelStrategy::Tape
    );
    assert_eq!(
        gpu_variant(KernelStrategy::Tape, 5, 4).1,
        KernelStrategy::Tape
    );
    for strategy in [
        KernelStrategy::General,
        KernelStrategy::Blocked,
        KernelStrategy::Batched,
    ] {
        assert_eq!(gpu_variant(strategy, 4, 3).1, KernelStrategy::General);
    }
    assert_eq!(
        gpu_variant(KernelStrategy::Tape, 1, 3).1,
        KernelStrategy::General
    );
}

fn solve<S: Scalar>(
    strategy: KernelStrategy,
    tensors: &TensorBatch<S>,
    starts: &[Vec<S>],
    shift: Shift,
) -> BatchReport<S> {
    let solver = SsHopm::new(shift).with_policy(IterationPolicy::Converge {
        tol: 1e-9,
        max_iters: 300,
    });
    CpuParallel::new(1, strategy)
        .solve_batch(tensors, starts, &solver, &Telemetry::disabled())
        .unwrap()
}

fn assert_bitwise<S: Scalar>(got: &BatchReport<S>, want: &BatchReport<S>, at: &str) {
    assert_eq!(got.total_iterations, want.total_iterations, "{at}");
    for ((t, v, g), (_, _, w)) in got.iter_flat().zip(want.iter_flat()) {
        let pair = format!("{at}: tensor {t} start {v}");
        assert_eq!(
            g.lambda.to_f64().to_bits(),
            w.lambda.to_f64().to_bits(),
            "{pair}"
        );
        assert_eq!(g.iterations, w.iterations, "{pair}");
        assert_eq!(g.converged, w.converged, "{pair}");
        for (a, b) in g.x.iter().zip(&w.x) {
            assert_eq!(a.to_f64().to_bits(), b.to_f64().to_bits(), "{pair}");
        }
    }
}

fn check_class_order_family<S: Scalar>(seed: u64) {
    // Two compiled lane-panel shapes, (4, 3) and (6, 3), and two on the
    // table walk.
    for (m, n) in [(4, 3), (6, 3), (5, 4), (7, 3)] {
        let mut rng = StdRng::seed_from_u64(seed + (10 * m + n) as u64);
        // Ten tensors: one full lockstep panel of eight plus a ragged one.
        let tensors = TensorBatch::<S>::random(m, n, 10, &mut rng).unwrap();
        let starts = sshopm::starts::random_uniform_starts::<S, _>(n, 4, &mut rng);
        // A fixed shift (batched runs the lockstep driver) and the convex
        // adaptive shift (batched runs its per-tensor kernels).
        for shift in [Shift::Fixed(2.0), Shift::Convex] {
            let want = solve(KernelStrategy::General, &tensors, &starts, shift);
            assert!(want.num_converged() > 0);
            for spelling in ["blocked", "precomputed", "batched"] {
                let strategy = KernelStrategy::parse(spelling).unwrap();
                let got = solve(strategy, &tensors, &starts, shift);
                let at = format!("{spelling} {} ({m},{n}) {shift:?}", S::NAME);
                assert_bitwise(&got, &want, &at);
            }
        }
    }
}

/// `blocked`, `precomputed` and `batched` return general's eigenpairs to
/// the bit, with the same iteration counts, in both precisions and under
/// both shift kinds.
#[test]
fn class_order_spellings_are_bitwise_identical_to_general() {
    check_class_order_family::<f32>(1);
    check_class_order_family::<f64>(2);
}
