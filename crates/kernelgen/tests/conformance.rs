//! Kernel-family conformance: how every `--kernel` spelling resolves for
//! a shape, and that all of them compute one set of numbers.
//!
//! Every strategy walks the index classes in one order with the same
//! exact coefficients and the same association: `general`, `blocked`,
//! `batched` (spelled `precomputed` too) and `tape` (spelled `unrolled`
//! too) return the same bits, on the CPU and on the simulated GPU.

use backend::{
    gpu_variant, BatchReport, CpuParallel, GpuSimBackend, KernelRegistry, KernelStrategy,
    SolveBackend,
};
use gpusim::{DeviceSpec, GpuVariant};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sshopm::{IterationPolicy, Shift, SsHopm};
use std::sync::Arc;
use symtensor::kernels::GeneralKernels;
use symtensor::lanes::COMPILED_SHAPES;
use symtensor::{Error, Scalar, SymTensor, TensorBatch, TensorKernels};
use telemetry::Telemetry;

/// Every `--kernel` spelling.
const SPELLINGS: [&str; 6] = [
    "general",
    "blocked",
    "precomputed",
    "batched",
    "unrolled",
    "tape",
];

/// Every spelling × shape: the CPU kernels `plan` returns and the
/// simulated GPU variant. (12, 24) is beyond the blocked orders; `batched`
/// is left out there because its tables would hold C(35, 12) ≈ 8.3e8
/// classes.
#[test]
fn every_spelling_resolves_along_one_chain() {
    use GpuVariant::{General as G, Unrolled as U};
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
        ("unrolled",    (4, 3),   "batched",  U),
        ("unrolled",    (5, 4),   "blocked",  G),
        ("unrolled",    (1, 3),   "blocked",  G),
        ("unrolled",    (12, 24), "general",  G),
        ("tape",        (4, 3),   "batched",  U),
        ("tape",        (5, 4),   "blocked",  G),
        ("tape",        (1, 3),   "blocked",  G),
        ("tape",        (12, 24), "general",  G),
    ];
    for &(spelling, (m, n), kernels, variant) in table {
        let strategy = KernelStrategy::parse(spelling).unwrap();
        let registry = KernelRegistry::new();
        let plan = registry.plan::<f64>(m, n, strategy);
        let at = format!("{spelling} at ({m},{n})");
        assert_eq!(plan.kernels.name(), kernels, "{at}");
        // The lane form rides along exactly when the plan is batched.
        assert_eq!(plan.lanes.is_some(), kernels == "batched", "{at}");
        assert_eq!(gpu_variant(strategy, m, n), variant, "{at}");
        assert_eq!(registry.stats().generated, 0, "{at}");
    }

    // On every compiled shape `tape` plans the memoized batched kernels
    // in both precisions (one build, then one hit), and the simulated GPU
    // runs its unrolled variant.
    for &(m, n) in COMPILED_SHAPES {
        let registry = KernelRegistry::new();
        let f32_plan = registry.plan::<f32>(m, n, KernelStrategy::Tape);
        let f64_plan = registry.plan::<f64>(m, n, KernelStrategy::Tape);
        assert_eq!(f32_plan.kernels.name(), "batched", "({m},{n})");
        assert_eq!(f64_plan.kernels.name(), "batched", "({m},{n})");
        let (f32_lanes, f64_lanes) = (f32_plan.lanes.unwrap(), f64_plan.lanes.unwrap());
        assert!(Arc::ptr_eq(&f32_lanes, &f64_lanes), "({m},{n})");
        assert_eq!(gpu_variant(KernelStrategy::Tape, m, n), U, "({m},{n})");
        let stats = registry.stats();
        assert_eq!((stats.memo_misses, stats.memo_hits), (1, 1), "({m},{n})");
    }
}

/// `count` tensors of shape `(m, n)` with entries in [-1, 1], every fifth
/// one zero, and `count` vectors with negative and zero components.
fn mixed_sign_inputs<S: Scalar>(
    m: usize,
    n: usize,
    count: usize,
    seed: u64,
) -> (TensorBatch<S>, Vec<Vec<S>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batch = TensorBatch::<S>::random(m, n, count, &mut rng).unwrap();
    for v in batch.values_mut().iter_mut().step_by(5) {
        *v = S::ZERO;
    }
    let xs = (0..count)
        .map(|t| {
            (0..n)
                .map(|i| match (t + i) % 7 {
                    3 => S::ZERO,
                    _ => S::from_f64(rng.gen_range(-1.0..=1.0)),
                })
                .collect()
        })
        .collect();
    (batch, xs)
}

fn check_plans_match_general<S: Scalar>(seed: u64) {
    let bits = |v: S| v.to_f64().to_bits();
    for &(m, n) in COMPILED_SHAPES.iter().chain(&[(5, 4)]) {
        let (batch, xs) = mixed_sign_inputs::<S>(m, n, 64, seed + (10 * m + n) as u64);
        for strategy in KernelStrategy::ALL {
            let plan = KernelRegistry::global().plan::<S>(m, n, strategy);
            let at = format!("{strategy} ({}) {} ({m},{n})", plan.kernels.name(), S::NAME);
            let mut want_y = vec![S::ZERO; n];
            let mut got_y = vec![S::ZERO; n];
            for (t, (a, x)) in batch.iter().zip(&xs).enumerate() {
                let want = GeneralKernels.axm(a, x).unwrap();
                let got = plan.kernels.axm(a, x).unwrap();
                assert_eq!(bits(got), bits(want), "{at}: axm tensor {t}");
                GeneralKernels.axm1(a, x, &mut want_y).unwrap();
                plan.kernels.axm1(a, x, &mut got_y).unwrap();
                for (i, (g, w)) in got_y.iter().zip(&want_y).enumerate() {
                    assert_eq!(bits(*g), bits(*w), "{at}: axm1 tensor {t} component {i}");
                }
            }
        }
    }
}

/// Every strategy's plan returns `GeneralKernels`' bits for both
/// contractions on every compiled shape and on (5, 4), in f32 and f64.
#[test]
fn every_plan_matches_general_kernels_bitwise() {
    check_plans_match_general::<f32>(10);
    check_plans_match_general::<f64>(20);
}

fn check_wrong_lengths<S: Scalar>() {
    for (m, n) in [(4, 3), (5, 4)] {
        let mut rng = StdRng::seed_from_u64(30 + m as u64);
        let a = SymTensor::<S>::random(m, n, &mut rng);
        let x = vec![S::from_f64(0.5); n];
        let short = vec![S::from_f64(0.5); n - 1];
        let long = vec![S::from_f64(0.5); n + 1];
        let mismatch = |actual| {
            Some(Error::VectorLengthMismatch {
                expected: n,
                actual,
            })
        };
        for strategy in KernelStrategy::ALL {
            let plan = KernelRegistry::global().plan::<S>(m, n, strategy);
            let k = &plan.kernels;
            let at = format!("{strategy} ({}) {} ({m},{n})", k.name(), S::NAME);
            let mut y = vec![S::ZERO; n];
            let mut short_y = vec![S::ZERO; n - 1];
            #[rustfmt::skip]
            let cases = [
                ("axm short x",  k.axm(a.view(), &short).err(),             n - 1),
                ("axm long x",   k.axm(a.view(), &long).err(),              n + 1),
                ("axm1 short x", k.axm1(a.view(), &short, &mut y).err(),    n - 1),
                ("axm1 long x",  k.axm1(a.view(), &long, &mut y).err(),     n + 1),
                ("axm1 short y", k.axm1(a.view(), &x, &mut short_y).err(),  n - 1),
            ];
            for (case, err, actual) in cases {
                assert_eq!(err, mismatch(actual), "{at}: {case}");
            }
        }
    }
}

/// A wrong-length `x` or `y` through any strategy is a typed
/// `VectorLengthMismatch`, never a panic — compiled shapes included.
#[test]
fn wrong_length_vectors_are_typed_errors_on_every_strategy() {
    check_wrong_lengths::<f32>();
    check_wrong_lengths::<f64>();
}

fn solve<S: Scalar>(
    backend: &dyn SolveBackend<S>,
    tensors: &TensorBatch<S>,
    starts: &[Vec<S>],
    shift: Shift,
) -> BatchReport<S> {
    let solver = SsHopm::new(shift).with_policy(IterationPolicy::Converge {
        tol: 1e-9,
        max_iters: 300,
    });
    backend
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

fn check_one_family<S: Scalar>(seed: u64) {
    // Two compiled shapes, (4, 3) and (6, 3), and two on the table walk.
    for (m, n) in [(4, 3), (6, 3), (5, 4), (7, 3)] {
        let mut rng = StdRng::seed_from_u64(seed + (10 * m + n) as u64);
        // Ten tensors: more than the eight lockstep lanes, so two refill.
        let tensors = TensorBatch::<S>::random(m, n, 10, &mut rng).unwrap();
        let starts = sshopm::starts::random_uniform_starts::<S, _>(n, 4, &mut rng);
        let general = KernelStrategy::General;
        // A fixed and the convex shift (batched runs the lockstep lanes)
        // and the adaptive shift (batched runs its per-tensor kernels).
        for shift in [Shift::Fixed(2.0), Shift::Convex, Shift::Adaptive] {
            let want = solve(&CpuParallel::new(1, general), &tensors, &starts, shift);
            assert!(want.num_converged() > 0);
            for spelling in SPELLINGS {
                let strategy = KernelStrategy::parse(spelling).unwrap();
                let got = solve(&CpuParallel::new(1, strategy), &tensors, &starts, shift);
                let at = format!("cpu {spelling} {} ({m},{n}) {shift:?}", S::NAME);
                assert_bitwise(&got, &want, &at);
            }
        }
        // The simulated GPU runs fixed shifts only: its general and
        // unrolled variants return the CPU's bits.
        let shift = Shift::Fixed(2.0);
        let want = solve(&CpuParallel::new(1, general), &tensors, &starts, shift);
        for spelling in ["general", "tape"] {
            let strategy = KernelStrategy::parse(spelling).unwrap();
            let gpu = GpuSimBackend::new(DeviceSpec::tesla_c2050(), strategy);
            let got = solve(&gpu, &tensors, &starts, shift);
            let at = format!("gpusim {spelling} {} ({m},{n})", S::NAME);
            assert_eq!(got.kernel, gpu_variant(strategy, m, n).name(), "{at}");
            assert_bitwise(&got, &want, &at);
        }
    }
}

/// Every spelling returns general's eigenpairs to the bit, with the same
/// iteration counts, in both precisions and under both shift kinds — on
/// the CPU and, for the fixed shift, on the simulated GPU's general and
/// unrolled variants.
#[test]
fn class_order_spellings_are_bitwise_identical_to_general() {
    check_one_family::<f32>(1);
    check_one_family::<f64>(2);
}

fn check_tape_engine<S: Scalar>(seed: u64) {
    for &(m, n) in COMPILED_SHAPES {
        let mut rng = StdRng::seed_from_u64(seed + (10 * m + n) as u64);
        // Ten tensors: more than the eight lockstep lanes, so two refill.
        let tensors = TensorBatch::<S>::random(m, n, 10, &mut rng).unwrap();
        let starts = sshopm::starts::random_uniform_starts::<S, _>(n, 4, &mut rng);
        for (shift, lanes) in [
            (Shift::Fixed(2.0), true),
            (Shift::Convex, true),
            (Shift::Concave, true),
            (Shift::Adaptive, false),
        ] {
            let at = format!("tape {} ({m},{n}) {shift:?}", S::NAME);
            let general = KernelStrategy::General;
            let want = solve(&CpuParallel::new(1, general), &tensors, &starts, shift);
            let solver = SsHopm::new(shift).with_policy(IterationPolicy::Converge {
                tol: 1e-9,
                max_iters: 300,
            });
            let telemetry = Telemetry::enabled();
            let got = CpuParallel::new(1, KernelStrategy::Tape)
                .solve_batch(&tensors, &starts, &solver, &telemetry)
                .unwrap();
            assert_eq!(got.kernel, "batched", "{at}");
            let slots = telemetry.snapshot().counter("batch.lane_slots");
            assert_eq!(slots.is_some(), lanes, "{at}: lane slots {slots:?}");
            assert_bitwise(&got, &want, &at);
        }
    }
}

/// `tape` on a compiled shape is an engine choice, not only a label: the
/// tensor-constant shifts run in lockstep lanes (the driver counts its
/// lane slots), the adaptive shift runs per tensor, and every result is
/// general's to the bit, in both precisions.
#[test]
fn tape_runs_lanes_on_every_compiled_shape() {
    check_tape_engine::<f32>(3);
    check_tape_engine::<f64>(4);
}
