//! Cross-crate consistency: every kernel implementation (general loops,
//! blocked code, lane-vectorized tables, generated unrolled code, GPU
//! functional simulation) must produce the same SS-HOPM trajectories, and
//! the flop-accounting formulas must agree with the simulator's counters.

use rand::SeedableRng;
use tensor_eig::prelude::*;

fn random_workload(t: usize, v: usize, seed: u64) -> (TensorBatch<f32>, Vec<Vec<f32>>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let tensors = TensorBatch::<f32>::random(4, 3, t, &mut rng).unwrap();
    let starts = sshopm::starts::random_uniform_starts(3, v, &mut rng);
    (tensors, starts)
}

#[test]
fn all_kernel_implementations_agree_bitwise_on_f32() {
    let (tensors, starts) = random_workload(6, 8, 10);
    // A convergent (convex) shift: with alpha = 0 the unshifted iteration
    // need not converge, and reordering f32 sums can then land on
    // different fixed points entirely.
    let solver = SsHopm::new(Shift::Fixed(8.0)).with_policy(IterationPolicy::Fixed(30));
    let telemetry = Telemetry::disabled();

    // One sequential CPU backend per kernel strategy — the same solve
    // through every contraction implementation. At (4, 3) `tape` plans the
    // batched kernels, so it runs the lanes like `batched` does.
    let run = |strategy: KernelStrategy| {
        CpuParallel::new(1, strategy)
            .solve_batch(&tensors, &starts, &solver, &telemetry)
            .unwrap()
    };
    let r_general = run(KernelStrategy::General);
    let r_blocked = run(KernelStrategy::Blocked);
    let r_batched = run(KernelStrategy::Batched);
    let r_tape = run(KernelStrategy::Tape);
    assert_eq!(r_general.kernel, "general");
    assert_eq!(r_blocked.kernel, "blocked");
    assert_eq!(r_batched.kernel, "batched");
    assert_eq!(r_tape.kernel, "batched");

    // The scalar compiled and blocked kernels, whole solves through the
    // per-tensor driver, run directly so the check holds whatever the
    // registry plans for a spelling (no plan returns the compiled scalar
    // kernels any more).
    let per_tensor = |kernels: &dyn TensorKernels<f32>| {
        BatchSolver::new(&solver)
            .with_threads(1)
            .run(kernels, &tensors, &starts, &telemetry)
            .results
    };
    let unrolled = UnrolledKernels::for_shape(4, 3).expect("(4, 3) is compiled");
    let blocked = BlockedKernels::for_shape(4, 3).expect("order 4 is blocked");
    let r_unrolled = per_tensor(&unrolled);
    let r_blocked_direct = per_tensor(&blocked);

    for t in 0..tensors.len() {
        for v in 0..starts.len() {
            let a = &r_general.results[t][v];
            // Every kernel walks the index classes in general's order
            // with the same exact coefficients: bitwise equality.
            for (name, b) in [
                ("blocked", &r_blocked.results[t][v]),
                ("batched", &r_batched.results[t][v]),
                ("tape", &r_tape.results[t][v]),
                ("unrolled (direct)", &r_unrolled[t][v]),
                ("blocked (direct)", &r_blocked_direct[t][v]),
            ] {
                assert_eq!(
                    a.lambda.to_bits(),
                    b.lambda.to_bits(),
                    "{name} diverged at ({t},{v})"
                );
                assert_eq!(a.iterations, b.iterations, "{name} at ({t},{v})");
                for (g, w) in a.x.iter().zip(&b.x) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{name} x at ({t},{v})");
                }
            }
        }
    }
}

#[test]
fn gpu_simulator_flop_counters_match_analytic_formulas() {
    let (tensors, starts) = random_workload(4, 32, 11);
    let iters = 10usize;
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(iters));
    let report = GpuSimBackend::new(DeviceSpec::tesla_c2050(), KernelStrategy::Tape)
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    // Per iteration per thread: the kernel executes the A x^{m-1} and
    // A x^m contractions plus shift/normalization. The counter totals must
    // scale exactly with tensors * starts * iterations.
    let threads = tensors.len() * starts.len();
    let per_thread = report.useful_flops / (threads as u64);
    let per_iter = per_thread / iters as u64;
    // Match against symtensor::flops within the small constant difference
    // of our normalization accounting (the formulas count sub-steps
    // slightly differently; they must agree to within ~20%).
    let formula = symtensor::flops::sshopm_iter_flops(4, 3);
    let lo = formula * 8 / 10;
    let hi = formula * 12 / 10;
    assert!(
        (lo..=hi).contains(&per_iter),
        "per-iteration flops {per_iter} vs formula {formula}"
    );
}

#[test]
fn dense_baseline_validates_all_generated_shapes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(12);
    for &(m, n) in symtensor::lanes::COMPILED_SHAPES {
        let a = SymTensor::<f64>::random(m, n, &mut rng);
        let dense = DenseTensor::from_sym(&a);
        let x: Vec<f64> = (0..n).map(|i| 0.3 + 0.1 * i as f64).collect();
        let k = UnrolledKernels::for_shape(m, n).unwrap();
        let want = dense.axm_dense(&x).unwrap();
        let got = TensorKernels::axm(&k, a.view(), &x).unwrap();
        assert!(
            (got - want).abs() < 1e-9 * (1.0 + want.abs()),
            "shape ({m},{n})"
        );
    }
}

#[test]
fn eigenpair_classification_consistent_with_shift_direction() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let mut checked = 0;
    for _ in 0..6 {
        let a = SymTensor::<f64>::random(4, 3, &mut rng);
        let x0 = vec![0.267, -0.534, 0.802];
        for (shift, want) in [
            (Shift::Convex, Stability::NegativeStable),
            (Shift::Concave, Stability::PositiveStable),
        ] {
            let pair = SsHopm::new(shift).with_tolerance(1e-14).solve(&a, &x0);
            // An eigenvalue tolerance of 1e-14 leaves eigenvector residuals
            // around 1e-7 (the residual converges at half the rate).
            if !pair.converged || pair.residual(&a) > 1e-5 {
                continue;
            }
            let s = sshopm::classify(&a, pair.lambda, &pair.x, 1e-5);
            if s != Stability::Degenerate {
                assert_eq!(s, want, "shift {shift:?}");
                checked += 1;
            }
        }
    }
    assert!(checked >= 6, "too few classified solves ({checked})");
}

#[test]
fn relative_to_peak_performance_is_similar_across_devices() {
    // Section V-E: "We obtained similar performance (relative to peak) for
    // tensors of order 4 and dimension 3 on two other NVIDIA GPUs."
    let (tensors, starts) = random_workload(256, 128, 99);
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(20));
    let mut fractions = Vec::new();
    for device in [
        DeviceSpec::tesla_c1060(),
        DeviceSpec::tesla_c2050(),
        DeviceSpec::gtx_580(),
    ] {
        let report = GpuSimBackend::new(device.clone(), KernelStrategy::Tape)
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap();
        fractions.push(report.gflops() / device.peak_sp_gflops());
    }
    let max = fractions.iter().cloned().fold(f64::MIN, f64::max);
    let min = fractions.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min < 1.3,
        "peak fractions should be similar across devices: {fractions:?}"
    );
    assert!((0.1..0.6).contains(&min), "{fractions:?}");
}

#[test]
fn occupancy_model_reflects_resource_growth_across_shapes() {
    // Larger tensors -> larger footprints -> fewer resident blocks, as in
    // the paper's Section V-E.
    let device = DeviceSpec::tesla_c2050();
    let mut last_fraction = f64::INFINITY;
    for (m, n) in [(4usize, 3usize), (4, 5), (6, 3)] {
        let res = gpusim::KernelResources::sshopm(m, n, 128, 4, false);
        let occ = gpusim::Occupancy::compute(&device, &res);
        assert!(occ.fraction <= last_fraction + 1e-12, "({m},{n})");
        last_fraction = occ.fraction;
    }
}
