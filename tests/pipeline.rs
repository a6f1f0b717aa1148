//! End-to-end integration test: the full DW-MRI pipeline of the paper —
//! synthetic acquisition → tensor fit → batched SS-HOPM eigensolve →
//! fiber extraction → accuracy scoring.

use dwmri::metrics::DatasetScore;
use rand::SeedableRng;
use tensor_eig::prelude::*;

fn small_phantom(noise: f64, seed: u64) -> Phantom {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let noise = if noise == 0.0 {
        dwmri::NoiseModel::None
    } else {
        dwmri::NoiseModel::Multiplicative { amplitude: noise }
    };
    Phantom::generate(
        PhantomConfig {
            width: 8,
            height: 8,
            noise,
            ..Default::default()
        },
        &mut rng,
    )
}

#[test]
fn noiseless_phantom_is_fully_recovered() {
    let phantom = small_phantom(0.0, 1);
    let cfg = ExtractConfig {
        num_starts: 64,
        ..Default::default()
    };
    let scores: Vec<dwmri::VoxelScore> = phantom
        .voxels
        .iter()
        .map(|v| dwmri::score_voxel(&v.truth, &extract_fibers(&v.tensor, &cfg).unwrap(), 5.0))
        .collect();
    let agg = DatasetScore::aggregate(&scores);
    assert_eq!(
        agg.correct, agg.voxels,
        "every noiseless voxel should resolve: {agg:?}"
    );
    assert!(agg.mean_error_deg < 1.0, "{agg:?}");
}

#[test]
fn noisy_phantom_degrades_gracefully() {
    let phantom = small_phantom(0.05, 2);
    let cfg = ExtractConfig {
        num_starts: 64,
        ..Default::default()
    };
    let scores: Vec<dwmri::VoxelScore> = phantom
        .voxels
        .iter()
        .map(|v| dwmri::score_voxel(&v.truth, &extract_fibers(&v.tensor, &cfg).unwrap(), 15.0))
        .collect();
    let agg = DatasetScore::aggregate(&scores);
    assert!(
        agg.accuracy() > 0.7,
        "5% noise should still resolve most voxels: {agg:?}"
    );
}

#[test]
fn crossing_voxels_need_more_than_order_2() {
    // The paper's Section IV motivation: a 2nd-order fit cannot resolve
    // crossings, an order-4 fit can. Fit both orders to the same crossing
    // voxel and compare what extraction finds.
    use dwmri::adc::{adc, Diffusivities};
    use dwmri::fit::fit_tensor;
    use dwmri::sampling::gradient_directions;
    use dwmri::FiberConfig;

    let truth = FiberConfig::crossing([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]);
    let diff = Diffusivities::default();
    let dirs = gradient_directions(30);
    let vals: Vec<f64> = dirs.iter().map(|g| adc(&truth, &diff, g)).collect();

    let cfg = ExtractConfig::default();

    let t4 = fit_tensor(4, &dirs, &vals).unwrap();
    let fibers4 = extract_fibers(&t4, &cfg).unwrap();
    assert_eq!(fibers4.len(), 2, "order 4 resolves the crossing");

    // The order-2 fit collapses the crossing into an oblate profile whose
    // maxima form a degenerate ring; eigenvector dedup can leave several
    // near-identical points on the ring, so count axes separated by > 5
    // degrees instead of raw estimates.
    let t2 = fit_tensor(2, &dirs, &vals).unwrap();
    let fibers2 = extract_fibers(&t2, &cfg).unwrap();
    let mut distinct: Vec<[f64; 3]> = Vec::new();
    for f in &fibers2 {
        if distinct
            .iter()
            .all(|d| dwmri::angular_error_deg(d, &f.direction) > 5.0)
        {
            distinct.push(f.direction);
        }
    }
    assert!(
        distinct.len() < 2,
        "order 2 must NOT resolve the crossing, got {distinct:?}"
    );
}

#[test]
fn batch_cpu_and_gpu_sim_agree_on_phantom_tensors() {
    let phantom = small_phantom(0.01, 3);
    let tensors = phantom.tensor_batch_f32();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);
    let starts = sshopm::starts::random_uniform_starts::<f32, _>(3, 32, &mut rng);
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(25));
    let telemetry = Telemetry::disabled();

    let cpu = CpuParallel::new(0, KernelStrategy::Tape)
        .solve_batch(&tensors, &starts, &solver, &telemetry)
        .unwrap();
    let gpu = GpuSimBackend::new(DeviceSpec::tesla_c2050(), KernelStrategy::Tape)
        .solve_batch(&tensors, &starts, &solver, &telemetry)
        .unwrap();
    for t in 0..tensors.len() {
        for v in 0..starts.len() {
            assert_eq!(gpu.results[t][v].lambda, cpu.results[t][v].lambda);
        }
    }
    assert!(gpu.gflops() > 0.0);
    assert!(gpu.profiles[0].snapshot.blocks_per_sm >= 3);
}

#[test]
fn tractography_runs_straight_through_the_crossing_band() {
    // Full pipeline: phantom -> fit -> eigensolve -> fiber field ->
    // streamline. The primary tract must be trackable across the grid,
    // passing through the two-fiber crossing band without veering onto the
    // crossing tract — the clinical payoff of resolving crossings.
    use dwmri::tract::{trace, FiberField, TractConfig};

    let phantom = small_phantom(0.0, 7);
    let cfg = ExtractConfig {
        num_starts: 64,
        ..Default::default()
    };
    let fibers: Vec<Vec<dwmri::FiberEstimate>> = phantom
        .voxels
        .iter()
        .map(|v| extract_fibers(&v.tensor, &cfg).unwrap())
        .collect();
    let field = FiberField::new(8, 8, fibers).unwrap();

    // Seed in the single-fiber region left of center, heading along the
    // primary (mostly +x) tract; it must traverse most of the grid width,
    // crossing the central band (y in [3, 5)).
    let streamline = trace(&field, (1.5, 4.0), &TractConfig::default()).expect("seed has fibers");
    assert!(
        streamline.length() > 5.0,
        "tract should span the grid: length {}, stops {:?}/{:?}",
        streamline.length(),
        streamline.stop_forward,
        streamline.stop_backward
    );
    // The primary tract bends gently; it must not leap more than ~2 voxels
    // vertically while crossing 8 horizontally.
    let ys: Vec<f64> = streamline.points.iter().map(|p| p.1).collect();
    let spread =
        ys.iter().cloned().fold(f64::MIN, f64::max) - ys.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 3.0, "vertical spread {spread}");
}

#[test]
fn fixed_and_convergent_policies_find_the_same_maxima() {
    // Running a generous fixed iteration budget should land on the same
    // dominant eigenvalue as the convergence-tested solve.
    let phantom = small_phantom(0.0, 5);
    let tensor = &phantom.voxels[0].tensor;
    let x0 = vec![0.5, 0.5, std::f64::consts::FRAC_1_SQRT_2];
    let conv = SsHopm::new(Shift::Convex)
        .with_tolerance(1e-14)
        .solve(tensor, &x0);
    let fixed = SsHopm::new(Shift::Convex)
        .with_policy(IterationPolicy::Fixed(500))
        .solve(tensor, &x0);
    assert!((conv.lambda - fixed.lambda).abs() < 1e-10);
}
