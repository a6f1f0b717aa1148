//! The paper's motivating application end to end: a synthetic DW-MRI
//! phantom → per-voxel tensor fits → batched SS-HOPM → fiber directions →
//! accuracy report.
//!
//! Generates the 32×32 (1024-voxel) phantom matching the structure of the
//! paper's Utah SCI test set (order-4, dimension-3 tensors; a mix of
//! single-fiber and two-fiber-crossing voxels), adds measurement noise,
//! recovers fiber directions with SS-HOPM, and scores them against ground
//! truth.
//!
//! Run with: `cargo run --release --example dwmri_fibers`

use dwmri::metrics::DatasetScore;
use rand::SeedableRng;
use tensor_eig::prelude::*;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2026);
    let config = PhantomConfig {
        // The physically-faithful noise model: Rician magnitude noise at
        // SNR0 = 100 and clinical-scale b-value.
        noise: dwmri::NoiseModel::Rician {
            sigma: 0.01,
            b: 1.5,
        },
        ..Default::default()
    };
    println!(
        "Generating {}x{} phantom (order-{} tensors, {} gradient directions, noise {})...",
        config.width,
        config.height,
        config.order,
        config.num_gradients,
        format_args!("{:?}", config.noise)
    );
    let phantom = Phantom::generate(config, &mut rng);
    println!(
        "  {} voxels: {} single-fiber, {} crossing\n",
        phantom.len(),
        phantom.count_with_fibers(1),
        phantom.count_with_fibers(2)
    );

    // Extract fibers from every voxel (parallel over voxels, like the
    // paper's batched GPU mapping) and score against ground truth.
    let extract_cfg = ExtractConfig {
        num_starts: 128, // the paper's choice
        ..Default::default()
    };
    use rayon::prelude::*;
    let scores: Vec<dwmri::VoxelScore> = phantom
        .voxels
        .par_iter()
        .map(|v| {
            let fibers =
                extract_fibers(&v.tensor, &extract_cfg).expect("phantom tensors are 3-dimensional");
            dwmri::score_voxel(&v.truth, &fibers, 10.0)
        })
        .collect();

    let agg = DatasetScore::aggregate(&scores);
    println!("Results over {} voxels:", agg.voxels);
    println!(
        "  fully-correct voxels : {} ({:.1}%)",
        agg.correct,
        100.0 * agg.accuracy()
    );
    println!("  mean angular error   : {:.2} deg", agg.mean_error_deg);
    println!("  missed fibers        : {}", agg.missed);
    println!("  spurious detections  : {}", agg.spurious);

    // Break down by voxel type.
    for k in [1usize, 2] {
        let subset: Vec<dwmri::VoxelScore> = phantom
            .voxels
            .iter()
            .zip(&scores)
            .filter(|(v, _)| v.truth.num_fibers() == k)
            .map(|(_, s)| s.clone())
            .collect();
        let sub = DatasetScore::aggregate(&subset);
        println!(
            "  {k}-fiber voxels      : {:>4} voxels, {:.1}% correct, {:.2} deg mean error",
            sub.voxels,
            100.0 * sub.accuracy(),
            sub.mean_error_deg
        );
    }

    assert!(
        agg.accuracy() > 0.9,
        "fiber recovery should succeed on a low-noise phantom"
    );

    // Downstream payoff: streamline tractography over the recovered field.
    use dwmri::tract::{trace, FiberField, TractConfig};
    let fibers: Vec<Vec<dwmri::FiberEstimate>> = phantom
        .voxels
        .par_iter()
        .map(|v| {
            extract_fibers(&v.tensor, &extract_cfg).expect("phantom tensors are 3-dimensional")
        })
        .collect();
    let field = FiberField::new(32, 32, fibers).expect("one fiber list per voxel");
    // Seeds in the single-fiber region: tracking follows the primary tract
    // and passes straight *through* the crossing band by heading
    // continuity. (A seed inside the band would start along the band's
    // strongest axis — possibly the short crossing tract, which correctly
    // stops at the band edge.)
    let mut lengths = Vec::new();
    for seed_y in [4.0, 10.0, 28.0] {
        if let Some(s) = trace(&field, (2.0, seed_y), &TractConfig::default()) {
            lengths.push((seed_y, s.length(), s.stop_forward));
        }
    }
    println!("\nTractography (seeds at x=2):");
    for (y, len, stop) in &lengths {
        println!("  seed y={y:>4}: streamline length {len:.1} voxels (stopped: {stop:?})");
    }
    assert!(
        lengths.iter().all(|(_, len, _)| *len > 20.0),
        "primary tracts should span most of the 32-voxel grid"
    );

    println!("\nOK: fiber directions recovered from the tensor eigenproblem.");
}
