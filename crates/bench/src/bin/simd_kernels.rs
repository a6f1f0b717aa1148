//! Multi-tensor kernel throughput: lane-vectorized batched kernels vs the
//! per-tensor blocked kernels, on millions of `(4, 3)` tensors.
//!
//! This is the regime the lockstep refactor targets (Section VI of the
//! paper: millions of independent small tensors of one shape). Both paths
//! evaluate `A·xᵐ` and `A·xᵐ⁻¹` for every tensor of one packed
//! [`TensorBatch`] arena, [`REPS`] times over — modeling the SS-HOPM
//! iteration loop, where the one panel gather (the SoA transpose) is
//! amortized over every subsequent kernel call exactly as in
//! `sshopm::solve_batch_lockstep`:
//!
//! * **blocked** — the scalar per-tensor kernels, one arena view at a
//!   time (the fastest pre-lane per-tensor path);
//! * **batched** — [`LanePanel::gather`] per [`LANE_WIDTH`] tensors
//!   (inside the timed region), then the lockstep panel kernels: at
//!   `(4, 3)`, the compiled straight-line panels of
//!   [`COMPILED_SHAPES`](symtensor::lanes::COMPILED_SHAPES).
//!
//! Correctness is pinned inside the bench itself: the batched path must
//! be *bitwise* identical to the scalar precomputed tables on a prefix of
//! the batch, and the two throughput paths must agree on an absolute-value
//! checksum (blocked reorders sums, so bitwise equality is not expected
//! there).
//!
//! Writes `BENCH_simd_kernels.json`; exits nonzero if the batched path is
//! not at least [`MIN_SPEEDUP`]× the blocked path on `axm1` throughput at
//! the 1M-tensor size. `ci` runs it, so the gate fails if the compiled
//! panels stop being used.
//!
//! Run with: `cargo run --release -p bench --bin simd_kernels [-- --full]`

use backend::KernelStrategy;
use bench::{bench_metadata, write_bench_json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::process::ExitCode;
use std::time::Instant;
use symtensor::{BatchedKernels, LanePanel, TensorBatch, TensorKernels, LANE_WIDTH};

const M: usize = 4;
const N: usize = 3;
const SEED: u64 = 2026;

/// Kernel calls per tensor per pass — the iteration loop the panel gather
/// is amortized over (a fixed-budget SS-HOPM solve makes ~20 such calls
/// per contraction per start; 8 keeps the bench short while staying in
/// the amortized regime).
const REPS: usize = 8;

/// Acceptance floor: batched `axm1` throughput over blocked at 1M tensors.
/// On a 2-vCPU Xeon VM the compiled panels measured 18–41× and the table
/// walk they replace 3.9–6.4×, so a silent fallback to the walk fails.
const MIN_SPEEDUP: f64 = 10.0;

/// Best-of-N trials per measurement to shed scheduler noise.
const TRIALS: usize = 3;

struct Measured {
    seconds: f64,
    /// Sum of |y| (or |A·xᵐ|) in `f64` — order-insensitive enough for a
    /// cross-path comparison, sensitive to any wrong value.
    checksum: f64,
}

impl Measured {
    /// Tensor-evaluations per second (each of the `REPS` passes evaluates
    /// every tensor once).
    fn throughput(&self, t: usize) -> f64 {
        (t * REPS) as f64 / self.seconds
    }
}

/// `A·xᵐ⁻¹` over the whole arena, one tensor at a time, `REPS` passes.
fn blocked_axm1(kernels: &dyn TensorKernels<f32>, batch: &TensorBatch<f32>, x: &[f32]) -> Measured {
    let mut y = vec![0.0f32; N];
    let mut checksum = 0.0f64;
    let started = Instant::now();
    for _ in 0..REPS {
        for a in batch.iter() {
            kernels.axm1(a, x, &mut y).expect("bench shapes match");
            for &v in &y {
                checksum += f64::from(v.abs());
            }
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    Measured { seconds, checksum }
}

/// `A·xᵐ` over the whole arena, one tensor at a time, `REPS` passes.
fn blocked_axm(kernels: &dyn TensorKernels<f32>, batch: &TensorBatch<f32>, x: &[f32]) -> Measured {
    let mut checksum = 0.0f64;
    let started = Instant::now();
    for _ in 0..REPS {
        for a in batch.iter() {
            let v = kernels.axm(a, x).expect("bench shapes match");
            checksum += f64::from(v.abs());
        }
    }
    let seconds = started.elapsed().as_secs_f64();
    Measured { seconds, checksum }
}

/// Broadcast one vector into the component-major lane layout.
fn broadcast_lanes(x: &[f32]) -> Vec<f32> {
    let mut xs = vec![0.0f32; x.len() * LANE_WIDTH];
    for (i, &v) in x.iter().enumerate() {
        for w in 0..LANE_WIDTH {
            xs[i * LANE_WIDTH + w] = v;
        }
    }
    xs
}

/// Lockstep `A·xᵐ⁻¹`: gather each panel once (timed — it is part of the
/// real pipeline), then run `REPS` panel kernels against it.
fn batched_axm1(kernels: &BatchedKernels, batch: &TensorBatch<f32>, x: &[f32]) -> Measured {
    let xs = broadcast_lanes(x);
    let mut ys = vec![0.0f32; N * LANE_WIDTH];
    let mut checksum = 0.0f64;
    let started = Instant::now();
    let mut start = 0usize;
    while start < batch.len() {
        let width = LANE_WIDTH.min(batch.len() - start);
        let panel =
            LanePanel::gather(kernels, batch.view(), start, width).expect("bench shapes match");
        for _ in 0..REPS {
            panel
                .axm1(kernels, &xs, &mut ys)
                .expect("lane buffers sized");
            for i in 0..N {
                for w in 0..width {
                    checksum += f64::from(ys[i * LANE_WIDTH + w].abs());
                }
            }
        }
        start += width;
    }
    let seconds = started.elapsed().as_secs_f64();
    Measured { seconds, checksum }
}

/// Lockstep `A·xᵐ`, same structure as [`batched_axm1`].
fn batched_axm(kernels: &BatchedKernels, batch: &TensorBatch<f32>, x: &[f32]) -> Measured {
    let xs = broadcast_lanes(x);
    let mut out = [0.0f32; LANE_WIDTH];
    let mut checksum = 0.0f64;
    let started = Instant::now();
    let mut start = 0usize;
    while start < batch.len() {
        let width = LANE_WIDTH.min(batch.len() - start);
        let panel =
            LanePanel::gather(kernels, batch.view(), start, width).expect("bench shapes match");
        for _ in 0..REPS {
            panel
                .axm(kernels, &xs, &mut out)
                .expect("lane buffers sized");
            for &v in out.iter().take(width) {
                checksum += f64::from(v.abs());
            }
        }
        start += width;
    }
    let seconds = started.elapsed().as_secs_f64();
    Measured { seconds, checksum }
}

fn best_of<F: FnMut() -> Measured>(mut f: F) -> Measured {
    let mut best = f();
    for _ in 1..TRIALS {
        let m = f();
        if m.seconds < best.seconds {
            best = m;
        }
    }
    best
}

/// Bitwise parity of the lane kernels against the scalar precomputed
/// tables on the first `prefix` tensors — the same guarantee the lockstep
/// solver's parity suite rests on, re-checked on this bench's workload.
fn check_bitwise_prefix(
    kernels: &BatchedKernels,
    batch: &TensorBatch<f32>,
    x: &[f32],
    prefix: usize,
) {
    let xs = broadcast_lanes(x);
    let mut ys = vec![0.0f32; N * LANE_WIDTH];
    let mut out = [0.0f32; LANE_WIDTH];
    let mut want_y = vec![0.0f32; N];
    let mut start = 0usize;
    while start < prefix.min(batch.len()) {
        let width = LANE_WIDTH.min(batch.len() - start);
        let panel =
            LanePanel::gather(kernels, batch.view(), start, width).expect("bench shapes match");
        panel
            .axm1(kernels, &xs, &mut ys)
            .expect("lane buffers sized");
        panel
            .axm(kernels, &xs, &mut out)
            .expect("lane buffers sized");
        for w in 0..width {
            let a = batch.view().try_get(start + w).expect("index in range");
            kernels
                .tables()
                .axm1(a, x, &mut want_y)
                .expect("shapes match");
            for i in 0..N {
                assert_eq!(
                    ys[i * LANE_WIDTH + w].to_bits(),
                    want_y[i].to_bits(),
                    "axm1 lane parity broke at tensor {} component {i}",
                    start + w
                );
            }
            let want = kernels.tables().axm(a, x).expect("shapes match");
            assert_eq!(
                out[w].to_bits(),
                want.to_bits(),
                "axm lane parity broke at tensor {}",
                start + w
            );
        }
        start += width;
    }
}

fn measured_value(m: &Measured, t: usize) -> Value {
    Value::object(vec![
        ("seconds", Value::Float(m.seconds)),
        ("tensor_evals_per_sec", Value::Float(m.throughput(t))),
        ("checksum", Value::Float(m.checksum)),
    ])
}

fn main() -> ExitCode {
    let full = std::env::args().any(|a| a == "--full");
    let sizes: &[usize] = if full {
        &[1_000_000, 10_000_000]
    } else {
        &[1_000_000]
    };

    println!(
        "SIMD kernel throughput: lane-vectorized batched vs per-tensor blocked\n\
         (m={M}, n={N}, f32, {REPS} kernel calls per tensor per pass, best of {TRIALS})\n"
    );
    println!(
        "{:>10} {:>6} {:>16} {:>16} {:>9}",
        "tensors", "op", "blocked Mt/s", "batched Mt/s", "speedup"
    );

    let mut size_values = Vec::new();
    let mut accept = true;
    for &t in sizes {
        let mut rng = StdRng::seed_from_u64(SEED);
        let batch = TensorBatch::<f32>::random(M, N, t, &mut rng).expect("paper shape is valid");
        let x: Vec<f32> = (0..N).map(|_| rng.gen_range(-1.0f32..=1.0)).collect();
        let plan = backend::KernelRegistry::global().plan::<f32>(M, N, KernelStrategy::Blocked);
        let blocked = plan.kernels;
        assert_eq!(blocked.name(), "blocked", "(4,3) is a blocked shape");
        let batched = BatchedKernels::new(M, N);

        check_bitwise_prefix(&batched, &batch, &x, 4096);

        // Warm up on a prefix (page in the arena, settle the clocks).
        let warm = batch.slice(0..t.min(65_536)).to_owned();
        let _ = blocked_axm1(&*blocked, &warm, &x);
        let _ = batched_axm1(&batched, &warm, &x);

        let b1 = best_of(|| blocked_axm1(&*blocked, &batch, &x));
        let l1 = best_of(|| batched_axm1(&batched, &batch, &x));
        let b0 = best_of(|| blocked_axm(&*blocked, &batch, &x));
        let l0 = best_of(|| batched_axm(&batched, &batch, &x));

        for (name, a, b) in [("axm1", &b1, &l1), ("axm", &b0, &l0)] {
            let scale = 1.0 + a.checksum.abs();
            assert!(
                (a.checksum - b.checksum).abs() < 1e-4 * scale,
                "{name} checksums diverged at {t} tensors: {} vs {}",
                a.checksum,
                b.checksum
            );
        }

        let speedup_axm1 = b1.seconds / l1.seconds;
        let speedup_axm = b0.seconds / l0.seconds;
        println!(
            "{:>10} {:>6} {:>16.2} {:>16.2} {:>8.2}x",
            t,
            "axm1",
            b1.throughput(t) / 1e6,
            l1.throughput(t) / 1e6,
            speedup_axm1
        );
        println!(
            "{:>10} {:>6} {:>16.2} {:>16.2} {:>8.2}x",
            t,
            "axm",
            b0.throughput(t) / 1e6,
            l0.throughput(t) / 1e6,
            speedup_axm
        );

        if t == 1_000_000 && speedup_axm1 < MIN_SPEEDUP {
            accept = false;
        }
        size_values.push(Value::object(vec![
            ("tensors", Value::UInt(t as u64)),
            ("blocked_axm1", measured_value(&b1, t)),
            ("batched_axm1", measured_value(&l1, t)),
            ("blocked_axm", measured_value(&b0, t)),
            ("batched_axm", measured_value(&l0, t)),
            ("speedup_axm1", Value::Float(speedup_axm1)),
            ("speedup_axm", Value::Float(speedup_axm)),
        ]));
    }

    write_bench_json(
        "simd_kernels",
        &Value::object(vec![
            ("meta", bench_metadata("simd_kernels")),
            (
                "config",
                Value::object(vec![
                    ("m", Value::UInt(M as u64)),
                    ("n", Value::UInt(N as u64)),
                    ("seed", Value::UInt(SEED)),
                    ("reps", Value::UInt(REPS as u64)),
                    ("trials", Value::UInt(TRIALS as u64)),
                    ("lane_width", Value::UInt(LANE_WIDTH as u64)),
                    ("min_speedup_axm1_1m", Value::Float(MIN_SPEEDUP)),
                ]),
            ),
            ("sizes", Value::Seq(size_values)),
        ]),
    );

    if accept {
        println!("\nACCEPT: batched >= {MIN_SPEEDUP}x blocked on axm1 throughput at 1M tensors");
        ExitCode::SUCCESS
    } else {
        eprintln!("\nFAIL: batched < {MIN_SPEEDUP}x blocked on axm1 throughput at 1M tensors");
        ExitCode::FAILURE
    }
}
