//! Memory-layout ablation for the batch pipeline: one `Vec<SymTensor>`
//! per voxel (the pre-arena layout) vs a single contiguous
//! [`TensorBatch`] arena.
//!
//! Both paths start from the same raw packed coefficients (what a tensor
//! file or voxel fit produces) and run the identical unrolled kernels,
//! so the only difference is *where the bytes live*:
//!
//! * **vec layout** — one heap allocation per tensor (`SymTensor` each
//!   owns a 15-entry `Vec`), then a sequential per-tensor solve loop —
//!   exactly what `read_tensors` + the old per-tensor dispatch did;
//! * **packed layout** — one arena allocation for all tensors, then
//!   a one-thread [`CpuParallel::solve_batch`] over borrowed views.
//!
//! The solver runs short fixed-iteration solves (one start, few
//! iterations) so the memory system — staging, allocator traffic,
//! traversal locality — is the bottleneck rather than the FLOPs. That is
//! the regime the arena refactor targets: Section V of the paper makes
//! the same point about staging 1024 tensors as one coalesced transfer.
//!
//! A counting global allocator reports how many heap allocations each
//! phase performs and the peak live footprint, making the "dominant
//! per-voxel allocation" visible next to the throughput numbers.
//!
//! Run with: `cargo run --release -p bench --bin batch_layout`

use backend::{CpuParallel, KernelStrategy, SolveBackend};
use bench::{bench_metadata, write_bench_json};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use sshopm::{IterationPolicy, Shift, SsHopm};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use symtensor::{SymTensor, TensorBatch};
use telemetry::Telemetry;

/// `System` with allocation counting: total calls plus peak live bytes.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        let live = LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        if new_size >= layout.size() {
            let grow = new_size - layout.size();
            let live = LIVE_BYTES.fetch_add(grow, Ordering::Relaxed) + grow;
            PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
        } else {
            LIVE_BYTES.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocator counters sampled around a phase.
struct AllocSnapshot {
    calls: u64,
    peak: usize,
}

fn alloc_begin() -> u64 {
    // Reset the peak to the current live footprint so the phase measures
    // its own high-water mark, not the process's.
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
    ALLOC_CALLS.load(Ordering::Relaxed)
}

fn alloc_end(calls_before: u64) -> AllocSnapshot {
    AllocSnapshot {
        calls: ALLOC_CALLS.load(Ordering::Relaxed) - calls_before,
        peak: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

const M: usize = 4;
const N: usize = 3;
/// One start and a short fixed iteration budget: layout-bound, not
/// flop-bound (see module docs).
const ITERS: usize = 2;

struct Measured {
    seconds: f64,
    allocs: u64,
    peak_bytes: usize,
    total_iterations: u64,
}

impl Measured {
    fn tensors_per_sec(&self, t: usize) -> f64 {
        t as f64 / self.seconds
    }
}

/// The pre-arena pipeline: materialize one `SymTensor` per voxel from the
/// raw coefficients (what `read_tensors` produced), clone them into the
/// batch handed to the solver (the old drivers assembled per-shape solve
/// groups by cloning — `idxs.iter().map(|&i| tensors[i].clone())`), then
/// solve tensor-by-tensor. Same kernels, same arithmetic; scattered
/// storage and per-voxel allocator traffic.
fn run_vec_layout(raw: &[f32], t: usize, solver: &SsHopm, start: &[f32]) -> Measured {
    let plan = backend::KernelRegistry::global().plan::<f32>(M, N, KernelStrategy::Unrolled);
    let kernels = plan.kernels;
    let stride = raw.len() / t;
    let before = alloc_begin();
    let started = Instant::now();
    let tensors: Vec<SymTensor<f32>> = raw
        .chunks(stride)
        .map(|c| SymTensor::from_values(M, N, c.to_vec()).expect("paper shape is valid"))
        .collect();
    let group: Vec<SymTensor<f32>> = tensors.to_vec();
    let mut total_iterations = 0u64;
    let mut sink = 0.0f32;
    for a in &group {
        let pair = solver.solve_with(&*kernels, a, start);
        total_iterations += pair.iterations as u64;
        sink += pair.lambda;
    }
    let seconds = started.elapsed().as_secs_f64();
    let snap = alloc_end(before);
    std::hint::black_box(sink);
    Measured {
        seconds,
        allocs: snap.calls,
        peak_bytes: snap.peak,
        total_iterations,
    }
}

/// The arena pipeline: one contiguous buffer for all voxels, solved
/// through a one-thread [`CpuParallel`] over borrowed views.
fn run_packed_layout(raw: &[f32], _t: usize, solver: &SsHopm, start: &[f32]) -> Measured {
    let backend = CpuParallel::new(1, KernelStrategy::Unrolled);
    let starts = vec![start.to_vec()];
    let before = alloc_begin();
    let started = Instant::now();
    let batch =
        TensorBatch::from_values(M, N, raw.to_vec()).expect("raw buffer is shape-consistent");
    let report = backend
        .solve_batch(&batch, &starts, solver, &Telemetry::disabled())
        .expect("layout bench workload is well-formed");
    let seconds = started.elapsed().as_secs_f64();
    let snap = alloc_end(before);
    std::hint::black_box(report.results.len());
    Measured {
        seconds,
        allocs: snap.calls,
        peak_bytes: snap.peak,
        total_iterations: report.total_iterations,
    }
}

fn layout_value(m: &Measured, t: usize) -> Value {
    Value::object(vec![
        ("seconds", Value::Float(m.seconds)),
        ("tensors_per_sec", Value::Float(m.tensors_per_sec(t))),
        ("allocations", Value::UInt(m.allocs)),
        ("peak_live_bytes", Value::UInt(m.peak_bytes as u64)),
        ("total_iterations", Value::UInt(m.total_iterations)),
    ])
}

fn main() {
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(ITERS));
    let start = vec![0.48f32, -0.62, 0.62];

    println!(
        "Batch memory-layout ablation: Vec<SymTensor> vs TensorBatch arena\n\
         (m={M}, n={N}, 1 start, {ITERS} fixed iterations, unrolled kernels, f32)\n"
    );
    println!(
        "{:>9} {:>14} {:>14} {:>9} {:>13} {:>13}",
        "tensors", "vec (ms)", "packed (ms)", "speedup", "vec allocs", "packed allocs"
    );

    let mut sizes = Vec::new();
    for &t in &[10_000usize, 100_000] {
        let mut rng = StdRng::seed_from_u64(2026);
        let master = TensorBatch::<f32>::random(M, N, t, &mut rng).expect("paper shape is valid");
        let raw = master.values().to_vec();
        drop(master);

        // Warm up both paths once (page in the raw buffer, JIT the
        // allocator arenas), then measure; best-of-3 to shed scheduler
        // noise.
        let _ = run_vec_layout(&raw, t, &solver, &start);
        let _ = run_packed_layout(&raw, t, &solver, &start);
        let mut vec_best: Option<Measured> = None;
        let mut packed_best: Option<Measured> = None;
        for _ in 0..3 {
            let v = run_vec_layout(&raw, t, &solver, &start);
            if vec_best.as_ref().is_none_or(|b| v.seconds < b.seconds) {
                vec_best = Some(v);
            }
            let p = run_packed_layout(&raw, t, &solver, &start);
            if packed_best.as_ref().is_none_or(|b| p.seconds < b.seconds) {
                packed_best = Some(p);
            }
        }
        let vec_m = vec_best.expect("three trials ran");
        let packed_m = packed_best.expect("three trials ran");
        assert_eq!(
            vec_m.total_iterations, packed_m.total_iterations,
            "both layouts must do identical arithmetic"
        );
        let speedup = vec_m.seconds / packed_m.seconds;
        println!(
            "{:>9} {:>14.2} {:>14.2} {:>8.2}x {:>13} {:>13}",
            t,
            vec_m.seconds * 1e3,
            packed_m.seconds * 1e3,
            speedup,
            vec_m.allocs,
            packed_m.allocs
        );
        sizes.push(Value::object(vec![
            ("tensors", Value::UInt(t as u64)),
            ("vec_layout", layout_value(&vec_m, t)),
            ("packed_layout", layout_value(&packed_m, t)),
            ("packed_speedup", Value::Float(speedup)),
        ]));
    }

    write_bench_json(
        "batch_layout",
        &Value::object(vec![
            ("meta", bench_metadata("batch_layout")),
            (
                "config",
                Value::object(vec![
                    ("m", Value::UInt(M as u64)),
                    ("n", Value::UInt(N as u64)),
                    ("starts", Value::UInt(1)),
                    ("iters", Value::UInt(ITERS as u64)),
                    ("kernel", Value::Str("unrolled".into())),
                    ("backend", Value::Str("cpu (sequential)".into())),
                ]),
            ),
            ("sizes", Value::Seq(sizes)),
        ]),
    );

    println!(
        "\nreading: the packed arena removes the per-voxel allocation (one\n\
         arena malloc vs one per tensor) and streams the solve through\n\
         contiguous memory; the vec layout pays allocator traffic and\n\
         pointer-chased loads per voxel."
    );
}
