//! Transfer/compute overlap ablation for the stream scheduler:
//! double-buffered execution (two streams per device) vs synchronous
//! execution (one stream) of the *same* chunked schedule.
//!
//! Both paths enqueue identical upload → kernel → download triples per
//! 256-tensor chunk and execute identical arithmetic — the results are
//! bitwise equal by construction (see `backend/tests/pipeline_parity.rs`).
//! The only difference is stream count: with one stream every op
//! serializes; with two, chunk *k+1*'s upload runs on the copy engine
//! while chunk *k*'s kernel occupies the SMs, exactly the C2050's
//! one-DMA-engine/one-SM-array concurrency. The modeled makespan gap is
//! therefore the pure overlap win, with per-chunk launch overhead charged
//! identically on both sides.
//!
//! The double-buffered 10k-tensor run also exports its event timeline as
//! a chrome://tracing file (`pipeline_trace.json`, load via
//! `chrome://tracing` or <https://ui.perfetto.dev>) so the overlap is
//! visible, not just summed.
//!
//! Run with: `cargo run --release -p bench --bin pipeline_overlap`

use backend::{BackendSpec, KernelStrategy, SolveBackend};
use bench::{bench_metadata, write_bench_json};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use sshopm::{starts, IterationPolicy, Shift, SsHopm};
use symtensor::TensorBatch;
use telemetry::Telemetry;

const M: usize = 4;
const N: usize = 3;
const STARTS: usize = 4;
const ITERS: usize = 3;
const CHUNK: usize = 256;

struct Run {
    /// Modeled wall-clock of the whole batch (timeline makespan).
    makespan_s: f64,
    /// Sum of every op's duration — what full serialization would cost.
    serial_s: f64,
    /// Seconds the copy engine ran hidden behind the compute engine.
    overlap_s: f64,
    ops: usize,
    trace_json: String,
}

fn run(batch: &TensorBatch<f32>, start_vecs: &[Vec<f32>], streams: usize) -> Run {
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(ITERS));
    let backend = BackendSpec::parse("pipelined")
        .and_then(|spec| spec.build_gpusim(KernelStrategy::General))
        .expect("one device is valid")
        .with_streams(streams)
        .expect("streams")
        .with_chunk_tensors(CHUNK)
        .expect("chunk");
    let telemetry = Telemetry::enabled();
    let report = backend
        .solve_batch(batch, start_vecs, &solver, &telemetry)
        .expect("bench workload is well-formed");
    let timeline = report
        .timeline
        .expect("pipelined backend reports a timeline");
    Run {
        makespan_s: timeline.makespan(),
        serial_s: timeline.serial_seconds(),
        overlap_s: timeline.overlap_seconds(),
        ops: timeline.ops.len(),
        trace_json: telemetry.chrome_trace_json(),
    }
}

fn run_value(r: &Run, t: usize) -> Value {
    Value::object(vec![
        ("makespan_ms", Value::Float(r.makespan_s * 1e3)),
        ("serial_ms", Value::Float(r.serial_s * 1e3)),
        ("overlap_saved_ms", Value::Float(r.overlap_s * 1e3)),
        ("ops", Value::UInt(r.ops as u64)),
        (
            "tensors_per_sec_modeled",
            Value::Float(t as f64 / r.makespan_s),
        ),
    ])
}

fn main() {
    println!(
        "Stream overlap ablation: double-buffered (2 streams) vs synchronous (1 stream)\n\
         (m={M}, n={N}, {STARTS} starts, {ITERS} fixed iterations, f32, \
         Tesla C2050, {CHUNK}-tensor chunks, PCIe 2.0)\n"
    );
    println!(
        "{:>9} {:>8} {:>11} {:>11} {:>9} {:>12}",
        "tensors", "chunks", "sync (ms)", "piped (ms)", "speedup", "saved (ms)"
    );

    let mut sizes = Vec::new();
    let mut trace_10k: Option<String> = None;
    for &t in &[1_000usize, 10_000, 100_000] {
        let mut rng = StdRng::seed_from_u64(2026);
        let batch = TensorBatch::<f32>::random(M, N, t, &mut rng).expect("paper shape is valid");
        let start_vecs = starts::random_uniform_starts::<f32, _>(N, STARTS, &mut rng);

        // The model is deterministic, so one run per configuration is the
        // measurement — no best-of-N needed.
        let sync = run(&batch, &start_vecs, 1);
        let piped = run(&batch, &start_vecs, 2);
        if t == 10_000 {
            trace_10k = Some(piped.trace_json.clone());
        }

        let speedup = sync.makespan_s / piped.makespan_s;
        println!(
            "{:>9} {:>8} {:>11.3} {:>11.3} {:>8.3}x {:>12.3}",
            t,
            t.div_ceil(CHUNK),
            sync.makespan_s * 1e3,
            piped.makespan_s * 1e3,
            speedup,
            piped.overlap_s * 1e3,
        );
        sizes.push(Value::object(vec![
            ("tensors", Value::UInt(t as u64)),
            ("chunks", Value::UInt(t.div_ceil(CHUNK) as u64)),
            ("synchronous", run_value(&sync, t)),
            ("double_buffered", run_value(&piped, t)),
            ("speedup", Value::Float(speedup)),
        ]));
    }

    write_bench_json(
        "pipeline",
        &Value::object(vec![
            ("meta", bench_metadata("pipeline_overlap")),
            (
                "config",
                Value::object(vec![
                    ("m", Value::UInt(M as u64)),
                    ("n", Value::UInt(N as u64)),
                    ("starts", Value::UInt(STARTS as u64)),
                    ("iters", Value::UInt(ITERS as u64)),
                    ("chunk_tensors", Value::UInt(CHUNK as u64)),
                    ("device", Value::Str("tesla-c2050".into())),
                    ("link", Value::Str("pcie2".into())),
                    ("kernel", Value::Str("general".into())),
                ]),
            ),
            ("sizes", Value::Seq(sizes)),
        ]),
    );

    if let Some(trace) = trace_10k {
        let path = "pipeline_trace.json";
        if let Err(err) = std::fs::write(path, trace) {
            eprintln!("warning: could not write {path}: {err}");
        } else {
            println!("\nwrote {path} (10k-tensor double-buffered run; open in chrome://tracing)");
        }
    }

    println!(
        "\nreading: with one stream the copy and compute engines take turns,\n\
         so the makespan equals the serial sum; with two streams the next\n\
         chunk's upload hides behind the current kernel and only the first\n\
         upload and last download stay exposed. The saving converges to the\n\
         total transfer time as the batch grows."
    );
}
