//! Reproduce **Figure 5** of the paper: GFLOP/s versus the number of
//! tensors (subsets of the 1024-tensor set) for the four unrolled
//! implementations — CPU with 1/4/8 threads and the (simulated) GPU. The
//! CPU series time the scalar compiled code one tensor at a time
//! ([`bench::run_cpu_unrolled`]), the paper's CPU implementation. A
//! thread count above the host's available parallelism is skipped (with a
//! note), since it would time-slice rather than scale.
//! The paper plots this with a log-scale y axis; we print the series and a
//! crude log-scale ASCII chart.
//!
//! Expected shape (paper): CPU curves are flat in T; the GPU curve ramps
//! while the device fills (T below ~50 blocks underutilizes the SMs,
//! Section V-B) and then saturates far above the CPU curves.
//!
//! Run with: `cargo run --release -p bench --bin figure5`

use backend::KernelStrategy;
use bench::{
    batch_flops, bench_metadata, cpu_label, gpu_row, run_cpu_unrolled, runnable_threads,
    write_bench_json, Workload,
};
use serde::Value;

fn main() {
    let sizes = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];
    let workload = Workload::paper_workload(2026);

    println!(
        "Figure 5 reproduction: GFLOP/s vs number of tensors (unrolled kernels, V=128, {} iters)",
        bench::BENCH_ITERS
    );
    let (threads, skipped) = runnable_threads();
    if !skipped.is_empty() {
        let physical = std::thread::available_parallelism().map_or(1, |c| c.get());
        let names: Vec<String> = skipped.iter().map(|&t| cpu_label(t)).collect();
        println!(
            "skipped rows {}: this host runs {physical} thread(s) at once, so more threads \
             would time-slice, not scale",
            names.join(", ")
        );
    }
    println!();
    print!("{:>6}", "T");
    for &t in &threads {
        print!(" {:>12}", format!("CPU-{t}"));
    }
    println!(" {:>12}", "GPU(model)");

    let mut gpu_series = Vec::new();
    let mut cpu1_series = Vec::new();
    let mut json_points = Vec::new();
    for &t in &sizes {
        let sub = workload.subset(t);
        let row: Vec<f64> = threads
            .iter()
            .map(|&k| {
                let (secs, iters) = run_cpu_unrolled(&sub, k, bench::bench_policy(), 0.0);
                batch_flops(4, 3, iters) as f64 / secs / 1e9
            })
            .collect();
        let (gpu, report) = gpu_row(&sub, KernelStrategy::Tape);
        let snap = &report.profiles[0].snapshot;
        let g = gpu.gflops();
        print!("{t:>6}");
        for gflops in &row {
            print!(" {gflops:>12.2}");
        }
        println!(" {g:>12.2}");
        let cpu_keys: Vec<String> = threads.iter().map(|k| format!("cpu_{k}_gflops")).collect();
        let mut point = vec![("num_tensors", Value::UInt(t as u64))];
        for (key, &gflops) in cpu_keys.iter().zip(&row) {
            point.push((key.as_str(), Value::Float(gflops)));
        }
        point.extend([
            ("gpu_gflops", Value::Float(g)),
            ("gpu_seconds", Value::Float(report.seconds)),
            ("gpu_compute_seconds", Value::Float(snap.compute_seconds)),
            ("gpu_memory_seconds", Value::Float(snap.memory_seconds)),
            ("gpu_useful_flops", Value::UInt(report.useful_flops)),
            ("gpu_active_sms", Value::UInt(snap.active_sms as u64)),
        ]);
        json_points.push(Value::object(point));
        // One thread always runs: `runnable_threads` keeps it first.
        cpu1_series.push(row[0]);
        gpu_series.push(g);
    }
    write_bench_json(
        "figure5",
        &Value::object(vec![
            ("meta", bench_metadata("figure5")),
            ("points", Value::Seq(json_points)),
            (
                "skipped_cpu_threads",
                Value::Seq(skipped.iter().map(|&t| Value::UInt(t as u64)).collect()),
            ),
        ]),
    );

    // Crude log-scale chart of CPU-1 vs GPU.
    println!("\nlog-scale sketch ('c' = CPU-1, 'G' = GPU model):");
    let max = gpu_series.iter().cloned().fold(f64::MIN, f64::max);
    let min = cpu1_series
        .iter()
        .cloned()
        .fold(f64::MAX, f64::min)
        .max(1e-3);
    let cols = 60.0;
    for (i, &t) in sizes.iter().enumerate() {
        let pos = |v: f64| -> usize {
            (((v.max(min).ln() - min.ln()) / (max.ln() - min.ln())) * cols) as usize
        };
        let mut line = vec![b' '; cols as usize + 2];
        line[pos(cpu1_series[i])] = b'c';
        line[pos(gpu_series[i])] = b'G';
        println!("{:>6} |{}", t, String::from_utf8(line).unwrap());
    }
    println!(
        "\nshape check: GPU ramps until the device fills (~50+ blocks) then saturates;\n\
         CPU curves are flat in T. Paper's Figure 5 shows the same morphology."
    );
}
