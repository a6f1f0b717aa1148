//! Reproduce **Table III** of the paper: flop rates (a), run times (b) and
//! relative performance (c) for eight implementations — CPU with 1/4/8
//! threads and the (simulated) GPU, each in the general and the unrolled
//! kernel variant — on the full 1024-tensor, 128-start workload, plus a
//! third CPU column the paper does not have: the lockstep lanes
//! (`--kernel batched`, which `tape` also runs on this shape).
//!
//! CPU rows are *measured* wall-clock (rayon thread pools standing in for
//! the paper's OpenMP); GPU rows come from the gpusim analytic model. The
//! paper's "unrolled" CPU column is the scalar compiled code, driven one
//! tensor at a time ([`bench::run_cpu_unrolled`]). A
//! thread count above the host's available parallelism is skipped (with a
//! note), since it would time-slice rather than scale. The binary also
//! prints the paper's own 2011 numbers next to ours so the shape
//! comparison (who wins, by what factor) is one glance.
//!
//! Run with: `cargo run --release -p bench --bin table3`

use backend::KernelStrategy;
use bench::{
    bench_metadata, bench_policy, cpu_label, cpu_rows, gpu_row, paper, print_rows, rows_to_value,
    run_cpu, run_cpu_unrolled, runnable_threads, write_bench_json, MeasuredRow, Workload,
};
use serde::Value;

/// The paper's 2011 numbers per CPU thread count: the unrolled speedup
/// over general (a), and the relative performance of general and
/// unrolled normalized to one core (c).
fn paper_cpu(threads: usize) -> (f64, f64, f64) {
    match threads {
        1 => (8.47, 1.00, 1.00),
        4 => (8.23, 3.55, 3.45),
        _ => (5.60, 7.14, 4.72),
    }
}

fn main() {
    let physical = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!(
        "Table III reproduction: T=1024 tensors (m=4, n=3), V=128 starts, {} fixed iterations, f32",
        bench::BENCH_ITERS
    );
    let (threads, skipped) = runnable_threads();
    if !skipped.is_empty() {
        let names: Vec<String> = skipped.iter().map(|&t| cpu_label(t)).collect();
        println!(
            "skipped rows {}: this host runs {physical} thread(s) at once, so more threads \
             would time-slice, not scale",
            names.join(", ")
        );
    }
    println!();

    let workload = Workload::paper_workload(2026);

    // Measured CPU rows: the general backend, the scalar compiled code one
    // tensor at a time (the paper's unrolled column), and the lanes.
    let (policy, alpha) = (bench_policy(), paper::ALPHA);
    let backend_rows = |strategy: KernelStrategy| {
        cpu_rows(&workload, strategy.name(), &threads, |t| {
            run_cpu(&workload, strategy, t, policy, alpha)
        })
    };
    let general_rows = backend_rows(KernelStrategy::General);
    let unrolled_rows = cpu_rows(&workload, "unrolled", &threads, |t| {
        run_cpu_unrolled(&workload, t, policy, alpha)
    });
    let lane_rows = backend_rows(KernelStrategy::Batched);

    // Modeled GPU rows.
    let (gpu_general, rep_g) = gpu_row(&workload, KernelStrategy::General);
    let (gpu_unrolled, rep_u) = gpu_row(&workload, KernelStrategy::Tape);

    let mut all: Vec<MeasuredRow> = Vec::new();
    all.extend(general_rows.iter().cloned());
    all.push(gpu_general.clone());
    all.extend(unrolled_rows.iter().cloned());
    all.push(gpu_unrolled.clone());
    all.extend(lane_rows.iter().cloned());
    print_rows("(a)+(b) measured/modeled flop rates and run times:", &all);

    // (a) speedup columns over general.
    println!("(a) speedup over general:");
    println!(
        "{:<16} {:>10} {:>10} {:>20}",
        "platform", "unrolled", "batched", "paper 2011 (unr)"
    );
    let mut speedups = Vec::new();
    let mut lane_speedups = Vec::new();
    for (i, &t) in threads.iter().enumerate() {
        let ours = general_rows[i].seconds / unrolled_rows[i].seconds;
        let lanes = general_rows[i].seconds / lane_rows[i].seconds;
        println!(
            "{:<16} {:>9.2}x {:>9.2}x {:>19.2}x",
            cpu_label(t),
            ours,
            lanes,
            paper_cpu(t).0
        );
        speedups.push((format!("cpu_{t}"), Value::Float(ours)));
        lane_speedups.push((format!("cpu_{t}"), Value::Float(lanes)));
    }
    let gpu_speedup = gpu_general.seconds / gpu_unrolled.seconds;
    println!(
        "{:<16} {:>9.2}x {:>10} {:>19.2}x",
        "GPU", gpu_speedup, "-", 18.70
    );
    speedups.push(("gpu".to_string(), Value::Float(gpu_speedup)));

    // (c) relative performance normalized to the sequential implementation.
    println!("\n(c) relative performance (normalized to CPU - 1 core):");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>22}",
        "platform", "general", "unrolled", "batched", "paper (gen / unr)"
    );
    let (base_g, base_u, base_b) = (
        general_rows[0].seconds,
        unrolled_rows[0].seconds,
        lane_rows[0].seconds,
    );
    for (i, &t) in threads.iter().enumerate() {
        let (_, pg, pu) = paper_cpu(t);
        println!(
            "{:<16} {:>9.2}x {:>9.2}x {:>9.2}x {:>12.2} / {:<8.2}",
            cpu_label(t),
            base_g / general_rows[i].seconds,
            base_u / unrolled_rows[i].seconds,
            base_b / lane_rows[i].seconds,
            pg,
            pu
        );
    }
    println!(
        "{:<16} {:>9.2}x {:>9.2}x {:>10} {:>12.2} / {:<8.2}",
        "GPU",
        base_g / gpu_general.seconds,
        base_u / gpu_unrolled.seconds,
        "-",
        70.23,
        155.07
    );

    // GPU model detail.
    println!("\nGPU model detail (Tesla C2050):");
    for rep in [&rep_g, &rep_u] {
        let snap = &rep.profiles[0].snapshot;
        println!(
            "  {:<9} occupancy {:>2} blocks/SM ({:>3.0}%, {}), est {:.2} ms, {:.1} GFLOP/s ({:.0}% of peak)",
            rep.kernel,
            snap.blocks_per_sm,
            snap.occupancy * 100.0,
            snap.occupancy_limiter,
            rep.seconds * 1e3,
            rep.gflops(),
            100.0 * rep.gflops() / gpusim::DeviceSpec::tesla_c2050().peak_sp_gflops()
        );
    }
    println!("  paper: general 17.0 GFLOP/s, unrolled 317.8 GFLOP/s (31% of peak)");

    // Machine-readable export: every row plus the GPU model's full
    // profile (counter breakdown, occupancy, timing components).
    let report = Value::object(vec![
        ("meta", bench_metadata("table3")),
        ("rows", rows_to_value(&all)),
        (
            "gpu_profiles",
            Value::Seq(vec![
                serde::Serialize::to_value(&rep_g.profiles[0].snapshot),
                serde::Serialize::to_value(&rep_u.profiles[0].snapshot),
            ]),
        ),
        ("unrolled_speedup", Value::Map(speedups)),
        ("batched_speedup", Value::Map(lane_speedups)),
        (
            "skipped_cpu_threads",
            Value::Seq(skipped.iter().map(|&t| Value::UInt(t as u64)).collect()),
        ),
    ]);
    write_bench_json("table3", &report);

    // Section V-E: "We obtained similar performance (relative to peak) for
    // tensors of order 4 and dimension 3 on two other NVIDIA GPUs."
    println!("\ncross-device check (unrolled kernel, % of each device's peak):");
    for device in [
        gpusim::DeviceSpec::tesla_c1060(),
        gpusim::DeviceSpec::tesla_c2050(),
        gpusim::DeviceSpec::gtx_580(),
    ] {
        let (_, rep) = bench::gpu_row_on(&workload, KernelStrategy::Tape, device.clone());
        println!(
            "  {:<26} {:>8.1} GFLOP/s = {:>4.1}% of {:>6.0} peak",
            device.name,
            rep.gflops(),
            100.0 * rep.gflops() / device.peak_sp_gflops(),
            device.peak_sp_gflops()
        );
    }
}
