//! Batched eigensolve on the simulated GPU: the paper's Section V setup.
//!
//! Launches the 1024-tensor / 128-start workload on the simulated Tesla
//! C2050 in both kernel variants through the unified `SolveBackend` layer,
//! prints occupancy, estimated run time and achieved GFLOP/s, and
//! cross-checks the functional results against the CPU backend running the
//! same kernels. A final pass re-runs the workload double-buffered through
//! the stream scheduler and prints the event-timeline summary — how much
//! of the PCIe traffic hid behind the kernels.
//!
//! Run with: `cargo run --release --example gpu_batch`

use rand::SeedableRng;
use tensor_eig::prelude::*;

fn main() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let tensors = TensorBatch::<f32>::random(4, 3, 1024, &mut rng).expect("paper shape is valid");
    let starts = sshopm::starts::random_uniform_starts::<f32, _>(3, 128, &mut rng);
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(20));
    let device = DeviceSpec::tesla_c2050();
    let telemetry = Telemetry::disabled();

    println!(
        "Device: {} — {} SMs x {} cores @ {:.2} GHz, peak {:.0} GFLOP/s (SP)\n",
        device.name,
        device.num_sms,
        device.cores_per_sm,
        device.clock_ghz,
        device.peak_sp_gflops()
    );
    println!(
        "Workload: T={} tensors (m=4, n=3), V={} starts, {} fixed iterations",
        tensors.len(),
        starts.len(),
        20
    );
    println!("Mapping: 1 block per tensor, 1 thread per start (Section V-B)\n");

    let mut reports = Vec::new();
    for strategy in [KernelStrategy::General, KernelStrategy::Tape] {
        let gpu = GpuSimBackend::new(device.clone(), strategy);
        let report = gpu
            .solve_batch(&tensors, &starts, &solver, &telemetry)
            .expect("gpu_batch example workload is well-formed");
        let snap = &report.profiles[0].snapshot;
        println!("--- {} kernel ---", report.kernel);
        println!(
            "  launch    : {} blocks x {} threads on {} SMs",
            snap.num_blocks, snap.threads_per_block, snap.active_sms
        );
        println!(
            "  occupancy : {} blocks/SM ({:.0}%), limited by {}",
            snap.blocks_per_sm,
            snap.occupancy * 100.0,
            snap.occupancy_limiter
        );
        println!(
            "  est. time : {:.3} ms (compute {:.3} ms, memory {:.3} ms)",
            snap.seconds * 1e3,
            snap.compute_seconds * 1e3,
            snap.memory_seconds * 1e3
        );
        println!(
            "  achieved  : {:.1} GFLOP/s ({:.1}% of peak)\n",
            report.gflops(),
            100.0 * report.gflops() / device.peak_sp_gflops()
        );
        reports.push(report);
    }

    let speedup = reports[0].seconds / reports[1].seconds;
    println!("Unrolled speedup over general on the GPU model: {speedup:.1}x");
    println!("(paper Table III(a): 18.7x)\n");

    // Cross-check: the simulated GPU computes the same eigenpairs as the
    // CPU backend using the same (unrolled) kernels.
    let cpu = CpuParallel::new(0, KernelStrategy::Tape)
        .solve_batch(&tensors, &starts, &solver, &telemetry)
        .expect("gpu_batch example workload is well-formed");
    let gpu = &reports[1];
    let mut worst = 0.0f32;
    for t in 0..tensors.len() {
        for v in 0..starts.len() {
            let d = (gpu.results[t][v].lambda - cpu.results[t][v].lambda).abs();
            worst = worst.max(d);
        }
    }
    println!(
        "GPU-vs-CPU max |lambda| difference over all {} solves: {worst:e}",
        1024 * 128
    );
    assert_eq!(worst, 0.0, "functional simulation must match CPU exactly");
    println!("OK: functional parity with the CPU reference.");
    println!("CPU summary: {}", cpu.summary());
    println!("GPU summary: {}", gpu.summary());

    // Same workload once more, chunked through two streams so uploads
    // double-buffer behind kernels (one copy engine + one compute engine,
    // like the real C2050).
    let piped = BackendSpec::parse("pipelined")
        .and_then(|spec| spec.build_gpusim(KernelStrategy::Tape))
        .expect("one device is valid")
        .with_streams(2)
        .expect("two streams is a valid stream count")
        .solve_batch(&tensors, &starts, &solver, &telemetry)
        .expect("gpu_batch example workload is well-formed");
    for (t, row) in piped.results.iter().enumerate() {
        for (v, pair) in row.iter().enumerate() {
            assert_eq!(
                pair.lambda.to_bits(),
                gpu.results[t][v].lambda.to_bits(),
                "pipelining must not change a single bit"
            );
        }
    }
    let timeline = piped
        .timeline
        .as_ref()
        .expect("pipelined backend reports a timeline");
    println!("\n--- double-buffered (2 streams) ---");
    println!("  {}", timeline.summary());
    println!("  bitwise-identical eigenpairs to the synchronous launch.");
}
