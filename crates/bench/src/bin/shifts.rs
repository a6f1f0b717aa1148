//! The shift trade-off study: Section V-A of the paper notes that
//! "choosing an appropriate shift for real data will balance a tradeoff
//! between guarantees of convergence and time-to-completion". This binary
//! quantifies that trade on the phantom workload: for each shift policy,
//! the fraction of solves that converge and the iteration count
//! distribution.
//!
//! Run with: `cargo run --release -p bench --bin shifts`

use backend::{CpuParallel, KernelStrategy, SolveBackend};
use bench::{bench_metadata, write_bench_json, Workload};
use serde::Value;
use sshopm::{IterationPolicy, Shift, SsHopm};
use telemetry::Telemetry;

fn main() {
    let workload = Workload::paper_workload(2026);
    // A manageable subset: 128 tensors x 16 starts.
    let tensors = workload.tensors.slice(0..128).to_owned();
    let starts = &workload.starts[..16];

    println!(
        "Shift trade-off on {} tensors x {} starts (m=4, n=3, f32, tol 1e-6, cap 1000):\n",
        tensors.len(),
        starts.len()
    );
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>10}",
        "shift policy", "converged", "mean iter", "p95 iter", "max iter"
    );

    let policies: Vec<(String, Shift)> = vec![
        ("alpha = 0 (paper)".into(), Shift::Fixed(0.0)),
        ("alpha = 0.5".into(), Shift::Fixed(0.5)),
        ("alpha = 2".into(), Shift::Fixed(2.0)),
        ("alpha = 8".into(), Shift::Fixed(8.0)),
        ("convex bound".into(), Shift::Convex),
        ("adaptive".into(), Shift::Adaptive),
    ];

    let mut json_rows = Vec::new();
    // The adaptive shift is CPU-only, so the whole sweep runs on the
    // parallel CPU backend (all cores, general kernels).
    let backend = CpuParallel::new(0, KernelStrategy::General);
    for (label, shift) in policies {
        let solver = SsHopm::new(shift).with_policy(IterationPolicy::Converge {
            tol: 1e-6,
            max_iters: 1000,
        });
        let report = backend
            .solve_batch(&tensors, starts, &solver, &Telemetry::disabled())
            .expect("shift sweep workload is well-formed");
        let total = report.num_tensors() * report.num_starts();
        let converged = report.num_converged() as usize;
        let mut iters: Vec<usize> = report
            .iter_flat()
            .filter(|(_, _, p)| p.converged)
            .map(|(_, _, p)| p.iterations)
            .collect();
        iters.sort_unstable();
        let mean = iters.iter().sum::<usize>() as f64 / iters.len().max(1) as f64;
        let p95 = iters.get(iters.len() * 95 / 100).copied().unwrap_or(0);
        let max = iters.last().copied().unwrap_or(0);
        println!(
            "{:<22} {:>9.1}% {:>10.1} {:>10} {:>10}",
            label,
            100.0 * converged as f64 / total as f64,
            mean,
            p95,
            max
        );
        json_rows.push(Value::object(vec![
            ("policy", Value::Str(label)),
            ("solves", Value::UInt(total as u64)),
            ("converged", Value::UInt(converged as u64)),
            (
                "converged_fraction",
                Value::Float(converged as f64 / total as f64),
            ),
            ("mean_iterations", Value::Float(mean)),
            ("p95_iterations", Value::UInt(p95 as u64)),
            ("max_iterations", Value::UInt(max as u64)),
        ]));
    }
    write_bench_json(
        "shifts",
        &Value::object(vec![
            ("meta", bench_metadata("shifts")),
            ("policies", Value::Seq(json_rows)),
        ]),
    );

    println!(
        "\nreading: small fixed shifts converge fastest when they converge at all;\n\
         the guaranteed convex bound pays iterations for its guarantee; the\n\
         adaptive shift gets (most of) the guarantee at near-minimal cost."
    );
}
