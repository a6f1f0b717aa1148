//! Benchmark harness: workload builders, flop accounting, wall-clock
//! measurement and table formatting shared by the `table*`/`figure5`
//! reproduction binaries and the Criterion benches.

use backend::{BackendSpec, BatchReport, GpuSimBackend, KernelStrategy, SolveBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sshopm::{BatchSolver, IterationPolicy, Shift, Solver, SsHopm};
use std::time::Instant;
use telemetry::Telemetry;

use symtensor::{flops, TensorBatch, UnrolledKernels};

pub mod regress;

/// The paper's workload constants (Section V-A/V-C): T = 1024 tensors,
/// U = 15 unique entries (m = 4, n = 3), V = 128 starting vectors.
pub mod paper {
    /// Number of tensors in the test set.
    pub const T: usize = 1024;
    /// Tensor order.
    pub const M: usize = 4;
    /// Tensor dimension.
    pub const N: usize = 3;
    /// Starting vectors per tensor.
    pub const V: usize = 128;
    /// Shift used in the paper's experiments.
    pub const ALPHA: f64 = 0.0;
}

/// The benchmark workload: tensors + shared starting vectors, in `f32`
/// (the precision of the paper's benchmarks).
pub struct Workload {
    /// The tensors, packed contiguously in one arena (all the same shape).
    pub tensors: TensorBatch<f32>,
    /// Starting vectors shared by every tensor.
    pub starts: Vec<Vec<f32>>,
    /// Tensor order.
    pub m: usize,
    /// Tensor dimension.
    pub n: usize,
}

impl Workload {
    /// The paper's workload: 1024 voxel-like tensors from the DW-MRI
    /// phantom (mix of one- and two-fiber voxels, like the Utah set),
    /// 128 random starting vectors.
    pub fn paper_workload(seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let phantom = dwmri::Phantom::generate(
            dwmri::PhantomConfig {
                width: 32,
                height: 32,
                noise: dwmri::NoiseModel::Multiplicative { amplitude: 0.02 },
                ..Default::default()
            },
            &mut rng,
        );
        let tensors = phantom.tensor_batch_f32();
        let starts = sshopm::starts::random_uniform_starts::<f32, _>(paper::N, paper::V, &mut rng);
        Workload {
            tensors,
            starts,
            m: paper::M,
            n: paper::N,
        }
    }

    /// Random tensors of an arbitrary shape (for sweeps beyond (4,3)).
    pub fn random(t: usize, v: usize, m: usize, n: usize, seed: u64) -> Workload {
        let mut rng = StdRng::seed_from_u64(seed);
        let tensors =
            TensorBatch::<f32>::random(m, n, t, &mut rng).expect("bench shapes are valid");
        let starts = sshopm::starts::random_uniform_starts::<f32, _>(n, v, &mut rng);
        Workload {
            tensors,
            starts,
            m,
            n,
        }
    }

    /// A subset of the first `t` tensors (Figure 5 sweeps subsets).
    pub fn subset(&self, t: usize) -> Workload {
        Workload {
            tensors: self.tensors.slice(0..t.min(self.tensors.len())).to_owned(),
            starts: self.starts.clone(),
            m: self.m,
            n: self.n,
        }
    }
}

/// Useful flops for a batch run that performed `total_iterations` SS-HOPM
/// iterations on shape `(m, n)`.
pub fn batch_flops(m: usize, n: usize, total_iterations: u64) -> u64 {
    total_iterations * flops::sshopm_iter_flops(m, n)
}

/// One measured implementation row.
#[derive(Debug, Clone)]
pub struct MeasuredRow {
    /// Row label ("CPU - 1 core", "GPU (model)", ...).
    pub label: String,
    /// Measured or modeled wall time, seconds.
    pub seconds: f64,
    /// Useful flops executed.
    pub useful_flops: u64,
}

impl MeasuredRow {
    /// Achieved GFLOP/s.
    pub fn gflops(&self) -> f64 {
        self.useful_flops as f64 / self.seconds / 1e9
    }
}

/// Run the workload on a CPU backend with the given kernel strategy and
/// thread count; returns the wall time and total iterations.
pub fn run_cpu(
    workload: &Workload,
    strategy: KernelStrategy,
    threads: usize,
    policy: IterationPolicy,
    alpha: f64,
) -> (f64, u64) {
    let backend = BackendSpec::Cpu { threads }
        .build::<f32>(strategy)
        .expect("CPU backend spec is always buildable");
    let report = run_on(&*backend, workload, policy, alpha);
    (report.seconds, report.total_iterations)
}

/// The paper's "unrolled" CPU implementation, as Table III and Figure 5
/// time it: whole solves through the per-tensor driver over the scalar
/// compiled [`UnrolledKernels`] on `threads` workers. No backend plans
/// these kernels (on a compiled shape `tape` runs the lockstep lanes), so
/// they are driven directly. Returns the wall time and total iterations,
/// like [`run_cpu`].
pub fn run_cpu_unrolled(
    workload: &Workload,
    threads: usize,
    policy: IterationPolicy,
    alpha: f64,
) -> (f64, u64) {
    let kernels = UnrolledKernels::for_shape(workload.m, workload.n)
        .expect("the paper's shape has compiled kernels");
    let solver = SsHopm::new(Shift::Fixed(alpha)).with_policy(policy);
    let started = Instant::now();
    let result = BatchSolver::new(solver).with_threads(threads).run(
        &kernels,
        &workload.tensors,
        &workload.starts,
        &Telemetry::disabled(),
    );
    (started.elapsed().as_secs_f64(), result.total_iterations)
}

/// Run the workload through any [`SolveBackend`] and return the full
/// unified report.
pub fn run_on(
    backend: &dyn SolveBackend<f32>,
    workload: &Workload,
    policy: IterationPolicy,
    alpha: f64,
) -> BatchReport<f32> {
    let solver = SsHopm::new(Shift::Fixed(alpha)).with_policy(policy);
    run_on_solver(backend, workload, &solver)
}

/// Run the workload through any backend with an arbitrary [`Solver`] —
/// the solver-generic entry point used by the `solvers` regression
/// scenario (`BENCH_solvers.json`).
pub fn run_on_solver(
    backend: &dyn SolveBackend<f32>,
    workload: &Workload,
    solver: &dyn Solver<f32>,
) -> BatchReport<f32> {
    backend
        .solve_batch(
            &workload.tensors,
            &workload.starts,
            solver,
            &Telemetry::disabled(),
        )
        .expect("benchmark workloads are well-formed")
}

/// The iteration policy used by all Table III / Figure 5 runs: a fixed
/// budget so every implementation does identical arithmetic (the paper
/// likewise benchmarks a fixed workload; convergence behaviour is studied
/// separately in the ablation benches).
pub const BENCH_ITERS: usize = 20;

/// Default iteration policy for benchmarks.
pub fn bench_policy() -> IterationPolicy {
    IterationPolicy::Fixed(BENCH_ITERS)
}

/// The paper's CPU thread counts (Table III's 1/4/8 "cores") split into
/// those this host runs in parallel and those it would only time-slice.
pub fn runnable_threads() -> (Vec<usize>, Vec<usize>) {
    let host = std::thread::available_parallelism().map_or(1, |c| c.get());
    [1, 4, 8].into_iter().partition(|&t| t <= host)
}

/// Table III's platform label for a CPU row.
pub fn cpu_label(threads: usize) -> String {
    format!("CPU - {threads} core{}", if threads > 1 { "s" } else { "" })
}

/// Measure the CPU rows, one per thread count, for one implementation:
/// `run(threads)` returns its wall time and total iterations
/// ([`run_cpu`], [`run_cpu_unrolled`]).
pub fn cpu_rows(
    workload: &Workload,
    label: &str,
    threads: &[usize],
    run: impl Fn(usize) -> (f64, u64),
) -> Vec<MeasuredRow> {
    let row = |&t: &usize| {
        let (secs, iters) = run(t);
        MeasuredRow {
            label: format!("{} ({label})", cpu_label(t)),
            seconds: secs,
            useful_flops: batch_flops(workload.m, workload.n, iters),
        }
    };
    threads.iter().map(row).collect()
}

/// The modeled GPU row for one kernel strategy on the paper's Tesla C2050.
pub fn gpu_row(workload: &Workload, strategy: KernelStrategy) -> (MeasuredRow, BatchReport<f32>) {
    gpu_row_on(workload, strategy, gpusim::DeviceSpec::tesla_c2050())
}

/// The modeled GPU row for one kernel strategy on an arbitrary device.
/// The report's `profiles[0].snapshot` carries the occupancy/timing detail
/// the table binaries print.
pub fn gpu_row_on(
    workload: &Workload,
    strategy: KernelStrategy,
    device: gpusim::DeviceSpec,
) -> (MeasuredRow, BatchReport<f32>) {
    let name = device.name;
    let report = run_on(
        &GpuSimBackend::new(device, strategy),
        workload,
        bench_policy(),
        paper::ALPHA,
    );
    (
        MeasuredRow {
            label: format!("GPU model ({}, {})", report.kernel, name),
            seconds: report.seconds,
            useful_flops: report.useful_flops,
        },
        report,
    )
}

/// Fixed-width table printing.
pub fn print_rows(title: &str, rows: &[MeasuredRow]) {
    println!("{title}");
    println!(
        "{:<28} {:>12} {:>12}",
        "implementation", "time (ms)", "GFLOP/s"
    );
    for r in rows {
        println!(
            "{:<28} {:>12.2} {:>12.2}",
            r.label,
            r.seconds * 1e3,
            r.gflops()
        );
    }
    println!();
}

/// One measured row as a JSON-ready object (label, seconds, flops, GFLOPS).
pub fn row_to_value(row: &MeasuredRow) -> serde::Value {
    serde::Value::object(vec![
        ("label", serde::Value::Str(row.label.clone())),
        ("seconds", serde::Value::Float(row.seconds)),
        ("useful_flops", serde::Value::UInt(row.useful_flops)),
        ("gflops", serde::Value::Float(row.gflops())),
    ])
}

/// A whole row set as a JSON array.
pub fn rows_to_value(rows: &[MeasuredRow]) -> serde::Value {
    serde::Value::Seq(rows.iter().map(row_to_value).collect())
}

/// Host/workload metadata included in every `BENCH_*.json` so results are
/// interpretable offline.
pub fn bench_metadata(bench_name: &str) -> serde::Value {
    let physical = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    serde::Value::object(vec![
        ("bench", serde::Value::Str(bench_name.to_owned())),
        ("logical_cores", serde::Value::UInt(physical as u64)),
        ("bench_iters", serde::Value::UInt(BENCH_ITERS as u64)),
        ("precision", serde::Value::Str("f32".to_owned())),
    ])
}

/// Write `value` to `BENCH_<name>.json` in the current directory and
/// report the path (or the error — benches keep running either way).
pub fn write_bench_json(name: &str, value: &serde::Value) {
    write_bench_json_in(std::path::Path::new(""), name, value)
}

/// [`write_bench_json`] into `dir` instead of the current directory.
pub fn write_bench_json_in(dir: &std::path::Path, name: &str, value: &serde::Value) {
    let path = dir.join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, value.to_json_pretty() + "\n") {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("could not write {}: {err}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_shapes() {
        let w = Workload::random(16, 8, 4, 3, 1);
        assert_eq!(w.tensors.len(), 16);
        assert_eq!(w.starts.len(), 8);
        let s = w.subset(4);
        assert_eq!(s.tensors.len(), 4);
        assert_eq!(s.starts.len(), 8);
    }

    #[test]
    fn paper_workload_matches_constants() {
        let w = Workload::paper_workload(7);
        assert_eq!(w.tensors.len(), paper::T);
        assert_eq!(w.starts.len(), paper::V);
        assert_eq!(w.tensors.order(), paper::M);
        assert_eq!(w.tensors.dim(), paper::N);
    }

    #[test]
    fn cpu_run_counts_iterations() {
        let w = Workload::random(4, 4, 4, 3, 2);
        let (secs, iters) = run_cpu(&w, KernelStrategy::General, 1, bench_policy(), 0.0);
        assert!(secs > 0.0);
        assert_eq!(iters, 4 * 4 * BENCH_ITERS as u64);
        assert_eq!(
            batch_flops(4, 3, iters),
            iters * flops::sshopm_iter_flops(4, 3)
        );
        // The paper's unrolled column does the same work on the scalar
        // compiled kernels.
        let rows = cpu_rows(&w, "unrolled", &[1, 2], |t| {
            run_cpu_unrolled(&w, t, bench_policy(), 0.0)
        });
        assert_eq!(rows[1].label, "CPU - 2 cores (unrolled)");
        for row in &rows {
            assert!(row.seconds > 0.0);
            assert_eq!(row.useful_flops, batch_flops(4, 3, iters));
        }
    }

    #[test]
    fn gpu_row_reports() {
        let w = Workload::random(8, 32, 4, 3, 3);
        let (row, report) = gpu_row(&w, KernelStrategy::Tape);
        assert!(row.seconds > 0.0);
        assert!(row.gflops() > 0.0);
        assert_eq!(report.kernel, "unrolled");
        assert_eq!(report.profiles.len(), 1);
        assert_eq!(report.profiles[0].snapshot.num_blocks, 8);
    }

    #[test]
    fn run_on_accepts_any_backend() {
        use backend::CpuParallel;
        let w = Workload::random(3, 5, 4, 3, 4);
        let cpu = run_on(
            &CpuParallel::new(1, KernelStrategy::General),
            &w,
            bench_policy(),
            0.0,
        );
        let gpu = run_on(
            &GpuSimBackend::new(gpusim::DeviceSpec::tesla_c2050(), KernelStrategy::General),
            &w,
            bench_policy(),
            0.0,
        );
        assert_eq!(cpu.total_iterations, gpu.total_iterations);
        assert_eq!(cpu.num_tensors(), gpu.num_tensors());
    }

    #[test]
    fn unrolled_kernels_available_for_paper_shape() {
        assert!(UnrolledKernels::for_shape(paper::M, paper::N).is_some());
    }

    #[test]
    fn rows_serialize_round_trip() {
        let rows = vec![
            MeasuredRow {
                label: "CPU - 1 core".into(),
                seconds: 0.5,
                useful_flops: 1_000_000_000,
            },
            MeasuredRow {
                label: "GPU model".into(),
                seconds: 0.01,
                useful_flops: 1_000_000_000,
            },
        ];
        let value = rows_to_value(&rows);
        let parsed = serde::Value::parse_json(&value.to_json()).unwrap();
        let seq = parsed.as_seq().unwrap();
        assert_eq!(seq.len(), 2);
        assert_eq!(
            seq[0].get("label").and_then(serde::Value::as_str),
            Some("CPU - 1 core")
        );
        assert_eq!(
            seq[1].get("gflops").and_then(serde::Value::as_f64),
            Some(100.0)
        );
        let meta = bench_metadata("test");
        assert_eq!(
            meta.get("bench").and_then(serde::Value::as_str),
            Some("test")
        );
        assert!(
            meta.get("logical_cores")
                .and_then(serde::Value::as_u64)
                .unwrap()
                >= 1
        );
    }
}
