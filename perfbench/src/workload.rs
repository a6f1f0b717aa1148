//! The three workloads: how each one's input is generated from the seed,
//! and the pipeline each one runs.
//!
//! * `fibers-paper` — the paper's DW-MRI application end to end through the
//!   CLI (`fibers --starts 128 --kernel tape --backend cpu`, convex shift,
//!   tol 1e-10) on a 12×12 phantom. Per-iteration solver cost and
//!   dedup/classify dominate; the kernel and the file are minor shares.
//! * `table3-lockstep` — the paper's Table III CPU-1 row: a 32×32 phantom
//!   (1024 tensors, a 61 KB cache-resident f32 arena) × 128 seeded random
//!   starts, α = 0, exactly 20 lockstep iterations through
//!   `SolveBackend::solve_batch` on `CpuSequential` with the batched
//!   kernels. Kernel-bound, no file, no dedup.
//! * `fibers-large` — the same lockstep driver used differently: the CLI on
//!   a 320×320 phantom (a 32 MB file, a 12 MB f64 arena, three times the
//!   4 MiB L2), 16 starts, α = 0, two threads, ragged convergence and
//!   1.6 M result pairs.

use crate::alloc;
use crate::host::ReferenceLoop;
use crate::trace::Tracer;
use backend::{
    BackendError, BackendSpec, BatchReport, KernelRegistry, KernelStrategy, SolveBackend,
};
use dwmri::{ExtractConfig, FiberEstimate, NoiseModel, Phantom, PhantomConfig};
use kernelgen::CacheStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sshopm::{IterationPolicy, Shift, Solver, SsHopm};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use symtensor::io::{read_tensor_batch, write_tensor_batch};
use symtensor::{Scalar, TensorBatch};
use telemetry::Telemetry;

/// Tensor shape of every workload: order 4, dimension 3 (the paper's).
pub const ORDER: usize = 4;
pub const DIM: usize = 3;
/// Multiplicative measurement noise of every phantom.
const NOISE: f64 = 0.02;
/// Iterations of the fixed-policy lockstep workload (Table III).
pub const FIXED_ITERS: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    FibersPaper,
    Table3Lockstep,
    FibersLarge,
}

/// One workload's shape. `grid` is the phantom's side in voxels.
#[derive(Debug, Clone)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub grid: usize,
    pub starts: usize,
    pub kernel: KernelStrategy,
    pub backend: &'static str,
    /// The CLI's `--shift` value; `None` keeps its convex default.
    pub shift_arg: Option<&'static str>,
    /// The loop that measures the host's speed for this workload's mix.
    pub reference: ReferenceLoop,
}

impl Workload {
    pub fn all() -> [Workload; 3] {
        [
            Workload {
                kind: Kind::FibersPaper,
                name: "fibers-paper",
                grid: 12,
                starts: 128,
                kernel: KernelStrategy::Tape,
                backend: "cpu",
                shift_arg: None,
                reference: ReferenceLoop::Scalar,
            },
            Workload {
                kind: Kind::Table3Lockstep,
                name: "table3-lockstep",
                grid: 32,
                starts: 128,
                kernel: KernelStrategy::Batched,
                backend: "cpu",
                shift_arg: Some("0"),
                reference: ReferenceLoop::Lanes,
            },
            Workload {
                kind: Kind::FibersLarge,
                name: "fibers-large",
                grid: 320,
                starts: 16,
                kernel: KernelStrategy::Batched,
                backend: "cpu:2",
                shift_arg: Some("0"),
                reference: ReferenceLoop::Scalar,
            },
        ]
    }

    pub fn by_name(name: &str) -> Result<Workload, String> {
        Workload::all()
            .into_iter()
            .find(|w| w.name == name)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::all().iter().map(|w| w.name).collect();
                format!("unknown workload {name:?}; expected one of {names:?}")
            })
    }

    pub fn voxels(&self) -> usize {
        self.grid * self.grid
    }

    pub fn solves(&self) -> usize {
        self.voxels() * self.starts
    }

    pub fn threads(&self) -> usize {
        self.backend
            .strip_prefix("cpu:")
            .and_then(|t| t.parse().ok())
            .unwrap_or(1)
    }

    pub fn shift(&self) -> Shift {
        match self.shift_arg {
            None => ExtractConfig::default().shift,
            Some(v) => Shift::Fixed(v.parse().expect("workload shifts are numeric")),
        }
    }

    pub fn policy(&self) -> IterationPolicy {
        match self.kind {
            Kind::Table3Lockstep => IterationPolicy::Fixed(FIXED_ITERS),
            _ => {
                let cfg = ExtractConfig::default();
                IterationPolicy::Converge {
                    tol: cfg.tol,
                    max_iters: cfg.max_iters,
                }
            }
        }
    }

    /// The extraction settings the CLI's `fibers` command builds.
    pub fn extract_config(&self) -> ExtractConfig {
        ExtractConfig {
            num_starts: self.starts,
            shift: self.shift(),
            ..Default::default()
        }
    }

    /// The `fibers` command line the fibers workloads time.
    pub fn cli_argv(&self, file: &Path) -> Vec<String> {
        let mut argv = vec![
            "fibers".to_string(),
            file.display().to_string(),
            "--starts".to_string(),
            self.starts.to_string(),
        ];
        if let Some(shift) = self.shift_arg {
            argv.extend(["--shift".to_string(), shift.to_string()]);
        }
        argv.extend([
            "--kernel".to_string(),
            self.kernel.name().to_string(),
            "--backend".to_string(),
            self.backend.to_string(),
        ]);
        argv
    }
}

/// A workload's generated input.
pub struct Inputs {
    pub phantom: Phantom,
    /// The phantom as written to the tensor file (fibers workloads) or as
    /// held in memory before the f32 conversion (table3-lockstep).
    pub tensors: TensorBatch<f64>,
    pub file: Option<PathBuf>,
    /// Bytes the parse step reads: the file, or the in-memory f64 arena.
    pub input_bytes: u64,
    /// Seeded random starts (table3-lockstep only).
    pub starts_f32: Vec<Vec<f32>>,
}

/// Generate a workload's input from `seed`. Fibers workloads write their
/// tensor file into `dir`.
pub fn generate(w: &Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let config = PhantomConfig {
        width: w.grid,
        height: w.grid,
        noise: NoiseModel::Multiplicative { amplitude: NOISE },
        ..Default::default()
    };
    let phantom = Phantom::generate(config, &mut rng);
    let tensors = phantom.tensor_batch();
    if w.kind == Kind::Table3Lockstep {
        let starts_f32 = sshopm::starts::random_uniform_starts::<f32, _>(DIM, w.starts, &mut rng);
        let input_bytes = std::mem::size_of_val(tensors.values()) as u64;
        return Ok(Inputs {
            phantom,
            tensors,
            file: None,
            input_bytes,
            starts_f32,
        });
    }
    let path = dir.join(format!("{}-{seed}.txt", w.name));
    let file = File::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut out = BufWriter::new(file);
    write_tensor_batch(&mut out, &tensors)
        .and_then(|()| out.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let input_bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    Ok(Inputs {
        phantom,
        tensors,
        file: Some(path),
        input_bytes,
        starts_f32: Vec::new(),
    })
}

/// Everything set up before the first solve can start.
pub struct Prepared<S: Scalar> {
    pub batch: TensorBatch<S>,
    pub backend: Box<dyn SolveBackend<S>>,
    /// Registry activity of the cold `plan` call.
    pub plan_stats: CacheStats,
}

/// Set-up: parse the input into the arena, build the backend, and plan the
/// kernels. Call after `KernelRegistry::global().clear_memory()` for a
/// cold plan.
pub fn prepare<S: Scalar>(
    w: &Workload,
    parse: impl FnOnce() -> Result<TensorBatch<S>, String>,
    tracer: &Tracer,
) -> Result<Prepared<S>, String> {
    let span = tracer.begin("io.parse");
    let batch = parse()?;
    tracer.end(span);

    let span = tracer.begin("backend.build");
    let spec: BackendSpec = w.backend.parse().map_err(|e: BackendError| e.to_string())?;
    let backend = spec.build::<S>(w.kernel).map_err(|e| e.to_string())?;
    tracer.end(span);

    let registry = KernelRegistry::global();
    let before = registry.stats();
    let span = tracer.begin("kernelgen.plan");
    let plan = registry.plan::<S>(ORDER, DIM, w.kernel);
    tracer.end(span);
    std::hint::black_box(plan);
    let plan_stats = registry.stats().delta_since(&before);
    Ok(Prepared {
        batch,
        backend,
        plan_stats,
    })
}

/// Parse the fibers workloads' tensor file into an f64 arena.
pub fn parse_file(path: &Path) -> Result<TensorBatch<f64>, String> {
    let file = File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    read_tensor_batch(file).map_err(|e| format!("cannot parse {}: {e}", path.display()))
}

/// Times `solve_batch` as a span and counts the allocations it makes.
pub struct TracedBackend<'a, S: Scalar> {
    inner: &'a dyn SolveBackend<S>,
    tracer: &'a Tracer,
    allocs: AtomicU64,
}

impl<'a, S: Scalar> TracedBackend<'a, S> {
    pub fn new(inner: &'a dyn SolveBackend<S>, tracer: &'a Tracer) -> Self {
        TracedBackend {
            inner,
            tracer,
            allocs: AtomicU64::new(0),
        }
    }

    /// Allocations made by the last `solve_batch`.
    pub fn allocs(&self) -> u64 {
        self.allocs.load(Ordering::Relaxed)
    }
}

impl<S: Scalar> SolveBackend<S> for TracedBackend<'_, S> {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn solve_batch(
        &self,
        batch: &TensorBatch<S>,
        starts: &[Vec<S>],
        solver: &dyn Solver<S>,
        telemetry: &Telemetry,
    ) -> Result<BatchReport<S>, BackendError> {
        let span = self.tracer.begin("backend.solve_batch");
        let before = alloc::allocations();
        let report = self.inner.solve_batch(batch, starts, solver, telemetry);
        self.allocs
            .store(alloc::allocations() - before, Ordering::Relaxed);
        self.tracer.end(span);
        report
    }
}

/// One run of a workload's pipeline through the library calls.
pub struct LibraryRun<S: Scalar> {
    pub batch: TensorBatch<S>,
    pub report: BatchReport<S>,
    /// Extracted fibers (fibers workloads only).
    pub fibers: Vec<Vec<FiberEstimate>>,
    pub plan_stats: CacheStats,
    pub solve_allocs: u64,
}

/// The fibers workloads' pipeline as the benchmark composes it from the
/// same public calls the CLI's `fibers` command makes, with a span around
/// each, ending in the same per-voxel text.
pub fn fibers_pipeline(
    w: &Workload,
    file: &Path,
    tracer: &Tracer,
) -> Result<LibraryRun<f64>, String> {
    let root = tracer.begin("pipeline");
    let prepared = prepare(w, || parse_file(file), tracer)?;
    let traced = TracedBackend::new(&*prepared.backend, tracer);
    let span = tracer.begin("dwmri.extract_fibers_reported");
    let (fibers, report) = dwmri::extract_fibers_reported(
        &prepared.batch,
        &w.extract_config(),
        &traced,
        &Telemetry::disabled(),
    )
    .map_err(|e| e.to_string())?;
    tracer.end(span);
    std::hint::black_box(render_fibers(&fibers));
    tracer.end(root);
    Ok(LibraryRun {
        batch: prepared.batch,
        report,
        fibers,
        plan_stats: prepared.plan_stats,
        solve_allocs: traced.allocs(),
    })
}

/// The table3-lockstep pipeline: convert the in-memory phantom into the
/// f32 arena, build `CpuSequential`, plan, and solve.
pub fn table3_pipeline(
    w: &Workload,
    input: &Inputs,
    tracer: &Tracer,
) -> Result<LibraryRun<f32>, String> {
    let root = tracer.begin("pipeline");
    let prepared = prepare(w, || Ok(input.tensors.to_f32()), tracer)?;
    let traced = TracedBackend::new(&*prepared.backend, tracer);
    let solver = SsHopm::new(w.shift()).with_policy(w.policy());
    let report = traced
        .solve_batch(
            &prepared.batch,
            &input.starts_f32,
            &solver,
            &Telemetry::disabled(),
        )
        .map_err(|e| e.to_string())?;
    tracer.end(root);
    Ok(LibraryRun {
        batch: prepared.batch,
        report,
        fibers: Vec::new(),
        plan_stats: prepared.plan_stats,
        solve_allocs: traced.allocs(),
    })
}

/// The CLI's per-voxel fiber listing (the formatting share of its wall).
pub fn render_fibers(fibers: &[Vec<FiberEstimate>]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut counts = [0usize; 4];
    for (i, found) in fibers.iter().enumerate() {
        counts[found.len().min(3)] += 1;
        let _ = write!(out, "voxel {i}: {} fiber(s)", found.len());
        for f in found {
            let _ = write!(
                out,
                "  [{:.4} {:.4} {:.4}] (lambda {:.4})",
                f.direction[0], f.direction[1], f.direction[2], f.lambda
            );
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(
        out,
        "summary: {} voxels -> 0 fibers: {}, 1: {}, 2: {}, 3+: {}",
        fibers.len(),
        counts[0],
        counts[1],
        counts[2],
        counts[3]
    );
    out
}

/// The fiber directions of each `voxel` line of the CLI's output.
pub fn parse_cli_fibers(text: &str) -> Vec<Vec<[f64; 3]>> {
    text.lines()
        .filter(|l| l.starts_with("voxel "))
        .map(|l| {
            l.split('[')
                .skip(1)
                .filter_map(|seg| {
                    let v: Vec<f64> = seg
                        .split(']')
                        .next()?
                        .split_whitespace()
                        .filter_map(|t| t.parse().ok())
                        .collect();
                    (v.len() == 3).then(|| [v[0], v[1], v[2]])
                })
                .collect()
        })
        .collect()
}

/// One in-process run of the CLI command; returns its output.
pub fn run_cli(argv: Vec<String>) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    cli::run(argv, &mut out)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_fiber_listing_round_trips() {
        let _g = crate::tests::serial();
        let fibers = vec![
            vec![FiberEstimate {
                direction: [0.6, 0.8, 0.0],
                lambda: 1.25,
                basin_fraction: 1.0,
            }],
            Vec::new(),
        ];
        let text = String::from_utf8(render_fibers(&fibers)).unwrap();
        assert_eq!(
            parse_cli_fibers(&text),
            vec![vec![[0.6, 0.8, 0.0]], Vec::new()]
        );
    }
}
