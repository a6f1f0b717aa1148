//! The CLI subcommand implementations. Each command takes raw argument
//! tokens plus a writer, so everything is unit-testable without a process
//! boundary.

use crate::args::Args;
use crate::{listing, CmdError};
use backend::{
    parse_fault_plan, BackendSpec, CpuParallel, DeviceKind, GpuSimBackend, KernelStrategy,
    ResilientBackend, SolveBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sshopm::{spectra_from_rows, DedupConfig, IterationPolicy, Shift, SolverSpec, SsHopm};
use std::fs::File;
use std::io::{BufWriter, Write};
use symtensor::io::{read_tensor_batch, write_tensor_batch};
use symtensor::TensorBatch;
use telemetry::Telemetry;

type CmdResult = Result<(), CmdError>;

/// Load a tensor file straight into one contiguous [`TensorBatch`] arena.
/// The file format carries a single `(m, n)` header, so every batch is
/// uniform by construction — no shape grouping needed downstream.
fn load_batch(path: &str) -> Result<TensorBatch<f64>, CmdError> {
    let file = File::open(path).map_err(|e| CmdError(format!("cannot open {path}: {e}")))?;
    read_tensor_batch(file).map_err(|e| CmdError(format!("cannot parse {path}: {e}")))
}

fn save_batch(path: &str, batch: &TensorBatch<f64>) -> CmdResult {
    let file = File::create(path).map_err(|e| CmdError(format!("cannot create {path}: {e}")))?;
    let mut w = BufWriter::new(file);
    write_tensor_batch(&mut w, batch).map_err(|e| CmdError(format!("cannot write {path}: {e}")))?;
    w.flush().map_err(|e| CmdError(e.to_string()))
}

/// Parse `--shift`: a policy name or a finite number. A NaN or infinite
/// shift would poison every solve and burn its whole iteration budget, so
/// it is rejected here.
fn parse_shift(s: Option<&str>) -> Result<Shift, CmdError> {
    match s {
        None | Some("convex") => Ok(Shift::Convex),
        Some("concave") => Ok(Shift::Concave),
        Some("adaptive") => Ok(Shift::Adaptive),
        Some(v) => match v.parse::<f64>() {
            Ok(alpha) if alpha.is_finite() => Ok(Shift::Fixed(alpha)),
            Ok(_) => Err(CmdError(format!(
                "invalid --shift {v:?}: a fixed shift must be a finite number"
            ))),
            Err(_) => Err(CmdError(format!("invalid --shift {v:?}"))),
        },
    }
}

/// Parse `--starts` with the command's default. Every solve needs at
/// least one starting vector, so 0 is rejected here, naming the flag.
fn parse_starts(args: &Args, default: usize) -> Result<usize, CmdError> {
    match args.get_parsed("starts", default)? {
        0 => Err(CmdError(
            "invalid --starts 0: need at least one starting vector".into(),
        )),
        n => Ok(n),
    }
}

/// Parse `--noise` (default 0), the phantom's noise amplitude. A NaN or
/// infinite amplitude would write a file of non-finite entries, which
/// `info` and `fibers` refuse, and a negative one has no meaning, so both
/// are rejected here, before any file is written.
fn parse_noise(args: &Args) -> Result<f64, CmdError> {
    let amplitude: f64 = args.get_parsed("noise", 0.0)?;
    if amplitude.is_finite() && amplitude >= 0.0 {
        return Ok(amplitude);
    }
    Err(CmdError(format!(
        "invalid --noise {:?}: the noise amplitude must be a finite number >= 0",
        args.get("noise").unwrap_or_default()
    )))
}

/// Parse `--solver` (default `sshopm`) into a [`SolverSpec`]; the parse
/// error already names the valid alternatives.
fn parse_solver(args: &Args) -> Result<SolverSpec, CmdError> {
    Ok(SolverSpec::parse(args.get("solver").unwrap_or("sshopm"))?)
}

/// Reject CPU-only solvers on GPU-simulated backends with a clean error,
/// mirroring [`gpu_shift`]: the kernel model stages only the fixed-shift
/// SS-HOPM iteration on-device.
fn gpu_solver(solver: SolverSpec) -> Result<(), CmdError> {
    match solver {
        SolverSpec::SsHopm { .. } => Ok(()),
        other => Err(CmdError(format!(
            "--solver {other} is CPU-only: gpusim backends stage only the fixed-shift \
             sshopm iteration on-device; use --backend cpu for geap/qrst"
        ))),
    }
}

/// Streams per device when `--pipeline` asks for overlap without
/// `--streams`: classic double buffering.
const DEFAULT_STREAMS: usize = 2;

/// Parse `--backend` (default `cpu`) and `--kernel` (default `batched`)
/// into a built [`SolveBackend`] plus its parsed spec; the spec alone
/// fixes the topology, schedule and label ([`BackendSpec::build_gpusim`]).
/// When any of `--faults SPEC`, `--retry N` or `--failover` is present
/// the backend is wrapped in a [`ResilientBackend`] (gpusim specs only).
/// `--pipeline` upgrades a `gpusim` spec to its `pipelined` form and a
/// one-stream `cluster` spec to [`DEFAULT_STREAMS`]. An explicit
/// `--streams N` overrides the streams per device everywhere;
/// `--chunk-tensors N` resizes the chunks of pipelined and cluster
/// schedules.
fn parse_backend(args: &Args) -> Result<(BackendSpec, Box<dyn SolveBackend<f64>>), CmdError> {
    let mut spec: BackendSpec = args.get("backend").unwrap_or("cpu").parse()?;
    let strategy = match args.get("kernel") {
        None => KernelStrategy::Batched,
        Some(k) => KernelStrategy::parse(k)?,
    };
    let streams: Option<usize> = match args.get("streams") {
        Some(_) => Some(args.get_parsed("streams", DEFAULT_STREAMS)?),
        None => None,
    };
    let chunk_tensors: Option<usize> = match args.get("chunk-tensors") {
        Some(_) => Some(args.get_parsed("chunk-tensors", 1)?),
        None => None,
    };
    if args.flag("pipeline") {
        spec = match spec {
            BackendSpec::GpuSim { device, devices } => BackendSpec::Pipelined { device, devices },
            BackendSpec::Cluster {
                device,
                hosts,
                devices,
                streams: 1,
            } => BackendSpec::Cluster {
                device,
                hosts,
                devices,
                streams: DEFAULT_STREAMS,
            },
            BackendSpec::Cpu { .. } => {
                return Err(CmdError(format!(
                    "--pipeline requires a gpusim backend, got {spec}: CPU backends have no \
                     streams to overlap"
                )));
            }
            other => other,
        };
    }
    let resilient =
        args.get("faults").is_some() || args.get("retry").is_some() || args.flag("failover");
    let backend: Box<dyn SolveBackend<f64>> = if resilient {
        let plan = parse_fault_plan(args.get("faults").unwrap_or(""))?;
        let mut built = ResilientBackend::from_spec(&spec, strategy, plan)?
            .with_retries(args.get_parsed("retry", 2)?)
            .with_failover(args.flag("failover"));
        if let Some(k) = streams {
            built = built.with_streams(k)?;
        }
        Box::new(built)
    } else if spec.is_gpu() {
        let mut built = spec.build_gpusim(strategy)?;
        if let Some(k) = streams {
            built = built.with_streams(k)?;
        }
        if let Some(chunk) = chunk_tensors {
            built = built.with_chunk_tensors(chunk)?;
        }
        Box::new(built)
    } else {
        spec.build::<f64>(strategy)?
    };
    Ok((spec, backend))
}

/// Where and how to write the unified [`telemetry::RunReport`]:
/// `report`'s `--format`/`--out`, or the `--report-format F`/
/// `--report-out PATH` of `solve` and `fibers`. Commands build it with
/// their other arguments, so a bad format fails before any work is done.
struct ReportRequest<'a> {
    path: Option<&'a str>,
    format: &'a str,
    render: fn(&telemetry::RunReport) -> String,
}

impl<'a> ReportRequest<'a> {
    /// `format` is `text` (human-readable summary), `json` (pretty,
    /// schema-versioned), or `prom` (Prometheus text exposition).
    fn new(format: &'a str, path: Option<&'a str>) -> Result<Self, CmdError> {
        let render = match format {
            "text" => telemetry::RunReport::render_text,
            "json" => telemetry::RunReport::to_json_pretty,
            "prom" | "prometheus" => telemetry::RunReport::to_prometheus,
            other => {
                return Err(CmdError(format!(
                    "invalid report format {other:?}: expected text, json, or prom"
                )))
            }
        };
        Ok(ReportRequest {
            path,
            format,
            render,
        })
    }

    /// The report `solve` or `fibers` was asked for (default format
    /// `text`), or `None` when neither option is present.
    fn from_options(args: &'a Args) -> Result<Option<Self>, CmdError> {
        let path = args.get("report-out");
        match (args.get("report-format"), path) {
            (None, None) => Ok(None),
            (format, _) => Self::new(format.unwrap_or("text"), path).map(Some),
        }
    }

    /// Render `run` and write it to the path, confirming on `out`, or
    /// append it to `out` when there is no path.
    fn write(&self, run: &telemetry::RunReport, out: &mut dyn Write) -> CmdResult {
        let mut rendered = (self.render)(run);
        if !rendered.ends_with('\n') {
            rendered.push('\n');
        }
        match self.path {
            Some(p) => {
                std::fs::write(p, &rendered)
                    .map_err(|e| CmdError(format!("cannot write {p}: {e}")))?;
                writeln!(out, "wrote run report ({}) to {p}", self.format)?;
            }
            None => write!(out, "{rendered}")?,
        }
        Ok(())
    }
}

/// Validate/adjust the shift for a GPU-simulated backend, which only
/// supports fixed shifts: an *explicit* non-numeric `--shift` is a clean
/// error; with no explicit shift the paper's `α = 0` is used.
fn gpu_shift(explicit: Option<&str>, shift: Shift) -> Result<Shift, CmdError> {
    match (explicit, shift) {
        (_, Shift::Fixed(_)) => Ok(shift),
        (None, _) => Ok(Shift::Fixed(0.0)),
        (Some(s), _) => Err(CmdError(format!(
            "--shift {s} is CPU-only: gpusim backends support only fixed numeric shifts \
             (e.g. --shift 0); use --backend cpu for adaptive/convex shifts"
        ))),
    }
}

/// `random <m> <n> <count> --out FILE [--seed S]`
pub fn random(argv: Vec<String>, out: &mut dyn Write) -> Result<(), String> {
    inner_random(argv, out).map_err(|e| e.0)
}

fn inner_random(argv: Vec<String>, out: &mut dyn Write) -> CmdResult {
    let args = Args::parse(argv, &["out", "seed"], &[])?;
    let m: usize = args
        .positional(0, "m")?
        .parse()
        .map_err(|_| CmdError("invalid <m>".into()))?;
    let n: usize = args
        .positional(1, "n")?
        .parse()
        .map_err(|_| CmdError("invalid <n>".into()))?;
    let count: usize = args
        .positional(2, "count")?
        .parse()
        .map_err(|_| CmdError("invalid <count>".into()))?;
    let path = args
        .get("out")
        .ok_or_else(|| CmdError("--out FILE is required".into()))?;
    let seed: u64 = args.get_parsed("seed", 0)?;

    let mut rng = StdRng::seed_from_u64(seed);
    let tensors = TensorBatch::<f64>::random(m, n, count, &mut rng)
        .map_err(|e| CmdError(format!("invalid shape [{m},{n}]: {e}")))?;
    save_batch(path, &tensors)?;
    writeln!(out, "wrote {count} random [{m},{n}] tensors to {path}")?;
    Ok(())
}

/// `info <file>`
pub fn info(argv: Vec<String>, out: &mut dyn Write) -> Result<(), String> {
    inner_info(argv, out).map_err(|e| e.0)
}

fn inner_info(argv: Vec<String>, out: &mut dyn Write) -> CmdResult {
    let args = Args::parse(argv, &[], &[])?;
    let path = args.positional(0, "file")?;
    let tensors = load_batch(path)?;
    if tensors.is_empty() {
        writeln!(out, "{path}: empty tensor file")?;
        return Ok(());
    }
    let (m, n) = (tensors.order(), tensors.dim());
    writeln!(
        out,
        "{path}: {} tensors, order {m}, dimension {n}, {} unique entries each ({} total per tensor)",
        tensors.len(),
        tensors.stride(),
        dense_entries(m, n),
    )?;
    let norms: Vec<f64> = tensors.iter().map(|t| t.frobenius_norm()).collect();
    let min = norms.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = norms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean = norms.iter().sum::<f64>() / norms.len() as f64;
    writeln!(
        out,
        "Frobenius norms: min {min:.4}  mean {mean:.4}  max {max:.4}"
    )?;
    Ok(())
}

/// `n^m`, the unpacked tensor's entry count, or `over 2^64` on overflow.
fn dense_entries(m: usize, n: usize) -> String {
    u32::try_from(m)
        .ok()
        .and_then(|m| (n as u64).checked_pow(m))
        .map_or_else(|| "over 2^64".to_string(), |e| e.to_string())
}

/// `solve <file> [--backend B] [--kernel K] [--starts N] [--shift ...]
/// [--tol T] [--refine] [--all]`
pub fn solve(argv: Vec<String>, out: &mut dyn Write) -> Result<(), String> {
    solve_instrumented(argv, out, &Telemetry::disabled())
}

/// [`solve`] with a live telemetry pipeline: the backend batch records
/// progress spans/counters, plus per-tensor eigenpair/failure counts.
pub fn solve_instrumented(
    argv: Vec<String>,
    out: &mut dyn Write,
    telemetry: &Telemetry,
) -> Result<(), String> {
    inner_solve(argv, out, telemetry).map_err(|e| e.0)
}

fn inner_solve(argv: Vec<String>, out: &mut dyn Write, telemetry: &Telemetry) -> CmdResult {
    let args = Args::parse(
        argv,
        &[
            "starts",
            "shift",
            "solver",
            "tol",
            "seed",
            "backend",
            "kernel",
            "faults",
            "retry",
            "streams",
            "chunk-tensors",
            "report-out",
            "report-format",
        ],
        &["refine", "all", "failover", "pipeline"],
    )?;
    let path = args.positional(0, "file")?;
    let starts_count = parse_starts(&args, 32)?;
    let tol: f64 = args.get_parsed("tol", 1e-12)?;
    let mut shift = parse_shift(args.get("shift"))?;
    let solver_spec = parse_solver(&args)?;
    let refine = args.flag("refine");
    let show_all = args.flag("all");
    let report_request = ReportRequest::from_options(&args)?;
    let (spec, backend) = parse_backend(&args)?;
    if spec.is_gpu() {
        shift = gpu_shift(args.get("shift"), shift)?;
        gpu_solver(solver_spec)?;
    }

    let tensors = load_batch(path)?;
    let _cmd_span = telemetry.span("cli.solve");
    // The same Converge policy SsHopm::new().with_tolerance() produced
    // before solver selection existed, so the default spec is bitwise
    // identical to the pre-trait path.
    let solver = solver_spec.build::<f64>(
        shift,
        IterationPolicy::Converge {
            tol,
            max_iters: 1000,
        },
    );

    // The file format guarantees one shape per batch, so the whole file is
    // a single homogeneous arena: one batched solve through the backend.
    let n = tensors.dim();
    let starts = if n == 3 {
        sshopm::starts::fibonacci_sphere::<f64>(starts_count)
    } else {
        let mut rng = StdRng::seed_from_u64(args.get_parsed("seed", 0)?);
        sshopm::starts::random_gaussian_starts::<f64, _>(n, starts_count, &mut rng)
    };
    let (report, run) = backend.solve_batch_with_report(&tensors, &starts, &*solver, telemetry)?;
    telemetry.counter("solve.tensors", tensors.len() as u64);
    let mut summaries = vec![run.headline()];
    if !report.fault_log.injected.is_empty() || report.fault_log.degraded {
        summaries.push(report.fault_log.summary());
    }
    if args.flag("pipeline") {
        if let Some(timeline) = &report.timeline {
            summaries.push(timeline.summary());
        }
    }
    let spectra = spectra_from_rows(
        &tensors,
        &report.results,
        &DedupConfig::default(),
        1e-5,
        telemetry,
        |spectrum| spectrum,
    );

    for (i, (a, spectrum)) in tensors.iter().zip(&spectra).enumerate() {
        writeln!(
            out,
            "tensor {i}: {} distinct eigenpairs from {} starts ({} failures)",
            spectrum.entries.len(),
            spectrum.total_starts,
            spectrum.failures
        )?;
        for entry in &spectrum.entries {
            let mut pair = entry.pair.clone();
            let mut note = String::new();
            if refine {
                let refined = sshopm::refine(&a.to_owned(), &pair, 4, 1e-14);
                note = format!(
                    " (refined {:.1e} -> {:.1e})",
                    refined.residual_before, refined.residual_after
                );
                pair = refined.pair;
            }
            writeln!(
                out,
                "  lambda {:>13.8}  x {:?}  {:?}  basin {}/{}{}",
                pair.lambda,
                pair.x
                    .iter()
                    .map(|v| (v * 1e6).round() / 1e6)
                    .collect::<Vec<_>>(),
                entry.stability,
                entry.basin_count,
                spectrum.total_starts,
                note
            )?;
            if !show_all && entry.stability == sshopm::Stability::PositiveStable {
                // With a convex shift, minima only appear via lucky saddle
                // hits; keep output focused unless --all.
                continue;
            }
        }
    }
    for summary in &summaries {
        writeln!(out, "{summary}")?;
    }
    if let Some(request) = report_request {
        request.write(&run, out)?;
    }
    Ok(())
}

/// `phantom --out FILE [--width W] [--height H] [--noise X] [--seed S]`
pub fn phantom(argv: Vec<String>, out: &mut dyn Write) -> Result<(), String> {
    inner_phantom(argv, out).map_err(|e| e.0)
}

fn inner_phantom(argv: Vec<String>, out: &mut dyn Write) -> CmdResult {
    let args = Args::parse(argv, &["out", "width", "height", "noise", "seed"], &[])?;
    let path = args
        .get("out")
        .ok_or_else(|| CmdError("--out FILE is required".into()))?;
    let amplitude = parse_noise(&args)?;
    let config = dwmri::PhantomConfig {
        width: args.get_parsed("width", 32)?,
        height: args.get_parsed("height", 32)?,
        noise: if amplitude == 0.0 {
            dwmri::NoiseModel::None
        } else {
            dwmri::NoiseModel::Multiplicative { amplitude }
        },
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(args.get_parsed("seed", 0)?);
    let phantom = dwmri::Phantom::generate(config, &mut rng);
    save_batch(path, &phantom.tensor_batch())?;
    writeln!(
        out,
        "wrote {} phantom voxels ({} single-fiber, {} crossing) to {path}",
        phantom.len(),
        phantom.count_with_fibers(1),
        phantom.count_with_fibers(2)
    )?;
    Ok(())
}

/// `fibers <file> [--backend B] [--kernel K] [--shift ...] [--starts N]
/// [--max-fibers K]`
pub fn fibers(argv: Vec<String>, out: &mut dyn Write) -> Result<(), String> {
    inner_fibers(argv, out).map_err(|e| e.0)
}

fn inner_fibers(argv: Vec<String>, out: &mut dyn Write) -> CmdResult {
    let args = Args::parse(
        argv,
        &[
            "starts",
            "max-fibers",
            "shift",
            "solver",
            "backend",
            "kernel",
            "faults",
            "retry",
            "streams",
            "chunk-tensors",
            "report-out",
            "report-format",
        ],
        &["failover", "pipeline"],
    )?;
    let path = args.positional(0, "file")?;
    let report_request = ReportRequest::from_options(&args)?;
    let (spec, backend) = parse_backend(&args)?;
    let mut shift = match args.get("shift") {
        None => dwmri::ExtractConfig::default().shift,
        Some(_) => parse_shift(args.get("shift"))?,
    };
    let solver = parse_solver(&args)?;
    if spec.is_gpu() {
        shift = gpu_shift(args.get("shift"), shift)?;
        gpu_solver(solver)?;
    }
    let cfg = dwmri::ExtractConfig {
        num_starts: parse_starts(&args, 64)?,
        max_fibers: args.get_parsed("max-fibers", 3)?,
        shift,
        solver,
        ..Default::default()
    };
    let tensors = load_batch(path)?;
    let telemetry = Telemetry::disabled();
    // Only a requested report keeps every voxel's pairs: it walks them.
    // Otherwise each voxel's row becomes its fibers as it is solved.
    let (all_fibers, report) = match report_request {
        Some(_) => {
            let (fibers, report) =
                dwmri::extract_fibers_reported(&tensors, &cfg, &*backend, &telemetry)?;
            (fibers, Some(report))
        }
        None => (
            dwmri::extract_fibers_with(&tensors, &cfg, &*backend, &telemetry)?,
            None,
        ),
    };
    let mut counts = [0usize; 4];
    // One write per voxel; the whole listing is never held in memory.
    let mut line = String::new();
    for (i, fibers) in all_fibers.iter().enumerate() {
        counts[fibers.len().min(3)] += 1;
        listing::voxel_line(&mut line, i, fibers)?;
        out.write_all(line.as_bytes())?;
    }
    writeln!(
        out,
        "summary: {} voxels -> 0 fibers: {}, 1: {}, 2: {}, 3+: {}",
        tensors.len(),
        counts[0],
        counts[1],
        counts[2],
        counts[3]
    )?;
    if let Some((request, report)) = report_request.zip(report) {
        request.write(&report.run_report(), out)?;
    }
    Ok(())
}

/// `decompose <file> [--terms K] [--starts N] [--tol T]`
pub fn decompose(argv: Vec<String>, out: &mut dyn Write) -> Result<(), String> {
    inner_decompose(argv, out).map_err(|e| e.0)
}

fn inner_decompose(argv: Vec<String>, out: &mut dyn Write) -> CmdResult {
    let args = Args::parse(argv, &["terms", "starts", "tol"], &[])?;
    let path = args.positional(0, "file")?;
    let terms: usize = args.get_parsed("terms", 3)?;
    let starts = parse_starts(&args, 48)?;
    let tol: f64 = args.get_parsed("tol", 1e-8)?;
    let tensors = load_batch(path)?;
    for (i, a) in tensors.iter().enumerate() {
        let cp = sshopm::decompose(&a.to_owned(), terms, starts, tol);
        writeln!(
            out,
            "tensor {i}: {} rank-one term(s), relative residual {:.3e}",
            cp.terms.len(),
            cp.relative_residual()
        )?;
        for (r, t) in cp.terms.iter().enumerate() {
            writeln!(
                out,
                "  term {r}: weight {:>12.6}, v = {:?}, residual {:.3e}",
                t.weight,
                t.vector
                    .iter()
                    .map(|v| (v * 1e4).round() / 1e4)
                    .collect::<Vec<_>>(),
                t.residual_norm
            )?;
        }
    }
    Ok(())
}

/// `tract <file> --width W [--height H] [--starts N] [--seeds K]`
pub fn tract(argv: Vec<String>, out: &mut dyn Write) -> Result<(), String> {
    inner_tract(argv, out).map_err(|e| e.0)
}

fn inner_tract(argv: Vec<String>, out: &mut dyn Write) -> CmdResult {
    let args = Args::parse(argv, &["width", "height", "starts", "seeds"], &[])?;
    let path = args.positional(0, "file")?;
    let width: usize = args.get_parsed("width", 0)?;
    if width == 0 {
        return Err(CmdError(
            "--width W is required (grid layout of the file)".into(),
        ));
    }
    let starts = parse_starts(&args, 64)?;
    let num_seeds: usize = args.get_parsed("seeds", 5)?;
    // The height defaults to the file's row count, known only once read.
    let height: Option<usize> = match args.get("height") {
        Some(_) => Some(args.get_parsed("height", 0)?),
        None => None,
    };
    let tensors = load_batch(path)?;
    if tensors.len() % width != 0 {
        return Err(CmdError(format!(
            "{} tensors do not tile a grid of width {width}",
            tensors.len()
        )));
    }
    let height = height.unwrap_or(tensors.len() / width);
    if width.checked_mul(height) != Some(tensors.len()) {
        return Err(CmdError(format!(
            "grid {width}x{height} != {} tensors",
            tensors.len()
        )));
    }

    let cfg = dwmri::ExtractConfig {
        num_starts: starts,
        ..Default::default()
    };
    // The CLI's default kernel: the convex-shift extraction runs in lanes.
    let backend = CpuParallel::new(0, KernelStrategy::Batched);
    let fibers = dwmri::extract_fibers_with(&tensors, &cfg, &backend, &Telemetry::disabled())?;
    let field = dwmri::FiberField::new(width, height, fibers)?;

    // Evenly spaced seeds along the left edge.
    let tcfg = dwmri::TractConfig::default();
    writeln!(
        out,
        "tracking {num_seeds} seeds over a {width}x{height} field:"
    )?;
    for s in 0..num_seeds {
        let y = (s as f64 + 0.5) * height as f64 / num_seeds as f64;
        match dwmri::trace(&field, (0.5, y), &tcfg) {
            Some(stream) => writeln!(
                out,
                "  seed (0.5, {y:.1}): length {:.1} voxels, {} points, stops {:?}/{:?}",
                stream.length(),
                stream.points.len(),
                stream.stop_backward,
                stream.stop_forward
            )?,
            None => writeln!(out, "  seed (0.5, {y:.1}): no fibers at seed")?,
        }
    }
    Ok(())
}

/// Parse `--variant` (the GPU-side kernel choice) into a strategy;
/// `unrolled` (the default) and `tape` both mean straight-line kernels.
fn parse_variant(s: Option<&str>) -> Result<KernelStrategy, CmdError> {
    match s {
        None | Some("unrolled" | "tape") => Ok(KernelStrategy::Tape),
        Some("general") => Ok(KernelStrategy::General),
        Some(v) => Err(CmdError(format!("invalid --variant {v:?}"))),
    }
}

/// `gpu <file> [--starts N] [--variant V] [--devices K] [--iters I]`
pub fn gpu(argv: Vec<String>, out: &mut dyn Write) -> Result<(), String> {
    gpu_instrumented(argv, out, &Telemetry::disabled())
}

/// [`gpu`] with a live telemetry pipeline: the backend times the launch
/// and emits a profile-snapshot event per device slice.
pub fn gpu_instrumented(
    argv: Vec<String>,
    out: &mut dyn Write,
    telemetry: &Telemetry,
) -> Result<(), String> {
    inner_gpu(argv, out, telemetry).map_err(|e| e.0)
}

fn inner_gpu(argv: Vec<String>, out: &mut dyn Write, telemetry: &Telemetry) -> CmdResult {
    let args = Args::parse(
        argv,
        &["starts", "variant", "devices", "iters", "seed"],
        &[],
    )?;
    let path = args.positional(0, "file")?;
    let starts_count = parse_starts(&args, 128)?;
    let devices: usize = args.get_parsed("devices", 1)?;
    let iters: usize = args.get_parsed("iters", 20)?;
    let strategy = parse_variant(args.get("variant"))?;

    let tensors64 = load_batch(path)?;
    if tensors64.is_empty() {
        return Err(CmdError("tensor file is empty".into()));
    }
    let tensors = tensors64.to_f32();
    let (m, n) = (tensors.order(), tensors.dim());
    let mut rng = StdRng::seed_from_u64(args.get_parsed("seed", 0)?);
    let starts = sshopm::starts::random_uniform_starts::<f32, _>(n, starts_count, &mut rng);

    let backend = GpuSimBackend::on_host(
        vec![gpusim::DeviceSpec::tesla_c2050(); devices],
        gpusim::TransferModel::pcie2(),
        strategy,
    )?;
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(iters));
    let _launch_span = telemetry.span("cli.gpu");
    let report = backend.solve_batch(&tensors, &starts, &solver, telemetry)?;
    if strategy != KernelStrategy::General && report.kernel == gpusim::GpuVariant::General.name() {
        writeln!(
            out,
            "note: no {} kernel for shape ({m},{n}); falling back to {}",
            args.get("variant").unwrap_or("unrolled"),
            report.kernel
        )?;
    }
    writeln!(
        out,
        "{} tensors x {} starts x {} iterations ({} kernel) on {}x Tesla C2050 (model)",
        tensors.len(),
        starts_count,
        iters,
        report.kernel,
        devices
    )?;
    for p in &report.profiles {
        writeln!(
            out,
            "  device {}: {} tensors, occupancy {} blocks/SM ({}), kernel {:.3} ms + transfer {:.3} ms",
            p.device_index,
            p.num_tensors,
            p.snapshot.blocks_per_sm,
            p.snapshot.occupancy_limiter,
            p.snapshot.seconds * 1e3,
            p.transfer_seconds * 1e3,
        )?;
    }
    writeln!(
        out,
        "estimated wall-clock {:.3} ms, {:.1} GFLOP/s aggregate",
        report.seconds * 1e3,
        report.gflops()
    )?;
    Ok(())
}

/// `profile [file] [--tensors T] [--m M] [--n N] [--starts N]
/// [--variant V] [--iters I] [--device D] [--seed S] [--pipeline]
/// [--streams K]`
///
/// Runs one simulated kernel launch through a [`GpuSimBackend`] and dumps
/// the full profile snapshot — counter breakdown, occupancy, divergence
/// and coalescing statistics, timing components — as pretty JSON. Without
/// a tensor file it profiles a synthetic random workload. With
/// `--pipeline` the launch runs as a `pipelined` spec instead and the
/// resolved event-timeline summary (makespan vs serial, overlap saved) is
/// appended after the JSON.
pub fn profile(
    argv: Vec<String>,
    out: &mut dyn Write,
    telemetry: &Telemetry,
) -> Result<(), String> {
    inner_profile(argv, out, telemetry).map_err(|e| e.0)
}

fn inner_profile(argv: Vec<String>, out: &mut dyn Write, telemetry: &Telemetry) -> CmdResult {
    let args = Args::parse(
        argv,
        &[
            "tensors", "m", "n", "starts", "variant", "iters", "device", "seed", "streams",
        ],
        &["pipeline"],
    )?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let tensors: TensorBatch<f32> = match args.positional(0, "file").ok() {
        Some(path) => {
            let loaded = load_batch(path)?;
            if loaded.is_empty() {
                return Err(CmdError("tensor file is empty".into()));
            }
            loaded.to_f32()
        }
        None => {
            let m: usize = args.get_parsed("m", 4)?;
            let n: usize = args.get_parsed("n", 3)?;
            let count: usize = args.get_parsed("tensors", 256)?;
            TensorBatch::<f64>::random(m, n, count, &mut rng)
                .map_err(|e| CmdError(format!("invalid shape [{m},{n}]: {e}")))?
                .to_f32()
        }
    };
    let n = tensors.dim();
    let strategy = parse_variant(args.get("variant"))?;
    let device = match args.get("device") {
        None | Some("c2050") => DeviceKind::TeslaC2050,
        Some("c1060") => DeviceKind::TeslaC1060,
        Some("gtx580") => DeviceKind::Gtx580,
        Some(v) => return Err(CmdError(format!("invalid --device {v:?}"))),
    };
    let starts_count = parse_starts(&args, 128)?;
    let iters: usize = args.get_parsed("iters", 20)?;
    let starts = sshopm::starts::random_uniform_starts::<f32, _>(n, starts_count, &mut rng);

    let backend = if args.flag("pipeline") {
        BackendSpec::Pipelined { device, devices: 1 }
            .build_gpusim(strategy)?
            .with_streams(args.get_parsed("streams", DEFAULT_STREAMS)?)?
    } else {
        GpuSimBackend::new(device.spec(), strategy)
    };
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(iters));
    let _span = telemetry.span("cli.profile");
    let report = backend.solve_batch(&tensors, &starts, &solver, telemetry)?;
    writeln!(out, "{}", report.profiles[0].snapshot.to_json_pretty())?;
    // Only pipelined launches have a resolved event timeline; the plain
    // profile output stays pure JSON.
    if let Some(timeline) = &report.timeline {
        writeln!(out, "{}", timeline.summary())?;
    }
    Ok(())
}

/// `report [file] [--tensors T] [--m M] [--n N] [--starts N] [--iters I]
/// [--seed S] [--shift F] [--backend B] [--kernel K] [--faults SPEC]
/// [--retry N] [--failover] [--pipeline] [--streams K]
/// [--format text|json|prom] [--out PATH]`
///
/// Runs one batched solve through any execution backend and emits the
/// unified, schema-versioned [`telemetry::RunReport`]: throughput and
/// convergence, fault/retry/failover rates, per-chunk/per-stream/
/// per-device latency quantiles (p50/p90/p99), and per-device occupancy.
/// Without a tensor file it reports on a synthetic random workload.
/// `--format` picks the renderer (default `text`); `--out` writes the
/// report to a file instead of stdout.
pub fn report(argv: Vec<String>, out: &mut dyn Write) -> Result<(), String> {
    report_instrumented(argv, out, &Telemetry::disabled())
}

/// [`report`] with a live telemetry pipeline: counters, gauges, and
/// histograms recorded during the run are folded into the emitted report.
pub fn report_instrumented(
    argv: Vec<String>,
    out: &mut dyn Write,
    telemetry: &Telemetry,
) -> Result<(), String> {
    inner_report(argv, out, telemetry).map_err(|e| e.0)
}

fn inner_report(argv: Vec<String>, out: &mut dyn Write, telemetry: &Telemetry) -> CmdResult {
    let args = Args::parse(
        argv,
        &[
            "tensors",
            "m",
            "n",
            "starts",
            "iters",
            "seed",
            "shift",
            "solver",
            "backend",
            "kernel",
            "faults",
            "retry",
            "streams",
            "chunk-tensors",
            "format",
            "out",
        ],
        &["failover", "pipeline"],
    )?;
    let request = ReportRequest::new(args.get("format").unwrap_or("text"), args.get("out"))?;
    let seed: u64 = args.get_parsed("seed", 0)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let tensors: TensorBatch<f64> = match args.positional(0, "file").ok() {
        Some(path) => load_batch(path)?,
        None => {
            let m: usize = args.get_parsed("m", 4)?;
            let n: usize = args.get_parsed("n", 3)?;
            let count: usize = args.get_parsed("tensors", 64)?;
            TensorBatch::<f64>::random(m, n, count, &mut rng)
                .map_err(|e| CmdError(format!("invalid shape [{m},{n}]: {e}")))?
        }
    };
    let (spec, backend) = parse_backend(&args)?;
    let mut shift = parse_shift(args.get("shift"))?;
    let solver_spec = parse_solver(&args)?;
    if spec.is_gpu() {
        shift = gpu_shift(args.get("shift"), shift)?;
        gpu_solver(solver_spec)?;
    }
    let starts_count = parse_starts(&args, 32)?;
    let iters: usize = args.get_parsed("iters", 20)?;
    let n = tensors.dim();
    let starts = if n == 3 {
        sshopm::starts::fibonacci_sphere::<f64>(starts_count)
    } else {
        sshopm::starts::random_gaussian_starts::<f64, _>(n, starts_count, &mut rng)
    };
    let solver = solver_spec.build::<f64>(shift, IterationPolicy::Fixed(iters));
    let _span = telemetry.span("cli.report");
    let (_batch, run) = backend.solve_batch_with_report(&tensors, &starts, &*solver, telemetry)?;
    request.write(&run, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> String {
        let mut p = std::env::temp_dir();
        p.push(format!("tensor-eig-cli-test-{}-{name}", std::process::id()));
        p.to_string_lossy().into_owned()
    }

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn random_then_info_round_trip() {
        let path = tmp("rt.txt");
        let mut out = Vec::new();
        random(
            sv(&["4", "3", "5", "--out", &path, "--seed", "9"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("5 random [4,3] tensors"));

        let mut out = Vec::new();
        info(sv(&[&path]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("5 tensors, order 4, dimension 3, 15 unique"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_prints_eigenpairs_with_small_residuals() {
        let path = tmp("solve.txt");
        let mut out = Vec::new();
        random(
            sv(&["4", "3", "2", "--out", &path, "--seed", "1"]),
            &mut out,
        )
        .unwrap();
        let mut out = Vec::new();
        solve(sv(&[&path, "--starts", "16", "--refine"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("tensor 0:"));
        assert!(text.contains("tensor 1:"));
        assert!(text.contains("lambda"));
        assert!(text.contains("refined"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn phantom_then_fibers() {
        let path = tmp("ph.txt");
        let mut out = Vec::new();
        phantom(
            sv(&["--out", &path, "--width", "3", "--height", "3"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("9 phantom voxels"));

        let mut out = Vec::new();
        fibers(sv(&[&path, "--starts", "32"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("voxel 0:"));
        assert!(text.contains("summary: 9 voxels"));
        // A 3x3 default phantom has single- and two-fiber voxels.
        assert!(!text.contains("0 fibers: 9"));
        std::fs::remove_file(&path).ok();
    }

    /// A NaN, infinite or negative `--noise` is an error naming the flag
    /// and the value, and writes no file; 0 and 0.02 write a phantom
    /// file as before: 0 the noise-free default, 0.02 a noisy one that
    /// parses.
    #[test]
    fn phantom_rejects_non_finite_and_negative_noise() {
        let grid = ["--width", "2", "--height", "2"];
        let write = |name: &str, noise: Option<&str>| {
            let path = tmp(name);
            std::fs::remove_file(&path).ok();
            let mut argv = sv(&["--out", &path]);
            argv.extend(sv(&grid));
            argv.extend(noise.map(|v| sv(&["--noise", v])).unwrap_or_default());
            (path.clone(), phantom(argv, &mut Vec::new()))
        };
        for bad in ["nan", "inf", "-1"] {
            let (path, res) = write(&format!("noise{bad}.txt"), Some(bad));
            let err = res.unwrap_err();
            assert!(err.contains(&format!("--noise \"{bad}\"")), "{err}");
            assert!(!std::path::Path::new(&path).exists(), "--noise {bad}");
        }
        let read = |path: &str| std::fs::read_to_string(path).unwrap();
        let (default, res) = write("noise-default.txt", None);
        res.unwrap();
        let (zero, res) = write("noise0.txt", Some("0"));
        res.unwrap();
        let (noisy, res) = write("noise002.txt", Some("0.02"));
        res.unwrap();
        assert_eq!(read(&zero), read(&default));
        assert_ne!(read(&noisy), read(&default));
        assert_eq!(load_batch(&noisy).unwrap().len(), 4);
        for path in [default, zero, noisy] {
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn gpu_command_reports_model() {
        let path = tmp("gpu.txt");
        let mut out = Vec::new();
        random(sv(&["4", "3", "8", "--out", &path]), &mut out).unwrap();
        let mut out = Vec::new();
        gpu(
            sv(&[&path, "--starts", "32", "--devices", "2", "--iters", "5"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("2x Tesla C2050"));
        assert!(text.contains("GFLOP/s aggregate"));
        assert!(text.contains("device 0:"));
        assert!(text.contains("device 1:"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gpu_falls_back_for_ungenerated_unrolled_shape() {
        // (5, 9) has no compiled kernel: the default (unrolled) falls back
        // to the general variant with a note.
        let path = tmp("gpu59.txt");
        let mut out = Vec::new();
        random(sv(&["5", "9", "2", "--out", &path]), &mut out).unwrap();
        let mut out = Vec::new();
        gpu(sv(&[&path, "--iters", "2", "--starts", "8"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("note: no unrolled kernel for shape (5,9); falling back to general"),
            "{text}"
        );
        assert!(text.contains("(general kernel)"), "{text}");
        std::fs::remove_file(&path).ok();

        // Order 1 has no compiled kernel either.
        let path = tmp("gpu13.txt");
        let mut out = Vec::new();
        random(sv(&["1", "3", "2", "--out", &path]), &mut out).unwrap();
        let mut out = Vec::new();
        gpu(sv(&[&path, "--iters", "2", "--starts", "8"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("note: no unrolled kernel for shape (1,3); falling back to general"),
            "{text}"
        );
        assert!(text.contains("(general kernel)"), "{text}");
        // Asking for the general variant directly emits no note.
        let mut out = Vec::new();
        gpu(
            sv(&[
                &path,
                "--variant",
                "general",
                "--iters",
                "2",
                "--starts",
                "8",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(!text.contains("falling back"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tract_traces_over_a_phantom_grid() {
        let path = tmp("tract.txt");
        let mut out = Vec::new();
        phantom(
            sv(&["--out", &path, "--width", "6", "--height", "4"]),
            &mut out,
        )
        .unwrap();
        let mut out = Vec::new();
        tract(
            sv(&[&path, "--width", "6", "--starts", "32", "--seeds", "2"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("tracking 2 seeds over a 6x4 field"), "{text}");
        assert!(text.contains("length"), "{text}");
        // Missing width is a clean error.
        let mut out = Vec::new();
        let err = tract(sv(&[&path]), &mut out).unwrap_err();
        assert!(err.contains("--width"));
        // Non-tiling width is rejected.
        let mut out = Vec::new();
        let err = tract(sv(&[&path, "--width", "5"]), &mut out).unwrap_err();
        assert!(err.contains("do not tile"));
        // A height whose product with the width wraps to the tensor count
        // (6 · (2^63 + 4) = 24 mod 2^64) is rejected, not traced.
        let height = (1u64 << 63) + 4;
        let argv = sv(&[&path, "--width", "6", "--height", &height.to_string()]);
        let err = tract(argv, &mut out).unwrap_err();
        assert!(err.contains("!= 24 tensors"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn decompose_reports_rank_one_structure() {
        // Write a pure rank-one tensor and decompose it: one term, tiny
        // residual.
        let path = tmp("dec.txt");
        let v = [0.6f64, 0.0, 0.8];
        let t = symtensor::SymTensor::rank_one(4, &v);
        let mut f = std::fs::File::create(&path).unwrap();
        symtensor::io::write_tensor(&mut f, &t).unwrap();
        drop(f);
        let mut out = Vec::new();
        decompose(sv(&[&path, "--terms", "2", "--starts", "32"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("1 rank-one term(s)"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn info_rejects_hostile_headers_and_non_finite_values() {
        let path = tmp("hostile.txt");
        for (body, want) in [
            ("order 4 dim 3 count 100000000000000\n", "too many values"),
            ("order 20 dim 100000 count 1\n", "too many values"),
            (
                "order 4 dim 3 count 100000000000000000\n",
                "too many values",
            ),
            (
                "order 2 dim 2 count 1\n1 NaN 3\n",
                "non-finite value: \"NaN\"",
            ),
        ] {
            std::fs::write(&path, format!("symtensor 1\n{body}")).unwrap();
            let mut out = Vec::new();
            let err = info(sv(&[&path]), &mut out).unwrap_err();
            assert!(err.contains(want), "{body:?}: {err}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dense_entry_count_does_not_overflow() {
        assert_eq!(dense_entries(4, 3), "81");
        assert_eq!(dense_entries(20, 9), 9u64.pow(20).to_string());
        assert_eq!(dense_entries(20, 10), "over 2^64");
    }

    #[test]
    fn missing_file_is_a_clean_error() {
        let mut out = Vec::new();
        let err = info(sv(&["/definitely/not/here.txt"]), &mut out).unwrap_err();
        assert!(err.contains("cannot open"));
    }

    #[test]
    fn bad_shift_rejected() {
        let path = tmp("shift.txt");
        let mut out = Vec::new();
        random(sv(&["3", "3", "1", "--out", &path]), &mut out).unwrap();
        let mut out = Vec::new();
        let err = solve(sv(&[&path, "--shift", "sideways"]), &mut out).unwrap_err();
        assert!(err.contains("invalid --shift"));
        // A non-finite shift is an error naming the flag and the value, on
        // every backend and through `--solver sshopm:ALPHA`, not a report
        // of failed solves.
        for v in ["nan", "inf", "-inf", "1e400"] {
            for extra in [&[][..], &["--backend", "gpusim"]] {
                let mut argv = vec![path.as_str(), "--shift", v, "--starts", "4"];
                argv.extend_from_slice(extra);
                let mut out = Vec::new();
                let err = solve(sv(&argv), &mut out).unwrap_err();
                assert!(err.contains("--shift") && err.contains(v), "{v}: {err}");
                assert!(out.is_empty(), "{v}");
                let mut out = Vec::new();
                let err = fibers(sv(&argv), &mut out).unwrap_err();
                assert!(err.contains("--shift") && err.contains(v), "{v}: {err}");
            }
            let spec = format!("sshopm:{v}");
            let mut out = Vec::new();
            let err = solve(sv(&[&path, "--solver", &spec]), &mut out).unwrap_err();
            assert!(err.contains(&spec), "{spec}: {err}");
        }
        // Numeric shifts are accepted.
        let mut out = Vec::new();
        solve(sv(&[&path, "--shift", "2.5", "--starts", "4"]), &mut out).unwrap();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_dumps_snapshot_json() {
        let mut out = Vec::new();
        profile(
            sv(&["--tensors", "16", "--starts", "8", "--iters", "3"]),
            &mut out,
            &Telemetry::disabled(),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let v = serde::Value::parse_json(&text).unwrap();
        assert_eq!(
            v.get("variant").and_then(serde::Value::as_str),
            Some("unrolled")
        );
        assert!(v
            .get("device")
            .and_then(serde::Value::as_str)
            .unwrap()
            .contains("Tesla C2050"));
        assert!(v.get("occupancy").and_then(serde::Value::as_f64).is_some());
        assert!(v.get("gflops").and_then(serde::Value::as_f64).is_some());
        assert!(v.get("counters").and_then(|c| c.get("ffma")).is_some());
    }

    #[test]
    fn profile_accepts_file_device_and_general_variant() {
        let path = tmp("prof.txt");
        let mut out = Vec::new();
        random(sv(&["5", "9", "2", "--out", &path]), &mut out).unwrap();
        let mut out = Vec::new();
        profile(
            sv(&[
                &path,
                "--variant",
                "general",
                "--device",
                "gtx580",
                "--starts",
                "4",
                "--iters",
                "2",
            ]),
            &mut out,
            &Telemetry::disabled(),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let v = serde::Value::parse_json(&text).unwrap();
        assert_eq!(
            v.get("variant").and_then(serde::Value::as_str),
            Some("general")
        );
        assert!(v
            .get("device")
            .and_then(serde::Value::as_str)
            .unwrap()
            .contains("GTX 580"));
        // Unrolled on a shape without compiled kernels runs as general.
        let mut out = Vec::new();
        profile(
            sv(&[&path, "--starts", "4", "--iters", "2"]),
            &mut out,
            &Telemetry::disabled(),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let v = serde::Value::parse_json(&text).unwrap();
        assert_eq!(
            v.get("variant").and_then(serde::Value::as_str),
            Some("general")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn gpu_instrumented_emits_profile_snapshots() {
        let path = tmp("gputel.txt");
        let mut out = Vec::new();
        random(sv(&["4", "3", "8", "--out", &path]), &mut out).unwrap();
        let tel = Telemetry::enabled();
        let mut out = Vec::new();
        gpu_instrumented(
            sv(&[&path, "--starts", "16", "--devices", "2", "--iters", "3"]),
            &mut out,
            &tel,
        )
        .unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.counter("gpu.launches"), Some(2));
        assert!(snap.gauge("gpu.gflops").is_some());
        assert_eq!(snap.span("cli.gpu").map(|s| s.count), Some(1));
        assert_eq!(
            snap.events
                .iter()
                .filter(|(n, _)| *n == "gpu.launch")
                .count(),
            2
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_instrumented_counts_work() {
        let path = tmp("solvetel.txt");
        let mut out = Vec::new();
        random(
            sv(&["4", "3", "2", "--out", &path, "--seed", "3"]),
            &mut out,
        )
        .unwrap();
        let tel = Telemetry::enabled();
        let mut out = Vec::new();
        solve_instrumented(sv(&[&path, "--starts", "8"]), &mut out, &tel).unwrap();
        let snap = tel.snapshot();
        assert_eq!(snap.counter("solve.tensors"), Some(2));
        // The post-solve pass reports its own span and counters.
        assert!(snap.counter("spectra.entries").unwrap_or(0) >= 2);
        assert_eq!(snap.counter("spectra.failures"), Some(0));
        assert_eq!(snap.span("sshopm.spectra").map(|s| s.count), Some(1));
        // The batch goes through the backend layer: one batched solve of
        // both tensors, with per-tensor/per-solve progress counters.
        assert_eq!(snap.span("batch.solve").map(|s| s.count), Some(1));
        assert_eq!(snap.counter("batch.tensors_done"), Some(2));
        assert_eq!(snap.counter("batch.solves"), Some(16));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_output_does_not_depend_on_the_thread_count() {
        let path = tmp("solvethreads.txt");
        let mut out = Vec::new();
        random(
            sv(&["4", "3", "7", "--out", &path, "--seed", "11"]),
            &mut out,
        )
        .unwrap();
        let run = |backend: &str| {
            let mut out = Vec::new();
            solve(
                sv(&[&path, "--starts", "24", "--backend", backend, "--all"]),
                &mut out,
            )
            .unwrap();
            String::from_utf8(out).unwrap()
        };
        let (one, two) = (run("cpu"), run("cpu:2"));
        // Every line but the backend summary (its label and measured
        // time) is the same, byte for byte.
        let body = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("backend "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert!(one.contains("tensor 6:"), "{one}");
        assert_eq!(one.lines().count(), body(&one).lines().count() + 1);
        assert_eq!(body(&one), body(&two));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_backend_flag_routes_cpu_and_gpu() {
        let path = tmp("solvebk.txt");
        let mut out = Vec::new();
        random(
            sv(&["4", "3", "3", "--out", &path, "--seed", "5"]),
            &mut out,
        )
        .unwrap();
        // Same workload through a CPU pool and the simulated GPU: both
        // print a comparable one-line backend summary.
        let mut out = Vec::new();
        solve(
            sv(&[&path, "--starts", "8", "--backend", "cpu:4"]),
            &mut out,
        )
        .unwrap();
        let cpu_text = String::from_utf8(out).unwrap();
        assert!(
            cpu_text.contains("backend cpu:4 (batched kernel)"),
            "{cpu_text}"
        );
        assert!(cpu_text.contains("3 tensors x 8 starts"), "{cpu_text}");

        let mut out = Vec::new();
        solve(
            sv(&[
                &path,
                "--starts",
                "8",
                "--backend",
                "gpusim",
                "--shift",
                "0",
            ]),
            &mut out,
        )
        .unwrap();
        let gpu_text = String::from_utf8(out).unwrap();
        assert!(
            gpu_text.contains("backend gpusim:tesla-c2050 (general kernel)"),
            "{gpu_text}"
        );
        assert!(gpu_text.contains("3 tensors x 8 starts"), "{gpu_text}");

        // A GPU backend with a non-numeric shift is a clean error.
        let mut out = Vec::new();
        let err = solve(
            sv(&[&path, "--backend", "gpusim", "--shift", "adaptive"]),
            &mut out,
        )
        .unwrap_err();
        assert!(err.contains("CPU-only"), "{err}");
        // A malformed backend spec is a clean error too.
        let mut out = Vec::new();
        let err = solve(sv(&[&path, "--backend", "cpu:"]), &mut out).unwrap_err();
        assert!(err.contains("thread count"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_kernel_batched_runs_lockstep_and_matches_precomputed() {
        let path = tmp("solvebatched.txt");
        let mut out = Vec::new();
        random(
            sv(&["4", "3", "10", "--out", &path, "--seed", "8"]),
            &mut out,
        )
        .unwrap();
        // Fixed shift → the batched strategy takes the lockstep lane
        // driver; output must be identical to the scalar general kernels,
        // which walk the index classes in the same order with the same
        // coefficients. `precomputed` is a spelling of `batched`.
        let run = |kernel: &str| {
            let mut out = Vec::new();
            solve(
                sv(&[
                    &path, "--starts", "6", "--seed", "3", "--shift", "2", "--kernel", kernel,
                ]),
                &mut out,
            )
            .unwrap();
            String::from_utf8(out).unwrap()
        };
        let batched = run("batched");
        assert!(batched.contains("(batched kernel)"), "{batched}");
        let precomputed = run("precomputed");
        assert!(precomputed.contains("(batched kernel)"), "{precomputed}");
        let general = run("general");
        // Same eigenvalues line-for-line, only the kernel label differs.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("kernel"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&batched), strip(&general));
        assert_eq!(strip(&batched), strip(&precomputed));
        // An adaptive shift still works: the batched kernels serve the
        // scalar per-tensor fallback path.
        let mut out = Vec::new();
        solve(
            sv(&[
                &path, "--starts", "4", "--shift", "adaptive", "--kernel", "batched",
            ]),
            &mut out,
        )
        .unwrap();
        let adaptive = String::from_utf8(out).unwrap();
        assert!(adaptive.contains("(batched kernel)"), "{adaptive}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_default_kernel_matches_general_eigenpairs() {
        // The default kernel is `batched`: lockstep lanes under a fixed,
        // convex (the default) or concave shift. Its eigenpair lines are
        // general's, byte for byte.
        for shape in [["4", "3"], ["5", "4"]] {
            let path = tmp(&format!("default{}{}.txt", shape[0], shape[1]));
            let mut out = Vec::new();
            random(
                sv(&[shape[0], shape[1], "4", "--out", &path, "--seed", "6"]),
                &mut out,
            )
            .unwrap();
            for shift in [&["--shift", "2"][..], &[], &["--shift", "concave"]] {
                let run = |kernel: &[&str]| {
                    let mut argv = vec![path.as_str(), "--starts", "8"];
                    argv.extend_from_slice(shift);
                    argv.extend_from_slice(kernel);
                    let mut out = Vec::new();
                    solve(sv(&argv), &mut out).unwrap();
                    let text = String::from_utf8(out).unwrap();
                    let label = text.lines().last().unwrap_or_default().to_string();
                    let pairs: Vec<String> = text
                        .lines()
                        .filter(|l| l.starts_with("tensor ") || l.contains("lambda"))
                        .map(str::to_string)
                        .collect();
                    (pairs, label)
                };
                let (default_pairs, label) = run(&[]);
                let (general_pairs, _) = run(&["--kernel", "general"]);
                let at = format!("{shape:?} {shift:?}");
                assert!(label.contains("(batched kernel)"), "{at}: {label}");
                assert!(!default_pairs.is_empty(), "{at}");
                assert_eq!(default_pairs, general_pairs, "{at}");
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn solve_solver_flag_routes_geap_and_qrst() {
        let path = tmp("solvesolver.txt");
        let mut out = Vec::new();
        random(
            sv(&["4", "3", "2", "--out", &path, "--seed", "11"]),
            &mut out,
        )
        .unwrap();
        for solver in ["geap", "qrst", "sshopm:1.5"] {
            let mut out = Vec::new();
            solve(sv(&[&path, "--starts", "8", "--solver", solver]), &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains("tensor 0:"), "{solver}: {text}");
            assert!(text.contains("lambda"), "{solver}: {text}");
        }
        // A malformed solver spec is a clean error naming the grammar.
        let mut out = Vec::new();
        let err = solve(sv(&[&path, "--solver", "newton"]), &mut out).unwrap_err();
        assert!(err.contains("sshopm[:alpha]"), "{err}");
        // Adaptive solvers on GPU backends are clean errors, like --shift.
        let mut out = Vec::new();
        let err = solve(
            sv(&[&path, "--backend", "gpusim", "--solver", "geap"]),
            &mut out,
        )
        .unwrap_err();
        assert!(err.contains("CPU-only"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fibers_solver_flag_accepts_qrst() {
        let path = tmp("fibsolver.txt");
        let mut out = Vec::new();
        phantom(
            sv(&["--out", &path, "--width", "2", "--height", "2"]),
            &mut out,
        )
        .unwrap();
        let mut out = Vec::new();
        fibers(sv(&[&path, "--starts", "16", "--solver", "qrst"]), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("summary: 4 voxels"), "{text}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fibers_rejects_non_3d_tensors() {
        let path = tmp("fib4d.txt");
        let mut out = Vec::new();
        random(sv(&["4", "4", "1", "--out", &path]), &mut out).unwrap();
        let mut out = Vec::new();
        let err = fibers(sv(&[&path]), &mut out).unwrap_err();
        assert_eq!(
            err,
            "fiber extraction needs dimension-3 tensors, file has n=4"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn report_json_carries_solver_name() {
        let mut out = Vec::new();
        report(
            sv(&[
                "--tensors",
                "4",
                "--starts",
                "4",
                "--iters",
                "3",
                "--solver",
                "geap",
                "--format",
                "json",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let run = telemetry::RunReport::parse_json(&text).unwrap();
        assert_eq!(run.solver, "geap");
    }

    #[test]
    fn solve_pipeline_flag_prints_timeline_summary() {
        let path = tmp("solvepipe.txt");
        let mut out = Vec::new();
        random(
            sv(&["4", "3", "6", "--out", &path, "--seed", "7"]),
            &mut out,
        )
        .unwrap();
        let mut out = Vec::new();
        solve(
            sv(&[
                &path,
                "--starts",
                "8",
                "--backend",
                "gpusim",
                "--shift",
                "0",
                "--pipeline",
                "--streams",
                "2",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("backend pipelined:gpusim:tesla-c2050:1x2"),
            "{text}"
        );
        assert!(text.contains("timeline:"), "{text}");
        assert!(text.contains("makespan"), "{text}");
        // The explicit spec form routes the same way without the flag,
        // but the timeline summary stays opt-in via --pipeline.
        let mut out = Vec::new();
        solve(
            sv(&[
                &path,
                "--starts",
                "8",
                "--backend",
                "pipelined",
                "--shift",
                "0",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("backend pipelined:gpusim"), "{text}");
        assert!(!text.contains("timeline:"), "{text}");
        // --pipeline on a CPU backend is a clean error.
        let mut out = Vec::new();
        let err = solve(sv(&[&path, "--pipeline"]), &mut out).unwrap_err();
        assert!(err.contains("--pipeline requires"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn solve_cluster_backend_smokes_and_validates_flags() {
        let path = tmp("solvecluster.txt");
        let mut out = Vec::new();
        random(
            sv(&["4", "3", "6", "--out", &path, "--seed", "9"]),
            &mut out,
        )
        .unwrap();
        let mut out = Vec::new();
        solve(
            sv(&[
                &path,
                "--starts",
                "8",
                "--backend",
                "cluster:1:2",
                "--shift",
                "0",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("backend cluster:gpusim:tesla-c2050:1x2x1"),
            "{text}"
        );
        // --streams 0 and --chunk-tensors 0 are typed errors naming the
        // flag, for cluster and pipelined backends alike.
        let mut out = Vec::new();
        let err = solve(
            sv(&[
                &path,
                "--backend",
                "cluster:1:2",
                "--shift",
                "0",
                "--streams",
                "0",
            ]),
            &mut out,
        )
        .unwrap_err();
        assert!(err.contains("--streams 0"), "{err}");
        let mut out = Vec::new();
        let err = solve(
            sv(&[
                &path,
                "--backend",
                "cluster:1:2",
                "--shift",
                "0",
                "--chunk-tensors",
                "0",
            ]),
            &mut out,
        )
        .unwrap_err();
        assert!(err.contains("--chunk-tensors 0"), "{err}");
        let mut out = Vec::new();
        let err = solve(
            sv(&[
                &path,
                "--backend",
                "gpusim",
                "--shift",
                "0",
                "--pipeline",
                "--streams",
                "0",
            ]),
            &mut out,
        )
        .unwrap_err();
        assert!(err.contains("--streams 0"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn profile_pipeline_appends_timeline_summary() {
        let mut out = Vec::new();
        profile(
            sv(&[
                "--tensors",
                "600",
                "--starts",
                "8",
                "--iters",
                "3",
                "--pipeline",
                "--streams",
                "2",
            ]),
            &mut out,
            &Telemetry::disabled(),
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        // Snapshot JSON first, then the one-line timeline summary.
        let (json, rest) = text.split_at(text.find("timeline:").expect(&text));
        assert!(serde::Value::parse_json(json).is_ok(), "{json}");
        assert!(rest.contains("makespan"), "{rest}");
        assert!(rest.contains("overlap saves"), "{rest}");
    }

    #[test]
    fn report_prom_output_is_valid_exposition() {
        let mut out = Vec::new();
        report(
            sv(&[
                "--tensors",
                "8",
                "--starts",
                "4",
                "--iters",
                "2",
                "--format",
                "prom",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        // Every line is a HELP/TYPE comment or `name{labels} value` with a
        // parseable value and a sanitized metric name.
        let mut samples = 0;
        for line in text.lines().filter(|l| !l.is_empty()) {
            if let Some(comment) = line.strip_prefix('#') {
                assert!(
                    comment.starts_with(" HELP ") || comment.starts_with(" TYPE "),
                    "{line}"
                );
                continue;
            }
            let (name_part, value) = line.rsplit_once(' ').unwrap_or_else(|| panic!("{line}"));
            assert!(
                value.parse::<f64>().is_ok() || value == "+Inf",
                "bad sample value in {line:?}"
            );
            let metric = name_part.split('{').next().unwrap();
            assert!(
                metric
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "unsanitized metric name in {line:?}"
            );
            samples += 1;
        }
        assert!(samples > 0, "{text}");
        // The chunk-latency histogram family is present and cumulative.
        assert!(text.contains("tensor_eig_latency_seconds_bucket"), "{text}");
        assert!(text.contains("latency=\"chunk\""), "{text}");
        assert!(text.contains("le=\"+Inf\""), "{text}");
        assert!(text.contains("tensor_eig_latency_seconds_count"), "{text}");
    }

    #[test]
    fn report_json_goes_to_file_with_confirmation() {
        let path = tmp("runreport.json");
        let mut out = Vec::new();
        report(
            sv(&[
                "--tensors",
                "6",
                "--starts",
                "4",
                "--iters",
                "2",
                "--format",
                "json",
                "--out",
                &path,
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("wrote run report (json)"), "{text}");
        let json = std::fs::read_to_string(&path).unwrap();
        let run = telemetry::RunReport::parse_json(&json).unwrap();
        assert_eq!(run.backend, "cpu");
        assert_eq!(run.workload.num_tensors, 6);
        assert!(run.latency("chunk").unwrap().p50() > 0.0);
        // Bad formats are clean errors.
        let mut out = Vec::new();
        let err = report(sv(&["--format", "xml"]), &mut out).unwrap_err();
        assert!(err.contains("invalid report format"), "{err}");
        std::fs::remove_file(&path).ok();
    }

    /// `report --format json` on `tensors` synthetic tensors (2 starts, 1
    /// iteration), parsed back into the unified run report.
    fn report_json(tensors: &str, args: &[&str]) -> telemetry::RunReport {
        let mut argv = vec![
            "--tensors",
            tensors,
            "--starts",
            "2",
            "--iters",
            "1",
            "--format",
            "json",
        ];
        argv.extend_from_slice(args);
        let mut out = Vec::new();
        report(sv(&argv), &mut out).unwrap();
        telemetry::RunReport::parse_json(&String::from_utf8(out).unwrap()).unwrap()
    }

    /// Streams that ran at least one op.
    fn streams_used(run: &telemetry::RunReport) -> u64 {
        run.latency("stream").map_or(0, |h| h.count())
    }

    #[test]
    fn faulted_cluster_runs_honour_the_spec_stream_field() {
        // 12 chunks over 2 x 2 devices: three per device, one per stream.
        let run = report_json("3072", &["--backend", "cluster:2:2:3", "--retry", "1"]);
        assert!(
            run.backend.starts_with("resilient:cluster"),
            "{}",
            run.backend
        );
        assert_eq!(streams_used(&run), 12);
    }

    #[test]
    fn explicit_streams_override_the_spec_stream_count() {
        let run = report_json("8", &["--backend", "cluster:2:2:3", "--streams", "2"]);
        assert_eq!(run.backend, "cluster:gpusim:tesla-c2050:2x2x2");
        let run = report_json("8", &["--backend", "pipelined", "--streams", "3"]);
        assert_eq!(run.backend, "pipelined:gpusim:tesla-c2050:1x3");
        let run = report_json(
            "3072",
            &[
                "--backend",
                "cluster:2:2:3",
                "--retry",
                "1",
                "--streams",
                "2",
            ],
        );
        assert_eq!(streams_used(&run), 8);
    }

    #[test]
    fn pipeline_flag_pipelines_a_one_stream_cluster() {
        let run = report_json("8", &["--backend", "cluster", "--pipeline"]);
        assert_eq!(run.backend, "cluster:gpusim:tesla-c2050:2x2x2");
        let run = report_json("8", &["--backend", "cluster:2:2:3", "--pipeline"]);
        assert_eq!(run.backend, "cluster:gpusim:tesla-c2050:2x2x3");
    }

    #[test]
    fn report_pipeline_backend_carries_stream_latencies() {
        let mut out = Vec::new();
        report(
            sv(&[
                "--tensors",
                "8",
                "--starts",
                "4",
                "--iters",
                "2",
                "--backend",
                "gpusim",
                "--pipeline",
                "--format",
                "json",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let run = telemetry::RunReport::parse_json(&text).unwrap();
        assert!(
            run.backend.starts_with("pipelined:gpusim"),
            "{}",
            run.backend
        );
        assert!(run.latency("chunk").is_some());
        assert!(run.latency("stream").is_some());
        assert!(run.latency("device").is_some());
    }

    #[test]
    fn solve_report_out_writes_unified_report() {
        let path = tmp("solverpt.txt");
        let rpt = tmp("solverpt.json");
        let mut out = Vec::new();
        random(
            sv(&["4", "3", "3", "--out", &path, "--seed", "2"]),
            &mut out,
        )
        .unwrap();
        let mut out = Vec::new();
        solve(
            sv(&[
                &path,
                "--starts",
                "4",
                "--report-out",
                &rpt,
                "--report-format",
                "json",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("wrote run report (json)"), "{text}");
        let run =
            telemetry::RunReport::parse_json(&std::fs::read_to_string(&rpt).unwrap()).unwrap();
        assert_eq!(run.workload.num_tensors, 3);
        assert_eq!(run.workload.num_starts, 4);
        assert!(run.latency("chunk").unwrap().p99() > 0.0);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&rpt).ok();
    }

    #[test]
    fn fibers_report_format_appends_text_report() {
        let path = tmp("fibrpt.txt");
        let mut out = Vec::new();
        phantom(
            sv(&["--out", &path, "--width", "2", "--height", "2"]),
            &mut out,
        )
        .unwrap();
        let mut out = Vec::new();
        fibers(
            sv(&[&path, "--starts", "16", "--report-format", "text"]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("summary: 4 voxels"), "{text}");
        assert!(text.contains("latencies (seconds):"), "{text}");
        // The report's workload accounting must reflect the actual batch
        // (a regression here means the results were drained before the
        // report was rendered).
        assert!(
            text.contains("backend cpu (batched kernel): 4 tensors x 16 starts"),
            "{text}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// A bad `--report-format` fails with the other argument errors:
    /// before the file is read (this one does not exist) and before
    /// anything is written.
    #[test]
    fn bad_report_format_fails_before_the_run() {
        let missing = tmp("no-such-file.txt");
        for cmd in [solve, fibers] {
            for extra in [&[][..], &["--report-out", "unused.txt"]] {
                let mut argv = sv(&[&missing, "--report-format", "bogus"]);
                argv.extend(sv(extra));
                let mut out = Vec::new();
                let err = cmd(argv, &mut out).unwrap_err();
                assert_eq!(
                    err, "invalid report format \"bogus\": expected text, json, or prom",
                    "{extra:?}"
                );
                assert!(out.is_empty(), "{extra:?}");
            }
        }
    }

    /// `fibers` prints the same listing whether each voxel's row is lent
    /// to the fiber pass (no report) or kept for a report, on both CPU
    /// engines, one and two threads, and the simulated GPU's default path.
    #[test]
    fn fibers_listing_does_not_depend_on_the_report() {
        let path = tmp("fibers-lend.txt");
        let rpt = tmp("fibers-lend-report.txt");
        let mut out = Vec::new();
        phantom(
            sv(&[
                "--out", &path, "--width", "4", "--height", "3", "--noise", "0.02",
            ]),
            &mut out,
        )
        .unwrap();
        let mut runs: Vec<Vec<&str>> = Vec::new();
        for backend in ["cpu", "cpu:2"] {
            for kernel in ["batched", "tape", "general"] {
                for shift in ["0", "convex", "adaptive"] {
                    runs.push(vec![
                        "--backend",
                        backend,
                        "--kernel",
                        kernel,
                        "--shift",
                        shift,
                    ]);
                }
            }
        }
        runs.push(vec!["--backend", "gpusim", "--shift", "0"]);
        for run in runs {
            let fibers_out = |extra: &[&str]| {
                let mut argv = sv(&[&path, "--starts", "16"]);
                argv.extend(sv(&run));
                argv.extend(sv(extra));
                let mut out = Vec::new();
                fibers(argv, &mut out).unwrap();
                String::from_utf8(out).unwrap()
            };
            let plain = fibers_out(&[]);
            let reported = fibers_out(&["--report-out", &rpt]);
            assert!(plain.contains("summary: 12 voxels"), "{run:?}: {plain}");
            let confirmation = format!("wrote run report (text) to {rpt}\n");
            assert_eq!(reported, plain + &confirmation, "{run:?}");
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&rpt).ok();
    }

    /// `tract` checks its arguments before it reads the file: each bad
    /// one is named though the file does not exist.
    #[test]
    fn tract_checks_its_arguments_before_the_file() {
        let missing = tmp("no-such-grid.txt");
        let cases: [(&[&str], &str); 5] = [
            (&[], "--width W is required (grid layout of the file)"),
            (
                &["--width", "0"],
                "--width W is required (grid layout of the file)",
            ),
            (
                &["--width", "2", "--starts", "0"],
                "invalid --starts 0: need at least one starting vector",
            ),
            (
                &["--width", "2", "--seeds", "x"],
                "invalid value for --seeds: \"x\"",
            ),
            (
                &["--width", "2", "--height", "x"],
                "invalid value for --height: \"x\"",
            ),
        ];
        for (extra, want) in cases {
            let mut argv = sv(&[&missing]);
            argv.extend(sv(extra));
            let mut out = Vec::new();
            assert_eq!(tract(argv, &mut out).unwrap_err(), want, "{extra:?}");
            assert!(out.is_empty(), "{extra:?}");
        }
        // Good arguments reach the read.
        let mut out = Vec::new();
        let err = tract(sv(&[&missing, "--width", "2"]), &mut out).unwrap_err();
        assert!(err.starts_with(&format!("cannot open {missing}")), "{err}");
    }

    #[test]
    fn run_dispatches_and_reports_unknown() {
        let mut out = Vec::new();
        assert!(crate::run(sv(&["help"]), &mut out).is_ok());
        let err = crate::run(sv(&["frobnicate"]), &mut out).unwrap_err();
        assert!(err.contains("unknown command"));
        let err = crate::run(vec![], &mut out).unwrap_err();
        assert!(err.contains("commands:"));
    }

    #[test]
    fn solve_accepts_tape_kernel() {
        // (4, 3) has compiled kernels, so `tape` plans the batched kernels
        // (lane panels of that compiled code); (3, 4) has none, so `tape`
        // runs the blocked kernels.
        for (shape, ran) in [(["4", "3"], "batched"), (["3", "4"], "blocked")] {
            let path = tmp(&format!("tape{}{}.txt", shape[0], shape[1]));
            let mut out = Vec::new();
            random(sv(&[shape[0], shape[1], "2", "--out", &path]), &mut out).unwrap();
            let mut out = Vec::new();
            solve(
                sv(&[&path, "--kernel", "tape", "--starts", "4", "--shift", "2.0"]),
                &mut out,
            )
            .unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains("tensor 0:"), "{text}");
            assert!(text.contains(&format!("({ran} kernel)")), "{text}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn zero_starts_is_rejected_by_every_command() {
        let path = tmp("zero-starts.txt");
        let mut out = Vec::new();
        random(
            sv(&["4", "3", "3", "--out", &path, "--seed", "1"]),
            &mut out,
        )
        .unwrap();
        type Cmd = fn(Vec<String>, &mut dyn Write) -> Result<(), String>;
        let profile_cmd: Cmd = |argv, out| profile(argv, out, &Telemetry::disabled());
        let cases: [(&str, Cmd, &[&str]); 7] = [
            ("solve", solve, &[]),
            ("fibers", fibers, &[]),
            ("report", report, &[]),
            ("tract", tract, &["--width", "3"]),
            ("decompose", decompose, &[]),
            ("gpu", gpu, &[]),
            ("profile", profile_cmd, &[]),
        ];
        for (name, cmd, extra) in cases {
            let mut argv = sv(&[&path, "--starts", "0"]);
            argv.extend(sv(extra));
            let mut out = Vec::new();
            let err = cmd(argv, &mut out).unwrap_err();
            assert!(err.contains("--starts 0"), "{name}: {err}");
            assert!(out.is_empty(), "{name} printed before failing");
        }
        std::fs::remove_file(&path).ok();
    }
}
