//! The CLI subcommands, one module each, and what they share. A command
//! module declares its [`Command`]: its own options and flags beside the
//! usage text that shows them, the shared groups it takes ([`BACKEND`],
//! [`REPORT`]), and its `run`. [`COMMANDS`] lists them all; `cli::run`
//! dispatches on it and `cli::usage` prints it. Each `run` takes raw
//! argument tokens plus a writer, so everything is unit-testable without a
//! process boundary.
//!
//! Every command module starts with `use super::*`: this module holds the
//! types, parsers and imports the commands share, so each names only what
//! is its own.

mod decompose;
mod fibers;
mod gpu;
mod info;
mod phantom;
mod profile;
mod random;
mod report;
mod solve;
mod tract;

use crate::args::Args;
use crate::CmdError;
use backend::{
    parse_fault_plan, BackendSpec, GpuSimBackend, KernelStrategy, ResilientBackend, SolveBackend,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sshopm::{IterationPolicy, Shift, Solver, SolverSpec, SsHopm};
use std::fs::File;
use std::io::{BufWriter, Write};
use symtensor::io::{read_tensor_batch, write_tensor_batch};
use symtensor::TensorBatch;
use telemetry::Telemetry;

/// A group of options that several commands share: the options that take
/// a value and the bare flags, named without their `--`, with the usage
/// text that shows them.
struct Opts {
    usage: &'static str,
    values: &'static [&'static str],
    flags: &'static [&'static str],
}

/// One subcommand: its name, its own arguments as the usage line shows
/// them, the options (taking a value) and flags among them, the shared
/// groups it takes after them, and its handler.
pub(crate) struct Command {
    pub(crate) name: &'static str,
    usage: &'static str,
    values: &'static [&'static str],
    flags: &'static [&'static str],
    groups: &'static [Opts],
    pub(crate) run: fn(Vec<String>, &mut dyn Write, &Telemetry) -> Result<(), CmdError>,
}

impl Command {
    /// The usage line: the name, its own arguments, then each group's.
    pub(crate) fn usage(&self) -> String {
        let own = format!("{} {}", self.name, self.usage);
        self.groups
            .iter()
            .fold(own, |line, group| line + " " + group.usage)
    }

    /// Parse `argv` against every option and flag the command takes.
    fn parse(&self, argv: Vec<String>) -> Result<Args, CmdError> {
        let mut values = self.values.to_vec();
        let mut flags = self.flags.to_vec();
        for group in self.groups {
            values.extend(group.values);
            flags.extend(group.flags);
        }
        Args::parse(argv, &values, &flags)
    }
}

/// Every subcommand, in the order `usage()` lists them.
pub(crate) static COMMANDS: &[Command] = &[
    random::COMMAND,
    info::COMMAND,
    solve::COMMAND,
    phantom::COMMAND,
    fibers::COMMAND,
    decompose::COMMAND,
    tract::COMMAND,
    gpu::COMMAND,
    profile::COMMAND,
    report::COMMAND,
];

/// Load a tensor file straight into one contiguous [`TensorBatch`] arena.
/// The file format carries a single `(m, n)` header, so every batch is
/// uniform by construction — no shape grouping needed downstream.
fn load_batch(path: &str) -> Result<TensorBatch<f64>, CmdError> {
    let file = File::open(path).map_err(|e| CmdError(format!("cannot open {path}: {e}")))?;
    read_tensor_batch(file).map_err(|e| CmdError(format!("cannot parse {path}: {e}")))
}

/// A tensor file in the simulated GPU's single precision. An empty file
/// has nothing to launch, so it is an error.
fn load_f32(path: &str) -> Result<TensorBatch<f32>, CmdError> {
    let tensors = load_batch(path)?;
    if tensors.is_empty() {
        return Err(CmdError("tensor file is empty".into()));
    }
    Ok(tensors.to_f32())
}

/// `report` and `profile` shape their synthetic workload with `--tensors`,
/// `--m` and `--n`; a tensor file replaces that workload, so with a file
/// each of them is an error naming it, raised before the file is read.
fn reject_synthetic_options(args: &Args) -> Result<(), CmdError> {
    match ["tensors", "m", "n"]
        .into_iter()
        .find(|&flag| args.get(flag).is_some())
    {
        Some(flag) => Err(CmdError(format!(
            "--{flag} has no effect with a tensor file: it shapes the synthetic workload \
             the file replaces"
        ))),
        None => Ok(()),
    }
}

fn save_batch(path: &str, batch: &TensorBatch<f64>) -> Result<(), CmdError> {
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

/// Parse `--solver` (default `sshopm`) into a [`SolverSpec`] and
/// `--shift` into the shift it runs under. The shift is SS-HOPM's alone:
/// `geap` picks its own per iterate and `qrst` has none, so an explicit
/// `--shift` with either is an error naming both flags.
fn parse_solver(args: &Args) -> Result<(SolverSpec, Shift), CmdError> {
    let shift = parse_shift(args.get("shift"))?;
    let name = args.get("solver").unwrap_or("sshopm");
    let solver =
        SolverSpec::parse(name).map_err(|e| CmdError(format!("invalid --solver {name:?}: {e}")))?;
    match args.get("shift") {
        Some(v) if solver != SolverSpec::SsHopm => Err(CmdError(format!(
            "--shift {v} has no effect with --solver {solver}: only sshopm takes a shift"
        ))),
        _ => Ok((solver, shift)),
    }
}

/// Parse `--kernel` into a [`KernelStrategy`], `default` when absent.
fn parse_kernel(args: &Args, default: KernelStrategy) -> Result<KernelStrategy, CmdError> {
    match args.get("kernel") {
        None => Ok(default),
        Some(k) => Ok(KernelStrategy::parse(k)?),
    }
}

/// Reject, on a simulated-GPU backend, a solver the lockstep lanes cannot
/// run ([`sshopm::lockstep_alpha`]): the device runs SS-HOPM under a
/// fixed, convex or concave shift, one per tensor, and nothing else.
/// Commands call this before they read the tensor file.
fn check_gpu_solver(spec: &BackendSpec, solver: &dyn Solver<f64>) -> Result<(), CmdError> {
    if !spec.is_gpu() || sshopm::lockstep_alpha(solver).is_some() {
        return Ok(());
    }
    // SS-HOPM runs in lanes under every shift but the adaptive one.
    let what = match solver.name() {
        "sshopm" => "--shift adaptive".to_string(),
        other => format!("--solver {other}"),
    };
    Err(CmdError(format!(
        "{what} is CPU-only: gpusim backends run sshopm under a fixed, convex or concave \
         shift, one per tensor; use --backend cpu"
    )))
}

/// Where a batched solve runs, read by [`parse_backend`].
const BACKEND: Opts = Opts {
    usage: "[--backend B] [--kernel K] [--streams K] [--chunk-tensors N] [--faults SPEC] \
            [--retry N] [--failover]",
    values: &[
        "backend",
        "kernel",
        "streams",
        "chunk-tensors",
        "faults",
        "retry",
    ],
    flags: &["failover"],
};

/// Parse the [`BACKEND`] group: `--backend` (default `cpu`) and `--kernel`
/// (default `batched`) into a built [`SolveBackend`] plus its parsed spec;
/// the spec alone fixes the topology, schedule and label
/// ([`BackendSpec::build_gpusim`]). When any of `--faults SPEC`,
/// `--retry N` or `--failover` is present the backend is wrapped in a
/// [`ResilientBackend`] (gpusim specs only). `--streams N` overrides the
/// streams per device and `--chunk-tensors N` the tensors per chunk, and
/// each is an error wherever the built schedule would ignore it.
fn parse_backend(args: &Args) -> Result<(BackendSpec, Box<dyn SolveBackend<f64>>), CmdError> {
    let spec: BackendSpec = args.get("backend").unwrap_or("cpu").parse()?;
    let strategy = parse_kernel(args, KernelStrategy::Batched)?;
    let streams: Option<usize> = args.get_opt("streams")?;
    let chunk_tensors: Option<usize> = args.get_opt("chunk-tensors")?;
    let resilient =
        args.get("faults").is_some() || args.get("retry").is_some() || args.flag("failover");
    // Only a chunked schedule deals chunks over streams: a pipelined spec,
    // a resilient run, or a cluster with more than one stream per device.
    // A cluster's stream count is what turns chunking on, so a cluster
    // always takes `--streams`.
    let takes = |flag: &str| match spec {
        BackendSpec::Cpu { .. } => false,
        BackendSpec::GpuSim { .. } => resilient,
        BackendSpec::Pipelined { .. } => true,
        BackendSpec::Cluster { streams: s, .. } => {
            resilient || flag == "streams" || streams.unwrap_or(s) > 1
        }
    };
    let ignored = ["streams", "chunk-tensors"]
        .into_iter()
        .find(|&flag| args.get(flag).is_some() && !takes(flag));
    if let Some(flag) = ignored {
        return Err(CmdError(match spec {
            BackendSpec::Cpu { .. } => format!(
                "--{flag} requires a gpusim backend, got {spec}: CPU backends have no streams \
                 to overlap"
            ),
            _ => format!(
                "--{flag} has no effect on {spec}: it launches each device's slice whole; \
                 streams and chunks act on pipelined specs, clusters with more than one stream \
                 per device, and runs with --faults, --retry or --failover"
            ),
        }));
    }
    let sized = |mut gpus: GpuSimBackend| -> Result<GpuSimBackend, CmdError> {
        if let Some(k) = streams {
            gpus = gpus.with_streams(k)?;
        }
        if let Some(chunk) = chunk_tensors {
            gpus = gpus.with_chunk_tensors(chunk)?;
        }
        Ok(gpus)
    };
    let backend: Box<dyn SolveBackend<f64>> = if resilient {
        let plan = parse_fault_plan(args.get("faults").unwrap_or(""))?;
        let mut built = ResilientBackend::from_spec(&spec, strategy, plan)?
            .with_retries(args.get_parsed("retry", 2)?)
            .with_failover(args.flag("failover"));
        built.inner = sized(built.inner)?;
        Box::new(built)
    } else if spec.is_gpu() {
        Box::new(sized(spec.build_gpusim(strategy)?)?)
    } else {
        spec.build::<f64>(strategy)?
    };
    Ok((spec, backend))
}

/// Where `solve` and `fibers` write the unified report, read by
/// [`ReportRequest::from_options`].
const REPORT: Opts = Opts {
    usage: "[--report-out PATH] [--report-format text|json|prom]",
    values: &["report-out", "report-format"],
    flags: &[],
};

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
    fn write(&self, run: &telemetry::RunReport, out: &mut dyn Write) -> Result<(), CmdError> {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Run `cmd` as `cli::run` does, with its error as the message `run`
    /// returns.
    fn call(
        cmd: &Command,
        argv: Vec<String>,
        out: &mut dyn Write,
        telemetry: &Telemetry,
    ) -> Result<(), String> {
        (cmd.run)(argv, out, telemetry).map_err(|e| e.0)
    }

    /// One function per command, named after it, that runs it with telemetry
    /// off.
    macro_rules! telemetry_off {
        ($($name:ident),*) => {$(
            fn $name(argv: Vec<String>, out: &mut dyn Write) -> Result<(), String> {
                call(&$name::COMMAND, argv, out, &Telemetry::disabled())
            }
        )*};
    }
    telemetry_off!(random, info, solve, phantom, fibers, decompose, tract, gpu, profile, report);

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
                &path, "--kernel", "general", "--iters", "2", "--starts", "8",
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
        assert_eq!(info::dense_entries(4, 3), "81");
        assert_eq!(info::dense_entries(20, 9), 9u64.pow(20).to_string());
        assert_eq!(info::dense_entries(20, 10), "over 2^64");
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
        // every backend, not a report of failed solves; the solver spec
        // takes no shift at all.
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
                &path, "--kernel", "general", "--device", "gtx580", "--starts", "4", "--iters", "2",
            ]),
            &mut out,
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
        profile(sv(&[&path, "--starts", "4", "--iters", "2"]), &mut out).unwrap();
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
        call(
            &gpu::COMMAND,
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
        call(
            &solve::COMMAND,
            sv(&[&path, "--starts", "8"]),
            &mut out,
            &tel,
        )
        .unwrap();
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
                sv(&[&path, "--starts", "24", "--backend", backend]),
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
        for solver in ["geap", "qrst", "sshopm"] {
            let mut out = Vec::new();
            solve(sv(&[&path, "--starts", "8", "--solver", solver]), &mut out).unwrap();
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains("tensor 0:"), "{solver}: {text}");
            assert!(text.contains("lambda"), "{solver}: {text}");
        }
        // A malformed solver spec is a clean error naming the grammar.
        let mut out = Vec::new();
        let err = solve(sv(&[&path, "--solver", "newton"]), &mut out).unwrap_err();
        assert!(err.contains("invalid --solver \"newton\""), "{err}");
        assert!(
            err.contains("expected \"sshopm\", \"geap\" or \"qrst\""),
            "{err}"
        );
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

    /// `solve` prints the resolved stream timeline whenever its report
    /// carries one: multi-device, pipelined and fault-injected gpusim
    /// runs, not a single device.
    #[test]
    fn solve_prints_the_timeline_its_report_carries() {
        let path = tmp("solvepipe.txt");
        let mut out = Vec::new();
        random(
            sv(&["4", "3", "6", "--out", &path, "--seed", "7"]),
            &mut out,
        )
        .unwrap();
        let solve_on = |backend: &[&str]| {
            let mut argv = sv(&[&path, "--starts", "8", "--shift", "0"]);
            argv.extend(sv(backend));
            let mut out = Vec::new();
            solve(argv, &mut out).unwrap();
            String::from_utf8(out).unwrap()
        };
        let text = solve_on(&["--backend", "pipelined", "--streams", "2"]);
        assert!(
            text.contains("backend pipelined:gpusim:tesla-c2050:1x2"),
            "{text}"
        );
        assert!(text.contains("timeline:"), "{text}");
        assert!(text.contains("makespan"), "{text}");
        for backend in [
            &["--backend", "gpusim:2"][..],
            &["--backend", "gpusim", "--retry", "1"],
        ] {
            let text = solve_on(backend);
            assert!(text.contains("timeline:"), "{backend:?}: {text}");
        }
        let text = solve_on(&["--backend", "gpusim"]);
        assert!(text.contains("backend gpusim:tesla-c2050"), "{text}");
        assert!(!text.contains("timeline:"), "{text}");
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
        // flag, for cluster and pipelined backends alike (chunks need a
        // cluster with more than one stream per device).
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
                "cluster:1:2:2",
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
                "pipelined",
                "--shift",
                "0",
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
                "pipelined",
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

    /// `profile --tensors 0` fails before the solve with an error naming
    /// the flag, as `profile <file>` fails on an empty file.
    #[test]
    fn profile_rejects_an_empty_synthetic_batch() {
        let mut out = Vec::new();
        let err = crate::run(sv(&["profile", "--tensors", "0"]), &mut out).unwrap_err();
        assert_eq!(
            err,
            "invalid --tensors 0: need at least one tensor to profile"
        );
        assert!(out.is_empty(), "printed before failing");
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
        let cases: [(&str, Cmd, &[&str]); 7] = [
            ("solve", solve, &[]),
            ("fibers", fibers, &[]),
            ("report", report, &[]),
            ("tract", tract, &["--width", "3"]),
            ("decompose", decompose, &[]),
            ("gpu", gpu, &[]),
            ("profile", profile, &[]),
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

    /// With no `--shift`, every backend runs the same default shift (the
    /// convex one) and prints the same voxel and eigenpair lines: the
    /// simulated GPU takes its eigenpairs from the cpu backend's lanes.
    #[test]
    fn default_shift_prints_the_same_lines_on_every_backend() {
        let (ph, vox, rpt) = (
            tmp("one-shift-ph.txt"),
            tmp("one-shift-vox.txt"),
            tmp("one-shift-report.txt"),
        );
        let mut out = Vec::new();
        // At α = 0 a quarter of these voxels print other fibers.
        phantom(
            sv(&[
                "--out", &ph, "--width", "8", "--height", "8", "--noise", "0.02", "--seed", "3",
            ]),
            &mut out,
        )
        .unwrap();
        random(sv(&["4", "3", "4", "--out", &vox, "--seed", "3"]), &mut out).unwrap();
        type Cmd = fn(Vec<String>, &mut dyn Write) -> Result<(), String>;
        let lines = |cmd: Cmd, argv: &[&str], backend: &str| {
            let mut argv = sv(argv);
            argv.extend(sv(&["--backend", backend]));
            let mut out = Vec::new();
            cmd(argv, &mut out).unwrap_or_else(|e| panic!("{backend}: {e}"));
            // The backend's own headline (label, seconds) and modeled
            // timeline aside, every line is the solve's.
            String::from_utf8(out)
                .unwrap()
                .lines()
                .filter(|l| !l.starts_with("backend ") && !l.starts_with("timeline: "))
                .map(|l| format!("{l}\n"))
                .collect::<String>()
        };
        let runs: [(&str, Cmd, Vec<&str>); 3] = [
            ("fibers", fibers, vec![&ph, "--starts", "16"]),
            (
                "fibers --report-out",
                fibers,
                vec![&ph, "--starts", "16", "--report-out", &rpt],
            ),
            ("solve", solve, vec![&vox, "--starts", "8"]),
        ];
        for (name, cmd, argv) in runs {
            let want = lines(cmd, &argv, "cpu");
            assert!(
                want.contains("voxel 0:") || want.contains("lambda"),
                "{name}: {want}"
            );
            for backend in ["gpusim", "gpusim:2", "pipelined", "cluster:1:2"] {
                assert_eq!(lines(cmd, &argv, backend), want, "{name} on {backend}");
            }
        }
        for path in [&ph, &vox, &rpt] {
            std::fs::remove_file(path).ok();
        }
    }

    /// A solver the simulated GPU cannot run is a `CPU-only` error raised
    /// before the tensor file is read.
    #[test]
    fn cpu_only_solvers_fail_on_gpusim_before_the_file() {
        let missing = tmp("no-such-tensors.txt");
        type Cmd = fn(Vec<String>, &mut dyn Write) -> Result<(), String>;
        let cmds: [(&str, Cmd); 3] = [("solve", solve), ("fibers", fibers), ("report", report)];
        for (name, cmd) in cmds {
            for bad in [
                ["--shift", "adaptive"],
                ["--solver", "geap"],
                ["--solver", "qrst"],
            ] {
                let mut argv = sv(&[&missing, "--backend", "gpusim"]);
                argv.extend(sv(&bad));
                let mut out = Vec::new();
                let err = cmd(argv, &mut out).unwrap_err();
                assert!(err.contains("CPU-only"), "{name} {bad:?}: {err}");
                assert!(err.contains(bad[1]), "{name} {bad:?}: {err}");
            }
            for shift in ["0", "convex", "concave"] {
                let argv = sv(&[&missing, "--backend", "gpusim", "--shift", shift]);
                let err = cmd(argv, &mut Vec::new()).unwrap_err();
                assert!(err.contains("cannot open"), "{name} --shift {shift}: {err}");
            }
        }
    }

    /// Every option and flag a command accepts is on its usage line, and
    /// every option the line shows is accepted.
    #[test]
    fn usage_lists_every_accepted_option() {
        for cmd in COMMANDS {
            let line = cmd.usage();
            let shown: Vec<&str> = line
                .split_whitespace()
                .filter_map(|token| token.trim_matches(['[', ']']).strip_prefix("--"))
                .collect();
            let groups = cmd.groups.iter();
            let accepted: Vec<&str> = (cmd.values.iter().chain(cmd.flags))
                .chain(groups.flat_map(|g| g.values.iter().chain(g.flags)))
                .copied()
                .collect();
            for name in &accepted {
                assert!(
                    shown.contains(name),
                    "{}: --{name} missing from {line:?}",
                    cmd.name
                );
            }
            for name in &shown {
                assert!(
                    accepted.contains(name),
                    "{}: --{name} not accepted",
                    cmd.name
                );
            }
        }
    }

    /// `--streams` and `--chunk-tensors` have nothing to act on in a CPU
    /// backend, so they fail, naming the flag, before the file is read.
    #[test]
    fn solve_rejects_streams_on_a_cpu_backend() {
        let missing = tmp("no-such-cpu-streams.txt");
        let argv = sv(&[&missing, "--backend", "cpu", "--streams", "0"]);
        let mut out = Vec::new();
        let err = solve(argv, &mut out).unwrap_err();
        assert_eq!(
            err,
            "--streams requires a gpusim backend, got cpu: CPU backends have no streams to overlap"
        );
        assert!(out.is_empty());
    }

    #[test]
    fn fibers_rejects_chunk_tensors_on_a_cpu_backend() {
        let missing = tmp("no-such-cpu-chunks.txt");
        for backend in ["cpu", "cpu:2"] {
            let argv = sv(&[&missing, "--backend", backend, "--chunk-tensors", "0"]);
            let err = fibers(argv, &mut Vec::new()).unwrap_err();
            assert!(
                err.starts_with("--chunk-tensors requires a gpusim backend, got cpu"),
                "{backend}: {err}"
            );
        }
    }

    /// A plain `profile` is one launch on one stream: `--streams` without
    /// `--pipeline` fails, naming both flags.
    #[test]
    fn profile_rejects_streams_without_pipeline() {
        let mut out = Vec::new();
        let argv = sv(&[
            "--tensors",
            "8",
            "--starts",
            "4",
            "--iters",
            "2",
            "--streams",
            "0",
        ]);
        let err = profile(argv, &mut out).unwrap_err();
        assert!(err.starts_with("--streams requires --pipeline"), "{err}");
        assert!(out.is_empty());
    }

    /// Every option a command accepts takes effect: one the run would
    /// ignore is an error naming it, raised before any output, and a
    /// deleted spelling no longer parses. Each argv here names real files
    /// and would otherwise run.
    #[test]
    fn ignored_and_deleted_options_are_typed_errors() {
        let (vox, ph) = (tmp("ignored-vox.txt"), tmp("ignored-ph.txt"));
        let argv = sv(&["4", "3", "3", "--out", &vox, "--seed", "2"]);
        random(argv, &mut Vec::new()).unwrap();
        let argv = sv(&["--out", &ph, "--width", "2", "--height", "2"]);
        phantom(argv, &mut Vec::new()).unwrap();
        type Cmd = fn(Vec<String>, &mut dyn Write) -> Result<(), String>;
        // What solve, fibers and report reject alike, with the text the
        // error must hold.
        let shared: [(&[&str], &str); 9] = [
            (
                &["--solver", "geap", "--shift", "6"],
                "--shift 6 has no effect with --solver geap",
            ),
            (
                &["--solver", "qrst", "--shift", "convex"],
                "--shift convex has no effect with --solver qrst",
            ),
            (
                &["--backend", "gpusim", "--streams", "2"],
                "--streams has no effect on gpusim",
            ),
            (
                &["--backend", "gpusim", "--chunk-tensors", "64"],
                "--chunk-tensors has no effect on gpusim",
            ),
            (
                &["--backend", "gpusim:2", "--streams", "3"],
                "--streams has no effect on gpusim:tesla-c2050:2",
            ),
            (
                &["--backend", "cluster:2:2", "--chunk-tensors", "64"],
                "--chunk-tensors has no effect on cluster",
            ),
            (
                &[
                    "--backend",
                    "cluster:2:2:3",
                    "--streams",
                    "1",
                    "--chunk-tensors",
                    "64",
                ],
                "--chunk-tensors has no effect on cluster:2:2:3",
            ),
            (
                &["--backend", "gpusim", "--pipeline"],
                "unknown option --pipeline",
            ),
            (
                &["--solver", "sshopm:0.5"],
                "invalid --solver \"sshopm:0.5\"",
            ),
        ];
        let mut cases: Vec<(&str, Cmd, Vec<&str>, &str)> = Vec::new();
        let runs: [(&str, Cmd, Vec<&str>); 3] = [
            ("solve", solve, vec![&vox, "--starts", "2"]),
            ("fibers", fibers, vec![&ph, "--starts", "4"]),
            (
                "report",
                report,
                vec![&vox, "--starts", "2", "--iters", "1"],
            ),
        ];
        for (name, cmd, base) in runs {
            for (extra, want) in shared {
                cases.push((name, cmd, [&base[..], extra].concat(), want));
            }
        }
        // The seed is checked before the file on every dimension.
        cases.push((
            "solve",
            solve,
            vec![&vox, "--seed", "x"],
            "invalid value for --seed: \"x\"",
        ));
        cases.push(("solve", solve, vec![&vox, "--all"], "unknown option --all"));
        let gpu_argv = [vox.as_str(), "--starts", "4", "--iters", "2"];
        cases.push((
            "gpu",
            gpu,
            [&gpu_argv[..], &["--variant", "general"]].concat(),
            "unknown option --variant",
        ));
        let synthetic = [
            "--tensors",
            "4",
            "--starts",
            "4",
            "--iters",
            "2",
            "--variant",
            "general",
        ];
        cases.push((
            "profile",
            profile,
            synthetic.to_vec(),
            "unknown option --variant",
        ));
        // A tensor file replaces the synthetic workload these options shape.
        let synthetic_options: [(&str, &str, &str); 3] = [
            (
                "--tensors",
                "4",
                "--tensors has no effect with a tensor file",
            ),
            ("--m", "3", "--m has no effect with a tensor file"),
            ("--n", "2", "--n has no effect with a tensor file"),
        ];
        for (flag, value, want) in synthetic_options {
            let argv = vec![vox.as_str(), "--starts", "2", "--iters", "1", flag, value];
            cases.push(("report", report, argv.clone(), want));
            cases.push(("profile", profile, argv, want));
        }
        for (name, cmd, argv, want) in cases {
            let mut out = Vec::new();
            let err = cmd(sv(&argv), &mut out).unwrap_err();
            assert!(err.contains(want), "{name} {argv:?}: {err}");
            assert!(out.is_empty(), "{name} {argv:?} printed before failing");
        }
        std::fs::remove_file(&vox).ok();
        std::fs::remove_file(&ph).ok();
    }

    /// Every `tensor-eig <command> …` line in the shell blocks of the
    /// README and EXPERIMENTS parses against that command's options plus
    /// the global flags, so the docs name no option the CLI lacks.
    #[test]
    fn documented_command_lines_parse() {
        let docs = [
            ("README.md", include_str!("../../../../README.md")),
            ("EXPERIMENTS.md", include_str!("../../../../EXPERIMENTS.md")),
        ];
        let mut checked = 0;
        for (doc, text) in docs {
            let mut in_shell = false;
            let mut line = String::new();
            for raw in text.lines() {
                if let Some(info) = raw.trim_start().strip_prefix("```") {
                    in_shell = !in_shell && matches!(info.trim(), "bash" | "sh");
                    continue;
                }
                if !in_shell {
                    continue;
                }
                // Join `\` continuations, and drop comments.
                line += raw.split('#').next().unwrap_or_default();
                if let Some(head) = line.strip_suffix('\\') {
                    line = head.to_string();
                    continue;
                }
                let tokens: Vec<String> = std::mem::take(&mut line)
                    .split_whitespace()
                    .skip_while(|&t| t != "tensor-eig")
                    .skip(1)
                    .skip_while(|&t| t == "--")
                    .take_while(|t| !matches!(*t, "|" | ">" | "&&" | ";"))
                    .map(str::to_string)
                    .collect();
                if tokens.is_empty() {
                    continue;
                }
                let (_, argv) = crate::GlobalOpts::extract(tokens.clone())
                    .unwrap_or_else(|e| panic!("{doc}: {tokens:?}: {e}"));
                let (name, rest) = argv.split_first().expect("a command");
                let cmd = COMMANDS
                    .iter()
                    .find(|cmd| cmd.name == name)
                    .unwrap_or_else(|| panic!("{doc}: unknown command in {tokens:?}"));
                if let Err(e) = cmd.parse(rest.to_vec()) {
                    panic!("{doc}: {tokens:?}: {e}");
                }
                checked += 1;
            }
        }
        assert!(checked >= 25, "only {checked} command lines found");
    }
}
