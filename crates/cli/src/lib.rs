//! # tensor-eig-cli — command-line front end
//!
//! Subcommands, one module each, dispatched by [`run`]; `tensor-eig help`
//! ([`usage`]) prints every command's options from the same table:
//!
//! * `random` — generate a file of random tensors;
//! * `info` — shape/count summary of a tensor file;
//! * `solve` — eigenpairs per tensor, batched through any execution
//!   backend;
//! * `phantom` — DW-MRI phantom tensors;
//! * `fibers` — fiber directions per voxel;
//! * `decompose` — greedy rank-one decomposition of each tensor;
//! * `tract` — streamlines traced through a grid's fiber field;
//! * `gpu` — one batched solve on the simulated GPU, with its modeled
//!   cost;
//! * `profile` — run one simulated GPU launch and dump the full
//!   [`gpusim::ProfileSnapshot`] as pretty JSON;
//! * `report` — run one batched solve (synthetic workload without a file)
//!   and emit the unified, schema-versioned [`telemetry::RunReport`]:
//!   throughput, fault/retry/failover rates, and per-chunk/per-stream/
//!   per-device latency quantiles. `solve` and `fibers` accept
//!   `--report-out PATH` and `--report-format F` to emit the same report
//!   alongside their normal output.
//!
//! `--backend` takes a [`backend::BackendSpec`] string — `cpu` (default,
//! sequential), `cpu:8` / `cpu:all` (rayon pool), `gpusim` (one simulated
//! Tesla C2050), `gpusim:gtx-580`, `gpusim:tesla-c2050:4` (multi-GPU),
//! `pipelined[:device][:count]` (stream-based double buffering, with
//! `--streams K` streams per device and `--chunk-tensors N` tensors per
//! chunk), or `cluster[:device][:hosts[:devices[:streams]]]` (hosts
//! sharded over modeled NICs) — and `--kernel` a [`backend::KernelStrategy`]
//! (`batched` (default), `general`, `blocked` or `tape`, with the paper's
//! labels `precomputed` and `unrolled` as spellings of `batched` and
//! `tape`). On a CPU backend `batched` runs SS-HOPM under a fixed, convex
//! or concave shift in lockstep lanes over the tensor arena, one tensor
//! and one shift per lane, and every other solve on the compiled kernels
//! where a shape has them; `tape` is `batched` where a shape has compiled
//! unrolled code (the lane panels are that code) and `blocked` elsewhere,
//! and on the simulated GPU it picks the unrolled variant (`gpu` and
//! `profile` take `--kernel` too, default `tape`). Every strategy
//! returns the same eigenpairs bit for bit; only the speed and the printed
//! kernel label differ. Every batched solve runs through the same
//! [`backend::SolveBackend`] trait, so CPU and simulated-GPU runs print
//! directly comparable summaries; the simulated GPU takes its eigenpairs
//! from the same lanes, so every backend runs the same `--shift` and
//! prints the same eigenpairs. `--solver` takes a [`sshopm::SolverSpec`]
//! string — `sshopm` (default, the one solver `--shift` applies to),
//! `geap` (adaptive projected-Hessian shift), or `qrst`
//! (orthogonal-similarity QR iteration); `geap`, `qrst` and `--shift
//! adaptive` are CPU-only. Every option a command accepts takes effect:
//! one that would be ignored (`--shift` with `geap` or `qrst`,
//! `--streams` or `--chunk-tensors` on a schedule without chunks) is an
//! error naming it.
//!
//! Global options, accepted before or after the subcommand:
//!
//! * `--verbose` — print a telemetry summary (spans, counters, histograms)
//!   after the command finishes;
//! * `--quiet` — suppress normal command output (errors still reach
//!   stderr);
//! * `--metrics-out PATH` — stream every telemetry event to `PATH` as JSON
//!   lines;
//! * `--trace-out PATH` — write a chrome://tracing-compatible trace JSON
//!   to `PATH` when the command finishes.
//!
//! Any of `--verbose`, `--metrics-out`, or `--trace-out` enables the
//! telemetry pipeline; without them instrumentation is inert.
//!
//! File format: the plain-text format of [`symtensor::io`].

#![deny(missing_docs)]

mod args;
mod commands;
mod listing;

use std::io::Write;
use telemetry::{JsonLinesSink, Telemetry};

/// Global options recognized anywhere on the command line, stripped
/// before subcommand dispatch.
#[derive(Debug, Default, Clone)]
pub(crate) struct GlobalOpts {
    /// Print a telemetry summary after the command.
    pub verbose: bool,
    /// Suppress normal command output.
    pub quiet: bool,
    /// Stream telemetry events to this path as JSON lines.
    pub metrics_out: Option<String>,
    /// Write a chrome://tracing trace JSON to this path at exit.
    pub trace_out: Option<String>,
}

impl GlobalOpts {
    /// Split `argv` into the global options and the remaining tokens
    /// (subcommand plus its own arguments, order preserved).
    pub fn extract(argv: Vec<String>) -> Result<(GlobalOpts, Vec<String>), String> {
        let mut globals = GlobalOpts::default();
        let mut rest = Vec::with_capacity(argv.len());
        let mut it = argv.into_iter();
        while let Some(tok) = it.next() {
            match tok.as_str() {
                "--verbose" => globals.verbose = true,
                "--quiet" => globals.quiet = true,
                "--metrics-out" | "--trace-out" => {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("{tok} requires a PATH value"))?;
                    if tok == "--metrics-out" {
                        globals.metrics_out = Some(value);
                    } else {
                        globals.trace_out = Some(value);
                    }
                }
                _ => rest.push(tok),
            }
        }
        if globals.verbose && globals.quiet {
            return Err("--verbose and --quiet are mutually exclusive".into());
        }
        Ok((globals, rest))
    }

    /// Whether any option asks for live instrumentation.
    pub fn wants_telemetry(&self) -> bool {
        self.verbose || self.metrics_out.is_some() || self.trace_out.is_some()
    }

    /// Build the telemetry pipeline these options describe: a JSON-lines
    /// sink when `--metrics-out` is set, plain in-memory aggregation for
    /// `--verbose`/`--trace-out`, and the inert handle otherwise.
    pub fn telemetry(&self) -> Result<Telemetry, String> {
        match &self.metrics_out {
            Some(path) => {
                let sink = JsonLinesSink::create(std::path::Path::new(path))
                    .map_err(|e| format!("cannot create {path}: {e}"))?;
                Ok(Telemetry::with_sink(Box::new(sink)))
            }
            None if self.wants_telemetry() => Ok(Telemetry::enabled()),
            None => Ok(Telemetry::disabled()),
        }
    }
}

/// Top-level dispatch. `argv` excludes the program name. Output goes to
/// `out` so tests can capture it.
pub fn run(argv: Vec<String>, out: &mut dyn Write) -> Result<(), String> {
    let (globals, argv) = GlobalOpts::extract(argv)?;
    let telemetry = globals.telemetry()?;
    let Some((name, rest)) = argv.split_first() else {
        return Err(usage());
    };
    let mut devnull = std::io::sink();
    let cmd_out: &mut dyn Write = if globals.quiet { &mut devnull } else { out };
    match commands::COMMANDS.iter().find(|cmd| cmd.name == name) {
        Some(cmd) => (cmd.run)(rest.to_vec(), cmd_out, &telemetry).map_err(|e| e.0)?,
        None if matches!(name.as_str(), "help" | "--help" | "-h") => {
            let _ = writeln!(cmd_out, "{}", usage());
        }
        None => return Err(format!("unknown command {name:?}\n{}", usage())),
    }
    // The telemetry drain: trace export, sink flush, verbose summary.
    if let Some(path) = &globals.trace_out {
        std::fs::write(path, telemetry.chrome_trace_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    telemetry.flush();
    if globals.verbose && telemetry.is_enabled() {
        writeln!(out, "\n{}", telemetry.summary()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// The usage banner: one line per command of `commands::COMMANDS`, then
/// the global options and notes.
pub fn usage() -> String {
    let mut text = String::from("tensor-eig [global options] <command> [options]\ncommands:\n");
    for cmd in commands::COMMANDS {
        text += &format!("  {}\n", cmd.usage());
    }
    text + USAGE_NOTES
}

/// The banner after the command lines.
const USAGE_NOTES: &str = "  help\n\
     global options:\n\
     \x20 --verbose            print a telemetry summary after the command\n\
     \x20 --quiet              suppress normal output (errors still shown)\n\
     \x20 --metrics-out PATH   stream telemetry events to PATH as JSON lines\n\
     \x20 --trace-out PATH     write a chrome://tracing trace JSON to PATH\n\
     notes:\n\
     \x20 --seed S seeds the deterministic RNG (default 0) wherever random\n\
     \x20 tensors or random starting vectors are drawn.\n\
     \x20 --backend B picks where batched solves run: cpu (default), cpu:K,\n\
     \x20 cpu:all, gpusim, gpusim:<device>[:count] with devices tesla-c2050,\n\
     \x20 tesla-c1060, gtx-580, pipelined[:device][:count] for stream-based\n\
     \x20 double-buffered execution, or cluster[:device][:hosts[:devices[:streams]]]\n\
     \x20 for hosts sharded over modeled NICs (default 2 hosts x 2 devices,\n\
     \x20 1 stream). Every backend runs the same --shift and prints the\n\
     \x20 same eigenpairs; --shift adaptive is CPU-only.\n\
     \x20 --streams K sets the streams per device of a pipelined backend\n\
     \x20 (default 2), a cluster (default 1; above 1 its shards run in\n\
     \x20 chunks) or a run with --faults, --retry or --failover (default 2);\n\
     \x20 --chunk-tensors N sets the tensors per chunk (default 256) wherever\n\
     \x20 chunks run. Either is an error where the backend would ignore it.\n\
     \x20 --kernel K picks how contractions are computed: batched (default;\n\
     \x20 on the CPU, sshopm under a fixed, convex or concave shift runs in\n\
     \x20 lockstep lanes over the tensor arena, other solves on the compiled\n\
     \x20 kernels where the shape has them), general, blocked, or tape\n\
     \x20 (batched where the shape has compiled unrolled code, blocked\n\
     \x20 elsewhere; the simulated GPU runs its unrolled variant there).\n\
     \x20 precomputed and unrolled, the paper's labels, are spellings of\n\
     \x20 batched and tape. Every kernel returns the same eigenpairs bit for\n\
     \x20 bit. gpu and profile take --kernel too (default tape: the simulated\n\
     \x20 GPU's unrolled variant where the shape has compiled code).\n\
     \x20 --solver V picks the per-tensor eigen-iteration: sshopm (default;\n\
     \x20 the one solver --shift applies to), geap (adaptive projected-Hessian\n\
     \x20 shift), qrst (orthogonal-similarity QR iteration). geap and qrst\n\
     \x20 are CPU-only and take no --shift.\n\
     \x20 report emits the unified run report (throughput, fault rates,\n\
     \x20 p50/p90/p99 latency histograms) as text, JSON, or Prometheus text\n\
     \x20 exposition; solve and fibers take --report-out PATH and\n\
     \x20 --report-format text|json|prom to emit the same report alongside\n\
     \x20 their normal output.";

/// Internal command error, stringly typed at the CLI boundary.
#[derive(Debug)]
pub(crate) struct CmdError(pub(crate) String);

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl<E: std::error::Error> From<E> for CmdError {
    fn from(e: E) -> Self {
        CmdError(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn global_opts_strip_from_anywhere() {
        let (g, rest) = GlobalOpts::extract(sv(&[
            "--verbose",
            "solve",
            "file.txt",
            "--metrics-out",
            "m.jsonl",
            "--starts",
            "4",
        ]))
        .unwrap();
        assert!(g.verbose);
        assert!(!g.quiet);
        assert_eq!(g.metrics_out.as_deref(), Some("m.jsonl"));
        assert_eq!(rest, sv(&["solve", "file.txt", "--starts", "4"]));
    }

    #[test]
    fn global_opts_reject_missing_value_and_conflicts() {
        let err = GlobalOpts::extract(sv(&["gpu", "--trace-out"])).unwrap_err();
        assert!(err.contains("--trace-out requires"), "{err}");
        let err = GlobalOpts::extract(sv(&["--verbose", "--quiet", "help"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn telemetry_disabled_without_flags() {
        let (g, _) = GlobalOpts::extract(sv(&["help"])).unwrap();
        assert!(!g.wants_telemetry());
        assert!(!g.telemetry().unwrap().is_enabled());
        let (g, _) = GlobalOpts::extract(sv(&["--verbose", "help"])).unwrap();
        assert!(g.telemetry().unwrap().is_enabled());
    }

    #[test]
    fn quiet_suppresses_command_output() {
        let mut out = Vec::new();
        run(sv(&["--quiet", "help"]), &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn run_profile_writes_metrics_and_trace_files() {
        let mut dir = std::env::temp_dir();
        dir.push(format!("tensor-eig-run-test-{}", std::process::id()));
        let metrics = dir.with_extension("metrics.jsonl");
        let trace = dir.with_extension("trace.json");
        let metrics_s = metrics.to_string_lossy().into_owned();
        let trace_s = trace.to_string_lossy().into_owned();

        let mut out = Vec::new();
        run(
            sv(&[
                "--metrics-out",
                &metrics_s,
                "--trace-out",
                &trace_s,
                "profile",
                "--tensors",
                "4",
                "--starts",
                "4",
                "--iters",
                "2",
            ]),
            &mut out,
        )
        .unwrap();
        // The command's own output is the pretty snapshot JSON.
        let text = String::from_utf8(out).unwrap();
        assert!(serde::Value::parse_json(&text).is_ok(), "{text}");

        // The metrics file holds one JSON object per line.
        let lines = std::fs::read_to_string(&metrics).unwrap();
        assert!(!lines.trim().is_empty());
        for line in lines.lines() {
            assert!(serde::Value::parse_json(line).is_ok(), "{line}");
        }
        // The trace file is a chrome://tracing event array with our span.
        let trace_json = std::fs::read_to_string(&trace).unwrap();
        let events = serde::Value::parse_json(&trace_json).unwrap();
        assert!(events
            .as_seq()
            .unwrap()
            .iter()
            .any(|e| e.get("name").and_then(serde::Value::as_str) == Some("cli.profile")));
        std::fs::remove_file(&metrics).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn verbose_appends_summary() {
        let mut out = Vec::new();
        run(
            sv(&[
                "--verbose",
                "profile",
                "--tensors",
                "2",
                "--starts",
                "4",
                "--iters",
                "2",
            ]),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("cli.profile"), "{text}");
        assert!(text.contains("gpu.launches"), "{text}");
    }

    /// `fibers` records on the run's telemetry like `solve`: the backend's
    /// batch counters and the extraction's spectra counts reach
    /// `--metrics-out` and the `--verbose` summary.
    #[test]
    fn fibers_honours_the_global_telemetry_flags() {
        let mut base = std::env::temp_dir();
        base.push(format!(
            "tensor-eig-fibers-telemetry-{}",
            std::process::id()
        ));
        let phantom = base.with_extension("txt");
        let metrics = base.with_extension("metrics.jsonl");
        let (phantom_s, metrics_s) = (
            phantom.to_string_lossy().into_owned(),
            metrics.to_string_lossy().into_owned(),
        );
        let mut out = Vec::new();
        run(
            sv(&[
                "phantom", "--out", &phantom_s, "--width", "3", "--height", "2",
            ]),
            &mut out,
        )
        .unwrap();
        let fibers = sv(&["fibers", &phantom_s, "--starts", "8"]);

        let mut argv = sv(&["--metrics-out", &metrics_s]);
        argv.extend(fibers.clone());
        run(argv, &mut Vec::new()).unwrap();
        let lines = std::fs::read_to_string(&metrics).unwrap();
        for name in ["batch.solves", "spectra.entries", "cli.fibers"] {
            let quoted = format!("\"{name}\"");
            assert!(
                lines.lines().any(|l| l.contains(&quoted)),
                "{name} missing from {lines}"
            );
        }

        let mut argv = sv(&["--verbose"]);
        argv.extend(fibers);
        let mut out = Vec::new();
        run(argv, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("summary: 6 voxels"), "{text}");
        for name in ["batch.solves", "spectra.entries"] {
            assert!(text.contains(name), "{name} missing from {text}");
        }
        std::fs::remove_file(&phantom).ok();
        std::fs::remove_file(&metrics).ok();
    }

    /// `tract` records on the run's telemetry like `fibers`: a `cli.tract`
    /// span over the extraction's batch and spectra counters.
    #[test]
    fn tract_honours_the_global_telemetry_flags() {
        let mut base = std::env::temp_dir();
        base.push(format!("tensor-eig-tract-telemetry-{}", std::process::id()));
        let phantom = base.with_extension("txt");
        let metrics = base.with_extension("metrics.jsonl");
        let (phantom_s, metrics_s) = (
            phantom.to_string_lossy().into_owned(),
            metrics.to_string_lossy().into_owned(),
        );
        let argv = sv(&[
            "phantom", "--out", &phantom_s, "--width", "6", "--height", "4",
        ]);
        run(argv, &mut Vec::new()).unwrap();
        let tract = sv(&[
            "tract", &phantom_s, "--width", "6", "--starts", "16", "--seeds", "2",
        ]);

        let mut argv = sv(&["--metrics-out", &metrics_s]);
        argv.extend(tract.clone());
        run(argv, &mut Vec::new()).unwrap();
        let lines = std::fs::read_to_string(&metrics).unwrap();
        for name in ["batch.solves", "spectra.entries", "cli.tract"] {
            let quoted = format!("\"{name}\"");
            assert!(
                lines.lines().any(|l| l.contains(&quoted)),
                "{name} missing from {lines}"
            );
        }

        let mut argv = sv(&["--verbose"]);
        argv.extend(tract);
        let mut out = Vec::new();
        run(argv, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("tracking 2 seeds over a 6x4 field"), "{text}");
        for name in ["cli.tract", "batch.solves", "spectra.entries"] {
            assert!(text.contains(name), "{name} missing from {text}");
        }
        std::fs::remove_file(&phantom).ok();
        std::fs::remove_file(&metrics).ok();
    }

    #[test]
    fn usage_documents_globals_and_seed() {
        let u = usage();
        for needle in [
            "--verbose",
            "--quiet",
            "--metrics-out",
            "--trace-out",
            "--seed S",
            "--backend B",
            "--kernel K",
            "--solver V",
            "the one solver --shift applies to",
            "geap",
            "qrst",
            "gpusim:<device>[:count]",
            "pipelined[:device][:count]",
            "cluster[:device][:hosts[:devices[:streams]]]",
            "profile [file]",
            "--streams K",
            "--chunk-tensors N",
            "profile",
            "report [file]",
            "--format text|json|prom",
            "--report-out PATH",
            "--report-format text|json|prom",
            "batched (default;",
            "tape\n  (batched where the shape has compiled unrolled code",
        ] {
            assert!(u.contains(needle), "usage missing {needle}");
        }
    }
}
