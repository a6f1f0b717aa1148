//! # tensor-eig-cli — command-line front end
//!
//! Subcommands (see [`run`]):
//!
//! * `random <m> <n> <count> --out FILE [--seed S]` — generate tensors;
//! * `info <file>` — shape/count summary of a tensor file;
//! * `solve <file> [--backend B] [--kernel K] [--solver V] [--starts N]
//!   [--shift convex|concave|adaptive|FLOAT] [--tol T] [--refine]` —
//!   eigenpairs per tensor, batched through any execution backend;
//! * `phantom --out FILE [--width W --height H --noise X --seed S]` —
//!   DW-MRI phantom tensors;
//! * `fibers <file> [--backend B] [--kernel K] [--solver V] [--starts N]
//!   [--max-fibers K]` — fiber directions;
//! * `gpu <file> [--starts N] [--variant general|unrolled] [--devices K]
//!   [--iters I]` — batched solve on the simulated GPU;
//! * `profile [file]` — run one simulated GPU launch and dump the full
//!   [`gpusim::ProfileSnapshot`] as pretty JSON;
//! * `report [file] [--format text|json|prom] [--out PATH]` — run one
//!   batched solve (synthetic workload without a file) and emit the
//!   unified, schema-versioned [`telemetry::RunReport`]: throughput,
//!   fault/retry/failover rates, and per-chunk/per-stream/per-device
//!   latency quantiles. `solve` and `fibers` accept `--report-out PATH`
//!   and `--report-format F` to emit the same report alongside their
//!   normal output.
//!
//! `--backend` takes a [`backend::BackendSpec`] string — `cpu` (default,
//! sequential), `cpu:8` / `cpu:all` (rayon pool), `gpusim` (one simulated
//! Tesla C2050), `gpusim:gtx-580`, `gpusim:tesla-c2050:4` (multi-GPU),
//! `pipelined[:device][:count]` (stream-based double buffering; also
//! reachable via `--pipeline` on a gpusim spec, with `--streams K`
//! streams per device and `--chunk-tensors N` tensors per chunk), or
//! `cluster[:device][:hosts[:devices[:streams]]]` (hosts sharded over
//! modeled NICs) — and `--kernel` a [`backend::KernelStrategy`]
//! (`batched` (default), `general`, `blocked` or `tape`, with the paper's
//! labels `precomputed` and `unrolled` as spellings of `batched` and
//! `tape`). `batched` runs SS-HOPM under a fixed, convex or concave shift
//! in lockstep lanes over the tensor arena, one tensor and one shift per
//! lane, and every other solve on the compiled kernels where a shape has
//! them; `tape` runs the compiled unrolled code where a
//! shape has it and `blocked` elsewhere. Every strategy returns the same
//! eigenpairs bit for bit; only the speed and the printed kernel label
//! differ. Every batched solve runs through the same
//! [`backend::SolveBackend`] trait, so CPU and simulated-GPU runs print
//! directly comparable summaries. The simulated GPU supports only fixed
//! numeric shifts. `--solver` takes a [`sshopm::SolverSpec`] string —
//! `sshopm` (default), `sshopm:ALPHA` (pinned fixed shift), `geap`
//! (adaptive projected-Hessian shift), or `qrst` (orthogonal-similarity
//! QR iteration); `geap`/`qrst` are CPU-only.
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

pub mod args;
pub mod commands;

use std::io::Write;
use telemetry::{JsonLinesSink, Telemetry};

/// Global options recognized anywhere on the command line, stripped
/// before subcommand dispatch.
#[derive(Debug, Default, Clone)]
pub struct GlobalOpts {
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
    let Some((cmd, rest)) = argv.split_first() else {
        return Err(usage());
    };
    let rest = rest.to_vec();
    let mut devnull = std::io::sink();
    let cmd_out: &mut dyn Write = if globals.quiet { &mut devnull } else { out };
    let result: Result<(), String> = match cmd.as_str() {
        "random" => commands::random(rest, cmd_out),
        "info" => commands::info(rest, cmd_out),
        "solve" => commands::solve_instrumented(rest, cmd_out, &telemetry),
        "phantom" => commands::phantom(rest, cmd_out),
        "fibers" => commands::fibers(rest, cmd_out),
        "decompose" => commands::decompose(rest, cmd_out),
        "tract" => commands::tract(rest, cmd_out),
        "gpu" => commands::gpu_instrumented(rest, cmd_out, &telemetry),
        "profile" => commands::profile(rest, cmd_out, &telemetry),
        "report" => commands::report_instrumented(rest, cmd_out, &telemetry),
        "help" | "--help" | "-h" => {
            let _ = writeln!(cmd_out, "{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    };
    result?;
    finish_telemetry(&globals, &telemetry, out)
}

/// Post-command telemetry drain: trace export, sink flush, verbose
/// summary.
fn finish_telemetry(
    globals: &GlobalOpts,
    telemetry: &Telemetry,
    out: &mut dyn Write,
) -> Result<(), String> {
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

/// The usage banner.
pub fn usage() -> String {
    "tensor-eig [global options] <command> [options]\n\
     commands:\n\
     \x20 random <m> <n> <count> --out FILE [--seed S]\n\
     \x20 info <file>\n\
     \x20 solve <file> [--backend B] [--kernel K] [--solver V] [--starts N] [--shift convex|concave|adaptive|FLOAT] [--tol T] [--seed S] [--refine] [--all] [--pipeline] [--streams K] [--chunk-tensors N]\n\
     \x20 phantom --out FILE [--width W] [--height H] [--noise X] [--seed S]\n\
     \x20 fibers <file> [--backend B] [--kernel K] [--solver V] [--shift ...] [--starts N] [--max-fibers K] [--pipeline] [--streams K] [--chunk-tensors N]\n\
     \x20 decompose <file> [--terms K] [--starts N] [--tol T]\n\
     \x20 tract <file> --width W [--height H] [--starts N] [--seeds K]\n\
     \x20 gpu <file> [--starts N] [--variant general|unrolled] [--devices K] [--iters I] [--seed S]\n\
     \x20 profile [file] [--tensors T] [--m M] [--n N] [--starts N] [--variant general|unrolled] [--iters I] [--device c1060|c2050|gtx580] [--seed S] [--pipeline] [--streams K]\n\
     \x20 report [file] [--tensors T] [--m M] [--n N] [--starts N] [--iters I] [--backend B] [--kernel K] [--solver V] [--format text|json|prom] [--out PATH] [--seed S]\n\
     \x20 help\n\
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
     \x20 1 stream). gpusim backends need a fixed numeric --shift.\n\
     \x20 --pipeline upgrades a gpusim backend to pipelined (chunked launches\n\
     \x20 whose transfers overlap compute; prints the resolved event-timeline\n\
     \x20 summary) and a one-stream cluster to 2 streams per device.\n\
     \x20 --streams K overrides the streams per device (default 2);\n\
     \x20 --chunk-tensors N sets the tensors per chunk of pipelined and\n\
     \x20 cluster backends (default 256).\n\
     \x20 --kernel K picks how contractions are computed: batched (default;\n\
     \x20 sshopm under a fixed, convex or concave shift runs in lockstep\n\
     \x20 lanes over the tensor arena, other solves on the compiled kernels\n\
     \x20 where the shape has them), general, blocked, or tape (the compiled unrolled code where\n\
     \x20 the shape has it, blocked elsewhere). precomputed and unrolled, the\n\
     \x20 paper's labels, are spellings of batched and tape. Every kernel\n\
     \x20 returns the same eigenpairs bit for bit.\n\
     \x20 --solver V picks the per-tensor eigen-iteration: sshopm (default),\n\
     \x20 sshopm:ALPHA (pinned fixed shift), geap (adaptive projected-Hessian\n\
     \x20 shift), qrst (orthogonal-similarity QR iteration). geap and qrst\n\
     \x20 are CPU-only.\n\
     \x20 report emits the unified run report (throughput, fault rates,\n\
     \x20 p50/p90/p99 latency histograms) as text, JSON, or Prometheus text\n\
     \x20 exposition; solve and fibers take --report-out PATH and\n\
     \x20 --report-format text|json|prom to emit the same report alongside\n\
     \x20 their normal output."
        .to_string()
}

/// Internal command error, stringly typed at the CLI boundary.
#[derive(Debug)]
pub struct CmdError(pub String);

impl<E: std::error::Error> From<E> for CmdError {
    fn from(e: E) -> Self {
        CmdError(e.to_string())
    }
}

impl From<CmdError> for String {
    fn from(e: CmdError) -> String {
        e.0
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
            "sshopm:ALPHA",
            "geap",
            "qrst",
            "gpusim:<device>[:count]",
            "pipelined[:device][:count]",
            "cluster[:device][:hosts[:devices[:streams]]]",
            "--pipeline",
            "--streams K",
            "--chunk-tensors N",
            "profile",
            "report [file]",
            "--format text|json|prom",
            "--report-out PATH",
            "--report-format text|json|prom",
            "batched (default;",
            "tape (the compiled unrolled code",
        ] {
            assert!(u.contains(needle), "usage missing {needle}");
        }
    }
}
