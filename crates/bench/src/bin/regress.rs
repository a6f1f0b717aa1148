//! Performance-regression gate.
//!
//! ```text
//! regress [--quick] [--seed S] [--out PATH] [--baseline PATH]
//!         [--tolerance X] [--update-baselines] [--validate-baselines]
//! ```
//!
//! Runs the fixed scenario matrix (see `bench::regress`), writes the
//! schema-versioned summary to `BENCH_regress.json` (or `--out`), and
//! compares it against the committed baseline (default
//! `benchmarks/baselines/<suite>.json` under the workspace root, whatever
//! the working directory). Exits nonzero on regression. Alongside the
//! matrix it runs the solver comparison (`sshopm`, `geap`, `qrst` on one
//! shared workload; iteration counts are the deterministic metric) and
//! writes it to `BENCH_solvers.json` in the directory of `--out`.
//!
//! * `--quick` — the small CI perf-smoke suite (default: full).
//! * `--tolerance X` — scale both tolerance bands (1.0 = committed).
//! * `--update-baselines` — refresh the baseline file from this run.
//! * `--validate-baselines` — schema-check every committed baseline
//!   under `benchmarks/baselines/` without running anything.

use bench::regress::{
    baseline_from_run, baselines_dir, compare, run_matrix, run_solvers, validate_baseline,
};
use serde::Value;
use std::process::ExitCode;

struct Options {
    quick: bool,
    seed: u64,
    out: String,
    baseline: Option<String>,
    tolerance: f64,
    update: bool,
    validate_only: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        quick: false,
        seed: 42,
        out: "BENCH_regress.json".to_owned(),
        baseline: None,
        tolerance: 1.0,
        update: false,
        validate_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--update-baselines" => opts.update = true,
            "--validate-baselines" => opts.validate_only = true,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("invalid --seed: {e}"))?
            }
            "--out" => opts.out = value("--out")?,
            "--baseline" => opts.baseline = Some(value("--baseline")?),
            "--tolerance" => {
                opts.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("invalid --tolerance: {e}"))?
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    Ok(opts)
}

/// Schema-check every `benchmarks/baselines/*.json`; true when clean.
fn validate_all_baselines() -> bool {
    let dir = baselines_dir();
    let entries = match std::fs::read_dir(&dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("cannot read {}: {e}", dir.display());
            return false;
        }
    };
    let mut checked = 0usize;
    let mut clean = true;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        checked += 1;
        let doc = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| Value::parse_json(&text).map_err(|e| e.to_string()));
        match doc {
            Ok(doc) => {
                let problems = validate_baseline(&doc);
                if problems.is_empty() {
                    println!("{}: OK", path.display());
                } else {
                    clean = false;
                    for p in &problems {
                        eprintln!("{}: {p}", path.display());
                    }
                }
            }
            Err(e) => {
                clean = false;
                eprintln!("{}: {e}", path.display());
            }
        }
    }
    if checked == 0 {
        eprintln!("no baseline files under {}", dir.display());
        return false;
    }
    clean
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if opts.validate_only {
        return if validate_all_baselines() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let suite = if opts.quick { "quick" } else { "full" };
    let baseline_path = opts.baseline.clone().unwrap_or_else(|| {
        let default = baselines_dir().join(format!("{suite}.json"));
        default.display().to_string()
    });
    println!("running {suite} regression matrix (seed {})", opts.seed);
    let run = run_matrix(opts.quick, opts.seed);
    if let Err(e) = std::fs::write(&opts.out, run.to_json_pretty() + "\n") {
        eprintln!("cannot write {}: {e}", opts.out);
        return ExitCode::from(2);
    }
    println!("wrote {}", opts.out);

    let solvers = run_solvers(opts.quick, opts.seed);
    let out_dir = std::path::Path::new(&opts.out).parent();
    bench::write_bench_json_in(
        out_dir.unwrap_or(std::path::Path::new("")),
        "solvers",
        &solvers,
    );

    if opts.update {
        let baseline = baseline_from_run(&run);
        if let Some(parent) = std::path::Path::new(&baseline_path).parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {}: {e}", parent.display());
                return ExitCode::from(2);
            }
        }
        if let Err(e) = std::fs::write(&baseline_path, baseline.to_json_pretty() + "\n") {
            eprintln!("cannot write {baseline_path}: {e}");
            return ExitCode::from(2);
        }
        println!("updated baseline {baseline_path}");
        return ExitCode::SUCCESS;
    }

    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => match Value::parse_json(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("cannot parse {baseline_path}: {e}");
                return ExitCode::from(2);
            }
        },
        Err(e) => {
            eprintln!(
                "cannot read baseline {baseline_path}: {e}\n\
                 (run with --update-baselines to create it)"
            );
            return ExitCode::from(2);
        }
    };
    let problems = validate_baseline(&baseline);
    if !problems.is_empty() {
        for p in &problems {
            eprintln!("{baseline_path}: {p}");
        }
        return ExitCode::from(2);
    }
    let regressions = compare(&run, &baseline, opts.tolerance);
    if regressions.is_empty() {
        println!("regress OK: {suite} suite within tolerance of {baseline_path}");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{} regression(s) against {baseline_path}:",
            regressions.len()
        );
        for r in &regressions {
            eprintln!("  {r}");
        }
        ExitCode::FAILURE
    }
}
