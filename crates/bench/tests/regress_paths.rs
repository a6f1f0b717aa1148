//! `regress` finds the committed baselines under the workspace root and
//! writes its outputs beside `--out`, so it runs from any working
//! directory.

use std::path::Path;
use std::process::{Command, Output};

/// Run `regress` with `args` from the empty directory `dir`.
fn regress_in(dir: &Path, args: &[&str]) -> Output {
    std::fs::create_dir_all(dir.join("out")).unwrap();
    Command::new(env!("CARGO_BIN_EXE_regress"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

#[test]
fn validate_baselines_runs_from_another_directory() {
    let dir = std::env::temp_dir().join(format!("regress-validate-{}", std::process::id()));
    let out = regress_in(&dir, &["--validate-baselines"]);
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    for suite in ["quick", "full"] {
        let line = format!("benchmarks/baselines/{suite}.json: OK");
        assert!(stdout.contains(&line), "{stdout}");
    }
}

#[test]
fn quick_run_reads_the_default_baseline_from_another_directory() {
    let dir = std::env::temp_dir().join(format!("regress-quick-{}", std::process::id()));
    let report = dir.join("out").join("run.json");
    let out = regress_in(&dir, &["--quick", "--out", &report.to_string_lossy()]);
    let solvers_beside_out = dir.join("out").join("BENCH_solvers.json").is_file();
    let solvers_in_cwd = dir.join("BENCH_solvers.json").exists();
    std::fs::remove_dir_all(&dir).ok();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout.contains("within tolerance of")
            && stdout.contains("benchmarks/baselines/quick.json"),
        "{stdout}"
    );
    assert!(solvers_beside_out && !solvers_in_cwd, "{stdout}");
}
