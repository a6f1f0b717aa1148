//! The built `tensor-eig` binary buffers its standard output: what it
//! prints must be exactly what in-process [`cli::run`] writes, and a
//! failing command's partial output must still reach stdout.

use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_tensor-eig");

fn tmp(name: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "tensor-eig-binary-test-{}-{name}",
        std::process::id()
    ));
    p.to_string_lossy().into_owned()
}

fn in_process(argv: &[&str]) -> (Vec<u8>, Result<(), String>) {
    let mut out = Vec::new();
    let result = cli::run(argv.iter().map(|s| s.to_string()).collect(), &mut out);
    (out, result)
}

fn binary(argv: &[&str]) -> Output {
    Command::new(BIN)
        .args(argv)
        .output()
        .expect("run tensor-eig")
}

/// A noisy 4×3 phantom, written by the library (not the binary).
fn phantom(name: &str) -> String {
    let path = tmp(name);
    let argv = [
        "phantom", "--out", &path, "--width", "4", "--height", "3", "--noise", "0.02", "--seed",
        "3",
    ];
    in_process(&argv).1.expect("write phantom");
    path
}

#[test]
fn binary_stdout_is_the_in_process_output() {
    let path = phantom("same.txt");
    for argv in [
        &["fibers", &path, "--starts", "16"][..],
        &["fibers", &path, "--starts", "16", "--shift", "0"],
        &["info", &path],
    ] {
        let (want, result) = in_process(argv);
        result.expect("in-process run");
        let got = binary(argv);
        assert!(got.status.success(), "{argv:?}: {got:?}");
        assert!(got.stderr.is_empty(), "{argv:?}: {got:?}");
        assert_eq!(
            String::from_utf8_lossy(&got.stdout),
            String::from_utf8_lossy(&want),
            "{argv:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn a_failing_command_prints_its_partial_output_then_the_error() {
    let path = phantom("partial.txt");
    // The listing is written, then the report cannot be.
    let report = tmp("missing-dir/report.txt");
    let argv = ["fibers", &path, "--starts", "8", "--report-out", &report];
    let (want, result) = in_process(&argv);
    let err = result.expect_err("the report path has no directory");
    assert!(String::from_utf8_lossy(&want).contains("summary: 12 voxels"));
    let got = binary(&argv);
    assert_eq!(got.status.code(), Some(1), "{got:?}");
    assert_eq!(got.stdout, want);
    assert_eq!(
        String::from_utf8_lossy(&got.stderr),
        format!("error: {err}\n")
    );
    std::fs::remove_file(&path).ok();
}
