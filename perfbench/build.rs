//! Captures the facts about the build that every result is recorded with:
//! the compiler version, the build profile and the source commit.

use std::process::Command;

fn run(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    Some(String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = run(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let profile = format!(
        "{} (opt-level {})",
        std::env::var("PROFILE").unwrap_or_default(),
        std::env::var("OPT_LEVEL").unwrap_or_default()
    );
    let commit = run("git", &["rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_PROFILE={profile}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    // Track the checked-out commit when there is one; naming a path that
    // does not exist would make every build rerun this script.
    let head = std::path::Path::new("../.git/HEAD");
    if head.exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/refs/heads");
    }
}
