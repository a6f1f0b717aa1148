//! The benchmark's own tests. They run the real workloads on small grids.
//!
//! Allocation counts are process-wide, so every test of this binary takes
//! [`serial`] to keep other tests from allocating during a measurement.

use super::*;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

pub(crate) fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A workload on a small grid, with its inputs in a fresh directory.
fn small(name: &str, seed: u64, tag: &str) -> (Workload, Inputs) {
    let mut w = Workload::by_name(name).unwrap();
    w.grid = match w.kind {
        Kind::FibersPaper => 4,
        Kind::Table3Lockstep => 8,
        Kind::FibersLarge => 16,
    };
    let dir = Path::new(WORK_DIR).join(format!("test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let inputs = workload::generate(&w, seed, &dir).unwrap();
    (w, inputs)
}

fn args(name: &str, trace: bool) -> Args {
    Args {
        workload: name.to_string(),
        seed: 0,
        seconds: 0.01,
        trace,
    }
}

fn measure_small(w: &Workload, inputs: &Inputs, trace: bool) -> Outcome {
    let a = args(w.name, trace);
    let (outcome, _) = match w.kind {
        Kind::Table3Lockstep => measure(w, inputs, &a, table3_hooks(w, inputs)),
        _ => measure(w, inputs, &a, fibers_hooks(w, inputs).unwrap()),
    }
    .unwrap();
    outcome
}

#[test]
fn same_seed_gives_identical_inputs() {
    let _g = serial();
    for w in Workload::all() {
        let (_, a) = small(w.name, 7, "seed-a");
        let (_, b) = small(w.name, 7, "seed-b");
        let (_, c) = small(w.name, 8, "seed-c");
        assert_eq!(a.tensors.values(), b.tensors.values(), "{}", w.name);
        assert_ne!(a.tensors.values(), c.tensors.values(), "{}", w.name);
        let bits =
            |s: &[Vec<f32>]| -> Vec<u32> { s.iter().flatten().map(|v| v.to_bits()).collect() };
        assert_eq!(bits(&a.starts_f32), bits(&b.starts_f32), "{}", w.name);
        if let (Some(fa), Some(fb)) = (&a.file, &b.file) {
            assert_eq!(std::fs::read(fa).unwrap(), std::fs::read(fb).unwrap());
            for f in [fa, fb, c.file.as_ref().unwrap()] {
                std::fs::remove_file(f).unwrap();
            }
        } else {
            assert_eq!(w.kind, Kind::Table3Lockstep);
            assert_eq!(a.starts_f32.len(), w.starts);
        }
    }
}

fn catalogue(json: &serde::Value, key: &str) -> Vec<(String, String)> {
    json.get(key)
        .and_then(|v| v.as_seq())
        .unwrap()
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn catalogue_matches_benchmark_json() {
    let _g = serial();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let json = serde::Value::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
        c.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(catalogue(&json, "end_to_end"), owned(END_TO_END));
    assert_eq!(catalogue(&json, "per_layer"), owned(PER_LAYER));
    let names: Vec<String> = json
        .get("workloads")
        .and_then(|v| v.as_seq())
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(|v| v.as_str()).unwrap().to_string())
        .collect();
    let ours: Vec<String> = Workload::all().iter().map(|w| w.name.to_string()).collect();
    assert_eq!(names, ours);
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let _g = serial();
    for w in Workload::all() {
        let (w, inputs) = small(w.name, 3, "print");
        for trace in [false, true] {
            let outcome = measure_small(&w, &inputs, trace);
            let line = outcome.to_json(if trace { PER_LAYER } else { END_TO_END });
            assert!(outcome.correct, "{}: {line}", w.name);
            let parsed = serde::Value::parse_json(&line).unwrap();
            let metrics = parsed.get("metrics").unwrap();
            for (name, unit) in if trace { PER_LAYER } else { END_TO_END } {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{}: no {name}", w.name));
                assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(*unit));
                assert!(m
                    .get("value")
                    .and_then(|v| v.as_f64())
                    .is_some_and(f64::is_finite));
            }
        }
    }
}

#[test]
fn counts_repeat_exactly_across_runs() {
    let _g = serial();
    let counted = [
        "kernel.axm_calls",
        "kernel.axm1_calls",
        "solver.iters_mean",
        "batch.allocs_per_solve",
        "kernelgen.memo_misses",
        "kernelgen.generated",
    ];
    for w in Workload::all() {
        let (w, inputs) = small(w.name, 5, "counts");
        let first = measure_small(&w, &inputs, true);
        let second = measure_small(&w, &inputs, true);
        assert!(first.correct && second.correct, "{}", w.name);
        for name in counted {
            assert_eq!(
                first.metrics[name].to_bits(),
                second.metrics[name].to_bits(),
                "{}: {name}",
                w.name
            );
        }
        assert!(first.metrics["kernel.axm1_calls"] > 0.0);
        assert!(first.metrics["batch.allocs_per_solve"] > 0.0);
    }
}

#[test]
fn arguments_are_validated() {
    let _g = serial();
    let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
    assert!(parse("--workload fibers-paper --seed 1 --seconds 2 --trace 1").is_ok());
    assert!(parse("--workload fibers-paper --seed 1 --seconds 2").is_err());
    assert!(parse("--workload fibers-paper --seed x --seconds 2 --trace 0").is_err());
    assert!(parse("--workload fibers-paper --seed 1 --seconds 2 --trace 2").is_err());
    assert!(Workload::by_name("nope").is_err());
}
