//! Performance-regression harness: a fixed scenario matrix run through
//! every backend, summarized as schema-versioned JSON and compared
//! against committed baselines under `benchmarks/baselines/`.
//!
//! Every metric carries a tolerance class:
//!
//! * `deterministic` — modeled quantities (simulated-GPU seconds, flop
//!   counts, iteration counts, modeled latency quantiles, fault counts).
//!   These are pure functions of the workload and must reproduce almost
//!   exactly; any drift is a real behavioural change, so the comparison
//!   is two-sided with a tight band.
//! * `measured` — host wall-clock (CPU backends). Noisy and
//!   machine-dependent, so the band is wide and one-sided (only a
//!   slowdown is a regression) — the gate catches catastrophic
//!   regressions without flaking on shared CI hosts.
//!
//! The `regress` binary drives [`run_matrix`] → [`compare`] and writes
//! `BENCH_regress.json`; `--update-baselines` refreshes the committed
//! baseline from the current run instead.

use crate::{bench_metadata, bench_policy, paper, run_on, run_on_solver, Workload};
use backend::{
    BackendSpec, CpuParallel, GpuSimBackend, KernelStrategy, ResilientBackend, SolveBackend,
};
use gpusim::{DeviceSpec, FaultPlan, TransferModel};
use serde::Value;
use sshopm::{IterationPolicy, Shift, SolverSpec};

/// Schema version stamped into every regress run and baseline file.
pub const REGRESS_SCHEMA_VERSION: u64 = 1;

/// Tolerance band for `deterministic` metrics (two-sided ratio).
pub const DETERMINISTIC_TOLERANCE: f64 = 1.05;

/// Tolerance band for `measured` metrics (one-sided ratio): wall-clock
/// on a shared host can swing an order of magnitude; the gate only
/// catches catastrophic slowdowns.
pub const MEASURED_TOLERANCE: f64 = 25.0;

/// How a metric is compared against its baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricClass {
    /// Pure function of the workload; compared two-sided and tightly.
    Deterministic,
    /// Host wall-clock; compared one-sided with a wide band.
    Measured,
}

impl MetricClass {
    /// The class name used in the JSON documents.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricClass::Deterministic => "deterministic",
            MetricClass::Measured => "measured",
        }
    }

    /// Parse a class name from a JSON document.
    pub fn parse(s: &str) -> Option<MetricClass> {
        match s {
            "deterministic" => Some(MetricClass::Deterministic),
            "measured" => Some(MetricClass::Measured),
            _ => None,
        }
    }
}

/// One scenario's metric set: `(name, value, class)` triples.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The stable scenario key (also the baseline map key).
    pub key: &'static str,
    /// Metric triples for this scenario.
    pub metrics: Vec<(&'static str, f64, MetricClass)>,
}

/// The stable scenario keys of the matrix, one per backend family: CPU
/// reference, the lane-vectorized lockstep CPU path, the `tape` strategy
/// (compiled unrolled code at the paper's shape), both simulated-GPU
/// kernels, multi-GPU split, stream
/// pipeline, fault-injected resilient execution, and the sharded
/// multi-host cluster.
pub const SCENARIO_KEYS: [&str; 9] = [
    "cpu-seq-general",
    "cpu-seq-batched",
    "cpu-seq-tape",
    "gpusim-c2050-general",
    "gpusim-c2050-unrolled",
    "multigpu-2x-c2050-general",
    "pipelined-1x2-c2050-general",
    "resilient-watchdog-retry",
    "cluster-2x2-c2050-general",
];

fn scenario_backend(key: &str) -> Box<dyn SolveBackend<f32>> {
    let c2050 = DeviceSpec::tesla_c2050();
    let spec = |s: &str| {
        BackendSpec::parse(s)
            .and_then(|spec| spec.build(KernelStrategy::General))
            .expect("static scenario spec is valid")
    };
    match key {
        "cpu-seq-general" => Box::new(CpuParallel::new(1, KernelStrategy::General)),
        "cpu-seq-batched" => Box::new(CpuParallel::new(1, KernelStrategy::Batched)),
        "cpu-seq-tape" => Box::new(CpuParallel::new(1, KernelStrategy::Tape)),
        "gpusim-c2050-general" => Box::new(GpuSimBackend::new(c2050, KernelStrategy::General)),
        "gpusim-c2050-unrolled" => Box::new(GpuSimBackend::new(c2050, KernelStrategy::Tape)),
        "multigpu-2x-c2050-general" => spec("gpusim:2"),
        "pipelined-1x2-c2050-general" => spec("pipelined"),
        "resilient-watchdog-retry" => Box::new(
            ResilientBackend::new(
                vec![DeviceSpec::tesla_c2050(); 2],
                TransferModel::pcie2(),
                KernelStrategy::General,
                FaultPlan::new(7).with_watchdog(1.0),
            )
            .expect("static scenario spec is valid")
            .with_retries(3),
        ),
        "cluster-2x2-c2050-general" => spec("cluster:2:2:2"),
        other => unreachable!("unknown scenario key {other:?}"),
    }
}

/// Whether the scenario's wall-clock is modeled (simulated GPU time) or
/// measured on the host.
fn seconds_class(key: &str) -> MetricClass {
    if key.starts_with("cpu-") {
        MetricClass::Measured
    } else {
        MetricClass::Deterministic
    }
}

/// Run one scenario of the matrix on `workload` and summarize it.
pub fn run_scenario(key: &'static str, workload: &Workload) -> ScenarioResult {
    let backend = scenario_backend(key);
    let report = run_on(&*backend, workload, bench_policy(), paper::ALPHA);
    let run = report.run_report();
    let secs_class = seconds_class(key);
    let mut metrics: Vec<(&'static str, f64, MetricClass)> = vec![
        ("seconds", report.seconds, secs_class),
        (
            "useful_flops",
            report.useful_flops as f64,
            MetricClass::Deterministic,
        ),
        (
            "total_iterations",
            report.total_iterations as f64,
            MetricClass::Deterministic,
        ),
    ];
    if let Some(chunk) = run.latency("chunk") {
        // Without a stream timeline the chunk histogram is derived from
        // the report's wall-clock, so it inherits the seconds class.
        let class = if report.timeline.is_some() {
            MetricClass::Deterministic
        } else {
            secs_class
        };
        metrics.push(("chunk_latency_p50", chunk.p50(), class));
        metrics.push(("chunk_latency_p99", chunk.p99(), class));
    }
    if !run.faults.is_empty() {
        metrics.push((
            "faults_injected",
            run.faults.injected as f64,
            MetricClass::Deterministic,
        ));
        metrics.push((
            "faults_recovered",
            run.faults.recovered as f64,
            MetricClass::Deterministic,
        ));
    }
    if !run.comm.is_empty() {
        // NIC traffic and its distance from the communication lower
        // bound are modeled quantities: drift means the sharding or the
        // transfer model changed.
        metrics.push((
            "nic_bytes",
            run.comm.nic_bytes as f64,
            MetricClass::Deterministic,
        ));
        metrics.push(("comm_ratio", run.comm.ratio, MetricClass::Deterministic));
    }
    ScenarioResult { key, metrics }
}

fn scenario_to_value(result: &ScenarioResult) -> Value {
    let metrics: Vec<(String, Value)> = result
        .metrics
        .iter()
        .map(|(name, value, class)| {
            (
                (*name).to_owned(),
                Value::object(vec![
                    ("value", Value::Float(*value)),
                    ("class", Value::Str(class.as_str().to_owned())),
                ]),
            )
        })
        .collect();
    Value::object(vec![("metrics", Value::Map(metrics))])
}

/// Run the whole scenario matrix and return the schema-versioned run
/// document written to `BENCH_regress.json`. The `quick` suite (CI
/// perf-smoke) uses a small workload; the full suite a larger one.
pub fn run_matrix(quick: bool, seed: u64) -> Value {
    let (t, v) = if quick { (64, 16) } else { (256, 32) };
    let workload = Workload::random(t, v, paper::M, paper::N, seed);
    let scenarios: Vec<(String, Value)> = SCENARIO_KEYS
        .iter()
        .map(|key| {
            let result = run_scenario(key, &workload);
            (result.key.to_owned(), scenario_to_value(&result))
        })
        .collect();
    Value::object(vec![
        ("schema_version", Value::UInt(REGRESS_SCHEMA_VERSION)),
        (
            "suite",
            Value::Str(if quick { "quick" } else { "full" }.to_owned()),
        ),
        ("seed", Value::UInt(seed)),
        ("num_tensors", Value::UInt(t as u64)),
        ("num_starts", Value::UInt(v as u64)),
        ("metadata", bench_metadata("regress")),
        ("scenarios", Value::Map(scenarios)),
    ])
}

/// The solver specs exercised by the `solvers` scenario document
/// (`BENCH_solvers.json`): the paper's fixed-shift SS-HOPM plus both
/// adaptive alternatives behind `--solver`.
pub const SOLVER_KEYS: [&str; 3] = ["sshopm", "geap", "qrst"];

/// Convergence tolerance for the `solvers` scenario. Looser than the
/// library default so iteration counts stay modest in `f32`.
const SOLVER_SCENARIO_TOL: f64 = 1e-6;

/// Iteration cap for the `solvers` scenario.
const SOLVER_SCENARIO_MAX_ITERS: usize = 200;

/// Run one solver over `workload` on the sequential CPU reference
/// backend under a convergence policy, so the total iteration count —
/// a pure function of the workload and the solver's shift strategy —
/// becomes the scenario's deterministic metric.
pub fn run_solver_scenario(key: &'static str, workload: &Workload) -> ScenarioResult {
    let solver = SolverSpec::parse(key)
        .expect("static solver keys parse")
        .build::<f32>(
            Shift::Fixed(paper::ALPHA),
            IterationPolicy::Converge {
                tol: SOLVER_SCENARIO_TOL,
                max_iters: SOLVER_SCENARIO_MAX_ITERS,
            },
        );
    let backend = CpuParallel::new(1, KernelStrategy::General);
    let report = run_on_solver(&backend, workload, &*solver);
    let solves = report.results.iter().map(Vec::len).sum::<usize>() as u64;
    let converged = report
        .results
        .iter()
        .flatten()
        .filter(|pair| pair.converged)
        .count() as u64;
    ScenarioResult {
        key,
        metrics: vec![
            (
                "total_iterations",
                report.total_iterations as f64,
                MetricClass::Deterministic,
            ),
            (
                "mean_iterations",
                report.total_iterations as f64 / solves.max(1) as f64,
                MetricClass::Deterministic,
            ),
            ("converged", converged as f64, MetricClass::Deterministic),
            ("seconds", report.seconds, MetricClass::Measured),
        ],
    }
}

/// Run every solver in [`SOLVER_KEYS`] over one shared workload and
/// return the schema-versioned document written to `BENCH_solvers.json`.
/// The shape matches the regress matrix so [`validate_baseline`] and
/// [`compare`] apply unchanged.
pub fn run_solvers(quick: bool, seed: u64) -> Value {
    let (t, v) = if quick { (16, 8) } else { (64, 16) };
    let workload = Workload::random(t, v, paper::M, paper::N, seed);
    let scenarios: Vec<(String, Value)> = SOLVER_KEYS
        .iter()
        .map(|key| {
            let result = run_solver_scenario(key, &workload);
            (result.key.to_owned(), scenario_to_value(&result))
        })
        .collect();
    Value::object(vec![
        ("schema_version", Value::UInt(REGRESS_SCHEMA_VERSION)),
        (
            "suite",
            Value::Str(if quick { "quick" } else { "full" }.to_owned()),
        ),
        ("seed", Value::UInt(seed)),
        ("num_tensors", Value::UInt(t as u64)),
        ("num_starts", Value::UInt(v as u64)),
        ("metadata", bench_metadata("solvers")),
        ("scenarios", Value::Map(scenarios)),
    ])
}

/// Strip host metadata from a run document, leaving the committed
/// baseline shape: schema version, suite, seed, workload size, scenarios.
pub fn baseline_from_run(run: &Value) -> Value {
    let fields = [
        "schema_version",
        "suite",
        "seed",
        "num_tensors",
        "num_starts",
        "scenarios",
    ];
    let kept: Vec<(String, Value)> = fields
        .iter()
        .filter_map(|f| run.get(f).map(|v| ((*f).to_owned(), v.clone())))
        .collect();
    Value::Map(kept)
}

fn metrics_of<'a>(doc: &'a Value, scenario: &str) -> Option<&'a Vec<(String, Value)>> {
    match doc.get("scenarios")?.get(scenario)?.get("metrics")? {
        Value::Map(m) => Some(m),
        _ => None,
    }
}

/// Validate a baseline (or run) document: schema version, suite name,
/// and a non-empty scenario map whose metrics all carry finite values
/// and known tolerance classes. Returns a list of problems (empty when
/// the document is well-formed).
pub fn validate_baseline(doc: &Value) -> Vec<String> {
    let mut problems = Vec::new();
    match doc.get("schema_version").and_then(Value::as_u64) {
        Some(REGRESS_SCHEMA_VERSION) => {}
        Some(v) => problems.push(format!(
            "schema_version {v} != supported {REGRESS_SCHEMA_VERSION}"
        )),
        None => problems.push("missing schema_version".to_owned()),
    }
    match doc.get("suite").and_then(Value::as_str) {
        Some("quick") | Some("full") => {}
        Some(s) => problems.push(format!("unknown suite {s:?}")),
        None => problems.push("missing suite".to_owned()),
    }
    let scenarios = match doc.get("scenarios") {
        Some(Value::Map(m)) if !m.is_empty() => m,
        Some(Value::Map(_)) => {
            problems.push("scenarios map is empty".to_owned());
            return problems;
        }
        _ => {
            problems.push("missing scenarios map".to_owned());
            return problems;
        }
    };
    for (key, _) in scenarios {
        let Some(metrics) = metrics_of(doc, key) else {
            problems.push(format!("scenario {key:?}: missing metrics map"));
            continue;
        };
        if metrics.is_empty() {
            problems.push(format!("scenario {key:?}: empty metrics map"));
        }
        for (name, metric) in metrics {
            match metric.get("value").and_then(Value::as_f64) {
                Some(v) if v.is_finite() => {}
                Some(v) => problems.push(format!("{key}/{name}: non-finite value {v}")),
                None => problems.push(format!("{key}/{name}: missing value")),
            }
            match metric.get("class").and_then(Value::as_str) {
                Some(c) if MetricClass::parse(c).is_some() => {}
                Some(c) => problems.push(format!("{key}/{name}: unknown class {c:?}")),
                None => problems.push(format!("{key}/{name}: missing class")),
            }
        }
    }
    problems
}

/// Compare a current run against a baseline. `tolerance_scale` widens
/// (>1) or tightens (<1) both bands: the effective band is
/// `1 + (band - 1) * tolerance_scale`. Returns the list of regressions
/// (empty means the gate passes).
pub fn compare(current: &Value, baseline: &Value, tolerance_scale: f64) -> Vec<String> {
    let mut regressions = Vec::new();
    let (cur_suite, base_suite) = (
        current.get("suite").and_then(Value::as_str),
        baseline.get("suite").and_then(Value::as_str),
    );
    if cur_suite != base_suite {
        regressions.push(format!(
            "suite mismatch: run is {cur_suite:?}, baseline is {base_suite:?}"
        ));
        return regressions;
    }
    let Some(Value::Map(base_scenarios)) = baseline.get("scenarios") else {
        regressions.push("baseline has no scenarios map".to_owned());
        return regressions;
    };
    for (key, _) in base_scenarios {
        let Some(cur_metrics) = metrics_of(current, key) else {
            regressions.push(format!("scenario {key:?} missing from the current run"));
            continue;
        };
        let Some(base_metrics) = metrics_of(baseline, key) else {
            continue;
        };
        for (name, base_metric) in base_metrics {
            let Some(base_value) = base_metric.get("value").and_then(Value::as_f64) else {
                continue;
            };
            let class = base_metric
                .get("class")
                .and_then(Value::as_str)
                .and_then(MetricClass::parse)
                .unwrap_or(MetricClass::Measured);
            let Some(cur_value) = cur_metrics
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, m)| m.get("value"))
                .and_then(Value::as_f64)
            else {
                regressions.push(format!("{key}/{name}: metric missing from the current run"));
                continue;
            };
            let band = match class {
                MetricClass::Deterministic => DETERMINISTIC_TOLERANCE,
                MetricClass::Measured => MEASURED_TOLERANCE,
            };
            let tol = 1.0 + (band - 1.0) * tolerance_scale;
            let violated = match class {
                // Two-sided: any drift of a modeled quantity is real.
                MetricClass::Deterministic => {
                    if base_value.abs() < 1e-12 && cur_value.abs() < 1e-12 {
                        false
                    } else if base_value.abs() < 1e-12 || cur_value.abs() < 1e-12 {
                        true
                    } else {
                        let ratio = (cur_value / base_value).abs();
                        ratio > tol || ratio < 1.0 / tol
                    }
                }
                // One-sided: only slower-than-baseline is a regression.
                MetricClass::Measured => cur_value > base_value * tol,
            };
            if violated {
                regressions.push(format!(
                    "{key}/{name} ({}): current {cur_value:.6e} vs baseline {base_value:.6e} \
                     exceeds x{tol:.2} tolerance",
                    class.as_str()
                ));
            }
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Multiply every deterministic metric value in a run/baseline
    /// document by `factor`, simulating a stale (inflated) baseline.
    fn scale_deterministic(doc: &Value, factor: f64) -> Value {
        fn walk(v: &Value, factor: f64, in_metric: bool) -> Value {
            match v {
                Value::Map(entries) => {
                    let deterministic = in_metric
                        && entries
                            .iter()
                            .any(|(k, val)| k == "class" && val.as_str() == Some("deterministic"));
                    Value::Map(
                        entries
                            .iter()
                            .map(|(k, val)| {
                                if deterministic && k == "value" {
                                    let scaled = val.as_f64().unwrap() * factor;
                                    (k.clone(), Value::Float(scaled))
                                } else {
                                    (k.clone(), walk(val, factor, k == "metrics" || in_metric))
                                }
                            })
                            .collect(),
                    )
                }
                other => other.clone(),
            }
        }
        walk(doc, factor, false)
    }

    #[test]
    fn quick_matrix_validates_and_self_compares_clean() {
        let run = run_matrix(true, 42);
        assert!(
            validate_baseline(&run).is_empty(),
            "{:?}",
            validate_baseline(&run)
        );
        let baseline = baseline_from_run(&run);
        assert!(validate_baseline(&baseline).is_empty());
        let regressions = compare(&run, &baseline, 1.0);
        assert!(regressions.is_empty(), "{regressions:?}");
        // The JSON form round-trips through the committed-file format.
        let parsed = Value::parse_json(&baseline.to_json_pretty()).unwrap();
        assert!(compare(&run, &parsed, 1.0).is_empty());
    }

    #[test]
    fn deterministic_metrics_reproduce_across_runs() {
        let a = run_matrix(true, 7);
        let b = run_matrix(true, 7);
        // Run-to-run, every deterministic metric must compare clean even
        // with a tightened band; only measured wall-clock may move.
        let regressions = compare(&a, &baseline_from_run(&b), 0.1);
        let deterministic: Vec<&String> = regressions
            .iter()
            .filter(|r| r.contains("(deterministic)"))
            .collect();
        assert!(deterministic.is_empty(), "{deterministic:?}");
    }

    #[test]
    fn inflated_baseline_is_detected() {
        let run = run_matrix(true, 42);
        let stale = scale_deterministic(&baseline_from_run(&run), 2.0);
        let regressions = compare(&run, &stale, 1.0);
        assert!(!regressions.is_empty());
        assert!(
            regressions.iter().any(|r| r.contains("(deterministic)")),
            "{regressions:?}"
        );
    }

    #[test]
    fn solver_matrix_validates_and_reproduces() {
        let a = run_solvers(true, 11);
        assert!(
            validate_baseline(&a).is_empty(),
            "{:?}",
            validate_baseline(&a)
        );
        for key in SOLVER_KEYS {
            let metrics = metrics_of(&a, key).expect("solver scenario present");
            let iters = metrics
                .iter()
                .find(|(n, _)| n == "total_iterations")
                .and_then(|(_, m)| m.get("value"))
                .and_then(Value::as_f64)
                .expect("iteration metric present");
            assert!(iters > 0.0, "{key}: no iterations recorded");
        }
        // Iteration counts are pure functions of the workload: rerunning
        // with the same seed must compare clean even with a tight band.
        let b = run_solvers(true, 11);
        let regressions = compare(&a, &baseline_from_run(&b), 0.1);
        let deterministic: Vec<&String> = regressions
            .iter()
            .filter(|r| r.contains("(deterministic)"))
            .collect();
        assert!(deterministic.is_empty(), "{deterministic:?}");
    }

    #[test]
    fn fault_scenario_reports_fault_metrics() {
        let workload = Workload::random(16, 4, paper::M, paper::N, 3);
        let result = run_scenario("resilient-watchdog-retry", &workload);
        let injected = result
            .metrics
            .iter()
            .find(|(n, _, _)| *n == "faults_injected")
            .expect("fault metrics present");
        assert!(injected.1 > 0.0);
    }

    #[test]
    fn validate_rejects_malformed_documents() {
        let missing = Value::object(vec![("suite", Value::Str("quick".into()))]);
        let problems = validate_baseline(&missing);
        assert!(problems.iter().any(|p| p.contains("schema_version")));

        let wrong_version = Value::object(vec![
            ("schema_version", Value::UInt(99)),
            ("suite", Value::Str("quick".into())),
            ("scenarios", Value::Map(vec![])),
        ]);
        let problems = validate_baseline(&wrong_version);
        assert!(problems.iter().any(|p| p.contains("99")));
        assert!(problems.iter().any(|p| p.contains("empty")));
    }

    #[test]
    fn missing_scenario_and_suite_mismatch_are_flagged() {
        let run = run_matrix(true, 42);
        let baseline = baseline_from_run(&run);
        // Drop one scenario from the current run.
        let gutted = Value::Map(match &run {
            Value::Map(entries) => entries
                .iter()
                .map(|(k, v)| {
                    if k == "scenarios" {
                        let Value::Map(scenarios) = v else {
                            unreachable!()
                        };
                        (
                            k.clone(),
                            Value::Map(
                                scenarios
                                    .iter()
                                    .filter(|(key, _)| key != "cpu-seq-general")
                                    .cloned()
                                    .collect(),
                            ),
                        )
                    } else {
                        (k.clone(), v.clone())
                    }
                })
                .collect(),
            _ => unreachable!(),
        });
        let regressions = compare(&gutted, &baseline, 1.0);
        assert!(
            regressions
                .iter()
                .any(|r| r.contains("missing from the current run")),
            "{regressions:?}"
        );

        let full_baseline = {
            let mut entries = match &baseline {
                Value::Map(e) => e.clone(),
                _ => unreachable!(),
            };
            for (k, v) in &mut entries {
                if k == "suite" {
                    *v = Value::Str("full".into());
                }
            }
            Value::Map(entries)
        };
        let regressions = compare(&run, &full_baseline, 1.0);
        assert!(regressions.iter().any(|r| r.contains("suite mismatch")));
    }
}
