//! perfbench — the measured benchmark of the tensor-eig pipeline.
//!
//! ```text
//! perfbench --workload fibers-paper|table3-lockstep|fibers-large
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates the workload's input from the seed, times its set-up and its
//! pipeline, checks every output, and prints one JSON result line: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. See README.md for the workloads and metrics.

mod alloc;
mod check;
mod host;
mod layers;
mod metrics;
mod trace;
mod workload;

use backend::{KernelRegistry, KernelStrategy};
use dwmri::FiberEstimate;
use metrics::{median, Outcome, END_TO_END, PER_LAYER};
use sshopm::{Eigenpair, Solver, SolverSpec};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::time::Instant;
use symtensor::{flops, Scalar, TensorBatch};
use trace::Tracer;
use workload::{Inputs, Kind, LibraryRun, Workload, DIM, ORDER};

const USAGE: &str = "usage: perfbench --workload fibers-paper|table3-lockstep|fibers-large \
                     --seed N --seconds S --trace 0|1";
/// Generated inputs and the trace file, relative to the checkout root.
const WORK_DIR: &str = ".bench_build/perfbench-work";
/// Untraced repetitions timed at least, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Traced repetitions made at least in a traced run.
const MIN_TRACED: usize = 2;
/// Set-up is timed at least `MIN_SETUPS` times and for at least
/// `SETUP_SECONDS`, at most `MAX_SETUPS` times.
const MIN_SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.0;
const MAX_SETUPS: usize = 2000;
/// Repetition tag of the spans recorded while checking outputs.
const CHECK_REP: usize = usize::MAX;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = argv;
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("--{k} is required"));
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: get("workload")?.clone(),
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number".to_string())?,
        seconds,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        },
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args) -> Result<String, String> {
    let w = Workload::by_name(&args.workload)?;
    let dir = Path::new(WORK_DIR);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {WORK_DIR}: {e}"))?;
    let host = host::HostFacts::probe().to_json();
    println!("host {host}");
    let inputs = workload::generate(&w, args.seed, dir)?;
    let (outcome, spans) = match w.kind {
        Kind::Table3Lockstep => measure(&w, &inputs, args, table3_hooks(&w, &inputs))?,
        Kind::FibersPaper | Kind::FibersLarge => {
            measure(&w, &inputs, args, fibers_hooks(&w, &inputs)?)?
        }
    };
    if args.trace {
        let path = dir.join(format!("trace-{}-{}.json", w.name, args.seed));
        std::fs::write(&path, trace::chrome_trace_json(&spans, &host))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("trace {}", path.display());
    }
    Ok(outcome.to_json(if args.trace { PER_LAYER } else { END_TO_END }))
}

/// What the check run produced that later repetitions are compared with.
struct Reference {
    digest: u64,
    fibers: Vec<Vec<FiberEstimate>>,
}

type Timed = (f64, f64, Vec<u8>);

/// What differs between workloads; [`measure`] does the rest.
#[allow(clippy::type_complexity)]
struct Hooks<'a, S: Scalar> {
    /// The set-up's parse step: the input into the arena.
    parse: Box<dyn Fn() -> Result<TensorBatch<S>, String> + 'a>,
    /// The pipeline through the library calls, with spans on `tracer`.
    library: Box<dyn Fn(&Tracer) -> Result<LibraryRun<S>, String> + 'a>,
    /// One untraced timed repetition: wall seconds, CPU seconds, output.
    untraced: Box<dyn Fn() -> Result<Timed, String> + 'a>,
    /// Whether an untraced repetition's output is the reference's.
    output_matches: Box<dyn Fn(&[u8], &Reference) -> bool + 'a>,
    /// The fibers to score against the phantom's truth.
    fibers: Box<dyn Fn(&LibraryRun<S>, &Tracer) -> Result<Vec<Vec<FiberEstimate>>, String> + 'a>,
    /// Gate checks particular to the workload.
    checks: Box<dyn Fn(&LibraryRun<S>) -> Vec<String> + 'a>,
    starts: Vec<Vec<S>>,
}

/// How fast the host ran between two passes of the workload's reference
/// loop, relative to the reference speed: times are multiplied by this.
fn speed(w: &Workload, loop_before: f64, loop_after: f64) -> f64 {
    w.reference.reference_seconds() * 2.0 / (loop_before + loop_after)
}

fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(f64, f64, T), String> {
    let cpu = host::cpu_seconds();
    let started = Instant::now();
    let out = f()?;
    Ok((
        started.elapsed().as_secs_f64(),
        host::cpu_seconds() - cpu,
        out,
    ))
}

/// A digest of every eigenpair's bits, to compare repetitions exactly.
fn digest<S: Scalar>(results: &[Vec<Eigenpair<S>>]) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    for p in results.iter().flatten() {
        p.lambda.to_f64().to_bits().hash(&mut h);
        for v in &p.x {
            v.to_f64().to_bits().hash(&mut h);
        }
        p.iterations.hash(&mut h);
    }
    h.finish()
}

fn fibers_hooks<'a>(w: &'a Workload, inputs: &'a Inputs) -> Result<Hooks<'a, f64>, String> {
    let file = inputs
        .file
        .as_deref()
        .ok_or_else(|| "fibers workloads read a file".to_string())?;
    Ok(Hooks {
        parse: Box::new(move || workload::parse_file(file)),
        library: Box::new(move |t| workload::fibers_pipeline(w, file, t)),
        untraced: Box::new(move || {
            let argv = w.cli_argv(file);
            timed(|| workload::run_cli(argv))
        }),
        output_matches: Box::new(|out, reference| {
            let printed = workload::parse_cli_fibers(&String::from_utf8_lossy(out));
            check::cli_matches_library(&printed, &reference.fibers)
        }),
        fibers: Box::new(|run, _| Ok(run.fibers.clone())),
        checks: Box::new(|_| Vec::new()),
        starts: sshopm::starts::fibonacci_sphere::<f64>(w.starts),
    })
}

fn table3_hooks<'a>(w: &'a Workload, inputs: &'a Inputs) -> Hooks<'a, f32> {
    Hooks {
        parse: Box::new(move || Ok(inputs.tensors.to_f32())),
        library: Box::new(move |t| workload::table3_pipeline(w, inputs, t)),
        untraced: Box::new(move || {
            let (wall, cpu, run) =
                timed(|| workload::table3_pipeline(w, inputs, &Tracer::new(false)))?;
            Ok((
                wall,
                cpu,
                digest(&run.report.results).to_le_bytes().to_vec(),
            ))
        }),
        output_matches: Box::new(|out, reference| out == reference.digest.to_le_bytes()),
        fibers: Box::new(move |run, t| {
            layers::extract_from_pairs(&inputs.tensors, &run.report, &w.extract_config(), t)
        }),
        checks: Box::new(move |run| {
            let solver = sshopm::SsHopm::new(w.shift()).with_policy(w.policy());
            check::check_lockstep(
                &run.batch,
                &inputs.starts_f32,
                &run.report.results,
                run.report.total_iterations,
                &solver,
            )
        }),
        starts: inputs.starts_f32.clone(),
    }
}

/// The counts that must repeat exactly between repetitions.
fn counts_of<S: Scalar>(run: &LibraryRun<S>) -> [u64; 4] {
    [
        run.report.total_iterations,
        run.solve_allocs,
        run.plan_stats.memo_misses,
        run.plan_stats.generated,
    ]
}

/// Per-layer numbers taken from the check run, beside the timed loop.
struct LayerFacts {
    axm_ns: f64,
    axm1_ns: f64,
    axm_calls: u64,
    axm1_calls: u64,
    lane_util: f64,
    dedup_s: f64,
    peak_gflops: f64,
    iterations: u64,
    useful_flops: u64,
    solve_allocs: u64,
    memo_misses: u64,
    generated: u64,
    stride: usize,
    scalar_bytes: usize,
}

fn layer_facts<S: Scalar>(
    w: &Workload,
    h: &Hooks<'_, S>,
    run: &LibraryRun<S>,
    tracer: &Tracer,
) -> Result<LayerFacts, String> {
    let registry = KernelRegistry::global();
    let results = &run.report.results;
    let solver: Box<dyn Solver<S>> = SolverSpec::default().build::<S>(w.shift(), w.policy());
    let lockstep =
        w.kernel == KernelStrategy::Batched && sshopm::lockstep_alpha(&*solver).is_some();
    // Kernels timed on the workload's own tensors and eigenvectors, and
    // the exact number of evaluations the solve made.
    let (times, (axm_calls, axm1_calls), lane_util) = if lockstep {
        let kernels = registry.batched(ORDER, DIM);
        let times = layers::time_lane_kernels(&kernels, &run.batch, results)?;
        let lanes = layers::lane_counts(results);
        let util = lanes.useful as f64 / lanes.slots as f64;
        (times, (lanes.axm_evals, lanes.axm1_evals), util)
    } else {
        let plan = registry.plan::<S>(ORDER, DIM, w.kernel);
        let times = layers::time_scalar_kernels(&*plan.kernels, &run.batch, results);
        let calls =
            layers::count_scalar_calls(&*plan.kernels, &run.batch, &h.starts, &*solver, results)?;
        (times, calls, 1.0)
    };
    Ok(LayerFacts {
        axm_ns: times.axm_ns,
        axm1_ns: times.axm1_ns,
        axm_calls,
        axm1_calls,
        lane_util,
        dedup_s: layers::time_dedup(&run.batch, results, tracer),
        peak_gflops: host::mul_add_peak_gflops::<S>(),
        iterations: run.report.total_iterations,
        useful_flops: run.report.useful_flops,
        solve_allocs: run.solve_allocs,
        memo_misses: run.plan_stats.memo_misses,
        generated: run.plan_stats.generated,
        stride: run.batch.stride(),
        scalar_bytes: std::mem::size_of::<S>(),
    })
}

fn measure<S: Scalar>(
    w: &Workload,
    inputs: &Inputs,
    args: &Args,
    h: Hooks<'_, S>,
) -> Result<(Outcome, Vec<trace::Span>), String> {
    let registry = KernelRegistry::global();
    let mut errors: Vec<String> = Vec::new();

    // Set-up, each time from a cold kernel registry.
    let mut setups = Vec::new();
    let loop_before_setup = w.reference.run();
    let setup_started = Instant::now();
    while setups.len() < MIN_SETUPS
        || (setup_started.elapsed().as_secs_f64() < SETUP_SECONDS && setups.len() < MAX_SETUPS)
    {
        registry.clear_memory();
        let (wall, _, prepared) =
            timed(|| workload::prepare(w, || (h.parse)(), &Tracer::new(false)))?;
        drop(prepared);
        setups.push(wall);
    }
    let setup_speed = speed(w, loop_before_setup, w.reference.run());

    // The check run warms the caches, and the gate examines its outputs
    // before the timed loop so that loop holds no second copy of them.
    let tracer = Tracer::new(args.trace);
    registry.clear_memory();
    tracer.set_rep(0);
    let check_run = (h.library)(&tracer)?;
    let expected_counts = counts_of(&check_run);
    tracer.set_rep(CHECK_REP);
    let pairs = check::check_pairs(w, &check_run.batch, &check_run.report.results);
    let fibers = (h.fibers)(&check_run, &tracer)?;
    let score = check::score_fibers(&inputs.phantom, &fibers);
    errors.extend(check::gate(w, &pairs, score));
    errors.extend((h.checks)(&check_run));
    let facts = if args.trace {
        Some(layer_facts(w, &h, &check_run, &tracer)?)
    } else {
        None
    };
    let reference = Reference {
        digest: digest(&check_run.report.results),
        fibers: check_run.fibers,
    };
    drop(check_run.report);

    // Timed repetitions, alternating untraced and traced when tracing. The
    // reference loop runs between repetitions; each repetition's times are
    // scaled by the host speed measured on either side of it.
    let mut walls = Vec::new();
    let mut raw_walls = Vec::new();
    let mut cpus = Vec::new();
    let mut speeds = Vec::new();
    let mut loop_prev = w.reference.run();
    let mut traced: Vec<(usize, f64)> = Vec::new();
    let mut first_output: Option<Vec<u8>> = None;
    let mut attempted = 1u64;
    let mut failed = 0u64;
    let started = Instant::now();
    let mut rep = 1;
    loop {
        let enough = walls.len() >= MIN_REPS && (!args.trace || traced.len() >= MIN_TRACED);
        if enough && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        registry.clear_memory();
        attempted += 1;
        if args.trace && rep % 2 == 0 {
            tracer.set_rep(rep);
            let run = (h.library)(&tracer)?;
            if digest(&run.report.results) != reference.digest || counts_of(&run) != expected_counts
            {
                failed += 1;
                errors.push(format!(
                    "traced repetition {rep} differs from the check run: counts {:?} vs {:?}",
                    counts_of(&run),
                    expected_counts
                ));
            }
            traced.push((rep, run.report.seconds));
            loop_prev = w.reference.run();
        } else {
            let (wall, cpu, out) = (h.untraced)()?;
            let loop_next = w.reference.run();
            let factor = speed(w, loop_prev, loop_next);
            loop_prev = loop_next;
            speeds.push(factor);
            walls.push(wall * factor);
            raw_walls.push(wall);
            cpus.push(cpu * factor);
            let same = match &first_output {
                Some(first) => *first == out,
                None => (h.output_matches)(&out, &reference),
            };
            if !same {
                failed += 1;
                errors.push(format!("repetition {rep} printed other results"));
            }
            first_output.get_or_insert(out);
        }
        rep += 1;
    }
    let peak_rss_mb = host::peak_rss_mb();

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let wall_s = median(&mut walls);
    let setup_s = median(&mut setups) * setup_speed;
    m.insert("wall_s", wall_s);
    m.insert("setup_s", setup_s);
    m.insert("solves_per_s", w.solves() as f64 / (wall_s - setup_s));
    m.insert("cpu_s", median(&mut cpus));
    m.insert("peak_rss_mb", peak_rss_mb);
    m.insert("fiber_err_deg", score.err_deg);
    if let Some(facts) = &facts {
        let spans = tracer.spans();
        m.insert("host.speed_factor", median(&mut speeds));
        m.insert("wall_raw_s", median(&mut raw_walls));
        layer_metrics(
            w,
            inputs,
            facts,
            &pairs,
            score,
            &spans,
            &traced,
            &mut m,
            &mut errors,
        );
    }

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in catalogue {
        if !m.get(name).is_some_and(|v| v.is_finite()) {
            errors.push(format!("metric {name} is {:?}", m.get(name)));
        }
    }
    for e in &errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = errors.is_empty() && failed == 0;
    if !correct && failed == 0 {
        failed = 1;
    }
    let outcome = Outcome {
        correct,
        attempted,
        failed,
        metrics: m,
    };
    Ok((outcome, tracer.spans()))
}

#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    w: &Workload,
    inputs: &Inputs,
    facts: &LayerFacts,
    pairs: &check::PairCheck,
    score: check::FiberScore,
    spans: &[trace::Span],
    traced: &[(usize, f64)],
    m: &mut BTreeMap<&'static str, f64>,
    errors: &mut Vec<String>,
) {
    // Span times of the traced repetitions (the check run excluded).
    let own = trace::self_seconds_by_rep(spans);
    let dur = trace::seconds_by_rep(spans);
    let at = |map: &BTreeMap<usize, BTreeMap<&'static str, f64>>, rep: usize, name: &str| {
        map.get(&rep)
            .and_then(|r| r.get(name))
            .copied()
            .unwrap_or(0.0)
    };
    let mut series: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for &(rep, driver_s) in traced {
        let wall = at(&dur, rep, "pipeline");
        let self_sum: f64 = own.get(&rep).map_or(0.0, |r| r.values().sum());
        if (self_sum - wall).abs() > 1e-6 {
            errors.push(format!(
                "self times of repetition {rep} sum to {self_sum} s, not its wall {wall} s"
            ));
        }
        let solve_batch = at(&dur, rep, "backend.solve_batch");
        let mut push = |k: &'static str, v: f64| series.entry(k).or_default().push(v);
        push("io.parse_s", at(&dur, rep, "io.parse"));
        push("kernelgen.plan_cold_s", at(&dur, rep, "kernelgen.plan"));
        push("batch.solve_s", driver_s);
        push("backend.solve_batch_s", solve_batch);
        push("backend.overhead_s", solve_batch - driver_s);
        push("unattributed_s", at(&own, rep, "pipeline"));
        push("trace.wall_s", wall);
        if w.kind != Kind::Table3Lockstep {
            push(
                "extract.self_s",
                at(&own, rep, "dwmri.extract_fibers_reported"),
            );
        }
    }
    if w.kind == Kind::Table3Lockstep {
        // No extraction in this pipeline: the scoring pass's.
        let scoring = at(&own, CHECK_REP, "dwmri.extract_fibers_reported");
        series.insert("extract.self_s", vec![scoring]);
    }
    for (name, mut values) in series {
        m.insert(name, median(&mut values));
    }

    let iters = facts.iterations as f64;
    let solves = w.solves() as f64;
    let batch_solve_s = m["batch.solve_s"];
    // Thread-nanoseconds per iteration, comparable with the kernel times.
    let iter_ns = batch_solve_s * w.threads() as f64 * 1e9 / iters;
    let kernel_ns =
        (facts.axm_calls as f64 * facts.axm_ns + facts.axm1_calls as f64 * facts.axm1_ns) / iters;
    let axm1_gflops = flops::axm1_sym_flops(ORDER, DIM) as f64 / facts.axm1_ns;
    m.insert(
        "io.parse_mb_per_s",
        inputs.input_bytes as f64 / 1e6 / m["io.parse_s"],
    );
    m.insert("kernelgen.memo_misses", facts.memo_misses as f64);
    m.insert("kernelgen.generated", facts.generated as f64);
    m.insert("kernel.axm_ns", facts.axm_ns);
    m.insert("kernel.axm1_ns", facts.axm1_ns);
    m.insert("kernel.axm_calls", facts.axm_calls as f64);
    m.insert("kernel.axm1_calls", facts.axm1_calls as f64);
    m.insert("kernel.axm1_gflops", axm1_gflops);
    m.insert(
        "kernel.bytes_per_eval",
        ((facts.stride + 2 * DIM) * facts.scalar_bytes) as f64,
    );
    m.insert("host.fma_peak_gflops", facts.peak_gflops);
    m.insert(
        "kernel.pct_fma_peak",
        100.0 * axm1_gflops / facts.peak_gflops,
    );
    m.insert("solver.iters_mean", iters / solves);
    m.insert("solver.converged_frac", pairs.converged as f64 / solves);
    m.insert("solver.failed_frac", pairs.failed_frac());
    m.insert("solver.iter_ns", iter_ns);
    m.insert("solver.kernel_ns_per_iter", kernel_ns);
    m.insert("solver.self_ns_per_iter", iter_ns - kernel_ns);
    m.insert(
        "batch.gflops",
        facts.useful_flops as f64 / batch_solve_s / 1e9,
    );
    m.insert("batch.lane_util", facts.lane_util);
    m.insert("batch.allocs_per_solve", facts.solve_allocs as f64 / solves);
    m.insert("dedup.s", facts.dedup_s);
    m.insert("dedup.pairs_per_s", solves / facts.dedup_s);
    m.insert("fiber_miss_frac", 1.0 - score.hit_frac);
    m.insert(
        "trace.overhead_frac",
        m["trace.wall_s"] / m["wall_raw_s"] - 1.0,
    );
}

#[cfg(test)]
mod tests;
