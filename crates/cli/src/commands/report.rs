//! `report`: one batched solve, emitted as the unified run report.

use super::*;

pub(super) const COMMAND: Command = Command {
    name: "report",
    usage: "[file] [--tensors T] [--m M] [--n N] [--starts N] [--iters I] [--seed S] \
            [--solver V] [--shift convex|concave|adaptive|FLOAT] [--format text|json|prom] \
            [--out PATH]",
    values: &[
        "tensors", "m", "n", "starts", "iters", "seed", "shift", "solver", "format", "out",
    ],
    flags: &[],
    groups: &[BACKEND],
    run,
};

/// Runs one batched solve through any execution backend and emits the
/// unified, schema-versioned [`telemetry::RunReport`]: throughput and
/// convergence, fault/retry/failover rates, per-chunk/per-stream/
/// per-device latency quantiles (p50/p90/p99), and per-device occupancy.
/// Counters, gauges and histograms recorded on `telemetry` during the run
/// are folded into it. Without a tensor file it reports on a synthetic
/// random workload of `--tensors` tensors of order `--m` and dimension
/// `--n`; with one, those options are errors. `--format` picks the
/// renderer (default `text`);
/// `--out` writes the report to a file instead of stdout.
fn run(argv: Vec<String>, out: &mut dyn Write, telemetry: &Telemetry) -> Result<(), CmdError> {
    let args = COMMAND.parse(argv)?;
    let request = ReportRequest::new(args.get("format").unwrap_or("text"), args.get("out"))?;
    let (spec, backend) = parse_backend(&args)?;
    let starts_count = parse_starts(&args, 32)?;
    let iters: usize = args.get_parsed("iters", 20)?;
    let (solver, shift) = parse_solver(&args)?;
    let solver = solver.build::<f64>(shift, IterationPolicy::Fixed(iters));
    check_gpu_solver(&spec, &*solver)?;
    let mut rng = StdRng::seed_from_u64(args.get_parsed("seed", 0)?);
    let tensors: TensorBatch<f64> = match args.positional(0, "file").ok() {
        Some(path) => {
            reject_synthetic_options(&args)?;
            load_batch(path)?
        }
        None => {
            let m: usize = args.get_parsed("m", 4)?;
            let n: usize = args.get_parsed("n", 3)?;
            let count: usize = args.get_parsed("tensors", 64)?;
            TensorBatch::<f64>::random(m, n, count, &mut rng)
                .map_err(|e| CmdError(format!("invalid shape [{m},{n}]: {e}")))?
        }
    };
    let n = tensors.dim();
    let starts = if n == 3 {
        sshopm::starts::fibonacci_sphere::<f64>(starts_count)
    } else {
        sshopm::starts::random_gaussian_starts::<f64, _>(n, starts_count, &mut rng)
    };
    let _span = telemetry.span("cli.report");
    let (_batch, run) = backend.solve_batch_with_report(&tensors, &starts, &*solver, telemetry)?;
    request.write(&run, out)
}
