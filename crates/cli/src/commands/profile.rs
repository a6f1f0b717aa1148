//! `profile`: one simulated kernel launch, dumped as its profile snapshot.

use super::*;
use backend::DeviceKind;

pub(super) const COMMAND: Command = Command {
    name: "profile",
    usage: "[file] [--tensors T] [--m M] [--n N] [--starts N] [--kernel K] [--iters I] \
            [--device c1060|c2050|gtx580] [--seed S] [--pipeline] [--streams K]",
    values: &[
        "tensors", "m", "n", "starts", "kernel", "iters", "device", "seed", "streams",
    ],
    flags: &["pipeline"],
    groups: &[],
    run,
};

/// Streams per device when `--pipeline` is given without `--streams`:
/// classic double buffering.
const DEFAULT_STREAMS: usize = 2;

/// Runs one simulated kernel launch through a [`GpuSimBackend`] and dumps
/// the full profile snapshot — counter breakdown, occupancy, divergence
/// and coalescing statistics, timing components — as pretty JSON. Without
/// a tensor file it profiles a synthetic random workload shaped by
/// `--tensors`, `--m` and `--n`; with one, those options are errors. With
/// `--pipeline` the launch runs as a `pipelined` spec on `--streams`
/// streams instead and the resolved event-timeline summary (makespan vs
/// serial, overlap saved) is appended after the JSON.
fn run(argv: Vec<String>, out: &mut dyn Write, telemetry: &Telemetry) -> Result<(), CmdError> {
    let args = COMMAND.parse(argv)?;
    let mut rng = StdRng::seed_from_u64(args.get_parsed("seed", 0)?);
    let tensors: TensorBatch<f32> = match args.positional(0, "file").ok() {
        Some(path) => {
            reject_synthetic_options(&args)?;
            load_f32(path)?
        }
        None => {
            let m: usize = args.get_parsed("m", 4)?;
            let n: usize = args.get_parsed("n", 3)?;
            let count: usize = args.get_parsed("tensors", 256)?;
            if count == 0 {
                return Err(CmdError(
                    "invalid --tensors 0: need at least one tensor to profile".into(),
                ));
            }
            TensorBatch::<f64>::random(m, n, count, &mut rng)
                .map_err(|e| CmdError(format!("invalid shape [{m},{n}]: {e}")))?
                .to_f32()
        }
    };
    let n = tensors.dim();
    let strategy = parse_kernel(&args, KernelStrategy::Tape)?;
    let device = match args.get("device") {
        None | Some("c2050") => DeviceKind::TeslaC2050,
        Some("c1060") => DeviceKind::TeslaC1060,
        Some("gtx580") => DeviceKind::Gtx580,
        Some(v) => return Err(CmdError(format!("invalid --device {v:?}"))),
    };
    let starts_count = parse_starts(&args, 128)?;
    let iters: usize = args.get_parsed("iters", 20)?;
    let starts = sshopm::starts::random_uniform_starts::<f32, _>(n, starts_count, &mut rng);

    let backend = if args.flag("pipeline") {
        BackendSpec::Pipelined { device, devices: 1 }
            .build_gpusim(strategy)?
            .with_streams(args.get_parsed("streams", DEFAULT_STREAMS)?)?
    } else if args.get("streams").is_some() {
        return Err(CmdError(
            "--streams requires --pipeline: a plain profile is one launch on one stream".into(),
        ));
    } else {
        GpuSimBackend::new(device.spec(), strategy)
    };
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(iters));
    let _span = telemetry.span("cli.profile");
    let report = backend.solve_batch(&tensors, &starts, &solver, telemetry)?;
    writeln!(out, "{}", report.profiles[0].snapshot.to_json_pretty())?;
    // Only pipelined launches have a resolved event timeline; the plain
    // profile output stays pure JSON.
    if let Some(timeline) = &report.timeline {
        writeln!(out, "{}", timeline.summary())?;
    }
    Ok(())
}
