//! `gpu`: one batched solve on the simulated GPU, with its modeled cost.

use super::*;

pub(super) const COMMAND: Command = Command {
    name: "gpu",
    usage: "<file> [--starts N] [--kernel K] [--devices K] [--iters I] [--seed S]",
    values: &["starts", "kernel", "devices", "iters", "seed"],
    flags: &[],
    groups: &[],
    run,
};

/// The backend times the launch on `telemetry` and emits a
/// profile-snapshot event per device slice.
fn run(argv: Vec<String>, out: &mut dyn Write, telemetry: &Telemetry) -> Result<(), CmdError> {
    let args = COMMAND.parse(argv)?;
    let path = args.positional(0, "file")?;
    let starts_count = parse_starts(&args, 128)?;
    let devices: usize = args.get_parsed("devices", 1)?;
    let iters: usize = args.get_parsed("iters", 20)?;
    let strategy = parse_kernel(&args, KernelStrategy::Tape)?;

    let tensors = load_f32(path)?;
    let (m, n) = (tensors.order(), tensors.dim());
    let mut rng = StdRng::seed_from_u64(args.get_parsed("seed", 0)?);
    let starts = sshopm::starts::random_uniform_starts::<f32, _>(n, starts_count, &mut rng);

    let backend = GpuSimBackend::on_host(
        vec![gpusim::DeviceSpec::tesla_c2050(); devices],
        gpusim::TransferModel::pcie2(),
        strategy,
    )?;
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(iters));
    let _launch_span = telemetry.span("cli.gpu");
    let report = backend.solve_batch(&tensors, &starts, &solver, telemetry)?;
    // Only `tape` asks for the unrolled variant; the others run general.
    if strategy == KernelStrategy::Tape && report.kernel == gpusim::GpuVariant::General.name() {
        writeln!(
            out,
            "note: no {} kernel for shape ({m},{n}); falling back to {}",
            args.get("kernel").unwrap_or("unrolled"),
            report.kernel
        )?;
    }
    writeln!(
        out,
        "{} tensors x {} starts x {} iterations ({} kernel) on {}x Tesla C2050 (model)",
        tensors.len(),
        starts_count,
        iters,
        report.kernel,
        devices
    )?;
    for p in &report.profiles {
        writeln!(
            out,
            "  device {}: {} tensors, occupancy {} blocks/SM ({}), kernel {:.3} ms + transfer {:.3} ms",
            p.device_index,
            p.num_tensors,
            p.snapshot.blocks_per_sm,
            p.snapshot.occupancy_limiter,
            p.snapshot.seconds * 1e3,
            p.transfer_seconds * 1e3,
        )?;
    }
    writeln!(
        out,
        "estimated wall-clock {:.3} ms, {:.1} GFLOP/s aggregate",
        report.seconds * 1e3,
        report.gflops()
    )?;
    Ok(())
}
