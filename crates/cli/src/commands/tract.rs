//! `tract`: streamlines traced through the fiber field of a tensor grid.

use super::*;
use backend::CpuParallel;

pub(super) const COMMAND: Command = Command {
    name: "tract",
    usage: "<file> --width W [--height H] [--starts N] [--seeds K]",
    values: &["width", "height", "starts", "seeds"],
    flags: &[],
    groups: &[],
    run,
};

/// The extraction's batch spans and counters, plus its `spectra.*`
/// counts, go to `telemetry` under a `cli.tract` span.
fn run(argv: Vec<String>, out: &mut dyn Write, telemetry: &Telemetry) -> Result<(), CmdError> {
    let args = COMMAND.parse(argv)?;
    let path = args.positional(0, "file")?;
    let width: usize = args.get_parsed("width", 0)?;
    if width == 0 {
        return Err(CmdError(
            "--width W is required (grid layout of the file)".into(),
        ));
    }
    let starts = parse_starts(&args, 64)?;
    let num_seeds: usize = args.get_parsed("seeds", 5)?;
    // The height defaults to the file's row count, known only once read.
    let height: Option<usize> = args.get_opt("height")?;
    let tensors = load_batch(path)?;
    let _cmd_span = telemetry.span("cli.tract");
    if tensors.len() % width != 0 {
        return Err(CmdError(format!(
            "{} tensors do not tile a grid of width {width}",
            tensors.len()
        )));
    }
    let height = height.unwrap_or(tensors.len() / width);
    if width.checked_mul(height) != Some(tensors.len()) {
        return Err(CmdError(format!(
            "grid {width}x{height} != {} tensors",
            tensors.len()
        )));
    }

    let cfg = dwmri::ExtractConfig {
        num_starts: starts,
        ..Default::default()
    };
    // The CLI's default kernel: the convex-shift extraction runs in lanes.
    let backend = CpuParallel::new(0, KernelStrategy::Batched);
    let fibers = dwmri::extract_fibers_with(&tensors, &cfg, &backend, telemetry)?;
    let field = dwmri::FiberField::new(width, height, fibers)?;

    // Evenly spaced seeds along the left edge.
    let tcfg = dwmri::TractConfig::default();
    writeln!(
        out,
        "tracking {num_seeds} seeds over a {width}x{height} field:"
    )?;
    for s in 0..num_seeds {
        let y = (s as f64 + 0.5) * height as f64 / num_seeds as f64;
        match dwmri::trace(&field, (0.5, y), &tcfg) {
            Some(stream) => writeln!(
                out,
                "  seed (0.5, {y:.1}): length {:.1} voxels, {} points, stops {:?}/{:?}",
                stream.length(),
                stream.points.len(),
                stream.stop_backward,
                stream.stop_forward
            )?,
            None => writeln!(out, "  seed (0.5, {y:.1}): no fibers at seed")?,
        }
    }
    Ok(())
}
