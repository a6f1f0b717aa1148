//! `phantom`: DW-MRI phantom tensors.

use super::*;

pub(super) const COMMAND: Command = Command {
    name: "phantom",
    usage: "--out FILE [--width W] [--height H] [--noise X] [--seed S]",
    values: &["out", "width", "height", "noise", "seed"],
    flags: &[],
    groups: &[],
    run,
};

fn run(argv: Vec<String>, out: &mut dyn Write, _: &Telemetry) -> Result<(), CmdError> {
    let args = COMMAND.parse(argv)?;
    let path = args
        .get("out")
        .ok_or_else(|| CmdError("--out FILE is required".into()))?;
    let amplitude = parse_noise(&args)?;
    let config = dwmri::PhantomConfig {
        width: args.get_parsed("width", 32)?,
        height: args.get_parsed("height", 32)?,
        noise: if amplitude == 0.0 {
            dwmri::NoiseModel::None
        } else {
            dwmri::NoiseModel::Multiplicative { amplitude }
        },
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(args.get_parsed("seed", 0)?);
    let phantom = dwmri::Phantom::generate(config, &mut rng);
    save_batch(path, &phantom.tensor_batch())?;
    writeln!(
        out,
        "wrote {} phantom voxels ({} single-fiber, {} crossing) to {path}",
        phantom.len(),
        phantom.count_with_fibers(1),
        phantom.count_with_fibers(2)
    )?;
    Ok(())
}

/// Parse `--noise` (default 0), the phantom's noise amplitude. A NaN or
/// infinite amplitude would write a file of non-finite entries, which
/// `info` and `fibers` refuse, and a negative one has no meaning, so both
/// are rejected here, before any file is written.
fn parse_noise(args: &Args) -> Result<f64, CmdError> {
    let amplitude: f64 = args.get_parsed("noise", 0.0)?;
    if amplitude.is_finite() && amplitude >= 0.0 {
        return Ok(amplitude);
    }
    Err(CmdError(format!(
        "invalid --noise {:?}: the noise amplitude must be a finite number >= 0",
        args.get("noise").unwrap_or_default()
    )))
}
