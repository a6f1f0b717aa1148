//! `fibers`: fiber directions per voxel of a DW-MRI tensor file.

use super::*;
use crate::listing;

pub(super) const COMMAND: Command = Command {
    name: "fibers",
    usage: "<file> [--solver V] [--shift convex|concave|adaptive|FLOAT] [--starts N] \
            [--max-fibers K]",
    values: &["solver", "shift", "starts", "max-fibers"],
    flags: &[],
    groups: &[BACKEND, REPORT],
    run,
};

/// The backend's batch spans and counters, plus the extraction's
/// `spectra.*` counts, go to `telemetry`.
fn run(argv: Vec<String>, out: &mut dyn Write, telemetry: &Telemetry) -> Result<(), CmdError> {
    let args = COMMAND.parse(argv)?;
    let path = args.positional(0, "file")?;
    let report_request = ReportRequest::from_options(&args)?;
    let (spec, backend) = parse_backend(&args)?;
    let (solver, shift) = parse_solver(&args)?;
    let cfg = dwmri::ExtractConfig {
        num_starts: parse_starts(&args, 64)?,
        max_fibers: args.get_parsed("max-fibers", 3)?,
        shift,
        solver,
        ..Default::default()
    };
    check_gpu_solver(&spec, &*cfg.build_solver())?;
    let tensors = load_batch(path)?;
    let _cmd_span = telemetry.span("cli.fibers");
    // Only a requested report keeps every voxel's pairs: it walks them.
    // Otherwise each voxel's row becomes its fibers as it is solved.
    let (all_fibers, report) = match report_request {
        Some(_) => {
            let (fibers, report) =
                dwmri::extract_fibers_reported(&tensors, &cfg, &*backend, telemetry)?;
            (fibers, Some(report))
        }
        None => (
            dwmri::extract_fibers_with(&tensors, &cfg, &*backend, telemetry)?,
            None,
        ),
    };
    let mut counts = [0usize; 4];
    // One write per voxel; the whole listing is never held in memory.
    let mut line = String::new();
    for (i, fibers) in all_fibers.iter().enumerate() {
        counts[fibers.len().min(3)] += 1;
        listing::voxel_line(&mut line, i, fibers)?;
        out.write_all(line.as_bytes())?;
    }
    writeln!(
        out,
        "summary: {} voxels -> 0 fibers: {}, 1: {}, 2: {}, 3+: {}",
        tensors.len(),
        counts[0],
        counts[1],
        counts[2],
        counts[3]
    )?;
    if let Some((request, report)) = report_request.zip(report) {
        request.write(&report.run_report(), out)?;
    }
    Ok(())
}
