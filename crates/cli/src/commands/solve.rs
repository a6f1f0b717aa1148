//! `solve`: eigenpairs per tensor, batched through any execution backend.

use super::*;
use sshopm::{spectra_from_rows, DedupConfig};

pub(super) const COMMAND: Command = Command {
    name: "solve",
    usage: "<file> [--solver V] [--starts N] [--shift convex|concave|adaptive|FLOAT] \
            [--tol T] [--seed S] [--refine]",
    values: &["solver", "starts", "shift", "tol", "seed"],
    flags: &["refine"],
    groups: &[BACKEND, REPORT],
    run,
};

/// The backend batch records progress spans and counters on `telemetry`,
/// plus per-tensor eigenpair and failure counts.
fn run(argv: Vec<String>, out: &mut dyn Write, telemetry: &Telemetry) -> Result<(), CmdError> {
    let args = COMMAND.parse(argv)?;
    let path = args.positional(0, "file")?;
    let starts_count = parse_starts(&args, 32)?;
    let tol: f64 = args.get_parsed("tol", 1e-12)?;
    let (solver_spec, shift) = parse_solver(&args)?;
    // The seed draws the starts only when n != 3, but it is an argument
    // like the others: checked before the file is read.
    let seed: u64 = args.get_parsed("seed", 0)?;
    let refine = args.flag("refine");
    let report_request = ReportRequest::from_options(&args)?;
    let (spec, backend) = parse_backend(&args)?;
    // The same Converge policy SsHopm::new().with_tolerance() produced
    // before solver selection existed, so the default spec is bitwise
    // identical to the pre-trait path.
    let solver = solver_spec.build::<f64>(
        shift,
        IterationPolicy::Converge {
            tol,
            max_iters: 1000,
        },
    );
    check_gpu_solver(&spec, &*solver)?;

    let tensors = load_batch(path)?;
    let _cmd_span = telemetry.span("cli.solve");

    // The file format guarantees one shape per batch, so the whole file is
    // a single homogeneous arena: one batched solve through the backend.
    let n = tensors.dim();
    let starts = if n == 3 {
        sshopm::starts::fibonacci_sphere::<f64>(starts_count)
    } else {
        let mut rng = StdRng::seed_from_u64(seed);
        sshopm::starts::random_gaussian_starts::<f64, _>(n, starts_count, &mut rng)
    };
    let (report, run) = backend.solve_batch_with_report(&tensors, &starts, &*solver, telemetry)?;
    telemetry.counter("solve.tensors", tensors.len() as u64);
    let mut summaries = vec![run.headline()];
    if !report.fault_log.injected.is_empty() || report.fault_log.degraded {
        summaries.push(report.fault_log.summary());
    }
    if let Some(timeline) = &report.timeline {
        summaries.push(timeline.summary());
    }
    let spectra = spectra_from_rows(
        &tensors,
        &report.results,
        &DedupConfig::default(),
        1e-5,
        telemetry,
        |spectrum| spectrum,
    );

    for (i, (a, spectrum)) in tensors.iter().zip(&spectra).enumerate() {
        writeln!(
            out,
            "tensor {i}: {} distinct eigenpairs from {} starts ({} failures)",
            spectrum.entries.len(),
            spectrum.total_starts,
            spectrum.failures
        )?;
        for entry in &spectrum.entries {
            let mut pair = entry.pair.clone();
            let mut note = String::new();
            if refine {
                let refined = sshopm::refine(&a.to_owned(), &pair, 4, 1e-14);
                note = format!(
                    " (refined {:.1e} -> {:.1e})",
                    refined.residual_before, refined.residual_after
                );
                pair = refined.pair;
            }
            writeln!(
                out,
                "  lambda {:>13.8}  x {:?}  {:?}  basin {}/{}{}",
                pair.lambda,
                pair.x
                    .iter()
                    .map(|v| (v * 1e6).round() / 1e6)
                    .collect::<Vec<_>>(),
                entry.stability,
                entry.basin_count,
                spectrum.total_starts,
                note
            )?;
        }
    }
    for summary in &summaries {
        writeln!(out, "{summary}")?;
    }
    if let Some(request) = report_request {
        request.write(&run, out)?;
    }
    Ok(())
}
