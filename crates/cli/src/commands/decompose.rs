//! `decompose`: a greedy rank-one decomposition of each tensor.

use super::*;

pub(super) const COMMAND: Command = Command {
    name: "decompose",
    usage: "<file> [--terms K] [--starts N] [--tol T]",
    values: &["terms", "starts", "tol"],
    flags: &[],
    groups: &[],
    run,
};

fn run(argv: Vec<String>, out: &mut dyn Write, _: &Telemetry) -> Result<(), CmdError> {
    let args = COMMAND.parse(argv)?;
    let path = args.positional(0, "file")?;
    let terms: usize = args.get_parsed("terms", 3)?;
    let starts = parse_starts(&args, 48)?;
    let tol: f64 = args.get_parsed("tol", 1e-8)?;
    let tensors = load_batch(path)?;
    for (i, a) in tensors.iter().enumerate() {
        let cp = sshopm::decompose(&a.to_owned(), terms, starts, tol);
        writeln!(
            out,
            "tensor {i}: {} rank-one term(s), relative residual {:.3e}",
            cp.terms.len(),
            cp.relative_residual()
        )?;
        for (r, t) in cp.terms.iter().enumerate() {
            writeln!(
                out,
                "  term {r}: weight {:>12.6}, v = {:?}, residual {:.3e}",
                t.weight,
                t.vector
                    .iter()
                    .map(|v| (v * 1e4).round() / 1e4)
                    .collect::<Vec<_>>(),
                t.residual_norm
            )?;
        }
    }
    Ok(())
}
