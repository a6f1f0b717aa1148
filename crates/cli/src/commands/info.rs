//! `info`: the shape, count and norms of a tensor file.

use super::*;

pub(super) const COMMAND: Command = Command {
    name: "info",
    usage: "<file>",
    values: &[],
    flags: &[],
    groups: &[],
    run,
};

fn run(argv: Vec<String>, out: &mut dyn Write, _: &Telemetry) -> Result<(), CmdError> {
    let args = COMMAND.parse(argv)?;
    let path = args.positional(0, "file")?;
    let tensors = load_batch(path)?;
    if tensors.is_empty() {
        writeln!(out, "{path}: empty tensor file")?;
        return Ok(());
    }
    let (m, n) = (tensors.order(), tensors.dim());
    writeln!(
        out,
        "{path}: {} tensors, order {m}, dimension {n}, {} unique entries each ({} total per tensor)",
        tensors.len(),
        tensors.stride(),
        dense_entries(m, n),
    )?;
    let norms: Vec<f64> = tensors.iter().map(|t| t.frobenius_norm()).collect();
    let min = norms.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = norms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean = norms.iter().sum::<f64>() / norms.len() as f64;
    writeln!(
        out,
        "Frobenius norms: min {min:.4}  mean {mean:.4}  max {max:.4}"
    )?;
    Ok(())
}

/// `n^m`, the unpacked tensor's entry count, or `over 2^64` on overflow.
pub(super) fn dense_entries(m: usize, n: usize) -> String {
    u32::try_from(m)
        .ok()
        .and_then(|m| (n as u64).checked_pow(m))
        .map_or_else(|| "over 2^64".to_string(), |e| e.to_string())
}
