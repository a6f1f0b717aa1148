//! `random`: a file of random tensors.

use super::*;

pub(super) const COMMAND: Command = Command {
    name: "random",
    usage: "<m> <n> <count> --out FILE [--seed S]",
    values: &["out", "seed"],
    flags: &[],
    groups: &[],
    run,
};

fn run(argv: Vec<String>, out: &mut dyn Write, _: &Telemetry) -> Result<(), CmdError> {
    let args = COMMAND.parse(argv)?;
    let mut shape = [0usize; 3];
    for (i, name) in ["m", "n", "count"].into_iter().enumerate() {
        shape[i] = args
            .positional(i, name)?
            .parse()
            .map_err(|_| CmdError(format!("invalid <{name}>")))?;
    }
    let [m, n, count] = shape;
    let path = args
        .get("out")
        .ok_or_else(|| CmdError("--out FILE is required".into()))?;

    let mut rng = StdRng::seed_from_u64(args.get_parsed("seed", 0)?);
    let tensors = TensorBatch::<f64>::random(m, n, count, &mut rng)
        .map_err(|e| CmdError(format!("invalid shape [{m},{n}]: {e}")))?;
    save_batch(path, &tensors)?;
    writeln!(out, "wrote {count} random [{m},{n}] tensors to {path}")?;
    Ok(())
}
