//! The `tensor-eig` binary: thin shell around [`cli::run`].
//!
//! Standard output is buffered and flushed once at exit, or before the
//! error message when a command fails, so partial output still comes
//! first.

use std::io::Write;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut stdout = std::io::BufWriter::new(std::io::stdout().lock());
    let result = cli::run(argv, &mut stdout);
    let flushed = stdout.flush().map_err(|e| e.to_string());
    match result.and(flushed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
