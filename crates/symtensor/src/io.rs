//! Plain-text persistence for packed symmetric tensors.
//!
//! A deliberately simple, line-oriented, versioned format (no external
//! format crates required):
//!
//! ```text
//! symtensor 1              <- magic + format version
//! order 4 dim 3 count 2    <- shape and number of tensors in the file
//! # comment lines and blank lines are ignored
//! 0.5 -0.25 ... (15 values, whitespace-separated, one tensor per line)
//! 1.0 0.0 ...
//! ```
//!
//! Values are written with enough digits to round-trip `f64` exactly
//! (`{:?}` formatting); any whitespace separates values, and a tensor's
//! values may wrap across lines as long as tensors are concatenated in
//! order. Readers of `f32` data parse through `f64`.
//!
//! The reader parses the values in blocks of whole lines, in parallel on
//! every core, and appends each block's values to the arena in file
//! order, so it returns the bits and the first error that reading the
//! file line by line would (DESIGN.md §15).

use crate::batch::{TensorBatch, TensorBatchRef};
use crate::error::Error;
use crate::multinomial::try_num_unique_entries;
use crate::scalar::Scalar;
use crate::storage::SymTensor;
use std::io::{BufRead, BufReader, Read, Write};
use std::sync::{Condvar, Mutex, PoisonError};

/// Errors specific to parsing the text format, converted into
/// [`crate::Error`] via a value-length mismatch or surfaced as
/// `std::io::Error` by the caller-facing functions.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not start with the expected magic/version line.
    BadHeader(String),
    /// A numeric field failed to parse.
    BadNumber {
        /// The offending token.
        token: String,
    },
    /// The file ended before all declared values were read.
    UnexpectedEof {
        /// Values still missing.
        missing: usize,
    },
    /// More values were present than the header declared.
    TrailingValues,
    /// Shape failed tensor validation.
    Shape(Error),
    /// The shape line declares more values than can be counted or held.
    TooLarge(String),
    /// A value token is NaN or infinite in the scalar type being read.
    NonFinite(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "io error: {e}"),
            IoError::BadHeader(line) => write!(f, "bad header line: {line:?}"),
            IoError::BadNumber { token } => write!(f, "bad number: {token:?}"),
            IoError::UnexpectedEof { missing } => {
                write!(f, "unexpected end of file ({missing} values missing)")
            }
            IoError::TrailingValues => write!(f, "trailing values after last tensor"),
            IoError::Shape(e) => write!(f, "invalid shape: {e}"),
            IoError::TooLarge(line) => write!(f, "header declares too many values: {line:?}"),
            IoError::NonFinite(token) => write!(f, "non-finite value: {token:?}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Write an arena batch: the header plus one line of `stride` values per
/// tensor, streamed straight from the contiguous buffer.
pub fn write_tensor_batch<'a, S: Scalar, W: Write>(
    w: &mut W,
    batch: impl Into<TensorBatchRef<'a, S>>,
) -> std::io::Result<()> {
    let batch = batch.into();
    writeln!(w, "symtensor 1")?;
    writeln!(
        w,
        "order {} dim {} count {}",
        batch.order(),
        batch.dim(),
        batch.len()
    )?;
    for t in batch.iter() {
        let mut first = true;
        for v in t.values() {
            if !first {
                write!(w, " ")?;
            }
            write!(w, "{:?}", v.to_f64())?;
            first = false;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Write a batch of same-shaped tensors held in per-tensor storage.
///
/// # Errors
/// Returns [`std::io::ErrorKind::InvalidInput`] if the tensors do not all
/// share one shape, and propagates any write error from `w`.
pub fn write_tensors<S: Scalar, W: Write>(
    w: &mut W,
    tensors: &[SymTensor<S>],
) -> std::io::Result<()> {
    let (m, n) = match tensors.first() {
        Some(t) => (t.order(), t.dim()),
        None => (1, 1), // an empty file still needs a well-formed header
    };
    if !tensors.iter().all(|t| t.order() == m && t.dim() == n) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "all tensors in a file must share one shape",
        ));
    }
    writeln!(w, "symtensor 1")?;
    writeln!(w, "order {m} dim {n} count {}", tensors.len())?;
    for t in tensors {
        let mut first = true;
        for v in t.values() {
            if !first {
                write!(w, " ")?;
            }
            write!(w, "{:?}", v.to_f64())?;
            first = false;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Write a single tensor (a one-element batch).
pub fn write_tensor<S: Scalar, W: Write>(w: &mut W, tensor: &SymTensor<S>) -> std::io::Result<()> {
    write_tensors(w, std::slice::from_ref(tensor))
}

/// Bytes of value text in a block: large enough that claiming a block
/// and appending its values cost little beside parsing it, small enough
/// that the blocks in flight stay far below the arena.
const BLOCK_BYTES: usize = 256 * 1024;

/// Read a batch written by [`write_tensor_batch`] (or [`write_tensors`])
/// directly into one contiguous [`TensorBatch`] arena — no intermediate
/// `Vec<SymTensor>` and no per-tensor allocation. Malformed input, a
/// header declaring more values than memory holds included, is an `Err`.
///
/// The values are parsed in blocks on `available_parallelism()` threads;
/// a file whose values fit in one block is parsed on the calling thread.
pub fn read_tensor_batch<S: Scalar, R: Read + Send>(
    r: R,
) -> std::result::Result<TensorBatch<S>, IoError> {
    read_in_blocks(r, BLOCK_BYTES, || {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    })
}

/// [`read_tensor_batch`] with the value text cut into blocks of about
/// `block` bytes and parsed on `workers()` threads. The count is asked
/// for only when the text spans more than one block: the query reads
/// cgroup files and allocates.
fn read_in_blocks<S: Scalar, R: Read + Send>(
    r: R,
    block: usize,
    workers: impl FnOnce() -> usize,
) -> IoResult<TensorBatch<S>> {
    let mut reader = BufReader::new(r);
    let mut line = String::new();

    // Magic line.
    read_content_line(&mut reader, &mut line)?;
    if line.trim() != "symtensor 1" {
        return Err(IoError::BadHeader(line.trim().to_string()));
    }

    // Shape line: "order M dim N count K".
    read_content_line(&mut reader, &mut line)?;
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() != 6 || fields[0] != "order" || fields[2] != "dim" || fields[4] != "count" {
        return Err(IoError::BadHeader(line.trim().to_string()));
    }
    let m: usize = parse(fields[1])?;
    let n: usize = parse(fields[3])?;
    let count: usize = parse(fields[5])?;
    let too_large = || IoError::TooLarge(line.trim().to_string());
    let needed = num_unique_entries_checked(m, n)?
        .and_then(|u| u.checked_mul(count))
        .ok_or_else(too_large)?;

    // Value stream, into one allocation of exactly the declared size.
    let mut values: Vec<S> = Vec::new();
    values.try_reserve_exact(needed).map_err(|_| too_large())?;
    let mut blocks = Blocks {
        reader,
        block,
        carry: Vec::new(),
        done: false,
    };
    let mut text = Vec::new();
    let read = blocks.fill(&mut text);
    if blocks.done {
        // The values fit in one block: parse it here, into the arena.
        parse_block(&text, &mut values, needed)?;
        read?;
    } else {
        parse_in_parallel(blocks, text, read, &mut values, needed, workers())?;
    }
    if values.len() < needed {
        return Err(IoError::UnexpectedEof {
            missing: needed - values.len(),
        });
    }

    // The flat value stream *is* the arena.
    TensorBatch::from_values(m, n, values).map_err(IoError::Shape)
}

/// Read a batch of tensors written by [`write_tensors`] into per-tensor
/// storage (compatibility wrapper over [`read_tensor_batch`]).
pub fn read_tensors<S: Scalar, R: Read + Send>(
    r: R,
) -> std::result::Result<Vec<SymTensor<S>>, IoError> {
    Ok(read_tensor_batch(r)?.to_tensors())
}

/// Read a single tensor; errors if the file holds zero or several.
pub fn read_tensor<S: Scalar, R: Read + Send>(r: R) -> std::result::Result<SymTensor<S>, IoError> {
    let batch: TensorBatch<S> = read_tensor_batch(r)?;
    if batch.len() != 1 {
        return Err(IoError::BadHeader(format!(
            "expected exactly one tensor, file holds {}",
            batch.len()
        )));
    }
    Ok(batch.get(0).to_owned())
}

/// The value text after the header, handed out one block at a time.
struct Blocks<R> {
    reader: BufReader<R>,
    block: usize,
    /// The bytes after the last newline of the block handed out last.
    carry: Vec<u8>,
    /// Set at the end of the text, at a read error, and at the first
    /// error a block shows: no block after it can change the result.
    done: bool,
}

impl<R: Read> Blocks<R> {
    /// Fill `text` with the next block: at least `block` bytes cut after
    /// their last newline, so a line longer than a block grows it to its
    /// newline, or all that is left. A read error ends the text after the
    /// last whole line read before it, as `read_line` drops a line it
    /// could not finish.
    fn fill(&mut self, text: &mut Vec<u8>) -> std::io::Result<()> {
        text.clear();
        text.append(&mut self.carry);
        text.reserve(self.block.saturating_sub(text.len()));
        loop {
            let start = text.len();
            let want = if start < self.block {
                self.block - start
            } else {
                self.block
            };
            let result = (&mut self.reader).take(want as u64).read_to_end(text);
            // Neither the carry nor a block's text before `start` holds a
            // newline, so the last one is in the bytes just read.
            let cut = text[start..]
                .iter()
                .rposition(|&b| b == b'\n')
                .map(|i| start + i + 1);
            match (result, cut) {
                (Ok(n), _) if n < want => {
                    self.done = true;
                    return Ok(());
                }
                (Ok(_), None) => continue,
                (Ok(_), Some(cut)) => {
                    self.carry.extend_from_slice(&text[cut..]);
                    text.truncate(cut);
                    return Ok(());
                }
                (Err(e), cut) => {
                    text.truncate(cut.unwrap_or(0));
                    self.done = true;
                    return Err(e);
                }
            }
        }
    }
}

/// Parse the lines of `text` onto `values`, which may hold `limit` at
/// most, by the value lines' rules: blank and `#` lines are skipped, and
/// a line that is not UTF-8 fails as `read_line` fails, after the lines
/// before it.
fn parse_block<S: Scalar>(text: &[u8], values: &mut Vec<S>, limit: usize) -> IoResult<()> {
    // A block ends after a newline or at the end of the file, so it is
    // UTF-8 exactly when each of its lines is.
    let (lines, invalid) = match std::str::from_utf8(text) {
        Ok(lines) => (lines, false),
        Err(_) => {
            let valid = text.utf8_chunks().next().map_or("", |chunk| chunk.valid());
            (&valid[..valid.rfind('\n').map_or(0, |i| i + 1)], true)
        }
    };
    for line in lines.split_inclusive('\n') {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // U+000B is the one ASCII character that is Unicode whitespace but
        // not ASCII whitespace, so an ASCII line without it splits the same
        // both ways, and the ASCII split skips decoding UTF-8.
        if trimmed.is_ascii() && !trimmed.as_bytes().contains(&b'\x0b') {
            push_values(trimmed.split_ascii_whitespace(), values, limit)?;
        } else {
            push_values(trimmed.split_whitespace(), values, limit)?;
        }
    }
    if invalid {
        return Err(IoError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )));
    }
    Ok(())
}

/// What the block parsers share, under one lock.
struct Shared<'v, S, R> {
    blocks: Blocks<R>,
    values: &'v mut Vec<S>,
    /// Blocks handed out so far, numbered from 0 in file order.
    claimed: usize,
    /// Blocks appended so far: block `k` is appended at turn `k`.
    appended: usize,
    /// The first error in file order; no block is appended after it.
    error: Option<IoError>,
}

/// Parse the text from block 0, already in `text` and ended by `read`, on
/// `workers` threads, the calling one among them. Each worker claims a
/// block, parses it into its own buffer and waits for the block's turn to
/// append it, so at most `workers` blocks are in flight and the values
/// land in file order.
fn parse_in_parallel<S: Scalar, R: Read + Send>(
    blocks: Blocks<R>,
    text: Vec<u8>,
    read: std::io::Result<()>,
    values: &mut Vec<S>,
    needed: usize,
    workers: usize,
) -> IoResult<()> {
    let shared = Mutex::new(Shared {
        blocks,
        values,
        claimed: 1,
        appended: 0,
        error: None,
    });
    let turn = Condvar::new();
    let ended = std::thread::scope(|scope| {
        // A worker that cannot start leaves its blocks to the others.
        let helpers: Vec<_> = (1..workers)
            .filter_map(|_| {
                std::thread::Builder::new()
                    .spawn_scoped(scope, || {
                        parse_blocks(&shared, &turn, needed, Vec::new(), None)
                    })
                    .ok()
            })
            .collect();
        let mut ended = parse_blocks(&shared, &turn, needed, text, Some((0, read)));
        for helper in helpers {
            ended = ended.and(helper.join().unwrap_or_else(|_| Err(worker_failed())));
        }
        ended
    });
    let shared = shared.into_inner().map_err(|_| worker_failed())?;
    match shared.error {
        Some(e) => Err(e),
        None => ended,
    }
}

/// One worker: claim, parse and append blocks until none is left or an
/// error ends the parse, starting with `first` (a block number and the
/// read error ending it) when given one. Only a poisoned lock is an `Err`
/// here; parse errors are recorded in `shared` at their block's turn.
fn parse_blocks<S: Scalar, R: Read>(
    shared: &Mutex<Shared<'_, S, R>>,
    turn: &Condvar,
    needed: usize,
    mut text: Vec<u8>,
    mut first: Option<(usize, std::io::Result<()>)>,
) -> IoResult<()> {
    let _unwinding = EndOnUnwind { shared, turn };
    let lock = || shared.lock().map_err(|_| worker_failed());
    let mut parsed = Vec::new();
    loop {
        let (seq, read) = match first.take() {
            Some(block) => block,
            None => {
                let mut state = lock()?;
                if state.blocks.done {
                    return Ok(());
                }
                state.claimed += 1;
                (state.claimed - 1, state.blocks.fill(&mut text))
            }
        };
        parsed.clear();
        let result = parse_block(&text, &mut parsed, needed).and(read.map_err(IoError::Io));
        let mut state = lock()?;
        if result.is_err() {
            state.blocks.done = true;
        }
        while state.appended != seq && state.error.is_none() {
            state = turn.wait(state).map_err(|_| worker_failed())?;
        }
        if state.error.is_some() {
            return Ok(());
        }
        // The block's values all come before its own error, so one past
        // the declared count is the first error.
        if parsed.len() > needed - state.values.len() {
            state.error = Some(IoError::TrailingValues);
            state.blocks.done = true;
        } else {
            state.values.extend_from_slice(&parsed);
            state.error = result.err();
        }
        state.appended += 1;
        turn.notify_all();
    }
}

/// Ends the parse when its worker unwinds, so that no other worker waits
/// for the turn of a block that will never be appended.
struct EndOnUnwind<'a, 'v, S, R> {
    shared: &'a Mutex<Shared<'v, S, R>>,
    turn: &'a Condvar,
}

impl<S, R> Drop for EndOnUnwind<'_, '_, S, R> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut state = self.shared.lock().unwrap_or_else(PoisonError::into_inner);
            state.error.get_or_insert_with(worker_failed);
            state.blocks.done = true;
            self.turn.notify_all();
        }
    }
}

/// A parser thread panicked, or left a lock poisoned.
fn worker_failed() -> IoError {
    IoError::Io(std::io::Error::other("a tensor parser thread failed"))
}

/// Parse value tokens onto `values`, which may hold `needed` at most.
fn push_values<'a, S: Scalar>(
    tokens: impl Iterator<Item = &'a str>,
    values: &mut Vec<S>,
    needed: usize,
) -> std::result::Result<(), IoError> {
    for tok in tokens {
        let v: f64 = tok.parse().map_err(|_| IoError::BadNumber {
            token: tok.to_string(),
        })?;
        let v = S::from_f64(v);
        if !v.is_finite() {
            return Err(IoError::NonFinite(tok.to_string()));
        }
        if values.len() == needed {
            return Err(IoError::TrailingValues);
        }
        values.push(v);
    }
    Ok(())
}

/// Values per tensor of shape `(m, n)`; `None` if they overflow a `usize`.
fn num_unique_entries_checked(m: usize, n: usize) -> std::result::Result<Option<usize>, IoError> {
    if !(1..=crate::multinomial::MAX_ORDER).contains(&m) {
        return Err(IoError::Shape(Error::OrderOutOfRange(m)));
    }
    if n < 1 {
        return Err(IoError::Shape(Error::DimensionOutOfRange(n)));
    }
    Ok(try_num_unique_entries(m, n)
        .ok()
        .and_then(|u| usize::try_from(u).ok()))
}

fn parse<T: std::str::FromStr>(tok: &str) -> std::result::Result<T, IoError> {
    tok.parse().map_err(|_| IoError::BadNumber {
        token: tok.to_string(),
    })
}

/// Skip blank/comment lines; error at EOF.
fn read_content_line<R: BufRead>(r: &mut R, line: &mut String) -> std::result::Result<(), IoError> {
    loop {
        line.clear();
        let read = r.read_line(line)?;
        if read == 0 {
            return Err(IoError::UnexpectedEof { missing: 0 });
        }
        let trimmed = line.trim();
        if !trimmed.is_empty() && !trimmed.starts_with('#') {
            return Ok(());
        }
    }
}

/// Result alias for this module.
pub type IoResult<T> = std::result::Result<T, IoError>;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn round_trip(tensors: &[SymTensor<f64>]) -> Vec<SymTensor<f64>> {
        let mut buf = Vec::new();
        write_tensors(&mut buf, tensors).unwrap();
        read_tensors(&buf[..]).unwrap()
    }

    #[test]
    fn single_tensor_round_trips_exactly() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = SymTensor::<f64>::random(4, 3, &mut rng);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        let back: SymTensor<f64> = read_tensor(&buf[..]).unwrap();
        assert_eq!(back.values(), t.values(), "f64 round-trip must be exact");
    }

    #[test]
    fn batch_round_trips() {
        let mut rng = StdRng::seed_from_u64(2);
        let tensors: Vec<SymTensor<f64>> =
            (0..5).map(|_| SymTensor::random(3, 4, &mut rng)).collect();
        let back = round_trip(&tensors);
        assert_eq!(back.len(), 5);
        for (a, b) in tensors.iter().zip(&back) {
            assert_eq!(a.values(), b.values());
        }
    }

    #[test]
    fn empty_batch_round_trips() {
        let back = round_trip(&[]);
        assert!(back.is_empty());
    }

    #[test]
    fn tensor_batch_round_trips_through_arena() {
        let mut rng = StdRng::seed_from_u64(8);
        let batch = TensorBatch::<f64>::random(4, 3, 6, &mut rng).unwrap();
        let mut buf = Vec::new();
        write_tensor_batch(&mut buf, &batch).unwrap();
        let back: TensorBatch<f64> = read_tensor_batch(&buf[..]).unwrap();
        assert_eq!(back, batch, "arena round-trip must be exact");
        // The Vec-based compatibility reader sees the same tensors.
        let tensors: Vec<SymTensor<f64>> = read_tensors(&buf[..]).unwrap();
        assert_eq!(tensors, batch.to_tensors());
    }

    #[test]
    fn batch_and_vec_writers_produce_identical_bytes() {
        let mut rng = StdRng::seed_from_u64(9);
        let tensors: Vec<SymTensor<f64>> =
            (0..4).map(|_| SymTensor::random(3, 4, &mut rng)).collect();
        let batch = TensorBatch::from_tensors(&tensors).unwrap();
        let mut a = Vec::new();
        write_tensors(&mut a, &tensors).unwrap();
        let mut b = Vec::new();
        write_tensor_batch(&mut b, &batch).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn f32_reads_f64_file() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = SymTensor::<f64>::random(4, 3, &mut rng);
        let mut buf = Vec::new();
        write_tensor(&mut buf, &t).unwrap();
        let back: SymTensor<f32> = read_tensor(&buf[..]).unwrap();
        for (a, b) in t.values().iter().zip(back.values()) {
            assert!((*a as f32 - b).abs() < 1e-7);
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# a comment\nsymtensor 1\n# another\norder 2 dim 2 count 1\n\n1.0 2.0\n# trailing comment\n3.0\n";
        let t: SymTensor<f64> = read_tensor(text.as_bytes()).unwrap();
        assert_eq!(t.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn values_may_wrap_lines() {
        let text = "symtensor 1\norder 2 dim 2 count 2\n1 2\n3 4\n5 6\n";
        let ts: Vec<SymTensor<f64>> = read_tensors(text.as_bytes()).unwrap();
        assert_eq!(ts.len(), 2);
        assert_eq!(ts[0].values(), &[1.0, 2.0, 3.0]);
        assert_eq!(ts[1].values(), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn bad_magic_rejected() {
        let text = "symtensor 2\norder 2 dim 2 count 0\n";
        assert!(matches!(
            read_tensors::<f64, _>(text.as_bytes()),
            Err(IoError::BadHeader(_))
        ));
    }

    #[test]
    fn bad_shape_line_rejected() {
        for bad in [
            "symtensor 1\norder 2 dim 2\n",
            "symtensor 1\nshape 2 2 1\n",
            "symtensor 1\norder x dim 2 count 1\n",
        ] {
            assert!(read_tensors::<f64, _>(bad.as_bytes()).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn bad_number_rejected() {
        let text = "symtensor 1\norder 2 dim 2 count 1\n1.0 oops 3.0\n";
        assert!(matches!(
            read_tensors::<f64, _>(text.as_bytes()),
            Err(IoError::BadNumber { .. })
        ));
    }

    #[test]
    fn truncated_file_rejected() {
        let text = "symtensor 1\norder 2 dim 2 count 1\n1.0 2.0\n";
        assert!(matches!(
            read_tensors::<f64, _>(text.as_bytes()),
            Err(IoError::UnexpectedEof { missing: 1 })
        ));
    }

    #[test]
    fn trailing_values_rejected() {
        let text = "symtensor 1\norder 2 dim 2 count 1\n1 2 3 4\n";
        assert!(matches!(
            read_tensors::<f64, _>(text.as_bytes()),
            Err(IoError::TrailingValues)
        ));
    }

    #[test]
    fn invalid_shape_in_header_rejected() {
        let text = "symtensor 1\norder 0 dim 2 count 1\n";
        assert!(matches!(
            read_tensors::<f64, _>(text.as_bytes()),
            Err(IoError::Shape(Error::OrderOutOfRange(0)))
        ));
        let text = "symtensor 1\norder 25 dim 2 count 1\n";
        assert!(read_tensors::<f64, _>(text.as_bytes()).is_err());
    }

    fn read_header(header: &str) -> std::result::Result<TensorBatch<f64>, IoError> {
        read_tensor_batch::<f64, _>(format!("symtensor 1\n{header}\n0.5 0.25\n").as_bytes())
    }

    #[test]
    fn unallocatable_count_is_a_typed_error() {
        // 1.5e15 values: 12 PB of f64, which no address space holds.
        let err = read_header("order 4 dim 3 count 100000000000000").unwrap_err();
        assert!(matches!(err, IoError::TooLarge(_)), "{err}");
        assert!(err.to_string().contains("count 100000000000000"), "{err}");
    }

    #[test]
    fn count_overflowing_the_byte_size_is_a_typed_error() {
        // 1.5e18 values fit a usize, their byte size does not.
        assert!(matches!(
            read_header("order 4 dim 3 count 100000000000000000"),
            Err(IoError::TooLarge(_))
        ));
    }

    #[test]
    fn count_overflowing_the_value_count_is_a_typed_error() {
        // 15 · 2e18 overflows usize itself.
        assert!(matches!(
            read_header("order 4 dim 3 count 2000000000000000000"),
            Err(IoError::TooLarge(_))
        ));
    }

    #[test]
    fn shape_overflowing_the_binomial_is_a_typed_error() {
        // C(100019, 20) overflows u64.
        let err = read_header("order 20 dim 100000 count 1").unwrap_err();
        assert!(matches!(err, IoError::TooLarge(_)), "{err}");
        assert!(err.to_string().contains("too many values"), "{err}");
    }

    #[test]
    fn non_finite_values_are_rejected_by_token() {
        for (token, body) in [("NaN", "1 NaN 3"), ("inf", "1 2 inf"), ("-inf", "-inf 2 3")] {
            let text = format!("symtensor 1\norder 2 dim 2 count 1\n{body}\n");
            match read_tensor_batch::<f64, _>(text.as_bytes()) {
                Err(IoError::NonFinite(t)) => assert_eq!(t, token),
                other => panic!("{body:?}: {other:?}"),
            }
        }
        // Finite in f64 but not in f32.
        let text = "symtensor 1\norder 2 dim 2 count 1\n1 1e39 3\n";
        let err = read_tensor_batch::<f32, _>(text.as_bytes()).unwrap_err();
        assert!(
            err.to_string().contains("non-finite value: \"1e39\""),
            "{err}"
        );
        assert!(read_tensor_batch::<f64, _>(text.as_bytes()).is_ok());
    }

    /// The reference reader: the value lines of `body` read one at a time
    /// with `read_line`, each split with `split_whitespace`.
    fn split_whitespace_reference(
        mut body: impl BufRead,
        needed: usize,
    ) -> Result<Vec<u64>, IoError> {
        let mut values = Vec::new();
        let mut line = String::new();
        loop {
            line.clear();
            if body.read_line(&mut line)? == 0 {
                break;
            }
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            for tok in trimmed.split_whitespace() {
                let v: f64 = tok.parse().map_err(|_| IoError::BadNumber {
                    token: tok.to_string(),
                })?;
                if !v.is_finite() {
                    return Err(IoError::NonFinite(tok.to_string()));
                }
                if values.len() == needed {
                    return Err(IoError::TrailingValues);
                }
                values.push(v.to_bits());
            }
        }
        match needed - values.len() {
            0 => Ok(values),
            missing => Err(IoError::UnexpectedEof { missing }),
        }
    }

    /// A read's outcome as text: the bits, or the error variant with its
    /// token or count; an I/O error by its kind and message.
    fn outcome(read: Result<Vec<u64>, IoError>) -> String {
        match read {
            Err(IoError::Io(e)) => format!("Io({:?}: {e})", e.kind()),
            other => format!("{other:?}"),
        }
    }

    fn bits(batch: TensorBatch<f64>) -> Vec<u64> {
        batch.values().iter().map(|v| v.to_bits()).collect()
    }

    const HEADER: &[u8] = b"symtensor 1\norder 2 dim 2 count 2\n";

    /// On two (2, 2) tensors, `read_tensor_batch` and the block reader in
    /// blocks of 1, 2, 7 and 64 bytes on 1 to 3 workers give the
    /// reference's bits, or its error variant with the same token or count.
    fn assert_reads_like_reference(body: impl AsRef<[u8]>) {
        let body = body.as_ref();
        let text = [HEADER, body].concat();
        let want = outcome(split_whitespace_reference(body, 6));
        let shown = String::from_utf8_lossy(body);
        let got = read_tensor_batch::<f64, _>(&text[..]).map(bits);
        assert_eq!(outcome(got), want, "{shown:?}");
        for block in [1, 2, 7, 64] {
            for workers in 1..=3 {
                let got = read_in_blocks::<f64, _>(&text[..], block, || workers).map(bits);
                let case = format!("{shown:?} in {block}-byte blocks on {workers} workers");
                assert_eq!(outcome(got), want, "{case}");
            }
        }
    }

    #[test]
    fn ascii_split_reads_what_split_whitespace_reads() {
        for body in [
            "1\t2\t3\n4 5 6\n",
            "1 2 3\r\n4 5 6\r\n",
            "1\x0c2 3\n4 5 6\n",
            "1\x0b2 3\n4 5 6\n",
            "1\x0b\x0b2\t\x0b3 4 5 6\x0b\n",
            "\x0b1 2 3 4 5 6\n",
            "1\u{a0}2 3\n4 5 6\n",
            "1\u{2003}2 3\n4 5 6\n",
            "1\u{3000}2 3\n4 5 6\n",
            "1\u{85}2 3 4 5 6\n",
            "1\x1c2 3 4 5 6\n",
            "# comment \u{3000}\n1 2 3\n\n\t\n  # indented\n4 5 6\n# tail\n",
            "1\n2\n3 4\n5\n6\n",
            "1 2 x 4 5 6\n",
            "1 2 2\u{e9} 4 5 6\n",
            "1 2 3 4 5 6 7\n",
            "1 2 3\n",
            "1 NaN 3 4 5 6\n",
            "1 2 3 4 5 -inf\n",
            "",
        ] {
            assert_reads_like_reference(body);
        }
    }

    #[test]
    fn ascii_split_matches_on_random_mixed_separators() {
        use rand::Rng;
        let pieces = [
            "1", "-2.5", "3e-3", "0x1", "x", "NaN", "#", " ", " ", "\t", "\x0b", "\x0c", "\r",
            "\n", "\n", "\u{a0}", "\u{2003}", "\u{3000}", "\u{85}", "\x1c", "\u{e9}",
        ];
        let mut rng = StdRng::seed_from_u64(0x70c3);
        for _ in 0..2_000 {
            let len = rng.gen_range(0..24);
            let body: String = (0..len)
                .map(|_| pieces[rng.gen_range(0..pieces.len())])
                .collect();
            assert_reads_like_reference(&body);
        }
    }

    #[test]
    fn block_edges_read_what_lines_read() {
        let long_line = format!("1.{} 2 3\n4 5 6\n", "0".repeat(200));
        let mut bodies: Vec<Vec<u8>> = vec![
            long_line.into_bytes(),
            // Invalid UTF-8 before a bad token, after one, on its line,
            // and after the last value.
            b"1 2 \xff 3\n4 x 5 6\n".to_vec(),
            b"1 2 x 3\n4 \xff 5 6\n".to_vec(),
            b"1 x \xff\n4 5 6\n".to_vec(),
            b"1 2 3\n4 5 6\n\xe9\n".to_vec(),
            // A bad token after the declared count, and after one more value.
            b"1 2 3 4 5 6 x\n".to_vec(),
            b"1 2 3\n4 5 6\nx\n".to_vec(),
            b"1 2 3 4 5 6 7 x\n".to_vec(),
            b"1 2 3\n4 5 6\n7\n\xff\n".to_vec(),
            // Truncated files, and one whose last line has no newline.
            b"1 2 3\n4".to_vec(),
            b"1 2".to_vec(),
            b"1 2 3\n4 5 6".to_vec(),
        ];
        // Shift each edge case across every offset of a 7-byte block.
        for pad in 0..8 {
            let pad = " ".repeat(pad);
            bodies.push(format!("{pad}1 2 3\r\n4 5 6\r\n").into_bytes());
            bodies.push(format!("1 2 3\n{pad}# 7 8 9 runs past an edge\n4 5 6\n").into_bytes());
            bodies.push(format!("1 2 3\n{pad}4 5 6 7\n").into_bytes());
        }
        for body in bodies {
            assert_reads_like_reference(body);
        }
    }

    /// A file written in several 256 KiB blocks reads back bit for bit on
    /// any number of workers, and its first error in file order wins.
    #[test]
    fn multi_block_file_reads_back_exactly() {
        let mut rng = StdRng::seed_from_u64(11);
        let batch = TensorBatch::<f64>::random(4, 3, 2_000, &mut rng).unwrap();
        let mut file = Vec::new();
        write_tensor_batch(&mut file, &batch).unwrap();
        assert!(file.len() > 2 * BLOCK_BYTES, "{} bytes", file.len());
        assert_eq!(read_tensor_batch::<f64, _>(&file[..]).unwrap(), batch);
        for workers in 1..=3 {
            let back: TensorBatch<f64> =
                read_in_blocks(&file[..], BLOCK_BYTES, || workers).unwrap();
            assert_eq!(back, batch, "{workers} workers");
        }
        // A bad token in the last block and a NaN in the second.
        let last = file.len() - 2;
        file[last] = b'x';
        let second = BLOCK_BYTES + BLOCK_BYTES / 2;
        let space = second + file[second..].iter().position(|&b| b == b' ').unwrap();
        file.splice(space..space, *b" NaN");
        for workers in 1..=3 {
            let err = read_in_blocks::<f64, _>(&file[..], BLOCK_BYTES, || workers).unwrap_err();
            assert!(
                matches!(err, IoError::NonFinite(ref t) if t == "NaN"),
                "{err}"
            );
        }
    }

    /// Reads `bytes`, then fails: with an I/O error, or by panicking.
    struct FailsAfter<'a> {
        bytes: &'a [u8],
        panics: bool,
    }

    impl Read for FailsAfter<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.bytes.is_empty() {
                if self.panics {
                    panic!("the reader failed");
                }
                return Err(std::io::Error::other("the reader failed"));
            }
            self.bytes.read(buf)
        }
    }

    #[test]
    fn read_errors_end_the_text_after_the_last_whole_line() {
        let body = b"1 2 3\n4 x 6\n";
        for cut in 0..=body.len() {
            let text = [HEADER, &body[..cut]].concat();
            let line_by_line = BufReader::new(FailsAfter {
                bytes: &body[..cut],
                panics: false,
            });
            let want = outcome(split_whitespace_reference(line_by_line, 6));
            for (block, workers) in [(BLOCK_BYTES, 2), (1, 1), (2, 3), (7, 2)] {
                let reader = FailsAfter {
                    bytes: &text,
                    panics: false,
                };
                let got = read_in_blocks::<f64, _>(reader, block, || workers).map(bits);
                assert_eq!(outcome(got), want, "cut {cut}, {block}-byte blocks");
            }
        }
    }

    #[test]
    fn a_panicking_reader_ends_the_parse() {
        let body = "1 2 3\n4 5 6\n".repeat(50);
        let text = [HEADER, body.as_bytes()].concat();
        for workers in 1..=3 {
            let reader = FailsAfter {
                bytes: &text[..text.len() / 2],
                panics: true,
            };
            // The panic reaches the caller from its own thread, or comes
            // back as an error from a helper's; either way the read ends.
            let read = std::panic::catch_unwind(|| read_in_blocks::<f64, _>(reader, 7, || workers));
            assert!(!matches!(read, Ok(Ok(_))), "{workers} workers");
        }
    }

    #[test]
    fn no_block_is_claimed_after_an_error() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// Counts the bytes read from `bytes`.
        struct Counted<'a> {
            bytes: &'a [u8],
            read: &'a AtomicUsize,
        }
        impl Read for Counted<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.bytes.read(buf)?;
                self.read.fetch_add(n, Ordering::Relaxed);
                Ok(n)
            }
        }
        let body = format!("1 x 3\n{}", "4 5 6\n".repeat(100_000));
        let text = [HEADER, body.as_bytes()].concat();
        let block = 4096;
        for workers in 1..=3 {
            let read = AtomicUsize::new(0);
            let reader = Counted {
                bytes: &text,
                read: &read,
            };
            let err = read_in_blocks::<f64, _>(reader, block, || workers).unwrap_err();
            assert!(matches!(err, IoError::BadNumber { ref token } if token == "x"));
            // The header's buffer, then one block per worker at most.
            let most = 8 * 1024 + (workers + 1) * block;
            let read = read.load(Ordering::Relaxed);
            assert!(read <= most, "{workers} workers read {read} bytes");
        }
    }

    #[test]
    fn read_tensor_requires_exactly_one() {
        let text = "symtensor 1\norder 2 dim 2 count 2\n1 2 3\n4 5 6\n";
        assert!(read_tensor::<f64, _>(text.as_bytes()).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = IoError::BadNumber {
            token: "xyz".into(),
        };
        assert!(e.to_string().contains("xyz"));
        let e = IoError::UnexpectedEof { missing: 7 };
        assert!(e.to_string().contains('7'));
    }

    #[test]
    fn mixed_shapes_are_invalid_input_on_write() {
        let a = SymTensor::<f64>::zeros(2, 2);
        let b = SymTensor::<f64>::zeros(3, 2);
        let mut buf = Vec::new();
        let err = write_tensors(&mut buf, &[a, b]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing may be written on invalid input");
    }
}
