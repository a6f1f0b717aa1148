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

use crate::batch::{TensorBatch, TensorBatchRef};
use crate::error::Error;
use crate::multinomial::try_num_unique_entries;
use crate::scalar::Scalar;
use crate::storage::SymTensor;
use std::io::{BufRead, BufReader, Read, Write};

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

/// Read a batch written by [`write_tensor_batch`] (or [`write_tensors`])
/// directly into one contiguous [`TensorBatch`] arena — no intermediate
/// `Vec<SymTensor>` and no per-tensor allocation. Malformed input, a
/// header declaring more values than memory holds included, is an `Err`.
pub fn read_tensor_batch<S: Scalar, R: Read>(r: R) -> std::result::Result<TensorBatch<S>, IoError> {
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
    loop {
        line.clear();
        let read = reader.read_line(&mut line)?;
        if read == 0 {
            break;
        }
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        // U+000B is the one ASCII character that is Unicode whitespace but
        // not ASCII whitespace, so an ASCII line without it splits the same
        // both ways, and the ASCII split skips decoding UTF-8.
        if trimmed.is_ascii() && !trimmed.as_bytes().contains(&b'\x0b') {
            push_values(trimmed.split_ascii_whitespace(), &mut values, needed)?;
        } else {
            push_values(trimmed.split_whitespace(), &mut values, needed)?;
        }
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
pub fn read_tensors<S: Scalar, R: Read>(r: R) -> std::result::Result<Vec<SymTensor<S>>, IoError> {
    Ok(read_tensor_batch(r)?.to_tensors())
}

/// Read a single tensor; errors if the file holds zero or several.
pub fn read_tensor<S: Scalar, R: Read>(r: R) -> std::result::Result<SymTensor<S>, IoError> {
    let batch: TensorBatch<S> = read_tensor_batch(r)?;
    if batch.len() != 1 {
        return Err(IoError::BadHeader(format!(
            "expected exactly one tensor, file holds {}",
            batch.len()
        )));
    }
    Ok(batch.get(0).to_owned())
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

    /// The value lines of `body` read with `split_whitespace` on every
    /// line, the reader's rule before ASCII lines took the ASCII split.
    fn split_whitespace_reference(body: &str, needed: usize) -> Result<Vec<u64>, IoError> {
        let mut values = Vec::new();
        for line in body.split_inclusive('\n') {
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

    /// `read_tensor_batch` on two (2, 2) tensors gives the reference's
    /// bits, or its error variant with the same token.
    fn assert_reads_like_reference(body: &str) {
        let text = format!("symtensor 1\norder 2 dim 2 count 2\n{body}");
        let got = read_tensor_batch::<f64, _>(text.as_bytes())
            .map(|b| b.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        let want = split_whitespace_reference(body, 6);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{body:?}");
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
