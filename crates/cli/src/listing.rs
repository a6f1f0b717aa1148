//! The `fibers` command's per-voxel listing.
//!
//! Each value prints as std's `{:.4}` would, byte for byte, but from
//! integer arithmetic: std's exact mode takes a bignum path for so few
//! digits and is 8–10× slower per value, which on a 100 k-voxel listing
//! is as much time as half the solve.

use dwmri::FiberEstimate;
use std::fmt::{self, Write};

/// Magnitudes from here up take std's `{:.4}`. Below it |v|·10⁴ < 10¹⁹
/// fits a `u64`, and a finite value's binary exponent is at most −3.
const FIXED_LIMIT: f64 = 1e15;

/// Overwrite `line` with the listing's line for voxel `index`, newline
/// included.
pub(crate) fn voxel_line(line: &mut String, index: usize, fibers: &[FiberEstimate]) -> fmt::Result {
    line.clear();
    write!(line, "voxel {index}: {} fiber(s)", fibers.len())?;
    for f in fibers {
        line.push_str("  [");
        push_fixed4(line, f.direction[0])?;
        line.push(' ');
        push_fixed4(line, f.direction[1])?;
        line.push(' ');
        push_fixed4(line, f.direction[2])?;
        line.push_str("] (lambda ");
        push_fixed4(line, f.lambda)?;
        line.push(')');
    }
    line.push('\n');
    Ok(())
}

/// Append `v` exactly as `format!("{v:.4}")` writes it.
///
/// |v|·10⁴ is rounded half to even from the value's exact binary form:
/// the significand times 10⁴ (below 2⁶⁷) is shifted right by the negated
/// exponent in `u128`, and the bits shifted out decide the rounding. The
/// sign comes from the sign bit, so `-0.0` and negative values that round
/// to zero print `-0.0000`, as std does. NaN, ±∞ and |v| ≥ 10¹⁵ go to
/// std.
pub(crate) fn push_fixed4(buf: &mut String, v: f64) -> fmt::Result {
    if v.is_nan() || v.abs() >= FIXED_LIMIT {
        return write!(buf, "{v:.4}");
    }
    let bits = v.to_bits();
    let biased = (bits >> 52) & 0x7ff;
    let fraction = bits & ((1 << 52) - 1);
    // v = significand · 2^-shift, with shift ≥ 3 below FIXED_LIMIT.
    let (significand, shift) = match biased {
        0 => (fraction, 1074),
        _ => (fraction | (1 << 52), 1075 - biased),
    };
    let scaled = u128::from(significand) * 10_000;
    // From a shift of 68 up, scaled < 2⁶⁷ is below half a unit: zero.
    let units = if shift >= 68 {
        0
    } else {
        let kept = scaled >> shift;
        let dropped = scaled & ((1 << shift) - 1);
        let half = 1 << (shift - 1);
        let round_up = dropped > half || (dropped == half && kept & 1 == 1);
        // kept ≤ |v|·10⁴ < 10¹⁹ fits a u64.
        u64::try_from(kept).map_err(|_| fmt::Error)? + u64::from(round_up)
    };
    // Right to left: four decimals, the point, the integer part (< 10¹⁵,
    // at least one digit), the sign.
    let mut text = [0u8; 24];
    let mut start = text.len();
    let mut rest = units;
    for place in 0.. {
        if place == 4 {
            start -= 1;
            text[start] = b'.';
        }
        start -= 1;
        text[start] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if place >= 4 && rest == 0 {
            break;
        }
    }
    if bits >> 63 == 1 {
        start -= 1;
        text[start] = b'-';
    }
    buf.push_str(std::str::from_utf8(&text[start..]).map_err(|_| fmt::Error)?);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn fixed4(v: f64) -> String {
        let mut s = String::new();
        push_fixed4(&mut s, v).unwrap();
        s
    }

    fn check(v: f64) {
        assert_eq!(fixed4(v), format!("{v:.4}"), "bits {:#018x}", v.to_bits());
    }

    /// One ulp either side of `v`, and `v` itself.
    fn with_neighbours(v: f64) -> [f64; 3] {
        [
            f64::from_bits(v.to_bits() - 1),
            v,
            f64::from_bits(v.to_bits() + 1),
        ]
    }

    #[test]
    fn matches_std_on_edge_cases() {
        for v in [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1e-10,
            1.0,
            -1.0,
            0.99995,
            9.99995,
            f64::EPSILON,
        ] {
            check(v);
        }
        // Binary fractions k/2^j: for odd k exact ties of the last digit
        // at j = 5 (1/32 = 0.03125), exact at j < 5, and every larger j
        // reaches a different bit of the rounding.
        for j in 1..=60u64 {
            let pow = f64::from_bits((1023 - j) << 52);
            for k in [1.0, 3.0, 5.0, 7.0, 11.0, 12345.0, 999_999.0] {
                for v in with_neighbours(k * pow) {
                    check(v);
                    check(-v);
                }
            }
        }
        // Decimal ties (2k+1)·0.00005, which f64 holds only approximately.
        for k in 0..20_000u32 {
            let v = f64::from(2 * k + 1) * 0.00005;
            for v in with_neighbours(v) {
                check(v);
                check(-v);
            }
        }
        // Either side of the limit where std takes over.
        for v in with_neighbours(FIXED_LIMIT) {
            check(v);
            check(-v);
        }
        check(999_999_999_999_999.9);
        check(f64::MAX);
    }

    #[test]
    fn matches_std_on_random_bits_and_magnitudes() {
        let mut rng = StdRng::seed_from_u64(0x5eed_f1b3);
        for _ in 0..20_000 {
            check(f64::from_bits(rng.gen::<u64>()));
        }
        for _ in 0..20_000 {
            let exponent: f64 = rng.gen_range(-15.0..15.0);
            let v = 10f64.powf(exponent);
            check(v);
            check(-v);
        }
    }

    #[test]
    fn voxel_line_matches_the_write_macro_listing() {
        let fibers = [
            FiberEstimate {
                direction: [0.6, -0.8, -0.0],
                lambda: 1.25,
                basin_fraction: 1.0,
            },
            FiberEstimate {
                direction: [1e-9, std::f64::consts::FRAC_1_SQRT_2, 0.28],
                lambda: 12345.00005,
                basin_fraction: 0.5,
            },
        ];
        let mut want = String::new();
        write!(want, "voxel 7: {} fiber(s)", fibers.len()).unwrap();
        for f in &fibers {
            write!(
                want,
                "  [{:.4} {:.4} {:.4}] (lambda {:.4})",
                f.direction[0], f.direction[1], f.direction[2], f.lambda
            )
            .unwrap();
        }
        want.push('\n');
        let mut line = String::from("stale");
        voxel_line(&mut line, 7, &fibers).unwrap();
        assert_eq!(line, want);
        voxel_line(&mut line, 0, &[]).unwrap();
        assert_eq!(line, "voxel 0: 0 fiber(s)\n");
    }
}
