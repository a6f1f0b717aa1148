//! Floating-point abstraction so every kernel works in both `f32` (the
//! precision the paper benchmarks) and `f64` (used for reference checks).

use std::fmt::{Debug, Display};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A real scalar type usable in tensor kernels.
///
/// Implemented for `f32` and `f64`. The trait is deliberately small: just
/// the arithmetic the kernels need plus conversions for exact integer
/// coefficients (multinomials) and tolerances.
pub trait Scalar:
    Copy
    + Clone
    + Debug
    + Display
    + PartialEq
    + PartialOrd
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + 'static
{
    /// Canonical lowercase type name ("f32" / "f64"), used in diagnostic
    /// and test messages.
    const NAME: &'static str;
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon for this type.
    const EPSILON: Self;

    /// Lossy conversion from `f64` (exact for `f64`, rounded for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64`.
    fn to_f64(self) -> f64;
    /// Exact-for-small-values conversion from `u64` (multinomial coefficients).
    fn from_u64(v: u64) -> Self;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// `self^k` for a small non-negative integer exponent.
    fn powi(self, k: i32) -> Self;
    /// `self * a + b` (used where an FMA-shaped expression reads best).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Maximum of two values (NaN-propagating is acceptable; inputs are finite).
    fn max(self, other: Self) -> Self;
    /// Minimum of two values.
    fn min(self, other: Self) -> Self;
    /// True if the value is finite (not NaN or infinite).
    fn is_finite(self) -> bool;
}

macro_rules! impl_scalar {
    ($t:ty, $name:literal) => {
        impl Scalar for $t {
            const NAME: &'static str = $name;
            const ZERO: Self = 0.0;
            const ONE: Self = 1.0;
            const EPSILON: Self = <$t>::EPSILON;

            #[inline(always)]
            fn from_f64(v: f64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn to_f64(self) -> f64 {
                self as f64
            }
            #[inline(always)]
            fn from_u64(v: u64) -> Self {
                v as $t
            }
            #[inline(always)]
            fn abs(self) -> Self {
                <$t>::abs(self)
            }
            #[inline(always)]
            fn sqrt(self) -> Self {
                <$t>::sqrt(self)
            }
            #[inline(always)]
            fn powi(self, k: i32) -> Self {
                <$t>::powi(self, k)
            }
            #[inline(always)]
            fn mul_add(self, a: Self, b: Self) -> Self {
                <$t>::mul_add(self, a, b)
            }
            #[inline(always)]
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            #[inline(always)]
            fn min(self, other: Self) -> Self {
                <$t>::min(self, other)
            }
            #[inline(always)]
            fn is_finite(self) -> bool {
                <$t>::is_finite(self)
            }
        }
    };
}

impl_scalar!(f32, "f32");
impl_scalar!(f64, "f64");

/// Euclidean norm of a slice.
///
/// This is the plain `sqrt(Σ vᵢ²)` whenever that sum of squares is positive
/// and finite, so every in-range norm is bit-for-bit the naive one. When
/// the sum underflows to zero or overflows, the norm is recomputed on `v`
/// scaled by its largest magnitude: a nonzero vector never has norm zero,
/// and a finite one whose norm is representable never has norm infinity.
#[inline]
pub fn norm2<S: Scalar>(v: &[S]) -> S {
    let sum_sq: S = v.iter().map(|&e| e * e).sum();
    if sum_sq > S::ZERO && sum_sq.is_finite() {
        sum_sq.sqrt()
    } else {
        rescaled_norm2(v, sum_sq)
    }
}

/// [`norm2`] when the plain sum of squares `sum_sq` is out of range:
/// `m · sqrt(Σ (vᵢ/m)²)` with `m = maxᵢ |vᵢ|`. If `m` is zero (the zero
/// vector) or not finite, `sqrt(sum_sq)` stands; NaN components give NaN.
#[cold]
fn rescaled_norm2<S: Scalar>(v: &[S], sum_sq: S) -> S {
    let scale = v.iter().fold(S::ZERO, |m, &e| m.max(e.abs()));
    if !(scale > S::ZERO && scale.is_finite()) {
        return sum_sq.sqrt();
    }
    let scaled: S = v
        .iter()
        .map(|&e| {
            let r = e / scale;
            r * r
        })
        .sum();
    scale * scaled.sqrt()
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds if the lengths differ.
#[inline]
pub fn dot<S: Scalar>(a: &[S], b: &[S]) -> S {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Normalize a vector in place; returns the original norm.
///
/// If the norm is zero the vector is left untouched and zero is returned.
#[inline]
pub fn normalize<S: Scalar>(v: &mut [S]) -> S {
    let nrm = norm2(v);
    if nrm != S::ZERO {
        for e in v.iter_mut() {
            *e /= nrm;
        }
    }
    nrm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_match_literals() {
        assert_eq!(<f32 as Scalar>::ZERO, 0.0f32);
        assert_eq!(<f64 as Scalar>::ONE, 1.0f64);
        assert_eq!(<f32 as Scalar>::EPSILON, f32::EPSILON);
        assert_eq!(<f32 as Scalar>::NAME, "f32");
        assert_eq!(<f64 as Scalar>::NAME, "f64");
    }

    #[test]
    fn conversions_round_trip_small_integers() {
        for v in 0u64..100 {
            assert_eq!(<f64 as Scalar>::from_u64(v).to_f64(), v as f64);
            assert_eq!(<f32 as Scalar>::from_u64(v).to_f64(), v as f64);
        }
    }

    #[test]
    fn norm_and_dot_agree_with_hand_computation() {
        let v = [3.0f64, 4.0];
        assert!((norm2(&v) - 5.0).abs() < 1e-15);
        let a = [1.0f64, 2.0, 3.0];
        let b = [4.0f64, -5.0, 6.0];
        assert!((dot(&a, &b) - 12.0).abs() < 1e-15);
    }

    #[test]
    fn norm_survives_overflow_and_underflow_of_the_sum_of_squares() {
        // Squares of 2^600 overflow and of 2^-600 underflow in f64; the
        // rescaled norm is exact for these powers of two.
        let big = [3.0 * 2f64.powi(600), 4.0 * 2f64.powi(600)];
        assert_eq!(norm2(&big), 5.0 * 2f64.powi(600));
        let tiny = [3.0 * 2f64.powi(-600), 4.0 * 2f64.powi(-600)];
        assert_eq!(norm2(&tiny), 5.0 * 2f64.powi(-600));
        let tiny32 = [3.0 * 2f32.powi(-100), 4.0 * 2f32.powi(-100)];
        assert_eq!(norm2(&tiny32), 5.0 * 2f32.powi(-100));
        let mut v = big;
        normalize(&mut v);
        assert_eq!(v, [0.6, 0.8]);
        // The zero vector stays zero; non-finite components stay non-finite.
        assert_eq!(norm2(&[0.0f64, -0.0]), 0.0);
        assert_eq!(norm2(&[f64::INFINITY, 1.0]), f64::INFINITY);
        assert!(norm2(&[f64::NAN, 1e300]).is_nan());
        assert!(norm2(&[f64::NAN, f64::NAN]).is_nan());
    }

    #[test]
    fn in_range_norms_are_the_plain_sum_of_squares() {
        let v = [0.1f64, -0.7, 0.3];
        let plain = v.iter().map(|e| e * e).sum::<f64>().sqrt();
        assert_eq!(norm2(&v).to_bits(), plain.to_bits());
        let w = [1e-160f64, 3e-170];
        let plain = w.iter().map(|e| e * e).sum::<f64>().sqrt();
        assert_eq!(norm2(&w).to_bits(), plain.to_bits());
    }

    #[test]
    fn normalize_produces_unit_vector_and_returns_norm() {
        let mut v = [3.0f32, 4.0];
        let nrm = normalize(&mut v);
        assert!((nrm - 5.0).abs() < 1e-6);
        assert!((norm2(&v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = [0.0f64; 3];
        let nrm = normalize(&mut v);
        assert_eq!(nrm, 0.0);
        assert_eq!(v, [0.0; 3]);
    }

    #[test]
    fn powi_matches_repeated_multiplication() {
        let x = 1.5f64;
        let mut acc = 1.0f64;
        for k in 0..8 {
            assert!((Scalar::powi(x, k) - acc).abs() < 1e-12);
            acc *= x;
        }
    }

    #[test]
    fn min_max_are_consistent() {
        assert_eq!(Scalar::max(2.0f64, 3.0), 3.0);
        assert_eq!(Scalar::min(2.0f64, 3.0), 2.0);
        assert_eq!(Scalar::max(-2.0f32, -3.0), -2.0);
    }
}
