//! Gradient-direction sampling schemes.
//!
//! DW-MRI acquires one measurement per gradient direction; fitting an
//! order-`m` symmetric tensor in 3D needs at least `C(m+2, m)` of them
//! (15 for `m = 4`, 28 for `m = 6`, 45 for `m = 8` — the counts quoted in
//! Section IV). Real protocols use directions spread by electrostatic
//! repulsion; the Fibonacci sphere is an equally-good deterministic spread.

use crate::fiber::Dir3;
use symtensor::multinomial::num_unique_entries;

/// Minimum number of measurements to determine an order-`m` tensor in 3D:
/// the number of unique entries `C(m+2, m)`.
pub fn min_measurements(m: usize) -> usize {
    num_unique_entries(m, 3) as usize
}

/// `count` gradient directions spread over the sphere by the Fibonacci
/// lattice (deterministic, near-uniform).
///
/// `count >= 1` is a debug-checked precondition; `count == 0` yields an
/// empty list in release builds.
pub fn gradient_directions(count: usize) -> Vec<Dir3> {
    debug_assert!(count > 0, "need at least one gradient direction");
    let golden = (1.0 + 5.0f64.sqrt()) / 2.0;
    (0..count)
        .map(|i| {
            let z = 1.0 - (2.0 * i as f64 + 1.0) / count as f64;
            let r = (1.0 - z * z).max(0.0).sqrt();
            let theta = 2.0 * std::f64::consts::PI * (i as f64 / golden).fract();
            [r * theta.cos(), r * theta.sin(), z]
        })
        .collect()
}

/// A standard protocol: the minimum count for order `m` plus 50% headroom
/// (noise averaging), as real protocols over-sample.
pub fn standard_protocol(m: usize) -> Vec<Dir3> {
    gradient_directions(min_measurements(m) * 3 / 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_counts_match_paper_section_4() {
        // "m = 4, m = 6, and m = 8 require at least 15, 28, and 45
        // measurements respectively."
        assert_eq!(min_measurements(4), 15);
        assert_eq!(min_measurements(6), 28);
        assert_eq!(min_measurements(8), 45);
        // The 2nd-order series has 6 terms.
        assert_eq!(min_measurements(2), 6);
    }

    #[test]
    fn directions_are_unit() {
        for g in gradient_directions(64) {
            let n = (g[0] * g[0] + g[1] * g[1] + g[2] * g[2]).sqrt();
            assert!((n - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn standard_protocol_oversamples() {
        assert!(standard_protocol(4).len() >= min_measurements(4));
        assert_eq!(standard_protocol(4).len(), 22);
    }

    #[test]
    fn directions_are_spread() {
        // No two of 32 directions should be nearly identical.
        let dirs = gradient_directions(32);
        for i in 0..dirs.len() {
            for j in i + 1..dirs.len() {
                let dot: f64 = dirs[i].iter().zip(&dirs[j]).map(|(a, b)| a * b).sum();
                assert!(dot < 0.999, "directions {i} and {j} coincide");
            }
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic]
    fn zero_count_panics() {
        gradient_directions(0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn zero_count_is_empty_in_release() {
        assert!(gradient_directions(0).is_empty());
    }
}
