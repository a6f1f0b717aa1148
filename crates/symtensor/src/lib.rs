//! # symtensor — packed symmetric tensors and symmetry-exploiting kernels
//!
//! This crate implements the core contribution of Ballard, Kolda & Plantenga,
//! *Efficiently Computing Tensor Eigenvalues on a GPU* (IPPS 2011):
//!
//! * a **packed storage format** for symmetric order-`m`, dimension-`n`
//!   tensors that stores only the `C(m+n-1, m)` unique entries in
//!   lexicographic order of *index classes* (Section III-A of the paper);
//! * **symmetry-exploiting kernels** for the tensor-vector products
//!   `A·xᵐ` (scalar) and `A·xᵐ⁻¹` (vector) that weight each unique entry by
//!   a multinomial coefficient, reducing both storage and computation by a
//!   factor of roughly `m!` (Section III-B);
//! * **compiled straight-line kernels** ([`UnrolledKernels`] and the lane
//!   panels of [`lanes`]), generated by the build script for the shapes of
//!   [`lanes::COMPILED_SHAPES`] (Section V-D). Every kernel family in the
//!   crate sums the index classes in one order, so all of them return the
//!   same bits;
//! * a **dense (nonsymmetric) baseline** implementing the same products by
//!   repeated mode contraction, used for correctness cross-checks and as the
//!   "general" column of the paper's Table II;
//! * **arena batch storage** ([`TensorBatch`]) packing N same-shape tensors
//!   into one contiguous buffer with zero-copy [`SymTensorRef`] views and
//!   [`TensorBatchRef`] sub-batch slices — the layout a GPU batch transfer
//!   actually moves as a single coalesced copy.
//!
//! ## Quick example
//!
//! ```
//! use symtensor::{SymTensor, kernels};
//!
//! // A symmetric 3x3x3x3 tensor (order m=4, dimension n=3): 15 unique entries.
//! let a = SymTensor::<f64>::from_fn(4, 3, |class| class.indices().iter().sum::<usize>() as f64);
//! let x = [1.0, 0.5, -0.25];
//!
//! let s = kernels::axm(&a, &x).unwrap(); // A·x^m, a scalar
//! let mut y = [0.0; 3];
//! kernels::axm1(&a, &x, &mut y).unwrap(); // A·x^{m-1}, a vector
//! // Euler's identity for homogeneous forms: x·(A x^{m-1}) = A x^m.
//! let dot: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
//! assert!((dot - s).abs() < 1e-12);
//! ```
//!
//! All tensors in this crate are real-valued and use 0-based indices
//! internally (the paper uses 1-based).

#![deny(missing_docs)]

pub mod batch;
pub mod blocked;
pub mod dense;
pub mod error;
pub mod flops;
pub mod index;
pub mod io;
pub mod kernels;
pub mod lanes;
pub mod multinomial;
pub mod scalar;
pub mod special;
pub mod storage;
pub mod unrolled;

pub use batch::{TensorBatch, TensorBatchRef};
pub use blocked::BlockedKernels;
pub use dense::DenseTensor;
pub use error::{Error, Result};
pub use index::{IndexClass, IndexClassIter, MonomialRep};
pub use kernels::{GeneralKernels, PrecomputedTables, TensorKernels};
pub use lanes::{BatchedKernels, LanePanel, LANE_WIDTH};
pub use multinomial::CombinatoricsOverflow;
pub use scalar::Scalar;
pub use storage::{SymTensor, SymTensorRef};
pub use unrolled::UnrolledKernels;

/// The compiled scalar kernels against the crate's reference kernels. They
/// span `unrolled`, `kernels`, `storage` and the build script's output, so
/// they sit at the crate root. Agreement is bitwise: every kernel sums the
/// index classes in one order.
#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::FRAC_1_SQRT_2;

    fn random_sym(m: usize, n: usize, seed: u64) -> SymTensor<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        SymTensor::random(m, n, &mut rng)
    }

    fn random_unit(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        scalar::normalize(&mut v);
        v
    }

    fn unrolled(m: usize, n: usize) -> UnrolledKernels {
        UnrolledKernels::for_shape(m, n).unwrap()
    }

    #[test]
    fn every_generated_shape_matches_general_axm() {
        for (i, &(m, n)) in lanes::COMPILED_SHAPES.iter().enumerate() {
            let a = random_sym(m, n, 1000 + i as u64);
            let x = random_unit(n, 2000 + i as u64);
            let want = kernels::axm(&a, &x).unwrap();
            let got = TensorKernels::axm(&unrolled(m, n), a.view(), &x).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "[{m},{n}]: {got} vs {want}");
        }
    }

    #[test]
    fn every_generated_shape_matches_general_axm1() {
        for (i, &(m, n)) in lanes::COMPILED_SHAPES.iter().enumerate() {
            let a = random_sym(m, n, 3000 + i as u64);
            let x = random_unit(n, 4000 + i as u64);
            let mut want = vec![0.0; n];
            let mut got = vec![0.0; n];
            kernels::axm1(&a, &x, &mut want).unwrap();
            TensorKernels::axm1(&unrolled(m, n), a.view(), &x, &mut got).unwrap();
            for j in 0..n {
                assert_eq!(got[j].to_bits(), want[j].to_bits(), "[{m},{n}] j={j}");
            }
        }
    }

    #[test]
    fn paper_shape_is_generated() {
        // (m=4, n=3) is the application shape the paper unrolls by hand.
        assert!(UnrolledKernels::for_shape(4, 3).is_some());
        assert!(lanes::COMPILED_SHAPES.contains(&(4, 3)));
    }

    #[test]
    fn generated_shapes_are_symtensors_compiled_shapes() {
        // One shape list behind both compiled forms: every listed shape
        // has scalar kernels, and the generated dispatch has an arm for it.
        for &(m, n) in lanes::COMPILED_SHAPES {
            let a = random_sym(m, n, 10 * m as u64 + n as u64);
            let x = random_unit(n, 7);
            let k = unrolled(m, n);
            assert_eq!(k.shape(), (m, n));
            assert!(TensorKernels::axm(&k, a.view(), &x).is_ok(), "[{m},{n}]");
        }
    }

    #[test]
    fn ungenerated_shape_is_none() {
        assert!(UnrolledKernels::for_shape(7, 7).is_none());
        assert!(UnrolledKernels::for_shape(2, 2).is_none());
        assert!(UnrolledKernels::for_shape(5, 4).is_none());
    }

    #[test]
    fn shape_accessor() {
        let k = unrolled(4, 3);
        assert_eq!(k.shape(), (4, 3));
        assert_eq!(TensorKernels::<f64>::name(&k), "unrolled");
    }

    #[test]
    fn works_in_f32() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = SymTensor::<f32>::random(4, 3, &mut rng);
        let k = unrolled(4, 3);
        let x = [0.6f32, 0.0, 0.8];
        let s_unrolled = TensorKernels::axm(&k, a.view(), &x).unwrap();
        let s_general = kernels::axm(&a, &x).unwrap();
        assert_eq!(s_unrolled.to_bits(), s_general.to_bits());
        let mut y_unrolled = [0.0f32; 3];
        let mut y_general = [0.0f32; 3];
        TensorKernels::axm1(&k, a.view(), &x, &mut y_unrolled).unwrap();
        kernels::axm1(&a, &x, &mut y_general).unwrap();
        assert_eq!(y_unrolled.map(f32::to_bits), y_general.map(f32::to_bits));
    }

    #[test]
    fn direct_module_call_for_paper_shape() {
        // Hand-verify a known tensor: rank-one v^(x)4 evaluates to (v.x)^4.
        let v = [0.5f64, -0.5, FRAC_1_SQRT_2];
        let a = SymTensor::rank_one(4, &v);
        let x = random_unit(3, 6);
        let d: f64 = v.iter().zip(&x).map(|(p, q)| p * q).sum();
        let got = TensorKernels::axm(&unrolled(4, 3), a.view(), &x).unwrap();
        assert!((got - d.powi(4)).abs() < 1e-10);
    }

    #[test]
    fn euler_identity_holds_for_unrolled_kernels() {
        for (i, &(m, n)) in lanes::COMPILED_SHAPES.iter().enumerate() {
            let a = random_sym(m, n, 5000 + i as u64);
            let x = random_unit(n, 6000 + i as u64);
            let k = unrolled(m, n);
            let s = TensorKernels::axm(&k, a.view(), &x).unwrap();
            let mut y = vec![0.0; n];
            TensorKernels::axm1(&k, a.view(), &x, &mut y).unwrap();
            let dot: f64 = x.iter().zip(&y).map(|(p, q)| p * q).sum();
            assert!((dot - s).abs() < 1e-9, "[{m},{n}]");
        }
    }

    #[test]
    fn shape_mismatch_is_typed_error() {
        let a = random_sym(4, 3, 7);
        let k = unrolled(3, 3);
        let err = TensorKernels::axm(&k, a.view(), &[1.0, 0.0, 0.0]).unwrap_err();
        assert!(matches!(
            err,
            Error::ShapeMismatch {
                expected: (3, 3),
                found: (4, 3),
            }
        ));
    }

    #[test]
    fn generated_kernels_have_no_panicking_constructs() {
        // The ci panic gate scans `src/`; the build script's output lives
        // under OUT_DIR, so this test holds it to the same rule.
        let sources = [
            include_str!(concat!(env!("OUT_DIR"), "/scalar_kernels.rs")),
            include_str!(concat!(env!("OUT_DIR"), "/lane_kernels.rs")),
        ];
        for source in sources {
            for banned in ["assert", ".unwrap()", ".expect(", "panic!"] {
                assert!(!source.contains(banned), "generated code contains {banned}");
            }
        }
    }

    #[test]
    fn axm_term_count_matches_paper() {
        // Section V-D: 15 terms for Axm at (4,3); each of the 3 output sums
        // of Axm1 has 10 terms. We verify indirectly: unique entries = 15
        // and the class count of order-3 completions is 10.
        use multinomial::num_unique_entries;
        assert_eq!(num_unique_entries(4, 3), 15);
        assert_eq!(num_unique_entries(3, 3), 10);
    }
}
