//! # unrolled — compile-time fully-unrolled symmetric tensor kernels
//!
//! The paper's Section V-D optimization: for a fixed tensor shape `(m, n)`,
//! unroll the `A·xᵐ` and `A·xᵐ⁻¹` loops completely so that
//!
//! * the input and output vectors live in locals ("register variables"),
//! * index representations and multinomial coefficients are resolved at
//!   code-generation time and folded into the instruction stream,
//! * the compiler sees pure straight-line FP code with full
//!   instruction-level parallelism and no indirection.
//!
//! The generation happens in `build.rs` (the analogue of the paper's
//! compile-time CUDA code generation); this crate wraps the generated
//! functions in the [`symtensor::TensorKernels`] interface so the SS-HOPM
//! driver and the benchmark harness can swap them in transparently. The
//! paper reports 8.5× (1-core CPU) to 18.7× (GPU) speedups from exactly
//! this transformation; see `bench/` for our reproduction.
//!
//! ```
//! use symtensor::{SymTensor, TensorKernels};
//! use unrolled::UnrolledKernels;
//!
//! let a = SymTensor::<f32>::from_fn(4, 3, |c| c.rank() as f32);
//! let k = UnrolledKernels::for_shape(4, 3).expect("(4,3) is generated");
//! let x = [0.6f32, 0.0, 0.8];
//! let s = k.axm(a.view(), &x).unwrap();
//! assert!(s.is_finite());
//! ```

#![deny(missing_docs)]

include!(concat!(env!("OUT_DIR"), "/generated.rs"));

use symtensor::{Error, Result, Scalar, SymTensorRef, TensorKernels};

/// A [`TensorKernels`] implementation backed by the generated straight-line
/// kernels for one specific shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnrolledKernels {
    m: usize,
    n: usize,
}

impl UnrolledKernels {
    /// Look up the unrolled kernels for shape `(m, n)`. Returns `None` if
    /// that shape was not in the generation list ([`GENERATED_SHAPES`]).
    pub fn for_shape(m: usize, n: usize) -> Option<Self> {
        GENERATED_SHAPES.contains(&(m, n)).then_some(Self { m, n })
    }

    /// The shape this instance dispatches to.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.n)
    }
}

fn check_shape<S: Scalar>(a: &SymTensorRef<'_, S>, m: usize, n: usize) -> Result<()> {
    if (a.order(), a.dim()) == (m, n) {
        Ok(())
    } else {
        Err(Error::ShapeMismatch {
            expected: (m, n),
            found: (a.order(), a.dim()),
        })
    }
}

impl<S: Scalar> TensorKernels<S> for UnrolledKernels {
    fn axm(&self, a: SymTensorRef<'_, S>, x: &[S]) -> Result<S> {
        check_shape(&a, self.m, self.n)?;
        // The shape was validated at construction, so the dispatch hit
        // cannot miss; report a mismatch rather than unwrapping anyway.
        dispatch_axm(self.m, self.n, a.values(), x).ok_or(Error::ShapeMismatch {
            expected: (self.m, self.n),
            found: (a.order(), a.dim()),
        })
    }

    fn axm1(&self, a: SymTensorRef<'_, S>, x: &[S], y: &mut [S]) -> Result<()> {
        check_shape(&a, self.m, self.n)?;
        if dispatch_axm1(self.m, self.n, a.values(), x, y) {
            Ok(())
        } else {
            Err(Error::ShapeMismatch {
                expected: (self.m, self.n),
                found: (a.order(), a.dim()),
            })
        }
    }

    fn name(&self) -> &'static str {
        "unrolled"
    }
}

/// The common-subexpression-eliminated variant of [`UnrolledKernels`]:
/// powers `x_iᵏ` are computed once per call and shared across terms — the
/// optimization the paper's Section V-D discusses ("reduce the flop count
/// but also introduce dependencies in the unrolled instructions"). Whether
/// it wins depends on how the target trades instruction count against
/// instruction-level parallelism; the `ablations` bench measures it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CseUnrolledKernels {
    m: usize,
    n: usize,
}

impl CseUnrolledKernels {
    /// Look up the CSE kernels for shape `(m, n)`; `None` if not generated.
    pub fn for_shape(m: usize, n: usize) -> Option<Self> {
        GENERATED_SHAPES.contains(&(m, n)).then_some(Self { m, n })
    }

    /// The shape this instance dispatches to.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.n)
    }
}

impl<S: Scalar> TensorKernels<S> for CseUnrolledKernels {
    fn axm(&self, a: SymTensorRef<'_, S>, x: &[S]) -> Result<S> {
        check_shape(&a, self.m, self.n)?;
        dispatch_axm_cse(self.m, self.n, a.values(), x).ok_or(Error::ShapeMismatch {
            expected: (self.m, self.n),
            found: (a.order(), a.dim()),
        })
    }

    fn axm1(&self, a: SymTensorRef<'_, S>, x: &[S], y: &mut [S]) -> Result<()> {
        check_shape(&a, self.m, self.n)?;
        if dispatch_axm1_cse(self.m, self.n, a.values(), x, y) {
            Ok(())
        } else {
            Err(Error::ShapeMismatch {
                expected: (self.m, self.n),
                found: (a.order(), a.dim()),
            })
        }
    }

    fn name(&self) -> &'static str {
        "unrolled-cse"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use symtensor::kernels::{axm, axm1};
    use symtensor::SymTensor;

    fn random_sym(m: usize, n: usize, seed: u64) -> SymTensor<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        SymTensor::random(m, n, &mut rng)
    }

    fn random_unit(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        symtensor::scalar::normalize(&mut v);
        v
    }

    #[test]
    fn every_generated_shape_matches_general_axm() {
        for (i, &(m, n)) in GENERATED_SHAPES.iter().enumerate() {
            let a = random_sym(m, n, 1000 + i as u64);
            let x = random_unit(n, 2000 + i as u64);
            let k = UnrolledKernels::for_shape(m, n).unwrap();
            let want = axm(&a, &x).unwrap();
            let got = TensorKernels::axm(&k, a.view(), &x).unwrap();
            assert!((got - want).abs() < 1e-10, "[{m},{n}]: {got} vs {want}");
        }
    }

    #[test]
    fn every_generated_shape_matches_general_axm1() {
        for (i, &(m, n)) in GENERATED_SHAPES.iter().enumerate() {
            let a = random_sym(m, n, 3000 + i as u64);
            let x = random_unit(n, 4000 + i as u64);
            let k = UnrolledKernels::for_shape(m, n).unwrap();
            let mut want = vec![0.0; n];
            let mut got = vec![0.0; n];
            axm1(&a, &x, &mut want).unwrap();
            TensorKernels::axm1(&k, a.view(), &x, &mut got).unwrap();
            for j in 0..n {
                assert!(
                    (got[j] - want[j]).abs() < 1e-10,
                    "[{m},{n}] j={j}: {} vs {}",
                    got[j],
                    want[j]
                );
            }
        }
    }

    #[test]
    fn paper_shape_is_generated() {
        // (m=4, n=3) is the application shape the paper unrolls by hand.
        assert!(UnrolledKernels::for_shape(4, 3).is_some());
        assert!(GENERATED_SHAPES.contains(&(4, 3)));
    }

    #[test]
    fn generated_shapes_are_symtensors_compiled_shapes() {
        // One shape list behind both compiled families: these scalar
        // kernels and symtensor's lane panels.
        assert_eq!(GENERATED_SHAPES, symtensor::lanes::COMPILED_SHAPES);
    }

    #[test]
    fn ungenerated_shape_is_none() {
        assert!(UnrolledKernels::for_shape(7, 7).is_none());
        assert!(UnrolledKernels::for_shape(2, 2).is_none());
    }

    #[test]
    fn shape_accessor() {
        let k = UnrolledKernels::for_shape(4, 3).unwrap();
        assert_eq!(k.shape(), (4, 3));
        assert_eq!(TensorKernels::<f64>::name(&k), "unrolled");
    }

    #[test]
    fn works_in_f32() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = SymTensor::<f32>::random(4, 3, &mut rng);
        let k = UnrolledKernels::for_shape(4, 3).unwrap();
        let x = [0.6f32, 0.0, 0.8];
        let s_unrolled = TensorKernels::axm(&k, a.view(), &x).unwrap();
        let s_general = axm(&a, &x).unwrap();
        assert!((s_unrolled - s_general).abs() < 1e-5);
    }

    #[test]
    fn direct_module_call_for_paper_shape() {
        // Hand-verify a known tensor: rank-one v^(x)4 evaluates to (v.x)^4.
        let v = [0.5f64, -0.5, std::f64::consts::FRAC_1_SQRT_2];
        let a = SymTensor::rank_one(4, &v);
        let x = random_unit(3, 6);
        let d: f64 = v.iter().zip(&x).map(|(p, q)| p * q).sum();
        let got = s4_3::axm(a.values(), &x);
        assert!((got - d.powi(4)).abs() < 1e-10);
    }

    #[test]
    fn euler_identity_holds_for_unrolled_kernels() {
        for (i, &(m, n)) in GENERATED_SHAPES.iter().enumerate() {
            let a = random_sym(m, n, 5000 + i as u64);
            let x = random_unit(n, 6000 + i as u64);
            let k = UnrolledKernels::for_shape(m, n).unwrap();
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
        let k = UnrolledKernels::for_shape(3, 3).unwrap();
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
    fn cse_variant_matches_plain_unrolled() {
        for (i, &(m, n)) in GENERATED_SHAPES.iter().enumerate() {
            let a = random_sym(m, n, 7000 + i as u64);
            let x = random_unit(n, 8000 + i as u64);
            let plain = UnrolledKernels::for_shape(m, n).unwrap();
            let cse = CseUnrolledKernels::for_shape(m, n).unwrap();
            let s1 = TensorKernels::axm(&plain, a.view(), &x).unwrap();
            let s2 = TensorKernels::axm(&cse, a.view(), &x).unwrap();
            assert!((s1 - s2).abs() < 1e-12 * (1.0 + s1.abs()), "[{m},{n}] axm");
            let mut y1 = vec![0.0; n];
            let mut y2 = vec![0.0; n];
            TensorKernels::axm1(&plain, a.view(), &x, &mut y1).unwrap();
            TensorKernels::axm1(&cse, a.view(), &x, &mut y2).unwrap();
            for j in 0..n {
                assert!(
                    (y1[j] - y2[j]).abs() < 1e-12 * (1.0 + y1[j].abs()),
                    "[{m},{n}] axm1 j={j}"
                );
            }
        }
        assert_eq!(
            TensorKernels::<f64>::name(&CseUnrolledKernels::for_shape(4, 3).unwrap()),
            "unrolled-cse"
        );
    }

    #[test]
    fn cse_handles_zero_components() {
        let a = random_sym(4, 3, 9000);
        let x = [0.0, 0.5, -0.5];
        let cse = CseUnrolledKernels::for_shape(4, 3).unwrap();
        let mut want = vec![0.0; 3];
        let mut got = vec![0.0; 3];
        axm1(&a, &x, &mut want).unwrap();
        TensorKernels::axm1(&cse, a.view(), &x, &mut got).unwrap();
        for j in 0..3 {
            assert!((got[j] - want[j]).abs() < 1e-12, "j={j}");
        }
    }

    #[test]
    fn axm_term_count_matches_paper() {
        // Section V-D: 15 terms for Axm at (4,3); each of the 3 output sums
        // of Axm1 has 10 terms. We verify indirectly: unique entries = 15
        // and the class count of order-3 completions is 10.
        use symtensor::multinomial::num_unique_entries;
        assert_eq!(num_unique_entries(4, 3), 15);
        assert_eq!(num_unique_entries(3, 3), 10);
    }
}
