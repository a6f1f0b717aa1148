//! Fully-unrolled scalar kernels: the paper's Section V-D optimization.
//!
//! For a fixed tensor shape `(m, n)` the `A·xᵐ` and `A·xᵐ⁻¹` loops are
//! unrolled completely, so that
//!
//! * the input and output vectors live in locals ("register variables"),
//! * index representations and multinomial coefficients are resolved at
//!   code-generation time and folded into the instruction stream,
//! * the compiler sees pure straight-line FP code with no indirection.
//!
//! This crate's build script generates the code for every shape of
//! [`COMPILED_SHAPES`], in the same walk over the index classes that
//! writes the lane panels of [`crate::lanes`] (as Shi et al. generate
//! symmetric kernels from one description). Each term is summed in the
//! tables' class order, so [`UnrolledKernels`] returns exactly the bits of
//! [`GeneralKernels`](crate::GeneralKernels). The paper reports 8.5×
//! (1-core CPU) to 18.7× (GPU) speedups from this transformation.
//!
//! ```
//! use symtensor::{SymTensor, TensorKernels, UnrolledKernels};
//!
//! let a = SymTensor::<f32>::from_fn(4, 3, |c| c.rank() as f32);
//! let k = UnrolledKernels::for_shape(4, 3).expect("(4,3) is compiled");
//! let x = [0.6f32, 0.0, 0.8];
//! let s = k.axm(a.view(), &x).unwrap();
//! assert_eq!(s, symtensor::kernels::axm(&a, &x).unwrap());
//! ```

use crate::error::{Error, Result};
use crate::kernels::{check_shape, check_vec, TensorKernels};
use crate::lanes::COMPILED_SHAPES;
use crate::scalar::Scalar;
use crate::storage::SymTensorRef;

include!(concat!(env!("OUT_DIR"), "/scalar_kernels.rs"));

/// A [`TensorKernels`] implementation backed by the generated straight-line
/// kernels for one shape of [`COMPILED_SHAPES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnrolledKernels {
    m: usize,
    n: usize,
}

impl UnrolledKernels {
    /// The unrolled kernels for shape `(m, n)`, or `None` if the shape is
    /// not in [`COMPILED_SHAPES`].
    pub fn for_shape(m: usize, n: usize) -> Option<Self> {
        COMPILED_SHAPES.contains(&(m, n)).then_some(Self { m, n })
    }

    /// The shape this instance dispatches to.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// The error for a call the generated dispatch declined. The shape
    /// and lengths were checked first, so this is the tensor itself.
    fn mismatch<S: Scalar>(&self, a: &SymTensorRef<'_, S>) -> Error {
        Error::ShapeMismatch {
            expected: (self.m, self.n),
            found: (a.order(), a.dim()),
        }
    }
}

impl<S: Scalar> TensorKernels<S> for UnrolledKernels {
    fn axm(&self, a: SymTensorRef<'_, S>, x: &[S]) -> Result<S> {
        check_shape(&a, self.m, self.n)?;
        check_vec(x, self.n)?;
        compiled_axm(self.m, self.n, a.values(), x).ok_or_else(|| self.mismatch(&a))
    }

    fn axm1(&self, a: SymTensorRef<'_, S>, x: &[S], y: &mut [S]) -> Result<()> {
        check_shape(&a, self.m, self.n)?;
        check_vec(x, self.n)?;
        check_vec(y, self.n)?;
        if compiled_axm1(self.m, self.n, a.values(), x, y) {
            Ok(())
        } else {
            Err(self.mismatch(&a))
        }
    }

    fn name(&self) -> &'static str {
        "unrolled"
    }
}
