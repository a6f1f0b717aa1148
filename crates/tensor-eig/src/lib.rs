//! # tensor-eig — batched symmetric tensor eigensolver toolkit
//!
//! The facade crate for this workspace: a single dependency that re-exports
//! the full stack reproducing Ballard, Kolda & Plantenga, *Efficiently
//! Computing Tensor Eigenvalues on a GPU* (IPPS 2011).
//!
//! | Layer | Crate | What it provides |
//! |---|---|---|
//! | storage & kernels | [`symtensor`] | packed symmetric tensors, `A·xᵐ`, `A·xᵐ⁻¹`, dense baseline, compile-time straight-line kernels per shape |
//! | algorithm | [`sshopm`] | SS-HOPM, shifts, classification, multistart, batching |
//! | GPU substrate | [`gpusim`] | analytic Fermi-class simulator over the lane driver's eigenpairs |
//! | execution backends | [`backend`] | one `SolveBackend` trait behind every batched solve |
//! | application | [`dwmri`] | synthetic DW-MRI phantom and fiber detection |
//! | small linalg | [`linalg`] | Cholesky / Jacobi / QR / least squares |
//! | instrumentation | [`telemetry`] | spans, counters, histograms, trace export |
//!
//! ## Quickstart
//!
//! ```
//! use tensor_eig::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let a = SymTensor::<f64>::random(4, 3, &mut rng);
//! let pair = SsHopm::new(Shift::Convex).with_tolerance(1e-13).solve(&a, &[1.0, 0.0, 0.0]);
//! assert!(pair.converged && pair.residual(&a) < 1e-5);
//! ```
//!
//! ## Batched solves through an execution backend
//!
//! Every batched solve — CPU pools and simulated GPUs alike — runs behind
//! the [`backend::SolveBackend`] trait, selected by a spec string:
//!
//! ```
//! use tensor_eig::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let tensors = TensorBatch::<f64>::random(4, 3, 4, &mut rng).unwrap();
//! let starts = sshopm::starts::random_uniform_starts::<f64, _>(3, 8, &mut rng);
//! let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(10));
//!
//! let spec: BackendSpec = "gpusim".parse().unwrap();
//! let gpu = spec.build::<f64>(KernelStrategy::Tape).unwrap();
//! let report = gpu
//!     .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
//!     .unwrap();
//! assert_eq!(report.num_tensors(), 4);
//! assert_eq!(report.total_iterations, 4 * 8 * 10);
//! ```

#![deny(missing_docs)]

pub use backend;
pub use dwmri;
pub use gpusim;
pub use linalg;
pub use sshopm;
pub use symtensor;
pub use telemetry;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use backend::{
        parse_fault_plan, BackendSpec, BatchReport, CpuParallel, FaultLog, GpuSimBackend,
        KernelStrategy, ResilientBackend, SolveBackend,
    };
    pub use dwmri::{
        extract_fibers, extract_fibers_with, ExtractConfig, NoiseModel, Phantom, PhantomConfig,
    };
    pub use gpusim::{DeviceSpec, GpuVariant, TransferModel};
    pub use sshopm::{
        multistart, refine, BatchSolver, DedupConfig, Eigenpair, IterationPolicy, Shift, SsHopm,
        Stability,
    };
    pub use symtensor::{
        BlockedKernels, DenseTensor, GeneralKernels, IndexClass, IndexClassIter, PrecomputedTables,
        SymTensor, SymTensorRef, TensorBatch, TensorBatchRef, TensorKernels, UnrolledKernels,
    };
    pub use telemetry::Telemetry;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_names_resolve() {
        use crate::prelude::*;
        let _ = SymTensor::<f64>::zeros(4, 3);
        let _ = SsHopm::new(Shift::Convex);
        let _ = DeviceSpec::tesla_c2050();
        let _ = UnrolledKernels::for_shape(4, 3);
        let _ = PhantomConfig::default();
        let _ = CpuParallel::new(1, KernelStrategy::General);
        let spec: BackendSpec = "cpu:2".parse().unwrap();
        let _: Box<dyn SolveBackend<f64>> = spec.build(KernelStrategy::Blocked).unwrap();
        let _ = gpusim::FaultPlan::new(1);
        let _ = GpuSimBackend::on_host(
            vec![DeviceSpec::tesla_c2050()],
            TransferModel::pcie2(),
            KernelStrategy::General,
        );
        let _ = Telemetry::disabled();
    }
}
