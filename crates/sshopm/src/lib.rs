//! # sshopm — the Shifted Symmetric Higher-Order Power Method
//!
//! Implementation of the SS-HOPM algorithm of Kolda & Mayo as presented in
//! Figure 1 of Ballard, Kolda & Plantenga (IPPS 2011), plus everything a
//! real application needs around the bare iteration:
//!
//! * [`solver`] — the core shifted iteration with convergence detection;
//! * [`shift`] — shift selection: fixed values, the sufficient convexity
//!   bound `α > (m−1)·‖A‖_F`, and an adaptive per-iteration shift;
//! * [`mod@classify`] — eigenpair classification (local max / local min /
//!   saddle) via the spectrum of the projected Hessian;
//! * [`starts`] — starting-vector generation (the paper's uniform-random
//!   scheme and a deterministic Fibonacci-sphere alternative);
//! * [`mod@multistart`] — many starting vectors with eigenpair deduplication,
//!   for "find all the real eigenpairs you can" workflows;
//! * [`batch`] — the paper's workload shape: many independent small tensors
//!   solved in parallel (rayon stands in for the paper's OpenMP loop);
//! * [`traits`] — the [`Solver`] abstraction every iteration implements,
//!   the one per-start entry (observed, traced or plain), with
//!   [`mod@geap`] (adaptive projected-Hessian shifts) and [`mod@qrst`]
//!   (orthogonal-similarity QR iteration) as alternatives to SS-HOPM,
//!   selected by a [`SolverSpec`] string (`sshopm`, `geap`, `qrst`).
//!
//! ```
//! use symtensor::SymTensor;
//! use sshopm::{SsHopm, Shift};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let a = SymTensor::<f64>::random(4, 3, &mut rng);
//! let solver = SsHopm::new(Shift::Convex).with_tolerance(1e-12);
//! let x0 = [1.0, 0.0, 0.0];
//! let pair = solver.solve(&a, &x0);
//! assert!(pair.converged);
//! assert!(pair.residual(&a) < 1e-5);
//! ```

#![deny(missing_docs)]

pub mod batch;
pub mod classify;
pub mod decompose;
pub mod geap;
pub mod lockstep;
pub mod multistart;
pub mod qrst;
pub mod refine;
pub mod shift;
pub mod solver;
pub mod spec;
pub mod starts;
pub mod traits;

pub use batch::{BatchResult, BatchSolver};
pub use classify::{classify, Stability};
pub use decompose::{best_rank_one, decompose, SymCp};
pub use geap::Geap;
pub use lockstep::{lockstep_alpha, solve_batch_lockstep, solve_batch_lockstep_each};
pub use multistart::{
    multistart, spectra_from_rows, spectrum_from_pairs, DedupConfig, Spectrum, SpectrumEntry,
};
pub use qrst::Qrst;
pub use refine::{refine, Refined};
pub use shift::Shift;
pub use solver::{
    Eigenpair, IterationObserver, IterationPolicy, IterationUpdate, NoopObserver, SsHopm,
};
pub use spec::{SolverSpec, SolverSpecError};
pub use traits::Solver;
