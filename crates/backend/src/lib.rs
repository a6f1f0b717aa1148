//! # backend — one [`SolveBackend`] trait behind every batched solve
//!
//! The paper's whole point is running the *same* SS-HOPM batch on
//! different substrates — sequential CPU, multicore OpenMP, one GPU, many
//! GPUs (Tables II/III) — and the kernel-implementation choice (general
//! loops, precomputed tables, blocked const-generic code, fully unrolled
//! straight-line code) is an axis *orthogonal* to the substrate. This
//! crate models both axes explicitly:
//!
//! * [`SolveBackend`] — the substrate: *where* the batch runs.
//!   Implementations: [`CpuParallel`] (one thread is the sequential
//!   row), [`GpuSimBackend`] (one device, a multi-GPU host or a cluster —
//!   the topology is data), and the fault-tolerant [`ResilientBackend`]
//!   wrapping it (retry / failover / NaN recovery under an injected
//!   [`gpusim::FaultPlan`], ledgered in [`FaultLog`]).
//! * [`KernelStrategy`] — the kernel implementation: *how* `A·xᵐ` /
//!   `A·xᵐ⁻¹` are computed. The kernel registry resolves it per shape
//!   (e.g. `tape` plans the batched kernels where a shape has generated
//!   unrolled code, and the simulated GPU runs its unrolled variant);
//!   every strategy returns the same bits. [`CpuParallel`] picks its
//!   engine from the resolved plan: lockstep lanes for batched kernels
//!   under a tensor-constant SS-HOPM shift, the per-tensor driver
//!   otherwise.
//! * [`BackendSpec`] — a declarative string form (`cpu`, `cpu:8`,
//!   `gpusim`, `gpusim:tesla-c2050:4`, `pipelined`, `cluster:2:2`) so
//!   CLIs and benchmark drivers select backends without hand-rolled
//!   dispatch; it is the one place a spec becomes a topology, a schedule
//!   and a label.
//! * [`BatchReport`] — one result type unifying what used to be scattered
//!   across `BatchResult`, `LaunchReport` and ad-hoc timing tuples:
//!   eigenpairs, total iterations, wall time, flop accounting and
//!   per-device profile snapshots. A caller that needs only what it
//!   derives from each tensor's row of pairs calls
//!   [`SolveBackend::solve_batch_each`] instead, which lends the rows and
//!   keeps none.
//!
//! ```
//! use backend::{BackendSpec, KernelStrategy, SolveBackend};
//! use sshopm::{IterationPolicy, Shift, SsHopm};
//! use symtensor::TensorBatch;
//! use telemetry::Telemetry;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let tensors = TensorBatch::<f32>::random(4, 3, 4, &mut rng).unwrap();
//! let starts = sshopm::starts::random_uniform_starts::<f32, _>(3, 8, &mut rng);
//! let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(10));
//!
//! let spec: BackendSpec = "gpusim".parse().unwrap();
//! let backend = spec.build::<f32>(KernelStrategy::Tape).unwrap();
//! let report = backend
//!     .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
//!     .unwrap();
//! assert_eq!(report.num_tensors(), 4);
//! assert_eq!(report.total_iterations, 4 * 8 * 10);
//! ```

#![deny(missing_docs)]

mod backends;
mod cluster;
mod report;
mod resilient;
mod spec;
mod strategy;

pub use backends::{CpuParallel, GpuSimBackend, SolveBackend};
pub use report::{BatchReport, DeviceProfile, FaultLog};
pub use resilient::{parse_fault_plan, ResilientBackend};
pub use spec::{BackendError, BackendSpec, DeviceKind};
pub use strategy::{gpu_variant, KernelPlan, KernelRegistry, KernelStrategy};
