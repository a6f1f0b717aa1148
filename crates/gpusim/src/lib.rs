//! # gpusim — a functional + analytic SIMT GPU simulator
//!
//! The paper's evaluation platform is an NVIDIA Tesla C2050 (Fermi) driven
//! by CUDA. Rust cannot target that stack here, so this crate substitutes a
//! simulator with two halves that together preserve the *behaviour* the
//! paper's numbers depend on:
//!
//! 1. **Functional execution** ([`exec`], [`kernel`]): the exact thread
//!    organization of Section V-B — one thread block per tensor, one thread
//!    per starting vector, the tensor staged into block-shared memory, the
//!    iteration vectors in per-thread "registers" — executed faithfully
//!    (blocks in parallel via rayon, warps in lockstep with divergence
//!    tracking) and instrumented with operation counters.
//! 2. **Analytic timing** ([`timing`], [`occupancy`], [`device`]): a
//!    Fermi-class performance model that converts counted warp instructions
//!    and memory transactions into estimated cycles, limited by occupancy
//!    (register file and shared-memory pressure — the effect behind the
//!    paper's Section V-E observation that performance drops past order 4 /
//!    dimension 5).
//! 3. **Asynchronous execution** ([`stream`], [`multi`]): launches are
//!    *enqueued* as `HostToDevice` / `Kernel` / `DeviceToHost` ops on
//!    CUDA-style streams and resolved by a discrete-event scheduler
//!    against each device's engines (one copy engine + one compute engine
//!    per C2050, like real Fermi) into an event [`Timeline`] whose
//!    makespan is the modeled wall-clock — double-buffered chunking
//!    overlaps PCIe transfers with kernels exactly as streams do on
//!    hardware.
//! 4. **One execution model** ([`topology`]): an explicit `Cluster` →
//!    `Host` → device tree, each link (NIC and PCIe) with its own
//!    bandwidth/latency model; one GPU is the 1 × 1 cluster. The single
//!    [`Cluster::launch`] cuts the packed arena into one contiguous slice
//!    per host and per device, charges one modeled NIC transfer per
//!    non-root shard against the Al Daas et al. communication lower
//!    bound, and runs each device's slice on its host's stream queue
//!    under a [`Schedule`] (whole, or in double-buffered chunks).
//!
//! The model is deliberately simple and fully documented; it is calibrated
//! so the *shape* of the paper's results (GPU ≫ CPU, unrolled ≫ general,
//! saturation once the device fills) is reproduced, not the absolute 2011
//! milliseconds.

#![deny(missing_docs)]

pub mod counters;
pub mod device;
pub mod error;
pub mod exec;
pub mod fault;
pub mod kernel;
pub mod memory;
pub mod multi;
pub mod occupancy;
pub mod profile;
pub mod stream;
pub mod timing;
pub mod topology;

pub use counters::OpCounters;
pub use device::DeviceSpec;
pub use error::GpuError;
pub use exec::{GridConfig, LaunchStats};
pub use fault::{
    corrupt_tensor, FaultKind, FaultPlan, FaultSite, InjectedFault, BACKOFF_BASE_SECONDS,
    WATCHDOG_TIMEOUT_SECONDS,
};
pub use kernel::{enqueue_sshopm, launch_sshopm, GpuBatchResult, GpuVariant, LaunchReport};
pub use multi::{problem_traffic_bytes, HostTransfer, TransferModel};
pub use occupancy::{KernelResources, Occupancy};
pub use profile::{CounterBreakdown, ProfileSnapshot};
pub use stream::{
    DeviceStreams, Engine, EventId, Op, OpId, StreamId, StreamQueue, TimedOp, Timeline,
};
pub use timing::TimingEstimate;
pub use topology::{Cluster, ClusterReport, DeviceSlice, Host, HostShard, Schedule};
