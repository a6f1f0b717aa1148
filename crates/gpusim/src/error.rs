//! Error type for simulated launches.
//!
//! Every condition that used to abort the process with an `assert!` in the
//! launch path is now a recoverable [`GpuError`], so callers (the `backend`
//! crate, the CLI) can surface a clean message instead of a panic.

/// A reason a simulated launch (or device-set construction) cannot proceed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// A multi-GPU set was built with no devices.
    EmptyDeviceList,
    /// A cluster host was built with no devices.
    EmptyHost,
    /// A cluster was built with no hosts.
    EmptyCluster,
    /// A launch was requested with no tensors.
    EmptyBatch,
    /// A launch was requested with no start vectors.
    EmptyStarts,
    /// A launch's iteration counts are not a whole number of tensors'
    /// rows: their count is not a multiple of the start count.
    RaggedCounts {
        /// Iteration counts given.
        counts: usize,
        /// Starts per tensor.
        starts: usize,
    },
    /// The unrolled kernel variant was requested for a shape that has no
    /// compiled kernel.
    NoUnrolledKernel {
        /// Tensor order.
        m: usize,
        /// Tensor dimension.
        n: usize,
    },
    /// The shape is too large to model: its unique-entry count overflows
    /// `u64`.
    ShapeTooLarge {
        /// Tensor order.
        m: usize,
        /// Tensor dimension.
        n: usize,
    },
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::EmptyDeviceList => write!(f, "need at least one device"),
            GpuError::EmptyHost => write!(f, "need at least one device per host"),
            GpuError::EmptyCluster => write!(f, "need at least one host in the cluster"),
            GpuError::EmptyBatch => write!(f, "need at least one tensor to launch"),
            GpuError::EmptyStarts => write!(f, "need at least one start vector"),
            GpuError::RaggedCounts { counts, starts } => write!(
                f,
                "{counts} iteration counts are not whole rows of {starts} starts per tensor"
            ),
            GpuError::NoUnrolledKernel { m, n } => {
                write!(f, "no unrolled kernel generated for shape ({m}, {n})")
            }
            GpuError::ShapeTooLarge { m, n } => write!(
                f,
                "shape ({m}, {n}) is too large to model: unique-entry count overflows u64"
            ),
        }
    }
}

impl std::error::Error for GpuError {}
