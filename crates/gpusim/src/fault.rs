//! Deterministic, seed-driven fault injection for simulated launches.
//!
//! Real Fermi-era hardware misbehaves in ways a fault-free simulator never
//! does: ECC scrubbing flips memory bits, the kernel watchdog kills
//! long-running launches, PCIe transfers fail, and whole boards drop off the
//! bus. A [`FaultPlan`] reproduces those behaviors *deterministically*: every
//! draw is a pure hash of `(seed, device, chunk, attempt, kind)`, so a given
//! seed always injects the same faults into the same launch sites — failures
//! are replayable from the command line (`--faults seed=42,ecc=0.01,...`).
//!
//! The plan only *decides* what goes wrong; reacting to it (retry, failover,
//! re-solve) is the job of the `backend` crate's `ResilientBackend`.

use symtensor::{Scalar, SymTensor};

/// Modeled wall-clock cost of a kernel watchdog timeout, in seconds.
///
/// Fermi's display watchdog kills kernels after roughly two seconds; a
/// launch that trips it wastes that long before the host notices.
pub const WATCHDOG_TIMEOUT_SECONDS: f64 = 2.0;

/// Base delay for exponential retry backoff, in seconds. Attempt `k`
/// (0-based) waits `BACKOFF_BASE_SECONDS * 2^k` before re-launching.
pub const BACKOFF_BASE_SECONDS: f64 = 0.05;

/// The kinds of hardware fault the simulator can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A memory bit-flip: one packed tensor entry is corrupted to NaN
    /// before the launch reads it (detectable in the results).
    EccCorruption,
    /// The kernel watchdog killed the launch; no results were produced.
    WatchdogTimeout,
    /// The host-to-device (or device-to-host) transfer failed; the launch
    /// never ran.
    TransferFailure,
    /// The whole device dropped off the bus. Device loss is *sticky*: once
    /// a device is lost it stays lost for the rest of the batch.
    DeviceLoss,
    /// The whole *host* dropped out of the cluster (kernel panic, power,
    /// NIC partition): every device it owns is lost at once, equally
    /// sticky. On a single-host topology this is total device loss.
    HostLoss,
}

impl FaultKind {
    /// All fault kinds, for sweeps and reports.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::EccCorruption,
        FaultKind::WatchdogTimeout,
        FaultKind::TransferFailure,
        FaultKind::DeviceLoss,
        FaultKind::HostLoss,
    ];

    /// Short name for logs and CLI specs.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::EccCorruption => "ecc",
            FaultKind::WatchdogTimeout => "watchdog",
            FaultKind::TransferFailure => "transfer",
            FaultKind::DeviceLoss => "device-loss",
            FaultKind::HostLoss => "host-loss",
        }
    }

    fn salt(&self) -> u64 {
        match self {
            FaultKind::EccCorruption => 0x45CC,
            FaultKind::WatchdogTimeout => 0xD06,
            FaultKind::TransferFailure => 0x7274,
            FaultKind::DeviceLoss => 0xDEAD,
            FaultKind::HostLoss => 0x4057,
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Where a fault draw happens: one launch attempt of one chunk on one
/// device. Draws at distinct sites are independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Index of the device the chunk is (currently) assigned to.
    pub device_index: usize,
    /// Index of the chunk within the batch.
    pub chunk_index: usize,
    /// 0-based attempt number for this chunk (increments on retry/failover).
    pub attempt: u32,
}

/// One fault the plan injected, for the `FaultLog` ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// What went wrong.
    pub kind: FaultKind,
    /// Device the fault hit.
    pub device_index: usize,
    /// Chunk whose launch was hit.
    pub chunk_index: usize,
    /// Attempt number the fault hit.
    pub attempt: u32,
    /// For ECC corruption: the chunk-local index of the poisoned tensor.
    pub tensor_index: Option<usize>,
}

/// A deterministic, seed-driven schedule of injected faults.
///
/// Each fault kind has an independent per-attempt probability; whether a
/// given `(device, chunk, attempt)` site trips a kind is a pure function of
/// the seed, so runs are bit-for-bit replayable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the deterministic draws.
    pub seed: u64,
    /// Per-attempt probability of ECC corruption of one tensor.
    pub ecc: f64,
    /// Per-attempt probability of a watchdog timeout.
    pub watchdog: f64,
    /// Per-attempt probability of a transfer failure.
    pub transfer: f64,
    /// Per-attempt probability of losing the device outright.
    pub device_loss: f64,
    /// Per-attempt probability of losing the chunk's whole host (all of
    /// its devices at once).
    pub host_loss: f64,
}

impl FaultPlan {
    /// A plan that injects nothing (all probabilities zero).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            ecc: 0.0,
            watchdog: 0.0,
            transfer: 0.0,
            device_loss: 0.0,
            host_loss: 0.0,
        }
    }

    /// Set the per-attempt ECC-corruption probability.
    pub fn with_ecc(mut self, p: f64) -> Self {
        self.ecc = p;
        self
    }

    /// Set the per-attempt watchdog-timeout probability.
    pub fn with_watchdog(mut self, p: f64) -> Self {
        self.watchdog = p;
        self
    }

    /// Set the per-attempt transfer-failure probability.
    pub fn with_transfer(mut self, p: f64) -> Self {
        self.transfer = p;
        self
    }

    /// Set the per-attempt device-loss probability.
    pub fn with_device_loss(mut self, p: f64) -> Self {
        self.device_loss = p;
        self
    }

    /// Set the per-attempt host-loss probability.
    pub fn with_host_loss(mut self, p: f64) -> Self {
        self.host_loss = p;
        self
    }

    /// True if any fault kind has a nonzero probability.
    pub fn is_active(&self) -> bool {
        self.ecc > 0.0
            || self.watchdog > 0.0
            || self.transfer > 0.0
            || self.device_loss > 0.0
            || self.host_loss > 0.0
    }

    /// The configured probability for one kind.
    pub fn probability(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::EccCorruption => self.ecc,
            FaultKind::WatchdogTimeout => self.watchdog,
            FaultKind::TransferFailure => self.transfer,
            FaultKind::DeviceLoss => self.device_loss,
            FaultKind::HostLoss => self.host_loss,
        }
    }

    fn draw(&self, kind: FaultKind, site: FaultSite, extra: u64) -> u64 {
        let mut h = self.seed ^ kind.salt().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = splitmix64(h ^ site.device_index as u64);
        h = splitmix64(h ^ (site.chunk_index as u64).wrapping_shl(1));
        h = splitmix64(h ^ u64::from(site.attempt).wrapping_shl(2));
        splitmix64(h ^ extra)
    }

    /// Deterministically decide whether `kind` fires at `site`.
    pub fn should_inject(&self, kind: FaultKind, site: FaultSite) -> bool {
        let p = self.probability(kind);
        if p <= 0.0 {
            return false;
        }
        unit_interval(self.draw(kind, site, 0)) < p
    }

    /// For an ECC fault at `site`, the chunk-local index of the tensor that
    /// gets corrupted (deterministic). Returns 0 for an empty chunk.
    pub fn ecc_target(&self, site: FaultSite, chunk_len: usize) -> usize {
        if chunk_len == 0 {
            return 0;
        }
        (self.draw(FaultKind::EccCorruption, site, 1) % chunk_len as u64) as usize
    }

    /// All faults the plan injects at `site`, with ECC targets resolved
    /// against a chunk of `chunk_len` tensors. Kinds draw independently, so
    /// one attempt can suffer several faults at once.
    pub fn faults_at(&self, site: FaultSite, chunk_len: usize) -> Vec<InjectedFault> {
        FaultKind::ALL
            .iter()
            .filter(|&&kind| self.should_inject(kind, site))
            .map(|&kind| InjectedFault {
                kind,
                device_index: site.device_index,
                chunk_index: site.chunk_index,
                attempt: site.attempt,
                tensor_index: (kind == FaultKind::EccCorruption)
                    .then(|| self.ecc_target(site, chunk_len)),
            })
            .collect()
    }

    /// The packed-entry index an ECC fault flips inside the targeted tensor.
    pub fn ecc_entry(&self, site: FaultSite, num_entries: usize) -> usize {
        if num_entries == 0 {
            return 0;
        }
        (self.draw(FaultKind::EccCorruption, site, 2) % num_entries as u64) as usize
    }
}

/// Return a copy of `tensor` with one packed entry overwritten by NaN — the
/// observable effect of an ECC bit-flip in tensor memory. The poison is NaN
/// (not a perturbed value) so corruption is always *detectable* downstream:
/// NaN propagates through every SS-HOPM iteration into the eigenpair.
pub fn corrupt_tensor<S: Scalar>(tensor: &SymTensor<S>, entry: usize) -> SymTensor<S> {
    let mut poisoned = tensor.clone();
    let values = poisoned.values_mut();
    if let Some(len) = values.len().checked_sub(1) {
        values[entry.min(len)] = S::from_f64(f64::NAN);
    }
    poisoned
}

/// SplitMix64: a tiny, high-quality 64-bit mixer (public-domain constant
/// set). Deterministic and allocation-free — ideal for replayable draws.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Map a hash to `[0, 1)` with 53 bits of precision.
fn unit_interval(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(d: usize, c: usize, a: u32) -> FaultSite {
        FaultSite {
            device_index: d,
            chunk_index: c,
            attempt: a,
        }
    }

    #[test]
    fn draws_are_deterministic() {
        let plan = FaultPlan::new(42).with_ecc(0.5).with_watchdog(0.25);
        for d in 0..4 {
            for c in 0..8 {
                for a in 0..4 {
                    for kind in FaultKind::ALL {
                        assert_eq!(
                            plan.should_inject(kind, site(d, c, a)),
                            plan.should_inject(kind, site(d, c, a)),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn zero_probability_never_fires_and_one_always_fires() {
        let never = FaultPlan::new(7);
        let always = FaultPlan::new(7)
            .with_ecc(1.0)
            .with_watchdog(1.0)
            .with_transfer(1.0)
            .with_device_loss(1.0)
            .with_host_loss(1.0);
        assert!(!never.is_active());
        assert!(always.is_active());
        for c in 0..32 {
            for kind in FaultKind::ALL {
                assert!(!never.should_inject(kind, site(0, c, 0)));
                assert!(always.should_inject(kind, site(0, c, 0)));
            }
        }
    }

    #[test]
    fn empirical_rate_tracks_probability() {
        let plan = FaultPlan::new(1234).with_transfer(0.3);
        let n = 4000;
        let hits = (0..n)
            .filter(|&c| plan.should_inject(FaultKind::TransferFailure, site(0, c, 0)))
            .count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.05, "rate {rate}");
    }

    #[test]
    fn kinds_and_sites_draw_independently() {
        // Distinct kinds at the same site must not be perfectly correlated,
        // and distinct attempts must re-draw.
        let plan = FaultPlan::new(99)
            .with_watchdog(0.5)
            .with_transfer(0.5)
            .with_ecc(0.5);
        let mut differs_across_kinds = false;
        let mut differs_across_attempts = false;
        for c in 0..64 {
            let s0 = site(0, c, 0);
            let w = plan.should_inject(FaultKind::WatchdogTimeout, s0);
            let t = plan.should_inject(FaultKind::TransferFailure, s0);
            if w != t {
                differs_across_kinds = true;
            }
            if w != plan.should_inject(FaultKind::WatchdogTimeout, site(0, c, 1)) {
                differs_across_attempts = true;
            }
        }
        assert!(differs_across_kinds);
        assert!(differs_across_attempts);
    }

    #[test]
    fn corrupt_tensor_poisons_exactly_one_entry_with_nan() {
        let t = SymTensor::<f64>::diagonal_ones(4, 3);
        let bad = corrupt_tensor(&t, 7);
        let nans = bad.values().iter().filter(|v| !v.is_finite()).count();
        assert_eq!(nans, 1);
        assert!(bad.values()[7].is_nan());
        // Original untouched.
        assert!(t.values().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn corrupt_tensor_clamps_out_of_range_entry() {
        let t = SymTensor::<f32>::diagonal_ones(2, 2);
        let bad = corrupt_tensor(&t, 10_000);
        assert_eq!(bad.values().iter().filter(|v| !v.is_finite()).count(), 1);
    }

    /// Parity pin: draws are independent per kind, so turning host loss on
    /// must not perturb any other kind's draws at the same sites — faulted
    /// runs replayed under an extended plan reproduce bit-for-bit.
    #[test]
    fn host_loss_does_not_perturb_other_kinds_draws() {
        let base = FaultPlan::new(42)
            .with_ecc(0.3)
            .with_watchdog(0.3)
            .with_transfer(0.3)
            .with_device_loss(0.3);
        let extended = base.with_host_loss(0.5);
        for d in 0..4 {
            for c in 0..32 {
                for a in 0..3 {
                    for kind in [
                        FaultKind::EccCorruption,
                        FaultKind::WatchdogTimeout,
                        FaultKind::TransferFailure,
                        FaultKind::DeviceLoss,
                    ] {
                        assert_eq!(
                            base.should_inject(kind, site(d, c, a)),
                            extended.should_inject(kind, site(d, c, a)),
                        );
                    }
                }
            }
        }
        let hits = (0..64)
            .filter(|&c| extended.should_inject(FaultKind::HostLoss, site(0, c, 0)))
            .count();
        assert!(hits > 0, "host loss at p=0.5 should fire somewhere");
    }

    #[test]
    fn faults_at_resolves_ecc_targets_within_chunk() {
        let plan = FaultPlan::new(5).with_ecc(1.0).with_device_loss(1.0);
        let faults = plan.faults_at(site(1, 3, 0), 17);
        assert_eq!(faults.len(), 2);
        let ecc = faults
            .iter()
            .find(|f| f.kind == FaultKind::EccCorruption)
            .expect("ecc fault drawn");
        assert!(ecc.tensor_index.is_some_and(|i| i < 17));
        let loss = faults
            .iter()
            .find(|f| f.kind == FaultKind::DeviceLoss)
            .expect("device-loss fault drawn");
        assert_eq!(loss.tensor_index, None);
    }
}
