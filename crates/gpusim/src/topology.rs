//! The simulator's one execution model: `Cluster` → [`Host`] → device.
//!
//! A [`Cluster`] is a list of [`Host`]s; each host owns its devices plus
//! *two* link models — the intra-host PCIe link its
//! [`StreamQueue`] times copies with, and the NIC connecting the host to
//! the root node where the batch arena lives. One GPU is the 1 × 1
//! cluster, several GPUs on one board are 1 × N
//! ([`Cluster::single_host`]).
//!
//! [`Cluster::launch`] cuts the packed tensor arena into one contiguous
//! slice per host and each host's slice into one per device, both
//! proportional to peak throughput ([`Cluster::shard`], [`Host::split`]).
//! It charges one modeled NIC transfer per non-root shard (shard arena +
//! starting vectors down, packed eigenpairs back up) and runs each
//! device's slice on the host's own stream queue under a [`Schedule`]:
//! whole, or in double-buffered chunks. Because the tensors are
//! independent (Section V-B of the paper: the batch "generalizes to a
//! system with multiple GPUs" with no communication), this moves every
//! byte at most once — the NIC traffic is charged against the lower bound
//! of Al Daas, Ballard, Grigori et al., "Minimizing Communication for
//! Parallel Symmetric Tensor Times Same Vector Computation"
//! ([`Cluster::comm_lower_bound_bytes`]), and the report carries the
//! achieved-vs-bound ratio ([`ClusterReport::comm_ratio`]).

use crate::device::DeviceSpec;
use crate::error::GpuError;
use crate::kernel::{enqueue_sshopm, GpuBatchResult, GpuVariant, LaunchReport};
use crate::multi::{problem_traffic_bytes, TransferModel};
use crate::stream::{DeviceStreams, StreamQueue, Timeline};
use sshopm::{Eigenpair, IterationPolicy};
use symtensor::multinomial::num_unique_entries;
use symtensor::{Scalar, TensorBatchRef};

/// How each device runs its slice of a launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// Streams per device for chunked schedules: a device's `k`-th chunk
    /// runs on its stream `k mod S` ([`DeviceStreams`]).
    pub streams_per_device: usize,
    /// Tensors per chunk. `None` launches each device's slice whole, on a
    /// single stream — the synchronous schedule.
    pub chunk_tensors: Option<usize>,
}

impl Schedule {
    /// One launch per device, one stream per device: upload → kernel →
    /// download back to back.
    pub const SYNCHRONOUS: Schedule = Schedule {
        streams_per_device: 1,
        chunk_tensors: None,
    };

    /// Double-buffered chunking: each device's slice is cut into
    /// `chunk_tensors`-sized pieces dealt round-robin across
    /// `streams_per_device` streams, so chunk `k+1`'s upload overlaps chunk
    /// `k`'s kernel (and downloads interleave on the copy engine). With one
    /// stream this is the synchronous schedule plus per-chunk launch
    /// overhead. Both counts are clamped to at least one.
    pub fn pipelined(chunk_tensors: usize, streams_per_device: usize) -> Self {
        Self {
            streams_per_device: streams_per_device.max(1),
            chunk_tensors: Some(chunk_tensors.max(1)),
        }
    }
}

/// Split `total` tensors proportionally to `peaks`, every share rounded
/// down, the remainder dealt one at a time to the fastest first. Both
/// levels of a launch use it: hosts by summed peak, devices by their own.
fn split_by_peak(peaks: &[f64], total: usize) -> Vec<usize> {
    let sum: f64 = peaks.iter().sum();
    let mut counts: Vec<usize> = peaks
        .iter()
        .map(|p| ((p / sum) * total as f64).floor() as usize)
        .collect();
    let mut assigned: usize = counts.iter().sum();
    let mut order: Vec<usize> = (0..peaks.len()).collect();
    order.sort_by(|&a, &b| peaks[b].total_cmp(&peaks[a]));
    let mut i = 0;
    while assigned < total {
        counts[order[i % order.len()]] += 1;
        assigned += 1;
        i += 1;
    }
    counts
}

/// One machine in a simulated cluster: its devices, the PCIe link they
/// share, and the NIC that connects the host to the root node.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// The devices installed in this host (may be heterogeneous).
    pub devices: Vec<DeviceSpec>,
    /// Intra-host host↔device link (PCIe); every stream-queue copy on
    /// this host is timed against it.
    pub pcie: TransferModel,
    /// Inter-host link (NIC) to the root node; each shard crosses it
    /// once in each direction.
    pub nic: TransferModel,
}

impl Host {
    /// A host over `devices` with explicit link models.
    ///
    /// # Errors
    /// Returns [`GpuError::EmptyHost`] when the device list is empty — a
    /// host with no devices can never receive a shard.
    pub fn new(
        devices: Vec<DeviceSpec>,
        pcie: TransferModel,
        nic: TransferModel,
    ) -> Result<Self, GpuError> {
        if devices.is_empty() {
            return Err(GpuError::EmptyHost);
        }
        Ok(Self { devices, pcie, nic })
    }

    /// `count` identical devices behind the default links (PCIe 2.0 and a
    /// QDR-InfiniBand-class NIC, the interconnects of the paper's era).
    ///
    /// # Errors
    /// Returns [`GpuError::EmptyHost`] when `count` is zero.
    pub fn homogeneous(device: DeviceSpec, count: usize) -> Result<Self, GpuError> {
        Self::new(
            vec![device; count],
            TransferModel::pcie2(),
            TransferModel::qdr_infiniband(),
        )
    }

    /// Number of devices on this host.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Summed peak single-precision throughput of the host's devices —
    /// the sharding weight.
    pub fn peak_sp_gflops(&self) -> f64 {
        self.devices.iter().map(DeviceSpec::peak_sp_gflops).sum()
    }

    /// Split `total` tensors across this host's devices proportionally to
    /// peak throughput (every device gets at least one while tensors
    /// remain).
    pub fn split(&self, total: usize) -> Vec<usize> {
        let peaks: Vec<f64> = self
            .devices
            .iter()
            .map(DeviceSpec::peak_sp_gflops)
            .collect();
        split_by_peak(&peaks, total)
    }

    /// Run one shard on this host's devices, on the host's own stream
    /// queue: each device's slice is a contiguous, zero-copy sub-range of
    /// the arena, launched whole or in chunks as `schedule` says. Results
    /// are appended to `results` in tensor order.
    #[allow(clippy::too_many_arguments)]
    fn run_shard<S: Scalar>(
        &self,
        shard: TensorBatchRef<'_, S>,
        starts: &[Vec<S>],
        policy: IterationPolicy,
        alpha: f64,
        variant: GpuVariant,
        schedule: Schedule,
        results: &mut Vec<Vec<Eigenpair<S>>>,
    ) -> Result<(Vec<DeviceSlice>, Timeline), GpuError> {
        let mut queue = StreamQueue::for_host(self);
        // (device_index, tensors, merged report) per device with work;
        // transfer/total seconds are read off the timeline afterwards.
        let mut merged: Vec<(usize, usize, LaunchReport)> = Vec::new();
        let mut offset = 0usize;
        for (device_index, (&count, device)) in self
            .split(shard.len())
            .iter()
            .zip(&self.devices)
            .enumerate()
        {
            if count == 0 {
                continue;
            }
            let slice = shard.slice(offset..offset + count);
            offset += count;
            let (chunk, streams) = match schedule.chunk_tensors {
                Some(chunk) => (chunk.max(1), schedule.streams_per_device),
                None => (count, 1),
            };
            let mut streams = DeviceStreams::new(&mut queue, device_index, streams);
            let mut device_report: Option<LaunchReport> = None;
            for lo in (0..count).step_by(chunk) {
                let (res, report) = enqueue_sshopm(
                    &mut queue,
                    streams.deal(),
                    device,
                    slice.slice(lo..(lo + chunk).min(count)),
                    starts,
                    policy,
                    alpha,
                    variant,
                )?;
                results.extend(res.results);
                match &mut device_report {
                    None => device_report = Some(report),
                    Some(acc) => acc.merge(&report),
                }
            }
            if let Some(report) = device_report {
                merged.push((device_index, count, report));
            }
        }
        let timeline = queue.synchronize();
        let slices = merged
            .into_iter()
            .map(|(device_index, num_tensors, report)| DeviceSlice {
                device_index,
                num_tensors,
                report,
                transfer_seconds: timeline.copy_seconds(device_index),
                total_seconds: timeline.device_busy_seconds(device_index),
            })
            .collect();
        Ok((slices, timeline))
    }
}

/// A simulated cluster: an ordered list of [`Host`]s. Host 0 is the
/// *root* — the batch arena starts resident there, so its shard never
/// crosses a NIC; every other host's shard pays one NIC round trip.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    hosts: Vec<Host>,
}

/// The 1 × 1 cluster: one device on the root host behind PCIe 2.0.
impl From<DeviceSpec> for Cluster {
    fn from(device: DeviceSpec) -> Self {
        Self {
            hosts: vec![Host {
                devices: vec![device],
                pcie: TransferModel::pcie2(),
                nic: TransferModel::qdr_infiniband(),
            }],
        }
    }
}

impl Cluster {
    /// A cluster over `hosts`.
    ///
    /// # Errors
    /// Returns [`GpuError::EmptyCluster`] when the host list is empty.
    pub fn new(hosts: Vec<Host>) -> Result<Self, GpuError> {
        if hosts.is_empty() {
            return Err(GpuError::EmptyCluster);
        }
        Ok(Self { hosts })
    }

    /// `num_hosts` identical hosts of `devices_per_host` copies of
    /// `device` each, behind the default link models.
    ///
    /// # Errors
    /// Returns [`GpuError::EmptyCluster`] / [`GpuError::EmptyHost`] when
    /// either count is zero.
    pub fn homogeneous(
        device: DeviceSpec,
        num_hosts: usize,
        devices_per_host: usize,
    ) -> Result<Self, GpuError> {
        if num_hosts == 0 {
            return Err(GpuError::EmptyCluster);
        }
        let host = Host::homogeneous(device, devices_per_host)?;
        Self::new(vec![host; num_hosts])
    }

    /// One host owning all `devices` over one PCIe link: a single GPU or a
    /// multi-GPU board. Everything sits on the root, so nothing ever
    /// crosses a NIC.
    ///
    /// # Errors
    /// Returns [`GpuError::EmptyDeviceList`] when the device list is
    /// empty.
    pub fn single_host(devices: Vec<DeviceSpec>, pcie: TransferModel) -> Result<Self, GpuError> {
        if devices.is_empty() {
            return Err(GpuError::EmptyDeviceList);
        }
        Self::new(vec![Host::new(
            devices,
            pcie,
            TransferModel::qdr_infiniband(),
        )?])
    }

    /// The hosts, in shard order (host 0 is the root).
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Total devices across all hosts.
    pub fn num_devices(&self) -> usize {
        self.hosts.iter().map(Host::num_devices).sum()
    }

    /// All devices flattened host-major: host 0's devices first, then
    /// host 1's, and so on. This is the *global device index* order
    /// reports and the resilient backend use.
    pub fn flat_devices(&self) -> Vec<DeviceSpec> {
        self.hosts
            .iter()
            .flat_map(|h| h.devices.iter().cloned())
            .collect()
    }

    /// The host a global (host-major) device index belongs to. Indices
    /// past the last device clamp to the last host.
    pub fn host_of_device(&self, device_index: usize) -> usize {
        let mut remaining = device_index;
        for (h, host) in self.hosts.iter().enumerate() {
            if remaining < host.num_devices() {
                return h;
            }
            remaining -= host.num_devices();
        }
        self.hosts.len() - 1
    }

    /// Split `total` tensors across hosts proportionally to each host's
    /// summed peak throughput — the split [`Host::split`] applies to
    /// devices, one level up.
    pub fn shard(&self, total: usize) -> Vec<usize> {
        let peaks: Vec<f64> = self.hosts.iter().map(Host::peak_sp_gflops).collect();
        split_by_peak(&peaks, total)
    }

    /// The Al Daas et al. communication lower bound for this problem on
    /// this cluster, in bytes.
    ///
    /// The batched problem is embarrassingly parallel (tensor-independent),
    /// so the bound specializes to the one-touch form: with the arena
    /// resident on the root, any load-balanced schedule must move each
    /// non-root host's share of the arena down at least once, its share of
    /// the packed eigenpairs back at least once, and one copy of the
    /// starting vectors to every non-root host. "Share" is the host's peak-
    /// throughput fraction — the same weights [`shard`](Cluster::shard)
    /// balances compute with. One host ⇒ zero bound.
    pub fn comm_lower_bound_bytes(
        &self,
        num_tensors: usize,
        num_starts: usize,
        m: usize,
        n: usize,
        elem: usize,
    ) -> u64 {
        if self.hosts.len() <= 1 {
            return 0;
        }
        let u = num_unique_entries(m, n);
        let arena = num_tensors as u64 * u * elem as u64;
        let results = (num_tensors * num_starts) as u64 * (n as u64 + 1) * elem as u64;
        let starts_bytes = (num_starts * n) as u64 * elem as u64;
        let total_peak: f64 = self.hosts.iter().map(Host::peak_sp_gflops).sum();
        let nonroot_peak: f64 = total_peak - self.hosts[0].peak_sp_gflops();
        let nonroot_frac = if total_peak > 0.0 {
            nonroot_peak / total_peak
        } else {
            0.0
        };
        (nonroot_frac * (arena + results) as f64).floor() as u64
            + (self.hosts.len() as u64 - 1) * starts_bytes
    }

    /// Launch the batched SS-HOPM problem across the cluster: shard the
    /// arena contiguously over hosts, charge each non-root shard one NIC
    /// round trip, and run every host's shard on its own devices and
    /// stream queue under `schedule`. Hosts and devices run concurrently;
    /// transfers to distinct devices use distinct PCIe lanes, as on real
    /// multi-GPU boards. Results come back in original tensor order and
    /// are bitwise identical for every topology and schedule — sharding
    /// and chunking change the clock, never the arithmetic.
    ///
    /// # Errors
    /// Returns a [`GpuError`] for an empty batch or any per-device launch
    /// failure (empty starts, missing unrolled kernel).
    pub fn launch<'a, S: Scalar>(
        &self,
        batch: impl Into<TensorBatchRef<'a, S>>,
        starts: &[Vec<S>],
        policy: IterationPolicy,
        alpha: f64,
        variant: GpuVariant,
        schedule: Schedule,
    ) -> Result<(GpuBatchResult<S>, ClusterReport), GpuError> {
        let batch = batch.into();
        if batch.is_empty() {
            return Err(GpuError::EmptyBatch);
        }
        let (m, n) = (batch.order(), batch.dim());
        let elem = std::mem::size_of::<S>();
        let counts = self.shard(batch.len());

        let mut results = Vec::with_capacity(batch.len());
        let mut shards = Vec::new();
        let mut offset = 0usize;
        let mut nic_bytes = 0u64;
        let mut wall = 0.0_f64;

        for (host_index, (&count, host)) in counts.iter().zip(&self.hosts).enumerate() {
            if count == 0 {
                continue;
            }
            // Contiguous arena slice: the shard is a zero-copy sub-range
            // of the same packed buffer, so it ships over the NIC (and
            // then over PCIe) as one coalesced payload.
            let slice = batch.slice(offset..offset + count);
            offset += count;
            let (slices, timeline) = host.run_shard(
                slice,
                starts,
                policy,
                alpha,
                variant,
                schedule,
                &mut results,
            )?;
            // One modeled NIC transfer each way per non-root shard; the
            // root's shard is already resident.
            let (nic_down_bytes, nic_up_bytes) = if host_index == 0 {
                (0, 0)
            } else {
                problem_traffic_bytes(count, starts.len(), m, n, elem)
            };
            let nic_seconds = if host_index == 0 {
                0.0
            } else {
                host.nic.transfer_seconds(nic_down_bytes) + host.nic.transfer_seconds(nic_up_bytes)
            };
            nic_bytes += nic_down_bytes + nic_up_bytes;
            let seconds = nic_seconds + timeline.makespan();
            wall = wall.max(seconds);
            shards.push(HostShard {
                host_index,
                num_tensors: count,
                nic_down_bytes,
                nic_up_bytes,
                nic_seconds,
                seconds,
                slices,
                timeline,
            });
        }

        let useful_flops: u64 = shards
            .iter()
            .flat_map(|s| &s.slices)
            .map(|d| d.report.useful_flops)
            .sum();
        let gflops = if wall > 0.0 {
            useful_flops as f64 / wall / 1e9
        } else {
            0.0
        };
        let comm_lower_bound_bytes =
            self.comm_lower_bound_bytes(batch.len(), starts.len(), m, n, elem);
        Ok((
            GpuBatchResult { results },
            ClusterReport {
                shards,
                seconds: wall,
                useful_flops,
                gflops,
                nic_bytes,
                comm_lower_bound_bytes,
            },
        ))
    }
}

/// One device's slice of a launch.
#[derive(Debug, Clone)]
pub struct DeviceSlice {
    /// Index of the device on the stream queue it ran on: its host's
    /// device list, in a cluster launch.
    pub device_index: usize,
    /// Tensors assigned to this device.
    pub num_tensors: usize,
    /// The device's launch report, its chunks merged
    /// ([`LaunchReport::merge`]).
    pub report: LaunchReport,
    /// Host→device + device→host transfer time for this slice.
    pub transfer_seconds: f64,
    /// When the device finished its last op: kernels plus transfers.
    pub total_seconds: f64,
}

/// One host's shard of a cluster launch.
#[derive(Debug, Clone)]
pub struct HostShard {
    /// Index into the cluster's host list.
    pub host_index: usize,
    /// Tensors assigned to this host.
    pub num_tensors: usize,
    /// Bytes shipped root→host over the NIC (0 for the root's shard).
    pub nic_down_bytes: u64,
    /// Bytes shipped host→root over the NIC (0 for the root's shard).
    pub nic_up_bytes: u64,
    /// Modeled NIC time both ways (0 for the root's shard).
    pub nic_seconds: f64,
    /// NIC time plus the host's makespan (its timeline's).
    pub seconds: f64,
    /// One entry per device of this host that received work.
    pub slices: Vec<DeviceSlice>,
    /// The host's resolved stream timeline: every transfer and kernel op
    /// with its modeled start/end.
    pub timeline: Timeline,
}

/// Aggregate result of a cluster launch.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// One entry per host that received work.
    pub shards: Vec<HostShard>,
    /// Wall-clock estimate: hosts run concurrently, so the slowest
    /// shard's NIC-plus-makespan chain.
    pub seconds: f64,
    /// Total useful flops across hosts.
    pub useful_flops: u64,
    /// Aggregate achieved GFLOP/s (flops / wall-clock).
    pub gflops: f64,
    /// Total bytes that crossed NICs, both directions.
    pub nic_bytes: u64,
    /// The Al Daas et al. communication lower bound for this problem on
    /// this cluster ([`Cluster::comm_lower_bound_bytes`]).
    pub comm_lower_bound_bytes: u64,
}

impl ClusterReport {
    /// Achieved NIC traffic over the communication lower bound (≥ 1 up to
    /// integer sharding rounding; 1.0 when the bound is zero, i.e. one
    /// host).
    pub fn comm_ratio(&self) -> f64 {
        if self.comm_lower_bound_bytes == 0 {
            1.0
        } else {
            self.nic_bytes as f64 / self.comm_lower_bound_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sshopm::starts::random_uniform_starts;
    use symtensor::TensorBatch;

    const SYNC: Schedule = Schedule::SYNCHRONOUS;

    fn workload(t: usize, v: usize, seed: u64) -> (TensorBatch<f32>, Vec<Vec<f32>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tensors = TensorBatch::random(4, 3, t, &mut rng).unwrap();
        let starts = random_uniform_starts(3, v, &mut rng);
        (tensors, starts)
    }

    #[test]
    fn empty_topologies_are_errors_not_panics() {
        assert_eq!(Cluster::new(vec![]).unwrap_err(), GpuError::EmptyCluster);
        assert_eq!(
            Cluster::homogeneous(DeviceSpec::tesla_c2050(), 0, 2).unwrap_err(),
            GpuError::EmptyCluster
        );
        assert_eq!(
            Cluster::homogeneous(DeviceSpec::tesla_c2050(), 2, 0).unwrap_err(),
            GpuError::EmptyHost
        );
        assert_eq!(
            Host::new(
                vec![],
                TransferModel::pcie2(),
                TransferModel::qdr_infiniband()
            )
            .unwrap_err(),
            GpuError::EmptyHost
        );
    }

    #[test]
    fn flat_devices_and_host_lookup_are_host_major() {
        let cluster = Cluster::new(vec![
            Host::homogeneous(DeviceSpec::tesla_c2050(), 2).unwrap(),
            Host::homogeneous(DeviceSpec::tesla_c1060(), 3).unwrap(),
        ])
        .unwrap();
        assert_eq!(cluster.num_hosts(), 2);
        assert_eq!(cluster.num_devices(), 5);
        let flat = cluster.flat_devices();
        assert_eq!(flat.len(), 5);
        assert_eq!(flat[1].name, DeviceSpec::tesla_c2050().name);
        assert_eq!(flat[2].name, DeviceSpec::tesla_c1060().name);
        assert_eq!(cluster.host_of_device(0), 0);
        assert_eq!(cluster.host_of_device(1), 0);
        assert_eq!(cluster.host_of_device(2), 1);
        assert_eq!(cluster.host_of_device(4), 1);
        assert_eq!(cluster.host_of_device(99), 1);
    }

    #[test]
    fn shard_is_exact_and_favors_faster_hosts() {
        let cluster = Cluster::new(vec![
            Host::homogeneous(DeviceSpec::tesla_c2050(), 2).unwrap(),
            Host::homogeneous(DeviceSpec::tesla_c1060(), 2).unwrap(),
        ])
        .unwrap();
        let counts = cluster.shard(1000);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        assert!(counts[0] > counts[1], "{counts:?}");
        let even = Cluster::homogeneous(DeviceSpec::tesla_c2050(), 4, 2)
            .unwrap()
            .shard(1024);
        assert_eq!(even, vec![256; 4]);
    }

    #[test]
    fn cluster_results_match_single_host_bitwise() {
        let (tensors, starts) = workload(64, 16, 11);
        let policy = IterationPolicy::Fixed(8);
        let single =
            Cluster::single_host(vec![DeviceSpec::tesla_c2050(); 2], TransferModel::pcie2())
                .unwrap();
        let (base, _) = single
            .launch(&tensors, &starts, policy, 0.0, GpuVariant::Unrolled, SYNC)
            .unwrap();
        let cluster = Cluster::homogeneous(DeviceSpec::tesla_c2050(), 2, 2).unwrap();
        let (sharded, report) = cluster
            .launch(&tensors, &starts, policy, 0.0, GpuVariant::Unrolled, SYNC)
            .unwrap();
        assert_eq!(sharded.results.len(), base.results.len());
        for (a, b) in sharded
            .results
            .iter()
            .flatten()
            .zip(base.results.iter().flatten())
        {
            assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
            for (xa, xb) in a.x.iter().zip(&b.x) {
                assert_eq!(xa.to_bits(), xb.to_bits());
            }
        }
        assert_eq!(report.shards.len(), 2);
    }

    #[test]
    fn root_shard_is_nic_free_and_nonroot_shards_pay() {
        let (tensors, starts) = workload(128, 16, 12);
        let cluster = Cluster::homogeneous(DeviceSpec::tesla_c2050(), 2, 1).unwrap();
        let (_, report) = cluster
            .launch(
                &tensors,
                &starts,
                IterationPolicy::Fixed(5),
                0.0,
                GpuVariant::Unrolled,
                SYNC,
            )
            .unwrap();
        assert_eq!(report.shards[0].nic_down_bytes, 0);
        assert_eq!(report.shards[0].nic_seconds, 0.0);
        assert!(report.shards[1].nic_down_bytes > 0);
        assert!(report.shards[1].nic_up_bytes > 0);
        assert!(report.shards[1].nic_seconds > 0.0);
        assert_eq!(
            report.nic_bytes,
            report.shards[1].nic_down_bytes + report.shards[1].nic_up_bytes
        );
    }

    #[test]
    fn communication_stays_near_the_lower_bound() {
        let (tensors, starts) = workload(4096, 8, 13);
        for hosts in [1usize, 2, 4, 8] {
            let cluster = Cluster::homogeneous(DeviceSpec::tesla_c2050(), hosts, 2).unwrap();
            let (_, report) = cluster
                .launch(
                    &tensors,
                    &starts,
                    IterationPolicy::Fixed(3),
                    0.0,
                    GpuVariant::Unrolled,
                    SYNC,
                )
                .unwrap();
            let ratio = report.comm_ratio();
            assert!(
                (0.9..8.0).contains(&ratio),
                "{hosts} hosts: ratio {ratio} (achieved {} vs bound {})",
                report.nic_bytes,
                report.comm_lower_bound_bytes
            );
        }
    }

    #[test]
    fn makespan_decreases_as_hosts_are_added() {
        let (tensors, starts) = workload(2048, 32, 14);
        let policy = IterationPolicy::Fixed(10);
        let mut last = f64::INFINITY;
        for hosts in [1usize, 2, 4] {
            let cluster = Cluster::homogeneous(DeviceSpec::tesla_c2050(), hosts, 2).unwrap();
            let (_, report) = cluster
                .launch(&tensors, &starts, policy, 0.0, GpuVariant::Unrolled, SYNC)
                .unwrap();
            assert!(
                report.seconds < last,
                "{hosts} hosts: {} not below {last}",
                report.seconds
            );
            last = report.seconds;
        }
    }

    #[test]
    fn one_host_has_zero_bound_and_unit_ratio() {
        let cluster = Cluster::homogeneous(DeviceSpec::tesla_c2050(), 1, 4).unwrap();
        assert_eq!(cluster.comm_lower_bound_bytes(1000, 16, 4, 3, 4), 0);
        let (tensors, starts) = workload(32, 8, 15);
        let (_, report) = cluster
            .launch(
                &tensors,
                &starts,
                IterationPolicy::Fixed(3),
                0.0,
                GpuVariant::Unrolled,
                SYNC,
            )
            .unwrap();
        assert_eq!(report.nic_bytes, 0);
        assert_eq!(report.comm_ratio(), 1.0);
    }

    #[test]
    fn pipelined_cluster_results_match_synchronous() {
        let (tensors, starts) = workload(300, 16, 16);
        let policy = IterationPolicy::Fixed(6);
        let cluster = Cluster::homogeneous(DeviceSpec::tesla_c2050(), 2, 2).unwrap();
        let (sync, _) = cluster
            .launch(&tensors, &starts, policy, 0.0, GpuVariant::Unrolled, SYNC)
            .unwrap();
        let (piped, _) = cluster
            .launch(
                &tensors,
                &starts,
                policy,
                0.0,
                GpuVariant::Unrolled,
                Schedule::pipelined(64, 2),
            )
            .unwrap();
        for (a, b) in piped
            .results
            .iter()
            .flatten()
            .zip(sync.results.iter().flatten())
        {
            assert_eq!(a.lambda.to_bits(), b.lambda.to_bits());
        }
    }

    #[test]
    fn empty_batch_is_an_error() {
        let cluster = Cluster::homogeneous(DeviceSpec::tesla_c2050(), 2, 1).unwrap();
        let none = TensorBatch::<f32>::new(4, 3).unwrap();
        let starts = vec![vec![1.0f32, 0.0, 0.0]];
        let err = cluster
            .launch(
                &none,
                &starts,
                IterationPolicy::Fixed(5),
                0.0,
                GpuVariant::General,
                SYNC,
            )
            .unwrap_err();
        assert_eq!(err, GpuError::EmptyBatch);
    }
}
