//! Host↔device transfer accounting: the link model every copy is timed
//! against and the bytes a batched launch moves.
//!
//! Section V-B of the paper: "for larger numbers of tensors, this approach
//! generalizes to a system with multiple GPUs" — the tensors are
//! independent, so the batch splits across devices with no communication
//! ([`crate::Cluster::launch`], a multi-GPU board being the one-host
//! cluster). This module models the piece the paper's timings exclude:
//! moving the tensors to the device and the eigenpairs back over PCIe.

use symtensor::multinomial::num_unique_entries;

/// Host↔device interconnect model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    /// Sustained bandwidth in GB/s (PCIe 2.0 x16 ≈ 6 GB/s effective, the
    /// C2050's bus; PCIe 3.0 x16 ≈ 12).
    pub bandwidth_gbs: f64,
    /// Fixed per-transfer latency in seconds (DMA setup + driver).
    pub latency_s: f64,
}

impl TransferModel {
    /// The Tesla C2050's PCIe 2.0 x16 link.
    pub fn pcie2() -> Self {
        Self {
            bandwidth_gbs: 6.0,
            latency_s: 10e-6,
        }
    }

    /// A QDR-InfiniBand-class NIC (the cluster interconnect of the
    /// paper's era): ~4 GB/s sustained, microsecond-scale latency. The
    /// default inter-host link of [`crate::topology::Host`].
    pub fn qdr_infiniband() -> Self {
        Self {
            bandwidth_gbs: 4.0,
            latency_s: 2e-6,
        }
    }

    /// Time to move `bytes` in one transfer.
    pub fn transfer_seconds(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / (self.bandwidth_gbs * 1e9)
    }
}

/// One launch's host↔device staging: how many DMA operations it takes and
/// the bytes they move. Because the batch lives in a single contiguous
/// arena ([`symtensor::TensorBatch`]), the tensor payload goes down in ONE
/// coalesced copy; a `Vec<SymTensor>` layout would pay
/// [`TransferModel::latency_s`] once per tensor instead. This is the
/// memory-layout point of the paper's Section V: the device wants one flat,
/// densely packed buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostTransfer {
    /// Bytes staged host→device: the packed tensor arena plus the shared
    /// starting vectors.
    pub down_bytes: u64,
    /// Bytes returned device→host: one packed `(x, λ)` record per solve.
    pub up_bytes: u64,
    /// DMA operations host→device (1 for an arena-backed batch).
    pub down_copies: u64,
    /// DMA operations device→host (1: results are written packed).
    pub up_copies: u64,
}

impl HostTransfer {
    /// Total bytes both ways.
    pub fn total_bytes(&self) -> u64 {
        self.down_bytes + self.up_bytes
    }
}

/// Bytes shipped for a batched problem: tensors + shared starts down,
/// eigenpairs (vector + value per thread) back. `elem` is the scalar size.
pub fn problem_traffic_bytes(
    num_tensors: usize,
    num_starts: usize,
    m: usize,
    n: usize,
    elem: usize,
) -> (u64, u64) {
    let u = num_unique_entries(m, n);
    let down = (num_tensors as u64 * u + (num_starts * n) as u64) * elem as u64;
    let up = (num_tensors * num_starts) as u64 * (n as u64 + 1) * elem as u64;
    (down, up)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::error::GpuError;
    use crate::kernel::{launch_sshopm, GpuVariant};
    use crate::topology::{Cluster, Host, Schedule};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sshopm::starts::random_uniform_starts;
    use sshopm::IterationPolicy;
    use symtensor::TensorBatch;

    const SYNC: Schedule = Schedule::SYNCHRONOUS;

    /// `count` devices on one board: the one-host cluster.
    fn board(count: usize) -> Cluster {
        Cluster::single_host(
            vec![DeviceSpec::tesla_c2050(); count],
            TransferModel::pcie2(),
        )
        .unwrap()
    }

    fn workload(t: usize, v: usize, seed: u64) -> (TensorBatch<f32>, Vec<Vec<f32>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let tensors = TensorBatch::random(4, 3, t, &mut rng).unwrap();
        let starts = random_uniform_starts(3, v, &mut rng);
        (tensors, starts)
    }

    #[test]
    fn split_is_exact_and_proportional() {
        let mg = Host::homogeneous(DeviceSpec::tesla_c2050(), 4).unwrap();
        let counts = mg.split(1024);
        assert_eq!(counts.iter().sum::<usize>(), 1024);
        assert_eq!(counts, vec![256; 4]);
    }

    #[test]
    fn heterogeneous_split_favors_faster_device() {
        let mg = Host::new(
            vec![DeviceSpec::tesla_c2050(), DeviceSpec::tesla_c1060()],
            TransferModel::pcie2(),
            TransferModel::qdr_infiniband(),
        )
        .unwrap();
        let counts = mg.split(100);
        assert_eq!(counts.iter().sum::<usize>(), 100);
        assert!(counts[0] > counts[1], "{counts:?}");
    }

    #[test]
    fn multi_gpu_results_match_single_gpu() {
        let (tensors, starts) = workload(16, 32, 1);
        let policy = IterationPolicy::Fixed(10);
        let single = DeviceSpec::tesla_c2050();
        let (base, _) = launch_sshopm(
            &single,
            &tensors,
            &starts,
            policy,
            0.0,
            GpuVariant::Unrolled,
        )
        .unwrap();
        let mg = board(4);
        let (multi, report) = mg
            .launch(&tensors, &starts, policy, 0.0, GpuVariant::Unrolled, SYNC)
            .unwrap();
        let report = &report.shards[0];
        assert_eq!(multi.results.len(), 16);
        for t in 0..16 {
            for v in 0..32 {
                assert_eq!(multi.results[t][v].lambda, base.results[t][v].lambda);
            }
        }
        assert_eq!(report.slices.len(), 4);
    }

    #[test]
    fn two_gpus_are_faster_than_one_at_scale() {
        let (tensors, starts) = workload(512, 128, 2);
        let policy = IterationPolicy::Fixed(20);
        let one = board(1);
        let two = board(2);
        let (_, r1) = one
            .launch(&tensors, &starts, policy, 0.0, GpuVariant::Unrolled, SYNC)
            .unwrap();
        let (_, r2) = two
            .launch(&tensors, &starts, policy, 0.0, GpuVariant::Unrolled, SYNC)
            .unwrap();
        let speedup = r1.seconds / r2.seconds;
        assert!(
            speedup > 1.5,
            "2 GPUs should approach 2x at 512 tensors, got {speedup:.2}"
        );
    }

    #[test]
    fn tiny_batches_do_not_benefit_from_more_gpus() {
        let (tensors, starts) = workload(2, 32, 3);
        let policy = IterationPolicy::Fixed(5);
        let one = board(1);
        let four = board(4);
        let (_, r1) = one
            .launch(&tensors, &starts, policy, 0.0, GpuVariant::Unrolled, SYNC)
            .unwrap();
        let (_, r4) = four
            .launch(&tensors, &starts, policy, 0.0, GpuVariant::Unrolled, SYNC)
            .unwrap();
        // Fixed transfer latency and launch overhead dominate; no big win.
        assert!(
            r4.seconds > r1.seconds * 0.4,
            "{} vs {}",
            r4.seconds,
            r1.seconds
        );
    }

    #[test]
    fn transfer_traffic_accounting() {
        // 8 tensors (15 entries) + 32 starts of 3 floats down; 8*32 pairs
        // of (3+1) floats up. f32 = 4 bytes.
        let (down, up) = problem_traffic_bytes(8, 32, 4, 3, 4);
        assert_eq!(down, (8 * 15 + 32 * 3) * 4);
        assert_eq!(up, 8 * 32 * 4 * 4);
        let tm = TransferModel::pcie2();
        let t = tm.transfer_seconds(down);
        assert!(t > tm.latency_s);
        assert!(t < tm.latency_s + 1e-5);
    }

    #[test]
    fn transfer_share_is_bounded_and_dominated_by_results() {
        // Result traffic scales with tensors x starts — the same scaling as
        // the compute — so the transfer share tends to a *constant*
        // fraction rather than vanishing; the model must keep it modest
        // (kernel-bound overall) and attribute most bytes to the upload of
        // results, not the tensor download.
        let policy = IterationPolicy::Fixed(20);
        let mg = board(1);
        for t in [64usize, 1024] {
            let (tensors, starts) = workload(t, 128, 4);
            let (_, report) = mg
                .launch(&tensors, &starts, policy, 0.0, GpuVariant::Unrolled, SYNC)
                .unwrap();
            let report = &report.shards[0];
            let slice = &report.slices[0];
            let share = slice.transfer_seconds / slice.total_seconds;
            assert!(share < 0.5, "T={t}: transfer share {share:.3}");
            let (down, up) = problem_traffic_bytes(t, 128, 4, 3, 4);
            assert!(up > 5 * down, "T={t}: results dominate traffic");
        }
    }

    /// Regression pin (satellite): the pipeline refactor must not shift
    /// the Table II/III baselines by silently retuning the link model.
    #[test]
    fn pcie2_constants_are_pinned() {
        let tm = TransferModel::pcie2();
        assert_eq!(tm.bandwidth_gbs, 6.0);
        assert_eq!(tm.latency_s, 10e-6);
        assert_eq!(tm.transfer_seconds(0), 10e-6);
        // 6 GB at 6 GB/s: one second plus the DMA setup.
        assert!((tm.transfer_seconds(6_000_000_000) - (1.0 + 10e-6)).abs() < 1e-12);
    }

    /// The stream scheduler must reproduce the old serial
    /// `transfer + compute` sum exactly when there is nothing to overlap:
    /// one stream per device means upload → kernel → download back to
    /// back, so the makespan equals kernel seconds plus both copies.
    #[test]
    fn synchronous_timeline_equals_serial_transfer_plus_compute() {
        let (tensors, starts) = workload(64, 32, 21);
        let mg = board(1);
        let (_, report) = mg
            .launch(
                &tensors,
                &starts,
                IterationPolicy::Fixed(10),
                0.0,
                GpuVariant::Unrolled,
                SYNC,
            )
            .unwrap();
        let report = &report.shards[0];
        assert_eq!(report.timeline.ops.len(), 3);
        let slice = &report.slices[0];
        let ht = slice.report.host_transfer;
        let tm = TransferModel::pcie2();
        let serial = slice.report.timing.seconds
            + tm.transfer_seconds(ht.down_bytes)
            + tm.transfer_seconds(ht.up_bytes);
        assert!(
            (report.seconds - serial).abs() < 1e-12,
            "makespan {} vs serial {}",
            report.seconds,
            serial
        );
        assert_eq!(slice.total_seconds, report.seconds);
        assert!(
            (slice.transfer_seconds
                - (tm.transfer_seconds(ht.down_bytes) + tm.transfer_seconds(ht.up_bytes)))
            .abs()
                < 1e-15
        );
    }

    #[test]
    fn pipelined_results_are_bitwise_identical_to_synchronous() {
        let (tensors, starts) = workload(300, 32, 22);
        let policy = IterationPolicy::Fixed(8);
        let mg = board(2);
        let (sync, _) = mg
            .launch(&tensors, &starts, policy, 0.0, GpuVariant::Unrolled, SYNC)
            .unwrap();
        let (piped, report) = mg
            .launch(
                &tensors,
                &starts,
                policy,
                0.0,
                GpuVariant::Unrolled,
                Schedule::pipelined(64, 2),
            )
            .unwrap();
        assert_eq!(piped.results.len(), sync.results.len());
        for (t, (a, b)) in piped.results.iter().zip(&sync.results).enumerate() {
            for (v, (pa, pb)) in a.iter().zip(b).enumerate() {
                assert_eq!(pa.lambda.to_bits(), pb.lambda.to_bits(), "t{t} v{v}");
                for (xa, xb) in pa.x.iter().zip(&pb.x) {
                    assert_eq!(xa.to_bits(), xb.to_bits(), "t{t} v{v}");
                }
            }
        }
        // Both devices split the work and chunked it: 150 tensors / 64 →
        // 3 chunks each, 3 ops per chunk.
        assert_eq!(report.shards[0].timeline.ops.len(), 2 * 3 * 3);
    }

    /// Regression pin (satellite): chunked paths charge the launch
    /// overhead per *chunk*, not per batch — each chunk's kernel estimate
    /// carries its own `LAUNCH_OVERHEAD_S`.
    #[test]
    fn pipelined_charges_launch_overhead_per_chunk() {
        use crate::timing::LAUNCH_OVERHEAD_S;
        let (tensors, starts) = workload(512, 32, 23);
        let policy = IterationPolicy::Fixed(5);
        let mg = board(1);
        let (_, sync) = mg
            .launch(&tensors, &starts, policy, 0.0, GpuVariant::Unrolled, SYNC)
            .unwrap();
        let (_, piped) = mg
            .launch(
                &tensors,
                &starts,
                policy,
                0.0,
                GpuVariant::Unrolled,
                Schedule::pipelined(128, 1),
            )
            .unwrap();
        let (sync, piped) = (&sync.shards[0], &piped.shards[0]);
        // 4 chunks: 3 more launch overheads than the single launch.
        let extra = piped.slices[0].report.timing.seconds - sync.slices[0].report.timing.seconds;
        assert!(
            extra >= 3.0 * LAUNCH_OVERHEAD_S * 0.999,
            "per-chunk overhead missing: extra kernel time {extra:e}"
        );
    }

    #[test]
    fn double_buffering_beats_synchronous_at_scale() {
        // Enough result traffic that hiding downloads behind kernels pays
        // for the extra per-chunk launch overheads.
        let (tensors, starts) = workload(2048, 64, 24);
        let policy = IterationPolicy::Fixed(5);
        let mg = board(1);
        let (_, sync) = mg
            .launch(&tensors, &starts, policy, 0.0, GpuVariant::Unrolled, SYNC)
            .unwrap();
        let (_, piped) = mg
            .launch(
                &tensors,
                &starts,
                policy,
                0.0,
                GpuVariant::Unrolled,
                Schedule::pipelined(256, 2),
            )
            .unwrap();
        let (sync, piped) = (&sync.shards[0], &piped.shards[0]);
        assert!(
            piped.seconds < sync.seconds,
            "pipelined {} >= synchronous {}",
            piped.seconds,
            sync.seconds
        );
        assert!(piped.timeline.overlap_seconds() > 0.0);
    }

    #[test]
    fn empty_device_list_is_an_error_not_a_panic() {
        let err = Cluster::single_host(vec![], TransferModel::pcie2()).unwrap_err();
        assert_eq!(err, GpuError::EmptyDeviceList);
        let zero_c2050s = (0..0).map(|_| DeviceSpec::tesla_c2050()).collect();
        let err = Cluster::single_host(zero_c2050s, TransferModel::pcie2()).unwrap_err();
        assert_eq!(err, GpuError::EmptyDeviceList);
    }

    #[test]
    fn empty_batch_is_an_error_not_a_panic() {
        let mg = board(2);
        let none = TensorBatch::<f32>::new(4, 3).unwrap();
        let starts = vec![vec![1.0f32, 0.0, 0.0]];
        let err = mg
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
