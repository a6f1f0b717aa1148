//! Property tests for the stream/event scheduler: invariants the event
//! timeline must satisfy for *every* op mix and enqueue interleaving, and
//! bitwise parity between pipelined and synchronous execution.

use gpusim::{
    launch_sshopm, Cluster, DeviceSpec, Engine, Op, Schedule, StreamQueue, Timeline, TransferModel,
};
use proptest::prelude::*;
use sshopm::starts::random_uniform_starts;
use sshopm::IterationPolicy;
use symtensor::TensorBatch;

/// An op drawn from the same space the launch path enqueues.
fn arb_op() -> impl Strategy<Value = Op> {
    (0usize..4, 1u64..64_000_000, 1e-6..5e-3f64).prop_map(|(kind, bytes, seconds)| match kind {
        0 => Op::HostToDevice { bytes },
        1 => Op::DeviceToHost { bytes },
        2 => Op::Kernel { seconds },
        _ => Op::Stall { seconds },
    })
}

/// An arbitrary enqueue interleaving: each element is (stream slot, op),
/// applied in order, so streams fill in arbitrary relative order.
fn arb_schedule(streams: usize, max_ops: usize) -> impl Strategy<Value = Vec<(usize, Op)>> {
    proptest::collection::vec((0..streams, arb_op()), 1..max_ops)
}

fn build(num_devices: usize, streams_per_device: usize, plan: &[(usize, Op)]) -> Timeline {
    let mut q = StreamQueue::new(num_devices, TransferModel::pcie2());
    let ids: Vec<_> = (0..num_devices * streams_per_device)
        .map(|i| q.stream(i % num_devices))
        .collect();
    for &(slot, op) in plan {
        q.enqueue(ids[slot % ids.len()], op);
    }
    q.synchronize()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The makespan can never beat the longest single op, and can never
    /// lose to full serialization.
    #[test]
    fn makespan_is_bounded_by_longest_op_and_serial_sum(
        plan in arb_schedule(4, 24),
        devices in 1usize..3,
    ) {
        let t = build(devices, 2, &plan);
        let link = TransferModel::pcie2();
        let longest = plan
            .iter()
            .map(|(_, op)| op.duration(&link))
            .fold(0.0f64, f64::max);
        prop_assert!(t.makespan() >= longest - 1e-15,
            "makespan {} < longest op {}", t.makespan(), longest);
        prop_assert!(t.makespan() <= t.serial_seconds() + 1e-12,
            "makespan {} > serial {}", t.makespan(), t.serial_seconds());
        prop_assert!((t.overlap_seconds() - (t.serial_seconds() - t.makespan())).abs() < 1e-12);
    }

    /// FIFO order within each stream survives any cross-stream
    /// interleaving: an op never starts before its stream predecessor ends.
    #[test]
    fn dependency_order_is_preserved_within_streams(
        plan in arb_schedule(5, 32),
    ) {
        let t = build(2, 2, &plan);
        // Reconstruct each stream's ops in schedule order.
        for stream in 0..t.num_streams {
            let mut prev_end = 0.0f64;
            let mut ops: Vec<_> = t.ops.iter().filter(|o| o.stream.index() == stream).collect();
            ops.sort_by(|a, b| a.start_s.total_cmp(&b.start_s));
            for o in ops {
                prop_assert!(o.start_s >= prev_end - 1e-15,
                    "stream {stream}: op at {} starts before predecessor end {}",
                    o.start_s, prev_end);
                prev_end = prev_end.max(o.end_s);
            }
        }
    }

    /// Engine exclusivity: on any one device, two copy ops (or two compute
    /// ops) never overlap in time — one DMA engine, one SM array.
    #[test]
    fn engines_are_exclusive_per_device(
        plan in arb_schedule(4, 24),
        devices in 1usize..3,
    ) {
        let t = build(devices, 2, &plan);
        for device in 0..devices {
            for engine in [Engine::Copy, Engine::Compute] {
                let mut spans: Vec<(f64, f64)> = t
                    .ops
                    .iter()
                    .filter(|o| o.device == device && o.op.engine() == engine)
                    .map(|o| (o.start_s, o.end_s))
                    .collect();
                spans.sort_by(|a, b| a.0.total_cmp(&b.0));
                for w in spans.windows(2) {
                    prop_assert!(w[1].0 >= w[0].1 - 1e-15,
                        "{engine:?} on device {device}: {:?} overlaps {:?}", w[0], w[1]);
                }
            }
        }
    }

    /// Events serialize across streams: work gated on a recorded event
    /// starts no earlier than the event's covered ops finish.
    #[test]
    fn recorded_events_gate_cross_stream_work(
        head in proptest::collection::vec(arb_op(), 1..6),
        tail in arb_op(),
    ) {
        let mut q = StreamQueue::new(1, TransferModel::pcie2());
        let producer = q.stream(0);
        let consumer = q.stream(0);
        for &op in &head {
            q.enqueue(producer, op);
        }
        let ev = q.record_event(producer);
        q.wait_event(consumer, ev);
        q.enqueue(consumer, tail);
        let t = q.synchronize();
        let producer_done = t
            .ops
            .iter()
            .filter(|o| o.stream == producer)
            .fold(0.0f64, |a, o| a.max(o.end_s));
        let gated = t.ops.iter().find(|o| o.stream == consumer).unwrap();
        prop_assert!(gated.start_s >= producer_done - 1e-15,
            "gated op starts {} before producer finished {}", gated.start_s, producer_done);
    }

    /// The pipelined launch path produces bitwise-identical eigenpairs to
    /// the synchronous one for arbitrary chunkings and stream counts —
    /// chunking changes the clock, never the arithmetic.
    #[test]
    fn pipelined_execution_is_bitwise_equal_to_synchronous(
        tensors in 1usize..40,
        chunk in 1usize..16,
        streams in 1usize..4,
        seed in 0u64..500,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = TensorBatch::<f32>::random(4, 3, tensors, &mut rng).unwrap();
        let starts = random_uniform_starts(3, 4, &mut rng);
        let policy = IterationPolicy::Fixed(4);
        let device = DeviceSpec::tesla_c2050();

        let (sync, _) = launch_sshopm(
            &device, &batch, &starts, policy, 0.0, gpusim::GpuVariant::General).unwrap();
        let mg = Cluster::single_host(vec![device], TransferModel::pcie2()).unwrap();
        let (piped, report) = mg.launch(
            &batch, &starts, policy, 0.0, gpusim::GpuVariant::General,
            Schedule::pipelined(chunk, streams)).unwrap();
        let report = &report.shards[0];

        for (srow, prow) in sync.results.iter().zip(&piped.results) {
            for (s, p) in srow.iter().zip(prow) {
                prop_assert_eq!(s.lambda.to_bits(), p.lambda.to_bits());
                for (sx, px) in s.x.iter().zip(&p.x) {
                    prop_assert_eq!(sx.to_bits(), px.to_bits());
                }
            }
        }
        // The timeline carries one h2d + kernel + d2h triple per chunk.
        let chunks = tensors.div_ceil(chunk);
        prop_assert_eq!(report.timeline.ops.len(), 3 * chunks);
    }
}
