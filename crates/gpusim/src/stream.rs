//! CUDA-style streams, events, and a discrete-event timeline scheduler.
//!
//! Real Fermi-class hardware (the paper's Tesla C2050) executes work from
//! *streams*: per-stream FIFO queues of transfer and kernel operations
//! that the device resolves against its engines — **one copy engine**
//! (the C2050 has a single DMA engine serving both directions) and **one
//! compute engine**. Operations in one stream run in order; operations in
//! different streams may overlap wherever the engines allow, which is how
//! double-buffering hides PCIe transfers behind kernels.
//!
//! This module models exactly that. Callers enqueue [`Op`]s on
//! [`StreamId`]s obtained from a [`StreamQueue`]; nothing is timed at
//! enqueue. [`StreamQueue::synchronize`] then resolves the whole queue
//! with a deterministic list scheduler into a [`Timeline`] of
//! [`TimedOp`]s whose [`Timeline::makespan`] replaces the old serial
//! `transfer + compute` sum. The scheduler is *lazy* on purpose: resolving
//! ops eagerly at enqueue time would serialize each engine in global
//! enqueue order and destroy precisely the overlap streams exist to
//! expose.
//!
//! The functional half of the simulator is untouched: kernels still
//! execute (and produce bit-exact results) when they are enqueued; only
//! the *clock* is deferred to the scheduler.

use crate::multi::TransferModel;
use telemetry::Telemetry;

/// The two engines a Fermi-class device arbitrates streams over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The single DMA engine (host→device and device→host share it on a
    /// C2050; dual copy engines arrived with later Teslas).
    Copy,
    /// The kernel execution engine (the SM array as a whole).
    Compute,
}

/// One asynchronous operation enqueued on a stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Stage `bytes` host→device over the PCIe link (copy engine).
    HostToDevice {
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Run a kernel whose analytic estimate is `seconds` (compute engine).
    /// The estimate already includes the per-launch overhead, so chunked
    /// paths charge that overhead per chunk, exactly like real launches.
    Kernel {
        /// Modeled kernel duration in seconds.
        seconds: f64,
    },
    /// Return `bytes` device→host over the PCIe link (copy engine).
    DeviceToHost {
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Dead time on the compute engine: a watchdog timeout or a backoff
    /// wait before a retry. Faults cost seconds, never correctness.
    Stall {
        /// Stall duration in seconds.
        seconds: f64,
    },
}

impl Op {
    /// Which engine executes this op.
    pub fn engine(&self) -> Engine {
        match self {
            Op::HostToDevice { .. } | Op::DeviceToHost { .. } => Engine::Copy,
            Op::Kernel { .. } | Op::Stall { .. } => Engine::Compute,
        }
    }

    /// Trace name, static so it can flow into the telemetry trace buffer.
    pub fn name(&self) -> &'static str {
        match self {
            Op::HostToDevice { .. } => "gpu.h2d",
            Op::Kernel { .. } => "gpu.kernel",
            Op::DeviceToHost { .. } => "gpu.d2h",
            Op::Stall { .. } => "gpu.stall",
        }
    }

    /// Modeled duration in seconds over `link`.
    pub fn duration(&self, link: &TransferModel) -> f64 {
        match *self {
            Op::HostToDevice { bytes } | Op::DeviceToHost { bytes } => link.transfer_seconds(bytes),
            Op::Kernel { seconds } | Op::Stall { seconds } => seconds,
        }
    }
}

/// Handle to one stream in a [`StreamQueue`]. The index is global across
/// all devices and doubles as the trace row (`tid`) in exports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StreamId(usize);

impl StreamId {
    /// The queue-global stream index.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Handle to one enqueued op: its stream plus its position in it. Also
/// serves as a *mark* for scoped cancellation ([`StreamQueue::mark`] /
/// [`StreamQueue::cancel_from`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpId {
    stream: StreamId,
    index: usize,
}

impl OpId {
    /// The stream this op lives on.
    pub fn stream(&self) -> StreamId {
        self.stream
    }
}

/// A recorded synchronization point: completes when every op enqueued on
/// its stream *before* the record has completed (CUDA `cudaEventRecord`
/// semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventId {
    stream: StreamId,
    /// Ops on `stream` at record time; the event resolves when the first
    /// `up_to` ops of the stream have resolved.
    up_to: usize,
}

struct PendingOp {
    op: Op,
    /// Global enqueue sequence number — the deterministic tie-breaker.
    seq: usize,
    /// Events this op waits on before it may start.
    waits: Vec<EventId>,
    cancelled: bool,
}

struct StreamState {
    device: usize,
    ops: Vec<PendingOp>,
    /// Waits registered via [`StreamQueue::wait_event`], attached to the
    /// next op enqueued on this stream (CUDA `cudaStreamWaitEvent`
    /// semantics: all *subsequent* work waits).
    pending_waits: Vec<EventId>,
}

/// A queue of asynchronous ops across one or more devices, resolved into
/// a [`Timeline`] at [`synchronize`](StreamQueue::synchronize) time.
///
/// Per device there is one copy engine and one compute engine; streams on
/// the same device contend for them, streams on different devices never
/// do (distinct PCIe lanes, as on real multi-GPU boards).
pub struct StreamQueue {
    link: TransferModel,
    num_devices: usize,
    streams: Vec<StreamState>,
    next_seq: usize,
}

impl StreamQueue {
    /// A queue over `num_devices` devices sharing the `link` model.
    pub fn new(num_devices: usize, link: TransferModel) -> Self {
        Self {
            link,
            num_devices: num_devices.max(1),
            streams: Vec::new(),
            next_seq: 0,
        }
    }

    /// A queue over one cluster [`Host`](crate::topology::Host)'s
    /// devices, timing copies against that host's own PCIe link — each
    /// host in a sharded launch schedules on its own queue.
    pub fn for_host(host: &crate::topology::Host) -> Self {
        Self::new(host.num_devices(), host.pcie)
    }

    /// The interconnect model copies are timed against.
    pub fn link(&self) -> &TransferModel {
        &self.link
    }

    /// Create a stream on `device` (clamped into range) and return its
    /// handle.
    pub fn stream(&mut self, device: usize) -> StreamId {
        let id = StreamId(self.streams.len());
        self.streams.push(StreamState {
            device: device.min(self.num_devices - 1),
            ops: Vec::new(),
            pending_waits: Vec::new(),
        });
        id
    }

    /// Enqueue `op` on `stream`; returns immediately (nothing is timed
    /// until [`synchronize`](StreamQueue::synchronize)).
    pub fn enqueue(&mut self, stream: StreamId, op: Op) -> OpId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = &mut self.streams[stream.0];
        let waits = std::mem::take(&mut s.pending_waits);
        let index = s.ops.len();
        s.ops.push(PendingOp {
            op,
            seq,
            waits,
            cancelled: false,
        });
        OpId { stream, index }
    }

    /// Record an event on `stream`: it completes once everything enqueued
    /// on the stream so far has completed.
    pub fn record_event(&mut self, stream: StreamId) -> EventId {
        EventId {
            stream,
            up_to: self.streams[stream.0].ops.len(),
        }
    }

    /// Make all *future* work on `stream` wait for `event` (ops already
    /// enqueued are unaffected).
    pub fn wait_event(&mut self, stream: StreamId, event: EventId) {
        self.streams[stream.0].pending_waits.push(event);
    }

    /// A mark at the current tail of `stream`: ops enqueued from now on
    /// fall inside [`cancel_from`](StreamQueue::cancel_from) of this mark.
    pub fn mark(&self, stream: StreamId) -> OpId {
        OpId {
            stream,
            index: self.streams[stream.0].ops.len(),
        }
    }

    /// Cancel every op currently enqueued on `mark`'s stream at or after
    /// the mark. *Scoped* on purpose: a fault tears down one stream's
    /// in-flight work; other streams' pending ops (earlier successful
    /// chunks included) are untouched. Cancelled ops resolve instantly,
    /// consume no engine time, and are excluded from the timeline (only
    /// counted in [`Timeline::cancelled`]).
    pub fn cancel_from(&mut self, mark: OpId) {
        let s = &mut self.streams[mark.stream.0];
        for op in s.ops.iter_mut().skip(mark.index) {
            op.cancelled = true;
        }
    }

    /// Ops enqueued so far, across all streams.
    pub fn len(&self) -> usize {
        self.streams.iter().map(|s| s.ops.len()).sum()
    }

    /// True when nothing has been enqueued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolve the whole queue into an event timeline.
    ///
    /// List scheduling: repeatedly pick, among the head ops of all streams
    /// whose stream predecessors and waited events have resolved, the op
    /// with the earliest feasible start (`max(ready, engine free)` on its
    /// device's engine); ties break by earliest ready time, then lowest
    /// enqueue sequence number. This is deterministic and respects both
    /// FIFO order within streams and the per-device engine constraints.
    pub fn synchronize(self) -> Timeline {
        let num_streams = self.streams.len();
        let mut next = vec![0usize; num_streams];
        let mut op_end: Vec<Vec<f64>> = self
            .streams
            .iter()
            .map(|s| vec![0.0; s.ops.len()])
            .collect();
        let mut copy_free = vec![0.0f64; self.num_devices];
        let mut compute_free = vec![0.0f64; self.num_devices];
        let total: usize = self.streams.iter().map(|s| s.ops.len()).sum();
        let mut done = 0usize;
        let mut cancelled = 0usize;
        let mut ops: Vec<TimedOp> = Vec::with_capacity(total);

        while done < total {
            // Candidate = best (start, ready, seq) among ready stream heads.
            let mut best: Option<(f64, f64, usize, usize)> = None; // start, ready, seq, stream
            let mut progressed = false;
            for si in 0..num_streams {
                let i = next[si];
                let Some(p) = self.streams[si].ops.get(i) else {
                    continue;
                };
                let mut ready = if i == 0 { 0.0 } else { op_end[si][i - 1] };
                let mut waits_resolved = true;
                for ev in &p.waits {
                    let evs = ev.stream.0;
                    if next[evs] < ev.up_to {
                        waits_resolved = false;
                        break;
                    }
                    if ev.up_to > 0 {
                        ready = ready.max(op_end[evs][ev.up_to - 1]);
                    }
                }
                if !waits_resolved {
                    continue;
                }
                if p.cancelled {
                    // Resolves instantly at its ready time: no engine, no
                    // timeline entry.
                    op_end[si][i] = ready;
                    next[si] += 1;
                    done += 1;
                    cancelled += 1;
                    progressed = true;
                    continue;
                }
                let device = self.streams[si].device;
                let engine_free = match p.op.engine() {
                    Engine::Copy => copy_free[device],
                    Engine::Compute => compute_free[device],
                };
                let start = ready.max(engine_free);
                let cand = (start, ready, p.seq, si);
                let better = match best {
                    None => true,
                    Some(b) => (cand.0, cand.1, cand.2) < (b.0, b.1, b.2),
                };
                if better {
                    best = Some(cand);
                }
            }
            if progressed {
                continue;
            }
            let Some((start, _, _, si)) = best else {
                // Defensive: an event wait that can never resolve (only
                // possible through API misuse — recorded events always
                // cover already-enqueued ops, which makes the dependency
                // graph acyclic). Force progress on the lowest-sequence
                // head so synchronize always terminates.
                let forced = (0..num_streams)
                    .filter(|&si| next[si] < self.streams[si].ops.len())
                    .min_by_key(|&si| self.streams[si].ops[next[si]].seq);
                let Some(si) = forced else { break };
                let i = next[si];
                let ready = if i == 0 { 0.0 } else { op_end[si][i - 1] };
                op_end[si][i] = ready;
                next[si] += 1;
                done += 1;
                continue;
            };
            let i = next[si];
            let p = &self.streams[si].ops[i];
            let device = self.streams[si].device;
            let duration = p.op.duration(&self.link);
            let end = start + duration;
            match p.op.engine() {
                Engine::Copy => copy_free[device] = end,
                Engine::Compute => compute_free[device] = end,
            }
            op_end[si][i] = end;
            next[si] += 1;
            done += 1;
            ops.push(TimedOp {
                stream: StreamId(si),
                device,
                op: p.op,
                start_s: start,
                end_s: end,
            });
        }

        ops.sort_by(|a, b| {
            a.start_s
                .total_cmp(&b.start_s)
                .then(a.stream.0.cmp(&b.stream.0))
        });
        Timeline {
            ops,
            cancelled,
            num_streams,
        }
    }
}

/// One device's streams, dealt round-robin: the device's `k`-th chunk
/// runs on its stream `k mod S`, so consecutive chunks on a device
/// alternate streams and double-buffer. The chunked launch and the
/// resilient backend both deal chunks through this one rule.
#[derive(Debug, Clone)]
pub struct DeviceStreams {
    streams: Vec<StreamId>,
    dealt: usize,
}

impl DeviceStreams {
    /// Create `count` streams (at least one) on `device` of `queue`.
    pub fn new(queue: &mut StreamQueue, device: usize, count: usize) -> Self {
        Self {
            streams: (0..count.max(1)).map(|_| queue.stream(device)).collect(),
            dealt: 0,
        }
    }

    /// The stream the device's next chunk runs on.
    pub fn deal(&mut self) -> StreamId {
        let stream = self.streams[self.dealt % self.streams.len()];
        self.dealt += 1;
        stream
    }
}

/// One resolved op on the event timeline.
#[derive(Debug, Clone, Copy)]
pub struct TimedOp {
    /// The stream the op ran on.
    pub stream: StreamId,
    /// The device the op ran on.
    pub device: usize,
    /// The operation.
    pub op: Op,
    /// Modeled start time in seconds from queue epoch.
    pub start_s: f64,
    /// Modeled completion time in seconds from queue epoch.
    pub end_s: f64,
}

/// The resolved event timeline of a [`StreamQueue`]: every scheduled op
/// with its modeled start/end, sorted by start time.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Scheduled ops, sorted by `(start_s, stream)`.
    pub ops: Vec<TimedOp>,
    /// Ops cancelled before they ran (scoped fault teardown).
    pub cancelled: usize,
    /// Streams that existed in the queue.
    pub num_streams: usize,
}

impl Timeline {
    /// The modeled wall-clock: when the last op completes. This is what
    /// replaces the serial `transfer + compute` sum.
    pub fn makespan(&self) -> f64 {
        self.ops.iter().fold(0.0f64, |a, o| a.max(o.end_s))
    }

    /// What the same ops would cost fully serialized (the pre-stream
    /// model): the sum of every op's duration.
    pub fn serial_seconds(&self) -> f64 {
        self.ops.iter().map(|o| o.end_s - o.start_s).sum()
    }

    /// Seconds the schedule saved versus serial execution. Positive
    /// whenever transfers overlapped compute or devices ran concurrently.
    pub fn overlap_seconds(&self) -> f64 {
        (self.serial_seconds() - self.makespan()).max(0.0)
    }

    /// When `device` finishes its last op (0 if it ran nothing).
    pub fn device_busy_seconds(&self, device: usize) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.device == device)
            .fold(0.0f64, |a, o| a.max(o.end_s))
    }

    /// Copy-engine seconds charged on `device` (its PCIe time).
    pub fn copy_seconds(&self, device: usize) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.device == device && o.op.engine() == Engine::Copy)
            .map(|o| o.end_s - o.start_s)
            .sum()
    }

    /// Compute-engine seconds charged on `device` (kernels + stalls).
    pub fn compute_seconds(&self, device: usize) -> f64 {
        self.ops
            .iter()
            .filter(|o| o.device == device && o.op.engine() == Engine::Compute)
            .map(|o| o.end_s - o.start_s)
            .sum()
    }

    /// Human-readable one-paragraph summary for CLI / example output.
    pub fn summary(&self) -> String {
        let makespan = self.makespan();
        let serial = self.serial_seconds();
        let saved = self.overlap_seconds();
        let pct = if serial > 0.0 {
            100.0 * saved / serial
        } else {
            0.0
        };
        let copies = self
            .ops
            .iter()
            .filter(|o| o.op.engine() == Engine::Copy)
            .count();
        let kernels = self.ops.len() - copies;
        format!(
            "timeline: {} ops ({} copies, {} compute) on {} streams; \
             makespan {:.3} ms vs serial {:.3} ms (overlap saves {:.3} ms, {:.1}%){}",
            self.ops.len(),
            copies,
            kernels,
            self.num_streams,
            makespan * 1e3,
            serial * 1e3,
            saved * 1e3,
            pct,
            if self.cancelled > 0 {
                format!("; {} ops cancelled", self.cancelled)
            } else {
                String::new()
            }
        )
    }

    /// Export every op as a modeled span on `telemetry`, one trace row
    /// (`tid`) per stream, timestamps in modeled microseconds — the
    /// chrome://tracing exporter then renders transfer/compute overlap
    /// directly. Every op duration is also recorded as a histogram
    /// *observation* under the op's name (`gpu.kernel`, `gpu.h2d`, …), so
    /// pipelined-run latencies land in [`Telemetry::snapshot`] histograms
    /// (and thus `--metrics-out`) instead of only in the trace buffer.
    pub fn emit(&self, telemetry: &Telemetry) {
        if !telemetry.is_enabled() {
            return;
        }
        for o in &self.ops {
            let duration_s = o.end_s - o.start_s;
            telemetry.modeled_span(o.op.name(), o.stream.0, o.start_s * 1e6, duration_s * 1e6);
            telemetry.observe(o.op.name(), duration_s);
        }
    }

    /// Distribution of kernel-op durations — the per-chunk latency set of
    /// a chunked/pipelined run (each kernel launch covers one chunk).
    pub fn kernel_latencies(&self) -> telemetry::Histogram {
        let mut h = telemetry::Histogram::new();
        for o in &self.ops {
            if matches!(o.op, Op::Kernel { .. }) {
                h.observe(o.end_s - o.start_s);
            }
        }
        h
    }

    /// Distribution of per-stream busy windows (last end minus first
    /// start per stream that ran anything) — the per-stream latency set.
    pub fn stream_latencies(&self) -> telemetry::Histogram {
        let mut first = vec![f64::INFINITY; self.num_streams];
        let mut last = vec![f64::NEG_INFINITY; self.num_streams];
        for o in &self.ops {
            let si = o.stream.0;
            if si < self.num_streams {
                first[si] = first[si].min(o.start_s);
                last[si] = last[si].max(o.end_s);
            }
        }
        let mut h = telemetry::Histogram::new();
        for (f, l) in first.iter().zip(last.iter()) {
            if l >= f {
                h.observe(l - f);
            }
        }
        h
    }

    /// Distribution of per-device busy seconds (completion time of each
    /// device that ran at least one op) — the per-device latency set.
    pub fn device_latencies(&self) -> telemetry::Histogram {
        let mut devices: Vec<usize> = self.ops.iter().map(|o| o.device).collect();
        devices.sort_unstable();
        devices.dedup();
        let mut h = telemetry::Histogram::new();
        for d in devices {
            h.observe(self.device_busy_seconds(d));
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> TransferModel {
        TransferModel::pcie2()
    }

    #[test]
    fn single_stream_serializes_in_fifo_order() {
        let mut q = StreamQueue::new(1, link());
        let s = q.stream(0);
        q.enqueue(s, Op::HostToDevice { bytes: 6_000_000 });
        q.enqueue(s, Op::Kernel { seconds: 2e-3 });
        q.enqueue(s, Op::DeviceToHost { bytes: 12_000_000 });
        let t = q.synchronize();
        assert_eq!(t.ops.len(), 3);
        // FIFO: each op starts when the previous one ends.
        assert_eq!(t.ops[0].start_s, 0.0);
        assert_eq!(t.ops[1].start_s, t.ops[0].end_s);
        assert_eq!(t.ops[2].start_s, t.ops[1].end_s);
        // No overlap possible on one stream: makespan == serial sum.
        assert!((t.makespan() - t.serial_seconds()).abs() < 1e-15);
        // h2d = latency + bytes / bandwidth.
        let expect = 10e-6 + 6_000_000.0 / 6e9;
        assert!((t.ops[0].end_s - expect).abs() < 1e-12);
    }

    #[test]
    fn two_streams_overlap_copy_and_compute() {
        // Double buffering: while chunk 0 computes, chunk 1 uploads.
        let mut q = StreamQueue::new(1, link());
        let s0 = q.stream(0);
        let s1 = q.stream(0);
        for &s in &[s0, s1] {
            q.enqueue(s, Op::HostToDevice { bytes: 6_000_000 });
            q.enqueue(s, Op::Kernel { seconds: 2e-3 });
            q.enqueue(s, Op::DeviceToHost { bytes: 6_000_000 });
        }
        let t = q.synchronize();
        assert!(t.makespan() < t.serial_seconds());
        assert!(t.overlap_seconds() > 0.0);
        // s1's upload starts while s0's kernel is still running.
        let s1_h2d = t
            .ops
            .iter()
            .find(|o| o.stream == s1 && o.op.engine() == Engine::Copy)
            .unwrap();
        let s0_kernel = t
            .ops
            .iter()
            .find(|o| o.stream == s0 && matches!(o.op, Op::Kernel { .. }))
            .unwrap();
        assert!(s1_h2d.start_s < s0_kernel.end_s);
    }

    #[test]
    fn one_copy_engine_serializes_transfers() {
        // Two streams, copies only: the single DMA engine forces them to
        // run back to back even though the streams are independent.
        let mut q = StreamQueue::new(1, link());
        let s0 = q.stream(0);
        let s1 = q.stream(0);
        q.enqueue(s0, Op::HostToDevice { bytes: 6_000_000 });
        q.enqueue(s1, Op::HostToDevice { bytes: 6_000_000 });
        let t = q.synchronize();
        assert!((t.makespan() - t.serial_seconds()).abs() < 1e-15);
        assert_eq!(t.ops[1].start_s, t.ops[0].end_s);
    }

    #[test]
    fn distinct_devices_do_not_contend() {
        let mut q = StreamQueue::new(2, link());
        let s0 = q.stream(0);
        let s1 = q.stream(1);
        q.enqueue(s0, Op::Kernel { seconds: 1e-3 });
        q.enqueue(s1, Op::Kernel { seconds: 1e-3 });
        let t = q.synchronize();
        assert_eq!(t.ops[0].start_s, 0.0);
        assert_eq!(t.ops[1].start_s, 0.0);
        assert!((t.makespan() - 1e-3).abs() < 1e-15);
    }

    #[test]
    fn events_order_work_across_streams() {
        let mut q = StreamQueue::new(1, link());
        let s0 = q.stream(0);
        let s1 = q.stream(0);
        q.enqueue(s0, Op::Kernel { seconds: 5e-3 });
        let ev = q.record_event(s0);
        q.wait_event(s1, ev);
        q.enqueue(s1, Op::Kernel { seconds: 1e-3 });
        let t = q.synchronize();
        let dep = t.ops.iter().find(|o| o.stream == s1).unwrap();
        assert!((dep.start_s - 5e-3).abs() < 1e-15, "{dep:?}");
    }

    #[test]
    fn cancel_from_is_scoped_to_one_streams_tail() {
        let mut q = StreamQueue::new(1, link());
        let s0 = q.stream(0);
        let s1 = q.stream(0);
        q.enqueue(s0, Op::Kernel { seconds: 1e-3 });
        let mark = q.mark(s1);
        q.enqueue(s1, Op::HostToDevice { bytes: 1_000_000 });
        q.enqueue(s1, Op::Kernel { seconds: 1e-3 });
        q.cancel_from(mark);
        // Work enqueued after the cancellation runs normally.
        q.enqueue(s1, Op::Stall { seconds: 2.0 });
        let t = q.synchronize();
        assert_eq!(t.cancelled, 2);
        assert_eq!(t.ops.len(), 2, "{:?}", t.ops);
        assert!(t
            .ops
            .iter()
            .all(|o| o.stream == s0 || matches!(o.op, Op::Stall { .. })));
        // s0's op was untouched by s1's teardown.
        assert!(t.ops.iter().any(|o| o.stream == s0));
    }

    #[test]
    fn empty_queue_synchronizes_to_an_empty_timeline() {
        let q = StreamQueue::new(1, link());
        assert!(q.is_empty());
        let t = q.synchronize();
        assert_eq!(t.ops.len(), 0);
        assert_eq!(t.makespan(), 0.0);
        assert_eq!(t.serial_seconds(), 0.0);
        assert!(t.summary().contains("0 ops"));
    }

    #[test]
    fn summary_and_accessors_are_consistent() {
        let mut q = StreamQueue::new(1, link());
        let s = q.stream(0);
        q.enqueue(s, Op::HostToDevice { bytes: 1_000_000 });
        q.enqueue(s, Op::Kernel { seconds: 1e-3 });
        let t = q.synchronize();
        assert!((t.copy_seconds(0) + t.compute_seconds(0) - t.serial_seconds()).abs() < 1e-15);
        assert_eq!(t.device_busy_seconds(0), t.makespan());
        assert_eq!(t.device_busy_seconds(7), 0.0);
        let s = t.summary();
        assert!(s.contains("2 ops"), "{s}");
        assert!(s.contains("1 copies, 1 compute"), "{s}");
    }

    #[test]
    fn emit_exports_one_trace_row_per_stream() {
        let mut q = StreamQueue::new(1, link());
        let s0 = q.stream(0);
        let s1 = q.stream(0);
        q.enqueue(s0, Op::Kernel { seconds: 1e-3 });
        q.enqueue(s1, Op::Kernel { seconds: 1e-3 });
        let t = q.synchronize();
        let tel = Telemetry::enabled();
        t.emit(&tel);
        let snap = tel.snapshot();
        assert_eq!(snap.trace_events, 2);
        let json = tel.chrome_trace_json();
        assert!(json.contains("gpu.kernel"), "{json}");
        t.emit(&Telemetry::disabled()); // no-op, no panic
    }

    #[test]
    fn emit_records_histogram_observations() {
        // Regression: op durations must land in snapshot histograms (the
        // --metrics-out path), not only in the trace buffer.
        let mut q = StreamQueue::new(1, link());
        let s = q.stream(0);
        q.enqueue(s, Op::HostToDevice { bytes: 1_000_000 });
        q.enqueue(s, Op::Kernel { seconds: 1e-3 });
        q.enqueue(s, Op::Kernel { seconds: 2e-3 });
        let t = q.synchronize();
        let tel = Telemetry::enabled();
        t.emit(&tel);
        let snap = tel.snapshot();
        let kernels = snap.histogram("gpu.kernel").unwrap();
        assert_eq!(kernels.count, 2);
        assert!((kernels.sum - 3e-3).abs() < 1e-12);
        assert!(kernels.p50() > 0.0);
        assert!(snap.histogram("gpu.h2d").is_some());
    }

    #[test]
    fn latency_histograms_cover_kernels_streams_devices() {
        let mut q = StreamQueue::new(2, link());
        let s0 = q.stream(0);
        let s1 = q.stream(1);
        q.enqueue(s0, Op::Kernel { seconds: 1e-3 });
        q.enqueue(s0, Op::Kernel { seconds: 3e-3 });
        q.enqueue(s1, Op::Kernel { seconds: 2e-3 });
        let t = q.synchronize();
        let kernels = t.kernel_latencies();
        assert_eq!(kernels.count(), 3);
        assert!((kernels.sum() - 6e-3).abs() < 1e-12);
        let streams = t.stream_latencies();
        assert_eq!(streams.count(), 2);
        assert!((streams.max() - 4e-3).abs() < 1e-12);
        let devices = t.device_latencies();
        assert_eq!(devices.count(), 2);
        // An empty timeline yields empty (not panicking) histograms.
        let empty = Timeline::default();
        assert!(empty.kernel_latencies().is_empty());
        assert!(empty.stream_latencies().is_empty());
        assert!(empty.device_latencies().is_empty());
    }
}
