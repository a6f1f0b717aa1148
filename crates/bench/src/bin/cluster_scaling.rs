//! Strong-scaling sweep for the sharded cluster backend: one fixed
//! 1M-tensor workload run on 1, 2, 4 and 8 hosts (two Tesla C2050s
//! each, PCIe 2.0 inside the host, a QDR-InfiniBand-class NIC between
//! hosts), reporting modeled makespan, achieved NIC traffic and the
//! ratio against the Al Daas et al. communication lower bound.
//!
//! Two acceptance properties ride on this sweep (asserted at the end):
//! the makespan must decrease monotonically from 1 to 4 hosts (the NIC
//! cost must not swamp the compute win at small scale), and the achieved
//! NIC traffic must stay within 8x of the lower bound at every scale.
//!
//! Run with: `cargo run --release -p bench --bin cluster_scaling`

use backend::{BackendSpec, DeviceKind, KernelStrategy, SolveBackend};
use bench::{bench_metadata, write_bench_json};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use sshopm::{starts, IterationPolicy, Shift, SsHopm};
use symtensor::TensorBatch;
use telemetry::Telemetry;

const M: usize = 4;
const N: usize = 3;
const TENSORS: usize = 1_000_000;
const STARTS: usize = 4;
const ITERS: usize = 3;
const DEVICES_PER_HOST: usize = 2;
const STREAMS: usize = 2;
const HOST_COUNTS: [usize; 4] = [1, 2, 4, 8];

struct Run {
    hosts: usize,
    makespan_s: f64,
    gflops: f64,
    nic_bytes: u64,
    lower_bound_bytes: u64,
    ratio: f64,
}

fn run(batch: &TensorBatch<f32>, start_vecs: &[Vec<f32>], hosts: usize) -> Run {
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(ITERS));
    let spec = BackendSpec::Cluster {
        device: DeviceKind::TeslaC2050,
        hosts,
        devices: DEVICES_PER_HOST,
        streams: STREAMS,
    };
    let backend = spec
        .build_gpusim(KernelStrategy::Unrolled)
        .expect("host counts are nonzero");
    let report = backend
        .solve_batch(batch, start_vecs, &solver, &Telemetry::disabled())
        .expect("bench workload is well-formed");
    Run {
        hosts,
        makespan_s: report.seconds,
        gflops: report.useful_flops as f64 / report.seconds / 1e9,
        nic_bytes: report.comm.nic_bytes,
        lower_bound_bytes: report.comm.lower_bound_bytes,
        ratio: report.comm.ratio,
    }
}

fn main() {
    println!(
        "Cluster strong scaling: {TENSORS} tensors (m={M}, n={N}), {STARTS} starts, \
         {ITERS} fixed iterations, f32\n\
         ({DEVICES_PER_HOST}x Tesla C2050 per host, {STREAMS} streams/device, PCIe 2.0 \
         intra-host, QDR InfiniBand inter-host)\n"
    );
    println!(
        "{:>6} {:>8} {:>13} {:>9} {:>14} {:>14} {:>7}",
        "hosts", "devices", "makespan (s)", "GFLOP/s", "NIC (MiB)", "bound (MiB)", "ratio"
    );

    let mut rng = StdRng::seed_from_u64(2026);
    let batch = TensorBatch::<f32>::random(M, N, TENSORS, &mut rng).expect("paper shape is valid");
    let start_vecs = starts::random_uniform_starts::<f32, _>(N, STARTS, &mut rng);

    // The model is deterministic: one run per host count is the
    // measurement.
    let runs: Vec<Run> = HOST_COUNTS
        .iter()
        .map(|&hosts| {
            let r = run(&batch, &start_vecs, hosts);
            println!(
                "{:>6} {:>8} {:>13.4} {:>9.2} {:>14.2} {:>14.2} {:>6.2}x",
                r.hosts,
                r.hosts * DEVICES_PER_HOST,
                r.makespan_s,
                r.gflops,
                r.nic_bytes as f64 / (1024.0 * 1024.0),
                r.lower_bound_bytes as f64 / (1024.0 * 1024.0),
                r.ratio,
            );
            r
        })
        .collect();

    write_bench_json(
        "cluster",
        &Value::object(vec![
            ("meta", bench_metadata("cluster_scaling")),
            (
                "config",
                Value::object(vec![
                    ("m", Value::UInt(M as u64)),
                    ("n", Value::UInt(N as u64)),
                    ("tensors", Value::UInt(TENSORS as u64)),
                    ("starts", Value::UInt(STARTS as u64)),
                    ("iters", Value::UInt(ITERS as u64)),
                    ("devices_per_host", Value::UInt(DEVICES_PER_HOST as u64)),
                    ("streams", Value::UInt(STREAMS as u64)),
                    ("device", Value::Str("tesla-c2050".into())),
                    ("intra_host_link", Value::Str("pcie2".into())),
                    ("inter_host_link", Value::Str("qdr-infiniband".into())),
                    ("kernel", Value::Str("unrolled".into())),
                ]),
            ),
            (
                "scales",
                Value::Seq(
                    runs.iter()
                        .map(|r| {
                            Value::object(vec![
                                ("hosts", Value::UInt(r.hosts as u64)),
                                ("devices", Value::UInt((r.hosts * DEVICES_PER_HOST) as u64)),
                                ("makespan_s", Value::Float(r.makespan_s)),
                                ("gflops", Value::Float(r.gflops)),
                                ("nic_bytes", Value::UInt(r.nic_bytes)),
                                ("comm_lower_bound_bytes", Value::UInt(r.lower_bound_bytes)),
                                ("comm_ratio", Value::Float(r.ratio)),
                                (
                                    "speedup_vs_1_host",
                                    Value::Float(runs[0].makespan_s / r.makespan_s),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    );

    // Acceptance gates for the sweep itself.
    for pair in runs[..3].windows(2) {
        assert!(
            pair[1].makespan_s < pair[0].makespan_s,
            "makespan must decrease monotonically 1 -> 4 hosts: {} hosts {:.4}s vs {} hosts {:.4}s",
            pair[0].hosts,
            pair[0].makespan_s,
            pair[1].hosts,
            pair[1].makespan_s,
        );
    }
    for r in &runs {
        if r.hosts > 1 {
            assert!(
                r.ratio < 8.0,
                "{} hosts: NIC traffic {:.2}x the lower bound exceeds the 8x budget",
                r.hosts,
                r.ratio
            );
        } else {
            assert_eq!(r.nic_bytes, 0, "a single host must not touch the NIC");
        }
    }

    println!(
        "\nreading: each added host splits the arena further, so compute\n\
         shrinks while every non-root shard pays one NIC round trip. The\n\
         achieved-traffic-to-lower-bound ratio stays bounded because the\n\
         sharder sends each byte at most once; the gap is start vectors\n\
         and result rows that the bound counts at its optimistic minimum."
    );
}
