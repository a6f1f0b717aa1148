//! Cluster-parity acceptance (satellite): a single-host cluster is the
//! multi-GPU backend wearing a topology — `cluster:1:N` must produce
//! *byte-identical* eigenpairs, iteration counts and modeled time to
//! `gpusim:N`, clean and faulted alike. The root shard pays no NIC
//! traffic, so the communication model must also collapse to zero.
//!
//! The 10 000-tensor runs here are the PR's headline acceptance numbers;
//! `ci` runs this suite under `--release`.

use backend::{
    BackendSpec, BatchReport, GpuSimBackend, KernelStrategy, ResilientBackend, SolveBackend,
};
use gpusim::{DeviceSpec, FaultPlan, TransferModel};
use rand::SeedableRng;
use sshopm::{starts, IterationPolicy, Shift, SsHopm};
use symtensor::TensorBatch;
use telemetry::Telemetry;

const NUM_TENSORS: usize = 10_000;
const NUM_STARTS: usize = 4;

fn workload() -> (TensorBatch<f32>, Vec<Vec<f32>>, SsHopm) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xc1a5);
    let tensors = TensorBatch::random(4, 3, NUM_TENSORS, &mut rng).unwrap();
    let starts = starts::random_uniform_starts::<f32, _>(3, NUM_STARTS, &mut rng);
    let solver = SsHopm::new(Shift::Fixed(0.0)).with_policy(IterationPolicy::Fixed(3));
    (tensors, starts, solver)
}

/// Bitwise equality of the numerics a user can observe: eigenpairs (λ
/// and x to the bit), per-start iteration counts and convergence flags.
/// Modeled time is asserted separately: resilient runs fold real
/// wall-clock time for CPU fallback work into `seconds`, so only clean
/// runs can pin it to the bit.
fn assert_results_bitwise_equal(got: &BatchReport<f32>, want: &BatchReport<f32>) {
    assert_eq!(got.total_iterations, want.total_iterations);
    assert_eq!(got.useful_flops, want.useful_flops);
    for ((t, v, g), (_, _, w)) in got.iter_flat().zip(want.iter_flat()) {
        assert_eq!(
            g.lambda.to_bits(),
            w.lambda.to_bits(),
            "tensor {t} start {v}: lambda {} != {}",
            g.lambda,
            w.lambda
        );
        assert_eq!(g.iterations, w.iterations, "tensor {t} start {v}");
        assert_eq!(g.converged, w.converged, "tensor {t} start {v}");
        for (gx, wx) in g.x.iter().zip(&w.x) {
            assert_eq!(gx.to_bits(), wx.to_bits(), "tensor {t} start {v}: x");
        }
    }
}

#[test]
fn single_host_cluster_matches_multi_gpu_bitwise_on_10k_tensors() {
    let (tensors, starts, solver) = workload();
    for devices in [1usize, 2, 3] {
        let cluster = BackendSpec::parse(&format!("cluster:1:{devices}"))
            .unwrap()
            .build_gpusim(KernelStrategy::Unrolled)
            .unwrap();
        let multi = GpuSimBackend::on_host(
            vec![DeviceSpec::tesla_c2050(); devices],
            TransferModel::pcie2(),
            KernelStrategy::Unrolled,
        )
        .unwrap();
        let a = cluster
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap();
        let b = multi
            .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
            .unwrap();
        assert_results_bitwise_equal(&a, &b);
        assert_eq!(
            a.seconds.to_bits(),
            b.seconds.to_bits(),
            "modeled time diverged: {} vs {} (devices={devices})",
            a.seconds,
            b.seconds
        );
        // One host means no inter-host traffic at all: the comm model
        // vanishes instead of charging a phantom bound.
        assert_eq!(a.comm.nic_bytes, 0, "devices={devices}");
        assert_eq!(a.comm.lower_bound_bytes, 0, "devices={devices}");
        assert_eq!(a.hosts.len(), 1);
        assert_eq!(a.hosts[0].nic_down_bytes, 0);
        assert_eq!(a.hosts[0].nic_up_bytes, 0);
    }
}

#[test]
fn single_host_cluster_matches_multi_gpu_under_faults() {
    let (tensors, starts, solver) = workload();
    let plan = || {
        FaultPlan::new(20260808)
            .with_ecc(0.25)
            .with_watchdog(0.2)
            .with_transfer(0.2)
            .with_device_loss(0.01)
    };
    let cluster_spec = BackendSpec::parse("cluster:tesla-c2050:1:2").unwrap();
    let gpu_spec = BackendSpec::parse("gpusim:tesla-c2050:2").unwrap();
    let build = |spec: &BackendSpec| {
        ResilientBackend::from_spec(spec, KernelStrategy::Unrolled, plan())
            .unwrap()
            .with_retries(3)
            .with_failover(true)
    };
    let a = build(&cluster_spec)
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    let b = build(&gpu_spec)
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    // A single-host cluster is the same fault surface: same label, same
    // injection draws, same ledger, same bits out.
    assert_eq!(a.backend, b.backend, "single-host labels must not fork");
    assert_eq!(a.fault_log.injected, b.fault_log.injected);
    assert_eq!(a.fault_log.failed_indices, b.fault_log.failed_indices);
    assert_eq!(a.fault_log.retries, b.fault_log.retries);
    assert_eq!(a.fault_log.failovers, b.fault_log.failovers);
    assert!(!a.fault_log.injected.is_empty(), "plan should fire on 10k");
    assert!(a.fault_log.accounts_for_all_faults());
    assert_results_bitwise_equal(&a, &b);
}

#[test]
fn pipelined_single_host_cluster_matches_pipelined_backend_bitwise() {
    // The stream>1 path routes through the same chunked double-buffered
    // launcher as a pipelined spec; results (not timelines) stay bitwise.
    let (tensors, starts, solver) = workload();
    let cluster = BackendSpec::parse("cluster:1:2")
        .unwrap()
        .build_gpusim(KernelStrategy::Unrolled)
        .unwrap()
        .with_streams(2)
        .unwrap();
    let piped = BackendSpec::parse("pipelined:2")
        .unwrap()
        .build_gpusim(KernelStrategy::Unrolled)
        .unwrap()
        .with_streams(2)
        .unwrap();
    let a = cluster
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    let b = piped
        .solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
        .unwrap();
    assert_eq!(a.total_iterations, b.total_iterations);
    for ((t, v, g), (_, _, w)) in a.iter_flat().zip(b.iter_flat()) {
        assert_eq!(g.lambda.to_bits(), w.lambda.to_bits(), "t{t} v{v}");
    }
}
