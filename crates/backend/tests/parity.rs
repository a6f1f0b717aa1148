//! Backend-parity: every substrate runs the *same* numerics, so a fixed
//! workload must produce identical eigenpair sets and iteration counts on
//! all four backends.

use backend::{BatchReport, CpuParallel, GpuSimBackend, KernelStrategy, SolveBackend};
use gpusim::{DeviceSpec, TransferModel};
use rand::SeedableRng;
use sshopm::{starts, IterationPolicy, Shift, SsHopm};
use symtensor::TensorBatch;
use telemetry::Telemetry;

const NUM_TENSORS: usize = 6;
const NUM_STARTS: usize = 8;

fn workload(m: usize, n: usize) -> (TensorBatch<f32>, Vec<Vec<f32>>, SsHopm) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed);
    let tensors = TensorBatch::random(m, n, NUM_TENSORS, &mut rng).unwrap();
    let starts = starts::random_uniform_starts::<f32, _>(n, NUM_STARTS, &mut rng);
    let solver = SsHopm::new(Shift::Fixed(1.0)).with_policy(IterationPolicy::Converge {
        tol: 1e-6,
        max_iters: 200,
    });
    (tensors, starts, solver)
}

fn backends(strategy: KernelStrategy) -> Vec<Box<dyn SolveBackend<f32>>> {
    vec![
        Box::new(CpuParallel::new(1, strategy)),
        Box::new(CpuParallel::new(4, strategy)),
        Box::new(GpuSimBackend::new(DeviceSpec::tesla_c2050(), strategy)),
        Box::new(
            GpuSimBackend::on_host(
                vec![DeviceSpec::tesla_c2050(); 3],
                TransferModel::pcie2(),
                strategy,
            )
            .unwrap(),
        ),
    ]
}

/// Deduplicated eigenvalue set per tensor: sorted λ values with
/// near-duplicates (within 1e-6, generous for f32 iteration) collapsed.
fn eigenvalue_sets(report: &BatchReport<f32>) -> Vec<Vec<f64>> {
    report
        .results
        .iter()
        .map(|row| {
            let mut lambdas: Vec<f64> = row
                .iter()
                .filter(|p| p.converged)
                .map(|p| f64::from(p.lambda))
                .collect();
            lambdas.sort_by(f64::total_cmp);
            let mut dedup: Vec<f64> = Vec::new();
            for l in lambdas {
                if dedup.last().is_none_or(|prev| (l - prev).abs() > 1e-6) {
                    dedup.push(l);
                }
            }
            dedup
        })
        .collect()
}

#[test]
fn all_four_backends_agree_on_a_fixed_workload() {
    let (tensors, starts, solver) = workload(4, 3);
    let reports: Vec<BatchReport<f32>> = backends(KernelStrategy::General)
        .iter()
        .map(|b| {
            b.solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
                .unwrap()
        })
        .collect();

    let reference = &reports[0];
    assert_eq!(reference.num_tensors(), NUM_TENSORS);
    assert_eq!(reference.num_starts(), NUM_STARTS);
    assert!(reference.num_converged() > 0, "workload should converge");
    let reference_sets = eigenvalue_sets(reference);

    for report in &reports[1..] {
        assert_eq!(
            report.total_iterations, reference.total_iterations,
            "backend {} took a different iteration count than {}",
            report.backend, reference.backend
        );
        let sets = eigenvalue_sets(report);
        assert_eq!(sets.len(), reference_sets.len());
        for (t, (got, want)) in sets.iter().zip(&reference_sets).enumerate() {
            assert_eq!(
                got.len(),
                want.len(),
                "backend {} found a different eigenvalue set for tensor {t}",
                report.backend
            );
            for (g, w) in got.iter().zip(want) {
                assert!(
                    (g - w).abs() < 1e-12,
                    "backend {}: tensor {t} lambda {g} != {w}",
                    report.backend
                );
            }
        }
    }
}

#[test]
fn backends_agree_bitwise_with_identical_kernels() {
    // With the same kernel strategy every substrate computes the same
    // arithmetic, so results match to the bit, not just to a tolerance.
    // The label is each backend's own: at (4, 3) `tape` plans the batched
    // kernels on the CPU (whose lanes run the compiled code) and the
    // unrolled variant on the simulated GPU.
    let (tensors, starts, solver) = workload(4, 3);
    for (strategy, labels) in [
        (KernelStrategy::General, ["general"; 4]),
        (
            KernelStrategy::Tape,
            ["batched", "batched", "unrolled", "unrolled"],
        ),
    ] {
        let reports: Vec<BatchReport<f32>> = backends(strategy)
            .iter()
            .map(|b| {
                b.solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
                    .unwrap()
            })
            .collect();
        for (report, label) in reports.iter().zip(labels) {
            assert_eq!(report.kernel, label, "{strategy} on {}", report.backend);
        }
        let reference = &reports[0];
        for report in &reports[1..] {
            for ((t, v, got), (_, _, want)) in report.iter_flat().zip(reference.iter_flat()) {
                assert_eq!(
                    got.lambda.to_bits(),
                    want.lambda.to_bits(),
                    "backend {} vs {}: tensor {t} start {v}",
                    report.backend,
                    reference.backend
                );
                assert_eq!(got.iterations, want.iterations);
                assert_eq!(got.converged, want.converged);
            }
        }
    }
}

#[test]
fn parity_holds_for_unrolled_fallback_shapes() {
    // (3, 5) has no compiled unrolled kernel: the CPU backends run the
    // blocked kernels and the GPU model its general variant. Every kernel
    // sums the index classes in one order, so all four backends agree
    // bitwise.
    let (tensors, mut starts, mut solver) = workload(3, 5);
    starts.truncate(4);
    solver = solver.with_policy(IterationPolicy::Fixed(25));
    let reports: Vec<BatchReport<f32>> = backends(KernelStrategy::Tape)
        .iter()
        .map(|b| {
            b.solve_batch(&tensors, &starts, &solver, &Telemetry::disabled())
                .unwrap()
        })
        .collect();

    let (cpu_seq, cpu_par, gpu_one, gpu_multi) =
        (&reports[0], &reports[1], &reports[2], &reports[3]);
    assert_eq!(cpu_seq.kernel, "blocked");
    assert_eq!(gpu_one.kernel, "general");
    for report in &reports {
        assert_eq!(report.total_iterations, cpu_seq.total_iterations);
    }
    for b in [cpu_par, gpu_one, gpu_multi] {
        for ((t, v, got), (_, _, want)) in b.iter_flat().zip(cpu_seq.iter_flat()) {
            assert_eq!(
                got.lambda.to_bits(),
                want.lambda.to_bits(),
                "{}: tensor {t} start {v}",
                b.backend
            );
            assert_eq!(got.x, want.x, "{}: tensor {t} start {v}", b.backend);
        }
    }
}
