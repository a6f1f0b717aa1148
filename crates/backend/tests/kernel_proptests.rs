//! Differential property tests for the kernel-strategy layer: every
//! [`KernelStrategy`] — including the lane-vectorized `batched` one and
//! the straight-line `tape` one — must return the on-the-fly
//! [`GeneralKernels`] reference's bits on both contractions, for random
//! shapes, batch sizes and seeds. This pins the whole registry `plan`
//! surface (including the `tape` resolution chain) to one numeric family,
//! so a strategy can never silently drift.

use backend::{KernelRegistry, KernelStrategy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use symtensor::kernels::GeneralKernels;
use symtensor::{TensorBatch, TensorKernels};

/// Shapes kept small enough that every strategy has something to do:
/// blocked covers orders 1–8, tape runs compiled code on its list and
/// blocked elsewhere, batched/general cover everything.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (2usize..=6, 2usize..=5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_strategy_matches_general_kernels(
        (m, n) in shape(),
        batch_len in 1usize..8,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = TensorBatch::<f64>::random(m, n, batch_len, &mut rng).unwrap();
        let x: Vec<f64> = (0..n).map(|i| 0.45 - 0.13 * i as f64).collect();

        for strategy in KernelStrategy::ALL {
            let plan = KernelRegistry::global().plan::<f64>(m, n, strategy);
            let kernels = plan.kernels;
            let ran = kernels.name();
            for (t, a) in batch.iter().enumerate() {
                let want = GeneralKernels.axm(a, &x).unwrap();
                let got = kernels.axm(a, &x).unwrap();
                prop_assert!(
                    got.to_bits() == want.to_bits(),
                    "axm: strategy {strategy} (ran {ran}) diverged on \
                     ({m},{n}) tensor {t}: {got} vs {want}"
                );

                let mut want_y = vec![0.0f64; n];
                let mut got_y = vec![0.0f64; n];
                GeneralKernels.axm1(a, &x, &mut want_y).unwrap();
                kernels.axm1(a, &x, &mut got_y).unwrap();
                for (i, (g, w)) in got_y.iter().zip(&want_y).enumerate() {
                    prop_assert!(
                        g.to_bits() == w.to_bits(),
                        "axm1: strategy {strategy} (ran {ran}) diverged on \
                         ({m},{n}) tensor {t} component {i}: {g} vs {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn every_strategy_rejects_wrong_shape_tensors(
        (m, n) in shape(),
        seed in 0u64..1000,
    ) {
        // The shape-safety net: a resolved kernel handed a tensor of a
        // different shape must return a typed error, never a wrong answer
        // or a panic. (General is shape-agnostic by design and skipped.)
        let mut rng = StdRng::seed_from_u64(seed);
        let wrong = symtensor::SymTensor::<f64>::random(m + 1, n, &mut rng);
        let x = vec![0.5f64; n];
        let mut y = vec![0.0f64; n];
        for strategy in KernelStrategy::ALL {
            let plan = KernelRegistry::global().plan::<f64>(m, n, strategy);
            let kernels = plan.kernels;
            let ran = kernels.name();
            if ran == "general" {
                continue;
            }
            prop_assert!(
                kernels.axm(wrong.view(), &x).is_err(),
                "axm: strategy {strategy} (ran {ran}) accepted a \
                 ({},{n}) tensor on ({m},{n}) kernels",
                m + 1
            );
            prop_assert!(
                kernels.axm1(wrong.view(), &x, &mut y).is_err(),
                "axm1: strategy {strategy} (ran {ran}) accepted a \
                 ({},{n}) tensor on ({m},{n}) kernels",
                m + 1
            );
        }
    }
}
