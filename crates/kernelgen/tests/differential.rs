//! Differential tests pinning the runtime-generated tape kernels to the
//! two existing truths: numerically to the on-the-fly [`GeneralKernels`]
//! reference on *arbitrary* small shapes (most of which have no generated
//! unrolled kernel), and **bitwise** to [`UnrolledKernels`] on every shape
//! in [`unrolled::GENERATED_SHAPES`] — the tape replays the exact
//! floating-point operation order of the build-time codegen.

use kernelgen::{KernelRegistry, TapeKernels};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use symtensor::kernels::GeneralKernels;
use symtensor::{Scalar, SymTensor, TensorKernels};
use unrolled::{UnrolledKernels, GENERATED_SHAPES};

fn max_abs<S: Scalar>(v: &[S]) -> f64 {
    v.iter().map(|e| e.to_f64().abs()).fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The registry's tape kernels must agree with `GeneralKernels` at
    /// 1e-12 on randomized small shapes — including shapes *outside*
    /// `GENERATED_SHAPES`, which only the runtime generator covers. The
    /// tape is taken from the registry directly: `plan` would run the
    /// compiled code on a generated shape.
    #[test]
    fn tape_matches_general_on_random_shapes(
        (m, n) in (2usize..=6, 2usize..=5),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = SymTensor::<f64>::random(m, n, &mut rng);
        let x: Vec<f64> = (0..n).map(|i| 0.45 - 0.13 * i as f64).collect();

        let tape = KernelRegistry::global().tape::<f64>(m, n).unwrap();

        let want = GeneralKernels.axm(a.view(), &x).unwrap();
        let got = tape.axm(a.view(), &x).unwrap();
        let scale = 1.0 + want.abs();
        prop_assert!(
            (got - want).abs() < 1e-12 * scale,
            "axm diverged on ({m},{n}): {got} vs {want}"
        );

        let mut want_y = vec![0.0f64; n];
        let mut got_y = vec![0.0f64; n];
        GeneralKernels.axm1(a.view(), &x, &mut want_y).unwrap();
        tape.axm1(a.view(), &x, &mut got_y).unwrap();
        let scale = 1.0 + max_abs(&want_y);
        for (i, (g, w)) in got_y.iter().zip(&want_y).enumerate() {
            prop_assert!(
                (g - w).abs() < 1e-12 * scale,
                "axm1 diverged on ({m},{n}) component {i}: {g} vs {w}"
            );
        }
    }
}

/// On every build-time-generated shape, tape results are bit-for-bit
/// identical to the unrolled straight-line code, in both precisions.
#[test]
fn tape_is_bitwise_identical_to_unrolled_on_generated_shapes() {
    fn check<S: Scalar>(m: usize, n: usize, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = SymTensor::<S>::random(m, n, &mut rng);
        let x: Vec<S> = (0..n).map(|i| S::from_f64(0.3 - 0.07 * i as f64)).collect();
        let tape = TapeKernels::<S>::generate(m, n).unwrap();
        let unrolled = UnrolledKernels::for_shape(m, n).unwrap();

        let got = tape.axm(a.view(), &x).unwrap();
        let want = unrolled.axm(a.view(), &x).unwrap();
        assert_eq!(
            got.to_f64().to_bits(),
            want.to_f64().to_bits(),
            "axm bits diverged on ({m},{n})"
        );

        let mut got_y = vec![S::ZERO; n];
        let mut want_y = vec![S::ZERO; n];
        tape.axm1(a.view(), &x, &mut got_y).unwrap();
        unrolled.axm1(a.view(), &x, &mut want_y).unwrap();
        for (i, (g, w)) in got_y.iter().zip(&want_y).enumerate() {
            assert_eq!(
                g.to_f64().to_bits(),
                w.to_f64().to_bits(),
                "axm1 bits diverged on ({m},{n}) component {i}"
            );
        }
    }
    for (seed, &(m, n)) in GENERATED_SHAPES.iter().enumerate() {
        check::<f32>(m, n, seed as u64);
        check::<f64>(m, n, 100 + seed as u64);
    }
}
