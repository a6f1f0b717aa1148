//! Property-based tests for SS-HOPM: convergence invariants, shift
//! monotonicity, eigen-equation residuals, refinement, dedup sanity and
//! the n = 3 stability closed form on random tensors.

use linalg::{Matrix, SymmetricEigen};
use proptest::prelude::*;
use sshopm::{
    classify, multistart, refine, DedupConfig, IterationPolicy, Shift, Solver, SsHopm, Stability,
};
use symtensor::kernels::{axm, axm2_matrix};
use symtensor::multinomial::num_unique_entries;
use symtensor::SymTensor;

fn shape() -> impl Strategy<Value = (usize, usize)> {
    proptest::sample::select(vec![
        (3usize, 2usize),
        (3, 3),
        (4, 2),
        (4, 3),
        (5, 3),
        (6, 3),
    ])
}

fn tensor_and_start() -> impl Strategy<Value = (SymTensor<f64>, Vec<f64>)> {
    shape().prop_flat_map(|(m, n)| {
        let len = num_unique_entries(m, n) as usize;
        (
            proptest::collection::vec(-1.0f64..1.0, len)
                .prop_map(move |v| SymTensor::from_values(m, n, v).unwrap()),
            proptest::collection::vec(-1.0f64..1.0, n).prop_filter("nonzero start", |x| {
                x.iter().map(|v| v * v).sum::<f64>() > 1e-4
            }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn convex_shift_converges_and_satisfies_eigen_equation((a, x0) in tensor_and_start()) {
        // Convergence is guaranteed but the *rate* can be arbitrarily slow
        // near degenerate pairs, so give the iteration generous headroom.
        let pair = SsHopm::new(Shift::Convex)
            .with_tolerance(1e-13)
            .with_max_iters(50_000)
            .solve(&a, &x0);
        prop_assert!(pair.converged, "convex shift guarantees convergence");
        let scale = 1.0 + a.frobenius_norm();
        prop_assert!(pair.residual(&a) < 1e-4 * scale, "residual {:e}", pair.residual(&a));
        // Unit eigenvector.
        let nrm: f64 = pair.x.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!((nrm - 1.0).abs() < 1e-10);
        // Lambda is the Rayleigh quotient at x.
        let rq = symtensor::kernels::axm(&a, &pair.x).unwrap();
        prop_assert!((rq - pair.lambda).abs() < 1e-10 * scale);
    }

    #[test]
    fn convex_trace_is_monotone_nondecreasing((a, x0) in tensor_and_start()) {
        let trace = SsHopm::new(Shift::Convex)
            .with_tolerance(1e-12)
            .solve_trace(a.view(), &x0, false)
            .1
            .lambdas();
        for w in trace.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-9 * (1.0 + w[0].abs()), "{} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn concave_trace_is_monotone_nonincreasing((a, x0) in tensor_and_start()) {
        let trace = SsHopm::new(Shift::Concave)
            .with_tolerance(1e-12)
            .solve_trace(a.view(), &x0, false)
            .1
            .lambdas();
        for w in trace.windows(2) {
            prop_assert!(w[1] <= w[0] + 1e-9 * (1.0 + w[0].abs()));
        }
    }

    #[test]
    fn concave_result_never_exceeds_convex((a, x0) in tensor_and_start()) {
        let up = SsHopm::new(Shift::Convex).with_tolerance(1e-12).solve(&a, &x0);
        let down = SsHopm::new(Shift::Concave).with_tolerance(1e-12).solve(&a, &x0);
        prop_assert!(down.lambda <= up.lambda + 1e-8);
    }

    #[test]
    fn fixed_policy_runs_exactly_k((a, x0) in tensor_and_start(), k in 1usize..40) {
        let pair = SsHopm::new(Shift::Convex)
            .with_policy(IterationPolicy::Fixed(k))
            .solve(&a, &x0);
        prop_assert_eq!(pair.iterations, k);
        prop_assert!(pair.converged);
    }

    #[test]
    fn refinement_never_worsens_residual((a, x0) in tensor_and_start()) {
        let pair = SsHopm::new(Shift::Convex).with_tolerance(1e-8).solve(&a, &x0);
        let refined = refine(&a, &pair, 3, 1e-14);
        prop_assert!(refined.residual_after <= refined.residual_before + 1e-15);
        let nrm: f64 = refined.pair.x.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!((nrm - 1.0).abs() < 1e-10);
    }

    #[test]
    fn multistart_bookkeeping_is_consistent(a_x in tensor_and_start(), starts in 2usize..12) {
        let (a, _) = a_x;
        let n = a.dim();
        let start_vecs: Vec<Vec<f64>> = (0..starts)
            .map(|i| {
                let mut v = vec![0.1; n];
                v[i % n] = 1.0;
                v
            })
            .collect();
        let spectrum = multistart(
            &SsHopm::new(Shift::Convex).with_tolerance(1e-12),
            &a,
            &start_vecs,
            &DedupConfig::default(),
            1e-5,
        );
        let basins: usize = spectrum.entries.iter().map(|e| e.basin_count).sum();
        prop_assert_eq!(basins + spectrum.failures, starts);
        for w in spectrum.entries.windows(2) {
            prop_assert!(w[0].pair.lambda >= w[1].pair.lambda);
        }
    }

    #[test]
    fn scaling_tensor_scales_eigenvalues((a, x0) in tensor_and_start(), c in 0.1f64..3.0) {
        // Eigenpairs of c*A are (c*lambda, x).
        let mut ca = a.clone();
        ca.scale(c);
        let p1 = SsHopm::new(Shift::Convex).with_tolerance(1e-13).solve(&a, &x0);
        let p2 = SsHopm::new(Shift::Convex).with_tolerance(1e-13).solve(&ca, &x0);
        // Same starting vector + scaled problem converges to the scaled
        // version of the same pair (the iteration map is identical).
        prop_assert!((p2.lambda - c * p1.lambda).abs() < 1e-5 * (1.0 + p1.lambda.abs()),
            "{} vs {}", p2.lambda, c * p1.lambda);
    }
}

/// A random order-`m ∈ 2..=6`, dimension-3 tensor, a start, and a second
/// unit point.
fn dim3_tensor_start_point() -> impl Strategy<Value = (SymTensor<f64>, Vec<f64>, Vec<f64>)> {
    (2usize..=6).prop_flat_map(|m| {
        let len = num_unique_entries(m, 3) as usize;
        let point = || {
            proptest::collection::vec(-1.0f64..1.0, 3).prop_filter("nonzero point", |x| {
                x.iter().map(|v| v * v).sum::<f64>() > 1e-4
            })
        };
        (
            proptest::collection::vec(-1.0f64..1.0, len)
                .prop_map(move |v| SymTensor::from_values(m, 3, v).unwrap()),
            point(),
            point().prop_map(|x| {
                let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
                x.iter().map(|v| v / norm).collect()
            }),
        )
    })
}

/// The dense Jacobi classification, as `classify` runs it for n ≠ 3:
/// `C = P·((m−1)·A·x^{m−2} − λI)·P` with `P = I − x·xᵀ`, the eigenvalue
/// whose eigenvector is most parallel to `x` dropped.
fn jacobi_reference(a: &SymTensor<f64>, lambda: f64, x: &[f64], tol: f64) -> Stability {
    let n = x.len();
    let m = a.order() as f64;
    let h = axm2_matrix(a, x).unwrap();
    let b = |i: usize, j: usize| (m - 1.0) * h[i * n + j] - if i == j { lambda } else { 0.0 };
    let p = |i: usize, j: usize| f64::from(u8::from(i == j)) - x[i] * x[j];
    let c = Matrix::from_fn(n, n, |i, j| {
        (0..n)
            .flat_map(|k| (0..n).map(move |l| (k, l)))
            .map(|(k, l)| p(i, k) * b(k, l) * p(l, j))
            .sum()
    });
    let eig = SymmetricEigen::new(&c).unwrap();
    let parallel = |col: usize| {
        (0..n)
            .map(|r| eig.eigenvectors[(r, col)] * x[r])
            .sum::<f64>()
            .abs()
    };
    let radial = (0..n)
        .max_by(|&i, &j| parallel(i).total_cmp(&parallel(j)))
        .unwrap();
    let tangent: Vec<f64> = (0..n)
        .filter(|&col| col != radial)
        .map(|col| eig.eigenvalues[col])
        .collect();
    let thresh = tol * eig.spectral_radius().max(lambda.abs()).max(1e-30);
    if tangent.iter().any(|v| v.abs() <= thresh) {
        Stability::Degenerate
    } else if tangent.iter().all(|&v| v < 0.0) {
        Stability::NegativeStable
    } else if tangent.iter().all(|&v| v > 0.0) {
        Stability::PositiveStable
    } else {
        Stability::Saddle
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dim3_closed_form_matches_jacobi_reference(
        (a, x0, u) in dim3_tensor_start_point()
    ) {
        let policy = IterationPolicy::Converge { tol: 1e-12, max_iters: 5000 };
        for shift in [Shift::Convex, Shift::Concave] {
            let pair = SsHopm::new(shift).with_policy(policy).solve(&a, &x0);
            if pair.converged {
                let want = jacobi_reference(&a, pair.lambda, &pair.x, 1e-5);
                prop_assert_eq!(classify(&a, pair.lambda, &pair.x, 1e-5), want, "{:?}", shift);
            }
        }
        // An arbitrary unit point at its Rayleigh value: usually a saddle.
        let lambda = axm(&a, &u).unwrap();
        prop_assert_eq!(classify(&a, lambda, &u, 1e-5), jacobi_reference(&a, lambda, &u, 1e-5));
    }
}
