//! Quickstart: compute real eigenpairs of one small symmetric tensor.
//!
//! Builds an order-3, dimension-3 symmetric tensor (the shape of the
//! running example in the SS-HOPM literature), runs SS-HOPM from a spread
//! of starting vectors with both convex and concave shifts, and prints the
//! deduplicated real eigenpairs with their classifications.
//!
//! Run with: `cargo run --release --example quickstart`

use tensor_eig::prelude::*;

fn main() {
    // A symmetric 3x3x3 tensor given by its unique entries
    // (indices 0-based, nondecreasing).
    let mut a = SymTensor::<f64>::zeros(3, 3);
    let entries: [(&[usize; 3], f64); 10] = [
        (&[0, 0, 0], 0.4333),
        (&[0, 0, 1], 0.4278),
        (&[0, 0, 2], 0.4140),
        (&[0, 1, 1], 0.8154),
        (&[0, 1, 2], 0.0199),
        (&[0, 2, 2], 0.5598),
        (&[1, 1, 1], 0.0643),
        (&[1, 1, 2], 0.3815),
        (&[1, 2, 2], 0.8834),
        (&[2, 2, 2], 0.8144),
    ];
    for (idx, v) in entries {
        a.set(idx, v).expect("index in range");
    }

    println!(
        "Tensor: symmetric, order {}, dimension {}",
        a.order(),
        a.dim()
    );
    println!(
        "Packed storage: {} unique entries instead of {} ({}x saving)\n",
        a.num_unique(),
        a.num_total(),
        a.num_total() / a.num_unique() as u64
    );

    // Cover the sphere with deterministic starts and run with both shift
    // signs to find local maxima AND minima of A x^m on the sphere.
    let starts = sshopm::starts::fibonacci_sphere::<f64>(128);
    let dedup = DedupConfig::default();

    println!(
        "{:<10} {:>12} {:>24} {:>8}  class",
        "shift", "lambda", "eigenvector", "basin"
    );
    for shift in [Shift::Convex, Shift::Concave] {
        let solver = SsHopm::new(shift).with_tolerance(1e-14);
        let spectrum = multistart(&solver, &a, &starts, &dedup, 1e-6);
        for entry in &spectrum.entries {
            let x = &entry.pair.x;
            println!(
                "{:<10} {:>12.6} [{:>6.3} {:>6.3} {:>6.3}] {:>7.1}%  {:?}",
                format!("{shift:?}"),
                entry.pair.lambda,
                x[0],
                x[1],
                x[2],
                100.0 * entry.basin_count as f64 / spectrum.total_starts as f64,
                entry.stability,
            );
            // Every reported pair satisfies A x^{m-1} = lambda x.
            assert!(entry.pair.residual(&a) < 1e-6);
        }
    }

    // The same solve through the three kernel implementations agrees to
    // the bit: all of them sum the index classes in one order.
    let x0 = [1.0, 0.0, 0.0];
    let solver = SsHopm::new(Shift::Convex).with_tolerance(1e-14);
    let general = solver.solve(&a, &x0);
    let tables = PrecomputedTables::new(3, 3);
    let pre = solver.solve_with(&tables, &a, &x0);
    let unrolled = UnrolledKernels::for_shape(3, 3).expect("(3,3) generated");
    let unr = solver.solve_with(&unrolled, &a, &x0);
    println!(
        "\nkernel agreement: general {:.12} | precomputed {:.12} | unrolled {:.12}",
        general.lambda, pre.lambda, unr.lambda
    );
    assert_eq!(general.lambda.to_bits(), pre.lambda.to_bits());
    assert_eq!(general.lambda.to_bits(), unr.lambda.to_bits());
}
