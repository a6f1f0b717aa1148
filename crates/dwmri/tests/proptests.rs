//! Property tests for the DW-MRI pipeline: ADC model invariants, fit
//! exactness on generated quartics, and fiber recovery over random
//! configurations.

use dwmri::adc::{adc, Diffusivities};
use dwmri::extract::{extract_fibers, ExtractConfig};
use dwmri::fiber::FiberConfig;
use dwmri::fit::{evaluate, fit_tensor};
use dwmri::metrics::angular_error_deg;
use dwmri::sampling::gradient_directions;
use proptest::prelude::*;

/// Strategy: a random unit direction.
fn direction() -> impl Strategy<Value = [f64; 3]> {
    (-1.0f64..1.0, -1.0f64..1.0, -1.0f64..1.0).prop_filter_map("nonzero", |(x, y, z)| {
        let n = (x * x + y * y + z * z).sqrt();
        (n > 0.2).then(|| [x / n, y / n, z / n])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn adc_bounded_by_diffusivities(u in direction(), g in direction()) {
        let f = FiberConfig::single(u);
        let d = Diffusivities::default();
        let v = adc(&f, &d, &g);
        prop_assert!(v >= d.d_perp - 1e-12);
        prop_assert!(v <= d.d_par + 1e-12);
    }

    #[test]
    fn adc_antipodal_symmetry(u in direction(), g in direction(), w in 0.1f64..0.9) {
        let f = FiberConfig::new(vec![u, [0.0, 0.0, 1.0]], vec![w, 1.0 - w]);
        let d = Diffusivities::default();
        let neg = [-g[0], -g[1], -g[2]];
        prop_assert!((adc(&f, &d, &g) - adc(&f, &d, &neg)).abs() < 1e-12);
    }

    #[test]
    fn adc_peak_is_at_the_fiber(u in direction()) {
        // D(u) >= D(g) for every g (single fiber).
        let f = FiberConfig::single(u);
        let d = Diffusivities::default();
        let at_peak = adc(&f, &d, &u);
        for g in gradient_directions(40) {
            prop_assert!(at_peak >= adc(&f, &d, &g) - 1e-12);
        }
    }

    #[test]
    fn quartic_fit_is_exact_on_any_configuration(u in direction(), v in direction(), w in 0.2f64..0.8) {
        let f = FiberConfig::new(vec![u, v], vec![w, 1.0 - w]);
        let d = Diffusivities::default();
        let dirs = gradient_directions(30);
        let vals: Vec<f64> = dirs.iter().map(|g| adc(&f, &d, g)).collect();
        let tensor = fit_tensor(4, &dirs, &vals).unwrap();
        // Check on held-out directions: the quartic kernel is exactly
        // order-4 representable on the sphere.
        for g in gradient_directions(19) {
            let want = adc(&f, &d, &g);
            let got = evaluate(&tensor, &g);
            prop_assert!((got - want).abs() < 1e-7 * (1.0 + want.abs()), "{got} vs {want}");
        }
    }

    #[test]
    fn single_fiber_recovered_within_a_degree(u in direction()) {
        let f = FiberConfig::single(u);
        let d = Diffusivities::default();
        let dirs = gradient_directions(30);
        let vals: Vec<f64> = dirs.iter().map(|g| adc(&f, &d, g)).collect();
        let tensor = fit_tensor(4, &dirs, &vals).unwrap();
        let cfg = ExtractConfig {
            num_starts: 48,
            ..Default::default()
        };
        let fibers = extract_fibers(&tensor, &cfg).unwrap();
        prop_assert!(!fibers.is_empty());
        let err = angular_error_deg(&fibers[0].direction, &u);
        prop_assert!(err < 1.0, "angular error {err} deg");
    }

    #[test]
    fn weights_order_peak_heights(u in direction(), w in 0.55f64..0.95) {
        // The heavier compartment's peak evaluates higher.
        let v = {
            // A direction well away from u: rotate by swapping components.
            let cand = [u[1], u[2], u[0]];
            let dot: f64 = u.iter().zip(&cand).map(|(a, b)| a * b).sum();
            prop_assume!(dot.abs() < 0.9);
            cand
        };
        let f = FiberConfig::new(vec![u, v], vec![w, 1.0 - w]);
        let d = Diffusivities::default();
        prop_assert!(adc(&f, &d, &u) > adc(&f, &d, &v));
    }
}
