//! Property-based tests for the symmetric tensor core: storage round-trips,
//! index-class combinatorics, and kernel identities on random tensors.

use proptest::prelude::*;
use symtensor::kernels::{axm, axm1, axmp, PrecomputedTables};
use symtensor::multinomial::{multinomial0, multinomial1, num_unique_entries};
use symtensor::{DenseTensor, IndexClass, IndexClassIter, SymTensor, TensorBatch};

/// Strategy: a small tensor shape (m, n) that keeps n^m manageable.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=5, 1usize..=5).prop_filter("keep dense expansion small", |(m, n)| {
        n.pow(*m as u32) <= 4096
    })
}

/// Strategy: a shape plus a random packed value vector for it.
fn sym_tensor() -> impl Strategy<Value = SymTensor<f64>> {
    shape().prop_flat_map(|(m, n)| {
        let len = num_unique_entries(m, n) as usize;
        proptest::collection::vec(-1.0f64..1.0, len)
            .prop_map(move |v| SymTensor::from_values(m, n, v).unwrap())
    })
}

/// Strategy: tensor together with a compatible random vector.
fn tensor_and_vec() -> impl Strategy<Value = (SymTensor<f64>, Vec<f64>)> {
    sym_tensor().prop_flat_map(|t| {
        let n = t.dim();
        (Just(t), proptest::collection::vec(-2.0f64..2.0, n))
    })
}

proptest! {
    #[test]
    fn rank_unrank_bijection((m, n) in shape(), seed in 0u64..u64::MAX) {
        let total = num_unique_entries(m, n);
        let r = seed % total;
        let cls = IndexClass::unrank(r, m, n);
        prop_assert_eq!(cls.rank(), r);
    }

    #[test]
    fn successor_increments_rank((m, n) in shape()) {
        let mut prev: Option<IndexClass> = None;
        for cls in IndexClassIter::new(m, n) {
            if let Some(p) = prev {
                prop_assert_eq!(p.rank() + 1, cls.rank());
            }
            prev = Some(cls);
        }
    }

    #[test]
    fn multinomials_sum_to_power((m, n) in shape()) {
        let total: u64 = IndexClassIter::new(m, n).map(|c| c.occurrences()).sum();
        prop_assert_eq!(total, (n as u64).pow(m as u32));
    }

    #[test]
    fn multinomial1_consistency((m, n) in shape(), seed in 0u64..u64::MAX) {
        // Sum over distinct indices of the class equals multinomial0.
        let r = seed % num_unique_entries(m, n);
        let cls = IndexClass::unrank(r, m, n);
        let rep = cls.indices();
        let total: u64 = (0..n).map(|j| multinomial1(rep, j)).sum();
        prop_assert_eq!(total, multinomial0(rep));
    }

    #[test]
    fn get_set_round_trip(t in sym_tensor(), seed in 0u64..u64::MAX, v in -10.0f64..10.0) {
        let mut t = t;
        let r = (seed % t.num_unique() as u64) as usize;
        let cls = IndexClass::unrank(r as u64, t.order(), t.dim());
        t.set(cls.indices(), v).unwrap();
        prop_assert_eq!(t.get(cls.indices()).unwrap(), v);
        prop_assert_eq!(t.value_at_rank(r), v);
    }

    #[test]
    fn dense_round_trip(t in sym_tensor()) {
        let dense = DenseTensor::from_sym(&t);
        prop_assert!(dense.is_symmetric(0.0));
        let back = dense.to_sym_checked(0.0).unwrap();
        prop_assert!(back.max_abs_diff(&t).unwrap() < 1e-14);
    }

    #[test]
    fn axm_matches_dense((t, x) in tensor_and_vec()) {
        let dense = DenseTensor::from_sym(&t);
        let want = dense.axm_dense(&x).unwrap();
        let got = axm(&t, &x).unwrap();
        // Scale tolerance with the magnitude of the computation.
        let scale = 1.0 + want.abs();
        prop_assert!((got - want).abs() < 1e-9 * scale, "{got} vs {want}");
    }

    #[test]
    fn axm1_matches_dense((t, x) in tensor_and_vec()) {
        let n = t.dim();
        let dense = DenseTensor::from_sym(&t);
        let want = dense.axm1_dense(&x).unwrap();
        let mut got = vec![0.0; n];
        axm1(&t, &x, &mut got).unwrap();
        for j in 0..n {
            let scale = 1.0 + want[j].abs();
            prop_assert!((got[j] - want[j]).abs() < 1e-9 * scale, "j={j}");
        }
    }

    #[test]
    fn euler_identity((t, x) in tensor_and_vec()) {
        let s = axm(&t, &x).unwrap();
        let mut y = vec![0.0; t.dim()];
        axm1(&t, &x, &mut y).unwrap();
        let dot: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let scale = 1.0 + s.abs();
        prop_assert!((dot - s).abs() < 1e-9 * scale);
    }

    #[test]
    fn homogeneity((t, x) in tensor_and_vec(), c in -3.0f64..3.0) {
        let m = t.order() as i32;
        let cx: Vec<f64> = x.iter().map(|&e| c * e).collect();
        let lhs = axm(&t, &cx).unwrap();
        let rhs = c.powi(m) * axm(&t, &x).unwrap();
        let scale = 1.0 + lhs.abs().max(rhs.abs());
        prop_assert!((lhs - rhs).abs() < 1e-9 * scale);
    }

    #[test]
    fn linearity_in_tensor((a, x) in tensor_and_vec(), scale in -2.0f64..2.0) {
        // (A + sA) x^m == (1+s) A x^m.
        let mut b = a.clone();
        b.scale(scale);
        let sum = a.add(&b).unwrap();
        let lhs = axm(&sum, &x).unwrap();
        let rhs = (1.0 + scale) * axm(&a, &x).unwrap();
        let tol_scale = 1.0 + lhs.abs();
        prop_assert!((lhs - rhs).abs() < 1e-9 * tol_scale);
    }

    #[test]
    fn precomputed_tables_match((t, x) in tensor_and_vec()) {
        let tables = PrecomputedTables::new(t.order(), t.dim());
        let s0 = axm(&t, &x).unwrap();
        let s1 = tables.axm(&t, &x).unwrap();
        let scale = 1.0 + s0.abs();
        prop_assert!((s0 - s1).abs() < 1e-10 * scale);

        let mut y0 = vec![0.0; t.dim()];
        let mut y1 = vec![0.0; t.dim()];
        axm1(&t, &x, &mut y0).unwrap();
        tables.axm1(&t, &x, &mut y1).unwrap();
        for j in 0..t.dim() {
            let scale = 1.0 + y0[j].abs();
            prop_assert!((y0[j] - y1[j]).abs() < 1e-10 * scale);
        }
    }

    #[test]
    fn axmp_contracts_consistently((t, x) in tensor_and_vec()) {
        // Contract p modes via axmp, then finish with axm on the result:
        // must equal axm on the original for every valid p.
        let m = t.order();
        prop_assume!(m >= 2);
        let full = axm(&t, &x).unwrap();
        for p in 1..m {
            let partial = axmp(&t, &x, p).unwrap();
            let finished = axm(&partial, &x).unwrap();
            let scale = 1.0 + full.abs();
            prop_assert!((finished - full).abs() < 1e-8 * scale, "p={p}");
        }
    }

    #[test]
    fn rank_one_axm_is_dot_power(v in proptest::collection::vec(-1.0f64..1.0, 2..5),
                                 m in 2usize..5) {
        let t = SymTensor::rank_one(m, &v);
        let x: Vec<f64> = v.iter().map(|&e| e + 0.5).collect();
        let d: f64 = v.iter().zip(&x).map(|(a, b)| a * b).sum();
        let want = d.powi(m as i32);
        let got = axm(&t, &x).unwrap();
        let scale = 1.0 + want.abs();
        prop_assert!((got - want).abs() < 1e-9 * scale);
    }

    #[test]
    fn io_round_trip_is_exact(t in sym_tensor()) {
        let mut buf = Vec::new();
        symtensor::io::write_tensor(&mut buf, &t).unwrap();
        let back: SymTensor<f64> = symtensor::io::read_tensor(&buf[..]).unwrap();
        prop_assert_eq!(back.values(), t.values());
        prop_assert_eq!(back.order(), t.order());
        prop_assert_eq!(back.dim(), t.dim());
    }

    #[test]
    fn blocked_kernels_match_general((t, x) in tensor_and_vec()) {
        let Some(k) = symtensor::BlockedKernels::for_shape(t.order(), t.dim()) else {
            return Ok(());
        };
        use symtensor::TensorKernels;
        let want = axm(&t, &x).unwrap();
        let got = TensorKernels::axm(&k, t.view(), &x).unwrap();
        prop_assert!((got - want).abs() < 1e-9 * (1.0 + want.abs()));
        let mut y0 = vec![0.0; t.dim()];
        let mut y1 = vec![0.0; t.dim()];
        axm1(&t, &x, &mut y0).unwrap();
        TensorKernels::axm1(&k, t.view(), &x, &mut y1).unwrap();
        for j in 0..t.dim() {
            prop_assert!((y0[j] - y1[j]).abs() < 1e-9 * (1.0 + y0[j].abs()), "j={j}");
        }
    }

    #[test]
    fn inner_product_is_bilinear(t in sym_tensor(), c in -2.0f64..2.0) {
        let mut ct = t.clone();
        ct.scale(c);
        let base = t.inner_product(&t).unwrap();
        let scaled = t.inner_product(&ct).unwrap();
        prop_assert!((scaled - c * base).abs() < 1e-9 * (1.0 + base.abs()));
    }

    #[test]
    fn frobenius_norm_matches_dense(t in sym_tensor()) {
        let dense = DenseTensor::from_sym(&t);
        let direct: f64 = dense.values().iter().map(|&v| v * v).sum::<f64>().sqrt();
        let packed = t.frobenius_norm();
        prop_assert!((direct - packed).abs() < 1e-10 * (1.0 + direct));
    }

    #[test]
    fn truncated_files_are_errors_never_panics(
        (m, n) in shape(),
        count in 1usize..4,
        seed in 0u64..1000,
    ) {
        // Cut a valid file at every byte offset: the reader must return,
        // and it must return `Err` whenever the cut drops the last value
        // entirely (a cut inside it may still parse as a shorter number).
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = TensorBatch::<f64>::random(m, n, count, &mut rng).unwrap();
        let mut file = Vec::new();
        symtensor::io::write_tensor_batch(&mut file, &batch).unwrap();
        let body = std::str::from_utf8(&file).unwrap().trim_end();
        let last_value = body.rfind(char::is_whitespace).unwrap() + 1;
        for cut in 0..=file.len() {
            let read = symtensor::io::read_tensor_batch::<f64, _>(&file[..cut]);
            if cut <= last_value {
                prop_assert!(read.is_err(), "cut at byte {} of {} parsed", cut, file.len());
            }
        }
        let whole = symtensor::io::read_tensor_batch::<f64, _>(&file[..]).unwrap();
        prop_assert_eq!(whole.values(), batch.values());
    }

    #[test]
    fn tensor_batch_vec_round_trip((m, n) in shape(), count in 0usize..8, seed in 0u64..1000) {
        // Vec<SymTensor> -> TensorBatch -> Vec<SymTensor> is the identity,
        // and the arena holds the concatenation of the packed buffers.
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let tensors: Vec<SymTensor<f64>> =
            (0..count).map(|_| SymTensor::random(m, n, &mut rng)).collect();
        let batch = TensorBatch::from_tensors(&tensors).unwrap();
        prop_assert_eq!(batch.len(), count);
        let flat: Vec<f64> = tensors.iter().flat_map(|t| t.values().to_vec()).collect();
        prop_assert_eq!(batch.values(), &flat[..]);
        prop_assert_eq!(batch.to_tensors(), tensors);
    }

    #[test]
    fn batch_slice_views_match_standalone((m, n) in shape(),
                                          count in 1usize..8,
                                          lo in 0usize..8,
                                          seed in 0u64..1000) {
        // A zero-copy slice sees exactly the tensors a standalone sub-batch
        // would hold, and kernel results on its views are bitwise identical.
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = TensorBatch::<f64>::random(m, n, count, &mut rng).unwrap();
        let lo = lo % count;
        let sub = batch.slice(lo..count);
        let standalone = sub.to_owned();
        prop_assert_eq!(standalone.len(), count - lo);
        let x: Vec<f64> = (0..n).map(|i| 0.3 - 0.1 * i as f64).collect();
        for (a, b) in sub.iter().zip(standalone.iter()) {
            prop_assert_eq!(axm(a, &x).unwrap().to_bits(), axm(b, &x).unwrap().to_bits());
        }
    }

    #[test]
    fn batched_lanes_match_general((m, n) in shape(),
                                   count in 1usize..12,
                                   seed in 0u64..1000) {
        // Every lane of every panel agrees with the scalar reference kernels
        // to 1e-12 on random batches — the SIMD path may not drift.
        use rand::{rngs::StdRng, SeedableRng};
        use symtensor::{BatchedKernels, LanePanel, LANE_WIDTH};
        let mut rng = StdRng::seed_from_u64(seed);
        let batch = TensorBatch::<f64>::random(m, n, count, &mut rng).unwrap();
        let kernels = BatchedKernels::new(m, n);
        let x: Vec<f64> = (0..n).map(|i| 0.4 - 0.15 * i as f64).collect();
        let mut xs = vec![0.0; n * LANE_WIDTH];
        for i in 0..n {
            for w in 0..LANE_WIDTH {
                xs[i * LANE_WIDTH + w] = x[i];
            }
        }
        let mut start = 0;
        while start < count {
            let width = LANE_WIDTH.min(count - start);
            let panel = LanePanel::gather(&kernels, batch.view(), start, width).unwrap();
            let mut out = [0.0; LANE_WIDTH];
            panel.axm(&kernels, &xs, &mut out).unwrap();
            let mut ys = vec![0.0; n * LANE_WIDTH];
            panel.axm1(&kernels, &xs, &mut ys).unwrap();
            for w in 0..width {
                let a = batch.get(start + w);
                let want = axm(a, &x).unwrap();
                prop_assert!((out[w] - want).abs() < 1e-12 * (1.0 + want.abs()));
                let mut wy = vec![0.0; n];
                axm1(a, &x, &mut wy).unwrap();
                for j in 0..n {
                    let got = ys[j * LANE_WIDTH + w];
                    prop_assert!((got - wy[j]).abs() < 1e-12 * (1.0 + wy[j].abs()), "j={j} w={w}");
                }
            }
            start += width;
        }
    }

    #[test]
    fn batch_push_shape_mismatch_is_typed((m, n) in shape(), (m2, n2) in shape()) {
        prop_assume!((m, n) != (m2, n2));
        let mut batch = TensorBatch::<f64>::new(m, n).unwrap();
        let wrong = SymTensor::<f64>::zeros(m2, n2);
        let err = batch.push(&wrong).unwrap_err();
        prop_assert_eq!(err, symtensor::Error::ShapeMismatch {
            expected: (m, n),
            found: (m2, n2),
        });
        prop_assert!(batch.is_empty());
    }
}
