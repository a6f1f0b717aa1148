//! Lockstep batch-lane kernels: `A·xᵐ` / `A·xᵐ⁻¹` for a panel of
//! [`LANE_WIDTH`] tensors evaluated *in lockstep* over the packed
//! [`crate::TensorBatch`] arena.
//!
//! The paper's workload (Section VI) is millions of independent small
//! tensors of one shape. The per-tensor kernels walk the shared index and
//! coefficient tables once *per tensor*; this module restructures the loop
//! the way Schatz et al. block symmetric contractions: gather each
//! unique-entry stride across a panel of `W` tensors into a
//! structure-of-arrays lane buffer (one transpose per panel, amortized over
//! every subsequent kernel call), and evaluate all `W` lanes per step. The
//! lanes carry no cross-lane dependencies, so they autovectorize — and the
//! dependent-accumulation chain of the scalar kernel is broken `W` ways.
//!
//! Two implementations sit behind [`LanePanel::axm`]/[`LanePanel::axm1`]:
//!
//! * on the shapes of [`COMPILED_SHAPES`], straight-line panels generated
//!   by this crate's build script (the paper's Section V-D unrolling, as
//!   Shi et al. generate code for symmetric kernels): a loop over the lanes
//!   around code with every index and coefficient resolved at build time;
//! * on every other shape, a walk of the shared per-shape tables once per
//!   *class*, updating all `W` accumulators in each step.
//!
//! Both order each lane's arithmetic exactly as
//! [`PrecomputedTables::axm`]/[`PrecomputedTables::axm1`] do, so each
//! lane's result is bitwise identical to the scalar table-driven kernel —
//! the lockstep SS-HOPM driver in `sshopm` relies on this for its parity
//! suite.

use crate::batch::TensorBatchRef;
use crate::error::{Error, Result};
use crate::kernels::{check_shape, check_vec, PrecomputedTables, TensorKernels};
use crate::multinomial::multinomial1_from_stored;
use crate::scalar::Scalar;
use crate::storage::SymTensorRef;
use crate::unrolled::UnrolledKernels;

include!(concat!(env!("OUT_DIR"), "/lane_kernels.rs"));

/// Number of tensors evaluated in lockstep by one [`LanePanel`].
///
/// Eight lanes of `f64` fill a 512-bit vector register (two 256-bit ones on
/// AVX2); the tail panel of a batch simply runs with zero-padded lanes.
pub const LANE_WIDTH: usize = 8;

/// The lockstep kernel family: shared per-shape tables plus the panel
/// evaluation routines.
///
/// As a [`TensorKernels`] implementation (name `"batched"`) it evaluates
/// one tensor at a time, so adaptive solvers that cannot run in lockstep
/// still work with `--kernel batched`: the compiled [`UnrolledKernels`] on
/// [`COMPILED_SHAPES`], the scalar tables elsewhere. Both return the
/// tables' bits.
#[derive(Debug, Clone)]
pub struct BatchedKernels {
    tables: PrecomputedTables,
    compiled: Option<UnrolledKernels>,
}

impl BatchedKernels {
    /// Build the shared tables for shape `(m, n)`.
    pub fn new(m: usize, n: usize) -> Self {
        Self {
            tables: PrecomputedTables::new(m, n),
            compiled: UnrolledKernels::for_shape(m, n),
        }
    }

    /// Tensor order the kernels were built for.
    #[inline]
    pub fn order(&self) -> usize {
        self.tables.order()
    }

    /// Tensor dimension the kernels were built for.
    #[inline]
    pub fn dim(&self) -> usize {
        self.tables.dim()
    }

    /// The underlying shared tables.
    #[inline]
    pub fn tables(&self) -> &PrecomputedTables {
        &self.tables
    }
}

impl<S: Scalar> TensorKernels<S> for BatchedKernels {
    fn axm(&self, a: SymTensorRef<'_, S>, x: &[S]) -> Result<S> {
        match &self.compiled {
            Some(k) => k.axm(a, x),
            None => self.tables.axm(a, x),
        }
    }

    fn axm1(&self, a: SymTensorRef<'_, S>, x: &[S], y: &mut [S]) -> Result<()> {
        match &self.compiled {
            Some(k) => k.axm1(a, x, y),
            None => self.tables.axm1(a, x, y),
        }
    }

    fn name(&self) -> &'static str {
        "batched"
    }
}

/// A structure-of-arrays view of up to [`LANE_WIDTH`] same-shape tensors:
/// entry `e` of lane `w` lives at `soa[e * LANE_WIDTH + w]`, so the panel
/// kernels stream `W` contiguous values per table step.
///
/// Lanes that were never loaded are zero tensors — they compute harmless
/// zeros and their outputs are simply never read.
#[derive(Debug, Clone)]
pub struct LanePanel<S> {
    soa: Vec<S>,
}

impl<S: Scalar> LanePanel<S> {
    /// A panel of zero tensors for `kernels`' shape, with no lane loaded
    /// yet: fill it with [`load`](Self::load).
    pub fn zeros(kernels: &BatchedKernels) -> Self {
        Self {
            soa: vec![S::ZERO; kernels.tables.num_unique() * LANE_WIDTH],
        }
    }

    /// Gather `width` tensors of a batch, starting at `start`, into lane
    /// form (the one transpose per panel that every later kernel call
    /// amortizes).
    ///
    /// # Errors
    /// Returns [`Error::ShapeMismatch`] if the batch shape differs from the
    /// kernels' shape, and [`Error::ValueLengthMismatch`] if `width` is zero
    /// or exceeds [`LANE_WIDTH`] or the batch slice is out of range.
    pub fn gather(
        kernels: &BatchedKernels,
        batch: TensorBatchRef<'_, S>,
        start: usize,
        width: usize,
    ) -> Result<Self> {
        if width == 0 || width > LANE_WIDTH || start + width > batch.len() {
            return Err(Error::ValueLengthMismatch {
                expected: LANE_WIDTH,
                actual: width,
            });
        }
        let mut panel = Self::zeros(kernels);
        for w in 0..width {
            panel.load(kernels, w, batch.try_get(start + w)?)?;
        }
        Ok(panel)
    }

    /// Gather from a slice of same-shape tensor views (the non-arena entry
    /// point used by tests and the bench harness).
    ///
    /// # Errors
    /// Same contract as [`LanePanel::gather`].
    pub fn gather_views(kernels: &BatchedKernels, tensors: &[SymTensorRef<'_, S>]) -> Result<Self> {
        if tensors.is_empty() || tensors.len() > LANE_WIDTH {
            return Err(Error::ValueLengthMismatch {
                expected: LANE_WIDTH,
                actual: tensors.len(),
            });
        }
        let mut panel = Self::zeros(kernels);
        for (w, &t) in tensors.iter().enumerate() {
            panel.load(kernels, w, t)?;
        }
        Ok(panel)
    }

    /// Load `tensor` into lane `lane`, replacing whatever the lane held:
    /// one store per unique entry into the lane's column, so a lockstep
    /// driver can hand a lane its next tensor while the other lanes keep
    /// theirs.
    ///
    /// # Errors
    /// Returns [`Error::ShapeMismatch`] if the tensor's shape differs from
    /// the kernels' shape, and [`Error::IndexOutOfBounds`] if `lane` is not
    /// below [`LANE_WIDTH`]; the panel is unchanged on error.
    pub fn load(
        &mut self,
        kernels: &BatchedKernels,
        lane: usize,
        tensor: SymTensorRef<'_, S>,
    ) -> Result<()> {
        check_shape(&tensor, kernels.order(), kernels.dim())?;
        if lane >= LANE_WIDTH {
            return Err(Error::IndexOutOfBounds {
                index: lane,
                n: LANE_WIDTH,
            });
        }
        for (e, &v) in tensor.values().iter().enumerate() {
            self.soa[e * LANE_WIDTH + lane] = v;
        }
        Ok(())
    }

    /// `A·xᵐ` for every lane at once.
    ///
    /// `xs` holds the per-lane vectors component-major
    /// (`xs[i * LANE_WIDTH + w]` is component `i` of lane `w`, length
    /// `n · LANE_WIDTH`); `out` receives one scalar per lane (length
    /// [`LANE_WIDTH`]; entries of lanes never loaded are meaningless).
    ///
    /// # Errors
    /// Returns [`Error::VectorLengthMismatch`] on wrongly sized `xs`/`out`.
    pub fn axm(&self, kernels: &BatchedKernels, xs: &[S], out: &mut [S]) -> Result<()> {
        let t = &kernels.tables;
        check_vec(xs, t.dim() * LANE_WIDTH)?;
        check_vec(out, LANE_WIDTH)?;
        if compiled_axm(t.order(), t.dim(), &self.soa, xs, out) {
            return Ok(());
        }
        for o in out.iter_mut() {
            *o = S::ZERO;
        }
        for (u, &coeff) in t.coeffs().iter().enumerate() {
            let mut xhat = [S::ONE; LANE_WIDTH];
            for &i in t.rep(u) {
                let xi = &xs[i as usize * LANE_WIDTH..(i as usize + 1) * LANE_WIDTH];
                for w in 0..LANE_WIDTH {
                    xhat[w] *= xi[w];
                }
            }
            let c = S::from_u64(coeff);
            let av = &self.soa[u * LANE_WIDTH..(u + 1) * LANE_WIDTH];
            for w in 0..LANE_WIDTH {
                out[w] += c * av[w] * xhat[w];
            }
        }
        Ok(())
    }

    /// `A·xᵐ⁻¹` for every lane at once, into `ys` (overwritten; same
    /// component-major `n · LANE_WIDTH` layout as `xs`).
    ///
    /// # Errors
    /// Returns [`Error::VectorLengthMismatch`] on wrongly sized `xs`/`ys`.
    pub fn axm1(&self, kernels: &BatchedKernels, xs: &[S], ys: &mut [S]) -> Result<()> {
        let t = &kernels.tables;
        let n = t.dim();
        let m = t.order();
        check_vec(xs, n * LANE_WIDTH)?;
        check_vec(ys, n * LANE_WIDTH)?;
        if compiled_axm1(m, n, &self.soa, xs, ys) {
            return Ok(());
        }
        for e in ys.iter_mut() {
            *e = S::ZERO;
        }
        for (u, &c) in t.coeffs().iter().enumerate() {
            let rep = t.rep(u);
            let av = &self.soa[u * LANE_WIDTH..(u + 1) * LANE_WIDTH];
            for &(j, kj) in t.distinct(u) {
                // Product over the representation with one `j` removed —
                // recomputed per distinct index exactly as the scalar
                // kernel does, but across W lanes per multiply.
                let mut xhat = [S::ONE; LANE_WIDTH];
                let mut skipped = false;
                for &i in rep {
                    if !skipped && i == j {
                        skipped = true;
                        continue;
                    }
                    let xi = &xs[i as usize * LANE_WIDTH..(i as usize + 1) * LANE_WIDTH];
                    for w in 0..LANE_WIDTH {
                        xhat[w] *= xi[w];
                    }
                }
                let sigma = S::from_u64(multinomial1_from_stored(c, kj as usize, m));
                let j = j as usize;
                let yj = &mut ys[j * LANE_WIDTH..(j + 1) * LANE_WIDTH];
                for w in 0..LANE_WIDTH {
                    yj[w] += sigma * av[w] * xhat[w];
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::TensorBatch;
    use crate::storage::SymTensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_batch(m: usize, n: usize, len: usize, seed: u64) -> TensorBatch<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        TensorBatch::random(m, n, len, &mut rng).unwrap()
    }

    fn random_lane_vectors(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * LANE_WIDTH)
            .map(|_| rng.gen_range(-1.0..=1.0))
            .collect()
    }

    #[test]
    fn panel_axm_is_bitwise_identical_to_scalar_tables() {
        let kernels = BatchedKernels::new(4, 3);
        let batch = random_batch(4, 3, 5, 1);
        let panel = LanePanel::gather(&kernels, batch.view(), 0, 5).unwrap();
        let xs = random_lane_vectors(3, 2);
        let mut out = [0.0; LANE_WIDTH];
        panel.axm(&kernels, &xs, &mut out).unwrap();
        for w in 0..5 {
            let x: Vec<f64> = (0..3).map(|i| xs[i * LANE_WIDTH + w]).collect();
            let want = kernels.tables().axm(batch.view().try_get(w).unwrap(), &x);
            assert_eq!(out[w].to_bits(), want.unwrap().to_bits(), "lane {w}");
        }
    }

    #[test]
    fn panel_axm1_is_bitwise_identical_to_scalar_tables() {
        let kernels = BatchedKernels::new(4, 3);
        let batch = random_batch(4, 3, LANE_WIDTH, 3);
        let panel = LanePanel::gather(&kernels, batch.view(), 0, LANE_WIDTH).unwrap();
        let xs = random_lane_vectors(3, 4);
        let mut ys = vec![0.0; 3 * LANE_WIDTH];
        panel.axm1(&kernels, &xs, &mut ys).unwrap();
        for w in 0..LANE_WIDTH {
            let x: Vec<f64> = (0..3).map(|i| xs[i * LANE_WIDTH + w]).collect();
            let mut want = vec![0.0; 3];
            kernels
                .tables()
                .axm1(batch.view().try_get(w).unwrap(), &x, &mut want)
                .unwrap();
            for i in 0..3 {
                assert_eq!(
                    ys[i * LANE_WIDTH + w].to_bits(),
                    want[i].to_bits(),
                    "lane {w} component {i}"
                );
            }
        }
    }

    #[test]
    fn panel_handles_other_shapes_and_partial_width() {
        for (m, n) in [(3, 2), (3, 4), (6, 3)] {
            let kernels = BatchedKernels::new(m, n);
            let batch = random_batch(m, n, 3, 100 + m as u64);
            let panel = LanePanel::gather(&kernels, batch.view(), 1, 2).unwrap();
            let xs = random_lane_vectors(n, 200 + n as u64);
            let mut ys = vec![0.0; n * LANE_WIDTH];
            panel.axm1(&kernels, &xs, &mut ys).unwrap();
            for w in 0..2 {
                let x: Vec<f64> = (0..n).map(|i| xs[i * LANE_WIDTH + w]).collect();
                let mut want = vec![0.0; n];
                kernels
                    .tables()
                    .axm1(batch.view().try_get(1 + w).unwrap(), &x, &mut want)
                    .unwrap();
                for i in 0..n {
                    assert_eq!(ys[i * LANE_WIDTH + w].to_bits(), want[i].to_bits());
                }
            }
        }
    }

    /// `width` tensors of shape `(m, n)` with entries in [-1, 1], every
    /// fifth one zero, and lane vectors with negative and zero components.
    fn mixed_sign_panel<S: Scalar>(
        m: usize,
        n: usize,
        width: usize,
        seed: u64,
    ) -> (TensorBatch<S>, Vec<S>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batch = TensorBatch::<S>::random(m, n, width, &mut rng).unwrap();
        for v in batch.values_mut().iter_mut().step_by(5) {
            *v = S::ZERO;
        }
        let xs = (0..n * LANE_WIDTH)
            .map(|k| match k % 7 {
                3 => S::ZERO,
                _ => S::from_f64(rng.gen_range(-1.0..=1.0)),
            })
            .collect();
        (batch, xs)
    }

    fn check_compiled_panels<S: Scalar>(seed: u64) {
        let bits = |v: S| v.to_f64().to_bits();
        for &(m, n) in COMPILED_SHAPES {
            let kernels = BatchedKernels::new(m, n);
            for width in [LANE_WIDTH, 3] {
                let at = format!("{} ({m},{n}) width {width}", S::NAME);
                let (batch, xs) = mixed_sign_panel::<S>(m, n, width, seed + (10 * m + n) as u64);
                let panel = LanePanel::gather(&kernels, batch.view(), 0, width).unwrap();
                let mut out = [S::ZERO; LANE_WIDTH];
                let mut ys = vec![S::ZERO; n * LANE_WIDTH];
                panel.axm(&kernels, &xs, &mut out).unwrap();
                panel.axm1(&kernels, &xs, &mut ys).unwrap();
                for w in 0..width {
                    let a = batch.view().try_get(w).unwrap();
                    let x: Vec<S> = (0..n).map(|i| xs[i * LANE_WIDTH + w]).collect();
                    let want = kernels.tables().axm(a, &x).unwrap();
                    assert_eq!(bits(out[w]), bits(want), "{at}: axm lane {w}");
                    let mut want_y = vec![S::ZERO; n];
                    kernels.tables().axm1(a, &x, &mut want_y).unwrap();
                    for i in 0..n {
                        assert_eq!(
                            bits(ys[i * LANE_WIDTH + w]),
                            bits(want_y[i]),
                            "{at}: axm1 lane {w} component {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn compiled_panels_are_bitwise_identical_to_scalar_tables() {
        check_compiled_panels::<f32>(31);
        check_compiled_panels::<f64>(32);
    }

    #[test]
    fn dispatch_hits_every_compiled_shape_and_misses_others() {
        for &(m, n) in COMPILED_SHAPES.iter().chain(&[(5, 4)]) {
            let compiled = COMPILED_SHAPES.contains(&(m, n));
            let kernels = BatchedKernels::new(m, n);
            let (batch, xs) = mixed_sign_panel::<f64>(m, n, 2, 40);
            let panel = LanePanel::gather(&kernels, batch.view(), 0, 2).unwrap();
            let mut out = [0.0; LANE_WIDTH];
            let mut ys = vec![0.0; n * LANE_WIDTH];
            assert_eq!(compiled_axm(m, n, &panel.soa, &xs, &mut out), compiled);
            assert_eq!(compiled_axm1(m, n, &panel.soa, &xs, &mut ys), compiled);
            // A buffer of the wrong length misses and leaves the output alone.
            let mut short = vec![7.0; n * LANE_WIDTH - 1];
            assert!(!compiled_axm1(m, n, &panel.soa, &xs, &mut short));
            assert!(short.iter().all(|&v| v == 7.0));
        }
        assert!(COMPILED_SHAPES.contains(&(4, 3)));
    }

    #[test]
    fn gather_rejects_bad_widths_and_shapes() {
        let kernels = BatchedKernels::new(4, 3);
        let batch = random_batch(4, 3, 4, 7);
        assert!(LanePanel::gather(&kernels, batch.view(), 0, 0).is_err());
        assert!(LanePanel::gather(&kernels, batch.view(), 0, LANE_WIDTH + 1).is_err());
        assert!(LanePanel::gather(&kernels, batch.view(), 2, 3).is_err());
        let wrong = random_batch(3, 3, 2, 8);
        assert!(matches!(
            LanePanel::gather(&kernels, wrong.view(), 0, 2),
            Err(Error::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn load_replaces_one_lane_and_rejects_bad_lanes_and_shapes() {
        let kernels = BatchedKernels::new(4, 3);
        let batch = random_batch(4, 3, 4, 17);
        let mut panel = LanePanel::gather(&kernels, batch.view(), 0, 3).unwrap();
        panel.load(&kernels, 1, batch.get(3)).unwrap();
        let want =
            LanePanel::gather_views(&kernels, &[batch.get(0), batch.get(3), batch.get(2)]).unwrap();
        assert_eq!(panel.soa, want.soa);

        let before = panel.soa.clone();
        assert!(matches!(
            panel.load(&kernels, LANE_WIDTH, batch.get(0)),
            Err(Error::IndexOutOfBounds { .. })
        ));
        let wrong = random_batch(3, 3, 1, 18);
        assert!(matches!(
            panel.load(&kernels, 0, wrong.get(0)),
            Err(Error::ShapeMismatch { .. })
        ));
        assert_eq!(panel.soa, before);
    }

    #[test]
    fn gather_views_matches_arena_gather() {
        let kernels = BatchedKernels::new(4, 3);
        let batch = random_batch(4, 3, 3, 9);
        let views: Vec<_> = (0..3).map(|i| batch.view().try_get(i).unwrap()).collect();
        let a = LanePanel::gather(&kernels, batch.view(), 0, 3).unwrap();
        let b = LanePanel::gather_views(&kernels, &views).unwrap();
        assert_eq!(a.soa.len(), b.soa.len());
        for (x, y) in a.soa.iter().zip(&b.soa) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn scalar_fallback_matches_precomputed_and_reports_name() {
        // (4, 3) runs the compiled scalar kernels, (5, 4) the tables.
        let mut rng = StdRng::seed_from_u64(11);
        for (m, n) in [(4, 3), (5, 4)] {
            let kernels = BatchedKernels::new(m, n);
            let a = SymTensor::<f64>::random(m, n, &mut rng);
            let x: Vec<f64> = (0..n).map(|i| 0.3 - 0.45 * i as f64).collect();
            let via_batched = TensorKernels::axm(&kernels, a.view(), &x).unwrap();
            let via_tables = kernels.tables().axm(&a, &x).unwrap();
            assert_eq!(via_batched.to_bits(), via_tables.to_bits(), "({m},{n})");
            let mut y_batched = vec![0.0; n];
            let mut y_tables = vec![0.0; n];
            TensorKernels::axm1(&kernels, a.view(), &x, &mut y_batched).unwrap();
            kernels.tables().axm1(&a, &x, &mut y_tables).unwrap();
            for (g, w) in y_batched.iter().zip(&y_tables) {
                assert_eq!(g.to_bits(), w.to_bits(), "({m},{n})");
            }
            assert_eq!(TensorKernels::<f64>::name(&kernels), "batched");
            let wrong = SymTensor::<f64>::random(3, 3, &mut rng);
            assert!(TensorKernels::axm(&kernels, wrong.view(), &x).is_err());
        }
    }

    #[test]
    fn wrong_lane_vector_lengths_error() {
        let kernels = BatchedKernels::new(4, 3);
        let batch = random_batch(4, 3, 2, 13);
        let panel = LanePanel::gather(&kernels, batch.view(), 0, 2).unwrap();
        let xs = vec![0.0; 3 * LANE_WIDTH - 1];
        let mut out = [0.0; LANE_WIDTH];
        assert!(panel.axm(&kernels, &xs, &mut out).is_err());
        let good = vec![0.5; 3 * LANE_WIDTH];
        let mut short = vec![0.0; 3];
        assert!(panel.axm1(&kernels, &good, &mut short).is_err());
    }
}
