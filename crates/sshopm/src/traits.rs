//! The [`Solver`] abstraction: one object-safe trait behind SS-HOPM,
//! GEAP and QRST, so every batched layer — [`crate::BatchSolver`], the
//! execution backends, resilient re-solves and the DW-MRI fiber
//! extraction — dispatches per-tensor iteration without naming a
//! concrete algorithm.
//!
//! The trait owns the per-tensor contract: initialize from a starting
//! vector, iterate, test convergence, and report every iterate to an
//! [`IterationObserver`] (from which the provided [`Solver::solve_trace`]
//! builds a [`ConvergenceTrace`]). Implementations differ only in *how*
//! they step:
//!
//! * [`SsHopm`] — the paper's shifted power iteration (a fixed, convex or
//!   concave shift resolved once per tensor, or an adaptive shift
//!   re-derived at every iterate);
//! * [`crate::Geap`] — per-iteration shift from the projected Hessian
//!   spectrum (Kolda & Mayo's adaptive method);
//! * [`crate::Qrst`] — orthogonal-similarity QR iteration on a dense
//!   copy (Batselier & Wong), which reaches eigenpairs power iteration
//!   misses.

use crate::shift::Shift;
use crate::solver::{
    Eigenpair, IterationObserver, IterationPolicy, IterationUpdate, NoopObserver, SsHopm,
};
use symtensor::kernels::{GeneralKernels, TensorKernels};
use symtensor::{Scalar, SymTensorRef};
use telemetry::{ConvergenceTrace, IterationRecord};

/// A per-tensor eigenpair solver: the seam every batched layer
/// dispatches through.
///
/// Object safety is deliberate — backends hold `&dyn Solver<S>` so one
/// `solve_batch` signature serves every algorithm. The required method
/// is the allocation-free workhorse; the provided methods wrap it with
/// a no-op observer, a fresh scratch buffer, or a recorded
/// [`ConvergenceTrace`].
pub trait Solver<S: Scalar>: Sync {
    /// Short machine name (`"sshopm"`, `"geap"`, `"qrst"`) used in
    /// reports and spec strings.
    fn name(&self) -> &'static str;

    /// The iteration policy (convergence tolerance / iteration cap).
    fn policy(&self) -> IterationPolicy;

    /// The shift policy this solver resolves once per tensor and then
    /// holds for every iteration ([`Shift::fixed_value`]), if it has one:
    /// SS-HOPM under a fixed, convex or concave shift. Every solve of one
    /// tensor then runs the same update rule, which is what the lockstep
    /// lane driver, and the simulated GPU that takes its eigenpairs from
    /// it, need. `None` (the default) for shifts re-derived per iterate
    /// and for other iterations.
    fn tensor_shift(&self) -> Option<Shift> {
        None
    }

    /// Solve one tensor from one starting vector, reporting every
    /// iterate (including the initial one, `k = 0`) to `observer` and
    /// reusing `scratch` as the iteration work buffer.
    ///
    /// A mismatched or zero `x0`, or a kernel error (e.g. a shape-checked
    /// kernel handed the wrong tensor), yields a *poisoned* eigenpair
    /// (`lambda = NaN`, `converged = false`, `iterations = 0`) so batch
    /// drivers fail per-tensor instead of aborting the process.
    fn solve_one(
        &self,
        kernels: &dyn TensorKernels<S>,
        a: SymTensorRef<'_, S>,
        x0: &[S],
        observer: &mut dyn IterationObserver<S>,
        scratch: &mut Vec<S>,
    ) -> Eigenpair<S>;

    /// [`solve_one`](Self::solve_one) with a no-op observer and a fresh
    /// scratch buffer: the convenience entry point for one-off solves.
    fn solve_pair(&self, a: SymTensorRef<'_, S>, x0: &[S]) -> Eigenpair<S> {
        self.solve_one(&GeneralKernels, a, x0, &mut NoopObserver, &mut Vec::new())
    }

    /// Solve and record a full per-iteration [`ConvergenceTrace`]
    /// (λ, shift, and — when `with_residuals` — the eigenpair residual,
    /// which costs one extra `A·xᵐ⁻¹` per iteration). Works for every
    /// solver because the trace is built from the observer stream.
    fn solve_trace(
        &self,
        a: SymTensorRef<'_, S>,
        x0: &[S],
        with_residuals: bool,
    ) -> (Eigenpair<S>, ConvergenceTrace) {
        let mut trace = ConvergenceTrace::new();
        let mut recorder = |u: &IterationUpdate<'_, S>| {
            let residual = with_residuals.then(|| {
                let probe = Eigenpair {
                    lambda: S::from_f64(u.lambda),
                    x: u.x.to_vec(),
                    iterations: u.k,
                    converged: false,
                    alpha: u.alpha,
                };
                probe.residual(a)
            });
            trace.push(IterationRecord {
                k: u.k,
                lambda: u.lambda,
                alpha: u.alpha,
                residual,
            });
        };
        let pair = self.solve_one(&GeneralKernels, a, x0, &mut recorder, &mut Vec::new());
        (pair, trace)
    }
}

/// Solvers pass through shared references, so `&S` (and in particular
/// `&dyn Solver<_>`) is itself a [`Solver`] — this is what lets
/// [`crate::BatchSolver`] stay generic while backends hand it a trait
/// object.
impl<S: Scalar, T: Solver<S> + ?Sized> Solver<S> for &T {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn policy(&self) -> IterationPolicy {
        (**self).policy()
    }

    fn tensor_shift(&self) -> Option<Shift> {
        (**self).tensor_shift()
    }

    fn solve_one(
        &self,
        kernels: &dyn TensorKernels<S>,
        a: SymTensorRef<'_, S>,
        x0: &[S],
        observer: &mut dyn IterationObserver<S>,
        scratch: &mut Vec<S>,
    ) -> Eigenpair<S> {
        (**self).solve_one(kernels, a, x0, observer, scratch)
    }
}

/// [`Box`]ed solvers delegate too, so `SolverSpec::build` results plug
/// into every generic call site directly.
impl<S: Scalar, T: Solver<S> + ?Sized> Solver<S> for Box<T> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn policy(&self) -> IterationPolicy {
        (**self).policy()
    }

    fn tensor_shift(&self) -> Option<Shift> {
        (**self).tensor_shift()
    }

    fn solve_one(
        &self,
        kernels: &dyn TensorKernels<S>,
        a: SymTensorRef<'_, S>,
        x0: &[S],
        observer: &mut dyn IterationObserver<S>,
        scratch: &mut Vec<S>,
    ) -> Eigenpair<S> {
        (**self).solve_one(kernels, a, x0, observer, scratch)
    }
}

/// SS-HOPM as a [`Solver`]: the same iteration [`SsHopm::solve_with`]
/// runs, so both paths return the same bits (pinned by the
/// solver-parity suite).
impl<S: Scalar> Solver<S> for SsHopm {
    fn name(&self) -> &'static str {
        "sshopm"
    }

    fn policy(&self) -> IterationPolicy {
        SsHopm::policy(self)
    }

    fn tensor_shift(&self) -> Option<Shift> {
        match self.shift() {
            Shift::Adaptive => None,
            shift => Some(shift),
        }
    }

    fn solve_one(
        &self,
        kernels: &dyn TensorKernels<S>,
        a: SymTensorRef<'_, S>,
        x0: &[S],
        observer: &mut dyn IterationObserver<S>,
        scratch: &mut Vec<S>,
    ) -> Eigenpair<S> {
        self.iterate(kernels, a, x0, observer, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use symtensor::SymTensor;

    fn random_tensor(seed: u64) -> SymTensor<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        SymTensor::random(4, 3, &mut rng)
    }

    #[test]
    fn trait_path_is_bitwise_identical_to_inherent_sshopm() {
        let a = random_tensor(7);
        let x0 = [0.3, -0.5, 0.8];
        let solver = SsHopm::new(Shift::Convex).with_tolerance(1e-12);
        let inherent = solver.solve(&a, &x0);
        let dynamic: &dyn Solver<f64> = &solver;
        let via_trait = dynamic.solve_pair(a.view(), &x0);
        assert_eq!(inherent.lambda.to_bits(), via_trait.lambda.to_bits());
        assert_eq!(inherent.iterations, via_trait.iterations);
        assert_eq!(inherent.converged, via_trait.converged);
        for (i, t) in inherent.x.iter().zip(&via_trait.x) {
            assert_eq!(i.to_bits(), t.to_bits());
        }
    }

    /// The simulated GPU's rule reads `tensor_shift`: only a fixed shift
    /// is one `α` for every tensor, and the adaptive one is not even a
    /// constant of the tensor.
    #[test]
    fn fixed_shift_exposed_only_for_fixed_policies() {
        let fixed: &dyn Solver<f64> = &SsHopm::new(Shift::Fixed(1.5));
        assert_eq!(fixed.tensor_shift(), Some(Shift::Fixed(1.5)));
        for shift in [Shift::Convex, Shift::Concave] {
            let s = SsHopm::new(shift);
            let d: &dyn Solver<f64> = &s;
            assert_eq!(d.tensor_shift(), Some(shift));
        }
        let adaptive: &dyn Solver<f64> = &SsHopm::new(Shift::Adaptive);
        assert_eq!(adaptive.tensor_shift(), None);
    }

    #[test]
    fn reference_and_box_delegate() {
        let solver = SsHopm::new(Shift::Fixed(0.5));
        let by_ref = &solver;
        assert_eq!(Solver::<f64>::name(&by_ref), "sshopm");
        assert_eq!(
            Solver::<f64>::tensor_shift(&by_ref),
            Some(Shift::Fixed(0.5))
        );
        let boxed: Box<dyn Solver<f64>> = Box::new(SsHopm::new(Shift::Convex));
        assert_eq!(boxed.name(), "sshopm");
        assert_eq!(boxed.policy(), solver.policy());
        assert_eq!(boxed.tensor_shift(), Some(Shift::Convex));
    }
}
