//! The [`SolverSpec`] string grammar — `sshopm`, `geap`, `qrst` — the
//! solver-selection analogue of the backend crate's `BackendSpec`. CLIs
//! and benchmark drivers parse one token into a spec, then
//! [`SolverSpec::build`] it into a boxed [`Solver`] under the caller's
//! [`Shift`], which is the one place a shift is given.

use crate::geap::Geap;
use crate::qrst::Qrst;
use crate::shift::Shift;
use crate::solver::{IterationPolicy, SsHopm};
use crate::traits::Solver;
use symtensor::Scalar;

/// The forms a spec string may take, quoted in every parse error so the
/// message names the valid alternatives.
const VALID_FORMS: &str = "expected \"sshopm\", \"geap\" or \"qrst\"";

/// A parse error for a malformed solver spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverSpecError(pub String);

impl std::fmt::Display for SolverSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SolverSpecError {}

/// A declarative solver choice, parsed from `sshopm`, `geap` or `qrst`.
///
/// No spec carries a parameter: `sshopm` runs under the shift the caller
/// passes to [`build`](SolverSpec::build) (the CLI's `--shift`,
/// [`Shift::Convex`] by default in the fiber pipeline), so the default
/// spec is exactly the pre-trait solver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolverSpec {
    /// Shifted power iteration under the caller's shift policy.
    #[default]
    SsHopm,
    /// Adaptive-shift GEAP (per-iteration projected-Hessian shift).
    Geap,
    /// Orthogonal-similarity QR iteration on a dense copy.
    Qrst,
}

impl SolverSpec {
    /// Parse a spec string. Errors are descriptive and name the valid
    /// alternatives.
    pub fn parse(s: &str) -> Result<SolverSpec, SolverSpecError> {
        let (head, param) = match s.split_once(':') {
            Some((head, param)) => (head, Some(param)),
            None => (s, None),
        };
        let spec = match head {
            "sshopm" => SolverSpec::SsHopm,
            "geap" => SolverSpec::Geap,
            "qrst" => SolverSpec::Qrst,
            other => {
                return Err(SolverSpecError(format!(
                    "unknown solver {other:?}: {VALID_FORMS}"
                )))
            }
        };
        match param {
            None => Ok(spec),
            Some(v) => Err(SolverSpecError(format!(
                "solver {head:?} takes no parameter, got {v:?}: {VALID_FORMS}"
            ))),
        }
    }

    /// Build the solver this spec describes. `shift` is the shift policy
    /// `sshopm` runs under (`geap` and `qrst` pick their own); `policy`
    /// applies to every solver.
    pub fn build<S: Scalar>(&self, shift: Shift, policy: IterationPolicy) -> Box<dyn Solver<S>> {
        match *self {
            SolverSpec::SsHopm => Box::new(SsHopm::new(shift).with_policy(policy)),
            SolverSpec::Geap => Box::new(Geap::new().with_policy(policy)),
            SolverSpec::Qrst => Box::new(Qrst::new().with_policy(policy)),
        }
    }

    /// The solver's short machine name (matches [`Solver::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            SolverSpec::SsHopm => "sshopm",
            SolverSpec::Geap => "geap",
            SolverSpec::Qrst => "qrst",
        }
    }
}

impl std::fmt::Display for SolverSpec {
    /// The canonical spec string; parsing it back yields the same value.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for SolverSpec {
    type Err = SolverSpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        SolverSpec::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_documented_grammar() {
        assert_eq!(SolverSpec::parse("sshopm"), Ok(SolverSpec::SsHopm));
        assert_eq!(SolverSpec::parse("geap"), Ok(SolverSpec::Geap));
        assert_eq!(SolverSpec::parse("qrst"), Ok(SolverSpec::Qrst));
        assert_eq!(SolverSpec::default(), SolverSpec::SsHopm);
    }

    #[test]
    fn rejects_malformed_specs_with_errors_naming_alternatives() {
        for bad in [
            "",
            "sshopm:",
            "sshopm:abc",
            "sshopm:0.5",
            "sshopm:1:2",
            "sshopm:nan",
            "geap:1",
            "qrst:x",
            "newton",
            ":sshopm",
        ] {
            let err = match SolverSpec::parse(bad) {
                Err(e) => e,
                Ok(spec) => panic!("{bad:?} parsed as {spec:?}"),
            };
            let msg = err.to_string();
            for needle in ["\"sshopm\"", "geap", "qrst"] {
                assert!(
                    msg.contains(needle),
                    "error for {bad:?} missing {needle}: {msg}"
                );
            }
        }
        // A shift parameter is refused by name: the shift is the caller's.
        let err = SolverSpec::parse("sshopm:0.5").unwrap_err();
        assert!(err
            .0
            .starts_with("solver \"sshopm\" takes no parameter, got \"0.5\""));
    }

    #[test]
    fn display_is_canonical_and_reparses() {
        for spec in [SolverSpec::SsHopm, SolverSpec::Geap, SolverSpec::Qrst] {
            let rendered = spec.to_string();
            assert_eq!(rendered.parse::<SolverSpec>(), Ok(spec), "{rendered}");
        }
    }

    #[test]
    fn build_honors_explicit_alpha_and_default_shift() {
        // The explicit alpha is the caller's fixed shift; sshopm runs
        // exactly the shift it is given, the convex default included.
        let policy = IterationPolicy::Fixed(7);
        for shift in [Shift::Fixed(1.5), Shift::Convex] {
            let sshopm = SolverSpec::SsHopm.build::<f64>(shift, policy);
            assert_eq!(sshopm.tensor_shift(), Some(shift));
            assert_eq!(sshopm.policy(), policy);
        }
        for (spec, name) in [(SolverSpec::Geap, "geap"), (SolverSpec::Qrst, "qrst")] {
            let solver = spec.build::<f64>(Shift::Convex, policy);
            assert_eq!(solver.name(), name);
            assert_eq!(solver.tensor_shift(), None);
            assert_eq!(solver.policy(), policy);
        }
    }
}
