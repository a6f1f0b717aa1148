//! The [`SolverSpec`] string grammar — `sshopm[:alpha]`, `geap`,
//! `qrst` — the solver-selection analogue of the backend crate's
//! `BackendSpec`. CLIs and benchmark drivers parse one token into a
//! spec, then [`SolverSpec::build`] it into a boxed [`Solver`].

use crate::geap::Geap;
use crate::qrst::Qrst;
use crate::shift::Shift;
use crate::solver::{IterationPolicy, SsHopm};
use crate::traits::Solver;
use symtensor::Scalar;

/// The forms a spec string may take, quoted in every parse error so the
/// message names the valid alternatives.
const VALID_FORMS: &str = "expected \"sshopm[:alpha]\", \"geap\" or \"qrst\"";

/// A parse error for a malformed solver spec string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolverSpecError(pub String);

impl std::fmt::Display for SolverSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for SolverSpecError {}

/// A declarative solver choice, parsed from a string such as `sshopm`,
/// `sshopm:2.5`, `geap` or `qrst`.
///
/// `sshopm` without an explicit alpha defers the shift choice to the
/// caller (the CLI's `--shift` option, [`Shift::Convex`] by default in
/// the fiber pipeline), so the default spec is exactly the pre-trait
/// solver configuration; `sshopm:ALPHA` pins [`Shift::Fixed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolverSpec {
    /// Shifted power iteration; `alpha: None` uses the caller's shift
    /// policy, `Some(a)` forces `Shift::Fixed(a)`.
    SsHopm {
        /// Explicit fixed shift, if the spec carried one.
        alpha: Option<f64>,
    },
    /// Adaptive-shift GEAP (per-iteration projected-Hessian shift).
    Geap,
    /// Orthogonal-similarity QR iteration on a dense copy.
    Qrst,
}

impl Default for SolverSpec {
    fn default() -> Self {
        SolverSpec::SsHopm { alpha: None }
    }
}

impl SolverSpec {
    /// Parse a spec string. Errors are descriptive and name the valid
    /// alternatives.
    pub fn parse(s: &str) -> Result<SolverSpec, SolverSpecError> {
        let mut parts = s.split(':');
        let head = parts.next().unwrap_or("");
        let param = parts.next();
        if parts.next().is_some() {
            return Err(SolverSpecError(format!(
                "too many \":\" segments in solver spec {s:?}: {VALID_FORMS}"
            )));
        }
        match head {
            "sshopm" => match param {
                None => Ok(SolverSpec::SsHopm { alpha: None }),
                Some(v) => match v.parse::<f64>() {
                    Ok(alpha) if alpha.is_finite() => Ok(SolverSpec::SsHopm { alpha: Some(alpha) }),
                    Ok(_) => Err(SolverSpecError(format!(
                        "invalid sshopm shift {v:?} in {s:?}: alpha must be a finite \
                         number, as in \"sshopm:2.5\"; {VALID_FORMS}"
                    ))),
                    Err(_) => Err(SolverSpecError(format!(
                        "invalid sshopm shift {v:?} in {s:?}: the parameter must be a \
                         float alpha, as in \"sshopm:2.5\"; {VALID_FORMS}"
                    ))),
                },
            },
            "geap" | "qrst" => {
                if let Some(v) = param {
                    return Err(SolverSpecError(format!(
                        "solver {head:?} takes no parameter, got {v:?}: {VALID_FORMS}"
                    )));
                }
                Ok(if head == "geap" {
                    SolverSpec::Geap
                } else {
                    SolverSpec::Qrst
                })
            }
            other => Err(SolverSpecError(format!(
                "unknown solver {other:?}: {VALID_FORMS}"
            ))),
        }
    }

    /// Build the solver this spec describes. `default_shift` is the
    /// shift policy used by `sshopm` when the spec carries no explicit
    /// alpha; `policy` applies to every solver.
    pub fn build<S: Scalar>(
        &self,
        default_shift: Shift,
        policy: IterationPolicy,
    ) -> Box<dyn Solver<S>> {
        match *self {
            SolverSpec::SsHopm { alpha } => {
                let shift = match alpha {
                    Some(a) => Shift::Fixed(a),
                    None => default_shift,
                };
                Box::new(SsHopm::new(shift).with_policy(policy))
            }
            SolverSpec::Geap => Box::new(Geap::new().with_policy(policy)),
            SolverSpec::Qrst => Box::new(Qrst::new().with_policy(policy)),
        }
    }

    /// The solver's short machine name (matches [`Solver::name`]).
    pub fn name(&self) -> &'static str {
        match self {
            SolverSpec::SsHopm { .. } => "sshopm",
            SolverSpec::Geap => "geap",
            SolverSpec::Qrst => "qrst",
        }
    }
}

impl std::fmt::Display for SolverSpec {
    /// The canonical spec string; parsing it back yields the same value.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverSpec::SsHopm { alpha: None } => write!(f, "sshopm"),
            SolverSpec::SsHopm { alpha: Some(a) } => write!(f, "sshopm:{a}"),
            SolverSpec::Geap => write!(f, "geap"),
            SolverSpec::Qrst => write!(f, "qrst"),
        }
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
        assert_eq!(
            SolverSpec::parse("sshopm"),
            Ok(SolverSpec::SsHopm { alpha: None })
        );
        assert_eq!(
            SolverSpec::parse("sshopm:2.5"),
            Ok(SolverSpec::SsHopm { alpha: Some(2.5) })
        );
        assert_eq!(
            SolverSpec::parse("sshopm:-1"),
            Ok(SolverSpec::SsHopm { alpha: Some(-1.0) })
        );
        assert_eq!(SolverSpec::parse("geap"), Ok(SolverSpec::Geap));
        assert_eq!(SolverSpec::parse("qrst"), Ok(SolverSpec::Qrst));
        assert_eq!(SolverSpec::default(), SolverSpec::SsHopm { alpha: None });
    }

    #[test]
    fn rejects_malformed_specs_with_errors_naming_alternatives() {
        for bad in [
            "",
            "sshopm:",
            "sshopm:abc",
            "sshopm:1:2",
            "sshopm:inf",
            "sshopm:-inf",
            "sshopm:nan",
            "sshopm:1e400",
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
            for needle in ["sshopm[:alpha]", "geap", "qrst"] {
                assert!(
                    msg.contains(needle),
                    "error for {bad:?} missing {needle}: {msg}"
                );
            }
        }
    }

    #[test]
    fn display_is_canonical_and_reparses() {
        for spec in [
            SolverSpec::SsHopm { alpha: None },
            SolverSpec::SsHopm { alpha: Some(0.0) },
            SolverSpec::SsHopm { alpha: Some(-3.25) },
            SolverSpec::Geap,
            SolverSpec::Qrst,
        ] {
            let rendered = spec.to_string();
            assert_eq!(rendered.parse::<SolverSpec>(), Ok(spec), "{rendered}");
        }
    }

    #[test]
    fn build_honors_explicit_alpha_and_default_shift() {
        let policy = IterationPolicy::Fixed(7);
        let fixed = SolverSpec::SsHopm { alpha: Some(1.5) }.build::<f64>(Shift::Convex, policy);
        assert_eq!(fixed.tensor_shift(), Some(Shift::Fixed(1.5)));
        assert_eq!(fixed.policy(), policy);
        let deferred = SolverSpec::SsHopm { alpha: None }.build::<f64>(Shift::Fixed(0.25), policy);
        assert_eq!(deferred.tensor_shift(), Some(Shift::Fixed(0.25)));
        for (spec, name) in [(SolverSpec::Geap, "geap"), (SolverSpec::Qrst, "qrst")] {
            let solver = spec.build::<f64>(Shift::Convex, policy);
            assert_eq!(solver.name(), name);
            assert_eq!(solver.tensor_shift(), None);
            assert_eq!(solver.policy(), policy);
        }
    }
}
