//! Minimal argument parsing: positionals plus `--key value` / `--flag`
//! options, hand-rolled so the workspace stays within its dependency
//! policy. Unknown options are errors; every command documents its own
//! option set.

use crate::CmdError;
use std::collections::BTreeMap;

/// Parsed command-line arguments: positional values in order plus a map of
/// `--key` options (valueless flags map to an empty string).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// Positional arguments in order of appearance.
    pub positional: Vec<String>,
    /// `--key value` pairs; bare flags store `""`.
    pub options: BTreeMap<String, String>,
}

impl Args {
    /// Parse raw arguments against the sets of options that take a value
    /// and boolean flags; anything starting with `--` outside both sets is
    /// rejected.
    pub fn parse<I: IntoIterator<Item = String>>(
        raw: I,
        value_opts: &[&str],
        flag_opts: &[&str],
    ) -> Result<Args, CmdError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter();
        while let Some(tok) = iter.next() {
            if let Some(name) = tok.strip_prefix("--") {
                if flag_opts.contains(&name) {
                    args.options.insert(name.to_string(), String::new());
                } else if value_opts.contains(&name) {
                    let value = iter
                        .next()
                        .ok_or_else(|| CmdError(format!("--{name} requires a value")))?;
                    args.options.insert(name.to_string(), value);
                } else {
                    return Err(CmdError(format!("unknown option --{name}")));
                }
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// Positional argument `i`, or an error naming it.
    pub fn positional(&self, i: usize, name: &str) -> Result<&str, CmdError> {
        self.positional
            .get(i)
            .map(|s| s.as_str())
            .ok_or_else(|| CmdError(format!("missing required argument <{name}>")))
    }

    /// Option value as a string, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(|s| s.as_str())
    }

    /// True if a flag was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// Parse an option into any `FromStr` type, if present.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CmdError> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| CmdError(format!("invalid value for --{name}: {v:?}")))
        };
        self.get(name).map(parse).transpose()
    }

    /// Parse an option into any `FromStr` type, with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CmdError> {
        Ok(self.get_opt(name)?.unwrap_or(default))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_and_options_mix() {
        let a = Args::parse(
            sv(&["input.txt", "--seed", "42", "--refine", "out.txt"]),
            &["seed"],
            &["refine"],
        )
        .unwrap();
        assert_eq!(a.positional, vec!["input.txt", "out.txt"]);
        assert_eq!(a.get("seed"), Some("42"));
        assert!(a.flag("refine"));
        assert!(!a.flag("verbose"));
    }

    #[test]
    fn unknown_option_rejected() {
        let e = Args::parse(sv(&["--bogus"]), &[], &[]).unwrap_err();
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn missing_value_rejected() {
        let e = Args::parse(sv(&["--seed"]), &["seed"], &[]).unwrap_err();
        assert!(e.to_string().contains("requires a value"));
    }

    #[test]
    fn parsed_values_with_defaults() {
        let a = Args::parse(sv(&["--count", "7"]), &["count"], &[]).unwrap();
        assert_eq!(a.get_parsed("count", 1usize).unwrap(), 7);
        assert_eq!(a.get_parsed("missing", 3usize).unwrap(), 3);
        let bad = Args::parse(sv(&["--count", "x"]), &["count"], &[]).unwrap();
        assert!(bad.get_parsed::<usize>("count", 1).is_err());
    }

    #[test]
    fn missing_positional_named_in_error() {
        let a = Args::parse(sv(&[]), &[], &[]).unwrap();
        let e = a.positional(0, "input").unwrap_err();
        assert!(e.to_string().contains("<input>"));
    }
}
