//! # rjam-bench — evaluation harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus hermetic
//! micro/macro benchmarks (see `benches/`) driven by the in-repo
//! [`harness`] — no criterion, no network. Figure binaries print the same
//! rows/series the paper reports; EXPERIMENTS.md records paper-vs-measured
//! for each, and each bench target emits a machine-readable
//! `BENCH_<suite>.json`.
//!
//! Every binary accepts `--frames N` / `--seconds S` style overrides
//! (parsed by [`Args`]) so the default quick runs can be scaled up to the
//! paper's full sample counts. A binary accepts only the flags it reads:
//! an unknown flag, a flag without a value or a value that does not
//! parse exits with code 2.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

/// Minimal `--key value` argument parser for the figure binaries.
#[derive(Clone, Debug, Default)]
pub struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    /// Parses the process arguments: `--flag value` pairs, each flag one
    /// of `flags` (named without the leading `--`). Anything else is a
    /// usage error: the binary prints a message naming the argument and
    /// exits with code 2.
    pub fn parse(flags: &[&str]) -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::from_argv(&argv, flags).unwrap_or_else(|e| usage_exit(&e))
    }

    fn from_argv(argv: &[String], flags: &[&str]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut argv = argv.iter();
        while let Some(arg) = argv.next() {
            let Some(key) = arg.strip_prefix("--").filter(|k| flags.contains(k)) else {
                let accepted: Vec<String> = flags.iter().map(|f| format!("--{f}")).collect();
                let accepted = if accepted.is_empty() {
                    "none".to_string()
                } else {
                    accepted.join(", ")
                };
                return Err(format!("unknown flag '{arg}' (accepted: {accepted})"));
            };
            let value = argv
                .next()
                .ok_or_else(|| format!("flag {arg} needs a value"))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Args { pairs })
    }

    /// Fetches an option with a default. A value that does not parse as
    /// `T` is a usage error: the binary prints a message naming the flag
    /// and exits with code 2.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key, default)
            .unwrap_or_else(|e| usage_exit(&e))
    }

    fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.pairs.iter().rev().find(|(k, _)| k == key) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("flag --{key}: cannot parse '{v}'")),
        }
    }
}

fn usage_exit(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

/// Prints a standard figure header.
pub fn figure_header(id: &str, title: &str, paper_note: &str) {
    println!("==================================================================");
    println!("{id}: {title}");
    println!("paper: {paper_note}");
    println!("==================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_with_default() {
        let args = Args {
            pairs: vec![("frames".into(), "250".into())],
        };
        assert_eq!(args.get("frames", 100usize), 250);
        assert_eq!(args.get("seconds", 5.0f64), 5.0);
    }

    #[test]
    fn last_occurrence_wins() {
        let args = Args {
            pairs: vec![("n".into(), "1".into()), ("n".into(), "2".into())],
        };
        assert_eq!(args.get("n", 0u32), 2);
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parses_declared_flags() {
        let args = Args::from_argv(
            &argv(&["--frames", "250", "--fa-samples", "9"]),
            &["frames", "fa-samples"],
        )
        .expect("declared flags parse");
        assert_eq!(args.get("frames", 1000usize), 250);
        assert_eq!(args.get("fa-samples", 0usize), 9);
        let none = Args::from_argv(&[], &["frames"]).expect("no arguments parse");
        assert_eq!(none.get("frames", 1000usize), 1000);
    }

    #[test]
    fn unknown_flag_is_an_error_naming_it() {
        let err =
            Args::from_argv(&argv(&["--frame", "250"]), &["frames", "fa-samples"]).unwrap_err();
        assert_eq!(
            err,
            "unknown flag '--frame' (accepted: --frames, --fa-samples)"
        );
        let err = Args::from_argv(&argv(&["250"]), &["frames"]).unwrap_err();
        assert_eq!(err, "unknown flag '250' (accepted: --frames)");
        let err = Args::from_argv(&argv(&["--frames", "3"]), &[]).unwrap_err();
        assert_eq!(err, "unknown flag '--frames' (accepted: none)");
    }

    #[test]
    fn flag_without_value_is_an_error_naming_it() {
        let err = Args::from_argv(
            &argv(&["--seconds", "3", "--cadence"]),
            &["seconds", "cadence"],
        )
        .unwrap_err();
        assert_eq!(err, "flag --cadence needs a value");
    }

    #[test]
    fn unparsable_value_is_an_error_naming_the_flag() {
        let args = Args {
            pairs: vec![("frames".into(), "abc".into())],
        };
        assert_eq!(
            args.try_get("frames", 7usize).unwrap_err(),
            "flag --frames: cannot parse 'abc'"
        );
        let args = Args {
            pairs: vec![("seconds".into(), "-".into())],
        };
        assert!(args.try_get("seconds", 1.0f64).is_err());
    }
}
