//! Command-line flags, declared by the usage text that documents them.
//!
//! Every binary of the workspace (`rjamctl`, `rjamd`, `check` and the
//! figure binaries) prints a usage text, and that text is its only flag
//! list: [`parse`] reads the flags an argument vector may carry out of it,
//! so a binary accepts exactly the flags its usage names.
//!
//! In the usage text, the first mention of `--name` declares the flag:
//!
//! * followed by a placeholder (`--frames N`, `--stat median|min`), a flag
//!   that takes the next argument as its value;
//! * followed by `|`, `]`, `)` or the end of its line (`[--local]`,
//!   `(--stdio | --socket PATH)`), a switch;
//! * written `--name[=X]`, a switch that may carry an attached value
//!   (`--progress` or `--progress=FILE`).
//!
//! An argument that starts with `-` is a flag, unless it is the value of
//! the flag before it; every other argument is a positional. The last
//! occurrence of a flag wins. Every error message names the flag it is
//! about.

use std::str::FromStr;

/// How a usage text declares one flag.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// Takes the next argument as its value.
    Valued,
    /// Takes no value.
    Switch,
    /// Takes no value, or one attached with `=`.
    Attached,
}

/// The kind of the first declaration of `name` (with its `--`) in `usage`.
fn declared(usage: &str, name: &str) -> Option<Kind> {
    let mut rest = usage;
    while let Some(at) = rest.find("--") {
        let word = &rest[at + 2..];
        let len = word
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .unwrap_or(word.len());
        let tail = &word[len..];
        rest = tail;
        if len == 0 || name.strip_prefix("--") != Some(&word[..len]) {
            continue;
        }
        if tail.starts_with("[=") {
            return Some(Kind::Attached);
        }
        return Some(match tail.trim_start_matches(' ').chars().next() {
            None | Some('\n' | '|' | ']' | ')') => Kind::Switch,
            Some(_) => Kind::Valued,
        });
    }
    None
}

/// A command line parsed against a usage text.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Flags {
    /// Every flag given, in order: its name (with `--`) and its value, if
    /// it carries one.
    set: Vec<(String, Option<String>)>,
    positional: Vec<String>,
}

impl Flags {
    /// Whether `flag` (named with its `--`) was given.
    pub fn has(&self, flag: &str) -> bool {
        self.set.iter().any(|(name, _)| name == flag)
    }

    /// The value of the last occurrence of `flag`; `None` when it was not
    /// given or, for a switch, given without a value.
    pub fn str(&self, flag: &str) -> Option<&str> {
        self.set
            .iter()
            .rev()
            .find(|(name, _)| name == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// The value of `flag` as a `T`, or `None` when it was not given. A
    /// value that does not parse is an error naming the flag.
    pub fn get<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.str(flag)
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot parse '{v}'")))
            .transpose()
    }

    /// [`Flags::get`] with `default` in place of an absent flag.
    pub fn get_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.get(flag)?.unwrap_or(default))
    }

    /// The positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

/// Parses `argv` (without the program name) against `usage`.
///
/// A flag `usage` does not declare, a valued flag without its value, and
/// an attached `=` on a flag not declared `--name[=X]` are errors; the
/// message names the flag.
pub fn parse(usage: &str, argv: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        if !arg.starts_with('-') {
            flags.positional.push(arg.clone());
            continue;
        }
        let (name, attached) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (arg.as_str(), None),
        };
        let value = match (declared(usage, name), attached) {
            (Some(Kind::Switch | Kind::Attached), None) => None,
            (Some(Kind::Valued), None) => Some(
                args.next()
                    .ok_or_else(|| format!("{name} needs a value"))?
                    .clone(),
            ),
            (Some(Kind::Attached), Some("")) => return Err(format!("{name} needs a value")),
            (Some(Kind::Attached), Some(value)) => Some(value.to_string()),
            _ => return Err(format!("unknown flag '{arg}'")),
        };
        flags.set.push((name.to_string(), value));
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "tool [--frames N] [--stat median|min] [--quiet] (--stdio | --socket PATH)
     [--progress[=FILE]] INPUT...
  --stdio    described again here, as a valued flag would be";

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parsed(s: &str) -> Result<Flags, String> {
        parse(USAGE, &argv(s))
    }

    #[test]
    fn usage_tokens_declare_each_kind() {
        for (name, kind) in [
            ("--frames", Some(Kind::Valued)),
            ("--stat", Some(Kind::Valued)),
            ("--socket", Some(Kind::Valued)),
            ("--quiet", Some(Kind::Switch)),
            // The first mention declares: the later description line does
            // not turn the switch into a valued flag.
            ("--stdio", Some(Kind::Switch)),
            ("--progress", Some(Kind::Attached)),
            ("--frame", None),
            ("--", None),
        ] {
            assert_eq!(declared(USAGE, name), kind, "{name}");
        }
        assert_eq!(declared("x --last", "--last"), Some(Kind::Switch));
        assert_eq!(declared("x --last\n", "--last"), Some(Kind::Switch));
    }

    #[test]
    fn reads_values_switches_and_positionals_in_any_order() {
        let f = parsed("a.json --frames 250 --quiet b.json --stat min --progress").unwrap();
        assert_eq!(f.positional(), ["a.json", "b.json"]);
        assert_eq!(f.get::<usize>("--frames"), Ok(Some(250)));
        assert_eq!(f.str("--stat"), Some("min"));
        assert!(f.has("--quiet") && f.has("--progress"));
        assert_eq!(f.str("--progress"), None);
        assert!(!f.has("--stdio"));
        assert_eq!(f.get_or("--socket", "none".to_string()).unwrap(), "none");
        assert_eq!(f.get_or("--frames", 7usize), Ok(250));
        // A value may look like a flag.
        let f = parsed("--stat -3 x").unwrap();
        assert_eq!(f.str("--stat"), Some("-3"));
        assert_eq!(f.positional(), ["x"]);
        assert_eq!(parsed("").unwrap(), Flags::default());
    }

    #[test]
    fn last_occurrence_wins() {
        let f = parsed("--frames 1 --frames 2 --progress=a.ndjson --progress").unwrap();
        assert_eq!(f.get::<u32>("--frames"), Ok(Some(2)));
        assert_eq!(f.str("--progress"), None);
        let f = parsed("--progress --progress=b.ndjson").unwrap();
        assert_eq!(f.str("--progress"), Some("b.ndjson"));
    }

    #[test]
    fn every_error_names_the_flag() {
        for (args, want) in [
            ("--frame 250", "unknown flag '--frame'"),
            ("-x", "unknown flag '-x'"),
            ("-", "unknown flag '-'"),
            ("--", "unknown flag '--'"),
            ("--frames=3", "unknown flag '--frames=3'"),
            ("--quiet=yes", "unknown flag '--quiet=yes'"),
            ("a --frames", "--frames needs a value"),
            ("--progress=", "--progress needs a value"),
        ] {
            assert_eq!(parsed(args), Err(want.to_string()), "{args}");
        }
        let f = parsed("--frames abc").unwrap();
        assert_eq!(
            f.get::<usize>("--frames"),
            Err("--frames: cannot parse 'abc'".to_string())
        );
        assert!(f.get_or("--frames", 1usize).is_err());
    }
}
