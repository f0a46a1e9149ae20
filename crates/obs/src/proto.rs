//! Versioned-protocol envelope: one typed boundary for every line- and
//! document-oriented JSON dialect in the workspace.
//!
//! Five wire protocols share this module:
//!
//! | protocol           | shape     | tag field | producer                    |
//! |--------------------|-----------|-----------|-----------------------------|
//! | `rjam-progress-v1` | NDJSON    | `v`       | engine progress stream      |
//! | `rjam-health-v1`   | NDJSON    | `v`       | online health monitor       |
//! | `rjam-job-v1`      | NDJSON    | `v`       | `rjamd` campaign service    |
//! | `rjam-metrics-v1`  | document  | `schema`  | metrics snapshot            |
//! | `rjam-trace-v1`    | document  | `schema`  | causal trace export         |
//!
//! Each gets a [`Protocol`] descriptor (name + version + the literal tag the
//! wire carries) and parses through [`Envelope`], which checks the tag once
//! and hands out the root [`Fields`] view: the typed field readers every
//! parser in the workspace uses, on the root and on any nested object.
//! Every failure is a [`ParseError`] —
//! a real enum, not an ad-hoc string — so validators and the daemon can
//! branch on *what* went wrong (wrong protocol vs. missing field vs. JSON
//! syntax) while operators still get the familiar rendered messages,
//! including the `line N:` prefix for NDJSON streams via
//! [`ParseError::Line`] and [`parse_ndjson`].

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;

/// A named, versioned wire protocol.
///
/// `tag` is the literal string carried on the wire (`"rjam-progress-v1"`);
/// it is stored pre-formatted because `const fn` cannot format, and a test
/// pins `tag == "{name}-v{version}"` for every descriptor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Protocol {
    /// Protocol family name without the version suffix (`"rjam-progress"`).
    pub name: &'static str,
    /// Protocol version (the `N` of `-vN`).
    pub version: u32,
    /// The full tag carried on the wire (`"rjam-progress-v1"`).
    pub tag: &'static str,
    /// The JSON field holding the tag: `"v"` for NDJSON streams, `"schema"`
    /// for whole-document protocols.
    pub tag_field: &'static str,
}

impl Protocol {
    /// Builds a descriptor. `tag` must equal `"{name}-v{version}"`.
    pub const fn new(
        name: &'static str,
        version: u32,
        tag: &'static str,
        tag_field: &'static str,
    ) -> Self {
        Protocol {
            name,
            version,
            tag,
            tag_field,
        }
    }

    /// The engine's live progress stream ([`crate::stream`]).
    pub const PROGRESS: Protocol = Protocol::new("rjam-progress", 1, "rjam-progress-v1", "v");
    /// The online health monitor's event stream ([`crate::health`]).
    pub const HEALTH: Protocol = Protocol::new("rjam-health", 1, "rjam-health-v1", "v");
    /// The `rjamd` campaign-service job protocol (`rjam-daemon`).
    pub const JOB: Protocol = Protocol::new("rjam-job", 1, "rjam-job-v1", "v");
    /// The metrics snapshot document ([`crate::snapshot`]).
    pub const METRICS: Protocol = Protocol::new("rjam-metrics", 1, "rjam-metrics-v1", "schema");
    /// The causal trace document ([`crate::trace`]).
    pub const TRACE: Protocol = Protocol::new("rjam-trace", 1, "rjam-trace-v1", "schema");
}

/// Why a protocol line or document failed to parse.
///
/// Rendered messages stay close to the historical string errors (operators
/// and tests see the same text), but callers can now branch on the variant.
#[derive(Clone, Debug, PartialEq)]
pub enum ParseError {
    /// The underlying JSON text did not parse (byte-offset message from
    /// [`json::parse`]).
    Json(String),
    /// The root value parsed but is not a JSON object.
    NotAnObject,
    /// The protocol tag field (`v` / `schema`) is absent or not a string.
    MissingSchema {
        /// The tag field that was expected (`"v"` or `"schema"`).
        field: &'static str,
    },
    /// The tag named a different protocol or version.
    WrongSchema {
        /// The tag actually found on the wire.
        found: String,
    },
    /// The event discriminator field is absent or not a string.
    MissingEvent {
        /// The discriminator field that was expected (usually `"ev"`).
        field: &'static str,
    },
    /// The event discriminator named no known event kind.
    UnknownEvent {
        /// The unrecognised kind.
        found: String,
    },
    /// A required field is missing or carries the wrong type.
    Field {
        /// Field name.
        field: String,
        /// What the protocol expected there (`"string"`, `"non-negative
        /// integer"`, ...).
        expected: &'static str,
    },
    /// A protocol-specific constraint the generic variants don't cover
    /// (hex-seed syntax, histogram shape, ...). The message is the full
    /// operator-facing text.
    Invalid(String),
    /// A failure at a specific line of an NDJSON stream (1-based); renders
    /// as `line N: <source>`.
    Line {
        /// 1-based line number.
        line: usize,
        /// The per-line failure.
        source: Box<ParseError>,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Json(e) => write!(f, "{e}"),
            ParseError::NotAnObject => write!(f, "root is not a JSON object"),
            ParseError::MissingSchema { field } => write!(f, "missing string field '{field}'"),
            ParseError::WrongSchema { found } => write!(f, "unsupported schema '{found}'"),
            ParseError::MissingEvent { field } => write!(f, "missing string field '{field}'"),
            ParseError::UnknownEvent { found } => write!(f, "unknown event kind '{found}'"),
            ParseError::Field { field, expected } => {
                write!(
                    f,
                    "missing or invalid field '{field}' (expected {expected})"
                )
            }
            ParseError::Invalid(msg) => write!(f, "{msg}"),
            ParseError::Line { line, source } => write!(f, "line {line}: {source}"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Line { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl ParseError {
    /// Shorthand for [`ParseError::Invalid`].
    pub fn invalid(msg: impl Into<String>) -> Self {
        ParseError::Invalid(msg.into())
    }

    /// Wraps a failure with its 1-based NDJSON line number.
    pub fn at_line(self, line: usize) -> Self {
        ParseError::Line {
            line,
            source: Box::new(self),
        }
    }
}

/// A tag-checked protocol object: the event discriminator and the root
/// [`Fields`] view.
#[derive(Clone, Debug)]
pub struct Envelope {
    fields: BTreeMap<String, Value>,
}

impl Envelope {
    /// Parses `text` as one protocol object and checks its tag against
    /// `proto`. Works for both NDJSON lines and whole documents.
    pub fn parse(proto: &Protocol, text: &str) -> Result<Self, ParseError> {
        Self::from_value(proto, json::parse(text).map_err(ParseError::Json)?)
    }

    /// Checks the tag of an already parsed protocol object, such as a
    /// document embedded in a field of another protocol's line.
    pub fn from_value(proto: &Protocol, root: Value) -> Result<Self, ParseError> {
        let Value::Object(fields) = root else {
            return Err(ParseError::NotAnObject);
        };
        let env = Envelope { fields };
        match env.fields.get(proto.tag_field).and_then(Value::as_str) {
            Some(tag) if tag == proto.tag => Ok(env),
            Some(other) => Err(ParseError::WrongSchema {
                found: other.to_string(),
            }),
            None => Err(ParseError::MissingSchema {
                field: proto.tag_field,
            }),
        }
    }

    /// The event discriminator (`ev` for every stream protocol).
    pub fn event(&self, field: &'static str) -> Result<&str, ParseError> {
        self.fields
            .get(field)
            .and_then(Value::as_str)
            .ok_or(ParseError::MissingEvent { field })
    }

    /// The typed field view of the root object.
    pub fn root(&self) -> Fields<'_> {
        Fields {
            map: &self.fields,
            label: None,
        }
    }
}

/// A borrowed JSON object with typed field readers: the one way the
/// workspace reads fields out of a protocol object or any object nested
/// in one.
///
/// A missing field, or one of the wrong type, is a [`ParseError::Field`]
/// naming it and what was expected there. A view made with a label
/// ([`Fields::labeled`], say `event 3`) prefixes its errors with it, as
/// do the views [`Fields::object`] hands out from it:
/// `event 3: missing or invalid field 'seq' (expected non-negative
/// integer)`.
#[derive(Clone, Debug)]
pub struct Fields<'a> {
    map: &'a BTreeMap<String, Value>,
    label: Option<String>,
}

impl<'a> Fields<'a> {
    /// An unlabeled view of `value`; [`ParseError::NotAnObject`] when it is
    /// not an object.
    pub fn of(value: &'a Value) -> Result<Self, ParseError> {
        let map = value.as_object().ok_or(ParseError::NotAnObject)?;
        Ok(Fields { map, label: None })
    }

    /// A view of `value` whose errors start with `label`; an error saying
    /// `<label> is not an object` when it is not one.
    pub fn labeled(value: &'a Value, label: String) -> Result<Self, ParseError> {
        match value.as_object() {
            Some(map) => Ok(Fields {
                map,
                label: Some(label),
            }),
            None => Err(ParseError::invalid(format!("{label} is not an object"))),
        }
    }

    fn error(&self, e: ParseError) -> ParseError {
        match &self.label {
            Some(label) => ParseError::invalid(format!("{label}: {e}")),
            None => e,
        }
    }

    fn read<T>(
        &self,
        field: &str,
        expected: &'static str,
        typed: impl FnOnce(&'a Value) -> Option<T>,
    ) -> Result<T, ParseError> {
        self.map.get(field).and_then(typed).ok_or_else(|| {
            self.error(ParseError::Field {
                field: field.to_string(),
                expected,
            })
        })
    }

    /// Raw access to an optional field.
    pub fn get(&self, field: &str) -> Option<&'a Value> {
        self.map.get(field)
    }

    /// Every field, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a String, &'a Value)> {
        self.map.iter()
    }

    /// A required string field.
    pub fn str(&self, field: &str) -> Result<&'a str, ParseError> {
        self.read(field, "string", Value::as_str)
    }

    /// A required non-negative integer field.
    pub fn u64(&self, field: &str) -> Result<u64, ParseError> {
        self.read(field, "non-negative integer", Value::as_u64)
    }

    /// A required integer field (a number without a fractional part).
    pub fn i64(&self, field: &str) -> Result<i64, ParseError> {
        self.read(field, "integer", |v| {
            v.as_f64().filter(|n| n.fract() == 0.0).map(|n| n as i64)
        })
    }

    /// A required number field.
    pub fn f64(&self, field: &str) -> Result<f64, ParseError> {
        self.read(field, "number", Value::as_f64)
    }

    /// A required boolean field.
    pub fn bool(&self, field: &str) -> Result<bool, ParseError> {
        self.read(field, "boolean", |v| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        })
    }

    /// A required array field.
    pub fn array(&self, field: &str) -> Result<&'a [Value], ParseError> {
        self.read(field, "array", Value::as_array)
    }

    /// A required array-of-numbers field.
    pub fn f64s(&self, field: &str) -> Result<Vec<f64>, ParseError> {
        self.read(field, "array of numbers", |v| {
            v.as_array()?.iter().map(Value::as_f64).collect()
        })
    }

    /// A required object field, as a view that keeps this one's label.
    pub fn object(&self, field: &str) -> Result<Fields<'a>, ParseError> {
        let map = self.read(field, "object", Value::as_object)?;
        Ok(Fields {
            map,
            label: self.label.clone(),
        })
    }

    /// A required 64-bit id serialised as a `"0x..."` hex string (the
    /// shared JSON dialect stores numbers as `f64`; ids and seeds need all
    /// 64 bits).
    pub fn hex_u64(&self, field: &str) -> Result<u64, ParseError> {
        parse_hex_u64(field, self.str(field)?).map_err(|e| self.error(e))
    }
}

/// Parses a 64-bit id from its `"0x..."` wire form; `what` names the field
/// in the error message.
pub fn parse_hex_u64(what: &str, s: &str) -> Result<u64, ParseError> {
    let hex = s.strip_prefix("0x").ok_or_else(|| {
        ParseError::invalid(format!("{what} '{s}' is not a 0x-prefixed hex string"))
    })?;
    u64::from_str_radix(hex, 16).map_err(|_| ParseError::invalid(format!("bad {what} '{s}'")))
}

/// Serialises a 64-bit id to its `"0x..."` wire form (with quotes).
pub fn hex_u64_json(v: u64) -> String {
    format!("\"0x{v:x}\"")
}

/// Parses a whole NDJSON stream with `parse_line`, wrapping the first
/// failure in [`ParseError::Line`].
///
/// Blank lines are rejected (a truncated write must not pass silently);
/// only a single trailing newline is tolerated.
pub fn parse_ndjson<T>(
    text: &str,
    mut parse_line: impl FnMut(&str) -> Result<T, ParseError>,
) -> Result<Vec<T>, ParseError> {
    let body = text.strip_suffix('\n').unwrap_or(text);
    if body.is_empty() {
        return Ok(Vec::new());
    }
    body.lines()
        .enumerate()
        .map(|(k, line)| parse_line(line).map_err(|e| e.at_line(k + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Protocol; 5] = [
        Protocol::PROGRESS,
        Protocol::HEALTH,
        Protocol::JOB,
        Protocol::METRICS,
        Protocol::TRACE,
    ];

    #[test]
    fn tags_match_name_and_version() {
        for p in ALL {
            assert_eq!(p.tag, format!("{}-v{}", p.name, p.version), "{p:?}");
            assert!(p.tag_field == "v" || p.tag_field == "schema", "{p:?}");
        }
    }

    #[test]
    fn envelope_checks_the_tag() {
        let p = Protocol::PROGRESS;
        let env = Envelope::parse(&p, r#"{"v":"rjam-progress-v1","ev":"snapshot"}"#).unwrap();
        assert_eq!(env.event("ev").unwrap(), "snapshot");

        let err = Envelope::parse(&p, r#"{"v":"rjam-progress-v2"}"#).unwrap_err();
        assert_eq!(
            err,
            ParseError::WrongSchema {
                found: "rjam-progress-v2".into()
            }
        );
        assert_eq!(err.to_string(), "unsupported schema 'rjam-progress-v2'");

        let err = Envelope::parse(&p, r#"{"ev":"snapshot"}"#).unwrap_err();
        assert_eq!(err, ParseError::MissingSchema { field: "v" });
        assert_eq!(err.to_string(), "missing string field 'v'");

        assert_eq!(
            Envelope::parse(&p, "[1,2]").unwrap_err(),
            ParseError::NotAnObject
        );
        assert!(matches!(
            Envelope::parse(&p, "{nope").unwrap_err(),
            ParseError::Json(_)
        ));
    }

    #[test]
    fn typed_readers_report_field_and_expectation() {
        let env = Envelope::parse(
            &Protocol::JOB,
            r#"{"v":"rjam-job-v1","n":3,"s":"x","a":[1],"o":{"k":-2},"id":"0xdeadbeef",
               "b":true,"g":[1,2.5],"h":[1,"x"],"f":1.5}"#,
        )
        .unwrap();
        let o = env.root();
        assert_eq!(o.u64("n").unwrap(), 3);
        assert_eq!(o.i64("n").unwrap(), 3);
        assert_eq!(o.f64("f").unwrap(), 1.5);
        assert_eq!(o.str("s").unwrap(), "x");
        assert!(o.bool("b").unwrap());
        assert_eq!(o.array("a").unwrap().len(), 1);
        assert_eq!(o.f64s("g").unwrap(), vec![1.0, 2.5]);
        assert_eq!(o.object("o").unwrap().i64("k").unwrap(), -2);
        assert_eq!(o.hex_u64("id").unwrap(), 0xdead_beef);
        assert!(o.get("missing").is_none());

        let err = o.u64("s").unwrap_err();
        assert_eq!(
            err,
            ParseError::Field {
                field: "s".into(),
                expected: "non-negative integer"
            }
        );
        assert_eq!(
            err.to_string(),
            "missing or invalid field 's' (expected non-negative integer)"
        );
        for (err, want) in [
            (o.str("missing").unwrap_err(), "'missing' (expected string)"),
            (o.i64("f").unwrap_err(), "'f' (expected integer)"),
            (o.bool("n").unwrap_err(), "'n' (expected boolean)"),
            (o.f64s("h").unwrap_err(), "'h' (expected array of numbers)"),
            (o.object("a").unwrap_err(), "'a' (expected object)"),
        ] {
            assert_eq!(err.to_string(), format!("missing or invalid field {want}"));
        }
    }

    #[test]
    fn labeled_views_prefix_their_errors() {
        let doc = json::parse(r#"[{"seq":1,"inner":{"t":"x"}}, 7]"#).unwrap();
        let items = doc.as_array().unwrap();
        let e = Fields::labeled(&items[0], "event 0".into()).unwrap();
        assert_eq!(e.u64("seq").unwrap(), 1);
        assert_eq!(
            e.u64("t").unwrap_err().to_string(),
            "event 0: missing or invalid field 't' (expected non-negative integer)"
        );
        // Nested views keep the label.
        assert_eq!(
            e.object("inner").unwrap().u64("t").unwrap_err().to_string(),
            "event 0: missing or invalid field 't' (expected non-negative integer)"
        );
        assert_eq!(
            e.object("inner")
                .unwrap()
                .hex_u64("t")
                .unwrap_err()
                .to_string(),
            "event 0: t 'x' is not a 0x-prefixed hex string"
        );
        assert_eq!(
            Fields::labeled(&items[1], "event 1".into())
                .unwrap_err()
                .to_string(),
            "event 1 is not an object"
        );
        assert_eq!(Fields::of(&items[1]).unwrap_err(), ParseError::NotAnObject);
        assert_eq!(Fields::of(&items[0]).unwrap().iter().count(), 2);
    }

    #[test]
    fn hex_round_trips_all_64_bits() {
        for v in [0u64, 1, u64::MAX, 0x8000_0000_0000_0001] {
            let wire = hex_u64_json(v);
            let s = wire.trim_matches('"');
            assert_eq!(parse_hex_u64("seed", s).unwrap(), v);
        }
        let err = parse_hex_u64("seed", "12ab").unwrap_err();
        assert_eq!(
            err.to_string(),
            "seed '12ab' is not a 0x-prefixed hex string"
        );
        assert_eq!(
            parse_hex_u64("seed", "0xzz").unwrap_err().to_string(),
            "bad seed '0xzz'"
        );
    }

    #[test]
    fn ndjson_wrapper_numbers_lines_and_rejects_blanks() {
        let parse_line =
            |line: &str| Envelope::parse(&Protocol::PROGRESS, line).and_then(|e| e.root().u64("n"));
        let ok = parse_ndjson(
            "{\"v\":\"rjam-progress-v1\",\"n\":1}\n{\"v\":\"rjam-progress-v1\",\"n\":2}\n",
            parse_line,
        )
        .unwrap();
        assert_eq!(ok, vec![1, 2]);
        assert!(parse_ndjson("", parse_line).unwrap().is_empty());

        let err =
            parse_ndjson("{\"v\":\"rjam-progress-v1\",\"n\":1}\nnope\n", parse_line).unwrap_err();
        assert!(err.to_string().starts_with("line 2: "), "{err}");
        let ParseError::Line { line, source } = &err else {
            panic!("not a line error: {err:?}");
        };
        assert_eq!(*line, 2);
        assert!(matches!(**source, ParseError::Json(_)));

        // Blank line mid-stream is a truncation symptom, not padding.
        let err = parse_ndjson(
            "{\"v\":\"rjam-progress-v1\",\"n\":1}\n\n{\"v\":\"rjam-progress-v1\",\"n\":2}\n",
            parse_line,
        )
        .unwrap_err();
        assert!(err.to_string().starts_with("line 2: "), "{err}");
    }

    #[test]
    fn line_error_exposes_source_chain() {
        use std::error::Error;
        let err = ParseError::NotAnObject.at_line(7);
        assert_eq!(err.to_string(), "line 7: root is not a JSON object");
        assert!(err.source().is_some());
        assert_eq!(
            err.source().unwrap().to_string(),
            "root is not a JSON object"
        );
        assert!(ParseError::NotAnObject.source().is_none());
    }
}
