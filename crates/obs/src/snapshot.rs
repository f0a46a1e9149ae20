//! Point-in-time snapshot of the registry + flight recorder, serialisable
//! to the dependency-free JSON dialect shared with `rjam-bench::harness`.
//!
//! Schema (`rjam-metrics-v1`):
//!
//! ```json
//! {
//!   "schema": "rjam-metrics-v1",
//!   "enabled": true,
//!   "counters":   { "fpga.samples_in": 25000 },
//!   "gauges":     { "fpga.fifo_high_water": 96 },
//!   "histograms": { "fpga.trigger_to_tx_ns":
//!       { "count": 12, "mean": 84.0, "min": 80, "max": 90,
//!         "p50": 80, "p95": 90, "p99": 90 } },
//!   "events": [ { "seq": 1, "t": 5120, "kind": "engage", "a": 1, "b": 0 } ],
//!   "trip": null
//! }
//! ```
//!
//! `trip`, when non-null, is `{ "t": ..., "reason": "...", "seq": ... }` and
//! `events` then holds the frozen pre-anomaly window.

use crate::hist::HistSummary;
use crate::json::{self, Value};
use crate::proto::{Envelope, Fields, ParseError, Protocol};
use crate::recorder::{ObsEvent, TripInfo};
use std::fmt::Write;

/// The protocol descriptor for this document.
pub const PROTOCOL: Protocol = Protocol::METRICS;

/// Schema tag emitted and required by this version.
pub const SCHEMA: &str = PROTOCOL.tag;

/// An owned flight-recorder event (JSON-safe variant of [`ObsEvent`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapEvent {
    /// Monotone sequence number.
    pub seq: u64,
    /// Timestamp in the recording component's unit.
    pub t: u64,
    /// Event kind.
    pub kind: String,
    /// First operand.
    pub a: i64,
    /// Second operand.
    pub b: i64,
}

impl From<ObsEvent> for SnapEvent {
    fn from(e: ObsEvent) -> Self {
        SnapEvent {
            seq: e.seq,
            t: e.t,
            kind: e.kind.to_string(),
            a: e.a,
            b: e.b,
        }
    }
}

/// An owned trip record (JSON-safe variant of [`TripInfo`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SnapTrip {
    /// Timestamp of the anomaly.
    pub t: u64,
    /// Trip reason.
    pub reason: String,
    /// Sequence number at trip time.
    pub seq: u64,
}

impl From<TripInfo> for SnapTrip {
    fn from(t: TripInfo) -> Self {
        SnapTrip {
            t: t.t,
            reason: t.reason.to_string(),
            seq: t.seq,
        }
    }
}

/// Everything the registry and global flight recorder knew at one instant.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge name → value, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram name → quantile summary, sorted by name.
    pub histograms: Vec<(String, HistSummary)>,
    /// Flight-recorder window (frozen pre-anomaly window when tripped).
    pub events: Vec<SnapEvent>,
    /// The anomaly that tripped the recorder, if any.
    pub trip: Option<SnapTrip>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistSummary> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.events.is_empty()
    }

    /// Serialises to the `rjam-metrics-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json::write_string(SCHEMA)));
        out.push_str(&format!("  \"enabled\": {},\n", crate::enabled()));
        out.push_str("  \"counters\": {");
        for (k, (name, v)) in self.counters.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {}",
                json::write_string(name),
                json::write_number(*v as f64)
            ));
        }
        out.push_str(if self.counters.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"gauges\": {");
        for (k, (name, v)) in self.gauges.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {}",
                json::write_string(name),
                json::write_number(*v as f64)
            ));
        }
        out.push_str(if self.gauges.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"histograms\": {");
        for (k, (name, h)) in self.histograms.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {}: {{\"count\": {}, \"mean\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                json::write_string(name),
                json::write_number(h.count as f64),
                json::write_number(h.mean),
                json::write_number(h.min as f64),
                json::write_number(h.max as f64),
                json::write_number(h.p50 as f64),
                json::write_number(h.p95 as f64),
                json::write_number(h.p99 as f64),
            ));
        }
        out.push_str(if self.histograms.is_empty() {
            "},\n"
        } else {
            "\n  },\n"
        });
        out.push_str("  \"events\": [");
        for (k, e) in self.events.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"seq\": {}, \"t\": {}, \"kind\": {}, \"a\": {}, \"b\": {}}}",
                json::write_number(e.seq as f64),
                json::write_number(e.t as f64),
                json::write_string(&e.kind),
                json::write_number(e.a as f64),
                json::write_number(e.b as f64),
            ));
        }
        out.push_str(if self.events.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        match &self.trip {
            None => out.push_str("  \"trip\": null\n"),
            Some(t) => out.push_str(&format!(
                "  \"trip\": {{\"t\": {}, \"reason\": {}, \"seq\": {}}}\n",
                json::write_number(t.t as f64),
                json::write_string(&t.reason),
                json::write_number(t.seq as f64),
            )),
        }
        out.push_str("}\n");
        out
    }

    /// Appends the document compact, in one line, its objects' keys sorted:
    /// the bytes [`json::write_value`] gives for the tree [`json::parse`]
    /// makes of [`Self::to_json`], written straight from the fields.
    /// `rjamd`'s `job_metrics` line embeds it.
    pub fn write_compact(&self, out: &mut String) {
        out.push_str("{\"counters\":");
        push_object(out, &self.counters, |out, v| {
            json::push_number(out, *v as f64)
        });
        let _ = write!(out, ",\"enabled\":{},\"events\":[", crate::enabled());
        for (k, e) in self.events.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str("{\"a\":");
            json::push_number(out, e.a as f64);
            out.push_str(",\"b\":");
            json::push_number(out, e.b as f64);
            out.push_str(",\"kind\":");
            json::push_string(out, &e.kind);
            out.push_str(",\"seq\":");
            json::push_number(out, e.seq as f64);
            out.push_str(",\"t\":");
            json::push_number(out, e.t as f64);
            out.push('}');
        }
        out.push_str("],\"gauges\":");
        push_object(out, &self.gauges, |out, v| {
            json::push_number(out, *v as f64)
        });
        out.push_str(",\"histograms\":");
        push_object(out, &self.histograms, |out, h| {
            for (key, v) in [
                ("{\"count\":", h.count as f64),
                (",\"max\":", h.max as f64),
                (",\"mean\":", h.mean),
                (",\"min\":", h.min as f64),
                (",\"p50\":", h.p50 as f64),
                (",\"p95\":", h.p95 as f64),
                (",\"p99\":", h.p99 as f64),
            ] {
                out.push_str(key);
                json::push_number(out, v);
            }
            out.push('}');
        });
        out.push_str(",\"schema\":");
        json::push_string(out, SCHEMA);
        out.push_str(",\"trip\":");
        match &self.trip {
            None => out.push_str("null"),
            Some(t) => {
                out.push_str("{\"reason\":");
                json::push_string(out, &t.reason);
                out.push_str(",\"seq\":");
                json::push_number(out, t.seq as f64);
                out.push_str(",\"t\":");
                json::push_number(out, t.t as f64);
                out.push('}');
            }
        }
        out.push('}');
    }

    /// Parses a `rjam-metrics-v1` document back into a snapshot.
    pub fn from_json(text: &str) -> Result<Self, ParseError> {
        Self::read(Envelope::parse(&PROTOCOL, text)?)
    }

    /// Reads an already parsed `rjam-metrics-v1` document, such as the one
    /// a `job_metrics` line embeds.
    pub fn from_value(doc: Value) -> Result<Self, ParseError> {
        Self::read(Envelope::from_value(&PROTOCOL, doc)?)
    }

    fn read(env: Envelope) -> Result<Self, ParseError> {
        let root = env.root();
        let mut snap = MetricsSnapshot::default();
        for (k, v) in root.object("counters")?.iter() {
            let n = v.as_u64().ok_or_else(|| {
                ParseError::invalid(format!("counter '{k}' is not a non-negative integer"))
            })?;
            snap.counters.push((k.clone(), n));
        }
        for (k, v) in root.object("gauges")?.iter() {
            let n = v.as_u64().ok_or_else(|| {
                ParseError::invalid(format!("gauge '{k}' is not a non-negative integer"))
            })?;
            snap.gauges.push((k.clone(), n));
        }
        for (k, v) in root.object("histograms")?.iter() {
            let h = Fields::labeled(v, format!("histogram '{k}'"))?;
            snap.histograms.push((
                k.clone(),
                HistSummary {
                    count: h.u64("count")?,
                    mean: h.f64("mean")?,
                    min: h.u64("min")?,
                    max: h.u64("max")?,
                    p50: h.u64("p50")?,
                    p95: h.u64("p95")?,
                    p99: h.u64("p99")?,
                },
            ));
        }
        for (k, v) in root.array("events")?.iter().enumerate() {
            let e = Fields::labeled(v, format!("event {k}"))?;
            snap.events.push(SnapEvent {
                seq: e.u64("seq")?,
                t: e.u64("t")?,
                kind: e.str("kind")?.to_string(),
                // Any number, truncated: the writer emits integers, and a
                // stricter rule would refuse snapshots this reader accepts.
                a: e.f64("a")? as i64,
                b: e.f64("b")? as i64,
            });
        }
        match root.get("trip") {
            None | Some(Value::Null) => {}
            Some(v) => {
                let t = Fields::labeled(v, "trip".into())?;
                snap.trip = Some(SnapTrip {
                    t: t.u64("t")?,
                    reason: t.str("reason")?.to_string(),
                    seq: t.u64("seq")?,
                });
            }
        }
        Ok(snap)
    }

    /// Renders a human-readable report (the `rjam stats` body).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== counters ==\n");
        if self.counters.is_empty() {
            out.push_str("  (none)\n");
        }
        for (name, v) in &self.counters {
            out.push_str(&format!("  {name:<34} {v:>12}\n"));
        }
        out.push_str("== gauges ==\n");
        if self.gauges.is_empty() {
            out.push_str("  (none)\n");
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("  {name:<34} {v:>12}\n"));
        }
        out.push_str("== histograms ==\n");
        if self.histograms.is_empty() {
            out.push_str("  (none)\n");
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!(
                "  {name:<34} n={} mean={:.1} p50={} p95={} p99={} max={}\n",
                h.count, h.mean, h.p50, h.p95, h.p99, h.max
            ));
        }
        out.push_str("== flight recorder ==\n");
        if self.events.is_empty() {
            out.push_str("  (empty)\n");
        }
        for e in &self.events {
            out.push_str(&format!(
                "  #{:<5} t={:<12} {:<24} a={} b={}\n",
                e.seq, e.t, e.kind, e.a, e.b
            ));
        }
        match &self.trip {
            None => out.push_str("  trip: none\n"),
            Some(t) => out.push_str(&format!(
                "  trip: {} at t={} (seq {}) -- events above are the frozen pre-anomaly window\n",
                t.reason, t.t, t.seq
            )),
        }
        out
    }
}

/// Appends `entries` as the JSON object a parsed tree holds: sorted by
/// name, the last of equal names kept.
fn push_object<T>(out: &mut String, entries: &[(String, T)], value: impl Fn(&mut String, &T)) {
    let mut sorted: Vec<&(String, T)> = entries.iter().rev().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    sorted.dedup_by(|later, kept| later.0 == kept.0);
    out.push('{');
    for (k, (name, v)) in sorted.into_iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        json::push_string(out, name);
        out.push(':');
        value(out, v);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("fpga.samples_in".into(), 25_000),
                ("mac.retries".into(), 7),
            ],
            gauges: vec![("fpga.fifo_high_water".into(), 96)],
            histograms: vec![(
                "fpga.trigger_to_tx_ns".into(),
                HistSummary {
                    count: 12,
                    mean: 84.0,
                    min: 80,
                    max: 90,
                    p50: 80,
                    p95: 90,
                    p99: 90,
                },
            )],
            events: vec![SnapEvent {
                seq: 1,
                t: 5120,
                kind: "engage".into(),
                a: 1,
                b: -2,
            }],
            trip: Some(SnapTrip {
                t: 6000,
                reason: "t_resp_over_budget".into(),
                seq: 1,
            }),
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let snap = sample();
        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text).expect("parse back");
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.gauges, snap.gauges);
        assert_eq!(back.histograms.len(), 1);
        let (name, h) = &back.histograms[0];
        assert_eq!(name, "fpga.trigger_to_tx_ns");
        assert_eq!(h.count, 12);
        assert_eq!(h.p99, 90);
        assert_eq!(back.events, snap.events);
        assert_eq!(back.trip, snap.trip);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = MetricsSnapshot::default();
        let back = MetricsSnapshot::from_json(&snap.to_json()).expect("parse");
        assert!(back.is_empty());
        assert!(back.trip.is_none());
    }

    #[test]
    fn schema_mismatch_rejected() {
        let text = sample().to_json().replace(SCHEMA, "rjam-metrics-v0");
        assert!(MetricsSnapshot::from_json(&text).is_err());
    }

    #[test]
    fn lookup_helpers() {
        let snap = sample();
        assert_eq!(snap.counter("mac.retries"), Some(7));
        assert_eq!(snap.counter("nope"), None);
        assert_eq!(snap.gauge("fpga.fifo_high_water"), Some(96));
        assert_eq!(snap.histogram("fpga.trigger_to_tx_ns").unwrap().p95, 90);
    }

    #[test]
    fn render_mentions_trip_and_counters() {
        let r = sample().render();
        assert!(r.contains("fpga.samples_in"));
        assert!(r.contains("t_resp_over_budget"));
        assert!(r.contains("p99=90"));
    }
}
