//! Causal span tracing: follow one frame from MAC emission to jam burst.
//!
//! The paper's core claim is a *latency budget* — detection-to-jam inside
//! 8 FPGA clock cycles (80 ns) and a 2640 ns end-to-end xcorr response —
//! but aggregate histograms cannot say *which* frame blew the budget or
//! *where* along the MAC → PHY → channel → FPGA → jammer path the
//! nanoseconds went. This module adds the missing per-event layer:
//!
//! 1. a [`FrameId`] correlation ID, minted when the MAC emits a frame and
//!    threaded through every pipeline stage;
//! 2. a fixed-capacity, allocation-free [`TraceSink`] of cycle-timestamped
//!    [`span_begin`](TraceSink::span_begin) / [`span_end`](TraceSink::span_end)
//!    / [`instant`](TraceSink::instant) events — single-owner and lock-free
//!    by construction (plain `Vec` writes into preallocated storage, no
//!    atomics, no locks, no allocation after construction);
//! 3. a [`TraceDoc`] with two exports: the compact `rjam-trace-v1` JSON
//!    schema (round-trippable through [`TraceDoc::from_json`]) and Chrome
//!    trace-event JSON loadable in Perfetto / `chrome://tracing`, one track
//!    per pipeline stage;
//! 4. per-frame causal analysis ([`FrameTrace`]): span durations, stage
//!    attribution, trigger-to-TX latency, and outcome classification.
//!
//! # Cost model
//!
//! Recording is a bounds-checked store of a 7-word struct (`&'static str`
//! stage/name — no string allocation on the hot path). With the `obs`
//! feature disabled, [`TraceSink`] is a ZST and every recording call
//! compiles to nothing; the document/parser side stays available so no-op
//! builds can still *load and analyse* traces captured elsewhere.

use crate::json::{self, Value};
use crate::proto::{Envelope, Fields, ParseError, Protocol};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// The protocol descriptor for the compact trace document.
pub const PROTOCOL: Protocol = Protocol::TRACE;

/// Correlation ID for one MAC frame, threaded through every stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FrameId(pub u64);

impl FrameId {
    /// The raw identifier.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A monotone [`FrameId`] mint (1-based; 0 is reserved for "no frame").
#[derive(Clone, Copy, Debug, Default)]
pub struct FrameIdGen {
    next: u64,
}

impl FrameIdGen {
    /// Creates a generator starting at frame 1.
    pub fn new() -> Self {
        FrameIdGen { next: 0 }
    }

    /// Mints the next FrameId.
    pub fn mint(&mut self) -> FrameId {
        self.next += 1;
        FrameId(self.next)
    }
}

/// What a trace event marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// A stage span opens.
    Begin,
    /// A stage span closes.
    End,
    /// A point event.
    Instant,
}

impl SpanKind {
    /// One-letter schema code (`"B"`, `"E"`, `"I"`).
    pub fn code(self) -> &'static str {
        match self {
            SpanKind::Begin => "B",
            SpanKind::End => "E",
            SpanKind::Instant => "I",
        }
    }

    /// Parses the schema code back.
    pub fn from_code(s: &str) -> Option<SpanKind> {
        match s {
            "B" => Some(SpanKind::Begin),
            "E" => Some(SpanKind::End),
            "I" => Some(SpanKind::Instant),
            _ => None,
        }
    }
}

/// How a traced frame ended at the MAC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The frame reached its receiver untouched.
    Delivered,
    /// A jam burst overlapped the frame on air.
    Jammed,
    /// The detector fired but the burst landed after the frame ended.
    Missed,
}

impl Outcome {
    /// Stable numeric code carried in the `mac.outcome` instant's `a`.
    pub fn code(self) -> i64 {
        match self {
            Outcome::Delivered => 0,
            Outcome::Jammed => 1,
            Outcome::Missed => 2,
        }
    }

    /// Decodes the numeric code.
    pub fn from_code(code: i64) -> Option<Outcome> {
        match code {
            0 => Some(Outcome::Delivered),
            1 => Some(Outcome::Jammed),
            2 => Some(Outcome::Missed),
            _ => None,
        }
    }

    /// Human label.
    pub fn as_str(self) -> &'static str {
        match self {
            Outcome::Delivered => "delivered",
            Outcome::Jammed => "jammed",
            Outcome::Missed => "missed",
        }
    }
}

/// Stage (track) names used by the instrumented pipeline, in causal order.
///
/// Unknown stages are legal in a document; these constants just keep the
/// producers and the Chrome track ordering in agreement.
pub mod stage {
    /// MAC emission and outcome.
    pub const MAC: &str = "mac";
    /// PHY modulation / airtime.
    pub const PHY: &str = "phy";
    /// Five-port channel propagation.
    pub const CHANNEL: &str = "channel";
    /// FPGA detection core (xcorr, energy, trigger, FIFO, delay, TX init).
    pub const FPGA: &str = "fpga";
    /// Jam-burst transmission.
    pub const JAM: &str = "jam";
    /// Canonical track order for exports.
    pub const ORDER: [&str; 5] = [MAC, PHY, CHANNEL, FPGA, JAM];
}

/// One trace event.
///
/// `stage`/`name` are `Cow<'static, str>`: recording borrows static strings
/// (no allocation), parsing owns them.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// Monotone sequence number (1-based, assigned by the sink).
    pub seq: u64,
    /// Correlated frame.
    pub frame: FrameId,
    /// Timestamp in nanoseconds of model time.
    pub t_ns: u64,
    /// Pipeline stage (one Chrome track per stage).
    pub stage: Cow<'static, str>,
    /// Event name within the stage, e.g. `"xcorr_fire"`.
    pub name: Cow<'static, str>,
    /// Begin / end / instant.
    pub kind: SpanKind,
    /// First operand (meaning depends on `name`).
    pub a: i64,
    /// Second operand.
    pub b: i64,
}

#[cfg(feature = "obs")]
mod enabled {
    use super::{FrameId, SpanKind, TraceDoc, TraceEvent};
    use std::borrow::Cow;

    /// Fixed-capacity, allocation-free span sink.
    ///
    /// Single-owner and lock-free by construction: recording is a plain
    /// store into preallocated storage — no locks, no atomics, no
    /// allocation after [`TraceSink::with_capacity`]. When full, *new*
    /// events are dropped (the causal head of the episode survives) and
    /// counted in [`TraceSink::dropped`].
    #[derive(Clone, Debug)]
    pub struct TraceSink {
        events: Vec<TraceEvent>,
        seq: u64,
        dropped: u64,
    }

    impl TraceSink {
        /// Creates a sink holding at most `cap` events.
        ///
        /// # Panics
        /// Panics if `cap == 0`.
        pub fn with_capacity(cap: usize) -> Self {
            assert!(cap > 0, "trace sink capacity must be positive");
            TraceSink {
                events: Vec::with_capacity(cap),
                seq: 0,
                dropped: 0,
            }
        }

        // Private hot-path fan-in for the three public recorders; the
        // argument list is the full event tuple on purpose (one store, no
        // intermediate struct on the uninstrumented path).
        #[allow(clippy::too_many_arguments)]
        #[inline]
        fn push(
            &mut self,
            kind: SpanKind,
            frame: FrameId,
            t_ns: u64,
            stage: &'static str,
            name: &'static str,
            a: i64,
            b: i64,
        ) {
            self.seq += 1;
            if self.events.len() == self.events.capacity() {
                // Dropped spans silently corrupt per-stage attribution, so
                // they must show up in `rjam-metrics-v1` snapshots — the
                // registry lock is fine here, this is the overflow path.
                self.dropped += 1;
                crate::registry::counter("obs.trace_dropped").inc();
                return;
            }
            self.events.push(TraceEvent {
                seq: self.seq,
                frame,
                t_ns,
                stage: Cow::Borrowed(stage),
                name: Cow::Borrowed(name),
                kind,
                a,
                b,
            });
        }

        /// Opens a span on `stage` for `frame`.
        #[inline]
        pub fn span_begin(
            &mut self,
            frame: FrameId,
            t_ns: u64,
            stage: &'static str,
            name: &'static str,
        ) {
            self.push(SpanKind::Begin, frame, t_ns, stage, name, 0, 0);
        }

        /// Closes a span on `stage` for `frame`.
        #[inline]
        pub fn span_end(
            &mut self,
            frame: FrameId,
            t_ns: u64,
            stage: &'static str,
            name: &'static str,
        ) {
            self.push(SpanKind::End, frame, t_ns, stage, name, 0, 0);
        }

        /// Records a point event with two free-form operands.
        #[inline]
        pub fn instant(
            &mut self,
            frame: FrameId,
            t_ns: u64,
            stage: &'static str,
            name: &'static str,
            a: i64,
            b: i64,
        ) {
            self.push(SpanKind::Instant, frame, t_ns, stage, name, a, b);
        }

        /// Events currently held (in record order).
        pub fn events(&self) -> &[TraceEvent] {
            &self.events
        }

        /// Events held.
        pub fn len(&self) -> usize {
            self.events.len()
        }

        /// True when nothing has been recorded.
        pub fn is_empty(&self) -> bool {
            self.events.is_empty()
        }

        /// Maximum events this sink can hold.
        pub fn capacity(&self) -> usize {
            self.events.capacity()
        }

        /// Events refused because the sink was full.
        pub fn dropped(&self) -> u64 {
            self.dropped
        }

        /// Total record calls (held + dropped).
        pub fn total(&self) -> u64 {
            self.seq
        }

        /// Clears events and counters, keeping the capacity.
        pub fn clear(&mut self) {
            self.events.clear();
            self.seq = 0;
            self.dropped = 0;
        }

        /// Freezes the sink's contents into an analysable document.
        pub fn to_doc(&self) -> TraceDoc {
            TraceDoc {
                events: self.events.clone(),
                dropped: self.dropped,
            }
        }
    }
}

#[cfg(feature = "obs")]
pub use enabled::TraceSink;

#[cfg(not(feature = "obs"))]
mod disabled {
    use super::{FrameId, TraceDoc, TraceEvent};

    /// Zero-sized no-op sink (`obs` feature disabled).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct TraceSink;

    impl TraceSink {
        /// A no-op sink.
        pub fn with_capacity(_cap: usize) -> Self {
            TraceSink
        }
        /// No-op.
        #[inline(always)]
        pub fn span_begin(
            &mut self,
            _frame: FrameId,
            _t_ns: u64,
            _stage: &'static str,
            _name: &'static str,
        ) {
        }
        /// No-op.
        #[inline(always)]
        pub fn span_end(
            &mut self,
            _frame: FrameId,
            _t_ns: u64,
            _stage: &'static str,
            _name: &'static str,
        ) {
        }
        /// No-op.
        #[inline(always)]
        pub fn instant(
            &mut self,
            _frame: FrameId,
            _t_ns: u64,
            _stage: &'static str,
            _name: &'static str,
            _a: i64,
            _b: i64,
        ) {
        }
        /// Always empty.
        pub fn events(&self) -> &[TraceEvent] {
            &[]
        }
        /// Always 0.
        #[inline(always)]
        pub fn len(&self) -> usize {
            0
        }
        /// Always true.
        #[inline(always)]
        pub fn is_empty(&self) -> bool {
            true
        }
        /// Always 0.
        #[inline(always)]
        pub fn capacity(&self) -> usize {
            0
        }
        /// Always 0.
        #[inline(always)]
        pub fn dropped(&self) -> u64 {
            0
        }
        /// Always 0.
        #[inline(always)]
        pub fn total(&self) -> u64 {
            0
        }
        /// No-op.
        #[inline(always)]
        pub fn clear(&mut self) {}
        /// Always an empty document.
        pub fn to_doc(&self) -> TraceDoc {
            TraceDoc::default()
        }
    }
}

#[cfg(not(feature = "obs"))]
pub use disabled::TraceSink;

/// A frozen trace: the `rjam-trace-v1` document model.
///
/// Always compiled (even in no-op builds) so saved traces can be loaded,
/// validated and analysed regardless of how the binary was built.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceDoc {
    /// Events in record order (seq ascending).
    pub events: Vec<TraceEvent>,
    /// Events the producing sink refused for lack of capacity.
    pub dropped: u64,
}

/// One closed span inside a frame's trace.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRow {
    /// Pipeline stage.
    pub stage: String,
    /// Span name.
    pub name: String,
    /// Begin timestamp (ns).
    pub t0_ns: u64,
    /// Duration (ns).
    pub dur_ns: u64,
}

impl TraceDoc {
    /// Schema identifier of the compact JSON form.
    pub const SCHEMA: &'static str = PROTOCOL.tag;

    /// Distinct stages in canonical order first, then first-seen order.
    pub fn stages(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in stage::ORDER {
            if self.events.iter().any(|e| e.stage == s) {
                out.push(s.to_string());
            }
        }
        for e in &self.events {
            if !out.iter().any(|s| s.as_str() == e.stage.as_ref()) {
                out.push(e.stage.clone().into_owned());
            }
        }
        out
    }

    /// Groups events by frame, ascending [`FrameId`].
    pub fn frames(&self) -> Vec<FrameTrace<'_>> {
        let mut by: BTreeMap<FrameId, Vec<&TraceEvent>> = BTreeMap::new();
        for e in &self.events {
            by.entry(e.frame).or_default().push(e);
        }
        by.into_iter()
            .map(|(frame, events)| FrameTrace { frame, events })
            .collect()
    }

    /// Serialises the compact `rjam-trace-v1` JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"schema\": {},\n  \"time_unit\": \"ns\",\n  \"dropped\": {},\n",
            json::write_string(Self::SCHEMA),
            self.dropped
        ));
        out.push_str("  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&format!(
                "{{\"seq\": {}, \"frame\": {}, \"t\": {}, \"stage\": {}, \"name\": {}, \
                 \"k\": {}, \"a\": {}, \"b\": {}}}",
                e.seq,
                e.frame.0,
                e.t_ns,
                json::write_string(&e.stage),
                json::write_string(&e.name),
                json::write_string(e.kind.code()),
                e.a,
                e.b
            ));
        }
        if !self.events.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Parses an `rjam-trace-v1` document back.
    pub fn from_json(text: &str) -> Result<TraceDoc, ParseError> {
        let env = Envelope::parse(&PROTOCOL, text)?;
        let root = env.root();
        let dropped = root.get("dropped").and_then(Value::as_u64).unwrap_or(0);
        let raw = root.array("events")?;
        let mut events = Vec::with_capacity(raw.len());
        for (i, ev) in raw.iter().enumerate() {
            let o = Fields::labeled(ev, format!("event {i}"))?;
            let kind = SpanKind::from_code(o.str("k")?)
                .ok_or_else(|| ParseError::invalid(format!("event {i}: bad kind code")))?;
            events.push(TraceEvent {
                seq: o.u64("seq")?,
                frame: FrameId(o.u64("frame")?),
                t_ns: o.u64("t")?,
                stage: Cow::Owned(o.str("stage")?.to_string()),
                name: Cow::Owned(o.str("name")?.to_string()),
                kind,
                a: o.i64("a")?,
                b: o.i64("b")?,
            });
        }
        Ok(TraceDoc { events, dropped })
    }

    /// Validates structural invariants beyond raw JSON shape:
    /// monotone `seq`, and begin/end balance per (frame, stage, name).
    pub fn validate(&self) -> Result<(), String> {
        let mut last_seq = 0u64;
        for e in &self.events {
            if e.seq <= last_seq {
                return Err(format!("seq {} not strictly increasing", e.seq));
            }
            last_seq = e.seq;
        }
        let mut open: BTreeMap<(u64, &str, &str), i64> = BTreeMap::new();
        for e in &self.events {
            let key = (e.frame.0, e.stage.as_ref(), e.name.as_ref());
            match e.kind {
                SpanKind::Begin => *open.entry(key).or_insert(0) += 1,
                SpanKind::End => {
                    let depth = open.entry(key).or_insert(0);
                    *depth -= 1;
                    if *depth < 0 {
                        return Err(format!(
                            "span_end without begin: frame {} {}.{}",
                            e.frame.0, e.stage, e.name
                        ));
                    }
                }
                SpanKind::Instant => {}
            }
        }
        if let Some(((f, s, n), _)) = open.iter().find(|(_, &d)| d > 0) {
            return Err(format!("unclosed span: frame {f} {s}.{n}"));
        }
        Ok(())
    }

    /// Exports Chrome trace-event JSON (Perfetto / `chrome://tracing`).
    ///
    /// One track (`tid`) per pipeline stage, named via `thread_name`
    /// metadata; closed spans become complete (`"X"`) events, instants
    /// and unpaired begins become thread-scoped instant (`"i"`) events.
    /// Timestamps are microseconds (`ts`/`dur` floats), so the paper's
    /// nanosecond budget appears with 3 decimal places.
    pub fn to_chrome_json(&self) -> String {
        let stages = self.stages();
        let tid_of =
            |stage: &str| -> usize { stages.iter().position(|s| s == stage).unwrap_or(0) + 1 };
        let us = |t_ns: u64| json::write_number(t_ns as f64 / 1000.0);
        let mut parts: Vec<String> = Vec::new();
        parts.push(
            "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \
             \"args\": {\"name\": \"rjam pipeline\"}}"
                .to_string(),
        );
        for s in &stages {
            parts.push(format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"name\": {}}}}}",
                tid_of(s),
                json::write_string(s)
            ));
            parts.push(format!(
                "{{\"name\": \"thread_sort_index\", \"ph\": \"M\", \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"sort_index\": {}}}}}",
                tid_of(s),
                tid_of(s)
            ));
        }
        // Pair begins to ends per (frame, stage, name) in record order.
        let mut open: BTreeMap<(u64, &str, &str), Vec<&TraceEvent>> = BTreeMap::new();
        let mut instants: Vec<&TraceEvent> = Vec::new();
        let mut spans: Vec<(&TraceEvent, u64)> = Vec::new(); // (begin, t_end)
        for e in &self.events {
            let key = (e.frame.0, e.stage.as_ref(), e.name.as_ref());
            match e.kind {
                SpanKind::Begin => open.entry(key).or_default().push(e),
                SpanKind::End => {
                    if let Some(b) = open.get_mut(&key).and_then(Vec::pop) {
                        spans.push((b, e.t_ns));
                    }
                }
                SpanKind::Instant => instants.push(e),
            }
        }
        // Unpaired begins degrade to instants so the track stays well formed.
        instants.extend(open.into_values().flatten());
        spans.sort_by_key(|(b, _)| (b.t_ns, b.seq));
        for (b, t1) in &spans {
            parts.push(format!(
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {}, \"dur\": {}, \"args\": {{\"frame\": {}, \"a\": {}, \"b\": {}}}}}",
                json::write_string(&b.name),
                json::write_string(&b.stage),
                tid_of(&b.stage),
                us(b.t_ns),
                us(t1.saturating_sub(b.t_ns)),
                b.frame.0,
                b.a,
                b.b
            ));
        }
        for e in &instants {
            parts.push(format!(
                "{{\"name\": {}, \"cat\": {}, \"ph\": \"i\", \"s\": \"t\", \"pid\": 1, \
                 \"tid\": {}, \"ts\": {}, \"args\": {{\"frame\": {}, \"a\": {}, \"b\": {}}}}}",
                json::write_string(&e.name),
                json::write_string(&e.stage),
                tid_of(&e.stage),
                us(e.t_ns),
                e.frame.0,
                e.a,
                e.b
            ));
        }
        let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        out.push_str(&parts.join(",\n"));
        out.push_str("\n]}\n");
        out
    }
}

/// All events of one frame, in record order — the causal chain view.
#[derive(Clone, Debug)]
pub struct FrameTrace<'a> {
    /// The frame these events belong to.
    pub frame: FrameId,
    /// Events in seq order.
    pub events: Vec<&'a TraceEvent>,
}

impl FrameTrace<'_> {
    /// Timestamp of the first matching instant, if any.
    pub fn instant_t(&self, stage: &str, name: &str) -> Option<u64> {
        self.events
            .iter()
            .find(|e| e.kind == SpanKind::Instant && e.stage == stage && e.name == name)
            .map(|e| e.t_ns)
    }

    /// First operand of the first matching instant, if any.
    pub fn instant_a(&self, stage: &str, name: &str) -> Option<i64> {
        self.events
            .iter()
            .find(|e| e.kind == SpanKind::Instant && e.stage == stage && e.name == name)
            .map(|e| e.a)
    }

    /// `(t_begin, t_end)` of the first closed matching span, if any.
    pub fn span(&self, stage: &str, name: &str) -> Option<(u64, u64)> {
        let b = self
            .events
            .iter()
            .find(|e| e.kind == SpanKind::Begin && e.stage == stage && e.name == name)?;
        let e = self.events.iter().find(|e| {
            e.kind == SpanKind::End && e.stage == stage && e.name == name && e.seq > b.seq
        })?;
        Some((b.t_ns, e.t_ns))
    }

    /// Every closed span, begin-order.
    pub fn spans(&self) -> Vec<SpanRow> {
        let mut out = Vec::new();
        let mut used: Vec<u64> = Vec::new(); // consumed End seqs
        for b in &self.events {
            if b.kind != SpanKind::Begin {
                continue;
            }
            if let Some(e) = self.events.iter().find(|e| {
                e.kind == SpanKind::End
                    && e.stage == b.stage
                    && e.name == b.name
                    && e.seq > b.seq
                    && !used.contains(&e.seq)
            }) {
                used.push(e.seq);
                out.push(SpanRow {
                    stage: b.stage.clone().into_owned(),
                    name: b.name.clone().into_owned(),
                    t0_ns: b.t_ns,
                    dur_ns: e.t_ns.saturating_sub(b.t_ns),
                });
            }
        }
        out
    }

    /// Total closed-span nanoseconds per stage, canonical order.
    pub fn stage_durations(&self) -> Vec<(String, u64)> {
        let spans = self.spans();
        let mut order: Vec<String> = Vec::new();
        for s in stage::ORDER {
            if spans.iter().any(|r| r.stage == s) {
                order.push(s.to_string());
            }
        }
        for r in &spans {
            if !order.contains(&r.stage) {
                order.push(r.stage.clone());
            }
        }
        order
            .into_iter()
            .map(|s| {
                let total = spans
                    .iter()
                    .filter(|r| r.stage == s)
                    .map(|r| r.dur_ns)
                    .sum();
                (s, total)
            })
            .collect()
    }

    /// The MAC outcome instant, decoded.
    pub fn outcome(&self) -> Option<Outcome> {
        self.instant_a(stage::MAC, "outcome")
            .and_then(Outcome::from_code)
    }

    /// Trigger-to-TX latency: jam-burst begin minus the FPGA trigger
    /// instant. This is what the `fpga.trigger_to_tx_ns` histogram
    /// aggregates; here it is attributed to one frame.
    pub fn trigger_to_tx_ns(&self) -> Option<u64> {
        // The trigger instant is authoritative; the delay/tx_init span
        // decomposition also begins at the trigger and serves as fallback.
        let trig = self
            .instant_t(stage::FPGA, "trigger")
            .or_else(|| self.span(stage::FPGA, "delay").map(|(t0, _)| t0))
            .or_else(|| self.span(stage::FPGA, "tx_init").map(|(t0, _)| t0))?;
        let (tx0, _) = self.span(stage::JAM, "tx")?;
        Some(tx0.saturating_sub(trig))
    }

    /// Response latency: jam-burst begin minus the first frame sample's
    /// arrival at the detector (`fpga.rx_first_sample`) — the paper's
    /// T_resp for this frame.
    pub fn response_ns(&self) -> Option<u64> {
        let rx0 = self.instant_t(stage::FPGA, "rx_first_sample")?;
        let (tx0, _) = self.span(stage::JAM, "tx")?;
        Some(tx0.saturating_sub(rx0))
    }

    /// True when the full causal chain is present:
    /// MAC emit → detector fire → trigger → jam TX → MAC outcome.
    pub fn has_full_chain(&self) -> bool {
        self.instant_t(stage::MAC, "emit").is_some()
            && (self.instant_t(stage::FPGA, "xcorr_fire").is_some()
                || self.instant_t(stage::FPGA, "energy_fire").is_some())
            && self.instant_t(stage::FPGA, "trigger").is_some()
            && self.span(stage::JAM, "tx").is_some()
            && self.outcome().is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[cfg(feature = "obs")]
    fn demo_sink() -> TraceSink {
        let mut s = TraceSink::with_capacity(64);
        let f = FrameId(1);
        s.instant(f, 100, stage::MAC, "emit", 80, 0);
        s.span_begin(f, 100, stage::PHY, "tx");
        s.span_begin(f, 100, stage::CHANNEL, "propagate");
        s.instant(f, 100, stage::FPGA, "rx_first_sample", 0, 0);
        s.instant(f, 940, stage::FPGA, "xcorr_fire", 77, 0);
        s.instant(f, 940, stage::FPGA, "trigger", 0, 0);
        s.span_begin(f, 940, stage::FPGA, "tx_init");
        s.span_end(f, 1020, stage::FPGA, "tx_init");
        s.span_begin(f, 1020, stage::JAM, "tx");
        s.span_end(f, 11020, stage::JAM, "tx");
        s.span_end(f, 2000, stage::CHANNEL, "propagate");
        s.span_end(f, 2000, stage::PHY, "tx");
        s.instant(f, 2000, stage::MAC, "outcome", Outcome::Jammed.code(), 0);
        s
    }

    #[cfg(feature = "obs")]
    #[test]
    fn sink_records_in_order_without_allocation_growth() {
        let s = demo_sink();
        assert_eq!(s.len(), 13);
        assert_eq!(s.dropped(), 0);
        assert_eq!(s.capacity(), 64, "no reallocation");
        let seqs: Vec<u64> = s.events().iter().map(|e| e.seq).collect();
        assert!(seqs.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[cfg(feature = "obs")]
    #[test]
    fn full_sink_drops_newest_and_counts() {
        let mut s = TraceSink::with_capacity(2);
        let f = FrameId(9);
        s.instant(f, 1, stage::MAC, "emit", 0, 0);
        s.instant(f, 2, stage::MAC, "emit", 0, 0);
        s.instant(f, 3, stage::MAC, "emit", 0, 0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.dropped(), 1);
        assert_eq!(s.total(), 3);
        let ts: Vec<u64> = s.events().iter().map(|e| e.t_ns).collect();
        assert_eq!(ts, vec![1, 2], "causal head survives");
        assert_eq!(s.to_doc().dropped, 1);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn dropped_spans_surface_in_the_registry() {
        // Delta assertion: other tests share the global counter.
        let before = crate::registry::counter_value("obs.trace_dropped");
        let mut s = TraceSink::with_capacity(1);
        let f = FrameId(3);
        for t in 0..5 {
            s.instant(f, t, stage::MAC, "emit", 0, 0);
        }
        assert_eq!(s.dropped(), 4);
        let after = crate::registry::counter_value("obs.trace_dropped");
        assert!(
            after >= before + 4,
            "obs.trace_dropped must count every drop: {before} -> {after}"
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn frame_analysis_extracts_causal_chain() {
        let doc = demo_sink().to_doc();
        let frames = doc.frames();
        assert_eq!(frames.len(), 1);
        let ft = &frames[0];
        assert!(ft.has_full_chain());
        assert_eq!(ft.outcome(), Some(Outcome::Jammed));
        assert_eq!(ft.trigger_to_tx_ns(), Some(80));
        assert_eq!(ft.response_ns(), Some(1020 - 100));
        let (jam0, jam1) = ft.span(stage::JAM, "tx").unwrap();
        assert_eq!(jam1 - jam0, 10_000);
        let durs = ft.stage_durations();
        assert_eq!(
            durs.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>(),
            vec!["phy", "channel", "fpga", "jam"]
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn trace_v1_round_trips() {
        let doc = demo_sink().to_doc();
        let text = doc.to_json();
        assert!(text.contains("\"schema\": \"rjam-trace-v1\""));
        let back = TraceDoc::from_json(&text).unwrap();
        assert_eq!(back, doc);
        back.validate().unwrap();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn chrome_export_has_tracks_and_spans() {
        let doc = demo_sink().to_doc();
        let chrome = doc.to_chrome_json();
        // Valid JSON in our own dialect.
        let v = json::parse(&chrome).unwrap();
        let events = v.as_object().unwrap()["traceEvents"].as_array().unwrap();
        // One thread_name metadata per stage present in the trace.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| {
                e.as_object().unwrap().get("name").and_then(Value::as_str) == Some("thread_name")
            })
            .map(|e| {
                e.as_object().unwrap()["args"].as_object().unwrap()["name"]
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(names, vec!["mac", "phy", "channel", "fpga", "jam"]);
        // The jam burst is a complete event with dur 10 us.
        let jam = events
            .iter()
            .map(|e| e.as_object().unwrap())
            .find(|o| {
                o.get("ph").and_then(Value::as_str) == Some("X")
                    && o.get("cat").and_then(Value::as_str) == Some("jam")
            })
            .expect("jam tx X event");
        assert_eq!(jam["dur"].as_f64(), Some(10.0));
        assert_eq!(jam["ts"].as_f64(), Some(1.02));
    }

    #[test]
    fn parser_rejects_bad_documents() {
        assert!(TraceDoc::from_json("{}").is_err());
        assert!(TraceDoc::from_json("{\"schema\":\"other\",\"events\":[]}").is_err());
        assert!(
            TraceDoc::from_json("{\"schema\":\"rjam-trace-v1\",\"events\":[{\"seq\":1}]}").is_err()
        );
        // Minimal valid document parses even in no-op builds.
        let doc = TraceDoc::from_json("{\"schema\":\"rjam-trace-v1\",\"events\":[]}").unwrap();
        assert!(doc.events.is_empty());
        doc.validate().unwrap();
    }

    #[test]
    fn validate_catches_broken_invariants() {
        let mk = |seq, kind| TraceEvent {
            seq,
            frame: FrameId(1),
            t_ns: 0,
            stage: Cow::Borrowed("fpga"),
            name: Cow::Borrowed("x"),
            kind,
            a: 0,
            b: 0,
        };
        let dup = TraceDoc {
            events: vec![mk(1, SpanKind::Instant), mk(1, SpanKind::Instant)],
            dropped: 0,
        };
        assert!(dup.validate().is_err());
        let unbalanced = TraceDoc {
            events: vec![mk(1, SpanKind::End)],
            dropped: 0,
        };
        assert!(unbalanced.validate().is_err());
        let unclosed = TraceDoc {
            events: vec![mk(1, SpanKind::Begin)],
            dropped: 0,
        };
        assert!(unclosed.validate().is_err());
    }

    #[test]
    fn outcome_codes_round_trip() {
        for o in [Outcome::Delivered, Outcome::Jammed, Outcome::Missed] {
            assert_eq!(Outcome::from_code(o.code()), Some(o));
        }
        assert_eq!(Outcome::from_code(7), None);
    }

    #[test]
    fn frame_id_gen_is_monotone_from_one() {
        let mut g = FrameIdGen::new();
        assert_eq!(g.mint(), FrameId(1));
        assert_eq!(g.mint(), FrameId(2));
    }

    #[cfg(not(feature = "obs"))]
    #[test]
    fn disabled_sink_is_zero_sized_noop() {
        assert_eq!(std::mem::size_of::<TraceSink>(), 0);
        let mut s = TraceSink::with_capacity(128);
        s.instant(FrameId(1), 1, stage::MAC, "emit", 0, 0);
        s.span_begin(FrameId(1), 1, stage::PHY, "tx");
        assert!(s.is_empty());
        assert_eq!(s.total(), 0);
        assert!(s.to_doc().events.is_empty());
    }
}
