//! Oscilloscope-style monitor tap.
//!
//! Port 3 of the paper's network feeds an oscilloscope used for the WiMAX
//! validation (Fig. 12): the authors show the downlink frames and the jammer
//! bursts in one-to-one correspondence in the time domain. [`ScopeTrace`]
//! plays the same role in software — it records an envelope, accepts event
//! markers (packet starts, trigger instants, jam bursts), can assert on
//! their correspondence and renders an ASCII trace for examples and docs.
//!
//! Like an oscilloscope, a trace shows a bounded window: it keeps the
//! envelope's first [`SCOPE_WINDOW`] samples and, for the rest, only their
//! count and a running digest. Its memory is therefore flat in the length
//! of the capture, apart from the markers.

use rjam_sdr::complex::Cf64;

/// Envelope samples a [`ScopeTrace`] keeps, from its first sample on:
/// 2^20 samples, 42 ms at 25 MSPS, which holds Fig. 12's eight 5 ms WiMAX
/// frames.
pub const SCOPE_WINDOW: usize = 1 << 20;

/// One FNV-1a step over a sample's `f64` bits.
#[inline]
fn fnv1a(state: u64, v: f64) -> u64 {
    (state ^ v.to_bits()).wrapping_mul(0x100_0000_01b3)
}

/// A named event marker on the trace timeline.
#[derive(Clone, Debug, PartialEq)]
pub struct Marker {
    /// Sample index the event occurred at.
    pub at: usize,
    /// Event label, e.g. `"frame"`, `"trigger"`, `"jam"`.
    pub label: String,
}

/// A recorded time-domain trace with event markers.
///
/// The envelope is kept for the first [`SCOPE_WINDOW`] samples. Every
/// sample, kept or not, counts in [`ScopeTrace::len`] and in
/// [`ScopeTrace::envelope_fnv`], so both equal what a trace holding the
/// whole envelope would report.
#[derive(Clone, Debug, Default)]
pub struct ScopeTrace {
    /// The leading `min(len, SCOPE_WINDOW)` envelope samples.
    envelope: Vec<f64>,
    /// Samples captured in total.
    len: usize,
    /// FNV-1a state over every sample, valid once `len > SCOPE_WINDOW`
    /// (until then [`ScopeTrace::envelope_fnv`] digests the window).
    digest: u64,
    markers: Vec<Marker>,
    sample_rate: f64,
}

impl ScopeTrace {
    /// Creates an empty trace at the given sample rate (Hz).
    pub fn new(sample_rate: f64) -> Self {
        ScopeTrace {
            sample_rate,
            ..ScopeTrace::default()
        }
    }

    /// An empty trace that captures into `buffer`, cleared but with its
    /// capacity kept — the reuse half of [`ScopeTrace::into_envelope`].
    pub fn with_buffer(sample_rate: f64, mut buffer: Vec<f64>) -> Self {
        buffer.clear();
        ScopeTrace {
            envelope: buffer,
            ..ScopeTrace::new(sample_rate)
        }
    }

    /// The kept envelope, as a buffer another trace can capture into.
    pub fn into_envelope(self) -> Vec<f64> {
        self.envelope
    }

    /// Records a waveform's magnitude envelope.
    pub fn capture(&mut self, waveform: &[Cf64]) {
        self.absorb(waveform, |s| s.abs());
        if rjam_obs::enabled() {
            rjam_obs::registry::counter("channel.scope_captured_samples")
                .add(waveform.len() as u64);
        }
    }

    /// Reserves room for the next `samples` envelope samples, as far as
    /// the window keeps them, so a capture of known length grows its
    /// buffer once.
    pub fn reserve(&mut self, samples: usize) {
        let keep = SCOPE_WINDOW.saturating_sub(self.len).min(samples);
        self.envelope.reserve_exact(keep);
    }

    /// Appends the envelope values `magnitude` gives `samples`: those
    /// inside the window are kept, the rest only digested.
    fn absorb<S>(&mut self, samples: &[S], magnitude: impl Fn(&S) -> f64) {
        let keep = SCOPE_WINDOW.saturating_sub(self.len).min(samples.len());
        let (kept, rest) = samples.split_at(keep);
        self.envelope.extend(kept.iter().map(&magnitude));
        if !rest.is_empty() {
            if self.len <= SCOPE_WINDOW {
                // The window just filled: its digest starts the running one.
                self.digest = self.envelope.iter().fold(0, |h, &v| fnv1a(h, v));
            }
            self.digest = rest.iter().fold(self.digest, |h, s| fnv1a(h, magnitude(s)));
        }
        self.len += samples.len();
    }

    /// True while the trace still keeps every sample it captured.
    pub fn holds_all(&self) -> bool {
        self.len <= SCOPE_WINDOW
    }

    /// Order-sensitive, bit-exact digest of the whole envelope: FNV-1a
    /// over each sample's `f64` bits, from a zero state.
    pub fn envelope_fnv(&self) -> u64 {
        if self.holds_all() {
            self.envelope.iter().fold(0, |h, &v| fnv1a(h, v))
        } else {
            self.digest
        }
    }

    /// Appends a marker at an absolute sample index.
    pub fn mark(&mut self, at: usize, label: &str) {
        self.markers.push(Marker {
            at,
            label: label.to_string(),
        });
        if rjam_obs::enabled() {
            rjam_obs::registry::counter("channel.scope_markers").inc();
        }
    }

    /// Appends another trace at an absolute sample offset: `other`'s
    /// envelope lands at sample `offset` (zero-padding any gap) and every
    /// marker is shifted by `offset`. This is how the sharded campaign
    /// engine folds per-unit scope captures into one global timeline —
    /// appending unit `k` at the cumulative length of units `0..k`
    /// reproduces the serial capture exactly.
    ///
    /// # Panics
    /// Panics if `other` no longer holds its whole envelope
    /// ([`ScopeTrace::holds_all`]): the samples past its window are gone
    /// and cannot be digested into this trace.
    pub fn append_shifted(&mut self, other: &ScopeTrace, offset: usize) {
        assert!(
            other.holds_all(),
            "append_shifted needs the whole envelope of the trace it appends \
             ({} samples, {SCOPE_WINDOW} kept)",
            other.len
        );
        debug_assert!(
            offset >= self.len,
            "append_shifted must not overwrite captured samples \
             (offset {} < len {})",
            offset,
            self.len
        );
        const SILENCE: [f64; 1024] = [0.0; 1024];
        while self.len < offset {
            let n = (offset - self.len).min(SILENCE.len());
            self.absorb(&SILENCE[..n], |&v| v);
        }
        self.absorb(&other.envelope, |&v| v);
        for m in &other.markers {
            self.markers.push(Marker {
                at: m.at + offset,
                label: m.label.clone(),
            });
        }
        if rjam_obs::enabled() {
            rjam_obs::registry::counter("channel.scope_captured_samples").add(other.len as u64);
            rjam_obs::registry::counter("channel.scope_markers").add(other.markers.len() as u64);
        }
    }

    /// The kept magnitude envelope, one value per sample: the first
    /// `min(len, SCOPE_WINDOW)` samples of the capture.
    pub fn envelope(&self) -> &[f64] {
        &self.envelope
    }

    /// Recorded length in samples, kept or not.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sample rate of the capture.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// All markers with a given label, in time order.
    pub fn markers_labeled(&self, label: &str) -> Vec<usize> {
        let mut v: Vec<usize> = self
            .markers
            .iter()
            .filter(|m| m.label == label)
            .map(|m| m.at)
            .collect();
        v.sort_unstable();
        v
    }

    /// Checks one-to-one correspondence between two marker families: every
    /// `a` marker must be followed by exactly one `b` marker within
    /// `window` samples, and no `b` marker may be unmatched. Returns the
    /// matched pairs or a description of the first violation.
    ///
    /// This is the software form of the paper's Fig. 12 claim: "our jamming
    /// signal in real time with a one-to-one correspondence to the WiMAX
    /// downlink frames".
    pub fn correspondence(
        &self,
        a_label: &str,
        b_label: &str,
        window: usize,
    ) -> Result<Vec<(usize, usize)>, String> {
        let a = self.markers_labeled(a_label);
        let b = self.markers_labeled(b_label);
        let mut pairs = Vec::new();
        let mut bi = 0usize;
        for &ai in &a {
            // One-to-one correspondence (paper Fig. 12) tolerates no
            // spurious bursts: a `b` marker that precedes the next `a` has
            // no frame to answer, so it is a violation, not something to
            // skip past.
            if bi < b.len() && b[bi] < ai {
                return Err(format!(
                    "unmatched '{b_label}' at sample {} before '{a_label}' at {}",
                    b[bi], ai
                ));
            }
            if bi >= b.len() || b[bi] > ai + window {
                return Err(format!(
                    "'{a_label}' at sample {ai} has no '{b_label}' within {window} samples"
                ));
            }
            pairs.push((ai, b[bi]));
            bi += 1;
        }
        if bi != b.len() {
            return Err(format!(
                "{} extra '{b_label}' markers after the last '{a_label}'",
                b.len() - bi
            ));
        }
        Ok(pairs)
    }

    /// Serialises the marker timeline as JSON (the `rjam-obs` dialect):
    /// `{"schema":"rjam-scope-markers-v1","sample_rate":…,"len":…,
    /// "markers":[{"at":…,"label":…},…]}`. Markers are emitted in time
    /// order (ties broken by label) so the output is deterministic
    /// regardless of insertion order.
    pub fn to_markers_json(&self) -> String {
        use rjam_obs::json::{write_number, write_string};
        let mut sorted: Vec<&Marker> = self.markers.iter().collect();
        sorted.sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.label.cmp(&b.label)));
        let mut out = String::from("{\"schema\":\"rjam-scope-markers-v1\"");
        out.push_str(",\"sample_rate\":");
        out.push_str(&write_number(self.sample_rate));
        out.push_str(",\"len\":");
        out.push_str(&write_number(self.len as f64));
        out.push_str(",\"markers\":[");
        for (k, m) in sorted.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            out.push_str("{\"at\":");
            out.push_str(&write_number(m.at as f64));
            out.push_str(",\"label\":");
            out.push_str(&write_string(&m.label));
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// Renders an ASCII scope view of the kept window: `width` columns,
    /// each showing the peak envelope of its time bucket on a `height`-row
    /// vertical scale, with marker lanes underneath. A trace past its
    /// window draws only the markers inside the window; one that holds
    /// its whole capture draws every marker, a marker past the capture's
    /// end in the last column.
    pub fn render_ascii(&self, width: usize, height: usize) -> String {
        if self.envelope.is_empty() || width == 0 || height == 0 {
            return String::from("(empty trace)\n");
        }
        let bucket = self.envelope.len().div_ceil(width);
        let cols: Vec<f64> = (0..width)
            .map(|c| {
                let lo = c * bucket;
                let hi = ((c + 1) * bucket).min(self.envelope.len());
                if lo >= hi {
                    0.0
                } else {
                    self.envelope[lo..hi].iter().cloned().fold(0.0, f64::max)
                }
            })
            .collect();
        let peak = cols.iter().cloned().fold(0.0, f64::max).max(1e-30);
        let mut out = String::new();
        for row in (1..=height).rev() {
            let thresh = row as f64 / height as f64;
            for &c in &cols {
                out.push(if c / peak >= thresh { '#' } else { ' ' });
            }
            out.push('\n');
        }
        // Marker lanes: one row per distinct label drawn.
        let drawn = |at: usize| self.holds_all() || at < self.envelope.len();
        let mut labels: Vec<String> = self
            .markers
            .iter()
            .filter(|m| drawn(m.at))
            .map(|m| m.label.clone())
            .collect();
        labels.sort();
        labels.dedup();
        for label in labels {
            let mut lane = vec![' '; width];
            for &at in self.markers_labeled(&label).iter().filter(|&&at| drawn(at)) {
                let col = (at / bucket).min(width - 1);
                lane[col] = '^';
            }
            out.extend(lane);
            out.push(' ');
            out.push_str(&label);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst(len: usize, amp: f64) -> Vec<Cf64> {
        vec![Cf64::new(amp, 0.0); len]
    }

    #[test]
    fn capture_accumulates() {
        let mut t = ScopeTrace::new(25e6);
        t.capture(&burst(10, 0.5));
        t.capture(&burst(5, 1.0));
        assert_eq!(t.len(), 15);
    }

    #[test]
    fn markers_sorted_and_filtered() {
        let mut t = ScopeTrace::new(25e6);
        t.mark(50, "jam");
        t.mark(10, "frame");
        t.mark(20, "jam");
        assert_eq!(t.markers_labeled("jam"), vec![20, 50]);
        assert_eq!(t.markers_labeled("frame"), vec![10]);
        assert!(t.markers_labeled("nothing").is_empty());
    }

    #[test]
    fn append_shifted_reproduces_serial_capture() {
        // A serial capture of two bursts …
        let mut serial = ScopeTrace::new(25e6);
        serial.capture(&burst(10, 0.5));
        serial.mark(3, "frame");
        serial.capture(&burst(5, 1.0));
        serial.mark(12, "jam");
        // … equals two shard-local traces merged at cumulative offsets.
        let mut shard0 = ScopeTrace::new(25e6);
        shard0.capture(&burst(10, 0.5));
        shard0.mark(3, "frame");
        let mut shard1 = ScopeTrace::new(25e6);
        shard1.capture(&burst(5, 1.0));
        shard1.mark(2, "jam");
        let mut merged = ScopeTrace::new(25e6);
        merged.append_shifted(&shard0, 0);
        merged.append_shifted(&shard1, shard0.len());
        assert_eq!(merged.len(), serial.len());
        assert_eq!(merged.to_markers_json(), serial.to_markers_json());
        assert_eq!(merged.markers_labeled("jam"), vec![12]);
    }

    #[test]
    fn append_shifted_zero_pads_gaps() {
        let mut t = ScopeTrace::new(25e6);
        let mut shard = ScopeTrace::new(25e6);
        shard.capture(&burst(4, 1.0));
        shard.mark(1, "jam");
        t.append_shifted(&shard, 6);
        assert_eq!(t.len(), 10);
        assert_eq!(t.markers_labeled("jam"), vec![7]);
        // The gap rendered as silence, the burst as signal.
        let art = t.render_ascii(10, 1);
        assert!(art.starts_with("      ####"), "{art}");
    }

    /// Magnitudes `k`-dependent enough that any reordering or loss would
    /// change the digest.
    fn ramp(lo: usize, n: usize) -> Vec<Cf64> {
        (lo..lo + n)
            .map(|k| Cf64::new((k % 977) as f64 * 1e-3, (k % 13) as f64 * 1e-4))
            .collect()
    }

    #[test]
    fn a_trace_past_its_window_reports_what_a_whole_capture_would() {
        // Four uneven units, the third crossing the window's end.
        let sizes = [300_000, 500_000, 400_000, 123_457];
        let total: usize = sizes.iter().sum();
        assert!(total > SCOPE_WINDOW);
        // Every sample, as a capture that kept them all would hold them.
        let all: Vec<f64> = ramp(0, total).iter().map(|s| s.abs()).collect();
        let fnv_all = all.iter().fold(0u64, |h, &v| fnv1a(h, v));
        // One continuous capture, and units folded by `append_shifted`.
        let mut direct = ScopeTrace::new(25e6);
        let mut folded = ScopeTrace::new(25e6);
        let mut lo = 0;
        for (k, &n) in sizes.iter().enumerate() {
            let wave = ramp(lo, n);
            direct.capture(&wave);
            direct.mark(lo + 7, "frame");
            direct.mark(lo + 90 + k, "jam");
            let mut unit = ScopeTrace::new(25e6);
            unit.capture(&wave);
            unit.mark(7, "frame");
            unit.mark(90 + k, "jam");
            assert!(unit.holds_all());
            folded.append_shifted(&unit, folded.len());
            lo += n;
        }
        for t in [&direct, &folded] {
            assert!(!t.holds_all());
            assert_eq!(t.len(), total);
            assert_eq!(t.envelope_fnv(), fnv_all);
            assert_eq!(t.envelope(), &all[..SCOPE_WINDOW]);
        }
        assert_eq!(direct.to_markers_json(), folded.to_markers_json());
        let doc = rjam_obs::json::parse(&direct.to_markers_json()).unwrap();
        assert_eq!(doc.as_object().unwrap()["len"].as_u64(), Some(total as u64));
        // Inside the window the digest is the window's own.
        let mut short = ScopeTrace::new(25e6);
        short.capture(&ramp(0, 1000));
        assert_eq!(
            short.envelope_fnv(),
            all[..1000].iter().fold(0, |h, &v| fnv1a(h, v))
        );
        assert_eq!(ScopeTrace::new(25e6).envelope_fnv(), 0);
    }

    #[test]
    fn render_draws_only_the_window_and_its_markers() {
        let mut t = ScopeTrace::new(25e6);
        t.capture(&burst(SCOPE_WINDOW / 2, 0.1));
        t.capture(&burst(SCOPE_WINDOW / 2, 1.0));
        // Past the window: louder still, so it would own the scale if drawn.
        t.capture(&burst(SCOPE_WINDOW, 9.0));
        t.mark(10, "frame");
        t.mark(SCOPE_WINDOW - 1, "jam");
        t.mark(SCOPE_WINDOW + 5, "jam");
        t.mark(SCOPE_WINDOW + 9, "late");
        let art = t.render_ascii(16, 2);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(
            lines.len(),
            4,
            "2 signal rows + frame and jam lanes:\n{art}"
        );
        // Scaled to the window's own peak: its second half fills both rows.
        assert_eq!(lines[0], format!("{}{}", " ".repeat(8), "#".repeat(8)));
        assert!(
            lines[2].starts_with('^') && lines[2].ends_with("frame"),
            "{art}"
        );
        // One jam caret, in the window's last column; no 'late' lane.
        assert_eq!(lines[3].matches('^').count(), 1, "{art}");
        assert_eq!(lines[3].find('^'), Some(15), "{art}");
        assert!(!art.contains("late"), "{art}");
    }

    #[test]
    #[should_panic(expected = "whole envelope")]
    fn appending_a_trace_past_its_window_is_refused() {
        let mut long = ScopeTrace::new(25e6);
        long.capture(&burst(SCOPE_WINDOW + 1, 0.5));
        ScopeTrace::new(25e6).append_shifted(&long, 0);
    }

    #[test]
    fn correspondence_one_to_one_ok() {
        let mut t = ScopeTrace::new(25e6);
        for k in 0..5 {
            t.mark(k * 1000, "frame");
            t.mark(k * 1000 + 70, "jam");
        }
        let pairs = t.correspondence("frame", "jam", 100).unwrap();
        assert_eq!(pairs.len(), 5);
        assert!(pairs.iter().all(|(f, j)| j - f == 70));
    }

    #[test]
    fn correspondence_detects_missing_jam() {
        let mut t = ScopeTrace::new(25e6);
        t.mark(0, "frame");
        t.mark(70, "jam");
        t.mark(1000, "frame"); // no jam follows
        let err = t.correspondence("frame", "jam", 100).unwrap_err();
        assert!(err.contains("no 'jam'"), "{err}");
    }

    #[test]
    fn correspondence_detects_spurious_early_jam() {
        // Regression: a jam burst arriving *before* the frame it would
        // answer must be reported as unmatched — the old `while` form
        // returned on its first iteration and could never "skip" anything,
        // so this path is pinned down explicitly.
        let mut t = ScopeTrace::new(25e6);
        t.mark(40, "jam"); // spurious: precedes every frame
        t.mark(100, "frame");
        t.mark(170, "jam");
        let err = t.correspondence("frame", "jam", 100).unwrap_err();
        assert!(
            err.contains("unmatched 'jam' at sample 40 before 'frame' at 100"),
            "{err}"
        );
    }

    #[test]
    fn correspondence_detects_spurious_mid_stream_jam() {
        // Same violation in the middle of an otherwise-healthy run.
        let mut t = ScopeTrace::new(25e6);
        t.mark(0, "frame");
        t.mark(70, "jam");
        t.mark(500, "jam"); // no frame in front of it
        t.mark(1000, "frame");
        t.mark(1070, "jam");
        let err = t.correspondence("frame", "jam", 100).unwrap_err();
        assert!(err.contains("unmatched 'jam' at sample 500"), "{err}");
    }

    #[test]
    fn correspondence_detects_spurious_jam() {
        let mut t = ScopeTrace::new(25e6);
        t.mark(0, "frame");
        t.mark(70, "jam");
        t.mark(500, "jam"); // extra burst, no frame
        let err = t.correspondence("frame", "jam", 100).unwrap_err();
        assert!(err.contains("extra"), "{err}");
    }

    #[test]
    fn ascii_render_shape() {
        let mut t = ScopeTrace::new(25e6);
        t.capture(&burst(50, 0.1));
        t.capture(&burst(50, 1.0));
        t.mark(75, "jam");
        let art = t.render_ascii(20, 4);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 5); // 4 signal rows + 1 marker lane
                                    // The second half of the top row should contain '#', the first not.
        let top = lines[0];
        assert!(!top[..10].contains('#'));
        assert!(top[10..].contains('#'));
        assert!(lines[4].contains('^'));
        assert!(lines[4].ends_with("jam"));
    }

    #[test]
    fn empty_render() {
        let t = ScopeTrace::new(25e6);
        assert_eq!(t.render_ascii(10, 3), "(empty trace)\n");
    }

    #[test]
    fn render_markers_colliding_at_same_sample() {
        // Regression: two markers with *different* labels at the same
        // sample index must each keep their own lane — neither may clobber
        // the other — and duplicate markers on one label must collapse to a
        // single '^' in that label's lane, not corrupt the layout.
        let mut t = ScopeTrace::new(25e6);
        t.capture(&burst(100, 1.0));
        t.mark(50, "frame");
        t.mark(50, "jam"); // same index, different label
        t.mark(50, "jam"); // exact duplicate
        let art = t.render_ascii(20, 2);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 4, "2 signal rows + 2 marker lanes:\n{art}");
        // Lanes are alphabetical: "frame" then "jam".
        assert!(lines[2].ends_with("frame"), "{art}");
        assert!(lines[3].ends_with("jam"), "{art}");
        // Both lanes carry a caret in the SAME column (sample 50, bucket 10).
        let frame_col = lines[2].find('^').expect("frame lane has a caret");
        let jam_col = lines[3].find('^').expect("jam lane has a caret");
        assert_eq!(frame_col, jam_col, "colliding markers share a column");
        assert_eq!(frame_col, 10);
        // The duplicate jam marker collapses: exactly one caret in the lane.
        assert_eq!(lines[3].matches('^').count(), 1, "{art}");
    }

    #[test]
    fn render_marker_beyond_envelope_clamps_to_last_column() {
        // Regression: a marker past the end of the capture (e.g. a jam
        // burst scheduled after the scope stopped) must clamp to the final
        // column instead of indexing out of bounds.
        let mut t = ScopeTrace::new(25e6);
        t.capture(&burst(100, 1.0));
        t.mark(10_000, "late");
        let art = t.render_ascii(10, 2);
        let lane = art.lines().nth(2).unwrap();
        assert_eq!(lane.find('^'), Some(9), "{art}");
    }

    #[test]
    fn markers_json_is_sorted_and_escaped() {
        let mut t = ScopeTrace::new(25e6);
        t.capture(&burst(4, 1.0));
        t.mark(70, "jam");
        t.mark(0, "frame \"A\"");
        let json = t.to_markers_json();
        let v = rjam_obs::json::parse(&json).expect("scope markers JSON parses");
        let obj = v.as_object().unwrap();
        assert_eq!(
            obj["schema"].as_str(),
            Some("rjam-scope-markers-v1"),
            "{json}"
        );
        assert_eq!(obj["sample_rate"].as_f64(), Some(25e6));
        assert_eq!(obj["len"].as_u64(), Some(4));
        let markers = obj["markers"].as_array().unwrap();
        assert_eq!(markers.len(), 2);
        // Time order, not insertion order.
        let first = markers[0].as_object().unwrap();
        assert_eq!(first["at"].as_u64(), Some(0));
        assert_eq!(first["label"].as_str(), Some("frame \"A\""));
        let second = markers[1].as_object().unwrap();
        assert_eq!(second["at"].as_u64(), Some(70));
        assert_eq!(second["label"].as_str(), Some("jam"));
    }

    #[test]
    fn markers_json_empty_trace() {
        let t = ScopeTrace::new(25e6);
        let v = rjam_obs::json::parse(&t.to_markers_json()).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj["len"].as_u64(), Some(0));
        assert!(obj["markers"].as_array().unwrap().is_empty());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn scope_activity_feeds_registry() {
        use rjam_obs::registry::counter_value;
        let s0 = counter_value("channel.scope_captured_samples");
        let m0 = counter_value("channel.scope_markers");
        let mut t = ScopeTrace::new(25e6);
        t.capture(&burst(128, 0.7));
        t.mark(64, "jam");
        assert!(counter_value("channel.scope_captured_samples") >= s0 + 128);
        assert!(counter_value("channel.scope_markers") > m0);
    }
}
