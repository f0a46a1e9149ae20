//! Traced jam episodes: one causal chain per frame, MAC emission to jam
//! burst and back.
//!
//! [`EpisodeTracer`] is the episode driver the trace layer needs: it mints
//! a [`FrameId`] when the MAC emits a frame, runs the Fig. 5 episode of
//! [`jam_episode`] (the frame modulated, carried to the jammer and streamed
//! through a freshly armed [`crate::ReactiveJammer`]) and lays its stages
//! onto spans: PHY TX, the paper's five-port cabled network (channel, with
//! the Table 1 insertion loss on the span), FPGA detection, trigger
//! arbitration, capture-FIFO occupancy and jam-burst TX, closed by the MAC
//! outcome — delivered, jammed, or missed. Every stage lands in one
//! [`TraceSink`] on a shared nanosecond clock, so a single exported
//! document shows *where* each frame's nanoseconds went.
//!
//! With observability compiled out (`--no-default-features`) the sink is a
//! ZST and every recording call disappears; the episodes still run and the
//! [`EpisodeReport`]s stay accurate because outcomes are derived from the
//! jammer's burst log, not from the trace.

use crate::presets::DetectionPreset;
use crate::timeline::{jam_episode, EPISODE_PRESETS, EPISODE_PSDU_LEN};
use rjam_channel::fiveport::{FivePortNetwork, Port};
use rjam_fpga::jammer::JamEvent;
use rjam_fpga::trace::NS_PER_SAMPLE;
use rjam_fpga::{CoreEvent, CLOCKS_PER_SAMPLE};
use rjam_obs::trace::{stage, FrameId, FrameIdGen, Outcome, TraceDoc, TraceSink};
use std::ops::Range;

/// What one traced episode did, independent of the trace itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EpisodeReport {
    /// Correlation ID minted at MAC emission.
    pub frame: FrameId,
    /// How the frame ended: delivered, jammed, or missed.
    pub outcome: Outcome,
    /// Detector fires (xcorr or energy) logged during the episode.
    pub detections: usize,
    /// Jam bursts transmitted.
    pub jam_bursts: usize,
    /// The response budget of the episode's detection path, ns
    /// ([`DetectionPreset::response_budget_ns`]).
    pub budget_ns: f64,
}

/// Drives traced jam episodes onto one shared timeline.
///
/// Episodes are laid out back-to-back on a monotone nanosecond clock
/// (each episode's FPGA cycle 0 is pinned to the tracer's cursor), so a
/// multi-episode capture loads into Perfetto as one continuous timeline
/// with one track per pipeline stage.
#[derive(Debug)]
pub struct EpisodeTracer {
    sink: TraceSink,
    ids: FrameIdGen,
    net: FivePortNetwork,
    cursor_ns: u64,
}

impl EpisodeTracer {
    /// Creates a tracer whose sink holds at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EpisodeTracer {
            sink: TraceSink::with_capacity(capacity),
            ids: FrameIdGen::new(),
            net: FivePortNetwork::paper_table1(),
            cursor_ns: 0,
        }
    }

    /// Runs the [`jam_episode`] of `det` and `seed` and traces it: emit,
    /// modulate, propagate, detect, jam, resolve. Returns what happened;
    /// the causal trace accumulates in the tracer's sink.
    pub fn run_episode(&mut self, det: &DetectionPreset, seed: u64) -> EpisodeReport {
        let fid = self.ids.mint();
        let t0 = self.cursor_ns; // episode FPGA cycle 0
        let mut ep = jam_episode(det, seed);
        let j = &mut ep.jammer;

        // --- MAC emission, PHY and channel: the episode's frame crosses
        // the five-port network from the client to the jammer's RX port,
        // attenuated by the Table 1 insertion loss (the episode sets its
        // power at the *received* level).
        let frame_t0 = t0 + ep.frame.start as u64 * NS_PER_SAMPLE;
        let frame_t1 = t0 + ep.frame.end as u64 * NS_PER_SAMPLE;
        self.sink.instant(
            fid,
            frame_t0,
            stage::MAC,
            "emit",
            EPISODE_PSDU_LEN as i64,
            0,
        );
        self.sink.span_begin(fid, frame_t0, stage::PHY, "tx");
        self.sink.span_end(fid, frame_t1, stage::PHY, "tx");
        rjam_channel::trace::trace_propagation(
            &mut self.sink,
            fid,
            frame_t0,
            frame_t1 - frame_t0,
            &self.net,
            Port::Client,
            Port::JammerRx,
        );
        self.sink.instant(
            fid,
            frame_t0,
            stage::FPGA,
            "rx_first_sample",
            ep.frame.start as i64,
            0,
        );

        // --- FPGA + jammer: detections, trigger, bursts and the capture
        // FIFO's occupancy.
        let eos_cycle = ep.samples as u64 * CLOCKS_PER_SAMPLE;
        rjam_fpga::trace::trace_frame(
            &mut self.sink,
            fid,
            t0,
            j.events(),
            j.jam_events(),
            eos_cycle,
        );
        let occupancy = j.core_mut().capture_occupancy();
        let overflow = j.core_mut().capture_overflow();
        let t_end = t0 + ep.samples as u64 * NS_PER_SAMPLE;
        rjam_fpga::trace::trace_fifo(&mut self.sink, fid, t_end, occupancy, overflow);

        // --- MAC outcome.
        let outcome = outcome(j.jam_events(), &ep.frame, eos_cycle);
        let detections = j
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    CoreEvent::XcorrDetection { .. } | CoreEvent::EnergyHigh { .. }
                )
            })
            .count();
        let jam_bursts = j.jam_events().len();
        self.sink.instant(
            fid,
            t_end,
            stage::MAC,
            "outcome",
            outcome.code(),
            detections as i64,
        );

        // Publish the episode's counters into the process-wide registry so
        // a trailing `--metrics-out` snapshot reflects the traced run too.
        j.core_mut().flush_obs();

        // Next episode starts one sample after this one ends.
        self.cursor_ns = t_end + NS_PER_SAMPLE;

        EpisodeReport {
            frame: fid,
            outcome,
            detections,
            jam_bursts,
            budget_ns: det.response_budget_ns(),
        }
    }

    /// Freezes the accumulated trace into an analysable document.
    pub fn to_doc(&self) -> TraceDoc {
        self.sink.to_doc()
    }
}

/// How a frame ended: jammed when a burst was on air during its samples,
/// missed when bursts went out only outside them, delivered when none went
/// out. A burst still on air when the stream ended runs to `eos_cycle`.
fn outcome(jams: &[JamEvent], frame: &Range<usize>, eos_cycle: u64) -> Outcome {
    let frame = frame.start as u64 * CLOCKS_PER_SAMPLE..frame.end as u64 * CLOCKS_PER_SAMPLE;
    let bursts = || jams.iter().filter(|b| b.start_cycle > 0);
    if bursts().any(|b| b.start_cycle < frame.end && b.end_cycle.unwrap_or(eos_cycle) > frame.start)
    {
        Outcome::Jammed
    } else if bursts().next().is_some() {
        Outcome::Missed
    } else {
        Outcome::Delivered
    }
}

/// Runs the default traced capture: `episodes` frame episodes alternating
/// the WiFi-short-preamble and energy-rise detection paths of
/// [`EPISODE_PRESETS`] — the episodes `rjamctl stats` runs, now with the
/// causal chain recorded. Returns the reports and the frozen trace.
pub fn default_traced_capture(episodes: usize, seed0: u64) -> (Vec<EpisodeReport>, TraceDoc) {
    let mut tracer = EpisodeTracer::new(4096.max(episodes * 32));
    let [energy, xcorr] = &EPISODE_PRESETS;
    let mut reports = Vec::with_capacity(episodes);
    for k in 0..episodes as u64 {
        let det = if k % 2 == 0 { xcorr } else { energy };
        reports.push(tracer.run_episode(det, seed0 + k));
    }
    (reports, tracer.to_doc())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn episode_reports_are_deterministic_and_jammed() {
        let mut a = EpisodeTracer::new(1024);
        let mut b = EpisodeTracer::new(1024);
        let det = &EPISODE_PRESETS[1];
        let ra = a.run_episode(det, 42);
        let rb = b.run_episode(det, 42);
        assert_eq!(ra, rb, "same seed, same episode");
        assert_eq!(ra.outcome, Outcome::Jammed);
        assert!(ra.detections > 0);
        assert!(ra.jam_bursts > 0);
    }

    #[test]
    fn outcome_reads_the_burst_log() {
        let burst = |start_cycle, end_cycle| JamEvent {
            trigger_sample: 0,
            trigger_cycle: 1,
            start_cycle,
            end_cycle,
        };
        // The frame's samples 100..200 are cycles 400..800.
        let frame = 100..200;
        let ends = |jams: &[JamEvent]| outcome(jams, &frame, 1_000);
        assert_eq!(ends(&[]), Outcome::Delivered);
        assert_eq!(ends(&[burst(0, None)]), Outcome::Delivered, "never on air");
        assert_eq!(ends(&[burst(50, Some(400))]), Outcome::Missed);
        assert_eq!(ends(&[burst(800, Some(900))]), Outcome::Missed);
        assert_eq!(ends(&[burst(50, Some(401))]), Outcome::Jammed);
        assert_eq!(ends(&[burst(799, None)]), Outcome::Jammed);
        assert_eq!(
            ends(&[burst(50, Some(300)), burst(600, Some(700))]),
            Outcome::Jammed
        );
    }

    #[test]
    fn reports_carry_their_paths_budget() {
        let (reports, _) = default_traced_capture(2, 5);
        let budgets: Vec<f64> = reports.iter().map(|r| r.budget_ns).collect();
        let [energy, xcorr] = &EPISODE_PRESETS;
        assert_eq!(
            budgets,
            [xcorr.response_budget_ns(), energy.response_budget_ns()]
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn traced_episode_has_full_causal_chain() {
        let (reports, doc) = default_traced_capture(2, 0x7ACE);
        doc.validate().unwrap();
        assert_eq!(reports.len(), 2);
        let frames = doc.frames();
        assert_eq!(frames.len(), 2, "one FrameTrace per episode");
        // Every jammed frame must expose the whole chain and a stage
        // decomposition that sums exactly to the trigger-to-TX latency.
        let mut jammed = 0;
        for ft in &frames {
            if ft.outcome() != Some(Outcome::Jammed) {
                continue;
            }
            jammed += 1;
            assert!(ft.has_full_chain(), "frame {:?}", ft.frame);
            let t2t = ft.trigger_to_tx_ns().expect("trigger-to-TX");
            // The first burst's stage decomposition (programmed delay, if
            // any, plus the 8-cycle TX init) sums exactly to it.
            let delay_ns = ft.span(stage::FPGA, "delay").map_or(0, |(t0, t1)| t1 - t0);
            let init_ns = ft
                .span(stage::FPGA, "tx_init")
                .map_or(0, |(t0, t1)| t1 - t0);
            assert_eq!(
                delay_ns + init_ns,
                t2t,
                "delay+tx_init sum to trigger-to-TX"
            );
            let resp = ft.response_ns().expect("response latency");
            assert!(resp >= t2t, "response includes detection time");
            let report = reports.iter().find(|r| r.frame == ft.frame).unwrap();
            assert!(
                resp as f64 <= report.budget_ns,
                "response {resp} ns blows its path's {} ns budget",
                report.budget_ns
            );
        }
        assert!(jammed >= 1, "at least one jammed frame in the capture");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn episodes_share_one_monotone_timeline() {
        let (_, doc) = default_traced_capture(3, 9);
        let frames = doc.frames();
        let emits: Vec<u64> = frames
            .iter()
            .map(|f| f.instant_t(stage::MAC, "emit").unwrap())
            .collect();
        assert!(
            emits.windows(2).all(|w| w[0] < w[1]),
            "episodes laid out back-to-back: {emits:?}"
        );
        // The channel span carries the Table 1 path (client -> jammer RX).
        let path = frames[0].instant_a(stage::CHANNEL, "path").unwrap();
        assert!(path > 0, "real insertion loss on the channel span");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn fifo_occupancy_recorded_when_capture_enabled() {
        let (_, doc) = default_traced_capture(1, 3);
        let frames = doc.frames();
        let occ = frames[0].instant_a(stage::FPGA, "fifo");
        assert!(occ.is_some(), "fifo instant present");
        assert!(occ.unwrap() > 0, "the triggering frame fills the FIFO");
    }

    #[cfg(not(feature = "obs"))]
    #[test]
    fn disabled_build_still_reports_outcomes() {
        let (reports, doc) = default_traced_capture(2, 0x7ACE);
        assert!(doc.events.is_empty(), "no events with obs compiled out");
        assert!(reports.iter().any(|r| r.outcome == Outcome::Jammed));
    }
}
