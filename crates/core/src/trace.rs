//! Traced jam episodes: one causal chain per frame, MAC emission to jam
//! burst and back.
//!
//! [`EpisodeTracer`] is the episode driver the trace layer needs: it mints
//! a [`FrameId`] when the MAC emits a frame, modulates it (PHY), carries it
//! across the paper's five-port cabled network (channel, with the Table 1
//! insertion loss on the span), streams it through a freshly armed
//! [`ReactiveJammer`] (FPGA detection, trigger arbitration, capture-FIFO
//! occupancy, jam-burst TX) and closes the chain with the MAC outcome —
//! delivered, jammed, or missed. Every stage lands in one [`TraceSink`] on
//! a shared nanosecond clock, so a single exported document shows *where*
//! each frame's nanoseconds went.
//!
//! With observability compiled out (`--no-default-features`) the sink is a
//! ZST and every recording call disappears; the episodes still run and the
//! [`EpisodeReport`]s stay accurate because outcomes are derived from the
//! jammer's activity mask, not from the trace.

use crate::jammer::{BlockScratch, ReactiveJammer};
use crate::presets::{DetectionPreset, JammerPreset};
use crate::timeline::{episode_stream, EPISODE_LEAD_SAMPLES};
use rjam_channel::fiveport::{FivePortNetwork, Port};
use rjam_fpga::trace::NS_PER_SAMPLE;
use rjam_fpga::{CoreEvent, CLOCKS_PER_SAMPLE};
use rjam_obs::trace::{stage, FrameId, FrameIdGen, Outcome, TraceDoc, TraceSink};

/// PSDU bytes of each traced frame.
const PSDU_LEN: usize = 80;

/// Noise tail after each frame, in samples.
const TAIL_SAMPLES: usize = 400;

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
    /// Episode length in receive samples.
    pub stream_samples: usize,
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
    scratch: BlockScratch,
}

impl EpisodeTracer {
    /// Creates a tracer whose sink holds at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EpisodeTracer {
            sink: TraceSink::with_capacity(capacity),
            ids: FrameIdGen::new(),
            net: FivePortNetwork::paper_table1(),
            cursor_ns: 0,
            scratch: BlockScratch::new(),
        }
    }

    /// Events dropped by the sink for lack of capacity.
    pub fn dropped(&self) -> u64 {
        self.sink.dropped()
    }

    /// Runs one frame episode: emit, modulate, propagate, detect, jam,
    /// resolve. Returns what happened; the causal trace accumulates in the
    /// tracer's sink.
    pub fn run_episode(
        &mut self,
        det: &DetectionPreset,
        reaction: &JammerPreset,
        seed: u64,
    ) -> EpisodeReport {
        let fid = self.ids.mint();
        let t0 = self.cursor_ns; // episode FPGA cycle 0

        // --- MAC emission, PHY and channel: the client's frame, modulated
        // and resampled to the USRP rate, crosses the five-port network to
        // the jammer's RX port, attenuated by the Table 1 insertion loss;
        // its power is set at the *received* level.
        let (stream, frame_len) = episode_stream(PSDU_LEN, TAIL_SAMPLES, seed);

        let frame_t0 = t0 + EPISODE_LEAD_SAMPLES as u64 * NS_PER_SAMPLE;
        let frame_t1 = frame_t0 + frame_len as u64 * NS_PER_SAMPLE;
        self.sink
            .instant(fid, frame_t0, stage::MAC, "emit", PSDU_LEN as i64, 0);
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
            EPISODE_LEAD_SAMPLES as i64,
            0,
        );

        // --- FPGA + jammer: fresh core, armed with the requested
        // personalities, capture FIFO live so occupancy is observable.
        let mut j = ReactiveJammer::new(det.clone(), reaction.clone());
        j.core_mut().enable_capture(16, 240, 1024);
        // Allocation-free datapath: the tracer's scratch buffers are
        // reused across episodes, same as the campaign engine's shards.
        j.process_block_into(&stream, &mut self.scratch);
        let active = self.scratch.active();
        let eos_cycle = stream.len() as u64 * CLOCKS_PER_SAMPLE;
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
        let t_end = t0 + stream.len() as u64 * NS_PER_SAMPLE;
        rjam_fpga::trace::trace_fifo(&mut self.sink, fid, t_end, occupancy, overflow);

        // --- MAC outcome: the burst either overlapped the frame on air
        // (jammed), landed outside it (missed), or never happened
        // (delivered).
        let frame_range = EPISODE_LEAD_SAMPLES..EPISODE_LEAD_SAMPLES + frame_len;
        let jam_in_frame = active[frame_range].iter().any(|&a| a);
        let jam_any = active.iter().any(|&a| a);
        let outcome = if jam_in_frame {
            Outcome::Jammed
        } else if jam_any {
            Outcome::Missed
        } else {
            Outcome::Delivered
        };
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
            stream_samples: stream.len(),
        }
    }

    /// Freezes the accumulated trace into an analysable document.
    pub fn to_doc(&self) -> TraceDoc {
        self.sink.to_doc()
    }
}

/// Runs the default traced capture: `episodes` frame episodes alternating
/// the energy-rise and WiFi-short-preamble detection paths against a 10 µs
/// reactive WGN burst — the same exercise `rjamctl stats` runs, now with
/// the causal chain recorded. Returns the reports and the frozen trace.
pub fn default_traced_capture(episodes: usize, seed0: u64) -> (Vec<EpisodeReport>, TraceDoc) {
    let mut tracer = EpisodeTracer::new(4096.max(episodes * 32));
    let reaction = JammerPreset::Reactive {
        uptime_s: 10e-6,
        waveform: rjam_fpga::JamWaveform::Wgn,
    };
    let mut reports = Vec::with_capacity(episodes);
    for k in 0..episodes as u64 {
        let det = if k % 2 == 0 {
            DetectionPreset::WifiShortPreamble { threshold: 0.35 }
        } else {
            DetectionPreset::EnergyRise { threshold_db: 10.0 }
        };
        reports.push(tracer.run_episode(&det, &reaction, seed0 + k));
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
        let det = DetectionPreset::WifiShortPreamble { threshold: 0.35 };
        let reaction = JammerPreset::Reactive {
            uptime_s: 10e-6,
            waveform: rjam_fpga::JamWaveform::Wgn,
        };
        let ra = a.run_episode(&det, &reaction, 42);
        let rb = b.run_episode(&det, &reaction, 42);
        assert_eq!(ra, rb, "same seed, same episode");
        assert_eq!(ra.outcome, Outcome::Jammed);
        assert!(ra.detections > 0);
        assert!(ra.jam_bursts > 0);
    }

    #[test]
    fn monitor_mode_delivers() {
        let mut t = EpisodeTracer::new(1024);
        let r = t.run_episode(
            &DetectionPreset::WifiShortPreamble { threshold: 0.35 },
            &JammerPreset::Monitor,
            7,
        );
        assert_eq!(r.outcome, Outcome::Delivered);
        assert_eq!(r.jam_bursts, 0);
        assert!(r.detections > 0, "monitor still detects");
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
            assert!(
                resp as f64 <= crate::timeline::TimelineBudget::paper().t_resp_xcorr_ns,
                "response {resp} ns blows the paper budget"
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
