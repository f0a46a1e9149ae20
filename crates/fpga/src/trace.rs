//! Causal-trace attribution for the FPGA core's cycle-domain events.
//!
//! [`crate::DspCore`] is deliberately frame-agnostic — it streams samples
//! and logs detections on its own 100 MHz cycle clock. The *episode driver*
//! (whoever feeds it samples) knows which MAC frame's signal was on the air
//! at any sample index; this module is the bridge: it re-times a window of
//! [`CoreEvent`]s and [`JamEvent`]s onto the episode's nanosecond clock and
//! emits them into a [`TraceSink`] attributed to one [`FrameId`].
//!
//! The trigger-to-TX turnaround is decomposed into the two modeled pipeline
//! stages — the user-programmed `fpga.delay` and the 8-cycle `fpga.tx_init`
//! — whose durations sum *exactly* to [`JamEvent::response_cycles`] × 10 ns,
//! so every budget violation is attributable stage by stage.

use crate::core::CoreEvent;
use crate::jammer::JamEvent;
use crate::{CLOCKS_PER_SAMPLE, NS_PER_CYCLE, TX_INIT_CYCLES};
use rjam_obs::trace::{stage, FrameId, TraceSink};

/// Nanoseconds per ADC sample (4 cycles at 10 ns: 25 MSPS).
pub const NS_PER_SAMPLE: u64 = CLOCKS_PER_SAMPLE * NS_PER_CYCLE;

/// Episode time of a core clock cycle, given the episode time of cycle 0.
#[inline]
pub fn cycle_ns(t0_ns: u64, cycle: u64) -> u64 {
    t0_ns + cycle * NS_PER_CYCLE
}

/// Emits the FPGA- and jam-stage trace for one frame.
///
/// `events` and `jams` must be windowed by the caller to the slice that
/// belongs to `frame` (cursor bookkeeping is the driver's job); `t0_ns` is
/// the episode time of core cycle 0; `eos_cycle` closes any burst still in
/// progress at the end of the streamed block, keeping spans balanced.
pub fn trace_frame(
    sink: &mut TraceSink,
    frame: FrameId,
    t0_ns: u64,
    events: &[CoreEvent],
    jams: &[JamEvent],
    eos_cycle: u64,
) {
    for e in events {
        let t = cycle_ns(t0_ns, e.cycle());
        match *e {
            CoreEvent::XcorrDetection { metric, .. } => {
                sink.instant(frame, t, stage::FPGA, "xcorr_fire", metric as i64, 0);
            }
            CoreEvent::EnergyHigh { .. } => {
                sink.instant(frame, t, stage::FPGA, "energy_fire", 0, 0);
            }
            CoreEvent::EnergyLow { .. } => {
                sink.instant(frame, t, stage::FPGA, "energy_fall", 0, 0);
            }
            CoreEvent::JamTrigger { .. } => {
                sink.instant(frame, t, stage::FPGA, "trigger", 0, 0);
            }
        }
    }
    for j in jams {
        let trig = cycle_ns(t0_ns, j.trigger_cycle);
        let start = cycle_ns(t0_ns, j.start_cycle);
        // start_cycle = trigger_cycle + delay·4 + TX_INIT_CYCLES, so the
        // init stage begins TX_INIT_CYCLES before RF out; anything before
        // that (and after the trigger) is the programmed surgical delay.
        let init0 = start
            .saturating_sub(TX_INIT_CYCLES * NS_PER_CYCLE)
            .max(trig);
        if init0 > trig {
            sink.span_begin(frame, trig, stage::FPGA, "delay");
            sink.span_end(frame, init0, stage::FPGA, "delay");
        }
        sink.span_begin(frame, init0, stage::FPGA, "tx_init");
        sink.span_end(frame, start, stage::FPGA, "tx_init");
        sink.span_begin(frame, start, stage::JAM, "tx");
        let end = j.end_cycle.unwrap_or(eos_cycle).max(j.start_cycle);
        sink.span_end(frame, cycle_ns(t0_ns, end), stage::JAM, "tx");
    }
}

/// Emits the capture-FIFO occupancy instant (`fpga.fifo`): `a` = samples
/// queued toward the host, `b` = cumulative overflow drops.
pub fn trace_fifo(sink: &mut TraceSink, frame: FrameId, t_ns: u64, occupancy: u64, overflow: u64) {
    sink.instant(
        frame,
        t_ns,
        stage::FPGA,
        "fifo",
        occupancy as i64,
        overflow as i64,
    );
}

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;
    use rjam_obs::trace::SpanKind;

    #[test]
    fn delay_and_init_spans_sum_to_response_latency() {
        let mut sink = TraceSink::with_capacity(64);
        let f = FrameId(3);
        // A surgical burst: delay 5 samples (20 cycles) + 8 init cycles.
        let jam = JamEvent {
            trigger_sample: 100,
            trigger_cycle: 401,
            start_cycle: 401 + 20 + TX_INIT_CYCLES,
            end_cycle: Some(401 + 20 + TX_INIT_CYCLES + 250 * CLOCKS_PER_SAMPLE),
        };
        trace_frame(&mut sink, f, 0, &[], &[jam], 0);
        let doc = sink.to_doc();
        doc.validate().unwrap();
        let frames = doc.frames();
        let ft = &frames[0];
        let (d0, d1) = ft.span(stage::FPGA, "delay").unwrap();
        let (i0, i1) = ft.span(stage::FPGA, "tx_init").unwrap();
        assert_eq!(d1, i0, "stages abut");
        let total = (d1 - d0) + (i1 - i0);
        assert_eq!(total, jam.response_cycles() * NS_PER_CYCLE);
        assert_eq!(ft.trigger_to_tx_ns(), Some(total));
    }

    #[test]
    fn zero_delay_burst_has_no_delay_span() {
        let mut sink = TraceSink::with_capacity(64);
        let f = FrameId(1);
        let jam = JamEvent {
            trigger_sample: 10,
            trigger_cycle: 41,
            start_cycle: 41 + TX_INIT_CYCLES,
            end_cycle: None, // still jamming at end of stream
        };
        trace_frame(&mut sink, f, 1000, &[], &[jam], 500);
        let doc = sink.to_doc();
        doc.validate().unwrap();
        let frames = doc.frames();
        let ft = &frames[0];
        assert!(ft.span(stage::FPGA, "delay").is_none());
        assert_eq!(ft.trigger_to_tx_ns(), Some(TX_INIT_CYCLES * NS_PER_CYCLE));
        // The open burst was closed at the end-of-stream cycle.
        let (t0, t1) = ft.span(stage::JAM, "tx").unwrap();
        assert_eq!(t0, 1000 + (41 + TX_INIT_CYCLES) * NS_PER_CYCLE);
        assert_eq!(t1, 1000 + 500 * NS_PER_CYCLE);
    }

    #[test]
    fn detection_events_map_to_instants_on_the_cycle_clock() {
        let mut sink = TraceSink::with_capacity(64);
        let f = FrameId(7);
        let events = [
            CoreEvent::EnergyHigh {
                sample: 5,
                cycle: 21,
            },
            CoreEvent::XcorrDetection {
                sample: 9,
                cycle: 37,
                metric: 123,
            },
            CoreEvent::JamTrigger {
                sample: 9,
                cycle: 37,
            },
        ];
        trace_frame(&mut sink, f, 0, &events, &[], 100);
        trace_fifo(&mut sink, f, 400, 96, 0);
        let doc = sink.to_doc();
        let frames = doc.frames();
        let ft = &frames[0];
        assert_eq!(ft.instant_t(stage::FPGA, "energy_fire"), Some(210));
        assert_eq!(ft.instant_t(stage::FPGA, "xcorr_fire"), Some(370));
        assert_eq!(ft.instant_a(stage::FPGA, "xcorr_fire"), Some(123));
        assert_eq!(ft.instant_t(stage::FPGA, "trigger"), Some(370));
        assert_eq!(ft.instant_a(stage::FPGA, "fifo"), Some(96));
        assert!(doc
            .events
            .iter()
            .all(|e| e.kind != SpanKind::Begin || e.stage != stage::MAC));
    }
}
