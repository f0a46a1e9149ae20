//! The jamming transmit controller (paper §2.4).
//!
//! Once the trigger builder fires, the controller owns the transmit data
//! path: after an optional user-programmed delay (for "surgical" jamming of
//! specific packet regions) and the 8-clock TX-pipeline initialization, it
//! streams one of three waveforms into the DUC for the programmed uptime:
//!
//! 1. a pseudorandom 25 MHz-wide white Gaussian noise signal, generated here
//!    by a bank of Galois LFSRs whose summed outputs approximate a Gaussian
//!    (the standard FPGA WGN idiom);
//! 2. a repetitive replay of up to the 512 most recently received samples;
//! 3. the waveform currently streamed to the transmit buffer by the host.
//!
//! Uptime is programmable from a single sample (40 ns) to 2^32 samples.
//! All latencies are accounted in 100 MHz clock cycles.
//!
//! [`BurstRule`] states the controller's reactive timing — which samples
//! it transmits on — as a function of its trigger samples alone, for
//! callers that need the jam decisions but not the jam waveform.

use crate::{CLOCKS_PER_SAMPLE, TX_INIT_CYCLES};
use rjam_sdr::complex::IqI16;
use rjam_sdr::ring::ReplayBuffer;
use std::ops::Range;

/// Whole samples the TX-pipeline initialization spans: RF begins inside
/// the sample period in which the [`TX_INIT_CYCLES`]-th init cycle falls.
pub const TX_INIT_SAMPLES: u64 = TX_INIT_CYCLES.div_ceil(CLOCKS_PER_SAMPLE);

/// The reactive controller's burst timing as a pure function of its
/// trigger samples: the samples [`JamController::tick`] transmits on, in
/// reactive mode, without the samples it transmits.
///
/// RF starts `delay + TX_INIT_SAMPLES` samples after an accepted trigger
/// and lasts `uptime` samples. A trigger that arrives while the
/// controller is busy — waiting out the delay, filling the TX pipeline or
/// transmitting — is dropped. A burst can run past the end of the block
/// whose trigger started it; the next block then reads it from its first
/// sample on. A disabled or continuous controller does not follow this
/// rule.
#[derive(Clone, Debug)]
pub struct BurstRule {
    /// Samples from an accepted trigger to the burst's first RF sample.
    lead: u64,
    uptime: u64,
    /// RF samples of the last accepted burst (`0..0` before the first).
    burst: Range<u64>,
}

impl BurstRule {
    /// The rule of a controller programmed with `delay_samples` and
    /// `uptime_samples` (clamped to at least 1, as
    /// [`JamController::set_uptime_samples`] does).
    pub fn new(delay_samples: u64, uptime_samples: u64) -> Self {
        BurstRule {
            lead: delay_samples.saturating_add(TX_INIT_SAMPLES),
            uptime: uptime_samples.max(1),
            burst: 0..0,
        }
    }

    /// Offers a trigger at absolute sample `t`; triggers must come in
    /// stream order. Returns the RF samples of the burst it starts, or
    /// `None` when the controller is busy and drops it.
    pub fn trigger(&mut self, t: u64) -> Option<Range<u64>> {
        if t < self.burst.end {
            return None;
        }
        let start = t.saturating_add(self.lead);
        self.burst = start..start.saturating_add(self.uptime);
        Some(self.burst.clone())
    }

    /// Runs the controller over the samples `block`, whose triggers are
    /// `triggers` (ascending, inside `block`), and appends the block's RF
    /// samples to `on_air` as ranges clipped to the block, in time order:
    /// a burst carried in from an earlier block comes first.
    pub fn on_air(&mut self, block: Range<u64>, triggers: &[u64], on_air: &mut Vec<Range<u64>>) {
        let mut keep = |burst: Range<u64>| {
            let clipped = burst.start.max(block.start)..burst.end.min(block.end);
            if !clipped.is_empty() {
                on_air.push(clipped);
            }
        };
        keep(self.burst.clone());
        for &t in triggers {
            if let Some(burst) = self.trigger(t) {
                keep(burst);
            }
        }
    }

    /// Forgets every burst, as [`JamController::reset`] does.
    pub fn reset(&mut self) {
        self.burst = 0..0;
    }
}

/// Jamming waveform selection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JamWaveform {
    /// Pseudorandom white Gaussian noise filling the 25 MHz baseband.
    Wgn,
    /// Replay of the most recently captured receive samples.
    Replay,
    /// Host-supplied transmit buffer, looped.
    HostStream(Vec<IqI16>),
}

/// A completed (or in-progress) jam burst, with cycle-accurate timing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JamEvent {
    /// Sample index at which the trigger arrived.
    pub trigger_sample: u64,
    /// FPGA clock cycle of the trigger (detection latency already included
    /// by the detectors; this is the cycle the controller saw it).
    pub trigger_cycle: u64,
    /// Cycle at which RF output began.
    pub start_cycle: u64,
    /// Cycle at which RF output ended (`None` while still jamming).
    pub end_cycle: Option<u64>,
}

impl JamEvent {
    /// Turnaround from trigger to RF out, in clock cycles.
    pub fn response_cycles(&self) -> u64 {
        self.start_cycle - self.trigger_cycle
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum State {
    Idle,
    /// Waiting out the user delay, in samples.
    Delay(u64),
    /// Filling the TX pipeline, in cycles.
    Init(u64),
    /// Actively jamming, samples remaining.
    Jamming(u64),
}

/// Gaussian-ish noise from summed LFSR bits (hardware WGN idiom).
#[derive(Clone, Debug)]
struct LfsrWgn {
    state: u32,
}

impl LfsrWgn {
    fn new(seed: u32) -> Self {
        LfsrWgn {
            state: if seed == 0 { 0xACE1_u32 } else { seed },
        }
    }

    #[inline]
    fn next_bits(&mut self, n: u32) -> u32 {
        let mut out = 0;
        for _ in 0..n {
            let lsb = self.state & 1;
            self.state >>= 1;
            if lsb == 1 {
                // Taps for a maximal-length 32-bit Galois LFSR.
                self.state ^= 0x8020_0003;
            }
            out = (out << 1) | lsb;
        }
        out
    }

    /// One quasi-Gaussian component: sum of eight 4-bit uniforms, centered.
    /// Range is +-60 around zero with sigma ~ 10.95; scaled to ~half full
    /// scale so the summed I/Q power fills the DAC without clipping.
    #[inline]
    fn next_component(&mut self) -> i16 {
        let mut acc: i32 = 0;
        for _ in 0..8 {
            acc += self.next_bits(4) as i32;
        }
        ((acc - 60) * 270) as i16
    }

    #[inline]
    fn next_sample(&mut self) -> IqI16 {
        IqI16::new(self.next_component(), self.next_component())
    }
}

/// The transmit controller block.
#[derive(Clone, Debug)]
pub struct JamController {
    waveform: JamWaveform,
    /// Jam burst length in samples.
    uptime: u64,
    /// Trigger-to-burst delay in samples.
    delay: u64,
    /// Continuous mode transmits regardless of triggers.
    continuous: bool,
    enabled: bool,
    state: State,
    wgn: LfsrWgn,
    replay: ReplayBuffer,
    /// Snapshot being replayed during the current burst.
    replay_shot: Vec<IqI16>,
    stream_pos: usize,
    events: Vec<JamEvent>,
    /// Samples processed.
    now: u64,
    /// Output amplitude scale in Q1.15 (32768 = unity, exact).
    amplitude_q15: i32,
    /// Cycle at which the pending burst's RF begins (trigger + delay + init).
    pending_start_cycle: u64,
}

impl JamController {
    /// Creates a controller with WGN waveform, 1-sample uptime, no delay,
    /// disabled.
    pub fn new() -> Self {
        JamController {
            waveform: JamWaveform::Wgn,
            uptime: 1,
            delay: 0,
            continuous: false,
            enabled: false,
            state: State::Idle,
            wgn: LfsrWgn::new(0xC0FF_EE01),
            replay: ReplayBuffer::new(ReplayBuffer::HW_DEPTH),
            replay_shot: Vec::new(),
            stream_pos: 0,
            events: Vec::new(),
            now: 0,
            amplitude_q15: 32768,
            pending_start_cycle: 0,
        }
    }

    /// Selects the jamming waveform.
    pub fn set_waveform(&mut self, w: JamWaveform) {
        self.waveform = w;
        self.stream_pos = 0;
    }

    /// Sets burst length in samples (clamped to at least 1).
    pub fn set_uptime_samples(&mut self, samples: u64) {
        self.uptime = samples.max(1);
    }

    /// Sets the trigger-to-burst delay in samples ("surgical" jamming).
    pub fn set_delay_samples(&mut self, samples: u64) {
        self.delay = samples;
    }

    /// Enables or disables reactive operation.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        if !on {
            self.state = State::Idle;
        }
    }

    /// Switches continuous (always-on) transmission, the paper's baseline
    /// jammer realized on the same hardware.
    pub fn set_continuous(&mut self, on: bool) {
        self.continuous = on;
    }

    /// Re-seeds the WGN generator (register interface).
    pub fn set_wgn_seed(&mut self, seed: u32) {
        self.wgn = LfsrWgn::new(seed);
    }

    /// Sets output amplitude as a fraction of full scale.
    pub fn set_amplitude(&mut self, a: f64) {
        self.amplitude_q15 = ((a.clamp(0.0, 1.0)) * 32768.0).round() as i32;
    }

    /// Completed and in-progress jam events.
    pub fn events(&self) -> &[JamEvent] {
        &self.events
    }

    /// Advances one baseband sample: captures `rx` into the replay buffer,
    /// processes a possible `trigger`, and returns the TX sample if the
    /// controller is driving the DUC this sample.
    pub fn tick(&mut self, trigger: bool, rx: IqI16) -> Option<IqI16> {
        let sample = self.now;
        self.now += 1;
        self.replay.push(rx);

        if self.continuous {
            return Some(self.next_tx_sample());
        }
        if !self.enabled {
            return None;
        }

        // Detector pulses land on the cycle after the sample's arithmetic,
        // matching the one-cycle comparator register in hardware.
        let trigger_cycle = sample * CLOCKS_PER_SAMPLE + 1;

        match self.state {
            State::Idle => {
                if trigger {
                    if self.delay > 0 {
                        self.state = State::Delay(self.delay);
                    } else {
                        self.state = State::Init(TX_INIT_CYCLES);
                    }
                    self.pending_start_cycle =
                        trigger_cycle + self.delay * CLOCKS_PER_SAMPLE + TX_INIT_CYCLES;
                    self.events.push(JamEvent {
                        trigger_sample: sample,
                        trigger_cycle,
                        start_cycle: 0,
                        end_cycle: None,
                    });
                }
                None
            }
            State::Delay(left) => {
                if left > 1 {
                    self.state = State::Delay(left - 1);
                } else {
                    self.state = State::Init(TX_INIT_CYCLES);
                }
                None
            }
            State::Init(cycles_left) => {
                if cycles_left > CLOCKS_PER_SAMPLE {
                    self.state = State::Init(cycles_left - CLOCKS_PER_SAMPLE);
                    None
                } else {
                    // Pipeline full within this sample period: RF begins.
                    self.begin_burst();
                    self.continue_burst(sample)
                }
            }
            State::Jamming(_) => self.continue_burst(sample),
        }
    }

    fn begin_burst(&mut self) {
        if let Some(ev) = self.events.last_mut() {
            if ev.end_cycle.is_none() && ev.start_cycle == 0 {
                // The DUC runs at the full 100 MHz clock, so RF can begin
                // mid-sample-period, exactly TX_INIT_CYCLES after the trigger
                // (plus any programmed delay).
                ev.start_cycle = self.pending_start_cycle;
            }
        }
        if self.waveform == JamWaveform::Replay {
            self.replay_shot = self.replay.snapshot();
        }
        self.stream_pos = 0;
        self.state = State::Jamming(self.uptime);
    }

    fn continue_burst(&mut self, sample: u64) -> Option<IqI16> {
        if let State::Jamming(left) = self.state {
            let out = self.next_tx_sample();
            if left > 1 {
                self.state = State::Jamming(left - 1);
            } else {
                self.state = State::Idle;
                if let Some(ev) = self.events.last_mut() {
                    ev.end_cycle = Some((sample + 1) * CLOCKS_PER_SAMPLE);
                }
            }
            Some(out)
        } else {
            None
        }
    }

    fn next_tx_sample(&mut self) -> IqI16 {
        let raw = match &self.waveform {
            JamWaveform::Wgn => self.wgn.next_sample(),
            JamWaveform::Replay => {
                if self.replay_shot.is_empty() {
                    // Continuous mode may replay without a prior burst
                    // snapshot; fall back to the live buffer contents.
                    self.replay_shot = self.replay.snapshot();
                }
                if self.replay_shot.is_empty() {
                    IqI16::ZERO
                } else {
                    let s = self.replay_shot[self.stream_pos % self.replay_shot.len()];
                    self.stream_pos += 1;
                    s
                }
            }
            JamWaveform::HostStream(buf) => {
                if buf.is_empty() {
                    IqI16::ZERO
                } else {
                    let s = buf[self.stream_pos % buf.len()];
                    self.stream_pos += 1;
                    s
                }
            }
        };
        let k = self.amplitude_q15;
        IqI16::new(
            ((raw.i as i32 * k) >> 15) as i16,
            ((raw.q as i32 * k) >> 15) as i16,
        )
    }

    /// Resets streaming state, keeping configuration.
    pub fn reset(&mut self) {
        self.state = State::Idle;
        self.replay.reset();
        self.replay_shot.clear();
        self.stream_pos = 0;
        self.events.clear();
        self.now = 0;
    }
}

impl Default for JamController {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ctl: &mut JamController, triggers: &[u64], n: u64) -> Vec<Option<IqI16>> {
        (0..n)
            .map(|s| ctl.tick(triggers.contains(&s), IqI16::new(100, -100)))
            .collect()
    }

    #[test]
    fn disabled_controller_is_silent() {
        let mut ctl = JamController::new();
        let out = run(&mut ctl, &[5], 100);
        assert!(out.iter().all(Option::is_none));
        assert!(ctl.events().is_empty());
    }

    #[test]
    fn trigger_to_rf_within_80ns() {
        let mut ctl = JamController::new();
        ctl.set_enabled(true);
        ctl.set_uptime_samples(10);
        let out = run(&mut ctl, &[20], 100);
        let first_tx = out.iter().position(Option::is_some).unwrap();
        // Trigger at sample 20 (cycle 81); 8 init cycles -> RF inside the
        // sample-22 period.
        assert_eq!(first_tx, 22);
        let ev = ctl.events()[0];
        assert_eq!(ev.trigger_cycle, 81);
        assert!(
            ev.response_cycles() <= 8,
            "resp={} cycles",
            ev.response_cycles()
        );
    }

    #[test]
    fn uptime_counts_samples_exactly() {
        let mut ctl = JamController::new();
        ctl.set_enabled(true);
        ctl.set_uptime_samples(25);
        let out = run(&mut ctl, &[0], 200);
        let tx_count = out.iter().filter(|s| s.is_some()).count();
        assert_eq!(tx_count, 25);
        let ev = ctl.events()[0];
        assert!(ev.end_cycle.is_some());
    }

    #[test]
    fn minimum_uptime_is_one_sample_40ns() {
        let mut ctl = JamController::new();
        ctl.set_enabled(true);
        ctl.set_uptime_samples(0); // clamped to 1
        let out = run(&mut ctl, &[0], 50);
        assert_eq!(out.iter().filter(|s| s.is_some()).count(), 1);
    }

    #[test]
    fn delay_defers_burst() {
        let mut ctl = JamController::new();
        ctl.set_enabled(true);
        ctl.set_uptime_samples(5);
        ctl.set_delay_samples(40);
        let out = run(&mut ctl, &[10], 200);
        let first_tx = out.iter().position(Option::is_some).unwrap() as u64;
        // Trigger at 10, 40-sample delay, then 2 samples of TX init.
        assert_eq!(first_tx, 10 + 40 + 2);
    }

    #[test]
    fn triggers_ignored_while_busy() {
        let mut ctl = JamController::new();
        ctl.set_enabled(true);
        ctl.set_uptime_samples(50);
        let _ = run(&mut ctl, &[0, 10, 20], 200);
        assert_eq!(
            ctl.events().len(),
            1,
            "re-triggers during a burst are ignored"
        );
    }

    #[test]
    fn retrigger_after_burst_completes() {
        let mut ctl = JamController::new();
        ctl.set_enabled(true);
        ctl.set_uptime_samples(5);
        let _ = run(&mut ctl, &[0, 100], 200);
        assert_eq!(ctl.events().len(), 2);
    }

    #[test]
    fn continuous_mode_transmits_always() {
        let mut ctl = JamController::new();
        ctl.set_continuous(true);
        let out = run(&mut ctl, &[], 100);
        assert!(out.iter().all(Option::is_some));
    }

    #[test]
    fn wgn_waveform_has_zero_mean_and_spread() {
        let mut ctl = JamController::new();
        ctl.set_continuous(true);
        let out = run(&mut ctl, &[], 20_000);
        let samples: Vec<IqI16> = out.into_iter().flatten().collect();
        let mean_i: f64 = samples.iter().map(|s| s.i as f64).sum::<f64>() / samples.len() as f64;
        let rms: f64 = (samples.iter().map(|s| (s.i as f64).powi(2)).sum::<f64>()
            / samples.len() as f64)
            .sqrt();
        assert!(mean_i.abs() < 200.0, "mean={mean_i}");
        assert!(rms > 1000.0, "rms={rms}");
        // Distinct consecutive samples (it is noise, not a tone).
        let distinct = samples.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(distinct > samples.len() / 2);
    }

    #[test]
    fn replay_waveform_repeats_captured_rx() {
        let mut ctl = JamController::new();
        ctl.set_enabled(true);
        ctl.set_waveform(JamWaveform::Replay);
        ctl.set_uptime_samples(8);
        // Feed a recognizable ramp as RX, trigger at sample 600 (buffer full).
        let mut outputs = Vec::new();
        for s in 0..700u64 {
            let rx = IqI16::new((s % 512) as i16, 0);
            outputs.push(ctl.tick(s == 600, rx));
        }
        let tx: Vec<IqI16> = outputs.into_iter().flatten().collect();
        assert_eq!(tx.len(), 8);
        // The snapshot at trigger+2 holds rx ramp values; replay starts from
        // the oldest captured sample — values must come from the rx ramp.
        assert!(tx.iter().all(|s| s.i >= 0 && s.i < 512));
        // Consecutive replayed samples follow the ramp ordering.
        assert_eq!(tx[1].i - tx[0].i, 1);
    }

    #[test]
    fn host_stream_loops() {
        let mut ctl = JamController::new();
        ctl.set_enabled(true);
        ctl.set_waveform(JamWaveform::HostStream(vec![
            IqI16::new(1, 0),
            IqI16::new(2, 0),
            IqI16::new(3, 0),
        ]));
        ctl.set_uptime_samples(7);
        let out = run(&mut ctl, &[0], 50);
        let tx: Vec<i16> = out.into_iter().flatten().map(|s| s.i).collect();
        assert_eq!(tx, vec![1, 2, 3, 1, 2, 3, 1]);
    }

    #[test]
    fn amplitude_scaling() {
        let mut ctl = JamController::new();
        ctl.set_enabled(true);
        ctl.set_waveform(JamWaveform::HostStream(vec![IqI16::new(20000, -20000)]));
        ctl.set_uptime_samples(1);
        ctl.set_amplitude(0.5);
        let out = run(&mut ctl, &[0], 10);
        let tx: Vec<IqI16> = out.into_iter().flatten().collect();
        assert!((tx[0].i - 10000).abs() <= 1);
        assert!((tx[0].q + 10000).abs() <= 1);
    }

    #[test]
    fn burst_rule_transmits_where_the_controller_does() {
        // Delay 0 and 40, a one-sample burst, re-triggers during the delay,
        // the TX init and the burst, and one on the burst's last sample.
        for (delay, uptime, triggers) in [
            (0u64, 10u64, vec![20u64, 21, 23, 31, 32, 33, 80]),
            (40, 5, vec![10, 30, 51, 56, 57]),
            (0, 1, vec![0, 2, 3, 4, 9]),
        ] {
            let mut ctl = JamController::new();
            ctl.set_enabled(true);
            ctl.set_uptime_samples(uptime);
            ctl.set_delay_samples(delay);
            let want: Vec<bool> = run(&mut ctl, &triggers, 200)
                .iter()
                .map(Option::is_some)
                .collect();
            let mut rule = BurstRule::new(delay, uptime);
            let mut on_air = Vec::new();
            rule.on_air(0..200, &triggers, &mut on_air);
            let mut got = vec![false; 200];
            for r in on_air {
                got[r.start as usize..r.end as usize].fill(true);
            }
            assert_eq!(got, want, "delay {delay} uptime {uptime}");
        }
        assert_eq!(BurstRule::new(0, 10).trigger(20), Some(22..32));
    }

    #[test]
    fn events_cleared_on_reset() {
        let mut ctl = JamController::new();
        ctl.set_enabled(true);
        let _ = run(&mut ctl, &[0], 50);
        ctl.reset();
        assert!(ctl.events().is_empty());
    }
}
