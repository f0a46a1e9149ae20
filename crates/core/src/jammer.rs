//! The top-level jammer handle — the programmatic equivalent of the
//! paper's GNU Radio Companion GUI (§2.5).
//!
//! A [`ReactiveJammer`] owns the FPGA core model, applies personalities at
//! run time over the register bus (counting the writes, since personality
//! switches cost only settings-bus latency on real hardware), streams
//! receive samples and surfaces detections, jam bursts and host feedback.
//! A campaign that needs only where a jammer transmits, not what, runs a
//! `JamLane` instead, which the jammer's core is tested against.

use crate::presets::{build_config, DetectionPreset, JammerPreset};
use rjam_fpga::core::CoreOutput;
use rjam_fpga::jammer::JamEvent;
use rjam_fpga::{BurstRule, CoreEvent, DspCore, DspLaneBank, LaneBankScratch};
use rjam_sdr::complex::{Cf64, IqI16};
use std::ops::Range;

/// Default post-detection lockout in samples (suppresses double counting
/// within one frame; ~40 us at 25 MSPS).
pub const DEFAULT_LOCKOUT: u64 = 1000;

/// Reusable buffers for [`ReactiveJammer::process_block_into`]: the
/// quantized receive block, the fixed-point transmit block and the
/// per-sample activity mask. Hold one per streaming loop and the jammer's
/// block path performs no per-block allocation.
#[derive(Debug, Default)]
pub struct BlockScratch {
    quant: Vec<IqI16>,
    tx: Vec<IqI16>,
    active: Vec<bool>,
}

impl BlockScratch {
    /// Empty scratch buffers; capacity grows to the largest block seen.
    pub fn new() -> Self {
        Self::default()
    }

    /// Per-sample jammer activity mask from the last block.
    pub fn active(&self) -> &[bool] {
        &self.active
    }

    /// Fixed-point transmit waveform from the last block (zeros while
    /// silent), time-aligned with the input.
    pub fn tx(&self) -> &[IqI16] {
        &self.tx
    }

    /// The transmit waveform converted to floating point (allocates).
    pub fn tx_cf64(&self) -> Vec<Cf64> {
        self.tx.iter().map(|s| s.to_cf64()).collect()
    }
}

/// A configured reactive jamming instance.
///
/// ```
/// use rjam_core::{DetectionPreset, JammerPreset, ReactiveJammer};
/// use rjam_fpga::JamWaveform;
/// use rjam_sdr::complex::Cf64;
///
/// // Arm: detect WiFi short preambles, answer with 10 us noise bursts.
/// let mut jammer = ReactiveJammer::new(
///     DetectionPreset::WifiShortPreamble { threshold: 0.35 },
///     JammerPreset::Reactive { uptime_s: 10e-6, waveform: JamWaveform::Wgn },
/// );
///
/// // Stream a WiFi frame at 25 MSPS through it.
/// let frame = rjam_phy80211::tx::Frame::new(rjam_phy80211::Rate::R12, vec![0xAB; 64]);
/// let native = rjam_phy80211::tx::modulate_frame(&frame);
/// let wave = rjam_sdr::resample::to_usrp_rate(&native, rjam_sdr::WIFI_SAMPLE_RATE);
/// let rx: Vec<Cf64> = wave.iter().map(|s| s.scale(0.5)).collect();
/// let (_tx, active) = jammer.process_block(&rx);
/// assert!(active.iter().any(|&a| a), "the frame gets jammed");
/// ```
#[derive(Debug)]
pub struct ReactiveJammer {
    core: DspCore,
    detection: DetectionPreset,
    reaction: JammerPreset,
    lockout: u64,
    /// Cumulative register writes spent on reconfiguration.
    reconfig_writes: u64,
}

impl ReactiveJammer {
    /// Creates a jammer with the given personalities applied.
    pub fn new(detection: DetectionPreset, reaction: JammerPreset) -> Self {
        Self::from_presets(&detection, &reaction, DEFAULT_LOCKOUT)
    }

    /// Creates a jammer from borrowed personalities with an explicit
    /// lockout — the campaign worker-pool constructor: the spec keeps
    /// ownership of its presets and each worker clones them exactly once,
    /// with the lockout programmed in the same configuration pass instead
    /// of a second register walk through [`ReactiveJammer::set_lockout`].
    pub fn from_presets(
        detection: &DetectionPreset,
        reaction: &JammerPreset,
        lockout: u64,
    ) -> Self {
        let mut core = DspCore::new();
        let cfg = build_config(detection, reaction, lockout);
        let writes = core.configure(&cfg);
        ReactiveJammer {
            core,
            detection: detection.clone(),
            reaction: reaction.clone(),
            lockout,
            reconfig_writes: writes,
        }
    }

    /// Creates a jammer from a raw core configuration — the escape hatch
    /// for setups the preset vocabulary does not cover (custom templates,
    /// sequence-mode trigger combinations, energy-fall triggers).
    ///
    /// Later personality setters reprogram from the preset vocabulary and
    /// will overwrite the custom configuration.
    pub fn from_config(cfg: &rjam_fpga::CoreConfig) -> Self {
        let mut core = DspCore::new();
        let writes = core.configure(cfg);
        ReactiveJammer {
            core,
            detection: DetectionPreset::EnergyRise {
                threshold_db: cfg.energy_high_db,
            },
            reaction: JammerPreset::Monitor,
            lockout: cfg.lockout,
            reconfig_writes: writes,
        }
    }

    /// Current detection personality.
    pub fn detection(&self) -> &DetectionPreset {
        &self.detection
    }

    /// Current jamming personality.
    pub fn reaction(&self) -> &JammerPreset {
        &self.reaction
    }

    /// Switches the detection personality at run time. Returns the number
    /// of register writes it cost (the reconfiguration latency currency).
    pub fn set_detection(&mut self, detection: DetectionPreset) -> u64 {
        self.detection = detection;
        self.reprogram()
    }

    /// Switches the jamming personality at run time.
    pub fn set_reaction(&mut self, reaction: JammerPreset) -> u64 {
        self.reaction = reaction;
        self.reprogram()
    }

    /// Sets the detector lockout (refractory period) in samples.
    pub fn set_lockout(&mut self, samples: u64) -> u64 {
        self.lockout = samples;
        self.reprogram()
    }

    fn reprogram(&mut self) -> u64 {
        let cfg = build_config(&self.detection, &self.reaction, self.lockout);
        let writes = self.core.configure(&cfg);
        self.reconfig_writes += writes;
        writes
    }

    /// Total register writes spent on reconfiguration so far.
    pub fn reconfig_writes(&self) -> u64 {
        self.reconfig_writes
    }

    /// Processes one fixed-point receive sample.
    pub fn process(&mut self, rx: IqI16) -> CoreOutput {
        self.core.process(rx)
    }

    /// Processes a floating-point 25 MSPS block through the ADC quantizer
    /// and the core; returns the transmitted jamming waveform time-aligned
    /// with the input (zeros while silent) and the per-sample activity mask.
    ///
    /// Allocates four buffers per call. Campaign inner loops stream many
    /// blocks through one jammer — use [`ReactiveJammer::process_block_into`]
    /// with a reused [`BlockScratch`] there.
    pub fn process_block(&mut self, rx: &[Cf64]) -> (Vec<Cf64>, Vec<bool>) {
        let mut scratch = BlockScratch::new();
        self.process_block_into(rx, &mut scratch);
        (scratch.tx_cf64(), std::mem::take(&mut scratch.active))
    }

    /// Allocation-free block processing: quantizes `rx` into `scratch`
    /// and streams it through the core entirely within `scratch`'s
    /// reusable buffers. After the first few blocks the buffers reach
    /// steady capacity and the per-block heap traffic drops to zero.
    pub fn process_block_into(&mut self, rx: &[Cf64], scratch: &mut BlockScratch) {
        scratch.quant.clear();
        scratch
            .quant
            .extend(rx.iter().map(|&s| IqI16::from_cf64(s)));
        self.core
            .process_block_into(&scratch.quant, &mut scratch.tx, &mut scratch.active);
    }

    /// Detection/trigger event log.
    pub fn events(&self) -> &[CoreEvent] {
        self.core.events()
    }

    /// Jam bursts with cycle-accurate timing.
    pub fn jam_events(&self) -> &[JamEvent] {
        self.core.jam_events()
    }

    /// Reads and clears host feedback flags (paper's "synchro flags").
    pub fn take_feedback(&mut self) -> u32 {
        self.core.take_feedback()
    }

    /// Direct access to the underlying core (advanced host processing).
    pub fn core_mut(&mut self) -> &mut DspCore {
        &mut self.core
    }

    /// Resets streaming state and logs, keeping configuration.
    pub fn reset(&mut self) {
        self.core.reset();
    }
}

/// Samples [`JamLane::first_jam`] quantizes at a time: a lockout that
/// begins inside a piece stops the quantizer at the piece's end.
const QUANT_CHUNK: usize = 1024;

/// A reactive jammer's transmit decisions without its transmit samples: a
/// one-lane [`DspLaneBank`] fires where the jammer's core logs a jam
/// trigger, and the controller's [`BurstRule`] turns those triggers into
/// the samples the jammer transmits on. A [`ReactiveJammer`] armed the
/// same way is the reference it is tested against.
#[derive(Debug)]
pub(crate) struct JamLane {
    bank: DspLaneBank,
    bursts: BurstRule,
    /// The quantized piece of the receive block.
    quant: Vec<IqI16>,
    /// Samples quantized since construction or the last reset.
    #[cfg(test)]
    quantized: u64,
    triggers: LaneBankScratch,
    on_air: Vec<Range<u64>>,
}

impl JamLane {
    /// The lane of a jammer armed with `detection` and the reactive
    /// personality `reaction` at `lockout`, as
    /// [`ReactiveJammer::from_presets`] would arm it.
    pub(crate) fn from_presets(
        detection: &DetectionPreset,
        reaction: &JammerPreset,
        lockout: u64,
    ) -> Self {
        let cfg = build_config(detection, reaction, lockout);
        debug_assert!(cfg.enabled && !cfg.continuous, "a jam lane jams reactively");
        let mut bank = DspLaneBank::new();
        bank.add_lane(&cfg);
        JamLane {
            bank,
            bursts: BurstRule::new(cfg.delay_samples, cfg.uptime_samples),
            quant: Vec::new(),
            #[cfg(test)]
            quantized: 0,
            triggers: LaneBankScratch::default(),
            on_air: Vec::new(),
        }
    }

    /// Samples streamed since construction or the last reset.
    pub(crate) fn samples_processed(&self) -> u64 {
        self.bank.samples_processed()
    }

    /// Of those, the samples the lane quantized: the rest were locked out.
    #[cfg(test)]
    pub(crate) fn samples_quantized(&self) -> u64 {
        self.quantized
    }

    /// Streams a floating-point 25 MSPS block through the ADC quantizer
    /// and the lane; returns the block offset of the first sample the
    /// jammer transmits on, if any — the first sample
    /// [`ReactiveJammer::process_block_into`] would mark active.
    ///
    /// Only the samples the bank reads are quantized: the block goes in
    /// [`QUANT_CHUNK`]-sample pieces, and before each the lane skips what
    /// [`DspLaneBank::unread`] reports, the rest of a lockout.
    pub(crate) fn first_jam(&mut self, rx: &[Cf64]) -> Option<usize> {
        let base = self.bank.samples_processed();
        self.triggers.clear();
        let mut at = 0;
        while at < rx.len() {
            let unread = self.bank.unread().min((rx.len() - at) as u64);
            self.bank.skip(unread);
            at += unread as usize;
            let chunk = &rx[at..rx.len().min(at + QUANT_CHUNK)];
            self.quant.clear();
            self.quant
                .extend(chunk.iter().map(|&s| IqI16::from_cf64(s)));
            #[cfg(test)]
            {
                self.quantized += chunk.len() as u64;
            }
            self.bank
                .process_block_into(&self.quant, &mut self.triggers);
            at += chunk.len();
        }
        self.on_air.clear();
        let block = base..base + rx.len() as u64;
        self.bursts
            .on_air(block, &self.triggers.triggers[0], &mut self.on_air);
        self.on_air.first().map(|r| (r.start - base) as usize)
    }

    /// Clears streaming state, keeping configuration.
    pub(crate) fn reset(&mut self) {
        self.bank.reset();
        self.bursts.reset();
        #[cfg(test)]
        {
            self.quantized = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_fpga::JamWaveform;
    use rjam_sdr::resample::to_usrp_rate;

    fn wifi_frame_at_25msps(snr_scale: f64) -> Vec<Cf64> {
        let frame = rjam_phy80211::tx::Frame::new(rjam_phy80211::Rate::R12, vec![0xAB; 100]);
        let wave = rjam_phy80211::tx::modulate_frame(&frame);
        let up = to_usrp_rate(&wave, 20.0e6);
        up.iter().map(|s| s.scale(snr_scale)).collect()
    }

    #[test]
    fn detects_and_jams_wifi_frame() {
        let mut j = ReactiveJammer::new(
            DetectionPreset::WifiShortPreamble { threshold: 0.5 },
            JammerPreset::Reactive {
                uptime_s: 1e-5,
                waveform: JamWaveform::Wgn,
            },
        );
        let mut stream = vec![Cf64::ZERO; 1000];
        stream.extend(wifi_frame_at_25msps(2.0)); // strong, clean
        let (_tx, active) = j.process_block(&stream);
        assert!(active.iter().any(|&a| a), "must jam the frame");
        assert!(!j.events().is_empty());
        // Burst length is 250 samples (10 us).
        assert_eq!(active.iter().filter(|&&a| a).count(), 250);
    }

    #[test]
    fn scratch_path_matches_allocating_path_across_blocks() {
        let mk = || {
            ReactiveJammer::new(
                DetectionPreset::WifiShortPreamble { threshold: 0.5 },
                JammerPreset::Reactive {
                    uptime_s: 1e-5,
                    waveform: JamWaveform::Wgn,
                },
            )
        };
        let mut a = mk();
        let mut b = mk();
        let mut scratch = BlockScratch::new();
        let mut stream = vec![Cf64::ZERO; 1000];
        stream.extend(wifi_frame_at_25msps(2.0));
        // Stream the same signal twice as two blocks each; the scratch is
        // reused across blocks (the whole point) and must match exactly.
        for block in [&stream[..700], &stream[700..]] {
            let (tx_alloc, active_alloc) = a.process_block(block);
            b.process_block_into(block, &mut scratch);
            assert_eq!(scratch.active(), &active_alloc[..]);
            assert_eq!(scratch.tx_cf64(), tx_alloc);
            assert_eq!(scratch.tx().len(), block.len());
        }
        assert_eq!(a.events().len(), b.events().len());
    }

    #[test]
    fn monitor_mode_detects_without_transmitting() {
        let mut j = ReactiveJammer::new(
            DetectionPreset::WifiShortPreamble { threshold: 0.5 },
            JammerPreset::Monitor,
        );
        let mut stream = vec![Cf64::ZERO; 500];
        stream.extend(wifi_frame_at_25msps(2.0));
        let (_tx, active) = j.process_block(&stream);
        assert!(active.iter().all(|&a| !a));
        assert!(j
            .events()
            .iter()
            .any(|e| matches!(e, CoreEvent::XcorrDetection { .. })));
    }

    #[test]
    fn personality_switch_counts_register_writes() {
        let mut j = ReactiveJammer::new(
            DetectionPreset::EnergyRise { threshold_db: 10.0 },
            JammerPreset::Monitor,
        );
        let before = j.reconfig_writes();
        let cost = j.set_reaction(JammerPreset::Continuous);
        assert!(cost > 0 && cost <= 24, "cost {cost} writes");
        assert_eq!(j.reconfig_writes(), before + cost);
    }

    #[test]
    fn switch_between_reactive_and_continuous_without_reset() {
        let mut j = ReactiveJammer::new(
            DetectionPreset::EnergyRise { threshold_db: 6.0 },
            JammerPreset::Continuous,
        );
        let (_tx, active) = j.process_block(&vec![Cf64::ZERO; 100]);
        assert!(active.iter().all(|&a| a), "continuous transmits always");
        j.set_reaction(JammerPreset::Monitor);
        let (_tx, active2) = j.process_block(&vec![Cf64::ZERO; 100]);
        assert!(active2.iter().all(|&a| !a), "monitor transmits never");
    }

    #[test]
    fn feedback_flags_after_detection() {
        let mut j = ReactiveJammer::new(
            DetectionPreset::WifiShortPreamble { threshold: 0.5 },
            JammerPreset::Reactive {
                uptime_s: 4e-5,
                waveform: JamWaveform::Wgn,
            },
        );
        let mut stream = vec![Cf64::ZERO; 200];
        stream.extend(wifi_frame_at_25msps(2.0));
        j.process_block(&stream);
        let fb = j.take_feedback();
        assert!(fb & rjam_fpga::regs::host_feedback::XCORR_DET != 0);
        assert!(fb & rjam_fpga::regs::host_feedback::JAMMED != 0);
    }

    #[test]
    fn jam_lane_finds_the_first_jam_where_the_jammer_transmits() {
        // Quiet noise with three loud 300-sample segments: the second
        // arrives while the first one's 4 000-sample burst is on air.
        let mut rng = rjam_sdr::rng::Rng::seed_from(5);
        let loud = |n: usize| {
            (2000..2300).contains(&n) || (3500..3800).contains(&n) || (9000..9300).contains(&n)
        };
        let stream: Vec<Cf64> = (0..12_000)
            .map(|n| {
                let a = if loud(n) { 0.3 } else { 0.002 };
                Cf64::new(a * (rng.uniform() - 0.5), a * (rng.uniform() - 0.5))
            })
            .collect();
        let detection = DetectionPreset::EnergyRise { threshold_db: 10.0 };
        let reaction = JammerPreset::Reactive {
            uptime_s: 160e-6,
            waveform: JamWaveform::Wgn,
        };
        let mut monitor = ReactiveJammer::from_presets(&detection, &JammerPreset::Monitor, 100);
        monitor.process_block(&stream);
        let triggers: Vec<usize> = monitor
            .events()
            .iter()
            .filter(|e| matches!(e, CoreEvent::JamTrigger { .. }))
            .map(|e| e.sample() as usize)
            .collect();
        let [t1, t2, t3] = triggers[..] else {
            panic!("one trigger per loud segment, got {triggers:?}")
        };
        // t1 is the last sample of block 0, the burst it starts runs across
        // block 1 into block 2, t2 falls while it is on air, and t3 is the
        // second-to-last sample of block 2.
        let cuts = [0, t1 + 1, t1 + 1001, t3 + 2, stream.len()];
        assert!(cuts[2] < t2 && t1 + 2 + 4000 > cuts[2] && t3 + 2 > t1 + 2 + 4000);
        // First jam sample of each block, or none: the lane's answer and
        // the transmitting jammer's activity mask, side by side.
        let mut lane = JamLane::from_presets(&detection, &reaction, 100);
        let mut jammer = ReactiveJammer::from_presets(&detection, &reaction, 100);
        let mut scratch = BlockScratch::new();
        let (mut got, mut want) = (Vec::new(), Vec::new());
        for w in cuts.windows(2) {
            let block = &stream[w[0]..w[1]];
            got.push(lane.first_jam(block));
            jammer.process_block_into(block, &mut scratch);
            want.push(scratch.active().iter().position(|&a| a));
        }
        assert_eq!(got, want);
        assert_eq!(want, vec![None, Some(1), Some(0), Some(0)]);
        assert_eq!(
            jammer.jam_events().len(),
            2,
            "the trigger on air is dropped"
        );
    }

    #[test]
    fn surgical_delay_places_burst() {
        let mut j = ReactiveJammer::new(
            DetectionPreset::WifiShortPreamble { threshold: 0.5 },
            JammerPreset::Surgical {
                uptime_s: 4e-6,
                delay_s: 40e-6,
                waveform: JamWaveform::Wgn,
            },
        );
        let mut stream = vec![Cf64::ZERO; 100];
        stream.extend(wifi_frame_at_25msps(2.0));
        stream.extend(vec![Cf64::ZERO; 3000]);
        let (_tx, active) = j.process_block(&stream);
        let det = j
            .events()
            .iter()
            .find(|e| matches!(e, CoreEvent::JamTrigger { .. }))
            .unwrap()
            .sample() as usize;
        let first_jam = active.iter().position(|&a| a).unwrap();
        // delay 40 us = 1000 samples (+2 init samples).
        assert_eq!(first_jam, det + 1000 + 2);
    }
}
