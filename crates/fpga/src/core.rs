//! The assembled custom DSP core (paper Figs 1-2).
//!
//! [`DspCore`] wires the four functional blocks together exactly as the
//! hardware does: received I/Q samples flow in parallel through the
//! cross-correlator and the energy differentiator; their trigger pulses feed
//! the event builder; a completed combination starts the jamming controller,
//! which takes over the transmit data path. The host talks to the core only
//! through the user register bus, and reads back synchro flags through the
//! host-feedback register — "this implementation effectively bypasses
//! host-side operations ... during signal processing".
//!
//! Every state change is logged as a [`CoreEvent`] with its sample index and
//! 100 MHz clock cycle, which is what the Fig. 5 timeline analysis and the
//! Fig. 12 scope correspondence are computed from.

use crate::energy::EnergyDifferentiator;
use crate::jammer::{JamController, JamWaveform};
use crate::regs::{host_feedback, jammer_control, RegisterBus, RegisterMap, StatReg};
use crate::trigger::{Pulses, TriggerBuilder, TriggerMode, TriggerSource};
use crate::xcorr::CrossCorrelator;
use crate::{CLOCKS_PER_SAMPLE, NS_PER_CYCLE, TX_INIT_CYCLES};
use rjam_obs::{FlightRecorder, LocalHistogram, LogHistogram};
use rjam_sdr::complex::IqI16;

/// Events the core's embedded flight recorder keeps per block.
const CORE_RECORDER_CAPACITY: usize = 256;

/// The core's statistics block: plain hardware-register counters on the
/// per-sample path, a trigger-to-TX latency histogram, and an embedded
/// cycle-indexed [`FlightRecorder`].
///
/// Counters are lifetime (power-on) totals, exactly like RTL status
/// counters; [`DspCore::flush_obs`] publishes *deltas* into the global
/// `rjam-obs` registry under `fpga.*` names, so flushing never clears what
/// the modeled readback registers ([`DspCore::read_stat`]) report. With the
/// `obs` feature disabled every update compiles out and all reads are zero.
#[derive(Clone, Debug)]
pub struct CoreStats {
    samples_in: u64,
    energy_high_fires: u64,
    energy_low_fires: u64,
    xcorr_fires: u64,
    jam_triggers: u64,
    bursts_started: u64,
    capture_overflow: u64,
    fifo_high_water: u64,
    /// Lifetime trigger-to-TX latency distribution (ns, delay-compensated).
    lat_lifetime: LogHistogram,
    /// Observations since the last flush, drained into the registry.
    lat_pending: LocalHistogram,
    recorder: FlightRecorder,
    /// Counter values already published to the global registry.
    flushed: FlushedMarks,
    /// First jammer event whose RF start has not yet been accounted.
    burst_cursor: usize,
}

#[derive(Clone, Copy, Debug, Default)]
struct FlushedMarks {
    samples_in: u64,
    energy_high: u64,
    energy_low: u64,
    xcorr: u64,
    jam_triggers: u64,
    bursts: u64,
    overflow: u64,
}

impl CoreStats {
    fn new() -> Self {
        CoreStats {
            samples_in: 0,
            energy_high_fires: 0,
            energy_low_fires: 0,
            xcorr_fires: 0,
            jam_triggers: 0,
            bursts_started: 0,
            capture_overflow: 0,
            fifo_high_water: 0,
            lat_lifetime: LogHistogram::new(),
            lat_pending: LocalHistogram::new(),
            recorder: FlightRecorder::new(CORE_RECORDER_CAPACITY),
            flushed: FlushedMarks::default(),
            burst_cursor: 0,
        }
    }

    /// Samples clocked through the core since power-on.
    pub fn samples_in(&self) -> u64 {
        self.samples_in
    }

    /// Energy-rise detection pulses.
    pub fn energy_high_fires(&self) -> u64 {
        self.energy_high_fires
    }

    /// Energy-fall detection pulses.
    pub fn energy_low_fires(&self) -> u64 {
        self.energy_low_fires
    }

    /// Cross-correlation detection pulses.
    pub fn xcorr_fires(&self) -> u64 {
        self.xcorr_fires
    }

    /// Completed jam-trigger combinations.
    pub fn jam_triggers(&self) -> u64 {
        self.jam_triggers
    }

    /// Jam bursts that reached RF output.
    pub fn bursts_started(&self) -> u64 {
        self.bursts_started
    }

    /// Samples dropped by the packet-assembly FIFO.
    pub fn capture_overflow(&self) -> u64 {
        self.capture_overflow
    }

    /// Packet-assembly FIFO high-water mark.
    pub fn fifo_high_water(&self) -> u64 {
        self.fifo_high_water
    }

    /// Lifetime trigger-to-TX latency histogram (ns; the programmed
    /// surgical delay is subtracted so it measures pipeline turnaround).
    pub fn trigger_to_tx(&self) -> &LogHistogram {
        &self.lat_lifetime
    }

    /// The core's embedded flight recorder.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }
}

impl Default for CoreStats {
    fn default() -> Self {
        Self::new()
    }
}

/// A timestamped core event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreEvent {
    /// Cross-correlation detection pulse.
    XcorrDetection {
        /// Sample index of the pulse.
        sample: u64,
        /// FPGA clock cycle of the pulse.
        cycle: u64,
        /// Correlator metric at the pulse.
        metric: u64,
    },
    /// Energy-rise detection pulse.
    EnergyHigh {
        /// Sample index of the pulse.
        sample: u64,
        /// FPGA clock cycle of the pulse.
        cycle: u64,
    },
    /// Energy-fall detection pulse.
    EnergyLow {
        /// Sample index of the pulse.
        sample: u64,
        /// FPGA clock cycle of the pulse.
        cycle: u64,
    },
    /// A jam trigger completed in the event builder.
    JamTrigger {
        /// Sample index of the completed combination.
        sample: u64,
        /// FPGA clock cycle of the completed combination.
        cycle: u64,
    },
}

impl CoreEvent {
    /// Sample index of the event.
    pub fn sample(&self) -> u64 {
        match *self {
            CoreEvent::XcorrDetection { sample, .. }
            | CoreEvent::EnergyHigh { sample, .. }
            | CoreEvent::EnergyLow { sample, .. }
            | CoreEvent::JamTrigger { sample, .. } => sample,
        }
    }

    /// Clock cycle of the event.
    pub fn cycle(&self) -> u64 {
        match *self {
            CoreEvent::XcorrDetection { cycle, .. }
            | CoreEvent::EnergyHigh { cycle, .. }
            | CoreEvent::EnergyLow { cycle, .. }
            | CoreEvent::JamTrigger { cycle, .. } => cycle,
        }
    }
}

/// A configuration [`CoreConfig::validate`] rejected: a value outside the
/// hardware's representable ranges, which [`DspCore::configure`] assumes —
/// the modeled register writes would silently truncate or panic otherwise.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// A correlator coefficient is outside the 3-bit signed range `-4..=3`.
    CoeffOutOfRange {
        /// Which rail the bad coefficient was on.
        rail: CoeffRail,
        /// Tap index (0..64).
        index: usize,
        /// The rejected value.
        value: i8,
    },
    /// The correlation threshold is zero (would fire on every sample).
    ZeroXcorrThreshold,
    /// An energy threshold is outside the paper's 3-30 dB detector range.
    EnergyDbOutOfRange {
        /// Which comparator the bad threshold was for.
        edge: EnergyEdge,
        /// The rejected value in dB.
        value_db: f64,
    },
    /// The trigger combination does not fit the three-stage event builder:
    /// an `Any` mode with no source, or a `Sequence` outside 1..=3 stages.
    UnsupportedTriggerMode {
        /// True for a `Sequence`, false for an `Any` mode.
        sequence: bool,
        /// Sources (`Any`) or stages (`Sequence`) in the rejected mode.
        len: usize,
    },
}

/// Correlator rail named by [`ConfigError::CoeffOutOfRange`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoeffRail {
    /// In-phase coefficient bank.
    I,
    /// Quadrature coefficient bank.
    Q,
}

/// Energy comparator named by [`ConfigError::EnergyDbOutOfRange`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnergyEdge {
    /// Rising-edge (signal appears) threshold.
    High,
    /// Falling-edge (signal disappears) threshold.
    Low,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::CoeffOutOfRange { rail, index, value } => {
                let rail = match rail {
                    CoeffRail::I => "I",
                    CoeffRail::Q => "Q",
                };
                write!(
                    f,
                    "coeff_{rail}[{index}] = {value} outside the 3-bit signed range -4..=3"
                )
            }
            ConfigError::ZeroXcorrThreshold => {
                write!(
                    f,
                    "xcorr_threshold must be nonzero (0 fires on every sample)"
                )
            }
            ConfigError::EnergyDbOutOfRange { edge, value_db } => {
                let edge = match edge {
                    EnergyEdge::High => "high",
                    EnergyEdge::Low => "low",
                };
                write!(
                    f,
                    "energy_{edge}_db = {value_db} outside the detector's 3-30 dB range"
                )
            }
            ConfigError::UnsupportedTriggerMode {
                sequence: false, ..
            } => {
                write!(f, "trigger_mode Any needs at least one trigger source")
            }
            ConfigError::UnsupportedTriggerMode {
                sequence: true,
                len,
            } => {
                write!(
                    f,
                    "trigger_mode Sequence has {len} stages; the event builder runs 1..=3"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// One-shot configuration applied through the register bus.
///
/// This is the host-side convenience the GNU Radio GUI provides: a complete
/// "jamming personality" that [`DspCore::configure`] writes register by
/// register, so reconfiguration cost is observable as bus traffic.
///
/// The fields are public; [`CoreConfig::validate`] rejects unrepresentable
/// personalities with a typed [`ConfigError`].
#[derive(Clone, Debug)]
pub struct CoreConfig {
    /// Correlator I-rail coefficients (64 x 3-bit signed).
    pub coeff_i: [i8; 64],
    /// Correlator Q-rail coefficients.
    pub coeff_q: [i8; 64],
    /// Correlation threshold on the squared-magnitude metric.
    pub xcorr_threshold: u64,
    /// Energy-rise threshold in dB (3-30).
    pub energy_high_db: f64,
    /// Energy-fall threshold in dB (3-30).
    pub energy_low_db: f64,
    /// Trigger combination.
    pub trigger_mode: TriggerMode,
    /// Post-detection lockout for both detectors, in samples.
    pub lockout: u64,
    /// Jamming waveform.
    pub waveform: JamWaveform,
    /// Jam burst length in samples.
    pub uptime_samples: u64,
    /// Trigger-to-burst delay in samples.
    pub delay_samples: u64,
    /// Reactive jamming enabled.
    pub enabled: bool,
    /// Continuous (always-on) transmission.
    pub continuous: bool,
    /// Jammer output amplitude, fraction of full scale.
    pub amplitude: f64,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            coeff_i: [0; 64],
            coeff_q: [0; 64],
            xcorr_threshold: u64::MAX,
            energy_high_db: 10.0,
            energy_low_db: 10.0,
            trigger_mode: TriggerMode::Any(vec![TriggerSource::EnergyHigh]),
            lockout: 0,
            waveform: JamWaveform::Wgn,
            uptime_samples: 2500, // 0.1 ms at 25 MSPS
            delay_samples: 0,
            enabled: false,
            continuous: false,
            amplitude: 1.0,
        }
    }
}

impl CoreConfig {
    /// Checks every field against the hardware's representable ranges:
    /// coefficients in the 3-bit signed range `-4..=3`, a nonzero
    /// correlation threshold, energy thresholds inside the detector's
    /// 3-30 dB window, and a trigger mode the three-stage event builder can
    /// run (at least one `Any` source, 1..=3 `Sequence` stages).
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (index, &value) in self.coeff_i.iter().enumerate() {
            if !(-4..=3).contains(&value) {
                return Err(ConfigError::CoeffOutOfRange {
                    rail: CoeffRail::I,
                    index,
                    value,
                });
            }
        }
        for (index, &value) in self.coeff_q.iter().enumerate() {
            if !(-4..=3).contains(&value) {
                return Err(ConfigError::CoeffOutOfRange {
                    rail: CoeffRail::Q,
                    index,
                    value,
                });
            }
        }
        if self.xcorr_threshold == 0 {
            return Err(ConfigError::ZeroXcorrThreshold);
        }
        if !(3.0..=30.0).contains(&self.energy_high_db) {
            return Err(ConfigError::EnergyDbOutOfRange {
                edge: EnergyEdge::High,
                value_db: self.energy_high_db,
            });
        }
        if !(3.0..=30.0).contains(&self.energy_low_db) {
            return Err(ConfigError::EnergyDbOutOfRange {
                edge: EnergyEdge::Low,
                value_db: self.energy_low_db,
            });
        }
        self.trigger_mode.check()
    }
}

/// Output of one core sample period.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoreOutput {
    /// Transmit sample handed to the DUC, if the jammer drove the bus.
    pub tx: Option<IqI16>,
    /// Detector and trigger pulses this sample.
    pub pulses: Pulses,
    /// A jam trigger completed this sample.
    pub jam_trigger: bool,
}

/// The full custom DSP core.
#[derive(Clone, Debug)]
pub struct DspCore {
    bus: RegisterBus,
    xcorr: CrossCorrelator,
    energy: EnergyDifferentiator,
    builder: TriggerBuilder,
    jammer: JamController,
    events: Vec<CoreEvent>,
    now: u64,
    /// Optional packet-assembly FIFO (Fig. 1): captures the triggering
    /// signal toward the host.
    capture: Option<crate::fifo::TriggerCapture>,
    /// Observability: counters, latency histogram, flight recorder.
    stats: CoreStats,
}

impl DspCore {
    /// Creates a core with default (inert) configuration.
    pub fn new() -> Self {
        DspCore {
            bus: RegisterBus::new(),
            xcorr: CrossCorrelator::new(),
            energy: EnergyDifferentiator::new(),
            builder: TriggerBuilder::new(TriggerMode::Any(vec![TriggerSource::EnergyHigh])),
            jammer: JamController::new(),
            events: Vec::new(),
            now: 0,
            capture: None,
            stats: CoreStats::new(),
        }
    }

    /// Enables the packet-assembly FIFO: on each jam trigger, `pre` samples
    /// of context and `post` samples of the triggering signal stream toward
    /// the host through a `fifo_depth`-sample FIFO (Fig. 1's path to the
    /// host's "packet assembly").
    pub fn enable_capture(&mut self, pre: usize, post: usize, fifo_depth: usize) {
        self.capture = Some(crate::fifo::TriggerCapture::new(pre, post, fifo_depth));
    }

    /// Drains up to `n` captured samples (host-side read). Empty when the
    /// capture FIFO is disabled or drained.
    pub fn drain_capture(&mut self, n: usize) -> Vec<IqI16> {
        self.capture
            .as_mut()
            .map(|c| c.fifo_mut().pop(n))
            .unwrap_or_default()
    }

    /// Samples currently queued in the capture FIFO toward the host
    /// (0 when capture is disabled) — the occupancy a causal trace records.
    pub fn capture_occupancy(&self) -> u64 {
        self.capture
            .as_ref()
            .map(|c| c.fifo().len() as u64)
            .unwrap_or(0)
    }

    /// Capture-FIFO overflow count (samples dropped), if enabled.
    pub fn capture_overflow(&mut self) -> u64 {
        self.capture
            .as_mut()
            .map(|c| c.fifo_mut().overflow())
            .unwrap_or(0)
    }

    /// Applies a complete configuration through the register bus, returning
    /// the number of register writes it took (the reconfiguration cost the
    /// paper quotes as "hundreds of ns" of settings-bus latency).
    pub fn configure(&mut self, cfg: &CoreConfig) -> u64 {
        let before = self.bus.write_count();
        self.bus
            .write_coeffs(RegisterMap::XcorrCoeffI0, &cfg.coeff_i);
        self.bus
            .write_coeffs(RegisterMap::XcorrCoeffQ0, &cfg.coeff_q);
        // The metric fits well below 2^32 (max 448^2); the register is 32-bit.
        self.bus.write_reg_if_changed(
            RegisterMap::XcorrThreshold,
            cfg.xcorr_threshold.min(u32::MAX as u64) as u32,
        );
        self.bus.write_reg_if_changed(
            RegisterMap::EnergyThresholdHigh,
            crate::regs::db_to_fixed16(cfg.energy_high_db),
        );
        self.bus.write_reg_if_changed(
            RegisterMap::EnergyThresholdLow,
            crate::regs::db_to_fixed16(cfg.energy_low_db),
        );
        let mut ctrl = 0u32;
        ctrl |= match cfg.waveform {
            JamWaveform::Wgn => 0,
            JamWaveform::Replay => 1,
            JamWaveform::HostStream(_) => 2,
        };
        if cfg.enabled {
            ctrl |= jammer_control::ENABLE;
        }
        if cfg.continuous {
            ctrl |= jammer_control::CONTINUOUS;
        }
        let (window, sequence) = match cfg.trigger_mode {
            TriggerMode::Any(_) => (0u64, false),
            TriggerMode::Sequence { window, .. } => (window, true),
        };
        for s in cfg.trigger_mode.sources() {
            ctrl |= match s {
                TriggerSource::Xcorr => jammer_control::SRC_XCORR,
                TriggerSource::EnergyHigh => jammer_control::SRC_ENERGY_HIGH,
                TriggerSource::EnergyLow => jammer_control::SRC_ENERGY_LOW,
            };
        }
        if sequence {
            ctrl |= jammer_control::SEQUENCE_MODE;
        }
        self.bus
            .write_reg_if_changed(RegisterMap::JammerControl, ctrl);
        self.bus.write_reg_if_changed(
            RegisterMap::JammerUptime,
            cfg.uptime_samples.min(u32::MAX as u64) as u32,
        );
        self.bus.write_reg_if_changed(
            RegisterMap::JammerDelay,
            cfg.delay_samples.min(u32::MAX as u64) as u32,
        );
        self.bus.write_reg_if_changed(
            RegisterMap::TriggerWindow,
            window.min(u32::MAX as u64) as u32,
        );
        self.bus.write_reg_if_changed(
            RegisterMap::TriggerLockout,
            cfg.lockout.min(u32::MAX as u64) as u32,
        );

        // Latch register state into the functional blocks.
        self.xcorr.load_coeffs_raw(&cfg.coeff_i, &cfg.coeff_q);
        self.xcorr.set_threshold(cfg.xcorr_threshold);
        self.xcorr.set_lockout(cfg.lockout);
        self.energy.configure(cfg);
        self.builder = TriggerBuilder::new(cfg.trigger_mode.clone());
        self.jammer.set_waveform(cfg.waveform.clone());
        self.jammer.set_uptime_samples(cfg.uptime_samples);
        self.jammer.set_delay_samples(cfg.delay_samples);
        self.jammer.set_enabled(cfg.enabled);
        self.jammer.set_continuous(cfg.continuous);
        self.jammer.set_amplitude(cfg.amplitude);

        self.bus.write_count() - before
    }

    /// Direct host register write (single word), mirroring `gr-uhd`'s
    /// `set_user_register`. Only the registers the paper exposes for run-time
    /// updates are latched mid-stream.
    pub fn write_reg(&mut self, reg: RegisterMap, value: u32) {
        self.bus.write_reg(reg, value);
        match reg {
            RegisterMap::XcorrThreshold => self.xcorr.set_threshold(value as u64),
            RegisterMap::EnergyThresholdHigh => self.energy.set_threshold_high_fixed(value),
            RegisterMap::EnergyThresholdLow => self.energy.set_threshold_low_fixed(value),
            RegisterMap::JammerUptime => self.jammer.set_uptime_samples(value as u64),
            RegisterMap::JammerDelay => self.jammer.set_delay_samples(value as u64),
            RegisterMap::WgnSeed => self.jammer.set_wgn_seed(value),
            RegisterMap::TriggerLockout => {
                self.xcorr.set_lockout(value as u64);
                self.energy.set_lockout(value as u64);
            }
            _ => {}
        }
    }

    /// Host register read.
    pub fn read_reg(&self, reg: RegisterMap) -> u32 {
        self.bus.read_reg(reg)
    }

    /// Reads and clears the host feedback flags (synchro flags), as the host
    /// polling loop does.
    pub fn take_feedback(&mut self) -> u32 {
        let v = self.bus.read_reg(RegisterMap::HostFeedback);
        let sticky = v & !host_feedback::JAM_ACTIVE;
        self.bus.clear_bits(RegisterMap::HostFeedback, sticky);
        v
    }

    /// Processes one received sample; returns the TX decision and pulses.
    pub fn process(&mut self, rx: IqI16) -> CoreOutput {
        let sample = self.now;
        self.now += 1;
        let cycle = sample * CLOCKS_PER_SAMPLE + 1;
        if rjam_obs::enabled() {
            self.stats.samples_in += 1;
        }

        let xo = self.xcorr.push(rx);
        let eo = self.energy.push(rx);
        let pulses = Pulses {
            xcorr: xo.trigger,
            energy_high: eo.trigger_high,
            energy_low: eo.trigger_low,
        };
        if xo.trigger {
            self.events.push(CoreEvent::XcorrDetection {
                sample,
                cycle,
                metric: xo.metric,
            });
            self.bus
                .set_bits(RegisterMap::HostFeedback, host_feedback::XCORR_DET);
            if rjam_obs::enabled() {
                self.stats.xcorr_fires += 1;
                self.stats
                    .recorder
                    .record(cycle, "xcorr_fire", xo.metric as i64, 0);
            }
        }
        if eo.trigger_high {
            self.events.push(CoreEvent::EnergyHigh { sample, cycle });
            self.bus
                .set_bits(RegisterMap::HostFeedback, host_feedback::ENERGY_HIGH);
            if rjam_obs::enabled() {
                self.stats.energy_high_fires += 1;
                self.stats.recorder.record(cycle, "energy_high", 0, 0);
            }
        }
        if eo.trigger_low {
            self.events.push(CoreEvent::EnergyLow { sample, cycle });
            self.bus
                .set_bits(RegisterMap::HostFeedback, host_feedback::ENERGY_LOW);
            if rjam_obs::enabled() {
                self.stats.energy_low_fires += 1;
                self.stats.recorder.record(cycle, "energy_low", 0, 0);
            }
        }

        // The builder only ever tests the sources its mode names, which
        // are exactly the sources enabled in JammerControl.
        let jam_trigger = self.builder.push(pulses);
        if jam_trigger {
            self.events.push(CoreEvent::JamTrigger { sample, cycle });
            if rjam_obs::enabled() {
                self.stats.jam_triggers += 1;
                self.stats.recorder.record(cycle, "jam_trigger", 0, 0);
            }
        }
        if let Some(cap) = self.capture.as_mut() {
            cap.tick(rx, jam_trigger);
        }
        if rjam_obs::enabled() {
            if let Some(cap) = self.capture.as_ref() {
                let hw = cap.fifo().high_water() as u64;
                if hw > self.stats.fifo_high_water {
                    self.stats.fifo_high_water = hw;
                }
                let overflow = cap.fifo().overflow();
                if overflow > self.stats.capture_overflow {
                    self.stats.capture_overflow = overflow;
                    self.stats
                        .recorder
                        .record(cycle, "capture_overflow", overflow as i64, 0);
                    self.stats.recorder.trip(cycle, "capture_fifo_overflow");
                    rjam_obs::recorder::trip_global(cycle, "capture_fifo_overflow");
                }
            }
        }

        let tx = self.jammer.tick(jam_trigger, rx);
        if rjam_obs::enabled() {
            self.account_burst_starts();
        }
        if tx.is_some() {
            self.bus.set_bits(
                RegisterMap::HostFeedback,
                host_feedback::JAMMED | host_feedback::JAM_ACTIVE,
            );
        } else {
            self.bus
                .clear_bits(RegisterMap::HostFeedback, host_feedback::JAM_ACTIVE);
        }
        CoreOutput {
            tx,
            pulses,
            jam_trigger,
        }
    }

    /// Processes a block, returning a TX waveform time-aligned with the
    /// input (silence as zero samples) plus an activity mask.
    ///
    /// Allocates fresh output buffers on every call; hot loops should hold
    /// a pair of buffers and use [`DspCore::process_block_into`] instead.
    pub fn process_block(&mut self, rx: &[IqI16]) -> (Vec<IqI16>, Vec<bool>) {
        let mut tx = Vec::new();
        let mut active = Vec::new();
        self.process_block_into(rx, &mut tx, &mut active);
        (tx, active)
    }

    /// Allocation-free block processing: clears and refills caller-provided
    /// output buffers, so a loop that reuses the same buffers across blocks
    /// performs no per-block heap allocation once the buffers reach steady
    /// capacity. On return `tx.len() == active.len() == rx.len()`, with `tx`
    /// time-aligned with the input (silence as zero samples).
    pub fn process_block_into(
        &mut self,
        rx: &[IqI16],
        tx: &mut Vec<IqI16>,
        active: &mut Vec<bool>,
    ) {
        // Size both buffers as silence once; only transmitting samples
        // are written below.
        tx.clear();
        tx.resize(rx.len(), IqI16::ZERO);
        active.clear();
        active.resize(rx.len(), false);
        for (n, &s) in rx.iter().enumerate() {
            if let Some(sample) = self.process(s).tx {
                tx[n] = sample;
                active[n] = true;
            }
        }
    }

    /// Accounts newly-started jam bursts: records the trigger-to-TX latency
    /// (delay-compensated, in ns) and trips the flight recorder when the
    /// turnaround exceeds the hardware's 8-cycle (80 ns) TX-init budget.
    fn account_burst_starts(&mut self) {
        let delay = self.bus.read_reg(RegisterMap::JammerDelay) as u64;
        let evs = self.jammer.events();
        while self.stats.burst_cursor < evs.len() {
            let ev = evs[self.stats.burst_cursor];
            if ev.start_cycle == 0 {
                if self.stats.burst_cursor + 1 < evs.len() {
                    // Abandoned (jammer disabled mid-delay): skip it.
                    self.stats.burst_cursor += 1;
                    continue;
                }
                break; // still pending (delay / TX init)
            }
            let net_cycles = ev
                .response_cycles()
                .saturating_sub(delay * CLOCKS_PER_SAMPLE);
            let ns = net_cycles * NS_PER_CYCLE;
            self.stats.bursts_started += 1;
            self.stats.lat_lifetime.record(ns);
            self.stats.lat_pending.record(ns);
            self.stats
                .recorder
                .record(ev.start_cycle, "burst_start", ns as i64, delay as i64);
            if net_cycles > TX_INIT_CYCLES {
                self.stats
                    .recorder
                    .trip(ev.start_cycle, "trigger_to_tx_over_budget");
                rjam_obs::recorder::trip_global(ev.start_cycle, "trigger_to_tx_over_budget");
            }
            self.stats.burst_cursor += 1;
        }
    }

    /// The core's statistics block (lifetime counters, latency histogram,
    /// embedded flight recorder).
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Reads a modeled observability register — the register-bus-faithful
    /// readback path the paper's host GUI uses for detection counters.
    /// Values saturate at 32 bits; zero when the `obs` feature is disabled.
    pub fn read_stat(&self, reg: StatReg) -> u32 {
        if !rjam_obs::enabled() {
            return 0;
        }
        let s = &self.stats;
        let v: u64 = match reg {
            StatReg::SamplesLo => s.samples_in & 0xFFFF_FFFF,
            StatReg::SamplesHi => s.samples_in >> 32,
            StatReg::EnergyHighFires => s.energy_high_fires,
            StatReg::EnergyLowFires => s.energy_low_fires,
            StatReg::XcorrFires => s.xcorr_fires,
            StatReg::JamTriggers => s.jam_triggers,
            StatReg::BurstsStarted => s.bursts_started,
            StatReg::TrigToTxP99Ns => s.lat_lifetime.quantile(0.99),
            StatReg::FifoHighWater => s.fifo_high_water,
            StatReg::CaptureOverflow => s.capture_overflow,
        };
        v.min(u32::MAX as u64) as u32
    }

    /// Publishes pending statistics deltas into the global `rjam-obs`
    /// registry (`fpga.samples_in`, `fpga.xcorr_fires`,
    /// `fpga.trigger_to_tx_ns`, ...). Call at block or run boundaries —
    /// this is the host's polling cadence, not the datapath's. Lifetime
    /// readback registers are unaffected.
    pub fn flush_obs(&mut self) {
        if !rjam_obs::enabled() {
            return;
        }
        use rjam_obs::registry as reg;
        let s = &mut self.stats;
        let flush = |name: &'static str, total: u64, mark: &mut u64| {
            if total > *mark {
                reg::counter(name).add(total - *mark);
                *mark = total;
            }
        };
        flush("fpga.samples_in", s.samples_in, &mut s.flushed.samples_in);
        flush(
            "fpga.energy_high_fires",
            s.energy_high_fires,
            &mut s.flushed.energy_high,
        );
        flush(
            "fpga.energy_low_fires",
            s.energy_low_fires,
            &mut s.flushed.energy_low,
        );
        flush("fpga.xcorr_fires", s.xcorr_fires, &mut s.flushed.xcorr);
        flush(
            "fpga.jam_triggers",
            s.jam_triggers,
            &mut s.flushed.jam_triggers,
        );
        flush(
            "fpga.bursts_started",
            s.bursts_started,
            &mut s.flushed.bursts,
        );
        flush(
            "fpga.capture_overflow",
            s.capture_overflow,
            &mut s.flushed.overflow,
        );
        reg::gauge("fpga.fifo_high_water").set_max(s.fifo_high_water);
        reg::histogram("fpga.trigger_to_tx_ns").absorb_local(&mut s.lat_pending);
    }

    /// The event log.
    pub fn events(&self) -> &[CoreEvent] {
        &self.events
    }

    /// Jam bursts with cycle-accurate timing.
    pub fn jam_events(&self) -> &[crate::jammer::JamEvent] {
        self.jammer.events()
    }

    /// Samples processed so far.
    pub fn samples_processed(&self) -> u64 {
        self.now
    }

    /// Clears streaming state and logs, keeping configuration.
    ///
    /// After a reset the core is stream-indistinguishable from a freshly
    /// built and identically configured one: datapath pipelines, event
    /// logs, the capture FIFO (contents, not its `pre`/`post`/depth
    /// configuration) and the sticky host-feedback flags are all cleared.
    /// The campaign engine's worker pools lean on exactly this property —
    /// one core per worker, `reset` between units instead of a rebuild.
    pub fn reset(&mut self) {
        self.xcorr.reset();
        self.energy.reset();
        self.builder.reset();
        self.jammer.reset();
        self.events.clear();
        self.now = 0;
        if let Some(cap) = self.capture.as_mut() {
            cap.reset();
        }
        // Sticky feedback from the previous stream must not leak into the
        // next host read; a fresh core starts with the register clear.
        self.bus.write_reg_if_changed(RegisterMap::HostFeedback, 0);
        // The jammer's event log was cleared; restart the accounting cursor.
        // Lifetime statistics survive a stream reset, like hardware counters.
        self.stats.burst_cursor = 0;
    }
}

impl Default for DspCore {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A config that detects an energy rise and jams with WGN.
    fn energy_jam_config() -> CoreConfig {
        CoreConfig {
            energy_high_db: 10.0,
            trigger_mode: TriggerMode::Any(vec![TriggerSource::EnergyHigh]),
            uptime_samples: 100,
            enabled: true,
            lockout: 1000,
            ..CoreConfig::default()
        }
    }

    fn quiet(n: usize) -> Vec<IqI16> {
        vec![IqI16::new(20, -20); n]
    }

    fn loud(n: usize) -> Vec<IqI16> {
        vec![IqI16::new(8000, 8000); n]
    }

    #[test]
    fn energy_rise_starts_jam_burst() {
        let mut core = DspCore::new();
        core.configure(&energy_jam_config());
        let mut stream = quiet(300);
        stream.extend(loud(500));
        let (_tx, active) = core.process_block(&stream);
        let first_tx = active.iter().position(|&a| a).expect("must jam");
        // Rise occurs shortly after sample 300; detection within 32 samples,
        // TX within 2 more.
        assert!((300..300 + 40).contains(&first_tx), "first_tx={first_tx}");
        assert_eq!(active.iter().filter(|&&a| a).count(), 100);
    }

    #[test]
    fn detection_latency_bound_fig5() {
        // T_en_det < 1.28 us = 128 cycles; T_resp <= 1.36 us = 136 cycles.
        let mut core = DspCore::new();
        core.configure(&energy_jam_config());
        let mut stream = quiet(300);
        stream.extend(loud(200));
        core.process_block(&stream);
        let det = core
            .events()
            .iter()
            .find(|e| matches!(e, CoreEvent::EnergyHigh { .. }))
            .unwrap();
        let signal_start_cycle = 300 * CLOCKS_PER_SAMPLE;
        let t_en_det = det.cycle() - signal_start_cycle;
        assert!(t_en_det <= 128, "T_en_det = {t_en_det} cycles");
        let jam = core.jam_events()[0];
        let t_resp = jam.start_cycle - signal_start_cycle;
        assert!(t_resp <= 136, "T_resp = {t_resp} cycles");
        assert!(jam.response_cycles() <= 8);
    }

    #[test]
    fn xcorr_detection_is_logged_with_metric() {
        let mut core = DspCore::new();
        let mut cfg = energy_jam_config();
        // Template matching a constant-positive stream: all-ones signs.
        cfg.coeff_i = [3; 64];
        cfg.coeff_q = [3; 64];
        cfg.xcorr_threshold = (300 * 300) as u64;
        cfg.trigger_mode = TriggerMode::Any(vec![TriggerSource::Xcorr]);
        core.configure(&cfg);
        let (_tx, active) = core.process_block(&loud(200));
        assert!(active.iter().any(|&a| a));
        let det = core
            .events()
            .iter()
            .find(|e| matches!(e, CoreEvent::XcorrDetection { .. }))
            .unwrap();
        assert_eq!(det.sample(), 63, "window fills at sample 63");
        if let CoreEvent::XcorrDetection { metric, .. } = det {
            assert!(*metric >= (300 * 300) as u64);
        }
    }

    #[test]
    fn trigger_source_masking() {
        // Energy pulses occur but only xcorr is enabled: no jam.
        let mut core = DspCore::new();
        let mut cfg = energy_jam_config();
        cfg.trigger_mode = TriggerMode::Any(vec![TriggerSource::Xcorr]);
        core.configure(&cfg);
        let mut stream = quiet(300);
        stream.extend(loud(300));
        let (_tx, active) = core.process_block(&stream);
        assert!(active.iter().all(|&a| !a));
        // The energy event is still logged (hardware still reports it).
        assert!(core
            .events()
            .iter()
            .any(|e| matches!(e, CoreEvent::EnergyHigh { .. })));
    }

    #[test]
    fn feedback_flags_report_and_clear() {
        let mut core = DspCore::new();
        core.configure(&energy_jam_config());
        let mut stream = quiet(300);
        stream.extend(loud(300));
        core.process_block(&stream);
        let fb = core.take_feedback();
        assert!(fb & host_feedback::ENERGY_HIGH != 0);
        assert!(fb & host_feedback::JAMMED != 0);
        let fb2 = core.take_feedback();
        assert_eq!(
            fb2 & host_feedback::ENERGY_HIGH,
            0,
            "sticky flags cleared on read"
        );
    }

    #[test]
    fn runtime_threshold_rewrite_applies_midstream() {
        let mut core = DspCore::new();
        let mut cfg = energy_jam_config();
        cfg.energy_high_db = 30.0; // stricter than the 20 dB step below
        core.configure(&cfg);
        // A 20 dB power step: amplitude 500 -> 5000.
        let step = |n| {
            let mut v = vec![IqI16::new(500, -500); n];
            v.extend(vec![IqI16::new(5000, -5000); n]);
            v
        };
        let (_tx, active) = core.process_block(&step(300));
        assert!(
            active.iter().all(|&a| !a),
            "30 dB threshold must not fire on a 20 dB step"
        );
        // Lower the threshold on the fly and replay the rise.
        core.write_reg(
            RegisterMap::EnergyThresholdHigh,
            crate::regs::db_to_fixed16(6.0),
        );
        let (_tx, active2) = core.process_block(&step(300));
        assert!(
            active2.iter().any(|&a| a),
            "6 dB threshold fires after rewrite"
        );
    }

    #[test]
    fn configure_reports_bus_writes() {
        let mut core = DspCore::new();
        let writes = core.configure(&energy_jam_config());
        // Delta-writes: only registers that change from the power-on state
        // are written, and always within the paper's 24-register budget.
        assert!(writes > 0 && writes <= 24, "writes={writes}");
        // Re-applying the identical personality costs no bus traffic.
        assert_eq!(core.configure(&energy_jam_config()), 0);
        // A pure uptime change costs exactly one write.
        let mut cfg = energy_jam_config();
        cfg.uptime_samples = 250;
        assert_eq!(core.configure(&cfg), 1);
    }

    #[test]
    fn continuous_personality_on_same_core() {
        let mut core = DspCore::new();
        let mut cfg = energy_jam_config();
        cfg.continuous = true;
        cfg.enabled = false;
        core.configure(&cfg);
        let (_tx, active) = core.process_block(&quiet(100));
        assert!(
            active.iter().all(|&a| a),
            "continuous mode transmits always"
        );
    }

    #[test]
    fn capture_fifo_streams_triggering_signal() {
        let mut core = DspCore::new();
        core.configure(&energy_jam_config());
        core.enable_capture(8, 32, 256);
        let mut stream = quiet(300);
        stream.extend(loud(200));
        core.process_block(&stream);
        let cap = core.drain_capture(1024);
        assert_eq!(cap.len(), 8 + 32, "pre + post window");
        // The pre-trigger context is quiet; the post-trigger body is loud.
        assert!(cap[0].energy() < 10_000);
        assert!(cap.last().unwrap().energy() > 1_000_000);
        assert_eq!(core.capture_overflow(), 0);
        // Without enabling, draining yields nothing.
        let mut plain = DspCore::new();
        plain.configure(&energy_jam_config());
        assert!(plain.drain_capture(10).is_empty());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn stats_counters_match_event_log() {
        let mut core = DspCore::new();
        core.configure(&energy_jam_config());
        let mut stream = quiet(300);
        stream.extend(loud(500));
        core.process_block(&stream);
        let s = core.stats();
        assert_eq!(s.samples_in(), 800);
        let log_high = core
            .events()
            .iter()
            .filter(|e| matches!(e, CoreEvent::EnergyHigh { .. }))
            .count() as u64;
        assert_eq!(s.energy_high_fires(), log_high);
        let log_trig = core
            .events()
            .iter()
            .filter(|e| matches!(e, CoreEvent::JamTrigger { .. }))
            .count() as u64;
        assert_eq!(s.jam_triggers(), log_trig);
        assert_eq!(s.bursts_started(), core.jam_events().len() as u64);
        assert!(s.bursts_started() >= 1);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn trigger_to_tx_latency_within_hardware_budget() {
        let mut core = DspCore::new();
        core.configure(&energy_jam_config());
        let mut stream = quiet(300);
        stream.extend(loud(500));
        core.process_block(&stream);
        let h = core.stats().trigger_to_tx();
        assert!(h.count() >= 1);
        // The model's turnaround is exactly TX_INIT_CYCLES = 8 cycles = 80 ns.
        assert!(h.max() <= TX_INIT_CYCLES * NS_PER_CYCLE, "max={}", h.max());
        assert!(
            !core.stats().recorder().is_tripped(),
            "nominal run must not trip the recorder"
        );
        // p99 readback register agrees and respects the paper's 2.64 us
        // xcorr response budget with three orders of margin.
        let p99 = core.read_stat(StatReg::TrigToTxP99Ns) as u64;
        assert!(p99 <= 80, "p99={p99}");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn surgical_delay_is_subtracted_from_latency() {
        let mut core = DspCore::new();
        let mut cfg = energy_jam_config();
        cfg.delay_samples = 40; // 1.6 us surgical delay
        core.configure(&cfg);
        let mut stream = quiet(300);
        stream.extend(loud(500));
        core.process_block(&stream);
        let h = core.stats().trigger_to_tx();
        assert!(h.count() >= 1);
        assert!(
            h.max() <= TX_INIT_CYCLES * NS_PER_CYCLE,
            "programmed delay must not count as pipeline latency: {}",
            h.max()
        );
        assert!(!core.stats().recorder().is_tripped());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn readback_registers_mirror_stats() {
        let mut core = DspCore::new();
        core.configure(&energy_jam_config());
        core.enable_capture(8, 32, 64);
        let mut stream = quiet(300);
        stream.extend(loud(500));
        core.process_block(&stream);
        assert_eq!(core.read_stat(StatReg::SamplesLo), 800);
        assert_eq!(core.read_stat(StatReg::SamplesHi), 0);
        assert_eq!(
            core.read_stat(StatReg::EnergyHighFires) as u64,
            core.stats().energy_high_fires()
        );
        assert_eq!(
            core.read_stat(StatReg::BurstsStarted) as u64,
            core.stats().bursts_started()
        );
        assert!(core.read_stat(StatReg::FifoHighWater) >= 1);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn capture_overflow_trips_flight_recorder() {
        let mut core = DspCore::new();
        core.configure(&energy_jam_config());
        // A tiny FIFO with a large post-trigger window must overflow.
        core.enable_capture(0, 400, 16);
        let mut stream = quiet(300);
        stream.extend(loud(500));
        core.process_block(&stream);
        assert!(core.stats().capture_overflow() > 0);
        let rec = core.stats().recorder();
        assert!(rec.is_tripped());
        assert_eq!(rec.trip_info().unwrap().reason, "capture_fifo_overflow");
        // The frozen dump holds the events leading up to the anomaly.
        assert!(rec
            .dump()
            .iter()
            .any(|e| e.kind == "energy_high" || e.kind == "jam_trigger"));
    }

    #[cfg(feature = "obs")]
    #[test]
    fn flush_obs_publishes_deltas_not_totals() {
        let mut core = DspCore::new();
        core.configure(&energy_jam_config());
        let mut stream = quiet(300);
        stream.extend(loud(500));
        core.process_block(&stream);
        let before = rjam_obs::registry::counter_value("fpga.samples_in");
        core.flush_obs();
        let mid = rjam_obs::registry::counter_value("fpga.samples_in");
        assert!(mid >= before + 800, "first flush publishes the delta");
        // A second flush with no new samples publishes nothing; other
        // parallel tests may add their own, so assert on the readback side:
        // lifetime registers are untouched by flushing.
        core.flush_obs();
        assert_eq!(core.read_stat(StatReg::SamplesLo), 800);
        assert!(core.stats().trigger_to_tx().count() >= 1);
        let h = rjam_obs::registry::histogram("fpga.trigger_to_tx_ns").snapshot();
        assert!(h.count() >= 1, "latency histogram reached the registry");
    }

    #[cfg(not(feature = "obs"))]
    #[test]
    fn stats_are_inert_when_feature_disabled() {
        let mut core = DspCore::new();
        core.configure(&energy_jam_config());
        let mut stream = quiet(300);
        stream.extend(loud(500));
        core.process_block(&stream);
        assert_eq!(core.stats().samples_in(), 0);
        assert_eq!(core.read_stat(StatReg::SamplesLo), 0);
        core.flush_obs(); // must be a no-op, not a panic
        assert!(rjam_obs::registry::snapshot().is_empty());
    }

    #[test]
    fn validate_accepts_valid_personality() {
        let cfg = CoreConfig {
            coeff_i: [3; 64],
            coeff_q: [-4; 64],
            xcorr_threshold: 1_000,
            energy_high_db: 10.0,
            energy_low_db: 3.0,
            lockout: 1000,
            uptime_samples: 100,
            enabled: true,
            ..CoreConfig::default()
        };
        assert_eq!(cfg.validate(), Ok(()));
        let mut core = DspCore::new();
        assert!(core.configure(&cfg) > 0);
    }

    #[test]
    fn validate_rejects_out_of_range_coefficient() {
        let mut bad_q = [0i8; 64];
        bad_q[17] = 4; // one past the 3-bit max
        let err = CoreConfig {
            coeff_i: [0; 64],
            coeff_q: bad_q,
            ..CoreConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(
            err,
            ConfigError::CoeffOutOfRange {
                rail: CoeffRail::Q,
                index: 17,
                value: 4
            }
        );
        assert!(err.to_string().contains("coeff_Q[17]"));
        let mut bad_i = [0i8; 64];
        bad_i[0] = -5;
        let err = CoreConfig {
            coeff_i: bad_i,
            coeff_q: [0; 64],
            ..CoreConfig::default()
        }
        .validate()
        .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::CoeffOutOfRange {
                rail: CoeffRail::I,
                index: 0,
                value: -5
            }
        ));
    }

    #[test]
    fn validate_rejects_zero_threshold_and_bad_energy_db() {
        let with = |f: fn(&mut CoreConfig)| {
            let mut cfg = CoreConfig::default();
            f(&mut cfg);
            cfg.validate().unwrap_err()
        };
        assert_eq!(
            with(|c| c.xcorr_threshold = 0),
            ConfigError::ZeroXcorrThreshold
        );
        assert!(matches!(
            with(|c| c.energy_high_db = 31.0),
            ConfigError::EnergyDbOutOfRange {
                edge: EnergyEdge::High,
                ..
            }
        ));
        assert!(matches!(
            with(|c| c.energy_low_db = 2.9),
            ConfigError::EnergyDbOutOfRange {
                edge: EnergyEdge::Low,
                ..
            }
        ));
        // The default personality itself is valid.
        CoreConfig::default().validate().expect("default is valid");
    }

    #[test]
    fn validate_rejects_trigger_modes_the_event_builder_cannot_run() {
        let with_mode = |trigger_mode| CoreConfig {
            trigger_mode,
            ..CoreConfig::default()
        };
        let err = with_mode(TriggerMode::Any(Vec::new()))
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::UnsupportedTriggerMode {
                sequence: false,
                len: 0
            }
        );
        assert!(err.to_string().contains("at least one trigger source"));
        for len in [0, 4] {
            let err = with_mode(TriggerMode::Sequence {
                stages: vec![TriggerSource::Xcorr; len],
                window: 10,
            })
            .validate()
            .unwrap_err();
            assert_eq!(
                err,
                ConfigError::UnsupportedTriggerMode {
                    sequence: true,
                    len
                }
            );
            assert!(err.to_string().contains("1..=3"), "{err}");
        }
        // Every trigger mode that validates configures a core.
        for len in 1..=3 {
            let cfg = with_mode(TriggerMode::Sequence {
                stages: vec![TriggerSource::EnergyHigh; len],
                window: 10,
            });
            cfg.validate().expect("1..=3 stages are valid");
            DspCore::new().configure(&cfg);
        }
    }

    #[test]
    fn reset_preserves_configuration() {
        let mut core = DspCore::new();
        core.configure(&energy_jam_config());
        let mut stream = quiet(300);
        stream.extend(loud(300));
        core.process_block(&stream);
        core.reset();
        assert_eq!(core.samples_processed(), 0);
        assert!(core.events().is_empty());
        let mut stream2 = quiet(300);
        stream2.extend(loud(300));
        let (_tx, active) = core.process_block(&stream2);
        assert!(active.iter().any(|&a| a), "config survives reset");
    }
}
