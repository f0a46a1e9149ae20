//! Experiment campaign runners — one per figure of the paper.
//!
//! Every campaign is described by a [`CampaignSpec`] builder and executed
//! by a [`CampaignEngine`]: the spec decides *what* to measure (preset,
//! emission, SNR grid, trial count, seed), the engine decides *how many
//! worker threads* run the independent shards. Output is bit-identical for
//! any thread count — see the [`crate::engine`] module docs for the
//! determinism contract.
//!
//! The `rjam-bench` figure binaries print the returned rows in the paper's
//! format.

use crate::engine::{CampaignEngine, CancelToken};
use crate::jammer::{BlockScratch, ReactiveJammer, DEFAULT_LOCKOUT};
use crate::presets::{build_config, DetectionPreset, JammerPreset};
use crate::testbed::TestbedBudget;
use rjam_channel::monitor::ScopeTrace;
use rjam_channel::noise::NoiseSource;
use rjam_fpga::{CoreEvent, DspLaneBank, LaneBankScratch};
use rjam_mac::model::{JammerKind, Scenario};
use rjam_mac::{run_scenario, IperfReport, MacObsDelta, ScenarioRun};
use rjam_phy80211::tx::{modulate_frame_into, single_long_preamble, single_short_preamble, Frame};
use rjam_sdr::complex::{Cf64, IqI16};
use rjam_sdr::power::{db_to_lin, mean_power, scale_to_power};
use rjam_sdr::resample::{fractional_delay_into, to_usrp_rate_into};
use rjam_sdr::rng::Rng;
use std::collections::BTreeMap;

/// One point of a detection-probability sweep (Figs 6-8).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DetectionPoint {
    /// SNR at the detector's receiver, dB.
    pub snr_db: f64,
    /// Fraction of frames that produced at least one detection.
    pub p_detect: f64,
    /// Mean detections per frame (Fig. 8's "multiple detections" band shows
    /// up here as values above 1).
    pub triggers_per_frame: f64,
}

/// What the WiFi transmitter emits during a detection sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WifiEmission {
    /// Complete frames (10 STS, 2 LTS, SIGNAL, payload).
    FullFrames {
        /// PSDU length in bytes.
        psdu_len: usize,
    },
    /// A pseudo-frame with a single 16-sample short training symbol.
    SingleShortPreamble,
    /// A pseudo-frame with a single 64-sample long training symbol.
    SingleLongPreamble,
}

/// Mean RX signal power (relative to full scale) the sweeps calibrate to.
const RX_LEVEL: f64 = 0.02;
/// Noise lead-in before each frame, 25 MSPS samples (detector warm-up).
const LEAD_IN: usize = 256;
/// Noise tail after each frame.
const TAIL: usize = 128;
/// Frames per detection-sweep work unit: each SNR point splits into
/// `(snr, seed-block)` cells of this many frames, so the engine has far
/// more units than workers to balance. Unit boundaries are a pure function
/// of the spec, never of the thread count.
const DETECTION_FRAMES_PER_UNIT: usize = 8;
/// Noise samples per false-alarm work unit. Unit boundaries are a pure
/// function of the requested sample count, never of the thread count.
const FA_UNIT_SAMPLES: usize = 1 << 18;
/// Block size the false-alarm measurement streams noise in.
const FA_CHUNK: usize = 65_536;
/// Downlink frames per WiMAX work unit.
const WIMAX_FRAMES_PER_UNIT: usize = 4;

/// Per-worker buffers the emission synthesis writes through: once they have
/// grown to a frame's size, synthesizing a frame allocates nothing.
#[derive(Default)]
struct SynthScratch {
    /// PSDU bytes of the frame being built.
    psdu: Vec<u8>,
    /// The frame at its native rate.
    native: Vec<Cf64>,
    /// The frame at 25 MSPS, before the fractional delay.
    up: Vec<Cf64>,
    /// The emission waveform [`emission_waveform`] leaves for the caller.
    wave: Vec<Cf64>,
}

/// Builds the 25 MSPS emission waveform for one trial into `s.wave`. Each
/// frame gets a random fractional sampling phase — transmitter and receiver
/// clocks are unsynchronized, which is a first-order contributor to the
/// paper's measured (sub-ideal) detection rates.
fn emission_waveform(
    kind: WifiEmission,
    rate: rjam_phy80211::Rate,
    rng: &mut Rng,
    s: &mut SynthScratch,
) {
    match kind {
        WifiEmission::FullFrames { psdu_len } => {
            s.psdu.clear();
            s.psdu.resize(psdu_len, 0);
            rng.fill_bytes(&mut s.psdu);
            let frame = Frame::new(rate, std::mem::take(&mut s.psdu));
            modulate_frame_into(&frame, &mut s.native);
            s.psdu = frame.psdu;
        }
        WifiEmission::SingleShortPreamble => s.native = single_short_preamble(),
        WifiEmission::SingleLongPreamble => s.native = single_long_preamble(),
    }
    to_usrp_rate_into(&s.native, rjam_sdr::WIFI_SAMPLE_RATE, &mut s.up);
    fractional_delay_into(&s.up, rng.uniform() * 0.999, &mut s.wave);
}

/// Lays one received frame into `stream`: `LEAD_IN` noise samples, the
/// waveform with noise added, then `TAIL` noise samples. Returns the
/// frame's detection window `[lo, hi)` relative to the stream start; `hi`
/// allows 64 samples of pipeline lag.
fn frame_stream(wave: &[Cf64], noise: &mut NoiseSource, stream: &mut Vec<Cf64>) -> (u64, u64) {
    stream.clear();
    for _ in 0..LEAD_IN {
        stream.push(noise.next_sample());
    }
    let lo = stream.len() as u64;
    stream.extend(wave.iter().map(|&s| s + noise.next_sample()));
    let hi = stream.len() as u64 + 64;
    for _ in 0..TAIL {
        stream.push(noise.next_sample());
    }
    (lo, hi)
}

/// Counts detections whose sample index falls inside `[lo, hi)`.
fn count_in_window(events: &[CoreEvent], lo: u64, hi: u64, energy: bool) -> usize {
    events
        .iter()
        .filter(|e| {
            let s = e.sample();
            let kind_ok = if energy {
                matches!(e, CoreEvent::EnergyHigh { .. })
            } else {
                matches!(e, CoreEvent::XcorrDetection { .. })
            };
            kind_ok && s >= lo && s < hi
        })
        .count()
}

/// Builds a [`DspLaneBank`] with one lane per preset: the preset's
/// correlator template plus the `xcorr_threshold` its compiled monitor
/// config would carry, all at the same lockout the single-core sweeps use.
/// Returns `None` when any preset is energy-only (no template) or the
/// grid exceeds the bank capacity — callers fall back to the per-preset
/// paths in that case.
fn lane_bank_for(presets: &[DetectionPreset], lockout: u64) -> Option<DspLaneBank> {
    if presets.is_empty() || presets.len() > rjam_fpga::lanes::MAX_LANES {
        return None;
    }
    let mut bank = DspLaneBank::new();
    for preset in presets {
        let t = preset.template()?;
        let threshold = build_config(preset, &JammerPreset::Monitor, lockout).xcorr_threshold;
        bank.add_lane(&t.coeff_i, &t.coeff_q, threshold, lockout);
    }
    Some(bank)
}

/// The false-alarm measurement of [`FalseAlarmSpec::run_counts`] evaluated
/// for N correlator presets in one streaming pass: identical unit
/// boundaries, identical per-unit noise streams (`shard_seed(seed, index)`),
/// identical quantization — but every threshold rides one lane of a shared
/// [`DspLaneBank`], so the sign-bit popcount pass is paid once per distinct
/// template instead of once per preset. Returns one `(triggers, samples)`
/// pair per preset, each bit-identical to a dedicated `run_counts` run of
/// that preset at the same seed. `None` when the presets don't fit a bank.
fn false_alarm_lane_counts(
    engine: &CampaignEngine,
    presets: &[DetectionPreset],
    samples: usize,
    seed: u64,
    kind: &'static str,
) -> Option<Vec<(u64, u64)>> {
    struct FaLanePool {
        bank: DspLaneBank,
        quant: Vec<IqI16>,
    }
    lane_bank_for(presets, DEFAULT_LOCKOUT)?;
    let n_units = samples.div_ceil(FA_UNIT_SAMPLES);
    let counts = engine.run_units_kind(
        kind,
        n_units,
        seed,
        || FaLanePool {
            bank: lane_bank_for(presets, DEFAULT_LOCKOUT).expect("presets checked above"),
            quant: Vec::new(),
        },
        |pool, ctx| {
            let lo = ctx.index * FA_UNIT_SAMPLES;
            let n = FA_UNIT_SAMPLES.min(samples - lo);
            pool.bank.reset();
            // A terminated input still shows the receiver noise floor —
            // the same stream FalseAlarmSpec::run_counts derives.
            let mut noise = NoiseSource::new(RX_LEVEL / db_to_lin(20.0), Rng::seed_from(ctx.seed));
            let mut done = 0usize;
            while done < n {
                let m = FA_CHUNK.min(n - done);
                pool.quant.clear();
                for _ in 0..m {
                    pool.quant.push(IqI16::from_cf64(noise.next_sample()));
                }
                pool.bank.process_block(&pool.quant);
                done += m;
            }
            (pool.bank.trigger_counts(), n as u64)
        },
    );
    let mut out = vec![(0u64, 0u64); presets.len()];
    for (lane_triggers, n) in &counts {
        for (lane, &t) in lane_triggers.iter().enumerate() {
            out[lane].0 += t;
            out[lane].1 += n;
        }
    }
    if rjam_obs::enabled() {
        use rjam_obs::registry::counter;
        // Truthful accounting: the noise was streamed once, not once per
        // preset; triggers sum across lanes.
        counter("core.fa_samples").add(samples as u64);
        counter("core.fa_triggers").add(out.iter().map(|&(t, _)| t).sum());
    }
    Some(out)
}

/// The detection half of [`WifiDetectionSpec::run`] at one SNR, evaluated
/// for N correlator presets over one shared emission stream: identical
/// `(seed-block)` unit boundaries and per-unit frame/noise streams, with
/// every preset's threshold on its own lane. Returns detected-frame counts
/// per preset, each bit-identical to a dedicated single-preset sweep at
/// the same seed. `None` when the presets don't fit a bank.
fn detection_lane_counts(
    engine: &CampaignEngine,
    presets: &[DetectionPreset],
    emission: WifiEmission,
    snr_db: f64,
    frames_per_point: usize,
    seed: u64,
    kind: &'static str,
) -> Option<Vec<usize>> {
    struct DetLanePool {
        bank: DspLaneBank,
        synth: SynthScratch,
        stream: Vec<Cf64>,
        quant: Vec<IqI16>,
        scratch: LaneBankScratch,
    }
    lane_bank_for(presets, DEFAULT_LOCKOUT)?;
    let blocks_per_point = frames_per_point.div_ceil(DETECTION_FRAMES_PER_UNIT).max(1);
    let cells = engine.run_units_kind(
        kind,
        blocks_per_point,
        seed,
        || DetLanePool {
            bank: lane_bank_for(presets, DEFAULT_LOCKOUT).expect("presets checked above"),
            synth: SynthScratch::default(),
            stream: Vec::new(),
            quant: Vec::new(),
            scratch: LaneBankScratch::default(),
        },
        |pool, ctx| {
            let lo = ctx.index * DETECTION_FRAMES_PER_UNIT;
            let frames = DETECTION_FRAMES_PER_UNIT.min(frames_per_point - lo);
            let mut rng = Rng::seed_from(ctx.seed);
            pool.bank.reset();
            let noise_power = RX_LEVEL / db_to_lin(snr_db);
            let mut noise = NoiseSource::new(noise_power, rng.fork());
            let mut detected = vec![0usize; presets.len()];
            for _ in 0..frames {
                emission_waveform(
                    emission,
                    rjam_phy80211::Rate::R12,
                    &mut rng,
                    &mut pool.synth,
                );
                scale_to_power(&mut pool.synth.wave, RX_LEVEL);
                let (frame_lo, frame_hi) =
                    frame_stream(&pool.synth.wave, &mut noise, &mut pool.stream);
                let base = pool.bank.samples_processed();
                pool.quant.clear();
                pool.quant
                    .extend(pool.stream.iter().map(|&s| IqI16::from_cf64(s)));
                pool.scratch.clear();
                pool.bank.process_block_into(&pool.quant, &mut pool.scratch);
                for (lane, hits) in pool.scratch.triggers.iter().take(presets.len()).enumerate() {
                    if hits
                        .iter()
                        .any(|&s| s >= base + frame_lo && s < base + frame_hi)
                    {
                        detected[lane] += 1;
                    }
                }
            }
            detected
        },
    );
    let mut out = vec![0usize; presets.len()];
    for cell in &cells {
        for (lane, &d) in cell.iter().enumerate() {
            out[lane] += d;
        }
    }
    if rjam_obs::enabled() {
        use rjam_obs::registry::counter;
        counter("core.sweep_frames").add(frames_per_point as u64);
        counter("core.sweep_detections").add(out.iter().map(|&d| d as u64).sum());
    }
    Some(out)
}

/// Channel model for detection sweeps.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ChannelModel {
    /// Pure AWGN — the paper's conducted testbed.
    Awgn,
    /// Rayleigh multipath with an exponential power-delay profile (over-the-
    /// air extension): a fresh realization per frame.
    Rayleigh {
        /// Number of channel taps at 25 MSPS.
        taps: usize,
        /// RMS delay spread in samples.
        rms: f64,
    },
}

/// Entry point to the campaign vocabulary: each constructor returns a
/// typed builder whose `run(&engine)` executes the experiment sharded.
///
/// ```no_run
/// use rjam_core::campaign::{CampaignSpec, WifiEmission};
/// use rjam_core::engine::CampaignEngine;
/// use rjam_core::presets::DetectionPreset;
///
/// let engine = CampaignEngine::from_env();
/// let points = CampaignSpec::wifi_detection(&DetectionPreset::WifiShortPreamble {
///     threshold: 0.3,
/// })
/// .emission(WifiEmission::FullFrames { psdu_len: 60 })
/// .snr_range(-9.0, 12.0, 3.0)
/// .trials(100)
/// .seed(7)
/// .run(&engine);
/// assert!(!points.is_empty());
/// ```
pub struct CampaignSpec;

impl CampaignSpec {
    /// A WiFi detection-probability sweep (methodology of Figs 6-8).
    ///
    /// Default campaign sizes are calibrated to the fine-grained engine:
    /// 400 frames per point keeps the binomial error bars under ~2.5 %
    /// and still finishes faster than the old 40-frame default did before
    /// worker pools (shard setup used to dominate).
    pub fn wifi_detection(preset: &DetectionPreset) -> WifiDetectionSpec {
        WifiDetectionSpec {
            preset: preset.clone(),
            emission: WifiEmission::FullFrames { psdu_len: 60 },
            channel: ChannelModel::Awgn,
            snrs_db: Vec::new(),
            frames_per_point: 400,
            seed: 0,
        }
    }

    /// A noise-only false-alarm measurement.
    pub fn false_alarm(preset: &DetectionPreset) -> FalseAlarmSpec {
        FalseAlarmSpec {
            preset: preset.clone(),
            samples: 10_000_000,
            seed: 0,
        }
    }

    /// A receiver-operating-characteristic sweep over thresholds.
    pub fn roc(make_preset: &(dyn Fn(f64) -> DetectionPreset + Sync)) -> RocSpec<'_> {
        RocSpec {
            make_preset,
            emission: WifiEmission::FullFrames { psdu_len: 60 },
            snr_db: 0.0,
            thresholds: Vec::new(),
            frames_per_point: 200,
            fa_samples: 1_500_000,
            seed: 0,
        }
    }

    /// The WiMAX downlink detection/jamming correspondence experiment
    /// (Fig. 12).
    pub fn wimax_detection() -> WimaxDetectionSpec {
        WimaxDetectionSpec {
            fused: true,
            frames: 48,
            snr_db: 20.0,
            xcorr_threshold: 0.45,
            seed: 0,
        }
    }

    /// A Fig. 10/11 iperf jamming sweep for one jammer variant.
    pub fn jamming(jammer: JammerUnderTest) -> JammingSweepSpec {
        JammingSweepSpec {
            jammer,
            sirs_db: Vec::new(),
            duration_s: 3.0,
            seed: 0,
        }
    }

    /// A time-to-detect sweep for the online health monitor: jammer
    /// variant (duty cycle) × SIR grid, measuring frames from jam onset
    /// to the first raised alarm and the clean-run false-alarm count.
    pub fn health_time_to_detect() -> HealthSweepSpec {
        HealthSweepSpec {
            jammers: vec![
                JammerUnderTest::Off,
                JammerUnderTest::ReactiveShort,
                JammerUnderTest::ReactiveLong,
                JammerUnderTest::Continuous,
            ],
            sirs_db: vec![1.0, 14.0, 25.0],
            duration_s: 1.0,
            cadence: 16,
            seed: 0,
        }
    }
}

/// Builder for WiFi detection sweeps — see [`CampaignSpec::wifi_detection`].
#[derive(Clone, Debug)]
pub struct WifiDetectionSpec {
    preset: DetectionPreset,
    emission: WifiEmission,
    channel: ChannelModel,
    snrs_db: Vec<f64>,
    frames_per_point: usize,
    seed: u64,
}

impl WifiDetectionSpec {
    /// What the transmitter emits each trial.
    pub fn emission(mut self, emission: WifiEmission) -> Self {
        self.emission = emission;
        self
    }

    /// Channel model between transmitter and detector.
    pub fn channel(mut self, channel: ChannelModel) -> Self {
        self.channel = channel;
        self
    }

    /// Explicit SNR grid in dB.
    pub fn snrs(mut self, snrs_db: &[f64]) -> Self {
        self.snrs_db = snrs_db.to_vec();
        self
    }

    /// Inclusive SNR range `lo..=hi` in `step`-dB increments.
    pub fn snr_range(mut self, lo_db: f64, hi_db: f64, step_db: f64) -> Self {
        assert!(step_db > 0.0, "snr_range needs a positive step");
        self.snrs_db.clear();
        let mut snr = lo_db;
        while snr <= hi_db + 1e-9 {
            self.snrs_db.push(snr);
            snr += step_db;
        }
        self
    }

    /// Frames emitted per SNR point.
    pub fn trials(mut self, frames_per_point: usize) -> Self {
        self.frames_per_point = frames_per_point;
        self
    }

    /// Campaign seed; every shard derives its own stream from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the sweep over fine-grained `(snr, seed-block)` cells: each
    /// SNR point splits into `DETECTION_FRAMES_PER_UNIT`-frame units, so
    /// the engine always has many more units than workers. Each worker
    /// owns one pooled detector core, scratch and stream buffer
    /// ([`ReactiveJammer::reset`] between units instead of a rebuild);
    /// every unit derives its frames and noise from its own
    /// [`crate::engine::ShardCtx`] seed and per-point results are summed
    /// in unit order, so output is bit-identical at any thread count.
    pub fn run(&self, engine: &CampaignEngine) -> Vec<DetectionPoint> {
        self.run_ckpt(engine, &mut BTreeMap::new(), None)
            .expect("uncancelled campaign always completes")
    }

    /// Number of engine work units this spec runs — the checkpoint keyspace
    /// for [`WifiDetectionSpec::run_ckpt`].
    pub fn n_units(&self) -> usize {
        let blocks_per_point = self
            .frames_per_point
            .div_ceil(DETECTION_FRAMES_PER_UNIT)
            .max(1);
        self.snrs_db.len() * blocks_per_point
    }

    /// Checkpointed, cancellable [`WifiDetectionSpec::run`]: `done` carries
    /// per-unit `(detected_frames, total_triggers)` cells across
    /// interruptions and `cancel` stops the sweep between units. Returns
    /// `None` when interrupted (completed cells stay in `done`); a later
    /// call with the same spec and checkpoint resumes and produces the
    /// **bit-identical** points an uninterrupted run would have — unit
    /// seeds derive from original unit indices, and the per-point
    /// reduction sums integers in unit order. With an empty checkpoint and
    /// no token this is exactly `run`.
    pub fn run_ckpt(
        &self,
        engine: &CampaignEngine,
        done: &mut BTreeMap<usize, (usize, usize)>,
        cancel: Option<&CancelToken>,
    ) -> Option<Vec<DetectionPoint>> {
        struct DetectionPool {
            jammer: ReactiveJammer,
            scratch: BlockScratch,
            synth: SynthScratch,
            stream: Vec<Cf64>,
        }
        let energy_detector = matches!(self.preset, DetectionPreset::EnergyRise { .. });
        let blocks_per_point = self
            .frames_per_point
            .div_ceil(DETECTION_FRAMES_PER_UNIT)
            .max(1);
        let cells = engine.run_units_ckpt(
            "wifi_detection",
            self.snrs_db.len() * blocks_per_point,
            self.seed,
            done,
            cancel,
            || DetectionPool {
                // Correlation sweeps use a lockout so the 10 STS
                // repetitions count as one detection; the energy sweep
                // counts raw rise triggers (the paper reports "multiple
                // detections per frame" in the mid-SNR band).
                jammer: ReactiveJammer::from_presets(
                    &self.preset,
                    &JammerPreset::Monitor,
                    if energy_detector { 0 } else { DEFAULT_LOCKOUT },
                ),
                scratch: BlockScratch::new(),
                synth: SynthScratch::default(),
                stream: Vec::new(),
            },
            |pool, ctx| {
                let snr_db = self.snrs_db[ctx.index / blocks_per_point];
                let lo = (ctx.index % blocks_per_point) * DETECTION_FRAMES_PER_UNIT;
                let frames = DETECTION_FRAMES_PER_UNIT.min(self.frames_per_point - lo);
                let mut rng = Rng::seed_from(ctx.seed);
                pool.jammer.reset();
                let noise_power = RX_LEVEL / db_to_lin(snr_db);
                let mut noise = NoiseSource::new(noise_power, rng.fork());
                let mut detected_frames = 0usize;
                let mut total_triggers = 0usize;
                for _ in 0..frames {
                    emission_waveform(
                        self.emission,
                        rjam_phy80211::Rate::R12,
                        &mut rng,
                        &mut pool.synth,
                    );
                    let wave = &mut pool.synth.wave;
                    if let ChannelModel::Rayleigh { taps, rms } = self.channel {
                        let ch = rjam_channel::MultipathChannel::rayleigh(taps, rms, &mut rng);
                        *wave = ch.apply(wave);
                    }
                    scale_to_power(wave, RX_LEVEL);
                    let (frame_lo, frame_hi) = frame_stream(wave, &mut noise, &mut pool.stream);
                    let base = pool.jammer.core_mut().samples_processed();
                    pool.jammer
                        .process_block_into(&pool.stream, &mut pool.scratch);
                    let n = count_in_window(
                        pool.jammer.events(),
                        base + frame_lo,
                        base + frame_hi,
                        energy_detector,
                    );
                    if n > 0 {
                        detected_frames += 1;
                    }
                    total_triggers += n;
                }
                (detected_frames, total_triggers)
            },
        )?;
        // Per-point reduction in unit order: integer sums, so the merged
        // ratios are bit-identical regardless of how units were grouped.
        let points: Vec<DetectionPoint> = self
            .snrs_db
            .iter()
            .enumerate()
            .map(|(p, &snr_db)| {
                let (detected, triggers) = cells[p * blocks_per_point..(p + 1) * blocks_per_point]
                    .iter()
                    .fold((0usize, 0usize), |(d, t), &(cd, ct)| (d + cd, t + ct));
                DetectionPoint {
                    snr_db,
                    p_detect: detected as f64 / self.frames_per_point as f64,
                    triggers_per_frame: triggers as f64 / self.frames_per_point as f64,
                }
            })
            .collect();
        if rjam_obs::enabled() {
            use rjam_obs::registry::counter;
            let frames = (self.snrs_db.len() * self.frames_per_point) as u64;
            let detected: f64 = points
                .iter()
                .map(|p| p.p_detect * self.frames_per_point as f64)
                .sum();
            counter("core.sweep_frames").add(frames);
            counter("core.sweep_detections").add(detected.round() as u64);
        }
        Some(points)
    }
}

/// Builder for false-alarm measurements — see [`CampaignSpec::false_alarm`].
#[derive(Clone, Debug)]
pub struct FalseAlarmSpec {
    preset: DetectionPreset,
    samples: usize,
    seed: u64,
}

impl FalseAlarmSpec {
    /// Total noise samples to stream.
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Campaign seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Measures the detector's false-alarm rate on noise alone,
    /// extrapolated to triggers per second (the paper terminates the
    /// receiver input and counts for 30 minutes; we process `samples`
    /// noise samples and scale). See [`FalseAlarmSpec::run_counts`] for
    /// the sharding and the raw numerator/denominator.
    pub fn run(&self, engine: &CampaignEngine) -> f64 {
        let (triggers, samples) = self.run_counts(engine);
        if samples == 0 {
            return 0.0;
        }
        triggers as f64 / (samples as f64 / rjam_sdr::USRP_SAMPLE_RATE)
    }

    /// Runs the measurement and returns `(triggers, samples)` — the raw
    /// trigger count and the noise samples actually streamed. The
    /// denominator always equals the requested sample count: the campaign
    /// splits into fixed-size (`FA_UNIT_SAMPLES`, 2^18) sample units whose
    /// boundaries depend only on the request, and the final unit processes
    /// exactly the remainder. Each worker pools one detector core and
    /// scratch buffers (reset between units); per-unit counts are summed
    /// in unit order.
    pub fn run_counts(&self, engine: &CampaignEngine) -> (u64, u64) {
        self.run_counts_ckpt(engine, &mut BTreeMap::new(), None)
            .expect("uncancelled campaign always completes")
    }

    /// Number of engine work units this spec runs — the checkpoint keyspace
    /// for [`FalseAlarmSpec::run_counts_ckpt`].
    pub fn n_units(&self) -> usize {
        self.samples.div_ceil(FA_UNIT_SAMPLES)
    }

    /// Checkpointed, cancellable [`FalseAlarmSpec::run_counts`]: `done`
    /// carries per-unit `(triggers, samples)` pairs across interruptions,
    /// `cancel` stops the measurement between units. Returns `None` when
    /// interrupted; resuming with the same spec and checkpoint yields the
    /// bit-identical totals of an uninterrupted run.
    pub fn run_counts_ckpt(
        &self,
        engine: &CampaignEngine,
        done: &mut BTreeMap<usize, (u64, u64)>,
        cancel: Option<&CancelToken>,
    ) -> Option<(u64, u64)> {
        struct FaPool {
            jammer: ReactiveJammer,
            scratch: BlockScratch,
            block: Vec<Cf64>,
        }
        let energy_detector = matches!(self.preset, DetectionPreset::EnergyRise { .. });
        let n_units = self.samples.div_ceil(FA_UNIT_SAMPLES);
        let counts = engine.run_units_ckpt(
            "false_alarm",
            n_units,
            self.seed,
            done,
            cancel,
            || FaPool {
                jammer: ReactiveJammer::from_presets(
                    &self.preset,
                    &JammerPreset::Monitor,
                    DEFAULT_LOCKOUT,
                ),
                scratch: BlockScratch::new(),
                block: Vec::new(),
            },
            |pool, ctx| {
                let lo = ctx.index * FA_UNIT_SAMPLES;
                let n = FA_UNIT_SAMPLES.min(self.samples - lo);
                pool.jammer.reset();
                // A terminated input still shows the receiver noise floor.
                let mut noise =
                    NoiseSource::new(RX_LEVEL / db_to_lin(20.0), Rng::seed_from(ctx.seed));
                let mut done = 0usize;
                while done < n {
                    let m = FA_CHUNK.min(n - done);
                    pool.block.clear();
                    for _ in 0..m {
                        pool.block.push(noise.next_sample());
                    }
                    pool.jammer
                        .process_block_into(&pool.block, &mut pool.scratch);
                    done += m;
                }
                let triggers = pool
                    .jammer
                    .events()
                    .iter()
                    .filter(|e| {
                        if energy_detector {
                            matches!(e, CoreEvent::EnergyHigh { .. })
                        } else {
                            matches!(e, CoreEvent::XcorrDetection { .. })
                        }
                    })
                    .count();
                (triggers as u64, n as u64)
            },
        )?;
        let (triggers, samples) = counts
            .iter()
            .fold((0u64, 0u64), |(t, s), &(ct, cs)| (t + ct, s + cs));
        if rjam_obs::enabled() {
            use rjam_obs::registry::counter;
            counter("core.fa_samples").add(samples);
            counter("core.fa_triggers").add(triggers);
        }
        Some((triggers, samples))
    }

    /// Sweeps a grid of correlation-threshold fractions in **one** noise
    /// pass: every fraction becomes a [`DspLaneBank`] lane over the base
    /// preset's template, so the sign-bit popcount pass is paid once per
    /// sample instead of once per grid point. Unit boundaries, per-unit
    /// noise streams and quantization are exactly those of
    /// [`FalseAlarmSpec::run_counts`], so the `k`-th `(triggers, samples)`
    /// pair is bit-identical to running
    /// `self.preset.with_xcorr_fraction(fractions[k])` through
    /// `run_counts` at the same seed — just without re-streaming the noise
    /// per point.
    ///
    /// # Panics
    /// Panics if `fractions` is empty, exceeds
    /// [`rjam_fpga::lanes::MAX_LANES`], or the preset is energy-only
    /// (energy thresholds are in dB, not peak fractions — see
    /// [`DetectionPreset::with_xcorr_fraction`]).
    pub fn run_grid_counts(&self, engine: &CampaignEngine, fractions: &[f64]) -> Vec<(u64, u64)> {
        assert!(!fractions.is_empty(), "threshold grid is empty");
        assert!(
            fractions.len() <= rjam_fpga::lanes::MAX_LANES,
            "threshold grid exceeds the {}-lane bank capacity",
            rjam_fpga::lanes::MAX_LANES
        );
        let presets: Vec<DetectionPreset> = fractions
            .iter()
            .map(|&f| {
                self.preset.with_xcorr_fraction(f).expect(
                    "threshold grids need a correlator preset \
                     (energy thresholds are in dB, not peak fractions)",
                )
            })
            .collect();
        false_alarm_lane_counts(engine, &presets, self.samples, self.seed, "fa_grid")
            .expect("correlator presets always fit a lane bank")
    }
}

/// One point of a receiver-operating-characteristic sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RocPoint {
    /// Correlation threshold as a fraction of the template's ideal peak.
    pub threshold: f64,
    /// Measured false-alarm rate on noise-only input, triggers/second.
    pub fa_per_s: f64,
    /// Detection probability at the probe SNR.
    pub p_detect: f64,
}

/// Builder for ROC sweeps — see [`CampaignSpec::roc`].
pub struct RocSpec<'a> {
    make_preset: &'a (dyn Fn(f64) -> DetectionPreset + Sync),
    emission: WifiEmission,
    snr_db: f64,
    thresholds: Vec<f64>,
    frames_per_point: usize,
    fa_samples: usize,
    seed: u64,
}

impl RocSpec<'_> {
    /// What the transmitter emits for the detection half of each point.
    pub fn emission(mut self, emission: WifiEmission) -> Self {
        self.emission = emission;
        self
    }

    /// Probe SNR for the detection measurement, dB.
    pub fn snr_db(mut self, snr_db: f64) -> Self {
        self.snr_db = snr_db;
        self
    }

    /// Threshold fractions to sweep.
    pub fn thresholds(mut self, thresholds: &[f64]) -> Self {
        self.thresholds = thresholds.to_vec();
        self
    }

    /// Frames per threshold for the detection half.
    pub fn trials(mut self, frames_per_point: usize) -> Self {
        self.frames_per_point = frames_per_point;
        self
    }

    /// Noise samples per threshold for the false-alarm half.
    pub fn fa_samples(mut self, fa_samples: usize) -> Self {
        self.fa_samples = fa_samples;
        self
    }

    /// Campaign seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sweeps the correlation threshold to trace the detector's ROC at one
    /// SNR: the quantitative form of Fig. 6's two-operating-point
    /// comparison ("aiming for a lower false alarm rate generally
    /// decreases the probability of detection"). Every threshold's
    /// false-alarm half reuses the *same* derived noise stream and its
    /// detection half the *same* derived emission stream, so both ROC axes
    /// are monotone in the threshold by construction — a stricter threshold
    /// sees the identical air and can only lose triggers, never gain them.
    ///
    /// For correlator presets the sweep runs on a [`DspLaneBank`]: all
    /// thresholds become lanes of one bank, the shared noise and emission
    /// streams are synthesized and sign-sliced **once**, and every
    /// threshold's comparator rides the same popcount pass. The produced
    /// points are bit-identical to the per-threshold nested path (the unit
    /// seeds, streams, quantization and the final float divisions all
    /// match), which remains as the fallback for energy presets and
    /// oversized grids.
    pub fn run(&self, engine: &CampaignEngine) -> Vec<RocPoint> {
        // Shared streams across thresholds: one for the FA half, one for
        // the detection half.
        let fa_seed = self.seed ^ 0xFA;
        let det_seed = self.seed ^ 0xD7;
        let presets: Vec<DetectionPreset> = self
            .thresholds
            .iter()
            .map(|&t| (self.make_preset)(t))
            .collect();
        if let Some(fa) =
            false_alarm_lane_counts(engine, &presets, self.fa_samples, fa_seed, "roc_fa")
        {
            let det = detection_lane_counts(
                engine,
                &presets,
                self.emission,
                self.snr_db,
                self.frames_per_point,
                det_seed,
                "roc_detect",
            )
            .expect("lane applicability is identical for both halves");
            return self
                .thresholds
                .iter()
                .enumerate()
                .map(|(k, &thr)| {
                    let (triggers, samples) = fa[k];
                    RocPoint {
                        threshold: thr,
                        fa_per_s: if samples == 0 {
                            0.0
                        } else {
                            triggers as f64 / (samples as f64 / rjam_sdr::USRP_SAMPLE_RATE)
                        },
                        p_detect: det[k] as f64 / self.frames_per_point as f64,
                    }
                })
                .collect();
        }
        self.run_nested(engine)
    }

    /// The pre-lane-bank path: one shard per threshold, each running its
    /// own serial false-alarm and detection sub-campaigns. Kept as the
    /// fallback for presets a lane bank cannot express (energy detectors)
    /// and as the reference the lane path is byte-compared against.
    fn run_nested(&self, engine: &CampaignEngine) -> Vec<RocPoint> {
        let fa_seed = self.seed ^ 0xFA;
        let det_seed = self.seed ^ 0xD7;
        engine.run_shards_kind("roc", self.thresholds.len(), self.seed, |ctx| {
            let thr = self.thresholds[ctx.index];
            let preset = (self.make_preset)(thr);
            let fa = CampaignSpec::false_alarm(&preset)
                .samples(self.fa_samples)
                .seed(fa_seed)
                .run(&CampaignEngine::serial());
            let det = CampaignSpec::wifi_detection(&preset)
                .emission(self.emission)
                .snrs(&[self.snr_db])
                .trials(self.frames_per_point)
                .seed(det_seed)
                .run(&CampaignEngine::serial());
            RocPoint {
                threshold: thr,
                fa_per_s: fa,
                p_detect: det[0].p_detect,
            }
        })
    }
}

/// Result of the WiMAX detection experiment (Fig. 12 / §5).
#[derive(Clone, Debug)]
pub struct WimaxResult {
    /// Fraction of downlink frames detected.
    pub detect_fraction: f64,
    /// Mean response latency from frame start, microseconds.
    pub mean_latency_us: f64,
    /// Scope-style trace with `frame` and `jam` markers.
    pub scope: ScopeTrace,
    /// One-to-one frame/jam correspondence held over the whole capture.
    pub one_to_one: bool,
}

/// Builder for the WiMAX experiment — see [`CampaignSpec::wimax_detection`].
#[derive(Clone, Debug)]
pub struct WimaxDetectionSpec {
    fused: bool,
    frames: usize,
    snr_db: f64,
    xcorr_threshold: f64,
    seed: u64,
}

impl WimaxDetectionSpec {
    /// Use the fused correlator+energy detector (vs the correlator alone).
    pub fn fused(mut self, fused: bool) -> Self {
        self.fused = fused;
        self
    }

    /// Number of TDD downlink frames to receive.
    pub fn frames(mut self, frames: usize) -> Self {
        self.frames = frames;
        self
    }

    /// Receive SNR, dB.
    pub fn snr_db(mut self, snr_db: f64) -> Self {
        self.snr_db = snr_db;
        self
    }

    /// Correlation threshold as a fraction of the template's ideal peak
    /// (0.45 keeps false alarms near zero; the paper's partially-detected
    /// operating point corresponds to stricter settings — our host-side
    /// templates are resampled to 25 MSPS before quantization, which
    /// recovers most of the detection the paper's rate-mismatched
    /// correlation lost; see EXPERIMENTS.md).
    pub fn threshold(mut self, xcorr_threshold: f64) -> Self {
        self.xcorr_threshold = xcorr_threshold;
        self
    }

    /// Campaign seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the WiMAX downlink detection/jamming experiment: `frames` TDD
    /// frames from the modeled Air4G base station, received at 25 MSPS
    /// with AWGN at `snr_db`, against either the correlator alone or the
    /// fused correlator+energy detector. Split into
    /// `WIMAX_FRAMES_PER_UNIT`-frame (4-frame) work units, each with its
    /// own base station, noise stream and scope; workers pool one jammer
    /// core and scratch (reset between units). Unit scopes are merged back
    /// onto one timeline with [`ScopeTrace::append_shifted`] and the
    /// Fig. 12 one-to-one correspondence is evaluated on the merged
    /// capture.
    pub fn run(&self, engine: &CampaignEngine) -> WimaxResult {
        self.run_cancellable(engine, None)
            .expect("uncancelled campaign always completes")
    }

    /// Number of engine work units this spec runs.
    pub fn n_units(&self) -> usize {
        self.frames.div_ceil(WIMAX_FRAMES_PER_UNIT)
    }

    /// Cancellable [`WimaxDetectionSpec::run`]: the token stops the
    /// experiment between work units and the call returns `None`. Unit
    /// results hold merged scope traces, which are not checkpointable — a
    /// cancelled WiMAX job re-runs from scratch on resume, which is still
    /// byte-identical by the engine's determinism contract.
    pub fn run_cancellable(
        &self,
        engine: &CampaignEngine,
        cancel: Option<&CancelToken>,
    ) -> Option<WimaxResult> {
        struct WimaxUnit {
            scope: ScopeTrace,
            detected: usize,
            latency_acc: f64,
        }
        struct WimaxPool {
            jammer: ReactiveJammer,
            scratch: BlockScratch,
            /// The frame at 25 MSPS, before the fractional delay.
            up: Vec<Cf64>,
            /// The received frame.
            wave: Vec<Cf64>,
        }
        let detection = if self.fused {
            DetectionPreset::WimaxFused {
                id_cell: 1,
                segment: 0,
                threshold: self.xcorr_threshold,
                energy_db: 10.0,
            }
        } else {
            DetectionPreset::WimaxPreamble {
                id_cell: 1,
                segment: 0,
                threshold: self.xcorr_threshold,
            }
        };
        let frame_samples_25 = (rjam_phy80216::FRAME_SAMPLES as f64 * 25.0 / 11.4).round() as u64;
        let n_units = self.frames.div_ceil(WIMAX_FRAMES_PER_UNIT);
        let units = engine.run_units_ckpt(
            "wimax",
            n_units,
            self.seed,
            &mut BTreeMap::new(),
            cancel,
            || WimaxPool {
                // One lockout per frame: suppress retriggers (correlator
                // false triggers on payload symbols, energy re-rises)
                // across the whole 5 ms frame (125 000 samples at
                // 25 MSPS), re-arming before the next preamble.
                jammer: ReactiveJammer::from_presets(
                    &detection,
                    &JammerPreset::Reactive {
                        uptime_s: 100e-6,
                        waveform: rjam_fpga::JamWaveform::Wgn,
                    },
                    100_000,
                ),
                scratch: BlockScratch::new(),
                up: Vec::new(),
                wave: Vec::new(),
            },
            |pool, ctx| {
                let lo = ctx.index * WIMAX_FRAMES_PER_UNIT;
                let n = WIMAX_FRAMES_PER_UNIT.min(self.frames - lo);
                pool.jammer.reset();
                let mut gen =
                    rjam_phy80216::DownlinkGenerator::new(rjam_phy80216::DownlinkConfig {
                        seed: ctx.seed,
                        ..rjam_phy80216::DownlinkConfig::default()
                    });
                let mut rng = Rng::seed_from(ctx.seed ^ 0x16e);
                let noise_power = RX_LEVEL / db_to_lin(self.snr_db);
                let mut noise = NoiseSource::new(noise_power, rng.fork());
                let mut scope = ScopeTrace::new(rjam_sdr::USRP_SAMPLE_RATE);
                let mut detected = 0usize;
                let mut latency_acc = 0.0f64;
                for _ in 0..n {
                    let native = gen.next_frame();
                    to_usrp_rate_into(&native, rjam_sdr::WIMAX_SAMPLE_RATE, &mut pool.up);
                    // Random per-frame sampling phase (unsynchronized clocks).
                    fractional_delay_into(&pool.up, rng.uniform() * 0.999, &mut pool.wave);
                    let wave = &mut pool.wave;
                    // Scale relative to the active subframe power.
                    let active = (gen.dl_subframe_samples() as f64 * 25.0 / 11.4) as usize;
                    let p = mean_power(&wave[..active.min(wave.len())]);
                    let k_scale = (RX_LEVEL / p).sqrt();
                    for s in wave.iter_mut() {
                        *s = s.scale(k_scale);
                    }
                    for s in wave.iter_mut() {
                        *s += noise.next_sample();
                    }
                    let base = pool.jammer.core_mut().samples_processed();
                    pool.jammer.process_block_into(wave, &mut pool.scratch);
                    scope.capture(wave);
                    // Mark the frame at its actual position in the receive
                    // stream (the per-frame fractional resample makes
                    // frames a sample or two short of the nominal
                    // 125 000-sample spacing).
                    scope.mark(base as usize, "frame");
                    if let Some(first_jam) = pool.scratch.active().iter().position(|&a| a) {
                        scope.mark((base + first_jam as u64) as usize, "jam");
                        detected += 1;
                        latency_acc += first_jam as f64 / 25.0; // us at 25 MSPS
                    }
                }
                WimaxUnit {
                    scope,
                    detected,
                    latency_acc,
                }
            },
        )?;
        // Ordered merge: unit k lands at the cumulative sample count of
        // units 0..k, reproducing one continuous scope timeline.
        let mut scope = ScopeTrace::new(rjam_sdr::USRP_SAMPLE_RATE);
        let mut detected = 0usize;
        let mut latency_acc = 0.0f64;
        for u in &units {
            let offset = scope.len();
            scope.append_shifted(&u.scope, offset);
            detected += u.detected;
            latency_acc += u.latency_acc;
        }
        let one_to_one = scope
            .correspondence("frame", "jam", frame_samples_25 as usize / 4)
            .is_ok();
        if rjam_obs::enabled() {
            use rjam_obs::registry::counter;
            counter("core.wimax_frames").add(self.frames as u64);
            counter("core.wimax_detections").add(detected as u64);
            if !one_to_one {
                // A Fig.-12 correspondence break is exactly the kind of
                // anomaly the flight recorder exists for.
                counter("core.wimax_correspondence_breaks").inc();
                rjam_obs::recorder::record_event(
                    scope.len() as u64,
                    "wimax_corr_break",
                    detected as i64,
                    self.frames as i64,
                );
            }
        }
        Some(WimaxResult {
            detect_fraction: detected as f64 / self.frames as f64,
            mean_latency_us: if detected > 0 {
                latency_acc / detected as f64
            } else {
                f64::NAN
            },
            scope,
            one_to_one,
        })
    }
}

/// One row of the Fig. 10/11 jamming sweep.
#[derive(Clone, Debug)]
pub struct JammingPoint {
    /// SIR at the AP, dB (paper x-axis).
    pub sir_ap_db: f64,
    /// iperf results at this operating point.
    pub report: IperfReport,
}

/// The jammer variants compared in Figs 10-11.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JammerUnderTest {
    /// No jammer (the dashed ceiling line).
    Off,
    /// Continuous WGN.
    Continuous,
    /// Reactive, 0.1 ms uptime.
    ReactiveLong,
    /// Reactive, 0.01 ms uptime.
    ReactiveShort,
}

impl JammerUnderTest {
    /// Human-readable label used in figure output.
    pub fn label(self) -> &'static str {
        match self {
            JammerUnderTest::Off => "Jammer Off",
            JammerUnderTest::Continuous => "Continuous Jammer",
            JammerUnderTest::ReactiveLong => "Reactive Jammer 0.1ms Uptime",
            JammerUnderTest::ReactiveShort => "Reactive Jammer 0.01ms Uptime",
        }
    }
}

/// Builder for jamming sweeps — see [`CampaignSpec::jamming`].
#[derive(Clone, Debug)]
pub struct JammingSweepSpec {
    jammer: JammerUnderTest,
    sirs_db: Vec<f64>,
    duration_s: f64,
    seed: u64,
}

impl JammingSweepSpec {
    /// SIR grid at the AP, dB.
    pub fn sirs(mut self, sirs_db: &[f64]) -> Self {
        self.sirs_db = sirs_db.to_vec();
        self
    }

    /// iperf run duration per point, seconds.
    pub fn duration_s(mut self, duration_s: f64) -> Self {
        self.duration_s = duration_s;
        self
    }

    /// Campaign seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the Fig. 10/11 sweep for one jammer variant across SIR
    /// points, one shard per point. Each shard runs its scenario with a
    /// deferred [`MacObsDelta`]; the deltas are merged in shard order and
    /// published once at join, so the obs registry sees the same totals
    /// as a serial run.
    pub fn run(&self, engine: &CampaignEngine) -> Vec<JammingPoint> {
        self.run_cancellable(engine, None)
            .expect("uncancelled campaign always completes")
    }

    /// Number of engine work units this spec runs (one per SIR point).
    pub fn n_units(&self) -> usize {
        self.sirs_db.len()
    }

    /// Cancellable [`JammingSweepSpec::run`]: the token stops the sweep
    /// between SIR points and the call returns `None` without publishing
    /// any obs deltas. Points are whole-scenario runs and are not
    /// checkpointed — a cancelled sweep re-runs from scratch on resume
    /// (byte-identical by determinism).
    pub fn run_cancellable(
        &self,
        engine: &CampaignEngine,
        cancel: Option<&CancelToken>,
    ) -> Option<Vec<JammingPoint>> {
        let results = engine.run_units_ckpt(
            "jamming",
            self.sirs_db.len(),
            self.seed,
            &mut BTreeMap::new(),
            cancel,
            || (),
            |_, ctx| {
                let sir = self.sirs_db[ctx.index];
                let sc = scenario_for(self.jammer, sir, self.duration_s, ctx.seed);
                let mut delta = MacObsDelta::new();
                let report = ScenarioRun::new(&sc).obs_into(&mut delta).run();
                (
                    JammingPoint {
                        sir_ap_db: sir,
                        report,
                    },
                    delta,
                )
            },
        )?;
        let mut merged = MacObsDelta::new();
        let mut out = Vec::with_capacity(results.len());
        for (pt, delta) in results {
            merged.absorb(delta);
            out.push(pt);
        }
        merged.publish();
        if rjam_obs::enabled() {
            rjam_obs::registry::counter("core.jamming_sweep_points").add(self.sirs_db.len() as u64);
        }
        Some(out)
    }
}

/// One operating point of the health-monitor time-to-detect sweep.
#[derive(Clone, Copy, Debug)]
pub struct TimeToDetectPoint {
    /// Jammer variant under test (duty-cycle axis).
    pub jammer: JammerUnderTest,
    /// SIR at the AP, dB.
    pub sir_ap_db: f64,
    /// Datagrams the scenario emitted.
    pub frames: u64,
    /// Frames from run start (= jam onset; the jammer is live from the
    /// first sample) to the first raised alarm, or `None` if the monitor
    /// never alarmed.
    pub frames_to_alarm: Option<u64>,
    /// Total alarms raised over the run (clean points count false alarms).
    pub alarms: u64,
    /// Packet reception ratio over the run, percent.
    pub prr_percent: f64,
}

/// Builder for health time-to-detect sweeps — see
/// [`CampaignSpec::health_time_to_detect`].
#[derive(Clone, Debug)]
pub struct HealthSweepSpec {
    jammers: Vec<JammerUnderTest>,
    sirs_db: Vec<f64>,
    duration_s: f64,
    cadence: u64,
    seed: u64,
}

impl HealthSweepSpec {
    /// Jammer variants to sweep (the duty-cycle axis).
    pub fn jammers(mut self, jammers: &[JammerUnderTest]) -> Self {
        self.jammers = jammers.to_vec();
        self
    }

    /// SIR grid at the AP, dB.
    pub fn sirs(mut self, sirs_db: &[f64]) -> Self {
        self.sirs_db = sirs_db.to_vec();
        self
    }

    /// Scenario duration per point, seconds.
    pub fn duration_s(mut self, duration_s: f64) -> Self {
        self.duration_s = duration_s;
        self
    }

    /// Monitor evaluation cadence, frames per window.
    pub fn cadence(mut self, frames: u64) -> Self {
        self.cadence = frames;
        self
    }

    /// Campaign seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the sweep on the sharded engine, one shard per (jammer, SIR)
    /// cell. Each shard attaches a fresh [`rjam_obs::HealthMonitor`] to
    /// its scenario run and reports how many frames the monitor needed to
    /// judge the link dead — the observability analogue of the paper's
    /// reaction-time measurement. MAC obs deltas merge exactly like the
    /// jamming sweep's.
    pub fn run(&self, engine: &CampaignEngine) -> Vec<TimeToDetectPoint> {
        let grid: Vec<(JammerUnderTest, f64)> = self
            .jammers
            .iter()
            .flat_map(|&j| self.sirs_db.iter().map(move |&s| (j, s)))
            .collect();
        let results = engine.run_shards_kind("health_ttd", grid.len(), self.seed, |ctx| {
            let (jut, sir) = grid[ctx.index];
            let sc = scenario_for(jut, sir, self.duration_s, ctx.seed);
            let mut delta = MacObsDelta::new();
            let mut mon =
                rjam_obs::HealthMonitor::new(rjam_obs::HealthConfig::with_cadence(self.cadence));
            let report = ScenarioRun::new(&sc)
                .obs_into(&mut delta)
                .health(&mut mon)
                .run();
            let frames_to_alarm = mon.frames_to_first_alarm();
            let verdict = mon.finish();
            (
                TimeToDetectPoint {
                    jammer: jut,
                    sir_ap_db: sir,
                    frames: verdict.frames,
                    frames_to_alarm,
                    alarms: verdict.alarms_raised,
                    prr_percent: report.prr_percent,
                },
                delta,
            )
        });
        let mut merged = MacObsDelta::new();
        let mut out = Vec::with_capacity(results.len());
        for (pt, delta) in results {
            merged.absorb(delta);
            out.push(pt);
        }
        merged.publish();
        if rjam_obs::enabled() {
            rjam_obs::registry::counter("core.health_ttd_points").add(grid.len() as u64);
        }
        out
    }
}

/// Detection probability the reactive jammer achieves per frame, taken from
/// the short-preamble characterization (Fig. 7: above 99 % for SNR >= 3 dB;
/// the jammer's receive SNR in this testbed is ~60 dB).
pub fn reactive_detect_prob(snr_jammer_rx_db: f64) -> f64 {
    if snr_jammer_rx_db >= 3.0 {
        0.995
    } else if snr_jammer_rx_db >= -3.0 {
        0.9
    } else {
        0.3
    }
}

/// Builds the MAC scenario for a jammer variant at a target SIR.
pub fn scenario_for(jut: JammerUnderTest, sir_ap_db: f64, duration_s: f64, seed: u64) -> Scenario {
    let mut budget = TestbedBudget::default();
    budget.set_sir_ap_db(sir_ap_db);
    let jammer = match jut {
        JammerUnderTest::Off => JammerKind::Off,
        JammerUnderTest::Continuous => JammerKind::Continuous,
        JammerUnderTest::ReactiveLong => JammerKind::Reactive {
            uptime_us: 100.0,
            response_us: 2.64,
            delay_us: 0.0,
            detect_prob: reactive_detect_prob(budget.snr_jammer_rx_db()),
        },
        JammerUnderTest::ReactiveShort => JammerKind::Reactive {
            uptime_us: 10.0,
            response_us: 2.64,
            delay_us: 0.0,
            detect_prob: reactive_detect_prob(budget.snr_jammer_rx_db()),
        },
    };
    Scenario {
        snr_ap_db: budget.snr_ap_db(),
        snr_client_db: budget.snr_client_db(),
        sir_ap_db,
        sir_client_db: budget.sir_client_db(),
        cca_defer_prob: budget.cca_defer_prob(),
        jammer,
        duration_s,
        seed,
        ..Scenario::default()
    }
}

/// Energy ledger for one jammer operating point (the paper's motivating
/// claim: "adversaries can significantly reduce network throughput using
/// little energy").
#[derive(Clone, Debug)]
pub struct EnergyPoint {
    /// Jammer variant.
    pub jammer: JammerUnderTest,
    /// SIR at the AP during active transmission, dB.
    pub sir_ap_db: f64,
    /// Jammer transmit power while on, dBm (from the testbed budget).
    pub tx_power_dbm: f64,
    /// RF-on duty cycle over the run, percent.
    pub duty_percent: f64,
    /// Total transmit energy over the run, joules.
    pub energy_joules: f64,
    /// Damage achieved: goodput relative to the clean ceiling, percent.
    pub residual_bandwidth_percent: f64,
}

/// Measures the energy each jammer spends to reach a given level of damage
/// at one SIR point.
pub fn energy_at_operating_point(
    jut: JammerUnderTest,
    sir_ap_db: f64,
    duration_s: f64,
    ceiling_kbps: f64,
    seed: u64,
) -> EnergyPoint {
    let mut budget = TestbedBudget::default();
    let tx_power_dbm = budget.set_sir_ap_db(sir_ap_db);
    let sc = scenario_for(jut, sir_ap_db, duration_s, seed);
    let report = run_scenario(&sc);
    let duty = report.jam_duty_percent(duration_s);
    let tx_watts = 10f64.powf((tx_power_dbm - 30.0) / 10.0);
    EnergyPoint {
        jammer: jut,
        sir_ap_db,
        tx_power_dbm,
        duty_percent: duty,
        energy_joules: tx_watts * report.jam_airtime_us * 1e-6,
        residual_bandwidth_percent: 100.0 * report.bandwidth_kbps / ceiling_kbps.max(1.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial() -> CampaignEngine {
        CampaignEngine::serial()
    }

    #[test]
    fn short_preamble_detection_high_at_good_snr() {
        let pts =
            CampaignSpec::wifi_detection(&DetectionPreset::WifiShortPreamble { threshold: 0.25 })
                .snrs(&[10.0])
                .trials(40)
                .seed(7)
                .run(&serial());
        assert!(pts[0].p_detect > 0.9, "p={}", pts[0].p_detect);
    }

    #[test]
    fn long_preamble_detection_suboptimal() {
        // The 20->25 MSPS mismatch caps single-LTS detection well below 1
        // even at high SNR (paper: ~50 %).
        let pts =
            CampaignSpec::wifi_detection(&DetectionPreset::WifiLongPreamble { threshold: 0.30 })
                .emission(WifiEmission::SingleLongPreamble)
                .snrs(&[15.0])
                .trials(40)
                .seed(8)
                .run(&serial());
        assert!(
            pts[0].p_detect < 0.95,
            "single-LTS detection should be degraded, got {}",
            pts[0].p_detect
        );
    }

    #[test]
    fn detection_improves_with_snr() {
        let pts =
            CampaignSpec::wifi_detection(&DetectionPreset::WifiShortPreamble { threshold: 0.30 })
                .snrs(&[-9.0, 3.0])
                .trials(30)
                .seed(9)
                .run(&serial());
        assert!(pts[1].p_detect >= pts[0].p_detect, "{pts:?}");
    }

    #[test]
    fn snr_range_builds_inclusive_grid() {
        let spec =
            CampaignSpec::wifi_detection(&DetectionPreset::EnergyRise { threshold_db: 10.0 })
                .snr_range(-9.0, 12.0, 3.0);
        assert_eq!(
            spec.snrs_db,
            vec![-9.0, -6.0, -3.0, 0.0, 3.0, 6.0, 9.0, 12.0]
        );
    }

    #[test]
    fn energy_detector_single_trigger_at_high_snr() {
        let pts = CampaignSpec::wifi_detection(&DetectionPreset::EnergyRise { threshold_db: 10.0 })
            .snrs(&[20.0])
            .trials(30)
            .seed(10)
            .run(&serial());
        assert!(pts[0].p_detect > 0.95, "p={}", pts[0].p_detect);
        assert!(
            pts[0].triggers_per_frame < 1.5,
            "triggers={}",
            pts[0].triggers_per_frame
        );
    }

    #[test]
    fn energy_detector_silent_below_noise() {
        let pts = CampaignSpec::wifi_detection(&DetectionPreset::EnergyRise { threshold_db: 10.0 })
            .snrs(&[-10.0])
            .trials(20)
            .seed(11)
            .run(&serial());
        assert!(pts[0].p_detect < 0.2, "p={}", pts[0].p_detect);
    }

    #[test]
    fn false_alarm_rate_scales_with_threshold() {
        let loose =
            CampaignSpec::false_alarm(&DetectionPreset::WifiLongPreamble { threshold: 0.08 })
                .samples(400_000)
                .seed(12)
                .run(&serial());
        let strict =
            CampaignSpec::false_alarm(&DetectionPreset::WifiLongPreamble { threshold: 0.6 })
                .samples(400_000)
                .seed(12)
                .run(&serial());
        assert!(loose > strict, "loose {loose}/s vs strict {strict}/s");
        assert_eq!(strict, 0.0, "a high threshold must not fire on noise");
    }

    #[test]
    fn fa_denominator_matches_requested_samples() {
        // Regression: with a sample count that is NOT a multiple of the
        // unit size, the final unit must process exactly the remainder —
        // the exported rate's denominator is the requested count, not a
        // rounded-up unit multiple.
        let preset = DetectionPreset::WifiLongPreamble { threshold: 0.30 };
        let samples = 2 * FA_UNIT_SAMPLES + 12_345;
        let spec = CampaignSpec::false_alarm(&preset).samples(samples).seed(5);
        let (t1, n1) = spec.run_counts(&serial());
        assert_eq!(n1, samples as u64, "denominator must equal the request");
        let (t3, n3) = spec.run_counts(&CampaignEngine::with_threads(3));
        assert_eq!((t1, n1), (t3, n3), "counts must be thread-invariant");
        // And the rate is derived from exactly those counts.
        let rate = spec.run(&serial());
        let expect = t1 as f64 / (samples as f64 / rjam_sdr::USRP_SAMPLE_RATE);
        assert_eq!(rate.to_bits(), expect.to_bits());
    }

    #[test]
    fn wimax_fusion_reaches_full_detection() {
        let alone = CampaignSpec::wimax_detection()
            .fused(false)
            .frames(12)
            .seed(13)
            .run(&serial());
        let fused = CampaignSpec::wimax_detection()
            .fused(true)
            .frames(12)
            .seed(13)
            .run(&serial());
        assert!(
            fused.detect_fraction >= alone.detect_fraction,
            "fused {} vs alone {}",
            fused.detect_fraction,
            alone.detect_fraction
        );
        assert!(
            (fused.detect_fraction - 1.0).abs() < 1e-9,
            "fusion must catch every frame, got {}",
            fused.detect_fraction
        );
        assert!(fused.one_to_one, "jam bursts must correspond 1:1 to frames");
    }

    #[test]
    fn jamming_sweep_shapes() {
        let sirs = [40.0, 4.0];
        let clean = CampaignSpec::jamming(JammerUnderTest::Off)
            .sirs(&[40.0])
            .seed(14)
            .run(&serial());
        let cont = CampaignSpec::jamming(JammerUnderTest::Continuous)
            .sirs(&sirs)
            .seed(14)
            .run(&serial());
        // Weak jamming: near the clean ceiling; strong: dead or nearly so.
        assert!(cont[0].report.bandwidth_kbps > 0.5 * clean[0].report.bandwidth_kbps);
        assert!(cont[1].report.bandwidth_kbps < 0.1 * clean[0].report.bandwidth_kbps);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn health_sweep_detects_jam_and_stays_quiet_on_clean() {
        let pts = CampaignSpec::health_time_to_detect()
            .jammers(&[JammerUnderTest::Off, JammerUnderTest::ReactiveLong])
            .sirs(&[1.0])
            .duration_s(1.0)
            .seed(14)
            .run(&serial());
        assert_eq!(pts.len(), 2);
        let clean = &pts[0];
        let jammed = &pts[1];
        assert_eq!(clean.jammer, JammerUnderTest::Off);
        assert_eq!(clean.alarms, 0, "clean run must raise no alarms");
        assert!(clean.frames_to_alarm.is_none());
        assert_eq!(jammed.jammer, JammerUnderTest::ReactiveLong);
        assert!(jammed.alarms >= 1, "jammed run must alarm");
        // Jam is live from the first sample: the 32-frame acceptance
        // budget from jam onset applies from frame zero.
        assert!(
            jammed.frames_to_alarm.is_some_and(|f| f <= 32),
            "time-to-detect {:?} exceeds the 32-frame budget",
            jammed.frames_to_alarm
        );
    }

    #[test]
    fn health_sweep_is_thread_count_invariant() {
        let spec = CampaignSpec::health_time_to_detect()
            .jammers(&[JammerUnderTest::Off, JammerUnderTest::ReactiveLong])
            .sirs(&[1.0, 14.0])
            .duration_s(0.25)
            .seed(7);
        let serial_pts = spec.run(&serial());
        let parallel_pts = spec.run(&CampaignEngine::with_threads(4));
        assert_eq!(serial_pts.len(), parallel_pts.len());
        for (a, b) in serial_pts.iter().zip(&parallel_pts) {
            assert_eq!(a.jammer, b.jammer);
            assert_eq!(a.frames, b.frames);
            assert_eq!(a.frames_to_alarm, b.frames_to_alarm);
            assert_eq!(a.alarms, b.alarms);
            assert!((a.prr_percent - b.prr_percent).abs() < 1e-12);
        }
    }

    #[test]
    fn scenario_wiring_uses_budget() {
        let sc = scenario_for(JammerUnderTest::ReactiveLong, 15.94, 1.0, 1);
        assert!((sc.sir_ap_db - 15.94).abs() < 1e-9);
        assert!((sc.snr_ap_db - 28.0).abs() < 1e-9);
        match sc.jammer {
            JammerKind::Reactive {
                uptime_us,
                detect_prob,
                ..
            } => {
                assert_eq!(uptime_us, 100.0);
                assert!(detect_prob > 0.99);
            }
            _ => panic!("wrong jammer kind"),
        }
    }

    #[test]
    fn fading_degrades_detection_but_not_to_zero() {
        let preset = DetectionPreset::WifiShortPreamble { threshold: 0.30 };
        let awgn = CampaignSpec::wifi_detection(&preset)
            .snrs(&[8.0])
            .trials(40)
            .seed(31)
            .run(&serial());
        let faded = CampaignSpec::wifi_detection(&preset)
            .channel(ChannelModel::Rayleigh { taps: 8, rms: 2.0 })
            .snrs(&[8.0])
            .trials(40)
            .seed(31)
            .run(&serial());
        assert!(
            faded[0].p_detect <= awgn[0].p_detect + 0.05,
            "{faded:?} vs {awgn:?}"
        );
        assert!(
            faded[0].p_detect > 0.3,
            "fading must not kill detection: {faded:?}"
        );
    }

    #[test]
    fn roc_tradeoff_monotone() {
        let pts = CampaignSpec::roc(&|t| DetectionPreset::WifiShortPreamble { threshold: t })
            .snr_db(-3.0)
            .thresholds(&[0.22, 0.34, 0.50])
            .trials(30)
            .fa_samples(300_000)
            .seed(21)
            .run(&serial());
        // Raising the threshold must not raise either FA or detection.
        for w in pts.windows(2) {
            assert!(w[1].fa_per_s <= w[0].fa_per_s + 1e-9, "{pts:?}");
            assert!(w[1].p_detect <= w[0].p_detect + 1e-9, "{pts:?}");
        }
    }

    #[test]
    fn roc_lane_path_byte_identical_to_nested_path() {
        // The tentpole acceptance criterion: the lane-bank ROC export must
        // be byte-identical to the pre-lane-bank nested path — same unit
        // seeds, same streams, same quantization, same float divisions.
        let make = |t: f64| DetectionPreset::WifiShortPreamble { threshold: t };
        let spec = CampaignSpec::roc(&make)
            .snr_db(-3.0)
            .thresholds(&[0.22, 0.34, 0.50])
            .trials(30)
            .fa_samples(300_000)
            .seed(21);
        let lane = spec.run(&serial());
        let nested = spec.run_nested(&serial());
        assert_eq!(
            crate::export::roc_csv(&lane),
            crate::export::roc_csv(&nested)
        );
        // Raw bits, not just the rounded CSV.
        for (a, b) in lane.iter().zip(&nested) {
            assert_eq!(a.fa_per_s.to_bits(), b.fa_per_s.to_bits());
            assert_eq!(a.p_detect.to_bits(), b.p_detect.to_bits());
        }
        // And the lane path itself is thread-count invariant.
        for threads in [2, 7] {
            let sharded = spec.run(&CampaignEngine::with_threads(threads));
            assert_eq!(
                crate::export::roc_csv(&lane),
                crate::export::roc_csv(&sharded),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn roc_energy_preset_falls_back_to_nested_path() {
        // Energy presets have no correlator template: the lane path must
        // decline and the nested path must produce the points.
        let make = |_t: f64| DetectionPreset::EnergyRise { threshold_db: 10.0 };
        let spec = CampaignSpec::roc(&make)
            .snr_db(5.0)
            .thresholds(&[0.3, 0.5])
            .trials(8)
            .fa_samples(100_000)
            .seed(22);
        let pts = spec.run(&serial());
        assert_eq!(pts.len(), 2);
        assert_eq!(
            crate::export::roc_csv(&pts),
            crate::export::roc_csv(&spec.run_nested(&serial()))
        );
    }

    #[test]
    fn fa_grid_matches_individual_runs() {
        // Each lane of the grid sweep must reproduce a dedicated
        // run_counts run of the re-thresholded preset, bit for bit.
        let preset = DetectionPreset::WifiLongPreamble { threshold: 0.30 };
        let samples = FA_UNIT_SAMPLES + 12_345; // exercise the remainder unit
        let spec = CampaignSpec::false_alarm(&preset).samples(samples).seed(33);
        let grid = [0.08, 0.30, 0.60];
        let swept = spec.run_grid_counts(&serial(), &grid);
        assert_eq!(swept.len(), grid.len());
        for (k, &f) in grid.iter().enumerate() {
            let single = CampaignSpec::false_alarm(&preset.with_xcorr_fraction(f).unwrap())
                .samples(samples)
                .seed(33)
                .run_counts(&serial());
            assert_eq!(swept[k], single, "fraction {f}");
            assert_eq!(swept[k].1, samples as u64, "denominator is the request");
        }
        // Looser thresholds can only gain triggers on the identical noise.
        assert!(
            swept[0].0 >= swept[1].0 && swept[1].0 >= swept[2].0,
            "{swept:?}"
        );
    }

    #[test]
    fn fa_grid_lane_order_and_thread_count_invariant() {
        // Shuffling the lane order and resharding must permute, never
        // change, the per-fraction counts.
        let preset = DetectionPreset::WifiShortPreamble { threshold: 0.30 };
        let spec = CampaignSpec::false_alarm(&preset)
            .samples(FA_UNIT_SAMPLES + 999)
            .seed(34);
        let a = spec.run_grid_counts(&serial(), &[0.08, 0.22, 0.34]);
        for threads in [1usize, 2, 7] {
            let b =
                spec.run_grid_counts(&CampaignEngine::with_threads(threads), &[0.34, 0.08, 0.22]);
            assert_eq!(a[0], b[1], "threads={threads}");
            assert_eq!(a[1], b[2], "threads={threads}");
            assert_eq!(a[2], b[0], "threads={threads}");
        }
    }

    #[test]
    #[should_panic(expected = "energy thresholds are in dB")]
    fn fa_grid_rejects_energy_presets() {
        let spec = CampaignSpec::false_alarm(&DetectionPreset::EnergyRise { threshold_db: 10.0 })
            .samples(1000);
        let _ = spec.run_grid_counts(&serial(), &[0.3]);
    }

    #[test]
    fn sweeps_are_thread_count_invariant() {
        // The determinism contract, asserted at the data level: detection,
        // FA, WiMAX and jamming campaigns all produce identical results
        // serially and sharded.
        let preset = DetectionPreset::WifiShortPreamble { threshold: 0.30 };
        let spec = CampaignSpec::wifi_detection(&preset)
            .snrs(&[-3.0, 3.0, 9.0])
            .trials(10)
            .seed(40);
        let a = spec.run(&CampaignEngine::serial());
        let b = spec.run(&CampaignEngine::with_threads(3));
        assert_eq!(a, b);

        let fa_spec = CampaignSpec::false_alarm(&preset)
            .samples(3 * FA_UNIT_SAMPLES / 2)
            .seed(41);
        assert_eq!(
            fa_spec.run(&CampaignEngine::serial()),
            fa_spec.run(&CampaignEngine::with_threads(2)),
        );

        let wx = CampaignSpec::wimax_detection().frames(6).seed(42);
        let wa = wx.run(&CampaignEngine::serial());
        let wb = wx.run(&CampaignEngine::with_threads(4));
        assert_eq!(wa.detect_fraction, wb.detect_fraction);
        assert_eq!(wa.mean_latency_us, wb.mean_latency_us);
        assert_eq!(wa.one_to_one, wb.one_to_one);
        assert_eq!(wa.scope.to_markers_json(), wb.scope.to_markers_json());

        let jm = CampaignSpec::jamming(JammerUnderTest::ReactiveLong)
            .sirs(&[30.0, 10.0])
            .duration_s(1.0)
            .seed(43);
        let ja = jm.run(&CampaignEngine::serial());
        let jb = jm.run(&CampaignEngine::with_threads(2));
        assert_eq!(ja.len(), jb.len());
        for (x, y) in ja.iter().zip(&jb) {
            assert_eq!(x.sir_ap_db, y.sir_ap_db);
            assert_eq!(x.report.sent, y.report.sent);
            assert_eq!(x.report.received, y.report.received);
        }
    }

    #[test]
    fn default_emission_is_full_frames() {
        // The builder's default emission must stay FullFrames{psdu_len:60}:
        // it replaced the positional wrappers' hard-coded argument, and the
        // serialisable CampaignRequest relies on the same default.
        let preset = DetectionPreset::WifiShortPreamble { threshold: 0.30 };
        let explicit = CampaignSpec::wifi_detection(&preset)
            .emission(WifiEmission::FullFrames { psdu_len: 60 })
            .snrs(&[5.0])
            .trials(10)
            .seed(50)
            .run(&CampaignEngine::from_env());
        let defaulted = CampaignSpec::wifi_detection(&preset)
            .snrs(&[5.0])
            .trials(10)
            .seed(50)
            .run(&CampaignEngine::from_env());
        assert_eq!(explicit, defaulted);
    }

    #[test]
    fn labels() {
        assert_eq!(JammerUnderTest::Continuous.label(), "Continuous Jammer");
        assert!(JammerUnderTest::ReactiveShort.label().contains("0.01ms"));
    }
}
