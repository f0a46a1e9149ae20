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

use crate::engine::{CampaignEngine, CancelToken, FoldCheckpoint};
use crate::jammer::{JamLane, DEFAULT_LOCKOUT};
use crate::presets::{build_config, DetectionPreset, JammerPreset};
use crate::testbed::TestbedBudget;
use rjam_channel::monitor::ScopeTrace;
use rjam_channel::noise::NoiseSource;
use rjam_fpga::lanes::{ENERGY_HISTORY, MAX_LANES};
use rjam_fpga::{DspLaneBank, LaneBankScratch, Reads};
use rjam_mac::model::{JammerKind, Scenario};
use rjam_mac::{run_scenario, IperfReport, MacObsDelta, ScenarioRun};
use rjam_phy80211::tx::{modulate_frame_into, single_long_preamble, single_short_preamble, Frame};
use rjam_sdr::complex::{Cf64, IqI16};
use rjam_sdr::power::{db_to_lin, mean_power, scale_to_power};
use rjam_sdr::resample::{
    fractional_delay_into, fractional_delay_silent_tail_into, to_usrp_rate_into,
    to_usrp_rate_silent_tail_into,
};
use rjam_sdr::rng::Rng;
use std::collections::BTreeMap;
use std::ops::Range;

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
/// Block size of an energy-only false-alarm unit's bound stream. The exact
/// stream resumes at a block start, so a small block redoes few samples;
/// its bounds (8 KiB) and their prefix sums stay in L1.
const BOUND_CHUNK: usize = 1_024;
const _: () = assert!(BOUND_CHUNK as u64 >= ENERGY_HISTORY);
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
    /// A multipath channel's output, swapped into `wave` once written.
    faded: Vec<Cf64>,
    /// The trial's multipath realization, redrawn in place.
    channel: rjam_channel::MultipathChannel,
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

/// Lays one received frame into `stream` at the ADC: `LEAD_IN` noise
/// samples, the waveform with noise added, then `TAIL` noise samples.
/// Returns the frame's detection window relative to the stream start; it
/// ends 64 samples past the frame to allow for pipeline lag. For
/// detectors that read only signs ([`Reads::Signs`]) the lead-in and tail
/// are [`NoiseSource::adc_noise_signs`]: the signs of the samples
/// `adc_noise` would give, from the same draws.
fn frame_stream(
    wave: &[Cf64],
    noise: &mut NoiseSource,
    reads: Reads,
    stream: &mut Vec<IqI16>,
) -> Range<u64> {
    stream.clear();
    noise_block(noise, reads, LEAD_IN, stream);
    let lo = stream.len() as u64;
    noise.add_to_adc(wave, stream);
    let hi = stream.len() as u64 + 64;
    noise_block(noise, reads, TAIL, stream);
    lo..hi
}

/// Appends `n` samples of `noise` to `stream` in the form detectors that
/// read `reads` need: [`NoiseSource::adc_noise_signs`] for signs alone,
/// [`NoiseSource::adc_noise`] otherwise.
fn noise_block(noise: &mut NoiseSource, reads: Reads, n: usize, stream: &mut Vec<IqI16>) {
    if reads == Reads::Signs {
        noise.adc_noise_signs(n, stream);
    } else {
        noise.adc_noise(n, stream);
    }
}

/// The lockout a detection or false-alarm hypothesis runs at: energy-rise
/// hypotheses at `energy_lockout`, every other at [`DEFAULT_LOCKOUT`].
fn hypothesis_lockout(preset: &DetectionPreset, energy_lockout: u64) -> u64 {
    match preset {
        DetectionPreset::EnergyRise { .. } => energy_lockout,
        _ => DEFAULT_LOCKOUT,
    }
}

/// The detectors one measurement drives over a shared ADC stream: one
/// [`DspLaneBank`] lane per preset, [`MAX_LANES`] to a bank, so the stream
/// is sign-sliced once for all of them. A lane fires where a monitor-mode
/// core with the preset's config and lockout would log a jam trigger.
struct DetectorBank {
    banks: Vec<DspLaneBank>,
    scratch: LaneBankScratch,
    /// What of a sample the lanes read ([`DspLaneBank::reads`]): one kind
    /// when every bank reads it, else [`Reads::Samples`].
    reads: Reads,
}

impl DetectorBank {
    fn new(presets: &[DetectionPreset], energy_lockout: u64) -> Self {
        let banks = presets
            .chunks(MAX_LANES)
            .map(|chunk| {
                let mut bank = DspLaneBank::new();
                for preset in chunk {
                    let lockout = hypothesis_lockout(preset, energy_lockout);
                    bank.add_lane(&build_config(preset, &JammerPreset::Monitor, lockout));
                }
                bank
            })
            .collect::<Vec<_>>();
        let reads = banks.iter().map(DspLaneBank::reads);
        DetectorBank {
            reads: reads
                .reduce(|a, b| if a == b { a } else { Reads::Samples })
                .unwrap_or(Reads::Signs),
            banks,
            scratch: LaneBankScratch::default(),
        }
    }

    /// Clears every lane's streaming state, keeping its configuration.
    fn reset(&mut self) {
        self.banks.iter_mut().for_each(DspLaneBank::reset);
    }

    /// Decides what it can of the next `n` samples of `noise` from energy
    /// bounds, for banks that read only energies
    /// ([`NoiseSource::adc_energy_bounds`], [`DspLaneBank::first_undecided`]):
    /// a bank fires nothing on a decided sample. The bounds come in blocks
    /// of `block` samples, at least [`ENERGY_HISTORY`]: [`BOUND_CHUNK`],
    /// or in tests a block that starts near the first undecided sample.
    /// Returns the sample the exact stream resumes at, with `noise` there
    /// and every bank reset: `n` when every sample is decided, else the
    /// latest block start at least [`ENERGY_HISTORY`] samples before the
    /// first undecided sample, or the first block's. Fed the exact stream
    /// from there, the banks fire from that sample on where banks fed all
    /// `n` samples would.
    fn decide_energy(
        &mut self,
        noise: &mut NoiseSource,
        n: usize,
        block: usize,
        bounds: &mut Vec<(u32, u32)>,
    ) -> usize {
        let mut earlier = (0, noise.clone());
        for at in (0..n).step_by(block) {
            let start = noise.clone();
            bounds.clear();
            noise.adc_energy_bounds(block.min(n - at), bounds);
            let undecided = self
                .banks
                .iter_mut()
                .filter_map(|b| b.first_undecided(bounds));
            if let Some(k) = undecided.min() {
                let (from, source) = if at == 0 || k as u64 >= ENERGY_HISTORY {
                    (at, start)
                } else {
                    earlier
                };
                *noise = source;
                self.reset();
                return from;
            }
            earlier = (at, start);
        }
        n
    }

    /// Streams `block` through every hypothesis and adds to `hits[h]` the
    /// triggers hypothesis `h` fires at block offsets inside `window`.
    fn feed(&mut self, block: &[IqI16], window: Range<u64>, hits: &mut [usize]) {
        for (bank, hits) in self.banks.iter_mut().zip(hits.chunks_mut(MAX_LANES)) {
            let base = bank.samples_processed();
            self.scratch.clear();
            bank.process_block_into(block, &mut self.scratch);
            for (lane, hits) in self.scratch.triggers.iter().zip(hits) {
                *hits += lane
                    .iter()
                    .filter(|&&s| window.contains(&(s - base)))
                    .count();
            }
        }
    }
}

/// Per-worker state of the false-alarm and detection bodies: the detector
/// bank, the buffers the shared ADC stream is built in and one trigger
/// tally per hypothesis.
struct MeasurePool {
    bank: DetectorBank,
    synth: SynthScratch,
    stream: Vec<IqI16>,
    /// An energy-only false-alarm unit's bound block.
    bounds: Vec<(u32, u32)>,
    hits: Vec<usize>,
}

impl MeasurePool {
    fn new(presets: &[DetectionPreset], energy_lockout: u64) -> Self {
        MeasurePool {
            bank: DetectorBank::new(presets, energy_lockout),
            synth: SynthScratch::default(),
            stream: Vec::new(),
            bounds: Vec::new(),
            hits: vec![0; presets.len()],
        }
    }
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
/// let engine = CampaignEngine::with_threads(2);
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

    /// A receiver-operating-characteristic sweep over `preset`'s threshold
    /// (see [`DetectionPreset::with_threshold`] for its unit).
    pub fn roc(preset: &DetectionPreset) -> RocSpec {
        RocSpec {
            preset: preset.clone(),
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
    /// owns one pooled detector bank and stream buffer (reset between
    /// units instead of a rebuild);
    /// every unit derives its frames and noise from its own
    /// [`crate::engine::ShardCtx`] seed and per-point results are summed
    /// in unit order, so output is bit-identical at any thread count.
    pub fn run(&self, engine: &CampaignEngine) -> Vec<DetectionPoint> {
        self.run_ckpt(engine, &mut BTreeMap::new(), None)
            .expect("uncancelled campaign always completes")
    }

    /// Frames of one SNR point split into units of
    /// `DETECTION_FRAMES_PER_UNIT` frames.
    fn blocks_per_point(&self) -> usize {
        self.frames_per_point
            .div_ceil(DETECTION_FRAMES_PER_UNIT)
            .max(1)
    }

    /// Number of engine work units this spec runs — the checkpoint keyspace
    /// for [`WifiDetectionSpec::run_ckpt`].
    pub fn n_units(&self) -> usize {
        self.snrs_db.len().saturating_mul(self.blocks_per_point())
    }

    /// Checkpointed, cancellable [`WifiDetectionSpec::run`]: `done` carries
    /// per-unit `(detected_frames, total_triggers)` cells (one per
    /// hypothesis; here, one) across interruptions and `cancel` stops the
    /// sweep between units. Returns `None` when interrupted (completed
    /// cells stay in `done`); a later call with the same spec and
    /// checkpoint resumes and produces the **bit-identical** points an
    /// uninterrupted run would have — unit seeds derive from original unit
    /// indices, and the per-point reduction sums integers in unit order.
    /// With an empty checkpoint and no token this is exactly `run`.
    pub fn run_ckpt(
        &self,
        engine: &CampaignEngine,
        done: &mut BTreeMap<usize, Vec<(usize, usize)>>,
        cancel: Option<&CancelToken>,
    ) -> Option<Vec<DetectionPoint>> {
        let sums = self.measure(
            engine,
            "wifi_detection",
            std::slice::from_ref(&self.preset),
            done,
            cancel,
        )?;
        let frames = self.frames_per_point as f64;
        Some(
            self.snrs_db
                .iter()
                .zip(&sums)
                .map(|(&snr_db, point)| DetectionPoint {
                    snr_db,
                    p_detect: point[0].0 as f64 / frames,
                    triggers_per_frame: point[0].1 as f64 / frames,
                })
                .collect(),
        )
    }

    /// Synthesizes one trial — emission, channel, level and noise — into
    /// the ADC stream `stream` and returns its detection window; see
    /// [`frame_stream`] for `reads`.
    fn trial_stream(
        &self,
        rng: &mut Rng,
        noise: &mut NoiseSource,
        synth: &mut SynthScratch,
        reads: Reads,
        stream: &mut Vec<IqI16>,
    ) -> Range<u64> {
        emission_waveform(self.emission, rjam_phy80211::Rate::R12, rng, synth);
        if let ChannelModel::Rayleigh { taps, rms } = self.channel {
            synth.channel.redraw_rayleigh(taps, rms, rng);
            synth.channel.apply_into(&synth.wave, &mut synth.faded);
            std::mem::swap(&mut synth.wave, &mut synth.faded);
        }
        scale_to_power(&mut synth.wave, RX_LEVEL);
        frame_stream(&synth.wave, noise, reads, stream)
    }

    /// The detection unit body, for one hypothesis per preset (the spec's
    /// own preset is ignored): each unit synthesizes its frames and noise
    /// once from its own [`crate::engine::ShardCtx`] seed and streams them
    /// through every hypothesis. Returns, per SNR point and preset, the
    /// `(detected_frames, total_triggers)` sums in unit order — for each
    /// preset exactly what a one-preset run at the same seed counts.
    fn measure(
        &self,
        engine: &CampaignEngine,
        kind: &'static str,
        presets: &[DetectionPreset],
        done: &mut BTreeMap<usize, Vec<(usize, usize)>>,
        cancel: Option<&CancelToken>,
    ) -> Option<Vec<Vec<(usize, usize)>>> {
        let blocks_per_point = self.blocks_per_point();
        let cells = engine.run_units(
            kind,
            self.n_units(),
            self.seed,
            done,
            cancel,
            // Correlation sweeps use a lockout so the 10 STS repetitions
            // count as one detection; the energy sweep counts raw rise
            // triggers (the paper reports "multiple detections per frame"
            // in the mid-SNR band).
            || MeasurePool::new(presets, 0),
            |pool, ctx| {
                let snr_db = self.snrs_db[ctx.index / blocks_per_point];
                let lo = (ctx.index % blocks_per_point) * DETECTION_FRAMES_PER_UNIT;
                let frames = DETECTION_FRAMES_PER_UNIT.min(self.frames_per_point - lo);
                let mut rng = Rng::seed_from(ctx.seed);
                pool.bank.reset();
                let noise_power = RX_LEVEL / db_to_lin(snr_db);
                let mut noise = NoiseSource::new(noise_power, rng.fork());
                let mut cell = vec![(0usize, 0usize); presets.len()];
                for _ in 0..frames {
                    let window = self.trial_stream(
                        &mut rng,
                        &mut noise,
                        &mut pool.synth,
                        pool.bank.reads,
                        &mut pool.stream,
                    );
                    pool.hits.fill(0);
                    pool.bank.feed(&pool.stream, window, &mut pool.hits);
                    for ((detected, triggers), &n) in cell.iter_mut().zip(&pool.hits) {
                        *detected += usize::from(n > 0);
                        *triggers += n;
                    }
                }
                cell
            },
        )?;
        // Per-point reduction in unit order: integer sums, so the merged
        // ratios are bit-identical regardless of how units were grouped.
        let sums: Vec<Vec<(usize, usize)>> = cells
            .chunks(blocks_per_point)
            .map(|point| {
                let mut sum = vec![(0usize, 0usize); presets.len()];
                for cell in point {
                    for ((d, t), &(cd, ct)) in sum.iter_mut().zip(cell) {
                        *d += cd;
                        *t += ct;
                    }
                }
                sum
            })
            .collect();
        if rjam_obs::enabled() {
            use rjam_obs::registry::counter;
            // The frames were streamed once, however many hypotheses saw them.
            let frames = (self.snrs_db.len() * self.frames_per_point) as u64;
            let detected: usize = sums.iter().flatten().map(|&(d, _)| d).sum();
            counter("core.sweep_frames").add(frames);
            counter("core.sweep_detections").add(detected as u64);
        }
        Some(sums)
    }
}

/// The noise of a false-alarm unit with seed `seed`: a terminated input
/// still shows the receiver noise floor.
fn floor_noise(seed: u64) -> NoiseSource {
    NoiseSource::new(RX_LEVEL / db_to_lin(20.0), Rng::seed_from(seed))
}

/// Triggers per second of air for `triggers` counted over `samples` noise
/// samples at 25 MSPS, or `0.0` when nothing was streamed.
pub fn false_alarm_rate(triggers: u64, samples: u64) -> f64 {
    if samples == 0 {
        return 0.0;
    }
    triggers as f64 / (samples as f64 / rjam_sdr::USRP_SAMPLE_RATE)
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
    /// noise samples and scale). See [`FalseAlarmSpec::run_ckpt`] for
    /// the sharding and the raw numerator/denominator.
    pub fn run(&self, engine: &CampaignEngine) -> f64 {
        let (triggers, samples) = self.run_counts(engine);
        false_alarm_rate(triggers, samples)
    }

    /// [`FalseAlarmSpec::run_ckpt`] with an empty checkpoint and no token.
    pub fn run_counts(&self, engine: &CampaignEngine) -> (u64, u64) {
        self.run_ckpt(engine, &mut BTreeMap::new(), None)
            .expect("uncancelled campaign always completes")
    }

    /// Number of engine work units this spec runs — the checkpoint keyspace
    /// for [`FalseAlarmSpec::run_ckpt`].
    pub fn n_units(&self) -> usize {
        self.samples.div_ceil(FA_UNIT_SAMPLES)
    }

    /// Runs the measurement and returns `(triggers, samples)` — the raw
    /// trigger count and the noise samples actually streamed. The
    /// denominator always equals the requested sample count: the campaign
    /// splits into fixed-size (`FA_UNIT_SAMPLES`, 2^18) sample units whose
    /// boundaries depend only on the request, and the final unit processes
    /// exactly the remainder. Each worker pools one detector bank and
    /// scratch buffers (reset between units); per-unit counts are summed
    /// in unit order.
    ///
    /// `done` carries per-unit trigger counts (one per hypothesis; here,
    /// one) across interruptions and `cancel` stops the measurement between
    /// units. Returns `None` when interrupted; resuming with the same spec
    /// and checkpoint yields the bit-identical totals of an uninterrupted
    /// run.
    pub fn run_ckpt(
        &self,
        engine: &CampaignEngine,
        done: &mut BTreeMap<usize, Vec<usize>>,
        cancel: Option<&CancelToken>,
    ) -> Option<(u64, u64)> {
        let counts = self.measure(
            engine,
            "false_alarm",
            std::slice::from_ref(&self.preset),
            done,
            cancel,
        )?;
        Some(counts[0])
    }

    /// Sweeps a grid of thresholds, in the preset's own unit (see
    /// [`DetectionPreset::with_threshold`]), over **one** noise stream: the
    /// `k`-th `(triggers, samples)` pair is bit-identical to running
    /// `self.preset.with_threshold(thresholds[k])` through
    /// [`FalseAlarmSpec::run_counts`] at the same seed — just without
    /// re-streaming the noise per point.
    pub fn run_grid_counts(&self, engine: &CampaignEngine, thresholds: &[f64]) -> Vec<(u64, u64)> {
        let presets: Vec<DetectionPreset> = thresholds
            .iter()
            .map(|&t| self.preset.with_threshold(t))
            .collect();
        self.measure(engine, "fa_grid", &presets, &mut BTreeMap::new(), None)
            .expect("uncancelled campaign always completes")
    }

    /// The false-alarm unit body, for one hypothesis per preset (the
    /// spec's own preset is ignored): each unit streams its own noise once
    /// through every hypothesis. Returns `(triggers, samples)` per preset —
    /// for each preset exactly what a one-preset run at the same seed
    /// counts. When no hypothesis has an energy comparator the noise comes
    /// as [`NoiseSource::adc_noise_signs`]: the lanes then read nothing
    /// but the signs, which it reproduces, at a fraction of the cost. When
    /// every hypothesis is energy comparators alone, each unit first rules
    /// out what it can from energy bounds ([`DetectorBank::decide_energy`])
    /// and streams exact noise only from where they leave a decision open.
    fn measure(
        &self,
        engine: &CampaignEngine,
        kind: &'static str,
        presets: &[DetectionPreset],
        done: &mut BTreeMap<usize, Vec<usize>>,
        cancel: Option<&CancelToken>,
    ) -> Option<Vec<(u64, u64)>> {
        let cells = engine.run_units(
            kind,
            self.n_units(),
            self.seed,
            done,
            cancel,
            || MeasurePool::new(presets, DEFAULT_LOCKOUT),
            |pool, ctx| {
                let lo = ctx.index * FA_UNIT_SAMPLES;
                let n = FA_UNIT_SAMPLES.min(self.samples - lo);
                pool.bank.reset();
                pool.hits.fill(0);
                let mut noise = floor_noise(ctx.seed);
                let mut streamed = match pool.bank.reads {
                    Reads::Energy => {
                        pool.bank
                            .decide_energy(&mut noise, n, BOUND_CHUNK, &mut pool.bounds)
                    }
                    Reads::Signs | Reads::Samples => 0,
                };
                while streamed < n {
                    let m = FA_CHUNK.min(n - streamed);
                    pool.stream.clear();
                    noise_block(&mut noise, pool.bank.reads, m, &mut pool.stream);
                    pool.bank.feed(&pool.stream, 0..m as u64, &mut pool.hits);
                    streamed += m;
                }
                pool.hits.clone()
            },
        )?;
        let mut counts = vec![(0u64, self.samples as u64); presets.len()];
        for cell in &cells {
            for ((triggers, _), &t) in counts.iter_mut().zip(cell) {
                *triggers += t as u64;
            }
        }
        if rjam_obs::enabled() {
            use rjam_obs::registry::counter;
            // The noise was streamed once, however many hypotheses saw it.
            counter("core.fa_samples").add(self.samples as u64);
            counter("core.fa_triggers").add(counts.iter().map(|&(t, _)| t).sum());
        }
        Some(counts)
    }
}

/// One point of a receiver-operating-characteristic sweep.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RocPoint {
    /// Detection threshold in the swept preset's own unit: a fraction of
    /// the template's ideal peak, or dB for energy presets.
    pub threshold: f64,
    /// Measured false-alarm rate on noise-only input, triggers/second.
    pub fa_per_s: f64,
    /// Detection probability at the probe SNR.
    pub p_detect: f64,
}

/// Builder for ROC sweeps — see [`CampaignSpec::roc`].
#[derive(Clone, Debug)]
pub struct RocSpec {
    preset: DetectionPreset,
    emission: WifiEmission,
    snr_db: f64,
    thresholds: Vec<f64>,
    frames_per_point: usize,
    fa_samples: usize,
    seed: u64,
}

impl RocSpec {
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

    /// Thresholds to sweep, in the preset's own unit.
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

    /// Sweeps the threshold to trace the detector's ROC at one SNR: the
    /// quantitative form of Fig. 6's two-operating-point comparison
    /// ("aiming for a lower false alarm rate generally decreases the
    /// probability of detection"). Every threshold is one hypothesis of a
    /// single false-alarm measurement (seed `seed ^ 0xFA`) and a single
    /// detection measurement at the probe SNR (seed `seed ^ 0xD7`), so all
    /// thresholds see the *same* noise and the *same* emissions and both
    /// ROC axes are monotone in the threshold by construction — a stricter
    /// threshold sees the identical air and can only lose triggers. Each
    /// point is bit-identical to dedicated one-threshold
    /// [`FalseAlarmSpec`] and [`WifiDetectionSpec`] runs at those seeds.
    pub fn run(&self, engine: &CampaignEngine) -> Vec<RocPoint> {
        let presets: Vec<DetectionPreset> = self
            .thresholds
            .iter()
            .map(|&t| self.preset.with_threshold(t))
            .collect();
        let complete = "uncancelled campaign always completes";
        let fa = CampaignSpec::false_alarm(&self.preset)
            .samples(self.fa_samples)
            .seed(self.seed ^ 0xFA)
            .measure(engine, "roc_fa", &presets, &mut BTreeMap::new(), None)
            .expect(complete);
        let det = CampaignSpec::wifi_detection(&self.preset)
            .emission(self.emission)
            .snrs(&[self.snr_db])
            .trials(self.frames_per_point)
            .seed(self.seed ^ 0xD7)
            .measure(engine, "roc_detect", &presets, &mut BTreeMap::new(), None)
            .expect(complete);
        self.thresholds
            .iter()
            .zip(fa)
            .zip(&det[0])
            .map(
                |((&threshold, (triggers, samples)), &(detected, _))| RocPoint {
                    threshold,
                    fa_per_s: false_alarm_rate(triggers, samples),
                    p_detect: detected as f64 / self.frames_per_point as f64,
                },
            )
            .collect()
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

/// The downlink as a WiMAX unit receives it: the unit's base station,
/// per-frame sampling phases and receiver noise, all from its seed.
struct WimaxReceiver {
    gen: rjam_phy80216::DownlinkGenerator,
    rng: Rng,
    noise: NoiseSource,
}

impl WimaxReceiver {
    fn new(seed: u64, snr_db: f64) -> Self {
        let gen = rjam_phy80216::DownlinkGenerator::new(rjam_phy80216::DownlinkConfig {
            seed,
            ..rjam_phy80216::DownlinkConfig::default()
        });
        let mut rng = Rng::seed_from(seed ^ 0x16e);
        let noise = NoiseSource::new(RX_LEVEL / db_to_lin(snr_db), rng.fork());
        WimaxReceiver { gen, rng, noise }
    }

    /// Receives the next frame into `buf.wave` at 25 MSPS. The frame is
    /// silent from [`rjam_phy80216::DownlinkGenerator::dl_subframe_samples`]
    /// on, so the resampler and the fractional delay write the outputs of
    /// that uplink gap as the zeros they are, bit for bit what
    /// `to_usrp_rate_into` and `fractional_delay_into` compute there.
    fn next_frame(&mut self, buf: &mut WimaxBuffers) {
        self.gen.next_frame_into(&mut buf.native);
        let silent = to_usrp_rate_silent_tail_into(
            &buf.native,
            rjam_sdr::WIMAX_SAMPLE_RATE,
            self.gen.dl_subframe_samples(),
            &mut buf.up,
        );
        // Random per-frame sampling phase (unsynchronized clocks).
        let frac = self.rng.uniform() * 0.999;
        fractional_delay_silent_tail_into(&buf.up, frac, silent, &mut buf.wave);
        let wave = &mut buf.wave;
        // Scale relative to the active subframe power.
        let active = (self.gen.dl_subframe_samples() as f64 * 25.0 / 11.4) as usize;
        let p = mean_power(&wave[..active.min(wave.len())]);
        let k_scale = (RX_LEVEL / p).sqrt();
        for s in wave.iter_mut() {
            *s = s.scale(k_scale) + self.noise.next_sample();
        }
    }
}

/// The reactive personality the WiMAX experiment jams with: 100 µs WGN.
const WIMAX_REACTION: JammerPreset = JammerPreset::Reactive {
    uptime_s: 100e-6,
    waveform: rjam_fpga::JamWaveform::Wgn,
};

/// One lockout per frame: suppress retriggers (correlator false triggers
/// on payload symbols, energy re-rises) across the whole 5 ms frame
/// (125 000 samples at 25 MSPS), re-arming before the next preamble.
const WIMAX_LOCKOUT: u64 = 100_000;

/// The buffers a received WiMAX frame is built in.
#[derive(Default)]
struct WimaxBuffers {
    /// The frame at the base station's 11.4 MHz.
    native: Vec<Cf64>,
    /// The frame at 25 MSPS, before the fractional delay.
    up: Vec<Cf64>,
    /// The received frame.
    wave: Vec<Cf64>,
}

/// Per-worker state of the WiMAX unit body: the detector lane and the
/// buffers a received frame is built in.
struct WimaxPool {
    lane: JamLane,
    buf: WimaxBuffers,
}

impl WimaxPool {
    fn new(detection: &DetectionPreset) -> Self {
        WimaxPool {
            lane: JamLane::from_presets(detection, &WIMAX_REACTION, WIMAX_LOCKOUT),
            buf: WimaxBuffers::default(),
        }
    }
}

/// One WiMAX work unit's result: its scope capture, the frames it
/// detected and their summed response latency in µs.
pub type WimaxUnit = (ScopeTrace, usize, f64);

/// A WiMAX run as folded so far: one scope timeline over the folded units
/// and their detection tallies.
#[derive(Debug)]
pub struct WimaxTally {
    scope: ScopeTrace,
    detected: usize,
    latency_acc: f64,
}

impl Default for WimaxTally {
    fn default() -> Self {
        WimaxTally {
            scope: ScopeTrace::new(rjam_sdr::USRP_SAMPLE_RATE),
            detected: 0,
            latency_acc: 0.0,
        }
    }
}

impl WimaxTally {
    /// An empty tally with room for the scope window a run of `samples`
    /// received samples keeps, so the window is allocated once, by the
    /// thread that starts the run.
    fn with_room(samples: usize) -> Self {
        let mut tally = WimaxTally::default();
        tally.scope.reserve(samples);
        tally
    }

    /// Folds in the next unit: its scope lands at the running length, so
    /// the units form one continuous timeline, and its tallies add on.
    /// Returns the unit's envelope buffer for reuse.
    fn fold(&mut self, (scope, detected, latency_us): WimaxUnit) -> Vec<f64> {
        let offset = self.scope.len();
        self.scope.append_shifted(&scope, offset);
        self.detected += detected;
        self.latency_acc += latency_us;
        scope.into_envelope()
    }
}

/// What a cancelled WiMAX run keeps: the tally of its folded units and
/// the units that finished out of order.
pub type WimaxCheckpoint = FoldCheckpoint<WimaxTally, WimaxUnit>;

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

    /// The detector the experiment arms: the cell-1, segment-0 preamble
    /// correlator, fused with a 10 dB energy rise or alone.
    pub(crate) fn detection(&self) -> DetectionPreset {
        if self.fused {
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
        }
    }

    /// Runs the WiMAX downlink detection/jamming experiment: `frames` TDD
    /// frames from the modeled Air4G base station, received at 25 MSPS
    /// with AWGN at `snr_db`, against either the correlator alone or the
    /// fused correlator+energy detector. Split into
    /// `WIMAX_FRAMES_PER_UNIT`-frame (4-frame) work units, each with its
    /// own base station, noise stream and scope; each worker pools one
    /// detector lane and its synthesis buffers (reset between units). The
    /// lane fires where the reactive jammer's core would trigger, and the
    /// jam controller's burst timing places the jam. The engine folds each
    /// unit's scope onto one timeline with [`ScopeTrace::append_shifted`]
    /// as the units land in order, and the Fig. 12 one-to-one
    /// correspondence is evaluated on the folded capture's markers.
    pub fn run(&self, engine: &CampaignEngine) -> WimaxResult {
        self.run_ckpt(engine, &mut WimaxCheckpoint::default(), None)
            .expect("uncancelled campaign always completes")
    }

    /// Number of engine work units this spec runs.
    pub fn n_units(&self) -> usize {
        self.frames.div_ceil(WIMAX_FRAMES_PER_UNIT)
    }

    /// Checkpointed, cancellable [`WimaxDetectionSpec::run`]: `ckpt`
    /// carries the folded prefix and the out-of-order units across
    /// interruptions and `cancel` stops the experiment between units,
    /// returning `None`. Resuming with the same spec and checkpoint yields
    /// the bit-identical result of an uninterrupted run.
    pub fn run_ckpt(
        &self,
        engine: &CampaignEngine,
        ckpt: &mut WimaxCheckpoint,
        cancel: Option<&CancelToken>,
    ) -> Option<WimaxResult> {
        let detection = self.detection();
        let frame_samples_25 = (rjam_phy80216::FRAME_SAMPLES as f64 * 25.0 / 11.4).round() as u64;
        if ckpt.units_done() == 0 {
            // Allocate the scope window here, on the calling thread (a
            // daemon's runner, the same for every job), not on whichever
            // worker happens to fold first.
            *ckpt = WimaxCheckpoint::new(WimaxTally::with_room(
                self.frames.saturating_mul(frame_samples_25 as usize),
            ));
        }
        // Envelope buffers of folded units, for later units to capture
        // into: a run allocates one per worker, not one per unit.
        let spare = std::sync::Mutex::new(Vec::new());
        let WimaxTally {
            scope,
            detected,
            latency_acc,
        } = engine.fold_units(
            "wimax",
            self.n_units(),
            self.seed,
            ckpt,
            cancel,
            || WimaxPool::new(&detection),
            |pool, ctx| {
                let lo = ctx.index * WIMAX_FRAMES_PER_UNIT;
                let n = WIMAX_FRAMES_PER_UNIT.min(self.frames - lo);
                pool.lane.reset();
                let mut rx = WimaxReceiver::new(ctx.seed, self.snr_db);
                let buffer = spare.lock().expect("spare envelopes").pop();
                let mut scope =
                    ScopeTrace::with_buffer(rjam_sdr::USRP_SAMPLE_RATE, buffer.unwrap_or_default());
                let mut detected = 0usize;
                let mut latency_acc = 0.0f64;
                for _ in 0..n {
                    rx.next_frame(&mut pool.buf);
                    let wave = &pool.buf.wave;
                    let base = pool.lane.samples_processed();
                    let first_jam = pool.lane.first_jam(wave);
                    scope.capture(wave);
                    // Mark the frame at its actual position in the receive
                    // stream (the per-frame fractional resample makes
                    // frames a sample or two short of the nominal
                    // 125 000-sample spacing).
                    scope.mark(base as usize, "frame");
                    if let Some(first_jam) = first_jam {
                        scope.mark((base + first_jam as u64) as usize, "jam");
                        detected += 1;
                        latency_acc += first_jam as f64 / 25.0; // us at 25 MSPS
                    }
                }
                (scope, detected, latency_acc)
            },
            |tally, unit| {
                let buffer = tally.fold(unit);
                spare.lock().expect("spare envelopes").push(buffer);
            },
        )?;
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
        self.run_ckpt(engine, &mut BTreeMap::new(), None)
            .expect("uncancelled campaign always completes")
    }

    /// Number of engine work units this spec runs (one per SIR point).
    pub fn n_units(&self) -> usize {
        self.sirs_db.len()
    }

    /// Checkpointed, cancellable [`JammingSweepSpec::run`]: `done` carries
    /// per-point results and their MAC obs deltas across interruptions and
    /// `cancel` stops the sweep between SIR points, returning `None`
    /// without publishing any obs deltas.
    pub fn run_ckpt(
        &self,
        engine: &CampaignEngine,
        done: &mut BTreeMap<usize, (JammingPoint, MacObsDelta)>,
        cancel: Option<&CancelToken>,
    ) -> Option<Vec<JammingPoint>> {
        let results = engine.run_units(
            "jamming",
            self.n_units(),
            self.seed,
            done,
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
        let results = engine.run(
            "health_ttd",
            grid.len(),
            self.seed,
            || (),
            |_, ctx| {
                let (jut, sir) = grid[ctx.index];
                let sc = scenario_for(jut, sir, self.duration_s, ctx.seed);
                let mut delta = MacObsDelta::new();
                let mut mon = rjam_obs::HealthMonitor::new(self.cadence);
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
            },
        );
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
    use crate::jammer::{BlockScratch, ReactiveJammer};
    use rjam_fpga::CoreEvent;

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
    fn wimax_lane_jams_where_the_transmitting_jammer_does() {
        // The unit's received frames through the lane and through the
        // reactive jammer it stands in for: one block per frame, as units
        // feed them, then cut at arbitrary offsets, among them one where a
        // lockout ends 5 000 samples into the next block and one where it
        // ends 50 samples into it, inside the 96 samples of history the
        // lane's bank reads before its first armed sample.
        for (fused, snr_db) in [(true, 0.0), (true, 20.0), (false, 0.0), (false, 20.0)] {
            let detection = CampaignSpec::wimax_detection().fused(fused).detection();
            let mut pool = WimaxPool::new(&detection);
            let mut rx = WimaxReceiver::new(0x5EED, snr_db);
            let mut stream = Vec::new();
            let mut frames = vec![0];
            for _ in 0..4 {
                rx.next_frame(&mut pool.buf);
                stream.extend_from_slice(&pool.buf.wave);
                frames.push(stream.len());
            }
            // Streams the blocks between `cuts` through a reset lane and a
            // fresh jammer; returns the jammer's trigger samples.
            let mut run = |cuts: &[usize]| -> Vec<u64> {
                pool.lane.reset();
                let mut jammer =
                    ReactiveJammer::from_presets(&detection, &WIMAX_REACTION, WIMAX_LOCKOUT);
                let mut scratch = BlockScratch::new();
                for w in cuts.windows(2) {
                    let block = &stream[w[0]..w[1]];
                    jammer.process_block_into(block, &mut scratch);
                    assert_eq!(
                        pool.lane.first_jam(block),
                        scratch.active().iter().position(|&a| a),
                        "fused {fused}, {snr_db} dB, block {w:?}"
                    );
                }
                let fed = pool.lane.samples_processed();
                let quantized = pool.lane.samples_quantized();
                assert_eq!(fed, stream.len() as u64);
                // At 0 dB the fused lane's 10 dB energy leg never fires and
                // keeps the lane awake; every other lane sleeps through its
                // lockouts.
                if fused && snr_db == 0.0 {
                    assert_eq!(quantized, fed);
                } else {
                    assert!(quantized < fed / 2, "quantized {quantized} of {fed}");
                }
                jammer
                    .events()
                    .iter()
                    .filter(|e| matches!(e, CoreEvent::JamTrigger { .. }))
                    .map(CoreEvent::sample)
                    .collect()
            };
            let triggers = run(&frames);
            assert!(triggers.len() >= 2, "fused {fused}, {snr_db} dB");
            let wake = |k: usize| (triggers[k] + WIMAX_LOCKOUT + 1) as usize;
            let mut rng = Rng::seed_from(snr_db as u64);
            let mut cuts: Vec<usize> = (0..12)
                .map(|_| rng.below(stream.len() as u64) as usize)
                .chain([0, wake(0) - 5_000, wake(1) - 50, stream.len()])
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            run(&cuts);
        }
    }

    fn bits(buf: &[Cf64]) -> Vec<(u64, u64)> {
        buf.iter()
            .map(|s| (s.re.to_bits(), s.im.to_bits()))
            .collect()
    }

    #[test]
    fn silent_tail_path_matches_the_full_resample_and_delay_bits() {
        // Real downlink frames: the default one, silent from its 29th
        // symbol on, and one whose 60 symbols outrun the frame, leaving no
        // silent tail. Dirty output buffers throughout.
        let just_under = f64::from_bits(0.999f64.to_bits() - 1);
        for dl_symbols in [28, 60] {
            let mut gen = rjam_phy80216::DownlinkGenerator::new(rjam_phy80216::DownlinkConfig {
                dl_symbols,
                ..rjam_phy80216::DownlinkConfig::default()
            });
            let native = gen.next_frame();
            let rate = rjam_sdr::WIMAX_SAMPLE_RATE;
            let mut want_up = Vec::new();
            to_usrp_rate_into(&native, rate, &mut want_up);
            let mut up = vec![Cf64::ONE; 3];
            let silent =
                to_usrp_rate_silent_tail_into(&native, rate, gen.dl_subframe_samples(), &mut up);
            assert_eq!(bits(&up), bits(&want_up), "{dl_symbols} symbols");
            if dl_symbols == 28 {
                assert!(silent < up.len() && up[silent - 1] != Cf64::ZERO);
            } else {
                assert_eq!(silent, up.len());
            }
            let (mut want, mut got) = (Vec::new(), vec![Cf64::ONE; 5]);
            for frac in [0.0, 0.5, just_under] {
                fractional_delay_into(&want_up, frac, &mut want);
                fractional_delay_silent_tail_into(&up, frac, silent, &mut got);
                assert_eq!(bits(&got), bits(&want), "{dl_symbols} symbols, frac {frac}");
            }
        }
    }

    #[test]
    fn wimax_receiver_matches_the_allocating_chain_bits() {
        // `next_frame` against the chain it replaces: the allocating
        // generator, `to_usrp_rate`, `fractional_delay`, then the scaling
        // and noise, with and without a silent tail.
        for dl_symbols in [28, 60] {
            let cfg = rjam_phy80216::DownlinkConfig {
                dl_symbols,
                ..rjam_phy80216::DownlinkConfig::default()
            };
            let noise_power = RX_LEVEL / db_to_lin(10.0);
            let mut rx = WimaxReceiver {
                gen: rjam_phy80216::DownlinkGenerator::new(cfg.clone()),
                rng: Rng::seed_from(9),
                noise: NoiseSource::new(noise_power, Rng::seed_from(10)),
            };
            let mut gen = rjam_phy80216::DownlinkGenerator::new(cfg);
            let mut rng = Rng::seed_from(9);
            let mut noise = NoiseSource::new(noise_power, Rng::seed_from(10));
            let mut buf = WimaxBuffers::default();
            for frame in 0..3 {
                rx.next_frame(&mut buf);
                let native = gen.next_frame();
                let up = rjam_sdr::resample::to_usrp_rate(&native, rjam_sdr::WIMAX_SAMPLE_RATE);
                let mut wave = rjam_sdr::resample::fractional_delay(&up, rng.uniform() * 0.999);
                let active = (gen.dl_subframe_samples() as f64 * 25.0 / 11.4) as usize;
                let k = (RX_LEVEL / mean_power(&wave[..active.min(wave.len())])).sqrt();
                for s in wave.iter_mut() {
                    *s = s.scale(k) + noise.next_sample();
                }
                assert_eq!(
                    bits(&buf.wave),
                    bits(&wave),
                    "{dl_symbols} symbols, frame {frame}"
                );
            }
        }
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
        let pts = CampaignSpec::roc(&DetectionPreset::WifiShortPreamble { threshold: 0.3 })
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
    fn roc_rows_equal_dedicated_single_threshold_runs() {
        // Every ROC row must be bit-identical to a dedicated one-threshold
        // false-alarm run at `seed ^ 0xFA` and detection run at
        // `seed ^ 0xD7` — for correlator thresholds and for energy
        // thresholds in dB, at any thread count. Every threshold fires on
        // both streams, so a hypothesis that misses either stream cannot
        // pass.
        let sweeps = [
            (
                DetectionPreset::WifiShortPreamble { threshold: 0.3 },
                vec![0.10, 0.15, 0.22],
            ),
            (
                DetectionPreset::EnergyRise { threshold_db: 10.0 },
                vec![3.0, 3.5, 4.0],
            ),
        ];
        let (seed, snr_db, frames, fa_samples) = (21, 5.0, 17, FA_UNIT_SAMPLES + 4_321);
        for (base, thresholds) in &sweeps {
            let singles: Vec<(f64, f64)> = thresholds
                .iter()
                .map(|&t| {
                    let preset = base.with_threshold(t);
                    let fa = CampaignSpec::false_alarm(&preset)
                        .samples(fa_samples)
                        .seed(seed ^ 0xFA)
                        .run(&serial());
                    let det = CampaignSpec::wifi_detection(&preset)
                        .snrs(&[snr_db])
                        .trials(frames)
                        .seed(seed ^ 0xD7)
                        .run(&serial());
                    (fa, det[0].p_detect)
                })
                .collect();
            for threads in [1, 2, 7] {
                let pts = CampaignSpec::roc(base)
                    .snr_db(snr_db)
                    .thresholds(thresholds)
                    .trials(frames)
                    .fa_samples(fa_samples)
                    .seed(seed)
                    .run(&CampaignEngine::with_threads(threads));
                assert_eq!(pts.len(), thresholds.len());
                for ((pt, &t), &(fa, p_detect)) in pts.iter().zip(thresholds).zip(&singles) {
                    let at = format!("{base:?} at {t}, {threads} threads");
                    assert!(fa > 0.0 && p_detect > 0.0, "{at}");
                    assert_eq!(pt.threshold.to_bits(), t.to_bits(), "{at}");
                    assert_eq!(pt.fa_per_s.to_bits(), fa.to_bits(), "{at}");
                    assert_eq!(pt.p_detect.to_bits(), p_detect.to_bits(), "{at}");
                }
            }
        }
    }

    #[test]
    fn fa_grid_matches_individual_runs() {
        // Each row of a grid sweep must reproduce a dedicated run_counts
        // run of the re-thresholded preset, bit for bit: correlator
        // fractions (one lane bank), a 65-point grid (two banks) and
        // energy thresholds in dB. Every correlator threshold and every
        // energy threshold up to 4 dB fires, so a hypothesis that misses
        // the stream cannot pass.
        let samples = FA_UNIT_SAMPLES + 12_345; // exercise the remainder unit
        let wide: Vec<f64> = (0..65).map(|k| 0.05 + 0.001 * k as f64).collect();
        let grids = [
            (
                DetectionPreset::WifiLongPreamble { threshold: 0.30 },
                vec![0.08, 0.15, 0.22],
            ),
            (DetectionPreset::WifiShortPreamble { threshold: 0.30 }, wide),
            (
                DetectionPreset::EnergyRise { threshold_db: 10.0 },
                vec![3.0, 3.5, 4.0],
            ),
            // A grid over the energy range: one bank whose 3 dB lane
            // leaves every unit open, against single runs whose stricter
            // thresholds decide some units or all of them on bounds.
            (
                DetectionPreset::EnergyRise { threshold_db: 10.0 },
                vec![3.0, 4.0, 5.0, 6.0, 10.0, 18.0],
            ),
        ];
        for (preset, grid) in &grids {
            let spec = CampaignSpec::false_alarm(preset).samples(samples).seed(33);
            let swept = spec.run_grid_counts(&serial(), grid);
            assert_eq!(swept.len(), grid.len());
            for (k, &t) in grid.iter().enumerate() {
                let single = CampaignSpec::false_alarm(&preset.with_threshold(t))
                    .samples(samples)
                    .seed(33)
                    .run_counts(&serial());
                assert_eq!(swept[k], single, "{preset:?} at {t}");
                assert_eq!(swept[k].1, samples as u64, "denominator is the request");
            }
            // Looser thresholds can only gain triggers on the identical noise.
            assert!(swept.windows(2).all(|w| w[0].0 >= w[1].0), "{swept:?}");
            let fires = grid.iter().filter(|&&t| t <= 4.0).count();
            assert!(swept[..fires].iter().all(|&(t, _)| t > 0), "{swept:?}");
        }
    }

    #[test]
    fn sign_stream_counts_what_the_full_stream_counts() {
        // Correlator presets alone read only signs, so they run on the sign
        // stream; an energy-rise hypothesis beside them puts the same noise
        // through the full stream. Each correlator lane must count the same
        // triggers on both, over two units, at two thresholds per preset.
        let correlators = [
            DetectionPreset::WifiShortPreamble { threshold: 0.30 },
            DetectionPreset::WifiShortPreamble { threshold: 0.34 },
            DetectionPreset::WifiLongPreamble { threshold: 0.20 },
            DetectionPreset::WifiLongPreamble { threshold: 0.24 },
            DetectionPreset::WimaxPreamble {
                id_cell: 1,
                segment: 0,
                threshold: 0.20,
            },
            DetectionPreset::WimaxPreamble {
                id_cell: 1,
                segment: 0,
                threshold: 0.25,
            },
        ];
        let mut mixed = correlators.to_vec();
        mixed.push(DetectionPreset::EnergyRise { threshold_db: 10.0 });
        assert_eq!(
            DetectorBank::new(&correlators, DEFAULT_LOCKOUT).reads,
            Reads::Signs
        );
        assert_eq!(
            DetectorBank::new(&mixed, DEFAULT_LOCKOUT).reads,
            Reads::Samples
        );
        let spec = CampaignSpec::false_alarm(&correlators[0])
            .samples(FA_UNIT_SAMPLES + 4_321)
            .seed(35);
        let measure = |presets: &[DetectionPreset]| {
            spec.measure(&serial(), "fa_grid", presets, &mut BTreeMap::new(), None)
                .expect("uncancelled campaign always completes")
        };
        let signs = measure(&correlators);
        let full = measure(&mixed);
        assert_eq!(signs[..], full[..correlators.len()]);
        assert!(signs.iter().all(|&(t, _)| t > 0), "{signs:?}");
    }

    #[test]
    fn energy_bounds_count_what_the_full_stream_counts() {
        // Energy presets alone read only energies, so their units rule out
        // what they can from energy bounds; a correlator beside them puts
        // the same noise through the full stream. Each energy lane must
        // count the same triggers on both, rise and fall, at thresholds
        // where every unit falls back (3, 4 dB), some (5, 6 dB) and none
        // (10, 30 dB), over three seeds and lengths that are not
        // multiples of 64: one unit and a remainder of 4 321, one short
        // unit, and 70 samples, all inside the 96-sample warm-up.
        let correlator = DetectionPreset::WifiShortPreamble { threshold: 0.30 };
        for db in [3.0, 4.0, 5.0, 6.0, 10.0, 30.0] {
            let rise = DetectionPreset::EnergyRise { threshold_db: db };
            let fall = DetectionPreset::EnergyFall { threshold_db: db };
            for preset in [rise, fall] {
                let alone = std::slice::from_ref(&preset);
                assert_eq!(
                    DetectorBank::new(alone, DEFAULT_LOCKOUT).reads,
                    Reads::Energy
                );
                for (samples, seed) in [(FA_UNIT_SAMPLES + 4_321, 37), (100_003, 38), (70, 39)] {
                    let spec = CampaignSpec::false_alarm(&preset)
                        .samples(samples)
                        .seed(seed);
                    let measure = |presets: &[DetectionPreset]| {
                        spec.measure(&serial(), "fa_grid", presets, &mut BTreeMap::new(), None)
                            .expect("uncancelled campaign always completes")
                    };
                    let bounded = measure(alone);
                    let full = measure(&[preset.clone(), correlator.clone()]);
                    assert_eq!(bounded[0], full[0], "{preset:?}, {samples} samples");
                    if db == 3.0 && samples > 70 {
                        assert!(bounded[0].0 > 0, "{preset:?}, {samples} samples");
                    }
                }
            }
        }
    }

    /// The samples `bank`'s first lane fires on over samples `from..n` of a
    /// unit, streamed exact from `noise` (at sample `from`) into a bank
    /// reset at `from`, as unit sample numbers.
    fn exact_triggers(
        bank: &mut DetectorBank,
        mut noise: NoiseSource,
        from: usize,
        n: usize,
    ) -> Vec<u64> {
        let mut stream = Vec::new();
        noise.adc_noise(n - from, &mut stream);
        let mut scratch = LaneBankScratch::default();
        bank.banks[0].process_block_into(&stream, &mut scratch);
        scratch.triggers[0]
            .iter()
            .map(|&t| t + from as u64)
            .collect()
    }

    #[test]
    fn energy_units_resume_where_the_full_stream_fires() {
        // Energy units at 3 and 4 dB, rise and fall, over noise seeds. With
        // the production block, and with blocks that start one 96, 95 and
        // 94 samples before the first undecided sample k, the unit resumes
        // exact at the sample `decide_energy` returns; from there it must
        // fire on the samples a bank fed the whole unit fires on. That
        // covers resuming at the unit's start (k in the first block), at
        // k's own block and at the block before (k in a block's first 96
        // samples).
        let n = 20_011;
        let (mut at_start, mut own, mut before, mut on_k) = (0, 0, 0, 0);
        for db in [3.0, 4.0] {
            let presets = [
                DetectionPreset::EnergyRise { threshold_db: db },
                DetectionPreset::EnergyFall { threshold_db: db },
            ];
            for preset in presets {
                let mut bank = DetectorBank::new(std::slice::from_ref(&preset), DEFAULT_LOCKOUT);
                for seed in 0..6 {
                    bank.reset();
                    let want = exact_triggers(&mut bank, floor_noise(seed), 0, n);
                    let mut bounds = Vec::new();
                    floor_noise(seed).adc_energy_bounds(n, &mut bounds);
                    bank.reset();
                    let Some(k) = bank.banks[0].first_undecided(&bounds) else {
                        assert!(want.is_empty(), "{preset:?}, seed {seed}");
                        continue;
                    };
                    on_k += usize::from(want.first() == Some(&(k as u64)));
                    let blocks = [96, 95, 94].map(|back| k.saturating_sub(back));
                    for block in [BOUND_CHUNK].into_iter().chain(blocks) {
                        if block < ENERGY_HISTORY as usize {
                            continue;
                        }
                        let mut noise = floor_noise(seed);
                        let from = bank.decide_energy(&mut noise, n, block, &mut bounds);
                        assert!(from <= k, "{preset:?}, seed {seed}, block {block}");
                        let got = exact_triggers(&mut bank, noise, from, n);
                        assert_eq!(got, want, "{preset:?}, seed {seed}, block {block}");
                        if k < block {
                            at_start += 1;
                        } else if from + block > k {
                            own += 1;
                        } else {
                            before += 1;
                        }
                    }
                }
            }
        }
        assert!(
            at_start > 0 && own > 0 && before > 0,
            "{at_start} {own} {before}"
        );
        assert!(on_k > 0, "no unit fires on its first undecided sample");
    }

    #[test]
    fn the_benchmark_energy_shape_decides_every_unit() {
        // The e2e benchmark's energy false-alarm job (rise at 10 dB, 2²²
        // samples, 16 units) must run on bounds alone: every unit decided,
        // so it never quantizes a sample.
        let preset = DetectionPreset::EnergyRise { threshold_db: 10.0 };
        let mut bank = DetectorBank::new(std::slice::from_ref(&preset), DEFAULT_LOCKOUT);
        let mut bounds = Vec::new();
        for seed in [1, 7] {
            let spec = CampaignSpec::false_alarm(&preset)
                .samples(1 << 22)
                .seed(seed);
            for unit in 0..spec.n_units() {
                bank.reset();
                let mut noise = floor_noise(crate::engine::shard_seed(seed, unit as u64));
                let from =
                    bank.decide_energy(&mut noise, FA_UNIT_SAMPLES, BOUND_CHUNK, &mut bounds);
                assert_eq!(from, FA_UNIT_SAMPLES, "seed {seed}, unit {unit}");
            }
        }
    }

    #[test]
    fn sign_padded_frames_count_what_full_padded_frames_count() {
        // Correlator presets alone read only signs, so their frames get a
        // sign-stream lead-in and tail; an energy-rise hypothesis beside
        // them puts the same frames through full streams. Each correlator
        // lane must count the same detections and triggers on both, at
        // three SNRs, through AWGN and through Rayleigh fading.
        let correlators = [
            DetectionPreset::WifiShortPreamble { threshold: 0.30 },
            DetectionPreset::WifiLongPreamble { threshold: 0.30 },
            DetectionPreset::WimaxPreamble {
                id_cell: 1,
                segment: 0,
                threshold: 0.10,
            },
        ];
        let mut mixed = correlators.to_vec();
        mixed.push(DetectionPreset::EnergyRise { threshold_db: 10.0 });
        assert_eq!(DetectorBank::new(&correlators, 0).reads, Reads::Signs);
        assert_eq!(DetectorBank::new(&mixed, 0).reads, Reads::Samples);
        for channel in [
            ChannelModel::Awgn,
            ChannelModel::Rayleigh { taps: 8, rms: 2.0 },
        ] {
            let spec = CampaignSpec::wifi_detection(&correlators[0])
                .channel(channel)
                .snrs(&[-6.0, 0.0, 12.0])
                .trials(2 * DETECTION_FRAMES_PER_UNIT + 3)
                .seed(36);
            let measure = |presets: &[DetectionPreset]| {
                spec.measure(
                    &serial(),
                    "wifi_detection",
                    presets,
                    &mut BTreeMap::new(),
                    None,
                )
                .expect("uncancelled campaign always completes")
            };
            let signs = measure(&correlators);
            let full = measure(&mixed);
            for (point, (s, f)) in signs.iter().zip(&full).enumerate() {
                assert_eq!(s[..], f[..correlators.len()], "{channel:?}, point {point}");
            }
            for (h, preset) in correlators.iter().enumerate() {
                let triggers: usize = signs.iter().map(|point| point[h].1).sum();
                assert!(triggers > 0, "{preset:?} never fired through {channel:?}");
            }
        }
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
            .run(&serial());
        let defaulted = CampaignSpec::wifi_detection(&preset)
            .snrs(&[5.0])
            .trials(10)
            .seed(50)
            .run(&serial());
        assert_eq!(explicit, defaulted);
    }

    /// One preset of every `DetectionPreset` variant, each firing on the
    /// streams below.
    fn every_preset() -> Vec<DetectionPreset> {
        vec![
            DetectionPreset::WifiShortPreamble { threshold: 0.3 },
            DetectionPreset::WifiLongPreamble { threshold: 0.1 },
            DetectionPreset::WimaxPreamble {
                id_cell: 3,
                segment: 1,
                threshold: 0.1,
            },
            DetectionPreset::EnergyRise { threshold_db: 6.0 },
            DetectionPreset::EnergyFall { threshold_db: 6.0 },
            DetectionPreset::WimaxFused {
                id_cell: 3,
                segment: 1,
                threshold: 0.45,
                energy_db: 6.0,
            },
        ]
    }

    /// The counting path the lanes replaced, kept as their reference: one
    /// monitor-mode core per preset, fed `blocks` in order, counting per
    /// block the jam triggers it logs at offsets inside the block's window.
    fn core_hits(
        presets: &[DetectionPreset],
        energy_lockout: u64,
        blocks: &[(Vec<IqI16>, Range<u64>)],
    ) -> Vec<Vec<usize>> {
        let mut cores: Vec<ReactiveJammer> = presets
            .iter()
            .map(|p| {
                let lockout = hypothesis_lockout(p, energy_lockout);
                ReactiveJammer::from_presets(p, &JammerPreset::Monitor, lockout)
            })
            .collect();
        blocks
            .iter()
            .map(|(block, window)| {
                cores
                    .iter_mut()
                    .map(|core| {
                        let base = core.core_mut().samples_processed();
                        let seen = core.events().len();
                        core.core_mut().process_block(block);
                        core.events()[seen..]
                            .iter()
                            .filter(|e| {
                                matches!(e, CoreEvent::JamTrigger { .. })
                                    && window.contains(&(e.sample() - base))
                            })
                            .count()
                    })
                    .collect()
            })
            .collect()
    }

    /// The trials of detection unit `unit` of `spec` at `snr_db` (one SNR
    /// point), regenerated from the unit's seed as the unit body does, with
    /// full-stream padding.
    fn unit_trials(
        spec: &WifiDetectionSpec,
        snr_db: f64,
        unit: usize,
        frames: usize,
    ) -> Vec<(Vec<IqI16>, Range<u64>)> {
        let mut rng = Rng::seed_from(crate::engine::shard_seed(spec.seed, unit as u64));
        let mut noise = NoiseSource::new(RX_LEVEL / db_to_lin(snr_db), rng.fork());
        let mut synth = SynthScratch::default();
        (0..frames)
            .map(|_| {
                let mut stream = Vec::new();
                let window = spec.trial_stream(
                    &mut rng,
                    &mut noise,
                    &mut synth,
                    Reads::Samples,
                    &mut stream,
                );
                (stream, window)
            })
            .collect()
    }

    #[test]
    fn detector_bank_counts_the_triggers_monitor_cores_log() {
        // Frames at three SNRs, then one noise-only block counted whole,
        // streamed through one bank and through one core per preset.
        let presets = every_preset();
        let spec = CampaignSpec::wifi_detection(&presets[0]).seed(61);
        let mut blocks: Vec<_> = [0.0, 10.0, 20.0]
            .iter()
            .enumerate()
            .flat_map(|(unit, &snr)| unit_trials(&spec, snr, unit, 3))
            .collect();
        let mut noise = NoiseSource::new(RX_LEVEL / db_to_lin(20.0), Rng::seed_from(62));
        let mut tail = Vec::new();
        noise.adc_noise(FA_CHUNK, &mut tail);
        blocks.push((tail, 0..FA_CHUNK as u64));
        for energy_lockout in [0, DEFAULT_LOCKOUT] {
            let want = core_hits(&presets, energy_lockout, &blocks);
            let mut bank = DetectorBank::new(&presets, energy_lockout);
            let got: Vec<Vec<usize>> = blocks
                .iter()
                .map(|(block, window)| {
                    let mut hits = vec![0; presets.len()];
                    bank.feed(block, window.clone(), &mut hits);
                    hits
                })
                .collect();
            assert_eq!(got, want, "energy lockout {energy_lockout}");
            for (h, preset) in presets.iter().enumerate() {
                let total: usize = want.iter().map(|b| b[h]).sum();
                assert!(total > 0, "{preset:?} never fired");
            }
        }
    }

    #[test]
    fn energy_fall_and_fused_false_alarms_count_their_armed_triggers() {
        // One unit of noise at seed 1: the counts must be what a monitor
        // core with the preset's config logs (the energy leg's triggers
        // included), not correlator hits alone.
        let samples = FA_UNIT_SAMPLES;
        let presets = [
            DetectionPreset::EnergyFall { threshold_db: 3.0 },
            DetectionPreset::WimaxFused {
                id_cell: 0,
                segment: 0,
                threshold: 0.45,
                energy_db: 3.0,
            },
        ];
        let mut noise = NoiseSource::new(
            RX_LEVEL / db_to_lin(20.0),
            Rng::seed_from(crate::engine::shard_seed(1, 0)),
        );
        let blocks: Vec<_> = (0..samples / FA_CHUNK)
            .map(|_| {
                let mut block = Vec::new();
                noise.adc_noise(FA_CHUNK, &mut block);
                (block, 0..FA_CHUNK as u64)
            })
            .collect();
        let want = core_hits(&presets, DEFAULT_LOCKOUT, &blocks);
        for (h, preset) in presets.iter().enumerate() {
            let triggers: usize = want.iter().map(|b| b[h]).sum();
            assert!(triggers > 0, "{preset:?}");
            let got = CampaignSpec::false_alarm(preset)
                .samples(samples)
                .seed(1)
                .run_counts(&serial());
            assert_eq!(got, (triggers as u64, samples as u64), "{preset:?}");
        }
    }

    #[test]
    fn energy_fall_and_fused_detections_count_their_armed_triggers() {
        // 32 frames at 20 dB and seed 1: detected frames and triggers must
        // be what a monitor core per unit logs inside each frame's window.
        let frames = 4 * DETECTION_FRAMES_PER_UNIT;
        let presets = [
            DetectionPreset::EnergyFall { threshold_db: 10.0 },
            DetectionPreset::WimaxFused {
                id_cell: 0,
                segment: 0,
                threshold: 0.45,
                energy_db: 10.0,
            },
        ];
        for preset in &presets {
            let spec = CampaignSpec::wifi_detection(preset)
                .snrs(&[20.0])
                .trials(frames)
                .seed(1);
            let (mut detected, mut triggers) = (0, 0);
            for unit in 0..frames / DETECTION_FRAMES_PER_UNIT {
                let trials = unit_trials(&spec, 20.0, unit, DETECTION_FRAMES_PER_UNIT);
                for hits in core_hits(std::slice::from_ref(preset), 0, &trials) {
                    detected += usize::from(hits[0] > 0);
                    triggers += hits[0];
                }
            }
            assert!(detected > frames / 2, "{preset:?}: {detected} of {frames}");
            let pt = spec.run(&serial())[0];
            assert_eq!(pt.p_detect, detected as f64 / frames as f64, "{preset:?}");
            assert_eq!(
                pt.triggers_per_frame,
                triggers as f64 / frames as f64,
                "{preset:?}"
            );
        }
    }

    #[test]
    fn labels() {
        assert_eq!(JammerUnderTest::Continuous.label(), "Continuous Jammer");
        assert!(JammerUnderTest::ReactiveShort.label().contains("0.01ms"));
    }
}
