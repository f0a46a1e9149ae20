//! The traced run: an outside-in shadow of `CampaignRequest::run_to_export`
//! on a serial engine, with a timer and an allocation counter around every
//! call into a layer.
//!
//! The shadow replays a job's units through the same public calls the
//! campaign runners make, in the same order and with the same
//! `shard_seed` streams, so its export must equal the in-process export
//! byte for byte. The constants below mirror private ones in
//! `rjam_core::campaign`; when the campaign changes what it calls, the
//! byte check or `trace.fidelity` shows that the shadow no longer mirrors
//! it.

use rjam_channel::monitor::ScopeTrace;
use rjam_channel::noise::NoiseSource;
use rjam_channel::MultipathChannel;
use rjam_core::campaign::{
    scenario_for, ChannelModel, DetectionPoint, JammerUnderTest, JammingPoint, WifiEmission,
    WimaxResult,
};
use rjam_core::engine::shard_seed;
use rjam_core::export;
use rjam_core::jammer::{BlockScratch, ReactiveJammer, DEFAULT_LOCKOUT};
use rjam_core::presets::{DetectionPreset, JammerPreset};
use rjam_core::spec::{CampaignRequest, JobCheckpoint};
use rjam_core::CampaignEngine;
use rjam_fpga::CoreEvent;
use rjam_mac::{MacObsDelta, ScenarioRun};
use rjam_phy80211::tx::{modulate_frame, single_long_preamble, single_short_preamble, Frame};
use rjam_phy80216::{DownlinkConfig, DownlinkGenerator};
use rjam_sdr::complex::Cf64;
use rjam_sdr::power::{db_to_lin, mean_power, scale_to_power};
use rjam_sdr::resample::{fractional_delay, to_usrp_rate};
use rjam_sdr::rng::Rng;
use rjam_sdr::{USRP_SAMPLE_RATE, WIFI_SAMPLE_RATE, WIMAX_SAMPLE_RATE};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

// Mirrors of `rjam_core::campaign`'s private constants.
const RX_LEVEL: f64 = 0.02;
const LEAD_IN: usize = 256;
const TAIL: usize = 128;
const DETECTION_FRAMES_PER_UNIT: usize = 8;
const FA_UNIT_SAMPLES: usize = 1 << 18;
const FA_CHUNK: usize = 65_536;
const WIMAX_FRAMES_PER_UNIT: usize = 4;

thread_local! {
    // Per thread, so two passes running side by side count apart. Plain
    // `Cell`s with const initializers: no lazy set-up and no destructor,
    // so the allocator can touch them at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc(bytes: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

/// This thread's (allocations, bytes) so far.
fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.try_with(Cell::get).unwrap_or(0),
        ALLOC_BYTES.try_with(Cell::get).unwrap_or(0),
    )
}

/// The system allocator plus per-thread counters, so spans can charge
/// heap traffic to the layer that caused it.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics only and
// never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: the caller's layout is passed through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (every
        // allocation above is forwarded to it).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from `System` with this layout; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A layer of the simulator, named after its module.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// 802.11 / 802.16 waveform synthesis (`rjam_phy80211`, `rjam_phy80216`).
    Phy,
    /// Rate conversion, fractional delay and power scaling (`rjam_sdr`).
    Sdr,
    /// Noise, multipath, stream assembly and the scope (`rjam_channel`).
    Channel,
    /// The detector/jammer core (`rjam_fpga` through `ReactiveJammer`).
    Fpga,
    /// The MAC discrete-event simulation (`rjam_mac`).
    Mac,
    /// Reducing unit results into the campaign result.
    Merge,
    /// Rendering the export (`rjam_core::export`).
    Export,
}

/// Every layer, in report order.
pub const LAYERS: [Layer; 7] = [
    Layer::Phy,
    Layer::Sdr,
    Layer::Channel,
    Layer::Fpga,
    Layer::Mac,
    Layer::Merge,
    Layer::Export,
];

impl Layer {
    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Phy => "phy",
            Layer::Sdr => "sdr",
            Layer::Channel => "channel",
            Layer::Fpga => "fpga",
            Layer::Mac => "mac",
            Layer::Merge => "merge",
            Layer::Export => "export",
        }
    }
}

/// What a traced shadow run spent per layer, and the work each layer did.
#[derive(Clone, Debug, Default)]
pub struct LayerStats {
    /// Self time per layer, ns (spans never nest).
    pub self_ns: [u64; 7],
    /// Heap allocations per layer.
    pub allocs: [u64; 7],
    /// Heap bytes requested per layer.
    pub alloc_bytes: [u64; 7],
    /// PHY frames synthesized (802.11 or 802.16).
    pub frames: u64,
    /// Samples streamed through the detector core.
    pub samples: u64,
    /// Detector triggers of the kind the campaign counts.
    pub triggers: u64,
    /// Of those, triggers inside a frame's window.
    pub in_window: u64,
    /// MAC datagrams sent.
    pub datagrams: u64,
    /// MAC datagrams delivered.
    pub delivered: u64,
    /// Export bytes.
    pub export_bytes: u64,
}

impl LayerStats {
    /// Adds another job's stats.
    pub fn add(&mut self, o: &LayerStats) {
        for k in 0..LAYERS.len() {
            self.self_ns[k] += o.self_ns[k];
            self.allocs[k] += o.allocs[k];
            self.alloc_bytes[k] += o.alloc_bytes[k];
        }
        self.frames += o.frames;
        self.samples += o.samples;
        self.triggers += o.triggers;
        self.in_window += o.in_window;
        self.datagrams += o.datagrams;
        self.delivered += o.delivered;
        self.export_bytes += o.export_bytes;
    }
}

/// Times and counts spans when on; runs them bare when off.
struct Tracer {
    on: bool,
    stats: LayerStats,
}

impl Tracer {
    fn span<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let (a0, b0) = alloc_counts();
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        let (a1, b1) = alloc_counts();
        let k = layer as usize;
        self.stats.self_ns[k] += ns;
        self.stats.allocs[k] += a1 - a0;
        self.stats.alloc_bytes[k] += b1 - b0;
        out
    }
}

/// One job, run in process and through the shadow.
#[derive(Debug)]
pub struct JobTrace {
    /// `run_to_export` on the serial engine.
    pub export: String,
    /// Every shadow pass reproduced `export` byte for byte.
    pub matches: bool,
    /// Untraced shadow wall ÷ `run_to_export` wall.
    pub fidelity: f64,
    /// Traced shadow wall ÷ untraced shadow wall.
    pub overhead: f64,
    /// `run_to_export` wall − untraced shadow wall, s.
    pub engine_overhead_s: f64,
    /// Wall of the first traced pass, s: the base of the layer shares.
    pub traced_s: f64,
    /// The first traced pass's per-layer account.
    pub layers: LayerStats,
}

/// Runs `req` on the serial `engine` six times on one thread, in the
/// mirrored order `run_to_export`, shadow, traced shadow, traced shadow,
/// shadow, `run_to_export`: each ratio sums passes placed symmetrically in
/// time, so a drift of the shared host's speed during the job cancels.
pub fn trace_job(req: &CampaignRequest, engine: &CampaignEngine) -> JobTrace {
    let in_process = || {
        let t0 = Instant::now();
        let export = req
            .run_to_export(engine, &mut JobCheckpoint::new(), None)
            .expect("an uncancelled run completes");
        (export, t0.elapsed().as_secs_f64())
    };
    let shadow_pass = |on| {
        let mut tr = Tracer {
            on,
            stats: LayerStats::default(),
        };
        let t0 = Instant::now();
        let export = shadow(req, &mut tr);
        (export, t0.elapsed().as_secs_f64(), tr.stats)
    };
    let (export, direct1) = in_process();
    let (plain1, shadow1, _) = shadow_pass(false);
    let (traced1, traced1_s, layers) = shadow_pass(true);
    let (traced2, traced2_s, _) = shadow_pass(true);
    let (plain2, shadow2, _) = shadow_pass(false);
    let (_, direct2) = in_process();
    let (direct, plain, traced) = (direct1 + direct2, shadow1 + shadow2, traced1_s + traced2_s);
    JobTrace {
        matches: [plain1, traced1, traced2, plain2]
            .iter()
            .all(|e| *e == export),
        export,
        fidelity: plain / direct,
        overhead: traced / plain,
        engine_overhead_s: (direct - plain) / 2.0,
        traced_s: traced1_s,
        layers,
    }
}

fn shadow(req: &CampaignRequest, tr: &mut Tracer) -> String {
    let export = match req {
        CampaignRequest::WifiDetection {
            preset,
            emission,
            channel,
            snrs_db,
            frames_per_point,
            seed,
        } => detection(
            tr,
            preset,
            *emission,
            *channel,
            snrs_db,
            *frames_per_point,
            *seed,
        ),
        CampaignRequest::FalseAlarm {
            preset,
            samples,
            seed,
        } => false_alarm(tr, preset, *samples, *seed),
        CampaignRequest::Wimax {
            fused,
            frames,
            snr_db,
            threshold,
            seed,
        } => wimax(tr, *fused, *frames, *snr_db, *threshold, *seed),
        CampaignRequest::Jamming {
            jammer,
            sirs_db,
            duration_s,
            seed,
        } => jamming(tr, *jammer, sirs_db, *duration_s, *seed),
    };
    tr.stats.export_bytes += export.len() as u64;
    export
}

/// Whether `e` is the trigger kind a detection or false-alarm campaign
/// counts.
fn counted(e: &CoreEvent, energy: bool) -> bool {
    if energy {
        matches!(e, CoreEvent::EnergyHigh { .. })
    } else {
        matches!(e, CoreEvent::XcorrDetection { .. })
    }
}

/// Shadow of `WifiDetectionSpec::run_ckpt` + `export::detection_csv`.
fn detection(
    tr: &mut Tracer,
    preset: &DetectionPreset,
    emission: WifiEmission,
    channel: ChannelModel,
    snrs_db: &[f64],
    frames_per_point: usize,
    seed: u64,
) -> String {
    let energy = matches!(preset, DetectionPreset::EnergyRise { .. });
    let blocks = frames_per_point.div_ceil(DETECTION_FRAMES_PER_UNIT).max(1);
    let lockout = if energy { 0 } else { DEFAULT_LOCKOUT };
    let mut jammer = tr.span(Layer::Fpga, || {
        ReactiveJammer::from_presets(preset, &JammerPreset::Monitor, lockout)
    });
    let mut scratch = BlockScratch::new();
    let mut stream: Vec<Cf64> = Vec::new();
    let mut cells = Vec::with_capacity(snrs_db.len() * blocks);
    for index in 0..snrs_db.len() * blocks {
        let unit_seed = shard_seed(seed, index as u64);
        let snr_db = snrs_db[index / blocks];
        let lo = (index % blocks) * DETECTION_FRAMES_PER_UNIT;
        let frames = DETECTION_FRAMES_PER_UNIT.min(frames_per_point - lo);
        tr.span(Layer::Fpga, || jammer.reset());
        let (mut rng, mut noise) = tr.span(Layer::Channel, || {
            let mut rng = Rng::seed_from(unit_seed);
            let noise = NoiseSource::new(RX_LEVEL / db_to_lin(snr_db), rng.fork());
            (rng, noise)
        });
        let (mut detected, mut triggers) = (0usize, 0usize);
        for _ in 0..frames {
            let native = tr.span(Layer::Phy, || match emission {
                WifiEmission::FullFrames { psdu_len } => {
                    let mut psdu = vec![0u8; psdu_len];
                    rng.fill_bytes(&mut psdu);
                    modulate_frame(&Frame::new(rjam_phy80211::Rate::R12, psdu))
                }
                WifiEmission::SingleShortPreamble => single_short_preamble(),
                WifiEmission::SingleLongPreamble => single_long_preamble(),
            });
            let mut wave = tr.span(Layer::Sdr, || {
                let up = to_usrp_rate(&native, WIFI_SAMPLE_RATE);
                drop(native);
                fractional_delay(&up, rng.uniform() * 0.999)
            });
            if let ChannelModel::Rayleigh { taps, rms } = channel {
                tr.span(Layer::Channel, || {
                    let ch = MultipathChannel::rayleigh(taps, rms, &mut rng);
                    wave = ch.apply(&wave);
                });
            }
            tr.span(Layer::Sdr, || scale_to_power(&mut wave, RX_LEVEL));
            let (frame_lo, frame_hi) = tr.span(Layer::Channel, || {
                stream.clear();
                for _ in 0..LEAD_IN {
                    stream.push(noise.next_sample());
                }
                let frame_lo = stream.len() as u64;
                stream.extend(wave.iter().map(|&s| s + noise.next_sample()));
                let frame_hi = stream.len() as u64 + 64; // allow pipeline lag
                for _ in 0..TAIL {
                    stream.push(noise.next_sample());
                }
                drop(wave);
                (frame_lo, frame_hi)
            });
            let (n, all) = tr.span(Layer::Fpga, || {
                let base = jammer.core_mut().samples_processed();
                let before = jammer.events().len();
                jammer.process_block_into(&stream, &mut scratch);
                let (lo, hi) = (base + frame_lo, base + frame_hi);
                let n = jammer
                    .events()
                    .iter()
                    .filter(|e| counted(e, energy) && (lo..hi).contains(&e.sample()))
                    .count();
                let all = jammer.events()[before..]
                    .iter()
                    .filter(|e| counted(e, energy))
                    .count();
                (n, all)
            });
            if n > 0 {
                detected += 1;
            }
            triggers += n;
            tr.stats.frames += 1;
            tr.stats.samples += stream.len() as u64;
            tr.stats.triggers += all as u64;
            tr.stats.in_window += n as u64;
        }
        cells.push((detected, triggers));
    }
    let points: Vec<DetectionPoint> = tr.span(Layer::Merge, || {
        snrs_db
            .iter()
            .enumerate()
            .map(|(p, &snr_db)| {
                let (d, t) = cells[p * blocks..(p + 1) * blocks]
                    .iter()
                    .fold((0usize, 0usize), |(d, t), &(cd, ct)| (d + cd, t + ct));
                DetectionPoint {
                    snr_db,
                    p_detect: d as f64 / frames_per_point as f64,
                    triggers_per_frame: t as f64 / frames_per_point as f64,
                }
            })
            .collect()
    });
    tr.span(Layer::Fpga, || drop((jammer, scratch)));
    tr.span(Layer::Channel, || drop(stream));
    tr.span(Layer::Export, || export::detection_csv(&points))
}

/// Shadow of `FalseAlarmSpec::run_counts_ckpt` + `export::false_alarm_json`.
fn false_alarm(tr: &mut Tracer, preset: &DetectionPreset, samples: usize, seed: u64) -> String {
    let energy = matches!(preset, DetectionPreset::EnergyRise { .. });
    let mut jammer = tr.span(Layer::Fpga, || {
        ReactiveJammer::from_presets(preset, &JammerPreset::Monitor, DEFAULT_LOCKOUT)
    });
    let mut scratch = BlockScratch::new();
    let mut block: Vec<Cf64> = Vec::new();
    let mut cells = Vec::with_capacity(samples.div_ceil(FA_UNIT_SAMPLES));
    for index in 0..samples.div_ceil(FA_UNIT_SAMPLES) {
        let unit_seed = shard_seed(seed, index as u64);
        let n = FA_UNIT_SAMPLES.min(samples - index * FA_UNIT_SAMPLES);
        tr.span(Layer::Fpga, || jammer.reset());
        let mut noise = tr.span(Layer::Channel, || {
            NoiseSource::new(RX_LEVEL / db_to_lin(20.0), Rng::seed_from(unit_seed))
        });
        let mut done = 0usize;
        while done < n {
            let m = FA_CHUNK.min(n - done);
            tr.span(Layer::Channel, || {
                block.clear();
                for _ in 0..m {
                    block.push(noise.next_sample());
                }
            });
            tr.span(Layer::Fpga, || {
                jammer.process_block_into(&block, &mut scratch)
            });
            done += m;
        }
        let triggers = tr.span(Layer::Fpga, || {
            jammer
                .events()
                .iter()
                .filter(|e| counted(e, energy))
                .count() as u64
        });
        cells.push((triggers, n as u64));
        tr.stats.samples += n as u64;
        tr.stats.triggers += triggers;
    }
    let rate = tr.span(Layer::Merge, || {
        let (triggers, streamed) = cells
            .iter()
            .fold((0u64, 0u64), |(t, s), &(ct, cs)| (t + ct, s + cs));
        if streamed == 0 {
            0.0
        } else {
            triggers as f64 / (streamed as f64 / USRP_SAMPLE_RATE)
        }
    });
    tr.span(Layer::Fpga, || drop((jammer, scratch)));
    tr.span(Layer::Channel, || drop(block));
    tr.span(Layer::Export, || export::false_alarm_json(rate))
}

/// Shadow of `WimaxDetectionSpec::run_cancellable` + `export::wimax_json`.
fn wimax(
    tr: &mut Tracer,
    fused: bool,
    frames: usize,
    snr_db: f64,
    threshold: f64,
    seed: u64,
) -> String {
    let detection = if fused {
        DetectionPreset::WimaxFused {
            id_cell: 1,
            segment: 0,
            threshold,
            energy_db: 10.0,
        }
    } else {
        DetectionPreset::WimaxPreamble {
            id_cell: 1,
            segment: 0,
            threshold,
        }
    };
    let frame_samples_25 = (rjam_phy80216::FRAME_SAMPLES as f64 * 25.0 / 11.4).round() as u64;
    let reaction = JammerPreset::Reactive {
        uptime_s: 100e-6,
        waveform: rjam_fpga::JamWaveform::Wgn,
    };
    let mut jammer = tr.span(Layer::Fpga, || {
        ReactiveJammer::from_presets(&detection, &reaction, 100_000)
    });
    let mut scratch = BlockScratch::new();
    let mut units = Vec::with_capacity(frames.div_ceil(WIMAX_FRAMES_PER_UNIT));
    for index in 0..frames.div_ceil(WIMAX_FRAMES_PER_UNIT) {
        let unit_seed = shard_seed(seed, index as u64);
        let n = WIMAX_FRAMES_PER_UNIT.min(frames - index * WIMAX_FRAMES_PER_UNIT);
        tr.span(Layer::Fpga, || jammer.reset());
        let mut gen = tr.span(Layer::Phy, || {
            DownlinkGenerator::new(DownlinkConfig {
                seed: unit_seed,
                ..DownlinkConfig::default()
            })
        });
        let (mut rng, mut noise, mut scope) = tr.span(Layer::Channel, || {
            let mut rng = Rng::seed_from(unit_seed ^ 0x16e);
            let noise = NoiseSource::new(RX_LEVEL / db_to_lin(snr_db), rng.fork());
            (rng, noise, ScopeTrace::new(USRP_SAMPLE_RATE))
        });
        let mut detected = 0usize;
        let mut latency_acc = 0.0f64;
        for _ in 0..n {
            let native = tr.span(Layer::Phy, || gen.next_frame());
            let mut wave = tr.span(Layer::Sdr, || {
                let up = to_usrp_rate(&native, WIMAX_SAMPLE_RATE);
                drop(native);
                let mut wave = fractional_delay(&up, rng.uniform() * 0.999);
                let active = (gen.dl_subframe_samples() as f64 * 25.0 / 11.4) as usize;
                let p = mean_power(&wave[..active.min(wave.len())]);
                let k_scale = (RX_LEVEL / p).sqrt();
                for s in wave.iter_mut() {
                    *s = s.scale(k_scale);
                }
                wave
            });
            tr.span(Layer::Channel, || {
                for s in wave.iter_mut() {
                    *s += noise.next_sample();
                }
            });
            let (base, triggers_before) = tr.span(Layer::Fpga, || {
                let base = jammer.core_mut().samples_processed();
                let before = jammer.events().len();
                jammer.process_block_into(&wave, &mut scratch);
                (base, before)
            });
            tr.span(Layer::Channel, || {
                scope.capture(&wave);
                scope.mark(base as usize, "frame");
            });
            let (first_jam, all, in_window) = tr.span(Layer::Fpga, || {
                let first_jam = scratch.active().iter().position(|&a| a);
                let window = base..base + frame_samples_25 / 4;
                let jams = jammer.events()[triggers_before..]
                    .iter()
                    .filter(|e| matches!(e, CoreEvent::JamTrigger { .. }));
                let (all, in_window) = jams.fold((0u64, 0u64), |(a, w), e| {
                    (a + 1, w + u64::from(window.contains(&e.sample())))
                });
                (first_jam, all, in_window)
            });
            tr.stats.frames += 1;
            tr.stats.samples += wave.len() as u64;
            tr.stats.triggers += all;
            tr.stats.in_window += in_window;
            tr.span(Layer::Channel, || {
                if let Some(first_jam) = first_jam {
                    scope.mark((base + first_jam as u64) as usize, "jam");
                }
                drop(wave);
            });
            if let Some(first_jam) = first_jam {
                detected += 1;
                latency_acc += first_jam as f64 / 25.0; // us at 25 MSPS
            }
        }
        tr.span(Layer::Phy, || drop(gen));
        units.push((scope, detected, latency_acc));
    }
    let result = tr.span(Layer::Merge, || {
        let mut scope = ScopeTrace::new(USRP_SAMPLE_RATE);
        let mut detected = 0usize;
        let mut latency_acc = 0.0f64;
        for (unit_scope, d, l) in &units {
            let offset = scope.len();
            scope.append_shifted(unit_scope, offset);
            detected += d;
            latency_acc += l;
        }
        drop(units);
        let one_to_one = scope
            .correspondence("frame", "jam", frame_samples_25 as usize / 4)
            .is_ok();
        WimaxResult {
            detect_fraction: detected as f64 / frames as f64,
            mean_latency_us: if detected > 0 {
                latency_acc / detected as f64
            } else {
                f64::NAN
            },
            scope,
            one_to_one,
        }
    });
    tr.span(Layer::Fpga, || drop((jammer, scratch)));
    let export = tr.span(Layer::Export, || export::wimax_json(&result));
    tr.span(Layer::Merge, || drop(result));
    export
}

/// Shadow of `JammingSweepSpec::run_cancellable` + `export::jamming_csv`.
fn jamming(
    tr: &mut Tracer,
    jammer: JammerUnderTest,
    sirs_db: &[f64],
    duration_s: f64,
    seed: u64,
) -> String {
    let mut results = Vec::with_capacity(sirs_db.len());
    for (index, &sir) in sirs_db.iter().enumerate() {
        let unit_seed = shard_seed(seed, index as u64);
        let (point, delta) = tr.span(Layer::Mac, || {
            let sc = scenario_for(jammer, sir, duration_s, unit_seed);
            let mut delta = MacObsDelta::new();
            let report = ScenarioRun::new(&sc).obs_into(&mut delta).run();
            (
                JammingPoint {
                    sir_ap_db: sir,
                    report,
                },
                delta,
            )
        });
        tr.stats.datagrams += point.report.sent;
        tr.stats.delivered += point.report.received;
        results.push((point, delta));
    }
    let points = tr.span(Layer::Merge, || {
        let mut merged = MacObsDelta::new();
        let mut out = Vec::with_capacity(results.len());
        for (point, delta) in results {
            merged.absorb(delta);
            out.push(point);
        }
        merged.publish();
        out
    });
    let export = tr.span(Layer::Export, || export::jamming_csv(&points));
    tr.span(Layer::Merge, || drop(points));
    export
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small jobs of every kind, with partial final units, both channel
    /// models and both detector families.
    fn small_jobs() -> Vec<CampaignRequest> {
        vec![
            CampaignRequest::WifiDetection {
                preset: DetectionPreset::WifiShortPreamble { threshold: 0.35 },
                emission: WifiEmission::FullFrames { psdu_len: 60 },
                channel: ChannelModel::Rayleigh { taps: 8, rms: 2.0 },
                snrs_db: vec![0.0, 12.0],
                frames_per_point: 10,
                seed: 11,
            },
            CampaignRequest::WifiDetection {
                preset: DetectionPreset::EnergyRise { threshold_db: 10.0 },
                emission: WifiEmission::SingleLongPreamble,
                channel: ChannelModel::Awgn,
                snrs_db: vec![6.0],
                frames_per_point: 3,
                seed: 12,
            },
            CampaignRequest::FalseAlarm {
                preset: DetectionPreset::WifiLongPreamble { threshold: 0.34 },
                samples: FA_UNIT_SAMPLES + 70_000,
                seed: 13,
            },
            CampaignRequest::FalseAlarm {
                preset: DetectionPreset::EnergyRise { threshold_db: 10.0 },
                samples: 100_000,
                seed: 14,
            },
            CampaignRequest::Wimax {
                fused: false,
                frames: 5,
                snr_db: 10.0,
                threshold: 0.45,
                seed: 15,
            },
            CampaignRequest::Jamming {
                jammer: JammerUnderTest::ReactiveShort,
                sirs_db: vec![1.0, 20.0],
                duration_s: 0.1,
                seed: 16,
            },
        ]
    }

    #[test]
    fn shadow_reproduces_exports_and_accounts_its_time() {
        let engine = CampaignEngine::serial();
        for job in small_jobs() {
            let t = trace_job(&job, &engine);
            assert!(t.matches, "{}: shadow export differs", job.kind());
            let covered: u64 = t.layers.self_ns.iter().sum();
            assert!(covered > 0, "{}", job.kind());
            assert!(covered as f64 <= t.traced_s * 1e9, "{}", job.kind());
            assert_eq!(t.layers.export_bytes, t.export.len() as u64);
        }
    }
}
