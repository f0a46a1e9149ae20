//! Scaling: the DSP lane bank versus running the same hypotheses
//! through separate correlator instances. Each lane is a distinct
//! correlator trigger (template, threshold, lockout) over one shared
//! stream; because
//! lanes that share a template also share one metric evaluation, a
//! threshold sweep amortizes the expensive part and aggregate throughput
//! (lane-samples per second) should grow nearly linearly with lane count.
//!
//! Elements are counted as `samples x lanes`, so the reported throughput is
//! the *aggregate* rate; divide by the lane count for per-lane Msamp/s.
//! `check ratio` gates the `lane_bank` sweep records: 16 lanes must
//! deliver at least 4x the single-lane aggregate, i.e. the `lanes_16`
//! median may be at most 4x the `lanes_1` median.
//!
//! The `one_lane` records time the three lane shapes campaigns run, one
//! lane each, over ADC-domain noise at the false-alarm floor in
//! 65 536-sample blocks: a correlator (`wifi_short`), an energy rise
//! (`energy_rise`) and the WiMAX fusion of both (`wimax_fused`). Over
//! noise a lane never sleeps, so these show what the per-word sleep check
//! costs. `wimax_frame` is the lane a WiMAX unit runs, a correlator at the
//! campaign's 100 000-sample lockout, over one received 5 ms downlink
//! frame it detects: it sleeps through most of the frame. No gate reads
//! them; they are the `fpga` layer's cost per sample.

use rjam_bench::harness::Harness;
use rjam_channel::NoiseSource;
use rjam_core::jammer::DEFAULT_LOCKOUT;
use rjam_core::presets::build_config;
use rjam_core::{DetectionPreset, JammerPreset};
use rjam_fpga::{CoreConfig, DspLaneBank, LaneBankScratch, TriggerMode, TriggerSource};
use rjam_sdr::complex::IqI16;
use rjam_sdr::power::mean_power;
use rjam_sdr::resample::{fractional_delay, to_usrp_rate};
use rjam_sdr::rng::Rng;
use std::hint::black_box;

const STREAM_LEN: usize = 25_000; // 1 ms of air time at 25 MSPS
const BLOCK: usize = 4_096;

/// The campaigns' noise block: 65 536 samples, 2.6 ms of air.
const NOISE_BLOCK: usize = 1 << 16;

fn template(rng: &mut Rng) -> ([i8; 64], [i8; 64]) {
    let ci: [i8; 64] = std::array::from_fn(|_| (rng.below(8) as i32 - 4) as i8);
    let cq: [i8; 64] = std::array::from_fn(|_| (rng.below(8) as i32 - 4) as i8);
    (ci, cq)
}

/// The config of a correlator lane with lockout 1000.
fn lane(ci: [i8; 64], cq: [i8; 64], threshold: u64) -> CoreConfig {
    CoreConfig {
        coeff_i: ci,
        coeff_q: cq,
        xcorr_threshold: threshold,
        lockout: 1_000,
        trigger_mode: TriggerMode::Any(vec![TriggerSource::Xcorr]),
        ..CoreConfig::default()
    }
}

/// A threshold-sweep bank: every lane shares one template (the ROC /
/// false-alarm-grid shape), thresholds fanned across the metric range.
fn sweep_bank(lanes: usize) -> DspLaneBank {
    let mut rng = Rng::seed_from(42);
    let (ci, cq) = template(&mut rng);
    let mut bank = DspLaneBank::new();
    for k in 0..lanes {
        bank.add_lane(&lane(ci, cq, 50_000 + 10_000 * k as u64));
    }
    bank
}

/// A multi-template bank: every lane carries its own template, so every
/// lane costs a full rail evaluation — the worst case for the bank.
fn multi_template_bank(lanes: usize) -> DspLaneBank {
    let mut rng = Rng::seed_from(43);
    let mut bank = DspLaneBank::new();
    for k in 0..lanes {
        let (ci, cq) = template(&mut rng);
        bank.add_lane(&lane(ci, cq, 50_000 + 10_000 * k as u64));
    }
    bank
}

fn make_stream(n: usize) -> Vec<IqI16> {
    let mut rng = Rng::seed_from(7);
    (0..n)
        .map(|_| {
            IqI16::new(
                (rng.below(65536) as i64 - 32768) as i16,
                (rng.below(65536) as i64 - 32768) as i16,
            )
        })
        .collect()
}

/// One downlink frame of the cell-1, segment-0 base station as a WiMAX
/// unit receives it at 10 dB SNR, quantized: resampled to 25 MSPS, a
/// half-sample delay, scaled to the 0.02 receive level over its active
/// subframe, plus noise.
fn wimax_frame() -> Vec<IqI16> {
    let mut gen = rjam_phy80216::DownlinkGenerator::new(rjam_phy80216::DownlinkConfig::default());
    let up = to_usrp_rate(&gen.next_frame(), rjam_sdr::WIMAX_SAMPLE_RATE);
    let wave = fractional_delay(&up, 0.5);
    let active = (gen.dl_subframe_samples() as f64 * 25.0 / 11.4) as usize;
    let k = (0.02 / mean_power(&wave[..active])).sqrt();
    let mut noise = NoiseSource::new(0.02 / 10.0, Rng::seed_from(6));
    wave.iter()
        .map(|&s| IqI16::from_cf64(s.scale(k) + noise.next_sample()))
        .collect()
}

fn main() {
    let stream = make_stream(STREAM_LEN);
    let mut h = Harness::new("dsp_lanes");

    // Aggregate throughput vs lane count (shared template, block datapath).
    // These are the records the lane-scaling gate (`check ratio`) reads.
    for lanes in [1usize, 4, 16, 64] {
        let mut bank = sweep_bank(lanes);
        let elems = (stream.len() * lanes) as u64;
        h.bench_throughput("lane_bank", &format!("lanes_{lanes}"), elems, || {
            bank.reset();
            for chunk in stream.chunks(BLOCK) {
                bank.process_block(black_box(chunk));
            }
            black_box(bank.trigger_count(lanes - 1))
        });
    }

    // Block-size sensitivity at 16 lanes: how much the hoisted bookkeeping
    // of `process_block` buys over the per-sample head path.
    for block in [64usize, 1_024, STREAM_LEN] {
        let mut bank = sweep_bank(16);
        let elems = (stream.len() * 16) as u64;
        h.bench_throughput("lane_bank_block", &format!("block_{block}"), elems, || {
            bank.reset();
            for chunk in stream.chunks(block) {
                bank.process_block(black_box(chunk));
            }
            black_box(bank.trigger_count(15))
        });
    }

    // Worst case: 16 distinct templates (no shared evaluation), and the
    // trigger-collecting datapath used by the campaign detection sweeps.
    let mut bank = multi_template_bank(16);
    let elems = (stream.len() * 16) as u64;
    h.bench_throughput("lane_bank_multi_template", "lanes_16", elems, || {
        bank.reset();
        for chunk in stream.chunks(BLOCK) {
            bank.process_block(black_box(chunk));
        }
        black_box(bank.trigger_count(15))
    });

    let mut bank = sweep_bank(16);
    let mut scratch = LaneBankScratch::default();
    h.bench_throughput("lane_bank_collect", "lanes_16", elems, || {
        bank.reset();
        scratch.clear();
        for chunk in stream.chunks(BLOCK) {
            bank.process_block_into(black_box(chunk), &mut scratch);
        }
        black_box(scratch.triggers.len())
    });

    // One lane of each shape campaigns run, over two noise blocks at the
    // false-alarm floor (20 dB under the 0.02 receive level), as
    // false-alarm and WiMAX units feed them.
    let mut noise = Vec::with_capacity(2 * NOISE_BLOCK);
    NoiseSource::new(0.02 / 100.0, Rng::seed_from(5)).adc_noise(2 * NOISE_BLOCK, &mut noise);
    let monitor = JammerPreset::Monitor;
    let shapes = [
        (
            "wifi_short",
            build_config(
                &DetectionPreset::WifiShortPreamble { threshold: 0.30 },
                &monitor,
                DEFAULT_LOCKOUT,
            ),
        ),
        (
            "energy_rise",
            build_config(
                &DetectionPreset::EnergyRise { threshold_db: 10.0 },
                &monitor,
                DEFAULT_LOCKOUT,
            ),
        ),
        (
            "wimax_fused",
            build_config(
                &DetectionPreset::WimaxFused {
                    id_cell: 0,
                    segment: 0,
                    threshold: 0.45,
                    energy_db: 10.0,
                },
                &monitor,
                100_000,
            ),
        ),
    ];
    for (shape, cfg) in &shapes {
        let mut bank = DspLaneBank::new();
        bank.add_lane(cfg);
        let mut scratch = LaneBankScratch::default();
        h.bench_throughput("one_lane", shape, noise.len() as u64, || {
            bank.reset();
            scratch.clear();
            for chunk in noise.chunks(NOISE_BLOCK) {
                bank.process_block_into(black_box(chunk), &mut scratch);
            }
            black_box(bank.trigger_count(0))
        });
    }

    let frame = wimax_frame();
    let cfg = build_config(
        &DetectionPreset::WimaxPreamble {
            id_cell: 1,
            segment: 0,
            threshold: 0.45,
        },
        &monitor,
        100_000,
    );
    let mut bank = DspLaneBank::new();
    bank.add_lane(&cfg);
    let mut scratch = LaneBankScratch::default();
    bank.process_block_into(&frame, &mut scratch);
    assert_eq!(bank.trigger_count(0), 1, "the lane detects the frame once");
    h.bench_throughput("one_lane", "wimax_frame", frame.len() as u64, || {
        bank.reset();
        scratch.clear();
        bank.process_block_into(black_box(&frame), &mut scratch);
        black_box(bank.trigger_count(0))
    });

    h.finish();
}
