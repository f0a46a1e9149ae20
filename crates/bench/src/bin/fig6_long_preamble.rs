//! Fig. 6 — cross-correlation detection of the WiFi **long** preamble vs
//! SNR, for single-preamble pseudo-frames and full WiFi frames, at two
//! false-alarm operating points.
//!
//! Methodology follows §3.2: thresholds are first calibrated on noise-only
//! input to the two FA rates the paper quotes (0.083 and 0.52 triggers/s,
//! extrapolated from a long noise run), then detection probability is
//! counted over `--frames` transmissions per SNR point.
//!
//! ```sh
//! cargo run --release -p rjam-bench --bin fig6_long_preamble [-- --frames 500 --fa-samples 20000000]
//! ```

use rjam_bench::{campaign_engine, figure_header, parse_args};
use rjam_core::campaign::{false_alarm_rate, CampaignSpec, WifiEmission};
use rjam_core::{CampaignEngine, DetectionPreset};

const USAGE: &str = "fig6_long_preamble [--frames N] [--fa-samples N]";

/// Measures the FA rate at a ladder of thresholds and picks two operating
/// points: a strict one with (near-)zero measured FA and the loosest one
/// whose FA stays within a few triggers per second — the two regimes the
/// paper's 0.083/s and 0.52/s settings represent. One noise pass, sharded
/// across the campaign engine's workers, counts every rung.
fn calibrate_thresholds(engine: &CampaignEngine, fa_samples: usize) -> ((f64, f64), (f64, f64)) {
    let candidates: Vec<f64> = (0..10).map(|k| 0.24 + 0.02 * k as f64).collect();
    let rates: Vec<f64> = CampaignSpec::false_alarm(&DetectionPreset::WifiLongPreamble {
        threshold: candidates[0],
    })
    .samples(fa_samples)
    .seed(0xFA)
    .run_grid_counts(engine, &candidates)
    .into_iter()
    .map(|(triggers, samples)| false_alarm_rate(triggers, samples))
    .collect();
    let strict_idx = rates
        .iter()
        .position(|&fa| fa < 0.1)
        .unwrap_or(candidates.len() - 1);
    // The loose point: highest FA not exceeding ~5/s, below the strict one.
    let loose_idx = (0..strict_idx)
        .rev()
        .find(|&i| rates[i] > 0.1 && rates[i] <= 5.0)
        .unwrap_or(strict_idx.saturating_sub(1));
    (
        (candidates[loose_idx], rates[loose_idx]),
        (candidates[strict_idx], rates[strict_idx]),
    )
}

fn main() {
    let (frames, fa_samples): (usize, usize) = parse_args(USAGE, |a| {
        Ok((
            a.get_or("--frames", 1000)?,
            a.get_or("--fa-samples", 20_000_000)?,
        ))
    });
    let engine = campaign_engine(USAGE);
    figure_header(
        "Fig. 6",
        "Cross-correlator detection probability - WiFi long preamble",
        "single LTS ~50% above 5 dB SNR; full frames >75%; FA 0.083 and 0.52/s",
    );

    let snrs: Vec<f64> = (-4..=8).map(|k| k as f64 * 2.0).collect();
    let (loose, strict) = calibrate_thresholds(&engine, fa_samples);
    for ((frac, measured_fa), regime) in [(loose, "higher-FA"), (strict, "low-FA")] {
        println!(
            "\n--- {regime} operating point: threshold {frac:.2} x ideal peak (measured FA {measured_fa:.3}/s) ---"
        );
        let preset = DetectionPreset::WifiLongPreamble { threshold: frac };
        let single = CampaignSpec::wifi_detection(&preset)
            .emission(WifiEmission::SingleLongPreamble)
            .snrs(&snrs)
            .trials(frames)
            .seed(61)
            .run(&engine);
        let full = CampaignSpec::wifi_detection(&preset)
            .emission(WifiEmission::FullFrames { psdu_len: 100 })
            .snrs(&snrs)
            .trials(frames)
            .seed(62)
            .run(&engine);
        println!(
            "{:>10} {:>18} {:>18}",
            "SNR (dB)", "P(det) single LTS", "P(det) full frame"
        );
        for (s, f) in single.iter().zip(full.iter()) {
            println!(
                "{:>10.1} {:>18.3} {:>18.3}",
                s.snr_db, s.p_detect, f.p_detect
            );
        }
    }
    println!(
        "\n({frames} frames/point; the 20->25 MSPS rate mismatch and random per-frame\n\
         sampling phase are modeled; see EXPERIMENTS.md for paper-vs-measured notes.)"
    );
}
