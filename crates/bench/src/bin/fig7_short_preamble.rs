//! Fig. 7 — cross-correlation detection of full WiFi frames using the
//! **short** preamble template (10 cyclic STS repetitions give the
//! correlator many chances per frame).
//!
//! ```sh
//! cargo run --release -p rjam-bench --bin fig7_short_preamble [-- --frames 500]
//! ```

use rjam_bench::{campaign_engine, figure_header, parse_args};
use rjam_core::campaign::{false_alarm_rate, CampaignSpec, WifiEmission};
use rjam_core::DetectionPreset;

const USAGE: &str = "fig7_short_preamble [--frames N] [--fa-samples N]";

fn main() {
    let (frames, fa_samples): (usize, usize) = parse_args(USAGE, |a| {
        Ok((
            a.get_or("--frames", 1000)?,
            a.get_or("--fa-samples", 20_000_000)?,
        ))
    });
    let engine = campaign_engine(USAGE);
    figure_header(
        "Fig. 7",
        "Cross-correlator detection probability - WiFi short preamble",
        ">90% at -3 dB SNR, >99% above 3 dB, at a constant FA of 0.059/s",
    );

    // Calibrate the threshold for a near-zero FA (paper: 0.059 triggers/s):
    // the loosest rung of the ladder under 0.5/s, all rungs counted in one
    // noise pass.
    let candidates: Vec<f64> = (0..12).map(|step| 0.30 + 0.02 * step as f64).collect();
    let counts = CampaignSpec::false_alarm(&DetectionPreset::WifiShortPreamble {
        threshold: candidates[0],
    })
    .samples(fa_samples)
    .seed(0x57)
    .run_grid_counts(&engine, &candidates);
    let mut frac = 0.50;
    for (&cand, (triggers, samples)) in candidates.iter().zip(counts) {
        let fa = false_alarm_rate(triggers, samples);
        if fa < 0.5 {
            frac = cand;
            println!("threshold {cand:.2} x ideal peak -> measured FA {fa:.3}/s");
            break;
        }
    }

    let preset = DetectionPreset::WifiShortPreamble { threshold: frac };
    let snrs: Vec<f64> = (-5..=5).map(|k| k as f64 * 3.0).collect();
    let pts = CampaignSpec::wifi_detection(&preset)
        .emission(WifiEmission::FullFrames { psdu_len: 100 })
        .snrs(&snrs)
        .trials(frames)
        .seed(71)
        .run(&engine);
    println!("\n{:>10} {:>20}", "SNR (dB)", "P(det) full frames");
    for p in &pts {
        println!("{:>10.1} {:>20.3}", p.snr_db, p.p_detect);
    }
    println!("\n({frames} full WiFi frames per SNR point.)");
}
