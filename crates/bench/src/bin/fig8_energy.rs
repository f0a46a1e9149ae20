//! Fig. 8 — energy-differentiator detection of full WiFi frames vs SNR at
//! the paper's 10 dB rise threshold.
//!
//! Expected shape: no detections below -3 dB (signal under the noise
//! floor), **multiple** rise triggers per frame between -3 and 8 dB (the
//! OFDM envelope criss-crosses the threshold as signal and noise power are
//! comparable), and exactly one detection per frame above ~10 dB.
//!
//! ```sh
//! cargo run --release -p rjam-bench --bin fig8_energy [-- --frames 500]
//! ```

use rjam_bench::{campaign_engine, figure_header, parse_args};
use rjam_core::campaign::{CampaignSpec, WifiEmission};
use rjam_core::DetectionPreset;

const USAGE: &str = "fig8_energy [--frames N] [--fa-samples N]";

fn main() {
    let (frames, fa_samples): (usize, usize) = parse_args(USAGE, |a| {
        Ok((
            a.get_or("--frames", 1000)?,
            a.get_or("--fa-samples", 20_000_000)?,
        ))
    });
    let engine = campaign_engine(USAGE);
    figure_header(
        "Fig. 8",
        "Energy differentiator detection probability - full WiFi frames",
        "0 below -3 dB; multiple detections/frame between -3 and 8 dB; \
         single detection/frame above 10 dB; FA = 0/s at the 10 dB threshold",
    );

    let preset = DetectionPreset::EnergyRise { threshold_db: 10.0 };
    let fa = CampaignSpec::false_alarm(&preset)
        .samples(fa_samples)
        .seed(0x8E)
        .run(&engine);
    println!("false-alarm rate at 10 dB threshold: {fa:.3}/s (paper: 0/s)\n");

    let snrs: Vec<f64> = (-4..=9).map(|k| k as f64 * 2.0).collect();
    let pts = CampaignSpec::wifi_detection(&preset)
        .emission(WifiEmission::FullFrames { psdu_len: 100 })
        .snrs(&snrs)
        .trials(frames)
        .seed(81)
        .run(&engine);
    println!(
        "{:>10} {:>12} {:>22}",
        "SNR (dB)", "P(det)", "mean triggers/frame"
    );
    for p in &pts {
        let note = if p.triggers_per_frame > 1.2 {
            "  <- multiple detections"
        } else {
            ""
        };
        println!(
            "{:>10.1} {:>12.3} {:>22.2}{note}",
            p.snr_db, p.p_detect, p.triggers_per_frame
        );
    }
    println!("\n({frames} full WiFi frames per SNR point, 10 dB rise threshold.)");
}
