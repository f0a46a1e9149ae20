//! Fig. 12 / §5 — reactive jamming of mobile WiMAX downlink frames.
//!
//! Detects Air4G-model 802.16e TDD downlink frames (Cell ID 1, segment 0)
//! at 25 MSPS with (a) the 64-sample cross-correlator alone and (b) the
//! correlator fused (OR) with the energy differentiator, then verifies the
//! one-to-one correspondence between downlink frames and jamming bursts
//! that the paper demonstrates on an oscilloscope.
//!
//! ```sh
//! cargo run --release -p rjam-bench --bin fig12_wimax [-- --frames 20]
//! ```

use rjam_bench::{campaign_engine, figure_header, parse_args};
use rjam_core::campaign::CampaignSpec;

const USAGE: &str = "fig12_wimax [--frames N] [--snr dB]";

fn main() {
    let (frames, snr): (usize, f64) = parse_args(USAGE, |a| {
        Ok((a.get_or("--frames", 40)?, a.get_or("--snr", 20.0)?))
    });
    let engine = campaign_engine(USAGE);
    figure_header(
        "Fig. 12",
        "Reactive jamming of WiMAX downlink packets (Airspan Air4G model)",
        "xcorr alone misses ~2/3 of frames; xcorr OR energy detects 100% \
         with one-to-one jam bursts",
    );

    println!(
        "{:<34} {:>10} {:>14} {:>8}",
        "detector", "P(det)", "latency (us)", "1:1?"
    );
    for (label, fused, thr) in [
        ("xcorr alone (FA-calibrated thr)", false, 0.45),
        ("xcorr alone (strict threshold)", false, 0.62),
        ("xcorr OR energy (fused)", true, 0.45),
    ] {
        let r = CampaignSpec::wimax_detection()
            .fused(fused)
            .frames(frames)
            .snr_db(snr)
            .threshold(thr)
            .seed(0xF12)
            .run(&engine);
        println!(
            "{:<34} {:>10.2} {:>14.1} {:>8}",
            label,
            r.detect_fraction,
            r.mean_latency_us,
            if r.one_to_one { "yes" } else { "no" }
        );
    }

    let fused = CampaignSpec::wimax_detection()
        .fused(true)
        .frames(frames.min(8))
        .snr_db(snr)
        .threshold(0.45)
        .seed(0xF12)
        .run(&engine);
    println!(
        "\nscope capture (envelope + frame/jam markers), first {} frames:",
        frames.min(8)
    );
    print!("{}", fused.scope.render_ascii(100, 5));
    println!(
        "\nNote: our host resamples correlator templates to 25 MSPS before 3-bit\n\
         quantization, so the correlator alone already detects nearly all frames;\n\
         the paper's ~2/3 misdetection (rate-mismatched correlation) is approximated\n\
         by the strict-threshold row. Fusion reaches 100% in both implementations."
    );
}
