//! WiMAX downlink jamming (paper §5 / Fig. 12): detect Air4G-style 802.16e
//! TDD frames and jam them, rendering an ASCII oscilloscope view of the
//! frame/jam correspondence.
//!
//! ```sh
//! cargo run --release --example wimax_jamming -- [frames]
//! ```

use rjam::core::campaign::CampaignSpec;
use rjam::core::CampaignEngine;

fn main() {
    let frames: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let engine = CampaignEngine::from_args(None).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    let detect = |fused: bool| {
        CampaignSpec::wimax_detection()
            .fused(fused)
            .frames(frames)
            .snr_db(20.0)
            .threshold(0.45)
            .seed(7)
            .run(&engine)
    };

    println!("cross-correlator alone (64-sample window over the 25 us code):");
    let alone = detect(false);
    println!(
        "  detected {}/{} downlink frames ({:.0} %; paper: ~1/3)",
        (alone.detect_fraction * frames as f64).round(),
        frames,
        alone.detect_fraction * 100.0
    );
    println!(
        "  (paper measured ~1/3 with rate-mismatched templates; our host resamples\n   templates to 25 MSPS before quantizing, recovering the loss)"
    );

    println!("\ncross-correlator OR energy differentiator (fused):");
    let fused = detect(true);
    println!(
        "  detected {}/{} downlink frames ({:.0} %; paper: 100 %)",
        (fused.detect_fraction * frames as f64).round(),
        frames,
        fused.detect_fraction * 100.0
    );
    println!(
        "  mean response latency {:.1} us, one-to-one correspondence: {}",
        fused.mean_latency_us, fused.one_to_one
    );

    println!("\nscope view (envelope; ^ marks frame starts and jam bursts):");
    print!("{}", fused.scope.render_ascii(100, 6));
}
