//! Fig. 11 — packet reception ratio (link reliability) vs SIR at the AP
//! for the three jammer personalities.
//!
//! ```sh
//! cargo run --release -p rjam-bench --bin fig11_prr [-- --seconds 10]
//! ```

use rjam_bench::{campaign_engine, figure_header, parse_args};
use rjam_core::campaign::{CampaignSpec, JammerUnderTest};

const USAGE: &str = "fig11_prr [--seconds S]";

fn main() {
    let seconds: f64 = parse_args(USAGE, |a| a.get_or("--seconds", 10.0));
    let engine = campaign_engine(USAGE);
    figure_header(
        "Fig. 11",
        "WiFi packet reception ratio through iperf (jam power increases left->right)",
        "continuous drops 100->0 around 33 dB SIR; 0.1 ms reactive reaches 0% \
         at 16 dB; 0.01 ms at <3 dB; reactive jammers stay invisible to the AP",
    );

    let sirs: Vec<f64> = (0..=17).map(|k| 50.0 - 3.0 * k as f64).collect();
    let arms = [
        JammerUnderTest::Continuous,
        JammerUnderTest::ReactiveLong,
        JammerUnderTest::ReactiveShort,
    ];
    let results: Vec<_> = arms
        .iter()
        .map(|&j| {
            CampaignSpec::jamming(j)
                .sirs(&sirs)
                .duration_s(seconds)
                .seed(0xF11)
                .run(&engine)
        })
        .collect();

    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>18}",
        "SIR (dB)", "cont (%)", "0.1ms (%)", "0.01ms (%)", "link (cont arm)"
    );
    for (i, &sir) in sirs.iter().enumerate() {
        println!(
            "{:>10.2} {:>12.1} {:>12.1} {:>12.1} {:>18}",
            sir,
            results[0][i].report.prr_percent,
            results[1][i].report.prr_percent,
            results[2][i].report.prr_percent,
            if results[0][i].report.disassociated {
                "LOST (disassoc.)"
            } else {
                "up"
            }
        );
    }
    println!();
    for (arm, res) in arms.iter().zip(&results) {
        let kill = res
            .iter()
            .find(|p| p.report.prr_percent < 1.0)
            .map(|p| format!("{:.1} dB", p.sir_ap_db))
            .unwrap_or_else(|| "not reached".into());
        println!("0% PRR point ({}): {kill}", arm.label());
    }
    println!(
        "\nThroughout the reactive runs the AP never senses the jammer: bursts start\n\
         only while a frame is already in flight (the paper's stealth observation)."
    );
}
