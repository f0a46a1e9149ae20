//! WiFi jamming campaign (paper §4): run the iperf UDP bandwidth test in
//! the wired 5-port testbed under each jammer personality and print the
//! Fig. 10/11 rows.
//!
//! ```sh
//! cargo run --release --example wifi_jamming -- [seconds-per-point]
//! ```

use rjam::core::campaign::{CampaignSpec, JammerUnderTest};
use rjam::core::CampaignEngine;

fn main() {
    let seconds: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(5.0);
    let sirs: Vec<f64> = (0..=12).map(|k| 48.0 - 4.0 * k as f64).collect();

    // One engine for the whole campaign: RJAM_THREADS (or all cores)
    // workers, output bit-identical to a serial run at any thread count.
    // A malformed or zero RJAM_THREADS exits 2.
    let engine = CampaignEngine::from_args(None).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    });
    let sweep = |jut: JammerUnderTest, sirs: &[f64]| {
        CampaignSpec::jamming(jut)
            .sirs(sirs)
            .duration_s(seconds)
            .seed(99)
            .run(&engine)
    };
    let clean = sweep(JammerUnderTest::Off, &[60.0]);
    println!(
        "no-jamming ceiling: {:.1} Mb/s (paper: ~29 Mb/s)\n",
        clean[0].report.bandwidth_kbps / 1000.0
    );

    for jut in [
        JammerUnderTest::Continuous,
        JammerUnderTest::ReactiveLong,
        JammerUnderTest::ReactiveShort,
    ] {
        println!("=== {} ===", jut.label());
        println!(
            "{:>10} {:>12} {:>8} {:>10} {:>6}",
            "SIR (dB)", "BW (kbps)", "PRR (%)", "rate(Mb/s)", "link"
        );
        for p in sweep(jut, &sirs) {
            println!(
                "{:>10.2} {:>12.0} {:>8.1} {:>10.1} {:>6}",
                p.sir_ap_db,
                p.report.bandwidth_kbps,
                p.report.prr_percent,
                p.report.mean_phy_rate_mbps,
                if p.report.disassociated { "LOST" } else { "up" }
            );
        }
        println!();
    }
    println!("(Jamming power increases as SIR decreases, as in Figs 10-11.)");
}
