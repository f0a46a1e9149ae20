//! Fig. 10 — iperf UDP bandwidth vs SIR at the AP, for continuous and
//! reactive (0.1 ms / 0.01 ms uptime) jammers, with the jammer-off ceiling.
//!
//! ```sh
//! cargo run --release -p rjam-bench --bin fig10_bandwidth [-- --seconds 10]
//! ```

use rjam_bench::{campaign_engine, figure_header, parse_args};
use rjam_core::campaign::{CampaignSpec, JammerUnderTest};

const USAGE: &str = "fig10_bandwidth [--seconds S]";

fn main() {
    let seconds: f64 = parse_args(USAGE, |a| a.get_or("--seconds", 10.0));
    let engine = campaign_engine(USAGE);
    let sweep = |jut: JammerUnderTest, sirs: &[f64]| {
        CampaignSpec::jamming(jut)
            .sirs(sirs)
            .duration_s(seconds)
            .seed(0xF10)
            .run(&engine)
    };
    figure_header(
        "Fig. 10",
        "WiFi UDP bandwidth reported by iperf (jam power increases left->right)",
        "ceiling ~29 Mb/s; kill points: continuous 33.85 dB SIR, \
         reactive 0.1 ms 15.94 dB, reactive 0.01 ms 2.79 dB",
    );

    // Descending SIR, as the paper plots it.
    let sirs: Vec<f64> = (0..=17).map(|k| 50.0 - 3.0 * k as f64).collect();
    let ceiling = sweep(JammerUnderTest::Off, &[60.0])[0]
        .report
        .bandwidth_kbps;
    println!("jammer-off ceiling: {ceiling:.0} kbps\n");

    let arms = [
        JammerUnderTest::Continuous,
        JammerUnderTest::ReactiveLong,
        JammerUnderTest::ReactiveShort,
    ];
    let results: Vec<_> = arms.iter().map(|&j| sweep(j, &sirs)).collect();

    println!(
        "{:>10} {:>14} {:>14} {:>14}",
        "SIR (dB)", "cont (kbps)", "0.1ms (kbps)", "0.01ms (kbps)"
    );
    for (i, &sir) in sirs.iter().enumerate() {
        println!(
            "{:>10.2} {:>14.0} {:>14.0} {:>14.0}",
            sir,
            results[0][i].report.bandwidth_kbps,
            results[1][i].report.bandwidth_kbps,
            results[2][i].report.bandwidth_kbps,
        );
    }

    // Report the measured kill points (first SIR where bandwidth < 1% of
    // ceiling), the paper's headline numbers.
    println!();
    for (arm, res) in arms.iter().zip(&results) {
        let kill = res
            .iter()
            .find(|p| p.report.bandwidth_kbps < 0.01 * ceiling)
            .map(|p| format!("{:.1} dB", p.sir_ap_db))
            .unwrap_or_else(|| "not reached".into());
        println!("kill point ({}): {kill}", arm.label());
    }
    println!("\n({seconds} s per point; see EXPERIMENTS.md for paper-vs-measured discussion.)");
}
