//! The paper's motivating claim, quantified: "by jamming wireless packets
//! reactively at critical moments, adversaries can significantly reduce
//! network throughput **using little energy** while minimizing the chances
//! of being detected."
//!
//! For each jammer personality this binary finds an operating point that
//! suppresses the link to below 5 % of its clean goodput, then reports the
//! transmit power, RF duty cycle and total energy spent to hold that state
//! for the test duration.
//!
//! ```sh
//! cargo run --release -p rjam-bench --bin energy_efficiency [-- --seconds 10]
//! ```

use rjam_bench::{campaign_engine, figure_header, parse_args};
use rjam_core::campaign::{energy_at_operating_point, CampaignSpec, EnergyPoint, JammerUnderTest};
use rjam_core::CampaignEngine;

const USAGE: &str = "energy_efficiency [--seconds S]";

fn find_kill_sir(
    engine: &CampaignEngine,
    jut: JammerUnderTest,
    ceiling: f64,
    seconds: f64,
) -> Option<f64> {
    let sirs: Vec<f64> = (0..=26).map(|k| 50.0 - 2.0 * k as f64).collect();
    CampaignSpec::jamming(jut)
        .sirs(&sirs)
        .duration_s(seconds)
        .seed(0xEE)
        .run(engine)
        .into_iter()
        .find(|p| p.report.bandwidth_kbps < 0.05 * ceiling)
        .map(|p| p.sir_ap_db)
}

fn main() {
    let seconds: f64 = parse_args(USAGE, |a| a.get_or("--seconds", 6.0));
    let engine = campaign_engine(USAGE);
    figure_header(
        "Energy",
        "Jamming energy required to suppress the link below 5% goodput",
        "reactive jamming trades higher instantaneous power for far less \
         energy and airtime than continuous jamming",
    );

    let ceiling = CampaignSpec::jamming(JammerUnderTest::Off)
        .sirs(&[60.0])
        .duration_s(seconds)
        .seed(0xEE)
        .run(&engine)[0]
        .report
        .bandwidth_kbps;
    println!("clean goodput ceiling: {ceiling:.0} kbps over {seconds} s\n");

    let mut rows: Vec<EnergyPoint> = Vec::new();
    for jut in [
        JammerUnderTest::Continuous,
        JammerUnderTest::ReactiveLong,
        JammerUnderTest::ReactiveShort,
    ] {
        match find_kill_sir(&engine, jut, ceiling, seconds) {
            Some(sir) => {
                rows.push(energy_at_operating_point(jut, sir, seconds, ceiling, 0xEE));
            }
            None => println!("{}: kill point not reached in sweep range", jut.label()),
        }
    }

    println!(
        "{:<32} {:>9} {:>11} {:>9} {:>13} {:>10}",
        "jammer", "SIR (dB)", "TX (dBm)", "duty (%)", "energy (uJ)", "resid (%)"
    );
    for r in &rows {
        println!(
            "{:<32} {:>9.1} {:>11.1} {:>9.2} {:>13.3} {:>10.1}",
            r.jammer.label(),
            r.sir_ap_db,
            r.tx_power_dbm,
            r.duty_percent,
            r.energy_joules * 1e6,
            r.residual_bandwidth_percent
        );
    }
    if let (Some(cont), Some(short)) = (
        rows.iter()
            .find(|r| r.jammer == JammerUnderTest::Continuous),
        rows.iter()
            .find(|r| r.jammer == JammerUnderTest::ReactiveShort),
    ) {
        println!(
            "\nreactive 0.01 ms spends {:.1}x the instantaneous power of continuous\n\
             but only {:.3}x the energy — the paper's efficiency/stealth trade.",
            10f64.powf((short.tx_power_dbm - cont.tx_power_dbm) / 10.0),
            short.energy_joules / cont.energy_joules.max(1e-12),
        );
    }
}
