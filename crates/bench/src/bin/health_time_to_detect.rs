//! Health-monitor time-to-detect campaign — jammer duty cycle × SIR grid,
//! measuring frames from jam onset to the first raised alarm plus the
//! clean-run false-alarm count.
//!
//! ```sh
//! cargo run --release -p rjam-bench --bin health_time_to_detect \
//!     [-- --seconds 3 --cadence 8]
//! ```
//!
//! Heavily jammed links emit only a handful of datagrams per simulated
//! second (every one burns the full retry ladder), so the defaults give
//! even the continuous-jam cells enough frames for two cadence windows.

use rjam_bench::{campaign_engine, figure_header, parse_args};
use rjam_core::campaign::{CampaignSpec, JammerUnderTest};

const USAGE: &str = "health_time_to_detect [--seconds S] [--cadence N]";

fn main() {
    let (seconds, cadence): (f64, u64) = parse_args(USAGE, |a| {
        Ok((a.get_or("--seconds", 3.0)?, a.get_or("--cadence", 8)?))
    });
    let engine = campaign_engine(USAGE);
    figure_header(
        "Health TTD",
        "online monitor time-to-detect across jammer duty cycle x SIR",
        "jammed cells alarm within two cadence windows of onset; the \
         clean arm ('Jammer Off') raises zero alarms at any SIR",
    );

    let sirs = [1.0, 7.0, 14.0, 25.0, 40.0];
    let jammers = [
        JammerUnderTest::Off,
        JammerUnderTest::ReactiveShort,
        JammerUnderTest::ReactiveLong,
        JammerUnderTest::Continuous,
    ];
    let points = CampaignSpec::health_time_to_detect()
        .jammers(&jammers)
        .sirs(&sirs)
        .duration_s(seconds)
        .cadence(cadence)
        .seed(0x4EA1)
        .run(&engine);

    println!(
        "{:<30} {:>9} {:>8} {:>15} {:>7} {:>8}",
        "jammer", "SIR (dB)", "frames", "frames-to-alarm", "alarms", "PRR (%)"
    );
    for p in &points {
        println!(
            "{:<30} {:>9.2} {:>8} {:>15} {:>7} {:>8.1}",
            p.jammer.label(),
            p.sir_ap_db,
            p.frames,
            p.frames_to_alarm
                .map_or_else(|| "-".to_string(), |f| f.to_string()),
            p.alarms,
            p.prr_percent
        );
    }

    let clean_alarms: u64 = points
        .iter()
        .filter(|p| p.jammer == JammerUnderTest::Off)
        .map(|p| p.alarms)
        .sum();
    let detected = points
        .iter()
        .filter(|p| p.jammer != JammerUnderTest::Off && p.frames_to_alarm.is_some())
        .count();
    let jammed = points
        .iter()
        .filter(|p| p.jammer != JammerUnderTest::Off)
        .count();
    println!(
        "\nclean-run false alarms: {clean_alarms}; jammed cells detected: {detected}/{jammed}\n\
         (cells where the link survives — high SIR or 0.01 ms uptime — legitimately\n\
         stay quiet: the monitor flags collapse, not mere jammer presence)"
    );
}
