//! Pins every field of the MAC simulator's `IperfReport`, bit for bit,
//! over the four jammers × SIRs {−5, 1, 14, 33, 60} dB × two seeds ×
//! RTS/CTS off and on, at 0.5 s per run. Floats are compared by
//! `f64::to_bits`, so a passing run shows the DES reproduces the numbers of
//! the table it was captured from exactly, not approximately.
//!
//! `iperf_bits.txt` was captured with the unmemoised link model (every
//! frame evaluated through `rjam_mac::link::frame_success_prob` directly).
//! Regenerate it only when the DES's numerics change on purpose:
//!
//! ```text
//! cargo test -p rjam-core --test iperf_bits -- --ignored
//! ```

use rjam_core::campaign::{scenario_for, JammerUnderTest};
use rjam_core::spec::jammer_id;
use rjam_mac::{IperfReport, Scenario, ScenarioRun};

const TABLE: &str = include_str!("iperf_bits.txt");

const JAMMERS: [JammerUnderTest; 4] = [
    JammerUnderTest::Off,
    JammerUnderTest::Continuous,
    JammerUnderTest::ReactiveLong,
    JammerUnderTest::ReactiveShort,
];
const SIRS_DB: [f64; 5] = [-5.0, 1.0, 14.0, 33.0, 60.0];
const SEEDS: [u64; 2] = [1, 0xDC0F];
const DURATION_S: f64 = 0.5;

/// One table row: the grid point, then every report field.
fn row(jut: JammerUnderTest, sir: f64, seed: u64, rts_cts: bool, r: &IperfReport) -> String {
    let bits = |v: f64| format!("{:016x}", v.to_bits());
    let per_second: Vec<String> = r.per_second_kbps.iter().map(|&v| bits(v)).collect();
    format!(
        "{} {sir} {seed} rts_cts={rts_cts} sent={} received={} disassociated={} \
         jam_bursts={} bandwidth_kbps={} prr_percent={} mean_phy_rate_mbps={} \
         jam_airtime_us={} per_second_kbps={}",
        jammer_id(jut),
        r.sent,
        r.received,
        r.disassociated,
        r.jam_bursts,
        bits(r.bandwidth_kbps),
        bits(r.prr_percent),
        bits(r.mean_phy_rate_mbps),
        bits(r.jam_airtime_us),
        per_second.join(","),
    )
}

fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for jut in JAMMERS {
        for sir in SIRS_DB {
            for seed in SEEDS {
                for rts_cts in [false, true] {
                    let sc = Scenario {
                        rts_cts,
                        ..scenario_for(jut, sir, DURATION_S, seed)
                    };
                    out.push(row(jut, sir, seed, rts_cts, &ScenarioRun::new(&sc).run()));
                }
            }
        }
    }
    out
}

#[test]
fn iperf_reports_match_the_pinned_table() {
    let want: Vec<&str> = TABLE.lines().filter(|l| !l.starts_with('#')).collect();
    let got = rows();
    assert_eq!(got.len(), want.len(), "grid size");
    for (got, want) in got.iter().zip(want) {
        assert_eq!(got, want);
    }
}

#[test]
#[ignore = "rewrites tests/iperf_bits.txt from the current DES"]
fn regenerate_pinned_table() {
    let mut text = String::from(
        "# Every IperfReport field (floats as f64::to_bits hex) over the grid in\n\
         # iperf_bits.rs; regenerate with:\n\
         # cargo test -p rjam-core --test iperf_bits -- --ignored\n",
    );
    for line in rows() {
        text.push_str(&line);
        text.push('\n');
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/iperf_bits.txt");
    std::fs::write(path, text).expect("write the pinned table");
}
