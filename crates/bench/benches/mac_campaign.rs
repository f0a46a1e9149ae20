//! Macro benchmarks of the evaluation layer: how fast a simulated iperf
//! second runs, and the cost of a full detection-probability point — the
//! quantities that determine how long the figure regeneration takes.

use rjam_bench::harness::{BenchConfig, Harness};
use rjam_core::campaign::{scenario_for, CampaignSpec, JammerUnderTest, WifiEmission};
use rjam_core::{CampaignEngine, DetectionPreset};
use rjam_mac::ScenarioRun;
use std::hint::black_box;

fn main() {
    // Macro benches are long per-iteration; match criterion's reduced
    // sample_size(10) unless the environment overrides it.
    let mut cfg = BenchConfig::default();
    if std::env::var_os("RJAM_BENCH_SAMPLES").is_none() {
        cfg.samples = 10;
    }
    let mut h = Harness::with_config("mac_campaign", cfg);

    for (label, jut, sir) in [
        ("clean", JammerUnderTest::Off, 60.0),
        ("continuous_20db", JammerUnderTest::Continuous, 20.0),
        ("reactive_long_20db", JammerUnderTest::ReactiveLong, 20.0),
    ] {
        h.bench_throughput("iperf_one_second", label, 1, || {
            let sc = scenario_for(jut, sir, 1.0, 77);
            black_box(ScenarioRun::new(black_box(&sc)).run())
        });
    }

    let engine = CampaignEngine::serial();
    h.bench(
        "detection_point",
        "short_preamble_20_frames_one_snr",
        || {
            black_box(
                CampaignSpec::wifi_detection(&DetectionPreset::WifiShortPreamble {
                    threshold: 0.35,
                })
                .emission(WifiEmission::FullFrames { psdu_len: 100 })
                .snrs(&[5.0])
                .trials(20)
                .seed(99)
                .run(&engine),
            )
        },
    );

    h.finish();
}
