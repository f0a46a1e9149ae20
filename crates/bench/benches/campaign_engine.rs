//! The sharded campaign engine: wall-clock scaling and the determinism
//! contract, measured on one Fig.5-scale detection sweep.
//!
//! Records the same workload at 1, 2 and 4 worker threads. The sweep
//! splits into fine-grained `(snr, seed-block)` cells (many more units
//! than workers) and each worker pools one detector core, so on
//! multi-core hardware the 4-thread record shows real parallel speedup;
//! on a single-core runner all three records collapse to roughly the same
//! wall-clock (the residual is pool setup and scheduling, which the
//! `check ratio` thread-scaling gate bounds) — the numbers written to
//! `BENCH_campaign_engine.json` are measured, never extrapolated.
//!
//! Every iteration also cross-checks determinism: the sharded result is
//! compared against a serial reference run of the same spec, and the bench
//! panics on any mismatch. A passing bench is therefore also a passing
//! determinism gate.

use rjam_bench::harness::{BenchConfig, Harness};
use rjam_core::campaign::{CampaignSpec, DetectionPoint, WifiEmission};
use rjam_core::{CampaignEngine, DetectionPreset};
use std::hint::black_box;

/// A Fig.5-scale sweep: 8 SNR points at 120 frames each — 960 frames,
/// split by the engine into 8-frame cells (120 units).
fn sweep(engine: &CampaignEngine) -> Vec<DetectionPoint> {
    CampaignSpec::wifi_detection(&DetectionPreset::WifiShortPreamble { threshold: 0.35 })
        .emission(WifiEmission::FullFrames { psdu_len: 100 })
        .snr_range(-9.0, 12.0, 3.0)
        .trials(120)
        .seed(0x5CA1E)
        .run(engine)
}

fn assert_bitwise_equal(a: &[DetectionPoint], b: &[DetectionPoint], threads: usize) {
    assert_eq!(a.len(), b.len(), "point count differs at {threads} threads");
    for (x, y) in a.iter().zip(b.iter()) {
        assert!(
            x.snr_db.to_bits() == y.snr_db.to_bits()
                && x.p_detect.to_bits() == y.p_detect.to_bits()
                && x.triggers_per_frame.to_bits() == y.triggers_per_frame.to_bits(),
            "sharded run at {threads} threads diverged from the serial reference"
        );
    }
}

fn main() {
    // Macro bench: long per-iteration, keep samples modest by default.
    let mut cfg = BenchConfig::default();
    if std::env::var_os("RJAM_BENCH_SAMPLES").is_none() {
        cfg.samples = 10;
    }
    let mut h = Harness::with_config("campaign_engine", cfg);

    // The serial reference, computed once, pins every timed run below.
    let reference = sweep(&CampaignEngine::serial());

    for threads in [1usize, 2, 4] {
        let engine = CampaignEngine::with_threads(threads);
        h.set_threads(engine.threads());
        h.bench(
            "detection_sweep_8pt_120f",
            &format!("threads_{threads}"),
            || {
                let got = sweep(&engine);
                assert_bitwise_equal(&reference, &got, threads);
                black_box(got)
            },
        );
    }

    h.finish();
}
