//! Overhead of the online link-health monitor.
//!
//! The scenario pair runs in the *same process*, interleaved: each label
//! is measured with a `HealthMonitor` attached (suite `health`) and
//! without one (suite `health_unmonitored`), under identical
//! (bench, params) labels, in several alternating off/on rounds. CI feeds
//! both reports to `check baseline --max-ratio 1.02 --stat min`: the
//! monitored run must stay within 2 % of the unmonitored one — the
//! monitor's per-frame cost is one branch plus window arithmetic, so
//! anything above that is a regression in the MAC hot path. The gate is
//! built for a contended runner: short 0.02 s scenario slices dodge
//! scheduler preemption, best-of-N (spikes only ever inflate a sample)
//! absorbs background load, and the alternating rounds — min-merged by
//! `check baseline`, which collapses duplicate labels to their best
//! value — cancel the few-percent block-to-block CPU drift that a single
//! all-off-then-all-on layout turns into a systematic bias.
//!
//! The detector microbench pins the primitives themselves: a million
//! CUSUM/EWMA/quantile updates, allocation-free after construction.

use rjam_bench::harness::{BenchConfig, Harness};
use rjam_core::campaign::{scenario_for, JammerUnderTest};
use rjam_mac::ScenarioRun;
use rjam_obs::health::{Cusum, EwmaBaseline, RollingQuantile};
use rjam_obs::{HealthConfig, HealthMonitor};
use std::hint::black_box;

fn main() {
    let mut cfg = BenchConfig::default();
    if std::env::var_os("RJAM_BENCH_SAMPLES").is_none() {
        cfg.samples = 10;
    }
    // The overhead gate compares best-of-N batches of a ~1 ms scenario
    // slice: batches long enough to average several iterations, enough of
    // them that the min converges, and blocks short enough that the paired
    // on/off measurements sit adjacent in time — all sized for the reduced
    // CI smoke settings on a contended single-core runner.
    cfg.samples = cfg.samples.max(12);
    cfg.batch_target = cfg.batch_target.max(std::time::Duration::from_millis(10));

    let mut on = Harness::with_config("health", cfg.clone());
    let mut off = Harness::with_config("health_unmonitored", cfg);

    for (label, jut, sir) in [
        ("mac_slice_clean", JammerUnderTest::Off, 60.0),
        ("mac_slice_jammed", JammerUnderTest::ReactiveLong, 14.0),
    ] {
        // Several rounds per label in ABBA order (off/on, then on/off):
        // a single all-off-then-all-on layout lets slow block-to-block
        // CPU drift land entirely on one side and read as a systematic
        // few-percent "overhead" (measured ~3 % on a contended box, while
        // a finely interleaved probe of the same pair measures < 0.5 %),
        // and alternating which side goes first cancels drift that is
        // linear across a round. `check baseline` min-merges the duplicate
        // labels.
        for round in 0..4 {
            let run_off = |off: &mut Harness| {
                off.bench("iperf_slice", label, || {
                    let sc = scenario_for(jut, sir, 0.02, 77);
                    black_box(ScenarioRun::new(black_box(&sc)).run())
                });
            };
            let run_on = |on: &mut Harness| {
                on.bench("iperf_slice", label, || {
                    let sc = scenario_for(jut, sir, 0.02, 77);
                    let mut mon = HealthMonitor::new(HealthConfig::default());
                    black_box(ScenarioRun::new(black_box(&sc)).health(&mut mon).run())
                });
            };
            if round % 2 == 0 {
                run_off(&mut off);
                run_on(&mut on);
            } else {
                run_on(&mut on);
                run_off(&mut off);
            }
        }
    }

    on.bench_throughput(
        "detector_updates",
        "cusum_ewma_quantile_1m",
        1_000_000,
        || {
            let mut cusum = Cusum::new(0.2, 1e12);
            let mut ewma = EwmaBaseline::new(0.3);
            let mut q = RollingQuantile::new(64);
            let mut trips = 0u32;
            for i in 0..1_000_000u64 {
                let x = (i % 97) as f64 / 97.0;
                trips += u32::from(cusum.update(x));
                ewma.update(x);
                q.push(x);
            }
            black_box((trips, ewma.mean(), q.quantile(0.99)))
        },
    );

    on.finish();
    off.finish();
}
