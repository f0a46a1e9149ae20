//! End-to-end `rjam-progress-v1` streaming and engine-profile tests.
//!
//! These live in their own integration-test binary (own process) because
//! the progress sink and the campaign guard are process-wide: unit tests
//! of other campaigns running in parallel threads of the lib test binary
//! would race for stream ownership. The scenarios below share one `#[test]`
//! for the same reason — a second test in this binary would run in
//! parallel with it, grab the installed sink and race the profile store.

#![cfg(feature = "obs")]

use rjam_core::engine::{shard_seed, CampaignEngine, CancelToken};
use rjam_obs::stream::{self, ProgressEvent};
use rjam_obs::telemetry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// A `Write` sink the test can read back after `uninstall`.
#[derive(Clone, Default)]
struct Buf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for Buf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buf lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn capture<F: FnOnce()>(run: F) -> Vec<ProgressEvent> {
    let buf = Buf::default();
    stream::install(Box::new(buf.clone()));
    run();
    stream::uninstall();
    let text = String::from_utf8(buf.0.lock().expect("buf lock").clone()).expect("utf8");
    stream::parse_stream(&text).unwrap_or_else(|e| panic!("stream parses: {e}\n{text}"))
}

fn busy_unit(index: usize) -> u64 {
    // A deterministic ~100 µs of real work per unit, so busy time
    // dominates and timings are non-trivial on any box.
    let mut acc = index as u64 ^ 0x9E37_79B9;
    for _ in 0..20_000 {
        acc = acc
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
    }
    acc
}

#[test]
fn engine_streams_one_valid_chain_and_publishes_a_profile() {
    // --- Scenario 1: a parallel campaign emits a complete, valid chain.
    let events = capture(|| {
        let out = CampaignEngine::with_threads(3).run(
            "progress_e2e",
            24,
            0xFEED,
            || (),
            |_, ctx| busy_unit(ctx.index),
        );
        // Streaming must not perturb results.
        let serial = CampaignEngine::serial().run(
            "progress_e2e_serial",
            24,
            0xFEED,
            || (),
            |_, ctx| busy_unit(ctx.index),
        );
        assert_eq!(out, serial, "telemetry must never change outputs");
    });
    // Two campaigns ran inside the capture, one after the other: split at
    // the chain boundary and validate each.
    let done_positions: Vec<usize> = events
        .iter()
        .enumerate()
        .filter(|(_, e)| matches!(e, ProgressEvent::Done { .. }))
        .map(|(k, _)| k)
        .collect();
    assert_eq!(done_positions.len(), 2, "two sequential campaigns");
    let first = &events[..=done_positions[0]];
    let second = &events[done_positions[0] + 1..];
    stream::validate_chain(first).expect("parallel chain validates");
    stream::validate_chain(second).expect("serial chain validates");
    let ProgressEvent::Started {
        kind,
        units,
        workers,
        seed,
        ..
    } = &first[0]
    else {
        panic!("first event is campaign_started")
    };
    assert_eq!(kind, "progress_e2e");
    assert_eq!(*units, 24);
    assert_eq!(*workers, 3);
    assert_eq!(*seed, 0xFEED);
    // Snapshots carry a real ETA while in flight.
    assert!(
        first
            .iter()
            .any(|e| matches!(e, ProgressEvent::Snapshot { done, total, .. } if done < total)),
        "at least one in-flight snapshot"
    );

    // --- Scenario 2: nested campaigns (whole serial sub-campaigns inside
    // shards) emit exactly one chain.
    let events = capture(|| {
        CampaignEngine::with_threads(2).run(
            "progress_nested_outer",
            6,
            7,
            || (),
            |_, ctx| {
                CampaignEngine::serial()
                    .run(
                        "progress_nested_inner",
                        4,
                        ctx.seed,
                        || (),
                        |_, c| busy_unit(c.index),
                    )
                    .len()
            },
        );
    });
    stream::validate_chain(&events).expect("nested run still yields one valid chain");
    assert_eq!(
        events
            .iter()
            .filter(|e| matches!(e, ProgressEvent::Started { .. }))
            .count(),
        1,
        "inner campaigns must stay silent"
    );
    let ProgressEvent::Started { kind, units, .. } = &events[0] else {
        panic!("first event is campaign_started")
    };
    assert_eq!(kind, "progress_nested_outer");
    assert_eq!(*units, 6);

    // --- Scenario 3: the published profile accounts for the run.
    let p = telemetry::profile_for("progress_e2e").expect("profile published");
    assert_eq!(p.units, 24);
    assert_eq!(p.shards, 12, "3 workers x OVERSHARD ranges");
    assert_eq!(p.workers.len(), 3);
    assert_eq!(p.workers.iter().map(|w| w.units).sum::<u64>(), 24);
    assert_eq!(p.unit_ns.count, 24);
    assert!(p.median_unit_ns > 0, "units do real work");
    // The lower bound is deliberately weak: on an oversubscribed 1-core
    // runner, worker spawn latency (in the denominator, attributable to
    // nothing) has been observed to push a debug-build micro-campaign's
    // fraction down to ~0.3. The tight attribution gates live where they
    // are meaningful: the serial profile below (structural, >= 0.95) and
    // ci.sh's release-build `rjamctl report` gate (>= 95 %).
    let f = p.attributed_fraction();
    assert!(
        f > 0.1 && f <= 1.0,
        "attribution in a sane range even on a loaded box: {f}"
    );
    // The serial campaign's attribution is structural (busy + idle ==
    // worker wall by construction), so it admits a tight bound.
    let p = telemetry::profile_for("progress_e2e_serial").expect("serial profile");
    assert_eq!(p.workers.len(), 1);
    assert!(
        p.attributed_fraction() >= 0.95,
        "serial attribution: {}",
        p.attributed_fraction()
    );
    // Engine aggregates reached the registry.
    assert!(rjam_obs::registry::counter_value("core.engine_busy_ns") > 0);
    let unit_hist = rjam_obs::registry::histogram("core.engine_unit_ns").snapshot();
    assert!(unit_hist.count() >= 24 + 24 + 24 + 6);

    // --- Scenario 4: a run carrying a CancelToken — as every rjamd job
    // does — streams, profiles and measures merge-wait like any other.
    let token = CancelToken::new();
    let events = capture(|| {
        let out = CampaignEngine::with_threads(3)
            .run_units(
                "progress_cancellable",
                24,
                0xFEED,
                &mut BTreeMap::new(),
                Some(&token),
                || (),
                |_, ctx| busy_unit(ctx.index),
            )
            .expect("an untripped token lets the run complete");
        assert_eq!(out.len(), 24);
    });
    stream::validate_chain(&events).expect("interruptible chain validates");
    let p = telemetry::profile_for("progress_cancellable")
        .expect("interruptible runs publish a profile");
    assert_eq!(p.units, 24);
    assert_eq!(p.workers.iter().map(|w| w.units).sum::<u64>(), 24);
    let Some(ProgressEvent::Done {
        units,
        merge_wait_ns,
        ..
    }) = events.last()
    else {
        panic!("the chain ends in campaign_done")
    };
    assert_eq!(*units, 24);
    assert_eq!(
        *merge_wait_ns,
        p.merge_wait_ns(),
        "campaign_done carries the profile's merge-wait"
    );
    assert!(*merge_wait_ns > 0, "merge-wait is measured, not hard-coded");

    // --- Scenario 5: one unit sleeps ~20x the median: it must be flagged,
    // with the seed the engine actually used for it.
    CampaignEngine::with_threads(2).run(
        "straggler_e2e",
        16,
        0xBAD,
        || (),
        |_, ctx| {
            let ms = if ctx.index == 5 { 20 } else { 1 };
            std::thread::sleep(std::time::Duration::from_millis(ms));
            ctx.index
        },
    );
    let p = telemetry::profile_for("straggler_e2e").expect("profile");
    let s = p
        .stragglers
        .iter()
        .find(|s| s.unit == 5)
        .unwrap_or_else(|| panic!("unit 5 flagged: {:?}", p.stragglers));
    assert_eq!(
        s.seed,
        shard_seed(0xBAD, 5),
        "straggler seed is reproducible"
    );
    assert!(s.duration_ns > 4 * p.median_unit_ns);
    // And it landed in the flight recorder.
    let (events, _) = rjam_obs::recorder::global_dump();
    assert!(
        events
            .iter()
            .any(|e| e.kind == "engine_straggler" && e.a == 5),
        "straggler reaches the flight recorder"
    );

    // --- Scenario 6: without a sink, campaigns stay silent but still
    // profile.
    telemetry::clear();
    CampaignEngine::with_threads(2).run(
        "progress_silent",
        8,
        1,
        || (),
        |_, ctx| busy_unit(ctx.index),
    );
    assert!(telemetry::profile_for("progress_silent").is_some());
}
