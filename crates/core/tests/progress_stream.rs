//! End-to-end `rjam-progress-v1` streaming and engine-profile tests.
//!
//! Each test builds and reads only its own engines, so the tests are
//! independent of one another.

#![cfg(feature = "obs")]

use rjam_core::engine::{shard_seed, CampaignEngine, CancelToken};
use rjam_obs::stream::{self, ProgressEvent};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// `engine` with a progress sink that collects its events' lines, and
/// the lines.
fn capturing(engine: CampaignEngine) -> (CampaignEngine, Arc<Mutex<Vec<String>>>) {
    let lines = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&lines);
    let engine = engine.with_progress(Arc::new(move |ev: &ProgressEvent| {
        sink.lock().expect("lines lock").push(ev.to_line());
    }));
    (engine, lines)
}

fn events(lines: &Mutex<Vec<String>>) -> Vec<ProgressEvent> {
    let text: String = lines
        .lock()
        .expect("lines lock")
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
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
fn parallel_campaign_streams_one_valid_chain_and_publishes_a_profile() {
    let (engine, lines) = capturing(CampaignEngine::with_threads(3));
    let out = engine.run(
        "progress_e2e",
        24,
        0xFEED,
        || (),
        |_, ctx| busy_unit(ctx.index),
    );
    // Streaming must not perturb results.
    let serial = CampaignEngine::serial().run(
        "progress_e2e",
        24,
        0xFEED,
        || (),
        |_, ctx| busy_unit(ctx.index),
    );
    assert_eq!(out, serial, "telemetry must never change outputs");
    let events = events(&lines);
    stream::validate_chain(&events).expect("parallel chain validates");
    let ProgressEvent::Started {
        kind,
        units,
        workers,
        seed,
        ..
    } = &events[0]
    else {
        panic!("first event is campaign_started")
    };
    assert_eq!(kind, "progress_e2e");
    assert_eq!(*units, 24);
    assert_eq!(*workers, 3);
    assert_eq!(*seed, 0xFEED);
    // Snapshots carry a real ETA while in flight.
    assert!(
        events
            .iter()
            .any(|e| matches!(e, ProgressEvent::Snapshot { done, total, .. } if done < total)),
        "at least one in-flight snapshot"
    );

    // The published profile accounts for the run.
    let p = engine.profile("progress_e2e").expect("profile published");
    assert_eq!(p.units, 24);
    assert_eq!(p.shards, 12, "3 workers x OVERSHARD ranges");
    assert_eq!(p.workers.len(), 3);
    assert_eq!(p.workers.iter().map(|w| w.units).sum::<u64>(), 24);
    assert_eq!(p.unit_ns.count, 24);
    assert!(p.median_unit_ns > 0, "units do real work");
    // Each worker's buckets span the run from its start, spawn latency
    // included as idle, so the parallel bound is the serial one.
    let f = p.attributed_fraction();
    assert!((0.95..=1.0).contains(&f), "parallel attribution: {f}");
    // Engine aggregates reached the registry.
    assert!(rjam_obs::registry::counter_value("core.engine_busy_ns") > 0);
    let unit_hist = rjam_obs::registry::histogram("core.engine_unit_ns").snapshot();
    assert!(unit_hist.count() >= 24 + 24);
}

#[test]
fn serial_campaign_attribution_is_structural() {
    let (engine, lines) = capturing(CampaignEngine::serial());
    engine.run(
        "progress_serial",
        24,
        0xFEED,
        || (),
        |_, ctx| busy_unit(ctx.index),
    );
    stream::validate_chain(&events(&lines)).expect("serial chain validates");
    // busy + idle == worker wall by construction, so a tight bound holds.
    let p = engine.profile("progress_serial").expect("serial profile");
    assert_eq!(p.workers.len(), 1);
    assert!(
        p.attributed_fraction() >= 0.95,
        "serial attribution: {}",
        p.attributed_fraction()
    );
}

#[test]
fn nested_run_on_a_fresh_engine_stays_silent() {
    // Whole serial sub-campaigns inside the outer run's units: the inner
    // engines have no sink, so the stream holds exactly one chain.
    let (engine, lines) = capturing(CampaignEngine::with_threads(2));
    engine.run(
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
    let events = events(&lines);
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
    // The inner engines published into their own stores, not this one.
    assert!(engine.profile("progress_nested_inner").is_none());
}

#[test]
fn cancellable_run_streams_and_profiles_like_any_other() {
    // A run carrying a CancelToken — as every rjamd job does — streams,
    // profiles and measures merge-wait like any other.
    let (engine, lines) = capturing(CampaignEngine::with_threads(3));
    let token = CancelToken::new();
    let out = engine
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
    let events = events(&lines);
    stream::validate_chain(&events).expect("interruptible chain validates");
    let p = engine
        .profile("progress_cancellable")
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
}

#[test]
fn straggler_is_flagged_with_its_seed() {
    // One unit sleeps ~20x the median: it must be flagged, with the seed
    // the engine actually used for it.
    let engine = CampaignEngine::with_threads(2);
    engine.run(
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
    let p = engine.profile("straggler_e2e").expect("profile");
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
}

#[test]
fn engine_without_a_sink_profiles_into_a_store_its_clones_share() {
    let engine = CampaignEngine::with_threads(2);
    engine.run(
        "progress_silent",
        8,
        1,
        || (),
        |_, ctx| busy_unit(ctx.index),
    );
    assert!(engine.profile("progress_silent").is_some());
    // A clone shares the store; a fresh engine does not.
    assert!(engine.clone().profile("progress_silent").is_some());
    assert!(CampaignEngine::with_threads(2)
        .profile("progress_silent")
        .is_none());
}
