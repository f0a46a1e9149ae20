//! The health monitor buffers its `health.frame_degraded` records and
//! writes them into the process-wide flight recorder in batches. This test
//! binary is the only user of that recorder in its process, so it can
//! check exactly what lands there, in which order, and when.

#![cfg(feature = "obs")]

use rjam_obs::health::{HealthEvent, DEGRADED_KIND};
use rjam_obs::recorder::{global_dump, global_reset, FlightRecorder, GLOBAL_CAPACITY};
use rjam_obs::HealthMonitor;

/// `(frame, frame id, jammed)` of every degraded-frame event recorded.
fn degraded() -> Vec<(u64, i64, i64)> {
    let (events, _) = global_dump();
    assert!(
        events.windows(2).all(|w| w[1].seq == w[0].seq + 1),
        "one record per event"
    );
    events
        .iter()
        .filter(|e| e.kind == DEGRADED_KIND)
        .map(|e| (e.t, e.a, e.b))
        .collect()
}

#[test]
fn the_recorder_holds_what_per_frame_writes_would_have_left() {
    // Both checks read the one process-wide recorder, so they run in turn.
    records_land_at_alarm_finish_and_drop();
    a_long_jammed_feed_matches_per_frame_writes();
}

fn records_land_at_alarm_finish_and_drop() {
    global_reset();
    let mut mon = HealthMonitor::new(4);
    mon.note_frame(0x11, false, false); // lost
    mon.note_frame(0x12, true, true); // delivered, but jammed
    mon.note_frame(0x13, true, false); // clean: never recorded
    mon.note_frame(0x14, false, true);
    assert!(mon.healthy());
    assert!(degraded().is_empty(), "a closed window writes nothing");
    for fid in 0x15..=0x1c {
        mon.note_frame(fid, false, false);
    }
    assert!(!mon.healthy(), "the CUSUM trips in the third window");
    let flushed = [(1, 0x11, 0), (2, 0x12, 1), (4, 0x14, 1)];
    let at_alarm: Vec<_> = flushed
        .into_iter()
        .chain((5..=12).map(|f| (f, f as i64 + 0x10, 0)))
        .collect();
    assert_eq!(degraded(), at_alarm, "an alarm writes first");

    mon.note_frame(0x1d, false, false);
    mon.finish();
    assert_eq!(degraded().last(), Some(&(13, 0x1d, 0)), "finish writes");

    let mut dropped = HealthMonitor::new(4);
    dropped.note_frame(0x21, false, true);
    drop(dropped);
    assert_eq!(degraded().len(), at_alarm.len() + 2);
    assert_eq!(degraded().last(), Some(&(1, 0x21, 1)), "drop writes");
    global_reset();
}

/// A jammed run's feed, long enough to fill the monitor's buffer and wrap
/// the recorder: a healthy lead-in, a collapse, a recovery, then mixed
/// outcomes. A private recorder written once per degraded frame is the
/// reference for what the process-wide one must hold afterwards.
fn a_long_jammed_feed_matches_per_frame_writes() {
    global_reset();
    let mut reference = FlightRecorder::new(GLOBAL_CAPACITY);
    let mut history: Vec<(u64, u64)> = Vec::new();
    let mut mon = HealthMonitor::new(16);
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    for frame in 1..=4_000u64 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let draw = state >> 33;
        let (delivered, jammed) = match frame {
            1..=160 => (true, false),
            161..=560 => (draw.is_multiple_of(8), !draw.is_multiple_of(4)),
            561..=760 => (true, false),
            _ => (!draw.is_multiple_of(3), draw % 5 < 2),
        };
        let id = frame.wrapping_mul(0x2545_F491_4F6C_DD1D);
        mon.note_frame(id, delivered, jammed);
        if !delivered || jammed {
            reference.record(frame, DEGRADED_KIND, id as i64, i64::from(jammed));
            history.push((frame, id));
        }
    }
    assert!(
        history.len() > 2 * GLOBAL_CAPACITY,
        "the feed wraps the ring"
    );
    mon.finish();

    let (recorded, _) = global_dump();
    assert_eq!(recorded, reference.dump());

    let mut alarms = 0;
    for ev in mon.events() {
        if let HealthEvent::AlarmRaised { frame, frames, .. } = ev {
            let before: Vec<u64> = history
                .iter()
                .filter(|(f, _)| f <= frame)
                .map(|&(_, id)| id)
                .collect();
            assert_eq!(frames[..], before[before.len().saturating_sub(8)..]);
            alarms += 1;
        }
    }
    assert!(alarms >= 2, "{:?}", mon.events());
    assert!(mon
        .events()
        .iter()
        .any(|e| matches!(e, HealthEvent::AlarmCleared { .. })));
    global_reset();
}
