//! The health monitor buffers its `health.frame_degraded` records and
//! writes them into the process-wide flight recorder in batches. This test
//! binary is the only user of that recorder in its process, so it can
//! check exactly what lands there, in which order, and when.

#![cfg(feature = "obs")]

use rjam_obs::health::DEGRADED_KIND;
use rjam_obs::recorder::{global_dump, global_reset};
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
fn degraded_frames_reach_the_recorder_in_order_at_window_finish_and_drop() {
    global_reset();
    let mut mon = HealthMonitor::new(4);
    mon.note_frame(0x11, false, false); // lost
    mon.note_frame(0x12, true, true); // delivered, but jammed
    mon.note_frame(0x13, true, false); // clean: never recorded
    assert!(degraded().is_empty(), "buffered until the window closes");
    mon.note_frame(0x14, false, true);
    assert_eq!(degraded(), [(1, 0x11, 0), (2, 0x12, 1), (4, 0x14, 1)]);

    mon.note_frame(0x15, false, false);
    mon.finish();
    assert_eq!(degraded().last(), Some(&(5, 0x15, 0)), "finish flushes");

    let mut dropped = HealthMonitor::new(4);
    dropped.note_frame(0x21, false, true);
    drop(dropped);
    assert_eq!(
        degraded(),
        [
            (1, 0x11, 0),
            (2, 0x12, 1),
            (4, 0x14, 1),
            (5, 0x15, 0),
            (1, 0x21, 1)
        ],
        "drop flushes"
    );
    global_reset();
}
