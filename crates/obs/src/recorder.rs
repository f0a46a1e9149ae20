//! Fixed-capacity flight recorder with an anomaly-triggered dump.
//!
//! The hardware idiom: a ring of the most recent N structured events
//! (cycle- or sample-indexed), always recording, overwriting the oldest.
//! When an anomaly *trips* the recorder — a response-time budget violation,
//! a FIFO overflow — the ring is frozen into a dump so the events *leading
//! up to* the anomaly survive, exactly like a logic analyzer's pre-trigger
//! window (and like this repo's own `TriggerCapture` does for IQ samples).
//!
//! Components embed their own [`FlightRecorder`]; a process-wide recorder
//! ([`record_event`] / [`trip_global`]) exists for cross-component
//! milestones (autonomous-jammer state transitions, campaign phases) and is
//! what a [`crate::MetricsSnapshot`] captures.

/// One structured event: a static kind plus two free-form operands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsEvent {
    /// Monotone sequence number (total events ever recorded, 1-based).
    pub seq: u64,
    /// Timestamp in the component's own unit (cycles, samples, µs).
    pub t: u64,
    /// Static event kind, e.g. `"xcorr_fire"`.
    pub kind: &'static str,
    /// First operand (meaning depends on `kind`).
    pub a: i64,
    /// Second operand.
    pub b: i64,
}

/// Why and when the recorder tripped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TripInfo {
    /// Timestamp of the anomaly.
    pub t: u64,
    /// Static reason, e.g. `"t_resp_over_budget"`.
    pub reason: &'static str,
    /// Sequence number at trip time.
    pub seq: u64,
}

#[cfg(feature = "obs")]
mod enabled {
    use super::{ObsEvent, TripInfo};
    use std::collections::VecDeque;
    use std::sync::{Mutex, OnceLock};

    /// Ring buffer of recent events, freezable on anomaly.
    #[derive(Clone, Debug)]
    pub struct FlightRecorder {
        cap: usize,
        seq: u64,
        ring: VecDeque<ObsEvent>,
        trip: Option<TripInfo>,
        frozen: Vec<ObsEvent>,
    }

    impl FlightRecorder {
        /// Creates a recorder keeping the `cap` most recent events.
        ///
        /// # Panics
        /// Panics if `cap == 0`.
        pub fn new(cap: usize) -> Self {
            assert!(cap > 0, "flight recorder capacity must be positive");
            FlightRecorder {
                cap,
                seq: 0,
                ring: VecDeque::with_capacity(cap),
                trip: None,
                frozen: Vec::new(),
            }
        }

        /// Records one event, evicting the oldest when full.
        #[inline]
        pub fn record(&mut self, t: u64, kind: &'static str, a: i64, b: i64) {
            self.seq += 1;
            if self.ring.len() == self.cap {
                self.ring.pop_front();
            }
            self.ring.push_back(ObsEvent {
                seq: self.seq,
                t,
                kind,
                a,
                b,
            });
        }

        /// Trips the recorder: the *first* trip freezes a copy of the ring
        /// (the pre-anomaly window); later trips are ignored so the original
        /// context is preserved.
        pub fn trip(&mut self, t: u64, reason: &'static str) {
            if self.trip.is_none() {
                self.trip = Some(TripInfo {
                    t,
                    reason,
                    seq: self.seq,
                });
                self.frozen = self.ring.iter().copied().collect();
                crate::registry::counter("obs.recorder_trips").inc();
            }
        }

        /// True once an anomaly has tripped the recorder.
        pub fn is_tripped(&self) -> bool {
            self.trip.is_some()
        }

        /// The first trip, if any.
        pub fn trip_info(&self) -> Option<TripInfo> {
            self.trip
        }

        /// Events recorded since construction (total, not ring occupancy).
        pub fn total(&self) -> u64 {
            self.seq
        }

        /// Events currently in the ring, oldest first.
        pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
            self.ring.iter()
        }

        /// The anomaly dump: the frozen pre-trip window if tripped,
        /// otherwise the live ring.
        pub fn dump(&self) -> Vec<ObsEvent> {
            if self.trip.is_some() {
                self.frozen.clone()
            } else {
                self.ring.iter().copied().collect()
            }
        }

        /// Clears events and trip state, keeping the capacity.
        pub fn clear(&mut self) {
            self.ring.clear();
            self.frozen.clear();
            self.trip = None;
            self.seq = 0;
        }
    }

    fn global() -> &'static Mutex<FlightRecorder> {
        static REC: OnceLock<Mutex<FlightRecorder>> = OnceLock::new();
        REC.get_or_init(|| Mutex::new(FlightRecorder::new(super::GLOBAL_CAPACITY)))
    }

    /// Records into the process-wide flight recorder.
    pub fn record_event(t: u64, kind: &'static str, a: i64, b: i64) {
        global()
            .lock()
            .expect("obs recorder lock")
            .record(t, kind, a, b);
    }

    /// Records a batch of same-kind `(t, a, b)` events into the
    /// process-wide flight recorder, in order, under one lock.
    pub fn record_events(kind: &'static str, events: impl IntoIterator<Item = (u64, i64, i64)>) {
        let mut rec = global().lock().expect("obs recorder lock");
        for (t, a, b) in events {
            rec.record(t, kind, a, b);
        }
    }

    /// Trips the process-wide flight recorder.
    pub fn trip_global(t: u64, reason: &'static str) {
        global().lock().expect("obs recorder lock").trip(t, reason);
    }

    /// Dump plus trip info of the process-wide recorder.
    pub fn global_dump() -> (Vec<ObsEvent>, Option<TripInfo>) {
        let rec = global().lock().expect("obs recorder lock");
        (rec.dump(), rec.trip_info())
    }

    /// Clears the process-wide recorder.
    pub fn global_reset() {
        global().lock().expect("obs recorder lock").clear();
    }
}

#[cfg(feature = "obs")]
pub use enabled::*;

#[cfg(not(feature = "obs"))]
mod disabled {
    use super::{ObsEvent, TripInfo};

    /// Zero-sized no-op recorder (`obs` feature disabled).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct FlightRecorder;

    impl FlightRecorder {
        /// A no-op recorder.
        pub fn new(_cap: usize) -> Self {
            FlightRecorder
        }
        /// No-op.
        #[inline(always)]
        pub fn record(&mut self, _t: u64, _kind: &'static str, _a: i64, _b: i64) {}
        /// No-op.
        #[inline(always)]
        pub fn trip(&mut self, _t: u64, _reason: &'static str) {}
        /// Always false.
        #[inline(always)]
        pub fn is_tripped(&self) -> bool {
            false
        }
        /// Always `None`.
        #[inline(always)]
        pub fn trip_info(&self) -> Option<TripInfo> {
            None
        }
        /// Always 0.
        #[inline(always)]
        pub fn total(&self) -> u64 {
            0
        }
        /// Always empty.
        pub fn events(&self) -> impl Iterator<Item = &ObsEvent> {
            [].iter()
        }
        /// Always empty.
        pub fn dump(&self) -> Vec<ObsEvent> {
            Vec::new()
        }
        /// No-op.
        #[inline(always)]
        pub fn clear(&mut self) {}
    }

    /// No-op (`obs` feature disabled).
    #[inline(always)]
    pub fn record_event(_t: u64, _kind: &'static str, _a: i64, _b: i64) {}

    /// No-op (`obs` feature disabled).
    #[inline(always)]
    pub fn record_events(_kind: &'static str, _events: impl IntoIterator<Item = (u64, i64, i64)>) {}

    /// No-op (`obs` feature disabled).
    #[inline(always)]
    pub fn trip_global(_t: u64, _reason: &'static str) {}

    /// Always empty (`obs` feature disabled).
    pub fn global_dump() -> (Vec<ObsEvent>, Option<TripInfo>) {
        (Vec::new(), None)
    }

    /// No-op (`obs` feature disabled).
    #[inline(always)]
    pub fn global_reset() {}
}

#[cfg(not(feature = "obs"))]
pub use disabled::*;

/// Capacity of the process-wide flight recorder.
pub const GLOBAL_CAPACITY: usize = 1024;

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent() {
        let mut r = FlightRecorder::new(3);
        for t in 1..=5u64 {
            r.record(t, "tick", t as i64, 0);
        }
        let ts: Vec<u64> = r.events().map(|e| e.t).collect();
        assert_eq!(ts, vec![3, 4, 5]);
        assert_eq!(r.total(), 5);
        let seqs: Vec<u64> = r.events().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![3, 4, 5], "seq is monotone across eviction");
    }

    #[test]
    fn first_trip_freezes_dump() {
        let mut r = FlightRecorder::new(4);
        r.record(10, "a", 0, 0);
        r.record(20, "b", 0, 0);
        r.trip(25, "anomaly_one");
        // Post-trip events keep recording but do not disturb the dump.
        r.record(30, "c", 0, 0);
        r.trip(35, "anomaly_two");
        let info = r.trip_info().expect("tripped");
        assert_eq!(info.reason, "anomaly_one");
        assert_eq!(info.t, 25);
        let dump: Vec<&'static str> = r.dump().iter().map(|e| e.kind).collect();
        assert_eq!(dump, vec!["a", "b"], "dump is the pre-anomaly window");
        let live: Vec<&'static str> = r.events().map(|e| e.kind).collect();
        assert_eq!(live, vec!["a", "b", "c"], "ring keeps recording");
    }

    #[test]
    fn trips_surface_in_the_registry() {
        // Delta assertion: other tests (and trip_global floods) share the
        // counter. Only the *first* trip of a recorder counts.
        let before = crate::registry::counter_value("obs.recorder_trips");
        let mut r = FlightRecorder::new(2);
        r.record(1, "x", 0, 0);
        r.trip(2, "anomaly");
        r.trip(3, "ignored_retrip");
        let after = crate::registry::counter_value("obs.recorder_trips");
        // > not ==: parallel tests trip their own recorders concurrently.
        assert!(after > before, "first trip must count: {before} -> {after}");
    }

    #[test]
    fn untripped_dump_is_live_ring() {
        let mut r = FlightRecorder::new(2);
        r.record(1, "x", 0, 0);
        assert_eq!(r.dump().len(), 1);
        assert!(!r.is_tripped());
    }

    #[test]
    fn wrapped_ring_dumps_in_chronological_order() {
        // Wrap the ring almost three times: the dump must still read
        // oldest-first with contiguous sequence numbers, exactly like a
        // logic analyzer's pre-trigger window.
        let mut r = FlightRecorder::new(4);
        for t in 1..=11u64 {
            r.record(t * 10, "tick", t as i64, 0);
        }
        let dump = r.dump();
        assert_eq!(dump.len(), 4);
        let ts: Vec<u64> = dump.iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![80, 90, 100, 110], "oldest-first after wrap");
        let seqs: Vec<u64> = dump.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![8, 9, 10, 11], "seq contiguous across eviction");
        assert_eq!(r.total(), 11);
    }

    #[test]
    fn trip_at_capacity_preserves_pre_anomaly_window() {
        let mut r = FlightRecorder::new(3);
        for t in 1..=3u64 {
            r.record(t, "fill", 0, 0);
        }
        // Ring exactly full: a trip at this boundary must freeze the whole
        // window, and later floods must not leak into the dump.
        r.trip(4, "at_capacity");
        for t in 5..=20u64 {
            r.record(t, "post", 0, 0);
        }
        let dump = r.dump();
        assert_eq!(dump.iter().map(|e| e.t).collect::<Vec<_>>(), vec![1, 2, 3]);
        assert_eq!(r.trip_info().expect("tripped").seq, 3);
    }

    #[test]
    fn trip_global_near_capacity_keeps_trip_and_window() {
        // The only test in this binary that touches the process-wide
        // recorder (registry tests don't), so no cross-test interference.
        global_reset();
        for t in 0..(GLOBAL_CAPACITY as u64 + 10) {
            record_event(t, "flood", t as i64, 0);
        }
        trip_global(99_999, "global_anomaly");
        // Keep flooding after the trip: the frozen dump must survive.
        for t in 0..50u64 {
            record_event(t + 1_000_000, "after", 0, 0);
        }
        let (dump, trip) = global_dump();
        let trip = trip.expect("trip survived the flood");
        assert_eq!(trip.reason, "global_anomaly");
        assert_eq!(trip.t, 99_999);
        assert_eq!(
            dump.len(),
            GLOBAL_CAPACITY,
            "full pre-anomaly window, nothing dropped"
        );
        assert!(dump.windows(2).all(|w| w[1].seq == w[0].seq + 1));
        assert!(dump.iter().all(|e| e.kind == "flood"), "no post-trip leak");
        global_reset();
    }

    #[test]
    fn clear_resets_everything() {
        let mut r = FlightRecorder::new(2);
        r.record(1, "x", 0, 0);
        r.trip(2, "y");
        r.clear();
        assert!(!r.is_tripped());
        assert_eq!(r.total(), 0);
        assert!(r.dump().is_empty());
    }
}
