//! Process-wide metrics registry with cheap local shadows.
//!
//! Two tiers, mirroring the paper's split between the FPGA's internal
//! counters and the host's register-bus readback:
//!
//! * **Local** — [`LocalCounter`] / [`LocalHistogram`] live inside the
//!   component being measured (plain `u64` arithmetic, no atomics, no
//!   locks). This is the only thing the per-sample hot path touches.
//! * **Global** — [`counter`], [`gauge`], [`histogram`] resolve a static
//!   name to a process-wide handle. Locals are *flushed* into the globals
//!   at block or run boundaries (`DspCore::flush_obs`, end of a MAC
//!   scenario, ...), which is where a snapshot reads from.
//!
//! With the `obs` feature disabled all of these types are zero-sized and
//! every method is an inlined no-op, so instrumented code compiles
//! unchanged and costs nothing.

#[cfg(feature = "obs")]
mod enabled {
    use crate::hist::LogHistogram;
    use crate::snapshot::MetricsSnapshot;
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    #[derive(Default)]
    struct Inner {
        counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
        gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
        hists: Mutex<BTreeMap<&'static str, Arc<Mutex<LogHistogram>>>>,
    }

    fn global() -> &'static Inner {
        static REG: OnceLock<Inner> = OnceLock::new();
        REG.get_or_init(Inner::default)
    }

    /// Handle to a process-wide monotonic counter.
    #[derive(Clone)]
    pub struct Counter(Arc<AtomicU64>);

    impl Counter {
        /// Adds 1.
        pub fn inc(&self) {
            self.add(1);
        }

        /// Adds `n`.
        pub fn add(&self, n: u64) {
            if n > 0 {
                self.0.fetch_add(n, Ordering::Relaxed);
            }
        }

        /// Current value.
        pub fn get(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    /// Handle to a process-wide gauge (last-write or running-max semantics).
    #[derive(Clone)]
    pub struct Gauge(Arc<AtomicU64>);

    impl Gauge {
        /// Sets the gauge.
        pub fn set(&self, v: u64) {
            self.0.store(v, Ordering::Relaxed);
        }

        /// Raises the gauge to `v` if larger (high-water mark).
        pub fn set_max(&self, v: u64) {
            self.0.fetch_max(v, Ordering::Relaxed);
        }

        /// Current value.
        pub fn get(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    /// Handle to a process-wide histogram.
    #[derive(Clone)]
    pub struct HistHandle(Arc<Mutex<LogHistogram>>);

    impl HistHandle {
        /// Records one observation (takes the registry lock; prefer
        /// [`LocalHistogram`] on hot paths).
        pub fn record(&self, v: u64) {
            self.0.lock().expect("obs hist lock").record(v);
        }

        /// Drains a local histogram into this one.
        pub fn absorb_local(&self, local: &mut LocalHistogram) {
            if local.hist.is_empty() {
                return;
            }
            self.0.lock().expect("obs hist lock").absorb(&local.hist);
            local.hist.clear();
        }

        /// Merges an already-built histogram into this one (one lock, not
        /// one per observation).
        pub fn absorb(&self, other: &LogHistogram) {
            if other.is_empty() {
                return;
            }
            self.0.lock().expect("obs hist lock").absorb(other);
        }

        /// A point-in-time copy (for tests and snapshots).
        pub fn snapshot(&self) -> LogHistogram {
            self.0.lock().expect("obs hist lock").clone()
        }
    }

    /// Resolves (creating on first use) the counter named `name`.
    pub fn counter(name: &'static str) -> Counter {
        let mut map = global().counters.lock().expect("obs counter lock");
        Counter(Arc::clone(map.entry(name).or_default()))
    }

    /// Resolves (creating on first use) the gauge named `name`.
    pub fn gauge(name: &'static str) -> Gauge {
        let mut map = global().gauges.lock().expect("obs gauge lock");
        Gauge(Arc::clone(map.entry(name).or_default()))
    }

    /// Resolves (creating on first use) the histogram named `name`.
    pub fn histogram(name: &'static str) -> HistHandle {
        let mut map = global().hists.lock().expect("obs hist lock");
        HistHandle(Arc::clone(
            map.entry(name)
                .or_insert_with(|| Arc::new(Mutex::new(LogHistogram::new()))),
        ))
    }

    /// Current value of a counter without creating it.
    pub fn counter_value(name: &str) -> u64 {
        let map = global().counters.lock().expect("obs counter lock");
        map.get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Point-in-time view of every registered metric plus the global
    /// flight recorder.
    pub fn snapshot() -> MetricsSnapshot {
        let g = global();
        let counters = g
            .counters
            .lock()
            .expect("obs counter lock")
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = g
            .gauges
            .lock()
            .expect("obs gauge lock")
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = g
            .hists
            .lock()
            .expect("obs hist lock")
            .iter()
            .map(|(k, v)| (k.to_string(), v.lock().expect("obs hist lock").summary()))
            .collect();
        let (raw_events, raw_trip) = crate::recorder::global_dump();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
            events: raw_events
                .into_iter()
                .map(crate::snapshot::SnapEvent::from)
                .collect(),
            trip: raw_trip.map(crate::snapshot::SnapTrip::from),
        }
    }

    /// A plain-`u64` counter local to one component; flushed into the
    /// global registry with [`flush_counter`] / `Counter::add`.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct LocalCounter(u64);

    impl LocalCounter {
        /// A zeroed counter.
        pub const fn new() -> Self {
            LocalCounter(0)
        }

        /// Adds 1. This is the per-sample fast path: a register increment.
        #[inline(always)]
        pub fn inc(&mut self) {
            self.0 += 1;
        }

        /// Adds `n`.
        #[inline(always)]
        pub fn add(&mut self, n: u64) {
            self.0 += n;
        }

        /// Current local value (since last take).
        #[inline(always)]
        pub fn get(&self) -> u64 {
            self.0
        }

        /// Returns the local value and zeroes it.
        #[inline]
        pub fn take(&mut self) -> u64 {
            std::mem::take(&mut self.0)
        }
    }

    /// Flushes a local counter into the global counter named `name`.
    pub fn flush_counter(name: &'static str, local: &mut LocalCounter) {
        let n = local.take();
        if n > 0 {
            counter(name).add(n);
        }
    }

    /// A lock-free histogram local to one component; drained into the
    /// global registry via [`HistHandle::absorb_local`].
    #[derive(Clone, Debug)]
    pub struct LocalHistogram {
        pub(crate) hist: LogHistogram,
        total: u64,
    }

    impl Default for LocalHistogram {
        fn default() -> Self {
            Self::new()
        }
    }

    impl LocalHistogram {
        /// An empty local histogram.
        pub fn new() -> Self {
            LocalHistogram {
                hist: LogHistogram::new(),
                total: 0,
            }
        }

        /// Records one observation (no locks).
        #[inline]
        pub fn record(&mut self, v: u64) {
            self.hist.record(v);
            self.total += 1;
        }

        /// Observations recorded since construction (survives flushes).
        pub fn total(&self) -> u64 {
            self.total
        }

        /// Observations recorded since the last flush.
        pub fn pending(&self) -> u64 {
            self.hist.count()
        }
    }
}

#[cfg(feature = "obs")]
pub use enabled::*;

#[cfg(not(feature = "obs"))]
mod disabled {
    use crate::snapshot::MetricsSnapshot;

    /// No-op counter handle (`obs` feature disabled).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Counter;

    impl Counter {
        /// No-op.
        #[inline(always)]
        pub fn inc(&self) {}
        /// No-op.
        #[inline(always)]
        pub fn add(&self, _n: u64) {}
        /// Always 0.
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
    }

    /// No-op gauge handle (`obs` feature disabled).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct Gauge;

    impl Gauge {
        /// No-op.
        #[inline(always)]
        pub fn set(&self, _v: u64) {}
        /// No-op.
        #[inline(always)]
        pub fn set_max(&self, _v: u64) {}
        /// Always 0.
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
    }

    /// No-op histogram handle (`obs` feature disabled).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct HistHandle;

    impl HistHandle {
        /// No-op.
        #[inline(always)]
        pub fn record(&self, _v: u64) {}
        /// No-op.
        #[inline(always)]
        pub fn absorb_local(&self, _local: &mut LocalHistogram) {}
        /// No-op.
        #[inline(always)]
        pub fn absorb(&self, _other: &crate::hist::LogHistogram) {}
        /// Always empty.
        pub fn snapshot(&self) -> crate::hist::LogHistogram {
            crate::hist::LogHistogram::new()
        }
    }

    /// No-op resolve (`obs` feature disabled).
    #[inline(always)]
    pub fn counter(_name: &'static str) -> Counter {
        Counter
    }

    /// No-op resolve (`obs` feature disabled).
    #[inline(always)]
    pub fn gauge(_name: &'static str) -> Gauge {
        Gauge
    }

    /// No-op resolve (`obs` feature disabled).
    #[inline(always)]
    pub fn histogram(_name: &'static str) -> HistHandle {
        HistHandle
    }

    /// Always 0 (`obs` feature disabled).
    #[inline(always)]
    pub fn counter_value(_name: &str) -> u64 {
        0
    }

    /// Always empty (`obs` feature disabled).
    pub fn snapshot() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Zero-sized no-op counter (`obs` feature disabled).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct LocalCounter;

    impl LocalCounter {
        /// A no-op counter.
        pub const fn new() -> Self {
            LocalCounter
        }
        /// No-op.
        #[inline(always)]
        pub fn inc(&mut self) {}
        /// No-op.
        #[inline(always)]
        pub fn add(&mut self, _n: u64) {}
        /// Always 0.
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
        /// Always 0.
        #[inline(always)]
        pub fn take(&mut self) -> u64 {
            0
        }
    }

    /// No-op (`obs` feature disabled).
    #[inline(always)]
    pub fn flush_counter(_name: &'static str, _local: &mut LocalCounter) {}

    /// Zero-sized no-op histogram (`obs` feature disabled).
    #[derive(Clone, Copy, Debug, Default)]
    pub struct LocalHistogram;

    impl LocalHistogram {
        /// A no-op histogram.
        pub fn new() -> Self {
            LocalHistogram
        }
        /// No-op.
        #[inline(always)]
        pub fn record(&mut self, _v: u64) {}
        /// Always 0.
        #[inline(always)]
        pub fn total(&self) -> u64 {
            0
        }
        /// Always 0.
        #[inline(always)]
        pub fn pending(&self) -> u64 {
            0
        }
    }
}

#[cfg(not(feature = "obs"))]
pub use disabled::*;

#[cfg(all(test, feature = "obs"))]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_handles() {
        let c1 = counter("test.reg.counter_a");
        let c2 = counter("test.reg.counter_a");
        let before = c1.get();
        c1.add(3);
        c2.inc();
        assert_eq!(counter_value("test.reg.counter_a"), before + 4);
        assert_eq!(c1.get(), c2.get());
    }

    #[test]
    fn gauge_set_max_is_high_water() {
        let g = gauge("test.reg.gauge_hw");
        g.set(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn local_counter_flushes_once() {
        let mut lc = LocalCounter::new();
        lc.add(7);
        lc.inc();
        let before = counter_value("test.reg.local_flush");
        flush_counter("test.reg.local_flush", &mut lc);
        flush_counter("test.reg.local_flush", &mut lc); // drained: no double count
        assert_eq!(counter_value("test.reg.local_flush"), before + 8);
        assert_eq!(lc.get(), 0);
    }

    #[test]
    fn local_histogram_drains_into_global() {
        let mut lh = LocalHistogram::new();
        for v in [100u64, 200, 400] {
            lh.record(v);
        }
        assert_eq!(lh.pending(), 3);
        assert_eq!(lh.total(), 3);
        let h = histogram("test.reg.hist_drain");
        h.absorb_local(&mut lh);
        assert_eq!(lh.pending(), 0, "local is drained");
        assert_eq!(lh.total(), 3, "lifetime total survives the flush");
        assert!(h.snapshot().count() >= 3);
    }

    #[test]
    fn snapshot_sees_registered_metrics() {
        counter("test.reg.snap_counter").add(2);
        gauge("test.reg.snap_gauge").set(11);
        histogram("test.reg.snap_hist").record(1234);
        let snap = snapshot();
        assert!(snap.counter("test.reg.snap_counter").unwrap_or(0) >= 2);
        assert!(snap
            .gauges
            .iter()
            .any(|(k, v)| k == "test.reg.snap_gauge" && *v == 11));
        let h = snap
            .histograms
            .iter()
            .find(|(k, _)| k == "test.reg.snap_hist")
            .expect("hist registered");
        assert!(h.1.count >= 1);
    }
}
