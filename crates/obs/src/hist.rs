//! Log-linear histogram (HDR-lite) for latency distributions.
//!
//! Values are `u64` (typically nanoseconds or cycles). The bucket layout is
//! log-linear with 16 sub-buckets per octave: values below 16 are exact, and
//! every larger value lands in a bucket whose width is 1/16 of its octave, so
//! the recorded quantiles carry at most ~6.25 % relative error — more than
//! enough resolution to check a 2.64 µs response budget at 10 ns cycle
//! granularity.
//!
//! The histogram is a plain struct (no locks, no atomics); concurrency is the
//! registry's concern. It is always compiled regardless of the `obs` feature
//! because snapshots read from files need it even in no-op builds.

/// Sub-buckets per octave.
const SUB: u64 = 16;

/// Total bucket count: 16 exact buckets for 0..16, then 60 octaves
/// (msb 4..=63) of 16 sub-buckets each.
pub const BUCKETS: usize = 16 + 60 * 16;

/// Maps a value to its bucket index.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros() as u64; // >= 4
        let sub = (v >> (msb - 4)) & (SUB - 1);
        ((msb - 3) * SUB + sub) as usize
    }
}

/// Inclusive upper bound of a bucket (the value reported for quantiles).
fn bucket_hi(b: usize) -> u64 {
    if b < SUB as usize {
        b as u64
    } else {
        let octave = b as u64 / SUB + 3; // msb
        let sub = b as u64 % SUB;
        let lo = (1u64 << octave) + (sub << (octave - 4));
        // The topmost bucket's upper bound is u64::MAX; saturate instead of
        // overflowing (`lo - 1` is safe: lo >= 16 here).
        (lo - 1).saturating_add(1u64 << (octave - 4))
    }
}

/// A log-linear histogram of `u64` observations.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observation (exact), or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest observation (exact), or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]`.
    ///
    /// Reports the containing bucket's upper bound, clamped to the exact
    /// maximum so `quantile(1.0) == max()`. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_hi(b).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Merges another histogram into this one.
    pub fn absorb(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        for (d, s) in self.counts.iter_mut().zip(other.counts.iter()) {
            *d += s;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Resets to empty.
    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    /// Condenses the histogram into its reportable summary.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            max: self.max(),
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
        }
    }
}

/// The quantile summary a snapshot carries for each histogram.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Mean observation.
    pub mean: f64,
    /// Exact minimum.
    pub min: u64,
    /// Exact maximum.
    pub max: u64,
    /// Median (bucketed, ≤ 6.25 % relative error).
    pub p50: u64,
    /// 95th percentile (bucketed).
    pub p95: u64,
    /// 99th percentile (bucketed).
    pub p99: u64,
}

impl HistSummary {
    /// An all-zero summary (empty histogram).
    pub const EMPTY: HistSummary = HistSummary {
        count: 0,
        mean: 0.0,
        min: 0,
        max: 0,
        p50: 0,
        p95: 0,
        p99: 0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        // Each value sits in its own bucket: the median of 0..=15 is exact.
        assert_eq!(h.quantile(0.5), 7);
    }

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Every bucket's hi is >= its own values and < the next bucket's.
        let mut last_hi = 0u64;
        for b in 0..BUCKETS {
            let hi = bucket_hi(b);
            if b > 0 {
                assert!(hi > last_hi, "bucket {b} not monotone");
            }
            last_hi = hi;
        }
        // bucket_of(bucket_hi(b)) == b round-trips.
        for b in (0..BUCKETS).step_by(7) {
            assert_eq!(bucket_of(bucket_hi(b)), b, "bucket {b} round-trip");
        }
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut h = LogHistogram::new();
        // A latency-like spread: 100 ns .. 3 us.
        for v in (100..3000u64).step_by(13) {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.95, 0.99] {
            let est = h.quantile(q) as f64;
            // Exact quantile by construction.
            let vals: Vec<u64> = (100..3000u64).step_by(13).collect();
            let rank = ((q * vals.len() as f64).ceil() as usize).clamp(1, vals.len());
            let exact = vals[rank - 1] as f64;
            let rel = (est - exact).abs() / exact;
            assert!(rel <= 0.0625 + 1e-9, "q={q}: est {est} exact {exact}");
        }
    }

    #[test]
    fn max_is_exact_and_caps_quantiles() {
        let mut h = LogHistogram::new();
        h.record(1_000_003);
        h.record(17);
        assert_eq!(h.max(), 1_000_003);
        assert_eq!(h.quantile(1.0), 1_000_003, "p100 is the exact max");
        assert_eq!(h.min(), 17);
    }

    #[test]
    fn absorb_merges_everything() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in [10u64, 100, 1000] {
            a.record(v);
        }
        for v in [5u64, 50_000] {
            b.record(v);
        }
        a.absorb(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 50_000);
        assert_eq!(a.sum(), 51_115);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LogHistogram::new();
        let s = h.summary();
        assert_eq!(s, HistSummary::EMPTY);
    }

    #[test]
    fn empty_percentiles_are_zero_at_every_q() {
        // The percentile-of-nothing contract: an operator reading `rjamctl
        // stats` before any trigger has fired must see 0, not a sentinel or
        // a panic.
        let h = LogHistogram::new();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0, "q={q} of an empty histogram");
        }
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.is_empty());
    }

    #[test]
    fn cleared_histogram_behaves_like_new() {
        let mut h = LogHistogram::new();
        h.record(123);
        h.record(77);
        assert!(!h.is_empty());
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.summary(), HistSummary::EMPTY);
        // min must reset too (regression guard: a stale min of u64::MAX or
        // of the pre-clear data would corrupt the next quantile clamp).
        h.record(9);
        assert_eq!(h.min(), 9);
        assert_eq!(h.quantile(0.5), 9);
    }

    #[test]
    fn quantile_clamps_out_of_range_q() {
        let mut h = LogHistogram::new();
        h.record(10);
        h.record(20);
        assert_eq!(h.quantile(-0.5), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
    }

    #[test]
    fn absorbing_empty_is_a_no_op() {
        let mut a = LogHistogram::new();
        a.record(42);
        let before = a.summary();
        a.absorb(&LogHistogram::new());
        assert_eq!(a.summary(), before);
        // And empty.absorb(empty) stays empty.
        let mut e = LogHistogram::new();
        e.absorb(&LogHistogram::new());
        assert_eq!(e.summary(), HistSummary::EMPTY);
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX / 2);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.quantile(0.5) >= u64::MAX / 2);
    }
}
