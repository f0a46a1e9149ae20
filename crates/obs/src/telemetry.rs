//! Engine telemetry: per-worker utilization profiles with their unit
//! latency summaries.
//!
//! The paper's FPGA exposes live status registers that make the jammer
//! *operable*; the parallel `CampaignEngine` needs the same treatment. At
//! the end of every campaign the engine assembles an [`EngineProfile`] —
//! where did each worker's wall-clock go (busy in unit closures, idle
//! waiting on the shard dispenser, merge-wait after its last shard), what
//! did the unit latency distribution look like, and which units were
//! stragglers (slower than [`STRAGGLER_FACTOR`]× the median, recorded with
//! their seed so they can be re-run in isolation) — and publishes it into
//! its own [`ProfileStore`], which the engine's clones share and which
//! keeps the latest profile of each unit kind. `rjamctl report` renders the
//! profile its engine published; the process-wide unit-latency aggregate
//! is the registry's `core.engine_unit_ns` histogram.
//!
//! These are plain types, compiled in every build; without the `obs`
//! feature the engine simply publishes nothing.

use crate::hist::HistSummary;
use std::collections::BTreeMap;

/// Units slower than this multiple of the campaign's median unit time are
/// flagged as stragglers (and dropped into the flight recorder).
pub const STRAGGLER_FACTOR: u64 = 4;

/// Stragglers kept per profile (the slowest ones, duration-descending).
pub const MAX_STRAGGLERS: usize = 32;

/// Where one worker's wall-clock went during a campaign.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index (0-based; the serial path is worker 0).
    pub worker: usize,
    /// Units this worker ran.
    pub units: u64,
    /// Time inside unit closures.
    pub busy_ns: u64,
    /// Time outside unit closures and merge-wait, from the campaign's
    /// start to its end: the wait for the worker's thread to start,
    /// dispenser claims, pool setup, scheduling gaps, and the tail after
    /// the worker's last shard while others still run.
    pub idle_ns: u64,
    /// Time folding this worker's finished units, and any ready
    /// successors, into the run's ordered result — waiting for the fold
    /// lock included.
    pub merge_wait_ns: u64,
}

impl WorkerStats {
    /// Busy fraction of this worker's accounted time, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let total = self.busy_ns + self.idle_ns + self.merge_wait_ns;
        if total == 0 {
            0.0
        } else {
            self.busy_ns as f64 / total as f64
        }
    }
}

/// One straggler unit: reproducible via its per-unit seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Straggler {
    /// Unit index within the campaign.
    pub unit: usize,
    /// Worker that ran it.
    pub worker: usize,
    /// The unit's derived seed (`shard_seed(campaign_seed, unit)`).
    pub seed: u64,
    /// Observed unit duration.
    pub duration_ns: u64,
}

/// Post-run profile of one campaign through the engine.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineProfile {
    /// Unit kind label (`wifi_detection`, `false_alarm`, ...).
    pub kind: String,
    /// Units the campaign ran.
    pub units: u64,
    /// Dispatch ranges in the shard plan.
    pub shards: u64,
    /// Campaign wall-clock.
    pub wall_ns: u64,
    /// Per-worker accounting, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Unit latency distribution.
    pub unit_ns: HistSummary,
    /// Exact median unit duration (the straggler threshold baseline).
    pub median_unit_ns: u64,
    /// Slowest units above the straggler threshold, duration-descending.
    pub stragglers: Vec<Straggler>,
}

impl EngineProfile {
    /// Total busy time across workers.
    pub fn busy_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.busy_ns).sum()
    }

    /// Total idle time across workers.
    pub fn idle_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.idle_ns).sum()
    }

    /// Total merge-wait time across workers.
    pub fn merge_wait_ns(&self) -> u64 {
        self.workers.iter().map(|w| w.merge_wait_ns).sum()
    }

    /// Fraction of total worker wall-clock (`workers × wall_ns`) that the
    /// busy/idle/merge-wait buckets account for, in `[0, 1]`: the
    /// report's honesty check (CI asserts ≥ 0.95 on real campaigns). Each
    /// worker's buckets span the campaign's start to its end, so the
    /// remainder is only the gap between successive clock reads.
    pub fn attributed_fraction(&self) -> f64 {
        let denom = self.workers.len() as u64 * self.wall_ns;
        if denom == 0 {
            return 0.0;
        }
        let num = self.busy_ns() + self.idle_ns() + self.merge_wait_ns();
        (num as f64 / denom as f64).min(1.0)
    }

    /// Renders the operator-facing profile: per-worker utilization table,
    /// attribution coverage, unit latency percentiles, and the top
    /// `top` stragglers with their seeds.
    pub fn render(&self, top: usize) -> String {
        let mut out = String::new();
        out.push_str(&format!("== engine profile: {} ==\n", self.kind));
        out.push_str(&format!(
            "units {}  shards {}  workers {}  wall {}\n",
            self.units,
            self.shards,
            self.workers.len(),
            fmt_ns(self.wall_ns),
        ));
        out.push_str("worker      units        busy        idle  merge-wait   util%\n");
        for w in &self.workers {
            out.push_str(&format!(
                "{:>6}  {:>9}  {:>10}  {:>10}  {:>10}  {:>6.1}\n",
                w.worker,
                w.units,
                fmt_ns(w.busy_ns),
                fmt_ns(w.idle_ns),
                fmt_ns(w.merge_wait_ns),
                100.0 * w.utilization(),
            ));
        }
        out.push_str(&format!(
            "attributed {:.1}% of {} x {} worker wall-clock to busy/idle/merge-wait\n",
            100.0 * self.attributed_fraction(),
            self.workers.len(),
            fmt_ns(self.wall_ns),
        ));
        let u = &self.unit_ns;
        out.push_str("== unit latency ==\n");
        out.push_str(&format!(
            "n={} mean={} p50={} p95={} p99={} max={}\n",
            u.count,
            fmt_ns(u.mean as u64),
            fmt_ns(u.p50),
            fmt_ns(u.p95),
            fmt_ns(u.p99),
            fmt_ns(u.max),
        ));
        out.push_str(&format!(
            "== stragglers (> {}x median {}) ==\n",
            STRAGGLER_FACTOR,
            fmt_ns(self.median_unit_ns),
        ));
        if self.stragglers.is_empty() {
            out.push_str("(none)\n");
        } else {
            for s in self.stragglers.iter().take(top.max(1)) {
                let ratio = if self.median_unit_ns > 0 {
                    s.duration_ns as f64 / self.median_unit_ns as f64
                } else {
                    0.0
                };
                out.push_str(&format!(
                    "unit {:>6}  worker {}  {} ({:.1}x median)  seed 0x{:016x}\n",
                    s.unit,
                    s.worker,
                    fmt_ns(s.duration_ns),
                    ratio,
                    s.seed,
                ));
            }
            if self.stragglers.len() > top {
                out.push_str(&format!("... and {} more\n", self.stragglers.len() - top));
            }
        }
        out
    }
}

/// Formats nanoseconds with a readable unit (ns / µs / ms / s).
pub fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} us", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// The profiles one campaign engine has published: the latest
/// [`EngineProfile`] of each unit kind.
#[derive(Debug, Default)]
pub struct ProfileStore {
    by_kind: BTreeMap<String, EngineProfile>,
}

impl ProfileStore {
    /// Publishes a finished campaign's profile into its kind's slot.
    pub fn publish(&mut self, profile: EngineProfile) {
        self.by_kind.insert(profile.kind.clone(), profile);
    }

    /// The most recent profile published under `kind`.
    pub fn profile(&self, kind: &str) -> Option<EngineProfile> {
        self.by_kind.get(kind).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_profile() -> EngineProfile {
        EngineProfile {
            kind: "test_kind".into(),
            units: 8,
            shards: 4,
            wall_ns: 1_000_000,
            workers: vec![
                WorkerStats {
                    worker: 0,
                    units: 4,
                    busy_ns: 900_000,
                    idle_ns: 50_000,
                    merge_wait_ns: 30_000,
                },
                WorkerStats {
                    worker: 1,
                    units: 4,
                    busy_ns: 700_000,
                    idle_ns: 80_000,
                    merge_wait_ns: 200_000,
                },
            ],
            unit_ns: HistSummary {
                count: 8,
                mean: 200_000.0,
                min: 100_000,
                max: 900_000,
                p50: 150_000,
                p95: 800_000,
                p99: 900_000,
            },
            median_unit_ns: 150_000,
            stragglers: vec![Straggler {
                unit: 5,
                worker: 1,
                seed: 0xABCD_EF01_2345_6789,
                duration_ns: 900_000,
            }],
        }
    }

    #[test]
    fn attribution_accounts_all_buckets() {
        let p = sample_profile();
        // (900+50+30 + 700+80+200) / (2 * 1000) = 1960/2000.
        let f = p.attributed_fraction();
        assert!((f - 0.98).abs() < 1e-9, "got {f}");
        assert_eq!(p.busy_ns(), 1_600_000);
        assert_eq!(p.idle_ns(), 130_000);
        assert_eq!(p.merge_wait_ns(), 230_000);
    }

    #[test]
    fn attribution_clamps_and_handles_empty() {
        let mut p = sample_profile();
        p.workers.clear();
        assert_eq!(p.attributed_fraction(), 0.0);
        let mut p = sample_profile();
        p.wall_ns = 1; // nonsense input: clamp, don't report > 100%
        assert_eq!(p.attributed_fraction(), 1.0);
    }

    #[test]
    fn utilization_is_busy_share() {
        let w = WorkerStats {
            worker: 0,
            units: 1,
            busy_ns: 75,
            idle_ns: 20,
            merge_wait_ns: 5,
        };
        assert!((w.utilization() - 0.75).abs() < 1e-12);
        assert_eq!(WorkerStats::default().utilization(), 0.0);
    }

    #[test]
    fn render_includes_every_section_and_seed() {
        let text = sample_profile().render(5);
        assert!(text.contains("engine profile: test_kind"), "{text}");
        assert!(text.contains("attributed 98.0%"), "{text}");
        assert!(text.contains("unit latency"), "{text}");
        assert!(text.contains("stragglers (> 4x median"), "{text}");
        assert!(text.contains("seed 0xabcdef0123456789"), "{text}");
        // Worker rows: one per worker, between the table header and the
        // attribution line.
        let rows = text
            .lines()
            .skip_while(|l| !l.starts_with("worker"))
            .skip(1)
            .take_while(|l| !l.starts_with("attributed"))
            .count();
        assert_eq!(rows, 2, "{text}");
    }

    #[test]
    fn render_caps_stragglers_at_top() {
        let mut p = sample_profile();
        p.stragglers = (0..7)
            .map(|k| Straggler {
                unit: k,
                worker: 0,
                seed: k as u64,
                duration_ns: 1_000_000 - k as u64,
            })
            .collect();
        let text = p.render(3);
        assert_eq!(text.matches("x median)").count(), 3, "{text}");
        assert!(text.contains("... and 4 more"), "{text}");
    }

    #[test]
    fn fmt_ns_picks_readable_units() {
        assert_eq!(fmt_ns(999), "999 ns");
        assert_eq!(fmt_ns(48_211), "48.2 us");
        assert_eq!(fmt_ns(345_217_190), "345.2 ms");
        assert_eq!(fmt_ns(12_000_000_000), "12.00 s");
    }

    #[test]
    fn store_keeps_the_latest_profile_by_kind() {
        let p = sample_profile();
        let mut store = ProfileStore::default();
        store.publish(p.clone());
        assert_eq!(store.profile("test_kind"), Some(p.clone()));
        assert_eq!(store.profile("other_kind"), None);
        // Publishing again replaces the kind's profile.
        let mut later = p;
        later.wall_ns = 2_000_000;
        store.publish(later.clone());
        assert_eq!(store.profile("test_kind"), Some(later));
    }
}
