//! Hermetic micro/macro benchmark harness.
//!
//! A zero-dependency replacement for the subset of criterion the workspace
//! used: warmup, calibrated iteration batching, robust wall-clock statistics
//! (median / p95 / min) plus samples-per-second throughput, and
//! machine-readable JSON emission so the performance trajectory of every PR
//! can be tracked offline.
//!
//! Each bench target builds a [`Harness`], registers closures via
//! [`Harness::bench`] / [`Harness::bench_throughput`], and calls
//! [`Harness::finish`], which writes `BENCH_<suite>.json` — a JSON array of
//! records with schema
//! `{bench, params, median_ns, p95_ns, min_ns, throughput}`.
//!
//! When the `obs` feature is on, each record additionally carries the
//! per-iteration deltas of every `rjam-obs` registry counter that moved
//! during the measurement phase, as an optional `"counters"` object
//! (`{"fpga.samples_in": 25000, ...}`). Timings alone say *how fast*; the
//! counter deltas say *what work* each iteration actually did, so a
//! regression in one can be cross-checked against the other. With `obs`
//! compiled out the field is simply absent and the schema is unchanged.
//!
//! Environment knobs (all optional):
//!
//! * `RJAM_BENCH_SAMPLES` — number of timed batches per bench (default 25);
//! * `RJAM_BENCH_WARMUP_MS` — warmup duration (default 100 ms);
//! * `RJAM_BENCH_BATCH_MS` — target wall-clock per timed batch (default 5 ms);
//! * `RJAM_BENCH_OUT` — directory for the JSON report (default CWD).

use rjam_obs::json::{write_number, write_string};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Measurement configuration for one [`Harness`].
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Number of timed batches collected per benchmark.
    pub samples: usize,
    /// Wall-clock spent warming up before measurement.
    pub warmup: Duration,
    /// Target wall-clock per timed batch; iteration count is calibrated to
    /// hit this.
    pub batch_target: Duration,
    /// Directory the JSON report is written to.
    pub out_dir: PathBuf,
}

impl Default for BenchConfig {
    fn default() -> Self {
        let env_u64 = |key: &str, default: u64| -> u64 {
            std::env::var(key)
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(default)
        };
        BenchConfig {
            samples: env_u64("RJAM_BENCH_SAMPLES", 25).max(1) as usize,
            warmup: Duration::from_millis(env_u64("RJAM_BENCH_WARMUP_MS", 100)),
            batch_target: Duration::from_millis(env_u64("RJAM_BENCH_BATCH_MS", 5).max(1)),
            out_dir: std::env::var_os("RJAM_BENCH_OUT")
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from(".")),
        }
    }
}

/// One benchmark's summary statistics (per-iteration wall clock).
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name, e.g. `"full_core_1ms_air"`.
    pub bench: String,
    /// Free-form parameter string, e.g. `"rate=R54"`.
    pub params: String,
    /// Median per-iteration wall clock in nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile per-iteration wall clock in nanoseconds.
    pub p95_ns: f64,
    /// Fastest observed per-iteration wall clock in nanoseconds.
    pub min_ns: f64,
    /// Work items per second at the median (iterations/s when the bench did
    /// not declare an element count).
    pub throughput: f64,
    /// Logical CPU cores on the measuring host. Scaling numbers are
    /// meaningless without this: `threads_4` on a single-core runner is
    /// *expected* to match `threads_1`.
    pub host_cores: u64,
    /// Effective worker-thread count the bench ran with (1 unless the bench
    /// declared otherwise via [`Harness::set_threads`]).
    pub threads: u64,
    /// Per-iteration deltas of the `rjam-obs` registry counters that moved
    /// during the measurement phase, sorted by name. Empty when nothing
    /// moved or when observability is compiled out.
    pub counters: Vec<(String, f64)>,
}

impl BenchRecord {
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"bench\":{},\"params\":{},\"median_ns\":{},\"p95_ns\":{},\"min_ns\":{},\"throughput\":{}",
            write_string(&self.bench),
            write_string(&self.params),
            write_number(self.median_ns),
            write_number(self.p95_ns),
            write_number(self.min_ns),
            write_number(self.throughput),
        );
        out.push_str(&format!(
            ",\"host_cores\":{},\"threads\":{}",
            self.host_cores, self.threads
        ));
        if !self.counters.is_empty() {
            out.push_str(",\"counters\":{");
            for (k, (name, v)) in self.counters.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                out.push_str(&write_string(name));
                out.push(':');
                out.push_str(&write_number(*v));
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

/// Logical cores on this host (1 if the platform will not say).
fn host_cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Registry counter values right now, as a sorted name → value list.
/// Empty when the `obs` feature is compiled out.
fn counter_values() -> Vec<(String, u64)> {
    if rjam_obs::enabled() {
        rjam_obs::registry::snapshot().counters
    } else {
        Vec::new()
    }
}

/// Per-iteration counter deltas between two [`counter_values`] captures.
/// Counters are monotonic, so a name absent from `before` started at zero.
fn counter_deltas(
    before: &[(String, u64)],
    after: &[(String, u64)],
    iters: u64,
) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (name, end) in after {
        let start = before
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v);
        if *end > start {
            out.push((name.clone(), (*end - start) as f64 / iters.max(1) as f64));
        }
    }
    out
}

/// A suite of benchmarks sharing one configuration and one JSON report.
#[derive(Debug)]
pub struct Harness {
    suite: String,
    cfg: BenchConfig,
    threads: u64,
    results: Vec<BenchRecord>,
}

impl Harness {
    /// Creates a harness for `suite` with environment-derived configuration.
    #[must_use]
    pub fn new(suite: &str) -> Self {
        Harness::with_config(suite, BenchConfig::default())
    }

    /// Creates a harness with an explicit configuration (used by tests and
    /// smoke runs that need to be fast).
    #[must_use]
    pub fn with_config(suite: &str, cfg: BenchConfig) -> Self {
        println!(
            "== bench suite '{suite}': {} samples, {:?} warmup, {:?} batches ==",
            cfg.samples, cfg.warmup, cfg.batch_target
        );
        Harness {
            suite: suite.to_string(),
            cfg,
            threads: 1,
            results: Vec::new(),
        }
    }

    /// Declares the worker-thread count for subsequent records (e.g. the
    /// campaign engine's effective worker count). Benches whose workload is
    /// single-threaded never need to call this — records default to 1.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1) as u64;
    }

    /// Benchmarks `f`, reporting per-iteration statistics.
    pub fn bench<R>(&mut self, bench: &str, params: &str, f: impl FnMut() -> R) -> &BenchRecord {
        self.bench_throughput(bench, params, 1, f)
    }

    /// Benchmarks `f` which processes `elements` work items per call, so the
    /// report carries items-per-second throughput (criterion's
    /// `Throughput::Elements`).
    pub fn bench_throughput<R>(
        &mut self,
        bench: &str,
        params: &str,
        elements: u64,
        mut f: impl FnMut() -> R,
    ) -> &BenchRecord {
        // Calibration: time single calls until we can size a batch that
        // lasts ~batch_target.
        let calib_start = Instant::now();
        let mut calib_iters = 0u64;
        while calib_start.elapsed() < self.cfg.batch_target && calib_iters < 1_000_000 {
            black_box(f());
            calib_iters += 1;
        }
        let per_iter = calib_start.elapsed().as_nanos() as f64 / calib_iters.max(1) as f64;
        let batch_iters =
            ((self.cfg.batch_target.as_nanos() as f64 / per_iter.max(1.0)).ceil() as u64).max(1);

        // Warmup at the calibrated batch size.
        let warm_start = Instant::now();
        while warm_start.elapsed() < self.cfg.warmup {
            for _ in 0..batch_iters {
                black_box(f());
            }
        }

        // Measurement: `samples` timed batches, bracketed by registry
        // captures so the report can carry per-iteration counter deltas.
        let counters_before = counter_values();
        let mut per_iter_ns = Vec::with_capacity(self.cfg.samples);
        for _ in 0..self.cfg.samples {
            let t0 = Instant::now();
            for _ in 0..batch_iters {
                black_box(f());
            }
            per_iter_ns.push(t0.elapsed().as_nanos() as f64 / batch_iters as f64);
        }
        let total_iters = self.cfg.samples as u64 * batch_iters;
        let counters = counter_deltas(&counters_before, &counter_values(), total_iters);
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));

        let median_ns = percentile(&per_iter_ns, 50.0);
        let p95_ns = percentile(&per_iter_ns, 95.0);
        let min_ns = per_iter_ns[0];
        let throughput = elements as f64 * 1e9 / median_ns.max(1e-9);

        let record = BenchRecord {
            bench: bench.to_string(),
            params: params.to_string(),
            median_ns,
            p95_ns,
            min_ns,
            throughput,
            host_cores: host_cores(),
            threads: self.threads,
            counters,
        };
        let label = if params.is_empty() {
            bench.to_string()
        } else {
            format!("{bench}/{params}")
        };
        println!(
            "{label:<44} median {:>12} p95 {:>12} min {:>12}  {:>14}/s",
            fmt_ns(median_ns),
            fmt_ns(p95_ns),
            fmt_ns(min_ns),
            fmt_si(throughput),
        );
        for (name, v) in &record.counters {
            println!("    {name:<44} {:>14}/iter", fmt_si(*v));
        }
        self.results.push(record);
        self.results.last().expect("just pushed")
    }

    /// Serializes all records to the JSON report format.
    #[must_use]
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self.results.iter().map(BenchRecord::to_json).collect();
        format!("[\n  {}\n]\n", rows.join(",\n  "))
    }

    /// Writes `BENCH_<suite>.json` and returns its path.
    ///
    /// # Panics
    /// Panics if the report cannot be written — a silent benchmarking run
    /// that drops its results would defeat the point.
    pub fn finish(self) -> PathBuf {
        let path = self.cfg.out_dir.join(format!("BENCH_{}.json", self.suite));
        std::fs::write(&path, self.to_json())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
        println!(
            "== wrote {} ({} benches) ==",
            path.display(),
            self.results.len()
        );
        path
    }
}

/// Linear-interpolated percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample set");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

fn fmt_si(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2} G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2} M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2} k", v / 1e3)
    } else {
        format!("{v:.1} ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_obs::json;

    fn fast_config(dir: &std::path::Path) -> BenchConfig {
        BenchConfig {
            samples: 5,
            warmup: Duration::from_millis(1),
            batch_target: Duration::from_micros(200),
            out_dir: dir.to_path_buf(),
        }
    }

    #[test]
    fn percentile_endpoints_and_interpolation() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 4.0);
        assert_eq!(percentile(&xs, 50.0), 2.5);
    }

    #[test]
    fn stats_are_ordered_min_median_p95() {
        let dir = std::env::temp_dir().join("rjam_bench_test_stats");
        std::fs::create_dir_all(&dir).unwrap();
        let mut h = Harness::with_config("stats_check", fast_config(&dir));
        let mut acc = 0u64;
        let r = h.bench("spin", "", || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.p95_ns);
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn json_report_round_trips_through_parser() {
        let dir = std::env::temp_dir().join("rjam_bench_test_json");
        std::fs::create_dir_all(&dir).unwrap();
        let mut h = Harness::with_config("roundtrip", fast_config(&dir));
        h.bench_throughput("alpha", "n=64", 64, || std::hint::black_box(3 + 4));
        h.bench("beta", "", || std::hint::black_box(1u64 << 20));
        let text = h.to_json();
        let path = h.finish();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, on_disk);

        let doc = json::parse(&on_disk).expect("report must be valid JSON");
        let rows = doc.as_array().expect("top level is an array");
        assert_eq!(rows.len(), 2);
        let first = rows[0].as_object().expect("records are objects");
        assert_eq!(first["bench"].as_str(), Some("alpha"));
        assert_eq!(first["params"].as_str(), Some("n=64"));
        for field in [
            "median_ns",
            "p95_ns",
            "min_ns",
            "throughput",
            "host_cores",
            "threads",
        ] {
            let v = first[field].as_f64().unwrap();
            assert!(v > 0.0, "{field} must be positive, got {v}");
        }
        // Both benches ran without set_threads: records default to 1 worker
        // on however many cores the host has.
        assert_eq!(first["threads"].as_f64(), Some(1.0));
        assert_eq!(first["host_cores"].as_f64(), Some(host_cores() as f64));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn counter_deltas_handle_new_and_unchanged_counters() {
        let before = vec![("a".to_string(), 10), ("b".to_string(), 5)];
        let after = vec![
            ("a".to_string(), 30),
            ("b".to_string(), 5),
            ("c".to_string(), 4),
        ];
        let d = counter_deltas(&before, &after, 4);
        assert_eq!(d, vec![("a".to_string(), 5.0), ("c".to_string(), 1.0)]);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn counter_deltas_are_per_iteration_and_serialized() {
        let dir = std::env::temp_dir().join("rjam_bench_test_counters");
        std::fs::create_dir_all(&dir).unwrap();
        let mut h = Harness::with_config("counters", fast_config(&dir));
        let r = h.bench("bump", "", || {
            rjam_obs::registry::counter("bench.test_bump").inc();
        });
        let bump = r
            .counters
            .iter()
            .find(|(n, _)| n == "bench.test_bump")
            .map(|(_, v)| *v)
            .expect("counter delta captured");
        assert!(
            (bump - 1.0).abs() < 1e-9,
            "one inc per iteration, got {bump}"
        );

        let text = h.to_json();
        let doc = json::parse(&text).expect("report with counters parses");
        let record = doc.as_array().unwrap()[0].as_object().unwrap();
        let counters = record["counters"]
            .as_object()
            .expect("counters object serialized");
        assert_eq!(counters["bench.test_bump"].as_f64(), Some(1.0));
    }
}
