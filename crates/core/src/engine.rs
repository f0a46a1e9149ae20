//! Deterministic sharded campaign engine.
//!
//! Every campaign the paper's evaluation runs (detection sweeps, ROC
//! curves, false-alarm calibration, WiMAX correspondence, iperf jamming
//! sweeps) decomposes into *units*: independent pieces of work that share
//! no state — a `(snr, seed-block)` cell of a detection sweep, one noise
//! segment of a false-alarm calibration, one frame group of the WiMAX
//! capture. [`CampaignEngine`] runs those units on a scoped thread pool
//! and merges the results **in unit order**, which yields the determinism
//! contract the whole repo leans on:
//!
//! > For any thread count — 1, 4, or 128 — a campaign's output is
//! > bit-identical to the serial run.
//!
//! Three ingredients make that true:
//!
//! 1. **Seed-splitting, not seed-sharing.** Each unit's PRNG stream is
//!    derived from the campaign seed and the unit index through
//!    [`shard_seed`] (rjam-testkit's `splitmix64` bijection), so streams
//!    never overlap and never depend on which worker ran the unit.
//! 2. **Unit-local state.** The closure receives a [`ShardCtx`] and
//!    derives everything that affects its *result* from it; the per-worker
//!    pool (see below) only carries resettable scratch whose post-reset
//!    behavior is identical to freshly built state.
//! 3. **Ordered merge.** Workers claim contiguous unit ranges from an
//!    atomic cursor over a [`ShardPlan`] (dynamic load balancing), but
//!    results are **moved** into pre-sized slots by unit index as the
//!    workers join — no clones, no order dependence.
//!
//! ## Shard planning and worker pools
//!
//! Granularity is decoupled from dispatch: a campaign declares its natural
//! unit count (which depends only on the spec, never on the thread count)
//! and [`ShardPlan`] groups the units into at least [`OVERSHARD`]× the
//! worker count of near-equal contiguous ranges, so a slow unit cannot
//! serialize the tail of the run. Because seeds and merge order are
//! per-*unit*, the grouping — and therefore the thread count — cannot
//! change the output.
//!
//! Shard setup cost is amortized with per-worker pools:
//! [`CampaignEngine::run_units`] calls `make_pool` once per worker thread
//! (building e.g. a `DspCore`, quantization scratch and stream buffers)
//! and hands each unit a `&mut` to its worker's pool; units reset the
//! pooled state instead of rebuilding it. That turns the engine's
//! per-shard overhead from dominant (one core build per SNR point) to
//! negligible (one core build per worker).
//!
//! Worker count resolution: an explicit [`CampaignEngine::with_threads`]
//! wins, else the `RJAM_THREADS` environment variable (strictly parsed by
//! [`threads_from_env`]; `0` clamps to one worker exactly like
//! `with_threads(0)`, unparsable values degrade to serial rather than
//! silently going wide), else `std::thread::available_parallelism()`.

use rjam_obs::stream::{self, ProgressEvent};
use rjam_obs::telemetry::{self, EngineProfile, Straggler, WorkerStats};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Environment variable overriding the worker count.
pub const THREADS_ENV: &str = "RJAM_THREADS";

/// Minimum shards-per-worker ratio a [`ShardPlan`] aims for, so dynamic
/// load balancing has slack even when unit costs are skewed.
pub const OVERSHARD: usize = 4;

/// Derives the PRNG stream for one unit of a campaign.
///
/// The map `unit -> seed` is injective for any fixed `campaign_seed`:
/// the unit index passes through an odd-multiplier mix (injective on
/// `u64`) and two applications of the splitmix64 finalizer (a bijection on
/// `u64`), so two distinct units can never collide onto one stream —
/// the property `rjam-testkit`'s seed-splitting test pins down.
pub fn shard_seed(campaign_seed: u64, shard: u64) -> u64 {
    use rjam_testkit::rng::splitmix64;
    let mixed = shard
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x1234_5678_9ABC_DEF1);
    splitmix64(campaign_seed ^ splitmix64(mixed))
}

/// Strictly parses a thread-count override string (the value of
/// [`THREADS_ENV`] or a `--threads` argument).
///
/// `None` or an empty/whitespace string means "no override" (`Ok(None)`);
/// a decimal integer parses to `Ok(Some(n))` — including `0`, which
/// [`CampaignEngine::with_threads`] clamps to one worker; anything else is
/// an error with an operator-facing message. Front-ends that own a usage
/// channel (`rjamctl`) surface the error; [`CampaignEngine::from_env`]
/// degrades to serial instead, so a typo can never silently fan out.
pub fn parse_threads(value: Option<&str>) -> Result<Option<usize>, String> {
    let Some(raw) = value else { return Ok(None) };
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return Ok(None);
    }
    trimmed
        .parse::<usize>()
        .map(Some)
        .map_err(|_| format!("{THREADS_ENV} must be a non-negative integer, got {raw:?}"))
}

/// [`parse_threads`] applied to the [`THREADS_ENV`] environment variable.
pub fn threads_from_env() -> Result<Option<usize>, String> {
    match std::env::var(THREADS_ENV) {
        Ok(raw) => parse_threads(Some(&raw)),
        Err(_) => Ok(None),
    }
}

/// A shared cancellation flag for checkpointed campaign runs.
///
/// Cloning shares the flag: `rjamd` hands one clone to the engine (which
/// polls it between units) and keeps another so a `cancel` request can trip
/// it from any thread. Cancellation is cooperative and unit-granular — a
/// unit in flight always finishes, so every checkpointed result is the
/// complete, deterministic output of its unit.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, untripped token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Trips the token; every engine run polling it stops claiming units.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// Everything a unit closure is allowed to depend on for its *result*: its
/// index and its derived PRNG stream. If a unit computes from anything
/// else (other than properly reset pooled scratch), determinism across
/// thread counts is forfeit — keep this struct minimal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardCtx {
    /// Unit index, `0..n_units`.
    pub index: usize,
    /// PRNG stream for this unit, from [`shard_seed`].
    pub seed: u64,
}

/// How `n_units` of work are grouped into contiguous dispatch ranges.
///
/// The plan targets at least [`OVERSHARD`] ranges per worker (capped at
/// one unit per range) with sizes differing by at most one, so the atomic
/// dispenser can load-balance without the grouping ever influencing
/// results: seeds and merge order are per-unit, not per-range.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    ranges: Vec<Range<usize>>,
    n_units: usize,
}

impl ShardPlan {
    /// Plans `n_units` of work for `workers` threads.
    pub fn new(n_units: usize, workers: usize) -> Self {
        let target = n_units.min(workers.max(1).saturating_mul(OVERSHARD));
        let mut ranges = Vec::with_capacity(target);
        if let Some(base) = n_units.checked_div(target) {
            let rem = n_units % target;
            let mut lo = 0;
            for k in 0..target {
                let len = base + usize::from(k < rem);
                ranges.push(lo..lo + len);
                lo += len;
            }
        }
        ShardPlan { ranges, n_units }
    }

    /// Total units covered by the plan.
    pub fn n_units(&self) -> usize {
        self.n_units
    }

    /// Number of dispatch ranges.
    pub fn n_shards(&self) -> usize {
        self.ranges.len()
    }

    /// The contiguous unit ranges, in order.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }
}

/// A deterministic sharded campaign runner.
///
/// ```
/// use rjam_core::engine::CampaignEngine;
/// let square = |_: &mut (), ctx: rjam_core::ShardCtx| ctx.index * ctx.index;
/// let squares = CampaignEngine::with_threads(4).run("squares", 8, 42, || (), square);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// // Bit-identical at any thread count:
/// assert_eq!(squares, CampaignEngine::serial().run("squares", 8, 42, || (), square));
/// ```
#[derive(Clone, Debug)]
pub struct CampaignEngine {
    threads: usize,
}

impl CampaignEngine {
    /// An engine with the environment's worker count: `RJAM_THREADS` if
    /// set (strictly parsed; `0` clamps to 1 like [`Self::with_threads`],
    /// unparsable values degrade to serial), else
    /// `available_parallelism()`, else 1.
    pub fn from_env() -> Self {
        match threads_from_env() {
            Ok(Some(n)) => Self::with_threads(n),
            Ok(None) => Self::with_threads(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ),
            // A garbage override must not silently fan out to every core;
            // rjamctl additionally rejects it through its usage-error path.
            Err(_) => Self::serial(),
        }
    }

    /// A single-threaded engine — the reference path the determinism
    /// contract is stated against.
    pub fn serial() -> Self {
        CampaignEngine { threads: 1 }
    }

    /// An engine with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        CampaignEngine {
            threads: threads.max(1),
        }
    }

    /// The worker count this engine will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// [`Self::run_units`] with an empty checkpoint and no cancel token,
    /// so it always completes.
    pub fn run<T, P, M, F>(
        &self,
        kind: &'static str,
        n_units: usize,
        seed: u64,
        make_pool: M,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        M: Fn() -> P + Sync,
        F: Fn(&mut P, ShardCtx) -> T + Sync,
    {
        self.run_units(
            kind,
            n_units,
            seed,
            &mut BTreeMap::new(),
            None,
            make_pool,
            f,
        )
        .expect("a run without a cancel token always completes")
    }

    /// Runs the units `0..n_units` of campaign `seed` that `done` does not
    /// already hold and returns all results **in unit order**, regardless
    /// of worker count or scheduling — the engine's one entry point.
    ///
    /// `make_pool` is called once per worker; `f` receives a `&mut` to its
    /// worker's pool plus the unit's [`ShardCtx`]. The pool must be
    /// *reset-equivalent*: a unit run against a reused pool must produce
    /// the same result as against a freshly built one (e.g.
    /// `DspCore::reset` restores streaming state while keeping
    /// configuration). All randomness must come from [`ShardCtx::seed`].
    /// Campaigns without per-worker state pass `|| ()`.
    ///
    /// With one worker the units run inline on the caller's thread; with
    /// more, `std::thread::scope` workers claim contiguous ranges of a
    /// [`ShardPlan`] over the missing units from a shared atomic cursor,
    /// and a panicking unit propagates the panic to the caller.
    ///
    /// Checkpoint and cancel — the primitive behind `rjamd`'s cancel +
    /// resume: `done` holds the results of units completed by *previous*
    /// attempts, keyed by unit index. Each unit's seed derives from its
    /// **original** index via [`shard_seed`], so a resumed campaign
    /// computes bit-identical results to an uninterrupted one. A tripped
    /// `cancel` stops workers from claiming further units (units in flight
    /// finish); the completed results are then left in `done` and the call
    /// returns `None` — run again with the same arguments to resume. On
    /// completion `done` is drained.
    ///
    /// `kind` (`"wifi_detection"`, `"false_alarm"`, ...) labels the run's
    /// telemetry. With the `obs` feature on, the engine times every unit
    /// and publishes an [`EngineProfile`] (per-worker busy/idle/merge-wait,
    /// unit-latency histogram per kind, stragglers > `STRAGGLER_FACTOR`×
    /// the median with their seeds) into [`rjam_obs::telemetry`], and —
    /// when a progress sink is installed ([`rjam_obs::stream::install`]) —
    /// emits the `rjam-progress-v1` event chain (started / shard finished /
    /// snapshot with ETA / done) over the units it runs. An interrupted run
    /// leaves the chain truncated (no `campaign_done`), which is what its
    /// watchers should see. Only the *outermost* campaign of an invocation
    /// emits: an engine run started inside another run's unit stays silent
    /// so one run produces one chain. None of this touches results;
    /// without `obs` the instrumentation compiles out.
    #[allow(clippy::too_many_arguments)]
    pub fn run_units<T, P, M, F>(
        &self,
        kind: &'static str,
        n_units: usize,
        seed: u64,
        done: &mut BTreeMap<usize, T>,
        cancel: Option<&CancelToken>,
        make_pool: M,
        f: F,
    ) -> Option<Vec<T>>
    where
        T: Send,
        M: Fn() -> P + Sync,
        F: Fn(&mut P, ShardCtx) -> T + Sync,
    {
        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        let mut slots: Vec<Option<T>> = (0..n_units).map(|i| done.remove(&i)).collect();
        if !cancelled() {
            let todo: Vec<usize> = (0..n_units).filter(|&i| slots[i].is_none()).collect();
            let workers = self.threads.min(todo.len()).max(1);
            let plan = ShardPlan::new(todo.len(), workers);
            self.note_run(&plan, workers);

            // Campaign-level stream ownership (outermost run only); the
            // guard releases it even if a unit panics.
            let streaming = rjam_obs::enabled() && stream::active() && stream::begin_campaign();
            let _stream_guard = StreamOwnership(streaming);
            if streaming {
                stream::emit(&ProgressEvent::Started {
                    kind: kind.to_string(),
                    units: todo.len() as u64,
                    shards: plan.n_shards() as u64,
                    workers: workers as u64,
                    seed,
                });
            }
            let t0 = Instant::now();
            // Shard completions update the count and emit under one lock so
            // racing workers can never put snapshots out of order on the wire.
            let progress = Mutex::new(0u64);
            let depth_gauge = rjam_obs::registry::gauge("core.engine_queue_depth");
            let note_shard = |shard: usize, worker: usize, units: usize, busy_ns: u64| {
                depth_gauge.set(plan.n_shards().saturating_sub(shard + 1) as u64);
                if !streaming {
                    return;
                }
                let mut finished = progress.lock().expect("engine progress lock");
                *finished += units as u64;
                let total = todo.len() as u64;
                let elapsed = t0.elapsed().as_nanos() as u64;
                stream::emit_all(&[
                    ProgressEvent::ShardFinished {
                        shard: shard as u64,
                        worker: worker as u64,
                        units: units as u64,
                        busy_ns,
                    },
                    ProgressEvent::Snapshot {
                        done: *finished,
                        total,
                        elapsed_ns: elapsed,
                        eta_ns: stream::eta_ns(elapsed, *finished, total),
                    },
                ]);
            };

            // The one worker loop: claim ranges until the plan runs out or
            // the token trips; results come back keyed by unit index.
            let next = AtomicUsize::new(0);
            let work = |worker: usize| {
                let wt0 = Instant::now();
                let mut pool = make_pool();
                let mut out = Vec::new();
                let mut unit_ns = Vec::new();
                'claim: while !cancelled() {
                    let r = next.fetch_add(1, Ordering::Relaxed);
                    let Some(range) = plan.ranges().get(r) else {
                        break;
                    };
                    let mut shard_busy = 0u64;
                    for &index in &todo[range.clone()] {
                        if cancelled() {
                            // Partial range: keep what finished, report no
                            // shard_finished for it.
                            break 'claim;
                        }
                        let ctx = ShardCtx {
                            index,
                            seed: shard_seed(seed, index as u64),
                        };
                        let u0 = rjam_obs::enabled().then(Instant::now);
                        out.push((index, f(&mut pool, ctx)));
                        if let Some(u0) = u0 {
                            let d = u0.elapsed().as_nanos() as u64;
                            shard_busy += d;
                            unit_ns.push((index, d));
                        }
                    }
                    if rjam_obs::enabled() {
                        note_shard(r, worker, range.len(), shard_busy);
                    }
                }
                let log = WorkerLog {
                    worker,
                    wall_ns: wt0.elapsed().as_nanos() as u64,
                    merge_wait_ns: 0,
                    finished: Instant::now(),
                    unit_ns,
                };
                (out, log)
            };

            // Ordered merge: scheduling decided who computed each unit, the
            // index decides where its result lands — moved, not cloned.
            let mut logs = Vec::with_capacity(workers);
            let mut merge = |(out, mut log): (Vec<(usize, T)>, WorkerLog)| {
                for (index, v) in out {
                    slots[index] = Some(v);
                }
                // Merge-wait: from the worker finishing to its results being
                // merged here (charged after the merge so the last worker's
                // merge cost is attributed, not lost).
                log.merge_wait_ns = log.finished.elapsed().as_nanos() as u64;
                logs.push(log);
            };
            if workers == 1 {
                merge(work(0));
            } else {
                std::thread::scope(|s| {
                    let work = &work;
                    let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || work(w))).collect();
                    for h in handles {
                        merge(h.join().expect("campaign unit worker panicked"));
                    }
                });
            }
            if rjam_obs::enabled() {
                let complete = slots.iter().all(Option::is_some);
                publish_run_telemetry(kind, seed, plan.n_shards(), t0, logs, streaming && complete);
            }
        }
        if slots.iter().any(Option::is_none) {
            done.extend(
                slots
                    .into_iter()
                    .enumerate()
                    .filter_map(|(i, v)| v.map(|v| (i, v))),
            );
            return None;
        }
        slots.into_iter().collect()
    }

    /// Publishes engine activity to the obs registry (no-op without `obs`).
    fn note_run(&self, plan: &ShardPlan, workers: usize) {
        if rjam_obs::enabled() {
            rjam_obs::registry::counter("core.engine_campaigns").inc();
            rjam_obs::registry::counter("core.engine_units").add(plan.n_units() as u64);
            rjam_obs::registry::counter("core.engine_shards").add(plan.n_shards() as u64);
            // The *last* campaign's worker count, not a lifetime max —
            // `rjamctl stats` reports what the most recent run actually used.
            rjam_obs::registry::gauge("core.engine_threads").set(workers as u64);
        }
    }
}

impl Default for CampaignEngine {
    fn default() -> Self {
        Self::from_env()
    }
}

/// Releases campaign-level stream ownership on drop, so a panicking unit
/// cannot leave the process-wide guard stuck and silence every later
/// campaign.
struct StreamOwnership(bool);

impl Drop for StreamOwnership {
    fn drop(&mut self) {
        if self.0 {
            stream::end_campaign();
        }
    }
}

/// One worker's raw timing log, turned into [`WorkerStats`] after the run.
struct WorkerLog {
    worker: usize,
    wall_ns: u64,
    merge_wait_ns: u64,
    finished: Instant,
    /// `(unit index, duration)` of every unit the worker ran.
    unit_ns: Vec<(usize, u64)>,
}

/// Assembles and publishes a run's [`EngineProfile`] over the units it
/// actually ran: per-worker buckets, the unit-latency histogram (per kind
/// and as the `core.engine_unit_ns` registry aggregate), stragglers
/// (flagged into the flight recorder with their unit index and worker,
/// reproducible via `shard_seed`), and — when `emit_done` — the terminal
/// `campaign_done` event.
fn publish_run_telemetry(
    kind: &str,
    seed: u64,
    shards: usize,
    t0: Instant,
    logs: Vec<WorkerLog>,
    emit_done: bool,
) {
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut hist = rjam_obs::LogHistogram::new();
    let mut durations: Vec<(usize, usize, u64)> = Vec::new();
    for log in &logs {
        for &(unit, d) in &log.unit_ns {
            hist.record(d);
            durations.push((unit, log.worker, d));
        }
    }
    // Exact median (the histogram's p50 carries bucket error; the
    // straggler threshold should not).
    let median = {
        let mut ds: Vec<u64> = durations.iter().map(|&(_, _, d)| d).collect();
        ds.sort_unstable();
        if ds.is_empty() {
            0
        } else {
            ds[ds.len() / 2]
        }
    };
    let mut stragglers: Vec<Straggler> = durations
        .iter()
        .filter(|&&(_, _, d)| median > 0 && d > telemetry::STRAGGLER_FACTOR * median)
        .map(|&(unit, worker, duration_ns)| Straggler {
            unit,
            worker,
            seed: shard_seed(seed, unit as u64),
            duration_ns,
        })
        .collect();
    stragglers.sort_by(|a, b| b.duration_ns.cmp(&a.duration_ns).then(a.unit.cmp(&b.unit)));
    stragglers.truncate(telemetry::MAX_STRAGGLERS);
    for s in &stragglers {
        rjam_obs::recorder::record_event(
            s.duration_ns,
            "engine_straggler",
            s.unit as i64,
            s.worker as i64,
        );
    }
    let workers: Vec<WorkerStats> = logs
        .iter()
        .map(|l| {
            let busy_ns: u64 = l.unit_ns.iter().map(|&(_, d)| d).sum();
            WorkerStats {
                worker: l.worker,
                units: l.unit_ns.len() as u64,
                busy_ns,
                idle_ns: l.wall_ns.saturating_sub(busy_ns),
                merge_wait_ns: l.merge_wait_ns,
            }
        })
        .collect();
    let profile = EngineProfile {
        kind: kind.to_string(),
        units: durations.len() as u64,
        shards: shards as u64,
        wall_ns,
        workers,
        unit_ns: hist.summary(),
        median_unit_ns: median,
        stragglers,
    };
    rjam_obs::registry::counter("core.engine_busy_ns").add(profile.busy_ns());
    rjam_obs::registry::counter("core.engine_idle_ns").add(profile.idle_ns());
    rjam_obs::registry::counter("core.engine_merge_wait_ns").add(profile.merge_wait_ns());
    rjam_obs::registry::counter("core.engine_stragglers").add(profile.stragglers.len() as u64);
    rjam_obs::registry::gauge("core.engine_queue_depth").set(0);
    rjam_obs::registry::histogram("core.engine_unit_ns").absorb(&hist);
    if emit_done {
        stream::emit(&ProgressEvent::Done {
            units: profile.units,
            elapsed_ns: wall_ns,
            workers: profile.workers.len() as u64,
            busy_ns: profile.busy_ns(),
            idle_ns: profile.idle_ns(),
            merge_wait_ns: profile.merge_wait_ns(),
        });
    }
    telemetry::publish(profile, &hist);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_shard_order_for_any_thread_count() {
        for threads in [1, 2, 3, 7, 16] {
            let engine = CampaignEngine::with_threads(threads);
            let got = engine.run("t", 33, 0xABCD, || (), |_, ctx| ctx.index);
            assert_eq!(got, (0..33).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn shard_seeds_are_stable_and_thread_independent() {
        let seeds = |threads| {
            CampaignEngine::with_threads(threads).run("t", 17, 99, || (), |_, ctx| ctx.seed)
        };
        let serial = seeds(1);
        for threads in [2, 7] {
            assert_eq!(serial, seeds(threads), "threads={threads}");
        }
        // And they match the free derivation function.
        for (i, &s) in serial.iter().enumerate() {
            assert_eq!(s, shard_seed(99, i as u64));
        }
    }

    #[test]
    fn shard_seed_never_collides_within_a_campaign() {
        use std::collections::HashSet;
        for campaign_seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let mut seen = HashSet::new();
            for shard in 0..4096u64 {
                assert!(
                    seen.insert(shard_seed(campaign_seed, shard)),
                    "collision at campaign={campaign_seed:#x} shard={shard}"
                );
            }
        }
    }

    #[test]
    fn shard_seed_separates_campaigns() {
        // Different campaign seeds must not map shard 0 onto one stream.
        assert_ne!(shard_seed(1, 0), shard_seed(2, 0));
        assert_ne!(shard_seed(0, 0), shard_seed(0, 1));
        // A shard seed is not the campaign seed itself (streams split).
        assert_ne!(shard_seed(7, 0), 7);
    }

    #[test]
    fn plan_covers_every_unit_exactly_once_in_order() {
        for n_units in [0usize, 1, 2, 7, 8, 33, 100, 257] {
            for workers in [1usize, 2, 3, 4, 7, 64] {
                let plan = ShardPlan::new(n_units, workers);
                let covered: Vec<usize> = plan.ranges().iter().cloned().flatten().collect();
                assert_eq!(
                    covered,
                    (0..n_units).collect::<Vec<_>>(),
                    "n_units={n_units} workers={workers}"
                );
                assert_eq!(plan.n_units(), n_units);
            }
        }
    }

    #[test]
    fn plan_overshards_and_balances() {
        // Enough units: at least OVERSHARD ranges per worker, sizes within 1.
        let plan = ShardPlan::new(1000, 4);
        assert_eq!(plan.n_shards(), 4 * OVERSHARD);
        let sizes: Vec<usize> = plan.ranges().iter().map(|r| r.len()).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1, "{sizes:?}");
        // Fewer units than the target: one unit per range, never empty.
        let tiny = ShardPlan::new(3, 4);
        assert_eq!(tiny.n_shards(), 3);
        assert!(tiny.ranges().iter().all(|r| r.len() == 1));
    }

    #[test]
    fn pooled_units_match_the_poolless_run() {
        // The pool must not leak into results: a counting pool changes
        // nothing against the same closure run without a pool.
        let plain =
            CampaignEngine::serial().run("t", 50, 7, || (), |_, ctx| ctx.seed ^ ctx.index as u64);
        for threads in [1usize, 2, 7, 64] {
            let pooled = CampaignEngine::with_threads(threads).run(
                "t",
                50,
                7,
                || 0u64,
                |scratch, ctx| {
                    *scratch += 1; // worker-local, must not affect output
                    ctx.seed ^ ctx.index as u64
                },
            );
            assert_eq!(pooled, plain, "threads={threads}");
        }
    }

    #[test]
    fn workers_exceeding_shards_degrade_gracefully() {
        // 64 workers, 3 units: the plan has 3 single-unit ranges and the
        // extra workers find the cursor exhausted.
        let got = CampaignEngine::with_threads(64).run("t", 3, 9, || (), |_, ctx| ctx.index);
        assert_eq!(got, vec![0, 1, 2]);
    }

    #[test]
    fn parse_threads_contract() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("")), Ok(None));
        assert_eq!(parse_threads(Some("  ")), Ok(None));
        assert_eq!(parse_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_threads(Some(" 8 ")), Ok(Some(8)));
        // 0 parses; with_threads clamps it to 1 — consistent with the
        // explicit API instead of silently fanning out to every core.
        assert_eq!(parse_threads(Some("0")), Ok(Some(0)));
        assert_eq!(CampaignEngine::with_threads(0).threads(), 1);
        for garbage in ["four", "-2", "3.5", "0x4", "4 threads"] {
            assert!(parse_threads(Some(garbage)).is_err(), "{garbage:?}");
        }
    }

    #[test]
    fn zero_shards_and_zero_threads_are_safe() {
        let engine = CampaignEngine::with_threads(0);
        assert_eq!(engine.threads(), 1);
        let empty: Vec<u64> = engine.run("t", 0, 5, || (), |_, ctx| ctx.seed);
        assert!(empty.is_empty());
        // More workers than shards degrades gracefully.
        let one = CampaignEngine::with_threads(64).run("t", 1, 5, || (), |_, ctx| ctx.index);
        assert_eq!(one, vec![0]);
    }

    #[test]
    fn shards_actually_run_concurrently_when_asked() {
        // Not a timing assertion — just that the pool path (workers > 1)
        // covers all shards exactly once under contention.
        use std::sync::atomic::AtomicU64;
        let hits = AtomicU64::new(0);
        let n = 257;
        let r = CampaignEngine::with_threads(7).run(
            "t",
            n,
            1,
            || (),
            |_, ctx| {
                hits.fetch_add(1, Ordering::Relaxed);
                ctx.index as u64
            },
        );
        assert_eq!(hits.load(Ordering::Relaxed), n as u64);
        assert_eq!(r, (0..n as u64).collect::<Vec<_>>());
    }

    #[cfg(feature = "obs")]
    #[test]
    fn engine_activity_reaches_registry() {
        use rjam_obs::registry::counter_value;
        let before = counter_value("core.engine_units");
        CampaignEngine::with_threads(2).run("t", 5, 3, || (), |_, ctx| ctx.index);
        assert!(counter_value("core.engine_units") >= before + 5);
    }

    #[test]
    fn ckpt_with_no_token_and_empty_checkpoint_is_the_plain_path() {
        let plain = CampaignEngine::with_threads(2).run("t", 40, 11, || (), |_, ctx| ctx.seed ^ 1);
        let mut done = BTreeMap::new();
        let got = CampaignEngine::with_threads(2)
            .run_units("t", 40, 11, &mut done, None, || (), |_, ctx| ctx.seed ^ 1)
            .expect("uncancelled run completes");
        assert_eq!(got, plain);
        assert!(done.is_empty(), "checkpoint drained on completion");
    }

    #[test]
    fn resume_matches_uninterrupted_at_every_thread_count() {
        let unit = |_: &mut (), ctx: ShardCtx| ctx.seed.wrapping_mul(ctx.index as u64 + 1);
        let plain = CampaignEngine::serial().run("t", 61, 4242, || (), unit);
        for threads in [1usize, 2, 7] {
            let engine = CampaignEngine::with_threads(threads);
            // Cancel after a fixed number of units so partial checkpoints of
            // every size (including empty and nearly-full) get exercised.
            for cancel_after in [0u64, 1, 5, 30, 60] {
                let token = CancelToken::new();
                let ran = std::sync::atomic::AtomicU64::new(0);
                let mut done = BTreeMap::new();
                let first = engine.run_units(
                    "t",
                    61,
                    4242,
                    &mut done,
                    Some(&token),
                    || (),
                    |p, ctx| {
                        if ran.fetch_add(1, Ordering::Relaxed) + 1 >= cancel_after {
                            token.cancel();
                        }
                        unit(p, ctx)
                    },
                );
                if let Some(full) = first {
                    // The token tripped too late to interrupt anything.
                    assert_eq!(full, plain, "threads={threads} after={cancel_after}");
                    continue;
                }
                assert!(done.len() < 61, "interrupted run left a partial checkpoint");
                // Every checkpointed value matches the uninterrupted run.
                for (&i, &v) in &done {
                    assert_eq!(v, plain[i], "threads={threads} unit={i}");
                }
                let resumed =
                    engine.run_units("t", 61, 4242, &mut done, Some(&token.clone()), || (), unit);
                // A still-tripped token blocks the resume entirely.
                assert!(resumed.is_none(), "cancelled token must not run units");
                let fresh = CancelToken::new();
                let resumed = engine
                    .run_units("t", 61, 4242, &mut done, Some(&fresh), || (), unit)
                    .expect("resume with a fresh token completes");
                assert_eq!(resumed, plain, "threads={threads} after={cancel_after}");
                assert!(done.is_empty());
            }
        }
    }

    #[test]
    fn ckpt_runs_only_the_missing_units() {
        use std::sync::atomic::AtomicU64;
        let mut done: BTreeMap<usize, u64> = (0..20)
            .filter(|i| i % 3 != 0)
            .map(|i| (i, shard_seed(9, i as u64)))
            .collect();
        let hits = AtomicU64::new(0);
        let got = CampaignEngine::with_threads(2)
            .run_units(
                "t",
                20,
                9,
                &mut done,
                None,
                || (),
                |_, ctx| {
                    hits.fetch_add(1, Ordering::Relaxed);
                    ctx.seed
                },
            )
            .expect("completes");
        assert_eq!(hits.load(Ordering::Relaxed), 7, "only units 0,3,..,18 ran");
        let plain: Vec<u64> = (0..20).map(|i| shard_seed(9, i as u64)).collect();
        assert_eq!(got, plain);
    }
}
