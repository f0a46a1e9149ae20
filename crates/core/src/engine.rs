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
//! 3. **Ordered fold.** Workers claim unit ranges from an atomic cursor
//!    over a [`ShardPlan`] (dynamic load balancing), but results are
//!    **folded in unit order**: whichever worker completes the next unit
//!    in index order folds it and every ready successor, and only the
//!    out-of-order tail waits — no clones, no order dependence. Collecting
//!    results into a `Vec` ([`CampaignEngine::run_units`]) is the trivial
//!    fold; [`CampaignEngine::fold_units`] takes any other and holds at
//!    most one unfolded result per worker, so a fold whose results are
//!    large runs in memory that does not grow with its unit count.
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
//! wins, else the `RJAM_THREADS` environment variable (strictly parsed:
//! `rjamctl`, `rjamd`, the figure binaries and the examples refuse a
//! malformed or zero value through [`CampaignEngine::from_args`]), else
//! `std::thread::available_parallelism()`.

use rjam_obs::stream::{self, ProgressEvent};
use rjam_obs::telemetry::{self, EngineProfile, ProfileStore, Straggler, WorkerStats};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// Strictly parses a worker count: the value of [`THREADS_ENV`] or of a
/// `--threads` flag, which `source` names in the error. A positive decimal
/// integer, surrounding whitespace allowed, parses; anything else, `0`
/// included, is an error with an operator-facing message.
fn parse_threads(source: &str, raw: &str) -> Result<usize, String> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{source} must be a positive integer, got {raw:?}")),
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

    /// One range per unit, in order: the plan of
    /// [`CampaignEngine::fold_units`], whose workers claim one unit at a
    /// time so that none runs far ahead of the fold's frontier.
    fn unit_by_unit(n_units: usize) -> Self {
        ShardPlan {
            ranges: (0..n_units).map(|u| u..u + 1).collect(),
            n_units,
        }
    }
}

/// The checkpoint of an ordered fold ([`CampaignEngine::fold_units`]):
/// the accumulator over units `0..folded`, plus the results of later
/// units that finished before an earlier one — the out-of-order tail.
#[derive(Debug)]
pub struct FoldCheckpoint<A, T> {
    acc: A,
    folded: usize,
    tail: BTreeMap<usize, T>,
}

impl<A: Default, T> Default for FoldCheckpoint<A, T> {
    fn default() -> Self {
        FoldCheckpoint::new(A::default())
    }
}

impl<A, T> FoldCheckpoint<A, T> {
    /// Nothing folded yet; the fold starts from `acc`.
    pub fn new(acc: A) -> Self {
        FoldCheckpoint {
            acc,
            folded: 0,
            tail: BTreeMap::new(),
        }
    }

    /// Units done: folded into the accumulator or held in the tail.
    pub fn units_done(&self) -> usize {
        self.folded + self.tail.len()
    }

    /// Records unit `index`'s result, then folds every unit the folded
    /// prefix now reaches, in order.
    fn land(&mut self, index: usize, value: T, fold: &impl Fn(&mut A, T)) {
        self.tail.insert(index, value);
        self.fold_ready(fold);
    }

    /// Folds the tail's units that continue the folded prefix.
    fn fold_ready(&mut self, fold: &impl Fn(&mut A, T)) {
        while let Some(value) = self.tail.remove(&self.folded) {
            fold(&mut self.acc, value);
            self.folded += 1;
        }
    }
}

/// Where an engine sends its `rjam-progress-v1` stream: called once per
/// event, from the engine's worker threads. The sink writes the event's
/// line ([`ProgressEvent::to_line`]) wherever its owner wants it.
pub type ProgressSink = Arc<dyn Fn(&ProgressEvent) + Send + Sync>;

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
///
/// An engine owns its telemetry: the progress sink its owner attached
/// ([`Self::with_progress`]) and the profiles its runs published
/// ([`Self::profile`]). Clones share both.
#[derive(Clone)]
pub struct CampaignEngine {
    threads: usize,
    progress: Option<ProgressSink>,
    profiles: Arc<Mutex<ProfileStore>>,
}

impl CampaignEngine {
    /// The engine a front end asked for: `threads`, the value of its
    /// `--threads` flag, when given; else [`THREADS_ENV`] when set and not
    /// blank; else one worker per core. A malformed or zero count, from
    /// either source, is an error naming the flag or the variable; the
    /// front ends that own a usage channel (`rjamctl`, `rjamd`, the figure
    /// binaries) exit 2 with it.
    pub fn from_args(threads: Option<&str>) -> Result<Self, String> {
        let n = match (threads, std::env::var(THREADS_ENV)) {
            (Some(raw), _) => parse_threads("--threads", raw)?,
            (None, Ok(raw)) if !raw.trim().is_empty() => parse_threads(THREADS_ENV, &raw)?,
            (None, _) => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        };
        Ok(Self::with_threads(n))
    }

    /// A single-threaded engine — the reference path the determinism
    /// contract is stated against.
    pub fn serial() -> Self {
        Self::with_threads(1)
    }

    /// An engine with an explicit worker count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        CampaignEngine {
            threads: threads.max(1),
            progress: None,
            profiles: Arc::default(),
        }
    }

    /// Routes this engine's `rjam-progress-v1` stream into `sink`,
    /// replacing any earlier sink; events arrive one call at a time, in
    /// stream order. An engine without a sink — one built inside a unit,
    /// say — emits nothing.
    pub fn with_progress(mut self, sink: ProgressSink) -> Self {
        self.progress = Some(sink);
        self
    }

    /// The worker count this engine will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The most recent [`EngineProfile`] this engine or a clone published
    /// for `kind`; always `None` without the `obs` feature.
    pub fn profile(&self, kind: &str) -> Option<EngineProfile> {
        self.profiles
            .lock()
            .expect("engine profile lock")
            .profile(kind)
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
    /// of worker count or scheduling: [`Self::fold_units`] with the
    /// trivial fold, a `Vec` that each result is pushed onto.
    ///
    /// `done` holds the results of units completed by *previous* attempts,
    /// keyed by unit index. A tripped `cancel` leaves every completed
    /// result in `done` and returns `None` — run again with the same
    /// arguments to resume. On completion `done` is drained. Since the
    /// accumulator keeps every result anyway, the units are dispatched in
    /// the coarser ranges of [`ShardPlan::new`].
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
        let mut ckpt = FoldCheckpoint {
            acc: Vec::with_capacity(n_units),
            folded: 0,
            tail: std::mem::take(done),
        };
        let push = |acc: &mut Vec<T>, v: T| acc.push(v);
        let out = self.drive(
            kind, n_units, seed, &mut ckpt, cancel, false, make_pool, f, push,
        );
        if out.is_none() {
            done.extend(ckpt.acc.into_iter().enumerate());
            done.append(&mut ckpt.tail);
        }
        out
    }

    /// Runs the units `0..n_units` of campaign `seed` that `ckpt` does not
    /// already hold and folds their results into its accumulator **in
    /// unit order**, regardless of worker count or scheduling — the
    /// engine's one entry point.
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
    /// more, `std::thread::scope` workers claim the missing units one at a
    /// time from a shared atomic cursor, and
    /// a panicking unit propagates the panic to the caller. Whichever
    /// worker completes the unit at the fold's frontier applies `fold` to
    /// it and to every ready successor, under one lock; a unit that
    /// finishes ahead of the frontier waits in the checkpoint's tail. The
    /// accumulator therefore sees exactly the serial sequence of results.
    /// A worker starts a unit only while it is fewer than `workers` units
    /// past the frontier, so at most one unfolded result per worker — in
    /// flight or in the tail — exists at any time, however long the run.
    ///
    /// Checkpoint and cancel — the primitive behind `rjamd`'s cancel +
    /// resume: `ckpt` holds the folded prefix and tail of *previous*
    /// attempts. Each unit's seed derives from its **original** index via
    /// [`shard_seed`], so a resumed campaign computes bit-identical
    /// results to an uninterrupted one. A tripped `cancel` stops workers
    /// from claiming further units (units in flight finish); the call then
    /// returns `None` with every finished unit in `ckpt` — run again with
    /// the same arguments to resume. On completion the accumulator is
    /// returned and `ckpt` is left empty.
    ///
    /// `kind` (`"wifi_detection"`, `"false_alarm"`, ...) labels the run's
    /// telemetry. With the `obs` feature on, the engine times every unit
    /// and fold and publishes an [`EngineProfile`] (per-worker
    /// busy/idle/merge-wait, with the fold time as merge-wait,
    /// the unit-latency summary, stragglers > `STRAGGLER_FACTOR`×
    /// the median with their seeds) into its own store ([`Self::profile`]),
    /// and — when it has a progress sink ([`Self::with_progress`]) — emits
    /// the `rjam-progress-v1` event chain (started / shard finished /
    /// snapshot with ETA / done) over the units it runs. An interrupted run
    /// leaves the chain truncated (no `campaign_done`), which is what its
    /// watchers should see. None of this touches results; without `obs`
    /// the instrumentation compiles out.
    #[allow(clippy::too_many_arguments)]
    pub fn fold_units<T, A, P, M, F, G>(
        &self,
        kind: &'static str,
        n_units: usize,
        seed: u64,
        ckpt: &mut FoldCheckpoint<A, T>,
        cancel: Option<&CancelToken>,
        make_pool: M,
        f: F,
        fold: G,
    ) -> Option<A>
    where
        T: Send,
        A: Send + Default,
        M: Fn() -> P + Sync,
        F: Fn(&mut P, ShardCtx) -> T + Sync,
        G: Fn(&mut A, T) + Sync,
    {
        self.drive(kind, n_units, seed, ckpt, cancel, true, make_pool, f, fold)
    }

    /// The one worker loop behind [`Self::fold_units`] and
    /// [`Self::run_units`]. A `bounded` run claims units one at a time
    /// and starts a unit only within `workers` units of the fold's
    /// frontier, so at most `workers` unfolded results exist at once; an
    /// unbounded one claims the coarser ranges of [`ShardPlan::new`].
    #[allow(clippy::too_many_arguments)]
    fn drive<T, A, P, M, F, G>(
        &self,
        kind: &'static str,
        n_units: usize,
        seed: u64,
        ckpt: &mut FoldCheckpoint<A, T>,
        cancel: Option<&CancelToken>,
        bounded: bool,
        make_pool: M,
        f: F,
        fold: G,
    ) -> Option<A>
    where
        T: Send,
        A: Send + Default,
        M: Fn() -> P + Sync,
        F: Fn(&mut P, ShardCtx) -> T + Sync,
        G: Fn(&mut A, T) + Sync,
    {
        let cancelled = || cancel.is_some_and(CancelToken::is_cancelled);
        ckpt.fold_ready(&fold);
        if !cancelled() {
            let todo: Vec<usize> = (ckpt.folded..n_units)
                .filter(|i| !ckpt.tail.contains_key(i))
                .collect();
            let workers = self.threads.min(todo.len()).max(1);
            let plan = if bounded {
                ShardPlan::unit_by_unit(todo.len())
            } else {
                ShardPlan::new(todo.len(), workers)
            };
            self.note_run(&plan, workers);

            let progress = self.progress.as_deref().filter(|_| rjam_obs::enabled());
            if let Some(emit) = progress {
                emit(&ProgressEvent::Started {
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
            let finished = Mutex::new(0u64);
            let note_shard = |shard: usize, worker: usize, units: usize, busy_ns: u64| {
                let Some(emit) = progress else {
                    return;
                };
                let mut finished = finished.lock().expect("engine progress lock");
                *finished += units as u64;
                let total = todo.len() as u64;
                let elapsed = t0.elapsed().as_nanos() as u64;
                emit(&ProgressEvent::ShardFinished {
                    shard: shard as u64,
                    worker: worker as u64,
                    units: units as u64,
                    busy_ns,
                });
                emit(&ProgressEvent::Snapshot {
                    done: *finished,
                    total,
                    elapsed_ns: elapsed,
                    eta_ns: stream::eta_ns(elapsed, *finished, total),
                });
            };

            // The one worker loop: claim ranges until the plan runs out or
            // the token trips, landing each result in the ordered fold.
            let state = Mutex::new(&mut *ckpt);
            // Signalled whenever a unit lands, for bounded runs' waits.
            let landed = Condvar::new();
            let next = AtomicUsize::new(0);
            let work = |worker: usize| {
                let mut pool = make_pool();
                let mut unit_ns = Vec::new();
                let mut fold_ns = 0u64;
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
                        if bounded {
                            // Wait for the frontier to come within reach;
                            // the frontier's own unit never waits.
                            let w0 = rjam_obs::enabled().then(Instant::now);
                            let mut st = state.lock().expect("engine fold lock");
                            while index >= st.folded + workers {
                                if cancelled() {
                                    break 'claim;
                                }
                                let wait = Duration::from_millis(5);
                                st = landed.wait_timeout(st, wait).expect("engine fold lock").0;
                            }
                            drop(st);
                            if let Some(w0) = w0 {
                                fold_ns += w0.elapsed().as_nanos() as u64;
                            }
                        }
                        let ctx = ShardCtx {
                            index,
                            seed: shard_seed(seed, index as u64),
                        };
                        let u0 = rjam_obs::enabled().then(Instant::now);
                        let value = f(&mut pool, ctx);
                        let f0 = u0.map(|u0| {
                            let d = u0.elapsed().as_nanos() as u64;
                            shard_busy += d;
                            unit_ns.push((index, d));
                            Instant::now()
                        });
                        state
                            .lock()
                            .expect("engine fold lock")
                            .land(index, value, &fold);
                        if bounded {
                            landed.notify_all();
                        }
                        if let Some(f0) = f0 {
                            fold_ns += f0.elapsed().as_nanos() as u64;
                        }
                    }
                    if rjam_obs::enabled() {
                        note_shard(r, worker, range.len(), shard_busy);
                    }
                }
                WorkerLog {
                    worker,
                    wall_ns: t0.elapsed().as_nanos() as u64,
                    fold_ns,
                    finished: Instant::now(),
                    unit_ns,
                }
            };
            let logs: Vec<WorkerLog> = if workers == 1 {
                vec![work(0)]
            } else {
                std::thread::scope(|s| {
                    let work = &work;
                    let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || work(w))).collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("campaign unit worker panicked"))
                        .collect()
                })
            };
            if rjam_obs::enabled() {
                let done_to = progress.filter(|_| ckpt.folded == n_units);
                let shards = plan.n_shards();
                publish_run_telemetry(kind, seed, shards, t0, logs, done_to, &self.profiles);
            }
        }
        if ckpt.folded < n_units {
            return None;
        }
        ckpt.folded = 0;
        Some(std::mem::take(&mut ckpt.acc))
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

/// One worker's raw timing log, turned into [`WorkerStats`] after the run.
struct WorkerLog {
    worker: usize,
    /// From the run's start to `finished`, so the wait for a spawned
    /// worker to start counts as its idle time.
    wall_ns: u64,
    /// Time landing results in the ordered fold, its lock and, in
    /// bounded runs, the wait for the frontier included.
    fold_ns: u64,
    finished: Instant,
    /// `(unit index, duration)` of every unit the worker ran.
    unit_ns: Vec<(usize, u64)>,
}

/// Assembles and publishes a run's [`EngineProfile`] over the units it
/// actually ran: per-worker buckets, the unit-latency histogram (in the
/// profile and as the `core.engine_unit_ns` registry aggregate), stragglers
/// (flagged into the flight recorder with their unit index and worker,
/// reproducible via `shard_seed`), and — into `done_to`, when given — the
/// terminal `campaign_done` event. The profile goes into `store`.
fn publish_run_telemetry(
    kind: &str,
    seed: u64,
    shards: usize,
    t0: Instant,
    logs: Vec<WorkerLog>,
    done_to: Option<&(dyn Fn(&ProgressEvent) + Send + Sync)>,
    store: &Mutex<ProfileStore>,
) {
    let end = Instant::now();
    let wall_ns = end.duration_since(t0).as_nanos() as u64;
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
            // A worker that finished early waits out the rest of the
            // campaign: that tail is idle time too.
            let tail_ns = end.duration_since(l.finished).as_nanos() as u64;
            WorkerStats {
                worker: l.worker,
                units: l.unit_ns.len() as u64,
                busy_ns,
                idle_ns: l.wall_ns.saturating_sub(busy_ns + l.fold_ns) + tail_ns,
                merge_wait_ns: l.fold_ns,
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
    rjam_obs::registry::histogram("core.engine_unit_ns").absorb(&hist);
    if let Some(emit) = done_to {
        emit(&ProgressEvent::Done {
            units: profile.units,
            elapsed_ns: wall_ns,
            workers: profile.workers.len() as u64,
            busy_ns: profile.busy_ns(),
            idle_ns: profile.idle_ns(),
            merge_wait_ns: profile.merge_wait_ns(),
        });
    }
    store.lock().expect("engine profile lock").publish(profile);
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
        assert_eq!(parse_threads("--threads", "1"), Ok(1));
        assert_eq!(parse_threads("--threads", " 8 "), Ok(8));
        // 0 is refused like garbage: a front end must not quietly run one
        // worker (with_threads clamps an explicit 0 to 1).
        assert_eq!(CampaignEngine::with_threads(0).threads(), 1);
        for bad in ["0", "", "  ", "four", "-2", "3.5", "0x4", "4 threads"] {
            let err = parse_threads("RJAM_THREADS", bad).unwrap_err();
            assert_eq!(
                err,
                format!("RJAM_THREADS must be a positive integer, got {bad:?}")
            );
        }
        let err = parse_threads("--threads", "abc").unwrap_err();
        assert!(err.starts_with("--threads "), "{err}");
        // An explicit count wins over the environment, whatever it holds.
        assert_eq!(CampaignEngine::from_args(Some("3")).unwrap().threads(), 3);
        assert!(CampaignEngine::from_args(Some("0")).is_err());
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

    #[cfg(feature = "obs")]
    #[test]
    fn a_worker_that_finishes_early_is_charged_idle_until_the_end() {
        // Four one-unit shards: units 0-2 take 20 ms, the last claimed one
        // 120 ms, so three workers finish ~100 ms before the campaign does.
        // Unless worker 0 ran the long unit, one of them is merged before
        // it, with no merge-wait to cover its tail.
        let engine = CampaignEngine::with_threads(4);
        engine.run(
            "early_finish",
            4,
            5,
            || (),
            |_, ctx| {
                let ms = if ctx.index == 3 { 120 } else { 20 };
                std::thread::sleep(std::time::Duration::from_millis(ms));
            },
        );
        let p = engine.profile("early_finish").expect("profile published");
        assert_eq!(p.workers.len(), 4);
        for w in &p.workers {
            let covered = w.busy_ns + w.idle_ns + w.merge_wait_ns;
            assert!(
                covered as f64 >= 0.95 * p.wall_ns as f64,
                "worker {w:?} covers {covered} of {} ns",
                p.wall_ns
            );
        }
        assert!(p.attributed_fraction() >= 0.95, "{p:?}");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn worker_start_latency_is_attributed_as_idle() {
        // No-op units: the run is as short as the thread spawns, so any
        // time from the run's start to a worker's start that lands in no
        // bucket shows as a large unattributed share.
        let engine = CampaignEngine::with_threads(4);
        engine.run("noop", 8, 1, || (), |_, ctx| ctx.index);
        let p = engine.profile("noop").expect("profile published");
        assert_eq!(p.workers.len(), 4);
        assert!(p.attributed_fraction() >= 0.99, "{p:?}");
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
    fn a_fold_checkpoint_counts_its_tail_and_folds_in_order() {
        let cat = |acc: &mut String, v: char| acc.push(v);
        let mut ckpt = FoldCheckpoint::new(String::new());
        ckpt.land(2, 'c', &cat);
        ckpt.land(1, 'b', &cat);
        assert_eq!((ckpt.folded, ckpt.units_done()), (0, 2), "held in the tail");
        ckpt.land(0, 'a', &cat);
        assert_eq!((ckpt.folded, ckpt.units_done()), (3, 3));
        ckpt.land(4, 'e', &cat);
        assert_eq!((ckpt.folded, ckpt.units_done()), (3, 4));
        // A resume runs only unit 3, then folds 3 and 4 behind it.
        let got = CampaignEngine::with_threads(2)
            .fold_units(
                "t",
                5,
                1,
                &mut ckpt,
                None,
                || (),
                |_, ctx| char::from(b'a' + ctx.index as u8),
                cat,
            )
            .expect("completes");
        assert_eq!(got, "abcde");
        assert_eq!(
            ckpt.units_done(),
            0,
            "a completed fold leaves its checkpoint empty"
        );
    }

    #[test]
    fn a_fold_holds_at_most_one_unfolded_result_per_worker() {
        use std::sync::atomic::AtomicI64;
        for threads in [2usize, 3, 4] {
            // Results alive: +1 when a unit starts, -1 when it is folded.
            let alive = AtomicI64::new(0);
            let peak = AtomicI64::new(0);
            let got = CampaignEngine::with_threads(threads)
                .fold_units(
                    "t",
                    60,
                    3,
                    &mut FoldCheckpoint::new(Vec::new()),
                    None,
                    || (),
                    |_, ctx| {
                        let now = alive.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        // Uneven units, so later ones often finish first.
                        let us = [300, 50, 900, 10][ctx.index % 4];
                        std::thread::sleep(std::time::Duration::from_micros(us));
                        ctx.index
                    },
                    |acc: &mut Vec<usize>, v| {
                        alive.fetch_sub(1, Ordering::SeqCst);
                        acc.push(v);
                    },
                )
                .expect("completes");
            assert_eq!(got, (0..60).collect::<Vec<_>>());
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= threads as i64,
                "{peak} results alive at {threads} threads"
            );
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
