//! `e2e` — the end-to-end `rjamd` campaign benchmark.
//!
//! ```text
//! e2e run   [--workload NAME]... [--seed N] [--seconds S]
//! e2e trace [--workload NAME]... [--seed N] [--seconds S]
//! e2e digests
//! ```
//!
//! `run` spawns the `rjamd` built next to this executable and drives each
//! workload's seeded jobs through `rjam-job-v1` as one closed-loop client,
//! then checks every export. `trace` runs the same jobs in process and
//! through an instrumented shadow loop to split the time across layers.
//! `--trace 0|1` selects between the two as well. See `README.md`.

mod jobs;
mod probe;
mod shadow;
mod wire;

use jobs::{air_seconds, jobs, warmup_job, Workload};
use rjam_core::spec::{CampaignRequest, JobCheckpoint};
use rjam_core::CampaignEngine;
use rjam_obs::json::{self, Value};
use shadow::{trace_job, JobTrace, Layer, LayerStats, LAYERS};
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use wire::{JobFailure, Rjamd, WireJob};

const USAGE: &str = "\
Usage: e2e (run | trace) [--workload NAME]... [--seed N] [--seconds S]
       e2e --workload NAME --seed N --seconds S --trace 0|1
       e2e digests

  run          time jobs through rjamd (end-to-end metrics)
  trace        time jobs in process, split across layers (per-layer metrics)
  digests      print the export digests of the --seed 1 job lists
  --workload   detect_sweep | noise_floor | wimax_downlink | iperf_sweep
               (repeatable; default: all four)
  --seed N     job-list seed (default 1)
  --seconds S  run: time max(50, 5 S) jobs (about S seconds on 2 cores);
               trace: trace whole 12-job cycles for at least S seconds
               (default 10)
  --trace 0|1  0 = run, 1 = trace
";

/// Jobs a `run` times at least: the 80th percentile then has ten
/// samples beyond it.
const MIN_JOBS: usize = 50;
/// Jobs a `run` times per requested second: about the job rate of every
/// workload on a 2-core host at 2.1 GHz.
const JOBS_PER_SECOND: f64 = 5.0;
/// Jobs per full cycle of every workload's mix; a trace covers whole
/// cycles so every traced set has the same composition.
const MIX_CYCLE: usize = 12;
/// Short-lived daemons spawned to time set-up, besides the measured one.
const SETUP_SPAWNS: usize = 40;
/// Seed and length of the job lists whose export digests are committed.
const DIGEST_SEED: u64 = 1;
const DIGEST_JOBS: usize = 100;
const DIGESTS: &str = include_str!("../digests_seed1.txt");
/// Engine threads rjamd runs with (capped by the host's cores).
const THREADS: usize = 2;

/// The metrics a `run` reports on its final line, as `BENCHMARK.json`
/// lists them under `end_to_end`.
const END_TO_END: [&str; 6] = [
    "setup_s",
    "sim_s_per_s",
    "cpu_s_per_sim_s",
    "job_p50_s",
    "job_p80_s",
    "rss_peak_mb",
];

/// The metrics a `trace` reports on its final line, as `BENCHMARK.json`
/// lists them under `per_layer`: the ones defined on every workload.
const PER_LAYER: [&str; 24] = [
    "phy.share",
    "sdr.share",
    "channel.share",
    "fpga.share",
    "mac.share",
    "merge.share",
    "export.share",
    "merge.self_s",
    "export.self_s",
    "phy.allocs_per_frame",
    "sdr.allocs_per_frame",
    "channel.allocs_per_frame",
    "fpga.in_window_frac",
    "mac.delivered_frac",
    "merge.alloc_bytes",
    "export.bytes",
    "daemon.accept_ms_p50",
    "daemon.start_ms_p50",
    "daemon.tail_ms_p50",
    "daemon.lines_per_job",
    "daemon.done_bytes_p50",
    "trace.coverage",
    "trace.fidelity",
    "trace.overhead",
];

struct Opts {
    command: Command,
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Command {
    Run,
    Trace,
    Digests,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        command: Command::Run,
        workloads: Vec::new(),
        seed: 1,
        seconds: 10.0,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "run" => opts.command = Command::Run,
            "trace" => opts.command = Command::Trace,
            "digests" => opts.command = Command::Digests,
            "--workload" => {
                let name = value("--workload")?;
                let w = Workload::from_name(&name)
                    .ok_or_else(|| format!("unknown workload '{name}'"))?;
                opts.workloads.push(w);
            }
            "--seed" => {
                let v = value("--seed")?;
                opts.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: '{v}' is not a non-negative integer"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                opts.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => s,
                    _ => return Err(format!("--seconds: '{v}' is not a positive number")),
                };
            }
            "--trace" => {
                opts.command = match value("--trace")?.as_str() {
                    "0" => Command::Run,
                    "1" => Command::Trace,
                    other => return Err(format!("--trace: '{other}' is not 0 or 1")),
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = jobs::ALL.to_vec();
    }
    Ok(opts)
}

/// The host facts every record carries.
struct Host {
    rjamd: PathBuf,
    cores: usize,
    threads: usize,
}

/// One reported number.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    /// Samples behind the value.
    n: usize,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        n,
    }
}

/// One workload's result.
struct Record {
    workload: Workload,
    command: &'static str,
    /// The metrics of the final JSON line.
    summary: &'static [&'static str],
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: Vec<Metric>,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("error: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

fn run(opts: &Opts) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = THREADS.min(cores);
    if opts.command == Command::Digests {
        print!("{}", digests(threads));
        return Ok(());
    }
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate e2e: {e}"))?;
    let rjamd = exe.with_file_name("rjamd");
    if !rjamd.is_file() {
        return Err(format!(
            "{} not found: build it into the same target directory \
             (cargo build --release -p rjam-daemon)",
            rjamd.display()
        ));
    }
    let host = Host {
        rjamd,
        cores,
        threads,
    };
    let mut records = Vec::new();
    for &w in &opts.workloads {
        let record = match opts.command {
            Command::Trace => trace_workload(w, opts.seed, opts.seconds, &host)?,
            _ => run_workload(w, opts.seed, opts.seconds, &host)?,
        };
        print_record(&record, opts.seed, &host);
        records.push(record);
    }
    let file = match opts.command {
        Command::Trace => "BENCH_e2e_layers.json",
        _ => "BENCH_e2e.json",
    };
    std::fs::write(file, records_json(&records, opts.seed, &host) + "\n")
        .map_err(|e| format!("cannot write {file}: {e}"))
}

/// A `run`: closed-loop jobs through rjamd, then every export checked.
fn run_workload(w: Workload, seed: u64, seconds: f64, host: &Host) -> Result<Record, String> {
    let setup_probe = probe::seconds(host.threads);
    let mut setups = Vec::with_capacity(SETUP_SPAWNS + 1);
    for _ in 0..SETUP_SPAWNS {
        let (spawned, setup) = Rjamd::spawn(&host.rjamd, host.threads)?;
        spawned.finish()?;
        setups.push(setup.as_secs_f64());
    }
    let (mut daemon, setup) = Rjamd::spawn(&host.rjamd, host.threads)?;
    setups.push(setup.as_secs_f64());
    let setup_scale = probe::scale(setup_probe, probe::seconds(host.threads));
    let mut correct = daemon.run_job(&warmup_job(w, seed)).is_ok();

    let n_jobs = MIN_JOBS.max((seconds * JOBS_PER_SECOND).ceil() as usize);
    let cpu0 = daemon.cpu_seconds();
    let mut outcomes: Vec<(CampaignRequest, Result<WireJob, String>)> = Vec::new();
    let mut gone = None;
    let mut probes = vec![probe::seconds(host.threads)];
    for job in jobs(w, seed).take(n_jobs) {
        let outcome = match &gone {
            // A dead daemon fails every remaining job.
            Some(why) => Err(format!("rjamd gone: {why}")),
            None => match daemon.run_job(&job) {
                Ok(done) => Ok(done),
                Err(JobFailure::Refused(line)) => Err(format!("refused: {line}")),
                Err(JobFailure::Gone(why)) => {
                    gone = Some(why.clone());
                    Err(format!("rjamd gone: {why}"))
                }
            },
        };
        outcomes.push((job, outcome));
        probes.push(probe::seconds(host.threads));
    }
    let cpu = match (cpu0, daemon.cpu_seconds()) {
        (Some(a), Some(b)) => b - a,
        _ => f64::NAN,
    };
    let rss_kb = daemon.peak_rss_kb();
    if gone.is_none() {
        if let Err(e) = daemon.finish() {
            eprintln!("{}: {e}", w.name());
            correct = false;
        }
    }

    // Untimed: every export against the committed digest or a fresh
    // in-process run (byte-identical at any thread count).
    let digests = if seed == DIGEST_SEED {
        parse_digests(DIGESTS)
    } else {
        HashMap::new()
    };
    let engine = CampaignEngine::with_threads(host.threads);
    for (i, (job, outcome)) in outcomes.iter_mut().enumerate() {
        let Ok(done) = outcome else { continue };
        let matches = match digests.get(&(w.name().to_string(), i)) {
            Some(&digest) => fnv1a(done.export.as_bytes()) == digest,
            None => reference_export(job, &engine) == done.export,
        };
        if !matches {
            *outcome = Err("export differs from the reference".into());
        }
    }
    for (i, (_, outcome)) in outcomes.iter().enumerate() {
        if let Err(why) = outcome {
            eprintln!("{} job {i}: {why}", w.name());
        }
    }

    let n = outcomes.len();
    let done: Vec<&WireJob> = outcomes
        .iter()
        .filter_map(|(_, o)| o.as_ref().ok())
        .collect();
    let failed = n - done.len();
    // Host times are scaled to the reference host speed: job k by the
    // probes on either side of it.
    let scales: Vec<f64> = probes
        .windows(2)
        .map(|p| probe::scale(p[0], p[1]))
        .collect();
    // A failed job has no latency: it misses every limit.
    let raw: Vec<f64> = outcomes
        .iter()
        .map(|(_, o)| {
            o.as_ref()
                .map_or(f64::INFINITY, |d| d.latency.as_secs_f64())
        })
        .collect();
    let scaled: Vec<f64> = raw.iter().zip(&scales).map(|(l, k)| l * k).collect();
    let rates = |latencies: &[f64]| -> Vec<f64> {
        outcomes
            .iter()
            .zip(latencies)
            .map(|((job, _), latency)| air_seconds(job) / latency)
            .collect()
    };
    let air: f64 = outcomes
        .iter()
        .filter(|(_, o)| o.is_ok())
        .map(|(job, _)| air_seconds(job))
        .sum();
    let busy = |latencies: &[f64]| latencies.iter().filter(|l| l.is_finite()).sum::<f64>();
    let cpu_scale = busy(&scaled) / busy(&raw);
    let p80 = |latencies: &[f64]| percentile(latencies, 0.8).unwrap_or(f64::NAN);
    let mut metrics = vec![
        metric("setup_s", median(&setups) * setup_scale, "s", setups.len()),
        metric("sim_s_per_s", median(&rates(&scaled)), "air-s/s", n),
        metric(
            "cpu_s_per_sim_s",
            cpu * cpu_scale / air,
            "cpu-s/air-s",
            done.len(),
        ),
        metric("job_p50_s", median(&scaled), "s", n),
        metric("job_p80_s", p80(&scaled), "s", n),
        metric(
            "rss_peak_mb",
            rss_kb.map_or(f64::NAN, |kb| kb as f64 / 1024.0),
            "MB",
            1,
        ),
        metric("failed_frac", failed as f64 / n as f64, "ratio", n),
        metric(
            "host.probe_ms_p50",
            median(&probes) * 1e3,
            "ms",
            probes.len(),
        ),
        metric("raw.setup_s", median(&setups), "s", setups.len()),
        metric("raw.sim_s_per_s", median(&rates(&raw)), "air-s/s", n),
        metric("raw.cpu_s_per_sim_s", cpu / air, "cpu-s/air-s", done.len()),
        metric("raw.job_p50_s", median(&raw), "s", n),
        metric("raw.job_p80_s", p80(&raw), "s", n),
    ];
    metrics.extend(daemon_metrics(&done));
    Ok(Record {
        workload: w,
        command: "run",
        summary: &END_TO_END,
        attempted: n,
        failed,
        correct: correct && failed == 0,
        metrics,
    })
}

/// A `trace`: whole job-mix cycles in process and through the shadow,
/// then the same jobs once more through rjamd for the daemon layer.
fn trace_workload(w: Workload, seed: u64, seconds: f64, host: &Host) -> Result<Record, String> {
    let serial = CampaignEngine::serial();
    reference_export(&warmup_job(w, seed), &serial);
    let t0 = Instant::now();
    let mut traced: Vec<(CampaignRequest, JobTrace)> = Vec::new();
    for job in jobs(w, seed) {
        if !traced.is_empty()
            && traced.len().is_multiple_of(MIX_CYCLE)
            && t0.elapsed().as_secs_f64() >= seconds
        {
            break;
        }
        let t = trace_job(&job, &serial);
        traced.push((job, t));
    }

    let (mut daemon, _) = Rjamd::spawn(&host.rjamd, host.threads)?;
    let mut correct = daemon.run_job(&warmup_job(w, seed)).is_ok();
    let mut wire_jobs = Vec::with_capacity(traced.len());
    let mut failed = 0;
    for (i, (job, t)) in traced.iter().enumerate() {
        let ok = match daemon.run_job(job) {
            Ok(done) => {
                let same = done.export == t.export;
                wire_jobs.push(done);
                same
            }
            Err(_) => false,
        };
        if !ok || !t.matches {
            eprintln!(
                "{} job {i}: shadow, in-process and wire exports differ",
                w.name()
            );
            failed += 1;
        }
    }
    correct &= daemon.finish().is_ok();

    let jobs_n = traced.len() as f64;
    let mut stats = LayerStats::default();
    let mut traced_wall = 0.0;
    for (_, t) in &traced {
        stats.add(&t.layers);
        traced_wall += t.traced_s;
    }
    let per_job =
        |f: fn(&JobTrace) -> f64| median(&traced.iter().map(|(_, t)| f(t)).collect::<Vec<f64>>());
    let self_s = |l: Layer| stats.self_ns[l as usize] as f64 * 1e-9;
    let per = |a: f64, b: u64| if b == 0 { 0.0 } else { a / b as f64 };
    let n = traced.len();
    let mut metrics = Vec::new();
    for l in LAYERS {
        let name = l.name();
        metrics.push(metric(format!("{name}.self_s"), self_s(l) / jobs_n, "s", n));
        metrics.push(metric(
            format!("{name}.share"),
            self_s(l) / traced_wall,
            "ratio",
            n,
        ));
    }
    for l in [Layer::Phy, Layer::Sdr] {
        metrics.push(metric(
            format!("{}.ns_per_frame", l.name()),
            per(self_s(l) * 1e9, stats.frames),
            "ns",
            stats.frames as usize,
        ));
    }
    for l in [Layer::Phy, Layer::Sdr, Layer::Channel] {
        metrics.push(metric(
            format!("{}.allocs_per_frame", l.name()),
            per(stats.allocs[l as usize] as f64, stats.frames),
            "count",
            stats.frames as usize,
        ));
    }
    for l in [Layer::Channel, Layer::Fpga] {
        metrics.push(metric(
            format!("{}.ns_per_sample", l.name()),
            per(self_s(l) * 1e9, stats.samples),
            "ns",
            stats.samples as usize,
        ));
    }
    metrics.extend([
        metric(
            "fpga.in_window_frac",
            per(stats.in_window as f64, stats.triggers),
            "ratio",
            stats.triggers as usize,
        ),
        metric(
            "mac.ns_per_datagram",
            per(self_s(Layer::Mac) * 1e9, stats.datagrams),
            "ns",
            stats.datagrams as usize,
        ),
        metric(
            "mac.delivered_frac",
            per(stats.delivered as f64, stats.datagrams),
            "ratio",
            stats.datagrams as usize,
        ),
        metric(
            "merge.alloc_bytes",
            stats.alloc_bytes[Layer::Merge as usize] as f64 / jobs_n,
            "bytes",
            n,
        ),
        metric(
            "export.bytes",
            stats.export_bytes as f64 / jobs_n,
            "bytes",
            n,
        ),
        metric(
            "engine.overhead_s",
            per_job(|t| t.engine_overhead_s),
            "s",
            n,
        ),
    ]);
    metrics.extend(daemon_metrics(&wire_jobs.iter().collect::<Vec<_>>()));
    let coverage = stats.self_ns.iter().sum::<u64>() as f64 * 1e-9 / traced_wall;
    let fidelity = per_job(|t| t.fidelity);
    if coverage < 0.95 || !(0.9..=1.1).contains(&fidelity) {
        eprintln!(
            "{}: trace.coverage {coverage:.3} (want >= 0.95), trace.fidelity {fidelity:.3} \
             (want 0.9..1.1): the shadow no longer mirrors the campaign",
            w.name()
        );
    }
    metrics.extend([
        metric("trace.coverage", coverage, "ratio", n),
        metric("trace.fidelity", fidelity, "ratio", n),
        metric("trace.overhead", per_job(|t| t.overhead), "ratio", n),
    ]);
    Ok(Record {
        workload: w,
        command: "trace",
        summary: &PER_LAYER,
        attempted: n,
        failed,
        correct: correct && failed == 0,
        metrics,
    })
}

/// The daemon layer, from the wire timestamps of finished jobs.
fn daemon_metrics(done: &[&WireJob]) -> Vec<Metric> {
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let accept: Vec<f64> = done.iter().map(|d| ms(d.accept)).collect();
    let start: Vec<f64> = done.iter().filter_map(|d| d.start.map(ms)).collect();
    let tail: Vec<f64> = done.iter().filter_map(|d| d.tail.map(ms)).collect();
    let lines: Vec<f64> = done.iter().map(|d| d.lines as f64).collect();
    let bytes: Vec<f64> = done.iter().map(|d| d.done_bytes as f64).collect();
    vec![
        metric("daemon.accept_ms_p50", median(&accept), "ms", accept.len()),
        metric("daemon.start_ms_p50", median(&start), "ms", start.len()),
        metric("daemon.tail_ms_p50", median(&tail), "ms", tail.len()),
        metric("daemon.lines_per_job", median(&lines), "count", lines.len()),
        metric(
            "daemon.done_bytes_p50",
            median(&bytes),
            "bytes",
            bytes.len(),
        ),
    ]
}

fn reference_export(job: &CampaignRequest, engine: &CampaignEngine) -> String {
    job.run_to_export(engine, &mut JobCheckpoint::new(), None)
        .expect("an uncancelled run completes")
}

/// `e2e digests`: the committed digest table, regenerated in process.
fn digests(threads: usize) -> String {
    let engine = CampaignEngine::with_threads(threads);
    let mut out = format!(
        "# FNV-1a 64 of every export of the first {DIGEST_JOBS} jobs per workload at \
         --seed {DIGEST_SEED}\n# regenerate with: e2e digests\n"
    );
    for w in jobs::ALL {
        for (i, job) in jobs(w, DIGEST_SEED).take(DIGEST_JOBS).enumerate() {
            let digest = fnv1a(reference_export(&job, &engine).as_bytes());
            out += &format!("{} {i} {digest:016x}\n", w.name());
        }
    }
    out
}

fn parse_digests(text: &str) -> HashMap<(String, usize), u64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let w = f.next()?.to_string();
            let i = f.next()?.parse().ok()?;
            let d = u64::from_str_radix(f.next()?, 16).ok()?;
            Some(((w, i), d))
        })
        .collect()
}

/// FNV-1a, 64-bit: a compact digest for committed reference exports.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The median (mean of the middle pair for even counts); NaN when empty.
fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The nearest-rank `p` percentile, refused (`None`) unless at least ten
/// samples lie beyond it.
fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p * v.len() as f64).ceil() as usize;
    if rank == 0 || v.len() - rank.min(v.len()) < 10 {
        return None;
    }
    Some(v[rank - 1])
}

fn number(v: f64) -> Value {
    if v.is_finite() {
        Value::Number(v)
    } else {
        Value::Null
    }
}

fn print_record(r: &Record, seed: u64, host: &Host) {
    println!(
        "== {} {}  seed {seed}  host_cores {}  threads {}  attempted {}  failed {}  correct {}",
        r.workload.name(),
        r.command,
        host.cores,
        host.threads,
        r.attempted,
        r.failed,
        r.correct
    );
    for m in &r.metrics {
        println!(
            "   {:<26} {:>14} {:<12} n={}",
            m.name,
            json::write_value(&number(m.value)),
            m.unit,
            m.n
        );
    }
    // The last line: this workload's machine-readable summary.
    let mut metrics = BTreeMap::new();
    for m in r
        .metrics
        .iter()
        .filter(|m| r.summary.contains(&m.name.as_str()))
    {
        let mut o = BTreeMap::new();
        o.insert("value".to_string(), number(m.value));
        o.insert("unit".to_string(), Value::String(m.unit.to_string()));
        metrics.insert(m.name.clone(), Value::Object(o));
    }
    let mut line = BTreeMap::new();
    line.insert("correct".to_string(), Value::Bool(r.correct));
    line.insert("attempted".to_string(), Value::Number(r.attempted as f64));
    line.insert("failed".to_string(), Value::Number(r.failed as f64));
    line.insert("metrics".to_string(), Value::Object(metrics));
    println!("{}", json::write_value(&Value::Object(line)));
}

fn records_json(records: &[Record], seed: u64, host: &Host) -> String {
    let rows = records
        .iter()
        .map(|r| {
            let metrics = r
                .metrics
                .iter()
                .map(|m| {
                    let mut o = BTreeMap::new();
                    o.insert("name".to_string(), Value::String(m.name.clone()));
                    o.insert("value".to_string(), number(m.value));
                    o.insert("unit".to_string(), Value::String(m.unit.to_string()));
                    o.insert("n".to_string(), Value::Number(m.n as f64));
                    Value::Object(o)
                })
                .collect();
            let mut o = BTreeMap::new();
            o.insert(
                "workload".to_string(),
                Value::String(r.workload.name().to_string()),
            );
            o.insert("command".to_string(), Value::String(r.command.to_string()));
            o.insert("seed".to_string(), Value::Number(seed as f64));
            o.insert("host_cores".to_string(), Value::Number(host.cores as f64));
            o.insert("threads".to_string(), Value::Number(host.threads as f64));
            o.insert("attempted".to_string(), Value::Number(r.attempted as f64));
            o.insert("failed".to_string(), Value::Number(r.failed as f64));
            o.insert("correct".to_string(), Value::Bool(r.correct));
            o.insert("metrics".to_string(), Value::Array(metrics));
            Value::Object(o)
        })
        .collect();
    json::write_value(&Value::Array(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.8), Some(40.0));
        assert_eq!(percentile(&v[..49], 0.8), None);
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn committed_digests_parse() {
        let table = parse_digests(DIGESTS);
        for w in jobs::ALL {
            assert!(table.contains_key(&(w.name().to_string(), DIGEST_JOBS - 1)));
        }
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn flag_form_parses() {
        let args: Vec<String> = "--workload noise_floor --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let opts = parse_args(&args).expect("parses");
        assert!(opts.command == Command::Trace);
        assert_eq!(opts.workloads, vec![Workload::NoiseFloor]);
        assert_eq!((opts.seed, opts.seconds), (7, 3.0));
        assert!(parse_args(&["--trace".to_string(), "2".to_string()]).is_err());
        assert!(parse_args(&["--workload".to_string(), "x".to_string()]).is_err());
    }
}
