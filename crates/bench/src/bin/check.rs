//! `check`: the CI gate tool. It validates every machine-readable artifact
//! the workspace writes and compares bench medians against bounds.
//!
//! ```text
//! check bench    REPORT...
//! check baseline FRESH BASE [--max-ratio R] [--params P] [--stat median|min]
//! check ratio    REPORT NUM DEN --max-ratio R [--oversubscribed-max-ratio R]
//! check progress STREAM...
//! check health   [--require-alarm] [--forbid-alarm] [--alarm-within N] STREAM...
//! check job      [--job ID] [--require-done] TRANSCRIPT...
//! check trace    [--require-chain] TRACE...
//! ```
//!
//! * `bench`: the `BENCH_*.json` record schema the harness writes.
//!   `host_cores` and `threads` are mandatory positive integers, since
//!   scaling records are uninterpretable without the host's parallelism.
//! * `baseline`: for every `(bench, params)` record of BASE (only the
//!   `--params` label, if given), FRESH must hold a matching record whose
//!   statistic (`--stat`, default median) is at most R times the
//!   baseline's. Repeated labels in one report collapse to their best
//!   (lowest) value, so a bench may emit a label once per alternating
//!   round. A missing record, or a filter that matches nothing, fails.
//! * `ratio`: the same comparator applied to two `params` labels of one
//!   report: each NUM median must be at most R times the DEN median of the
//!   same bench. `--oversubscribed-max-ratio` replaces R when the NUM
//!   record ran more `threads` than its `host_cores`, where no speedup is
//!   possible and the gate can only bound overhead.
//! * `progress`: complete `rjam-progress-v1` campaign chains
//!   ([`rjam_obs::stream::validate_chain`]); `health`: complete
//!   `rjam-health-v1` monitor runs ([`rjam_obs::health::validate_chain`])
//!   plus alarm expectations; `job`: `rjam-job-v1` transcripts of
//!   `rjamctl watch` or whole sessions; `trace`: `rjam-trace-v1`
//!   documents, with `--require-chain` asking for one frame that carries
//!   the full emit -> fire -> trigger -> jam TX -> outcome chain.
//!
//! Each input prints `PATH: OK (summary)` on stdout or
//! `PATH: INVALID: reason` on stderr. The exit code is 0 when every input
//! passed, 1 when any was invalid or regressed, and 2 on a usage error.

use rjam_daemon::{JobRequest, JobResponse};
use rjam_obs::flags::{self, Flags};
use rjam_obs::health::{self, HealthEvent};
use rjam_obs::json::{self, Value};
use rjam_obs::proto::{Fields, ParseError};
use rjam_obs::stream::{self, ProgressEvent};
use rjam_obs::trace::TraceDoc;
use std::process::ExitCode;

/// Default `baseline` bound. Smoke runs take 3 samples on a shared runner,
/// where ±10 % run-to-run noise is normal, while a genuine algorithmic
/// regression shows up as 2-10x.
const REGRESSION_RATIO: f64 = 1.25;

/// Checks one input's text, returning a one-line summary or the reason it
/// is invalid.
type Gate = Box<dyn Fn(&str) -> Result<String, String>>;

/// A subcommand: its name, its usage line (the flags it names are the
/// flags it accepts, read by [`rjam_obs::flags`]), and the builder that
/// turns parsed flags into the inputs to check and their gate. A builder
/// error is a usage error.
struct Command(&'static str, &'static str, Build);

type Build = fn(&Flags) -> Result<(Vec<String>, Gate), String>;

const COMMANDS: &[Command] = &[
    Command("bench", "REPORT...", |o| each(o, check_report)),
    Command(
        "baseline",
        "[--max-ratio R] [--params P] [--stat median|min] FRESH BASE",
        build_baseline,
    ),
    Command(
        "ratio",
        "[--max-ratio R] [--oversubscribed-max-ratio R] REPORT NUM DEN",
        build_ratio,
    ),
    Command("progress", "STREAM...", |o| each(o, check_progress)),
    Command(
        "health",
        "[--require-alarm] [--forbid-alarm] [--alarm-within N] STREAM...",
        build_health,
    ),
    Command("job", "[--job ID] [--require-done] TRANSCRIPT...", |o| {
        let (job, done) = (o.str("--job").map(String::from), o.has("--require-done"));
        each(o, move |t| check_job(t, job.as_deref(), done))
    }),
    Command("trace", "[--require-chain] TRACE...", |o| {
        let require_chain = o.has("--require-chain");
        each(o, move |t| check_trace(t, require_chain))
    }),
];

/// A ratio bound: a finite positive number.
fn ratio(o: &Flags, flag: &str) -> Result<Option<f64>, String> {
    match o.get::<f64>(flag)? {
        Some(r) if !(r.is_finite() && r > 0.0) => {
            Err(format!("{flag} must be a positive number, got {r}"))
        }
        r => Ok(r),
    }
}

/// Runs `gate` on every positional, of which there must be at least one.
fn each(
    o: &Flags,
    gate: impl Fn(&str) -> Result<String, String> + 'static,
) -> Result<(Vec<String>, Gate), String> {
    if o.positional().is_empty() {
        return Err("no input files".into());
    }
    Ok((o.positional().to_vec(), Box::new(gate)))
}

/// Runs one command line, returning the exit code.
fn run(args: &[String]) -> u8 {
    let Some(Command(name, usage, build)) = args
        .first()
        .and_then(|name| COMMANDS.iter().find(|c| c.0 == name))
    else {
        let all: Vec<String> = COMMANDS
            .iter()
            .map(|c| format!("check {} {}", c.0, c.1))
            .collect();
        eprintln!("usage:\n  {}", all.join("\n  "));
        return 2;
    };
    let (inputs, gate) = match flags::parse(usage, &args[1..]).and_then(|o| build(&o)) {
        Ok(built) => built,
        Err(e) => {
            eprintln!("check {name}: {e}\nusage: check {name} {usage}");
            return 2;
        }
    };
    let mut code = 0;
    for path in &inputs {
        match read(path).and_then(|text| gate(&text)) {
            Ok(summary) => println!("{path}: OK ({summary})"),
            Err(e) => {
                eprintln!("{path}: INVALID: {e}");
                code = 1;
            }
        }
    }
    code
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(run(&args))
}

/// The record array of a bench report.
fn records(text: &str) -> Result<Vec<Value>, String> {
    match json::parse(text)? {
        Value::Array(records) => Ok(records),
        _ => Err("top level is not an array".into()),
    }
}

/// The typed view of record `k` of a bench report, labelled `record k`.
fn record(k: usize, rec: &Value) -> Result<Fields<'_>, ParseError> {
    Fields::labeled(rec, format!("record {k}"))
}

fn check_report(text: &str) -> Result<String, String> {
    let records = records(text)?;
    if records.is_empty() {
        return Err("report contains no records".into());
    }
    for (k, rec) in records.iter().enumerate() {
        check_record(k, rec).map_err(|e| e.to_string())?;
    }
    Ok(format!("{} records", records.len()))
}

fn check_record(k: usize, rec: &Value) -> Result<(), ParseError> {
    let rec = record(k, rec)?;
    let name = rec.str("bench")?;
    rec.str("params")?;
    let invalid = |what: String| ParseError::invalid(format!("record {k}: {name}: {what}"));
    for f in ["median_ns", "p95_ns", "min_ns", "host_cores", "threads"] {
        let n = rec.f64(f)?;
        if matches!(f, "host_cores" | "threads") && !(n >= 1.0 && n.fract() == 0.0) {
            return Err(invalid(format!("{f} must be a positive integer, got {n}")));
        }
        if n < 0.0 {
            return Err(invalid(format!("{f} is negative ({n})")));
        }
    }
    match rec.get("throughput") {
        None | Some(Value::Null) => {}
        Some(v) if v.as_f64().is_some_and(|n| n >= 0.0) => {}
        _ => {
            return Err(invalid(
                "'throughput' must be null or a non-negative number".into(),
            ))
        }
    }
    if rec.get("counters").is_none() {
        return Ok(());
    }
    let mut counters = rec.object("counters")?.iter().peekable();
    if counters.peek().is_none() {
        return Err(invalid("'counters' present but empty".into()));
    }
    match counters.find(|(_, v)| !v.as_f64().is_some_and(|n| n > 0.0)) {
        Some((counter, _)) => Err(invalid(format!(
            "counter '{counter}' must be a positive number"
        ))),
        None => Ok(()),
    }
}

/// One `(bench, params)` label of a report with the gated statistic.
#[derive(Debug)]
struct Row {
    bench: String,
    params: String,
    value: f64,
    /// `threads > host_cores` on the record, when it carries both.
    oversubscribed: Option<bool>,
}

/// The report's rows for `stat` (`median` or `min`). Repeated labels
/// collapse to their best (lowest) value, so block-to-block drift across
/// alternating rounds cancels.
fn rows(text: &str, stat: &str) -> Result<Vec<Row>, String> {
    let stat_field = format!("{stat}_ns");
    let mut out: Vec<Row> = Vec::new();
    for (k, rec) in records(text)?.iter().enumerate() {
        let rec = record(k, rec).map_err(|e| e.to_string())?;
        let label = |f: &str| rec.str(f).map_err(|e| e.to_string());
        let (bench, params) = (label("bench")?, label("params")?);
        let value = rec.f64(&stat_field).map_err(|e| e.to_string())?;
        let count = |f| rec.get(f).and_then(Value::as_f64);
        let oversubscribed = count("threads")
            .zip(count("host_cores"))
            .map(|(t, c)| t > c);
        match out
            .iter_mut()
            .find(|r| r.bench == bench && r.params == params)
        {
            Some(row) => row.value = row.value.min(value),
            None => out.push(Row {
                bench: bench.into(),
                params: params.into(),
                value,
                oversubscribed,
            }),
        }
    }
    Ok(out)
}

/// One comparison: `value` must be at most `bound` times `reference`.
struct Pair {
    label: String,
    value: f64,
    reference: f64,
    bound: f64,
}

/// The comparator behind every perf gate: prints one table row per pair
/// and fails on the first pair over its bound.
fn compare(pairs: &[Pair], stat: &str) -> Result<String, String> {
    let mut worst = 0.0f64;
    for p in pairs {
        let (label, value, reference, bound) = (&p.label, p.value, p.reference, p.bound);
        if reference <= 0.0 {
            return Err(format!(
                "{label}: reference {stat} is not positive ({reference})"
            ));
        }
        let (ratio, got_ms, ref_ms) = (value / reference, value / 1e6, reference / 1e6);
        let row = format!("{got_ms:.3} ms vs {ref_ms:.3} ms, bound {bound}");
        println!("{label:<52} {ratio:.3}x ({row})");
        if ratio > bound {
            return Err(format!(
                "REGRESSION: {label} {stat} is {ratio:.3}x the reference ({row})"
            ));
        }
        worst = worst.max(ratio);
    }
    Ok(format!(
        "{} record(s) within bound, worst ratio {worst:.3}",
        pairs.len()
    ))
}

/// Pairs every baseline row (of the `params` label, if given) with its
/// fresh counterpart.
fn baseline_pairs(
    fresh: &[Row],
    base: &[Row],
    bound: f64,
    params: Option<&str>,
) -> Result<Vec<Pair>, String> {
    let mut pairs = Vec::new();
    for b in base.iter().filter(|b| params.is_none_or(|p| p == b.params)) {
        let label = if b.params.is_empty() {
            b.bench.clone()
        } else {
            format!("{}/{}", b.bench, b.params)
        };
        let f = fresh
            .iter()
            .find(|f| f.bench == b.bench && f.params == b.params)
            .ok_or(format!(
                "{label}: present in baseline but missing from fresh report"
            ))?;
        pairs.push(Pair {
            label,
            value: f.value,
            reference: b.value,
            bound,
        });
    }
    if pairs.is_empty() {
        return Err(match params {
            Some(p) => format!("baseline has no record with params '{p}'"),
            None => "baseline report contains no records".into(),
        });
    }
    Ok(pairs)
}

fn build_baseline(o: &Flags) -> Result<(Vec<String>, Gate), String> {
    let [fresh, base] = o.positional() else {
        return Err("expects a FRESH and a BASE report".into());
    };
    let bound = ratio(o, "--max-ratio")?.unwrap_or(REGRESSION_RATIO);
    let params = o.str("--params").map(String::from);
    let stat = match o.str("--stat") {
        None | Some("median") => "median",
        Some("min") => "min",
        Some(v) => return Err(format!("--stat must be 'median' or 'min', got '{v}'")),
    };
    let base = base.clone();
    let gate = move |text: &str| {
        let base_rows = read(&base)
            .and_then(|t| rows(&t, stat))
            .map_err(|e| format!("{base}: {e}"))?;
        let pairs = baseline_pairs(&rows(text, stat)?, &base_rows, bound, params.as_deref())?;
        compare(&pairs, stat)
    };
    Ok((vec![fresh.clone()], Box::new(gate)))
}

/// Pairs each `num` row with the `den` row of the same bench. The bound is
/// `oversubscribed` when given and the `num` record ran more threads than
/// its host has cores.
fn ratio_pairs(
    rows: &[Row],
    num: &str,
    den: &str,
    bound: f64,
    oversubscribed: Option<f64>,
) -> Result<Vec<Pair>, String> {
    let mut pairs = Vec::new();
    for d in rows.iter().filter(|r| r.params == den) {
        let label = format!("{} {num}/{den}", d.bench);
        let n = rows
            .iter()
            .find(|r| r.bench == d.bench && r.params == num)
            .ok_or(format!(
                "{label}: no '{num}' record for bench '{}'",
                d.bench
            ))?;
        let (label, bound) = match (oversubscribed, n.oversubscribed) {
            (None, _) | (Some(_), Some(false)) => (label, bound),
            (Some(b), Some(true)) => (format!("{label} (threads > host_cores)"), b),
            (Some(_), None) => return Err(format!("{label}: record lacks threads/host_cores")),
        };
        pairs.push(Pair {
            label,
            value: n.value,
            reference: d.value,
            bound,
        });
    }
    if pairs.is_empty() {
        return Err(format!("report has no record with params '{den}'"));
    }
    Ok(pairs)
}

fn build_ratio(o: &Flags) -> Result<(Vec<String>, Gate), String> {
    let [report, num, den] = o.positional() else {
        return Err("expects a REPORT and the NUM and DEN params labels".into());
    };
    let bound = ratio(o, "--max-ratio")?.ok_or("--max-ratio is required")?;
    let oversubscribed = ratio(o, "--oversubscribed-max-ratio")?;
    let (num, den) = (num.clone(), den.clone());
    let gate = move |text: &str| {
        let pairs = ratio_pairs(&rows(text, "median")?, &num, &den, bound, oversubscribed)?;
        compare(&pairs, "median")
    };
    Ok((vec![report.clone()], Box::new(gate)))
}

/// Splits `events` into chains, each closed by an event `is_end` accepts,
/// and validates every chain. A stream may hold several back to back; one
/// that ends mid-chain is invalid. Returns the chain count.
fn chains<E>(
    events: &[E],
    is_end: fn(&E) -> bool,
    validate: fn(&[E]) -> Result<(), String>,
    what: &str,
) -> Result<usize, String> {
    if events.is_empty() {
        return Err("stream holds no events".into());
    }
    let (mut count, mut start) = (0, 0);
    for (k, e) in events.iter().enumerate() {
        if is_end(e) {
            validate(&events[start..=k]).map_err(|e| format!("{what} {count}: {e}"))?;
            count += 1;
            start = k + 1;
        }
    }
    if start != events.len() {
        return Err(format!(
            "{} trailing event(s) after the last complete {what}: the stream ends mid-{what}",
            events.len() - start
        ));
    }
    Ok(count)
}

fn check_progress(text: &str) -> Result<String, String> {
    let events = stream::parse_stream(text).map_err(|e| e.to_string())?;
    let is_done = |e: &ProgressEvent| matches!(e, ProgressEvent::Done { .. });
    let n = chains(&events, is_done, stream::validate_chain, "campaign")?;
    Ok(format!(
        "{} event(s), {n} complete campaign chain(s)",
        events.len()
    ))
}

/// Alarm expectations layered on health-stream validity.
#[derive(Clone, Copy, Default)]
struct Alarms {
    require: bool,
    forbid: bool,
    within: Option<u64>,
}

fn build_health(o: &Flags) -> Result<(Vec<String>, Gate), String> {
    let exp = Alarms {
        require: o.has("--require-alarm"),
        forbid: o.has("--forbid-alarm"),
        within: o.get("--alarm-within")?,
    };
    if exp.require && exp.forbid {
        return Err("--require-alarm and --forbid-alarm exclude each other".into());
    }
    each(o, move |t| check_health(t, exp))
}

fn check_health(text: &str, exp: Alarms) -> Result<String, String> {
    let events = health::parse_stream(text).map_err(|e| e.to_string())?;
    let is_summary = |e: &HealthEvent| matches!(e, HealthEvent::RunSummary { .. });
    let runs = chains(&events, is_summary, health::validate_chain, "run")?;
    let alarms: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            HealthEvent::AlarmRaised { frame, .. } => Some(*frame),
            _ => None,
        })
        .collect();
    let (n, first) = (alarms.len(), alarms.first().copied());
    let violation = match (first, exp.within) {
        (None, _) if exp.require => "--require-alarm: no alarm_raised event".to_string(),
        (Some(f), _) if exp.forbid => format!("--forbid-alarm: {n} alarm(s), first at frame {f}"),
        (None, Some(b)) => format!("--alarm-within {b}: the stream never alarmed"),
        (Some(f), Some(b)) if f > b => {
            format!("--alarm-within {b}: first alarm at frame {f} is late")
        }
        _ => {
            return Ok(format!(
                "{} event(s), {runs} complete monitor run(s), {n} alarm(s)",
                events.len()
            ))
        }
    };
    Err(violation)
}

/// Validates a job transcript: every line is a `rjam-job-v1` response or
/// request, or a `rjam-progress-v1` event; a `job_metrics` snapshot must
/// be a valid `rjam-metrics-v1` document. With `job`, every job-tagged
/// line must name it; with `require_done`, the transcript must end in one
/// `job_done` line. Nothing of the job protocol may follow a terminal line.
fn check_job(text: &str, job: Option<&str>, require_done: bool) -> Result<String, String> {
    let (mut progress, mut job_lines) = (0usize, 0usize);
    let mut terminal: Option<&str> = None;
    for (k, line) in text.lines().enumerate() {
        let n = k + 1;
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let doc = Fields::labeled(&doc, format!("line {n}")).map_err(|e| e.to_string())?;
        let tag = |f: &str| doc.str(f).map_err(|e| e.to_string());
        let named = |what: &str, j: &str| match job {
            Some(want) if want != j => {
                Err(format!("line {n}: {what} job '{j}', expected '{want}'"))
            }
            _ => Ok(()),
        };
        match tag("v")? {
            "rjam-job-v1" => {
                if let Some(t) = terminal {
                    return Err(format!(
                        "line {n}: rjam-job-v1 line after the terminal {t} line"
                    ));
                }
                job_lines += 1;
                if doc.get("ev").is_none() {
                    // Full session captures also hold request lines.
                    JobRequest::from_line(line).map_err(|e| format!("line {n}: {e}"))?;
                    continue;
                }
                // A `job_metrics` snapshot is read as the rjam-metrics-v1
                // document it embeds.
                match JobResponse::from_line(line).map_err(|e| format!("line {n}: {e}"))? {
                    JobResponse::Accepted { job, .. } | JobResponse::Metrics { job, .. } => {
                        named("names", &job)?
                    }
                    JobResponse::Done { job, export } => {
                        named("names", &job)?;
                        if export.is_empty() {
                            return Err(format!("line {n}: job_done with an empty export"));
                        }
                        terminal = Some("job_done");
                    }
                    JobResponse::Cancelled { job, .. } => {
                        named("names", &job)?;
                        terminal = Some("job_cancelled");
                    }
                    JobResponse::Error(_) | JobResponse::Status { .. } => {}
                }
            }
            "rjam-progress-v1" => {
                progress += 1;
                ProgressEvent::from_line(line).map_err(|e| format!("line {n}: {e}"))?;
                if job.is_some() {
                    named("progress tagged", tag("job")?)?;
                }
            }
            other => return Err(format!("line {n}: unexpected protocol tag '{other}'")),
        }
    }
    if progress + job_lines == 0 {
        return Err("transcript holds no lines".into());
    }
    if require_done && terminal != Some("job_done") {
        return Err(format!(
            "stream must end in job_done, found {}",
            terminal.unwrap_or("no terminal line")
        ));
    }
    Ok(format!(
        "{job_lines} job line(s), {progress} progress line(s){}",
        terminal
            .map(|t| format!(", terminal {t}"))
            .unwrap_or_default()
    ))
}

fn check_trace(text: &str, require_chain: bool) -> Result<String, String> {
    let doc = TraceDoc::from_json(text).map_err(|e| e.to_string())?;
    doc.validate()?;
    let frames = doc.frames();
    let full_chains = frames.iter().filter(|f| f.has_full_chain()).count();
    if require_chain && full_chains == 0 {
        return Err(
            "no frame carries the full causal chain (emit -> fire -> trigger -> jam TX -> outcome)"
                .into(),
        );
    }
    Ok(format!(
        "{} events, {} frames, {full_chains} full chains, stages: {}",
        doc.events.len(),
        frames.len(),
        doc.stages().join(",")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_daemon::{JobError, JobErrorKind};
    use rjam_obs::trace::{stage, FrameId, Outcome, SpanKind, TraceEvent};
    use rjam_obs::MetricsSnapshot;

    /// A schema-valid report, one record per `(bench, params, median_ns,
    /// threads, host_cores)`.
    fn report(recs: &[(&str, &str, f64, u32, u32)]) -> String {
        let body: Vec<String> = recs
            .iter()
            .map(|(b, p, m, t, c)| {
                format!(
                    "{{\"bench\":\"{b}\",\"params\":\"{p}\",\"median_ns\":{m},\"p95_ns\":{m},\
                     \"min_ns\":{m},\"throughput\":1,\"host_cores\":{c},\"threads\":{t}}}"
                )
            })
            .collect();
        format!("[{}]", body.join(","))
    }

    fn medians(recs: &[(&str, &str, f64)]) -> Vec<Row> {
        let recs: Vec<_> = recs.iter().map(|&(b, p, m)| (b, p, m, 1, 1)).collect();
        rows(&report(&recs), "median").unwrap()
    }

    fn baseline(
        fresh: &[Row],
        base: &[Row],
        bound: f64,
        params: Option<&str>,
    ) -> Result<String, String> {
        compare(&baseline_pairs(fresh, base, bound, params)?, "median")
    }

    #[test]
    fn report_schema_accepts_harness_records_and_names_bad_fields() {
        let ok = report(&[("sweep", "threads_1", 5.0, 1, 2)]);
        assert_eq!(check_report(&ok).unwrap(), "1 records");
        let with_counters = ok.replace("\"threads\":1}", "\"threads\":1,\"counters\":{\"a\":2}}");
        assert!(check_report(&with_counters).is_ok());
        let null_throughput = ok.replace("\"throughput\":1", "\"throughput\":null");
        assert!(check_report(&null_throughput).is_ok());
        for (from, to, why) in [
            (
                "\"bench\":\"sweep\",",
                "",
                "record 0: missing or invalid field 'bench' (expected string)",
            ),
            (
                "\"params\":\"threads_1\",",
                "",
                "record 0: missing or invalid field 'params' (expected string)",
            ),
            (
                "\"p95_ns\":5",
                "\"p95_ns\":-1",
                "record 0: sweep: p95_ns is negative",
            ),
            (
                "\"min_ns\":5,",
                "",
                "record 0: missing or invalid field 'min_ns' (expected number)",
            ),
            (
                "\"host_cores\":2",
                "\"host_cores\":0",
                "host_cores must be a positive integer",
            ),
            (
                "\"threads\":1",
                "\"threads\":1.5",
                "threads must be a positive integer",
            ),
            (
                "\"throughput\":1",
                "\"throughput\":\"x\"",
                "'throughput' must be null",
            ),
            (
                "\"threads\":1}",
                "\"threads\":1,\"counters\":{}}",
                "present but empty",
            ),
            (
                "\"threads\":1}",
                "\"threads\":1,\"counters\":{\"a\":0}}",
                "counter 'a'",
            ),
            (
                "\"threads\":1}",
                "\"threads\":1,\"counters\":[]}",
                "record 0: missing or invalid field 'counters' (expected object)",
            ),
        ] {
            let err = check_report(&ok.replace(from, to)).unwrap_err();
            assert!(err.contains(why), "{why}: {err}");
        }
        assert!(check_report("[]").unwrap_err().contains("no records"));
        assert!(check_report("{}").unwrap_err().contains("not an array"));
        assert_eq!(
            check_report("[1]").unwrap_err(),
            "record 0 is not an object"
        );
    }

    #[test]
    fn within_bound_passes() {
        let base = medians(&[("sweep", "threads_1", 100e6), ("sweep", "threads_4", 110e6)]);
        let fresh = medians(&[("sweep", "threads_1", 110e6), ("sweep", "threads_4", 100e6)]);
        let out = baseline(&fresh, &base, 1.25, None).unwrap();
        assert_eq!(out, "2 record(s) within bound, worst ratio 1.100");
    }

    #[test]
    fn regression_fails_with_ratio() {
        let base = medians(&[("sweep", "threads_1", 100e6)]);
        let fresh = medians(&[("sweep", "threads_1", 140e6)]);
        let err = baseline(&fresh, &base, 1.25, None).unwrap_err();
        assert!(
            err.contains("REGRESSION: sweep/threads_1 median is 1.400x"),
            "{err}"
        );
    }

    #[test]
    fn params_filter_restricts_the_gate() {
        // threads_4 regresses badly, but the gate only watches threads_1.
        let base = medians(&[("sweep", "threads_1", 100e6), ("sweep", "threads_4", 100e6)]);
        let fresh = medians(&[("sweep", "threads_1", 101e6), ("sweep", "threads_4", 500e6)]);
        let out = baseline(&fresh, &base, 1.02, Some("threads_1")).unwrap();
        assert!(out.starts_with("1 record(s)"), "{out}");
        assert!(baseline(&fresh, &base, 1.02, None).is_err());
    }

    #[test]
    fn min_stat_reads_min_ns_and_names_the_stat() {
        let text = r#"[{"bench":"iperf","params":"clean","median_ns":90e6,"min_ns":50e6}]"#;
        assert_eq!(rows(text, "min").unwrap()[0].value, 50e6);
        assert_eq!(rows(text, "median").unwrap()[0].value, 90e6);
        assert_eq!(rows(text, "median").unwrap()[0].oversubscribed, None);
        let base = rows(text, "min").unwrap();
        let fresh = rows(&text.replace("50e6", "60e6"), "min").unwrap();
        let pairs = baseline_pairs(&fresh, &base, 1.02, None).unwrap();
        let err = compare(&pairs, "min").unwrap_err();
        assert!(err.contains("min is 1.200x"), "{err}");
    }

    #[test]
    fn duplicate_labels_collapse_to_their_best_value() {
        let text = r#"[{"bench":"iperf","params":"clean","median_ns":90e6,"min_ns":52e6},
            {"bench":"iperf","params":"clean","median_ns":80e6,"min_ns":50e6},
            {"bench":"iperf","params":"jam","median_ns":40e6,"min_ns":30e6},
            {"bench":"iperf","params":"clean","median_ns":95e6,"min_ns":57e6}]"#;
        let mins = rows(text, "min").unwrap();
        assert_eq!(mins.len(), 2, "three clean rounds merge into one row");
        assert_eq!((mins[0].params.as_str(), mins[0].value), ("clean", 50e6));
        assert_eq!((mins[1].params.as_str(), mins[1].value), ("jam", 30e6));
        assert_eq!(
            rows(text, "median").unwrap()[0].value,
            80e6,
            "medians keep the best round"
        );
    }

    #[test]
    fn missing_fresh_record_fails() {
        let base = medians(&[("sweep", "threads_1", 100e6)]);
        let err = baseline(&[], &base, 1.25, None).unwrap_err();
        assert!(err.contains("missing from fresh"), "{err}");
        let err = rows(r#"[{"bench":"a","params":"b"}]"#, "median").unwrap_err();
        assert_eq!(
            err,
            "record 0: missing or invalid field 'median_ns' (expected number)"
        );
    }

    #[test]
    fn unmatched_filter_fails_instead_of_passing_vacuously() {
        let base = medians(&[("sweep", "threads_1", 100e6)]);
        let err = baseline(&base, &base, 1.25, Some("threads_9")).unwrap_err();
        assert!(err.contains("no record with params 'threads_9'"), "{err}");
        let err = baseline(&base, &[], 1.25, None).unwrap_err();
        assert!(err.contains("contains no records"), "{err}");
    }

    #[test]
    fn bad_baseline_median_fails() {
        let base = medians(&[("sweep", "threads_1", 0.0)]);
        let fresh = medians(&[("sweep", "threads_1", 1.0)]);
        let err = baseline(&fresh, &base, 1.25, None).unwrap_err();
        assert!(err.contains("not positive"), "{err}");
    }

    /// The thread-scaling gate as `ci.sh` runs it.
    fn thread_gate(t1: f64, t4: f64, host_cores: u32) -> Result<String, String> {
        let text = report(&[
            ("sweep", "threads_1", t1, 1, host_cores),
            ("sweep", "threads_2", (t1 + t4) / 2.0, 2, host_cores),
            ("sweep", "threads_4", t4, 4, host_cores),
        ]);
        let rows = rows(&text, "median")?;
        compare(
            &ratio_pairs(&rows, "threads_4", "threads_1", 0.7, Some(1.15))?,
            "median",
        )
    }

    #[test]
    fn thread_scaling_bound_follows_the_records_host_cores() {
        // One core: no speedup is possible, so only overhead is bounded.
        assert!(thread_gate(100.0, 110.0, 1).is_ok());
        let err = thread_gate(100.0, 120.0, 1).unwrap_err();
        assert!(
            err.contains("(threads > host_cores) median is 1.200x"),
            "{err}"
        );
        assert!(err.contains("bound 1.15"), "{err}");
        // Four cores: threads_4 must be a real speedup.
        assert!(thread_gate(100.0, 60.0, 4).is_ok());
        let err = thread_gate(100.0, 80.0, 4).unwrap_err();
        assert!(
            err.contains("sweep threads_4/threads_1 median is 0.800x"),
            "{err}"
        );
        assert!(err.contains("bound 0.7"), "{err}");
    }

    #[test]
    fn ratio_matches_labels_within_one_bench() {
        let rows = medians(&[
            ("lane_bank", "lanes_1", 60.0),
            ("lane_bank", "lanes_16", 200.0),
            ("lane_bank_multi_template", "lanes_16", 900.0),
        ]);
        // The multi-template record has no lanes_1 partner and is not gated.
        let pairs = ratio_pairs(&rows, "lanes_16", "lanes_1", 4.0, None).unwrap();
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].value, pairs[0].reference), (200.0, 60.0));
        let err = ratio_pairs(&rows, "lanes_64", "lanes_1", 4.0, None)
            .err()
            .unwrap();
        assert!(err.contains("no 'lanes_64' record"), "{err}");
        let err = ratio_pairs(&rows, "lanes_16", "lanes_2", 4.0, None)
            .err()
            .unwrap();
        assert!(err.contains("no record with params 'lanes_2'"), "{err}");
        let bare = rows_without_counts(&rows);
        let err = ratio_pairs(&bare, "lanes_16", "lanes_1", 4.0, Some(1.0))
            .err()
            .unwrap();
        assert!(err.contains("lacks threads/host_cores"), "{err}");
    }

    fn rows_without_counts(rows: &[Row]) -> Vec<Row> {
        rows.iter()
            .map(|r| Row {
                bench: r.bench.clone(),
                params: r.params.clone(),
                value: r.value,
                oversubscribed: None,
            })
            .collect()
    }

    #[test]
    fn lane_gate_reads_the_committed_baseline_at_its_throughput_ratio() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../baselines/BENCH_dsp_lanes.json"
        );
        let rows = rows(&read(path).unwrap(), "median").unwrap();
        let pairs = ratio_pairs(&rows, "lanes_16", "lanes_1", 4.0, None).unwrap();
        // The bench counts samples x lanes, so the aggregate-throughput
        // ratio t16 / t1 equals 16 m1 / m16.
        let speedup = 16.0 * pairs[0].reference / pairs[0].value;
        assert!((speedup - 10.75).abs() < 0.005, "{speedup}");
        assert!(compare(&pairs, "median").is_ok());
        // lanes_16 at 4.1x the lanes_1 median is under 4x aggregate.
        let slow = medians(&[
            ("lane_bank", "lanes_1", 1.0),
            ("lane_bank", "lanes_16", 4.1),
        ]);
        let pairs = ratio_pairs(&slow, "lanes_16", "lanes_1", 4.0, None).unwrap();
        assert!(compare(&pairs, "median").unwrap_err().contains("4.100x"));
    }

    /// A minimal valid single-campaign stream, built from the real
    /// emitter so the test tracks the wire format.
    fn chain_lines() -> String {
        [
            ProgressEvent::Started {
                kind: "t".into(),
                units: 4,
                shards: 2,
                workers: 1,
                seed: 7,
            },
            ProgressEvent::ShardFinished {
                shard: 0,
                worker: 0,
                units: 2,
                busy_ns: 10,
            },
            ProgressEvent::Snapshot {
                done: 2,
                total: 4,
                elapsed_ns: 10,
                eta_ns: 10,
            },
            ProgressEvent::ShardFinished {
                shard: 1,
                worker: 0,
                units: 2,
                busy_ns: 10,
            },
            ProgressEvent::Done {
                units: 4,
                elapsed_ns: 20,
                workers: 1,
                busy_ns: 20,
                idle_ns: 0,
                merge_wait_ns: 0,
            },
        ]
        .iter()
        .map(|e| e.to_line() + "\n")
        .collect()
    }

    fn head(text: &str, lines: usize) -> String {
        text.lines().take(lines).map(|l| format!("{l}\n")).collect()
    }

    #[test]
    fn progress_chains_pass_one_or_back_to_back() {
        let s = check_progress(&chain_lines()).unwrap();
        assert!(s.contains("1 complete campaign chain"), "{s}");
        let s = check_progress(&(chain_lines() + &chain_lines())).unwrap();
        assert!(s.contains("2 complete campaign chain"), "{s}");
    }

    #[test]
    fn progress_truncated_malformed_or_empty_fails() {
        let err = check_progress(&head(&chain_lines(), 3)).unwrap_err();
        assert!(err.contains("mid-campaign"), "{err}");
        assert!(check_progress(&(chain_lines() + "{\"not\":\"an event\"}\n")).is_err());
        assert!(check_progress("").is_err());
        let broken = chain_lines().replace("\"units\":4", "\"units\":5");
        let err = check_progress(&broken).unwrap_err();
        assert!(err.starts_with("campaign 0:"), "{err}");
    }

    /// A minimal valid single-run stream whose alarm, if any, is raised at
    /// `frame`.
    fn run_lines(alarm: Option<u64>) -> String {
        let mut events = vec![HealthEvent::Baseline {
            metric: "mac.prr".into(),
            detector: "ewma".into(),
            mean: 0.97,
            samples: 16,
        }];
        if let Some(frame) = alarm {
            events.push(HealthEvent::AlarmRaised {
                rule: "prr_collapse".into(),
                metric: "mac.prr".into(),
                detector: "cusum".into(),
                stat: 1.44,
                threshold: 1.0,
                frame,
                frames: vec![0x19, 0x1a],
            });
        }
        events.push(HealthEvent::RunSummary {
            frames: 48,
            alarms_raised: u64::from(alarm.is_some()),
            alarms_active: u64::from(alarm.is_some()),
            healthy: alarm.is_none(),
        });
        events.iter().map(|e| e.to_line() + "\n").collect()
    }

    #[test]
    fn health_runs_pass_one_or_back_to_back() {
        let s = check_health(&run_lines(Some(32)), Alarms::default()).unwrap();
        assert!(s.contains("1 complete monitor run(s), 1 alarm(s)"), "{s}");
        let two = run_lines(Some(32)) + &run_lines(None);
        let s = check_health(&two, Alarms::default()).unwrap();
        assert!(s.contains("2 complete monitor run(s)"), "{s}");
    }

    #[test]
    fn health_truncated_malformed_or_empty_fails() {
        let err = check_health(&head(&run_lines(Some(32)), 2), Alarms::default()).unwrap_err();
        assert!(err.contains("mid-run"), "{err}");
        let text = run_lines(None) + "{\"not\":\"an event\"}\n";
        assert!(check_health(&text, Alarms::default()).is_err());
        assert!(check_health("", Alarms::default()).is_err());
    }

    #[test]
    fn alarm_expectations_gate_both_ways() {
        let require = Alarms {
            require: true,
            ..Alarms::default()
        };
        let forbid = Alarms {
            forbid: true,
            ..Alarms::default()
        };
        assert!(check_health(&run_lines(Some(32)), require).is_ok());
        assert!(check_health(&run_lines(None), require).is_err());
        assert!(check_health(&run_lines(None), forbid).is_ok());
        let err = check_health(&run_lines(Some(32)), forbid).unwrap_err();
        assert!(err.contains("first at frame 32"), "{err}");
    }

    #[test]
    fn alarm_within_bounds_time_to_detect() {
        let within = |n| Alarms {
            within: Some(n),
            ..Alarms::default()
        };
        assert!(check_health(&run_lines(Some(32)), within(32)).is_ok());
        let err = check_health(&run_lines(Some(33)), within(32)).unwrap_err();
        assert!(err.contains("frame 33 is late"), "{err}");
        let err = check_health(&run_lines(None), within(32)).unwrap_err();
        assert!(err.contains("never alarmed"), "{err}");
    }

    /// A watch-shaped transcript built from the real emitters, so the
    /// test tracks the wire format.
    fn watch_lines(job: &str) -> String {
        let progress = ProgressEvent::Started {
            kind: "false_alarm".into(),
            units: 2,
            shards: 1,
            workers: 1,
            seed: 7,
        }
        .to_line();
        // The daemon's scope tag rides on the raw line; splice it the
        // same way a scoped stream would carry it.
        let tagged = format!(
            "{},\"job\":\"{job}\"}}",
            progress.strip_suffix('}').unwrap()
        );
        let done = JobResponse::Done {
            job: job.into(),
            export: "{\"fa_per_s\":0}".into(),
        };
        format!("{tagged}\n{}\n", done.to_line())
    }

    #[test]
    fn watch_transcript_passes() {
        let s = check_job(&watch_lines("job-1"), Some("job-1"), true).unwrap();
        assert!(s.contains("terminal job_done"), "{s}");
    }

    #[test]
    fn wrong_job_tag_fails() {
        let err = check_job(&watch_lines("job-2"), Some("job-1"), true).unwrap_err();
        assert!(err.contains("progress tagged job 'job-2'"), "{err}");
        let done_only = watch_lines("job-2").lines().nth(1).unwrap().to_string();
        let err = check_job(&done_only, Some("job-1"), false).unwrap_err();
        assert!(err.contains("names job 'job-2'"), "{err}");
        let untagged = watch_lines("job-1").replace(",\"job\":\"job-1\"}", "}");
        let err = check_job(&untagged, Some("job-1"), false).unwrap_err();
        assert_eq!(
            err,
            "line 1: missing or invalid field 'job' (expected string)"
        );
    }

    /// [`watch_lines`] with the `job_metrics` line an obs build's `rjamd`
    /// streams before the terminal line.
    fn watch_lines_with_metrics(job: &str) -> String {
        let snapshot = MetricsSnapshot {
            counters: vec![("core.engine_units".into(), 6)],
            ..MetricsSnapshot::default()
        };
        let metrics = JobResponse::Metrics {
            job: job.into(),
            snapshot,
        };
        let text = watch_lines(job);
        let (progress, done) = text.split_once('\n').unwrap();
        format!("{progress}\n{}\n{done}", metrics.to_line())
    }

    #[test]
    fn job_metrics_snapshot_must_be_an_rjam_metrics_v1_document() {
        let good = watch_lines_with_metrics("job-1");
        let s = check_job(&good, Some("job-1"), true).unwrap();
        assert!(s.starts_with("2 job line(s)"), "{s}");
        for (from, to, why) in [
            (
                "rjam-metrics-v1",
                "rjam-metrics-v0",
                "line 2: snapshot: unsupported schema 'rjam-metrics-v0'",
            ),
            (
                "\"core.engine_units\":6",
                "\"core.engine_units\":-6",
                "line 2: snapshot: counter 'core.engine_units' is not a non-negative integer",
            ),
            (
                "\"gauges\":{}",
                "\"gauges\":[]",
                "line 2: snapshot: missing or invalid field 'gauges' (expected object)",
            ),
        ] {
            let bad = good.replace(from, to);
            assert_ne!(bad, good, "{from}");
            assert_eq!(check_job(&bad, Some("job-1"), true).unwrap_err(), why);
        }
    }

    #[test]
    fn missing_terminal_fails_require_done() {
        let text = head(&watch_lines("job-1"), 1);
        let err = check_job(&text, Some("job-1"), true).unwrap_err();
        assert!(err.contains("must end in job_done"), "{err}");
        assert!(check_job(&text, Some("job-1"), false).is_ok());
    }

    #[test]
    fn cancelled_terminal_fails_require_done() {
        let cancelled = JobResponse::Cancelled {
            job: "job-3".into(),
            units_done: 1,
        };
        let line = cancelled.to_line() + "\n";
        assert!(check_job(&line, None, false)
            .unwrap()
            .contains("job_cancelled"));
        let err = check_job(&line, None, true).unwrap_err();
        assert!(err.contains("found job_cancelled"), "{err}");
    }

    #[test]
    fn lines_after_terminal_fail() {
        let error = JobResponse::Error(JobError::new(JobErrorKind::BadState, "x"));
        let text = watch_lines("job-1") + &error.to_line() + "\n";
        let err = check_job(&text, None, false).unwrap_err();
        assert!(err.contains("after the terminal"), "{err}");
    }

    #[test]
    fn request_lines_in_session_captures_pass() {
        let text = JobRequest::Status { job: None }.to_line() + "\n";
        assert!(check_job(&text, None, false).is_ok());
    }

    #[test]
    fn foreign_protocol_and_garbage_fail() {
        assert!(check_job("{\"v\":\"rjam-health-v1\"}\n", None, false).is_err());
        let err = check_job("\n{\"job\":\"job-1\"}\n", None, false).unwrap_err();
        assert_eq!(
            err,
            "line 2: missing or invalid field 'v' (expected string)"
        );
        assert_eq!(
            check_job("[1]\n", None, false).unwrap_err(),
            "line 1 is not an object"
        );
        assert!(check_job("not json\n", None, false).is_err());
        assert!(check_job("", None, false).is_err());
    }

    /// A one-frame trace; with `jam`, the frame carries the full causal
    /// chain.
    fn trace_doc(jam: bool) -> String {
        let mut events = vec![
            (stage::MAC, "emit", SpanKind::Instant, 0),
            (stage::FPGA, "xcorr_fire", SpanKind::Instant, 0),
            (stage::FPGA, "trigger", SpanKind::Instant, 0),
        ];
        if jam {
            events.push((stage::JAM, "tx", SpanKind::Begin, 0));
            events.push((stage::JAM, "tx", SpanKind::End, 0));
        }
        events.push((
            stage::MAC,
            "outcome",
            SpanKind::Instant,
            Outcome::Jammed.code(),
        ));
        let events = events
            .into_iter()
            .enumerate()
            .map(|(k, (stage, name, kind, a))| TraceEvent {
                seq: k as u64 + 1,
                frame: FrameId(1),
                t_ns: 100 * k as u64,
                stage: stage.into(),
                name: name.into(),
                kind,
                a,
                b: 0,
            })
            .collect();
        TraceDoc { events, dropped: 0 }.to_json()
    }

    #[test]
    fn trace_chain_is_required_only_on_request() {
        let s = check_trace(&trace_doc(true), true).unwrap();
        assert!(s.contains("1 full chains"), "{s}");
        let err = check_trace(&trace_doc(false), true).unwrap_err();
        assert!(
            err.contains("no frame carries the full causal chain"),
            "{err}"
        );
        assert!(check_trace(&trace_doc(false), false).is_ok());
        assert!(check_trace("{}", false).is_err());
    }

    #[test]
    fn every_subcommand_exits_0_1_2_for_valid_invalid_and_bad_flag() {
        let dir = std::env::temp_dir().join(format!("rjam_check_exit_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = |name: &str, text: &str| {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            path.to_string_lossy().into_owned()
        };
        let scaling = |t4| {
            report(&[
                ("s", "threads_1", 100.0, 1, 1),
                ("s", "threads_4", t4, 4, 1),
            ])
        };
        let good = file("good.json", &scaling(100.0));
        let slow = file("slow.json", &scaling(130.0));
        let progress = file("progress.ndjson", &chain_lines());
        let cut = file("cut.ndjson", &head(&chain_lines(), 3));
        let health = file("health.ndjson", &run_lines(Some(33)));
        let watch = file("watch.ndjson", &watch_lines("job-1"));
        let trace = file("trace.json", &trace_doc(true));
        let no_chain = file("no_chain.json", &trace_doc(false));
        let bad = file("bad.json", "[{\"bench\":\"x\"}]");
        fn ratio_args(path: &str) -> Vec<&str> {
            let bounds = ["--max-ratio", "0.7", "--oversubscribed-max-ratio", "1.15"];
            [&["ratio", path, "threads_4", "threads_1"][..], &bounds].concat()
        }
        let cases: Vec<(Vec<&str>, Vec<&str>, Vec<&str>)> = vec![
            (
                vec!["bench", &good],
                vec!["bench", &bad],
                vec!["bench", "--x", &good],
            ),
            (
                vec!["baseline", &good, &good],
                vec!["baseline", &slow, &good],
                vec!["baseline", &good, &good, "--stat", "mean"],
            ),
            (
                ratio_args(&good),
                ratio_args(&slow),
                vec!["ratio", &good, "threads_4", "threads_1"],
            ),
            (
                vec!["progress", &progress],
                vec!["progress", &cut],
                vec!["progress", "--partial", &cut],
            ),
            (
                vec!["health", "--require-alarm", &health],
                vec!["health", "--alarm-within", "32", &health],
                vec!["health", "--require-alarm", "--forbid-alarm", &health],
            ),
            (
                vec!["job", "--job", "job-1", "--require-done", &watch],
                vec!["job", "--job", "job-2", &watch],
                vec!["job", "--require-cancelled", &watch],
            ),
            (
                vec!["trace", "--require-chain", &trace],
                vec!["trace", "--require-chain", &no_chain],
                vec!["trace", "--require-chain"],
            ),
        ];
        let run_strs = |args: &[&str]| run(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        for (ok, invalid, usage) in &cases {
            assert_eq!(run_strs(ok), 0, "{ok:?}");
            assert_eq!(run_strs(invalid), 1, "{invalid:?}");
            assert_eq!(run_strs(usage), 2, "{usage:?}");
        }
        assert_eq!(run_strs(&["bench", "missing.json"]), 1, "unreadable input");
        assert_eq!(run_strs(&[]), 2);
        assert_eq!(run_strs(&["scaling", &good]), 2);
        assert_eq!(
            run_strs(&["baseline", &good, &good, "--max-ratio", "-1"]),
            2
        );
        assert_eq!(run_strs(&["health", "--alarm-within", "soon", &health]), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
