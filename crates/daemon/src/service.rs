//! The resident campaign service: FIFO job queue, one runner on a shared
//! engine, cancel + checkpoint + resume, and per-job line streams.
//!
//! ## Architecture
//!
//! One [`Daemon`] owns one **runner thread**, which owns the daemon's
//! [`CampaignEngine`].
//! Jobs are validated at submit (reject-before-enqueue), assigned an id
//! and appended to a bounded FIFO; the runner pops them in order and runs
//! exactly one at a time, so every job gets the engine's full worker pool
//! and jobs are fair in arrival order — there is no interleaving to make
//! unfair. Queue depth is bounded (`queue_full` on overflow) and surfaced
//! as the `daemon.queue_depth` gauge.
//!
//! The engine's progress sink belongs to the daemon: each
//! `rjam-progress-v1` line the engine emits is tagged `"job":"<id>"` with
//! the running job's id (the first field of the line) and appended to that
//! job's **replay buffer**. A `watch` replays the buffer then follows live
//! appends until the job is terminal, so late watchers see the identical
//! stream early watchers did. Completion appends a `job_metrics` snapshot
//! and the terminal `job_done`/`job_cancelled` line to the same buffer.
//!
//! Cancellation is cooperative and unit-granular: `cancel` trips the
//! job's [`CancelToken`]; the engine stops claiming units, merges the
//! finished ones into the job's [`JobCheckpoint`] and the job parks in
//! `cancelled` with its checkpoint retained. `resume` re-enqueues it; the
//! engine re-derives every remaining unit's seed from its original index,
//! so the final export is **byte-identical** to an uninterrupted run.

use crate::proto::{JobError, JobErrorKind, JobRequest, JobResponse, JobState, JobStatus};
use rjam_core::spec::{CampaignRequest, JobCheckpoint, MAX_JOB_UNITS};
use rjam_core::{CampaignEngine, CancelToken};
use rjam_obs::json;
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, Write};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Default bound on queued (not yet running) jobs.
pub const DEFAULT_QUEUE_CAP: usize = 16;

/// Longest request line [`Daemon::serve_connection`] reads, in bytes
/// without the newline: room for a list field of [`MAX_JOB_UNITS`] numbers
/// of up to 31 characters each plus a separator, and 64 KiB for the rest
/// of the request. Any finite `f64` in shortest round-trip form takes at
/// most 24 characters, and `rjam_obs::json::write_number`, which `rjamctl`
/// writes requests with, at most 31 for magnitudes in `[1e-12, 1e29)`. A
/// longer line is answered with `bad_request` and skipped.
pub const MAX_REQUEST_LINE_BYTES: usize = 32 * MAX_JOB_UNITS + (64 << 10);

/// What [`read_request_line`] found.
enum RequestLine {
    /// A complete line is in the buffer.
    Line,
    /// The line ran past the limit; it was read through its newline and
    /// dropped.
    TooLong,
    /// The input ended.
    End,
}

/// Reads the next line into `buf`, newline and a trailing `\r` dropped,
/// holding at most `limit` bytes of it; a final unterminated line counts.
fn read_request_line(
    reader: &mut impl BufRead,
    buf: &mut Vec<u8>,
    limit: usize,
) -> std::io::Result<RequestLine> {
    buf.clear();
    let mut too_long = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            return Ok(match (too_long, buf.is_empty()) {
                (true, _) => RequestLine::TooLong,
                (false, true) => RequestLine::End,
                (false, false) => RequestLine::Line,
            });
        }
        let (part, used, ended) = match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => (&chunk[..i], i + 1, true),
            None => (chunk, chunk.len(), false),
        };
        if too_long || buf.len() + part.len() > limit {
            too_long = true;
            buf.clear();
        } else {
            buf.extend_from_slice(part);
        }
        reader.consume(used);
        if ended {
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
            return Ok(if too_long {
                RequestLine::TooLong
            } else {
                RequestLine::Line
            });
        }
    }
}

struct Job {
    request: CampaignRequest,
    state: JobState,
    ckpt: JobCheckpoint,
    cancel: CancelToken,
    /// Replay buffer: job-tagged progress lines, then `job_metrics` and
    /// the terminal line. Watchers follow this by cursor.
    lines: Vec<String>,
    export: Option<String>,
    units_total: usize,
}

#[derive(Default)]
struct State {
    jobs: BTreeMap<String, Job>,
    /// Submission order of `jobs` keys (BTreeMap orders lexically;
    /// status reports follow arrival).
    order: Vec<String>,
    fifo: VecDeque<String>,
    running: Option<String>,
    next_id: u64,
    shutdown: bool,
}

struct Inner {
    queue_cap: usize,
    state: Mutex<State>,
    /// Wakes the runner (queue push, shutdown).
    work: Condvar,
    /// Wakes watchers and cancel waiters (any job update).
    update: Condvar,
}

impl Inner {
    fn set_depth_gauge(&self, st: &State) {
        rjam_obs::registry::gauge("daemon.queue_depth").set(st.fifo.len() as u64);
    }

    fn notify_update(&self) {
        self.update.notify_all();
    }
}

/// Appends one engine progress line to the running job's replay buffer,
/// with the job's id spliced in as the line's first field. Progress
/// parsers ignore unknown fields, so tagged lines stay valid
/// `rjam-progress-v1`.
fn append_progress(inner: &Inner, line: &str) {
    let mut st = inner.state.lock().expect("daemon state lock");
    if let Some(id) = st.running.clone() {
        if let Some(job) = st.jobs.get_mut(&id) {
            // Every progress line starts with `{"`; the tag goes right
            // after the brace.
            let tagged = format!("{{\"job\":{},{}", json::write_string(&id), &line[1..]);
            job.lines.push(tagged);
        }
    }
    drop(st);
    inner.notify_update();
}

/// Handle to a running campaign service. Dropping it without
/// [`Daemon::shutdown`] detaches the runner thread.
pub struct Daemon {
    inner: Arc<Inner>,
    runner: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Starts a service over `engine` with a queue bound of `queue_cap`
    /// pending jobs. The engine moves into the runner thread with its
    /// progress sink pointed at the running job's replay buffer; clones
    /// of `engine` the caller kept still read its profiles.
    pub fn start(engine: CampaignEngine, queue_cap: usize) -> Daemon {
        let inner = Arc::new(Inner {
            queue_cap: queue_cap.max(1),
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            update: Condvar::new(),
        });
        let sink_inner = Arc::clone(&inner);
        let engine = engine.with_progress(Arc::new(move |line: &str| {
            append_progress(&sink_inner, line)
        }));
        let runner_inner = Arc::clone(&inner);
        let runner = std::thread::Builder::new()
            .name("rjamd-runner".into())
            .spawn(move || run_loop(&runner_inner, &engine))
            .expect("spawn daemon runner");
        Daemon {
            inner,
            runner: Some(runner),
        }
    }

    /// Validates and enqueues a campaign; returns the assigned job id and
    /// the queue depth after insertion (backpressure signal).
    pub fn submit(&self, spec: CampaignRequest) -> Result<(String, u64), JobError> {
        spec.validate()?;
        let mut st = self.inner.state.lock().expect("daemon state lock");
        if st.shutdown {
            return Err(JobError::new(
                JobErrorKind::Shutdown,
                "daemon is shutting down",
            ));
        }
        if st.fifo.len() >= self.inner.queue_cap {
            return Err(JobError::new(
                JobErrorKind::QueueFull,
                format!("queue holds {} jobs (capacity)", st.fifo.len()),
            ));
        }
        st.next_id += 1;
        let id = format!("job-{}", st.next_id);
        let units_total = spec.n_units();
        st.jobs.insert(
            id.clone(),
            Job {
                request: spec,
                state: JobState::Queued,
                ckpt: JobCheckpoint::new(),
                cancel: CancelToken::new(),
                lines: Vec::new(),
                export: None,
                units_total,
            },
        );
        st.order.push(id.clone());
        st.fifo.push_back(id.clone());
        let depth = st.fifo.len() as u64;
        self.inner.set_depth_gauge(&st);
        drop(st);
        self.inner.work.notify_one();
        self.inner.notify_update();
        Ok((id, depth))
    }

    /// Status rows, submission order — one job or all.
    pub fn status(&self, job: Option<&str>) -> Result<Vec<JobStatus>, JobError> {
        let st = self.inner.state.lock().expect("daemon state lock");
        let row = |id: &str, j: &Job| JobStatus {
            job: id.to_string(),
            kind: j.request.kind().to_string(),
            state: j.state,
            units_done: j.ckpt.units_done() as u64,
            units_total: j.units_total as u64,
        };
        match job {
            Some(id) => {
                let j = st.jobs.get(id).ok_or_else(|| unknown(id))?;
                Ok(vec![row(id, j)])
            }
            None => Ok(st
                .order
                .iter()
                .filter_map(|id| st.jobs.get(id).map(|j| row(id, j)))
                .collect()),
        }
    }

    /// Cancels a queued or running job and blocks until it has actually
    /// stopped (unit-granular, so the wait is one unit's latency at
    /// most). The job's checkpoint is retained; returns the units it
    /// holds. A running job whose last units were already in flight
    /// finishes anyway: that cancel lost the race and is answered like a
    /// cancel of any finished job, with `bad_state`.
    pub fn cancel(&self, id: &str) -> Result<u64, JobError> {
        let mut st = self.inner.state.lock().expect("daemon state lock");
        let job = st.jobs.get_mut(id).ok_or_else(|| unknown(id))?;
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                let done = job.ckpt.units_done() as u64;
                let line = JobResponse::Cancelled {
                    job: id.to_string(),
                    units_done: done,
                }
                .to_line();
                job.lines.push(line);
                st.fifo.retain(|q| q != id);
                self.inner.set_depth_gauge(&st);
                drop(st);
                self.inner.notify_update();
                Ok(done)
            }
            JobState::Running => {
                job.cancel.cancel();
                // Wait for the runner to park the job.
                loop {
                    let state = st.jobs.get(id).map(|j| j.state);
                    match state {
                        Some(JobState::Running) => {
                            st = self
                                .inner
                                .update
                                .wait_timeout(st, Duration::from_millis(50))
                                .expect("daemon state lock")
                                .0;
                        }
                        Some(_) => break,
                        None => return Err(unknown(id)),
                    }
                }
                let job = st.jobs.get(id).ok_or_else(|| unknown(id))?;
                match job.state {
                    JobState::Cancelled => Ok(job.ckpt.units_done() as u64),
                    state => Err(already(id, state)),
                }
            }
            JobState::Done | JobState::Cancelled => Err(already(id, job.state)),
        }
    }

    /// Re-enqueues a cancelled job. It keeps its id and checkpoint; the
    /// engine runs only the missing units and the export is
    /// byte-identical to an uninterrupted run.
    pub fn resume(&self, id: &str) -> Result<(String, u64), JobError> {
        let mut st = self.inner.state.lock().expect("daemon state lock");
        if st.shutdown {
            return Err(JobError::new(
                JobErrorKind::Shutdown,
                "daemon is shutting down",
            ));
        }
        if st.fifo.len() >= self.inner.queue_cap {
            return Err(JobError::new(
                JobErrorKind::QueueFull,
                format!("queue holds {} jobs (capacity)", st.fifo.len()),
            ));
        }
        let job = st.jobs.get_mut(id).ok_or_else(|| unknown(id))?;
        if job.state != JobState::Cancelled {
            return Err(JobError::new(
                JobErrorKind::BadState,
                format!("{id} is {}, only cancelled jobs resume", job.state.name()),
            ));
        }
        job.state = JobState::Queued;
        job.cancel = CancelToken::new();
        // The cancelled attempt's replay buffer (including its
        // `job_cancelled` terminal line) is stale history: the resumed
        // run emits a fresh progress chain over the remaining units, and
        // a watcher attaching now must end on *this* attempt's terminal
        // line, not the old one.
        job.lines.clear();
        st.fifo.push_back(id.to_string());
        let depth = st.fifo.len() as u64;
        self.inner.set_depth_gauge(&st);
        drop(st);
        self.inner.work.notify_one();
        self.inner.notify_update();
        Ok((id.to_string(), depth))
    }

    /// Replays a job's buffered lines through `emit`, then follows live
    /// appends until the job is terminal and fully drained. `emit`
    /// returning `Err` detaches the watcher (client hung up).
    pub fn watch(
        &self,
        id: &str,
        emit: &mut dyn FnMut(&str) -> std::io::Result<()>,
    ) -> Result<(), JobError> {
        let mut cursor = 0usize;
        loop {
            let (batch, terminal) = {
                let mut st = self.inner.state.lock().expect("daemon state lock");
                loop {
                    let job = st.jobs.get(id).ok_or_else(|| unknown(id))?;
                    // A resume truncates the replay buffer; clamp rather
                    // than index past the end (the watcher rejoins the
                    // fresh attempt from its start).
                    cursor = cursor.min(job.lines.len());
                    if job.lines.len() > cursor || job.state.is_terminal() {
                        break (
                            job.lines[cursor..].to_vec(),
                            job.state.is_terminal() && job.lines.len() <= cursor,
                        );
                    }
                    st = self
                        .inner
                        .update
                        .wait_timeout(st, Duration::from_millis(100))
                        .expect("daemon state lock")
                        .0;
                }
            };
            cursor += batch.len();
            for line in &batch {
                if emit(line).is_err() {
                    return Ok(());
                }
            }
            if terminal {
                return Ok(());
            }
        }
    }

    /// Serves one non-watch request line, returning the response lines to
    /// write back. `watch` requests are returned as [`Serve::Watch`] so
    /// the connection handler can stream.
    pub fn serve_line(&self, line: &str) -> Serve {
        let req = match JobRequest::from_line(line) {
            Ok(req) => req,
            Err(e) => {
                return Serve::Lines(vec![JobResponse::Error(JobError::new(
                    JobErrorKind::BadRequest,
                    e.to_string(),
                ))
                .to_line()])
            }
        };
        match req {
            JobRequest::Submit { spec } => Serve::Lines(vec![match self.submit(spec) {
                Ok((job, queue_depth)) => JobResponse::Accepted { job, queue_depth },
                Err(e) => JobResponse::Error(e),
            }
            .to_line()]),
            JobRequest::Status { job } => Serve::Lines(vec![match self.status(job.as_deref()) {
                Ok(jobs) => JobResponse::Status { jobs },
                Err(e) => JobResponse::Error(e),
            }
            .to_line()]),
            JobRequest::Cancel { job } => Serve::Lines(vec![match self.cancel(&job) {
                Ok(units_done) => JobResponse::Cancelled { job, units_done },
                Err(e) => JobResponse::Error(e),
            }
            .to_line()]),
            JobRequest::Resume { job } => Serve::Lines(vec![match self.resume(&job) {
                Ok((job, queue_depth)) => JobResponse::Accepted { job, queue_depth },
                Err(e) => JobResponse::Error(e),
            }
            .to_line()]),
            JobRequest::Watch { job } => Serve::Watch(job),
        }
    }

    /// Serves one client: answers each request line of `reader` on
    /// `writer` and streams `watch`es, until the input ends or a write
    /// fails. A line longer than [`MAX_REQUEST_LINE_BYTES`] gets a
    /// `bad_request` and the connection keeps serving; a line that is not
    /// UTF-8 or a read error ends it.
    pub fn serve_connection(&self, mut reader: impl BufRead, mut writer: impl Write) {
        let mut buf = Vec::new();
        let mut send = |l: &str| writeln!(writer, "{l}").and_then(|()| writer.flush());
        loop {
            let line = match read_request_line(&mut reader, &mut buf, MAX_REQUEST_LINE_BYTES) {
                Ok(RequestLine::Line) => match std::str::from_utf8(&buf) {
                    Ok(line) => line,
                    Err(_) => return,
                },
                Ok(RequestLine::TooLong) => {
                    let e = JobError::new(
                        JobErrorKind::BadRequest,
                        format!("request line longer than {MAX_REQUEST_LINE_BYTES} bytes"),
                    );
                    if send(&JobResponse::Error(e).to_line()).is_err() {
                        return;
                    }
                    continue;
                }
                Ok(RequestLine::End) | Err(_) => return,
            };
            if line.trim().is_empty() {
                continue;
            }
            match self.serve_line(line) {
                Serve::Lines(lines) => {
                    if lines.iter().any(|l| send(l).is_err()) {
                        return;
                    }
                }
                Serve::Watch(job) => {
                    if let Err(e) = self.watch(&job, &mut send) {
                        if send(&JobResponse::Error(e).to_line()).is_err() {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Stops accepting work, drains nothing (queued jobs stay queued),
    /// cancels the running job if any, and joins the runner.
    pub fn shutdown(mut self) {
        {
            let mut st = self.inner.state.lock().expect("daemon state lock");
            st.shutdown = true;
            if let Some(id) = st.running.clone() {
                if let Some(job) = st.jobs.get(&id) {
                    job.cancel.cancel();
                }
            }
        }
        self.inner.work.notify_all();
        if let Some(h) = self.runner.take() {
            h.join().expect("daemon runner panicked");
        }
    }
}

/// What a request line asks the connection handler to do.
pub enum Serve {
    /// Write these lines and move on.
    Lines(Vec<String>),
    /// Stream this job via [`Daemon::watch`].
    Watch(String),
}

fn unknown(id: &str) -> JobError {
    JobError::new(JobErrorKind::UnknownJob, format!("no job '{id}'"))
}

/// The refusal of a cancel that finds the job already terminal.
fn already(id: &str, state: JobState) -> JobError {
    JobError::new(
        JobErrorKind::BadState,
        format!("{id} is already {}", state.name()),
    )
}

fn run_loop(inner: &Inner, engine: &CampaignEngine) {
    loop {
        // Claim the next job (or exit on shutdown).
        let (id, request, mut ckpt, cancel) = {
            let mut st = inner.state.lock().expect("daemon state lock");
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(id) = st.fifo.pop_front() {
                    inner.set_depth_gauge(&st);
                    st.running = Some(id.clone());
                    // A job cancelled while queued was already retained
                    // out of the fifo; this pop only sees queued jobs.
                    let job = st.jobs.get_mut(&id).expect("queued job exists");
                    job.state = JobState::Running;
                    let claim = (
                        id,
                        job.request.clone(),
                        std::mem::take(&mut job.ckpt),
                        job.cancel.clone(),
                    );
                    break claim;
                }
                st = inner.work.wait(st).expect("daemon state lock");
            }
        };
        inner.notify_update();
        let result = request.run_to_export(engine, &mut ckpt, Some(&cancel));
        let mut st = inner.state.lock().expect("daemon state lock");
        st.running = None;
        if let Some(job) = st.jobs.get_mut(&id) {
            job.ckpt = ckpt;
            let terminal = match result {
                Some(export) => {
                    job.state = JobState::Done;
                    job.export = Some(export.clone());
                    JobResponse::Done {
                        job: id.clone(),
                        export,
                    }
                }
                None => {
                    job.state = JobState::Cancelled;
                    JobResponse::Cancelled {
                        job: id.clone(),
                        units_done: job.ckpt.units_done() as u64,
                    }
                }
            };
            if rjam_obs::enabled() {
                // Tag the job's final registry view onto its stream.
                let snap = rjam_obs::registry::snapshot().to_json();
                if let Ok(doc) = json::parse(&snap) {
                    job.lines.push(
                        JobResponse::Metrics {
                            job: id.clone(),
                            snapshot: doc,
                        }
                        .to_line(),
                    );
                }
            }
            job.lines.push(terminal.to_line());
        }
        drop(st);
        inner.notify_update();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_core::presets::DetectionPreset;

    #[test]
    fn request_lines_are_read_up_to_the_limit() {
        // The tiny buffer splits lines across fill_buf calls.
        let input: &[u8] = b"abcd\nabcde\nab\r\n\nabcdefgh\nxyz";
        let mut reader = std::io::BufReader::with_capacity(3, input);
        let mut buf = Vec::new();
        let mut got = Vec::new();
        loop {
            match read_request_line(&mut reader, &mut buf, 4).expect("in-memory read") {
                RequestLine::Line => got.push(String::from_utf8(buf.clone()).unwrap()),
                RequestLine::TooLong => got.push("<too long>".into()),
                RequestLine::End => break,
            }
        }
        assert_eq!(
            got,
            ["abcd", "<too long>", "ab", "", "<too long>", "xyz"],
            "a line at the limit fits, CRLF is stripped, an unterminated last line counts"
        );
    }

    fn fa_spec(samples: usize, seed: u64) -> CampaignRequest {
        CampaignRequest::FalseAlarm {
            preset: DetectionPreset::WifiShortPreamble { threshold: 0.30 },
            samples,
            seed,
        }
    }

    fn wait_done(d: &Daemon, id: &str) -> JobStatus {
        for _ in 0..600 {
            let st = d.status(Some(id)).expect("status")[0].clone();
            if st.state.is_terminal() {
                return st;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("job {id} never finished");
    }

    #[test]
    fn jobs_run_fifo_and_export_matches_direct() {
        let d = Daemon::start(CampaignEngine::with_threads(2), 8);
        let specs = [
            fa_spec(1 << 18, 3),
            fa_spec(1 << 18, 4),
            fa_spec(1 << 17, 5),
        ];
        let ids: Vec<String> = specs
            .iter()
            .map(|s| d.submit(s.clone()).expect("accepted").0)
            .collect();
        for (id, spec) in ids.iter().zip(&specs) {
            let st = wait_done(&d, id);
            assert_eq!(st.state, JobState::Done, "{id}");
            let direct = spec
                .run_to_export(
                    &CampaignEngine::with_threads(2),
                    &mut JobCheckpoint::new(),
                    None,
                )
                .unwrap();
            let mut lines = Vec::new();
            d.watch(id, &mut |l: &str| {
                lines.push(l.to_string());
                Ok(())
            })
            .expect("watch");
            let last = JobResponse::from_line(lines.last().expect("terminal line")).unwrap();
            match last {
                JobResponse::Done { export, .. } => assert_eq!(export, direct, "{id}"),
                other => panic!("expected job_done, got {other:?}"),
            }
        }
        d.shutdown();
    }

    #[test]
    fn invalid_specs_are_rejected_before_enqueue() {
        let d = Daemon::start(CampaignEngine::with_threads(1), 2);
        let err = d.submit(fa_spec(0, 0)).expect_err("0 samples");
        assert_eq!(err.kind, JobErrorKind::BadSpec);
        assert!(d.status(None).unwrap().is_empty(), "nothing enqueued");
        let err = d.cancel("job-99").expect_err("unknown");
        assert_eq!(err.kind, JobErrorKind::UnknownJob);
        d.shutdown();
    }

    #[test]
    fn unbounded_channel_taps_are_refused_and_the_daemon_keeps_serving() {
        let d = Daemon::start(CampaignEngine::with_threads(1), 4);
        let submit = |taps: &str| {
            let line = format!(
                "{{\"req\":\"submit\",\"spec\":{{\"campaign\":\"wifi_detection\",\
                 \"preset\":{{\"kind\":\"wifi_short\",\"threshold\":0.35}},\
                 \"emission\":{{\"kind\":\"full_frames\",\"psdu_len\":60}},\
                 \"channel\":{{\"kind\":\"rayleigh\",\"taps\":{taps},\"rms\":2}},\
                 \"snrs_db\":[6],\"trials\":2,\"seed\":5}},\"v\":\"rjam-job-v1\"}}"
            );
            match d.serve_line(&line) {
                Serve::Lines(lines) => JobResponse::from_line(&lines[0]).expect("reply parses"),
                Serve::Watch(_) => panic!("a submit is not a watch"),
            }
        };
        // 1e12 taps would have reached Vec::with_capacity(1e12) and aborted.
        match submit("1e12") {
            JobResponse::Error(e) => {
                assert_eq!(e.kind, JobErrorKind::BadSpec);
                assert!(e.message.contains("channel.taps"), "{}", e.message);
            }
            other => panic!("expected a bad_spec error, got {other:?}"),
        }
        assert!(d.status(None).unwrap().is_empty(), "nothing enqueued");
        match submit("8") {
            JobResponse::Accepted { job, .. } => {
                assert_eq!(wait_done(&d, &job).state, JobState::Done);
            }
            other => panic!("expected accepted, got {other:?}"),
        }
        d.shutdown();
    }

    #[test]
    fn deeply_nested_line_is_a_bad_request_and_the_daemon_keeps_serving() {
        let d = Daemon::start(CampaignEngine::with_threads(1), 4);
        let reply = |line: String| {
            // Parse on a default-stack thread, as every `rjamd --socket`
            // connection does.
            let lines = std::thread::scope(|s| {
                s.spawn(|| match d.serve_line(&line) {
                    Serve::Lines(lines) => lines,
                    Serve::Watch(_) => panic!("not a watch request"),
                })
                .join()
                .expect("connection thread survives")
            });
            JobResponse::from_line(&lines[0]).expect("reply parses")
        };
        // 20 000 `[` then 20 000 `]`: 40 000 bytes that used to overflow
        // the connection thread's stack and abort the whole daemon.
        match reply("[".repeat(20_000) + &"]".repeat(20_000)) {
            JobResponse::Error(e) => assert_eq!(e.kind, JobErrorKind::BadRequest),
            other => panic!("expected a bad_request error, got {other:?}"),
        }
        let submit = JobRequest::Submit {
            spec: fa_spec(1 << 16, 6),
        };
        match reply(submit.to_line()) {
            JobResponse::Accepted { job, .. } => {
                assert_eq!(wait_done(&d, &job).state, JobState::Done);
            }
            other => panic!("expected accepted, got {other:?}"),
        }
        d.shutdown();
    }

    #[test]
    fn queue_bound_applies_backpressure() {
        // Capacity 2: big first job occupies the runner soon, leaving the
        // queue to fill behind it.
        let d = Daemon::start(CampaignEngine::with_threads(1), 2);
        let mut accepted = 0usize;
        let mut full = 0usize;
        for seed in 0..8u64 {
            match d.submit(fa_spec(1 << 18, seed)) {
                Ok(_) => accepted += 1,
                Err(e) => {
                    assert_eq!(e.kind, JobErrorKind::QueueFull);
                    full += 1;
                }
            }
        }
        assert!(full > 0, "queue never filled");
        assert!(accepted >= 2, "bound must admit up to capacity");
        d.shutdown();
    }

    #[test]
    fn cancel_then_resume_is_byte_identical() {
        let d = Daemon::start(CampaignEngine::with_threads(2), 8);
        // 8 units: enough to usually interrupt mid-run.
        let spec = fa_spec(8 << 18, 77);
        let direct = spec
            .run_to_export(
                &CampaignEngine::with_threads(7),
                &mut JobCheckpoint::new(),
                None,
            )
            .unwrap();
        let (id, _) = d.submit(spec).expect("accepted");
        let done = d.cancel(&id).expect("cancel");
        let st = d.status(Some(&id)).expect("status")[0].clone();
        assert_eq!(st.state, JobState::Cancelled);
        assert_eq!(st.units_done, done);
        // Cancel of a cancelled job is a typed error.
        assert_eq!(
            d.cancel(&id).expect_err("bad state").kind,
            JobErrorKind::BadState
        );
        d.resume(&id).expect("resume");
        let st = wait_done(&d, &id);
        assert_eq!(st.state, JobState::Done);
        let mut lines = Vec::new();
        d.watch(&id, &mut |l: &str| {
            lines.push(l.to_string());
            Ok(())
        })
        .expect("watch");
        // The resume truncated the cancelled attempt's replay buffer: the
        // stream a watcher sees holds the fresh attempt only, ending in
        // job_done — no stale job_cancelled terminal mid-stream.
        assert!(
            !lines
                .iter()
                .any(|l| matches!(JobResponse::from_line(l), Ok(JobResponse::Cancelled { .. }))),
            "resumed watch replayed the stale cancelled terminal"
        );
        match JobResponse::from_line(lines.last().expect("lines")).unwrap() {
            JobResponse::Done { export, .. } => assert_eq!(export, direct),
            other => panic!("expected job_done, got {other:?}"),
        }
        d.shutdown();
    }

    #[test]
    fn a_cancel_that_loses_the_race_to_completion_says_so() {
        // One SIR point of 900 s of air is one unit of ~0.2 s in release
        // builds: a cancel sent once it runs lands mid-unit, and the unit —
        // the whole job — still finishes. The runner claims the unit
        // microseconds after the job turns `running`; the 50 ms pause
        // covers that.
        let d = Daemon::start(CampaignEngine::with_threads(1), 4);
        let (id, _) = d
            .submit(CampaignRequest::Jamming {
                jammer: rjam_core::campaign::JammerUnderTest::Off,
                sirs_db: vec![14.0],
                duration_s: 900.0,
                seed: 5,
            })
            .expect("accepted");
        while d.status(Some(&id)).expect("status")[0].state == JobState::Queued {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50));
        let err = d.cancel(&id).expect_err("the job finished");
        assert_eq!(err.kind, JobErrorKind::BadState);
        assert!(err.message.contains("is already done"), "{}", err.message);
        assert_eq!(
            d.status(Some(&id)).expect("status")[0].state,
            JobState::Done
        );
        d.shutdown();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn cancelled_wimax_job_keeps_its_finished_units() {
        let d = Daemon::start(CampaignEngine::with_threads(1), 4);
        // Ten 4-frame units on one worker, folded as they finish.
        let spec = CampaignRequest::Wimax {
            fused: true,
            frames: 40,
            snr_db: 20.0,
            threshold: 0.45,
            seed: 11,
        };
        let direct = spec
            .run_to_export(
                &CampaignEngine::with_threads(3),
                &mut JobCheckpoint::new(),
                None,
            )
            .unwrap();
        let (id, _) = d.submit(spec).expect("accepted");
        // Follow the job until its first range of units is out, then
        // detach and cancel.
        let _ = d.watch(&id, &mut |l: &str| {
            if l.contains("\"shard_finished\"") {
                Err(std::io::Error::other("first range finished"))
            } else {
                Ok(())
            }
        });
        let done = d.cancel(&id).expect("cancel");
        assert!(
            done >= 1,
            "finished units must survive the cancel, got {done}"
        );
        let st = d.status(Some(&id)).expect("status")[0].clone();
        assert_eq!((st.state, st.units_done), (JobState::Cancelled, done));
        d.resume(&id).expect("resume");
        assert_eq!(wait_done(&d, &id).state, JobState::Done);
        let mut last = String::new();
        d.watch(&id, &mut |l: &str| {
            last = l.to_string();
            Ok(())
        })
        .expect("watch");
        match JobResponse::from_line(&last).unwrap() {
            JobResponse::Done { export, .. } => assert_eq!(export, direct),
            other => panic!("expected job_done, got {other:?}"),
        }
        d.shutdown();
    }

    /// Watches a finished job and checks its progress lines: each carries
    /// the job's tag as its first field, parses as `rjam-progress-v1`, and
    /// together they form one complete chain over the job's units.
    #[cfg(feature = "obs")]
    fn assert_own_chain(d: &Daemon, id: &str, units: usize) {
        use rjam_obs::stream::{validate_chain, ProgressEvent};
        let mut lines = Vec::new();
        d.watch(id, &mut |l: &str| {
            lines.push(l.to_string());
            Ok(())
        })
        .expect("watch");
        let tag = format!("{{\"job\":\"{id}\",");
        let events: Vec<ProgressEvent> = lines
            .iter()
            .filter(|l| l.contains("rjam-progress-v1"))
            .map(|l| {
                assert!(l.starts_with(&tag), "{id}: tag is not the first field: {l}");
                ProgressEvent::from_line(l).expect("tagged line parses")
            })
            .collect();
        validate_chain(&events).unwrap_or_else(|e| panic!("{id}: {e} in {lines:?}"));
        assert!(
            matches!(events[0], ProgressEvent::Started { units: n, .. } if n == units as u64),
            "{id}: {:?}",
            events[0]
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn watch_streams_job_tagged_progress() {
        let d = Daemon::start(CampaignEngine::with_threads(2), 8);
        let (id, _) = d.submit(fa_spec(4 << 18, 9)).expect("accepted");
        wait_done(&d, &id);
        assert_own_chain(&d, &id, 4);
        d.shutdown();
    }

    #[cfg(feature = "obs")]
    #[test]
    fn two_daemons_in_one_process_stream_their_own_chains() {
        // Both runners work at once; each engine streams into its own
        // daemon's job, so neither daemon takes the other's progress.
        let daemons = [
            Daemon::start(CampaignEngine::with_threads(2), 4),
            Daemon::start(CampaignEngine::with_threads(1), 4),
        ];
        let units = [4, 3];
        let ids: Vec<String> = daemons
            .iter()
            .zip(units)
            .map(|(d, n)| {
                d.submit(fa_spec(n << 18, 20 + n as u64))
                    .expect("accepted")
                    .0
            })
            .collect();
        for ((d, id), n) in daemons.iter().zip(&ids).zip(units) {
            assert_eq!(wait_done(d, id).state, JobState::Done, "{id}");
            assert_own_chain(d, id, n);
        }
        for d in daemons {
            d.shutdown();
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn every_job_kind_publishes_an_engine_profile() {
        use rjam_core::campaign::{ChannelModel, JammerUnderTest, WifiEmission};
        // A clone shares the engine's profile store.
        let engine = CampaignEngine::with_threads(2);
        let d = Daemon::start(engine.clone(), 8);
        let specs = [
            CampaignRequest::WifiDetection {
                preset: DetectionPreset::WifiShortPreamble { threshold: 0.30 },
                emission: WifiEmission::FullFrames { psdu_len: 60 },
                channel: ChannelModel::Awgn,
                snrs_db: vec![6.0],
                frames_per_point: 16,
                seed: 5,
            },
            fa_spec(2 << 18, 6),
            CampaignRequest::Wimax {
                fused: true,
                frames: 4,
                snr_db: 20.0,
                threshold: 0.45,
                seed: 7,
            },
            CampaignRequest::Jamming {
                jammer: JammerUnderTest::ReactiveShort,
                sirs_db: vec![10.0],
                duration_s: 0.05,
                seed: 8,
            },
        ];
        for spec in specs {
            // Every job carries a cancel token; its run must still profile.
            let (id, _) = d.submit(spec.clone()).expect("accepted");
            assert_eq!(wait_done(&d, &id).state, JobState::Done, "{id}");
            let kind = spec.kind();
            let p = engine
                .profile(kind)
                .unwrap_or_else(|| panic!("no engine profile for a {kind} job"));
            assert_eq!(p.units, spec.n_units() as u64, "{kind}");
            let per_worker: u64 = p.workers.iter().map(|w| w.units).sum();
            assert_eq!(per_worker, p.units, "{kind}");
        }
        d.shutdown();
    }
}
