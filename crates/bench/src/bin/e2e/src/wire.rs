//! The daemon side of the benchmark: spawn `rjamd --stdio`, time its
//! set-up, drive jobs through `rjam-job-v1` as one closed-loop client, and
//! read the daemon's CPU time and peak memory from `/proc`.

use rjam_core::spec::CampaignRequest;
use rjam_daemon::{JobRequest, JobResponse};
use rjam_obs::json::{self, Value};
use rjam_obs::Protocol;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Longest the daemon may stay silent before it counts as hung.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One job as seen on the wire.
#[derive(Debug)]
pub struct WireJob {
    /// Submit written → `job_done` read.
    pub latency: Duration,
    /// Submit written → `accepted` read.
    pub accept: Duration,
    /// Watch written → first `campaign_started` read.
    pub start: Option<Duration>,
    /// `campaign_done` read → `job_done` read.
    pub tail: Option<Duration>,
    /// Lines in the watch stream, terminal line included.
    pub lines: usize,
    /// Length of the `job_done` line.
    pub done_bytes: usize,
    /// The job's export text.
    pub export: String,
}

/// Why a job produced no export.
#[derive(Debug)]
pub enum JobFailure {
    /// The daemon answered, but not with the job's `job_done`.
    Refused(String),
    /// The daemon exited, closed its output or stopped answering.
    Gone(String),
}

/// A running `rjamd --stdio` with a reader thread that timestamps every
/// line the moment it arrives.
pub struct Rjamd {
    child: Child,
    stdin: Option<ChildStdin>,
    lines: Receiver<(Instant, String)>,
    reader: Option<JoinHandle<()>>,
}

impl Rjamd {
    /// Spawns the daemon and waits for the reply to a `status` request.
    /// Returns the daemon and its set-up time: spawn → first reply.
    pub fn spawn(bin: &Path, threads: usize) -> Result<(Rjamd, Duration), String> {
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(["--stdio", "--threads", &threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdin = child.stdin.take().expect("stdin is piped");
        let stdout = child.stdout.take().expect("stdout is piped");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send((Instant::now(), line)).is_err() {
                    break;
                }
            }
        });
        let mut daemon = Rjamd {
            child,
            stdin: Some(stdin),
            lines,
            reader: Some(reader),
        };
        daemon.send(&JobRequest::Status { job: None }.to_line())?;
        let (at, line) = daemon.recv()?;
        match JobResponse::from_line(&line) {
            Ok(JobResponse::Status { .. }) => Ok((daemon, at - t0)),
            _ => Err(format!("rjamd answered status with {line}")),
        }
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().expect("stdin open until finish");
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("rjamd stopped reading: {e}"))
    }

    fn recv(&mut self) -> Result<(Instant, String), String> {
        self.lines
            .recv_timeout(REPLY_TIMEOUT)
            .map_err(|e| format!("no reply from rjamd: {e}"))
    }

    /// Submits one job, reads `accepted`, watches it to `job_done`.
    pub fn run_job(&mut self, spec: &CampaignRequest) -> Result<WireJob, JobFailure> {
        let submit = JobRequest::Submit { spec: spec.clone() }.to_line();
        let t0 = Instant::now();
        self.send(&submit).map_err(JobFailure::Gone)?;
        let (accepted_at, line) = self.recv().map_err(JobFailure::Gone)?;
        let id = match JobResponse::from_line(&line) {
            Ok(JobResponse::Accepted { job, .. }) => job,
            _ => return Err(JobFailure::Refused(line)),
        };
        let watch = JobRequest::Watch { job: id.clone() }.to_line();
        let watched = Instant::now();
        self.send(&watch).map_err(JobFailure::Gone)?;
        let (mut start, mut campaign_done, mut lines) = (None, None, 0usize);
        loop {
            let (at, line) = self.recv().map_err(JobFailure::Gone)?;
            lines += 1;
            // A watch stream interleaves two protocols; route on the `v` tag.
            let (tag, ev) = tag_and_event(&line);
            if tag == Protocol::PROGRESS.tag {
                match ev.as_str() {
                    "campaign_started" if start.is_none() => start = Some(at - watched),
                    "campaign_done" => campaign_done = Some(at),
                    _ => {}
                }
                continue;
            }
            if tag == Protocol::JOB.tag && ev == "job_metrics" {
                continue;
            }
            return match JobResponse::from_line(&line) {
                Ok(JobResponse::Done { job, export }) if job == id => Ok(WireJob {
                    latency: at - t0,
                    accept: accepted_at - t0,
                    start,
                    tail: campaign_done.map(|c| at - c),
                    lines,
                    done_bytes: line.len(),
                    export,
                }),
                _ => Err(JobFailure::Refused(line)),
            };
        }
    }

    /// The daemon's user + system CPU time so far, in seconds.
    pub fn cpu_seconds(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id())).ok()?;
        Some(stat_cpu_ticks(&stat)? as f64 / clock_ticks_per_second())
    }

    /// The daemon's peak resident set (`VmHWM`) in kB.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id())).ok()?;
        status_hwm_kb(&status)
    }

    /// Closes the daemon's input, which shuts it down, and waits for the
    /// process and the reader thread to end.
    pub fn finish(mut self) -> Result<(), String> {
        drop(self.stdin.take());
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(reader) = self.reader.take() {
            reader.join().map_err(|_| "rjamd reader thread panicked")?;
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("rjamd exited with {status}"))
        }
    }
}

impl Drop for Rjamd {
    fn drop(&mut self) {
        // Only reached without `finish` (an early error): never leave the
        // daemon or the reader behind.
        if self.reader.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            if let Some(reader) = self.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

/// The `v` tag and the `ev` discriminator of one wire line (empty strings
/// when absent).
fn tag_and_event(line: &str) -> (String, String) {
    let field = |o: &std::collections::BTreeMap<String, Value>, k: &str| {
        o.get(k)
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    match json::parse(line) {
        Ok(Value::Object(o)) => (field(&o, "v"), field(&o, "ev")),
        _ => (String::new(), String::new()),
    }
}

/// utime + stime, in clock ticks, from the text of `/proc/<pid>/stat`.
pub fn stat_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) may hold spaces and parentheses; the
    // fields after its closing parenthesis start at field 3 (state), so
    // utime (field 14) and stime (field 15) sit at offsets 11 and 12.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` in kB from the text of `/proc/<pid>/status`.
pub fn status_hwm_kb(status: &str) -> Option<u64> {
    let value = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    value.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Clock ticks per second (`AT_CLKTCK` from the auxiliary vector), the
/// unit of `/proc/<pid>/stat` CPU times.
fn clock_ticks_per_second() -> f64 {
    const AT_CLKTCK: usize = 17;
    const WORD: usize = std::mem::size_of::<usize>();
    let word = |b: &[u8]| usize::from_ne_bytes(b.try_into().expect("one word"));
    std::fs::read("/proc/self/auxv")
        .ok()
        .and_then(|auxv| {
            auxv.chunks_exact(2 * WORD)
                .find(|pair| word(&pair[..WORD]) == AT_CLKTCK)
                .map(|pair| word(&pair[WORD..]) as f64)
        })
        .filter(|&hz| hz > 0.0)
        .unwrap_or(100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_sums_utime_and_stime() {
        // A command name with a space and a parenthesis must not shift
        // the fields.
        let stat = "4242 (rjamd (x) y) S 1 4242 4242 0 -1 4194560 812 0 0 0 \
                    1234 56 0 0 20 0 4 0 987654 123456789 1500 18446744073709551615";
        assert_eq!(stat_cpu_ticks(stat), Some(1234 + 56));
        assert_eq!(stat_cpu_ticks("4242 (rjamd) S 1 2"), None);
    }

    #[test]
    fn status_parser_reads_vm_hwm() {
        let status =
            "Name:\trjamd\nVmPeak:\t  220000 kB\nVmHWM:\t    6144 kB\nVmRSS:\t    5000 kB\n";
        assert_eq!(status_hwm_kb(status), Some(6144));
        assert_eq!(status_hwm_kb("Name:\trjamd\n"), None);
    }

    #[test]
    fn clock_ticks_are_positive() {
        assert!(clock_ticks_per_second() > 0.0);
    }

    #[test]
    fn watch_lines_route_on_their_tag() {
        let progress =
            r#"{"v":"rjam-progress-v1","ev":"campaign_started","kind":"wimax","job":"job-1"}"#;
        assert_eq!(
            tag_and_event(progress),
            (
                "rjam-progress-v1".to_string(),
                "campaign_started".to_string()
            )
        );
        let done = r#"{"ev":"job_done","export":"x","job":"job-1","v":"rjam-job-v1"}"#;
        assert_eq!(
            tag_and_event(done),
            ("rjam-job-v1".to_string(), "job_done".to_string())
        );
        assert_eq!(tag_and_event("not json"), (String::new(), String::new()));
    }
}
