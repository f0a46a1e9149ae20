//! `rjam-job-v1` — the typed wire protocol of the campaign service.
//!
//! Line-delimited JSON over stdin/stdout or a Unix socket, built on the
//! shared [`rjam_obs::proto`] envelope from day one: every line carries
//! `"v":"rjam-job-v1"`, requests name their verb in `req`, responses in
//! `ev`. Campaign descriptions ride inside as
//! [`rjam_core::spec::CampaignRequest`] objects, so the daemon boundary
//! reuses exactly the validation the core crate defines —
//! reject-before-enqueue with a typed [`JobError`].
//!
//! A `watch` stream interleaves two protocols on one connection: the
//! job's `rjam-progress-v1` lines (each tagged `"job":"<id>"`, as its
//! first field, by the daemon's progress sink) and `rjam-job-v1`
//! terminal lines (`job_metrics`, then `job_done` / `job_cancelled`).
//! Clients route on the `v` tag.

use rjam_core::spec::{CampaignRequest, SpecError};
use rjam_obs::json::{self, Value};
use rjam_obs::{Envelope, Fields, MetricsSnapshot, ParseError, Protocol};
use std::collections::BTreeMap;
use std::fmt;

/// The protocol this module speaks.
pub const PROTOCOL: Protocol = Protocol::JOB;
/// Schema tag carried by every line (`rjam-job-v1`).
pub const SCHEMA: &str = PROTOCOL.tag;

/// Why the daemon refused a request — the typed half of [`JobError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobErrorKind {
    /// The line was not a well-formed `rjam-job-v1` request.
    BadRequest,
    /// The campaign spec parsed but failed validation.
    BadSpec,
    /// The job queue is at capacity; retry after a job drains.
    QueueFull,
    /// No job with the given id.
    UnknownJob,
    /// The job exists but is not in a state the verb applies to.
    BadState,
    /// The daemon is shutting down and accepts no new work.
    Shutdown,
}

impl JobErrorKind {
    /// Stable wire code for this kind.
    pub fn code(self) -> &'static str {
        match self {
            JobErrorKind::BadRequest => "bad_request",
            JobErrorKind::BadSpec => "bad_spec",
            JobErrorKind::QueueFull => "queue_full",
            JobErrorKind::UnknownJob => "unknown_job",
            JobErrorKind::BadState => "bad_state",
            JobErrorKind::Shutdown => "shutdown",
        }
    }

    /// Inverse of [`JobErrorKind::code`].
    pub fn from_code(code: &str) -> Option<Self> {
        Some(match code {
            "bad_request" => JobErrorKind::BadRequest,
            "bad_spec" => JobErrorKind::BadSpec,
            "queue_full" => JobErrorKind::QueueFull,
            "unknown_job" => JobErrorKind::UnknownJob,
            "bad_state" => JobErrorKind::BadState,
            "shutdown" => JobErrorKind::Shutdown,
            _ => return None,
        })
    }
}

/// A refused request: typed kind plus a human-readable message.
#[derive(Clone, Debug, PartialEq)]
pub struct JobError {
    /// What class of refusal this is.
    pub kind: JobErrorKind,
    /// Details (validation failure text, offending job id, ...).
    pub message: String,
}

impl JobError {
    /// Builds an error of `kind` with a message.
    pub fn new(kind: JobErrorKind, message: impl Into<String>) -> Self {
        JobError {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.code(), self.message)
    }
}

impl std::error::Error for JobError {}

impl From<SpecError> for JobError {
    fn from(e: SpecError) -> Self {
        let kind = match e {
            SpecError::Parse(_) => JobErrorKind::BadRequest,
            SpecError::Field { .. } => JobErrorKind::BadSpec,
        };
        JobError::new(kind, e.to_string())
    }
}

/// Where a job is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting in the FIFO queue.
    Queued,
    /// Currently executing on the shared engine.
    Running,
    /// Completed; its export is available.
    Done,
    /// Cancelled (by request); its checkpoint is retained for resume.
    Cancelled,
}

impl JobState {
    /// Stable wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Inverse of [`JobState::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }

    /// Whether the job will never run again without a `resume`.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Cancelled)
    }
}

/// One row of a `status` response.
#[derive(Clone, Debug, PartialEq)]
pub struct JobStatus {
    /// Job id.
    pub job: String,
    /// Campaign kind tag (`wifi_detection`, ...).
    pub kind: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Checkpointed completed units (updated when a run ends or is
    /// interrupted, not live per-unit).
    pub units_done: u64,
    /// Total engine units the campaign spans.
    pub units_total: u64,
}

/// A client request line.
#[derive(Clone, Debug, PartialEq)]
pub enum JobRequest {
    /// Submit a new campaign job.
    Submit {
        /// The campaign to run (already shape-parsed, not yet validated).
        spec: CampaignRequest,
    },
    /// Report one job (or all jobs, when `job` is `None`).
    Status {
        /// Restrict to one job id.
        job: Option<String>,
    },
    /// Stream a job's progress lines until it reaches a terminal state.
    Watch {
        /// Job id to follow.
        job: String,
    },
    /// Cancel a queued or running job, retaining its checkpoint.
    Cancel {
        /// Job id to cancel.
        job: String,
    },
    /// Re-enqueue a cancelled job; it resumes from its checkpoint.
    Resume {
        /// Job id to resume.
        job: String,
    },
}

impl JobRequest {
    /// Serializes to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut o = BTreeMap::new();
        o.insert("v".into(), Value::String(SCHEMA.into()));
        let req = match self {
            JobRequest::Submit { spec } => {
                o.insert("spec".into(), spec.to_value());
                "submit"
            }
            JobRequest::Status { job } => {
                if let Some(job) = job {
                    o.insert("job".into(), Value::String(job.clone()));
                }
                "status"
            }
            JobRequest::Watch { job } => {
                o.insert("job".into(), Value::String(job.clone()));
                "watch"
            }
            JobRequest::Cancel { job } => {
                o.insert("job".into(), Value::String(job.clone()));
                "cancel"
            }
            JobRequest::Resume { job } => {
                o.insert("job".into(), Value::String(job.clone()));
                "resume"
            }
        };
        o.insert("req".into(), Value::String(req.into()));
        json::write_value(&Value::Object(o))
    }

    /// Parses one request line. Campaign specs are shape-checked here;
    /// [`CampaignRequest::validate`] runs at the enqueue boundary.
    pub fn from_line(line: &str) -> Result<Self, ParseError> {
        let env = Envelope::parse(&PROTOCOL, line)?;
        let o = env.root();
        match env.event("req")? {
            "submit" => {
                let spec = o
                    .get("spec")
                    .ok_or(ParseError::Field {
                        field: "spec".to_string(),
                        expected: "campaign object",
                    })
                    .and_then(|v| {
                        CampaignRequest::from_value(v).map_err(|e| match e {
                            SpecError::Parse(p) => p,
                            other => ParseError::Invalid(other.to_string()),
                        })
                    })?;
                Ok(JobRequest::Submit { spec })
            }
            "status" => Ok(JobRequest::Status {
                job: o.get("job").and_then(Value::as_str).map(str::to_string),
            }),
            "watch" => Ok(JobRequest::Watch {
                job: o.str("job")?.to_string(),
            }),
            "cancel" => Ok(JobRequest::Cancel {
                job: o.str("job")?.to_string(),
            }),
            "resume" => Ok(JobRequest::Resume {
                job: o.str("job")?.to_string(),
            }),
            other => Err(ParseError::UnknownEvent {
                found: other.to_string(),
            }),
        }
    }
}

/// A daemon response line (`ev`-tagged).
#[derive(Clone, Debug, PartialEq)]
pub enum JobResponse {
    /// A submit or resume was accepted.
    Accepted {
        /// Assigned (or resumed) job id.
        job: String,
        /// Jobs waiting in the queue after this acceptance, including
        /// this one — the backpressure signal.
        queue_depth: u64,
    },
    /// The request was refused.
    Error(JobError),
    /// A status report.
    Status {
        /// One row per job, submission order.
        jobs: Vec<JobStatus>,
    },
    /// Final registry metrics for a finished job (obs builds only).
    Metrics {
        /// Job id.
        job: String,
        /// The registry's snapshot, embedded as a compact `rjam-metrics-v1`
        /// document.
        snapshot: MetricsSnapshot,
    },
    /// A job completed; `export` holds its full export bytes.
    Done {
        /// Job id.
        job: String,
        /// Export text, byte-identical to a direct in-process run.
        export: String,
    },
    /// A job was cancelled; its checkpoint survives for `resume`.
    Cancelled {
        /// Job id.
        job: String,
        /// Units already checkpointed (resume skips these).
        units_done: u64,
    },
}

impl JobResponse {
    /// Serializes to one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        let mut o = BTreeMap::new();
        let ev = match self {
            JobResponse::Accepted { job, queue_depth } => {
                o.insert("job".into(), Value::String(job.clone()));
                o.insert("queue_depth".into(), Value::Number(*queue_depth as f64));
                "accepted"
            }
            JobResponse::Error(e) => {
                o.insert("code".into(), Value::String(e.kind.code().into()));
                o.insert("message".into(), Value::String(e.message.clone()));
                "error"
            }
            JobResponse::Status { jobs } => {
                let rows = jobs
                    .iter()
                    .map(|s| {
                        let mut r = BTreeMap::new();
                        r.insert("job".into(), Value::String(s.job.clone()));
                        r.insert("kind".into(), Value::String(s.kind.clone()));
                        r.insert("state".into(), Value::String(s.state.name().into()));
                        r.insert("units_done".into(), Value::Number(s.units_done as f64));
                        r.insert("units_total".into(), Value::Number(s.units_total as f64));
                        Value::Object(r)
                    })
                    .collect();
                o.insert("jobs".into(), Value::Array(rows));
                "status"
            }
            JobResponse::Metrics { job, snapshot } => return metrics_line(job, snapshot),
            JobResponse::Done { job, export } => {
                o.insert("job".into(), Value::String(job.clone()));
                o.insert("export".into(), Value::String(export.clone()));
                "job_done"
            }
            JobResponse::Cancelled { job, units_done } => {
                o.insert("job".into(), Value::String(job.clone()));
                o.insert("units_done".into(), Value::Number(*units_done as f64));
                "job_cancelled"
            }
        };
        o.insert("ev".into(), Value::String(ev.into()));
        o.insert("v".into(), Value::String(SCHEMA.into()));
        json::write_value(&Value::Object(o))
    }

    /// Parses one response line.
    pub fn from_line(line: &str) -> Result<Self, ParseError> {
        let env = Envelope::parse(&PROTOCOL, line)?;
        let o = env.root();
        match env.event("ev")? {
            "accepted" => Ok(JobResponse::Accepted {
                job: o.str("job")?.to_string(),
                queue_depth: o.u64("queue_depth")?,
            }),
            "error" => {
                let code = o.str("code")?;
                let kind =
                    JobErrorKind::from_code(code).ok_or_else(|| ParseError::UnknownEvent {
                        found: code.to_string(),
                    })?;
                Ok(JobResponse::Error(JobError::new(
                    kind,
                    o.str("message")?.to_string(),
                )))
            }
            "status" => {
                let rows = o.array("jobs")?;
                let mut jobs = Vec::with_capacity(rows.len());
                for (k, row) in rows.iter().enumerate() {
                    let r = Fields::labeled(row, format!("status row {k}"))?;
                    let state = r.str("state")?;
                    jobs.push(JobStatus {
                        job: r.str("job")?.to_string(),
                        kind: r.str("kind")?.to_string(),
                        state: JobState::from_name(state).ok_or_else(|| {
                            ParseError::invalid(format!("status row {k}: unknown state '{state}'"))
                        })?,
                        units_done: r.u64("units_done")?,
                        units_total: r.u64("units_total")?,
                    });
                }
                Ok(JobResponse::Status { jobs })
            }
            "job_metrics" => {
                let job = o.str("job")?.to_string();
                let doc = o.get("snapshot").cloned().ok_or(ParseError::Field {
                    field: "snapshot".to_string(),
                    expected: "object",
                })?;
                let snapshot = MetricsSnapshot::from_value(doc)
                    .map_err(|e| ParseError::invalid(format!("snapshot: {e}")))?;
                Ok(JobResponse::Metrics { job, snapshot })
            }
            "job_done" => Ok(JobResponse::Done {
                job: o.str("job")?.to_string(),
                export: o.str("export")?.to_string(),
            }),
            "job_cancelled" => Ok(JobResponse::Cancelled {
                job: o.str("job")?.to_string(),
                units_done: o.u64("units_done")?,
            }),
            other => Err(ParseError::UnknownEvent {
                found: other.to_string(),
            }),
        }
    }
}

/// The `job_metrics` line, written straight from the snapshot's fields:
/// the bytes [`JobResponse::to_line`]'s object tree would give it (keys
/// `ev`, `job`, `snapshot`, `v` in order), without building the tree.
fn metrics_line(job: &str, snapshot: &MetricsSnapshot) -> String {
    let mut line = String::with_capacity(1024);
    line.push_str("{\"ev\":\"job_metrics\",\"job\":");
    json::push_string(&mut line, job);
    line.push_str(",\"snapshot\":");
    snapshot.write_compact(&mut line);
    line.push_str(",\"v\":");
    json::push_string(&mut line, SCHEMA);
    line.push('}');
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_core::presets::DetectionPreset;
    use rjam_obs::snapshot::{SnapEvent, SnapTrip};
    use rjam_obs::HistSummary;

    fn spec() -> CampaignRequest {
        CampaignRequest::FalseAlarm {
            preset: DetectionPreset::WifiShortPreamble { threshold: 0.3 },
            samples: 1 << 18,
            seed: 5,
        }
    }

    #[test]
    fn requests_round_trip() {
        let reqs = [
            JobRequest::Submit { spec: spec() },
            JobRequest::Status { job: None },
            JobRequest::Status {
                job: Some("job-3".into()),
            },
            JobRequest::Watch {
                job: "job-1".into(),
            },
            JobRequest::Cancel {
                job: "job-2".into(),
            },
            JobRequest::Resume {
                job: "job-2".into(),
            },
        ];
        for req in reqs {
            let line = req.to_line();
            assert!(line.contains("\"v\":\"rjam-job-v1\""), "{line}");
            assert_eq!(JobRequest::from_line(&line).expect("parses"), req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = [
            JobResponse::Accepted {
                job: "job-1".into(),
                queue_depth: 3,
            },
            JobResponse::Error(JobError::new(JobErrorKind::QueueFull, "queue is full")),
            JobResponse::Status {
                jobs: vec![JobStatus {
                    job: "job-1".into(),
                    kind: "wifi_detection".into(),
                    state: JobState::Running,
                    units_done: 4,
                    units_total: 12,
                }],
            },
            JobResponse::Done {
                job: "job-1".into(),
                export: "snr_db,p_detect\n1,0.5\n".into(),
            },
            JobResponse::Cancelled {
                job: "job-1".into(),
                units_done: 7,
            },
        ];
        for resp in resps {
            let line = resp.to_line();
            assert_eq!(JobResponse::from_line(&line).expect("parses"), resp);
        }
    }

    fn hist(count: u64, mean: f64, max: u64) -> HistSummary {
        HistSummary {
            count,
            mean,
            min: 1,
            max,
            p50: max / 2,
            p95: max - 1,
            p99: max,
        }
    }

    fn event(seq: u64, kind: &str, a: i64, b: i64) -> SnapEvent {
        SnapEvent {
            seq,
            t: seq * 1_000,
            kind: kind.into(),
            a,
            b,
        }
    }

    /// Snapshots as the registry takes them: names unique and sorted.
    fn registry_shaped_snapshots() -> Vec<MetricsSnapshot> {
        vec![
            MetricsSnapshot::default(),
            MetricsSnapshot {
                counters: vec![
                    ("core.engine_units".into(), 18),
                    ("mac.datagrams".into(), 123_456_789),
                ],
                gauges: vec![("core.engine_threads".into(), 2)],
                histograms: vec![
                    ("core.engine_unit_ns".into(), hist(6, 84.0, 90)),
                    ("fpga.trigger_to_tx_ns".into(), hist(3, 1.0 / 3.0, 7)),
                    ("mac.backoff_slots".into(), hist(7, 812_345.125, 1 << 40)),
                ],
                events: vec![
                    event(1, "engine_straggler", 4, -1),
                    event(2, "engage", i64::MIN, i64::MAX),
                ],
                trip: Some(SnapTrip {
                    t: 6_000,
                    reason: "t_resp_over_budget".into(),
                    seq: 2,
                }),
            },
            MetricsSnapshot {
                counters: vec![
                    ("a\"quote".into(), 1),
                    ("a\\back\u{1}ctl".into(), 2),
                    ("new\nline\ttab\r\u{8}\u{c}".into(), 3),
                    ("z\u{e9}\u{2713}".into(), u64::MAX),
                ],
                gauges: vec![("big".into(), 1_000_000_000_000_000)],
                histograms: vec![("h\u{1f}".into(), hist(0, 0.0, 1))],
                events: vec![event(3, "k\"ind\\\n", -7, 0)],
                trip: Some(SnapTrip {
                    t: 0,
                    reason: "why\u{0}".into(),
                    seq: 0,
                }),
            },
        ]
    }

    /// A snapshot with the fields a tree would reorder, merge or round:
    /// names out of order and repeated (the last wins), a count past 2^53
    /// and means no JSON number holds.
    fn unsorted_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("b".into(), 1), ("a".into(), 2), ("b".into(), 3)],
            gauges: vec![
                ("g".into(), 4),
                ("g".into(), (1 << 53) + 1),
                ("f".into(), 6),
            ],
            histograms: vec![
                ("nan".into(), hist(1, f64::NAN, 2)),
                ("inf".into(), hist(1, f64::INFINITY, 2)),
                ("neg_zero".into(), hist(1, -0.0, 2)),
                ("tiny".into(), hist(1, 1e-300, 2)),
                ("huge".into(), hist(1, 1e300, 2)),
            ],
            ..MetricsSnapshot::default()
        }
    }

    #[test]
    fn job_metrics_lines_are_the_tree_writers_bytes() {
        let mut snapshots = registry_shaped_snapshots();
        snapshots.push(rjam_obs::registry::snapshot());
        snapshots.push(unsorted_snapshot());
        for (k, snapshot) in snapshots.into_iter().enumerate() {
            for job in ["job-1", "job-\"7\""] {
                let line = JobResponse::Metrics {
                    job: job.into(),
                    snapshot: snapshot.clone(),
                }
                .to_line();
                let tree = json::parse(&line).expect("the line parses");
                assert_eq!(json::write_value(&tree), line, "snapshot {k}");
            }
        }
    }

    #[test]
    fn job_metrics_lines_sort_names_and_keep_the_last_of_equal_ones() {
        let resp = JobResponse::Metrics {
            job: "job-1".into(),
            snapshot: unsorted_snapshot(),
        };
        let Ok(JobResponse::Metrics { snapshot, .. }) = JobResponse::from_line(&resp.to_line())
        else {
            panic!("the line reads back as job_metrics");
        };
        assert_eq!(snapshot.counters, [("a".into(), 2), ("b".into(), 3)]);
        assert_eq!(snapshot.gauges, [("f".into(), 6), ("g".into(), 1 << 53)]);
        // huge, inf, nan, neg_zero, tiny: a mean no JSON number holds is 0.
        let means: Vec<f64> = snapshot.histograms.iter().map(|(_, h)| h.mean).collect();
        assert_eq!(means, [1e300, 0.0, 0.0, 0.0, 1e-300]);
    }

    #[test]
    fn job_metrics_lines_round_trip() {
        for snapshot in registry_shaped_snapshots() {
            let resp = JobResponse::Metrics {
                job: "job-2".into(),
                snapshot,
            };
            assert_eq!(
                JobResponse::from_line(&resp.to_line()).expect("parses"),
                resp
            );
        }
    }

    #[test]
    fn wrong_schema_is_refused() {
        let err = JobRequest::from_line(r#"{"v":"rjam-progress-v1","req":"status"}"#)
            .expect_err("wrong tag");
        assert!(err.to_string().contains("unsupported schema"), "{err}");
    }

    #[test]
    fn submit_spec_is_shape_checked_at_parse() {
        let line = r#"{"v":"rjam-job-v1","req":"submit","spec":{"campaign":"nope"}}"#;
        let err = JobRequest::from_line(line).expect_err("unknown campaign");
        assert!(err.to_string().contains("unknown campaign"), "{err}");
    }

    #[test]
    fn error_codes_round_trip() {
        for kind in [
            JobErrorKind::BadRequest,
            JobErrorKind::BadSpec,
            JobErrorKind::QueueFull,
            JobErrorKind::UnknownJob,
            JobErrorKind::BadState,
            JobErrorKind::Shutdown,
        ] {
            assert_eq!(JobErrorKind::from_code(kind.code()), Some(kind));
        }
        assert_eq!(JobErrorKind::from_code("nope"), None);
    }
}
