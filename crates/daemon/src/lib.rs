//! # rjam-daemon — the resident campaign service
//!
//! `rjamd` turns the one-shot campaign runners of [`rjam_core`] into a
//! **service**: a resident process that accepts typed campaign jobs over
//! the line-delimited `rjam-job-v1` protocol (stdin/stdout or a Unix
//! socket), multiplexes them FIFO-fair onto one shared
//! [`rjam_core::CampaignEngine`] worker pool, streams per-job
//! `rjam-progress-v1`/`rjam-metrics-v1` lines tagged with job ids, and
//! supports cancel + resume through checkpointed shard progress — a
//! resumed job's export is **byte-identical** to an uninterrupted run.
//!
//! * [`proto`] — the `rjam-job-v1` wire protocol: typed
//!   [`proto::JobRequest`]/[`proto::JobResponse`] messages on the shared
//!   [`rjam_obs::proto`] envelope, with typed [`proto::JobError`] refusals;
//! * [`service`] — the [`service::Daemon`]: bounded FIFO queue
//!   (`daemon.queue_depth` gauge), single runner thread, per-job replay
//!   buffers for late watchers, cooperative unit-granular cancellation,
//!   and the connection loop, which reads request lines of at most
//!   [`MAX_REQUEST_LINE_BYTES`].
//!
//! `rjamctl submit|status|watch|cancel|resume` are the matching clients.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod proto;
pub mod service;

pub use proto::{JobError, JobErrorKind, JobRequest, JobResponse, JobState, JobStatus};
pub use service::{Daemon, Serve, DEFAULT_QUEUE_CAP, MAX_REQUEST_LINE_BYTES};
