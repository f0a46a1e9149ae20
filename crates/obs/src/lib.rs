//! Zero-dependency observability for the reactive-jamming pipeline.
//!
//! The paper's host application steers and *inspects* the FPGA core over the
//! UHD user-register bus: detection counters, threshold readback, and the
//! Fig. 5 oscilloscope timeline are its only windows into a pipeline whose
//! response budget is 80 ns–2.64 µs. This crate is the software analogue of
//! that register bus for the whole reproduction:
//!
//! 1. a process-wide **metrics registry** ([`registry`]) with counters,
//!    gauges, and log-linear histograms (p50/p95/p99/max) keyed by static
//!    names;
//! 2. a fixed-capacity ring-buffer **flight recorder** ([`recorder`]) of
//!    timestamped structured events (cycle- or sample-indexed) with an
//!    anomaly-triggered dump;
//! 3. a **snapshot** type ([`snapshot::MetricsSnapshot`]) that serialises to
//!    the same dependency-free JSON dialect as `rjam-bench::harness`;
//! 4. a **causal trace** layer ([`trace`]): a fixed-capacity
//!    [`trace::TraceSink`] of span/instant events keyed by a
//!    [`trace::FrameId`] correlation ID, exported as Chrome trace-event
//!    JSON (Perfetto-loadable) or the compact `rjam-trace-v1` schema;
//! 5. **engine telemetry** ([`telemetry`]): per-worker busy/idle/merge-wait
//!    profiles with their unit-latency summaries, and straggler records
//!    that each campaign engine publishes into its own
//!    [`telemetry::ProfileStore`], rendered by `rjamctl report`;
//! 6. a **live progress stream** ([`stream`]): the line-delimited
//!    `rjam-progress-v1` event protocol (campaign started / shard finished
//!    / snapshot with ETA / campaign done) an engine emits, as typed
//!    events, into the sink its owner attached (`rjamctl
//!    --progress[=FILE]`, each `rjamd` job's replay buffer);
//! 7. an **online health monitor** ([`health`]): streaming change-point
//!    detectors (EWMA baselines, CUSUM, Page–Hinkley) judging the MAC
//!    frame feed of one run against a typed rule set, logging the
//!    line-delimited `rjam-health-v1` protocol in the monitor
//!    (`rjamctl monitor`);
//! 8. the workspace's two **input grammars**, one module each: [`proto`],
//!    whose [`proto::Envelope`] checks a protocol tag and whose
//!    [`proto::Fields`] view reads typed fields out of any JSON object
//!    ([`json`] is the parser underneath), and [`flags`], which parses a
//!    command line against the usage text that documents it, so every
//!    binary accepts exactly the flags its usage names.
//!
//! The registry and the flight recorder are the only process-wide state;
//! progress lines, engine profiles and health logs belong to the engine or
//! monitor that produced them.
//!
//! # Cost model
//!
//! Hot paths use [`registry::LocalCounter`] / [`registry::LocalHistogram`]
//! (plain `u64` arithmetic, no atomics, no locks) and flush into the global
//! registry at block or run boundaries. With the default-on `obs` feature
//! disabled (`--no-default-features` on any instrumented crate), every
//! instrumentation type becomes a zero-sized no-op with an identical API, so
//! call sites compile unchanged and the datapath carries no overhead at all.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flags;
pub mod health;
pub mod hist;
pub mod json;
pub mod proto;
pub mod recorder;
pub mod registry;
pub mod snapshot;
pub mod stream;
pub mod telemetry;
pub mod trace;

pub use health::{HealthEvent, HealthMonitor, HealthVerdict};
pub use hist::{HistSummary, LogHistogram};
pub use proto::{Envelope, Fields, ParseError, Protocol};
pub use recorder::{FlightRecorder, ObsEvent, TripInfo};
pub use registry::{Counter, Gauge, HistHandle, LocalCounter, LocalHistogram};
pub use snapshot::MetricsSnapshot;
pub use stream::ProgressEvent;
pub use telemetry::{EngineProfile, ProfileStore, Straggler, WorkerStats};
pub use trace::{
    FrameId, FrameIdGen, FrameTrace, Outcome, SpanKind, TraceDoc, TraceEvent, TraceSink,
};

/// True when the crate was built with instrumentation compiled in.
///
/// Lets shells and reports distinguish "zero because nothing ran" from
/// "zero because observability was compiled out".
pub const fn enabled() -> bool {
    cfg!(feature = "obs")
}
