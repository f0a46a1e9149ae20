//! # rjam-cli — the operator console
//!
//! The paper drives its jammer from a Python GUI built on GNU Radio
//! Companion: an operator picks detection types and jamming reactions at
//! run time (§2.5). `rjamctl` is that interface as a command-line tool over
//! the simulated testbed:
//!
//! ```text
//! rjamctl timeline                  # Fig. 5 latency check
//! rjamctl detect --preset wifi-short --snr 3 --frames 200
//! rjamctl fa --preset wifi-long --threshold 0.38 --samples 10000000
//! rjamctl iperf --jammer reactive-long --sir 14 --seconds 5
//! rjamctl classify capture.cf32    # identify the standard in a capture
//! rjamctl resources                # FPGA footprint of the core
//! rjamctl stats                    # observability registry + histograms
//! ```
//!
//! Any command also accepts the global `--metrics-out FILE` flag, which
//! writes a `rjam-metrics-v1` JSON snapshot of the process-wide metrics
//! registry after the command runs (`rjamctl stats FILE` renders it back),
//! the global `--threads N` flag, which sets the campaign engine's worker
//! count (campaign results are bit-identical at any `N`), and the global
//! `--progress[=FILE]` flag, which points the engine's live
//! `rjam-progress-v1` NDJSON stream at stderr (or `FILE`) while campaigns
//! run.
//!
//! This library half holds the argument model and command implementations
//! so they are unit-testable; `main.rs` is a thin dispatcher. All failures
//! flow through [`CliError`] and exit via [`fail`]: usage errors exit 2
//! (with usage text), runtime errors exit 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{CliError, Command, ErrorKind};

use rjam_core::engine::ProgressSink;
use rjam_obs::ProgressEvent;
use std::sync::{Arc, Mutex};

/// Entry point shared by the binary and tests: parse and run.
///
/// The global `--threads N` flag picks the campaign engine's worker count
/// for this invocation (over `RJAM_THREADS`, over all cores); campaign
/// output is bit-identical at any thread count, so the flag only changes
/// wall-clock time. A malformed or zero count from either source is a
/// usage error.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let inv = args::parse(argv)?;
    let engine =
        rjam_core::CampaignEngine::from_args(inv.threads.as_deref()).map_err(CliError::usage)?;
    let engine = match inv.progress {
        Some(args::ProgressTarget::Stderr) => engine.with_progress(line_writer(std::io::stderr())),
        Some(args::ProgressTarget::File(path)) => {
            let file = std::fs::File::create(&path)
                .map_err(|e| CliError::runtime(format!("--progress={path}: {e}")))?;
            engine.with_progress(line_writer(file))
        }
        None => engine,
    };
    let report = commands::execute_with(&inv.command, &engine)?;
    if let Some(path) = inv.metrics_out {
        commands::write_metrics_snapshot(&path)?;
    }
    Ok(report)
}

/// A progress sink writing each event's line, newline-terminated, to `w`
/// and flushing it, so the stream is readable while the campaign runs —
/// and up to the failure point when a command fails. Write errors are
/// swallowed: telemetry must never fail a campaign.
fn line_writer(w: impl std::io::Write + Send + 'static) -> ProgressSink {
    let w = Mutex::new(w);
    Arc::new(move |ev: &ProgressEvent| {
        let line = ev.to_line();
        let mut w = w.lock().expect("progress writer lock");
        let _ = writeln!(w, "{line}").and_then(|()| w.flush());
    })
}

/// The single error-exit path of the console: reports the failure on
/// stderr (appending usage only for malformed invocations) and returns the
/// process exit code mandated by the error's kind.
///
/// [`ErrorKind::Alarm`] is the exception: the command completed and its
/// message *is* the report (e.g. `monitor` ending with an alarm raised),
/// so it goes to stdout unstyled — only the exit code marks the verdict.
pub fn fail(e: &CliError) -> std::process::ExitCode {
    if e.kind() == ErrorKind::Alarm {
        print!("{e}");
    } else {
        eprintln!("error: {e}");
        if e.kind() == ErrorKind::Usage {
            eprintln!("{}", args::USAGE);
        }
    }
    std::process::ExitCode::from(e.exit_code())
}
