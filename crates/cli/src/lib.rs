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

pub use args::{CliError, Command, ErrorKind, ParsedArgs};

use rjam_core::engine::ProgressSink;
use std::sync::{Arc, Mutex};

/// Entry point shared by the binary and tests: parse and run.
///
/// The global `--threads N` flag picks the campaign engine's worker count
/// for this invocation (over `RJAM_THREADS`, over all cores); campaign
/// output is bit-identical at any thread count, so the flag only changes
/// wall-clock time.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let (argv, metrics_out) = args::extract_metrics_out(argv)?;
    let (argv, threads) = args::extract_threads(&argv)?;
    let engine = match threads {
        Some(n) => rjam_core::CampaignEngine::with_threads(n),
        // No --threads flag: defer to RJAM_THREADS, but strictly. The
        // engine's own fallback degrades garbage to serial; the console
        // rejects it outright (exit 2), mirroring `--threads` validation.
        None => match rjam_core::engine::threads_from_env() {
            Ok(Some(0)) => {
                return Err(CliError::usage(format!(
                    "{} must be at least 1 (unset it to use all cores)",
                    rjam_core::engine::THREADS_ENV
                )))
            }
            Ok(_) => rjam_core::CampaignEngine::from_env(),
            Err(msg) => return Err(CliError::usage(msg)),
        },
    };
    let (argv, progress) = args::extract_progress(&argv)?;
    let cmd = args::parse(&argv)?;
    let engine = match progress {
        Some(args::ProgressTarget::Stderr) => engine.with_progress(line_writer(std::io::stderr())),
        Some(args::ProgressTarget::File(path)) => {
            let file = std::fs::File::create(&path)
                .map_err(|e| CliError::runtime(format!("--progress={path}: {e}")))?;
            engine.with_progress(line_writer(file))
        }
        None => engine,
    };
    let report = commands::execute_with(&cmd, &engine)?;
    if let Some(path) = metrics_out {
        commands::write_metrics_snapshot(&path)?;
    }
    Ok(report)
}

/// A progress sink writing each line, newline-terminated, to `w` and
/// flushing it, so the stream is readable while the campaign runs — and
/// up to the failure point when a command fails. Write errors are
/// swallowed: telemetry must never fail a campaign.
fn line_writer(w: impl std::io::Write + Send + 'static) -> ProgressSink {
    let w = Mutex::new(w);
    Arc::new(move |line: &str| {
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
