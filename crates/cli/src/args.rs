//! Command-line argument model (std-only; no parser dependency).

use std::collections::HashMap;
use std::fmt;

/// How a CLI failure maps to a process exit code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The invocation itself was malformed (unknown command, bad flag,
    /// unparsable value). Exit code 2; usage text is shown.
    Usage,
    /// The command was well-formed but failed while running (missing file,
    /// empty capture, unwritable output). Exit code 1; no usage spam.
    Runtime,
    /// The command ran to completion but its verdict is unhealthy
    /// (`monitor` finished with an alarm still raised, or a validator
    /// found a violated expectation). Exit code 1; the message is the
    /// command's full report and is printed to stdout, not styled as an
    /// error.
    Alarm,
}

/// A parse or execution failure surfaced to the operator.
///
/// Every error in the console flows through this one type so the binary has
/// a single exit path: [`ErrorKind::Usage`] failures exit 2 with usage,
/// [`ErrorKind::Runtime`] failures exit 1 without it.
#[derive(Clone, Debug, PartialEq)]
pub struct CliError {
    kind: ErrorKind,
    message: String,
}

impl CliError {
    /// A malformed-invocation error (exit code 2, usage shown).
    pub fn usage(message: impl Into<String>) -> Self {
        CliError {
            kind: ErrorKind::Usage,
            message: message.into(),
        }
    }

    /// A runtime failure (exit code 1, no usage).
    pub fn runtime(message: impl Into<String>) -> Self {
        CliError {
            kind: ErrorKind::Runtime,
            message: message.into(),
        }
    }

    /// An unhealthy verdict (exit code 1): `message` is the command's
    /// complete report, shown on stdout like a success report.
    pub fn alarm(message: impl Into<String>) -> Self {
        CliError {
            kind: ErrorKind::Alarm,
            message: message.into(),
        }
    }

    /// Which class of failure this is.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }

    /// The operator-facing message.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The process exit code this failure maps to.
    pub fn exit_code(&self) -> u8 {
        match self.kind {
            ErrorKind::Usage => 2,
            ErrorKind::Runtime | ErrorKind::Alarm => 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

/// The detection preset names the console accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PresetName {
    /// WiFi short-training-sequence template.
    WifiShort,
    /// WiFi long-training-symbol template.
    WifiLong,
    /// WiMAX preamble template (IDcell/segment via --cell/--segment).
    Wimax,
    /// Energy-rise detector.
    Energy,
}

impl PresetName {
    fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "wifi-short" => Ok(PresetName::WifiShort),
            "wifi-long" => Ok(PresetName::WifiLong),
            "wimax" => Ok(PresetName::Wimax),
            "energy" => Ok(PresetName::Energy),
            other => Err(CliError::usage(format!(
                "unknown preset '{other}' (expected wifi-short|wifi-long|wimax|energy)"
            ))),
        }
    }
}

/// Jammer variant names for the iperf command.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JammerName {
    /// No jammer.
    Off,
    /// Continuous WGN.
    Continuous,
    /// Reactive, 0.1 ms uptime.
    ReactiveLong,
    /// Reactive, 0.01 ms uptime.
    ReactiveShort,
}

impl JammerName {
    fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "off" => Ok(JammerName::Off),
            "continuous" => Ok(JammerName::Continuous),
            "reactive-long" => Ok(JammerName::ReactiveLong),
            "reactive-short" => Ok(JammerName::ReactiveShort),
            other => Err(CliError::usage(format!(
                "unknown jammer '{other}' (expected off|continuous|reactive-long|reactive-short)"
            ))),
        }
    }
}

/// A fully parsed console command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Fig. 5 latency check.
    Timeline {
        /// Frame episodes per detection path.
        trials: usize,
    },
    /// Detection-probability measurement at one SNR.
    Detect {
        /// Detector to arm.
        preset: PresetName,
        /// Probe SNR in dB.
        snr_db: f64,
        /// Frames per measurement.
        frames: usize,
        /// Correlation threshold fraction (correlator presets).
        threshold: f64,
        /// Energy threshold dB (energy preset).
        energy_db: f64,
        /// WiMAX IDcell.
        cell: u8,
        /// WiMAX segment.
        segment: u8,
    },
    /// False-alarm measurement on noise-only input.
    Fa {
        /// Detector to arm.
        preset: PresetName,
        /// Correlation threshold fraction.
        threshold: f64,
        /// Energy threshold dB.
        energy_db: f64,
        /// Noise samples to process.
        samples: usize,
        /// WiMAX IDcell.
        cell: u8,
        /// WiMAX segment.
        segment: u8,
        /// Comma-separated threshold grid in the preset's own unit
        /// (fractions, or dB for the energy preset): every threshold is
        /// measured over the *same* noise stream.
        grid: Option<Vec<f64>>,
    },
    /// iperf-style jamming run at one SIR.
    Iperf {
        /// Jammer variant.
        jammer: JammerName,
        /// SIR at the AP, dB.
        sir_db: f64,
        /// Test duration, seconds.
        seconds: f64,
    },
    /// Classify an IQ capture file (cf32 at 25 MSPS).
    Classify {
        /// Path to the capture.
        path: String,
    },
    /// ROC sweep: FA rate vs detection probability across thresholds.
    Roc {
        /// Detector to sweep.
        preset: PresetName,
        /// Probe SNR in dB.
        snr_db: f64,
        /// Frames per threshold.
        frames: usize,
        /// Noise samples per FA measurement.
        fa_samples: usize,
        /// WiMAX IDcell.
        cell: u8,
        /// WiMAX segment.
        segment: u8,
    },
    /// Print the FPGA resource footprint of the custom core.
    Resources,
    /// Observability: render a metrics snapshot (live exercise or a saved
    /// `--metrics-out` file).
    Stats {
        /// Optional path to a saved `rjam-metrics-v1` JSON snapshot; when
        /// absent, a short live exercise is run and its metrics shown.
        input: Option<String>,
        /// Response budget the trigger-to-TX p99 is judged against, in ns.
        /// `None` derives it from the detection presets the live exercise
        /// arms (the paper's xcorr budget when the correlator is in play).
        budget_ns: Option<f64>,
    },
    /// Causal tracing: capture traced jam episodes, render the per-frame
    /// latency attribution, and export Perfetto-loadable timelines.
    Trace {
        /// Frame episodes to capture.
        episodes: usize,
        /// Write the compact `rjam-trace-v1` JSON document here.
        out: Option<String>,
        /// Write Chrome trace-event JSON (Perfetto / `chrome://tracing`)
        /// here.
        chrome: Option<String>,
        /// Response budget per frame, ns; `None` derives it from the armed
        /// presets.
        budget_ns: Option<f64>,
        /// How many of the slowest frames to detail.
        top: usize,
    },
    /// Online health monitoring: run a scenario with the link-health
    /// monitor attached and render the live rule table plus alarm log.
    /// Exits 0 when the run ends healthy, 1 when an alarm was raised.
    Monitor {
        /// Jammer variant under test.
        jammer: JammerName,
        /// SIR at the AP, dB.
        sir_db: f64,
        /// Scenario duration, seconds.
        seconds: f64,
        /// Monitor evaluation cadence, frames per window.
        cadence: u64,
        /// Write the line-delimited `rjam-health-v1` event stream here.
        out: Option<String>,
    },
    /// Engine telemetry: run a reference detection campaign and render its
    /// post-run engine profile (per-worker utilization, unit latency
    /// percentiles, stragglers).
    Report {
        /// Frames per SNR point of the reference sweep.
        frames: usize,
        /// How many stragglers to detail.
        top: usize,
    },
    /// Submit a campaign job to a running `rjamd` (or run it locally).
    Submit {
        /// Unix socket of the daemon (`None` only with `local`).
        socket: Option<String>,
        /// The `CampaignRequest` JSON text.
        spec: String,
        /// Run the spec in this process instead of a daemon — the
        /// byte-identical reference for job exports.
        local: bool,
        /// With `local`: write the export here instead of stdout.
        export: Option<String>,
    },
    /// Report job states from a running `rjamd`.
    JobStatus {
        /// Unix socket of the daemon.
        socket: String,
        /// Restrict to one job id.
        job: Option<String>,
    },
    /// Stream a job's progress until it finishes.
    Watch {
        /// Unix socket of the daemon.
        socket: String,
        /// Job id to follow.
        job: String,
        /// Write the final export text here when the job completes.
        export: Option<String>,
    },
    /// Cancel a queued or running job (checkpoint retained).
    JobCancel {
        /// Unix socket of the daemon.
        socket: String,
        /// Job id to cancel.
        job: String,
    },
    /// Resume a cancelled job from its checkpoint.
    JobResume {
        /// Unix socket of the daemon.
        socket: String,
        /// Job id to resume.
        job: String,
    },
    /// Print usage.
    Help,
}

/// Where the live `rjam-progress-v1` stream should go.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgressTarget {
    /// NDJSON on stderr (the default for bare `--progress`).
    Stderr,
    /// NDJSON appended to a file (`--progress=FILE`).
    File(String),
}

/// Raw key/value option map plus positionals.
#[derive(Clone, Debug, Default)]
pub struct ParsedArgs {
    /// `--key value` pairs.
    pub options: HashMap<String, String>,
    /// Bare arguments in order.
    pub positionals: Vec<String>,
}

/// Strips the global `--metrics-out <file>` flag from an argument vector.
///
/// The flag is accepted anywhere on the command line and applies to every
/// command: after execution, a `rjam-metrics-v1` JSON snapshot of the
/// process-wide registry is written to the file. Returns the remaining
/// arguments and the requested path, if any.
pub fn extract_metrics_out(argv: &[String]) -> Result<(Vec<String>, Option<String>), CliError> {
    let mut rest = Vec::with_capacity(argv.len());
    let mut path = None;
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--metrics-out" {
            let value = argv
                .get(i + 1)
                .ok_or_else(|| CliError::usage("--metrics-out needs a file path"))?;
            path = Some(value.clone());
            i += 2;
        } else {
            rest.push(argv[i].clone());
            i += 1;
        }
    }
    Ok((rest, path))
}

/// Strips the global `--threads <N>` flag from an argument vector.
///
/// The flag is accepted anywhere on the command line and sets the worker
/// count of the campaign engine for this invocation, overriding the
/// `RJAM_THREADS` environment variable. `N` must be a positive integer.
/// Campaign output is bit-identical at any thread count, so this is purely
/// a wall-clock knob.
pub fn extract_threads(argv: &[String]) -> Result<(Vec<String>, Option<usize>), CliError> {
    let mut rest = Vec::with_capacity(argv.len());
    let mut threads = None;
    let mut i = 0;
    while i < argv.len() {
        if argv[i] == "--threads" {
            let value = argv
                .get(i + 1)
                .ok_or_else(|| CliError::usage("--threads needs a positive integer"))?;
            let n: usize = value.parse().map_err(|_| {
                CliError::usage(format!("--threads: cannot parse '{value}' as an integer"))
            })?;
            if n == 0 {
                return Err(CliError::usage("--threads must be at least 1"));
            }
            threads = Some(n);
            i += 2;
        } else {
            rest.push(argv[i].clone());
            i += 1;
        }
    }
    Ok((rest, threads))
}

/// Strips the global `--progress[=FILE]` flag from an argument vector.
///
/// Accepted anywhere on the command line: while a campaign command runs,
/// the engine streams line-delimited `rjam-progress-v1` events (campaign
/// started / shard finished / snapshot with ETA / campaign done) to stderr,
/// or to `FILE` with the `--progress=FILE` form. Unlike the two-token
/// global flags, the value is attached with `=` so bare `--progress` can
/// default to stderr without swallowing the next argument.
pub fn extract_progress(
    argv: &[String],
) -> Result<(Vec<String>, Option<ProgressTarget>), CliError> {
    let mut rest = Vec::with_capacity(argv.len());
    let mut target = None;
    for arg in argv {
        if arg == "--progress" {
            target = Some(ProgressTarget::Stderr);
        } else if let Some(path) = arg.strip_prefix("--progress=") {
            if path.is_empty() {
                return Err(CliError::usage("--progress= needs a file path"));
            }
            target = Some(ProgressTarget::File(path.to_string()));
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((rest, target))
}

/// Splits argv into options and positionals.
pub fn split(argv: &[String]) -> Result<ParsedArgs, CliError> {
    let mut out = ParsedArgs::default();
    let mut i = 0;
    while i < argv.len() {
        if let Some(key) = argv[i].strip_prefix("--") {
            let value = argv
                .get(i + 1)
                .ok_or_else(|| CliError::usage(format!("--{key} needs a value")))?;
            out.options.insert(key.to_string(), value.clone());
            i += 2;
        } else {
            out.positionals.push(argv[i].clone());
            i += 1;
        }
    }
    Ok(out)
}

fn opt<T: std::str::FromStr>(p: &ParsedArgs, key: &str, default: T) -> Result<T, CliError> {
    match p.options.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| CliError::usage(format!("--{key}: cannot parse '{v}'"))),
    }
}

/// Like [`opt`] but with no default: absent flags stay `None`.
fn opt_maybe<T: std::str::FromStr>(p: &ParsedArgs, key: &str) -> Result<Option<T>, CliError> {
    match p.options.get(key) {
        None => Ok(None),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| CliError::usage(format!("--{key}: cannot parse '{v}'"))),
    }
}

/// Parses a `--grid` value: comma-separated thresholds.
fn parse_grid(p: &ParsedArgs) -> Result<Option<Vec<f64>>, CliError> {
    let Some(raw) = p.options.get("grid") else {
        return Ok(None);
    };
    let grid = raw
        .split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| CliError::usage(format!("--grid: cannot parse '{s}' as a number")))
        })
        .collect::<Result<Vec<f64>, CliError>>()?;
    // split(',') always yields at least one element, and empty elements
    // fail the parse above, so `grid` is non-empty here.
    Ok(Some(grid))
}

/// The `--socket PATH` every job-service verb needs.
fn job_socket(p: &ParsedArgs, verb: &str) -> Result<String, CliError> {
    p.options
        .get("socket")
        .cloned()
        .ok_or_else(|| CliError::usage(format!("{verb} requires --socket PATH")))
}

/// The positional job id of `watch`/`cancel`/`resume`.
fn job_id(p: &ParsedArgs, verb: &str) -> Result<String, CliError> {
    p.positionals
        .first()
        .cloned()
        .ok_or_else(|| CliError::usage(format!("{verb} requires a job id")))
}

/// The flags (without `--`) the `USAGE` lines of subcommand `verb` name,
/// or `None` when `verb` has no usage line. A subcommand accepts exactly
/// these flags — the rule the `check` tool applies to its own usage lines.
fn usage_flags(verb: &str) -> Option<Vec<&'static str>> {
    let mut flags = None;
    let mut inside = false;
    for line in USAGE.lines() {
        if let Some(cmd) = line.strip_prefix("  rjamctl ") {
            inside = cmd.split_whitespace().next() == Some(verb);
        } else if !line.starts_with("    ") {
            inside = false;
        }
        if inside {
            flags.get_or_insert_with(Vec::new).extend(
                line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .filter_map(|word| word.strip_prefix("--")),
            );
        }
    }
    flags
}

/// Parses a full command line (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, CliError> {
    let Some(verb) = argv.first() else {
        return Ok(Command::Help);
    };
    // `submit --local` is the one bare flag: pull it out before the
    // two-token option split sees it.
    let local = verb == "submit" && argv.iter().any(|a| a == "--local");
    let mut args = argv[1..].to_vec();
    if local {
        args.retain(|a| a != "--local");
    }
    let rest = split(&args)?;
    // A verb without a usage line is not a subcommand; the match below
    // reports it.
    if let Some(flags) = usage_flags(verb) {
        if let Some(bad) = rest
            .options
            .keys()
            .filter(|k| !flags.contains(&k.as_str()))
            .min()
        {
            return Err(CliError::usage(format!(
                "unknown flag '--{bad}' for '{verb}'"
            )));
        }
    }
    match verb.as_str() {
        "timeline" => Ok(Command::Timeline {
            trials: opt(&rest, "trials", 20)?,
        }),
        "detect" => Ok(Command::Detect {
            preset: PresetName::parse(
                rest.options
                    .get("preset")
                    .ok_or_else(|| CliError::usage("detect requires --preset"))?,
            )?,
            snr_db: opt(&rest, "snr", 5.0)?,
            frames: opt(&rest, "frames", 1000)?,
            threshold: opt(&rest, "threshold", 0.35)?,
            energy_db: opt(&rest, "energy-db", 10.0)?,
            cell: opt(&rest, "cell", 1)?,
            segment: opt(&rest, "segment", 0)?,
        }),
        "fa" => Ok(Command::Fa {
            preset: PresetName::parse(
                rest.options
                    .get("preset")
                    .ok_or_else(|| CliError::usage("fa requires --preset"))?,
            )?,
            threshold: opt(&rest, "threshold", 0.40)?,
            energy_db: opt(&rest, "energy-db", 10.0)?,
            samples: opt(&rest, "samples", 20_000_000)?,
            cell: opt(&rest, "cell", 1)?,
            segment: opt(&rest, "segment", 0)?,
            grid: parse_grid(&rest)?,
        }),
        "iperf" => Ok(Command::Iperf {
            jammer: JammerName::parse(
                rest.options
                    .get("jammer")
                    .ok_or_else(|| CliError::usage("iperf requires --jammer"))?,
            )?,
            sir_db: opt(&rest, "sir", 20.0)?,
            seconds: opt(&rest, "seconds", 5.0)?,
        }),
        "classify" => {
            let path = rest
                .positionals
                .first()
                .cloned()
                .ok_or_else(|| CliError::usage("classify requires a capture path"))?;
            Ok(Command::Classify { path })
        }
        "roc" => Ok(Command::Roc {
            preset: PresetName::parse(
                rest.options
                    .get("preset")
                    .ok_or_else(|| CliError::usage("roc requires --preset"))?,
            )?,
            snr_db: opt(&rest, "snr", 0.0)?,
            frames: opt(&rest, "frames", 200)?,
            fa_samples: opt(&rest, "fa-samples", 5_000_000)?,
            cell: opt(&rest, "cell", 1)?,
            segment: opt(&rest, "segment", 0)?,
        }),
        "resources" => Ok(Command::Resources),
        "stats" => Ok(Command::Stats {
            input: rest.positionals.first().cloned(),
            budget_ns: opt_maybe(&rest, "budget-ns")?,
        }),
        "trace" => Ok(Command::Trace {
            episodes: opt(&rest, "episodes", 8)?,
            out: rest.options.get("out").cloned(),
            chrome: rest.options.get("chrome").cloned(),
            budget_ns: opt_maybe(&rest, "budget-ns")?,
            top: opt(&rest, "top", 5)?,
        }),
        "monitor" => Ok(Command::Monitor {
            jammer: JammerName::parse(
                rest.options
                    .get("jammer")
                    .ok_or_else(|| CliError::usage("monitor requires --jammer"))?,
            )?,
            sir_db: opt(&rest, "sir", 14.0)?,
            seconds: opt(&rest, "seconds", 1.0)?,
            cadence: opt(&rest, "cadence", 16)?,
            out: rest.options.get("out").cloned(),
        }),
        "report" => Ok(Command::Report {
            frames: opt(&rest, "frames", 64)?,
            top: opt(&rest, "top", 5)?,
        }),
        "submit" => {
            let spec = match (rest.options.get("spec"), rest.options.get("spec-file")) {
                (Some(s), None) => s.clone(),
                (None, Some(path)) => std::fs::read_to_string(path)
                    .map_err(|e| CliError::usage(format!("--spec-file {path}: {e}")))?,
                (Some(_), Some(_)) => {
                    return Err(CliError::usage("pass --spec or --spec-file, not both"))
                }
                (None, None) => {
                    return Err(CliError::usage(
                        "submit requires --spec JSON or --spec-file FILE",
                    ))
                }
            };
            let socket = rest.options.get("socket").cloned();
            if socket.is_none() && !local {
                return Err(CliError::usage(
                    "submit requires --socket PATH (or --local)",
                ));
            }
            if socket.is_some() && local {
                return Err(CliError::usage("pass --socket or --local, not both"));
            }
            Ok(Command::Submit {
                socket,
                spec,
                local,
                export: rest.options.get("export").cloned(),
            })
        }
        "status" => Ok(Command::JobStatus {
            socket: job_socket(&rest, "status")?,
            job: rest.positionals.first().cloned(),
        }),
        "watch" => Ok(Command::Watch {
            socket: job_socket(&rest, "watch")?,
            job: job_id(&rest, "watch")?,
            export: rest.options.get("export").cloned(),
        }),
        "cancel" => Ok(Command::JobCancel {
            socket: job_socket(&rest, "cancel")?,
            job: job_id(&rest, "cancel")?,
        }),
        "resume" => Ok(Command::JobResume {
            socket: job_socket(&rest, "resume")?,
            job: job_id(&rest, "resume")?,
        }),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(CliError::usage(format!(
            "unknown command '{other}' (try 'help')"
        ))),
    }
}

/// Usage text.
pub const USAGE: &str = "rjamctl — reactive jamming operator console

USAGE:
  rjamctl timeline  [--trials N]
  rjamctl detect    --preset wifi-short|wifi-long|wimax|energy
                    [--snr dB] [--frames N] [--threshold f]
                    [--energy-db dB] [--cell N] [--segment N]
  rjamctl fa        --preset ... [--threshold f] [--energy-db dB] [--samples N]
                    [--grid t,t,...] [--cell N] [--segment N]
  rjamctl iperf     --jammer off|continuous|reactive-long|reactive-short
                    [--sir dB] [--seconds S]
  rjamctl roc       --preset ... [--snr dB] [--frames N] [--fa-samples N]
                    [--cell N] [--segment N]
  rjamctl classify  <capture.cf32>
  rjamctl resources
  rjamctl stats     [snapshot.json] [--budget-ns NS]
  rjamctl trace     [--episodes N] [--out trace.json] [--chrome chrome.json]
                    [--budget-ns NS] [--top K]
  rjamctl monitor   --jammer off|continuous|reactive-long|reactive-short
                    [--sir dB] [--seconds S] [--cadence FRAMES]
                    [--out health.ndjson]
  rjamctl report    [--frames N] [--top K]
  rjamctl submit    (--socket PATH | --local) (--spec JSON | --spec-file FILE)
                    [--export FILE]
  rjamctl status    --socket PATH [JOB]
  rjamctl watch     --socket PATH JOB [--export FILE]
  rjamctl cancel    --socket PATH JOB
  rjamctl resume    --socket PATH JOB
  rjamctl help

GLOBAL OPTIONS:
  --metrics-out FILE   after any command, write a rjam-metrics-v1 JSON
                       snapshot of the observability registry to FILE
                       (inspect later with 'rjamctl stats FILE')
  --threads N          worker threads for the campaign engine (detect, fa,
                       roc, iperf); overrides RJAM_THREADS, defaults to all
                       cores. Output is bit-identical at any N
  --progress[=FILE]    stream line-delimited rjam-progress-v1 events
                       (campaign started / shard finished / snapshot with
                       ETA / campaign done) to stderr, or to FILE with the
                       = form, while campaign commands run. Requires the
                       default 'obs' build

NOTES:
  detect/roc probe against full 802.11g frames; selecting --preset wimax
  there measures cross-standard rejection (it should stay near zero).
  fa --grid and roc sweep thresholds in the preset's own unit: correlation
  fractions, or dB for --preset energy. fa --grid measures a comma-separated
  list over the *same* noise stream (one row per threshold); roc sweeps
  fractions 0.26 to 0.54, or 4 to 18 dB, over one noise and one emission
  stream.
  stats without a file runs a short live exercise and renders its metrics,
  including the trigger-to-TX latency histogram against the response budget
  (derived from the armed presets unless --budget-ns overrides it).
  trace captures causally-linked jam episodes: every frame gets a
  correlation ID at MAC emission and a per-stage latency decomposition;
  --out writes the rjam-trace-v1 document, --chrome writes a Perfetto /
  chrome://tracing loadable timeline with one track per pipeline stage.
  monitor attaches the online link-health monitor to one iperf-style
  scenario run: every --cadence frames the streaming detectors (EWMA
  baseline, CUSUM, Page-Hinkley) judge that run's windowed PRR and jam
  rate, and each transition is logged as a rjam-health-v1 event
  (--out writes the NDJSON stream; validate it with check health).
  The exit code is the verdict: 0 healthy, 1 alarmed.
  report runs a reference detection sweep through the campaign engine and
  renders its telemetry: per-worker busy/idle/merge-wait with utilization,
  wall-clock attribution coverage, unit latency percentiles, and the top
  straggler units with the per-unit seeds needed to re-run them.
  submit/status/watch/cancel/resume speak the rjam-job-v1 protocol to a
  resident rjamd over its Unix socket. submit sends a CampaignRequest JSON
  spec (campaigns: wifi_detection, false_alarm, wimax, jamming) and prints
  the assigned job id; invalid specs are refused before enqueue. watch
  replays then follows the job's job-tagged rjam-progress-v1 stream and,
  with --export FILE, writes the final export — byte-identical to the same
  spec run with 'submit --local'. cancel stops a job between work units,
  keeping its checkpointed shard progress; resume re-enqueues it to finish
  from the checkpoint.

EXIT CODES:
  0 success, 1 runtime failure, 2 usage error (usage shown on 2 only);
  monitor: 0 final verdict healthy, 1 alarmed, 2 usage error
";

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_timeline_defaults() {
        assert_eq!(
            parse(&argv("timeline")).unwrap(),
            Command::Timeline { trials: 20 }
        );
        assert_eq!(
            parse(&argv("timeline --trials 7")).unwrap(),
            Command::Timeline { trials: 7 }
        );
    }

    #[test]
    fn parses_detect() {
        let c = parse(&argv("detect --preset wifi-short --snr -3 --frames 50")).unwrap();
        match c {
            Command::Detect {
                preset,
                snr_db,
                frames,
                ..
            } => {
                assert_eq!(preset, PresetName::WifiShort);
                assert_eq!(snr_db, -3.0);
                assert_eq!(frames, 50);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn detect_requires_preset() {
        let err = parse(&argv("detect --snr 3")).unwrap_err();
        assert!(err.message().contains("--preset"), "{err}");
        assert_eq!(err.kind(), ErrorKind::Usage);
    }

    #[test]
    fn rejects_unknown_preset_and_command() {
        assert!(parse(&argv("detect --preset zigbee")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
    }

    #[test]
    fn parses_iperf_jammers() {
        for (name, want) in [
            ("off", JammerName::Off),
            ("continuous", JammerName::Continuous),
            ("reactive-long", JammerName::ReactiveLong),
            ("reactive-short", JammerName::ReactiveShort),
        ] {
            let c = parse(&argv(&format!("iperf --jammer {name} --sir 14"))).unwrap();
            match c {
                Command::Iperf { jammer, sir_db, .. } => {
                    assert_eq!(jammer, want);
                    assert_eq!(sir_db, 14.0);
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn classify_takes_positional() {
        let c = parse(&argv("classify cap.cf32")).unwrap();
        assert_eq!(
            c,
            Command::Classify {
                path: "cap.cf32".into()
            }
        );
        assert!(parse(&argv("classify")).is_err());
    }

    #[test]
    fn parses_fa_grid() {
        match parse(&argv("fa --preset wifi-short")).unwrap() {
            Command::Fa { grid, .. } => assert_eq!(grid, None),
            other => panic!("{other:?}"),
        }
        match parse(&argv("fa --preset wifi-short --grid 0.22,0.34,0.50")).unwrap() {
            Command::Fa { grid, .. } => assert_eq!(grid, Some(vec![0.22, 0.34, 0.50])),
            other => panic!("{other:?}"),
        }
        // Spaces after commas survive (quoted on a real command line).
        let argv_spaced: Vec<String> = vec!["fa", "--preset", "wifi-short", "--grid", "0.2, 0.4"]
            .into_iter()
            .map(String::from)
            .collect();
        match parse(&argv_spaced).unwrap() {
            Command::Fa { grid, .. } => assert_eq!(grid, Some(vec![0.2, 0.4])),
            other => panic!("{other:?}"),
        }
        for bad in [
            "fa --preset wifi-short --grid banana",
            "fa --preset wifi-short --grid 0.2,,0.4",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Usage, "'{bad}'");
            assert!(err.message().contains("--grid"), "'{bad}' -> {err}");
        }
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        for (bad, flag) in [
            ("roc --preset wifi-short --snr-db 10", "--snr-db"),
            ("detect --preset wifi-short --bogus 3", "--bogus"),
            ("resources --frames 3", "--frames"),
            ("submit --local --spec {} --socket-path x", "--socket-path"),
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Usage, "'{bad}'");
            assert!(err.message().contains(flag), "'{bad}' -> {err}");
        }
        // A verb that is no subcommand is still reported as such.
        let err = parse(&argv("frobnicate --x 1")).unwrap_err();
        assert!(err.message().contains("unknown command"), "{err}");
    }

    #[test]
    fn every_usage_flag_parses() {
        // The USAGE lines are the flag table: every flag they name must
        // get past the unknown-flag check of its subcommand.
        let verbs: Vec<&str> = USAGE
            .lines()
            .filter_map(|l| l.strip_prefix("  rjamctl "))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        assert!(verbs.len() >= 16, "{verbs:?}");
        let value = |flag: &str| match flag {
            "preset" => "wifi-short",
            "jammer" => "off",
            "grid" => "0.3,0.4",
            _ => "1",
        };
        for verb in verbs {
            for flag in usage_flags(verb).expect("has a usage line") {
                let line = format!("{verb} --{flag} {}", value(flag));
                if let Err(e) = parse(&argv(&line)) {
                    assert!(!e.message().contains("unknown flag"), "'{line}' -> {e}");
                }
            }
        }
        // fa and roc read --cell and --segment, so USAGE must name them.
        for verb in ["fa", "roc"] {
            let flags = usage_flags(verb).unwrap();
            assert!(
                flags.contains(&"cell") && flags.contains(&"segment"),
                "{verb}: {flags:?}"
            );
        }
    }

    #[test]
    fn missing_value_reported() {
        let err = parse(&argv("detect --preset")).unwrap_err();
        assert!(err.message().contains("needs a value"), "{err}");
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn unparsable_number_reported() {
        let err = parse(&argv("iperf --jammer off --sir banana")).unwrap_err();
        assert!(err.message().contains("--sir"), "{err}");
    }

    #[test]
    fn error_kinds_map_to_exit_codes() {
        assert_eq!(CliError::usage("x").exit_code(), 2);
        assert_eq!(CliError::runtime("x").exit_code(), 1);
        assert_eq!(CliError::usage("x").kind(), ErrorKind::Usage);
        assert_eq!(CliError::runtime("x").kind(), ErrorKind::Runtime);
    }

    #[test]
    fn all_parse_errors_are_usage_errors() {
        for bad in [
            "frobnicate",
            "detect --snr 3",
            "detect --preset zigbee",
            "detect --preset",
            "iperf --jammer off --sir banana",
            "classify",
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Usage, "'{bad}' -> {err}");
            assert_eq!(err.exit_code(), 2, "'{bad}'");
        }
    }

    #[test]
    fn parses_stats() {
        assert_eq!(
            parse(&argv("stats")).unwrap(),
            Command::Stats {
                input: None,
                budget_ns: None
            }
        );
        assert_eq!(
            parse(&argv("stats snap.json")).unwrap(),
            Command::Stats {
                input: Some("snap.json".into()),
                budget_ns: None
            }
        );
        assert_eq!(
            parse(&argv("stats --budget-ns 3000")).unwrap(),
            Command::Stats {
                input: None,
                budget_ns: Some(3000.0)
            }
        );
        let err = parse(&argv("stats --budget-ns fast")).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Usage);
    }

    #[test]
    fn parses_trace() {
        assert_eq!(
            parse(&argv("trace")).unwrap(),
            Command::Trace {
                episodes: 8,
                out: None,
                chrome: None,
                budget_ns: None,
                top: 5
            }
        );
        assert_eq!(
            parse(&argv(
                "trace --episodes 3 --out t.json --chrome c.json --budget-ns 2640 --top 2"
            ))
            .unwrap(),
            Command::Trace {
                episodes: 3,
                out: Some("t.json".into()),
                chrome: Some("c.json".into()),
                budget_ns: Some(2640.0),
                top: 2
            }
        );
        assert!(parse(&argv("trace --episodes many")).is_err());
    }

    #[test]
    fn threads_stripped_from_anywhere() {
        let (rest, threads) = extract_threads(&argv("detect --threads 4 --preset energy")).unwrap();
        assert_eq!(threads, Some(4));
        assert_eq!(rest, argv("detect --preset energy"));

        let (rest, threads) = extract_threads(&argv("fa --preset energy")).unwrap();
        assert_eq!(threads, None);
        assert_eq!(rest, argv("fa --preset energy"));

        for bad in ["roc --threads", "roc --threads zero", "roc --threads 0"] {
            let err = extract_threads(&argv(bad)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Usage, "'{bad}'");
            assert!(err.message().contains("--threads"), "'{bad}' -> {err}");
        }
    }

    #[test]
    fn parses_report() {
        assert_eq!(
            parse(&argv("report")).unwrap(),
            Command::Report { frames: 64, top: 5 }
        );
        assert_eq!(
            parse(&argv("report --frames 32 --top 3")).unwrap(),
            Command::Report { frames: 32, top: 3 }
        );
        assert!(parse(&argv("report --frames many")).is_err());
    }

    #[test]
    fn progress_stripped_from_anywhere() {
        let (rest, target) = extract_progress(&argv("detect --progress --preset energy")).unwrap();
        assert_eq!(target, Some(ProgressTarget::Stderr));
        assert_eq!(rest, argv("detect --preset energy"));

        let (rest, target) =
            extract_progress(&argv("fa --progress=prog.ndjson --preset energy")).unwrap();
        assert_eq!(target, Some(ProgressTarget::File("prog.ndjson".into())));
        assert_eq!(rest, argv("fa --preset energy"));

        let (rest, target) = extract_progress(&argv("timeline")).unwrap();
        assert_eq!(target, None);
        assert_eq!(rest, argv("timeline"));

        // Bare --progress must not swallow the next argument.
        let (rest, target) = extract_progress(&argv("roc --progress --preset energy")).unwrap();
        assert_eq!(target, Some(ProgressTarget::Stderr));
        assert!(rest.contains(&"--preset".to_string()));

        let err = extract_progress(&argv("detect --progress=")).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Usage);
        assert!(err.message().contains("--progress"), "{err}");
    }

    #[test]
    fn metrics_out_stripped_from_anywhere() {
        let (rest, path) =
            extract_metrics_out(&argv("iperf --metrics-out m.json --jammer off")).unwrap();
        assert_eq!(path.as_deref(), Some("m.json"));
        assert_eq!(rest, argv("iperf --jammer off"));

        let (rest, path) = extract_metrics_out(&argv("timeline")).unwrap();
        assert_eq!(path, None);
        assert_eq!(rest, argv("timeline"));

        let err = extract_metrics_out(&argv("resources --metrics-out")).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Usage);
        assert!(err.message().contains("--metrics-out"), "{err}");
    }
}
