//! Command-line argument model: the [`USAGE`] text is the flag table,
//! read by [`rjam_obs::flags`].

use rjam_core::campaign::JammerUnderTest;
use rjam_obs::flags::{self, Flags};
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
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "wifi-short" => Ok(PresetName::WifiShort),
            "wifi-long" => Ok(PresetName::WifiLong),
            "wimax" => Ok(PresetName::Wimax),
            "energy" => Ok(PresetName::Energy),
            other => Err(format!(
                "unknown preset '{other}' (expected wifi-short|wifi-long|wimax|energy)"
            )),
        }
    }
}

/// The jammer variant a `--jammer` name selects.
fn parse_jammer(s: &str) -> Result<JammerUnderTest, String> {
    match s {
        "off" => Ok(JammerUnderTest::Off),
        "continuous" => Ok(JammerUnderTest::Continuous),
        "reactive-long" => Ok(JammerUnderTest::ReactiveLong),
        "reactive-short" => Ok(JammerUnderTest::ReactiveShort),
        other => Err(format!(
            "unknown jammer '{other}' (expected off|continuous|reactive-long|reactive-short)"
        )),
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
        jammer: JammerUnderTest,
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
        /// How many of the slowest frames to detail.
        top: usize,
    },
    /// Online health monitoring: run a scenario with the link-health
    /// monitor attached and render the live rule table plus alarm log.
    /// Exits 0 when the run ends healthy, 1 when an alarm was raised.
    Monitor {
        /// Jammer variant under test.
        jammer: JammerUnderTest,
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

/// A parsed command line: the command and the global options, which
/// every command accepts before or after its verb.
#[derive(Clone, Debug, PartialEq)]
pub struct Invocation {
    /// The command to run.
    pub command: Command,
    /// `--threads N`, as given: [`rjam_core::CampaignEngine::from_args`]
    /// reads it by the rule `RJAM_THREADS` follows.
    pub threads: Option<String>,
    /// `--metrics-out FILE`: after the command, write a `rjam-metrics-v1`
    /// snapshot of the process-wide registry there.
    pub metrics_out: Option<String>,
    /// `--progress[=FILE]`: where the engine streams `rjam-progress-v1`.
    pub progress: Option<ProgressTarget>,
}

/// The lines of the [`USAGE`] section headed `heading`, up to the next
/// blank line.
fn section(heading: &str) -> &'static str {
    let body = USAGE
        .split_once(heading)
        .map_or("", |(_, rest)| rest.trim_start_matches('\n'));
    body.split_once("\n\n").map_or(body, |(lines, _)| lines)
}

/// The `USAGE:` lines of subcommand `verb`, or `None` when it has none.
fn verb_usage(verb: &str) -> Option<String> {
    let mut lines = String::new();
    let mut inside = false;
    for line in section("USAGE:").lines() {
        if let Some(cmd) = line.strip_prefix("  rjamctl ") {
            inside = cmd.split_whitespace().next() == Some(verb);
        }
        if inside {
            lines.push_str(line);
            lines.push('\n');
        }
    }
    (!lines.is_empty()).then_some(lines)
}

/// Parses a `--grid` value: comma-separated thresholds.
fn parse_grid(raw: &str) -> Result<Vec<f64>, String> {
    // split(',') always yields at least one element, and empty elements
    // fail the parse, so a grid is never empty.
    raw.split(',')
        .map(|s| {
            s.trim()
                .parse::<f64>()
                .map_err(|_| format!("--grid: cannot parse '{s}' as a number"))
        })
        .collect()
}

/// Parses a full command line (without the program name).
///
/// The verb is the first positional. The command line is read against the
/// verb's `USAGE` lines plus `GLOBAL OPTIONS`, so a subcommand accepts
/// exactly the flags those lines name.
pub fn parse(argv: &[String]) -> Result<Invocation, CliError> {
    parse_flags(argv).map_err(CliError::usage)
}

fn parse_flags(argv: &[String]) -> Result<Invocation, String> {
    // `--help` and `-h` stand for the `help` verb in its place.
    let argv = match argv.first().map(String::as_str) {
        Some("--help" | "-h") => &[],
        _ => argv,
    };
    let global = section("GLOBAL OPTIONS:");
    // A first pass against every verb's flags finds the verb, skipping the
    // values of flags before it.
    let any = flags::parse(&format!("{}\n{global}", section("USAGE:")), argv)?;
    let (command, f) = match any.positional().first() {
        None => (Command::Help, any),
        Some(verb) => {
            let lines =
                verb_usage(verb).ok_or_else(|| format!("unknown command '{verb}' (try 'help')"))?;
            let f = flags::parse(&format!("{lines}{global}"), argv)?;
            (command(verb, &f)?, f)
        }
    };
    let progress = f.has("--progress").then(|| match f.str("--progress") {
        Some(path) => ProgressTarget::File(path.to_string()),
        None => ProgressTarget::Stderr,
    });
    Ok(Invocation {
        command,
        threads: f.str("--threads").map(String::from),
        metrics_out: f.str("--metrics-out").map(String::from),
        progress,
    })
}

/// The command subcommand `verb` names, read from the flags and the
/// positionals after the verb.
fn command(verb: &str, f: &Flags) -> Result<Command, String> {
    let rest = &f.positional()[1..];
    let preset = || {
        PresetName::parse(
            f.str("--preset")
                .ok_or(format!("{verb} requires --preset"))?,
        )
    };
    let jammer = || {
        parse_jammer(
            f.str("--jammer")
                .ok_or(format!("{verb} requires --jammer"))?,
        )
    };
    let socket = || {
        f.str("--socket")
            .map(String::from)
            .ok_or(format!("{verb} requires --socket PATH"))
    };
    let job = || {
        rest.first()
            .cloned()
            .ok_or(format!("{verb} requires a job id"))
    };
    let text = |flag| f.str(flag).map(String::from);
    Ok(match verb {
        "timeline" => Command::Timeline {
            trials: f.get_or("--trials", 20)?,
        },
        "detect" => Command::Detect {
            preset: preset()?,
            snr_db: f.get_or("--snr", 5.0)?,
            frames: f.get_or("--frames", 1000)?,
            threshold: f.get_or("--threshold", 0.35)?,
            energy_db: f.get_or("--energy-db", 10.0)?,
            cell: f.get_or("--cell", 1)?,
            segment: f.get_or("--segment", 0)?,
        },
        "fa" => Command::Fa {
            preset: preset()?,
            threshold: f.get_or("--threshold", 0.40)?,
            energy_db: f.get_or("--energy-db", 10.0)?,
            samples: f.get_or("--samples", 20_000_000)?,
            cell: f.get_or("--cell", 1)?,
            segment: f.get_or("--segment", 0)?,
            grid: f.str("--grid").map(parse_grid).transpose()?,
        },
        "iperf" => Command::Iperf {
            jammer: jammer()?,
            sir_db: f.get_or("--sir", 20.0)?,
            seconds: f.get_or("--seconds", 5.0)?,
        },
        "classify" => Command::Classify {
            path: rest
                .first()
                .cloned()
                .ok_or("classify requires a capture path")?,
        },
        "roc" => Command::Roc {
            preset: preset()?,
            snr_db: f.get_or("--snr", 0.0)?,
            frames: f.get_or("--frames", 200)?,
            fa_samples: f.get_or("--fa-samples", 5_000_000)?,
            cell: f.get_or("--cell", 1)?,
            segment: f.get_or("--segment", 0)?,
        },
        "resources" => Command::Resources,
        "stats" => Command::Stats {
            input: rest.first().cloned(),
        },
        "trace" => Command::Trace {
            episodes: f.get_or("--episodes", 8)?,
            out: text("--out"),
            chrome: text("--chrome"),
            top: f.get_or("--top", 5)?,
        },
        "monitor" => Command::Monitor {
            jammer: jammer()?,
            sir_db: f.get_or("--sir", 14.0)?,
            seconds: f.get_or("--seconds", 1.0)?,
            cadence: f.get_or("--cadence", 16)?,
            out: text("--out"),
        },
        "report" => Command::Report {
            frames: f.get_or("--frames", 64)?,
            top: f.get_or("--top", 5)?,
        },
        "submit" => {
            let spec = match (f.str("--spec"), f.str("--spec-file")) {
                (Some(s), None) => s.to_string(),
                (None, Some(path)) => {
                    std::fs::read_to_string(path).map_err(|e| format!("--spec-file {path}: {e}"))?
                }
                (Some(_), Some(_)) => return Err("pass --spec or --spec-file, not both".into()),
                (None, None) => {
                    return Err("submit requires --spec JSON or --spec-file FILE".into())
                }
            };
            let (socket, local) = (text("--socket"), f.has("--local"));
            if socket.is_none() && !local {
                return Err("submit requires --socket PATH (or --local)".into());
            }
            if socket.is_some() && local {
                return Err("pass --socket or --local, not both".into());
            }
            Command::Submit {
                socket,
                spec,
                local,
                export: text("--export"),
            }
        }
        "status" => Command::JobStatus {
            socket: socket()?,
            job: rest.first().cloned(),
        },
        "watch" => Command::Watch {
            socket: socket()?,
            job: job()?,
            export: text("--export"),
        },
        "cancel" => Command::JobCancel {
            socket: socket()?,
            job: job()?,
        },
        "resume" => Command::JobResume {
            socket: socket()?,
            job: job()?,
        },
        _ => Command::Help,
    })
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
  rjamctl stats     [snapshot.json]
  rjamctl trace     [--episodes N] [--out trace.json] [--chrome chrome.json]
                    [--top K]
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
  --metrics-out FILE   after any command, write a one-line rjam-metrics-v1
                       JSON snapshot of the observability registry to FILE
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
  timeline prints the Fig. 5 table: each latency's worst value over
  --trials episodes per detection path against its budget, T_resp per path
  (1360 ns through the energy detector, 2640 ns through the correlator).
  stats without a file runs a short live exercise and renders its metrics;
  with one it renders that snapshot. Either way it ends with the same
  table, read from the p99s of the timeline.*_ns histograms that timeline
  and stats record.
  trace captures causally-linked jam episodes: every frame gets a
  correlation ID at MAC emission, a per-stage latency decomposition and
  its detection path's response budget;
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

    fn cmd(argv: &[String]) -> Result<Command, CliError> {
        parse(argv).map(|inv| inv.command)
    }

    #[test]
    fn parses_timeline_defaults() {
        assert_eq!(
            cmd(&argv("timeline")).unwrap(),
            Command::Timeline { trials: 20 }
        );
        assert_eq!(
            cmd(&argv("timeline --trials 7")).unwrap(),
            Command::Timeline { trials: 7 }
        );
    }

    #[test]
    fn parses_detect() {
        let c = cmd(&argv("detect --preset wifi-short --snr -3 --frames 50")).unwrap();
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
        let err = cmd(&argv("detect --snr 3")).unwrap_err();
        assert!(err.message().contains("--preset"), "{err}");
        assert_eq!(err.kind(), ErrorKind::Usage);
    }

    #[test]
    fn rejects_unknown_preset_and_command() {
        assert!(cmd(&argv("detect --preset zigbee")).is_err());
        assert!(cmd(&argv("frobnicate")).is_err());
    }

    #[test]
    fn parses_iperf_jammers() {
        for (name, want) in [
            ("off", JammerUnderTest::Off),
            ("continuous", JammerUnderTest::Continuous),
            ("reactive-long", JammerUnderTest::ReactiveLong),
            ("reactive-short", JammerUnderTest::ReactiveShort),
        ] {
            let c = cmd(&argv(&format!("iperf --jammer {name} --sir 14"))).unwrap();
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
        let c = cmd(&argv("classify cap.cf32")).unwrap();
        assert_eq!(
            c,
            Command::Classify {
                path: "cap.cf32".into()
            }
        );
        assert!(cmd(&argv("classify")).is_err());
    }

    #[test]
    fn parses_fa_grid() {
        match cmd(&argv("fa --preset wifi-short")).unwrap() {
            Command::Fa { grid, .. } => assert_eq!(grid, None),
            other => panic!("{other:?}"),
        }
        match cmd(&argv("fa --preset wifi-short --grid 0.22,0.34,0.50")).unwrap() {
            Command::Fa { grid, .. } => assert_eq!(grid, Some(vec![0.22, 0.34, 0.50])),
            other => panic!("{other:?}"),
        }
        // Spaces after commas survive (quoted on a real command line).
        let argv_spaced: Vec<String> = vec!["fa", "--preset", "wifi-short", "--grid", "0.2, 0.4"]
            .into_iter()
            .map(String::from)
            .collect();
        match cmd(&argv_spaced).unwrap() {
            Command::Fa { grid, .. } => assert_eq!(grid, Some(vec![0.2, 0.4])),
            other => panic!("{other:?}"),
        }
        for bad in [
            "fa --preset wifi-short --grid banana",
            "fa --preset wifi-short --grid 0.2,,0.4",
        ] {
            let err = cmd(&argv(bad)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Usage, "'{bad}'");
            assert!(err.message().contains("--grid"), "'{bad}' -> {err}");
        }
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        for (bad, flag) in [
            ("roc --preset wifi-short --snr-db 10", "--snr-db"),
            ("detect --preset wifi-short --bogus 3", "--bogus"),
            // Declared for other verbs, not for these.
            ("resources --frames 3", "--frames"),
            ("detect --preset energy --local", "--local"),
            ("submit --local --spec {} --socket-path x", "--socket-path"),
            ("--bogus detect --preset energy", "--bogus"),
            ("detect --preset energy -x", "-x"),
        ] {
            let err = cmd(&argv(bad)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Usage, "'{bad}'");
            assert_eq!(err.message(), format!("unknown flag '{flag}'"), "'{bad}'");
        }
        // A verb that is no subcommand is reported as such.
        let err = cmd(&argv("frobnicate --frames 1")).unwrap_err();
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
            "--preset" => " wifi-short",
            "--jammer" => " off",
            "--grid" => " 0.3,0.4",
            "--local" => "",
            _ => " 1",
        };
        for verb in verbs {
            let lines = verb_usage(verb).expect("has a usage line");
            let flags: Vec<&str> = lines
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|word| word.starts_with("--"))
                .collect();
            for flag in &flags {
                let line = format!("{verb} {flag}{}", value(flag));
                if let Err(e) = cmd(&argv(&line)) {
                    assert!(!e.message().contains("unknown flag"), "'{line}' -> {e}");
                }
            }
            // fa and roc read --cell and --segment, so USAGE must name them.
            if verb == "fa" || verb == "roc" {
                assert!(
                    flags.contains(&"--cell") && flags.contains(&"--segment"),
                    "{verb}: {flags:?}"
                );
            }
        }
    }

    #[test]
    fn missing_value_reported() {
        let err = cmd(&argv("detect --preset")).unwrap_err();
        assert!(err.message().contains("needs a value"), "{err}");
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(cmd(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn unparsable_number_reported() {
        let err = cmd(&argv("iperf --jammer off --sir banana")).unwrap_err();
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
            let err = cmd(&argv(bad)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Usage, "'{bad}' -> {err}");
            assert_eq!(err.exit_code(), 2, "'{bad}'");
        }
    }

    #[test]
    fn parses_stats() {
        assert_eq!(cmd(&argv("stats")).unwrap(), Command::Stats { input: None });
        assert_eq!(
            cmd(&argv("stats snap.json")).unwrap(),
            Command::Stats {
                input: Some("snap.json".into())
            }
        );
    }

    #[test]
    fn parses_trace() {
        assert_eq!(
            cmd(&argv("trace")).unwrap(),
            Command::Trace {
                episodes: 8,
                out: None,
                chrome: None,
                top: 5
            }
        );
        assert_eq!(
            cmd(&argv(
                "trace --episodes 3 --out t.json --chrome c.json --top 2"
            ))
            .unwrap(),
            Command::Trace {
                episodes: 3,
                out: Some("t.json".into()),
                chrome: Some("c.json".into()),
                top: 2
            }
        );
        assert!(cmd(&argv("trace --episodes many")).is_err());
    }

    #[test]
    fn global_flags_read_before_or_after_the_verb() {
        for line in [
            "--threads 4 --metrics-out m.json detect --preset energy",
            "detect --threads 4 --preset energy --metrics-out m.json",
        ] {
            let inv = parse(&argv(line)).unwrap();
            assert!(matches!(inv.command, Command::Detect { .. }), "{line}");
            assert_eq!(inv.threads.as_deref(), Some("4"), "{line}");
            assert_eq!(inv.metrics_out.as_deref(), Some("m.json"), "{line}");
            assert_eq!(inv.progress, None, "{line}");
        }
        let inv = parse(&argv("fa --preset energy")).unwrap();
        assert_eq!((inv.threads, inv.metrics_out), (None, None));
        // Globals alone run help, as a bare command line does.
        assert_eq!(parse(&argv("--threads 2")).unwrap().command, Command::Help);
        for (bad, flag) in [
            ("roc --preset energy --threads", "--threads"),
            ("resources --metrics-out", "--metrics-out"),
            ("detect --progress=", "--progress"),
        ] {
            let err = parse(&argv(bad)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Usage, "'{bad}'");
            assert_eq!(err.message(), format!("{flag} needs a value"), "'{bad}'");
        }
    }

    #[test]
    fn parses_report() {
        assert_eq!(
            cmd(&argv("report")).unwrap(),
            Command::Report { frames: 64, top: 5 }
        );
        assert_eq!(
            cmd(&argv("report --frames 32 --top 3")).unwrap(),
            Command::Report { frames: 32, top: 3 }
        );
        assert!(cmd(&argv("report --frames many")).is_err());
    }

    #[test]
    fn progress_read_from_anywhere() {
        // Bare --progress must not swallow the next argument.
        let inv = parse(&argv("detect --progress --preset energy")).unwrap();
        assert_eq!(inv.progress, Some(ProgressTarget::Stderr));
        assert!(matches!(
            inv.command,
            Command::Detect {
                preset: PresetName::Energy,
                ..
            }
        ));
        let inv = parse(&argv("--progress=prog.ndjson fa --preset energy")).unwrap();
        assert_eq!(
            inv.progress,
            Some(ProgressTarget::File("prog.ndjson".into()))
        );
        assert_eq!(parse(&argv("timeline")).unwrap().progress, None);
    }

    #[test]
    fn help_spellings() {
        for line in ["", "help", "--help", "-h", "-h detect"] {
            assert_eq!(cmd(&argv(line)).unwrap(), Command::Help, "'{line}'");
        }
    }
}
