//! Command implementations: each returns its report as a `String` so tests
//! can assert on output without capturing stdout.

use crate::args::{CliError, Command, PresetName};
use rjam_core::campaign::{
    false_alarm_rate, CampaignSpec, FalseAlarmSpec, JammerUnderTest, JammingSweepSpec,
    WifiDetectionSpec, WifiEmission,
};
use rjam_core::timeline::{
    fig5_rows, jam_episode, render_rows, verdict, MeasuredTimeline, EPISODE_PRESETS,
};
use rjam_core::{CampaignEngine, DetectionPreset, SpecError};
use rjam_daemon::{JobRequest, JobResponse};
use std::fmt::Write as _;

/// Builds the requested detection preset and checks it with
/// [`DetectionPreset::validate`] — the check the job service applies — so a
/// bad operating point (a fraction outside (0, 1] or one that compiles to a
/// zero correlator threshold, an energy threshold outside the detector's
/// 3-30 dB range, a WiMAX cell or segment out of range) is rejected
/// *before* any campaign runs, through the console's single error-exit
/// path, as a usage error.
fn preset_for(
    name: PresetName,
    threshold: f64,
    energy_db: f64,
    cell: u8,
    segment: u8,
) -> Result<DetectionPreset, CliError> {
    let p = match name {
        PresetName::WifiShort => DetectionPreset::WifiShortPreamble { threshold },
        PresetName::WifiLong => DetectionPreset::WifiLongPreamble { threshold },
        PresetName::Wimax => DetectionPreset::WimaxPreamble {
            id_cell: cell,
            segment,
            threshold,
        },
        PresetName::Energy => DetectionPreset::EnergyRise {
            threshold_db: energy_db,
        },
    };
    p.validate()
        .map_err(|e| CliError::usage(format!("invalid detector configuration: {e}")))?;
    Ok(p)
}

/// [`preset_for`] over a threshold sweep: checks every threshold of `grid`,
/// in the preset's own unit (a correlation fraction, or dB for the energy
/// detector), and returns the preset at the first one.
fn sweep_preset_for(
    name: PresetName,
    grid: &[f64],
    cell: u8,
    segment: u8,
) -> Result<DetectionPreset, CliError> {
    // Each threshold goes in as both the fraction and the dB value; the
    // preset keeps the one in its own unit.
    for &t in grid {
        preset_for(name, t, t, cell, segment)?;
    }
    preset_for(name, grid[0], grid[0], cell, segment)
}

/// The usage error for a campaign its builder's `validate` refuses — the
/// rule `rjamd` applies to the same job of kind `kind`, so a frame count,
/// sample count, SNR, SIR or duration the service would refuse is a usage
/// error here too, before any campaign runs.
fn refused(kind: &'static str) -> impl Fn(SpecError) -> CliError {
    move |e| CliError::usage(format!("{kind} job: {e}"))
}

/// Executes a parsed command on the given campaign engine, returning the
/// printable report.
pub fn execute_with(cmd: &Command, engine: &CampaignEngine) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(crate::args::USAGE.to_string()),
        Command::Resources => Ok(resources_report()),
        Command::Timeline { trials } => Ok(timeline_report(*trials)),
        Command::Detect {
            preset,
            snr_db,
            frames,
            threshold,
            energy_db,
            cell,
            segment,
        } => {
            let p = preset_for(*preset, *threshold, *energy_db, *cell, *segment)?;
            let spec = CampaignSpec::wifi_detection(&p)
                .emission(WifiEmission::FullFrames { psdu_len: 100 })
                .snrs(&[*snr_db])
                .trials(*frames)
                .seed(0xC11);
            spec.validate().map_err(refused(WifiDetectionSpec::KIND))?;
            let pts = spec.run(engine);
            let mut out = String::new();
            let _ = writeln!(out, "detector: {p:?}");
            let _ = writeln!(
                out,
                "SNR {:.1} dB over {frames} frames: P(det) = {:.3}, {:.2} triggers/frame",
                pts[0].snr_db, pts[0].p_detect, pts[0].triggers_per_frame
            );
            Ok(out)
        }
        Command::Fa {
            preset,
            threshold,
            energy_db,
            samples,
            cell,
            segment,
            grid,
        } => {
            let p = match grid {
                Some(grid) => sweep_preset_for(*preset, grid, *cell, *segment)?,
                None => preset_for(*preset, *threshold, *energy_db, *cell, *segment)?,
            };
            let spec = CampaignSpec::false_alarm(&p).samples(*samples).seed(0xFA2);
            spec.validate().map_err(refused(FalseAlarmSpec::KIND))?;
            if let Some(grid) = grid {
                let rows = spec.run_grid_counts(engine, grid);
                let mut out = format!(
                    "detector: {p:?}\n{} thresholds over one shared noise stream (single lane-bank pass):\n",
                    grid.len()
                );
                for (f, (triggers, processed)) in grid.iter().zip(&rows) {
                    let air_s = *processed as f64 / rjam_sdr::USRP_SAMPLE_RATE;
                    let fa = false_alarm_rate(*triggers, *processed);
                    let _ = writeln!(
                        out,
                        "  threshold {f:.3}: {triggers} false alarms on {processed} noise samples ({air_s:.2} s of air): {fa:.3}/s"
                    );
                }
                return Ok(out);
            }
            let (triggers, processed) = spec.run_counts(engine);
            let air_s = processed as f64 / rjam_sdr::USRP_SAMPLE_RATE;
            let fa = false_alarm_rate(triggers, processed);
            Ok(format!(
                "detector: {p:?}\n{triggers} false alarms on {processed} noise samples ({air_s:.2} s of air): {fa:.3}/s\n",
            ))
        }
        Command::Iperf {
            jammer,
            sir_db,
            seconds,
        } => {
            let spec = CampaignSpec::jamming(*jammer)
                .sirs(&[*sir_db])
                .duration_s(*seconds)
                .seed(0x1EF);
            spec.validate().map_err(refused(JammingSweepSpec::KIND))?;
            let pts = spec.run(engine);
            let r = &pts[0].report;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{} at SIR {sir_db:.2} dB for {seconds} s:",
                jammer.label()
            );
            let _ = writeln!(out, "  {}", r.summary());
            let _ = writeln!(
                out,
                "  mean PHY rate {:.1} Mb/s, jam duty {:.2} %, {} bursts",
                r.mean_phy_rate_mbps,
                r.jam_duty_percent(*seconds),
                r.jam_bursts
            );
            Ok(out)
        }
        Command::Monitor {
            jammer,
            sir_db,
            seconds,
            cadence,
            out,
        } => monitor_report(*jammer, *sir_db, *seconds, *cadence, out.as_deref()),
        Command::Classify { path } => classify_report(path),
        Command::Report { frames, top } => engine_report(engine, *frames, *top),
        Command::Stats { input } => stats_report(input.as_deref()),
        Command::Trace {
            episodes,
            out,
            chrome,
            top,
        } => trace_report(*episodes, out.as_deref(), chrome.as_deref(), *top),
        Command::Roc {
            preset,
            snr_db,
            frames,
            fa_samples,
            cell,
            segment,
        } => {
            // Eight thresholds in the preset's own unit.
            let thresholds: Vec<f64> = (0..8)
                .map(|k| match preset {
                    PresetName::Energy => 4.0 + 2.0 * k as f64,
                    _ => 0.26 + 0.04 * k as f64,
                })
                .collect();
            let base = sweep_preset_for(*preset, &thresholds, *cell, *segment)?;
            let spec = CampaignSpec::roc(&base)
                .emission(WifiEmission::FullFrames { psdu_len: 100 })
                .snr_db(*snr_db)
                .thresholds(&thresholds)
                .trials(*frames)
                .fa_samples(*fa_samples)
                .seed(0x20C);
            let (fa, det) = spec.halves();
            det.validate().map_err(refused(WifiDetectionSpec::KIND))?;
            fa.validate().map_err(refused(FalseAlarmSpec::KIND))?;
            let pts = spec.run(engine);
            let mut out = String::new();
            let _ = writeln!(
                out,
                "ROC at SNR {snr_db:.1} dB ({frames} frames/threshold):"
            );
            let _ = writeln!(out, "{}", rjam_core::export::roc_csv(&pts).trim_end());
            Ok(out)
        }
        Command::Submit {
            socket,
            spec,
            local,
            export,
        } => submit_report(socket.as_deref(), spec, *local, export.as_deref(), engine),
        Command::JobStatus { socket, job } => status_report(socket, job.as_deref()),
        Command::Watch {
            socket,
            job,
            export,
        } => watch_report(socket, job, export.as_deref()),
        Command::JobCancel { socket, job } => cancel_report(socket, job),
        Command::JobResume { socket, job } => resume_report(socket, job),
    }
}

fn resources_report() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "custom reactive-jamming core, per block:");
    for (name, r) in rjam_fpga::resources::block_table() {
        let _ = writeln!(out, "  {name:<40} {r}");
    }
    let total = rjam_fpga::resources::core_total();
    let budget = rjam_fpga::resources::custom_logic_budget();
    let _ = writeln!(out, "  {:<40} {total}", "TOTAL");
    let _ = writeln!(
        out,
        "fits the Spartan-3A DSP 3400's free fabric: {} (worst axis {:.0} % used)",
        total.fits_in(budget),
        total.worst_utilization_pct(budget)
    );
    out
}

/// The live Fig. 5 exercise behind `timeline` and `stats`: `trials` jam
/// episodes per detection path, from seed `seed0` on. Each episode's
/// latencies go to their rows' `timeline.*_ns` histograms and its core's
/// counters and latencies to the registry, so a trailing `--metrics-out`
/// snapshot reflects the run. Returns the energy path's and the
/// correlator path's worst timelines.
fn exercise(trials: usize, seed0: u64) -> (MeasuredTimeline, MeasuredTimeline) {
    let [energy_det, xcorr_det] = &EPISODE_PRESETS;
    let none = MeasuredTimeline::default();
    let (mut energy, mut xcorr) = (none, none);
    for k in 0..trials as u64 {
        let mut e = jam_episode(energy_det, seed0 + k);
        let mut x = jam_episode(xcorr_det, seed0 + k);
        for row in fig5_rows(&e.measured, &none)
            .into_iter()
            .chain(fig5_rows(&none, &x.measured))
        {
            if let Some(ns) = row.measured_ns {
                rjam_obs::registry::histogram(row.histogram).record(ns as u64);
            }
        }
        e.jammer.core_mut().flush_obs();
        x.jammer.core_mut().flush_obs();
        energy = energy.worst(e.measured);
        xcorr = xcorr.worst(x.measured);
    }
    (energy, xcorr)
}

fn timeline_report(trials: usize) -> String {
    let (energy, xcorr) = exercise(trials, 500);
    render_rows(&fig5_rows(&energy, &xcorr), "worst measured (ns)")
}

fn classify_report(path: &str) -> Result<String, CliError> {
    let capture = rjam_sdr::io::read_cf32(std::path::Path::new(path))
        .map_err(|e| CliError::runtime(format!("cannot read '{path}': {e}")))?;
    if capture.is_empty() {
        return Err(CliError::runtime(format!("'{path}' holds no samples")));
    }
    let cells: Vec<(u8, u8)> = (0..32)
        .flat_map(|id| (0..3).map(move |s| (id, s)))
        .collect();
    let window = capture.len().min(30_000);
    let cls = rjam_core::autonomous::classify_capture(&capture[..window], &cells);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} samples ({:.2} ms at 25 MSPS), classified over the first {window}:",
        capture.len(),
        capture.len() as f64 / 25_000.0
    );
    let _ = writeln!(out, "  class: {:?}", cls.class);
    let _ = writeln!(
        out,
        "  evidence: wifi {:.2}, best wimax {:.2}",
        cls.wifi_score, cls.wimax_score
    );
    Ok(out)
}

/// `rjamctl stats`: with a path, load and render a saved `rjam-metrics-v1`
/// snapshot; without one, run a short live exercise (a handful of jam
/// episodes through both detector paths) and render the resulting registry.
/// Either way it ends with the Fig. 5 table of the `timeline.*_ns`
/// histograms' p99s, each row judged against its own budget.
fn stats_report(input: Option<&str>) -> Result<String, CliError> {
    let snap = match input {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::runtime(format!("cannot read '{path}': {e}")))?;
            rjam_obs::MetricsSnapshot::from_json(&text).map_err(|e| {
                CliError::runtime(format!("'{path}' is not a metrics snapshot: {e}"))
            })?
        }
        None => {
            exercise(4, 900);
            rjam_obs::registry::snapshot()
        }
    };
    let mut out = String::new();
    if !rjam_obs::enabled() && input.is_none() {
        let _ = writeln!(
            out,
            "observability disabled at compile time (rebuild with the 'obs' feature)"
        );
    }
    out.push_str(&snap.render());
    let none = MeasuredTimeline::default();
    let mut rows = fig5_rows(&none, &none);
    for row in &mut rows {
        row.measured_ns = snap
            .histogram(row.histogram)
            .filter(|h| h.count > 0)
            .map(|h| h.p99 as f64);
    }
    out.push_str("== Fig. 5 timeline ==\n");
    out.push_str(&render_rows(&rows, "p99 (ns)"));
    Ok(out)
}

/// `rjamctl trace`: capture traced jam episodes, export the requested
/// documents and render the per-frame causal attribution, each frame's
/// response judged against its own detection path's budget.
fn trace_report(
    episodes: usize,
    out_path: Option<&str>,
    chrome_path: Option<&str>,
    top: usize,
) -> Result<String, CliError> {
    use rjam_obs::trace::{stage, Outcome};

    if episodes == 0 {
        return Err(CliError::usage("trace needs at least one episode"));
    }
    let (reports, doc) = rjam_core::trace::default_traced_capture(episodes, 0x7AC3);
    if let Some(path) = out_path {
        std::fs::write(path, doc.to_json())
            .map_err(|e| CliError::runtime(format!("cannot write trace to '{path}': {e}")))?;
    }
    if let Some(path) = chrome_path {
        std::fs::write(path, doc.to_chrome_json()).map_err(|e| {
            CliError::runtime(format!("cannot write chrome trace to '{path}': {e}"))
        })?;
    }

    let mut out = String::new();
    if !rjam_obs::enabled() {
        let _ = writeln!(
            out,
            "observability disabled at compile time — episodes ran, but no events \
             were recorded (rebuild with the 'obs' feature)"
        );
    }
    let count = |o: Outcome| reports.iter().filter(|r| r.outcome == o).count();
    let _ = writeln!(
        out,
        "traced {episodes} episodes: {} jammed, {} missed, {} delivered — {} events \
         ({} dropped)",
        count(Outcome::Jammed),
        count(Outcome::Missed),
        count(Outcome::Delivered),
        doc.events.len(),
        doc.dropped
    );

    // Per-frame causal rows, slowest first by response latency.
    let frames = doc.frames();
    let mut rows: Vec<_> = frames
        .iter()
        .map(|ft| {
            let delay = ft.span(stage::FPGA, "delay").map_or(0, |(a, b)| b - a);
            let init = ft.span(stage::FPGA, "tx_init").map_or(0, |(a, b)| b - a);
            let report = reports.iter().find(|r| r.frame == ft.frame);
            let budget = report.expect("every traced frame is an episode").budget_ns;
            (
                ft.frame,
                ft.outcome(),
                ft.response_ns(),
                budget,
                ft.trigger_to_tx_ns(),
                delay,
                init,
            )
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.2));

    if !rows.is_empty() {
        let _ = writeln!(out, "\n== top {} slowest frames ==", top.min(rows.len()));
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>11} {:>11} {:>13} {:>10} {:>11}  verdict",
            "frame",
            "outcome",
            "t_resp(ns)",
            "budget(ns)",
            "trig->tx(ns)",
            "delay(ns)",
            "tx_init(ns)"
        );
        for (fid, outcome, resp, budget, t2t, delay, init) in rows.iter().take(top) {
            let opt = |v: &Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
            let verdict = verdict(resp.map(|r| r as f64), *budget);
            let _ = writeln!(
                out,
                "{:>6} {:>10} {:>11} {budget:>11.0} {:>13} {:>10} {:>11}  {verdict}",
                fid.raw(),
                outcome.map_or("?", Outcome::as_str),
                opt(resp),
                opt(t2t),
                delay,
                init
            );
        }
    }

    // Per-stage attribution: total closed-span time per pipeline stage
    // across the capture, so a budget regression names its stage.
    let mut stage_totals: Vec<(String, u64)> = Vec::new();
    for ft in &frames {
        for (s, d) in ft.stage_durations() {
            match stage_totals.iter_mut().find(|(n, _)| *n == s) {
                Some((_, t)) => *t += d,
                None => stage_totals.push((s, d)),
            }
        }
    }
    if !stage_totals.is_empty() {
        let _ = writeln!(
            out,
            "\n== per-stage attribution (closed spans, all frames) =="
        );
        for (s, total) in &stage_totals {
            let _ = writeln!(out, "  {s:<8} {total:>12} ns");
        }
    }

    // The causal-chain verdict the Fig. 5 claim rests on.
    let full_chains = frames.iter().filter(|f| f.has_full_chain()).count();
    let _ = writeln!(
        out,
        "\nfull causal chains (emit → fire → trigger → jam TX → outcome): \
         {full_chains}/{}",
        frames.len().max(reports.len())
    );
    if let Some(path) = out_path {
        let _ = writeln!(out, "wrote rjam-trace-v1 document to {path}");
    }
    if let Some(path) = chrome_path {
        let _ = writeln!(
            out,
            "wrote Chrome trace-event JSON to {path} (load in Perfetto)"
        );
    }
    Ok(out)
}

/// `rjamctl report`: runs the reference WiFi short-preamble detection
/// sweep through the campaign engine, then renders the profile the engine
/// published for it — per-worker utilization, unit-latency percentiles,
/// and the top-K stragglers with their reproduction seeds.
fn engine_report(engine: &CampaignEngine, frames: usize, top: usize) -> Result<String, CliError> {
    if frames == 0 {
        return Err(CliError::usage("report needs --frames >= 1"));
    }
    if !rjam_obs::enabled() {
        return Err(CliError::runtime(
            "engine telemetry is compiled out (obs feature disabled); \
             rebuild with default features to use `rjamctl report`",
        ));
    }
    let p = preset_for(PresetName::WifiShort, 0.35, 10.0, 1, 0)?;
    let pts = CampaignSpec::wifi_detection(&p)
        .emission(WifiEmission::FullFrames { psdu_len: 100 })
        .snr_range(-9.0, 12.0, 3.0)
        .trials(frames)
        .seed(0x4E90)
        .run(engine);
    let profile = engine.profile(WifiDetectionSpec::KIND).ok_or_else(|| {
        CliError::runtime("the campaign finished but published no engine profile")
    })?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "reference sweep: wifi-short @ 0.35, {} SNR points x {frames} frames, {} worker thread(s)",
        pts.len(),
        engine.threads()
    );
    out.push_str(&profile.render(top));
    Ok(out)
}

/// Runs one iperf-style scenario with the online health monitor attached
/// and renders the rule table, the alarm log and the final verdict. When
/// the run ends unhealthy the report comes back as [`CliError::alarm`],
/// so the process exits 1 while still printing the full report — the exit
/// code *is* the verdict (healthy=0, alarmed=1, usage=2).
fn monitor_report(
    jammer: JammerUnderTest,
    sir_db: f64,
    seconds: f64,
    cadence: u64,
    out: Option<&str>,
) -> Result<String, CliError> {
    use rjam_obs::health::HealthEvent;
    if cadence == 0 {
        return Err(CliError::usage("--cadence must be at least 1"));
    }
    // The scenario below is this sweep's one point, so its check is the
    // sweep's.
    CampaignSpec::jamming(jammer)
        .sirs(&[sir_db])
        .duration_s(seconds)
        .validate()
        .map_err(refused(JammingSweepSpec::KIND))?;
    if !rjam_obs::enabled() {
        return Err(CliError::runtime(
            "health monitoring is compiled out (obs feature disabled); \
             rebuild with default features to use `rjamctl monitor`",
        ));
    }
    let sc = rjam_core::campaign::scenario_for(jammer, sir_db, seconds, 0x6EA17);
    let mut mon = rjam_obs::HealthMonitor::new(cadence);
    let report = rjam_mac::ScenarioRun::new(&sc).health(&mut mon).run();
    let verdict = mon.finish();
    if let Some(path) = out {
        let log: String = mon.events().iter().map(|ev| ev.to_line() + "\n").collect();
        std::fs::write(path, log).map_err(|e| CliError::runtime(format!("--out {path}: {e}")))?;
    }

    let mut buf = String::new();
    let _ = writeln!(
        buf,
        "{} at SIR {sir_db:.2} dB for {seconds} s, cadence {cadence} frames:",
        jammer.label()
    );
    let _ = writeln!(buf, "  {}", report.summary());
    buf.push('\n');
    buf.push_str(&mon.rule_table());
    let _ = writeln!(buf, "\nalarm log:");
    let mut transitions = 0u32;
    for ev in mon.events() {
        match ev {
            HealthEvent::AlarmRaised {
                rule,
                metric,
                detector,
                stat,
                threshold,
                frame,
                frames,
            } => {
                transitions += 1;
                let _ = write!(
                    buf,
                    "  frame {frame:>6}  ALARM  {rule} ({metric}: {detector} stat {stat:.3} >= {threshold:.3})"
                );
                if !frames.is_empty() {
                    let ids: Vec<String> = frames.iter().map(|f| format!("0x{f:x}")).collect();
                    let _ = write!(buf, " frames [{}]", ids.join(" "));
                }
                buf.push('\n');
            }
            HealthEvent::AlarmCleared {
                rule,
                metric,
                frame,
            } => {
                transitions += 1;
                let _ = writeln!(buf, "  frame {frame:>6}  clear  {rule} ({metric})");
            }
            _ => {}
        }
    }
    if transitions == 0 {
        let _ = writeln!(buf, "  (no transitions)");
    }
    let _ = writeln!(
        buf,
        "\nlink health: {} ({} alarm(s) raised, {} active over {} frames)",
        if verdict.healthy {
            "HEALTHY"
        } else {
            "ALARMED"
        },
        verdict.alarms_raised,
        verdict.alarms_active,
        verdict.frames
    );
    if verdict.healthy {
        Ok(buf)
    } else {
        Err(CliError::alarm(buf))
    }
}

/// Writes a `rjam-metrics-v1` snapshot of the process-wide registry to
/// `path` as one line (the `--metrics-out` half of the observability loop).
pub fn write_metrics_snapshot(path: &str) -> Result<(), CliError> {
    let mut text = String::new();
    rjam_obs::registry::snapshot().write_compact(&mut text);
    text.push('\n');
    std::fs::write(path, text)
        .map_err(|e| CliError::runtime(format!("cannot write metrics to '{path}': {e}")))
}

// ---- rjam-job-v1 client (submit / status / watch / cancel / resume) ----

/// One request/response exchange with a running `rjamd`. The connection
/// is dropped after the first response line; `watch` keeps its own.
fn job_roundtrip(socket: &str, request: &JobRequest) -> Result<JobResponse, CliError> {
    use std::io::{BufRead, BufReader, Write as _};
    let mut stream = std::os::unix::net::UnixStream::connect(socket)
        .map_err(|e| CliError::runtime(format!("cannot reach rjamd at '{socket}': {e}")))?;
    writeln!(stream, "{}", request.to_line())
        .map_err(|e| CliError::runtime(format!("rjamd at '{socket}': {e}")))?;
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .map_err(|e| CliError::runtime(format!("rjamd at '{socket}': {e}")))?;
    if line.trim().is_empty() {
        return Err(CliError::runtime(format!(
            "rjamd at '{socket}' closed the connection without replying"
        )));
    }
    JobResponse::from_line(line.trim_end())
        .map_err(|e| CliError::runtime(format!("bad rjamd response: {e}")))
}

/// Lifts a protocol-level refusal into the console's runtime error path.
fn job_refused(resp: JobResponse) -> CliError {
    match resp {
        JobResponse::Error(e) => CliError::runtime(format!("rjamd refused: {e}")),
        other => CliError::runtime(format!("unexpected rjamd response: {other:?}")),
    }
}

fn submit_report(
    socket: Option<&str>,
    spec_text: &str,
    local: bool,
    export_path: Option<&str>,
    engine: &CampaignEngine,
) -> Result<String, CliError> {
    // Parse + validate in the client either way: a bad spec is a usage
    // error here, before any daemon (or engine) sees it.
    let spec = rjam_core::spec::CampaignRequest::from_json(spec_text)
        .map_err(|e| CliError::usage(format!("--spec: {e}")))?;
    if local {
        let export = spec
            .run_to_export(engine, &mut rjam_core::spec::JobCheckpoint::new(), None)
            .expect("uncancelled local run completes");
        return match export_path {
            Some(path) => {
                std::fs::write(path, &export)
                    .map_err(|e| CliError::runtime(format!("--export {path}: {e}")))?;
                Ok(format!(
                    "{} ({} units) exported to {path}\n",
                    spec.kind(),
                    spec.n_units()
                ))
            }
            None => Ok(export),
        };
    }
    let socket = socket.expect("parser guarantees a socket in daemon mode");
    match job_roundtrip(socket, &JobRequest::Submit { spec })? {
        JobResponse::Accepted { job, queue_depth } => {
            Ok(format!("{job} accepted (queue depth {queue_depth})\n"))
        }
        other => Err(job_refused(other)),
    }
}

fn status_report(socket: &str, job: Option<&str>) -> Result<String, CliError> {
    let req = JobRequest::Status {
        job: job.map(str::to_string),
    };
    match job_roundtrip(socket, &req)? {
        JobResponse::Status { jobs } => {
            if jobs.is_empty() {
                return Ok("no jobs\n".to_string());
            }
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{:<10} {:<15} {:<10} {:>6}",
                "JOB", "KIND", "STATE", "UNITS"
            );
            for s in jobs {
                let _ = writeln!(
                    out,
                    "{:<10} {:<15} {:<10} {:>3}/{}",
                    s.job,
                    s.kind,
                    s.state.name(),
                    s.units_done,
                    s.units_total
                );
            }
            Ok(out)
        }
        other => Err(job_refused(other)),
    }
}

/// Follows a job's stream: progress lines go to stdout as they arrive;
/// the terminal `job_done` export goes to `--export FILE` when given.
fn watch_report(socket: &str, job: &str, export_path: Option<&str>) -> Result<String, CliError> {
    use std::io::{BufRead, BufReader, Write as _};
    let mut stream = std::os::unix::net::UnixStream::connect(socket)
        .map_err(|e| CliError::runtime(format!("cannot reach rjamd at '{socket}': {e}")))?;
    let req = JobRequest::Watch {
        job: job.to_string(),
    };
    writeln!(stream, "{}", req.to_line())
        .map_err(|e| CliError::runtime(format!("rjamd at '{socket}': {e}")))?;
    let reader = BufReader::new(
        stream
            .try_clone()
            .map_err(|e| CliError::runtime(format!("rjamd at '{socket}': {e}")))?,
    );
    let mut out = String::new();
    for line in reader.lines() {
        let line = line.map_err(|e| CliError::runtime(format!("rjamd at '{socket}': {e}")))?;
        match JobResponse::from_line(&line) {
            Ok(JobResponse::Done { job, export }) => {
                if let Some(path) = export_path {
                    std::fs::write(path, &export)
                        .map_err(|e| CliError::runtime(format!("--export {path}: {e}")))?;
                    let _ = writeln!(out, "{job} done, export written to {path}");
                } else {
                    let _ = writeln!(out, "{job} done ({} export bytes)", export.len());
                }
                return Ok(out);
            }
            Ok(JobResponse::Cancelled { job, units_done }) => {
                let _ = writeln!(out, "{job} cancelled ({units_done} units checkpointed)");
                return Ok(out);
            }
            Ok(JobResponse::Error(e)) => return Err(CliError::runtime(format!("rjamd: {e}"))),
            Ok(JobResponse::Metrics { .. }) => {}
            Ok(other) => return Err(job_refused(other)),
            // Not a job-v1 line: a job-tagged rjam-progress-v1 event.
            Err(_) => {
                println!("{line}");
            }
        }
    }
    Err(CliError::runtime(format!(
        "rjamd at '{socket}' hung up before {job} finished"
    )))
}

fn cancel_report(socket: &str, job: &str) -> Result<String, CliError> {
    let req = JobRequest::Cancel {
        job: job.to_string(),
    };
    match job_roundtrip(socket, &req)? {
        JobResponse::Cancelled { job, units_done } => Ok(format!(
            "{job} cancelled ({units_done} units checkpointed)\n"
        )),
        other => Err(job_refused(other)),
    }
}

fn resume_report(socket: &str, job: &str) -> Result<String, CliError> {
    let req = JobRequest::Resume {
        job: job.to_string(),
    };
    match job_roundtrip(socket, &req)? {
        JobResponse::Accepted { job, queue_depth } => {
            Ok(format!("{job} resumed (queue depth {queue_depth})\n"))
        }
        other => Err(job_refused(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parse(argv: &[String]) -> Result<Command, CliError> {
        crate::args::parse(argv).map(|inv| inv.command)
    }

    fn engine() -> CampaignEngine {
        CampaignEngine::with_threads(2)
    }

    #[test]
    fn help_prints_usage() {
        let out = execute_with(&parse(&argv("help")).unwrap(), &engine()).unwrap();
        assert!(out.contains("rjamctl"));
        assert!(out.contains("iperf"));
    }

    #[test]
    fn resources_report_totals() {
        let out = execute_with(&Command::Resources, &engine()).unwrap();
        assert!(out.contains("TOTAL"));
        assert!(out.contains("fits the Spartan-3A DSP 3400's free fabric: true"));
    }

    #[test]
    fn timeline_within_budget() {
        let out = execute_with(&Command::Timeline { trials: 3 }, &engine()).unwrap();
        // The header and the five Fig. 5 rows, every one measured and
        // within its budget.
        assert_eq!(out.lines().count(), 6, "{out}");
        assert!(out.contains("T_init"), "{out}");
        assert!(
            out.lines().skip(1).all(|l| l.ends_with("   within budget")),
            "{out}"
        );
    }

    #[test]
    fn detect_command_reports_probability() {
        let out = execute_with(
            &parse(&argv("detect --preset wifi-short --snr 10 --frames 25")).unwrap(),
            &engine(),
        )
        .unwrap();
        assert!(out.contains("P(det)"), "{out}");
    }

    #[test]
    fn monitor_rejects_zero_cadence_as_usage() {
        let err = execute_with(
            &parse(&argv("monitor --jammer off --cadence 0")).unwrap(),
            &engine(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), crate::args::ErrorKind::Usage, "{err}");
        assert_eq!(err.exit_code(), 2);
        assert!(err.message().contains("--cadence"), "{err}");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn monitor_clean_run_reports_healthy() {
        let out = execute_with(
            &parse(&argv("monitor --jammer off --seconds 0.5")).unwrap(),
            &engine(),
        )
        .unwrap();
        assert!(out.contains("link health: HEALTHY"), "{out}");
        assert!(out.contains("prr_collapse"), "{out}");
        assert!(out.contains("(no transitions)"), "{out}");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn monitor_jammed_run_is_an_alarm_verdict() {
        let err = execute_with(
            &parse(&argv("monitor --jammer reactive-long --sir 1 --seconds 1")).unwrap(),
            &engine(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), crate::args::ErrorKind::Alarm, "{err}");
        assert_eq!(err.exit_code(), 1);
        // The message is the complete report, alarm log included.
        assert!(err.message().contains("link health: ALARMED"), "{err}");
        assert!(err.message().contains("prr_collapse"), "{err}");
    }

    #[test]
    fn invalid_operating_points_are_usage_errors() {
        // Energy threshold outside the detector's 3-30 dB range: the core
        // config validator rejects it before any campaign runs.
        let err = execute_with(
            &parse(&argv("detect --preset energy --energy-db 45")).unwrap(),
            &engine(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), crate::args::ErrorKind::Usage, "{err}");
        assert!(
            err.message().contains("invalid detector configuration"),
            "{err}"
        );
        // Zero correlation threshold compiles to a trigger-on-everything
        // core; equally rejected.
        let err = execute_with(
            &parse(&argv("fa --preset wifi-long --threshold 0 --samples 1000")).unwrap(),
            &engine(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), crate::args::ErrorKind::Usage, "{err}");
        assert_eq!(err.exit_code(), 2);
        // The job service refuses both of these too: a fraction above 1,
        // and one that compiles to a zero correlator threshold.
        for cmd in [
            "detect --preset wifi-short --threshold 1.5 --frames 8",
            "fa --preset wifi-short --threshold 1e-9 --samples 1000",
        ] {
            let err = execute_with(&parse(&argv(cmd)).unwrap(), &engine()).unwrap_err();
            assert_eq!(err.kind(), crate::args::ErrorKind::Usage, "{cmd}: {err}");
            assert!(err.message().contains("threshold"), "{cmd}: {err}");
        }
    }

    #[test]
    fn fa_grid_reports_one_row_per_fraction_and_matches_single_runs() {
        // Correlation fractions, and energy thresholds in dB.
        for (preset, flag, points) in [
            ("wifi-short", "--threshold", ["0.22", "0.50"]),
            ("energy", "--energy-db", ["3", "5"]),
        ] {
            let grid_out = execute_with(
                &parse(&argv(&format!(
                    "fa --preset {preset} --grid {} --samples 300000",
                    points.join(",")
                )))
                .unwrap(),
                &engine(),
            )
            .unwrap();
            // Every grid row carries the same counts a dedicated
            // single-threshold run reports for that threshold.
            for t in points {
                let row = format!("threshold {:.3}:", t.parse::<f64>().unwrap());
                assert!(grid_out.contains(&row), "{row}: {grid_out}");
                let single = execute_with(
                    &parse(&argv(&format!(
                        "fa --preset {preset} {flag} {t} --samples 300000"
                    )))
                    .unwrap(),
                    &engine(),
                )
                .unwrap();
                let counts = single
                    .lines()
                    .find(|l| l.contains("false alarms"))
                    .unwrap()
                    .to_string();
                assert!(grid_out.contains(counts.trim()), "{t}: {grid_out}");
            }
        }
    }

    #[test]
    fn fa_grid_checks_every_threshold() {
        // A bad threshold anywhere in the grid hits the same check a
        // single-threshold run gets: a zero fraction, or a dB value
        // outside the energy detector's range.
        for cmd in [
            "fa --preset wifi-short --grid 0.4,0",
            "fa --preset energy --grid 6,45",
        ] {
            let err = execute_with(&parse(&argv(cmd)).unwrap(), &engine()).unwrap_err();
            assert_eq!(err.kind(), crate::args::ErrorKind::Usage, "{cmd}: {err}");
            assert!(
                err.message().contains("invalid detector configuration"),
                "{cmd}: {err}"
            );
        }
    }

    #[test]
    fn detect_output_is_thread_count_invariant() {
        let cmd = parse(&argv("detect --preset wifi-short --snr 5 --frames 20")).unwrap();
        let serial = execute_with(&cmd, &CampaignEngine::serial()).unwrap();
        let sharded = execute_with(&cmd, &CampaignEngine::with_threads(4)).unwrap();
        assert_eq!(serial, sharded);
    }

    #[test]
    fn threads_flag_reaches_the_engine() {
        // Through the full run() path: --threads parses, is stripped, and
        // the command output matches the serial engine byte for byte.
        let with_flag = crate::run(&argv(
            "detect --preset energy --snr 8 --frames 10 --threads 3",
        ))
        .unwrap();
        let serial = execute_with(
            &parse(&argv("detect --preset energy --snr 8 --frames 10")).unwrap(),
            &CampaignEngine::serial(),
        )
        .unwrap();
        assert_eq!(with_flag, serial);
    }

    #[test]
    fn iperf_command_reports_bandwidth() {
        let out = execute_with(
            &parse(&argv("iperf --jammer reactive-long --sir 14 --seconds 1")).unwrap(),
            &engine(),
        )
        .unwrap();
        assert!(out.contains("kbps"), "{out}");
        assert!(out.contains("duty"), "{out}");
    }

    #[test]
    fn classify_roundtrip_through_file() {
        // Write a WiFi capture, classify it back through the CLI path.
        let mut rng = rjam_sdr::rng::Rng::seed_from(77);
        let mut psdu = vec![0u8; 100];
        rng.fill_bytes(&mut psdu);
        let frame = rjam_phy80211::tx::Frame::new(rjam_phy80211::Rate::R12, psdu);
        let native = rjam_phy80211::tx::modulate_frame(&frame);
        let mut wave = rjam_sdr::resample::to_usrp_rate(&native, rjam_sdr::WIFI_SAMPLE_RATE);
        rjam_sdr::power::scale_to_power(&mut wave, 0.02);
        let mut path = std::env::temp_dir();
        path.push(format!("rjamctl_test_{}.cf32", std::process::id()));
        rjam_sdr::io::write_cf32(&path, &wave).unwrap();
        let out = execute_with(
            &Command::Classify {
                path: path.to_string_lossy().into(),
            },
            &engine(),
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("class: Wifi"), "{out}");
    }

    #[test]
    fn roc_command_outputs_csv() {
        let out = execute_with(
            &parse(&argv(
                "roc --preset wifi-short --snr 3 --frames 10 --fa-samples 200000",
            ))
            .unwrap(),
            &engine(),
        )
        .unwrap();
        assert!(out.contains("threshold,fa_per_s,p_detect"), "{out}");
        assert!(out.lines().count() >= 9, "{out}");
    }

    #[test]
    fn energy_roc_sweeps_its_own_db_thresholds() {
        let out = execute_with(
            &parse(&argv(
                "roc --preset energy --snr 10 --frames 24 --fa-samples 400000",
            ))
            .unwrap(),
            &engine(),
        )
        .unwrap();
        let rows: Vec<Vec<f64>> = out
            .lines()
            .skip(2)
            .map(|l| l.split(',').map(|v| v.parse().unwrap()).collect())
            .collect();
        let thresholds: Vec<f64> = rows.iter().map(|r| r[0]).collect();
        assert_eq!(
            thresholds,
            [4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0],
            "{out}"
        );
        // One noise and one emission stream for every row: both axes fall
        // as the threshold rises, and the rows are not all equal.
        for w in rows.windows(2) {
            assert!(w[1][1] <= w[0][1] && w[1][2] <= w[0][2], "{out}");
        }
        assert!(rows[0] != rows[7], "{out}");
    }

    #[test]
    fn classify_missing_file_errors() {
        let err = execute_with(
            &Command::Classify {
                path: "/nonexistent/x.cf32".into(),
            },
            &engine(),
        )
        .unwrap_err();
        assert!(err.message().contains("cannot read"));
        assert_eq!(err.kind(), crate::args::ErrorKind::Runtime);
        assert_eq!(err.exit_code(), 1);
    }

    #[test]
    fn stats_live_exercise_renders_registry() {
        let out = execute_with(&Command::Stats { input: None }, &engine()).unwrap();
        assert!(out.contains("== counters =="), "{out}");
        assert!(out.contains("== histograms =="), "{out}");
        if rjam_obs::enabled() {
            // The live exercise must surface the FPGA pipeline counters and
            // each path's response time inside its own budget.
            assert!(out.contains("fpga.samples_in"), "{out}");
            for path in [
                "energy path)             1360",
                "xcorr path)              2640",
            ] {
                let row = out.lines().find(|l| l.contains(path));
                assert!(
                    row.is_some_and(|l| l.ends_with("   within budget")),
                    "{out}"
                );
            }
        } else {
            assert!(out.contains("observability disabled"), "{out}");
        }
    }

    #[test]
    fn stats_roundtrips_through_metrics_out_file() {
        let mut path = std::env::temp_dir();
        path.push(format!("rjamctl_metrics_{}.json", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        // Run an exercise so the registry holds something, then snapshot.
        execute_with(&Command::Stats { input: None }, &engine()).unwrap();
        write_metrics_snapshot(&path_s).unwrap();
        let out = execute_with(
            &Command::Stats {
                input: Some(path_s.clone()),
            },
            &engine(),
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("== counters =="), "{out}");
        if rjam_obs::enabled() {
            assert!(out.contains("fpga.samples_in"), "{out}");
        }
    }

    #[test]
    fn stats_grades_the_response_time_not_the_turnaround() {
        // An 80 ns trigger-to-TX turnaround inside responses of 2000 ns
        // through the energy detector and 1800 ns through the correlator:
        // each response is judged against its own path's budget, and the
        // turnaround is not T_init's measurement.
        let hist = |p99| rjam_obs::HistSummary {
            count: 8,
            mean: p99 as f64,
            min: p99,
            max: p99,
            p50: p99,
            p95: p99,
            p99,
        };
        let snap = rjam_obs::MetricsSnapshot {
            histograms: vec![
                ("fpga.trigger_to_tx_ns".into(), hist(80)),
                ("timeline.t_resp_energy_ns".into(), hist(2000)),
                ("timeline.t_resp_xcorr_ns".into(), hist(1800)),
            ],
            ..Default::default()
        };
        let mut text = String::new();
        snap.write_compact(&mut text);
        let mut path = std::env::temp_dir();
        path.push(format!("rjamctl_slow_{}.json", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let input = Some(path.to_string_lossy().into());
        let out = execute_with(&Command::Stats { input }, &engine()).unwrap();
        std::fs::remove_file(&path).ok();
        for row in [
            "T_en_det                         1280                      -   not measured",
            "T_xcorr_det                      2560                      -   not measured",
            "T_init                             80                      -   not measured",
            "T_resp (energy path)             1360                   2000   OVER BUDGET",
            "T_resp (xcorr path)              2640                   1800   within budget",
        ] {
            assert!(out.lines().any(|l| l == row), "{row}: {out}");
        }
    }

    #[test]
    fn stats_rejects_garbage_snapshot() {
        let mut path = std::env::temp_dir();
        path.push(format!("rjamctl_garbage_{}.json", std::process::id()));
        std::fs::write(&path, "{\"schema\":\"wrong\"}").unwrap();
        let err = execute_with(
            &Command::Stats {
                input: Some(path.to_string_lossy().into()),
            },
            &engine(),
        )
        .unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(err.kind(), crate::args::ErrorKind::Runtime);
        assert!(err.message().contains("not a metrics snapshot"), "{err}");
    }

    #[test]
    fn trace_zero_episodes_is_usage_error() {
        let err = execute_with(
            &Command::Trace {
                episodes: 0,
                out: None,
                chrome: None,
                top: 5,
            },
            &engine(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), crate::args::ErrorKind::Usage);
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn trace_report_renders_attribution_and_chain() {
        let out = execute_with(
            &Command::Trace {
                episodes: 4,
                out: None,
                chrome: None,
                top: 4,
            },
            &engine(),
        )
        .unwrap();
        if rjam_obs::enabled() {
            assert!(out.contains("traced 4 episodes:"), "{out}");
            assert!(out.contains("slowest frames"), "{out}");
            assert!(out.contains("== per-stage attribution"), "{out}");
            assert!(out.contains("full causal chains"), "{out}");
            // Episodes alternate the correlator (odd frames) and the energy
            // detector (even frames); each frame reads its own path's
            // budget.
            let rows: Vec<Vec<&str>> = out
                .lines()
                .skip_while(|l| !l.contains("slowest frames"))
                .skip(2)
                .take(4)
                .map(|l| l.split_whitespace().collect())
                .collect();
            let mut frames: Vec<&str> = rows.iter().map(|r| r[0]).collect();
            frames.sort();
            assert_eq!(frames, ["1", "2", "3", "4"], "{out}");
            for r in &rows {
                let budget = if r[0].parse::<u64>().unwrap() % 2 == 1 {
                    "2640"
                } else {
                    "1360"
                };
                assert_eq!(r[3], budget, "{out}");
                assert_eq!(r[7..], ["within", "budget"], "{out}");
            }
        } else {
            assert!(out.contains("observability disabled"), "{out}");
        }
    }

    #[test]
    fn trace_out_file_roundtrips_and_validates() {
        if !rjam_obs::enabled() {
            return;
        }
        let mut path = std::env::temp_dir();
        path.push(format!("rjamctl_trace_{}.json", std::process::id()));
        let path_s = path.to_string_lossy().to_string();
        let mut chrome = std::env::temp_dir();
        chrome.push(format!("rjamctl_chrome_{}.json", std::process::id()));
        let chrome_s = chrome.to_string_lossy().to_string();
        let out = execute_with(
            &Command::Trace {
                episodes: 4,
                out: Some(path_s.clone()),
                chrome: Some(chrome_s.clone()),
                top: 2,
            },
            &engine(),
        )
        .unwrap();
        assert!(out.contains(&path_s), "{out}");
        assert!(out.contains(&chrome_s), "{out}");

        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let doc = rjam_obs::trace::TraceDoc::from_json(&text).unwrap();
        doc.validate().unwrap();
        // At least one frame must carry the complete causal chain
        // MAC emit -> detector fire -> trigger -> jam TX -> MAC outcome.
        let full = doc
            .frames()
            .into_iter()
            .filter(|f| f.has_full_chain())
            .count();
        assert!(full >= 1, "no frame with a full causal chain");

        let chrome_text = std::fs::read_to_string(&chrome).unwrap();
        std::fs::remove_file(&chrome).ok();
        assert!(
            chrome_text.contains("traceEvents"),
            "missing traceEvents array"
        );
        assert!(
            chrome_text.contains("\"ph\": \"X\"") || chrome_text.contains("\"ph\":\"X\""),
            "no complete (X) span events in chrome trace"
        );
    }

    #[test]
    fn report_zero_frames_is_usage_error() {
        let err = execute_with(&Command::Report { frames: 0, top: 5 }, &engine()).unwrap_err();
        assert_eq!(err.kind(), crate::args::ErrorKind::Usage);
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn report_renders_the_engine_profile() {
        let out = execute_with(
            &parse(&argv("report --frames 8 --top 3")).unwrap(),
            &CampaignEngine::serial(),
        );
        if !rjam_obs::enabled() {
            let err = out.unwrap_err();
            assert_eq!(err.kind(), crate::args::ErrorKind::Runtime);
            assert!(err.message().contains("compiled out"), "{err}");
            return;
        }
        let out = out.unwrap();
        assert!(out.contains("reference sweep: wifi-short"), "{out}");
        assert!(
            out.contains("== engine profile: wifi_detection =="),
            "{out}"
        );
        assert!(out.contains("== unit latency =="), "{out}");
        assert!(out.contains("attributed"), "{out}");
        assert!(out.contains("wifi_detection"), "{out}");
        // The attribution floors live in the progress_cli integration
        // test and in ci.sh's release-build `rjamctl report` gate.
    }
}
