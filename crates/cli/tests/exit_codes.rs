//! End-to-end exit-code contract of the `rjamctl` binary: every failure
//! flows through one exit path, with distinct codes for usage (2) and
//! runtime (1) errors, and usage text shown only for the former.

use std::process::Command;

fn rjamctl(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rjamctl"))
        .args(args)
        .output()
        .expect("spawn rjamctl")
}

#[test]
fn unknown_command_exits_2_with_usage() {
    let out = rjamctl(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
    assert!(err.contains("unknown command"), "{err}");
    assert!(err.contains("USAGE:"), "usage must accompany exit 2: {err}");
}

#[test]
fn bad_flag_value_exits_2() {
    let out = rjamctl(&["iperf", "--jammer", "off", "--sir", "banana"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--sir"));
}

#[test]
fn operating_point_the_service_refuses_exits_2_with_usage() {
    // A NaN SNR parses as a number; the job service's rule refuses it
    // before the noise source sees it.
    let out = rjamctl(&["detect", "--preset", "wifi-short", "--snr", "nan"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("snrs_db"), "{err}");
    assert!(err.contains("USAGE:"), "usage must accompany exit 2: {err}");
}

#[test]
fn unknown_flag_exits_2_with_usage() {
    // A misspelt flag must not run the command with a default in its place.
    for args in [
        ["roc", "--preset", "wifi-short", "--snr-db", "10"],
        ["detect", "--preset", "wifi-short", "--bogus", "3"],
    ] {
        let out = rjamctl(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown flag"), "{args:?}: {err}");
        assert!(err.contains("USAGE:"), "usage must accompany exit 2: {err}");
    }
}

#[test]
fn garbage_rjam_threads_env_exits_2_with_usage() {
    // The engine alone degrades a bad override to serial, but the console
    // must reject it loudly through the usage-error path — same contract
    // as a malformed --threads flag.
    for bad in ["four", "-2", "0"] {
        let out = Command::new(env!("CARGO_BIN_EXE_rjamctl"))
            .args(["resources"])
            .env("RJAM_THREADS", bad)
            .output()
            .expect("spawn rjamctl");
        assert_eq!(out.status.code(), Some(2), "RJAM_THREADS={bad}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("RJAM_THREADS"), "RJAM_THREADS={bad}: {err}");
        assert!(err.contains("USAGE:"), "RJAM_THREADS={bad}: {err}");
    }
    // An explicit --threads flag wins over a bad environment value.
    let out = Command::new(env!("CARGO_BIN_EXE_rjamctl"))
        .args(["resources", "--threads", "2"])
        .env("RJAM_THREADS", "garbage")
        .output()
        .expect("spawn rjamctl");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn runtime_failure_exits_1_without_usage() {
    let out = rjamctl(&["classify", "/nonexistent/rjam_capture.cf32"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
    assert!(err.contains("cannot read"), "{err}");
    assert!(
        !err.contains("USAGE:"),
        "runtime failures must not spam usage: {err}"
    );
}

#[test]
fn success_exits_0() {
    let out = rjamctl(&["resources"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("TOTAL"));
}

#[test]
fn stats_prints_counters_and_latency_histogram() {
    let out = rjamctl(&["stats"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("== counters =="), "{text}");
    #[cfg(feature = "obs")]
    {
        assert!(text.contains("fpga.samples_in"), "{text}");
        assert!(text.contains("fpga.trigger_to_tx_ns"), "{text}");
        assert!(
            text.contains("within the paper's 2640 ns xcorr response budget"),
            "{text}"
        );
    }
}

/// Runs `rjamctl monitor ARGS --out FILE` and returns the process output
/// with the parsed, chain-validated `rjam-health-v1` stream it wrote.
#[cfg(feature = "obs")]
fn monitor_with_stream(
    tag: &str,
    args: &[&str],
) -> (std::process::Output, Vec<rjam_obs::health::HealthEvent>) {
    let mut path = std::env::temp_dir();
    path.push(format!(
        "rjamctl_e2e_health_{tag}_{}.ndjson",
        std::process::id()
    ));
    let path_s = path.to_string_lossy().to_string();
    let mut argv = vec!["monitor"];
    argv.extend_from_slice(args);
    argv.extend_from_slice(&["--out", &path_s]);
    let out = rjamctl(&argv);
    let stream = std::fs::read_to_string(&path).expect("health stream written");
    std::fs::remove_file(&path).ok();
    let events = rjam_obs::health::parse_stream(&stream).expect("stream parses");
    rjam_obs::health::validate_chain(&events).expect("chain validates");
    (out, events)
}

/// Field-by-field equality of two health streams, each `f64` by bits.
#[cfg(feature = "obs")]
fn assert_stream_eq(got: &[rjam_obs::health::HealthEvent], want: &[rjam_obs::health::HealthEvent]) {
    use rjam_obs::health::HealthEvent;
    let f64_bits = |ev: &HealthEvent| match ev {
        HealthEvent::Baseline { mean, .. } => vec![mean.to_bits()],
        HealthEvent::AlarmRaised {
            stat, threshold, ..
        } => vec![stat.to_bits(), threshold.to_bits()],
        _ => Vec::new(),
    };
    assert_eq!(got.len(), want.len(), "{got:?}");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w);
        assert_eq!(f64_bits(g), f64_bits(w), "{g:?}");
    }
}

#[cfg(feature = "obs")]
#[test]
fn monitor_healthy_exits_0() {
    use rjam_obs::health::HealthEvent;
    let (out, events) = monitor_with_stream("clean", &["--jammer", "off", "--seconds", "1"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("link health: HEALTHY"), "{text}");
    assert!(text.contains("prr_collapse"), "{text}");
    // The stock clean run's stream, pinned.
    assert_stream_eq(
        &events,
        &[
            HealthEvent::Baseline {
                metric: "mac.prr".into(),
                detector: "ewma".into(),
                mean: 1.0,
                samples: 16,
            },
            HealthEvent::RunSummary {
                frames: 2622,
                alarms_raised: 0,
                alarms_active: 0,
                healthy: true,
            },
        ],
    );
}

#[cfg(feature = "obs")]
#[test]
fn monitor_alarmed_exits_1_with_report_on_stdout() {
    use rjam_obs::health::HealthEvent;
    let (out, events) = monitor_with_stream(
        "jam",
        &["--jammer", "reactive-long", "--sir", "1", "--seconds", "1"],
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // The alarmed verdict is a report, not an error: stdout, no "error:".
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("link health: ALARMED"), "{text}");
    assert!(text.contains("prr_collapse"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("error:"), "{err}");
    assert!(!err.contains("USAGE:"), "{err}");
    // The stock jammed run's stream, pinned: the PRR baseline, one
    // prr_collapse alarm at frame 32 naming the last 8 lost frames, and an
    // unhealthy summary with that alarm still active.
    assert_stream_eq(
        &events,
        &[
            HealthEvent::Baseline {
                metric: "mac.prr".into(),
                detector: "ewma".into(),
                mean: 0.0,
                samples: 16,
            },
            HealthEvent::AlarmRaised {
                rule: "prr_collapse".into(),
                metric: "mac.prr".into(),
                detector: "cusum".into(),
                stat: 1.4400000000000002,
                threshold: 1.0,
                frame: 32,
                frames: (0x19..=0x20).collect(),
            },
            HealthEvent::RunSummary {
                frames: 32,
                alarms_raised: 1,
                alarms_active: 1,
                healthy: false,
            },
        ],
    );
}

#[test]
fn monitor_bad_cadence_exits_2() {
    let out = rjamctl(&["monitor", "--jammer", "off", "--cadence", "0"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--cadence"), "{err}");
    assert!(err.contains("USAGE:"), "{err}");
}

#[test]
fn metrics_out_writes_parseable_snapshot() {
    let mut path = std::env::temp_dir();
    path.push(format!("rjamctl_e2e_metrics_{}.json", std::process::id()));
    let path_s = path.to_string_lossy().to_string();
    let out = rjamctl(&["timeline", "--trials", "1", "--metrics-out", &path_s]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let text = std::fs::read_to_string(&path).expect("snapshot written");
    std::fs::remove_file(&path).ok();
    let snap = rjam_obs::MetricsSnapshot::from_json(&text).expect("snapshot parses");
    #[cfg(feature = "obs")]
    assert!(
        snap.counter("fpga.samples_in").unwrap_or(0) > 0,
        "timeline run must have streamed samples: {text}"
    );
    #[cfg(not(feature = "obs"))]
    assert!(snap.is_empty());
}

#[test]
fn metrics_out_missing_value_exits_2() {
    let out = rjamctl(&["resources", "--metrics-out"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--metrics-out"));
}

// ---- rjam-job-v1 subcommands (submit / status / watch / cancel / resume) ----

const FA_SPEC: &str = r#"{"campaign":"false_alarm","preset":{"kind":"wifi_short","threshold":0.3},"samples":20000,"seed":9}"#;

#[test]
fn submit_without_target_exits_2_with_usage() {
    let out = rjamctl(&["submit", "--spec", FA_SPEC]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--socket"), "{err}");
    assert!(err.contains("USAGE:"), "{err}");
}

#[test]
fn submit_with_malformed_spec_exits_2() {
    let out = rjamctl(&["submit", "--local", "--spec", "{not json"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--spec"), "{err}");
    assert!(err.contains("USAGE:"), "{err}");
}

#[test]
fn submit_with_invalid_field_exits_2_naming_the_field() {
    let bad = r#"{"campaign":"false_alarm","preset":{"kind":"wifi_short","threshold":2.0},"samples":20000,"seed":9}"#;
    let out = rjamctl(&["submit", "--local", "--spec", bad]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("threshold"), "{err}");
}

#[test]
fn submit_unreachable_socket_exits_1_without_usage() {
    let out = rjamctl(&[
        "submit",
        "--socket",
        "/nonexistent/rjamd.sock",
        "--spec",
        FA_SPEC,
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");
    assert!(
        !err.contains("USAGE:"),
        "runtime failures must not spam usage: {err}"
    );
}

#[test]
fn submit_local_runs_in_process_and_exits_0() {
    // The bare `--local` flag may come first or last.
    for args in [
        ["submit", "--local", "--spec", FA_SPEC],
        ["submit", "--spec", FA_SPEC, "--local"],
    ] {
        let out = rjamctl(&args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("fa_per_s"), "{args:?}: {text}");
    }
}

#[test]
fn submit_local_export_is_deterministic() {
    let dir = std::env::temp_dir();
    let a = dir.join(format!("rjamctl_e2e_job_a_{}.json", std::process::id()));
    let b = dir.join(format!("rjamctl_e2e_job_b_{}.json", std::process::id()));
    for (path, threads) in [(&a, "1"), (&b, "3")] {
        let path_s = path.to_string_lossy().to_string();
        let out = rjamctl(&[
            "submit",
            "--local",
            "--spec",
            FA_SPEC,
            "--export",
            &path_s,
            "--threads",
            threads,
        ]);
        assert_eq!(out.status.code(), Some(0), "{out:?}");
    }
    let ea = std::fs::read(&a).expect("export a");
    let eb = std::fs::read(&b).expect("export b");
    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
    assert_eq!(ea, eb, "export must not depend on thread count");
}

#[test]
fn status_without_socket_exits_2() {
    let out = rjamctl(&["status"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--socket"), "{err}");
    assert!(err.contains("USAGE:"), "{err}");
}

#[test]
fn watch_without_job_id_exits_2() {
    let out = rjamctl(&["watch", "--socket", "/tmp/rjamd.sock"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("job id"), "{err}");
    assert!(err.contains("USAGE:"), "{err}");
}

#[test]
fn cancel_and_resume_unreachable_socket_exit_1() {
    for verb in ["cancel", "resume"] {
        let out = rjamctl(&[verb, "--socket", "/nonexistent/rjamd.sock", "job-1"]);
        assert_eq!(out.status.code(), Some(1), "{verb}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{verb}: {err}");
        assert!(!err.contains("USAGE:"), "{verb}: {err}");
    }
}
