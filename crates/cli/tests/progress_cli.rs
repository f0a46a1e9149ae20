//! End-to-end checks of `--progress[=FILE]` streaming and `rjamctl report`
//! through the public [`rjam_cli::run`] entry point.
//!
//! The scenarios share one `#[test]` so that the report's wall-clock
//! attribution floors are measured without a parallel test's campaign
//! competing for the same cores.

#![cfg(feature = "obs")]

use rjam_obs::stream::{self, ProgressEvent};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

/// Pulls the percentage out of the profile's
/// `attributed NN.N% of W x T worker wall-clock ...` line.
fn attributed_pct(out: &str) -> f64 {
    let line = out
        .lines()
        .find(|l| l.trim_start().starts_with("attributed "))
        .unwrap_or_else(|| panic!("no attribution line in:\n{out}"));
    line.trim_start()
        .strip_prefix("attributed ")
        .unwrap()
        .split('%')
        .next()
        .unwrap()
        .parse()
        .expect("attribution percentage parses")
}

#[test]
fn progress_flag_and_report_attribute_real_campaigns() {
    // --- Scenario 1: `--progress=FILE` around a real detection campaign
    // yields one complete, schema-valid rjam-progress-v1 chain.
    let mut path = std::env::temp_dir();
    path.push(format!("rjamctl_progress_{}.ndjson", std::process::id()));
    let path_s = path.to_string_lossy().to_string();
    let out = rjam_cli::run(&argv(&format!(
        "--progress={path_s} --threads 2 detect --preset wifi-short --snr 0 --frames 24"
    )))
    .expect("detect with --progress succeeds");
    assert!(out.contains("P(det)"), "{out}");
    let text = std::fs::read_to_string(&path).expect("progress file written");
    std::fs::remove_file(&path).ok();
    let events =
        stream::parse_stream(&text).unwrap_or_else(|e| panic!("stream parses: {e}\n{text}"));
    stream::validate_chain(&events).expect("full start -> done chain");
    let ProgressEvent::Started { kind, workers, .. } = &events[0] else {
        panic!("first event is campaign_started");
    };
    assert_eq!(kind, "wifi_detection");
    assert_eq!(*workers, 2, "--threads reaches the streamed header");

    // --- Scenario 2: a failed run still reports its error and leaves a
    // readable (here empty) progress file.
    let err = rjam_cli::run(&argv(&format!(
        "--progress={path_s} classify /nonexistent/x.cf32"
    )))
    .unwrap_err();
    assert!(err.message().contains("cannot read"), "{err}");
    let text = std::fs::read_to_string(&path).expect("progress file created");
    std::fs::remove_file(&path).ok();
    stream::parse_stream(&text).expect("an empty stream parses");

    // --- Scenario 3: `rjamctl report` attributes >= 95 % of worker
    // wall-clock on a real campaign (the ISSUE acceptance bound). Serial
    // first — its attribution is structural — then a 2-worker run, whose
    // only uncovered time is thread spawn latency, negligible against a
    // multi-hundred-millisecond sweep.
    for (flags, floor) in [("--threads 1", 95.0), ("--threads 2", 90.0)] {
        let out = rjam_cli::run(&argv(&format!("{flags} report --frames 24 --top 3")))
            .expect("report succeeds");
        assert!(
            out.contains("== engine profile: wifi_detection =="),
            "{out}"
        );
        assert!(out.contains("== unit latency =="), "{out}");
        let pct = attributed_pct(&out);
        assert!(
            pct >= floor,
            "report ({flags}) attributed only {pct}% (floor {floor}%):\n{out}"
        );
    }
}
