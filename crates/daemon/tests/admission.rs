//! Admission at the wire: a job that asks for more than a size limit
//! allows — simulated air per SIR point (`MAX_JAMMING_DURATION_S`), engine
//! work units (`MAX_JOB_UNITS`) or WiMAX frames (`MAX_WIMAX_FRAMES`) — is
//! refused with a typed `bad_spec` before it is enqueued, and the daemon
//! keeps answering. Each of these submits used to be accepted and then
//! abort the daemon on a failed allocation: the MAC simulator sized its
//! per-second series up front, and the engine its per-unit slots.

use rjam_core::spec::{MAX_JAMMING_DURATION_S, MAX_JOB_UNITS, MAX_WIMAX_FRAMES};
use rjam_core::CampaignEngine;
use rjam_daemon::{Daemon, JobErrorKind, JobResponse, Serve};

fn reply(daemon: &Daemon, line: &str) -> JobResponse {
    match daemon.serve_line(line) {
        Serve::Lines(lines) => JobResponse::from_line(&lines[0]).expect("reply parses"),
        Serve::Watch(_) => panic!("not a watch request"),
    }
}

#[test]
fn oversized_requests_are_refused_and_status_still_answers() {
    let d = Daemon::start(CampaignEngine::with_threads(1), 4);
    // 9007199254740992 is 2^53, the largest integer a wire number holds
    // exactly.
    let cases = [
        (
            r#"{"campaign":"jamming","jammer":"off","sirs_db":[14],"duration_s":1e15,"seed":1}"#,
            "duration_s",
            MAX_JAMMING_DURATION_S.to_string(),
        ),
        (
            r#"{"campaign":"false_alarm","preset":{"kind":"wifi_short","threshold":0.3},"samples":9007199254740992,"seed":1}"#,
            "samples",
            MAX_JOB_UNITS.to_string(),
        ),
        (
            r#"{"campaign":"wifi_detection","preset":{"kind":"wifi_short","threshold":0.35},"emission":{"kind":"full_frames","psdu_len":60},"channel":{"kind":"awgn"},"snrs_db":[6],"trials":9007199254740992,"seed":1}"#,
            "trials",
            MAX_JOB_UNITS.to_string(),
        ),
        (
            r#"{"campaign":"wimax","fused":true,"frames":9007199254740992,"snr_db":10,"threshold":0.45,"seed":1}"#,
            "frames",
            MAX_WIMAX_FRAMES.to_string(),
        ),
    ];
    for (spec, field, limit) in cases {
        let submit = format!(r#"{{"req":"submit","spec":{spec},"v":"rjam-job-v1"}}"#);
        match reply(&d, &submit) {
            JobResponse::Error(e) => {
                assert_eq!(e.kind, JobErrorKind::BadSpec, "{spec}");
                assert!(e.message.contains(field), "{}", e.message);
                assert!(e.message.contains(&limit), "{}", e.message);
            }
            other => panic!("expected a bad_spec error for {spec}, got {other:?}"),
        }
        match reply(&d, r#"{"req":"status","v":"rjam-job-v1"}"#) {
            JobResponse::Status { jobs } => {
                assert!(jobs.is_empty(), "nothing enqueued: {jobs:?}")
            }
            other => panic!("expected a status reply, got {other:?}"),
        }
    }
    d.shutdown();
}
