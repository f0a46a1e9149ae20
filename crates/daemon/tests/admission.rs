//! Admission at the wire: a jamming job that asks for more simulated air
//! per SIR point than `MAX_JAMMING_DURATION_S` is refused with a typed
//! `bad_spec` before it is enqueued, and the daemon keeps answering. Such
//! a submit used to be accepted and then abort the daemon, when the MAC
//! simulator sized its per-second series up front.

use rjam_core::spec::MAX_JAMMING_DURATION_S;
use rjam_core::CampaignEngine;
use rjam_daemon::{Daemon, JobErrorKind, JobResponse, Serve};

fn reply(daemon: &Daemon, line: &str) -> JobResponse {
    match daemon.serve_line(line) {
        Serve::Lines(lines) => JobResponse::from_line(&lines[0]).expect("reply parses"),
        Serve::Watch(_) => panic!("not a watch request"),
    }
}

#[test]
fn oversized_jamming_duration_is_refused_and_status_still_answers() {
    let d = Daemon::start(CampaignEngine::with_threads(1), 4);
    let submit = r#"{"req":"submit","spec":{"campaign":"jamming","jammer":"off","sirs_db":[14],"duration_s":1e15,"seed":1},"v":"rjam-job-v1"}"#;
    match reply(&d, submit) {
        JobResponse::Error(e) => {
            assert_eq!(e.kind, JobErrorKind::BadSpec);
            assert!(e.message.contains("duration_s"), "{}", e.message);
            let limit = MAX_JAMMING_DURATION_S.to_string();
            assert!(e.message.contains(&limit), "{}", e.message);
        }
        other => panic!("expected a bad_spec error, got {other:?}"),
    }
    match reply(&d, r#"{"req":"status","v":"rjam-job-v1"}"#) {
        JobResponse::Status { jobs } => assert!(jobs.is_empty(), "nothing enqueued: {jobs:?}"),
        other => panic!("expected a status reply, got {other:?}"),
    }
    d.shutdown();
}
