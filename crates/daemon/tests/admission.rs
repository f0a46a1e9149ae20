//! Admission at the wire: a request line longer than
//! `MAX_REQUEST_LINE_BYTES` is a typed `bad_request`, and a job that asks
//! for more than a size limit allows — simulated air per SIR point (`MAX_JAMMING_DURATION_S`), engine
//! work units (`MAX_JOB_UNITS`) or WiMAX frames (`MAX_WIMAX_FRAMES`) — is
//! refused with a typed `bad_spec` before it is enqueued, and the daemon
//! keeps answering. Each of these submits used to be accepted and then
//! abort the daemon on a failed allocation: the MAC simulator sized its
//! per-second series up front, and the engine its per-unit slots.

use rjam_core::spec::{MAX_JAMMING_DURATION_S, MAX_JOB_UNITS, MAX_WIMAX_FRAMES};
use rjam_core::CampaignEngine;
use rjam_daemon::{Daemon, JobErrorKind, JobRequest, JobResponse, Serve, MAX_REQUEST_LINE_BYTES};
use std::io::{BufReader, Read};

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

/// A client that streams `flood` bytes of one never-ending line, then a
/// newline and `tail`, without holding the flood in memory.
struct Flood {
    left: usize,
    tail: std::io::Cursor<Vec<u8>>,
}

impl Read for Flood {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.left == 0 {
            return self.tail.read(out);
        }
        let n = out.len().min(self.left);
        out[..n].fill(b'[');
        self.left -= n;
        Ok(n)
    }
}

#[test]
fn an_over_long_line_is_a_bad_request_and_the_connection_keeps_serving() {
    let d = Daemon::start(CampaignEngine::with_threads(1), 4);
    let client = Flood {
        left: MAX_REQUEST_LINE_BYTES + 4096,
        tail: std::io::Cursor::new(b"\n{\"req\":\"status\",\"v\":\"rjam-job-v1\"}\n".to_vec()),
    };
    let mut out = Vec::new();
    d.serve_connection(BufReader::new(client), &mut out);
    let out = String::from_utf8(out).expect("replies are UTF-8");
    let replies: Vec<JobResponse> = out
        .lines()
        .map(|l| JobResponse::from_line(l).expect("reply parses"))
        .collect();
    assert_eq!(replies.len(), 2, "{out}");
    match &replies[0] {
        JobResponse::Error(e) => {
            assert_eq!(e.kind, JobErrorKind::BadRequest);
            assert!(
                e.message.contains(&MAX_REQUEST_LINE_BYTES.to_string()),
                "{}",
                e.message
            );
        }
        other => panic!("expected a bad_request error, got {other:?}"),
    }
    assert!(
        matches!(&replies[1], JobResponse::Status { jobs } if jobs.is_empty()),
        "{out}"
    );
    d.shutdown();
}

#[test]
fn the_largest_admitted_list_fits_in_one_request_line() {
    // A jamming job runs one unit per SIR point, so MAX_JOB_UNITS points
    // is the longest list validation admits; 31-character numbers are the
    // widest the line limit provides for.
    let sir = "-1234567.8901234567890123456789";
    assert_eq!(sir.len(), 31);
    let sirs = vec![sir; MAX_JOB_UNITS].join(",");
    let line = format!(
        r#"{{"req":"submit","spec":{{"campaign":"jamming","jammer":"off","sirs_db":[{sirs}],"duration_s":1,"seed":1}},"v":"rjam-job-v1"}}"#
    );
    assert!(
        line.len() <= MAX_REQUEST_LINE_BYTES,
        "{} > {MAX_REQUEST_LINE_BYTES}",
        line.len()
    );
    match JobRequest::from_line(&line).expect("the request parses") {
        JobRequest::Submit { spec } => spec.validate().expect("validation admits it"),
        other => panic!("expected a submit, got {other:?}"),
    }
}
