//! The figure binaries' command line: a binary accepts exactly the flags
//! its one-line usage text names, a campaign binary refuses a malformed
//! `RJAM_THREADS`, and every usage error exits 2 before any work starts,
//! naming what was wrong.

use std::process::Command;

#[test]
fn usage_errors_exit_2_naming_the_flag_or_argument() {
    for (bin, args, named) in [
        (
            env!("CARGO_BIN_EXE_fig6_long_preamble"),
            &["--frame", "250"][..],
            "'--frame'",
        ),
        (
            env!("CARGO_BIN_EXE_fig6_long_preamble"),
            &["--frames"][..],
            "--frames needs a value",
        ),
        (
            env!("CARGO_BIN_EXE_fig6_long_preamble"),
            &["--frames", "abc"][..],
            "--frames: cannot parse 'abc'",
        ),
        (
            env!("CARGO_BIN_EXE_fig12_wimax"),
            &["--snr", "x"][..],
            "--snr: cannot parse 'x'",
        ),
        (
            env!("CARGO_BIN_EXE_health_time_to_detect"),
            &["--cadence", "-1"][..],
            "--cadence: cannot parse '-1'",
        ),
        (
            env!("CARGO_BIN_EXE_table1_insertion_loss"),
            &["extra"][..],
            "unexpected argument 'extra'",
        ),
        (
            env!("CARGO_BIN_EXE_reconfig_latency"),
            &["--frames", "3"][..],
            "'--frames'",
        ),
    ] {
        let out = Command::new(bin)
            .args(args)
            .output()
            .expect("spawn figure binary");
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{bin} {args:?}: {err}");
        assert!(err.contains("usage: "), "{bin} {args:?}: {err}");
        assert!(out.stdout.is_empty(), "{bin} {args:?}: nothing may run");
    }
}

#[test]
fn a_malformed_or_zero_rjam_threads_exits_2_before_any_work() {
    let bin = env!("CARGO_BIN_EXE_fig7_short_preamble");
    for value in ["abc", "0"] {
        let out = Command::new(bin)
            .env("RJAM_THREADS", value)
            .output()
            .expect("spawn figure binary");
        assert_eq!(out.status.code(), Some(2), "RJAM_THREADS={value}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("RJAM_THREADS"), "RJAM_THREADS={value}: {err}");
        assert!(err.contains("usage: "), "RJAM_THREADS={value}: {err}");
        assert!(
            out.stdout.is_empty(),
            "RJAM_THREADS={value}: nothing may run"
        );
    }
}
