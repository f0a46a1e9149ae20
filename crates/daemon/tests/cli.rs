//! The `rjamd` command line: every malformed invocation exits 2 with a
//! message naming what was wrong and the usage text; `--help` exits 0.

use std::process::{Command, Output, Stdio};

fn rjamd(args: &[&str], threads_env: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rjamd"));
    cmd.args(args).stdin(Stdio::null());
    match threads_env {
        Some(v) => cmd.env("RJAM_THREADS", v),
        None => cmd.env_remove("RJAM_THREADS"),
    };
    cmd.output().expect("spawn rjamd")
}

#[test]
fn malformed_invocations_exit_2_naming_the_fault() {
    for (args, env, named) in [
        (&["--stdio", "--x"][..], None, "--x"),
        (&["--stdio", "extra"][..], None, "extra"),
        (&["--stdio", "--threads"][..], None, "--threads"),
        (&["--stdio", "--threads", "abc"][..], None, "--threads"),
        (&["--stdio", "--threads", "0"][..], None, "--threads"),
        (&["--stdio", "--queue"][..], None, "--queue"),
        (&["--stdio", "--queue", "abc"][..], None, "--queue"),
        (&["--stdio", "--queue", "0"][..], None, "--queue"),
        (&["--stdio", "--socket", "x.sock"][..], None, "--stdio"),
        (&[][..], None, "--socket"),
        (&["--stdio"][..], Some("abc"), "RJAM_THREADS"),
        (&["--stdio"][..], Some("0"), "RJAM_THREADS"),
    ] {
        let out = rjamd(args, env);
        assert_eq!(out.status.code(), Some(2), "{args:?} {env:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("error:"), "{args:?} {env:?}: {err}");
        assert!(err.contains(named), "{args:?} {env:?}: {err}");
        assert!(err.contains("Usage: rjamd"), "{args:?} {env:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} {env:?}");
    }
}

#[test]
fn explicit_threads_win_over_a_bad_environment_value() {
    // With stdin at EOF the stdio daemon serves nothing and exits 0.
    let out = rjamd(&["--stdio", "--threads", "1"], Some("abc"));
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let out = rjamd(&["--stdio", "--queue", "2"], Some(" 2 "));
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn help_exits_0_with_usage() {
    for arg in ["--help", "-h", "help"] {
        let out = rjamd(&[arg], None);
        assert_eq!(out.status.code(), Some(0), "{arg}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.starts_with("Usage: rjamd"), "{arg}: {err}");
    }
}
