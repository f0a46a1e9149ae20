//! `rjamd` — the resident campaign service.
//!
//! ```text
//! rjamd --stdio                      # serve one client on stdin/stdout
//! rjamd --socket /run/rjamd.sock     # serve many clients on a Unix socket
//! ```
//!
//! Options: `--threads N` (engine workers; else `RJAM_THREADS`, else all
//! cores), `--queue N` (pending-job bound, default 16). The command line
//! is read against [`USAGE`], which names every flag `rjamd` accepts.
//! Usage errors, a malformed or zero `RJAM_THREADS` among them, exit 2
//! with usage text; runtime failures exit 1.

use rjam_core::CampaignEngine;
use rjam_daemon::Daemon;
use rjam_obs::flags;
use std::io::BufReader;
use std::os::unix::net::{UnixListener, UnixStream};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "\
Usage: rjamd (--stdio | --socket PATH) [--threads N] [--queue N]

The rjam campaign service: accepts rjam-job-v1 jobs (one JSON object per
line), runs them FIFO-fair on one shared campaign engine and streams
job-tagged progress. Use rjamctl submit/status/watch/cancel/resume to
talk to it.

  --stdio          serve a single client over stdin/stdout
  --socket PATH    listen on a Unix socket (one thread per connection)
  --threads N      campaign engine worker threads (default: all cores)
  --queue N        max queued jobs before submits see queue_full (default 16)
";

/// The daemon's engine, its queue bound and its socket path (`None` for
/// stdio), as the command line asks.
fn configure(argv: &[String]) -> Result<(CampaignEngine, usize, Option<String>), String> {
    let f = flags::parse(USAGE, argv)?;
    if let Some(arg) = f.positional().first() {
        return Err(format!("unexpected argument '{arg}'"));
    }
    let socket = f.str("--socket").map(String::from);
    if f.has("--stdio") == socket.is_some() {
        return Err("pick exactly one of --stdio or --socket PATH".into());
    }
    let queue = f.get_or("--queue", rjam_daemon::DEFAULT_QUEUE_CAP)?;
    if queue == 0 {
        return Err("--queue must be at least 1".into());
    }
    Ok((
        CampaignEngine::from_args(f.str("--threads"))?,
        queue,
        socket,
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv
        .iter()
        .any(|a| matches!(a.as_str(), "help" | "--help" | "-h"))
    {
        eprintln!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let (engine, queue, socket) = match configure(&argv) {
        Ok(config) => config,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let daemon = Daemon::start(engine, queue);

    let Some(path) = socket else {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        daemon.serve_connection(stdin.lock(), stdout.lock());
        daemon.shutdown();
        return ExitCode::SUCCESS;
    };
    // A stale socket file from a previous run refuses the bind.
    let _ = std::fs::remove_file(&path);
    let listener = match UnixListener::bind(&path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: --socket {path}: {e}");
            return ExitCode::from(1);
        }
    };
    eprintln!("rjamd: listening on {path}");
    let daemon = Arc::new(daemon);
    for conn in listener.incoming() {
        let stream: UnixStream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        let daemon = Arc::clone(&daemon);
        // Detached: dropping the handle lets a finished connection's
        // thread release its stack instead of waiting for a join.
        drop(std::thread::spawn(move || {
            let reader = BufReader::new(match stream.try_clone() {
                Ok(s) => s,
                Err(_) => return,
            });
            daemon.serve_connection(reader, stream);
        }));
    }
    ExitCode::SUCCESS
}
