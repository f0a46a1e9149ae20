//! `rjamd` — the resident campaign service.
//!
//! ```text
//! rjamd --stdio                      # serve one client on stdin/stdout
//! rjamd --socket /run/rjamd.sock     # serve many clients on a Unix socket
//! ```
//!
//! Options: `--threads N` (engine workers), `--queue N` (pending-job
//! bound, default 16). Usage errors exit 2 with usage text; runtime
//! failures exit 1.

use rjam_daemon::Daemon;
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

struct Opts {
    socket: Option<String>,
    stdio: bool,
    threads: Option<usize>,
    queue: usize,
}

fn parse_opts(argv: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        socket: None,
        stdio: false,
        threads: None,
        queue: rjam_daemon::DEFAULT_QUEUE_CAP,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stdio" => opts.stdio = true,
            "--socket" => {
                opts.socket = Some(
                    it.next()
                        .ok_or_else(|| "--socket needs a path".to_string())?
                        .clone(),
                )
            }
            "--threads" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--threads needs a count".to_string())?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--threads: '{v}' is not a number"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                opts.threads = Some(n);
            }
            "--queue" => {
                let v = it
                    .next()
                    .ok_or_else(|| "--queue needs a count".to_string())?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--queue: '{v}' is not a number"))?;
                if n == 0 {
                    return Err("--queue must be at least 1".into());
                }
                opts.queue = n;
            }
            "help" | "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if opts.stdio == opts.socket.is_some() {
        return Err("pick exactly one of --stdio or --socket PATH".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_opts(&argv) {
        Ok(opts) => opts,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("error: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(if msg.is_empty() { 0 } else { 2 });
        }
    };
    let engine = match opts.threads {
        Some(n) => rjam_core::CampaignEngine::with_threads(n),
        None => rjam_core::CampaignEngine::from_env(),
    };
    let daemon = Daemon::start(engine, opts.queue);

    if opts.stdio {
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        daemon.serve_connection(stdin.lock(), stdout.lock());
        daemon.shutdown();
        return ExitCode::SUCCESS;
    }

    let path = opts.socket.expect("socket mode");
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
