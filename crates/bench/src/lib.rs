//! # rjam-bench — evaluation harness
//!
//! One binary per table/figure of the paper (see `src/bin/`), plus hermetic
//! micro/macro benchmarks (see `benches/`) driven by the in-repo
//! [`harness`] — no criterion, no network. Figure binaries print the same
//! rows/series the paper reports; EXPERIMENTS.md records paper-vs-measured
//! for each, and each bench target emits a machine-readable
//! `BENCH_<suite>.json`.
//!
//! Each figure binary names its flags (`--frames N`, `--seconds S`, ...)
//! in a one-line usage text and reads them with [`parse_args`], so the
//! default quick runs can be scaled up to the paper's full sample counts.
//! A binary accepts only the flags its usage names: an unknown flag, a flag
//! without its value, a value that does not parse or a positional argument
//! exits with code 2. A binary that runs campaigns builds its engine with
//! [`campaign_engine`], which refuses a malformed or zero `RJAM_THREADS`
//! the same way.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;

use rjam_core::CampaignEngine;
use rjam_obs::flags::{self, Flags};

/// Parses the process arguments against `usage`, the binary's one-line
/// usage text (`fig6_long_preamble [--frames N] [--fa-samples N]`), and
/// reads the values with `read`. A parse error, an unparsable value or any
/// positional argument (no figure binary takes one) prints the error and
/// the usage line and exits with code 2.
pub fn parse_args<T>(usage: &str, read: impl FnOnce(&Flags) -> Result<T, String>) -> T {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = flags::parse(usage, &argv).and_then(|f| match f.positional().first() {
        Some(arg) => Err(format!("unexpected argument '{arg}'")),
        None => read(&f),
    });
    parsed.unwrap_or_else(|e| usage_exit(usage, &e))
}

/// The campaign engine of a figure binary, sized by `RJAM_THREADS` when it
/// is set and by the core count otherwise. Call it before any output: a
/// malformed or zero `RJAM_THREADS` prints the engine's error and the
/// usage line and exits with code 2, as a usage error in [`parse_args`]
/// does.
pub fn campaign_engine(usage: &str) -> CampaignEngine {
    CampaignEngine::from_args(None).unwrap_or_else(|e| usage_exit(usage, &e))
}

/// Prints a usage error and the usage line, and exits with code 2.
fn usage_exit(usage: &str, error: &str) -> ! {
    eprintln!("error: {error}\nusage: {usage}");
    std::process::exit(2)
}

/// Prints a standard figure header.
pub fn figure_header(id: &str, title: &str, paper_note: &str) {
    println!("==================================================================");
    println!("{id}: {title}");
    println!("paper: {paper_note}");
    println!("==================================================================");
}
