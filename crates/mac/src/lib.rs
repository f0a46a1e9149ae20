//! # rjam-mac — 802.11 DCF network simulation and iperf-style measurement
//!
//! The paper's Figs 10-11 measure UDP bandwidth and packet reception ratio
//! with iperf over a live Linksys 802.11g link while the jammer runs in
//! continuous or reactive mode. This crate reproduces that methodology as a
//! discrete-event simulation:
//!
//! * [`model`] — scenario description: link budgets, jammer behaviour,
//!   DCF timing constants, calibration constants;
//! * [`link`] — per-packet success evaluation: jam-burst overlap is turned
//!   into SINR segments and pushed through the `rjam-phy80211::per` link
//!   model, with the PLCP preamble's correlation processing gain and the
//!   SIGNAL field modeled separately (this is what makes a 10 us burst need
//!   ~13 dB more power than a 100 us burst, as the paper observes); a
//!   scenario run evaluates it through a bit-exact per-run memo;
//! * [`sim`] — the DCF state machine: DIFS/backoff/retry/ACK, ARF rate
//!   fallback, CCA deferral under continuous jamming, beacon tracking and
//!   disassociation, driven by a saturating UDP flow;
//! * [`iperf`] — bandwidth / PRR reports in the paper's terms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod defense;
pub mod iperf;
pub mod link;
pub mod model;
pub mod sim;

pub use defense::{JammingDetector, JammingVerdict, LinkObservation};
pub use iperf::IperfReport;
pub use model::{JammerKind, Scenario};
pub use sim::{run_scenario, MacObsDelta, ScenarioRun};
