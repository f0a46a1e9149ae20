//! # rjam-channel — the wired RF plant of the evaluation testbed
//!
//! The paper evaluates its jammer in a *conducted* (cabled) environment: a
//! 5-port power-splitter interconnect with 20 dB pads on the AP and client
//! ports, a variable attenuator on the jammer transmit port, and an
//! oscilloscope on a monitor port (paper Fig. 9 and Table 1). Because the
//! plant is entirely linear and characterized by an insertion-loss matrix,
//! it can be modeled exactly:
//!
//! * [`noise`] — complex AWGN sources and noise-floor bookkeeping;
//! * [`fiveport`] — the 5-port network with the paper's Table 1 S-matrix and
//!   a VNA-style characterization routine that re-measures it;
//! * [`combine`] — time-aligned multi-emitter combining at a receive port,
//!   with SNR/SIR accounting;
//! * [`monitor`] — a scope-like tap that records waveforms and event markers
//!   and renders ASCII envelope traces (the software stand-in for the
//!   paper's Fig. 12 oscilloscope capture).
//!
//! The pads and the variable attenuator are dB terms, not sample-domain
//! objects: the pads are in [`fiveport`]'s loss matrix, and the jammer's
//! attenuator setting is `TestbedBudget::jammer_atten_db` in `rjam-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combine;
pub mod fading;
pub mod fiveport;
pub mod monitor;
pub mod noise;
pub mod trace;

pub use combine::{Emission, PortReceiver};
pub use fading::MultipathChannel;
pub use fiveport::{FivePortNetwork, Port};
pub use monitor::ScopeTrace;
pub use noise::NoiseSource;
