//! # rjam-fpga — the custom reactive-jamming DSP core
//!
//! A cycle-accurate, register-transfer-level model of the custom IP the paper
//! implements in the USRP N210's FPGA (paper Figs 1-4). The core sits inside
//! the receive DDC chain and owns the transmit data path; it comprises:
//!
//! * [`regs`] — the UHD *user register bus* (32-bit data / 8-bit address)
//!   through which the host programs correlation coefficients, thresholds
//!   and jammer settings at run time;
//! * [`xcorr`] — the 64-sample weighted-phase **cross-correlator** (derived
//!   from the Rice WARP OFDM reference design): sign-bit inputs, 3-bit
//!   signed coefficients, squared-magnitude output against a threshold;
//! * [`energy`] — the **energy differentiator**: a 32-sample running energy
//!   sum compared against its own value 64 samples earlier, scaled by
//!   programmable high/low thresholds (3-30 dB);
//! * [`trigger`] — the three-stage **trigger event builder** that combines
//!   detector outputs (any-of or in-sequence within a time window);
//! * [`jammer`] — the **transmit controller**: programmable delay, 8-cycle
//!   TX-pipeline initialization, jam uptime from one sample (40 ns) to 2^32
//!   samples, and three waveform sources (pseudorandom WGN, replay of the
//!   last 512 received samples, or a host-streamed buffer); its reactive
//!   timing alone is [`BurstRule`];
//! * [`core`] — [`core::DspCore`], wiring the blocks together sample by
//!   sample with full cycle accounting, event logging and host feedback
//!   flags;
//! * [`lanes`] — the **DSP lane bank** ([`DspLaneBank`]): up to 64 core
//!   triggers, one [`CoreConfig`] each, sharing one stream's sign history,
//!   its energy sum and, per correlator template, one metric evaluation,
//!   run 64 samples at a time on bit masks, for workspace-scale sweeps.
//!
//! All arithmetic uses the hardware's bit widths (16-bit I/Q, 31-bit sample
//! energy, 36-bit windowed energy) so detection statistics — including the
//! quantization-induced behaviour the paper measures — are reproduced rather
//! than idealized.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod energy;
pub mod fifo;
pub mod jammer;
pub mod lanes;
pub mod regs;
pub mod resources;
pub mod trace;
pub mod trigger;
pub mod vita;
pub mod xcorr;
pub mod xcorr_wide;

pub use crate::core::{
    CoeffRail, ConfigError, CoreConfig, CoreEvent, CoreStats, DspCore, EnergyEdge,
};
pub use energy::EnergyDifferentiator;
pub use fifo::{SampleFifo, TriggerCapture};
pub use jammer::{BurstRule, JamController, JamWaveform};
pub use lanes::{DspLaneBank, LaneBankScratch, Reads};
pub use regs::{RegisterBus, RegisterMap};
pub use trigger::{TriggerBuilder, TriggerMode, TriggerSource};
pub use vita::VitaTime;
pub use xcorr::{Coeff3, CrossCorrelator};
pub use xcorr_wide::WideCorrelator;

/// FPGA clock cycles per baseband sample (100 MHz clock, 25 MSPS stream).
pub const CLOCKS_PER_SAMPLE: u64 = rjam_sdr::CLOCKS_PER_SAMPLE;

/// Nanoseconds per FPGA clock cycle (100 MHz clock).
pub const NS_PER_CYCLE: u64 = 10;

/// Clock cycles needed to initialize the transmit chain after a trigger
/// (paper: "approximately seven more cycles required to populate the digital
/// up-conversion chain", one cycle for the trigger itself — 8 in total,
/// i.e. 80 ns at 100 MHz).
pub const TX_INIT_CYCLES: u64 = 8;

/// Correlator length in samples (fixed by the hardware design).
pub const XCORR_LEN: usize = 64;

/// Energy differentiator window length in samples.
pub const ENERGY_WINDOW: usize = 32;

/// Delay between the compared energy sums, in samples (the `Z^-64` block).
pub const ENERGY_DELAY: usize = 64;
