//! # rjam-sdr — software-defined-radio DSP substrate
//!
//! This crate provides the baseband digital-signal-processing plumbing that the
//! rest of the `rjam` workspace is built on. It models the parts of the
//! USRP N210 / UHD / GNU Radio stack that the paper's custom FPGA core is
//! embedded in:
//!
//! * complex baseband sample types, both floating point ([`Cf64`]) and the
//!   16-bit fixed-point representation used on the FPGA ([`IqI16`]);
//! * a radix-2 FFT/IFFT ([`fft`]) used by the OFDM PHYs;
//! * windowed-sinc low-pass FIR design ([`fir`]) for the resampler's
//!   anti-alias prototypes;
//! * sample-rate conversion ([`resample`]) — crucial to the paper, whose
//!   25 MSPS receiver correlates against 20 MSPS WiFi and 11.4 MHz WiMAX
//!   waveforms;
//! * power / dB utilities ([`power`]) and a deterministic PRNG with Gaussian
//!   output ([`rng`]) so every experiment in the workspace is reproducible;
//! * delay lines and ring buffers ([`ring`]).
//!
//! The UHD DDC/DUC chains themselves are not modeled: waveforms are
//! resampled straight to the 25 MSPS the custom core sees, and the analog
//! front end is folded into the linear channel of `rjam-channel`.
//!
//! The crate is deliberately dependency-free and `std`-only, in the spirit of
//! standalone event-driven network stacks: simplicity and robustness over
//! compile-time cleverness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod fft;
pub mod fir;
pub mod io;
pub mod power;
pub mod resample;
pub mod ring;
pub mod rng;
pub mod spectrum;
pub mod window;

pub use complex::{Cf64, IqI16};
pub use power::{db_to_lin, lin_to_db, mean_power, scale_to_power};
pub use rng::Rng;

/// Baseband sample rate of the modeled USRP N210 receive path, in samples/s.
///
/// The paper's hardware design is fixed at 25 MSPS (100 MHz FPGA clock with a
/// decimation producing 4 clock cycles per baseband sample).
pub const USRP_SAMPLE_RATE: f64 = 25.0e6;

/// FPGA clock cycles per baseband sample at [`USRP_SAMPLE_RATE`].
pub const CLOCKS_PER_SAMPLE: u64 = 4;

/// 802.11a/g native baseband sample rate, in samples/s.
pub const WIFI_SAMPLE_RATE: f64 = 20.0e6;

/// Mobile WiMAX (802.16e, 10 MHz TDD profile as configured on the paper's
/// Airspan Air4G base station) sampling rate, in samples/s.
pub const WIMAX_SAMPLE_RATE: f64 = 11.4e6;
