//! # rjam-phy80216 — 802.16e mobile WiMAX OFDMA downlink generator
//!
//! A software model of the downlink waveform the paper's Airspan Air4G
//! macro-cell base station broadcasts (paper §5): TDD mode, 10 MHz channel,
//! 1024-point OFDMA, hardware sampling rate 11.4 MHz, preamble carrier sets
//! with a non-zero tone every 3rd subcarrier, 86 guard-band subcarriers on
//! each side of the spectrum, and a 284-value PN sequence per preamble set
//! selected by the base station's Cell ID and Segment ID.
//!
//! In the time domain the preamble occupies one OFDMA symbol at the start of
//! each 5 ms frame; because only every third subcarrier is loaded, the
//! useful part of the symbol is (nearly) periodic with period N/3, i.e. the
//! underlying code "repeats itself 3 times within the preamble time" — the
//! structure the paper's 64-sample correlator keys on.
//!
//! **Substitution note** (see DESIGN.md): the standard specifies the PN
//! modulation series as a hex table per (IDcell, segment); lacking the
//! table, [`pn::pn_sequence`] derives a deterministic 284-chip sequence from
//! an LFSR seeded by (IDcell, segment). The detector is protocol-aware but
//! content-agnostic — it correlates against whatever template the host
//! loads — so any fixed low-entropy sequence with the standard's carrier
//! allocation exercises the identical code path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cellsearch;
pub mod frame;
pub mod pn;
pub mod preamble;

pub use cellsearch::{identify_cell, identify_from_frame};
pub use frame::{DownlinkConfig, DownlinkGenerator};
pub use preamble::{preamble_carriers, preamble_symbol};

use rjam_sdr::fft::Fft;
use std::sync::OnceLock;

/// OFDMA FFT size for the 10 MHz profile.
pub const FFT_LEN: usize = 1024;

/// Hardware sampling rate of the paper's base-station configuration, Hz.
pub const SAMPLE_RATE: f64 = 11.4e6;

/// Usable (non-guard, non-DC) subcarriers: 1024 - 2*86 - 1 (DC) = 851; the
/// preamble carrier sets cover 852 positions including DC's slot, giving
/// 284 tones per segment. We follow the paper's arithmetic: 284 * 3 = 852.
pub const PREAMBLE_POSITIONS: usize = 852;

/// PN chips per preamble carrier set (paper: "a different 284-value PN
/// sequence").
pub const PN_LEN: usize = 284;

/// Cyclic-prefix fraction (1/8 for the mobile WiMAX profile).
pub const CP_LEN: usize = FFT_LEN / 8;

/// OFDMA symbol length in samples.
pub const SYM_LEN: usize = FFT_LEN + CP_LEN;

/// The process-wide [`FFT_LEN`]-point plan every OFDMA symbol shares.
/// Building a plan costs 512 `sin`/`cos` pairs; `Fft::forward`/`inverse`
/// take `&self`, so one plan serves every thread.
pub(crate) fn fft_plan() -> &'static Fft {
    static PLAN: OnceLock<Fft> = OnceLock::new();
    PLAN.get_or_init(|| Fft::new(FFT_LEN))
}

/// TDD frame duration in seconds (5 ms).
pub const FRAME_DURATION: f64 = 5.0e-3;

/// TDD frame duration in samples at [`SAMPLE_RATE`].
pub const FRAME_SAMPLES: usize = (FRAME_DURATION * SAMPLE_RATE) as usize;
