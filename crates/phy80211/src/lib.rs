//! # rjam-phy80211 — IEEE 802.11a/g OFDM baseband PHY
//!
//! A complete software implementation of the 802.11a/g (ERP-OFDM) physical
//! layer at its native 20 MSPS: everything the Linksys WRT54GL access point
//! and wireless client of the paper's testbed put on the wire, and a
//! reference receiver good enough to close the loop in simulation.
//!
//! Transmit chain (per IEEE 802.11-2012 clause 18):
//!
//! ```text
//!  PSDU -> scramble -> convolutional encode (K=7) -> puncture
//!       -> interleave -> QAM map -> +pilots -> 64-IFFT -> +CP -> frame
//! ```
//!
//! with the PLCP preamble (10 short + 2 long training symbols, 16 us total)
//! and the BPSK-1/2 SIGNAL symbol in front — the structures the paper's
//! cross-correlator templates are built from.
//!
//! Receive chain: LTS-based timing sync, CFO estimation/correction, channel
//! estimation, equalization, pilot phase tracking, demapping,
//! deinterleaving, Viterbi decoding, descrambling and FCS check.
//!
//! The [`per`] module converts SINR into bit/packet error probabilities per
//! rate (validated against the sample-level chain by Monte Carlo in tests),
//! which the discrete-event MAC uses for minute-long iperf campaigns where
//! running the full receiver per packet would be prohibitive.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod convcode;
pub mod dsss;
pub mod interleave;
pub mod modmap;
pub mod ofdm;
pub mod per;
pub mod preamble;
pub mod rx;
pub mod signal;
pub mod tx;

pub use rx::{decode_frame, decode_frame_soft, RxError};
pub use signal::Rate;
pub use tx::{modulate_frame, Frame};

/// Native 802.11a/g sample rate, samples/s.
pub const SAMPLE_RATE: f64 = 20.0e6;

/// FFT length.
pub const FFT_LEN: usize = 64;

/// Cyclic prefix length in samples (0.8 us).
pub const CP_LEN: usize = 16;

/// OFDM symbol length in samples (4 us).
pub const SYM_LEN: usize = FFT_LEN + CP_LEN;

/// Data subcarriers per OFDM symbol.
pub const N_SD: usize = 48;

/// Duration of the short-preamble section in samples (8 us).
pub const SHORT_PREAMBLE_LEN: usize = 160;

/// Duration of the long-preamble section in samples (8 us).
pub const LONG_PREAMBLE_LEN: usize = 160;

/// Full PLCP preamble length in samples (16 us).
pub const PREAMBLE_LEN: usize = SHORT_PREAMBLE_LEN + LONG_PREAMBLE_LEN;

/// Canonical control/management frame sizes in bytes (incl. FCS), shared
/// with the MAC simulator's airtime arithmetic.
pub mod per_frame_sizes {
    /// ACK PSDU length.
    pub const ACK: usize = 14;
    /// RTS PSDU length.
    pub const RTS: usize = 20;
    /// CTS PSDU length.
    pub const CTS: usize = 14;
}
