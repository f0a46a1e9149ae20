//! # rjam — a real-time, protocol-aware reactive jamming framework
//!
//! Umbrella crate for the `rjam` workspace, a pure-Rust reproduction of the
//! SDR reactive jamming testbed of Nguyen et al. (ACM SRIF / SIGCOMM 2014).
//! It re-exports every subsystem crate under a stable set of module names:
//!
//! * [`sdr`] — baseband DSP substrate (FFT, FIR design, resamplers);
//! * [`channel`] — the wired 5-port evaluation network and AWGN;
//! * [`fpga`] — cycle-accurate model of the USRP N210 custom DSP core
//!   (cross-correlator, energy differentiator, trigger FSM, jam controller);
//! * [`phy80211`] — full 802.11a/g OFDM PHY (TX and RX);
//! * [`phy80216`] — 802.16e mobile WiMAX OFDMA downlink generator;
//! * [`mac`] — discrete-event 802.11 DCF MAC with an iperf-style meter;
//! * [`core`] — the host-side framework: detection presets, jammer
//!   personalities, register programming and the experiment campaigns that
//!   regenerate every figure in the paper.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the system inventory.

pub use rjam_channel as channel;
pub use rjam_core as core;
pub use rjam_fpga as fpga;
pub use rjam_mac as mac;
pub use rjam_phy80211 as phy80211;
pub use rjam_phy80216 as phy80216;
pub use rjam_sdr as sdr;
