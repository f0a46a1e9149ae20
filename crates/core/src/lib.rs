//! # rjam-core — the host-side reactive jamming framework
//!
//! This crate is the paper's contribution proper: the software that turns
//! the FPGA detection/response fabric ([`rjam_fpga`]) into a *protocol-aware
//! reactive jammer*. It plays the role of the GNU Radio host application
//! and Python GUI of paper §2.5:
//!
//! * [`coeff`] — offline generation of the 64-tap 3-bit correlator
//!   templates from standard preambles (WiFi short/long, WiMAX carrier
//!   sets), including the 20->25 MSPS resampling that defines the paper's
//!   operating conditions;
//! * [`presets`] — detection and jamming "personalities" (continuous,
//!   reactive with uptime, surgical with delay) that map onto register
//!   programming;
//! * [`jammer`] — [`jammer::ReactiveJammer`], the top-level handle that owns
//!   a [`rjam_fpga::DspCore`], applies presets at run time, streams samples
//!   and reads back events — the programmatic equivalent of the paper's
//!   run-time GUI;
//! * [`timeline`] — the Fig. 5 timing analysis (T_en_det, T_xcorr_det,
//!   T_init, T_resp) both statically and as measured from core event logs;
//! * [`testbed`] — link-budget arithmetic over the 5-port network: SNR/SIR
//!   at every port from transmit powers, pads and the variable attenuator;
//! * [`campaign`] — the experiment runners that regenerate every figure:
//!   detection-probability sweeps (Figs 6-8), false-alarm calibration,
//!   iperf jamming sweeps (Figs 10-11) and the WiMAX detection/jamming
//!   correspondence experiment (Fig 12), all described by [`campaign::CampaignSpec`];
//! * [`engine`] — the deterministic sharded campaign engine: splits every
//!   campaign into seed-split shards, runs them on scoped worker threads
//!   (`RJAM_THREADS`) and folds their results in unit order, so output is
//!   bit-identical to the serial path at any thread count;
//! * [`trace`] — traced jam episodes: every frame gets a correlation ID at
//!   MAC emission and a causal chain (PHY → channel → FPGA → jam → outcome)
//!   in one exportable [`rjam_obs::trace::TraceDoc`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod autonomous;
pub mod campaign;
pub mod coeff;
pub mod engine;
pub mod export;
pub mod jammer;
pub mod presets;
pub mod spec;
pub mod testbed;
pub mod timeline;
pub mod trace;

pub use autonomous::AutonomousJammer;
pub use engine::{CampaignEngine, CancelToken, ShardCtx};
pub use jammer::{BlockScratch, ReactiveJammer};
pub use presets::{DetectionPreset, JammerPreset};
pub use spec::{CampaignRequest, JobCheckpoint, SpecError};
pub use testbed::TestbedBudget;
