//! Detection and jamming personalities.
//!
//! The paper's GUI lets an operator pick "detection types and desired
//! jamming reactions during run time"; these enums are the programmatic
//! form. A ([`DetectionPreset`], [`JammerPreset`]) pair compiles into a
//! complete [`rjam_fpga::CoreConfig`].

use crate::coeff::{self, Template};
use rjam_fpga::{CoreConfig, JamWaveform, TriggerMode, TriggerSource};
use std::fmt;

/// Why a [`DetectionPreset`] cannot run, from
/// [`DetectionPreset::validate`].
#[derive(Clone, Debug, PartialEq)]
pub struct PresetError {
    /// The offending field, named as in the preset's wire form
    /// (`threshold`, `threshold_db`, `energy_db`, `id_cell`, `segment`).
    pub field: &'static str,
    /// The violated constraint.
    pub reason: String,
}

impl fmt::Display for PresetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.field, self.reason)
    }
}

impl std::error::Error for PresetError {}

/// What to detect.
#[derive(Clone, Debug, PartialEq)]
pub enum DetectionPreset {
    /// Cross-correlate against the 802.11 short training sequence.
    WifiShortPreamble {
        /// Detection threshold as a fraction of the template's ideal peak.
        threshold: f64,
    },
    /// Cross-correlate against the 802.11 long training symbol.
    WifiLongPreamble {
        /// Detection threshold as a fraction of the template's ideal peak.
        threshold: f64,
    },
    /// Cross-correlate against a WiMAX downlink preamble.
    WimaxPreamble {
        /// Base-station Cell ID (0..=31).
        id_cell: u8,
        /// Segment (0..=2).
        segment: u8,
        /// Detection threshold fraction.
        threshold: f64,
    },
    /// Energy-rise detection only (protocol-agnostic).
    EnergyRise {
        /// Rise threshold in dB (3..=30).
        threshold_db: f64,
    },
    /// Energy-fall detection: trigger at the END of a transmission. With a
    /// SIFS-sized jam delay this implements the classic ACK-jamming attack
    /// (corrupt the acknowledgement instead of the long data frame — even
    /// less energy per kill than the paper's data-frame bursts).
    EnergyFall {
        /// Fall threshold in dB (3..=30).
        threshold_db: f64,
    },
    /// Cross-correlation OR energy rise — the fusion that reaches 100 %
    /// WiMAX frame detection in paper §5.
    WimaxFused {
        /// Base-station Cell ID.
        id_cell: u8,
        /// Segment.
        segment: u8,
        /// Correlation threshold fraction.
        threshold: f64,
        /// Energy-rise threshold in dB.
        energy_db: f64,
    },
}

impl DetectionPreset {
    /// The correlator template this preset loads, if any.
    pub fn template(&self) -> Option<Template> {
        match self {
            DetectionPreset::WifiShortPreamble { .. } => Some(coeff::wifi_short_template()),
            DetectionPreset::EnergyFall { .. } => None,
            DetectionPreset::WifiLongPreamble { .. } => Some(coeff::wifi_long_template()),
            DetectionPreset::WimaxPreamble {
                id_cell, segment, ..
            }
            | DetectionPreset::WimaxFused {
                id_cell, segment, ..
            } => Some(coeff::wimax_template(*id_cell, *segment)),
            DetectionPreset::EnergyRise { .. } => None,
        }
    }

    /// The preset's swept threshold in its own unit: the correlation
    /// fraction for presets with a template (including the fused one), dB
    /// for energy-only presets.
    fn threshold(&self) -> f64 {
        match *self {
            DetectionPreset::WifiShortPreamble { threshold }
            | DetectionPreset::WifiLongPreamble { threshold }
            | DetectionPreset::WimaxPreamble { threshold, .. }
            | DetectionPreset::WimaxFused { threshold, .. } => threshold,
            DetectionPreset::EnergyRise { threshold_db }
            | DetectionPreset::EnergyFall { threshold_db } => threshold_db,
        }
    }

    /// Returns a copy of this preset with its swept threshold replaced by
    /// `threshold`, in the preset's own unit: a correlation fraction for
    /// presets with a template, dB for energy-only presets. This is how
    /// ROC and threshold-grid sweeps derive one hypothesis per grid point
    /// from a base preset.
    pub fn with_threshold(&self, threshold: f64) -> DetectionPreset {
        let mut preset = self.clone();
        match &mut preset {
            DetectionPreset::WifiShortPreamble { threshold: t }
            | DetectionPreset::WifiLongPreamble { threshold: t }
            | DetectionPreset::WimaxPreamble { threshold: t, .. }
            | DetectionPreset::WimaxFused { threshold: t, .. }
            | DetectionPreset::EnergyRise { threshold_db: t }
            | DetectionPreset::EnergyFall { threshold_db: t } => *t = threshold,
        }
        preset
    }

    /// Checks the preset against what the detector hardware model can run,
    /// naming the first offending field: a correlation fraction in (0, 1]
    /// that compiles to a nonzero correlator threshold, energy thresholds
    /// in [3, 30] dB, a WiMAX cell ID of at most 31 and a segment of at
    /// most 2. The operator console and the job service both gate on this.
    pub fn validate(&self) -> Result<(), PresetError> {
        let err = |field, reason: String| Err(PresetError { field, reason });
        let check_db = |field, v: f64| {
            if (3.0..=30.0).contains(&v) {
                Ok(())
            } else {
                err(field, format!("{v} dB is not in [3, 30]"))
            }
        };
        if let DetectionPreset::WimaxPreamble {
            id_cell, segment, ..
        }
        | DetectionPreset::WimaxFused {
            id_cell, segment, ..
        } = *self
        {
            if id_cell > 31 {
                return err("id_cell", format!("{id_cell} exceeds 31"));
            }
            if segment > 2 {
                return err("segment", format!("{segment} exceeds 2"));
            }
        }
        let Some(template) = self.template() else {
            return check_db("threshold_db", self.threshold());
        };
        let fraction = self.threshold();
        if !(fraction > 0.0 && fraction <= 1.0) {
            return err("threshold", format!("{fraction} is not in (0, 1]"));
        }
        if template.threshold_at_fraction(fraction) == 0 {
            return err(
                "threshold",
                format!("{fraction} compiles to a zero correlator threshold"),
            );
        }
        match *self {
            DetectionPreset::WimaxFused { energy_db, .. } => check_db("energy_db", energy_db),
            _ => Ok(()),
        }
    }

    /// The trigger sources the preset enables.
    pub fn trigger_mode(&self) -> TriggerMode {
        match self {
            DetectionPreset::EnergyRise { .. } => TriggerMode::Any(vec![TriggerSource::EnergyHigh]),
            DetectionPreset::EnergyFall { .. } => TriggerMode::Any(vec![TriggerSource::EnergyLow]),
            DetectionPreset::WimaxFused { .. } => {
                TriggerMode::Any(vec![TriggerSource::Xcorr, TriggerSource::EnergyHigh])
            }
            _ => TriggerMode::Any(vec![TriggerSource::Xcorr]),
        }
    }

    /// The paper's end-to-end response budget for this preset, in ns.
    ///
    /// Derived from the platform constants, not a literal: presets that arm
    /// the correlator are bounded by the slower cross-correlation path
    /// (T_resp_xcorr); energy-only presets by the energy path
    /// (T_resp_energy).
    pub fn response_budget_ns(&self) -> f64 {
        let b = crate::timeline::TimelineBudget::paper();
        if self
            .trigger_mode()
            .sources()
            .contains(&TriggerSource::Xcorr)
        {
            b.t_resp_xcorr_ns
        } else {
            b.t_resp_energy_ns
        }
    }

    /// Applies the preset's detection fields onto a config.
    pub fn apply(&self, cfg: &mut CoreConfig) {
        if let Some(t) = self.template() {
            cfg.coeff_i = t.coeff_i;
            cfg.coeff_q = t.coeff_q;
            cfg.xcorr_threshold = t.threshold_at_fraction(self.threshold());
        } else {
            cfg.xcorr_threshold = u64::MAX;
        }
        match self {
            DetectionPreset::EnergyRise { threshold_db } => {
                cfg.energy_high_db = *threshold_db;
            }
            DetectionPreset::EnergyFall { threshold_db } => {
                cfg.energy_low_db = *threshold_db;
            }
            DetectionPreset::WimaxFused { energy_db, .. } => {
                cfg.energy_high_db = *energy_db;
            }
            _ => {}
        }
        cfg.trigger_mode = self.trigger_mode();
    }
}

/// How to react.
#[derive(Clone, Debug, PartialEq)]
pub enum JammerPreset {
    /// Detection only — log events, transmit nothing.
    Monitor,
    /// Always-on wideband noise (the paper's baseline jammer).
    Continuous,
    /// Reactive burst of the given uptime after each trigger.
    Reactive {
        /// Burst length in seconds (40 ns .. ~172 s).
        uptime_s: f64,
        /// Waveform to transmit.
        waveform: JamWaveform,
    },
    /// Reactive burst placed at a delay after the trigger, to hit a chosen
    /// region of the packet ("surgical" jamming).
    Surgical {
        /// Burst length in seconds.
        uptime_s: f64,
        /// Trigger-to-burst delay in seconds.
        delay_s: f64,
        /// Waveform to transmit.
        waveform: JamWaveform,
    },
}

impl JammerPreset {
    /// Applies the preset's jammer fields onto a config.
    pub fn apply(&self, cfg: &mut CoreConfig) {
        let rate = rjam_sdr::USRP_SAMPLE_RATE;
        match self {
            JammerPreset::Monitor => {
                cfg.enabled = false;
                cfg.continuous = false;
            }
            JammerPreset::Continuous => {
                cfg.enabled = false;
                cfg.continuous = true;
                cfg.waveform = JamWaveform::Wgn;
            }
            JammerPreset::Reactive { uptime_s, waveform } => {
                cfg.enabled = true;
                cfg.continuous = false;
                cfg.uptime_samples = (uptime_s * rate).round().max(1.0) as u64;
                cfg.delay_samples = 0;
                cfg.waveform = waveform.clone();
            }
            JammerPreset::Surgical {
                uptime_s,
                delay_s,
                waveform,
            } => {
                cfg.enabled = true;
                cfg.continuous = false;
                cfg.uptime_samples = (uptime_s * rate).round().max(1.0) as u64;
                cfg.delay_samples = (delay_s * rate).round() as u64;
                cfg.waveform = waveform.clone();
            }
        }
    }
}

/// Compiles a detection/jamming pair into a complete core configuration.
pub fn build_config(det: &DetectionPreset, jam: &JammerPreset, lockout: u64) -> CoreConfig {
    let mut cfg = CoreConfig {
        lockout,
        ..CoreConfig::default()
    };
    det.apply(&mut cfg);
    jam.apply(&mut cfg);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wifi_long_preset_compiles() {
        let cfg = build_config(
            &DetectionPreset::WifiLongPreamble { threshold: 0.5 },
            &JammerPreset::Reactive {
                uptime_s: 1e-4,
                waveform: JamWaveform::Wgn,
            },
            1000,
        );
        assert!(cfg.enabled);
        assert!(!cfg.continuous);
        assert_eq!(cfg.uptime_samples, 2500);
        assert!(cfg.xcorr_threshold < u64::MAX);
        assert_eq!(
            cfg.trigger_mode,
            TriggerMode::Any(vec![TriggerSource::Xcorr])
        );
    }

    #[test]
    fn energy_preset_disables_correlator() {
        let cfg = build_config(
            &DetectionPreset::EnergyRise { threshold_db: 10.0 },
            &JammerPreset::Monitor,
            0,
        );
        assert_eq!(cfg.xcorr_threshold, u64::MAX);
        assert_eq!(cfg.energy_high_db, 10.0);
        assert!(!cfg.enabled && !cfg.continuous);
    }

    #[test]
    fn fused_preset_enables_both_sources() {
        let cfg = build_config(
            &DetectionPreset::WimaxFused {
                id_cell: 1,
                segment: 0,
                threshold: 0.5,
                energy_db: 10.0,
            },
            &JammerPreset::Reactive {
                uptime_s: 4e-5,
                waveform: JamWaveform::Wgn,
            },
            0,
        );
        assert_eq!(
            cfg.trigger_mode,
            TriggerMode::Any(vec![TriggerSource::Xcorr, TriggerSource::EnergyHigh])
        );
    }

    #[test]
    fn energy_fall_preset_uses_low_trigger() {
        let cfg = build_config(
            &DetectionPreset::EnergyFall { threshold_db: 10.0 },
            &JammerPreset::Surgical {
                uptime_s: 30e-6,
                delay_s: 10e-6, // one SIFS: land on the ACK
                waveform: JamWaveform::Wgn,
            },
            0,
        );
        assert_eq!(cfg.energy_low_db, 10.0);
        assert_eq!(cfg.xcorr_threshold, u64::MAX);
        assert_eq!(
            cfg.trigger_mode,
            TriggerMode::Any(vec![TriggerSource::EnergyLow])
        );
        assert_eq!(cfg.delay_samples, 250);
    }

    #[test]
    fn continuous_preset() {
        let cfg = build_config(
            &DetectionPreset::EnergyRise { threshold_db: 10.0 },
            &JammerPreset::Continuous,
            0,
        );
        assert!(cfg.continuous);
        assert!(!cfg.enabled);
    }

    #[test]
    fn surgical_delay_in_samples() {
        let cfg = build_config(
            &DetectionPreset::WifiShortPreamble { threshold: 0.5 },
            &JammerPreset::Surgical {
                uptime_s: 1e-5,
                delay_s: 25e-6,
                waveform: JamWaveform::Replay,
            },
            0,
        );
        assert_eq!(cfg.delay_samples, 625); // 25 us at 25 MSPS
        assert_eq!(cfg.uptime_samples, 250);
        assert_eq!(cfg.waveform, JamWaveform::Replay);
    }

    #[test]
    fn response_budget_follows_trigger_path() {
        let b = crate::timeline::TimelineBudget::paper();
        let xcorr = DetectionPreset::WifiShortPreamble { threshold: 0.35 };
        assert_eq!(xcorr.response_budget_ns(), b.t_resp_xcorr_ns);
        let energy = DetectionPreset::EnergyRise { threshold_db: 10.0 };
        assert_eq!(energy.response_budget_ns(), b.t_resp_energy_ns);
        // Fusion arms the correlator, so the slower path bounds it.
        let fused = DetectionPreset::WimaxFused {
            id_cell: 1,
            segment: 0,
            threshold: 0.5,
            energy_db: 10.0,
        };
        assert_eq!(fused.response_budget_ns(), b.t_resp_xcorr_ns);
    }

    #[test]
    fn with_threshold_sets_the_presets_own_unit() {
        let short = DetectionPreset::WifiShortPreamble { threshold: 0.3 };
        assert_eq!(
            short.with_threshold(0.5),
            DetectionPreset::WifiShortPreamble { threshold: 0.5 }
        );
        let fused = DetectionPreset::WimaxFused {
            id_cell: 3,
            segment: 1,
            threshold: 0.4,
            energy_db: 10.0,
        };
        assert_eq!(
            fused.with_threshold(0.6),
            DetectionPreset::WimaxFused {
                id_cell: 3,
                segment: 1,
                threshold: 0.6,
                energy_db: 10.0,
            }
        );
        let energy = DetectionPreset::EnergyRise { threshold_db: 10.0 };
        assert_eq!(
            energy.with_threshold(6.0),
            DetectionPreset::EnergyRise { threshold_db: 6.0 }
        );
    }

    #[test]
    fn validate_names_the_offending_field() {
        let wimax = |id_cell, segment, threshold| DetectionPreset::WimaxFused {
            id_cell,
            segment,
            threshold,
            energy_db: 10.0,
        };
        for ok in [
            DetectionPreset::WifiShortPreamble { threshold: 1.0 },
            DetectionPreset::WifiLongPreamble { threshold: 0.01 },
            DetectionPreset::EnergyFall { threshold_db: 3.0 },
            DetectionPreset::EnergyRise { threshold_db: 30.0 },
            wimax(31, 2, 0.45),
        ] {
            assert_eq!(ok.validate(), Ok(()), "{ok:?}");
        }
        for (bad, field) in [
            (
                DetectionPreset::WifiShortPreamble { threshold: 1.5 },
                "threshold",
            ),
            (
                DetectionPreset::WifiShortPreamble { threshold: 0.0 },
                "threshold",
            ),
            (
                DetectionPreset::WifiLongPreamble {
                    threshold: f64::NAN,
                },
                "threshold",
            ),
            // In (0, 1], but it compiles to a zero correlator threshold,
            // which would fire on every sample.
            (
                DetectionPreset::WifiLongPreamble { threshold: 1e-9 },
                "threshold",
            ),
            (
                DetectionPreset::EnergyRise { threshold_db: 2.9 },
                "threshold_db",
            ),
            (
                DetectionPreset::EnergyFall { threshold_db: 45.0 },
                "threshold_db",
            ),
            (wimax(32, 0, 0.45), "id_cell"),
            (wimax(1, 3, 0.45), "segment"),
            (
                DetectionPreset::WimaxFused {
                    id_cell: 1,
                    segment: 0,
                    threshold: 0.45,
                    energy_db: 31.0,
                },
                "energy_db",
            ),
        ] {
            let err = bad.validate().expect_err("must reject");
            assert_eq!(err.field, field, "{bad:?}: {err}");
        }
        // Every preset that validates compiles to a core config the FPGA
        // model accepts.
        let cfg = build_config(
            &DetectionPreset::WifiLongPreamble { threshold: 0.01 },
            &JammerPreset::Monitor,
            0,
        );
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn minimum_uptime_one_sample() {
        let cfg = build_config(
            &DetectionPreset::EnergyRise { threshold_db: 10.0 },
            &JammerPreset::Reactive {
                uptime_s: 1e-12,
                waveform: JamWaveform::Wgn,
            },
            0,
        );
        assert_eq!(cfg.uptime_samples, 1);
    }
}
