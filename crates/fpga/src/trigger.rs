//! The trigger event builder (paper §2.4).
//!
//! "A three-stage hardware state machine allows the user to select up to
//! three trigger event combinations, all of which must occur within a
//! user-assigned time interval." The builder consumes the per-sample trigger
//! pulses of the detectors and emits a single *jam trigger* when the
//! configured combination completes. Two combination modes cover the
//! paper's experiments:
//!
//! * [`TriggerMode::Any`] — fire when any enabled source pulses (used for
//!   the WiFi experiments, and for the WiMAX fusion where cross-correlation
//!   OR energy-rise reaches 100 % frame detection);
//! * [`TriggerMode::Sequence`] — the three-stage FSM proper: the enabled
//!   sources must fire in order within the programmed window.

use crate::core::ConfigError;

/// A detector output that can arm the builder.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TriggerSource {
    /// Cross-correlation detection pulse.
    Xcorr,
    /// Energy-rise detection pulse.
    EnergyHigh,
    /// Energy-fall detection pulse.
    EnergyLow,
}

/// How enabled sources combine into a jam trigger.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TriggerMode {
    /// Fire on any pulse from the enabled set.
    Any(Vec<TriggerSource>),
    /// Fire when the listed sources (1..=3) pulse in order, all within
    /// `window` samples of the first.
    Sequence {
        /// Ordered stages of the state machine.
        stages: Vec<TriggerSource>,
        /// Completion deadline in samples, measured from the first stage.
        window: u64,
    },
}

/// Per-sample snapshot of detector pulses feeding the builder.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pulses {
    /// Cross-correlator trigger pulse this sample.
    pub xcorr: bool,
    /// Energy-rise pulse this sample.
    pub energy_high: bool,
    /// Energy-fall pulse this sample.
    pub energy_low: bool,
}

impl TriggerMode {
    /// The sources the mode names: the `Any` set or the `Sequence` stages.
    pub fn sources(&self) -> &[TriggerSource] {
        match self {
            TriggerMode::Any(sources) => sources,
            TriggerMode::Sequence { stages, .. } => stages,
        }
    }

    /// Checks that the three-stage event builder can run this mode: an
    /// `Any` mode needs at least one source, a `Sequence` 1..=3 stages.
    pub(crate) fn check(&self) -> Result<(), ConfigError> {
        match self {
            TriggerMode::Any(srcs) if srcs.is_empty() => Err(ConfigError::UnsupportedTriggerMode {
                sequence: false,
                len: 0,
            }),
            TriggerMode::Sequence { stages, .. } if !(1..=3).contains(&stages.len()) => {
                Err(ConfigError::UnsupportedTriggerMode {
                    sequence: true,
                    len: stages.len(),
                })
            }
            _ => Ok(()),
        }
    }
}

impl TriggerSource {
    /// The source's bit in a [`Pulses::bits`] mask.
    fn bit(self) -> u8 {
        match self {
            TriggerSource::Xcorr => 1,
            TriggerSource::EnergyHigh => 2,
            TriggerSource::EnergyLow => 4,
        }
    }
}

impl Pulses {
    /// The pulses as a mask of [`TriggerSource::bit`]s.
    fn bits(&self) -> u8 {
        u8::from(self.xcorr) | u8::from(self.energy_high) << 1 | u8::from(self.energy_low) << 2
    }
}

/// The trigger combination state machine.
#[derive(Clone, Debug)]
pub struct TriggerBuilder {
    mode: TriggerMode,
    /// [`TriggerMode::Any`]'s source list compiled to a [`Pulses::bits`]
    /// mask (0 in sequence mode, which tests one stage's bit at a time).
    any_mask: u8,
    /// Next sequence stage awaiting its pulse.
    stage: usize,
    /// Sample index when stage 0 fired (sequence mode).
    armed_at: Option<u64>,
    /// Samples processed.
    now: u64,
}

impl TriggerBuilder {
    /// Creates a builder in the given mode.
    ///
    /// # Panics
    /// Panics on an empty source list or a sequence outside 1..=3 stages
    /// (the hardware has three), the modes `CoreConfig::validate` rejects.
    pub fn new(mode: TriggerMode) -> Self {
        if let Err(e) = mode.check() {
            panic!("{e}");
        }
        let any_mask = match &mode {
            TriggerMode::Any(srcs) => srcs.iter().fold(0, |m, s| m | s.bit()),
            TriggerMode::Sequence { .. } => 0,
        };
        TriggerBuilder {
            mode,
            any_mask,
            stage: 0,
            armed_at: None,
            now: 0,
        }
    }

    /// Current mode.
    pub fn mode(&self) -> &TriggerMode {
        &self.mode
    }

    /// Advances one sample; returns `true` when the jam trigger fires.
    pub fn push(&mut self, pulses: Pulses) -> bool {
        let now = self.now;
        self.now += 1;
        self.push_at(now, pulses)
    }

    /// [`TriggerBuilder::push`] for the sample with index `now`, counted
    /// from the last reset, for callers that skip samples without pulses:
    /// no combination completes on such a sample, and a sequence checks
    /// its window when its next pulse arrives, so skipping them changes no
    /// later output.
    #[inline]
    pub fn push_at(&mut self, now: u64, pulses: Pulses) -> bool {
        match &self.mode {
            TriggerMode::Any(_) => pulses.bits() & self.any_mask != 0,
            TriggerMode::Sequence { stages, window } => {
                // Window expiry aborts a partial sequence.
                if let Some(t0) = self.armed_at {
                    if now.saturating_sub(t0) > *window {
                        self.stage = 0;
                        self.armed_at = None;
                    }
                }
                if self.stage < stages.len() && pulses.bits() & stages[self.stage].bit() != 0 {
                    if self.stage == 0 {
                        self.armed_at = Some(now);
                    }
                    self.stage += 1;
                    if self.stage == stages.len() {
                        self.stage = 0;
                        self.armed_at = None;
                        return true;
                    }
                }
                false
            }
        }
    }

    /// Resets the state machine.
    pub fn reset(&mut self) {
        self.stage = 0;
        self.armed_at = None;
        self.now = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P_NONE: Pulses = Pulses {
        xcorr: false,
        energy_high: false,
        energy_low: false,
    };
    const P_X: Pulses = Pulses {
        xcorr: true,
        energy_high: false,
        energy_low: false,
    };
    const P_EH: Pulses = Pulses {
        xcorr: false,
        energy_high: true,
        energy_low: false,
    };
    const P_EL: Pulses = Pulses {
        xcorr: false,
        energy_high: false,
        energy_low: true,
    };

    #[test]
    fn any_mode_fires_on_either_source() {
        let mut tb = TriggerBuilder::new(TriggerMode::Any(vec![
            TriggerSource::Xcorr,
            TriggerSource::EnergyHigh,
        ]));
        assert!(!tb.push(P_NONE));
        assert!(tb.push(P_X));
        assert!(tb.push(P_EH));
        assert!(!tb.push(P_EL), "disabled source must not fire");
    }

    #[test]
    fn sequence_completes_in_order_within_window() {
        let mut tb = TriggerBuilder::new(TriggerMode::Sequence {
            stages: vec![TriggerSource::EnergyHigh, TriggerSource::Xcorr],
            window: 100,
        });
        assert!(!tb.push(P_EH)); // stage 1 armed
        for _ in 0..50 {
            assert!(!tb.push(P_NONE));
        }
        assert!(tb.push(P_X), "sequence complete");
    }

    #[test]
    fn sequence_out_of_order_does_not_fire() {
        let mut tb = TriggerBuilder::new(TriggerMode::Sequence {
            stages: vec![TriggerSource::EnergyHigh, TriggerSource::Xcorr],
            window: 100,
        });
        assert!(!tb.push(P_X)); // wrong first stage
        assert!(!tb.push(P_X));
        assert!(!tb.push(P_EH)); // arms stage 1
        assert!(tb.push(P_X));
    }

    #[test]
    fn sequence_window_expires() {
        let mut tb = TriggerBuilder::new(TriggerMode::Sequence {
            stages: vec![TriggerSource::EnergyHigh, TriggerSource::Xcorr],
            window: 10,
        });
        assert!(!tb.push(P_EH));
        for _ in 0..11 {
            assert!(!tb.push(P_NONE));
        }
        assert!(
            !tb.push(P_X),
            "window expired; xcorr alone must not complete"
        );
        // Re-arm works after expiry.
        assert!(!tb.push(P_EH));
        assert!(tb.push(P_X));
    }

    #[test]
    fn three_stage_sequence() {
        let mut tb = TriggerBuilder::new(TriggerMode::Sequence {
            stages: vec![
                TriggerSource::EnergyHigh,
                TriggerSource::Xcorr,
                TriggerSource::EnergyLow,
            ],
            window: 1000,
        });
        assert!(!tb.push(P_EH));
        assert!(!tb.push(P_X));
        assert!(!tb.push(P_NONE));
        assert!(tb.push(P_EL));
        // Machine rearms cleanly.
        assert!(!tb.push(P_EL));
        assert!(!tb.push(P_EH));
        assert!(!tb.push(P_X));
        assert!(tb.push(P_EL));
    }

    #[test]
    fn simultaneous_pulses_advance_one_stage_per_sample() {
        let mut tb = TriggerBuilder::new(TriggerMode::Sequence {
            stages: vec![TriggerSource::EnergyHigh, TriggerSource::Xcorr],
            window: 100,
        });
        let both = Pulses {
            xcorr: true,
            energy_high: true,
            energy_low: false,
        };
        assert!(!tb.push(both), "one stage per clock, as in hardware");
        assert!(tb.push(both));
    }

    #[test]
    fn push_at_on_pulse_samples_matches_push_on_every_sample() {
        // A sequence that expires (EH at 0, X at 20 > window 10) and one
        // that completes (EH at 30, X at 35), fed densely and sparsely.
        let mode = TriggerMode::Sequence {
            stages: vec![TriggerSource::EnergyHigh, TriggerSource::Xcorr],
            window: 10,
        };
        let pulses = [(0, P_EH), (20, P_X), (30, P_EH), (35, P_X)];
        let mut dense = TriggerBuilder::new(mode.clone());
        let fired_dense: Vec<u64> = (0..50)
            .filter(|&n| {
                let p = pulses
                    .iter()
                    .find(|&&(t, _)| t == n)
                    .map_or(P_NONE, |&(_, p)| p);
                dense.push(p)
            })
            .collect();
        let mut sparse = TriggerBuilder::new(mode);
        let fired_sparse: Vec<u64> = pulses
            .iter()
            .filter(|&&(t, p)| sparse.push_at(t, p))
            .map(|&(t, _)| t)
            .collect();
        assert_eq!(fired_dense, [35]);
        assert_eq!(fired_sparse, fired_dense);
    }

    #[test]
    #[should_panic(expected = "1..=3")]
    fn rejects_four_stages() {
        let _ = TriggerBuilder::new(TriggerMode::Sequence {
            stages: vec![TriggerSource::Xcorr; 4],
            window: 10,
        });
    }

    #[test]
    fn reset_clears_partial_sequence() {
        let mut tb = TriggerBuilder::new(TriggerMode::Sequence {
            stages: vec![TriggerSource::EnergyHigh, TriggerSource::Xcorr],
            window: 100,
        });
        tb.push(P_EH);
        tb.reset();
        assert!(!tb.push(P_X), "stage progress must be cleared");
    }
}
