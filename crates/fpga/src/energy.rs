//! The energy differentiator (paper Fig. 4).
//!
//! The secondary, protocol-agnostic detector: at each sample `n` the block
//! computes the instantaneous energy `x[n] = I^2 + Q^2`, maintains the
//! 32-sample running sum
//!
//! ```text
//!   y[n] = y[n-1] + x[n] - x[n-N],   N = 32
//! ```
//!
//! and compares `y[n]` against its own value 64 samples earlier (`Z^-64`)
//! scaled by user thresholds:
//!
//! * **energy rise** ("Trigger High"): `y[n] > T_high * y[n-64]`
//! * **energy fall** ("Trigger Low"):  `y[n-64] > T_low * y[n]`
//!
//! Thresholds are programmable between 3 dB and 30 dB as 16.16 fixed-point
//! linear power ratios (paper: "Users can set detection for any energy level
//! change between 3dB and 30dB, and for both positive and negative energy
//! changes"). All arithmetic is integer and wrap-free: `x` fits in 31 bits,
//! `y` in 36, and the threshold products are evaluated in 128 bits, exactly
//! as a DSP48 cascade would widen them.

use crate::core::CoreConfig;
use crate::{ENERGY_DELAY, ENERGY_WINDOW};
use rjam_sdr::complex::IqI16;
use rjam_sdr::ring::{DelayLine, MovingSum};

/// A dB threshold as the differentiator latches it: clamped to the
/// hardware's 3-30 dB register range, as a 16.16 fixed-point linear power
/// ratio. The lane bank's energy comparators latch theirs through it too.
pub(crate) fn threshold_fixed(db: f64) -> u32 {
    crate::regs::db_to_fixed16(db.clamp(3.0, 30.0))
}

/// Per-sample differentiator output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnergyOutput {
    /// Current 32-sample energy sum `y[n]`.
    pub sum: u64,
    /// Raw comparator: energy rise condition holds this sample.
    pub rise: bool,
    /// Raw comparator: energy fall condition holds this sample.
    pub fall: bool,
    /// Armed rising-edge pulse for the rise comparator.
    pub trigger_high: bool,
    /// Armed rising-edge pulse for the fall comparator.
    pub trigger_low: bool,
}

/// The streaming energy differentiator block.
#[derive(Clone, Debug)]
pub struct EnergyDifferentiator {
    window: MovingSum,
    delayed: DelayLine<u64>,
    /// 16.16 fixed-point linear power ratios.
    thresh_high: u32,
    thresh_low: u32,
    fed: u64,
    lockout: u64,
    lockout_high_left: u64,
    lockout_low_left: u64,
    was_rise: bool,
    was_fall: bool,
}

impl EnergyDifferentiator {
    /// Creates a differentiator with the hardware window (32) and delay (64)
    /// and both thresholds at 10 dB.
    pub fn new() -> Self {
        EnergyDifferentiator {
            window: MovingSum::new(ENERGY_WINDOW),
            delayed: DelayLine::new(ENERGY_DELAY),
            thresh_high: crate::regs::db_to_fixed16(10.0),
            thresh_low: crate::regs::db_to_fixed16(10.0),
            fed: 0,
            lockout: 0,
            lockout_high_left: 0,
            lockout_low_left: 0,
            was_rise: false,
            was_fall: false,
        }
    }

    /// Sets the rise threshold from a dB value (clamped to the hardware's
    /// 3-30 dB register range).
    pub fn set_threshold_high_db(&mut self, db: f64) {
        self.thresh_high = threshold_fixed(db);
    }

    /// Sets the fall threshold from a dB value (clamped to 3-30 dB).
    pub fn set_threshold_low_db(&mut self, db: f64) {
        self.thresh_low = threshold_fixed(db);
    }

    /// Sets the raw 16.16 fixed-point rise threshold (register interface).
    pub fn set_threshold_high_fixed(&mut self, fixed: u32) {
        self.thresh_high = fixed;
    }

    /// Sets the raw 16.16 fixed-point fall threshold (register interface).
    pub fn set_threshold_low_fixed(&mut self, fixed: u32) {
        self.thresh_low = fixed;
    }

    /// Sets the post-trigger lockout period in samples (applied per edge
    /// direction).
    pub fn set_lockout(&mut self, samples: u64) {
        self.lockout = samples;
    }

    /// Latches `cfg`'s energy thresholds and lockout, as
    /// [`crate::DspCore::configure`] does.
    pub fn configure(&mut self, cfg: &CoreConfig) {
        self.set_threshold_high_db(cfg.energy_high_db);
        self.set_threshold_low_db(cfg.energy_low_db);
        self.set_lockout(cfg.lockout);
    }

    /// Feeds one sample.
    #[inline]
    pub fn push(&mut self, s: IqI16) -> EnergyOutput {
        let x = s.energy();
        let y = self.window.push(x);
        let y_old = self.delayed.push(y);
        self.fed += 1;
        // The comparison is meaningless until both the window and the delay
        // line carry real data (96 samples), mirroring the hardware's
        // power-on behaviour where the comparators see zeros.
        let valid = self.fed >= (ENERGY_WINDOW + ENERGY_DELAY) as u64;
        // y > T_high * y_old, with T in 16.16 fixed point. A silent history
        // (y_old == 0) rises only if current energy is nonzero, matching a
        // plain hardware comparator fed zeros.
        let rise = valid && (y as u128) << 16 > self.thresh_high as u128 * y_old as u128;
        let fall = valid && (y_old as u128) << 16 > self.thresh_low as u128 * y as u128;
        let mut trigger_high = false;
        let mut trigger_low = false;
        if self.lockout_high_left > 0 {
            self.lockout_high_left -= 1;
        } else if rise && !self.was_rise {
            trigger_high = true;
            self.lockout_high_left = self.lockout;
        }
        if self.lockout_low_left > 0 {
            self.lockout_low_left -= 1;
        } else if fall && !self.was_fall {
            trigger_low = true;
            self.lockout_low_left = self.lockout;
        }
        self.was_rise = rise;
        self.was_fall = fall;
        EnergyOutput {
            sum: y,
            rise,
            fall,
            trigger_high,
            trigger_low,
        }
    }

    /// Resets streaming state, keeping thresholds.
    pub fn reset(&mut self) {
        self.window.reset();
        self.delayed.reset();
        self.fed = 0;
        self.lockout_high_left = 0;
        self.lockout_low_left = 0;
        self.was_rise = false;
        self.was_fall = false;
    }
}

impl Default for EnergyDifferentiator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pushes `n` samples of constant amplitude, returning collected outputs.
    fn feed(det: &mut EnergyDifferentiator, amp: i16, n: usize) -> Vec<EnergyOutput> {
        (0..n).map(|_| det.push(IqI16::new(amp, 0))).collect()
    }

    #[test]
    fn silence_never_triggers() {
        let mut det = EnergyDifferentiator::new();
        let outs = feed(&mut det, 0, 500);
        assert!(outs.iter().all(|o| !o.trigger_high && !o.trigger_low));
    }

    #[test]
    fn step_up_triggers_high_once() {
        let mut det = EnergyDifferentiator::new();
        det.set_threshold_high_db(10.0);
        // Quiet floor long enough to fill window + delay.
        feed(&mut det, 10, 200);
        let outs = feed(&mut det, 1000, 200);
        let highs: Vec<usize> = outs
            .iter()
            .enumerate()
            .filter(|(_, o)| o.trigger_high)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(highs.len(), 1, "exactly one rise trigger, got {highs:?}");
        // The rise must be seen within the energy window (<=32 samples), the
        // paper's T_en_det bound.
        assert!(highs[0] < ENERGY_WINDOW, "late trigger at {}", highs[0]);
    }

    #[test]
    fn step_down_triggers_low_once() {
        let mut det = EnergyDifferentiator::new();
        det.set_threshold_low_db(10.0);
        feed(&mut det, 1000, 300);
        let outs = feed(&mut det, 10, 200);
        let lows: Vec<usize> = outs
            .iter()
            .enumerate()
            .filter(|(_, o)| o.trigger_low)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(lows.len(), 1, "exactly one fall trigger, got {lows:?}");
        assert!(lows[0] < ENERGY_WINDOW + ENERGY_DELAY);
    }

    #[test]
    fn small_step_below_threshold_ignored() {
        let mut det = EnergyDifferentiator::new();
        det.set_threshold_high_db(10.0);
        feed(&mut det, 100, 300);
        // 6 dB rise in power = x2 amplitude ~ 1.41; use amplitude *2 => +6 dB.
        let outs = feed(&mut det, 200, 300);
        assert!(
            outs.iter().all(|o| !o.trigger_high),
            "a 6 dB rise must not cross a 10 dB threshold"
        );
    }

    #[test]
    fn threshold_boundary_exact() {
        let mut det = EnergyDifferentiator::new();
        det.set_threshold_high_db(10.0);
        feed(&mut det, 100, 300);
        // 10 dB power rise = amplitude * 10^(0.5) = 316.2; 320 exceeds it.
        let outs = feed(&mut det, 320, 100);
        assert!(outs.iter().any(|o| o.trigger_high));
    }

    #[test]
    fn warmup_period_suppressed() {
        let mut det = EnergyDifferentiator::new();
        det.set_threshold_high_db(3.0);
        // A strong signal from sample zero: hardware comparators would see
        // y_old = 0 during warm-up; the model masks that region.
        let outs = feed(&mut det, 5000, ENERGY_WINDOW + ENERGY_DELAY - 1);
        assert!(outs.iter().all(|o| !o.trigger_high));
    }

    #[test]
    fn fluctuating_signal_gives_multiple_triggers() {
        // The paper observes multiple detections per frame when signal level
        // hovers near the noise floor. Model: alternate bursts above/below.
        let mut det = EnergyDifferentiator::new();
        det.set_threshold_high_db(3.0);
        feed(&mut det, 50, 200);
        let mut count = 0;
        for _ in 0..5 {
            count += feed(&mut det, 400, 120)
                .iter()
                .filter(|o| o.trigger_high)
                .count();
            count += feed(&mut det, 50, 120)
                .iter()
                .filter(|o| o.trigger_high)
                .count();
        }
        assert!(count >= 3, "expected repeated rise triggers, got {count}");
    }

    #[test]
    fn lockout_suppresses_retriggers() {
        let mut det = EnergyDifferentiator::new();
        det.set_threshold_high_db(3.0);
        det.set_lockout(10_000);
        feed(&mut det, 50, 200);
        let mut count = 0;
        for _ in 0..5 {
            count += feed(&mut det, 400, 120)
                .iter()
                .filter(|o| o.trigger_high)
                .count();
            count += feed(&mut det, 50, 120)
                .iter()
                .filter(|o| o.trigger_high)
                .count();
        }
        assert_eq!(count, 1, "lockout must keep a single trigger");
    }

    #[test]
    fn db_setters_clamp_to_hardware_range() {
        let mut det = EnergyDifferentiator::new();
        det.set_threshold_high_db(50.0);
        assert_eq!(det.thresh_high, crate::regs::db_to_fixed16(30.0));
        det.set_threshold_low_db(0.5);
        assert_eq!(det.thresh_low, crate::regs::db_to_fixed16(3.0));
    }

    #[test]
    fn reset_restores_warmup() {
        let mut det = EnergyDifferentiator::new();
        det.set_threshold_high_db(3.0);
        feed(&mut det, 50, 300);
        det.reset();
        let outs = feed(&mut det, 5000, 90);
        assert!(outs.iter().all(|o| !o.trigger_high));
    }

    #[test]
    fn no_overflow_at_full_scale() {
        let mut det = EnergyDifferentiator::new();
        det.set_threshold_high_db(30.0);
        let outs: Vec<EnergyOutput> = (0..300)
            .map(|_| det.push(IqI16::new(i16::MIN, i16::MIN)))
            .collect();
        let max_sum = outs.iter().map(|o| o.sum).max().unwrap();
        assert_eq!(max_sum, ENERGY_WINDOW as u64 * 2 * 32768 * 32768);
    }
}
