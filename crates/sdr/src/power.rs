//! Power, decibel and SNR utilities.
//!
//! All experiment sweeps in the paper are parameterized in dB (SNR at the
//! receiver, SIR at the access point, attenuator settings, energy-detector
//! thresholds between 3 and 30 dB), so conversions live here in one place.

use crate::complex::Cf64;

/// Converts a power ratio in dB to a linear power ratio.
#[inline]
pub fn db_to_lin(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts a linear power ratio to dB. Returns `-inf` for zero input.
#[inline]
pub fn lin_to_db(lin: f64) -> f64 {
    10.0 * lin.log10()
}

/// Converts an amplitude (voltage) ratio in dB to a linear amplitude ratio.
#[inline]
pub fn db_to_amplitude(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Mean power of a complex waveform: `E[|x|^2]`.
///
/// Returns 0.0 for an empty buffer.
pub fn mean_power(buf: &[Cf64]) -> f64 {
    if buf.is_empty() {
        return 0.0;
    }
    buf.iter().map(|s| s.norm_sq()).sum::<f64>() / buf.len() as f64
}

/// Scales a waveform in place so that its mean power equals `target`.
///
/// A silent buffer is left untouched (there is nothing to scale).
pub fn scale_to_power(buf: &mut [Cf64], target: f64) {
    let p = mean_power(buf);
    if p <= 0.0 {
        return;
    }
    let k = (target / p).sqrt();
    for s in buf.iter_mut() {
        *s = s.scale(k);
    }
}

/// Measured signal-to-noise ratio in dB given mean signal and noise powers.
#[inline]
pub fn snr_db(signal_power: f64, noise_power: f64) -> f64 {
    lin_to_db(signal_power / noise_power)
}

/// Root-mean-square amplitude of a waveform.
pub fn rms(buf: &[Cf64]) -> f64 {
    mean_power(buf).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn db_roundtrip() {
        for db in [-30.0, -3.0, 0.0, 3.0, 10.0, 33.85] {
            assert!((lin_to_db(db_to_lin(db)) - db).abs() < 1e-12);
        }
    }

    #[test]
    fn known_points() {
        assert!((db_to_lin(3.0) - 1.995).abs() < 0.01);
        assert!((db_to_lin(10.0) - 10.0).abs() < 1e-12);
        assert!((db_to_amplitude(20.0) - 10.0).abs() < 1e-12);
        assert_eq!(lin_to_db(0.0), f64::NEG_INFINITY);
    }

    #[test]
    fn mean_power_of_unit_tone() {
        let buf: Vec<Cf64> = (0..1000)
            .map(|t| Cf64::from_angle(0.01 * t as f64))
            .collect();
        assert!((mean_power(&buf) - 1.0).abs() < 1e-12);
        assert_eq!(mean_power(&[]), 0.0);
    }

    #[test]
    fn scale_to_power_hits_target() {
        let mut rng = Rng::seed_from(2);
        let mut buf: Vec<Cf64> = (0..4096)
            .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
            .collect();
        scale_to_power(&mut buf, 0.01);
        assert!((mean_power(&buf) - 0.01).abs() < 1e-12);
        // Scaling silence is a no-op, not a panic.
        let mut silent = vec![Cf64::ZERO; 16];
        scale_to_power(&mut silent, 1.0);
        assert!(silent.iter().all(|s| *s == Cf64::ZERO));
    }

    #[test]
    fn snr_definition() {
        assert!((snr_db(10.0, 1.0) - 10.0).abs() < 1e-12);
        assert!((snr_db(1.0, 2.0) + 3.0103).abs() < 1e-3);
    }
}
