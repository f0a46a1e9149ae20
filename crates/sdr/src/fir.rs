//! FIR filter design.
//!
//! The anti-alias stages of the resampler use windowed-sinc low-pass
//! prototypes (Hamming window), the same family of half-band/low-pass
//! filters the USRP's CORDIC+CIC+HB datapath implements.

use crate::complex::Cf64;

/// Designs a windowed-sinc low-pass filter.
///
/// * `num_taps` — filter length (odd lengths give a symmetric, linear-phase
///   filter centered on a tap; even lengths are allowed);
/// * `cutoff` — normalized cutoff frequency in cycles/sample, in `(0, 0.5)`.
///
/// The taps are normalized to unity DC gain.
///
/// # Panics
/// Panics if `num_taps == 0` or `cutoff` is outside `(0, 0.5)`.
pub fn lowpass(num_taps: usize, cutoff: f64) -> Vec<f64> {
    assert!(num_taps > 0, "filter must have at least one tap");
    assert!(
        cutoff > 0.0 && cutoff < 0.5,
        "cutoff must be in (0, 0.5), got {cutoff}"
    );
    let m = (num_taps - 1) as f64;
    let mut taps: Vec<f64> = (0..num_taps)
        .map(|n| {
            let x = n as f64 - m / 2.0;
            let sinc = if x.abs() < 1e-12 {
                2.0 * cutoff
            } else {
                (2.0 * std::f64::consts::PI * cutoff * x).sin() / (std::f64::consts::PI * x)
            };
            // Hamming window.
            let w = 0.54 - 0.46 * (2.0 * std::f64::consts::PI * n as f64 / m.max(1.0)).cos();
            sinc * w
        })
        .collect();
    let sum: f64 = taps.iter().sum();
    for t in taps.iter_mut() {
        *t /= sum;
    }
    taps
}

/// Frequency response magnitude of a real tap set at a normalized frequency
/// `f` (cycles/sample).
pub fn response_mag(taps: &[f64], f: f64) -> f64 {
    let mut acc = Cf64::ZERO;
    for (n, &t) in taps.iter().enumerate() {
        acc += Cf64::from_angle(-2.0 * std::f64::consts::PI * f * n as f64).scale(t);
    }
    acc.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lowpass_dc_gain_unity() {
        let taps = lowpass(63, 0.2);
        assert!((taps.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((response_mag(&taps, 0.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lowpass_passes_low_rejects_high() {
        let taps = lowpass(101, 0.1);
        assert!(response_mag(&taps, 0.02) > 0.95);
        assert!(response_mag(&taps, 0.3) < 0.01);
    }

    #[test]
    fn lowpass_is_symmetric() {
        let taps = lowpass(31, 0.15);
        for i in 0..taps.len() {
            assert!((taps[i] - taps[taps.len() - 1 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn group_delay_centers_impulse() {
        let taps = lowpass(21, 0.2);
        let peak = taps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(peak, 10);
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn rejects_bad_cutoff() {
        let _ = lowpass(11, 0.75);
    }
}
