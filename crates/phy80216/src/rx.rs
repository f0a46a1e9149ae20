//! Downlink data-symbol demodulation.
//!
//! A reference receiver for the generator's QPSK burst symbols: FFT, DC
//! skip, hard QPSK slicing over the 851 used subcarriers. It closes the
//! WiMAX loop the same way `rjam-phy80211::rx` closes the WiFi one — so
//! tests can show a jam burst corrupting downlink *data*, not just that a
//! burst happened.

use crate::{fft_plan, CP_LEN, FFT_LEN, PREAMBLE_POSITIONS};
use rjam_sdr::complex::Cf64;

/// Demodulates one data symbol (CP included, 1152 samples) into the QPSK
/// bit stream it carries (2 bits per used subcarrier, 1702 bits), assuming
/// a flat unit channel (the generator's output domain).
///
/// # Panics
/// Panics unless exactly [`crate::SYM_LEN`] samples are supplied.
pub fn demod_data_symbol(symbol: &[Cf64]) -> Vec<u8> {
    assert_eq!(symbol.len(), CP_LEN + FFT_LEN, "one full OFDMA symbol");
    let mut freq = symbol[CP_LEN..].to_vec();
    fft_plan().forward(&mut freq);
    let mut bits = Vec::with_capacity((PREAMBLE_POSITIONS - 1) * 2);
    for pos in 0..PREAMBLE_POSITIONS {
        let logical = pos as i32 - (PREAMBLE_POSITIONS as i32 / 2);
        if logical == 0 {
            continue; // DC null carries nothing
        }
        let bin = if logical >= 0 {
            logical as usize
        } else {
            (FFT_LEN as i32 + logical) as usize
        };
        let s = freq[bin];
        bits.push(u8::from(s.re >= 0.0));
        bits.push(u8::from(s.im >= 0.0));
    }
    bits
}

/// Bit error count between two equal-length bit slices.
pub fn bit_errors(a: &[u8], b: &[u8]) -> usize {
    assert_eq!(a.len(), b.len(), "compare equal-length streams");
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preamble::data_symbol;
    use crate::SYM_LEN;
    use rjam_sdr::rng::Rng;

    fn known_bits(n: usize, seed: u64) -> Vec<u8> {
        let mut rng = Rng::seed_from(seed);
        (0..n).map(|_| (rng.next_u64() & 1) as u8).collect()
    }

    #[test]
    fn noiseless_roundtrip() {
        let bits = known_bits((PREAMBLE_POSITIONS - 1) * 2, 1);
        let mut it = bits.iter().copied();
        let sym = data_symbol(&mut it);
        assert_eq!(sym.len(), SYM_LEN);
        let back = demod_data_symbol(&sym);
        assert_eq!(back, bits);
    }

    #[test]
    fn survives_moderate_noise() {
        let bits = known_bits((PREAMBLE_POSITIONS - 1) * 2, 2);
        let mut it = bits.iter().copied();
        let mut sym = data_symbol(&mut it);
        let p = rjam_sdr::power::mean_power(&sym);
        let sigma = (p / rjam_sdr::power::db_to_lin(20.0) / 2.0).sqrt();
        let mut rng = Rng::seed_from(3);
        for s in sym.iter_mut() {
            *s += rjam_sdr::complex::Cf64::new(rng.gaussian() * sigma, rng.gaussian() * sigma);
        }
        let back = demod_data_symbol(&sym);
        let errs = bit_errors(&back, &bits);
        assert!(errs < 5, "{errs} bit errors at 20 dB SNR");
    }

    #[test]
    fn jam_burst_corrupts_data() {
        let bits = known_bits((PREAMBLE_POSITIONS - 1) * 2, 4);
        let mut it = bits.iter().copied();
        let mut sym = data_symbol(&mut it);
        // A strong 300-sample burst inside the useful part.
        let mut rng = Rng::seed_from(5);
        let amp = 10.0 * rjam_sdr::power::mean_power(&sym).sqrt();
        for s in sym[CP_LEN + 200..CP_LEN + 500].iter_mut() {
            *s += rjam_sdr::complex::Cf64::new(rng.gaussian() * amp, rng.gaussian() * amp);
        }
        let back = demod_data_symbol(&sym);
        let errs = bit_errors(&back, &bits);
        // A time-domain burst smears across ALL subcarriers after the FFT:
        // expect a large fraction of the symbol's bits to flip.
        assert!(
            errs > bits.len() / 10,
            "only {errs} errors of {}",
            bits.len()
        );
    }

    #[test]
    #[should_panic(expected = "one full OFDMA symbol")]
    fn wrong_length_rejected() {
        let _ = demod_data_symbol(&[rjam_sdr::complex::Cf64::ZERO; 100]);
    }
}
