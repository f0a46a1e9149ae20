//! OFDM symbol assembly and parsing (clause 18.3.5.9-10).
//!
//! Each data symbol carries 48 data subcarriers and 4 pilots on subcarriers
//! {-21, -7, 7, 21} whose common polarity follows the 127-bit pilot
//! sequence. Symbols are emitted as a 64-point IFFT with a 16-sample cyclic
//! prefix.

use crate::bits::pilot_polarity;
use crate::preamble::sub_to_bin;
use crate::{CP_LEN, FFT_LEN, N_SD, SYM_LEN};
use rjam_sdr::complex::Cf64;
use rjam_sdr::fft::Fft;

/// Data subcarrier indices in transmission order (-26..26 minus DC/pilots).
pub fn data_subcarriers() -> [i32; N_SD] {
    let mut out = [0i32; N_SD];
    let mut i = 0;
    for k in -26..=26 {
        if k == 0 || k == 7 || k == -7 || k == 21 || k == -21 {
            continue;
        }
        out[i] = k;
        i += 1;
    }
    debug_assert_eq!(i, N_SD);
    out
}

/// Pilot subcarrier indices and their base values (before polarity).
pub const PILOTS: [(i32, f64); 4] = [(-21, 1.0), (-7, 1.0), (7, 1.0), (21, -1.0)];

/// FFT bins of the data subcarriers, in transmission order.
pub(crate) fn data_bins() -> [usize; N_SD] {
    data_subcarriers().map(sub_to_bin)
}

/// Builds one time-domain OFDM data symbol (80 samples with CP) from 48
/// mapped constellation points. `symbol_index` selects the pilot polarity
/// (0 is the SIGNAL symbol).
pub fn build_symbol(points: &[Cf64], symbol_index: usize, fft: &Fft) -> Vec<Cf64> {
    assert_eq!(points.len(), N_SD, "48 data points per symbol");
    let mut freq = [Cf64::ZERO; FFT_LEN];
    for (p, bin) in points.iter().zip(data_bins()) {
        freq[fft.bit_reversed_index(bin)] = *p;
    }
    let mut out = Vec::with_capacity(SYM_LEN);
    emit_symbol(&mut freq, symbol_index, fft, &mut out);
    out
}

/// Finishes one OFDM symbol whose data bins the caller has loaded into
/// `freq` at their bit-reversed positions ([`Fft::bit_reversed_index`];
/// every other entry zero): writes the pilots for `symbol_index` there too,
/// runs the IFFT in place and appends the cyclic prefix and the symbol to
/// `out`.
pub(crate) fn emit_symbol(
    freq: &mut [Cf64; FFT_LEN],
    symbol_index: usize,
    fft: &Fft,
    out: &mut Vec<Cf64>,
) {
    let pol = pilot_polarity(symbol_index);
    for (k, v) in PILOTS {
        freq[fft.bit_reversed_index(sub_to_bin(k))] = Cf64::new(v * pol, 0.0);
    }
    fft.inverse_from_bit_reversed(freq);
    out.extend_from_slice(&freq[FFT_LEN - CP_LEN..]);
    out.extend_from_slice(freq);
}

/// Extracted contents of one received OFDM symbol.
#[derive(Clone, Debug)]
pub struct ParsedSymbol {
    /// Equalized data subcarrier points, in transmission order.
    pub data: Vec<Cf64>,
    /// Residual common phase estimated from the pilots (radians).
    pub pilot_phase: f64,
}

/// Parses one received symbol (64 samples, CP already stripped): FFT,
/// per-subcarrier equalization against `channel`, pilot-based common phase
/// correction.
pub fn parse_symbol(
    time: &[Cf64],
    channel: &[Cf64; FFT_LEN],
    symbol_index: usize,
    fft: &Fft,
) -> ParsedSymbol {
    assert_eq!(time.len(), FFT_LEN, "strip the CP before parsing");
    let mut freq = time.to_vec();
    fft.forward(&mut freq);
    // Equalize.
    for (k, f) in freq.iter_mut().enumerate() {
        let h = channel[k];
        if h.norm_sq() > 1e-12 {
            *f = *f / h;
        }
    }
    // Common phase error from the four pilots.
    let pol = pilot_polarity(symbol_index);
    let mut acc = Cf64::ZERO;
    for (k, v) in PILOTS {
        let expected = v * pol;
        acc += freq[sub_to_bin(k)].scale(expected); // rotate by conj(expected)
    }
    let phase = acc.arg();
    let derot = Cf64::from_angle(-phase);
    let data = data_subcarriers()
        .iter()
        .map(|&k| freq[sub_to_bin(k)] * derot)
        .collect();
    ParsedSymbol {
        data,
        pilot_phase: phase,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_sdr::rng::Rng;

    fn random_points(rng: &mut Rng, n: usize) -> Vec<Cf64> {
        (0..n)
            .map(|_| {
                Cf64::new(
                    if rng.chance(0.5) { 0.707 } else { -0.707 },
                    if rng.chance(0.5) { 0.707 } else { -0.707 },
                )
            })
            .collect()
    }

    #[test]
    fn data_subcarrier_layout() {
        let subs = data_subcarriers();
        assert_eq!(subs.len(), 48);
        assert!(!subs.contains(&0));
        assert!(!subs.contains(&7));
        assert!(!subs.contains(&-21));
        assert_eq!(subs[0], -26);
        assert_eq!(subs[47], 26);
    }

    #[test]
    fn symbol_has_cyclic_prefix() {
        let mut rng = Rng::seed_from(60);
        let fft = Fft::new(FFT_LEN);
        let sym = build_symbol(&random_points(&mut rng, 48), 1, &fft);
        assert_eq!(sym.len(), 80);
        for k in 0..CP_LEN {
            assert!(
                (sym[k] - sym[k + FFT_LEN]).abs() < 1e-12,
                "CP mismatch at {k}"
            );
        }
    }

    #[test]
    fn build_parse_roundtrip_flat_channel() {
        let mut rng = Rng::seed_from(61);
        let fft = Fft::new(FFT_LEN);
        let points = random_points(&mut rng, 48);
        let sym = build_symbol(&points, 3, &fft);
        let flat = [Cf64::ONE; FFT_LEN];
        let parsed = parse_symbol(&sym[CP_LEN..], &flat, 3, &fft);
        for (a, b) in parsed.data.iter().zip(points.iter()) {
            assert!((*a - *b).abs() < 1e-9);
        }
        assert!(parsed.pilot_phase.abs() < 1e-9);
    }

    #[test]
    fn equalizes_multiplicative_channel() {
        let mut rng = Rng::seed_from(62);
        let fft = Fft::new(FFT_LEN);
        let points = random_points(&mut rng, 48);
        let sym = build_symbol(&points, 5, &fft);
        // Apply a frequency-selective channel: rotate+scale per bin.
        let mut channel = [Cf64::ONE; FFT_LEN];
        for (k, h) in channel.iter_mut().enumerate() {
            *h = Cf64::from_polar(0.5 + 0.01 * k as f64, 0.03 * k as f64);
        }
        let mut freq = sym[CP_LEN..].to_vec();
        fft.forward(&mut freq);
        for (k, f) in freq.iter_mut().enumerate() {
            *f *= channel[k];
        }
        fft.inverse(&mut freq);
        let parsed = parse_symbol(&freq, &channel, 5, &fft);
        for (a, b) in parsed.data.iter().zip(points.iter()) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn pilot_phase_tracking_corrects_cfo_residual() {
        let mut rng = Rng::seed_from(63);
        let fft = Fft::new(FFT_LEN);
        let points = random_points(&mut rng, 48);
        let sym = build_symbol(&points, 2, &fft);
        // Common rotation of the whole symbol (residual CFO).
        let rot = Cf64::from_angle(0.3);
        let rotated: Vec<Cf64> = sym[CP_LEN..].iter().map(|&s| s * rot).collect();
        let flat = [Cf64::ONE; FFT_LEN];
        let parsed = parse_symbol(&rotated, &flat, 2, &fft);
        assert!((parsed.pilot_phase - 0.3).abs() < 1e-6);
        for (a, b) in parsed.data.iter().zip(points.iter()) {
            assert!((*a - *b).abs() < 1e-9, "phase must be removed");
        }
    }

    #[test]
    fn pilot_polarity_flips_symbolwise() {
        let fft = Fft::new(FFT_LEN);
        let points = vec![Cf64::ZERO; 48];
        // Symbol 0 and symbol 4 have opposite pilot polarity (p0=1, p4=-1).
        let s0 = build_symbol(&points, 0, &fft);
        let s4 = build_symbol(&points, 4, &fft);
        for k in 0..80 {
            assert!(
                (s0[k] + s4[k]).abs() < 1e-12,
                "pilot-only symbols must negate"
            );
        }
    }
}
