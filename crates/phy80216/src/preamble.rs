//! OFDMA downlink preamble construction.
//!
//! The preamble occupies one OFDMA symbol; segment `n` loads subcarrier
//! positions `n + 3k` of the 852 usable positions with BPSK chips from its
//! PN sequence, boosted so the preamble power matches a fully-loaded data
//! symbol. Loading every third subcarrier makes the useful symbol period
//! (nearly) three repetitions of a N/3-sample code.

use crate::pn::pn_sequence;
use crate::{fft_plan, CP_LEN, FFT_LEN, PN_LEN, PREAMBLE_POSITIONS};
use rjam_sdr::complex::Cf64;

/// Absolute FFT-bin indices of segment `segment`'s preamble carriers.
pub fn preamble_carriers(segment: u8) -> Vec<usize> {
    assert!(segment < 3, "segment is 0..=2");
    // Usable band: positions 0..852 mapped onto bins, skipping the guards.
    // Position p corresponds to logical subcarrier (p - 426) around DC.
    (0..PN_LEN)
        .map(|k| {
            let pos = segment as usize + 3 * k;
            debug_assert!(pos < PREAMBLE_POSITIONS);
            let logical = pos as i32 - (PREAMBLE_POSITIONS as i32 / 2); // -426..425
            let bin = if logical >= 0 {
                logical as usize
            } else {
                (FFT_LEN as i32 + logical) as usize
            };
            // Loaded bins must stay out of the guard region: the unused
            // high-|f| bins strictly between PREAMBLE_POSITIONS/2 and
            // FFT_LEN - PREAMBLE_POSITIONS/2.
            debug_assert!(
                bin < FFT_LEN
                    && (bin <= PREAMBLE_POSITIONS / 2 || bin >= FFT_LEN - PREAMBLE_POSITIONS / 2),
            );
            bin
        })
        .collect()
}

/// Builds the time-domain preamble symbol (with cyclic prefix) for a base
/// station identity. The amplitude boost makes preamble power comparable to
/// a fully loaded data symbol (3x power per loaded tone, ~2.4 dB over the
/// per-tone average — the standard boosts by 8/3 in power; we use exactly
/// that).
pub fn preamble_symbol(id_cell: u8, segment: u8) -> Vec<Cf64> {
    let pn = pn_sequence(id_cell, segment);
    let carriers = preamble_carriers(segment);
    let boost = (8.0f64 / 3.0).sqrt();
    let mut freq = vec![Cf64::ZERO; FFT_LEN];
    for (chip, &bin) in pn.iter().zip(&carriers) {
        freq[bin] = Cf64::new(*chip as f64 * boost, 0.0);
    }
    fft_plan().inverse(&mut freq);
    let mut out = Vec::with_capacity(FFT_LEN + CP_LEN);
    out.extend_from_slice(&freq[FFT_LEN - CP_LEN..]);
    out.extend_from_slice(&freq);
    out
}

/// Loaded subcarriers of a data symbol: every usable position but DC.
pub(crate) const DATA_CARRIERS: usize = PREAMBLE_POSITIONS - 1;

/// The FFT bin of a data symbol's `carrier`-th loaded subcarrier
/// (`carrier < DATA_CARRIERS`): the usable positions in ascending order,
/// DC skipped.
pub(crate) fn data_bin(carrier: usize) -> usize {
    let half = PREAMBLE_POSITIONS / 2;
    if carrier < half {
        FFT_LEN - half + carrier // logical -426..=-1
    } else {
        carrier + 1 - half // logical 1..=425
    }
}

/// Builds one fully loaded QPSK data symbol from a bit source (two bits per
/// usable subcarrier), used for FCH/DL-burst filler in downlink frames.
pub fn data_symbol(bits: &mut dyn Iterator<Item = u8>) -> Vec<Cf64> {
    let k = 1.0 / 2f64.sqrt();
    let mut freq = vec![Cf64::ZERO; FFT_LEN];
    for carrier in 0..DATA_CARRIERS {
        let b0 = bits.next().unwrap_or(0);
        let b1 = bits.next().unwrap_or(0);
        freq[data_bin(carrier)] =
            Cf64::new(if b0 == 1 { k } else { -k }, if b1 == 1 { k } else { -k });
    }
    fft_plan().inverse(&mut freq);
    let mut out = Vec::with_capacity(FFT_LEN + CP_LEN);
    out.extend_from_slice(&freq[FFT_LEN - CP_LEN..]);
    out.extend_from_slice(&freq);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_sdr::power::mean_power;

    #[test]
    fn carrier_sets_partition_usable_band() {
        let mut all: Vec<usize> = (0..3).flat_map(preamble_carriers).collect();
        assert_eq!(all.len(), 852);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 852, "segments must not overlap");
    }

    #[test]
    fn carriers_avoid_guard_bands() {
        for seg in 0..3u8 {
            for &bin in &preamble_carriers(seg) {
                // Guard bins: high positive frequencies 427..=511 region and
                // mirrored negatives occupy bins [427, 1024-427]; everything
                // loaded must be outside (426..598) exclusive band center.
                assert!(
                    bin <= 426 || bin >= FFT_LEN - 426,
                    "segment {seg} loads guard bin {bin}"
                );
            }
        }
    }

    #[test]
    fn preamble_symbol_length_and_cp() {
        let sym = preamble_symbol(1, 0);
        assert_eq!(sym.len(), FFT_LEN + CP_LEN);
        for k in 0..CP_LEN {
            assert!((sym[k] - sym[k + FFT_LEN]).abs() < 1e-12, "CP break at {k}");
        }
    }

    #[test]
    fn preamble_repeats_three_times_for_segment0() {
        // Segment 0 loads bins spaced exactly 3 apart (including around DC),
        // so the useful symbol has strong self-similarity at lag N/3.
        let sym = preamble_symbol(1, 0);
        let body = &sym[CP_LEN..];
        // Because 1024 is not divisible by 3 the repetition is approximate;
        // measure normalized correlation at the best of lags {341, 342}.
        let energy: f64 = body.iter().map(|s| s.norm_sq()).sum();
        let mut best = 0.0f64;
        for l in [341usize, 342] {
            let acc: Cf64 = (0..FFT_LEN - l).map(|k| body[k].conj() * body[k + l]).sum();
            best = best.max(acc.abs() / energy * FFT_LEN as f64 / (FFT_LEN - l) as f64);
        }
        assert!(best > 0.85, "repetition correlation {best}");
    }

    #[test]
    fn different_cells_produce_different_preambles() {
        let a = preamble_symbol(1, 0);
        let b = preamble_symbol(2, 0);
        let energy: f64 = a.iter().map(|s| s.norm_sq()).sum();
        let cross: Cf64 = a.iter().zip(&b).map(|(x, y)| x.conj() * *y).sum();
        assert!(cross.abs() / energy < 0.3, "{}", cross.abs() / energy);
    }

    #[test]
    fn preamble_power_boosted_vs_data() {
        let pre = preamble_symbol(1, 0);
        let mut bits = std::iter::repeat([0u8, 1, 1, 0]).flatten();
        let dat = data_symbol(&mut bits);
        let ratio = mean_power(&pre) / mean_power(&dat);
        // 284 boosted tones (8/3 power) vs 851 unit tones: ratio ~ 0.89.
        assert!(ratio > 0.6 && ratio < 1.4, "power ratio {ratio}");
    }

    #[test]
    fn data_symbol_has_dc_null() {
        let mut bits = std::iter::repeat(1u8);
        let sym = data_symbol(&mut bits);
        let mut freq = sym[CP_LEN..].to_vec();
        fft_plan().forward(&mut freq);
        assert!(freq[0].abs() < 1e-9, "DC must be null");
    }
}
