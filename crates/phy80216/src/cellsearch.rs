//! Base-station identification (cell search).
//!
//! The paper sets its Air4G to Cell ID 1 / Segment 0 and loads the matching
//! template by hand. A protocol-aware jammer can do better: because each
//! (IDcell, segment) pair owns a distinct PN sequence on a distinct carrier
//! set, correlating a captured preamble against the full codebook
//! identifies the transmitter — enabling targeted jamming of one operator's
//! cell while leaving co-channel neighbours alone.

use crate::pn::pn_sequence;
use crate::preamble::preamble_carriers;
use crate::{fft_plan, CP_LEN, FFT_LEN};
use rjam_sdr::complex::Cf64;

/// A cell-search hypothesis score.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CellScore {
    /// Hypothesized Cell ID (0..=31).
    pub id_cell: u8,
    /// Hypothesized segment (0..=2).
    pub segment: u8,
    /// Normalized correlation metric in `[0, 1]`.
    pub metric: f64,
}

/// Correlates one received preamble symbol (CP already stripped, 1024
/// samples at the native 11.4 MHz rate) against every (IDcell, segment)
/// hypothesis and returns scores sorted best-first.
///
/// # Panics
/// Panics unless exactly [`FFT_LEN`] samples are supplied.
pub fn score_cells(preamble_symbol: &[Cf64]) -> Vec<CellScore> {
    assert_eq!(
        preamble_symbol.len(),
        FFT_LEN,
        "one CP-stripped OFDMA symbol"
    );
    let mut freq = preamble_symbol.to_vec();
    fft_plan().forward(&mut freq);
    let mut scores = Vec::with_capacity(3 * 32);
    for segment in 0..3u8 {
        let carriers = preamble_carriers(segment);
        // Total energy on this segment's carrier set (denominator).
        let set_energy: f64 = carriers.iter().map(|&b| freq[b].norm_sq()).sum();
        for id_cell in 0..32u8 {
            let pn = pn_sequence(id_cell, segment);
            // BPSK chips are real; the channel adds an unknown common phase,
            // so score |sum chip_k * Y_k|^2 normalized by set energy.
            let acc: Cf64 = pn
                .iter()
                .zip(&carriers)
                .map(|(&chip, &bin)| freq[bin].scale(chip as f64))
                .sum();
            let metric = if set_energy > 1e-18 {
                acc.norm_sq() / (set_energy * pn.len() as f64)
            } else {
                0.0
            };
            scores.push(CellScore {
                id_cell,
                segment,
                metric,
            });
        }
    }
    scores.sort_by(|a, b| b.metric.partial_cmp(&a.metric).unwrap());
    scores
}

/// Identifies the transmitting cell, returning the winner and its margin
/// over the runner-up (a margin below ~2 means "don't trust it").
pub fn identify_cell(preamble_symbol: &[Cf64]) -> (CellScore, f64) {
    let scores = score_cells(preamble_symbol);
    let margin = scores[0].metric / scores[1].metric.max(1e-18);
    (scores[0], margin)
}

/// Convenience: locate and identify the preamble inside a downlink frame at
/// the native rate (the preamble is the first symbol; `frame` must start at
/// the frame boundary).
pub fn identify_from_frame(frame: &[Cf64]) -> Option<(CellScore, f64)> {
    if frame.len() < CP_LEN + FFT_LEN {
        return None;
    }
    Some(identify_cell(&frame[CP_LEN..CP_LEN + FFT_LEN]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{DownlinkConfig, DownlinkGenerator};
    use rjam_sdr::rng::Rng;

    fn noisy_frame(id_cell: u8, segment: u8, snr_db: f64, seed: u64) -> Vec<Cf64> {
        let mut gen = DownlinkGenerator::new(DownlinkConfig {
            id_cell,
            segment,
            seed,
            ..DownlinkConfig::default()
        });
        let mut frame = gen.next_frame();
        let p = rjam_sdr::power::mean_power(&frame[..CP_LEN + FFT_LEN]);
        let noise_p = p / rjam_sdr::power::db_to_lin(snr_db);
        let sigma = (noise_p / 2.0).sqrt();
        let mut rng = Rng::seed_from(seed ^ 0xCE11);
        for s in frame.iter_mut() {
            *s += Cf64::new(rng.gaussian() * sigma, rng.gaussian() * sigma);
        }
        frame
    }

    #[test]
    fn identifies_clean_cell() {
        for (id, seg) in [(1u8, 0u8), (7, 1), (31, 2), (0, 0)] {
            let frame = noisy_frame(id, seg, 60.0, 5);
            let (best, margin) = identify_from_frame(&frame).unwrap();
            assert_eq!((best.id_cell, best.segment), (id, seg));
            assert!(margin > 3.0, "({id},{seg}) margin {margin}");
        }
    }

    #[test]
    fn identifies_at_moderate_snr() {
        let frame = noisy_frame(1, 0, 5.0, 9);
        let (best, _) = identify_from_frame(&frame).unwrap();
        assert_eq!((best.id_cell, best.segment), (1, 0));
    }

    #[test]
    fn wrong_hypotheses_score_low() {
        let frame = noisy_frame(1, 0, 40.0, 11);
        let scores = score_cells(&frame[CP_LEN..CP_LEN + FFT_LEN]);
        let best = scores[0];
        assert_eq!((best.id_cell, best.segment), (1, 0));
        assert!(best.metric > 0.8, "matched metric {}", best.metric);
        for s in &scores[1..] {
            assert!(
                s.metric < 0.35,
                "({},{}) scored {}",
                s.id_cell,
                s.segment,
                s.metric
            );
        }
    }

    #[test]
    fn segment_energy_separation() {
        // A segment-1 transmitter puts (nearly) no energy on segment 0's
        // carriers: cross-segment hypotheses collapse.
        let frame = noisy_frame(4, 1, 40.0, 13);
        let scores = score_cells(&frame[CP_LEN..CP_LEN + FFT_LEN]);
        let cross: Vec<&CellScore> = scores.iter().filter(|s| s.segment != 1).collect();
        for s in cross {
            assert!(s.metric < 0.2);
        }
    }

    #[test]
    fn noise_only_gives_no_confident_winner() {
        let mut rng = Rng::seed_from(17);
        let noise: Vec<Cf64> = (0..FFT_LEN)
            .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
            .collect();
        let (best, margin) = identify_cell(&noise);
        assert!(best.metric < 0.1, "metric {}", best.metric);
        assert!(margin < 3.0, "margin {margin}");
    }

    #[test]
    fn short_frame_rejected() {
        assert!(identify_from_frame(&[Cf64::ZERO; 100]).is_none());
    }
}
