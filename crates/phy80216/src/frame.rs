//! TDD downlink frame generation.
//!
//! The Air4G base station broadcasts continuously in TDD: each 5 ms frame
//! opens with the preamble symbol, followed by the FCH/DL-MAP and downlink
//! bursts, then goes quiet for the uplink subframe. From the jammer's
//! receive port this looks like a periodic burst train — exactly the
//! structure visible on the paper's Fig. 12 oscilloscope capture.

use crate::preamble::{data_bin, preamble_symbol, DATA_CARRIERS};
use crate::{fft_plan, CP_LEN, FFT_LEN, FRAME_SAMPLES, SYM_LEN};
use rjam_sdr::complex::Cf64;
use rjam_sdr::rng::Rng;

/// Downlink generator configuration.
#[derive(Clone, Debug)]
pub struct DownlinkConfig {
    /// Base station Cell ID (0..=31). The paper uses 1.
    pub id_cell: u8,
    /// Segment ID (0..=2). The paper uses 0.
    pub segment: u8,
    /// OFDMA data symbols per downlink subframe (after the preamble).
    pub dl_symbols: usize,
    /// RNG seed for burst payloads.
    pub seed: u64,
}

impl Default for DownlinkConfig {
    fn default() -> Self {
        // ~29 symbols fill a 60% DL subframe at 1152 samples/symbol.
        DownlinkConfig {
            id_cell: 1,
            segment: 0,
            dl_symbols: 28,
            seed: 0x16e,
        }
    }
}

/// Generates downlink frames at 11.4 MHz baseband.
#[derive(Clone, Debug)]
pub struct DownlinkGenerator {
    cfg: DownlinkConfig,
    rng: Rng,
    preamble: Vec<Cf64>,
}

impl DownlinkGenerator {
    /// Creates a generator for a base-station configuration.
    pub fn new(cfg: DownlinkConfig) -> Self {
        let preamble = preamble_symbol(cfg.id_cell, cfg.segment);
        DownlinkGenerator {
            rng: Rng::seed_from(cfg.seed),
            preamble,
            cfg,
        }
    }

    /// The preamble waveform (for building correlator templates host-side).
    pub fn preamble(&self) -> &[Cf64] {
        &self.preamble
    }

    /// Samples occupied by the active downlink subframe.
    pub fn dl_subframe_samples(&self) -> usize {
        (1 + self.cfg.dl_symbols) * SYM_LEN
    }

    /// Generates one 5 ms TDD frame: preamble, data symbols, then silence
    /// for the uplink subframe: every sample from
    /// [`DownlinkGenerator::dl_subframe_samples`] on is `Cf64::ZERO`.
    pub fn next_frame(&mut self) -> Vec<Cf64> {
        let mut out = Vec::with_capacity(FRAME_SAMPLES);
        self.next_frame_into(&mut out);
        out
    }

    /// [`DownlinkGenerator::next_frame`] into a caller-owned buffer (`out`
    /// is cleared and refilled), the same samples bit for bit. Each data
    /// symbol is [`crate::preamble::data_symbol`]'s: its bits come one
    /// `next_u64` each, in the same order, and its QPSK points go straight
    /// to bit-reversed bins for [`rjam_sdr::fft::Fft::inverse_from_bit_reversed`],
    /// which leaves the natural order `inverse` would.
    pub fn next_frame_into(&mut self, out: &mut Vec<Cf64>) {
        let plan = fft_plan();
        let k = 1.0 / 2f64.sqrt();
        let level = [-k, k];
        let mut freq = [Cf64::ZERO; FFT_LEN];
        out.clear();
        out.extend_from_slice(&self.preamble);
        for _ in 0..self.cfg.dl_symbols {
            freq.fill(Cf64::ZERO);
            for carrier in 0..DATA_CARRIERS {
                let re = level[(self.rng.next_u64() & 1) as usize];
                let im = level[(self.rng.next_u64() & 1) as usize];
                freq[plan.bit_reversed_index(data_bin(carrier))] = Cf64::new(re, im);
            }
            plan.inverse_from_bit_reversed(&mut freq);
            out.extend_from_slice(&freq[FFT_LEN - CP_LEN..]);
            out.extend_from_slice(&freq);
        }
        out.resize(FRAME_SAMPLES, Cf64::ZERO); // TDD uplink gap
    }

    /// Generates `n` consecutive frames.
    pub fn frames(&mut self, n: usize) -> Vec<Cf64> {
        let mut out = Vec::with_capacity(n * FRAME_SAMPLES);
        for _ in 0..n {
            out.extend(self.next_frame());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preamble::data_symbol;
    use rjam_sdr::power::mean_power;

    #[test]
    fn frame_duration_exact() {
        let mut g = DownlinkGenerator::new(DownlinkConfig::default());
        let f = g.next_frame();
        assert_eq!(f.len(), FRAME_SAMPLES);
        assert_eq!(FRAME_SAMPLES, 57_000); // 5 ms at 11.4 MHz
    }

    #[test]
    fn frame_starts_with_preamble() {
        let mut g = DownlinkGenerator::new(DownlinkConfig::default());
        let f = g.next_frame();
        let p = g.preamble().to_vec();
        for k in 0..p.len() {
            assert!((f[k] - p[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn tdd_gap_is_silent() {
        let cfg = DownlinkConfig::default();
        let mut g = DownlinkGenerator::new(cfg.clone());
        let f = g.next_frame();
        let active = g.dl_subframe_samples();
        assert!(active < FRAME_SAMPLES, "must leave a UL gap");
        assert!(f[active..].iter().all(|s| *s == Cf64::ZERO));
        // Activity during the DL subframe.
        assert!(mean_power(&f[..active]) > 1e-6);
    }

    #[test]
    fn preamble_repeats_every_frame_data_does_not() {
        let mut g = DownlinkGenerator::new(DownlinkConfig::default());
        let f1 = g.next_frame();
        let f2 = g.next_frame();
        let pl = g.preamble().len();
        for k in 0..pl {
            assert!((f1[k] - f2[k]).abs() < 1e-12, "preambles identical");
        }
        let d1 = &f1[pl..pl + SYM_LEN];
        let d2 = &f2[pl..pl + SYM_LEN];
        let diff: f64 = d1.iter().zip(d2).map(|(a, b)| (*a - *b).norm_sq()).sum();
        assert!(diff > 1e-6, "payload symbols vary frame to frame");
    }

    /// The frame as `next_frame` first built it: [`data_symbol`] per
    /// symbol from a one-bit-per-`next_u64` iterator.
    fn reference_frame(cfg: &DownlinkConfig, rng: &mut Rng) -> Vec<Cf64> {
        let mut bits = std::iter::from_fn(|| Some((rng.next_u64() & 1) as u8));
        let mut out = preamble_symbol(cfg.id_cell, cfg.segment);
        for _ in 0..cfg.dl_symbols {
            out.extend(data_symbol(&mut bits));
        }
        out.resize(FRAME_SAMPLES, Cf64::ZERO);
        out
    }

    #[test]
    fn next_frame_into_matches_the_symbol_by_symbol_frame_bits() {
        let bits = |f: &[Cf64]| -> Vec<(u64, u64)> {
            f.iter().map(|s| (s.re.to_bits(), s.im.to_bits())).collect()
        };
        let mut out = vec![Cf64::ONE; 7];
        for seed in 0..4 {
            for (dl_symbols, segment) in [(28, 0), (0, 1), (60, 2)] {
                let cfg = DownlinkConfig {
                    id_cell: 5,
                    segment,
                    dl_symbols,
                    seed,
                };
                let mut g = DownlinkGenerator::new(cfg.clone());
                let mut rng = Rng::seed_from(seed);
                for frame in 0..3 {
                    let want = reference_frame(&cfg, &mut rng);
                    g.next_frame_into(&mut out);
                    assert_eq!(
                        bits(&out),
                        bits(&want),
                        "seed {seed}, {dl_symbols} symbols, frame {frame}"
                    );
                }
                assert_eq!(
                    bits(&g.next_frame()),
                    bits(&reference_frame(&cfg, &mut rng))
                );
            }
        }
    }

    #[test]
    fn frames_concatenate() {
        let mut g = DownlinkGenerator::new(DownlinkConfig::default());
        let all = g.frames(3);
        assert_eq!(all.len(), 3 * FRAME_SAMPLES);
    }

    #[test]
    fn preamble_duration_close_to_paper() {
        // Paper: "the WiMAX preamble constitutes a single OFDMA symbol ...
        // lasting for 100.8 us". With a 1/8 CP at 11.4 MHz we get 101.05 us.
        let us = SYM_LEN as f64 / crate::SAMPLE_RATE * 1e6;
        assert!((us - 100.8).abs() < 1.0, "preamble symbol lasts {us} us");
    }
}
