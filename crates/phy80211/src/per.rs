//! Analytic SINR -> BER -> packet-error-rate model.
//!
//! The 60-second iperf campaigns of Figs 10-11 involve hundreds of thousands
//! of frames per sweep point; running the sample-level Viterbi receiver for
//! each is infeasible, so the MAC simulator uses this analytic link model:
//! Gray-coded QAM bit-error probabilities over AWGN, pushed through the
//! union bound for the punctured K=7 convolutional code (hard decisions),
//! and aggregated segment-wise so a jamming burst that overlaps part of a
//! packet contributes exactly its share of coded bits at the degraded SINR.
//!
//! Tests validate the model against the actual receiver chain by Monte
//! Carlo at selected operating points.

use crate::convcode::CodeRate;
use crate::modmap::Modulation;
use crate::signal::Rate;
use std::sync::OnceLock;

/// Complementary error function (Abramowitz & Stegun 7.1.26 style rational
/// approximation; absolute error < 1.5e-7, ample for link curves).
fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    poly * (-x * x).exp()
}

/// The Gaussian tail function Q(x).
pub fn q_func(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Raw (uncoded) bit error probability per modulation at a given
/// per-subcarrier SNR (linear Es/N0).
pub fn raw_ber(m: Modulation, snr_lin: f64) -> f64 {
    let snr = snr_lin.max(0.0);
    match m {
        Modulation::Bpsk => q_func((2.0 * snr).sqrt()),
        Modulation::Qpsk => q_func(snr.sqrt()),
        // Gray-coded square M-QAM approximation:
        // Pb ~ 4(1-1/sqrt(M)) / log2(M) * Q( sqrt(3 snr / (M-1)) ).
        Modulation::Qam16 => 0.75 * q_func((snr / 5.0).sqrt()),
        Modulation::Qam64 => (7.0 / 12.0) * q_func((snr / 21.0).sqrt()),
    }
}

/// Pairwise error probability for a path at Hamming distance `d` with
/// channel crossover probability `p` (hard-decision decoding).
fn pairwise(d: usize, p: f64) -> f64 {
    if p <= 0.0 {
        return 0.0;
    }
    if p >= 0.5 {
        return 0.5;
    }
    let mut sum = 0.0;
    // ln-domain binomials to avoid overflow at large d.
    let ln_p = p.ln();
    let ln_q = (1.0 - p).ln();
    let half = d / 2;
    for k in (half + 1)..=d {
        sum += (ln_binom(d, k) + k as f64 * ln_p + (d - k) as f64 * ln_q).exp();
    }
    if d.is_multiple_of(2) {
        sum += 0.5 * (ln_binom(d, half) + half as f64 * ln_p + half as f64 * ln_q).exp();
    }
    sum.min(0.5)
}

fn ln_binom(n: usize, k: usize) -> f64 {
    ln_fact(n) - ln_fact(k) - ln_fact(n - k)
}

/// Largest Hamming distance [`weight_spectrum`] reaches: rate 1/2's
/// `d_free` of 10 plus its six further terms.
const MAX_DISTANCE: usize = 16;

/// `ln n!`, read from a table that [`ln_fact_sum`] fills once per process.
/// The table holds the very `f64` the sum returns for each `n`, so the
/// union bound keeps every bit while skipping hundreds of `ln` calls per BER.
fn ln_fact(n: usize) -> f64 {
    static TABLE: OnceLock<[f64; MAX_DISTANCE + 1]> = OnceLock::new();
    TABLE.get_or_init(|| std::array::from_fn(ln_fact_sum))[n]
}

/// `ln n!` as the sum of `ln i` over `2..=n`.
fn ln_fact_sum(n: usize) -> f64 {
    (2..=n).map(|i| (i as f64).ln()).sum()
}

/// Information-error weight spectra `c_d` for the K=7 (133,171) code and its
/// standard punctured variants (first terms of the union bound).
fn weight_spectrum(rate: CodeRate) -> (usize, &'static [f64]) {
    match rate {
        // d_free = 10; c_d for d = 10,12,14,16,18 (odd distances absent).
        CodeRate::Half => (10, &[36.0, 0.0, 211.0, 0.0, 1404.0, 0.0, 11633.0]),
        // d_free = 6; c_d for d = 6..12.
        CodeRate::TwoThirds => (6, &[3.0, 70.0, 285.0, 1276.0, 6160.0, 27128.0, 117019.0]),
        // d_free = 5; c_d for d = 5..11.
        CodeRate::ThreeQuarters => (
            5,
            &[42.0, 201.0, 1492.0, 10469.0, 62935.0, 379546.0, 2253373.0],
        ),
    }
}

/// Post-Viterbi bit error probability at channel crossover `p`.
pub fn coded_ber(rate: CodeRate, p: f64) -> f64 {
    let (dfree, spectrum) = weight_spectrum(rate);
    let mut pb = 0.0;
    for (i, &c) in spectrum.iter().enumerate() {
        if c > 0.0 {
            pb += c * pairwise(dfree + i, p);
        }
    }
    pb.min(0.5)
}

/// Receiver implementation loss in dB applied by [`ber_at_snr`]: the
/// reference receiver estimates the channel from two noisy LTS copies and
/// demaps hard decisions, costing a few dB versus the ideal-coherent union
/// bound. The value is fit against Monte Carlo runs of the sample-level
/// chain (see the validation test).
pub const IMPL_LOSS_DB: f64 = 2.5;

/// Post-decoder BER for a PHY rate at per-subcarrier SNR in dB, including
/// the receiver implementation loss.
pub fn ber_at_snr(rate: Rate, snr_db: f64) -> f64 {
    let p = raw_ber(
        rate.modulation(),
        rjam_sdr::power::db_to_lin(snr_db - IMPL_LOSS_DB),
    );
    coded_ber(rate.code_rate(), p)
}

/// Packet error probability for a uniform-SNR frame.
pub fn per_at_snr(rate: Rate, snr_db: f64, psdu_len: usize) -> f64 {
    let bits = (16 + 8 * psdu_len + 6) as f64;
    let ber = ber_at_snr(rate, snr_db);
    1.0 - (1.0 - ber).powf(bits)
}

/// One homogeneous stretch of a frame: `fraction` of its bits experience
/// `snr_db`.
#[derive(Clone, Copy, Debug)]
pub struct Segment {
    /// Fraction of the frame's data bits in this segment (0..=1).
    pub fraction: f64,
    /// Per-subcarrier SINR in dB during the segment.
    pub snr_db: f64,
}

/// Packet error probability when different parts of the frame see different
/// SINR — the reactive jamming case. The preamble/SIGNAL are assumed intact
/// (their loss is modeled separately by the MAC as a missed detection).
///
/// Because the interleaver only spans one OFDM symbol, a jam burst covering
/// `fraction` of the frame degrades that fraction of coded bits; the Viterbi
/// decoder sees the burst as a contiguous error region, which the union
/// bound under-estimates, so a burst-concentration exponent is applied:
/// segments shorter than one symbol still corrupt a whole symbol.
pub fn per_segments(rate: Rate, psdu_len: usize, segments: &[Segment]) -> f64 {
    let total_bits = (16 + 8 * psdu_len + 6) as f64;
    let sym_bits = rate.n_dbps() as f64;
    let mut log_success = 0.0f64;
    for seg in segments {
        if seg.fraction <= 0.0 {
            continue;
        }
        // A nonzero overlap always hits at least one full OFDM symbol.
        let bits = (seg.fraction * total_bits).max(sym_bits.min(total_bits));
        let ber = ber_at_snr(rate, seg.snr_db);
        log_success += bits * (1.0 - ber).max(1e-300).ln();
    }
    1.0 - log_success.exp()
}

/// Lowest SNR (dB) at which the rate achieves the target PER for the given
/// frame size; used by the MAC's rate-adaptation thresholds.
pub fn min_snr_for_per(rate: Rate, target_per: f64, psdu_len: usize) -> f64 {
    let mut lo = -10.0;
    let mut hi = 40.0;
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if per_at_snr(rate, mid, psdu_len) > target_per {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The union bound with every binomial term re-summing its three
    /// factorials: the reference the table path must match bit for bit.
    mod per_term {
        use crate::convcode::CodeRate;
        use crate::signal::Rate;

        fn pairwise(d: usize, p: f64) -> f64 {
            if p <= 0.0 {
                return 0.0;
            }
            if p >= 0.5 {
                return 0.5;
            }
            let mut sum = 0.0;
            // ln-domain binomials to avoid overflow at large d.
            let ln_p = p.ln();
            let ln_q = (1.0 - p).ln();
            let half = d / 2;
            for k in (half + 1)..=d {
                sum += (ln_binom(d, k) + k as f64 * ln_p + (d - k) as f64 * ln_q).exp();
            }
            if d.is_multiple_of(2) {
                sum += 0.5 * (ln_binom(d, half) + half as f64 * ln_p + half as f64 * ln_q).exp();
            }
            sum.min(0.5)
        }

        fn ln_binom(n: usize, k: usize) -> f64 {
            ln_fact(n) - ln_fact(k) - ln_fact(n - k)
        }

        fn ln_fact(n: usize) -> f64 {
            (2..=n).map(|i| (i as f64).ln()).sum()
        }

        pub fn coded_ber(rate: CodeRate, p: f64) -> f64 {
            let (dfree, spectrum) = super::weight_spectrum(rate);
            let mut pb = 0.0;
            for (i, &c) in spectrum.iter().enumerate() {
                if c > 0.0 {
                    pb += c * pairwise(dfree + i, p);
                }
            }
            pb.min(0.5)
        }

        pub fn ber_at_snr(rate: Rate, snr_db: f64) -> f64 {
            let p = super::raw_ber(
                rate.modulation(),
                rjam_sdr::power::db_to_lin(snr_db - super::IMPL_LOSS_DB),
            );
            coded_ber(rate.code_rate(), p)
        }
    }

    const CODE_RATES: [CodeRate; 3] =
        [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters];

    #[test]
    fn ln_fact_table_covers_every_spectrum_distance() {
        for rate in CODE_RATES {
            let (dfree, spectrum) = weight_spectrum(rate);
            let largest = dfree + spectrum.len() - 1;
            assert!(
                largest <= MAX_DISTANCE,
                "{rate:?} reaches distance {largest}, the ln k! table ends at {MAX_DISTANCE}"
            );
        }
        for n in 0..=MAX_DISTANCE {
            assert_eq!(ln_fact(n).to_bits(), ln_fact_sum(n).to_bits(), "ln {n}!");
        }
    }

    #[test]
    fn ber_at_snr_matches_the_per_term_sums_bit_for_bit() {
        let grid = (0..=20_000).map(|k| -40.0 + k as f64 * 0.005);
        let edges = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
        for snr_db in grid.chain(edges) {
            for rate in Rate::ALL {
                assert_eq!(
                    ber_at_snr(rate, snr_db).to_bits(),
                    per_term::ber_at_snr(rate, snr_db).to_bits(),
                    "{rate:?} at {snr_db} dB"
                );
            }
        }
    }

    #[test]
    fn coded_ber_matches_the_per_term_sums_bit_for_bit() {
        let below_half = f64::from_bits(0.5f64.to_bits() - 1);
        for p in [-0.0, 0.0, 5e-324, 1e-300, 1e-12, 0.3, below_half, 0.5, 0.7] {
            for rate in CODE_RATES {
                assert_eq!(
                    coded_ber(rate, p).to_bits(),
                    per_term::coded_ber(rate, p).to_bits(),
                    "{rate:?} at p = {p:e}"
                );
            }
        }
    }

    #[test]
    fn q_func_known_values() {
        assert!((q_func(0.0) - 0.5).abs() < 1e-7);
        assert!((q_func(1.0) - 0.1586553).abs() < 1e-4);
        assert!((q_func(3.0) - 0.0013499).abs() < 1e-5);
        assert!(q_func(10.0) < 1e-20);
    }

    #[test]
    fn raw_ber_ordering_by_modulation() {
        // The Gray-QAM approximations only order cleanly once the curves
        // leave their low-SNR saturation region (~0.25-0.5 error rate).
        for snr_db in [5.0, 10.0, 15.0, 20.0] {
            let snr = rjam_sdr::power::db_to_lin(snr_db);
            let b = raw_ber(Modulation::Bpsk, snr);
            let q = raw_ber(Modulation::Qpsk, snr);
            let q16 = raw_ber(Modulation::Qam16, snr);
            let q64 = raw_ber(Modulation::Qam64, snr);
            assert!(b <= q && q <= q16 && q16 <= q64, "at {snr_db} dB");
        }
    }

    #[test]
    fn coded_ber_monotone_in_crossover() {
        for rate in CODE_RATES {
            let mut last = 0.0;
            for p in [1e-4, 1e-3, 1e-2, 5e-2, 0.1] {
                let b = coded_ber(rate, p);
                assert!(b >= last, "{rate:?} at p={p}");
                last = b;
            }
        }
    }

    #[test]
    fn coding_gain_positive() {
        // At p = 1e-2 the rate-1/2 code must beat the raw channel by orders
        // of magnitude.
        let coded = coded_ber(CodeRate::Half, 1e-2);
        assert!(coded < 1e-5, "coded={coded}");
        // Weaker codes do worse at equal p.
        assert!(coded_ber(CodeRate::ThreeQuarters, 1e-2) > coded);
    }

    #[test]
    fn per_curves_are_cliffs() {
        // 802.11 PER curves fall from ~1 to ~0 within a few dB.
        for rate in [Rate::R6, Rate::R54] {
            let hi = per_at_snr(rate, 40.0, 1470);
            let lo = per_at_snr(rate, -5.0, 1470);
            assert!(hi < 1e-6, "{rate:?} hi-SNR PER {hi}");
            assert!(lo > 0.999, "{rate:?} lo-SNR PER {lo}");
            // Locate the 50% point and check the 10-90 width < 4 dB.
            let mid = min_snr_for_per(rate, 0.5, 1470);
            let w_lo = min_snr_for_per(rate, 0.9, 1470);
            let w_hi = min_snr_for_per(rate, 0.1, 1470);
            assert!(w_hi - w_lo < 4.0, "{rate:?} cliff width {}", w_hi - w_lo);
            assert!(w_lo <= mid && mid <= w_hi);
        }
    }

    #[test]
    fn rate_thresholds_are_ordered() {
        let mut last = -100.0;
        for rate in Rate::ALL {
            let thr = min_snr_for_per(rate, 0.1, 1470);
            assert!(thr > last, "{rate:?} threshold {thr} vs {last}");
            last = thr;
        }
        // Sanity band (incl. 2.5 dB implementation loss): R6 decodes below
        // ~10 dB, R54 needs ~20+ dB.
        assert!(min_snr_for_per(Rate::R6, 0.1, 1470) < 10.5);
        assert!(min_snr_for_per(Rate::R54, 0.1, 1470) > 18.0);
    }

    #[test]
    fn segments_reduce_to_uniform() {
        let uniform = per_at_snr(Rate::R24, 12.0, 500);
        let seg = per_segments(
            Rate::R24,
            500,
            &[Segment {
                fraction: 1.0,
                snr_db: 12.0,
            }],
        );
        assert!((uniform - seg).abs() < 1e-9);
    }

    #[test]
    fn short_jam_burst_still_kills_when_strong() {
        // 1% of a frame at -5 dB SINR: that symbol is hopeless, so the
        // packet is lost with near certainty.
        let per = per_segments(
            Rate::R54,
            1470,
            &[
                Segment {
                    fraction: 0.99,
                    snr_db: 35.0,
                },
                Segment {
                    fraction: 0.01,
                    snr_db: -5.0,
                },
            ],
        );
        assert!(per > 0.99, "per={per}");
    }

    #[test]
    fn weak_jam_burst_is_survivable() {
        let per = per_segments(
            Rate::R6,
            1470,
            &[
                Segment {
                    fraction: 0.99,
                    snr_db: 35.0,
                },
                Segment {
                    fraction: 0.01,
                    snr_db: 12.0,
                },
            ],
        );
        assert!(per < 0.05, "per={per}");
    }

    #[test]
    fn soft_decisions_beat_hard_at_the_cliff() {
        // Ablation: at an SNR where the hard-decision receiver is in the
        // middle of its PER cliff, the soft-decision receiver must do
        // clearly better (the textbook ~2 dB coding gain).
        use crate::tx::{modulate_frame, Frame};
        use rjam_sdr::complex::Cf64;
        use rjam_sdr::rng::Rng;

        let rate = Rate::R12;
        let len = 100usize;
        let snr_db = min_snr_for_per(rate, 0.5, len); // hard-path midpoint
        let mut rng = Rng::seed_from(4242);
        let trials = 60;
        let mut hard_err = 0;
        let mut soft_err = 0;
        for _ in 0..trials {
            let mut psdu = vec![0u8; len];
            rng.fill_bytes(&mut psdu);
            let frame = Frame::new(rate, psdu.clone());
            let wave = modulate_frame(&frame);
            let p = rjam_sdr::power::mean_power(&wave[400..]);
            let sigma = (p / rjam_sdr::power::db_to_lin(snr_db) / 2.0).sqrt();
            let noisy: Vec<Cf64> = wave
                .iter()
                .map(|&s| s + Cf64::new(rng.gaussian() * sigma, rng.gaussian() * sigma))
                .collect();
            match crate::rx::decode_frame(&noisy, 0) {
                Ok(d) if d.psdu == psdu => {}
                _ => hard_err += 1,
            }
            match crate::rx::decode_frame_soft(&noisy, 0) {
                Ok(d) if d.psdu == psdu => {}
                _ => soft_err += 1,
            }
        }
        assert!(
            soft_err * 2 <= hard_err.max(1),
            "soft must at least halve the error count: hard {hard_err}, soft {soft_err} / {trials}"
        );
    }

    #[test]
    fn monte_carlo_validation_against_real_receiver() {
        // Validate the analytic model's cliff location against the
        // sample-level chain at rate R12: PER must transition between
        // the model's 90% and 10% points within ~2 dB slack.
        use crate::tx::{modulate_frame, Frame};
        use rjam_sdr::complex::Cf64;
        use rjam_sdr::rng::Rng;

        let rate = Rate::R12;
        let len = 100usize;
        let lo_db = min_snr_for_per(rate, 0.9, len) - 2.0;
        let hi_db = min_snr_for_per(rate, 0.1, len) + 2.0;

        let run = |snr_db: f64, seed: u64| -> f64 {
            let mut rng = Rng::seed_from(seed);
            let trials = 40;
            let mut errors = 0;
            for _ in 0..trials {
                let mut psdu = vec![0u8; len];
                rng.fill_bytes(&mut psdu);
                let frame = Frame::new(rate, psdu.clone());
                let wave = modulate_frame(&frame);
                // Per-subcarrier SNR equals time-domain SNR for OFDM.
                let p = rjam_sdr::power::mean_power(&wave[400..]);
                let noise_p = p / rjam_sdr::power::db_to_lin(snr_db);
                let sigma = (noise_p / 2.0).sqrt();
                let noisy: Vec<Cf64> = wave
                    .iter()
                    .map(|&s| s + Cf64::new(rng.gaussian() * sigma, rng.gaussian() * sigma))
                    .collect();
                match crate::rx::decode_frame(&noisy, 0) {
                    Ok(d) if d.psdu == psdu => {}
                    _ => errors += 1,
                }
            }
            errors as f64 / trials as f64
        };

        let per_lo_snr = run(lo_db, 1001);
        let per_hi_snr = run(hi_db, 1002);
        assert!(
            per_lo_snr > 0.5,
            "below the cliff the receiver must fail often: {per_lo_snr} at {lo_db:.1} dB"
        );
        assert!(
            per_hi_snr < 0.2,
            "above the cliff the receiver must mostly succeed: {per_hi_snr} at {hi_db:.1} dB"
        );
    }
}
