//! The reference receiver: channel estimation and decoding from a known
//! frame start.
//!
//! This is a conventional 802.11a/g OFDM receiver built from the same
//! primitives as the transmitter. It exists to close the loop: detector
//! characterization needs standard-compliant waveforms (TX side), while the
//! packet-error model used by the MAC simulator is validated against this
//! receiver's end-to-end behaviour under noise and jamming.

use crate::bits::{bits_to_bytes, Scrambler};
use crate::convcode::{
    depuncture, depuncture_llr, viterbi_decode, viterbi_decode_soft, CodeRate, SoftBit,
};
use crate::interleave::deinterleave;
use crate::modmap::{demap_soft_stream, demap_stream};
use crate::ofdm::parse_symbol;
use crate::preamble::lts_freq;
use crate::signal::{parse_signal, Rate, SignalInfo};
use crate::{CP_LEN, FFT_LEN, PREAMBLE_LEN, SYM_LEN};
use rjam_sdr::complex::Cf64;
use rjam_sdr::fft::Fft;

/// Receiver failure modes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RxError {
    /// SIGNAL field failed to decode or validate.
    BadSignal,
    /// The frame extends past the supplied sample buffer.
    Truncated,
}

/// A successfully decoded frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodedFrame {
    /// SIGNAL contents (rate and length).
    pub info: SignalInfo,
    /// Recovered PSDU bytes.
    pub psdu: Vec<u8>,
}

/// Recovers the scrambler state from the seven descrambled-known-zero
/// SERVICE bits: since the plaintext was zero, the received bits *are* the
/// scrambler output, and seven consecutive feedback bits fully determine the
/// register.
fn scrambler_from_service(bits: &[u8]) -> Scrambler {
    let mut state = 0u8;
    for &b in &bits[..7] {
        state = ((state << 1) | (b & 1)) & 0x7F;
    }
    // A zero state (all-zero channel) cannot occur legally; substitute the
    // default seed so decoding proceeds (the FCS will catch the garbage).
    Scrambler::new(if state == 0 { 0x5D } else { state })
}

/// Demodulates one OFDM data symbol into coded bits.
fn symbol_coded_bits(
    samples: &[Cf64],
    channel: &[Cf64; FFT_LEN],
    sym_index: usize,
    rate_mod: crate::modmap::Modulation,
    fft: &Fft,
) -> Vec<u8> {
    let parsed = parse_symbol(samples, channel, sym_index, fft);
    demap_stream(&parsed.data, rate_mod)
}

/// Decodes a frame whose preamble begins exactly at `samples[start]`,
/// using hard decisions (the paper-era receiver).
///
/// Performs CFO correction and channel estimation from the long preamble,
/// decodes SIGNAL, then the DATA field. The PSDU is returned without FCS
/// verification (callers decide; see [`crate::bits::check_fcs`]).
pub fn decode_frame(samples: &[Cf64], start: usize) -> Result<DecodedFrame, RxError> {
    decode_frame_impl(samples, start, false)
}

/// Like [`decode_frame`] but with soft-decision (LLR) demapping and
/// decoding of the DATA field — worth ~2 dB of SNR over hard slicing, the
/// classic receiver upgrade (an extension beyond the paper's reference
/// receiver; compare the two in `per`'s ablation test).
pub fn decode_frame_soft(samples: &[Cf64], start: usize) -> Result<DecodedFrame, RxError> {
    decode_frame_impl(samples, start, true)
}

fn decode_frame_impl(samples: &[Cf64], start: usize, soft: bool) -> Result<DecodedFrame, RxError> {
    if samples.len() < start + PREAMBLE_LEN + SYM_LEN {
        return Err(RxError::Truncated);
    }
    let fft = Fft::new(FFT_LEN);

    // CFO estimate from the two LTS copies.
    let lts0 = start + 192;
    let mut acc = Cf64::ZERO;
    for k in 0..64 {
        acc += samples[lts0 + k].conj() * samples[lts0 + 64 + k];
    }
    let cfo = if acc.abs() > 1e-12 {
        acc.arg() / 64.0
    } else {
        0.0
    };
    // Apply CFO correction from the frame start onward into a working copy.
    let frame_len_max = samples.len() - start;
    let mut corrected = Vec::with_capacity(frame_len_max);
    for (k, &s) in samples[start..].iter().enumerate() {
        corrected.push(s * Cf64::from_angle(-cfo * k as f64));
    }

    // Channel estimate: average the two LTS copies in frequency domain.
    let reference = lts_freq();
    let mut channel = [Cf64::ZERO; FFT_LEN];
    for copy in 0..2 {
        let mut f = corrected[192 + copy * 64..192 + (copy + 1) * 64].to_vec();
        fft.forward(&mut f);
        for k in 0..FFT_LEN {
            if reference[k].norm_sq() > 0.5 {
                channel[k] += (f[k] / reference[k]).scale(0.5);
            }
        }
    }
    // Unreferenced bins (DC, guards) get unity to avoid divide-by-zero.
    for c in channel.iter_mut().take(FFT_LEN) {
        if c.norm_sq() < 1e-12 {
            *c = Cf64::ONE;
        }
    }

    // SIGNAL symbol at offset 320 (+CP).
    let sig_start = PREAMBLE_LEN + CP_LEN;
    let sig_coded = symbol_coded_bits(
        &corrected[sig_start..sig_start + FFT_LEN],
        &channel,
        0,
        crate::modmap::Modulation::Bpsk,
        &fft,
    );
    let sig_deint = deinterleave(&sig_coded, 48, 1);
    let sig_soft: Vec<SoftBit> = sig_deint.iter().map(|&b| SoftBit::from_bit(b)).collect();
    let pairs = depuncture(&sig_soft, CodeRate::Half, 24);
    let sig_bits = viterbi_decode(&pairs, 24);
    let info = parse_signal(&sig_bits).ok_or(RxError::BadSignal)?;

    // DATA field.
    let rate: Rate = info.rate;
    let n_sym = rate.n_data_symbols(info.length);
    let data_start = PREAMBLE_LEN + SYM_LEN;
    if corrected.len() < data_start + n_sym * SYM_LEN {
        return Err(RxError::Truncated);
    }
    let n_cbps = rate.n_cbps();
    let n_bpsc = rate.modulation().bits_per_symbol();
    let n_dbps = rate.n_dbps();
    // Demap/deinterleave every symbol, then run ONE Viterbi pass over the
    // whole DATA field (the encoder is continuous and tail-terminated).
    let n_info = n_sym * n_dbps;
    let scrambled = if soft {
        let mut llr_stream = Vec::with_capacity(n_sym * n_cbps);
        for s in 0..n_sym {
            let off = data_start + s * SYM_LEN + CP_LEN;
            let parsed = parse_symbol(&corrected[off..off + FFT_LEN], &channel, s + 1, &fft);
            let llrs = demap_soft_stream(&parsed.data, rate.modulation());
            // Deinterleave the LLRs with the same permutation as bits.
            let mut deint = vec![0i32; n_cbps];
            for (k, slot) in deint.iter_mut().enumerate() {
                *slot = llrs[crate::interleave::interleave_position(k, n_cbps, n_bpsc)];
            }
            llr_stream.extend(deint);
        }
        let pairs = depuncture_llr(&llr_stream, rate.code_rate(), n_info);
        viterbi_decode_soft(&pairs, n_info)
    } else {
        let mut coded_stream = Vec::with_capacity(n_sym * n_cbps);
        for s in 0..n_sym {
            let off = data_start + s * SYM_LEN + CP_LEN;
            let coded = symbol_coded_bits(
                &corrected[off..off + FFT_LEN],
                &channel,
                s + 1,
                rate.modulation(),
                &fft,
            );
            coded_stream.extend(deinterleave(&coded, n_cbps, n_bpsc));
        }
        let hard: Vec<SoftBit> = coded_stream.iter().map(|&b| SoftBit::from_bit(b)).collect();
        let pairs = depuncture(&hard, rate.code_rate(), n_info);
        viterbi_decode(&pairs, n_info)
    };

    // Descramble: recover the seed from the SERVICE prefix.
    let mut descrambler = scrambler_from_service(&scrambled[..7]);
    let mut bits = scrambled;
    // The recovered register already consumed the first 7 bits' worth of
    // state; descramble from bit 7 onward and zero the known SERVICE bits.
    for b in &mut bits[7..] {
        *b ^= descrambler.next_bit();
    }
    for b in &mut bits[..7] {
        *b = 0;
    }
    let psdu_bits = &bits[16..16 + 8 * info.length];
    Ok(DecodedFrame {
        info,
        psdu: bits_to_bytes(psdu_bits),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{modulate_frame, Frame};
    use rjam_sdr::rng::Rng;

    fn frame_with_payload(rate: Rate, len: usize, seed: u64) -> (Frame, Vec<Cf64>) {
        let mut rng = Rng::seed_from(seed);
        let mut psdu = vec![0u8; len];
        rng.fill_bytes(&mut psdu);
        let frame = Frame::new(rate, psdu);
        let wave = modulate_frame(&frame);
        (frame, wave)
    }

    fn add_noise(wave: &[Cf64], snr_db: f64, seed: u64) -> Vec<Cf64> {
        let p = rjam_sdr::power::mean_power(wave);
        let noise_p = p / rjam_sdr::power::db_to_lin(snr_db);
        let mut rng = Rng::seed_from(seed);
        let sigma = (noise_p / 2.0).sqrt();
        wave.iter()
            .map(|&s| s + Cf64::new(rng.gaussian() * sigma, rng.gaussian() * sigma))
            .collect()
    }

    #[test]
    fn noiseless_roundtrip_all_rates() {
        for rate in Rate::ALL {
            let (frame, wave) = frame_with_payload(rate, 120, 80);
            let decoded = decode_frame(&wave, 0).expect("decode");
            assert_eq!(decoded.info.rate, rate);
            assert_eq!(decoded.psdu, frame.psdu, "{rate:?}");
        }
    }

    #[test]
    fn roundtrip_with_noise_at_high_snr() {
        for rate in [Rate::R6, Rate::R24, Rate::R54] {
            let (frame, wave) = frame_with_payload(rate, 200, 81);
            let noisy = add_noise(&wave, 30.0, 82);
            let decoded = decode_frame(&noisy, 0).expect("decode under 30 dB SNR");
            assert_eq!(decoded.psdu, frame.psdu, "{rate:?}");
        }
    }

    #[test]
    fn cfo_is_corrected() {
        let (frame, wave) = frame_with_payload(Rate::R12, 100, 87);
        // 40 kHz CFO at 20 MSPS.
        let cfo = 2.0 * std::f64::consts::PI * 40e3 / 20e6;
        let shifted: Vec<Cf64> = wave
            .iter()
            .enumerate()
            .map(|(k, &s)| s * Cf64::from_angle(cfo * k as f64))
            .collect();
        let decoded = decode_frame(&shifted, 0).expect("decode with CFO");
        assert_eq!(decoded.psdu, frame.psdu);
    }

    #[test]
    fn truncated_buffer_reports_error() {
        let (_, wave) = frame_with_payload(Rate::R6, 500, 89);
        assert_eq!(decode_frame(&wave[..600], 0), Err(RxError::Truncated));
    }

    #[test]
    fn jamming_burst_corrupts_payload() {
        let (frame, wave) = frame_with_payload(Rate::R54, 300, 90);
        // Frame is 320 + 80 + 12*80 = 1360 samples; hit the DATA region.
        let mut jammed = wave.clone();
        let mut rng = Rng::seed_from(91);
        // Overwrite 600 samples (30 us) of DATA with strong noise.
        for s in jammed.iter_mut().skip(500).take(600) {
            *s += Cf64::new(rng.gaussian() * 0.5, rng.gaussian() * 0.5);
        }
        // A decode error is equally acceptable: the SIGNAL region is
        // unaffected here, the payload is garbage.
        if let Ok(decoded) = decode_frame(&jammed, 0) {
            assert_ne!(decoded.psdu, frame.psdu, "burst must corrupt");
        }
    }

    #[test]
    fn scrambler_seed_recovery() {
        for seed in [0x01u8, 0x2A, 0x5D, 0x7F] {
            let mut frame = frame_with_payload(Rate::R12, 60, 92).0;
            frame.scrambler_seed = seed;
            let wave = modulate_frame(&frame);
            let decoded = decode_frame(&wave, 0).expect("decode");
            assert_eq!(decoded.psdu, frame.psdu, "seed {seed:#x}");
        }
    }
}
