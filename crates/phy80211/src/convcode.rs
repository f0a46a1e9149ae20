//! The K=7 convolutional code (g0 = 133o, g1 = 171o), puncturing, and a
//! hard-decision Viterbi decoder.
//!
//! All 802.11a/g rates derive from this rate-1/2 mother code; rates 2/3 and
//! 3/4 puncture it. The decoder runs a full-trellis traceback over the whole
//! frame (the encoder is tail-terminated with six zero bits), with punctured
//! positions treated as erasures that contribute no branch metric.

/// Generator polynomials (octal 133 and 171), 7-bit constraint length.
const G0: u8 = 0o133;
const G1: u8 = 0o171;
/// Number of encoder states.
const STATES: usize = 64;

/// Coding rate of the punctured stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CodeRate {
    /// Mother code, no puncturing.
    Half,
    /// Puncture pattern `[1 1; 1 0]`.
    TwoThirds,
    /// Puncture pattern `[1 1 0; 1 0 1]`.
    ThreeQuarters,
}

impl CodeRate {
    /// Output bits per input bit numerator/denominator (input, output).
    pub fn ratio(self) -> (usize, usize) {
        match self {
            CodeRate::Half => (1, 2),
            CodeRate::TwoThirds => (2, 3),
            CodeRate::ThreeQuarters => (3, 4),
        }
    }

    /// Puncture keep-pattern over the A/B output pair stream, as
    /// `(a_kept, b_kept)` per input bit within the pattern period.
    pub(crate) fn pattern(self) -> &'static [(bool, bool)] {
        match self {
            CodeRate::Half => &[(true, true)],
            CodeRate::TwoThirds => &[(true, true), (true, false)],
            CodeRate::ThreeQuarters => &[(true, true), (true, false), (false, true)],
        }
    }
}

#[inline]
const fn parity(x: u8) -> u8 {
    (x.count_ones() & 1) as u8
}

/// Encoder output pair for every 7-bit register value
/// `(input << 6) | state`: bit 0 is output A (g0 parity), bit 1 output B
/// (g1 parity).
const ENC_OUT: [u8; 128] = {
    let mut table = [0u8; 128];
    let mut reg = 0;
    while reg < 128 {
        table[reg] = parity(reg as u8 & G0) | (parity(reg as u8 & G1) << 1);
        reg += 1;
    }
    table
};

/// The rate-1/2 mother encoder as a streaming state machine, starting in
/// state 0.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Encoder {
    state: u8,
}

impl Encoder {
    /// Shifts in bit `b` and returns its `(A, B)` output pair.
    #[inline]
    pub(crate) fn push(&mut self, b: u8) -> (u8, u8) {
        let reg = ((b << 6) | self.state) & 0x7F;
        self.state = reg >> 1;
        let out = ENC_OUT[reg as usize];
        (out & 1, out >> 1)
    }
}

/// Encodes `bits` with the rate-1/2 mother code (no tail added here).
pub fn encode_half(bits: &[u8]) -> Vec<u8> {
    let mut enc = Encoder::default();
    let mut out = Vec::with_capacity(bits.len() * 2);
    for &b in bits {
        let (a, b) = enc.push(b);
        out.push(a);
        out.push(b);
    }
    out
}

/// Encodes and punctures to the requested rate.
pub fn encode(bits: &[u8], rate: CodeRate) -> Vec<u8> {
    let coded = encode_half(bits);
    let pat = rate.pattern();
    let mut out = Vec::with_capacity(coded.len());
    for (i, pair) in coded.chunks(2).enumerate() {
        let (keep_a, keep_b) = pat[i % pat.len()];
        if keep_a {
            out.push(pair[0]);
        }
        if keep_b {
            out.push(pair[1]);
        }
    }
    out
}

/// A received coded bit, possibly an erasure (punctured position).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SoftBit {
    /// Hard zero.
    Zero,
    /// Hard one.
    One,
    /// No information (punctured or erased by jamming).
    Erased,
}

impl SoftBit {
    /// Hamming-style branch cost against an expected bit.
    #[inline]
    fn cost(self, expected: u8) -> u32 {
        match self {
            SoftBit::Erased => 0,
            SoftBit::Zero => expected as u32,
            SoftBit::One => 1 - expected as u32,
        }
    }

    /// Converts a hard bit.
    pub fn from_bit(b: u8) -> Self {
        if b & 1 == 1 {
            SoftBit::One
        } else {
            SoftBit::Zero
        }
    }
}

/// Re-inserts erasures for punctured positions, producing the A/B pair
/// stream the decoder trellis expects. `n_info` is the number of input
/// (information) bits the stream encodes.
pub fn depuncture(received: &[SoftBit], rate: CodeRate, n_info: usize) -> Vec<SoftBit> {
    let pat = rate.pattern();
    let mut out = Vec::with_capacity(n_info * 2);
    let mut it = received.iter();
    for i in 0..n_info {
        let (keep_a, keep_b) = pat[i % pat.len()];
        out.push(if keep_a {
            *it.next().unwrap_or(&SoftBit::Erased)
        } else {
            SoftBit::Erased
        });
        out.push(if keep_b {
            *it.next().unwrap_or(&SoftBit::Erased)
        } else {
            SoftBit::Erased
        });
    }
    out
}

/// Viterbi decoder over the depunctured pair stream (2 soft bits per info
/// bit). Assumes the encoder started in state 0; if the frame was
/// tail-terminated the final state 0 is preferred in traceback.
pub fn viterbi_decode(pairs: &[SoftBit], n_info: usize) -> Vec<u8> {
    assert_eq!(
        pairs.len(),
        n_info * 2,
        "need exactly 2 soft bits per info bit"
    );
    const INF: u32 = u32::MAX / 2;

    // Precompute branch outputs: for (state, input) -> (a, b, next_state).
    let mut branch = [[(0u8, 0u8, 0usize); 2]; STATES];
    for (state, row) in branch.iter_mut().enumerate() {
        for (input, slot) in row.iter_mut().enumerate() {
            let reg = ((input as u8) << 6) | state as u8;
            *slot = (
                parity(reg & G0),
                parity(reg & G1),
                ((reg >> 1) & 0x3F) as usize,
            );
        }
    }

    let mut metric = [INF; STATES];
    metric[0] = 0;
    // survivors[t][next_state] = (prev_state, input_bit)
    let mut survivors: Vec<[(u8, u8); STATES]> = Vec::with_capacity(n_info);

    for t in 0..n_info {
        let a = pairs[2 * t];
        let b = pairs[2 * t + 1];
        let mut next = [INF; STATES];
        let mut surv = [(0u8, 0u8); STATES];
        for state in 0..STATES {
            let m = metric[state];
            if m >= INF {
                continue;
            }
            for (input, &(ea, eb, ns)) in branch[state].iter().enumerate() {
                let cost = m + a.cost(ea) + b.cost(eb);
                if cost < next[ns] {
                    next[ns] = cost;
                    surv[ns] = (state as u8, input as u8);
                }
            }
        }
        metric = next;
        survivors.push(surv);
    }

    // Prefer the zero state (tail-terminated); otherwise the best metric.
    let mut state = if metric[0] < INF && metric[0] <= *metric.iter().min().unwrap() {
        0usize
    } else {
        metric
            .iter()
            .enumerate()
            .min_by_key(|(_, &m)| m)
            .map(|(s, _)| s)
            .unwrap()
    };
    let mut bits = vec![0u8; n_info];
    for t in (0..n_info).rev() {
        let (prev, input) = survivors[t][state];
        bits[t] = input;
        state = prev as usize;
    }
    bits
}

/// Convenience: decode hard bits at a given rate back to `n_info` info bits.
pub fn decode(received_hard: &[u8], rate: CodeRate, n_info: usize) -> Vec<u8> {
    let soft: Vec<SoftBit> = received_hard
        .iter()
        .map(|&b| SoftBit::from_bit(b))
        .collect();
    let pairs = depuncture(&soft, rate, n_info);
    viterbi_decode(&pairs, n_info)
}

/// Re-inserts zero-confidence values for punctured positions in an LLR
/// stream (soft-decision path).
pub fn depuncture_llr(received: &[i32], rate: CodeRate, n_info: usize) -> Vec<i32> {
    let pat = rate.pattern();
    let mut out = Vec::with_capacity(n_info * 2);
    let mut it = received.iter();
    for i in 0..n_info {
        let (keep_a, keep_b) = pat[i % pat.len()];
        out.push(if keep_a { *it.next().unwrap_or(&0) } else { 0 });
        out.push(if keep_b { *it.next().unwrap_or(&0) } else { 0 });
    }
    out
}

/// Soft-decision Viterbi decoder over an LLR pair stream.
///
/// Each value is a signed confidence: positive means "bit 1 likely", with
/// magnitude proportional to reliability (zero = erasure). Branch metric is
/// the correlation of expected bits (mapped 0 -> -1, 1 -> +1) with the
/// LLRs; the survivor maximizes it. Soft decisions buy the classic ~2 dB
/// over hard slicing (validated against the hard path in `per` tests).
pub fn viterbi_decode_soft(llr_pairs: &[i32], n_info: usize) -> Vec<u8> {
    assert_eq!(
        llr_pairs.len(),
        n_info * 2,
        "need exactly 2 LLRs per info bit"
    );
    const NEG_INF: i64 = i64::MIN / 4;

    let mut branch = [[(0i64, 0i64, 0usize); 2]; STATES];
    for (state, row) in branch.iter_mut().enumerate() {
        for (input, slot) in row.iter_mut().enumerate() {
            let reg = ((input as u8) << 6) | state as u8;
            let a = if parity(reg & G0) == 1 { 1i64 } else { -1 };
            let b = if parity(reg & G1) == 1 { 1i64 } else { -1 };
            *slot = (a, b, ((reg >> 1) & 0x3F) as usize);
        }
    }

    let mut metric = [NEG_INF; STATES];
    metric[0] = 0;
    let mut survivors: Vec<[(u8, u8); STATES]> = Vec::with_capacity(n_info);
    for t in 0..n_info {
        let la = llr_pairs[2 * t] as i64;
        let lb = llr_pairs[2 * t + 1] as i64;
        let mut next = [NEG_INF; STATES];
        let mut surv = [(0u8, 0u8); STATES];
        for state in 0..STATES {
            let m = metric[state];
            if m <= NEG_INF {
                continue;
            }
            for (input, &(ea, eb, ns)) in branch[state].iter().enumerate() {
                let gain = m + ea * la + eb * lb;
                if gain > next[ns] {
                    next[ns] = gain;
                    surv[ns] = (state as u8, input as u8);
                }
            }
        }
        metric = next;
        survivors.push(surv);
    }
    // Prefer state zero only when it ties the best metric (tail-terminated
    // blocks); otherwise take the best survivor (per-symbol decoding ends
    // mid-trellis).
    let best = *metric.iter().max().unwrap();
    let mut state = if metric[0] == best {
        0usize
    } else {
        metric.iter().position(|&m| m == best).unwrap()
    };
    let mut bits = vec![0u8; n_info];
    for t in (0..n_info).rev() {
        let (prev, input) = survivors[t][state];
        bits[t] = input;
        state = prev as usize;
    }
    bits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_sdr::rng::Rng;

    fn random_bits(rng: &mut Rng, n: usize) -> Vec<u8> {
        (0..n).map(|_| (rng.next_u64() & 1) as u8).collect()
    }

    /// Appends the 6 zero tail bits the standard uses to flush the encoder.
    fn with_tail(mut bits: Vec<u8>) -> Vec<u8> {
        bits.extend_from_slice(&[0; 6]);
        bits
    }

    #[test]
    fn encoder_known_vector() {
        // All-zero input produces all-zero output; a single 1 produces the
        // generator impulse responses g0 = 133o = 1011011 and g1 = 171o =
        // 1111001 (MSB first), interleaved A/B.
        assert_eq!(encode_half(&[0, 0, 0]), vec![0, 0, 0, 0, 0, 0]);
        let ir = encode_half(&[1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(ir, vec![1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 1, 0, 1, 1]);
    }

    #[test]
    fn encoder_table_matches_parities() {
        for reg in 0..128u8 {
            let want = parity(reg & G0) | (parity(reg & G1) << 1);
            assert_eq!(ENC_OUT[reg as usize], want, "reg {reg:#b}");
        }
    }

    #[test]
    fn rate_ratios() {
        assert_eq!(CodeRate::Half.ratio(), (1, 2));
        assert_eq!(CodeRate::TwoThirds.ratio(), (2, 3));
        assert_eq!(CodeRate::ThreeQuarters.ratio(), (3, 4));
    }

    #[test]
    fn punctured_lengths() {
        let bits = vec![0u8; 12];
        assert_eq!(encode(&bits, CodeRate::Half).len(), 24);
        assert_eq!(encode(&bits, CodeRate::TwoThirds).len(), 18);
        assert_eq!(encode(&bits, CodeRate::ThreeQuarters).len(), 16);
    }

    #[test]
    fn decode_noiseless_all_rates() {
        let mut rng = Rng::seed_from(30);
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            // Pattern-period-aligned length keeps the puncturer exact.
            let info = with_tail(random_bits(&mut rng, 120));
            let coded = encode(&info, rate);
            let decoded = decode(&coded, rate, info.len());
            assert_eq!(decoded, info, "rate {rate:?}");
        }
    }

    #[test]
    fn corrects_scattered_errors_rate_half() {
        let mut rng = Rng::seed_from(31);
        let info = with_tail(random_bits(&mut rng, 200));
        let mut coded = encode(&info, CodeRate::Half);
        // Flip well-separated bits (beyond the ~5-bit correction span each).
        for pos in [10usize, 80, 150, 230, 310, 390] {
            coded[pos] ^= 1;
        }
        let decoded = decode(&coded, CodeRate::Half, info.len());
        assert_eq!(decoded, info);
    }

    #[test]
    fn burst_errors_break_decoding() {
        // The property reactive jamming exploits: a dense burst defeats the
        // code even when the average BER is modest.
        let mut rng = Rng::seed_from(32);
        let info = with_tail(random_bits(&mut rng, 200));
        let mut coded = encode(&info, CodeRate::Half);
        for b in coded.iter_mut().skip(100).take(60) {
            *b ^= 1; // 60-bit contiguous burst
        }
        let decoded = decode(&coded, CodeRate::Half, info.len());
        assert_ne!(decoded, info, "a long burst must defeat the decoder");
    }

    #[test]
    fn erasures_tolerated_up_to_puncture_limit() {
        let mut rng = Rng::seed_from(33);
        let info = with_tail(random_bits(&mut rng, 120));
        let coded = encode(&info, CodeRate::Half);
        let mut soft: Vec<SoftBit> = coded.iter().map(|&b| SoftBit::from_bit(b)).collect();
        // Erase every 4th bit: the decoder must still recover (equivalent to
        // 3/4-rate information content).
        for (i, s) in soft.iter_mut().enumerate() {
            if i % 4 == 0 {
                *s = SoftBit::Erased;
            }
        }
        let pairs = depuncture(&soft, CodeRate::Half, info.len());
        assert_eq!(viterbi_decode(&pairs, info.len()), info);
    }

    #[test]
    fn three_quarters_corrects_single_error() {
        let mut rng = Rng::seed_from(34);
        let info = with_tail(random_bits(&mut rng, 120));
        let mut coded = encode(&info, CodeRate::ThreeQuarters);
        coded[40] ^= 1;
        let decoded = decode(&coded, CodeRate::ThreeQuarters, info.len());
        assert_eq!(decoded, info);
    }

    #[test]
    fn depuncture_restores_pair_count() {
        let soft = vec![SoftBit::One; 16];
        let pairs = depuncture(&soft, CodeRate::ThreeQuarters, 12);
        assert_eq!(pairs.len(), 24);
        let erased = pairs.iter().filter(|&&s| s == SoftBit::Erased).count();
        assert_eq!(erased, 8, "3/4 rate erases 2 of every 6 mother bits");
    }

    #[test]
    fn soft_decoder_matches_hard_on_clean_input() {
        let mut rng = Rng::seed_from(35);
        for rate in [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters] {
            let info = with_tail(random_bits(&mut rng, 120));
            let coded = encode(&info, rate);
            let llrs: Vec<i32> = coded
                .iter()
                .map(|&b| if b == 1 { 64 } else { -64 })
                .collect();
            let pairs = depuncture_llr(&llrs, rate, info.len());
            assert_eq!(viterbi_decode_soft(&pairs, info.len()), info, "{rate:?}");
        }
    }

    #[test]
    fn soft_decoder_uses_reliability() {
        // Three confidently-wrong bits would defeat a hard decoder given
        // their placement, but with low confidence the soft decoder shrugs
        // them off while trusting the reliable majority.
        let mut rng = Rng::seed_from(36);
        let info = with_tail(random_bits(&mut rng, 120));
        let coded = encode(&info, CodeRate::Half);
        let mut llrs: Vec<i32> = coded
            .iter()
            .map(|&b| if b == 1 { 64 } else { -64 })
            .collect();
        // Dense burst of weakly-wrong bits (hard decoder sees 12 errors in
        // a row, beyond its correction span).
        for l in llrs.iter_mut().skip(60).take(12) {
            *l = if *l > 0 { -3 } else { 3 };
        }
        let hard: Vec<u8> = llrs.iter().map(|&l| u8::from(l > 0)).collect();
        let hard_out = decode(&hard, CodeRate::Half, info.len());
        assert_ne!(hard_out, info, "hard decoding must fail on this burst");
        let pairs = depuncture_llr(&llrs, CodeRate::Half, info.len());
        assert_eq!(viterbi_decode_soft(&pairs, info.len()), info);
    }

    #[test]
    fn decoder_prefers_terminated_path() {
        // Without tail bits the decoder may end anywhere; with them it must
        // land in state zero and decode exactly.
        let info = with_tail(vec![1, 0, 1, 1, 0, 0, 1, 0]);
        let coded = encode(&info, CodeRate::Half);
        assert_eq!(decode(&coded, CodeRate::Half, info.len()), info);
    }
}
