//! Frame transmission: PSDU to 20 MSPS baseband waveform (clause 18.3.5).

use crate::bits::Scrambler;
use crate::convcode::CodeRate;
use crate::interleave::interleave_position;
use crate::modmap::{map_bits, Modulation};
use crate::ofdm::{data_bins, emit_symbol};
use crate::preamble::plcp_preamble;
use crate::signal::{signal_bits, Rate};
use crate::{FFT_LEN, N_SD, PREAMBLE_LEN, SYM_LEN};
use rjam_sdr::complex::Cf64;
use rjam_sdr::fft::Fft;
use std::sync::OnceLock;

/// A PHY frame to transmit.
#[derive(Clone, Debug)]
pub struct Frame {
    /// Payload rate.
    pub rate: Rate,
    /// PSDU bytes (MAC frame incl. FCS).
    pub psdu: Vec<u8>,
    /// Scrambler seed for the DATA field (7-bit nonzero).
    pub scrambler_seed: u8,
}

impl Frame {
    /// Creates a frame with the default scrambler seed.
    pub fn new(rate: Rate, psdu: Vec<u8>) -> Self {
        Frame {
            rate,
            psdu,
            scrambler_seed: 0x5D,
        }
    }

    /// Airtime in microseconds.
    pub fn airtime_us(&self) -> f64 {
        self.rate.frame_airtime_us(self.psdu.len())
    }

    /// Total length in 20 MSPS samples.
    pub fn n_samples(&self) -> usize {
        (self.airtime_us() * 20.0) as usize
    }
}

/// Eight coded bits spread to bytes `0, 3, .., 21` of 24 (bit `t` of the
/// index to bit 0 of byte `3t`), as three little-endian words.
const SPREAD_BY_3: [[u64; 3]; 256] = {
    let mut table = [[0; 3]; 256];
    let mut v = 0;
    while v < 256 {
        let mut t = 0;
        while t < 8 {
            let byte = 3 * t;
            table[v][byte / 8] |= (((v >> t) & 1) as u64) << (8 * (byte % 8));
            t += 1;
        }
        v += 1;
    }
    table
};

/// Where the eight bits of one coded byte of a symbol land: bit `t` on
/// data subcarrier `first + 3t`, at the code bit the group holding `t`
/// names.
#[derive(Clone, Copy, Default)]
struct ByteSlots {
    first: usize,
    /// `(mask of t, code bit)` per group; `n_groups` of them are used.
    groups: [(u8, u32); 3],
    n_groups: usize,
}

/// Maps one OFDM symbol's coded bits onto its subcarriers for one
/// modulation: the interleaver and the constellation as lookup tables.
struct SymbolMap {
    /// Per coded byte of a symbol (coded bits `8p..8p + 8`), from
    /// [`interleave_position`]. The interleaver's first permutation sends
    /// the eight to every third subcarrier, and its second permutes bits
    /// only within a subcarrier, so each byte spreads in one pattern with
    /// at most three code bits.
    bytes: Vec<ByteSlots>,
    /// Constellation point per code (`b0` is bit 0), from [`map_bits`].
    points: Vec<Cf64>,
}

impl SymbolMap {
    fn new(m: Modulation) -> Self {
        let n_bpsc = m.bits_per_symbol();
        let n_cbps = N_SD * n_bpsc;
        let slots: Vec<(usize, u32)> = (0..n_cbps)
            .map(|k| {
                let p = interleave_position(k, n_cbps, n_bpsc);
                (p / n_bpsc, (p % n_bpsc) as u32)
            })
            .collect();
        let bytes = slots
            .chunks_exact(8)
            .map(|byte| {
                let mut spread = ByteSlots {
                    first: byte[0].0,
                    ..ByteSlots::default()
                };
                for (t, &(sc, j)) in byte.iter().enumerate() {
                    assert_eq!(sc, spread.first + 3 * t, "a coded byte spreads by 3");
                    let n = spread.n_groups;
                    match spread.groups[..n].iter_mut().find(|g| g.1 == j) {
                        Some(group) => group.0 |= 1 << t,
                        None => {
                            spread.groups[n] = (1 << t, j);
                            spread.n_groups += 1;
                        }
                    }
                }
                spread
            })
            .collect();
        let points = (0..1usize << n_bpsc)
            .map(|code| {
                let bits: Vec<u8> = (0..n_bpsc).map(|j| ((code >> j) & 1) as u8).collect();
                map_bits(&bits, m)
            })
            .collect();
        SymbolMap { bytes, points }
    }

    /// ORs coded byte `p` of a symbol, `v`, into the per-subcarrier codes,
    /// a whole spread pattern per group. `codes` is padded past the 48
    /// subcarriers so every pattern's three words fit.
    #[inline]
    fn place(&self, codes: &mut [u8; CODES_LEN], p: usize, v: u8) {
        let slots = &self.bytes[p];
        for &(mask, bit) in &slots.groups[..slots.n_groups] {
            for (w, &spread) in SPREAD_BY_3[usize::from(v & mask)].iter().enumerate() {
                let at = slots.first + 8 * w;
                let word: &mut [u8; 8] = (&mut codes[at..at + 8]).try_into().expect("8 bytes");
                *word = (u64::from_le_bytes(*word) | spread << bit).to_le_bytes();
            }
        }
    }
}

/// Bytes of the per-subcarrier code buffer: the 48 codes, and room for the
/// last spread pattern's words (first subcarrier at most 26).
const CODES_LEN: usize = 64;

/// The puncturer of one code rate as a table: for `group` information bits
/// whose A outputs are `a` and B outputs `b` (bit `i` for bit `i`), the
/// kept bits in transmission order, from [`CodeRate::pattern`].
struct Puncturer {
    group: usize,
    /// Coded bits per group.
    kept: usize,
    /// Indexed by `a | b << group`.
    table: Vec<u8>,
}

impl Puncturer {
    fn new(rate: CodeRate) -> Self {
        // Whole puncture periods whose kept bits fill at most a byte.
        let group: usize = match rate {
            CodeRate::Half | CodeRate::TwoThirds => 4,
            CodeRate::ThreeQuarters => 6,
        };
        let pattern = rate.pattern();
        assert!(
            group.is_multiple_of(pattern.len()),
            "whole puncture periods"
        );
        // The bit of the index each kept coded bit comes from, in
        // transmission order.
        let sources: Vec<usize> = (0..group)
            .flat_map(|i| {
                let (keep_a, keep_b) = pattern[i % pattern.len()];
                [(keep_a, i), (keep_b, group + i)]
            })
            .filter_map(|(keep, bit)| keep.then_some(bit))
            .collect();
        let table = (0..1usize << (2 * group))
            .map(|idx| {
                sources
                    .iter()
                    .enumerate()
                    .fold(0, |out, (n, &bit)| out | (((idx >> bit) & 1) as u8) << n)
            })
            .collect();
        Puncturer {
            group,
            kept: sources.len(),
            table,
        }
    }
}

/// Everything [`modulate_frame`] needs that does not depend on the frame,
/// computed once by the same code that used to run per frame.
struct TxTables {
    fft: Fft,
    preamble: Vec<Cf64>,
    /// The data subcarriers' FFT bins at their bit-reversed positions
    /// ([`Fft::bit_reversed_index`]), in transmission order.
    data_bins: [usize; N_SD],
    /// One map per modulation, in [`modulation_index`] order.
    maps: [SymbolMap; 4],
    /// One puncturer per code rate, in [`code_rate_index`] order.
    puncturers: [Puncturer; 3],
}

fn modulation_index(m: Modulation) -> usize {
    match m {
        Modulation::Bpsk => 0,
        Modulation::Qpsk => 1,
        Modulation::Qam16 => 2,
        Modulation::Qam64 => 3,
    }
}

fn code_rate_index(rate: CodeRate) -> usize {
    match rate {
        CodeRate::Half => 0,
        CodeRate::TwoThirds => 1,
        CodeRate::ThreeQuarters => 2,
    }
}

fn tables() -> &'static TxTables {
    static TABLES: OnceLock<TxTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let fft = Fft::new(FFT_LEN);
        TxTables {
            preamble: plcp_preamble(),
            data_bins: data_bins().map(|bin| fft.bit_reversed_index(bin)),
            fft,
            maps: [
                Modulation::Bpsk,
                Modulation::Qpsk,
                Modulation::Qam16,
                Modulation::Qam64,
            ]
            .map(SymbolMap::new),
            puncturers: [CodeRate::Half, CodeRate::TwoThirds, CodeRate::ThreeQuarters]
                .map(Puncturer::new),
        }
    })
}

/// Encodes, punctures, interleaves and maps the information bits of whole
/// OFDM symbols and appends each symbol to `out`.
struct SymbolWriter<'a> {
    tables: &'static TxTables,
    map: &'static SymbolMap,
    puncturer: &'static Puncturer,
    /// Information bits per symbol (N_DBPS).
    n_dbps: usize,
    /// Information bits encoded at a time: whole puncturer groups that
    /// divide `n_dbps`, at most 48 so that they and the six bits of state
    /// fit one word.
    step: usize,
    /// The encoder's register: the last six information bits, the oldest
    /// in bit 0.
    state: u64,
    symbol_index: usize,
    out: &'a mut Vec<Cf64>,
}

impl<'a> SymbolWriter<'a> {
    fn new(
        m: Modulation,
        rate: CodeRate,
        n_dbps: usize,
        symbol_index: usize,
        out: &'a mut Vec<Cf64>,
    ) -> Self {
        let tables = tables();
        let puncturer = &tables.puncturers[code_rate_index(rate)];
        let step = (1..=48)
            .rev()
            .find(|&s| n_dbps.is_multiple_of(s) && s.is_multiple_of(puncturer.group))
            .expect("N_DBPS is a multiple of 12");
        SymbolWriter {
            tables,
            map: &tables.maps[modulation_index(m)],
            puncturer,
            n_dbps,
            step,
            state: 0,
            symbol_index,
            out,
        }
    }

    /// Writes one symbol from the next `n_dbps` information bits, which
    /// `bits(n)` hands over `n` at a time, the first in bit 0.
    ///
    /// The K=7 encoder runs a word at a time: with `x` the information
    /// bits above the six bits of state, output A of bit `i` is the parity
    /// of `x` at `i + {0, 1, 3, 4, 6}` (g0 = 133o) and output B at
    /// `i + {0, 3, 4, 5, 6}` (g1 = 171o), so shifted copies of `x` XOR into
    /// every A and every B at once. The puncturer keeps its bits a group at
    /// a time and each full coded byte is placed as it completes.
    fn write_symbol(&mut self, mut bits: impl FnMut(usize) -> u64) {
        let punct = self.puncturer;
        let group_mask = (1u64 << punct.group) - 1;
        let mut codes = [0u8; CODES_LEN];
        let (mut coded, mut n_coded, mut p) = (0u64, 0, 0);
        for _ in 0..self.n_dbps / self.step {
            let x = bits(self.step) << 6 | self.state;
            self.state = x >> self.step & 0x3F;
            let a = x ^ x >> 1 ^ x >> 3 ^ x >> 4 ^ x >> 6;
            let b = x ^ x >> 3 ^ x >> 4 ^ x >> 5 ^ x >> 6;
            for i in (0..self.step).step_by(punct.group) {
                let idx = (a >> i & group_mask) | (b >> i & group_mask) << punct.group;
                coded |= u64::from(punct.table[idx as usize]) << n_coded;
                n_coded += punct.kept;
                while n_coded >= 8 {
                    self.map.place(&mut codes, p, coded as u8);
                    coded >>= 8;
                    n_coded -= 8;
                    p += 1;
                }
            }
        }
        debug_assert_eq!((p, n_coded), (self.map.bytes.len(), 0), "whole symbols");
        let mut freq = [Cf64::ZERO; FFT_LEN];
        for (&code, &bin) in codes.iter().zip(&self.tables.data_bins) {
            freq[bin] = self.map.points[usize::from(code)];
        }
        emit_symbol(&mut freq, self.symbol_index, &self.tables.fft, self.out);
        self.symbol_index += 1;
    }
}

/// The scrambled DATA field's bits, a byte at a time: SERVICE (16 zero
/// bits), the PSDU, then zeros, XORed with the scrambler's output, with the
/// six tail bits (the low bits of the byte after the PSDU) re-zeroed.
struct DataBits<'a> {
    psdu: &'a [u8],
    scrambler: Scrambler,
    /// Index of the next byte of the field.
    next: usize,
    /// Bits read but not yet handed over, the first in bit 0.
    pending: u64,
    n_pending: usize,
}

impl DataBits<'_> {
    /// The next `n` bits (at most 56), the first in bit 0.
    #[inline]
    fn take(&mut self, n: usize) -> u64 {
        while self.n_pending < n {
            let i = self.next;
            let raw = i
                .checked_sub(2)
                .and_then(|j| self.psdu.get(j))
                .copied()
                .unwrap_or(0);
            let mut byte = raw ^ self.scrambler.next_byte();
            if i == 2 + self.psdu.len() {
                byte &= 0xC0; // tail bits are transmitted as zeros
            }
            self.pending |= u64::from(byte) << self.n_pending;
            self.n_pending += 8;
            self.next += 1;
        }
        let out = self.pending & ((1 << n) - 1);
        self.pending >>= n;
        self.n_pending -= n;
        out
    }
}

/// Modulates a complete PHY frame into its 20 MSPS baseband waveform:
/// preamble, SIGNAL symbol and DATA symbols.
pub fn modulate_frame(frame: &Frame) -> Vec<Cf64> {
    let mut out = Vec::new();
    modulate_frame_into(frame, &mut out);
    out
}

/// [`modulate_frame`] into a caller-owned buffer: `out` is cleared and
/// refilled, so a reused buffer stops allocating once it is large enough.
///
/// The DATA field is SERVICE + PSDU + tail + pad, scrambled, with the tail
/// bits re-zeroed after scrambling; the convolutional encoder runs
/// continuously over it (clause 18.3.5.6) and interleaving is per symbol.
/// Bits are scrambled a byte at a time, encoded a word at a time and
/// punctured a group at a time, and each coded byte is interleaved and
/// mapped through cached tables; the preamble and the FFT plan are built
/// once per process.
pub fn modulate_frame_into(frame: &Frame, out: &mut Vec<Cf64>) {
    let rate = frame.rate;
    let len = frame.psdu.len();
    let n_sym = rate.n_data_symbols(len);
    out.clear();
    out.reserve(PREAMBLE_LEN + SYM_LEN * (1 + n_sym));
    out.extend_from_slice(&tables().preamble);

    // SIGNAL: 24 bits, BPSK rate-1/2, pilot index 0.
    let mut signal = signal_bits(rate, len)
        .iter()
        .enumerate()
        .fold(0u64, |word, (k, &bit)| word | u64::from(bit) << k);
    SymbolWriter::new(Modulation::Bpsk, CodeRate::Half, 24, 0, out).write_symbol(|n| {
        let bits = signal & ((1 << n) - 1);
        signal >>= n;
        bits
    });

    // DATA symbols.
    let mut w = SymbolWriter::new(rate.modulation(), rate.code_rate(), rate.n_dbps(), 1, out);
    let mut data = DataBits {
        psdu: &frame.psdu,
        scrambler: Scrambler::new(frame.scrambler_seed),
        next: 0,
        pending: 0,
        n_pending: 0,
    };
    for _ in 0..n_sym {
        w.write_symbol(|n| data.take(n));
    }
}

/// Builds a "pseudo-frame" containing only a single short training symbol
/// repetition (16 samples) — the paper's single-short-preamble test input.
pub fn single_short_preamble() -> Vec<Cf64> {
    crate::preamble::short_symbol()
}

/// Builds a pseudo-frame containing a single long training symbol (64
/// samples, no GI) — the paper's single-long-preamble test input.
pub fn single_long_preamble() -> Vec<Cf64> {
    crate::preamble::long_symbol()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::bytes_to_bits;
    use crate::interleave::interleave;
    use crate::modmap::map_stream;
    use crate::ofdm::PILOTS;
    use crate::preamble::sub_to_bin;
    use crate::CP_LEN;
    use rjam_sdr::power::mean_power;
    use rjam_sdr::rng::Rng;

    /// The transmitter as first written, stage by stage with a vector per
    /// stage: the reference the streaming writer must match bit for bit.
    fn reference_modulate(frame: &Frame) -> Vec<Cf64> {
        fn encode(bits: &[u8], rate: CodeRate) -> Vec<u8> {
            let parity = |x: u8| (x.count_ones() & 1) as u8;
            let mut state: u8 = 0;
            let mut coded = Vec::with_capacity(bits.len() * 2);
            for &b in bits {
                let reg = (b << 6) | state;
                coded.push(parity(reg & 0o133));
                coded.push(parity(reg & 0o171));
                state = (reg >> 1) & 0x3F;
            }
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
        fn build_symbol(points: &[Cf64], symbol_index: usize, fft: &Fft) -> Vec<Cf64> {
            let mut freq = vec![Cf64::ZERO; FFT_LEN];
            for (p, &k) in points.iter().zip(crate::ofdm::data_subcarriers().iter()) {
                freq[sub_to_bin(k)] = *p;
            }
            let pol = crate::bits::pilot_polarity(symbol_index);
            for (k, v) in PILOTS {
                freq[sub_to_bin(k)] = Cf64::new(v * pol, 0.0);
            }
            fft.inverse(&mut freq);
            let mut out = Vec::with_capacity(FFT_LEN + CP_LEN);
            out.extend_from_slice(&freq[FFT_LEN - CP_LEN..]);
            out.extend_from_slice(&freq);
            out
        }
        fn data_bits(frame: &Frame) -> Vec<u8> {
            let rate = frame.rate;
            let n_bits = rate.n_data_symbols(frame.psdu.len()) * rate.n_dbps();
            let mut bits = Vec::with_capacity(n_bits);
            bits.extend_from_slice(&[0u8; 16]);
            bits.extend(bytes_to_bits(&frame.psdu));
            let tail_pos = bits.len();
            bits.extend_from_slice(&[0u8; 6]);
            bits.resize(n_bits, 0);
            Scrambler::new(frame.scrambler_seed).process(&mut bits);
            for b in &mut bits[tail_pos..tail_pos + 6] {
                *b = 0;
            }
            bits
        }

        let fft = Fft::new(FFT_LEN);
        let rate = frame.rate;
        let mut wave = plcp_preamble();
        let sig_coded = encode(&signal_bits(rate, frame.psdu.len()), CodeRate::Half);
        let sig_points = map_stream(&interleave(&sig_coded, 48, 1), Modulation::Bpsk);
        wave.extend(build_symbol(&sig_points, 0, &fft));
        let n_cbps = rate.n_cbps();
        let n_bpsc = rate.modulation().bits_per_symbol();
        let coded = encode(&data_bits(frame), rate.code_rate());
        for (sym_idx, chunk) in coded.chunks(n_cbps).enumerate() {
            let points = map_stream(&interleave(chunk, n_cbps, n_bpsc), rate.modulation());
            wave.extend(build_symbol(&points, sym_idx + 1, &fft));
        }
        wave
    }

    fn bits(buf: &[Cf64]) -> Vec<(u64, u64)> {
        buf.iter()
            .map(|s| (s.re.to_bits(), s.im.to_bits()))
            .collect()
    }

    rjam_testkit::props! {
        cases = 48;

        /// Every rate, PSDU lengths across the whole 0..=4095 field and
        /// any scrambler seed: the streaming writer reproduces the staged
        /// reference bit for bit, also into a dirty reused buffer.
        fn modulate_matches_reference_bits(
            rate in 0usize..8,
            len in 0usize..4096,
            scrambler_seed in 1u8..128,
            seed in rjam_testkit::any::<u64>(),
        ) {
            let mut psdu = vec![0u8; len];
            Rng::seed_from(seed).fill_bytes(&mut psdu);
            let frame = Frame {
                rate: Rate::ALL[rate],
                psdu,
                scrambler_seed,
            };
            let mut out = vec![Cf64::ONE; 3];
            modulate_frame_into(&frame, &mut out);
            rjam_testkit::prop_assert_eq!(bits(&out), bits(&reference_modulate(&frame)));
        }
    }

    fn test_frame(rate: Rate, len: usize) -> Frame {
        let mut rng = Rng::seed_from(70);
        let mut psdu = vec![0u8; len];
        rng.fill_bytes(&mut psdu);
        Frame::new(rate, psdu)
    }

    #[test]
    fn modulate_matches_reference_at_the_length_extremes() {
        for rate in Rate::ALL {
            for len in [0, 1, 4095] {
                let frame = test_frame(rate, len);
                assert_eq!(
                    bits(&modulate_frame(&frame)),
                    bits(&reference_modulate(&frame)),
                    "{rate:?} len {len}"
                );
            }
        }
    }

    #[test]
    fn waveform_length_matches_airtime() {
        for rate in [Rate::R6, Rate::R24, Rate::R54] {
            let frame = test_frame(rate, 100);
            let wave = modulate_frame(&frame);
            assert_eq!(wave.len(), frame.n_samples(), "{rate:?}");
            // Preamble + SIGNAL + n_sym * 80.
            let expect = 320 + 80 + rate.n_data_symbols(100) * 80;
            assert_eq!(wave.len(), expect);
        }
    }

    #[test]
    fn preamble_prefix_is_standard() {
        let frame = test_frame(Rate::R6, 10);
        let wave = modulate_frame(&frame);
        let pre = plcp_preamble();
        for k in 0..320 {
            assert!((wave[k] - pre[k]).abs() < 1e-12);
        }
    }

    #[test]
    fn distinct_payloads_give_distinct_data_sections() {
        let a = modulate_frame(&test_frame(Rate::R12, 50));
        let mut fb = test_frame(Rate::R12, 50);
        fb.psdu[0] ^= 0xFF;
        let b = modulate_frame(&fb);
        assert_eq!(a.len(), b.len());
        // Preamble+SIGNAL identical...
        for k in 0..400 {
            assert!((a[k] - b[k]).abs() < 1e-12);
        }
        // ...data differs.
        let diff: f64 = a[400..]
            .iter()
            .zip(&b[400..])
            .map(|(x, y)| (*x - *y).norm_sq())
            .sum();
        assert!(diff > 1e-3);
    }

    #[test]
    fn data_power_is_bounded() {
        let wave = modulate_frame(&test_frame(Rate::R54, 500));
        let p = mean_power(&wave[400..]);
        // 52 loaded carriers of unit average power over a 64-IFFT: E|x|^2 =
        // 52/64^2 * 64 = 52/64 ... with our unnormalized-forward convention
        // the mean power is 52/4096*... just assert it is sane and finite.
        assert!(p > 1e-4 && p < 1.0, "p={p}");
    }

    #[test]
    fn scrambler_seed_changes_waveform_not_length() {
        let mut fa = test_frame(Rate::R12, 80);
        fa.scrambler_seed = 0x01;
        let mut fb = fa.clone();
        fb.scrambler_seed = 0x7F;
        let a = modulate_frame(&fa);
        let b = modulate_frame(&fb);
        assert_eq!(a.len(), b.len());
        let diff: f64 = a[400..]
            .iter()
            .zip(&b[400..])
            .map(|(x, y)| (*x - *y).norm_sq())
            .sum();
        assert!(diff > 1e-3);
    }

    #[test]
    fn pseudo_frames() {
        assert_eq!(single_short_preamble().len(), 16);
        assert_eq!(single_long_preamble().len(), 64);
    }

    #[test]
    fn zero_length_psdu_allowed() {
        let frame = Frame::new(Rate::R6, Vec::new());
        let wave = modulate_frame(&frame);
        // 16+0+6 bits -> 1 symbol at 24 DBPS.
        assert_eq!(wave.len(), 320 + 80 + 80);
    }
}
