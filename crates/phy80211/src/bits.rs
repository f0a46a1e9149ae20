//! Bit-level utilities: the frame scrambler, CRC-32 FCS and bit packing.

/// The 802.11 frame-synchronous scrambler / descrambler
/// (polynomial `x^7 + x^4 + 1`).
///
/// Scrambling and descrambling are the same operation; the DATA field is
/// scrambled with a nonzero 7-bit initial state carried in the SERVICE
/// field's first seven (zeroed) bits, which lets the receiver recover it.
#[derive(Clone, Debug)]
pub struct Scrambler {
    state: u8,
}

impl Scrambler {
    /// Creates a scrambler with the given 7-bit initial state.
    ///
    /// # Panics
    /// Panics if `state` is zero or wider than 7 bits.
    pub fn new(state: u8) -> Self {
        assert!(
            state != 0 && state < 0x80,
            "scrambler state must be 7-bit nonzero"
        );
        Scrambler { state }
    }

    /// Next pseudo-random bit, advancing the register.
    #[inline]
    pub fn next_bit(&mut self) -> u8 {
        let (fb, state) = scrambler_step(self.state);
        self.state = state;
        fb
    }

    /// The next eight bits [`Scrambler::next_bit`] would give, the first
    /// in bit 0, advancing the register as eight calls would.
    #[inline]
    pub(crate) fn next_byte(&mut self) -> u8 {
        let (byte, state) = SCRAMBLER_BYTES[self.state as usize];
        self.state = state;
        byte
    }

    /// Scrambles (or descrambles) a bit slice in place.
    pub fn process(&mut self, bits: &mut [u8]) {
        for b in bits.iter_mut() {
            *b ^= self.next_bit();
        }
    }

    /// Generates the 127-bit periodic sequence from the current state, used
    /// for the pilot polarity sequence (all-ones seed).
    pub fn sequence(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next_bit()).collect()
    }
}

/// One scrambler step from register `state`: the output bit and the next
/// register.
const fn scrambler_step(state: u8) -> (u8, u8) {
    let fb = ((state >> 6) ^ (state >> 3)) & 1;
    (fb, ((state << 1) | fb) & 0x7F)
}

/// Eight [`scrambler_step`]s from every register: the output bits (the
/// first in bit 0) and the register they leave.
const SCRAMBLER_BYTES: [(u8, u8); 128] = {
    let mut table = [(0, 0); 128];
    let mut start = 0;
    while start < 128 {
        let (mut byte, mut state, mut k) = (0u8, start as u8, 0);
        while k < 8 {
            let (bit, next) = scrambler_step(state);
            byte |= bit << k;
            state = next;
            k += 1;
        }
        table[start] = (byte, state);
        start += 1;
    }
    table
};

/// The pilot polarity sequence `p_0 .. p_126` (all-ones scrambler output,
/// mapped 0 -> +1, 1 -> -1), cyclically extended per symbol index.
pub fn pilot_polarity(symbol_index: usize) -> f64 {
    // Precomputing each call keeps this allocation-free at the call sites
    // that matter (one lookup per OFDM symbol).
    const SEQ_LEN: usize = 127;
    // Generated once at first use.
    fn seq() -> &'static [i8; SEQ_LEN] {
        use std::sync::OnceLock;
        static SEQ: OnceLock<[i8; SEQ_LEN]> = OnceLock::new();
        SEQ.get_or_init(|| {
            let mut s = Scrambler::new(0x7F);
            let mut out = [0i8; SEQ_LEN];
            for v in out.iter_mut() {
                *v = if s.next_bit() == 1 { -1 } else { 1 };
            }
            out
        })
    }
    seq()[symbol_index % SEQ_LEN] as f64
}

/// Unpacks bytes into bits, LSB first within each byte (802.11 bit order).
pub fn bytes_to_bits(bytes: &[u8]) -> Vec<u8> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for k in 0..8 {
            bits.push((b >> k) & 1);
        }
    }
    bits
}

/// Packs bits (LSB first) back into bytes; trailing partial bytes are
/// zero-padded.
pub fn bits_to_bytes(bits: &[u8]) -> Vec<u8> {
    let mut bytes = vec![0u8; bits.len().div_ceil(8)];
    for (k, &b) in bits.iter().enumerate() {
        bytes[k / 8] |= (b & 1) << (k % 8);
    }
    bytes
}

/// IEEE CRC-32 (the 802.11 FCS), bit-reflected, init and final XOR all-ones.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let lsb = crc & 1;
            crc >>= 1;
            if lsb != 0 {
                crc ^= 0xEDB8_8320;
            }
        }
    }
    !crc
}

/// Appends the FCS to a PSDU body.
pub fn append_fcs(body: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    out.extend_from_slice(&crc32(body).to_le_bytes());
    out
}

/// Checks and strips the FCS; `None` when the check fails or the frame is
/// shorter than the FCS itself.
pub fn check_fcs(frame: &[u8]) -> Option<&[u8]> {
    if frame.len() < 4 {
        return None;
    }
    let (body, fcs) = frame.split_at(frame.len() - 4);
    let expect = u32::from_le_bytes([fcs[0], fcs[1], fcs[2], fcs[3]]);
    if crc32(body) == expect {
        Some(body)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrambler_is_involution() {
        let mut data: Vec<u8> = (0..200).map(|k| (k % 2) as u8).collect();
        let orig = data.clone();
        Scrambler::new(0x5D).process(&mut data);
        assert_ne!(data, orig, "scrambling must change the bits");
        Scrambler::new(0x5D).process(&mut data);
        assert_eq!(data, orig, "descrambling with same seed restores");
    }

    #[test]
    fn scrambler_period_127() {
        let mut s = Scrambler::new(0x7F);
        let seq = s.sequence(254);
        assert_eq!(&seq[..127], &seq[127..], "sequence repeats with period 127");
        // Maximal-length property: 64 ones, 63 zeros per period.
        let ones: usize = seq[..127].iter().map(|&b| b as usize).sum();
        assert_eq!(ones, 64);
    }

    #[test]
    fn standard_scrambler_prefix() {
        // IEEE 802.11 clause 17.3.5.5: with the all-ones initial state the
        // scrambler generates the published 127-bit sequence beginning
        // 00001110 11110010 ...
        let mut s = Scrambler::new(0x7F);
        let seq = s.sequence(16);
        assert_eq!(seq, vec![0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 1, 0, 0, 1, 0]);
    }

    #[test]
    fn pilot_polarity_known_values() {
        // p0..p3 = 1,1,1,1 ; the first -1 appears at p4 in the standard's
        // published sequence (1,1,1,1,-1,...).
        assert_eq!(pilot_polarity(0), 1.0);
        assert_eq!(pilot_polarity(1), 1.0);
        assert_eq!(pilot_polarity(2), 1.0);
        assert_eq!(pilot_polarity(3), 1.0);
        assert_eq!(pilot_polarity(4), -1.0);
        // Periodic extension.
        assert_eq!(pilot_polarity(127), pilot_polarity(0));
    }

    #[test]
    fn bit_packing_roundtrip() {
        let bytes = vec![0x00, 0xFF, 0xA5, 0x3C, 0x01];
        assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
    }

    #[test]
    fn bit_order_lsb_first() {
        let bits = bytes_to_bits(&[0x01]);
        assert_eq!(bits, vec![1, 0, 0, 0, 0, 0, 0, 0]);
        let bits = bytes_to_bits(&[0x80]);
        assert_eq!(bits, vec![0, 0, 0, 0, 0, 0, 0, 1]);
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0x0000_0000);
    }

    #[test]
    fn fcs_roundtrip_and_corruption() {
        let body = b"hello, wireless world";
        let framed = append_fcs(body);
        assert_eq!(check_fcs(&framed), Some(&body[..]));
        let mut bad = framed.clone();
        bad[3] ^= 0x10;
        assert_eq!(check_fcs(&bad), None);
        assert_eq!(check_fcs(&framed[..3]), None, "too short for an FCS");
    }

    #[test]
    #[should_panic(expected = "7-bit nonzero")]
    fn scrambler_rejects_zero_state() {
        let _ = Scrambler::new(0);
    }
}
