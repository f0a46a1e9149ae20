//! The per-symbol block interleaver (clause 18.3.5.7).
//!
//! Two permutations spread coded bits first across subcarriers (so adjacent
//! coded bits land on non-adjacent carriers) and then across constellation
//! bit positions (alternating more/less significant bits). The interleaver
//! operates on one OFDM symbol's worth of coded bits, `n_cbps`.

/// Computes the interleaved position of bit `k` for a symbol carrying
/// `n_cbps` coded bits with `n_bpsc` bits per subcarrier — public so
/// soft-metric streams can be deinterleaved with the same permutation.
pub fn interleave_position(k: usize, n_cbps: usize, n_bpsc: usize) -> usize {
    interleave_index(k, n_cbps, n_bpsc)
}

fn interleave_index(k: usize, n_cbps: usize, n_bpsc: usize) -> usize {
    let s = (n_bpsc / 2).max(1);
    // First permutation.
    let i = (n_cbps / 16) * (k % 16) + k / 16;
    // Second permutation.
    s * (i / s) + (i + n_cbps - (16 * i) / n_cbps) % s
}

/// Interleaves one symbol's coded bits.
///
/// # Panics
/// Panics unless `bits.len() == n_cbps`.
pub fn interleave(bits: &[u8], n_cbps: usize, n_bpsc: usize) -> Vec<u8> {
    assert_eq!(bits.len(), n_cbps, "one symbol at a time");
    let mut out = vec![0u8; n_cbps];
    for (k, &b) in bits.iter().enumerate() {
        out[interleave_index(k, n_cbps, n_bpsc)] = b;
    }
    out
}

/// Inverts [`interleave`].
pub fn deinterleave(bits: &[u8], n_cbps: usize, n_bpsc: usize) -> Vec<u8> {
    assert_eq!(bits.len(), n_cbps, "one symbol at a time");
    let mut out = vec![0u8; n_cbps];
    for (k, slot) in out.iter_mut().enumerate() {
        *slot = bits[interleave_index(k, n_cbps, n_bpsc)];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_sdr::rng::Rng;

    /// (n_cbps, n_bpsc) pairs for the eight 802.11a/g rates.
    const CONFIGS: [(usize, usize); 4] = [(48, 1), (96, 2), (192, 4), (288, 6)];

    #[test]
    fn roundtrip_all_configs() {
        let mut rng = Rng::seed_from(40);
        for &(n_cbps, n_bpsc) in &CONFIGS {
            let bits: Vec<u8> = (0..n_cbps).map(|_| (rng.next_u64() & 1) as u8).collect();
            let inter = interleave(&bits, n_cbps, n_bpsc);
            assert_eq!(
                deinterleave(&inter, n_cbps, n_bpsc),
                bits,
                "cfg {n_cbps}/{n_bpsc}"
            );
        }
    }

    #[test]
    fn is_a_permutation() {
        for &(n_cbps, n_bpsc) in &CONFIGS {
            let mut seen = vec![false; n_cbps];
            for k in 0..n_cbps {
                let idx = interleave_index(k, n_cbps, n_bpsc);
                assert!(!seen[idx], "collision at {idx} (cfg {n_cbps}/{n_bpsc})");
                seen[idx] = true;
            }
        }
    }

    #[test]
    fn standard_first_permutation_bpsk() {
        // For BPSK (n_cbps = 48, s = 1) the second permutation is identity;
        // bit 0 -> 0, bit 1 -> 3, bit 16 -> 1 (spread across 16 columns).
        assert_eq!(interleave_index(0, 48, 1), 0);
        assert_eq!(interleave_index(1, 48, 1), 3);
        assert_eq!(interleave_index(16, 48, 1), 1);
        assert_eq!(interleave_index(47, 48, 1), 47);
    }

    #[test]
    fn adjacent_bits_separated() {
        // The point of the interleaver: adjacent coded bits map at least
        // 3 positions apart for every configuration.
        for &(n_cbps, n_bpsc) in &CONFIGS {
            for k in 0..n_cbps - 1 {
                let a = interleave_index(k, n_cbps, n_bpsc) as i64;
                let b = interleave_index(k + 1, n_cbps, n_bpsc) as i64;
                assert!((a - b).abs() >= 3, "cfg {n_cbps}/{n_bpsc} at k={k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "one symbol")]
    fn rejects_wrong_length() {
        let _ = interleave(&[0, 1, 0], 48, 1);
    }
}
