//! Radix-2 decimation-in-time FFT.
//!
//! Both OFDM PHYs in this workspace are built on power-of-two transforms
//! (64-point for 802.11a/g, 1024-point for 802.16e OFDMA), so a plain
//! iterative radix-2 implementation with precomputed twiddles covers every
//! use without external dependencies.

use crate::complex::Cf64;

/// A reusable FFT plan for a fixed power-of-two size.
///
/// The plan precomputes the bit-reversal permutation and twiddle factors, so
/// repeated transforms (one per OFDM symbol) avoid recomputing trigonometry.
#[derive(Clone, Debug)]
pub struct Fft {
    n: usize,
    rev: Vec<u32>,
    /// Forward-transform twiddles `tw[j] = e^{-j 2 pi j / n}` (`j < n/2`) in
    /// the order the butterfly stages read them: the stage of half-length
    /// `h` reads `tw[k * n / (2h)]` for `k < h`, stored from offset `h - 1`.
    /// The last stage reads every `tw[j]` in order.
    stage_tw: Vec<Cf64>,
    /// `stage_tw` conjugated, for the inverse transform. Conjugation only
    /// flips a sign bit, so these are exactly the values the butterfly
    /// would conjugate on the fly.
    stage_tw_inv: Vec<Cf64>,
}

impl Fft {
    /// Creates a plan for an `n`-point transform.
    ///
    /// # Panics
    /// Panics if `n` is zero or not a power of two.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n > 0,
            "FFT size must be a power of two, got {n}"
        );
        let bits = n.trailing_zeros();
        let rev = (0..n as u32)
            .map(|i| i.reverse_bits() >> (32 - bits))
            .collect();
        let tw: Vec<Cf64> = (0..n / 2)
            .map(|k| Cf64::from_angle(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        let mut stage_tw = Vec::with_capacity(n.saturating_sub(1));
        let mut half = 1;
        while half < n {
            let step = n / (2 * half);
            stage_tw.extend((0..half).map(|k| tw[k * step]));
            half <<= 1;
        }
        let stage_tw_inv = stage_tw.iter().map(|w| w.conj()).collect();
        Fft {
            n,
            rev,
            stage_tw,
            stage_tw_inv,
        }
    }

    /// Transform size.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns true for the degenerate 1-point plan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// In-place forward FFT (no normalization).
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the plan size.
    pub fn forward(&self, buf: &mut [Cf64]) {
        self.transform(buf, &self.stage_tw);
    }

    /// In-place inverse FFT with `1/n` normalization, so
    /// `inverse(forward(x)) == x`.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the plan size.
    pub fn inverse(&self, buf: &mut [Cf64]) {
        self.transform(buf, &self.stage_tw_inv);
        self.normalize(buf);
    }

    /// [`Fft::inverse`] of a spectrum stored at bit-reversed bins — bin `k`
    /// at index [`Fft::bit_reversed_index`]`(k)` — as the permutation pass
    /// would leave it: the same butterflies and normalization, without
    /// that pass. The output is in natural order.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the plan size.
    pub fn inverse_from_bit_reversed(&self, buf: &mut [Cf64]) {
        assert_eq!(buf.len(), self.n, "buffer length must equal FFT size");
        self.butterflies(buf, &self.stage_tw_inv);
        self.normalize(buf);
    }

    /// Where [`Fft::inverse_from_bit_reversed`] reads bin `k`.
    #[inline]
    pub fn bit_reversed_index(&self, k: usize) -> usize {
        self.rev[k] as usize
    }

    fn normalize(&self, buf: &mut [Cf64]) {
        let k = 1.0 / self.n as f64;
        for s in buf.iter_mut() {
            *s = s.scale(k);
        }
    }

    /// Bit-reversal permutation, then the butterflies.
    fn transform(&self, buf: &mut [Cf64], stage_tw: &[Cf64]) {
        assert_eq!(buf.len(), self.n, "buffer length must equal FFT size");
        for (i, &j) in self.rev.iter().enumerate() {
            let j = j as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        self.butterflies(buf, stage_tw);
    }

    /// Iterative Cooley-Tukey butterflies with the per-stage twiddle table
    /// `stage_tw`, on input in bit-reversed order. A 64-point plan (the
    /// 802.11 symbol) runs [`butterflies_64`], the same butterflies in the
    /// same order at sizes known at compile time.
    fn butterflies(&self, buf: &mut [Cf64], stage_tw: &[Cf64]) {
        if let (Ok(buf), Ok(tw)) = (buf.try_into(), stage_tw.try_into()) {
            butterflies_64(buf, tw);
            return;
        }
        let mut half = 1;
        while half < self.n {
            let tw = &stage_tw[half - 1..2 * half - 1];
            for block in buf.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), &w) in lo.iter_mut().zip(hi.iter_mut()).zip(tw) {
                    let x = *a;
                    let y = *b * w;
                    *a = x + y;
                    *b = x - y;
                }
            }
            half <<= 1;
        }
    }
}

/// The six butterfly stages of a 64-point plan, half-lengths 1 to 32.
fn butterflies_64(buf: &mut [Cf64; 64], stage_tw: &[Cf64; 63]) {
    stage_64::<1>(buf, stage_tw);
    stage_64::<2>(buf, stage_tw);
    stage_64::<4>(buf, stage_tw);
    stage_64::<8>(buf, stage_tw);
    stage_64::<16>(buf, stage_tw);
    stage_64::<32>(buf, stage_tw);
}

/// One stage of half-length `H` of a 64-point transform: [`Fft`]'s
/// butterfly loop, block by block and `k = 0..H` within a block, with the
/// block and stage sizes constants.
#[inline(always)]
fn stage_64<const H: usize>(buf: &mut [Cf64; 64], stage_tw: &[Cf64; 63]) {
    let tw = &stage_tw[H - 1..2 * H - 1];
    for block in buf.chunks_exact_mut(2 * H) {
        let (lo, hi) = block.split_at_mut(H);
        for ((a, b), &w) in lo.iter_mut().zip(hi).zip(tw) {
            let x = *a;
            let y = *b * w;
            *a = x + y;
            *b = x - y;
        }
    }
}

/// Convenience one-shot forward FFT returning a new buffer.
pub fn fft(input: &[Cf64]) -> Vec<Cf64> {
    let mut buf = input.to_vec();
    Fft::new(input.len()).forward(&mut buf);
    buf
}

/// Convenience one-shot inverse FFT (normalized) returning a new buffer.
pub fn ifft(input: &[Cf64]) -> Vec<Cf64> {
    let mut buf = input.to_vec();
    Fft::new(input.len()).inverse(&mut buf);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn naive_dft(x: &[Cf64]) -> Vec<Cf64> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| {
                        x[t] * Cf64::from_angle(
                            -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64,
                        )
                    })
                    .sum()
            })
            .collect()
    }

    /// The butterfly loop as first written, conjugating the twiddle inside
    /// the loop: the reference the table-driven transform must match bit
    /// for bit.
    fn reference_transform(plan: &Fft, buf: &mut [Cf64], inverse: bool) {
        let tw = &plan.stage_tw[plan.n / 2 - 1..];
        for i in 0..plan.n {
            let j = plan.rev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= plan.n {
            let half = len / 2;
            let step = plan.n / len;
            for start in (0..plan.n).step_by(len) {
                for k in 0..half {
                    let w = if inverse {
                        tw[k * step].conj()
                    } else {
                        tw[k * step]
                    };
                    let a = buf[start + k];
                    let b = buf[start + k + half] * w;
                    buf[start + k] = a + b;
                    buf[start + k + half] = a - b;
                }
            }
            len <<= 1;
        }
        if inverse {
            let k = 1.0 / plan.n as f64;
            for s in buf.iter_mut() {
                *s = s.scale(k);
            }
        }
    }

    fn bits(buf: &[Cf64]) -> Vec<(u64, u64)> {
        buf.iter()
            .map(|s| (s.re.to_bits(), s.im.to_bits()))
            .collect()
    }

    rjam_testkit::props! {
        cases = 24;

        /// Forward and inverse transforms at both OFDM sizes are
        /// bit-identical to the reference butterfly loop.
        fn transform_matches_reference_bits(
            n in rjam_testkit::one_of(vec![64usize, 1024]),
            seed in rjam_testkit::any::<u64>(),
            inverse in rjam_testkit::any::<bool>(),
        ) {
            let mut rng = Rng::seed_from(seed);
            let x: Vec<Cf64> = (0..n)
                .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
                .collect();
            let plan = Fft::new(n);
            let mut fast = x.clone();
            if inverse {
                plan.inverse(&mut fast);
            } else {
                plan.forward(&mut fast);
            }
            let mut slow = x;
            reference_transform(&plan, &mut slow, inverse);
            rjam_testkit::prop_assert_eq!(bits(&fast), bits(&slow));
        }

        /// A spectrum written at bit-reversed bins transforms, without the
        /// permutation pass, to the bits the reference inverse gives, at
        /// the fixed 64-point size and through the general loop.
        fn inverse_from_bit_reversed_matches_reference_bits(
            n in rjam_testkit::one_of(vec![2usize, 8, 64, 128, 1024]),
            seed in rjam_testkit::any::<u64>(),
        ) {
            let mut rng = Rng::seed_from(seed);
            let x: Vec<Cf64> = (0..n)
                .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
                .collect();
            let plan = Fft::new(n);
            let mut fast = vec![Cf64::ZERO; n];
            for (k, &v) in x.iter().enumerate() {
                fast[plan.bit_reversed_index(k)] = v;
            }
            plan.inverse_from_bit_reversed(&mut fast);
            let mut slow = x;
            reference_transform(&plan, &mut slow, true);
            rjam_testkit::prop_assert_eq!(bits(&fast), bits(&slow));
        }
    }

    #[test]
    fn impulse_transforms_to_flat() {
        let mut x = vec![Cf64::ZERO; 8];
        x[0] = Cf64::ONE;
        let y = fft(&x);
        for s in y {
            assert!((s - Cf64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn single_tone_lands_on_one_bin() {
        let n = 64;
        let k0 = 7;
        let x: Vec<Cf64> = (0..n)
            .map(|t| Cf64::from_angle(2.0 * std::f64::consts::PI * (k0 * t) as f64 / n as f64))
            .collect();
        let y = fft(&x);
        for (k, s) in y.iter().enumerate() {
            if k == k0 {
                assert!((s.abs() - n as f64).abs() < 1e-9);
            } else {
                assert!(s.abs() < 1e-9, "leakage at bin {k}: {}", s.abs());
            }
        }
    }

    #[test]
    fn matches_naive_dft() {
        let mut rng = Rng::seed_from(42);
        for n in [2usize, 4, 16, 64, 128] {
            let x: Vec<Cf64> = (0..n)
                .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
                .collect();
            let fast = fft(&x);
            let slow = naive_dft(&x);
            for (a, b) in fast.iter().zip(slow.iter()) {
                assert!((*a - *b).abs() < 1e-8 * n as f64, "n={n}");
            }
        }
    }

    #[test]
    fn roundtrip_inverse() {
        let mut rng = Rng::seed_from(1);
        for n in [4usize, 64, 1024] {
            let x: Vec<Cf64> = (0..n)
                .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
                .collect();
            let y = ifft(&fft(&x));
            for (a, b) in x.iter().zip(y.iter()) {
                assert!((*a - *b).abs() < 1e-10, "n={n}");
            }
        }
    }

    #[test]
    fn parseval_energy_preserved() {
        let mut rng = Rng::seed_from(9);
        let n = 256;
        let x: Vec<Cf64> = (0..n)
            .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
            .collect();
        let time_e: f64 = x.iter().map(|s| s.norm_sq()).sum();
        let freq_e: f64 = fft(&x).iter().map(|s| s.norm_sq()).sum::<f64>() / n as f64;
        assert!((time_e - freq_e).abs() < 1e-8 * time_e);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = Fft::new(48);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn rejects_wrong_buffer_length() {
        let plan = Fft::new(8);
        let mut buf = vec![Cf64::ZERO; 4];
        plan.forward(&mut buf);
    }

    #[test]
    fn linearity() {
        let mut rng = Rng::seed_from(5);
        let n = 32;
        let a: Vec<Cf64> = (0..n)
            .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
            .collect();
        let b: Vec<Cf64> = (0..n)
            .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
            .collect();
        let sum: Vec<Cf64> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
        let fa = fft(&a);
        let fb = fft(&b);
        let fs = fft(&sum);
        for i in 0..n {
            assert!((fs[i] - (fa[i] + fb[i])).abs() < 1e-9);
        }
    }
}
