//! Multipath fading channels (toward the paper's over-the-air future work).
//!
//! The paper evaluates in a cabled network "to isolate environmental
//! effects"; taking the platform over the air adds frequency-selective
//! multipath. This module provides a tapped-delay-line model with Rayleigh
//! tap statistics (IEEE 802.11 TGn-style exponential power-delay profiles),
//! so detection and jamming campaigns can be re-run under realistic indoor
//! channels.

use rjam_sdr::complex::Cf64;
use rjam_sdr::rng::Rng;

/// Taps [`MultipathChannel::apply_into`] lays out on the stack; a longer
/// channel takes a heap buffer.
const STACK_TAPS: usize = 64;

/// A static (per-packet) tapped-delay-line channel realization.
///
/// ```
/// use rjam_channel::MultipathChannel;
/// use rjam_sdr::rng::Rng;
/// let mut rng = Rng::seed_from(7);
/// let ch = MultipathChannel::rayleigh(6, 1.5, &mut rng);
/// assert!((ch.energy() - 1.0).abs() < 1e-9); // normalized realization
/// let faded = ch.apply(&[rjam_sdr::complex::Cf64::ONE; 100]);
/// assert_eq!(faded.len(), 100 + ch.n_taps() - 1);
/// ```
#[derive(Clone, Debug)]
pub struct MultipathChannel {
    /// Complex tap gains; tap `k` applies at a delay of `k` samples.
    taps: Vec<Cf64>,
}

impl Default for MultipathChannel {
    /// The [flat](MultipathChannel::flat) channel.
    fn default() -> Self {
        MultipathChannel::flat()
    }
}

impl MultipathChannel {
    /// A flat (single-tap, unit-gain) channel.
    pub fn flat() -> Self {
        MultipathChannel {
            taps: vec![Cf64::ONE],
        }
    }

    /// Draws a Rayleigh-fading realization with an exponential power-delay
    /// profile: `n_taps` taps, RMS delay spread `rms_taps` (in samples),
    /// normalized to unit average energy.
    pub fn rayleigh(n_taps: usize, rms_taps: f64, rng: &mut Rng) -> Self {
        let mut ch = MultipathChannel {
            taps: Vec::with_capacity(n_taps),
        };
        ch.redraw_rayleigh(n_taps, rms_taps, rng);
        ch
    }

    /// Replaces this realization with the one [`MultipathChannel::rayleigh`]
    /// draws from `rng` (the same draws in the same order, the same
    /// normalization), in its own tap buffer: a channel kept across frames
    /// stops allocating once the buffer holds `n_taps`.
    ///
    /// # Panics
    /// Panics unless `n_taps > 0` and `rms_taps > 0`.
    pub fn redraw_rayleigh(&mut self, n_taps: usize, rms_taps: f64, rng: &mut Rng) {
        assert!(n_taps > 0 && rms_taps > 0.0);
        let taps = &mut self.taps;
        taps.clear();
        let mut energy = 0.0;
        for k in 0..n_taps {
            let p = (-(k as f64) / rms_taps).exp();
            let sigma = (p / 2.0).sqrt();
            let tap = Cf64::new(rng.gaussian() * sigma, rng.gaussian() * sigma);
            energy += tap.norm_sq();
            taps.push(tap);
        }
        let k = 1.0 / energy.sqrt().max(1e-30);
        for t in taps.iter_mut() {
            *t = t.scale(k);
        }
    }

    /// Number of taps (delay spread + 1 in samples).
    pub fn n_taps(&self) -> usize {
        self.taps.len()
    }

    /// Total channel energy (1.0 for normalized realizations).
    pub fn energy(&self) -> f64 {
        self.taps.iter().map(|t| t.norm_sq()).sum()
    }

    /// Applies the channel to a waveform (linear convolution, output length
    /// `input.len() + n_taps - 1`).
    pub fn apply(&self, input: &[Cf64]) -> Vec<Cf64> {
        let mut out = Vec::new();
        self.apply_into(input, &mut out);
        out
    }

    /// [`MultipathChannel::apply`] into a caller-owned buffer: `out` is
    /// cleared and refilled, so a reused buffer stops allocating once it is
    /// large enough.
    ///
    /// Output `n` is gathered: the sum, from `Cf64::ZERO` over ascending
    /// `i`, of `input[i] * taps[n - i]` — the terms a scatter loop over
    /// `i` then taps would add into it, in that loop's order. Outputs whose
    /// every tap has an input sample are computed four at a time, each
    /// with its own accumulator; the first `n_taps - 1` outputs, the last
    /// ones and any input shorter than the channel take the bounded sum.
    ///
    /// In the four-wide loop each product `x * h` is formed as
    /// `(x.re·h.re + x.im·(−h.im), x.im·h.re + x.re·h.im)` from taps stored
    /// as `[h.re, h.re, −h.im, h.im]`, so that two two-lane multiplies make
    /// it. These are the bits of `Cf64`'s product: IEEE 754 defines `a − b`
    /// as `a + (−b)`, negation is exact, and `+` commutes.
    pub fn apply_into(&self, input: &[Cf64], out: &mut Vec<Cf64>) {
        let taps = &self.taps[..];
        let t = taps.len();
        let len = input.len();
        let n_out = len + t - 1;
        out.clear();
        out.reserve(n_out);
        let edge = |n: usize| {
            let lo = (n + 1).saturating_sub(t);
            input[lo..len.min(n + 1)]
                .iter()
                .zip(taps[..=n - lo].iter().rev())
                .fold(Cf64::ZERO, |acc, (&x, &h)| acc + x * h)
        };
        let full = t - 1..len.max(t - 1);
        out.extend((0..full.start).map(edge));
        // The taps newest-first, as the four-wide loop reads them; on the
        // stack for every channel a campaign draws.
        let mut stack = [[0.0; 4]; STACK_TAPS];
        let mut heap = Vec::new();
        let rev = if t <= STACK_TAPS {
            &mut stack[..t]
        } else {
            heap.resize(t, [0.0; 4]);
            &mut heap[..]
        };
        for (v, h) in rev.iter_mut().zip(taps.iter().rev()) {
            *v = [h.re, h.re, -h.im, h.im];
        }
        let mut n = full.start;
        while n + 4 <= full.end {
            let w = &input[n + 1 - t..n + 4];
            let mut acc = [[0.0; 2]; 4];
            for (k, h) in rev.iter().enumerate() {
                let x: &[Cf64; 4] = w[k..k + 4].try_into().expect("four samples");
                for (a, x) in acc.iter_mut().zip(x) {
                    a[0] += x.re * h[0] + x.im * h[2];
                    a[1] += x.im * h[1] + x.re * h[3];
                }
            }
            out.extend(acc.map(|[re, im]| Cf64::new(re, im)));
            n += 4;
        }
        out.extend((n..n_out).map(edge));
    }

    /// Frequency response at normalized frequency `f` (cycles/sample).
    pub fn response(&self, f: f64) -> Cf64 {
        self.taps
            .iter()
            .enumerate()
            .map(|(k, &h)| h * Cf64::from_angle(-std::f64::consts::TAU * f * k as f64))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_sdr::power::mean_power;

    /// `apply` as first written, scattering each input sample over the
    /// taps: the reference the gather kernel must match bit for bit.
    fn reference_apply(ch: &MultipathChannel, input: &[Cf64]) -> Vec<Cf64> {
        let mut out = vec![Cf64::ZERO; input.len() + ch.taps.len() - 1];
        for (i, &x) in input.iter().enumerate() {
            for (j, &h) in ch.taps.iter().enumerate() {
                out[i + j] += x * h;
            }
        }
        out
    }

    fn bits(buf: &[Cf64]) -> Vec<(u64, u64)> {
        buf.iter()
            .map(|s| (s.re.to_bits(), s.im.to_bits()))
            .collect()
    }

    fn noise(rng: &mut Rng, n: usize) -> Vec<Cf64> {
        (0..n)
            .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
            .collect()
    }

    /// Every tap count a campaign accepts (1..=64) and one that takes the
    /// heap buffer, every input length up to 70 and one long frame, into
    /// one dirty reused buffer.
    #[test]
    fn apply_into_matches_the_scatter_loop_bits() {
        let mut rng = Rng::seed_from(15);
        let mut out = noise(&mut rng, 11);
        for n_taps in 1..=STACK_TAPS + 1 {
            let ch = MultipathChannel::rayleigh(n_taps, 2.0, &mut rng);
            for len in (0..=70).chain([4_099]) {
                let input = noise(&mut rng, len);
                ch.apply_into(&input, &mut out);
                assert_eq!(
                    bits(&out),
                    bits(&reference_apply(&ch, &input)),
                    "{n_taps} taps, length {len}"
                );
            }
        }
    }

    /// `MultipathChannel::rayleigh` as first written, a fresh `Vec` per
    /// draw.
    fn reference_rayleigh(n_taps: usize, rms_taps: f64, rng: &mut Rng) -> Vec<Cf64> {
        let mut taps = Vec::with_capacity(n_taps);
        let mut energy = 0.0;
        for k in 0..n_taps {
            let p = (-(k as f64) / rms_taps).exp();
            let sigma = (p / 2.0).sqrt();
            let tap = Cf64::new(rng.gaussian() * sigma, rng.gaussian() * sigma);
            energy += tap.norm_sq();
            taps.push(tap);
        }
        let k = 1.0 / energy.sqrt().max(1e-30);
        taps.iter().map(|t| t.scale(k)).collect()
    }

    /// A channel redrawn trial after trial takes the draws and the bits of
    /// a fresh `rayleigh` realization at every tap count a campaign
    /// accepts, leaves the generator where that draw leaves it, and keeps
    /// its first buffer.
    #[test]
    fn redrawn_taps_match_fresh_draws_in_one_buffer() {
        let mut rng = Rng::seed_from(16);
        let mut pooled = MultipathChannel::default();
        pooled.redraw_rayleigh(STACK_TAPS, 2.0, &mut rng);
        let (buffer, capacity) = (pooled.taps.as_ptr(), pooled.taps.capacity());
        for n_taps in (1..=STACK_TAPS).chain((1..=STACK_TAPS).rev()) {
            let rms = 0.5 + n_taps as f64 / 8.0;
            let mut fresh = rng.clone();
            let want = reference_rayleigh(n_taps, rms, &mut fresh);
            assert_eq!(
                bits(&MultipathChannel::rayleigh(n_taps, rms, &mut rng.clone()).taps),
                bits(&want)
            );
            pooled.redraw_rayleigh(n_taps, rms, &mut rng);
            assert_eq!(bits(&pooled.taps), bits(&want), "{n_taps} taps");
            assert_eq!(rng.next_u64(), fresh.next_u64(), "{n_taps} taps: draws");
            assert_eq!(
                (pooled.taps.as_ptr(), pooled.taps.capacity()),
                (buffer, capacity)
            );
        }
    }

    #[test]
    fn flat_channel_is_identity() {
        let ch = MultipathChannel::flat();
        let x = vec![Cf64::new(0.5, -0.25); 10];
        let y = ch.apply(&x);
        assert_eq!(y.len(), 10);
        for (a, b) in x.iter().zip(y.iter()) {
            assert!((*a - *b).abs() < 1e-15);
        }
    }

    #[test]
    fn rayleigh_normalized_energy() {
        let mut rng = Rng::seed_from(10);
        for _ in 0..20 {
            let ch = MultipathChannel::rayleigh(8, 2.0, &mut rng);
            assert!((ch.energy() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn average_power_preserved_over_realizations() {
        let mut rng = Rng::seed_from(12);
        let x: Vec<Cf64> = (0..2000)
            .map(|t| Cf64::from_angle(0.1 * t as f64).scale(0.3))
            .collect();
        let p_in = mean_power(&x);
        let mut p_out = 0.0;
        let trials = 400;
        for _ in 0..trials {
            let ch = MultipathChannel::rayleigh(6, 1.5, &mut rng);
            p_out += mean_power(&ch.apply(&x)[..x.len()]);
        }
        p_out /= trials as f64;
        // A tone sees |H(f0)|^2, unit-mean but high-variance across
        // realizations; averaging over many draws recovers the mean.
        assert!((p_out / p_in - 1.0).abs() < 0.15, "ratio {}", p_out / p_in);
    }

    #[test]
    fn frequency_selectivity_appears_with_delay_spread() {
        let mut rng = Rng::seed_from(13);
        let ch = MultipathChannel::rayleigh(12, 3.0, &mut rng);
        // Response magnitude must vary across the band.
        let mags: Vec<f64> = (0..32)
            .map(|k| ch.response(k as f64 / 64.0 - 0.25).abs())
            .collect();
        let max = mags.iter().cloned().fold(0.0, f64::max);
        let min = mags.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max / min.max(1e-12) > 2.0, "selectivity {max}/{min}");
    }

    #[test]
    fn ofdm_survives_mild_multipath() {
        // Delay spread within the 16-sample cyclic prefix: the reference
        // receiver equalizes it and decodes.
        let mut rng = Rng::seed_from(14);
        let mut psdu = vec![0u8; 80];
        for (i, b) in psdu.iter_mut().enumerate() {
            *b = (i * 7) as u8;
        }
        let frame = rjam_phy80211::tx::Frame::new(rjam_phy80211::Rate::R12, psdu.clone());
        let wave = rjam_phy80211::tx::modulate_frame(&frame);
        for _ in 0..5 {
            let ch = MultipathChannel::rayleigh(6, 1.5, &mut rng);
            let faded = ch.apply(&wave);
            if let Ok(d) = rjam_phy80211::rx::decode_frame(&faded, 0) {
                if d.psdu == psdu {
                    return; // at least one realization decodes cleanly
                }
            }
        }
        panic!("no realization decoded; equalizer or channel model broken");
    }
}
