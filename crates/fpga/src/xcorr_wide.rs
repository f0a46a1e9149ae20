//! Extension: a parameterizable-length sign-bit correlator.
//!
//! The paper's §6 names the fixed 64-sample window as the platform's main
//! limitation — too short for the 80-sample (3.2 us at 25 MSPS) WiFi long
//! training symbol, let alone the 625-sample WiMAX code — and notes that
//! "increasing the correlation size above 64 samples will undoubtedly
//! improve the single-preamble detection performance, but will also give
//! rise to higher resource utilization". This module implements that
//! extension so the trade-off can be measured (see the
//! `ablation_corr_len` binary): the same sign-bit/3-bit-coefficient
//! arithmetic, over any window length, using chunked 64-bit bit-planes.

use crate::xcorr::{self, Classifier, Coeff3, XcorrOutput};
use rjam_sdr::complex::IqI16;

/// One coefficient rail as chunked two's-complement bit-planes: for a
/// negative-sample mask `m`, the rail sum is `total - 2 * sum_{k in m} c_k`,
/// and the masked sum is three popcounts per 64-bit chunk
/// (`c = -4 c2 + 2 c1 + c0`).
#[derive(Clone, Debug)]
struct WideRail {
    p0: Vec<u64>,
    p1: Vec<u64>,
    p2: Vec<u64>,
    total: i64,
}

impl WideRail {
    /// `coeffs[k]` applies to the sample `k` pushes ago.
    fn new(coeffs: &[Coeff3]) -> Self {
        let chunks = coeffs.len().div_ceil(64);
        let mut p0 = vec![0u64; chunks];
        let mut p1 = vec![0u64; chunks];
        let mut p2 = vec![0u64; chunks];
        let mut total = 0i64;
        for (k, c) in coeffs.iter().enumerate() {
            let bits = (c.get() as u8) & 0x7;
            let (word, off) = (k / 64, k % 64);
            if bits & 1 != 0 {
                p0[word] |= 1 << off;
            }
            if bits & 2 != 0 {
                p1[word] |= 1 << off;
            }
            if bits & 4 != 0 {
                p2[word] |= 1 << off;
            }
            total += c.get() as i64;
        }
        WideRail { p0, p1, p2, total }
    }

    #[inline]
    fn corr(&self, neg_mask: &[u64]) -> i64 {
        let mut masked = 0i64;
        for (w, &m) in neg_mask.iter().enumerate() {
            masked += (m & self.p0[w]).count_ones() as i64
                + 2 * (m & self.p1[w]).count_ones() as i64
                - 4 * (m & self.p2[w]).count_ones() as i64;
        }
        self.total - 2 * masked
    }
}

/// A streaming sign-bit correlator of arbitrary window length.
#[derive(Clone, Debug)]
pub struct WideCorrelator {
    len: usize,
    rail_i: WideRail,
    rail_q: WideRail,
    /// Chunked sign histories: bit k (within chunk layout) is the sample k
    /// pushes ago. Bit 0 of word 0 is the newest sample.
    neg_i: Vec<u64>,
    neg_q: Vec<u64>,
    /// Mask clearing bits at or beyond `len` in the last chunk.
    tail_mask: u64,
    /// The template's threshold normalisation constant.
    max_metric: u64,
    fed: u64,
    classifier: Classifier,
}

impl WideCorrelator {
    /// Creates a correlator from per-tap coefficients; tap `k` of each rail
    /// applies to the sample that arrived `len-1-k` pushes before the
    /// newest (i.e. rails are given oldest-first, like the 64-tap core).
    ///
    /// # Panics
    /// Panics unless both rails share a nonzero length.
    pub fn new(coeff_i: &[Coeff3], coeff_q: &[Coeff3]) -> Self {
        assert!(!coeff_i.is_empty(), "window must be nonzero");
        assert_eq!(coeff_i.len(), coeff_q.len(), "rails must match");
        let len = coeff_i.len();
        // Reverse so plane index k corresponds to "k pushes ago".
        let rev_i: Vec<Coeff3> = coeff_i.iter().rev().copied().collect();
        let rev_q: Vec<Coeff3> = coeff_q.iter().rev().copied().collect();
        let chunks = len.div_ceil(64);
        let tail_bits = len % 64;
        WideCorrelator {
            len,
            rail_i: WideRail::new(&rev_i),
            rail_q: WideRail::new(&rev_q),
            neg_i: vec![0; chunks],
            neg_q: vec![0; chunks],
            tail_mask: if tail_bits == 0 {
                u64::MAX
            } else {
                (1u64 << tail_bits) - 1
            },
            max_metric: xcorr::max_metric(
                coeff_i.iter().map(|c| c.get()),
                coeff_q.iter().map(|c| c.get()),
            ),
            fed: 0,
            classifier: Classifier::new(u64::MAX, 0),
        }
    }

    /// Window length in samples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Always false (construction rejects empty windows).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Sets the detection threshold on the squared-magnitude metric.
    pub fn set_threshold(&mut self, threshold: u64) {
        self.classifier.threshold = threshold;
    }

    /// Current threshold (parity with [`CrossCorrelator::threshold`]).
    ///
    /// [`CrossCorrelator::threshold`]: crate::CrossCorrelator::threshold
    pub fn threshold(&self) -> u64 {
        self.classifier.threshold
    }

    /// Sets the post-trigger lockout in samples.
    pub fn set_lockout(&mut self, samples: u64) {
        self.classifier.lockout = samples;
    }

    /// Resets the streaming state, keeping coefficients, threshold and
    /// lockout — bit-equivalent to a freshly constructed instance, which is
    /// the pooling contract `CampaignEngine::run_units` relies on.
    pub fn reset(&mut self) {
        self.neg_i.fill(0);
        self.neg_q.fill(0);
        self.fed = 0;
        self.classifier.reset();
    }

    /// The template's threshold normalisation constant, see
    /// [`xcorr::max_metric`].
    pub fn max_metric(&self) -> u64 {
        self.max_metric
    }

    #[inline]
    fn shift_in(mask: &mut [u64], bit: bool, tail_mask: u64) {
        let mut carry = u64::from(bit);
        for w in mask.iter_mut() {
            let out = *w >> 63;
            *w = (*w << 1) | carry;
            carry = out;
        }
        if let Some(last) = mask.last_mut() {
            *last &= tail_mask;
        }
    }

    /// Feeds one sample.
    pub fn push(&mut self, s: IqI16) -> XcorrOutput {
        Self::shift_in(&mut self.neg_i, s.i < 0, self.tail_mask);
        Self::shift_in(&mut self.neg_q, s.q < 0, self.tail_mask);
        self.fed += 1;
        let re = self.rail_i.corr(&self.neg_i) + self.rail_q.corr(&self.neg_q);
        let im = self.rail_i.corr(&self.neg_q) - self.rail_q.corr(&self.neg_i);
        let metric = (re * re + im * im) as u64;
        self.classifier.step(metric, self.fed >= self.len as u64)
    }

    /// Estimated FPGA footprint at this window length, scaling the paper's
    /// 64-tap synthesis linearly in taps (correlator structures are
    /// tap-parallel). Fractional windows round every field up — an 80-tap
    /// window still instantiates whole slices/FFs/LUTs, so flooring would
    /// under-report the footprint.
    pub fn estimated_resources(&self) -> crate::resources::Resources {
        let k = self.len as f64 / 64.0;
        let base = crate::resources::XCORR;
        crate::resources::Resources {
            slices: (base.slices as f64 * k).ceil() as u32,
            ffs: (base.ffs as f64 * k).ceil() as u32,
            brams: (base.brams as f64 * k).ceil() as u32,
            luts: (base.luts as f64 * k).ceil() as u32,
            iobs: 0,
            dsp48: base.dsp48,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrossCorrelator;
    use rjam_sdr::rng::Rng;

    fn random_coeffs(rng: &mut Rng, n: usize) -> Vec<Coeff3> {
        (0..n)
            .map(|_| Coeff3::saturating(rng.below(8) as i32 - 4))
            .collect()
    }

    #[test]
    fn agrees_with_64_tap_core() {
        let mut rng = Rng::seed_from(90);
        let ci = random_coeffs(&mut rng, 64);
        let cq = random_coeffs(&mut rng, 64);
        let mut wide = WideCorrelator::new(&ci, &cq);
        let mut narrow = CrossCorrelator::new();
        narrow.load_coeffs(&ci, &cq);
        wide.set_threshold(40_000);
        narrow.set_threshold(40_000);
        for _ in 0..500 {
            let s = IqI16::new(
                (rng.below(65536) as i64 - 32768) as i16,
                (rng.below(65536) as i64 - 32768) as i16,
            );
            let a = wide.push(s);
            let b = narrow.push(s);
            assert_eq!(a.metric, b.metric);
            assert_eq!(a.trigger, b.trigger);
        }
    }

    #[test]
    fn matched_peak_at_any_length() {
        let mut rng = Rng::seed_from(91);
        for len in [16usize, 64, 80, 100, 128, 256] {
            let signs_i: Vec<i8> = (0..len)
                .map(|_| if rng.chance(0.5) { 1 } else { -1 })
                .collect();
            let signs_q: Vec<i8> = (0..len)
                .map(|_| if rng.chance(0.5) { 1 } else { -1 })
                .collect();
            let ci: Vec<Coeff3> = signs_i.iter().map(|&s| Coeff3::new(3 * s)).collect();
            let cq: Vec<Coeff3> = signs_q.iter().map(|&s| Coeff3::new(3 * s)).collect();
            let mut xc = WideCorrelator::new(&ci, &cq);
            let mut peak = 0u64;
            for (&i, &q) in signs_i.iter().zip(signs_q.iter()) {
                peak = peak.max(xc.push(IqI16::new(i as i16 * 500, q as i16 * 500)).metric);
            }
            let expect = (6 * len as u64) * (6 * len as u64);
            assert_eq!(peak, expect, "len={len}");
            assert_eq!(xc.max_metric(), expect, "len={len}");
        }
    }

    #[test]
    fn longer_window_raises_processing_gain() {
        // Noise-floor metrics grow ~linearly with taps while the matched
        // peak grows quadratically: the normalized noise floor must drop.
        let mut rng = Rng::seed_from(92);
        let mut floors = Vec::new();
        for len in [64usize, 256] {
            let ci = random_coeffs(&mut rng, len);
            let cq = random_coeffs(&mut rng, len);
            let mut xc = WideCorrelator::new(&ci, &cq);
            let ideal = xc.max_metric() as f64;
            let mut peak = 0u64;
            for _ in 0..30_000 {
                let s = IqI16::new(
                    (rng.gaussian() * 3000.0) as i16,
                    (rng.gaussian() * 3000.0) as i16,
                );
                peak = peak.max(xc.push(s).metric);
            }
            floors.push(peak as f64 / ideal);
        }
        assert!(
            floors[1] < floors[0] * 0.7,
            "256-tap noise floor {:.3} vs 64-tap {:.3}",
            floors[1],
            floors[0]
        );
    }

    #[test]
    fn warmup_and_lockout() {
        let ci = vec![Coeff3::new(3); 100];
        let cq = vec![Coeff3::new(0); 100];
        let mut xc = WideCorrelator::new(&ci, &cq);
        xc.set_threshold(1);
        xc.set_lockout(50);
        let mut triggers = Vec::new();
        for n in 0..300 {
            if xc.push(IqI16::new(1000, 0)).trigger {
                triggers.push(n);
            }
        }
        assert_eq!(triggers, vec![99], "trigger once at window fill, then hold");
    }

    #[test]
    fn resource_estimate_scales() {
        let ci = vec![Coeff3::new(1); 256];
        let cq = vec![Coeff3::new(1); 256];
        let xc = WideCorrelator::new(&ci, &cq);
        let r = xc.estimated_resources();
        assert_eq!(r.slices, crate::resources::XCORR.slices * 4);
        assert!(r.fits_in(crate::resources::custom_logic_budget()));

        // Non-multiple-of-64 windows must ceil every field: an 80-tap
        // window (k = 1.25) occupies whole resources, never fewer than the
        // 64-tap base times k rounded up.
        let ci = vec![Coeff3::new(1); 80];
        let cq = vec![Coeff3::new(1); 80];
        let r = WideCorrelator::new(&ci, &cq).estimated_resources();
        let base = crate::resources::XCORR;
        let scale = |v: u32| (v as f64 * 80.0 / 64.0).ceil() as u32;
        assert_eq!(r.slices, scale(base.slices));
        assert_eq!(r.ffs, scale(base.ffs));
        assert_eq!(r.brams, scale(base.brams));
        assert_eq!(r.luts, scale(base.luts));
    }

    #[test]
    fn reset_is_bit_equivalent_to_fresh() {
        // The PR-6 pooling contract: after reset(), the correlator must be
        // indistinguishable from a freshly constructed one on any stream.
        let mut rng = Rng::seed_from(93);
        for len in [16usize, 64, 80, 200] {
            let ci = random_coeffs(&mut rng, len);
            let cq = random_coeffs(&mut rng, len);
            let mut pooled = WideCorrelator::new(&ci, &cq);
            pooled.set_threshold(30_000);
            pooled.set_lockout(17);
            // Dirty the streaming state (history, warmup, lockout, edge).
            for _ in 0..(2 * len + 37) {
                let s = IqI16::new(
                    (rng.below(65536) as i64 - 32768) as i16,
                    (rng.below(65536) as i64 - 32768) as i16,
                );
                pooled.push(s);
            }
            pooled.reset();
            let mut fresh = WideCorrelator::new(&ci, &cq);
            fresh.set_threshold(30_000);
            fresh.set_lockout(17);
            assert_eq!(pooled.threshold(), fresh.threshold());
            for n in 0..(3 * len) {
                let s = IqI16::new(
                    (rng.below(65536) as i64 - 32768) as i16,
                    (rng.below(65536) as i64 - 32768) as i16,
                );
                assert_eq!(pooled.push(s), fresh.push(s), "len={len} n={n}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rails must match")]
    fn rejects_mismatched_rails() {
        let _ = WideCorrelator::new(&[Coeff3::new(1); 10], &[Coeff3::new(1); 12]);
    }
}
