//! The 64-sample weighted-phase cross-correlator (paper Fig. 3).
//!
//! Derived from the Rice WARP OFDM reference design's correlation core:
//! incoming 16-bit I/Q samples are sliced to their sign bits (1-bit signed,
//! +-1) and correlated against a 64-tap template of 3-bit signed
//! coefficients, one coefficient rail for I and one for Q. The complex
//! correlation magnitude-squared
//!
//! ```text
//!   z  = sum_k (sI[k] + j sQ[k]) (cI[k] - j cQ[k])
//!   out = Re(z)^2 + Im(z)^2
//! ```
//!
//! is compared against a host-programmed threshold ("confidence-weighted
//! phase correlator output ... compared against a user-selected threshold").
//!
//! Two bit-exact implementations are provided:
//!
//! * [`CrossCorrelator::push_reference`] — the straightforward 64-tap loop,
//!   matching the block diagram one multiply-accumulate at a time;
//! * [`CrossCorrelator::push`] — a table-driven form that keeps the sign
//!   history in one interleaved 128-bit (I, Q) register, two bits per
//!   sample, and evaluates the whole complex sum with 16 lookups into
//!   tables compiled from the template at load time. Each table covers
//!   four taps: its 256 entries hold the packed (re, im) partial sums for
//!   every combination of their eight sign bits. This is the software
//!   analogue of the FPGA evaluating all 64 taps in one clock, and is what
//!   makes workspace-scale Monte Carlo sweeps tractable.
//!
//! Property tests assert the two agree on random streams.

use rjam_sdr::complex::IqI16;

/// A 3-bit signed correlation coefficient in `-4..=3`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Coeff3(i8);

impl Coeff3 {
    /// Creates a coefficient, clamping to the representable range — the same
    /// saturation the host-side quantizer applies before loading templates.
    pub fn saturating(v: i32) -> Self {
        Coeff3(v.clamp(-4, 3) as i8)
    }

    /// Creates a coefficient that must already be in range.
    ///
    /// # Panics
    /// Panics if `v` is outside `-4..=3`.
    pub fn new(v: i8) -> Self {
        assert!((-4..=3).contains(&v), "coefficient {v} out of 3-bit range");
        Coeff3(v)
    }

    /// Raw value.
    pub fn get(self) -> i8 {
        self.0
    }
}

/// Shifts one sample's sign bits into an interleaved sign history.
///
/// Bit `2k` of the history is set when the I component of the sample `k`
/// pushes ago was negative, bit `2k + 1` when its Q component was; bit
/// pair 0 is the newest sample. A 64-tap window fills the 128 bits.
#[inline]
pub(crate) fn shift_signs(hist: u128, s: IqI16) -> u128 {
    (hist << 2) | u128::from(s.i < 0) | (u128::from(s.q < 0) << 1)
}

/// Taps per lookup table: four samples' (I, Q) sign bits index 256 entries.
const TAPS_PER_CHUNK: usize = 4;

/// Lookup tables per 64-tap template.
const CHUNKS: usize = 64 / TAPS_PER_CHUNK;

/// Bias added to each half of a table entry so both stay non-negative.
/// One tap adds at most `|cI| + |cQ| = 8` to either sum, so four taps stay
/// within `-32..=32`.
const CHUNK_BIAS: i32 = 8 * TAPS_PER_CHUNK as i32;

/// A 64-tap template compiled into [`CHUNKS`] lookup tables: the
/// correlator kernel that [`CrossCorrelator::push`] and the lane bank's
/// per-template evaluation share.
///
/// Entry `e` of table `c` holds the complex partial sum
///
/// ```text
///   re = sum_j sI[k] cI[63-k] + sQ[k] cQ[63-k]
///   im = sum_j sQ[k] cI[63-k] - sI[k] cQ[63-k]      k = 4c + j, j = 0..4
/// ```
///
/// for the signs (`s = +1`, or `-1` where the bit is set) that the eight
/// bits of `e` encode — byte `c` of the interleaved history. Each half is
/// biased by [`CHUNK_BIAS`] and packed into one `u32` as
/// `(im + bias) << 16 | (re + bias)`; the 16 biased halves sum to at most
/// 1024, so adding whole entries never carries between halves. One table
/// set is 16 KB.
#[derive(Clone)]
pub(crate) struct TemplateTables {
    chunks: Box<[[u32; 256]; CHUNKS]>,
}

impl TemplateTables {
    /// Compiles a template given as taps oldest-first (tap 63 meets the
    /// newest sample).
    pub(crate) fn new(ci: &[Coeff3; 64], cq: &[Coeff3; 64]) -> Self {
        let mut t = TemplateTables {
            chunks: Box::new([[0; 256]; CHUNKS]),
        };
        t.compile(ci, cq);
        t
    }

    /// Recompiles the tables in place, with no heap allocation.
    pub(crate) fn compile(&mut self, ci: &[Coeff3; 64], cq: &[Coeff3; 64]) {
        for (c, table) in self.chunks.iter_mut().enumerate() {
            // terms[j][bits]: the packed contribution of the sample
            // k = 4c + j pushes ago, for its two sign bits.
            let terms: [[u32; 4]; TAPS_PER_CHUNK] = std::array::from_fn(|j| {
                let k = TAPS_PER_CHUNK * c + j;
                let (tap_i, tap_q) = (i32::from(ci[63 - k].0), i32::from(cq[63 - k].0));
                std::array::from_fn(|bits| {
                    let si = if bits & 1 != 0 { -1 } else { 1 };
                    let sq = if bits & 2 != 0 { -1 } else { 1 };
                    pack(si * tap_i + sq * tap_q, sq * tap_i - si * tap_q)
                })
            });
            for (e, entry) in table.iter_mut().enumerate() {
                *entry = terms
                    .iter()
                    .enumerate()
                    .fold(pack(CHUNK_BIAS, CHUNK_BIAS), |acc, (j, term)| {
                        acc.wrapping_add(term[(e >> (2 * j)) & 3])
                    });
            }
        }
    }

    /// The squared correlation magnitude `re^2 + im^2` for a sign history
    /// (see [`shift_signs`]): 16 lookups and adds.
    #[inline]
    pub(crate) fn metric(&self, hist: u128) -> u64 {
        let mut acc = 0u32;
        for (table, byte) in self.chunks.iter().zip(hist.to_le_bytes()) {
            acc += table[usize::from(byte)];
        }
        let bias = CHUNKS as i64 * CHUNK_BIAS as i64;
        let re = i64::from(acc & 0xFFFF) - bias;
        let im = i64::from(acc >> 16) - bias;
        (re * re + im * im) as u64
    }
}

/// Packs a signed (re, im) pair into one `u32` in wrapping arithmetic; the
/// pair decodes exactly once both halves are back in `0..65536`.
fn pack(re: i32, im: i32) -> u32 {
    (re as u32).wrapping_add((im as u32) << 16)
}

impl std::fmt::Debug for TemplateTables {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemplateTables").finish_non_exhaustive()
    }
}

/// The streaming cross-correlator block.
#[derive(Clone, Debug)]
pub struct CrossCorrelator {
    coeff_i: [Coeff3; 64],
    coeff_q: [Coeff3; 64],
    tables: TemplateTables,
    /// Interleaved (I, Q) sign history, see [`shift_signs`].
    hist: u128,
    /// Samples consumed; the window is valid once >= 64.
    fed: u64,
    classifier: Classifier,
}

/// Per-sample correlator output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct XcorrOutput {
    /// Squared correlation magnitude.
    pub metric: u64,
    /// True while the metric is at or above the threshold (raw comparator).
    pub above: bool,
    /// True exactly on armed rising edges (the detection trigger pulse).
    pub trigger: bool,
}

/// The trigger classifier behind every correlator output: warm-up gating,
/// threshold compare, rising-edge detection and post-trigger lockout.
///
/// [`CrossCorrelator`], each [`crate::DspLaneBank`] lane and
/// [`crate::WideCorrelator`] hold one and call [`Classifier::step`] once per
/// sample with the metric they computed, so the three cannot diverge.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Classifier {
    /// Threshold on the squared-magnitude metric.
    pub(crate) threshold: u64,
    /// Refractory period after a trigger, in samples.
    pub(crate) lockout: u64,
    /// Samples remaining before re-arm.
    lockout_left: u64,
    /// Previous above-threshold state for edge detection.
    was_above: bool,
}

impl Classifier {
    pub(crate) fn new(threshold: u64, lockout: u64) -> Self {
        Classifier {
            threshold,
            lockout,
            lockout_left: 0,
            was_above: false,
        }
    }

    /// Classifies one sample's metric. `window_valid` is false while the
    /// correlator window is still filling: the metric reads 0 and nothing
    /// is above threshold.
    #[inline(always)]
    pub(crate) fn step(&mut self, metric: u64, window_valid: bool) -> XcorrOutput {
        let above = window_valid && metric >= self.threshold;
        let mut trigger = false;
        if self.lockout_left > 0 {
            self.lockout_left -= 1;
        } else if above && !self.was_above {
            trigger = true;
            self.lockout_left = self.lockout;
        }
        self.was_above = above;
        XcorrOutput {
            metric: if window_valid { metric } else { 0 },
            above,
            trigger,
        }
    }

    /// Clears the lockout and edge state, keeping threshold and lockout.
    pub(crate) fn reset(&mut self) {
        self.lockout_left = 0;
        self.was_above = false;
    }
}

/// The normalisation constant host thresholds are fractions of:
/// `(sum |cI| + sum |cQ|)^2` over a template's two coefficient rails.
///
/// It is the metric of a matched sign stream (re reaches the absolute
/// coefficient sum with im = 0) and of its 90-degree-rotated copy, but it
/// is *not* the largest metric a template can produce: `|z|^2` can exceed
/// it, up to `2 (sum sqrt(cI^2 + cQ^2))^2`. Rails all -4 / all 3 reach
/// 204 800 against 200 704 (`extreme_templates_agree_at_table_bounds`), so
/// a threshold at fraction 1.0 can still fire.
/// [`CrossCorrelator::max_metric`], [`crate::DspLaneBank::max_metric`],
/// [`crate::WideCorrelator::max_metric`] and the host's template
/// thresholds all use this one definition.
pub fn max_metric(ci: impl IntoIterator<Item = i8>, cq: impl IntoIterator<Item = i8>) -> u64 {
    let sum: u64 = ci
        .into_iter()
        .chain(cq)
        .map(|c| u64::from(c.unsigned_abs()))
        .sum();
    sum * sum
}

impl CrossCorrelator {
    /// Creates a correlator with all-zero coefficients and an effectively
    /// disabled threshold.
    pub fn new() -> Self {
        let zero = [Coeff3(0); 64];
        CrossCorrelator {
            coeff_i: zero,
            coeff_q: zero,
            tables: TemplateTables::new(&zero, &zero),
            hist: 0,
            fed: 0,
            classifier: Classifier::new(u64::MAX, 0),
        }
    }

    /// Loads a new coefficient template (both rails).
    ///
    /// # Panics
    /// Panics unless both rails have exactly 64 taps.
    pub fn load_coeffs(&mut self, ci: &[Coeff3], cq: &[Coeff3]) {
        let ci: &[Coeff3; 64] = ci.try_into().expect("I rail must have 64 taps");
        let cq: &[Coeff3; 64] = cq.try_into().expect("Q rail must have 64 taps");
        self.set_template(ci, cq);
    }

    /// Loads coefficients from raw `i8` values (register-bus unpacked form).
    ///
    /// Converts in place with no heap allocation — this is the "on-the-fly
    /// personality change" path and must stay allocation-free.
    ///
    /// # Panics
    /// Panics if any coefficient is outside `-4..=3`.
    pub fn load_coeffs_raw(&mut self, ci: &[i8; 64], cq: &[i8; 64]) {
        self.set_template(&ci.map(Coeff3::new), &cq.map(Coeff3::new));
    }

    /// Latches a template, recompiling the lookup tables only when the
    /// coefficients changed: a personality switch that keeps its template
    /// costs no table build.
    fn set_template(&mut self, ci: &[Coeff3; 64], cq: &[Coeff3; 64]) {
        if self.coeff_i != *ci || self.coeff_q != *cq {
            self.coeff_i = *ci;
            self.coeff_q = *cq;
            self.tables.compile(ci, cq);
        }
    }

    /// Sets the detection threshold on the squared-magnitude metric.
    pub fn set_threshold(&mut self, threshold: u64) {
        self.classifier.threshold = threshold;
    }

    /// Current threshold.
    pub fn threshold(&self) -> u64 {
        self.classifier.threshold
    }

    /// Sets the post-trigger lockout (refractory) period in samples.
    pub fn set_lockout(&mut self, samples: u64) {
        self.classifier.lockout = samples;
    }

    /// The loaded template's threshold normalisation constant, see
    /// [`max_metric`].
    pub fn max_metric(&self) -> u64 {
        max_metric(self.coeff_i.map(Coeff3::get), self.coeff_q.map(Coeff3::get))
    }

    /// Feeds one sample through the table-driven datapath.
    #[inline]
    pub fn push(&mut self, s: IqI16) -> XcorrOutput {
        self.hist = shift_signs(self.hist, s);
        self.fed += 1;
        let metric = self.tables.metric(self.hist);
        self.classifier.step(metric, self.fed >= 64)
    }

    /// Feeds one sample through the literal 64-tap loop (reference model).
    pub fn push_reference(&mut self, s: IqI16) -> XcorrOutput {
        self.hist = shift_signs(self.hist, s);
        self.fed += 1;
        let mut re = 0i32;
        let mut im = 0i32;
        let mut signs = self.hist;
        for k in 0..64 {
            // Complex correlation with the template conjugate:
            //   re = sI.cI + sQ.cQ     im = sQ.cI - sI.cQ
            // The low bit pair of `signs` is the sample k pushes ago; it
            // lines up with coefficient tap 63-k (taps stored oldest-first).
            let si: i32 = if signs & 1 == 1 { -1 } else { 1 };
            let sq: i32 = if signs & 2 == 2 { -1 } else { 1 };
            signs >>= 2;
            let ci = self.coeff_i[63 - k].0 as i32;
            let cq = self.coeff_q[63 - k].0 as i32;
            re += si * ci + sq * cq;
            im += sq * ci - si * cq;
        }
        let metric = (re as i64 * re as i64 + im as i64 * im as i64) as u64;
        self.classifier.step(metric, self.fed >= 64)
    }

    /// Resets the streaming state, keeping coefficients and thresholds.
    pub fn reset(&mut self) {
        self.hist = 0;
        self.fed = 0;
        self.classifier.reset();
    }
}

impl Default for CrossCorrelator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_sdr::rng::Rng;

    fn template_from_signs(signs_i: &[i8], signs_q: &[i8]) -> (Vec<Coeff3>, Vec<Coeff3>) {
        let ci = signs_i.iter().map(|&s| Coeff3::new(3 * s)).collect();
        let cq = signs_q.iter().map(|&s| Coeff3::new(3 * s)).collect();
        (ci, cq)
    }

    fn random_signs(rng: &mut Rng, n: usize) -> Vec<i8> {
        (0..n)
            .map(|_| if rng.chance(0.5) { 1 } else { -1 })
            .collect()
    }

    #[test]
    fn matched_template_peaks_at_alignment() {
        let mut rng = Rng::seed_from(10);
        let si = random_signs(&mut rng, 64);
        let sq = random_signs(&mut rng, 64);
        let (ci, cq) = template_from_signs(&si, &sq);
        let mut xc = CrossCorrelator::new();
        xc.load_coeffs(&ci, &cq);
        xc.set_threshold(u64::MAX); // observe metric only
        let mut peak = 0u64;
        let mut peak_at = 0usize;
        for (n, (&i, &q)) in si.iter().zip(sq.iter()).enumerate() {
            let out = xc.push(IqI16::new(i as i16 * 1000, q as i16 * 1000));
            if out.metric > peak {
                peak = out.metric;
                peak_at = n;
            }
        }
        assert_eq!(peak_at, 63, "peak must occur when window filled");
        // Perfectly matched: re = sum |c| over both rails = 64*3*2 = 384,
        // im = 0 -> metric = 384^2.
        assert_eq!(peak, 384 * 384);
    }

    #[test]
    fn extreme_templates_agree_at_table_bounds() {
        // All -4, 3 or 0 on each rail, fed whole windows of one sign pair,
        // drives every packed per-table sum to its bound. A constant window
        // gives z = 64 (sI + j sQ)(a - j b), so |z|^2 = 8192 (a^2 + b^2).
        let signs = [(1000, 1000), (1000, -1000), (-1000, 1000), (-1000, -1000)];
        for a in [-4i8, 3, 0] {
            for b in [-4i8, 3, 0] {
                let mut fast = CrossCorrelator::new();
                let mut slow = CrossCorrelator::new();
                fast.load_coeffs_raw(&[a; 64], &[b; 64]);
                slow.load_coeffs_raw(&[a; 64], &[b; 64]);
                let mut peak = 0;
                for (i, q) in signs {
                    for _ in 0..64 {
                        let s = IqI16::new(i, q);
                        let out = fast.push(s);
                        assert_eq!(out, slow.push_reference(s), "rails {a}/{b}");
                        peak = peak.max(out.metric);
                    }
                }
                let bound = 8192 * (i32::from(a).pow(2) + i32::from(b).pow(2));
                assert_eq!(peak, bound as u64, "rails {a}/{b}");
            }
        }
    }

    #[test]
    fn mismatched_stream_stays_low() {
        let mut rng = Rng::seed_from(11);
        let (ci, cq) =
            template_from_signs(&random_signs(&mut rng, 64), &random_signs(&mut rng, 64));
        let mut xc = CrossCorrelator::new();
        xc.load_coeffs(&ci, &cq);
        // Feed independent random signs; expected metric ~ 2 * 64 * 9 * 2.
        let mut max_metric = 0u64;
        for _ in 0..2000 {
            let i = if rng.chance(0.5) { 1000 } else { -1000 };
            let q = if rng.chance(0.5) { 1000 } else { -1000 };
            max_metric = max_metric.max(xc.push(IqI16::new(i, q)).metric);
        }
        assert!(max_metric < (384 * 384) / 4, "max={max_metric}");
    }

    #[test]
    fn reference_and_table_agree() {
        let mut rng = Rng::seed_from(12);
        let ci: Vec<Coeff3> = (0..64)
            .map(|_| Coeff3::saturating(rng.below(8) as i32 - 4))
            .collect();
        let cq: Vec<Coeff3> = (0..64)
            .map(|_| Coeff3::saturating(rng.below(8) as i32 - 4))
            .collect();
        let mut fast = CrossCorrelator::new();
        let mut slow = CrossCorrelator::new();
        fast.load_coeffs(&ci, &cq);
        slow.load_coeffs(&ci, &cq);
        fast.set_threshold(5000);
        slow.set_threshold(5000);
        for _ in 0..1000 {
            let s = IqI16::new(
                (rng.below(65536) as i32 - 32768) as i16,
                (rng.below(65536) as i32 - 32768) as i16,
            );
            let a = fast.push(s);
            let b = slow.push_reference(s);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rotated_input_appears_in_imaginary_rail() {
        // A 90-degree rotated copy of the template must land in Im(z),
        // keeping |z|^2 at the peak: the "weighted phase" property that makes
        // the detector robust to carrier phase.
        let mut rng = Rng::seed_from(13);
        let si = random_signs(&mut rng, 64);
        let sq = random_signs(&mut rng, 64);
        let (ci, cq) = template_from_signs(&si, &sq);
        let mut xc = CrossCorrelator::new();
        xc.load_coeffs(&ci, &cq);
        let mut last = XcorrOutput {
            metric: 0,
            above: false,
            trigger: false,
        };
        for (&i, &q) in si.iter().zip(sq.iter()) {
            // Multiply (i + jq) by j: (-q + ji).
            last = xc.push(IqI16::new(-(q as i16) * 1000, i as i16 * 1000));
        }
        assert_eq!(last.metric, 384 * 384);
    }

    #[test]
    fn trigger_fires_on_rising_edge_with_lockout() {
        let mut rng = Rng::seed_from(14);
        let si = random_signs(&mut rng, 64);
        let sq = random_signs(&mut rng, 64);
        let (ci, cq) = template_from_signs(&si, &sq);
        let mut xc = CrossCorrelator::new();
        xc.load_coeffs(&ci, &cq);
        xc.set_threshold(300 * 300);
        xc.set_lockout(100);
        let mut triggers = Vec::new();
        let mut n = 0usize;
        for _round in 0..3 {
            for (&i, &q) in si.iter().zip(sq.iter()) {
                let out = xc.push(IqI16::new(i as i16 * 1000, q as i16 * 1000));
                if out.trigger {
                    triggers.push(n);
                }
                n += 1;
            }
        }
        // Alignment recurs every 64 samples but lockout is 100, so the second
        // alignment (n=127) is suppressed and the third (n=191) fires.
        assert_eq!(triggers, vec![63, 191]);
    }

    #[test]
    fn warmup_window_does_not_trigger() {
        let mut xc = CrossCorrelator::new();
        let ci = vec![Coeff3::new(3); 64];
        let cq = vec![Coeff3::new(0); 64];
        xc.load_coeffs(&ci, &cq);
        xc.set_threshold(1); // hair trigger
        for n in 0..63 {
            let out = xc.push(IqI16::new(1000, 1000));
            assert!(!out.trigger, "premature trigger at sample {n}");
        }
        let out = xc.push(IqI16::new(1000, 1000));
        assert!(out.trigger, "must trigger once the window is valid");
    }

    #[test]
    fn reset_clears_history() {
        let mut xc = CrossCorrelator::new();
        xc.load_coeffs(&[Coeff3::new(3); 64], &[Coeff3::new(0); 64]);
        xc.set_threshold(1);
        for _ in 0..64 {
            xc.push(IqI16::new(1000, 0));
        }
        xc.reset();
        for n in 0..63 {
            assert!(!xc.push(IqI16::new(1000, 0)).trigger, "at {n}");
        }
    }

    #[test]
    fn coeff3_saturates() {
        assert_eq!(Coeff3::saturating(100).get(), 3);
        assert_eq!(Coeff3::saturating(-100).get(), -4);
        assert_eq!(Coeff3::saturating(2).get(), 2);
    }

    #[test]
    fn load_coeffs_raw_matches_load_coeffs() {
        let mut rng = Rng::seed_from(15);
        let raw_i: [i8; 64] = std::array::from_fn(|_| (rng.below(8) as i32 - 4) as i8);
        let raw_q: [i8; 64] = std::array::from_fn(|_| (rng.below(8) as i32 - 4) as i8);
        let ci: Vec<Coeff3> = raw_i.iter().map(|&c| Coeff3::new(c)).collect();
        let cq: Vec<Coeff3> = raw_q.iter().map(|&c| Coeff3::new(c)).collect();
        let mut a = CrossCorrelator::new();
        let mut b = CrossCorrelator::new();
        a.load_coeffs_raw(&raw_i, &raw_q);
        b.load_coeffs(&ci, &cq);
        a.set_threshold(5000);
        b.set_threshold(5000);
        for _ in 0..256 {
            let s = IqI16::new(
                (rng.below(65536) as i32 - 32768) as i16,
                (rng.below(65536) as i32 - 32768) as i16,
            );
            assert_eq!(a.push(s), b.push(s));
        }
    }

    #[test]
    fn max_metric_bound() {
        let mut xc = CrossCorrelator::new();
        xc.load_coeffs(&[Coeff3::new(3); 64], &[Coeff3::new(-4); 64]);
        assert_eq!(xc.max_metric(), (64 * 3 + 64 * 4) * (64 * 3 + 64 * 4));
    }
}
