//! DSP lane bank: many correlator hypotheses per metric evaluation.
//!
//! The paper's FPGA evaluates all 64 correlator taps in one clock; the
//! software analogue ([`crate::CrossCorrelator::push`]) evaluates one
//! core's taps with 16 lookups into tables compiled from its template, but
//! each evaluation still serves exactly one (template, threshold, lockout)
//! tuple. Workspace-scale studies — ROC threshold sweeps, false-alarm
//! grids, fleets of modeled radios listening to one air stream — re-run
//! that identical evaluation N times over the same sign bits.
//!
//! [`DspLaneBank`] amortizes the evaluation: up to [`MAX_LANES`]
//! independent detection *lanes* share one interleaved sign-history
//! register, and lanes that share a template also share its compiled
//! lookup tables, so the metric is computed once per *distinct template*
//! per sample — by the same kernel the single correlator runs — while the
//! per-lane work collapses to a threshold compare and trigger/lockout
//! bookkeeping. A threshold sweep over one template is the ideal case: one
//! metric evaluation feeds all lanes.
//!
//! Two datapaths are provided, sharing one classifier so they cannot
//! diverge:
//!
//! * [`DspLaneBank::push_into`] — per-sample, emitting a full
//!   [`XcorrOutput`] per lane (metric, comparator, trigger), for callers
//!   that need every lane's metric stream;
//! * [`DspLaneBank::process_block_into`] — block-oriented hot path that
//!   hoists the warmup-window check and all event bookkeeping out of the
//!   per-sample loop: the warmup prefix of the block runs the general
//!   classifier, the main body runs a branch-reduced always-valid loop,
//!   and the only per-sample outputs are appended trigger sample indices
//!   (rare) plus cumulative per-lane counters.
//!
//! The enforced invariant is bit-equality with N independent
//! [`crate::CrossCorrelator`] instances fed the same stream — property
//! tests drive both at random templates, thresholds and lane counts — and
//! `reset()` is bit-equivalent to a fresh bank, so banks pool in
//! `CampaignEngine::run_units` like any other unit state.

use crate::xcorr::{shift_signs, Coeff3, TemplateTables, XcorrOutput};
use rjam_sdr::complex::IqI16;

/// Maximum number of lanes one bank can hold.
///
/// 64 matches the sign history's depth in samples: a bank never needs more
/// hypotheses than it has history samples before a second bank is cheaper
/// anyway (each additional bank shares nothing but code).
pub const MAX_LANES: usize = 64;

/// One distinct template's compiled lookup tables, shared by every lane
/// that loaded the same coefficients.
#[derive(Clone, Debug)]
struct TemplateGroup {
    coeff_i: [i8; 64],
    coeff_q: [i8; 64],
    tables: TemplateTables,
}

/// Per-lane classifier state, mirroring [`crate::CrossCorrelator`] exactly.
#[derive(Clone, Debug)]
struct LaneState {
    group: usize,
    threshold: u64,
    lockout: u64,
    lockout_left: u64,
    was_above: bool,
    triggers: u64,
}

/// Reusable per-block output buffers for [`DspLaneBank::process_block_into`].
///
/// Holds one `Vec` of absolute trigger sample indices per lane (an index of
/// `n` means the trigger fired on the `n`-th sample ever fed to the bank,
/// zero-based — the same numbering `samples_processed()` advances).
/// `process_block_into` *appends*; call [`LaneBankScratch::clear`] between
/// logical windows. Allocations are retained across blocks.
#[derive(Clone, Debug, Default)]
pub struct LaneBankScratch {
    /// Per-lane trigger sample indices, appended in stream order.
    pub triggers: Vec<Vec<u64>>,
}

impl LaneBankScratch {
    /// Empties every lane's trigger list, keeping capacity.
    pub fn clear(&mut self) {
        for t in &mut self.triggers {
            t.clear();
        }
    }

    fn ensure_lanes(&mut self, n: usize) {
        if self.triggers.len() < n {
            self.triggers.resize_with(n, Vec::new);
        }
    }
}

/// A bank of up to [`MAX_LANES`] cross-correlator hypotheses sharing one
/// sign-bit stream and, per distinct template, one set of lookup tables.
#[derive(Clone, Debug)]
pub struct DspLaneBank {
    groups: Vec<TemplateGroup>,
    lanes: Vec<LaneState>,
    /// Shared interleaved (I, Q) sign history, as in
    /// [`crate::CrossCorrelator`].
    hist: u128,
    /// Samples consumed; every lane's window is valid once >= 64.
    fed: u64,
}

impl DspLaneBank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        DspLaneBank {
            groups: Vec::new(),
            lanes: Vec::new(),
            hist: 0,
            fed: 0,
        }
    }

    /// Adds a detection lane and returns its index. Lanes with identical
    /// coefficient templates share one metric evaluation per sample.
    ///
    /// # Panics
    /// Panics if the bank already holds [`MAX_LANES`] lanes or any
    /// coefficient is outside the 3-bit range `-4..=3`.
    pub fn add_lane(
        &mut self,
        ci: &[i8; 64],
        cq: &[i8; 64],
        threshold: u64,
        lockout: u64,
    ) -> usize {
        assert!(
            self.lanes.len() < MAX_LANES,
            "lane bank is full ({MAX_LANES} lanes)"
        );
        let group = match self
            .groups
            .iter()
            .position(|g| g.coeff_i == *ci && g.coeff_q == *cq)
        {
            Some(g) => g,
            None => {
                self.groups.push(TemplateGroup {
                    coeff_i: *ci,
                    coeff_q: *cq,
                    tables: TemplateTables::new(&ci.map(Coeff3::new), &cq.map(Coeff3::new)),
                });
                self.groups.len() - 1
            }
        };
        self.lanes.push(LaneState {
            group,
            threshold,
            lockout,
            lockout_left: 0,
            was_above: false,
            triggers: 0,
        });
        self.lanes.len() - 1
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// True when the bank holds no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Number of distinct templates (shared metric evaluations per sample).
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Samples fed since construction or the last [`DspLaneBank::reset`].
    pub fn samples_processed(&self) -> u64 {
        self.fed
    }

    /// Cumulative trigger pulses on `lane` since construction or reset.
    ///
    /// # Panics
    /// Panics if `lane` is out of range.
    pub fn trigger_count(&self, lane: usize) -> u64 {
        self.lanes[lane].triggers
    }

    /// Cumulative trigger pulses for every lane, in lane order.
    pub fn trigger_counts(&self) -> Vec<u64> {
        self.lanes.iter().map(|l| l.triggers).collect()
    }

    /// Maximum possible metric for `lane`'s template. Like
    /// [`crate::CrossCorrelator::max_metric`], the bound
    /// `(sum |cI| + sum |cQ|)^2` is exactly attained: a matched sign stream
    /// drives the real accumulator to the absolute-coefficient sum with the
    /// imaginary at zero, and a 90-degree-rotated copy swaps the two, so
    /// `re^2 + im^2` peaks at exactly that square.
    ///
    /// # Panics
    /// Panics if `lane` is out of range.
    pub fn max_metric(&self, lane: usize) -> u64 {
        let g = &self.groups[self.lanes[lane].group];
        let max_i: i64 = g
            .coeff_i
            .iter()
            .chain(g.coeff_q.iter())
            .map(|&c| (c as i64).abs())
            .sum();
        (max_i * max_i) as u64
    }

    /// Resets all streaming state — sign histories, warmup, per-lane
    /// lockout/edge state and cumulative counters — keeping templates,
    /// thresholds and lockout periods. Bit-equivalent to a freshly built
    /// bank with the same lanes, which is the pooling contract
    /// `CampaignEngine::run_units` relies on.
    pub fn reset(&mut self) {
        self.hist = 0;
        self.fed = 0;
        for lane in &mut self.lanes {
            lane.lockout_left = 0;
            lane.was_above = false;
            lane.triggers = 0;
        }
    }

    #[inline]
    fn step(&mut self, s: IqI16) {
        self.hist = shift_signs(self.hist, s);
        self.fed += 1;
    }

    /// Evaluates each distinct template's metric once for the current
    /// history — the shared evaluation all lanes amortize.
    #[inline]
    fn group_metrics(&self, metrics: &mut [u64; MAX_LANES]) {
        for (m, grp) in metrics.iter_mut().zip(&self.groups) {
            *m = grp.tables.metric(self.hist);
        }
    }

    /// The classifier, byte-for-byte the logic of
    /// `CrossCorrelator::classify` applied to one lane.
    #[inline]
    fn classify_lane(lane: &mut LaneState, metric: u64, window_valid: bool) -> XcorrOutput {
        let above = window_valid && metric >= lane.threshold;
        let mut trigger = false;
        if lane.lockout_left > 0 {
            lane.lockout_left -= 1;
        } else if above && !lane.was_above {
            trigger = true;
            lane.lockout_left = lane.lockout;
            lane.triggers += 1;
        }
        lane.was_above = above;
        XcorrOutput {
            metric: if window_valid { metric } else { 0 },
            above,
            trigger,
        }
    }

    /// Feeds one sample to every lane, writing one [`XcorrOutput`] per lane.
    ///
    /// # Panics
    /// Panics unless `out.len()` equals the lane count.
    pub fn push_into(&mut self, s: IqI16, out: &mut [XcorrOutput]) {
        assert_eq!(out.len(), self.lanes.len(), "one output slot per lane");
        self.step(s);
        let valid = self.fed >= 64;
        let mut metrics = [0u64; MAX_LANES];
        self.group_metrics(&mut metrics);
        for (lane, slot) in self.lanes.iter_mut().zip(out.iter_mut()) {
            *slot = Self::classify_lane(lane, metrics[lane.group], valid);
        }
    }

    /// Feeds a whole block, appending each lane's trigger sample indices to
    /// `scratch.triggers` (see [`LaneBankScratch`]) and advancing the
    /// cumulative counters. This is the hot path: the warmup check runs
    /// only over the block's warmup prefix, and nothing is written per
    /// sample except on the rare trigger edges.
    pub fn process_block_into(&mut self, block: &[IqI16], scratch: &mut LaneBankScratch) {
        scratch.ensure_lanes(self.lanes.len());
        self.run_block(block, Some(scratch));
    }

    /// Feeds a whole block, advancing cumulative trigger counters only —
    /// the right call when only [`DspLaneBank::trigger_counts`] matter
    /// (e.g. false-alarm tallies).
    pub fn process_block(&mut self, block: &[IqI16]) {
        self.run_block(block, None);
    }

    fn run_block(&mut self, block: &[IqI16], mut sink: Option<&mut LaneBankScratch>) {
        let mut metrics = [0u64; MAX_LANES];
        // Samples pushed while fed <= 62 classify with an invalid window;
        // from the 64th sample on the window is always valid, so the main
        // body skips the check entirely.
        let head_len = (63u64.saturating_sub(self.fed) as usize).min(block.len());
        let (head, body) = block.split_at(head_len);
        for &s in head {
            self.step(s);
            self.group_metrics(&mut metrics);
            let now = self.fed - 1;
            let valid = self.fed >= 64;
            for (k, lane) in self.lanes.iter_mut().enumerate() {
                if Self::classify_lane(lane, metrics[lane.group], valid).trigger {
                    if let Some(sc) = sink.as_deref_mut() {
                        sc.triggers[k].push(now);
                    }
                }
            }
        }
        for &s in body {
            self.step(s);
            self.group_metrics(&mut metrics);
            let now = self.fed - 1;
            for (k, lane) in self.lanes.iter_mut().enumerate() {
                let above = metrics[lane.group] >= lane.threshold;
                if lane.lockout_left > 0 {
                    lane.lockout_left -= 1;
                } else if above && !lane.was_above {
                    lane.lockout_left = lane.lockout;
                    lane.triggers += 1;
                    if let Some(sc) = sink.as_deref_mut() {
                        sc.triggers[k].push(now);
                    }
                }
                lane.was_above = above;
            }
        }
    }
}

impl Default for DspLaneBank {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CrossCorrelator;
    use rjam_sdr::rng::Rng;

    fn random_template(rng: &mut Rng) -> ([i8; 64], [i8; 64]) {
        let ci: [i8; 64] = std::array::from_fn(|_| (rng.below(8) as i32 - 4) as i8);
        let cq: [i8; 64] = std::array::from_fn(|_| (rng.below(8) as i32 - 4) as i8);
        (ci, cq)
    }

    fn random_sample(rng: &mut Rng) -> IqI16 {
        IqI16::new(
            (rng.below(65536) as i64 - 32768) as i16,
            (rng.below(65536) as i64 - 32768) as i16,
        )
    }

    fn reference_core(
        ci: &[i8; 64],
        cq: &[i8; 64],
        threshold: u64,
        lockout: u64,
    ) -> CrossCorrelator {
        let mut xc = CrossCorrelator::new();
        xc.load_coeffs_raw(ci, cq);
        xc.set_threshold(threshold);
        xc.set_lockout(lockout);
        xc
    }

    #[test]
    fn single_lane_matches_plain_correlator_bit_for_bit() {
        let mut rng = Rng::seed_from(40);
        let (ci, cq) = random_template(&mut rng);
        let mut bank = DspLaneBank::new();
        bank.add_lane(&ci, &cq, 40_000, 30);
        let mut xc = reference_core(&ci, &cq, 40_000, 30);
        let mut out = [XcorrOutput {
            metric: 0,
            above: false,
            trigger: false,
        }; 1];
        for _ in 0..1000 {
            let s = random_sample(&mut rng);
            bank.push_into(s, &mut out);
            assert_eq!(out[0], xc.push(s));
        }
    }

    #[test]
    fn shared_template_evaluates_one_group() {
        let mut rng = Rng::seed_from(41);
        let (ci, cq) = random_template(&mut rng);
        let (di, dq) = random_template(&mut rng);
        let mut bank = DspLaneBank::new();
        for k in 0..8 {
            bank.add_lane(&ci, &cq, 1000 * (k + 1), 0);
        }
        bank.add_lane(&di, &dq, 5000, 0);
        assert_eq!(bank.lanes(), 9);
        assert_eq!(bank.groups(), 2, "8 shared + 1 distinct template");
    }

    #[test]
    fn per_lane_lockouts_fire_independently_at_64_lanes() {
        // One periodic matched stream, 64 lanes on the same template with
        // per-lane lockouts: each lane's trigger train must match its own
        // independent correlator exactly.
        let mut rng = Rng::seed_from(42);
        let signs_i: [i8; 64] = std::array::from_fn(|_| if rng.chance(0.5) { 1 } else { -1 });
        let signs_q: [i8; 64] = std::array::from_fn(|_| if rng.chance(0.5) { 1 } else { -1 });
        let ci: [i8; 64] = std::array::from_fn(|k| 3 * signs_i[k]);
        let cq: [i8; 64] = std::array::from_fn(|k| 3 * signs_q[k]);
        let mut bank = DspLaneBank::new();
        let mut refs = Vec::new();
        for lane in 0..MAX_LANES as u64 {
            // Lockouts straddle the 64-sample alignment period.
            let lockout = 2 * lane;
            bank.add_lane(&ci, &cq, 300 * 300, lockout);
            refs.push(reference_core(&ci, &cq, 300 * 300, lockout));
        }
        let mut out = vec![
            XcorrOutput {
                metric: 0,
                above: false,
                trigger: false,
            };
            MAX_LANES
        ];
        for _round in 0..6 {
            for k in 0..64 {
                let s = IqI16::new(signs_i[k] as i16 * 1000, signs_q[k] as i16 * 1000);
                bank.push_into(s, &mut out);
                for (lane, xc) in refs.iter_mut().enumerate() {
                    assert_eq!(out[lane], xc.push(s), "lane {lane}");
                }
            }
        }
        // Sanity: different lockouts produced genuinely different counts.
        let counts = bank.trigger_counts();
        assert!(counts.iter().any(|&c| c != counts[0]));
    }

    #[test]
    fn warmup_is_suppressed_per_lane() {
        let mut bank = DspLaneBank::new();
        bank.add_lane(&[3; 64], &[0; 64], 1, 0);
        bank.add_lane(&[0; 64], &[3; 64], 1, 0);
        let mut out = [XcorrOutput {
            metric: 0,
            above: false,
            trigger: false,
        }; 2];
        for n in 0..63 {
            bank.push_into(IqI16::new(1000, 1000), &mut out);
            for (lane, o) in out.iter().enumerate() {
                assert!(!o.trigger, "lane {lane} premature trigger at {n}");
                assert_eq!(o.metric, 0, "lane {lane} warmup metric at {n}");
            }
        }
        bank.push_into(IqI16::new(1000, 1000), &mut out);
        assert!(out[0].trigger && out[1].trigger);
    }

    #[test]
    fn block_path_matches_per_sample_path_at_any_block_size() {
        let mut rng = Rng::seed_from(43);
        let stream: Vec<IqI16> = (0..3000).map(|_| random_sample(&mut rng)).collect();
        let (ci, cq) = random_template(&mut rng);
        let (di, dq) = random_template(&mut rng);

        // Reference: per-sample path.
        let mut per_sample = DspLaneBank::new();
        per_sample.add_lane(&ci, &cq, 30_000, 10);
        per_sample.add_lane(&ci, &cq, 60_000, 0);
        per_sample.add_lane(&di, &dq, 45_000, 200);
        let mut expect: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let mut out = vec![
            XcorrOutput {
                metric: 0,
                above: false,
                trigger: false,
            };
            3
        ];
        for (n, &s) in stream.iter().enumerate() {
            per_sample.push_into(s, &mut out);
            for (lane, o) in out.iter().enumerate() {
                if o.trigger {
                    expect[lane].push(n as u64);
                }
            }
        }

        for block in [1usize, 7, 63, 64, 65, 500, 3000] {
            let mut bank = DspLaneBank::new();
            bank.add_lane(&ci, &cq, 30_000, 10);
            bank.add_lane(&ci, &cq, 60_000, 0);
            bank.add_lane(&di, &dq, 45_000, 200);
            let mut scratch = LaneBankScratch::default();
            for chunk in stream.chunks(block) {
                bank.process_block_into(chunk, &mut scratch);
            }
            assert_eq!(scratch.triggers, expect, "block={block}");
            assert_eq!(
                bank.trigger_counts(),
                per_sample.trigger_counts(),
                "block={block}"
            );
            assert_eq!(bank.samples_processed(), stream.len() as u64);
        }
    }

    #[test]
    fn reset_is_bit_equivalent_to_fresh() {
        let mut rng = Rng::seed_from(44);
        let (ci, cq) = random_template(&mut rng);
        let (di, dq) = random_template(&mut rng);
        let build = |bank: &mut DspLaneBank| {
            bank.add_lane(&ci, &cq, 25_000, 40);
            bank.add_lane(&di, &dq, 50_000, 3);
        };
        let mut pooled = DspLaneBank::new();
        build(&mut pooled);
        let dirty: Vec<IqI16> = (0..777).map(|_| random_sample(&mut rng)).collect();
        pooled.process_block(&dirty);
        pooled.reset();
        assert_eq!(pooled.samples_processed(), 0);
        assert_eq!(pooled.trigger_counts(), vec![0, 0]);

        let mut fresh = DspLaneBank::new();
        build(&mut fresh);
        let stream: Vec<IqI16> = (0..1500).map(|_| random_sample(&mut rng)).collect();
        let mut sa = LaneBankScratch::default();
        let mut sb = LaneBankScratch::default();
        pooled.process_block_into(&stream, &mut sa);
        fresh.process_block_into(&stream, &mut sb);
        assert_eq!(sa.triggers, sb.triggers);
        assert_eq!(pooled.trigger_counts(), fresh.trigger_counts());
    }

    #[test]
    fn max_metric_matches_single_core_bound() {
        let mut bank = DspLaneBank::new();
        bank.add_lane(&[3; 64], &[-4; 64], 1, 0);
        let mut xc = CrossCorrelator::new();
        xc.load_coeffs_raw(&[3; 64], &[-4; 64]);
        assert_eq!(bank.max_metric(0), xc.max_metric());
    }

    #[test]
    #[should_panic(expected = "lane bank is full")]
    fn rejects_lane_65() {
        let mut bank = DspLaneBank::new();
        for _ in 0..=MAX_LANES {
            bank.add_lane(&[0; 64], &[0; 64], 1, 0);
        }
    }
}
