//! DSP lane bank: many trigger hypotheses over one receive stream.
//!
//! A *lane* is one [`CoreConfig`]'s trigger: the samples on which a
//! [`crate::DspCore`] configured with that config logs
//! [`crate::CoreEvent::JamTrigger`]. Each lane runs the core's own blocks
//! for the sources its trigger mode names — the correlator's trigger
//! classifier when it names [`TriggerSource::Xcorr`], an
//! [`EnergyDifferentiator`] when it names an energy edge — through the
//! core's own [`TriggerBuilder`], so a lane cannot disagree with the core
//! about what a trigger is.
//!
//! Workspace-scale studies — ROC threshold sweeps, false-alarm grids,
//! fleets of modeled radios listening to one air stream — run many such
//! hypotheses over the same samples. [`DspLaneBank`] amortizes the
//! expensive part: up to [`MAX_LANES`] lanes share one interleaved
//! sign-history register, and correlator lanes that share a template also
//! share its compiled lookup tables, so the metric is computed once per
//! *distinct template* per sample — by the same kernel the single
//! correlator runs. A threshold sweep over one template is the ideal case:
//! one metric evaluation feeds all lanes.
//!
//! Two datapaths are provided:
//!
//! * [`DspLaneBank::push_into`] — per-sample, one trigger flag per lane;
//! * [`DspLaneBank::process_block_into`] — block-oriented hot path that
//!   hoists the correlator warmup check out of the per-sample loop: the
//!   block's warmup prefix and its always-valid main body each run with
//!   the check folded to a constant, and the only per-sample outputs are
//!   appended trigger sample indices (rare) plus cumulative per-lane
//!   counters.
//!
//! The enforced invariant is equality with one [`crate::DspCore`] per lane
//! fed the same stream — property tests drive both at random configs and
//! block sizes — and `reset()` is bit-equivalent to a fresh bank, so banks
//! pool in `CampaignEngine::run_units` like any other unit state.

use crate::core::CoreConfig;
use crate::energy::EnergyDifferentiator;
use crate::trigger::{Pulses, TriggerBuilder, TriggerSource};
use crate::xcorr::{shift_signs, Classifier, Coeff3, TemplateTables};
use rjam_sdr::complex::IqI16;

/// Maximum number of lanes one bank can hold.
///
/// 64 matches the sign history's depth in samples: a bank never needs more
/// hypotheses than it has history samples before a second bank is cheaper
/// anyway (each additional bank shares nothing but code). It is also the
/// width of the `u64` pulse masks that carry one bit per lane.
pub const MAX_LANES: usize = 64;

/// One distinct template's compiled lookup tables, shared by every lane
/// that loaded the same coefficients.
#[derive(Clone, Debug)]
struct TemplateGroup {
    coeff_i: [i8; 64],
    coeff_q: [i8; 64],
    tables: TemplateTables,
}

/// The correlator of a lane whose trigger mode names it: the lane's
/// template group and its copy of the classifier
/// [`crate::CrossCorrelator`] also runs.
#[derive(Clone, Debug)]
struct CorrelatorLeg {
    lane: usize,
    group: usize,
    classifier: Classifier,
}

/// One lane's event builder and cumulative trigger count.
#[derive(Clone, Debug)]
struct Lane {
    builder: TriggerBuilder,
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

/// A bank of up to [`MAX_LANES`] core triggers sharing one stream, its
/// sign history and, per distinct correlator template, one set of lookup
/// tables.
#[derive(Clone, Debug, Default)]
pub struct DspLaneBank {
    groups: Vec<TemplateGroup>,
    /// One leg per lane whose trigger mode names the correlator.
    correlators: Vec<CorrelatorLeg>,
    /// One `(lane, differentiator)` per lane whose trigger mode names an
    /// energy edge.
    energy: Vec<(usize, EnergyDifferentiator)>,
    lanes: Vec<Lane>,
    /// Shared interleaved (I, Q) sign history, as in
    /// [`crate::CrossCorrelator`].
    hist: u128,
    /// Samples consumed; every correlator window is valid once >= 64.
    fed: u64,
}

impl DspLaneBank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the lane of a core configured with `cfg` and returns its index.
    /// Only the trigger fields count: template, correlation threshold,
    /// energy thresholds, trigger mode and lockout. Correlator lanes with
    /// identical templates share one metric evaluation per sample.
    ///
    /// # Panics
    /// Panics if the bank already holds [`MAX_LANES`] lanes, the trigger
    /// mode names the correlator and a coefficient is outside the 3-bit
    /// range `-4..=3`, or the event builder cannot run the trigger mode
    /// (see [`TriggerBuilder::new`]).
    pub fn add_lane(&mut self, cfg: &CoreConfig) -> usize {
        assert!(
            self.lanes.len() < MAX_LANES,
            "lane bank is full ({MAX_LANES} lanes)"
        );
        let lane = self.lanes.len();
        let sources = cfg.trigger_mode.sources();
        if sources.contains(&TriggerSource::Xcorr) {
            let (ci, cq) = (&cfg.coeff_i, &cfg.coeff_q);
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
            self.correlators.push(CorrelatorLeg {
                lane,
                group,
                classifier: Classifier::new(cfg.xcorr_threshold, cfg.lockout),
            });
        }
        if sources.iter().any(|&s| s != TriggerSource::Xcorr) {
            let mut energy = EnergyDifferentiator::new();
            energy.configure(cfg);
            self.energy.push((lane, energy));
        }
        self.lanes.push(Lane {
            builder: TriggerBuilder::new(cfg.trigger_mode.clone()),
            triggers: 0,
        });
        lane
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Number of distinct correlator templates (shared metric evaluations
    /// per sample).
    pub fn groups(&self) -> usize {
        self.groups.len()
    }

    /// Samples fed since construction or the last [`DspLaneBank::reset`].
    pub fn samples_processed(&self) -> u64 {
        self.fed
    }

    /// Cumulative triggers on `lane` since construction or reset.
    ///
    /// # Panics
    /// Panics if `lane` is out of range.
    pub fn trigger_count(&self, lane: usize) -> u64 {
        self.lanes[lane].triggers
    }

    /// Resets all streaming state — sign history, warmup, every lane's
    /// detector, lockout and event-builder state and cumulative counters —
    /// keeping the lanes' configurations. Bit-equivalent to a freshly built
    /// bank with the same lanes, which is the pooling contract
    /// `CampaignEngine::run_units` relies on.
    pub fn reset(&mut self) {
        self.hist = 0;
        self.fed = 0;
        for leg in &mut self.correlators {
            leg.classifier.reset();
        }
        for (_, energy) in &mut self.energy {
            energy.reset();
        }
        for lane in &mut self.lanes {
            lane.builder.reset();
            lane.triggers = 0;
        }
    }

    /// Feeds one sample through every lane and returns the mask of lanes
    /// that fired (bit `k` for lane `k`). Each distinct template's metric
    /// is evaluated once — the shared evaluation all correlator legs
    /// amortize — and the detectors' pulses gather into one mask per
    /// source, the wires into the lanes' event builders. Only the builders
    /// of lanes with a pulse run: the others cannot fire this sample (see
    /// [`TriggerBuilder::push_at`]).
    #[inline(always)]
    fn step(&mut self, s: IqI16, metrics: &mut [u64; MAX_LANES], window_valid: bool) -> u64 {
        self.hist = shift_signs(self.hist, s);
        let now = self.fed;
        self.fed += 1;
        for (m, grp) in metrics.iter_mut().zip(&self.groups) {
            *m = grp.tables.metric(self.hist);
        }
        let mut xcorr = 0u64;
        for leg in &mut self.correlators {
            if leg
                .classifier
                .step(metrics[leg.group], window_valid)
                .trigger
            {
                xcorr |= 1 << leg.lane;
            }
        }
        let (mut high, mut low) = (0u64, 0u64);
        for (lane, energy) in &mut self.energy {
            let e = energy.push(s);
            high |= u64::from(e.trigger_high) << *lane;
            low |= u64::from(e.trigger_low) << *lane;
        }
        let mut pulsed = xcorr | high | low;
        let mut fired = 0u64;
        while pulsed != 0 {
            let k = pulsed.trailing_zeros() as usize;
            pulsed &= pulsed - 1;
            let pulses = Pulses {
                xcorr: xcorr >> k & 1 != 0,
                energy_high: high >> k & 1 != 0,
                energy_low: low >> k & 1 != 0,
            };
            let lane = &mut self.lanes[k];
            if lane.builder.push_at(now, pulses) {
                lane.triggers += 1;
                fired |= 1 << k;
            }
        }
        fired
    }

    /// Feeds one sample to every lane, writing each lane's trigger flag.
    ///
    /// # Panics
    /// Panics unless `out.len()` equals the lane count.
    pub fn push_into(&mut self, s: IqI16, out: &mut [bool]) {
        assert_eq!(out.len(), self.lanes.len(), "one output slot per lane");
        let valid = self.fed >= 63;
        let fired = self.step(s, &mut [0; MAX_LANES], valid);
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = fired >> k & 1 != 0;
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
    /// the right call when only [`DspLaneBank::trigger_count`] matters
    /// (e.g. false-alarm tallies).
    pub fn process_block(&mut self, block: &[IqI16]) {
        self.run_block(block, None);
    }

    fn run_block(&mut self, block: &[IqI16], mut sink: Option<&mut LaneBankScratch>) {
        // Samples pushed while fed <= 62 classify with an invalid window;
        // from the 64th sample on the window is always valid, so each part
        // runs with the check folded to a constant.
        let head_len = (63u64.saturating_sub(self.fed) as usize).min(block.len());
        let (head, body) = block.split_at(head_len);
        self.run_samples(head, false, &mut sink);
        self.run_samples(body, true, &mut sink);
    }

    #[inline(always)]
    fn run_samples(
        &mut self,
        samples: &[IqI16],
        window_valid: bool,
        sink: &mut Option<&mut LaneBankScratch>,
    ) {
        let mut metrics = [0u64; MAX_LANES];
        for &s in samples {
            let mut fired = self.step(s, &mut metrics, window_valid);
            if let Some(sc) = sink.as_deref_mut() {
                while fired != 0 {
                    sc.triggers[fired.trailing_zeros() as usize].push(self.fed - 1);
                    fired &= fired - 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreEvent;
    use crate::trigger::TriggerMode;
    use crate::DspCore;
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

    fn xcorr_cfg(ci: &[i8; 64], cq: &[i8; 64], threshold: u64, lockout: u64) -> CoreConfig {
        CoreConfig {
            coeff_i: *ci,
            coeff_q: *cq,
            xcorr_threshold: threshold,
            lockout,
            trigger_mode: TriggerMode::Any(vec![TriggerSource::Xcorr]),
            ..CoreConfig::default()
        }
    }

    fn energy_cfg(mode: TriggerMode, db: f64, lockout: u64) -> CoreConfig {
        CoreConfig {
            energy_high_db: db,
            energy_low_db: db,
            lockout,
            trigger_mode: mode,
            ..CoreConfig::default()
        }
    }

    /// The samples on which a core configured with `cfg` logs `JamTrigger`.
    fn core_triggers(cfg: &CoreConfig, stream: &[IqI16]) -> Vec<u64> {
        let mut core = DspCore::new();
        core.configure(cfg);
        core.process_block(stream);
        core.events()
            .iter()
            .filter(|e| matches!(e, CoreEvent::JamTrigger { .. }))
            .map(CoreEvent::sample)
            .collect()
    }

    /// Bursts of strong signal over a weak floor, so both energy edges fire.
    fn bursty_stream(rng: &mut Rng, n: usize) -> Vec<IqI16> {
        (0..n)
            .map(|k| {
                let s = random_sample(rng);
                if (k / 300) % 2 == 1 {
                    s
                } else {
                    IqI16::new(s.i / 256, s.q / 256)
                }
            })
            .collect()
    }

    fn per_sample_triggers(bank: &mut DspLaneBank, stream: &[IqI16]) -> Vec<Vec<u64>> {
        let mut out = vec![false; bank.lanes()];
        let mut seen = vec![Vec::new(); bank.lanes()];
        for (n, &s) in stream.iter().enumerate() {
            bank.push_into(s, &mut out);
            for (lane, &fired) in out.iter().enumerate() {
                if fired {
                    seen[lane].push(n as u64);
                }
            }
        }
        seen
    }

    #[test]
    fn shared_template_evaluates_one_group() {
        let mut rng = Rng::seed_from(41);
        let (ci, cq) = random_template(&mut rng);
        let (di, dq) = random_template(&mut rng);
        let mut bank = DspLaneBank::new();
        for k in 0..8 {
            bank.add_lane(&xcorr_cfg(&ci, &cq, 1000 * (k + 1), 0));
        }
        bank.add_lane(&xcorr_cfg(&di, &dq, 5000, 0));
        let energy = TriggerMode::Any(vec![TriggerSource::EnergyHigh]);
        bank.add_lane(&energy_cfg(energy, 10.0, 0));
        assert_eq!(bank.lanes(), 10);
        assert_eq!(
            bank.groups(),
            2,
            "8 shared + 1 distinct template, no energy group"
        );
    }

    #[test]
    fn per_lane_lockouts_fire_independently_at_64_lanes() {
        // One periodic matched stream, 64 lanes on the same template with
        // per-lane lockouts: each lane's trigger train must match its own
        // core exactly.
        let mut rng = Rng::seed_from(42);
        let signs_i: [i8; 64] = std::array::from_fn(|_| if rng.chance(0.5) { 1 } else { -1 });
        let signs_q: [i8; 64] = std::array::from_fn(|_| if rng.chance(0.5) { 1 } else { -1 });
        let ci: [i8; 64] = std::array::from_fn(|k| 3 * signs_i[k]);
        let cq: [i8; 64] = std::array::from_fn(|k| 3 * signs_q[k]);
        let stream: Vec<IqI16> = (0..6 * 64)
            .map(|n| IqI16::new(signs_i[n % 64] as i16 * 1000, signs_q[n % 64] as i16 * 1000))
            .collect();
        let mut bank = DspLaneBank::new();
        // Lockouts straddle the 64-sample alignment period.
        let cfgs: Vec<CoreConfig> = (0..MAX_LANES as u64)
            .map(|lane| xcorr_cfg(&ci, &cq, 300 * 300, 2 * lane))
            .collect();
        for cfg in &cfgs {
            bank.add_lane(cfg);
        }
        let seen = per_sample_triggers(&mut bank, &stream);
        for (lane, cfg) in cfgs.iter().enumerate() {
            assert_eq!(seen[lane], core_triggers(cfg, &stream), "lane {lane}");
        }
        // Sanity: different lockouts produced genuinely different counts.
        assert!((1..MAX_LANES).any(|l| bank.trigger_count(l) != bank.trigger_count(0)));
    }

    #[test]
    fn warmup_is_suppressed_per_lane() {
        let mut bank = DspLaneBank::new();
        bank.add_lane(&xcorr_cfg(&[3; 64], &[0; 64], 1, 0));
        bank.add_lane(&xcorr_cfg(&[0; 64], &[3; 64], 1, 0));
        let mut out = [false; 2];
        for n in 0..63 {
            bank.push_into(IqI16::new(1000, 1000), &mut out);
            assert_eq!(out, [false; 2], "premature trigger at {n}");
        }
        bank.push_into(IqI16::new(1000, 1000), &mut out);
        assert_eq!(out, [true; 2]);
    }

    #[test]
    fn block_path_matches_per_sample_path_and_the_core_at_any_block_size() {
        let mut rng = Rng::seed_from(43);
        let stream = bursty_stream(&mut rng, 3000);
        let (ci, cq) = random_template(&mut rng);
        let (di, dq) = random_template(&mut rng);
        let fused = CoreConfig {
            trigger_mode: TriggerMode::Any(vec![TriggerSource::Xcorr, TriggerSource::EnergyLow]),
            energy_low_db: 6.0,
            ..xcorr_cfg(&di, &dq, 45_000, 200)
        };
        let sequence = CoreConfig {
            trigger_mode: TriggerMode::Sequence {
                stages: vec![TriggerSource::EnergyHigh, TriggerSource::Xcorr],
                window: 400,
            },
            energy_high_db: 6.0,
            ..xcorr_cfg(&ci, &cq, 4_000, 0)
        };
        let cfgs = [
            xcorr_cfg(&ci, &cq, 4_000, 10),
            xcorr_cfg(&ci, &cq, 8_000, 0),
            fused,
            sequence,
            energy_cfg(TriggerMode::Any(vec![TriggerSource::EnergyHigh]), 10.0, 0),
            energy_cfg(TriggerMode::Any(vec![TriggerSource::EnergyLow]), 10.0, 100),
        ];
        let build = || {
            let mut bank = DspLaneBank::new();
            cfgs.iter().for_each(|cfg| {
                bank.add_lane(cfg);
            });
            bank
        };
        let mut per_sample = build();
        let expect = per_sample_triggers(&mut per_sample, &stream);
        for (lane, cfg) in cfgs.iter().enumerate() {
            assert_eq!(expect[lane], core_triggers(cfg, &stream), "lane {lane}");
            assert!(!expect[lane].is_empty(), "lane {lane} never fired");
        }
        for block in [1usize, 7, 63, 64, 65, 500, 3000] {
            let mut bank = build();
            let mut scratch = LaneBankScratch::default();
            for chunk in stream.chunks(block) {
                bank.process_block_into(chunk, &mut scratch);
            }
            assert_eq!(scratch.triggers, expect, "block={block}");
            for (lane, triggers) in expect.iter().enumerate() {
                assert_eq!(bank.trigger_count(lane), triggers.len() as u64);
            }
            assert_eq!(bank.samples_processed(), stream.len() as u64);
        }
    }

    #[test]
    fn reset_is_bit_equivalent_to_fresh() {
        let mut rng = Rng::seed_from(44);
        let (ci, cq) = random_template(&mut rng);
        let sequence = TriggerMode::Sequence {
            stages: vec![TriggerSource::EnergyHigh, TriggerSource::EnergyLow],
            window: 700,
        };
        let build = |bank: &mut DspLaneBank| {
            bank.add_lane(&xcorr_cfg(&ci, &cq, 25_000, 40));
            bank.add_lane(&energy_cfg(sequence.clone(), 6.0, 3));
        };
        let mut pooled = DspLaneBank::new();
        build(&mut pooled);
        let dirty = bursty_stream(&mut rng, 777);
        pooled.process_block(&dirty);
        pooled.reset();
        assert_eq!(pooled.samples_processed(), 0);
        assert_eq!((pooled.trigger_count(0), pooled.trigger_count(1)), (0, 0));

        let mut fresh = DspLaneBank::new();
        build(&mut fresh);
        let stream = bursty_stream(&mut rng, 1500);
        let mut sa = LaneBankScratch::default();
        let mut sb = LaneBankScratch::default();
        pooled.process_block_into(&stream, &mut sa);
        fresh.process_block_into(&stream, &mut sb);
        assert_eq!(sa.triggers, sb.triggers);
    }

    #[test]
    #[should_panic(expected = "lane bank is full")]
    fn rejects_lane_65() {
        let mut bank = DspLaneBank::new();
        for _ in 0..=MAX_LANES {
            bank.add_lane(&xcorr_cfg(&[0; 64], &[0; 64], 1, 0));
        }
    }
}
