//! DSP lane bank: many trigger hypotheses over one receive stream.
//!
//! A *lane* is one [`CoreConfig`]'s trigger: the samples on which a
//! [`crate::DspCore`] configured with that config logs
//! [`crate::CoreEvent::JamTrigger`]. Each lane evaluates the detectors its
//! trigger mode names — the correlator when it names
//! [`TriggerSource::Xcorr`], an energy comparator per energy edge it
//! names — under the core's trigger rule, and feeds their pulses to the
//! core's own [`TriggerBuilder`], so a lane cannot disagree with the core
//! about how detections combine.
//!
//! Workspace-scale studies — ROC threshold sweeps, false-alarm grids,
//! fleets of modeled radios listening to one air stream — run many such
//! hypotheses over the same samples. [`DspLaneBank`] amortizes the
//! expensive parts: up to [`MAX_LANES`] lanes share one interleaved
//! sign-history register and one 32-sample energy sum, and correlator
//! lanes that share a template also share its compiled lookup tables, so
//! the metric is computed once per *distinct template* per sample — by the
//! same kernel the single correlator runs. A threshold sweep over one
//! template is the ideal case: one metric evaluation feeds all lanes.
//!
//! The bank runs one kernel over *words* of up to 64 samples, one bit per
//! sample in every mask:
//!
//! 1. each template group's metric for every sample of the word, then one
//!    above-threshold mask per correlator lane, the window's warm-up
//!    folded in as a mask of valid bits;
//! 2. the bank's energy sum and its 64-sample delay for every sample of
//!    the word, then one rise or fall mask per energy comparator, in exact
//!    `u64` arithmetic;
//! 3. each mask's rising edges, `above & !(above << 1 | carry)`, thinned
//!    by the lockout at set bits only; the edge carry and the lockout's
//!    end carry across words and blocks;
//! 4. each lane's [`TriggerBuilder::push_at`], only at bits where the lane
//!    has a pulse.
//!
//! [`DspLaneBank::process_block_into`] and [`DspLaneBank::process_block`]
//! cut a block into words; [`DspLaneBank::push_into`] runs the same kernel
//! over a one-sample word.
//!
//! A lane skips what cannot fire. A template group whose correlator legs
//! are all locked out through a word's last sample evaluates only that
//! sample's metric, which sets the legs' edge carries. While every leg of
//! the bank is locked out, the block paths skip the samples before the
//! history the first armed sample needs ([`DspLaneBank::unread`]) and
//! rebuild that history from zero; see [`DspLaneBank::skip`].
//!
//! The enforced invariant is equality with one [`crate::DspCore`] per lane
//! fed the same stream — property tests drive both at random configs and
//! block sizes — and `reset()` is bit-equivalent to a fresh bank, so banks
//! pool in `CampaignEngine::run_units` like any other unit state.

use crate::core::CoreConfig;
use crate::energy::threshold_fixed;
use crate::trigger::{Pulses, TriggerBuilder, TriggerSource};
use crate::xcorr::{shift_signs, Coeff3, TemplateTables};
use crate::{ENERGY_DELAY, ENERGY_WINDOW, XCORR_LEN};
use rjam_sdr::complex::IqI16;

/// Maximum number of lanes one bank can hold.
///
/// 64 matches the sign history's depth in samples: a bank never needs more
/// hypotheses than it has history samples before a second bank is cheaper
/// anyway (each additional bank shares nothing but code). It is also the
/// width of the `u64` masks that carry one bit per lane.
pub const MAX_LANES: usize = 64;

/// Samples per kernel word: one bit per sample in a `u64` mask.
const WORD: usize = 64;

/// The first sample (zero-based) on which the correlator window is full.
const XCORR_FIRST: u64 = XCORR_LEN as u64 - 1;

/// The first sample on which both compared energy sums hold real samples:
/// the differentiator's comparators are masked until 96 samples are in.
const ENERGY_FIRST: u64 = ENERGY_HISTORY - 1;

/// Samples a correlator's comparator reads at and before its sample: its
/// 64-sample sign window.
const SIGN_HISTORY: u64 = XCORR_LEN as u64;

/// Samples an energy comparator reads at and before its sample: the
/// 32-sample sum ending there and the one 64 samples earlier.
const ENERGY_HISTORY: u64 = (ENERGY_WINDOW + ENERGY_DELAY) as u64;

/// Bits per 16.16 energy threshold: a lane's thresholds are at most
/// 30 dB, `1000 << 16` < 2^26 ([`threshold_fixed`] clamps them there).
const THRESHOLD_BITS: u32 = 26;

/// Bits per energy sum: 32 samples of at most `2 * 32768^2` = 2^31 each.
const SUM_BITS: u32 = 37;

// The comparators' exactness bound: `y << 16` and `T * y_old` stay below
// 2^63, so the `u64` forms compute the differentiator's 128-bit products.
const _: () = assert!((ENERGY_WINDOW as u64) << 31 < 1 << SUM_BITS);
const _: () = assert!(THRESHOLD_BITS + SUM_BITS <= 63 && SUM_BITS + 16 <= 63);

// Indices of the sources' pulse masks in `Lane::pulses`.
const XCORR: usize = 0;
const ENERGY_HIGH: usize = 1;
const ENERGY_LOW: usize = 2;

/// The mask of bits `k..64`, empty once `k >= 64`.
#[inline(always)]
fn bits_from(k: u64) -> u64 {
    if k < 64 {
        u64::MAX << k
    } else {
        0
    }
}

/// A detector's trigger rule, a word at a time: a trigger fires on a
/// rising edge of the comparator, unless the lockout of the last trigger
/// still holds. A trigger at sample `n` allows the next at
/// `n + lockout + 1` — the rule `xcorr::Classifier` and
/// [`crate::EnergyDifferentiator`] apply one sample at a time, counting
/// their lockout down on every sample and testing the edge against the
/// previous sample's comparator whether or not the lockout holds.
#[derive(Clone, Copy, Debug)]
struct EdgeRule {
    lockout: u64,
    /// The comparator's bit on the last sample fed, as bit 0.
    carry: u64,
    /// The first sample a trigger may fire on: one past the last
    /// trigger's lockout.
    armed_from: u64,
}

impl EdgeRule {
    fn new(lockout: u64) -> Self {
        EdgeRule {
            lockout,
            carry: 0,
            armed_from: 0,
        }
    }

    fn reset(&mut self) {
        *self = EdgeRule::new(self.lockout);
    }

    /// Whether the lockout holds through sample `last`: nothing fires on
    /// or before it.
    #[inline(always)]
    fn locked_through(&self, last: u64) -> bool {
        self.armed_from > last
    }

    /// [`EdgeRule::pulses`] of a word through whose last sample the
    /// lockout holds: no pulse, and the carry is `above_last`, the
    /// comparator's bit on that sample.
    #[inline(always)]
    fn sleep(&mut self, above_last: bool) {
        self.carry = u64::from(above_last);
    }

    /// The trigger pulses of a word of `len` samples, the first at sample
    /// `base`, whose comparator bits are `above` (bit `i` for sample
    /// `base + i`; none at or above `len`). Only set bits pay for the
    /// lockout.
    #[inline(always)]
    fn pulses(&mut self, above: u64, base: u64, len: usize) -> u64 {
        let mut edges = above & !(above << 1 | self.carry);
        self.carry = above >> (len - 1) & 1;
        edges &= bits_from(self.armed_from.saturating_sub(base));
        let mut pulses = 0;
        while edges != 0 {
            let i = u64::from(edges.trailing_zeros());
            pulses |= 1 << i;
            self.armed_from = (base + i).saturating_add(self.lockout).saturating_add(1);
            edges &= bits_from(self.armed_from - base);
        }
        pulses
    }
}

/// A bound above every correlator metric: `|re|, |im| <= 64 * 8`, so
/// `re^2 + im^2 < 2^20`. Thresholds clamp to it, and metrics fit a `u32`.
const METRIC_CEILING: u64 = 1 << 20;
const _: () = assert!(2 * (64 * 8) * (64 * 8) < METRIC_CEILING);

/// One correlator lane of a template group: its threshold on the
/// squared-magnitude metric (clamped to [`METRIC_CEILING`], which no
/// metric reaches) and its trigger rule.
#[derive(Clone, Debug)]
struct CorrelatorLeg {
    lane: usize,
    threshold: u32,
    edge: EdgeRule,
}

/// One distinct template's compiled lookup tables, shared by every lane
/// that loaded the same coefficients.
#[derive(Clone, Debug)]
struct TemplateGroup {
    coeff_i: [i8; 64],
    coeff_q: [i8; 64],
    tables: TemplateTables,
    legs: Vec<CorrelatorLeg>,
}

/// One energy comparator of a lane: the rise (`y > T * y_old`) or fall
/// (`y_old > T * y`) test on the bank's shared sums, with the lane's
/// 16.16 threshold `T` for that direction.
#[derive(Clone, Debug)]
struct EnergyLeg {
    lane: usize,
    /// The pulse mask the comparator drives: [`ENERGY_HIGH`] or
    /// [`ENERGY_LOW`].
    source: usize,
    threshold: u64,
    edge: EdgeRule,
}

/// The energy differentiator's shared front half: the 32-sample running
/// sum `y[n] = y[n-1] + x[n] - x[n-32]` of `x = I^2 + Q^2` and the
/// `Z^-64` delay of `y`, both rings indexed by the absolute sample number.
#[derive(Clone, Debug)]
struct EnergySum {
    window: [u64; ENERGY_WINDOW],
    delayed: [u64; ENERGY_DELAY],
    sum: u64,
}

impl Default for EnergySum {
    fn default() -> Self {
        EnergySum {
            window: [0; ENERGY_WINDOW],
            delayed: [0; ENERGY_DELAY],
            sum: 0,
        }
    }
}

/// One lane's event builder, cumulative trigger count and the current
/// word's pulse mask per source.
#[derive(Clone, Debug)]
struct Lane {
    builder: TriggerBuilder,
    triggers: u64,
    /// Indexed by [`XCORR`], [`ENERGY_HIGH`], [`ENERGY_LOW`]; a source the
    /// lane's mode does not name stays 0.
    pulses: [u64; 3],
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
/// sign history, its energy sum and, per distinct correlator template, one
/// set of lookup tables.
#[derive(Clone, Debug, Default)]
pub struct DspLaneBank {
    /// Distinct templates, each with the correlator legs of its lanes.
    groups: Vec<TemplateGroup>,
    /// One leg per energy edge a lane's trigger mode names.
    energy: Vec<EnergyLeg>,
    lanes: Vec<Lane>,
    /// Shared interleaved (I, Q) sign history, as in
    /// [`crate::CrossCorrelator`].
    hist: u128,
    energy_sum: EnergySum,
    /// Samples consumed.
    fed: u64,
    /// The first sample on which a leg may fire: the earliest
    /// `armed_from` of every leg, so 0 while a leg has never fired.
    wake: u64,
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
    /// Lanes are added to a bank that has not been fed since it was built
    /// or reset: every lane reads the bank's shared sign history and
    /// energy sum from the stream's first sample on.
    ///
    /// # Panics
    /// Panics if the bank already holds [`MAX_LANES`] lanes or has been
    /// fed, the trigger mode names the correlator and a coefficient is
    /// outside the 3-bit range `-4..=3`, or the event builder cannot run
    /// the trigger mode (see [`TriggerBuilder::new`]).
    pub fn add_lane(&mut self, cfg: &CoreConfig) -> usize {
        assert!(
            self.lanes.len() < MAX_LANES,
            "lane bank is full ({MAX_LANES} lanes)"
        );
        assert_eq!(self.fed, 0, "lanes are added before the first sample");
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
                        legs: Vec::new(),
                    });
                    self.groups.len() - 1
                }
            };
            self.groups[group].legs.push(CorrelatorLeg {
                lane,
                threshold: cfg.xcorr_threshold.min(METRIC_CEILING) as u32,
                edge: EdgeRule::new(cfg.lockout),
            });
        }
        let edges = [
            (TriggerSource::EnergyHigh, ENERGY_HIGH, cfg.energy_high_db),
            (TriggerSource::EnergyLow, ENERGY_LOW, cfg.energy_low_db),
        ];
        for (named, source, db) in edges {
            if sources.contains(&named) {
                let threshold = threshold_fixed(db);
                assert!(threshold < 1 << THRESHOLD_BITS, "exact u64 compares");
                self.energy.push(EnergyLeg {
                    lane,
                    source,
                    threshold: u64::from(threshold),
                    edge: EdgeRule::new(cfg.lockout),
                });
            }
        }
        self.lanes.push(Lane {
            builder: TriggerBuilder::new(cfg.trigger_mode.clone()),
            triggers: 0,
            pulses: [0; 3],
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

    /// Whether the lanes read nothing of a sample but the signs of its
    /// components: no lane has an energy comparator, so only the sign
    /// history sees the stream. Such a bank fires alike on any two streams
    /// whose components are negative at the same places.
    pub fn reads_signs_only(&self) -> bool {
        self.energy.is_empty()
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

    /// Resets all streaming state — sign history, energy sum, warmup, every
    /// lane's edge, lockout and event-builder state and cumulative
    /// counters — keeping the lanes' configurations. Bit-equivalent to a
    /// freshly built bank with the same lanes, which is the pooling
    /// contract `CampaignEngine::run_units` relies on.
    pub fn reset(&mut self) {
        self.hist = 0;
        self.energy_sum = EnergySum::default();
        self.fed = 0;
        self.wake = 0;
        for leg in self.groups.iter_mut().flat_map(|g| &mut g.legs) {
            leg.edge.reset();
        }
        for leg in &mut self.energy {
            leg.edge.reset();
        }
        for lane in &mut self.lanes {
            lane.builder.reset();
            lane.triggers = 0;
        }
    }

    /// Feeds one sample to every lane, writing each lane's trigger flag.
    ///
    /// # Panics
    /// Panics unless `out.len()` equals the lane count.
    pub fn push_into(&mut self, s: IqI16, out: &mut [bool]) {
        assert_eq!(out.len(), self.lanes.len(), "one output slot per lane");
        out.fill(false);
        self.run_word(&[s], &mut |lane, _| out[lane] = true);
    }

    /// Feeds a whole block, appending each lane's trigger sample indices to
    /// `scratch.triggers` (see [`LaneBankScratch`]) and advancing the
    /// cumulative counters. Samples the bank does not read
    /// ([`DspLaneBank::unread`]) are skipped.
    pub fn process_block_into(&mut self, block: &[IqI16], scratch: &mut LaneBankScratch) {
        scratch.ensure_lanes(self.lanes.len());
        self.run_block(block, &mut |lane, n| scratch.triggers[lane].push(n));
    }

    /// Feeds a whole block, advancing cumulative trigger counters only —
    /// the right call when only [`DspLaneBank::trigger_count`] matters
    /// (e.g. false-alarm tallies).
    pub fn process_block(&mut self, block: &[IqI16]) {
        self.run_block(block, &mut |_, _| {});
    }

    /// How many of the next samples the bank does not read. While every
    /// leg is locked out, that is every sample before the history the
    /// first armed sample needs: its 64-sample sign window, or with an
    /// energy leg 96 samples ([`ENERGY_WINDOW`] + [`ENERGY_DELAY`]), so
    /// that the comparators of the sample before it, which set the edge
    /// carries, read real sums. 0 while any leg may fire, and while a leg
    /// has never fired.
    pub fn unread(&self) -> u64 {
        let history = if self.energy.is_empty() {
            SIGN_HISTORY
        } else {
            ENERGY_HISTORY
        };
        self.wake.saturating_sub(history).saturating_sub(self.fed)
    }

    /// Passes over the next `n` samples without reading them: they count
    /// in [`DspLaneBank::samples_processed`], and the sign history and
    /// energy sum restart from zero. The samples the bank reads before
    /// its first armed sample rebuild them exactly: the history is their
    /// signs, and the sum is exact integer arithmetic, so a sum rebuilt
    /// from zero over them equals the running one.
    ///
    /// # Panics
    /// Panics if `n` exceeds [`DspLaneBank::unread`].
    pub fn skip(&mut self, n: u64) {
        assert!(n <= self.unread(), "the bank reads sample {}", self.fed);
        if n > 0 {
            self.fed += n;
            self.hist = 0;
            self.energy_sum = EnergySum::default();
        }
    }

    /// The block paths: each word through the kernel, the samples the
    /// bank does not read skipped.
    #[inline(always)]
    fn run_block(&mut self, mut block: &[IqI16], fired: &mut impl FnMut(usize, u64)) {
        while !block.is_empty() {
            let unread = self.unread().min(block.len() as u64);
            self.skip(unread);
            let (word, rest) =
                block[unread as usize..].split_at(WORD.min(block.len() - unread as usize));
            if !word.is_empty() {
                self.run_word(word, fired);
            }
            block = rest;
        }
    }

    /// The kernel: feeds one word of 1..=64 samples through every lane and
    /// calls `fired(lane, n)` for each trigger, per lane in stream order.
    #[inline(always)]
    fn run_word(&mut self, word: &[IqI16], fired: &mut impl FnMut(usize, u64)) {
        let len = word.len();
        debug_assert!((1..=WORD).contains(&len));
        let base = self.fed;
        let last = base + len as u64 - 1;
        self.fed += len as u64;
        let lanes = &mut self.lanes;
        // Whether a leg fired in this word, which moves its lockout.
        let mut fired_any = false;

        // Stage 1: one metric per template and sample, one above-threshold
        // mask per correlator lane, and its pulses (stage 3). A group
        // whose legs are all locked out through the word evaluates only
        // the last sample, for the edge carries.
        let mut metrics = [0u32; WORD];
        let valid = bits_from(XCORR_FIRST.saturating_sub(base));
        let start = self.hist;
        for group in &mut self.groups {
            if group.legs.iter().all(|leg| leg.edge.locked_through(last)) {
                let hist = word.iter().fold(start, |h, &s| shift_signs(h, s));
                self.hist = hist;
                let m = group.tables.metric(hist) as u32;
                for leg in &mut group.legs {
                    leg.edge.sleep(last >= XCORR_FIRST && m >= leg.threshold);
                    lanes[leg.lane].pulses[XCORR] = 0;
                }
                continue;
            }
            let mut hist = start;
            for (m, &s) in metrics.iter_mut().zip(word) {
                hist = shift_signs(hist, s);
                *m = group.tables.metric(hist) as u32;
            }
            self.hist = hist;
            for leg in &mut group.legs {
                let t = leg.threshold;
                let above = mask(&metrics[..len], |m| m >= t) & valid;
                let pulses = leg.edge.pulses(above, base, len);
                fired_any |= pulses != 0;
                lanes[leg.lane].pulses[XCORR] = pulses;
            }
        }

        // Stage 2: the shared energy sum and its delay, one rise or fall
        // mask per energy comparator, and its pulses (stage 3).
        if !self.energy.is_empty() {
            let mut sums = [(0u64, 0u64); WORD];
            let e = &mut self.energy_sum;
            for (n, (pair, &s)) in (base..).zip(sums.iter_mut().zip(word)) {
                let x = s.energy();
                let w = &mut e.window[(n % ENERGY_WINDOW as u64) as usize];
                e.sum = e.sum + x - *w;
                *w = x;
                let d = &mut e.delayed[(n % ENERGY_DELAY as u64) as usize];
                *pair = (e.sum, *d);
                *d = e.sum;
            }
            let valid = bits_from(ENERGY_FIRST.saturating_sub(base));
            let sums = &sums[..len];
            for leg in &mut self.energy {
                let t = leg.threshold;
                let above = if leg.source == ENERGY_HIGH {
                    mask(sums, |(y, old)| y << 16 > t * old)
                } else {
                    mask(sums, |(y, old)| old << 16 > t * y)
                } & valid;
                let pulses = leg.edge.pulses(above, base, len);
                fired_any |= pulses != 0;
                lanes[leg.lane].pulses[leg.source] = pulses;
            }
        }

        // Stage 4: each lane's builder at its pulse bits.
        for (k, lane) in lanes.iter_mut().enumerate() {
            let [x, high, low] = lane.pulses;
            let mut any = x | high | low;
            while any != 0 {
                let i = any.trailing_zeros();
                any &= any - 1;
                let pulses = Pulses {
                    xcorr: x >> i & 1 != 0,
                    energy_high: high >> i & 1 != 0,
                    energy_low: low >> i & 1 != 0,
                };
                let n = base + u64::from(i);
                if lane.builder.push_at(n, pulses) {
                    lane.triggers += 1;
                    fired(k, n);
                }
            }
        }

        if fired_any {
            let correlators = self.groups.iter().flat_map(|g| &g.legs).map(|l| &l.edge);
            let energy = self.energy.iter().map(|l| &l.edge);
            self.wake = correlators
                .chain(energy)
                .map(|e| e.armed_from)
                .min()
                .unwrap_or(0);
        }
    }
}

/// Multiplying eight bytes of 0 or 1 by this gathers byte `j` into bit
/// `56 + j` of the product, with no carry into those bits.
const GATHER: u64 = 0x0102_0408_1020_4080;

/// The mask with bit `i` set where `above(values[i])` holds, for at most
/// [`WORD`] values. The tests land in one byte each, and one multiply per
/// eight bytes gathers them into the mask, in place of a shift by a
/// variable count per bit.
#[inline(always)]
fn mask<T: Copy>(values: &[T], above: impl Fn(T) -> bool) -> u64 {
    let mut bytes = [0u8; WORD];
    for (b, &v) in bytes.iter_mut().zip(values) {
        *b = u8::from(above(v));
    }
    bytes.chunks_exact(8).enumerate().fold(0, |m, (k, eight)| {
        let eight = u64::from_le_bytes(eight.try_into().expect("eight bytes"));
        m | (eight.wrapping_mul(GATHER) >> 56) << (8 * k)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::CoreEvent;
    use crate::trigger::TriggerMode;
    use crate::xcorr::Classifier;
    use crate::{DspCore, EnergyDifferentiator};
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

    fn block_triggers(bank: &mut DspLaneBank, stream: &[IqI16], block: usize) -> Vec<Vec<u64>> {
        let mut scratch = LaneBankScratch::default();
        for chunk in stream.chunks(block) {
            bank.process_block_into(chunk, &mut scratch);
        }
        scratch.triggers
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
    fn edge_rule_matches_the_per_sample_classifier_across_words() {
        // Random comparator bits in runs, random lockouts (some longer than
        // a word) and random word lengths: the word rule must pulse where
        // the per-sample classifier triggers.
        let mut rng = Rng::seed_from(45);
        for case in 0..200 {
            let lockout = match case % 4 {
                0 => rng.below(4),
                1 => 60 + rng.below(10),
                2 => 120 + rng.below(20),
                _ => rng.below(400),
            };
            let n = 1 + rng.below(2_000) as usize;
            let mut bits = Vec::with_capacity(n);
            while bits.len() < n {
                let run = (1 + rng.below(70) as usize).min(n - bits.len());
                let level = rng.chance(0.5);
                bits.extend(std::iter::repeat_n(level, run));
            }
            let mut classifier = Classifier::new(1, lockout);
            let want: Vec<u64> = (0..n as u64)
                .filter(|&k| classifier.step(u64::from(bits[k as usize]), true).trigger)
                .collect();
            let mut rule = EdgeRule::new(lockout);
            let mut got = Vec::new();
            let mut base = 0;
            while base < n {
                let len = (1 + rng.below(64) as usize).min(n - base);
                let above = mask(&bits[base..base + len], |b| b);
                let mut pulses = rule.pulses(above, base as u64, len);
                while pulses != 0 {
                    got.push(base as u64 + u64::from(pulses.trailing_zeros()));
                    pulses &= pulses - 1;
                }
                base += len;
            }
            assert_eq!(got, want, "case {case}, lockout {lockout}");
        }
    }

    #[test]
    fn mask_sets_the_bits_of_the_values_above() {
        let mut rng = Rng::seed_from(46);
        for len in (1..=WORD).chain([64; 20]) {
            let values: Vec<u32> = (0..len).map(|_| rng.below(4) as u32).collect();
            let want = values
                .iter()
                .enumerate()
                .fold(0u64, |m, (i, &v)| m | u64::from(v >= 2) << i);
            assert_eq!(mask(&values, |v| v >= 2), want, "len {len}");
        }
        assert_eq!(mask(&[1u8; WORD], |v| v == 1), u64::MAX);
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
    fn a_threshold_equal_to_the_metric_fires() {
        // All-positive signs against an all-3 I rail: re = im = 192 once
        // the window is full, a metric of exactly 2 * 192^2.
        let metric = 2 * 192 * 192;
        let stream = vec![IqI16::new(1000, 1000); 200];
        let cfgs = [
            xcorr_cfg(&[3; 64], &[0; 64], metric, 0),
            xcorr_cfg(&[3; 64], &[0; 64], metric + 1, 0),
        ];
        let mut bank = DspLaneBank::new();
        cfgs.iter().for_each(|cfg| {
            bank.add_lane(cfg);
        });
        let seen = block_triggers(&mut bank, &stream, 200);
        assert_eq!(seen[0], [63], "metric >= threshold fires");
        assert!(seen[1].is_empty(), "one above the metric never fires");
        for (lane, cfg) in cfgs.iter().enumerate() {
            assert_eq!(seen[lane], core_triggers(cfg, &stream), "lane {lane}");
        }
    }

    #[test]
    fn energy_masks_match_the_differentiators_128_bit_compares_at_the_extremes() {
        // The comparators at their operand bounds: every pair of sums from
        // 0 to the 2^36 full-scale sum, at the 3 dB and 30 dB thresholds
        // and at products equal to `y << 16` to the unit.
        let full = ENERGY_WINDOW as u64 * 2 * 32768 * 32768;
        for db in [3.0, 30.0] {
            let t = u64::from(threshold_fixed(db));
            assert!(t < 1 << THRESHOLD_BITS, "{db} dB");
            let sums = [0, 1, 2, t, t + 1, full / t, full / 2, full - 1, full];
            for &y in &sums {
                for &old in &sums {
                    let wide_rise = u128::from(y) << 16 > u128::from(t) * u128::from(old);
                    let wide_fall = u128::from(old) << 16 > u128::from(t) * u128::from(y);
                    let pair = [(y, old)];
                    assert_eq!(mask(&pair, |(y, old)| y << 16 > t * old) == 1, wide_rise);
                    assert_eq!(mask(&pair, |(y, old)| old << 16 > t * y) == 1, wide_fall);
                }
            }
            // Equality is not a rise: `y << 16 == T * y_old`.
            let pair = [(t, 1u64 << 16)];
            assert_eq!(mask(&pair, |(y, old)| y << 16 > t * old), 0);
        }
    }

    #[test]
    fn full_scale_after_silence_matches_the_differentiator_at_3_and_30_db() {
        // Silence, full scale, silence: the rise and the fall at the two
        // ends of the threshold range, lane against `EnergyDifferentiator`.
        let mut stream = vec![IqI16::ZERO; 300];
        stream.extend(std::iter::repeat_n(IqI16::new(i16::MIN, i16::MIN), 300));
        stream.extend(std::iter::repeat_n(IqI16::ZERO, 300));
        for db in [3.0, 30.0] {
            let mut det = EnergyDifferentiator::new();
            det.set_threshold_high_db(db);
            det.set_threshold_low_db(db);
            let (mut rises, mut falls) = (Vec::new(), Vec::new());
            for (n, &s) in stream.iter().enumerate() {
                let out = det.push(s);
                if out.trigger_high {
                    rises.push(n as u64);
                }
                if out.trigger_low {
                    falls.push(n as u64);
                }
            }
            assert_eq!((rises.len(), falls.len()), (1, 1), "{db} dB");
            let high = TriggerMode::Any(vec![TriggerSource::EnergyHigh]);
            let low = TriggerMode::Any(vec![TriggerSource::EnergyLow]);
            let mut bank = DspLaneBank::new();
            bank.add_lane(&energy_cfg(high, db, 0));
            bank.add_lane(&energy_cfg(low, db, 0));
            for block in [1, 64, 65, 900] {
                bank.reset();
                let seen = block_triggers(&mut bank, &stream, block);
                assert_eq!(
                    seen,
                    [rises.clone(), falls.clone()],
                    "{db} dB, block {block}"
                );
            }
        }
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
        for block in [1usize, 7, 63, 64, 65, 128, 500, 3000] {
            let mut bank = build();
            assert_eq!(
                block_triggers(&mut bank, &stream, block),
                expect,
                "block={block}"
            );
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
    fn unread_stops_at_the_history_of_the_first_armed_sample() {
        // A correlator lane fires on sample 63 and is armed again from
        // sample 1 064. Alone it reads the 64 samples before that; beside
        // an energy lane that has fired too, the 96 its comparators read.
        let stream = vec![IqI16::new(1000, 1000); 64];
        let mut bank = DspLaneBank::new();
        bank.add_lane(&xcorr_cfg(&[3; 64], &[0; 64], 1, 1000));
        assert_eq!(bank.unread(), 0, "a lane that never fired may fire");
        bank.process_block(&stream);
        assert_eq!(bank.trigger_count(0), 1);
        assert_eq!(bank.unread(), 1064 - 64 - 64);
        bank.skip(900);
        assert_eq!((bank.unread(), bank.samples_processed()), (36, 964));
        bank.reset();
        assert_eq!(bank.unread(), 0);

        let mut stream = vec![IqI16::ZERO; 100];
        stream.extend(std::iter::repeat_n(IqI16::new(1000, 1000), 64));
        let rise = TriggerMode::Any(vec![TriggerSource::EnergyHigh]);
        let mut bank = DspLaneBank::new();
        bank.add_lane(&xcorr_cfg(&[3; 64], &[0; 64], 1, 1000));
        bank.add_lane(&energy_cfg(rise, 10.0, 2000));
        bank.process_block(&stream);
        // The correlator fires on sample 63 (silence has positive signs),
        // the energy lane on sample 100, armed again from 2 101.
        assert_eq!((bank.trigger_count(0), bank.trigger_count(1)), (1, 1));
        assert_eq!(bank.unread(), 1064 - 96 - 164);
    }

    #[test]
    fn a_lane_woken_from_its_lockout_fires_on_its_first_armed_sample() {
        // An energy rise fires on a loud burst, then sleeps 1 000 samples.
        // Then its comparator rises exactly on its first armed sample:
        // (a) loud from 32 samples before it, held under the threshold on
        // the sample before only by a full-scale sample 96 samples before
        // it, the oldest the rebuilt sums read; (b) loud from that sample
        // on, after a quiet sample whose comparator sets the edge carry.
        let (quiet, loud) = (IqI16::new(100, 100), IqI16::new(8000, 8000));
        let cfg = energy_cfg(
            TriggerMode::Any(vec![TriggerSource::EnergyHigh]),
            10.0,
            1000,
        );
        let mut stream = vec![quiet; 200];
        stream.extend(std::iter::repeat_n(loud, 100));
        stream.extend(std::iter::repeat_n(quiet, 2000));
        let first = core_triggers(&cfg, &stream)[0];
        let wake = (first + 1001) as usize;
        let mut a = stream.clone();
        a[wake - 96] = IqI16::new(i16::MAX, i16::MAX);
        a[wake - 32..wake + 100].fill(loud);
        let mut b = stream;
        b[wake..wake + 100].fill(loud);
        for (case, stream) in [("a", a), ("b", b)] {
            let want = core_triggers(&cfg, &stream);
            assert_eq!(want[..2], [first, wake as u64], "case {case}");
            for block in [1, 64, 4_096, stream.len()] {
                let mut bank = DspLaneBank::new();
                bank.add_lane(&cfg);
                let seen = block_triggers(&mut bank, &stream, block);
                assert_eq!(seen[0], want, "case {case}, block {block}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "the bank reads sample 64")]
    fn skip_refuses_samples_the_bank_reads() {
        let mut bank = DspLaneBank::new();
        bank.add_lane(&xcorr_cfg(&[3; 64], &[0; 64], 1, 100));
        bank.process_block(&[IqI16::new(1000, 1000); 64]);
        bank.skip(bank.unread() + 1);
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
