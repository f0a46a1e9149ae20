//! Additive white Gaussian noise sources.
//!
//! The conducted testbed's only stochastic impairment is thermal noise at
//! each receiver. Noise power is expressed relative to digital full scale
//! (dBFS), matching how the paper reports SNR "at RX" after the fixed-gain
//! front end.
//!
//! Detectors only see the DDC's 16-bit samples, so [`NoiseSource`] can also
//! write noisy samples straight into the ADC domain
//! ([`NoiseSource::add_to_adc`], [`NoiseSource::adc_noise`]). That path is
//! exact after quantization: it produces the same `i16`s as quantizing the
//! `f64` samples [`NoiseSource::next_sample`] draws, with a polynomial in
//! place of libm's sine and cosine wherever the result provably rounds the
//! same (DESIGN.md, "Detector input in the ADC domain").

use rjam_sdr::complex::{round_lsb, Cf64, IqI16, FULL_SCALE};
use rjam_sdr::power::db_to_lin;
use rjam_sdr::rng::{PolarDraw, Rng};

/// Samples per chunk of the ADC-domain generator. Its four per-sample
/// `f64` buffers live on the stack (2 KiB).
const ADC_CHUNK: usize = 64;
/// Largest per-component σ the ADC-domain error bound covers; a noisier
/// source takes the exact path throughout.
const ADC_SIGMA_MAX: f64 = 1.0;
/// Largest magnitude, in LSBs, the fast path quantizes itself; beyond it
/// (the clip region) a component takes the exact path.
const ADC_RANGE: f64 = 32_000.0;
/// Smallest distance, in LSBs, from a rounding boundary at which the fast
/// path trusts its rounding: over 10³× [`ADC_WORST_LSB`] (checked below).
const ADC_MARGIN: f64 = 1e-6;
/// Bound on `|sincos(θ) − (θ.cos(), θ.sin())|` per component, for θ in
/// `[0, 2π)`: range reduction, truncation and evaluation error of
/// [`sincos`] plus libm's own 1 ulp.
const SINCOS_ERR: f64 = 1e-15;
/// Bound on the Box–Muller radius: `u1 ≥ 2⁻⁵³`, so `−2 ln u1 ≤ 106 ln 2`
/// and `r ≤ 8.5718`.
const R_MAX: f64 = 8.58;
/// Worst-case difference, in LSBs, between a component's fast and exact
/// `(w + noise·σ)·FULL_SCALE` when the fast one is within [`ADC_RANGE`]:
/// the sin/cos error carried through `r·σ·FULL_SCALE`, plus four roundings
/// of relative size 2⁻⁵³ in each of the two evaluations, on magnitudes
/// `|noise·σ| ≤ R_MAX·σ` and `|w + noise·σ| ≤ 1`. About 4.2e-10.
const ADC_WORST_LSB: f64 = FULL_SCALE
    * (R_MAX * ADC_SIGMA_MAX * SINCOS_ERR
        + 2.0 * f64::EPSILON * (1.0 + R_MAX * ADC_SIGMA_MAX) * 1.01);
const _: () = assert!(ADC_MARGIN >= 1e3 * ADC_WORST_LSB);

/// 1.5·2⁵²: adding it rounds a value in `[0, 2⁵¹)` to an integer, which
/// then sits in the low mantissa bits.
const SHIFTER: f64 = 6_755_399_441_055_744.0;
/// π/2 to 33 bits, so `k·PIO2_HI` is exact for a quadrant `k` ≤ 4.
const PIO2_HI: f64 = 1.570_796_326_734_125_6;
/// π/2 − `PIO2_HI`, to working precision.
const PIO2_LO: f64 = 6.077_100_506_506_192e-11;

/// `(cos θ, sin θ)` for `θ` in `[0, 2π)`, each within [`SINCOS_ERR`] of
/// libm's: quadrant reduction to `|y| ≤ π/4` (Cody–Waite with an exact
/// first step), then the Taylor series of cos through `y¹⁶` and of sin
/// through `y¹⁷` (truncation error below 3e-18). Branch-free, so a loop
/// of it vectorizes.
#[inline]
fn sincos(theta: f64) -> (f64, f64) {
    let shifted = theta * std::f64::consts::FRAC_2_PI + SHIFTER;
    let quadrant = shifted.to_bits();
    let k = shifted - SHIFTER;
    let y = (theta - k * PIO2_HI) - k * PIO2_LO;
    let z = y * y;
    let cos_y = 1.0
        + z * (-1.0 / 2.0
            + z * (1.0 / 24.0
                + z * (-1.0 / 720.0
                    + z * (1.0 / 40_320.0
                        + z * (-1.0 / 3_628_800.0
                            + z * (1.0 / 479_001_600.0
                                + z * (-1.0 / 87_178_291_200.0
                                    + z * (1.0 / 20_922_789_888_000.0))))))));
    let sin_tail = -1.0 / 6.0
        + z * (1.0 / 120.0
            + z * (-1.0 / 5_040.0
                + z * (1.0 / 362_880.0
                    + z * (-1.0 / 39_916_800.0
                        + z * (1.0 / 6_227_020_800.0
                            + z * (-1.0 / 1_307_674_368_000.0
                                + z * (1.0 / 355_687_428_096_000.0)))))));
    let sin_y = y + y * z * sin_tail;
    // Quadrant q: cos θ = (cos y, −sin y, −cos y, sin y)[q] and
    // sin θ = (sin y, cos y, −sin y, −cos y)[q], as bit selects.
    let swap = (quadrant & 1).wrapping_neg();
    let (cb, sb) = (cos_y.to_bits(), sin_y.to_bits());
    let c = (sb & swap) | (cb & !swap);
    let s = (cb & swap) | (sb & !swap);
    (
        f64::from_bits(c ^ (((quadrant + 1) & 2) << 62)),
        f64::from_bits(s ^ ((quadrant & 2) << 62)),
    )
}

/// One quantized component: `round_lsb((w + noise·σ)·FULL_SCALE)` with the
/// fast `noise`, unless that value lies within [`ADC_MARGIN`] of a rounding
/// boundary or beyond [`ADC_RANGE`]; then with the `exact` noise.
#[inline]
fn adc_component(w: f64, noise: f64, sigma: f64, exact: impl FnOnce() -> f64) -> i16 {
    let x = (w + noise * sigma) * FULL_SCALE;
    let (q, margin) = round_lsb(x);
    if margin >= ADC_MARGIN && x.abs() <= ADC_RANGE {
        q
    } else {
        round_lsb((w + exact() * sigma) * FULL_SCALE).0
    }
}

/// A complex AWGN generator with configurable mean power.
#[derive(Clone, Debug)]
pub struct NoiseSource {
    rng: Rng,
    /// Per-component standard deviation such that E[|n|^2] = power.
    sigma: f64,
    power: f64,
}

impl NoiseSource {
    /// Creates a source with the given total complex noise power (linear,
    /// relative to full scale 1.0).
    ///
    /// # Panics
    /// Panics if `power` is negative.
    pub fn new(power: f64, rng: Rng) -> Self {
        assert!(power >= 0.0, "noise power cannot be negative");
        NoiseSource {
            rng,
            sigma: (power / 2.0).sqrt(),
            power,
        }
    }

    /// Creates a source from a noise floor in dBFS.
    pub fn from_dbfs(dbfs: f64, rng: Rng) -> Self {
        NoiseSource::new(db_to_lin(dbfs), rng)
    }

    /// Configured mean noise power.
    pub fn power(&self) -> f64 {
        self.power
    }

    /// Draws one noise sample.
    ///
    /// Named `next_sample` (not `next`) deliberately: `NoiseSource` is an
    /// infinite generator, so an `Iterator::next` returning `Option` would
    /// never be `None` and the inherent-method name would shadow the trait
    /// (`clippy::should_implement_trait`).
    #[inline]
    pub fn next_sample(&mut self) -> Cf64 {
        Cf64::new(
            self.rng.gaussian() * self.sigma,
            self.rng.gaussian() * self.sigma,
        )
    }

    /// Appends `IqI16::from_cf64(w + self.next_sample())` for every `w` of
    /// `wave` to `out`, bit for bit, leaving the source where those
    /// `next_sample` calls would.
    pub fn add_to_adc(&mut self, wave: &[Cf64], out: &mut Vec<IqI16>) {
        self.adc(wave.len(), |k| wave[k], out);
    }

    /// Appends `n` noise-only samples, `IqI16::from_cf64(self.next_sample())`,
    /// to `out`, bit for bit, leaving the source where those `next_sample`
    /// calls would.
    pub fn adc_noise(&mut self, n: usize, out: &mut Vec<IqI16>) {
        // `0.0 + v` is `v` except for `-0.0`, which quantizes to 0 either way.
        self.adc(n, |_| Cf64::ZERO, out);
    }

    /// The ADC-domain generator: draws each sample's Box–Muller pair in
    /// `next_sample`'s order, evaluates sin and cos for a chunk at a time
    /// with [`sincos`] and quantizes with [`adc_component`]. A pending
    /// spare would pair each sample with halves of two different draws, and
    /// a σ above [`ADC_SIGMA_MAX`] is outside the error bound; both take
    /// the exact per-sample path instead.
    #[inline]
    fn adc(&mut self, n: usize, wave: impl Fn(usize) -> Cf64, out: &mut Vec<IqI16>) {
        out.reserve(n);
        let sigma = self.sigma;
        if self.rng.has_spare() || sigma > ADC_SIGMA_MAX {
            out.extend((0..n).map(|k| IqI16::from_cf64(wave(k) + self.next_sample())));
            return;
        }
        let mut draws = [PolarDraw::default(); ADC_CHUNK];
        let mut cos_sin = [(0.0, 0.0); ADC_CHUNK];
        for lo in (0..n).step_by(ADC_CHUNK) {
            let m = ADC_CHUNK.min(n - lo);
            for d in &mut draws[..m] {
                *d = self.rng.polar_draw();
            }
            for (d, cs) in draws[..m].iter().zip(&mut cos_sin[..m]) {
                *cs = sincos(d.theta);
            }
            for (k, (&d, &(c, s))) in draws[..m].iter().zip(&cos_sin[..m]).enumerate() {
                let w = wave(lo + k);
                out.push(IqI16::new(
                    adc_component(w.re, d.r * c, sigma, || d.cos_part()),
                    adc_component(w.im, d.r * s, sigma, || d.sin_part()),
                ));
            }
        }
    }

    /// Generates a block of noise.
    pub fn block(&mut self, n: usize) -> Vec<Cf64> {
        (0..n).map(|_| self.next_sample()).collect()
    }

    /// Adds noise to a waveform in place.
    pub fn corrupt(&mut self, buf: &mut [Cf64]) {
        for s in buf.iter_mut() {
            *s += self.next_sample();
        }
    }
}

/// Returns a copy of `signal` with AWGN at the SNR (dB) implied by the
/// signal's own mean power. Convenience for detector characterization runs.
pub fn add_awgn_at_snr(signal: &[Cf64], snr_db: f64, rng: Rng) -> Vec<Cf64> {
    let sig_p = rjam_sdr::power::mean_power(signal);
    let noise_p = sig_p / db_to_lin(snr_db);
    let mut src = NoiseSource::new(noise_p, rng);
    signal.iter().map(|&s| s + src.next_sample()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_sdr::power::{lin_to_db, mean_power};

    #[test]
    fn noise_power_matches_request() {
        let mut src = NoiseSource::new(0.01, Rng::seed_from(1));
        let blk = src.block(200_000);
        let p = mean_power(&blk);
        assert!((p / 0.01 - 1.0).abs() < 0.02, "p={p}");
    }

    #[test]
    fn from_dbfs() {
        let src = NoiseSource::from_dbfs(-40.0, Rng::seed_from(2));
        assert!((lin_to_db(src.power()) + 40.0).abs() < 1e-9);
    }

    #[test]
    fn zero_power_source_is_silent() {
        let mut src = NoiseSource::new(0.0, Rng::seed_from(3));
        for _ in 0..100 {
            assert_eq!(src.next_sample(), Cf64::ZERO);
        }
    }

    #[test]
    fn components_are_uncorrelated_and_zero_mean() {
        let mut src = NoiseSource::new(1.0, Rng::seed_from(4));
        let blk = src.block(100_000);
        let n = blk.len() as f64;
        let mean_re: f64 = blk.iter().map(|s| s.re).sum::<f64>() / n;
        let mean_im: f64 = blk.iter().map(|s| s.im).sum::<f64>() / n;
        let cross: f64 = blk.iter().map(|s| s.re * s.im).sum::<f64>() / n;
        assert!(mean_re.abs() < 0.01);
        assert!(mean_im.abs() < 0.01);
        assert!(cross.abs() < 0.01);
    }

    #[test]
    fn corrupt_adds_expected_power() {
        let sig = vec![Cf64::new(0.1, 0.0); 100_000];
        let mut noisy = sig.clone();
        NoiseSource::new(0.04, Rng::seed_from(5)).corrupt(&mut noisy);
        let p = mean_power(&noisy);
        // Signal power 0.01 + noise 0.04.
        assert!((p - 0.05).abs() < 0.002, "p={p}");
    }

    #[test]
    fn sincos_stays_within_its_error_budget() {
        let mut rng = Rng::seed_from(8);
        let tau = 2.0 * std::f64::consts::PI;
        // Every quadrant boundary and its neighbours, the ends of the
        // angle range, then random draws' angles.
        let mut thetas: Vec<f64> = (0..=4)
            .flat_map(|k| {
                let b = k as f64 * std::f64::consts::FRAC_PI_2;
                [b, f64::from_bits(b.to_bits() + 1), b + 0.785, b - 0.785]
            })
            .filter(|t| (0.0..tau).contains(t))
            .collect();
        thetas.push(2.0 * std::f64::consts::PI * (1.0 - f64::EPSILON / 2.0));
        thetas.extend((0..200_000).map(|_| rng.polar_draw().theta));
        let mut worst = 0.0f64;
        for &t in &thetas {
            let (c, s) = sincos(t);
            worst = worst.max((c - t.cos()).abs()).max((s - t.sin()).abs());
        }
        assert!(worst <= SINCOS_ERR / 2.0, "worst sin/cos error {worst:e}");
    }

    /// The reference the ADC-domain generator must reproduce.
    fn reference(src: &mut NoiseSource, wave: &[Cf64]) -> Vec<IqI16> {
        wave.iter()
            .map(|&w| IqI16::from_cf64(w + src.next_sample()))
            .collect()
    }

    #[test]
    fn pinned_seed_needs_the_exact_fallback() {
        // Seed 1 at σ = 0.5, every component aimed at a rounding boundary:
        // each fast value falls inside the margin, and some would round
        // the other way than the exact value. The generator must still
        // match, so it took the fallback.
        let src = NoiseSource::new(0.5, Rng::seed_from(1));
        let (mut probe, mut draws) = (src.clone(), src.rng.clone());
        let wave: Vec<Cf64> = (0..256)
            .map(|k| {
                let n = probe.next_sample();
                let target = (k as f64 - 128.0 + 0.5) / FULL_SCALE;
                Cf64::new(target - n.re, target - n.im)
            })
            .collect();
        let mut would_differ = 0;
        for w in &wave {
            let d = draws.polar_draw();
            let (c, s) = sincos(d.theta);
            for (w, fast, exact) in [(w.re, d.r * c, d.cos_part()), (w.im, d.r * s, d.sin_part())] {
                let fast = round_lsb((w + fast * src.sigma) * FULL_SCALE);
                assert!(fast.1 < ADC_MARGIN, "inside the margin");
                would_differ +=
                    usize::from(fast.0 != round_lsb((w + exact * src.sigma) * FULL_SCALE).0);
            }
        }
        assert!(would_differ > 0, "some fast rounding is wrong");
        let mut fast = src.clone();
        let mut got = Vec::new();
        fast.add_to_adc(&wave, &mut got);
        assert_eq!(got, reference(&mut src.clone(), &wave));
    }

    #[test]
    fn awgn_at_snr_yields_requested_snr() {
        let sig: Vec<Cf64> = (0..100_000)
            .map(|t| Cf64::from_angle(0.01 * t as f64).scale(0.2))
            .collect();
        let noisy = add_awgn_at_snr(&sig, 10.0, Rng::seed_from(6));
        let sig_p = mean_power(&sig);
        let tot_p = mean_power(&noisy);
        let noise_p = tot_p - sig_p;
        let snr = lin_to_db(sig_p / noise_p);
        assert!((snr - 10.0).abs() < 0.3, "snr={snr}");
    }
}
