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
//! `f64` samples [`NoiseSource::next_sample`] draws, with a table and
//! polynomials in place of libm's logarithm, sine and cosine wherever the
//! result provably rounds the same (DESIGN.md, "Detector input in the ADC
//! domain"). For a detector that reads only the signs of its samples,
//! [`NoiseSource::adc_noise_signs`] gives exactly those signs without
//! computing the Gaussian wherever the draw's integers already settle them.

use rjam_sdr::complex::{Cf64, IqI16, FULL_SCALE};
use rjam_sdr::rng::{PolarDraw, Rng};
use std::sync::OnceLock;

/// Samples per chunk of the ADC-domain generator. Its four per-sample
/// `f64` buffers and its `IqI16`s live on the stack (2.3 KiB).
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
/// libm's own error: glibc's `sin`, `cos` and `log` are within 1 ulp, at
/// most 2⁻⁵² relative, and for `sin` and `cos` at most 2⁻⁵² absolute.
const LIBM_ERR: f64 = f64::EPSILON;
/// Bound on each entry of [`sectors`] against the true
/// `(cos, sin)(kπ/128)`: libm's 1 ulp at the exact angle `k·PI128_HI`
/// plus the rounding of the first-order move by `k·PI128_LO`, 1.5 ulp of
/// a value in `[−1, 1]`.
const TABLE_ERR: f64 = 1.5 * f64::EPSILON / 2.0;
/// Truncation of [`sincos_in`]'s Taylor polynomials on `|y| ≤ π/256`: the
/// first omitted terms, `y⁷/7! < 8.4e-18` and `y⁸/8! < 1.3e-20`.
const TAYLOR_ERR: f64 = 1e-17;
/// Rounding in [`sincos_in`]: the reduction (≤ 2⁻⁵³·|y| < 1.4e-18), the
/// polynomials and the angle-addition corrections (a few roundings each
/// on magnitudes below 0.0124), and the final addition (½ ulp).
const SINCOS_ROUNDING: f64 = f64::EPSILON / 2.0 + 1e-17;
/// Bound on `|sincos(θ) − (θ.cos(), θ.sin())|` per component, for θ in
/// `[0, 2π)`: the table error, carried through the angle addition with a
/// gain of at most `1 + π/256`, truncation, rounding and libm's own error.
const SINCOS_ERR: f64 = TABLE_ERR * 1.0123 + TAYLOR_ERR + SINCOS_ROUNDING + LIBM_ERR;
/// Truncation of [`ln_unit`]'s atanh series relative to `ln m`: the first
/// omitted term, `z¹¹/23` at `z = s² ≤ 0.02944`, is below 6.4e-19.
const LN_TRUNC_ERR: f64 = 1e-18;
/// Bound on `|ln_unit(u) − u.ln()| / |u.ln()|` for `u` in `[2⁻⁵³, 1]`:
/// truncation, the evaluation's rounding (2 ulp) and libm's own error.
const LN_ERR: f64 = LN_TRUNC_ERR + 2.0 * f64::EPSILON + LIBM_ERR;
/// Bound on `|r_fast − r_exact| / r_exact` for the Box–Muller radius
/// `sqrt(−2 ln u1)`: the square root halves [`LN_ERR`], and each of the
/// two square roots rounds by at most 2⁻⁵³ (1 % covers the second-order
/// terms).
const RADIUS_ERR: f64 = (LN_ERR / 2.0 + f64::EPSILON) * 1.01;
/// Bound on the Box–Muller radius: `u1 ≥ 2⁻⁵³`, so `−2 ln u1 ≤ 106 ln 2`
/// and `r ≤ 8.5718`, fast or exact.
const R_MAX: f64 = 8.58;
/// Worst-case difference, in LSBs, between a component's fast and exact
/// `(w + noise·σ)·FULL_SCALE` when the fast one is within [`ADC_RANGE`]:
/// `|r_f·c_f − r_e·c_e| ≤ R_MAX·(SINCOS_ERR + RADIUS_ERR·(1 + SINCOS_ERR))`
/// carried through `σ·FULL_SCALE`, plus four roundings of relative size
/// 2⁻⁵³ in each of the two evaluations, on magnitudes `|noise·σ| ≤
/// R_MAX·σ` and `|w + noise·σ| ≤ 1`. About 4.4e-10.
const ADC_WORST_LSB: f64 = FULL_SCALE
    * (R_MAX * ADC_SIGMA_MAX * (SINCOS_ERR + RADIUS_ERR * (1.0 + SINCOS_ERR))
        + 2.0 * f64::EPSILON * (1.0 + R_MAX * ADC_SIGMA_MAX) * 1.01);
const _: () = assert!(ADC_MARGIN >= 1e3 * ADC_WORST_LSB);

/// Sectors of the angle the sign stream tells apart: `u2` in steps of
/// δ = 2⁻⁹ of a turn (0.0123 rad), sector `s` holding `[s·δ, (s + 1)·δ)`,
/// so sector `b >> 44` of a draw's 53-bit `b`.
const SIGN_SECTORS: usize = 512;
/// Shift from a draw's 53-bit `b` to its sector.
const SIGN_SECTOR_SHIFT: u32 = 44;
const _: () = assert!(SIGN_SECTORS << SIGN_SECTOR_SHIFT == 1 << 53);
/// [`SIGN_CLASS`] bit: `cos 2πu2` is negative throughout the sector.
const NEG_I: u8 = 1;
/// [`SIGN_CLASS`] bit: `sin 2πu2` is negative throughout the sector.
const NEG_Q: u8 = 2;
/// [`SIGN_CLASS`] bit: the sector lies within δ of a quarter turn where a
/// component changes sign (¼, ½, ¾ or 1), and neither sign bit is set.
const BAND: u8 = 4;
/// The sign class of each sector. Outside the bands a component's factor
/// is at least `sin 2πδ` in magnitude, so its sign is the sector's.
const SIGN_CLASS: [u8; SIGN_SECTORS] = {
    let mut class = [0; SIGN_SECTORS];
    let mut s = 0;
    while s < SIGN_SECTORS {
        // The last sector before each quarter turn and the first after it,
        // except the first after 0, where `sin` starts non-negative.
        class[s] = if s % 128 == 127 || (s % 128 == 0 && s > 0) {
            BAND
        } else {
            (if s >= 128 && s < 384 { NEG_I } else { 0 }) | (if s >= 256 { NEG_Q } else { 0 })
        };
        s += 1;
    }
    class
};
/// A lower bound on `|cos θ̂|` or `|sin θ̂|`, libm's, for a component in
/// a negative sector of [`SIGN_CLASS`], where `θ̂ = fl(2π·u2)`: at least
/// δ from the component's sign change, its true factor is at least
/// `sin(π/256)` = 0.012 271 538 285 719 926 in magnitude, `θ̂` is within
/// 7e-16 of `2π·u2` (`fl(2π)` is within 2.5e-16 of 2π, and the product
/// rounds by at most 4.5e-16) and libm is within 1 ulp; this bound sits
/// 7.2e-13 lower.
const SIGN_TRIG_MIN: f64 = 0.012_271_538_285;
/// Relative error budget of the sign stream's radius test ([`sign_a_min`])
/// against the computed `|(r·c)·σ·FULL_SCALE|`: libm's `ln` (1 ulp, half
/// of it in the radius) and the square root (½ ulp) in `r`, the three
/// roundings of `(r·c)·σ·FULL_SCALE`, and the four roundings and the
/// squaring in the threshold's own radius: 9.5 units of 2⁻⁵³, against 20
/// allowed. libm's `exp` has its own term in [`sign_a_min`].
const SIGN_RADIUS_ERR: f64 = 10.0 * f64::EPSILON;
/// 2⁵³, the range of a draw's 53-bit integers.
const TWO_53: f64 = 9_007_199_254_740_992.0;

/// 1.5·2⁵²: adding it rounds a value in `[−2⁵¹, 2⁵¹)` to the nearest
/// integer (ties to even), which then sits in the low mantissa bits.
const SHIFTER: f64 = 6_755_399_441_055_744.0;
/// Sectors of [`sectors`] per radian, 128/π.
const SECTORS_PER_RAD: f64 = 128.0 * std::f64::consts::FRAC_1_PI;
/// π/128 to 40 bits, so `k·PI128_HI` is exact for a sector `k` ≤ 256.
const PI128_HI: f64 = 0.024_543_692_606_158_63;
/// π/128 − `PI128_HI`, to working precision.
const PI128_LO: f64 = 1.163_054_293_826_034_9e-14;

/// `(cos, sin)(kπ/128)` for `k` = 0..=256, each within [`TABLE_ERR`],
/// computed once per process: libm's `sin` and `cos` at the exact angle
/// `k·PI128_HI`, moved to first order by `k·PI128_LO` (the second-order
/// term is below 2e-23).
fn sectors() -> &'static [(f64, f64); 257] {
    static SECTORS: OnceLock<[(f64, f64); 257]> = OnceLock::new();
    SECTORS.get_or_init(|| {
        std::array::from_fn(|k| {
            let (hi, lo) = (k as f64 * PI128_HI, k as f64 * PI128_LO);
            let (s, c) = hi.sin_cos();
            (c - lo * s, s + lo * c)
        })
    })
}

/// `(cos θ, sin θ)` for `θ` in `[0, 2π)`, each within [`SINCOS_ERR`] of
/// libm's: the nearest sector `k = round(θ·128/π)` (the shifter leaves it
/// in the low mantissa bits), Cody–Waite reduction to `y = θ − kπ/128`
/// with `|y| ≤ π/256`, Taylor polynomials for `cos y − 1` through `y⁶`
/// and `sin y` through `y⁵`, and one angle addition with the table entry.
/// Branch-free apart from the table load.
#[inline]
fn sincos_in(table: &[(f64, f64); 257], theta: f64) -> (f64, f64) {
    let shifted = theta * SECTORS_PER_RAD + SHIFTER;
    let k = shifted - SHIFTER;
    // θ < 2π keeps k in [0, 256]; the `min` lets the load go unchecked.
    let (ck, sk) = table[(shifted.to_bits() as usize & 511).min(256)];
    let y = (theta - k * PI128_HI) - k * PI128_LO;
    let z = y * y;
    let cos_m1 = z * (-1.0 / 2.0 + z * (1.0 / 24.0 + z * (-1.0 / 720.0)));
    let sin_y = y + y * z * (-1.0 / 6.0 + z * (1.0 / 120.0));
    // cos(kπ/128 + y) and sin(kπ/128 + y), the small corrections summed
    // before the table value so the result rounds once at full size.
    (
        ck + (ck * cos_m1 - sk * sin_y),
        sk + (sk * cos_m1 + ck * sin_y),
    )
}

/// Bits of √½, rounded: [`ln_unit`] splits `u = 2ᵉ·m` with `m` in
/// `[√½, √2)`.
const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;
/// ln 2 to 32 bits, so `e·LN2_HI` is exact for every exponent `e`.
const LN2_HI: f64 = 0.693_147_180_369_123_8;
/// ln 2 − `LN2_HI`, to working precision.
const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// 2⁵²: `2⁵² + i` for an integer `0 ≤ i < 2⁵²` has `i` as its mantissa.
const TWO_52: f64 = 4_503_599_627_370_496.0;

/// `ln u` for `u` in `[2⁻⁵³, 1]`, within [`LN_ERR`] of libm's relative to
/// `|ln u|`, and exactly 0 at 1. The exponent split is bit operations:
/// adding `1.0 − √½` to the bits carries into the exponent exactly when
/// the mantissa is at least √2, and `e` converts through `2⁵² + field`.
/// Then `ln m = 2·atanh(s)` with `s = f/(2 + f)`, `f = m − 1` (exact),
/// `|s| ≤ 0.1716`, written as `f − (f²/2 − s·(f²/2 + R))` with
/// `R = Σ 2s²ⁱ/(2i + 1)` through `i = 10`, so the leading `f` carries no
/// rounding; `e·ln 2` comes in hi and lo parts. Branch-free.
#[inline]
fn ln_unit(u: f64) -> f64 {
    let bits = u.to_bits().wrapping_add(1f64.to_bits() - SQRT_HALF_BITS);
    let e = f64::from_bits(TWO_52.to_bits() | (bits >> 52)) - (TWO_52 + 1023.0);
    let m = f64::from_bits((bits & ((1 << 52) - 1)) + SQRT_HALF_BITS);
    let f = m - 1.0;
    let s = f / (2.0 + f);
    let z = s * s;
    let r = z
        * (2.0 / 3.0
            + z * (2.0 / 5.0
                + z * (2.0 / 7.0
                    + z * (2.0 / 9.0
                        + z * (2.0 / 11.0
                            + z * (2.0 / 13.0
                                + z * (2.0 / 15.0
                                    + z * (2.0 / 17.0 + z * (2.0 / 19.0 + z * (2.0 / 21.0))))))))));
    let hfsq = 0.5 * f * f;
    e * LN2_HI - ((hfsq - (s * (hfsq + r) + e * LN2_LO)) - f)
}

/// `x` rounded to the nearest `i16`, and whether that is `round_lsb(x).0`
/// for certain: `x` lies within [`ADC_RANGE`] and at least [`ADC_MARGIN`]
/// from a rounding boundary. Branch-free: the shifter rounds to nearest
/// (ties to even, which a kept `x` never is) and `x − q` is exact. NaN and
/// ±∞ are not kept.
#[inline]
fn quantize_checked(x: f64) -> (i16, bool) {
    let shifted = x + SHIFTER;
    let frac = x - (shifted - SHIFTER);
    let keep = (x.abs() <= ADC_RANGE) & (0.5 - frac.abs() >= ADC_MARGIN);
    (shifted.to_bits() as i16, keep)
}

/// The smallest `a` of a draw ([`Rng::polar_bits`]) whose radius makes a
/// component in a negative sector of [`SIGN_CLASS`] quantize negative
/// for certain at per-component σ `sigma`. The component is then at
/// least `r·SIGN_TRIG_MIN·σ·FULL_SCALE` in magnitude, so it needs
/// `r ≥ r_min`, the radius that makes this 0.5 widened by
/// [`SIGN_RADIUS_ERR`]. The radius is `sqrt(−2 ln u1)` with
/// `u1 = 1 − a·2⁻⁵³`, so `r ≥ r_min` when `u1 ≤ exp(−r_min²/2)`. The
/// `+ 2` covers libm's `exp`, within 1 ulp and so within one unit of
/// `a`, and the rounding of `1 − exp`, within half a unit. A silent
/// source gets 2⁵³ + 2, which no draw reaches.
fn sign_a_min(sigma: f64) -> u64 {
    let r_min = 0.5 * (1.0 + SIGN_RADIUS_ERR) / (SIGN_TRIG_MIN * sigma * FULL_SCALE);
    let tail = 1.0 - (-0.5 * r_min * r_min).exp();
    (tail * TWO_53).ceil() as u64 + 2
}

/// The sign sample of the draw `(a, b)` and whether it is left open. Its
/// components are −1 where [`SIGN_CLASS`] puts the sector of `b` on a
/// component's negative side and 0 elsewhere; the sample is open when
/// the sector is in a band, or on a negative side with `a` below `a_min`
/// ([`sign_a_min`]), where the radius may be too small to reach −½ LSB.
#[inline(always)]
fn sign_decision((a, b): (u64, u64), a_min: u64) -> (IqI16, bool) {
    let class = SIGN_CLASS[(b >> SIGN_SECTOR_SHIFT) as usize & (SIGN_SECTORS - 1)];
    let negative = class & (NEG_I | NEG_Q) != 0;
    let open = (class & BAND != 0) | (negative & (a < a_min));
    let (i, q) = (i16::from(class & NEG_I), i16::from(class & NEG_Q) >> 1);
    (IqI16::new(-i, -q), open)
}

/// The sign sample of `s`: each component −1 where `s`'s is negative and 0
/// elsewhere.
#[inline]
fn signs_of(s: IqI16) -> IqI16 {
    IqI16::new(s.i >> 15, s.q >> 15)
}

/// A complex AWGN generator with configurable mean power.
#[derive(Clone, Debug)]
pub struct NoiseSource {
    rng: Rng,
    /// Per-component standard deviation such that E[|n|^2] = power.
    sigma: f64,
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
        }
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

    /// Appends `n` samples whose components are −1 where
    /// [`NoiseSource::adc_noise`]'s would be negative and 0 elsewhere,
    /// leaving the source where `adc_noise` would: the stream of a detector
    /// that reads nothing of a sample but the signs of its components. Each
    /// sample's signs are decided from its draw's integers with integer
    /// compares, and the few samples left open take the exact path
    /// (DESIGN.md, "Detector input in the ADC domain").
    pub fn adc_noise_signs(&mut self, n: usize, out: &mut Vec<IqI16>) {
        let a_min = sign_a_min(self.sigma);
        // Each draw is kept as its integers; only an open sample needs the
        // uniforms.
        let fast = |rng: &mut Rng, _: usize, a: &mut [u64], b: &mut [u64], iq: &mut [IqI16]| {
            let mut open = 0u64;
            for (k, ((x, y), s)) in a.iter_mut().zip(b).zip(iq).enumerate() {
                let bits = rng.polar_bits();
                (*x, *y) = bits;
                let (signs, undecided) = sign_decision(bits, a_min);
                *s = signs;
                open |= u64::from(undecided) << k;
            }
            open
        };
        let uniforms = |a, b| Rng::polar_uniforms_of((a, b));
        self.chunks(n, out, true, fast, uniforms, |_, noise| {
            signs_of(IqI16::from_cf64(noise))
        });
    }

    /// The ADC-domain generator, in branch-free stages per chunk: draw the
    /// chunk's uniform pairs in `next_sample`'s order, take every radius
    /// with [`ln_unit`], every `(cos θ, sin θ)` with [`sincos_in`], and
    /// quantize every component with [`quantize_checked`]; a sample with a
    /// component it did not keep is left to the exact path. A σ above
    /// [`ADC_SIGMA_MAX`] is outside the error bound and takes the exact
    /// path throughout.
    #[inline]
    fn adc(&mut self, n: usize, wave: impl Fn(usize) -> Cf64, out: &mut Vec<IqI16>) {
        let sigma = self.sigma;
        let table = sectors();
        let mut re = [0.0; ADC_CHUNK];
        let mut im = [0.0; ADC_CHUNK];
        let fast = |rng: &mut Rng, lo: usize, u1: &mut [f64], u2: &mut [f64], iq: &mut [IqI16]| {
            let m = iq.len();
            for (a, b) in u1.iter_mut().zip(u2.iter_mut()) {
                (*a, *b) = rng.polar_uniforms();
            }
            for (r, &a) in re[..m].iter_mut().zip(&*u1) {
                *r = (-2.0 * ln_unit(a)).sqrt();
            }
            for ((x, y), &b) in re[..m].iter_mut().zip(&mut im[..m]).zip(&*u2) {
                let (c, s) = sincos_in(table, PolarDraw::angle(b));
                (*x, *y) = (*x * c, *x * s);
            }
            let mut open = 0u64;
            for (k, q) in iq.iter_mut().enumerate() {
                let w = wave(lo + k);
                let (i, keep_i) = quantize_checked((w.re + re[k] * sigma) * FULL_SCALE);
                let (j, keep_q) = quantize_checked((w.im + im[k] * sigma) * FULL_SCALE);
                *q = IqI16::new(i, j);
                open |= u64::from(!(keep_i & keep_q)) << k;
            }
            open
        };
        let exact = |k: usize, noise: Cf64| IqI16::from_cf64(wave(k) + noise);
        self.chunks(
            n,
            out,
            sigma <= ADC_SIGMA_MAX,
            fast,
            |u1, u2| (u1, u2),
            exact,
        );
    }

    /// The chunk loop of the ADC-domain generators. `fast` fills a chunk of
    /// up to [`ADC_CHUNK`] samples, the first at stream offset `lo`: it
    /// draws each sample's uniform pair in `next_sample`'s order, keeps it
    /// in `u1` and `u2` in a form `uniforms` turns back into the pair (the
    /// uniforms themselves, or their integers), and returns the mask of
    /// samples it left open (bit `k` for the chunk's sample `k`). Each open
    /// sample becomes `exact(lo + k, noise)` of the noise `next_sample`
    /// makes of the same pair, through [`PolarDraw`]. A pending spare would
    /// pair each sample with halves of two different draws, so then, and
    /// when `fast_ok` is false, every sample takes `exact` with
    /// `next_sample` itself.
    #[inline(always)]
    fn chunks<D: Copy + Default>(
        &mut self,
        n: usize,
        out: &mut Vec<IqI16>,
        fast_ok: bool,
        mut fast: impl FnMut(&mut Rng, usize, &mut [D], &mut [D], &mut [IqI16]) -> u64,
        uniforms: impl Fn(D, D) -> (f64, f64),
        exact: impl Fn(usize, Cf64) -> IqI16,
    ) {
        out.reserve(n);
        if self.rng.has_spare() || !fast_ok {
            out.extend((0..n).map(|k| exact(k, self.next_sample())));
            return;
        }
        let sigma = self.sigma;
        let mut u1 = [D::default(); ADC_CHUNK];
        let mut u2 = [D::default(); ADC_CHUNK];
        let mut iq = [IqI16::ZERO; ADC_CHUNK];
        for lo in (0..n).step_by(ADC_CHUNK) {
            let m = ADC_CHUNK.min(n - lo);
            let mut open = fast(&mut self.rng, lo, &mut u1[..m], &mut u2[..m], &mut iq[..m]);
            // The reference's own expression; a settled sample is the same
            // either way.
            while open != 0 {
                let k = open.trailing_zeros() as usize;
                open &= open - 1;
                let (a, b) = uniforms(u1[k], u2[k]);
                let d = PolarDraw::new(a, b);
                iq[k] = exact(
                    lo + k,
                    Cf64::new(d.cos_part() * sigma, d.sin_part() * sigma),
                );
            }
            out.extend_from_slice(&iq[..m]);
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

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_sdr::complex::round_lsb;
    use rjam_sdr::power::mean_power;

    #[test]
    fn noise_power_matches_request() {
        let mut src = NoiseSource::new(0.01, Rng::seed_from(1));
        let blk = src.block(200_000);
        let p = mean_power(&blk);
        assert!((p / 0.01 - 1.0).abs() < 0.02, "p={p}");
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

    /// [`sincos_in`] with the process's table.
    fn sincos(theta: f64) -> (f64, f64) {
        sincos_in(sectors(), theta)
    }

    /// `t` with its bit pattern stepped by `ulps` (away from zero for
    /// positive steps).
    fn step(t: f64, ulps: i64) -> f64 {
        f64::from_bits((t.to_bits() as i64 + ulps) as u64)
    }

    #[test]
    fn sincos_stays_within_its_error_budget() {
        let mut rng = Rng::seed_from(8);
        let tau = 2.0 * std::f64::consts::PI;
        // Every sector centre and half-sector boundary kπ/256 and its
        // 1-ulp neighbours, every quadrant boundary and its neighbours,
        // the ends of the angle range, then random draws' angles.
        let mut thetas: Vec<f64> = (0..512)
            .map(|k| k as f64 * std::f64::consts::PI / 256.0)
            .flat_map(|b| [b, step(b, 1), step(b, -1)])
            .chain((0..=4).flat_map(|k| {
                let b = k as f64 * std::f64::consts::FRAC_PI_2;
                [b, step(b, 1), b + 0.785, b - 0.785]
            }))
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

    #[test]
    fn ln_stays_within_its_error_budget() {
        // 10⁶ draws of u1, the 2 000 values of u1 nearest 1 (1 included)
        // and the smallest, 2⁻⁵³.
        let mut rng = Rng::seed_from(9);
        let near_one = (0..2_000).map(|k| 1.0 - k as f64 * f64::EPSILON / 2.0);
        let draws = (0..1_000_000).map(|_| rng.polar_uniforms().0);
        let mut worst = 0.0f64;
        for u in near_one.chain(draws).chain([f64::EPSILON / 2.0]) {
            let (fast, exact) = (ln_unit(u), u.ln());
            let err = if exact == 0.0 {
                fast.abs()
            } else {
                ((fast - exact) / exact).abs()
            };
            worst = worst.max(err);
        }
        assert!(worst <= LN_ERR / 2.0, "worst relative ln error {worst:e}");
    }

    /// Whether [`quantize_checked`] keeps `x` exactly when it lies within
    /// the range and margin, and then agrees with `round_lsb`.
    fn check_quantizer(x: f64) -> Result<(), String> {
        let (q, keep) = quantize_checked(x);
        let (want, margin) = round_lsb(x);
        if keep != (x.abs() <= ADC_RANGE && margin >= ADC_MARGIN) {
            return Err(format!("x = {x:e}: keep {keep}, margin {margin:e}"));
        }
        if keep && q != want {
            return Err(format!("x = {x:e}: kept {q}, round_lsb gives {want}"));
        }
        Ok(())
    }

    #[test]
    fn quantizer_keeps_only_what_rounds_like_round_lsb_at_every_half_integer() {
        for half in -40_000..40_000 {
            let tie = half as f64 + 0.5;
            for ulps in -3..=3 {
                let r = check_quantizer(step(tie, ulps));
                assert!(r.is_ok(), "{}", r.unwrap_err());
            }
        }
    }

    rjam_testkit::props! {
        cases = 64;

        /// A component the quantizer keeps rounds to `round_lsb`'s `i16`
        /// and lies at least [`ADC_MARGIN`] from a rounding boundary, and
        /// every component within the range and margin is kept. Random
        /// values within ±40 000, the ±`ADC_RANGE` edges, ±0, ±∞ and NaN.
        fn quantizer_keeps_only_what_rounds_like_round_lsb(
            xs in rjam_testkit::vec(-40_000.0f64..40_000.0, 256..257),
        ) {
            let edges = [-1, 0, 1].into_iter().flat_map(|u| {
                [step(ADC_RANGE, u), step(-ADC_RANGE, u)]
            });
            let specials = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN];
            for x in xs.into_iter().chain(edges).chain(specials) {
                let r = check_quantizer(x);
                rjam_testkit::prop_assert!(r.is_ok(), "{}", r.unwrap_err());
            }
        }
    }

    /// The sign sample `adc_noise` makes of the draw `bits` at σ `sigma`,
    /// by the reference's own expression.
    fn exact_signs(bits: (u64, u64), sigma: f64) -> IqI16 {
        let (u1, u2) = Rng::polar_uniforms_of(bits);
        let d = PolarDraw::new(u1, u2);
        signs_of(IqI16::from_cf64(Cf64::new(
            d.cos_part() * sigma,
            d.sin_part() * sigma,
        )))
    }

    /// The first and last `b` of sector `s`.
    fn sector_ends(s: usize) -> [u64; 2] {
        let first = (s as u64) << SIGN_SECTOR_SHIFT;
        [first, first + (1 << SIGN_SECTOR_SHIFT) - 1]
    }

    #[test]
    fn sign_factor_bound_holds_at_the_ends_of_every_negative_sector() {
        let mut checked = 0;
        for (s, &class) in SIGN_CLASS.iter().enumerate() {
            for b in sector_ends(s) {
                let theta = PolarDraw::angle(Rng::polar_uniforms_of((0, b)).1);
                for (bit, factor) in [(NEG_I, theta.cos()), (NEG_Q, theta.sin())] {
                    if class & bit != 0 {
                        assert!(-factor >= SIGN_TRIG_MIN, "sector {s}, b {b}: {factor}");
                        checked += 1;
                    }
                }
            }
        }
        // Sectors 129..=382 for I and 257..=510 for Q, less the other
        // component's bands at ½ and ¾, two ends each.
        assert_eq!(checked, 2 * (252 + 252));
        let true_bound = (std::f64::consts::PI / 256.0).sin();
        assert!(true_bound - SIGN_TRIG_MIN >= 1e3 * 7e-16);
    }

    #[test]
    fn sign_decisions_hold_at_every_band_edge_and_the_radius_threshold() {
        // Both ends of every sector are every band edge and the draw one
        // past it; `a` at the radius threshold and one below it, and at the
        // extremes. Every decided sample must be the reference's.
        for power in [0.0, 2e-8, 2e-6, 2e-4, 0.02, 2.0, 8.0] {
            let sigma = (power / 2.0f64).sqrt();
            let a_min = sign_a_min(sigma);
            let (mut decided, mut open) = (0, 0);
            for (s, &class) in SIGN_CLASS.iter().enumerate() {
                for b in sector_ends(s) {
                    let draws = [0, 1, a_min - 1, a_min, (1 << 53) - 1];
                    for a in draws.into_iter().filter(|&a| a < 1 << 53) {
                        let (signs, undecided) = sign_decision((a, b), a_min);
                        let negative = class & (NEG_I | NEG_Q) != 0;
                        assert_eq!(
                            undecided,
                            class & BAND != 0 || (negative && a < a_min),
                            "power {power}, sector {s}, a {a}"
                        );
                        if undecided {
                            open += 1;
                        } else {
                            assert_eq!(
                                signs,
                                exact_signs((a, b), sigma),
                                "power {power}, sector {s}, a {a}, b {b}"
                            );
                            decided += 1;
                        }
                    }
                }
            }
            assert!(decided > 0 && open > 0, "power {power}");
        }
    }

    #[test]
    fn sign_stream_leaves_few_samples_open_at_the_false_alarm_floor() {
        // The false-alarm floor, 2e-4: bands of 7 sectors in 512 (1.37 %)
        // plus the small radii on negative sides, 1.95 % of samples. An
        // over-cautious threshold would stay exact but slow.
        let a_min = sign_a_min((2e-4f64 / 2.0).sqrt());
        let mut rng = Rng::seed_from(11);
        let n = 1 << 20;
        let open = (0..n)
            .filter(|_| sign_decision(rng.polar_bits(), a_min).1)
            .count();
        let share = open as f64 / n as f64;
        assert!(share < 0.021, "open share {share}");
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
}
