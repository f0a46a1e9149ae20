//! Complex baseband sample types.
//!
//! Two representations are used throughout the workspace:
//!
//! * [`Cf64`] — double-precision complex numbers, used by waveform generators,
//!   channel models and reference receivers;
//! * [`IqI16`] — the 16-bit signed I/Q pair that travels through the USRP's
//!   DDC chain and into the custom FPGA core. Conversions between the two
//!   model the ADC/DDC quantization.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number in double precision, used as a baseband sample.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Cf64 {
    /// In-phase (real) component.
    pub re: f64,
    /// Quadrature (imaginary) component.
    pub im: f64,
}

impl Cf64 {
    /// The additive identity.
    pub const ZERO: Cf64 = Cf64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Cf64 = Cf64 { re: 1.0, im: 0.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Cf64 { re, im }
    }

    /// Creates a unit-magnitude complex number `e^{j theta}`.
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Cf64::new(theta.cos(), theta.sin())
    }

    /// Creates a complex number from polar coordinates.
    #[inline]
    pub fn from_polar(mag: f64, theta: f64) -> Self {
        Cf64::new(mag * theta.cos(), mag * theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Cf64::new(self.re, -self.im)
    }

    /// Squared magnitude `|z|^2 = re^2 + im^2`.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Phase angle in radians, in `(-pi, pi]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Scales both components by a real factor.
    #[inline]
    pub fn scale(self, k: f64) -> Self {
        Cf64::new(self.re * k, self.im * k)
    }

    /// Returns true when either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl fmt::Debug for Cf64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}j", self.re, self.im)
        } else {
            write!(f, "{:.6}{:.6}j", self.re, self.im)
        }
    }
}

impl Add for Cf64 {
    type Output = Cf64;
    #[inline]
    fn add(self, rhs: Cf64) -> Cf64 {
        Cf64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Cf64 {
    #[inline]
    fn add_assign(&mut self, rhs: Cf64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Cf64 {
    type Output = Cf64;
    #[inline]
    fn sub(self, rhs: Cf64) -> Cf64 {
        Cf64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Cf64 {
    #[inline]
    fn sub_assign(&mut self, rhs: Cf64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Cf64 {
    type Output = Cf64;
    #[inline]
    fn mul(self, rhs: Cf64) -> Cf64 {
        Cf64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Cf64 {
    #[inline]
    fn mul_assign(&mut self, rhs: Cf64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Cf64 {
    type Output = Cf64;
    #[inline]
    fn mul(self, rhs: f64) -> Cf64 {
        self.scale(rhs)
    }
}

impl Div<f64> for Cf64 {
    type Output = Cf64;
    #[inline]
    fn div(self, rhs: f64) -> Cf64 {
        self.scale(1.0 / rhs)
    }
}

impl Div for Cf64 {
    type Output = Cf64;
    #[inline]
    fn div(self, rhs: Cf64) -> Cf64 {
        let d = rhs.norm_sq();
        Cf64::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Cf64 {
    type Output = Cf64;
    #[inline]
    fn neg(self) -> Cf64 {
        Cf64::new(-self.re, -self.im)
    }
}

impl Sum for Cf64 {
    fn sum<I: Iterator<Item = Cf64>>(iter: I) -> Cf64 {
        iter.fold(Cf64::ZERO, |a, b| a + b)
    }
}

/// Digital full scale in LSBs: [`IqI16::from_cf64`] maps amplitude 1.0 here.
pub const FULL_SCALE: f64 = i16::MAX as f64;

/// Rounds one component already scaled to LSBs (`amplitude * FULL_SCALE`)
/// to the nearest `i16`, ties away from zero, saturating at the `i16`
/// range; NaN gives 0 and ±0 give 0. This is `x.round().clamp(-32768.0,
/// 32767.0) as i16` for every `f64`, but without `round`, which baseline
/// x86-64 (no `roundsd`) reaches through a software call.
///
/// Also returns the distance from `x` to the nearest rounding boundary (a
/// half-integer) — how far `x` may move without changing the result,
/// below saturation — and NaN for a NaN `x`.
#[inline]
pub fn round_lsb(x: f64) -> (i16, f64) {
    // The clamp keeps the truncating cast in range and exact; NaN passes
    // through it and casts to 0. `c - t` is exact: `t` is `c` with its
    // fraction cut off (Sterbenz for |c| >= 1).
    let c = x.clamp(-32769.0, 32768.0);
    let t = c as i32;
    let frac = c - t as f64;
    let r = t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5);
    (
        r.clamp(i16::MIN as i32, i16::MAX as i32) as i16,
        (frac.abs() - 0.5).abs(),
    )
}

/// A 16-bit signed I/Q sample as produced by the USRP's DDC chain.
///
/// Full scale is `i16::MAX`; [`IqI16::from_cf64`] maps a floating-point
/// amplitude of 1.0 to full scale with saturation, which is how the N210's
/// fixed-point datapath clips.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct IqI16 {
    /// In-phase component.
    pub i: i16,
    /// Quadrature component.
    pub q: i16,
}

impl IqI16 {
    /// The zero sample.
    pub const ZERO: IqI16 = IqI16 { i: 0, q: 0 };

    /// Creates a sample from raw fixed-point components.
    #[inline]
    pub const fn new(i: i16, q: i16) -> Self {
        IqI16 { i, q }
    }

    /// Quantizes a floating point sample, mapping amplitude 1.0 to full scale.
    ///
    /// Values outside `[-1.0, 1.0]` saturate, mirroring the hardware clip.
    /// Each component is `round_lsb(x * FULL_SCALE)`.
    #[inline]
    pub fn from_cf64(s: Cf64) -> Self {
        IqI16::new(
            round_lsb(s.re * FULL_SCALE).0,
            round_lsb(s.im * FULL_SCALE).0,
        )
    }

    /// Converts back to floating point with full scale mapped to 1.0.
    #[inline]
    pub fn to_cf64(self) -> Cf64 {
        let k = 1.0 / i16::MAX as f64;
        Cf64::new(self.i as f64 * k, self.q as f64 * k)
    }

    /// Instantaneous energy `i^2 + q^2` as computed by the FPGA's energy
    /// differentiator front end (fits in 31 bits; widened here to `u64` for
    /// the accumulators downstream).
    #[inline]
    pub fn energy(self) -> u64 {
        let i = self.i as i64;
        let q = self.q as i64;
        (i * i + q * q) as u64
    }
}

impl fmt::Debug for IqI16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.i, self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_sub_mul() {
        let a = Cf64::new(1.0, 2.0);
        let b = Cf64::new(3.0, -1.0);
        assert_eq!(a + b, Cf64::new(4.0, 1.0));
        assert_eq!(a - b, Cf64::new(-2.0, 3.0));
        // (1+2j)(3-j) = 3 - j + 6j - 2j^2 = 5 + 5j
        assert_eq!(a * b, Cf64::new(5.0, 5.0));
    }

    #[test]
    fn division_roundtrip() {
        let a = Cf64::new(2.5, -1.25);
        let b = Cf64::new(-0.5, 3.0);
        let c = (a / b) * b;
        assert!((c - a).abs() < 1e-12);
    }

    #[test]
    fn conj_and_norm() {
        let a = Cf64::new(3.0, 4.0);
        assert_eq!(a.norm_sq(), 25.0);
        assert_eq!(a.abs(), 5.0);
        assert_eq!(a.conj(), Cf64::new(3.0, -4.0));
        assert!(((a * a.conj()).re - 25.0).abs() < 1e-12);
    }

    #[test]
    fn from_angle_unit_magnitude() {
        for k in 0..16 {
            let z = Cf64::from_angle(k as f64 * std::f64::consts::FRAC_PI_8);
            assert!((z.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn quantize_full_scale_and_saturation() {
        let s = IqI16::from_cf64(Cf64::new(1.0, -1.0));
        assert_eq!(s.i, i16::MAX);
        assert_eq!(s.q, -i16::MAX);
        let clipped = IqI16::from_cf64(Cf64::new(4.0, -4.0));
        assert_eq!(clipped.i, i16::MAX);
        assert_eq!(clipped.q, i16::MIN);
    }

    #[test]
    fn round_lsb_reports_its_margin() {
        assert_eq!(round_lsb(3.25), (3, 0.25));
        assert_eq!(round_lsb(-3.75), (-4, 0.25));
        assert_eq!(round_lsb(2.5), (3, 0.0));
        assert!(round_lsb(f64::NAN).1.is_nan());
    }

    #[test]
    fn quantize_roundtrip_small_error() {
        let vals = [
            Cf64::new(0.5, -0.25),
            Cf64::new(-0.9, 0.1),
            Cf64::new(0.0, 0.0),
        ];
        for v in vals {
            let rt = IqI16::from_cf64(v).to_cf64();
            assert!((rt - v).abs() < 1.0 / 32767.0, "{v:?} -> {rt:?}");
        }
    }

    #[test]
    fn energy_matches_components() {
        let s = IqI16::new(-300, 400);
        assert_eq!(s.energy(), 300 * 300 + 400 * 400);
        assert_eq!(
            IqI16::new(i16::MIN, i16::MIN).energy(),
            2 * (32768u64 * 32768)
        );
    }

    #[test]
    fn sum_iterator() {
        let v = vec![Cf64::new(1.0, 1.0); 8];
        let s: Cf64 = v.into_iter().sum();
        assert_eq!(s, Cf64::new(8.0, 8.0));
    }
}
