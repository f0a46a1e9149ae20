//! Sample-rate conversion.
//!
//! The paper's detector runs at a fixed 25 MSPS while the signals it hunts
//! are generated at their native standard rates (802.11g at 20 MSPS, the
//! Air4G WiMAX downlink at 11.4 MHz). The resulting template/stream rate
//! mismatch is the single largest factor in the paper's measured detection
//! performance, so this module reproduces the conversion explicitly instead
//! of pretending everything shares a clock.
//!
//! Two converters are provided:
//!
//! * [`Rational`] — a polyphase L/M resampler with a windowed-sinc prototype
//!   filter, used for the exact 20->25 MSPS (L/M = 5/4) WiFi path;
//! * [`resample_linear`] — a light-weight linear interpolator for arbitrary
//!   irrational-looking ratios such as 11.4->25 MHz, adequate because the
//!   detector only consumes sign bits and coarse energy.

use crate::complex::Cf64;
use crate::fir::lowpass;
use std::sync::OnceLock;

/// Prototype taps per phase of the rational resamplers [`to_usrp_rate`]
/// designs.
const TAPS_PER_PHASE: usize = 12;

/// Polyphase rational resampler by a factor `up/down`.
#[derive(Clone, Debug)]
pub struct Rational {
    up: usize,
    down: usize,
    /// Polyphase filter bank: `phases[p]` holds every `up`-th prototype tap.
    phases: Vec<Vec<f64>>,
    taps_per_phase: usize,
}

impl Rational {
    /// Creates a resampler with interpolation factor `up` and decimation
    /// factor `down`. `taps_per_phase` controls prototype quality (8-16 is
    /// plenty for detector-grade fidelity).
    ///
    /// # Panics
    /// Panics if any parameter is zero.
    pub fn new(up: usize, down: usize, taps_per_phase: usize) -> Self {
        assert!(up > 0 && down > 0 && taps_per_phase > 0);
        let g = gcd(up, down);
        let (up, down) = (up / g, down / g);
        let proto_len = up * taps_per_phase;
        // Cut off at the narrower of the input/output Nyquist bands.
        let cutoff = 0.5 / up.max(down) as f64 * 0.9;
        // Design at the upsampled rate: normalized cutoff = cutoff (cycles per
        // upsampled sample), then scale gain by `up` to preserve amplitude.
        let mut proto = lowpass(proto_len, cutoff.min(0.499));
        for t in proto.iter_mut() {
            *t *= up as f64;
        }
        let mut phases = vec![Vec::with_capacity(taps_per_phase); up];
        for (i, &t) in proto.iter().enumerate() {
            phases[i % up].push(t);
        }
        Rational {
            up,
            down,
            phases,
            taps_per_phase,
        }
    }

    /// The reduced interpolation factor.
    pub fn up(&self) -> usize {
        self.up
    }

    /// The reduced decimation factor.
    pub fn down(&self) -> usize {
        self.down
    }

    /// Resamples a whole buffer. Output length is approximately
    /// `input.len() * up / down`.
    pub fn process(&self, input: &[Cf64]) -> Vec<Cf64> {
        let mut out = Vec::new();
        self.process_into(input, &mut out);
        out
    }

    /// [`Rational::process`] into a caller-owned buffer: `out` is cleared
    /// and refilled, so a reused buffer stops allocating once it is large
    /// enough.
    ///
    /// Output `n` sits at upsampled index `t = n * down`, i.e. phase
    /// `t % up` with newest input sample `base = t / up`. It is the sum,
    /// from a zero accumulator and in tap order `k = 0..L`, of
    /// `input[base - k]` scaled by tap `k` of that phase; taps that would
    /// reach before `input[0]` are skipped. The first few outputs take that
    /// checked path. Every later window lies inside the input, and those
    /// outputs are computed four at a time, each with its own accumulator
    /// and the same tap order, which hides the add latency of one long
    /// chain without changing a single operation; the last one to three
    /// outputs take the checked path again.
    pub fn process_into(&self, input: &[Cf64], out: &mut Vec<Cf64>) {
        out.clear();
        let out_len = input.len() * self.up / self.down;
        out.reserve(out_len);
        let l = self.taps_per_phase;
        let mut pos = Position {
            phase: 0,
            base: 0,
            up: self.up,
            phase_step: self.down % self.up,
            base_step: self.down / self.up,
        };
        let mut n = 0;
        // Head: windows that reach before the first input sample. `base`
        // never decreases, so once one window fits, all later ones do.
        while n < out_len && pos.base + 1 < l {
            let (p, b) = pos.advance();
            out.push(self.output_checked(input, p, b));
            n += 1;
        }
        // Steady state: four full windows side by side.
        while n + 4 <= out_len {
            let (p0, b0) = pos.advance();
            let (p1, b1) = pos.advance();
            let (p2, b2) = pos.advance();
            let (p3, b3) = pos.advance();
            let (h0, h1, h2, h3) = (
                &self.phases[p0][..l],
                &self.phases[p1][..l],
                &self.phases[p2][..l],
                &self.phases[p3][..l],
            );
            let (w0, w1, w2, w3) = (
                &input[b0 + 1 - l..b0 + 1],
                &input[b1 + 1 - l..b1 + 1],
                &input[b2 + 1 - l..b2 + 1],
                &input[b3 + 1 - l..b3 + 1],
            );
            let (mut a0, mut a1, mut a2, mut a3) = (Cf64::ZERO, Cf64::ZERO, Cf64::ZERO, Cf64::ZERO);
            for k in 0..l {
                let i = l - 1 - k;
                a0 += w0[i].scale(h0[k]);
                a1 += w1[i].scale(h1[k]);
                a2 += w2[i].scale(h2[k]);
                a3 += w3[i].scale(h3[k]);
            }
            out.extend_from_slice(&[a0, a1, a2, a3]);
            n += 4;
        }
        // Tail: the last (at most three) outputs, one at a time.
        while n < out_len {
            let (p, b) = pos.advance();
            out.push(self.output_checked(input, p, b));
            n += 1;
        }
    }

    /// One output, skipping taps whose input sample does not exist.
    fn output_checked(&self, input: &[Cf64], phase: usize, base: usize) -> Cf64 {
        let mut acc = Cf64::ZERO;
        for (k, &tap) in self.phases[phase].iter().enumerate() {
            // Tap k corresponds to input sample base - k (causal history).
            if let Some(x) = base.checked_sub(k).and_then(|idx| input.get(idx)) {
                acc += x.scale(tap);
            }
        }
        acc
    }
}

/// `(phase, base)` of successive outputs, stepped without division.
struct Position {
    phase: usize,
    base: usize,
    up: usize,
    phase_step: usize,
    base_step: usize,
}

impl Position {
    /// Returns the current output's `(phase, base)` and moves to the next.
    fn advance(&mut self) -> (usize, usize) {
        let at = (self.phase, self.base);
        self.phase += self.phase_step;
        self.base += self.base_step;
        if self.phase >= self.up {
            self.phase -= self.up;
            self.base += 1;
        }
        at
    }
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Resamples by linear interpolation from `from_rate` to `to_rate`.
///
/// # Panics
/// Panics if either rate is not strictly positive.
pub fn resample_linear(input: &[Cf64], from_rate: f64, to_rate: f64) -> Vec<Cf64> {
    let mut out = Vec::new();
    resample_linear_into(input, from_rate, to_rate, &mut out);
    out
}

/// [`resample_linear`] into a caller-owned buffer (`out` is cleared and
/// refilled).
///
/// # Panics
/// Panics if either rate is not strictly positive.
pub fn resample_linear_into(input: &[Cf64], from_rate: f64, to_rate: f64, out: &mut Vec<Cf64>) {
    assert!(from_rate > 0.0 && to_rate > 0.0, "rates must be positive");
    out.clear();
    if input.is_empty() {
        return;
    }
    let ratio = from_rate / to_rate;
    let out_len = ((input.len() as f64) / ratio).floor() as usize;
    let last = input.len() - 1;
    out.extend((0..out_len).map(|n| {
        let x = n as f64 * ratio;
        let i = x.floor() as usize;
        let frac = x - i as f64;
        let a = input[i.min(last)];
        let b = input[(i + 1).min(last)];
        a.scale(1.0 - frac) + b.scale(frac)
    }));
}

/// Applies a fractional-sample delay `frac` in `[0, 1)` by linear
/// interpolation (output is one sample shorter).
///
/// Transmitter and receiver sample clocks are unsynchronized, so each
/// arriving frame lands on a different sampling phase; detection
/// experiments draw this per frame to avoid the unrealistically perfect
/// alignment a shared-clock simulation would otherwise have.
///
/// # Panics
/// Panics if `frac` is outside `[0, 1)`.
pub fn fractional_delay(input: &[Cf64], frac: f64) -> Vec<Cf64> {
    let mut out = Vec::new();
    fractional_delay_into(input, frac, &mut out);
    out
}

/// [`fractional_delay`] into a caller-owned buffer (`out` is cleared and
/// refilled). Inputs shorter than two samples are copied unchanged.
///
/// # Panics
/// Panics if `frac` is outside `[0, 1)`.
pub fn fractional_delay_into(input: &[Cf64], frac: f64, out: &mut Vec<Cf64>) {
    assert!(
        (0.0..1.0).contains(&frac),
        "frac must be in [0,1), got {frac}"
    );
    out.clear();
    if input.len() < 2 {
        out.extend_from_slice(input);
        return;
    }
    out.extend(
        input
            .windows(2)
            .map(|w| w[0].scale(1.0 - frac) + w[1].scale(frac)),
    );
}

/// Convenience: converts a waveform at `from_rate` to the receiver's fixed
/// 25 MSPS using the best available method for the ratio.
pub fn to_usrp_rate(input: &[Cf64], from_rate: f64) -> Vec<Cf64> {
    let mut out = Vec::new();
    to_usrp_rate_into(input, from_rate, &mut out);
    out
}

/// [`to_usrp_rate`] into a caller-owned buffer (`out` is cleared and
/// refilled). The 802.11 ratio (20 -> 25 MSPS, 5/4) reuses one resampler
/// designed on first use; other small rational ratios design theirs per
/// call, and the rest fall back to [`resample_linear_into`].
pub fn to_usrp_rate_into(input: &[Cf64], from_rate: f64, out: &mut Vec<Cf64>) {
    let to_rate = crate::USRP_SAMPLE_RATE;
    // Detect small rational ratios (e.g. 20 MHz -> 25 MHz is 5/4).
    for denom in 1..=32usize {
        let num = to_rate / from_rate * denom as f64;
        if (num - num.round()).abs() < 1e-9 && num.round() >= 1.0 {
            let num = num.round() as usize;
            if (num, denom) == (5, 4) {
                static WIFI: OnceLock<Rational> = OnceLock::new();
                WIFI.get_or_init(|| Rational::new(5, 4, TAPS_PER_PHASE))
                    .process_into(input, out);
            } else {
                Rational::new(num, denom, TAPS_PER_PHASE).process_into(input, out);
            }
            return;
        }
    }
    resample_linear_into(input, from_rate, to_rate, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::fft;
    use crate::power::mean_power;

    fn tone(freq: f64, rate: f64, n: usize) -> Vec<Cf64> {
        (0..n)
            .map(|t| Cf64::from_angle(2.0 * std::f64::consts::PI * freq * t as f64 / rate))
            .collect()
    }

    fn dominant_freq(buf: &[Cf64], rate: f64) -> f64 {
        let n = buf.len().next_power_of_two() / 2;
        let spec = fft(&buf[..n]);
        let peak = spec
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap()
            .0;
        let k = if peak > n / 2 {
            peak as f64 - n as f64
        } else {
            peak as f64
        };
        k * rate / n as f64
    }

    /// `Rational::process` as first written: one output at a time, every
    /// tap bounds-checked. The reference the kernel must match bit for bit.
    fn reference_process(r: &Rational, input: &[Cf64]) -> Vec<Cf64> {
        let out_len = input.len() * r.up / r.down;
        let mut out = Vec::with_capacity(out_len);
        for n in 0..out_len {
            let t = n * r.down;
            let phase = t % r.up;
            let base = t / r.up;
            let taps = &r.phases[phase];
            let mut acc = Cf64::ZERO;
            for (k, &tap) in taps.iter().enumerate().take(r.taps_per_phase) {
                if let Some(idx) = base.checked_sub(k) {
                    if idx < input.len() {
                        acc += input[idx].scale(tap);
                    }
                }
            }
            out.push(acc);
        }
        out
    }

    /// `fractional_delay` as first written.
    fn reference_fractional_delay(input: &[Cf64], frac: f64) -> Vec<Cf64> {
        if input.len() < 2 {
            return input.to_vec();
        }
        (0..input.len() - 1)
            .map(|k| input[k].scale(1.0 - frac) + input[k + 1].scale(frac))
            .collect()
    }

    fn bits(buf: &[Cf64]) -> Vec<(u64, u64)> {
        buf.iter()
            .map(|s| (s.re.to_bits(), s.im.to_bits()))
            .collect()
    }

    fn noise(seed: u64, n: usize) -> Vec<Cf64> {
        let mut rng = crate::rng::Rng::seed_from(seed);
        (0..n)
            .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
            .collect()
    }

    rjam_testkit::props! {
        cases = 48;

        /// The four-wide kernel equals the one-at-a-time reference bit for
        /// bit for any ratio and filter length, including inputs shorter
        /// than the filter and empty inputs, and into a dirty buffer.
        fn rational_matches_reference_bits(
            up in 1usize..9,
            down in 1usize..9,
            taps in 1usize..17,
            len in 0usize..200,
            seed in rjam_testkit::any::<u64>(),
        ) {
            let r = Rational::new(up, down, taps);
            let input = noise(seed, len);
            let mut out = noise(!seed, 7);
            r.process_into(&input, &mut out);
            rjam_testkit::prop_assert_eq!(bits(&out), bits(&reference_process(&r, &input)));
        }

        /// `fractional_delay_into` equals the reference bit for bit,
        /// including the copied-through lengths 0 and 1.
        fn fractional_delay_matches_reference_bits(
            len in 0usize..64,
            frac in 0.0f64..0.999,
            seed in rjam_testkit::any::<u64>(),
        ) {
            let input = noise(seed, len);
            let mut out = noise(!seed, 5);
            fractional_delay_into(&input, frac, &mut out);
            rjam_testkit::prop_assert_eq!(
                bits(&out),
                bits(&reference_fractional_delay(&input, frac))
            );
        }
    }

    #[test]
    fn cached_wifi_resampler_matches_a_fresh_design() {
        let input = noise(5, 1000);
        let fresh = reference_process(&Rational::new(5, 4, 12), &input);
        let mut out = Vec::new();
        to_usrp_rate_into(&input, 20.0e6, &mut out);
        assert_eq!(bits(&out), bits(&fresh));
        assert_eq!(bits(&to_usrp_rate(&input, 20.0e6)), bits(&fresh));
    }

    #[test]
    fn rational_5_4_length() {
        let input = tone(1.0e6, 20.0e6, 2000);
        let r = Rational::new(5, 4, 12);
        let out = r.process(&input);
        assert_eq!(out.len(), 2500);
    }

    #[test]
    fn rational_preserves_tone_frequency() {
        let f0 = 2.0e6;
        let input = tone(f0, 20.0e6, 4096);
        let out = Rational::new(5, 4, 12).process(&input);
        let got = dominant_freq(&out, 25.0e6);
        assert!((got - f0).abs() < 25.0e6 / 1024.0, "got {got}");
    }

    #[test]
    fn rational_preserves_power_approximately() {
        let input = tone(1.0e6, 20.0e6, 8192);
        let out = Rational::new(5, 4, 16).process(&input);
        // Skip the filter transient at the head.
        let p_in = mean_power(&input[100..]);
        let p_out = mean_power(&out[200..]);
        assert!((p_out / p_in - 1.0).abs() < 0.05, "ratio {}", p_out / p_in);
    }

    #[test]
    fn rational_reduces_factors() {
        let r = Rational::new(10, 8, 8);
        assert_eq!(r.up(), 5);
        assert_eq!(r.down(), 4);
    }

    #[test]
    fn linear_preserves_tone_frequency() {
        let f0 = 1.0e6;
        let input = tone(f0, 11.4e6, 8192);
        let out = resample_linear(&input, 11.4e6, 25.0e6);
        let got = dominant_freq(&out, 25.0e6);
        assert!((got - f0).abs() < 25.0e6 / 2048.0, "got {got}");
    }

    #[test]
    fn linear_identity_ratio() {
        let input = tone(1.0e6, 25.0e6, 100);
        let out = resample_linear(&input, 25.0e6, 25.0e6);
        assert_eq!(out.len(), input.len());
        for (a, b) in input.iter().zip(out.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_empty_input() {
        assert!(resample_linear(&[], 20.0e6, 25.0e6).is_empty());
    }

    #[test]
    fn to_usrp_rate_picks_rational_for_wifi() {
        let input = tone(1.0e6, 20.0e6, 2000);
        let out = to_usrp_rate(&input, 20.0e6);
        assert_eq!(out.len(), 2500);
    }

    #[test]
    fn to_usrp_rate_handles_wimax_rate() {
        let input = tone(1.0e6, 11.4e6, 1140);
        let out = to_usrp_rate(&input, 11.4e6);
        // 1140 samples at 11.4 MHz = 100 us -> 2500 samples at 25 MHz.
        assert!((out.len() as i64 - 2500).abs() <= 1, "len {}", out.len());
    }

    #[test]
    fn fractional_delay_zero_is_identity() {
        let input = tone(1.0e6, 25.0e6, 64);
        let out = fractional_delay(&input, 0.0);
        for (a, b) in input.iter().zip(out.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn fractional_delay_shifts_phase() {
        // A half-sample delay of a tone advances its phase by pi*f/fs.
        let f0 = 1.0e6;
        let fs = 25.0e6;
        let input = tone(f0, fs, 256);
        let out = fractional_delay(&input, 0.5);
        let expected_shift = std::f64::consts::PI * f0 / fs;
        let measured = (out[100].conj() * input[100]).arg().abs();
        assert!((measured - expected_shift).abs() < 0.01, "shift {measured}");
    }

    #[test]
    #[should_panic(expected = "frac")]
    fn fractional_delay_rejects_out_of_range() {
        let _ = fractional_delay(&[Cf64::ONE, Cf64::ONE], 1.0);
    }

    #[test]
    fn upsampled_duration_preserved() {
        // 3.2 us of WiFi (64 samples @20 MSPS) must become 80 samples @25 MSPS:
        // the mechanism behind the paper's "64-sample window sees only the
        // first 2.56 us of the 3.2 us code".
        let input = tone(0.5e6, 20.0e6, 64);
        let out = to_usrp_rate(&input, 20.0e6);
        assert_eq!(out.len(), 80);
    }
}
