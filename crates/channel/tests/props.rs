//! Property tests for the wired-channel models, driven by `rjam-testkit`.

use rjam_channel::{NoiseSource, ScopeTrace};
use rjam_sdr::complex::{Cf64, IqI16, FULL_SCALE};
use rjam_sdr::power::mean_power;
use rjam_sdr::rng::Rng;
use rjam_testkit::{self as tk, prop_assert, prop_assert_eq, props};

/// What the ADC-domain generator must reproduce: `wave` plus `noise_only`
/// zeros through `IqI16::from_cf64(w + next_sample())`.
fn quantized_f64_path(src: &mut NoiseSource, wave: &[Cf64], noise_only: usize) -> Vec<IqI16> {
    let mut out: Vec<IqI16> = wave
        .iter()
        .map(|&w| IqI16::from_cf64(w + src.next_sample()))
        .collect();
    out.extend((0..noise_only).map(|_| IqI16::from_cf64(src.next_sample())));
    out
}

/// Runs the ADC-domain generator over `wave` then `noise_only` samples and
/// checks it against [`quantized_f64_path`] on a clone, including where
/// each source's stream continues.
fn check_adc_generator(src: NoiseSource, wave: &[Cf64], noise_only: usize) -> Result<(), String> {
    let mut fast = src.clone();
    let mut slow = src;
    let mut got = Vec::new();
    fast.add_to_adc(wave, &mut got);
    fast.adc_noise(noise_only, &mut got);
    let want = quantized_f64_path(&mut slow, wave, noise_only);
    if let Some(k) = (0..want.len()).find(|&k| got.get(k) != Some(&want[k])) {
        return Err(format!(
            "sample {k}: got {:?}, want {:?}",
            got.get(k),
            want[k]
        ));
    }
    if got.len() != want.len() || fast.next_sample() != slow.next_sample() {
        return Err("the generator left its stream elsewhere".into());
    }
    Ok(())
}

/// Runs the sign stream over `n` samples and checks it against
/// [`NoiseSource::adc_noise`] on a clone: each component −1 exactly where
/// `adc_noise`'s is negative and 0 elsewhere, and both sources continue
/// alike.
fn check_sign_stream(src: NoiseSource, n: usize) -> Result<(), String> {
    let mut signs = src.clone();
    let mut full = src;
    let (mut got, mut want) = (Vec::new(), Vec::new());
    signs.adc_noise_signs(n, &mut got);
    full.adc_noise(n, &mut want);
    if got.len() != want.len() {
        return Err(format!("{} samples, want {}", got.len(), want.len()));
    }
    for (k, (s, w)) in got.iter().zip(&want).enumerate() {
        let expect = IqI16::new(-i16::from(w.i < 0), -i16::from(w.q < 0));
        if *s != expect {
            return Err(format!("sample {k}: got {s:?} for {w:?}"));
        }
    }
    if signs.next_sample() != full.next_sample() {
        return Err("the sign stream left its source elsewhere".into());
    }
    Ok(())
}

props! {
    cases = 16;

    /// The sign stream carries exactly the signs of `adc_noise`'s samples
    /// and leaves the source where `adc_noise` does: at noise powers from
    /// silence through sub-LSB noise (2e-8), the false-alarm floor (2e-4)
    /// and past clip (8), lengths 0, 1 and across chunk boundaries, and
    /// from an `Rng` with a pending Box–Muller spare.
    fn sign_stream_matches_adc_noise_signs(
        seed in tk::any::<u64>(),
        power in tk::one_of(vec![0.0, 2e-8, 2e-6, 2e-4, 0.02, 2.0, 8.0]),
        len in tk::one_of(vec![0usize, 1, 63, 64, 65, 130, 700]),
        spare in tk::any::<bool>(),
    ) cases = 256 {
        let mut rng = Rng::seed_from(seed);
        if spare {
            rng.gaussian();
        }
        let r = check_sign_stream(NoiseSource::new(power, rng), len);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// The ADC-domain generator is the quantized `f64` path bit for bit:
    /// wave plus noise and noise alone, at noise powers 0, the false-alarm
    /// floor (2e-4), detection-sweep levels and σ above the error bound's
    /// guard, wave amplitudes past clip, lengths 0, 1 and across chunk
    /// boundaries, and from an `Rng` with a pending Box–Muller spare.
    fn adc_generator_matches_quantized_f64_path(
        seed in tk::any::<u64>(),
        power in tk::one_of(vec![0.0, 2e-4, 0.02, 0.159, 2.0, 8.0]),
        amp in 0.0f64..1.3,
        len in tk::one_of(vec![0usize, 1, 63, 64, 65, 130, 700]),
        noise_only in tk::one_of(vec![0usize, 1, 64, 129, 1000]),
        spare in tk::any::<bool>(),
    ) cases = 64 {
        let mut rng = Rng::seed_from(seed);
        if spare {
            rng.gaussian();
        }
        let wave: Vec<Cf64> = (0..len)
            .map(|t| Cf64::from_angle(0.37 * t as f64).scale(amp))
            .collect();
        let r = check_adc_generator(NoiseSource::new(power, rng), &wave, noise_only);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Components aimed at rounding boundaries — the wave cancels the
    /// exact noise and adds a half-integer in LSBs — fall inside the fast
    /// path's margin, take the exact fallback and still match.
    fn adc_generator_matches_on_rounding_boundaries(
        seed in tk::any::<u64>(),
        power in tk::one_of(vec![2e-4, 0.02, 0.5, 2.0]),
        len in 1usize..300,
    ) cases = 32 {
        let src = NoiseSource::new(power, Rng::seed_from(seed));
        let mut probe = src.clone();
        let wave: Vec<Cf64> = (0..len)
            .map(|k| {
                let n = probe.next_sample();
                let target = (k as f64 - 149.5) / FULL_SCALE;
                Cf64::new(target - n.re, target - n.im)
            })
            .collect();
        let r = check_adc_generator(src, &wave, 0);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    /// Noise blocks have the requested length and converge on the
    /// configured power (law of large numbers, loose tolerance).
    fn noise_block_length_and_power(
        n in 512usize..4096,
        seed in tk::any::<u64>(),
    ) {
        let power = 0.05;
        let block = NoiseSource::new(power, Rng::seed_from(seed)).block(n);
        prop_assert_eq!(block.len(), n);
        let got = mean_power(&block);
        prop_assert!(
            (got / power - 1.0).abs() < 0.25,
            "n {n}: measured {got} vs configured {power}"
        );
    }

    /// Any frame/jam timeline built with a per-pair reaction delay inside
    /// the window passes the Fig. 12 one-to-one correspondence check, and
    /// the recovered delays match what was constructed.
    fn correspondence_accepts_valid_timelines(
        delays in tk::vec(1usize..99, 1..12),
    ) {
        let mut t = ScopeTrace::new(25e6);
        t.capture(&vec![Cf64::new(0.5, 0.0); 16]);
        for (k, &d) in delays.iter().enumerate() {
            t.mark(k * 1_000, "frame");
            t.mark(k * 1_000 + d, "jam");
        }
        let pairs = t.correspondence("frame", "jam", 100).expect("valid timeline");
        prop_assert_eq!(pairs.len(), delays.len());
        for ((f, j), &d) in pairs.iter().zip(&delays) {
            prop_assert_eq!(j - f, d);
        }
    }
}
