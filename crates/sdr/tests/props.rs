//! Property tests for the SDR DSP primitives, driven by `rjam-testkit`.

use rjam_sdr::complex::{round_lsb, Cf64, IqI16};
use rjam_sdr::power::{db_to_lin, lin_to_db, mean_power, scale_to_power};
use rjam_testkit::{self as tk, prop_assert, prop_assert_eq, props, Gen};

/// Arbitrary complex buffer with components in [-1, 1).
fn any_wave(len: std::ops::Range<usize>) -> impl Gen<Value = Vec<(f64, f64)>> {
    tk::vec((-1.0f64..1.0, -1.0f64..1.0), len)
}

fn to_cf64(pairs: &[(f64, f64)]) -> Vec<Cf64> {
    pairs.iter().map(|&(re, im)| Cf64::new(re, im)).collect()
}

/// The quantizer `IqI16::from_cf64` used before `round_lsb`.
fn round_clamp(x: f64) -> i16 {
    x.round().clamp(i16::MIN as f64, i16::MAX as f64) as i16
}

props! {
    cases = 16;

    /// `round_lsb` is `round().clamp()` for every `f64`: raw bit patterns
    /// (NaN payloads, ±∞, subnormals, huge values), half-integers and
    /// their neighbours across the whole `i16` range and past it, and the
    /// special values.
    fn round_lsb_matches_round_clamp(
        bits in tk::vec(tk::any::<u64>(), 256..257),
        half in -33_000i32..33_000,
        ulps in -3i64..4,
    ) cases = 256 {
        let tie = half as f64 + 0.5;
        let near = f64::from_bits((tie.abs().to_bits() as i64 + ulps) as u64).copysign(tie);
        let specials = [
            f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0,
            f64::MIN_POSITIVE, -f64::MIN_POSITIVE, f64::MAX, f64::MIN,
            0.5, -0.5, 32767.5, -32768.5, 32768.0, -32769.0, 4e9, -4e9,
            tie, near, half as f64, 0.49999999999999994,
        ];
        for x in bits.iter().map(|&b| f64::from_bits(b)).chain(specials) {
            prop_assert_eq!(round_lsb(x).0, round_clamp(x), "x = {x:e} ({:#x})", x.to_bits());
        }
    }

    /// dB <-> linear conversions are inverse over the whole dynamic range
    /// experiments use.
    fn db_lin_roundtrip(db in -80.0f64..80.0) {
        let back = lin_to_db(db_to_lin(db));
        prop_assert!((back - db).abs() < 1e-9, "{db} -> {back}");
    }

    /// `scale_to_power` hits its target mean power for any non-degenerate
    /// waveform and any target over eight orders of magnitude.
    fn scale_to_power_hits_target(
        pairs in any_wave(4..200),
        target_db in -40.0f64..40.0,
    ) {
        let mut wave = to_cf64(&pairs);
        // Guarantee nonzero energy (all-zero input has nothing to scale).
        wave[0] = Cf64::new(0.5, -0.25);
        let target = db_to_lin(target_db);
        scale_to_power(&mut wave, target);
        let got = mean_power(&wave);
        prop_assert!(
            (got / target - 1.0).abs() < 1e-9,
            "target {target}, got {got}"
        );
    }

    /// Fixed-point quantization error stays under one LSB per rail for any
    /// in-range sample.
    fn quantize_error_bounded(re in -1.0f64..1.0, im in -1.0f64..1.0) {
        let s = Cf64::new(re, im);
        let rt = IqI16::from_cf64(s).to_cf64();
        let lsb = 1.0 / i16::MAX as f64;
        prop_assert!((rt.re - re).abs() <= lsb && (rt.im - im).abs() <= lsb);
    }

    /// Energy computed in fixed point matches the float power to quantizer
    /// precision — the FPGA's energy front end agrees with the host math.
    fn fixed_point_energy_tracks_float(re in -1.0f64..1.0, im in -1.0f64..1.0) {
        let s = Cf64::new(re, im);
        let q = IqI16::from_cf64(s);
        let scaled = q.energy() as f64 / (i16::MAX as f64 * i16::MAX as f64);
        prop_assert!((scaled - s.norm_sq()).abs() < 4.0 / i16::MAX as f64);
    }
}
