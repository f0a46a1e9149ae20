//! Offline correlator-template generation (paper §2.3).
//!
//! "These coefficients are generated offline on the host based on knowledge
//! of the wireless standards' preambles." The host takes a reference
//! waveform at its native rate, resamples it to the receiver's fixed
//! 25 MSPS, windows 64 samples and quantizes each rail to the hardware's
//! 3-bit signed range. The rate conversion is what creates the paper's
//! central operating condition: a 3.2 us long-training symbol becomes 80
//! samples at 25 MSPS, of which the 64-tap window covers only the first
//! 2.56 us.

use rjam_fpga::XCORR_LEN;
use rjam_sdr::complex::Cf64;
use rjam_sdr::resample::to_usrp_rate;

/// A pair of 64-tap 3-bit coefficient rails ready for the register bus.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Template {
    /// I-rail coefficients, each in `-4..=3`.
    pub coeff_i: [i8; 64],
    /// Q-rail coefficients.
    pub coeff_q: [i8; 64],
}

impl Template {
    /// A detection threshold for this template as a fraction (clamped to
    /// `0..=1`) of its normalisation constant
    /// [`rjam_fpga::xcorr::max_metric`], the metric of a noise-free,
    /// perfectly aligned matched input.
    pub fn threshold_at_fraction(&self, fraction: f64) -> u64 {
        let norm = rjam_fpga::xcorr::max_metric(self.coeff_i, self.coeff_q);
        (norm as f64 * fraction.clamp(0.0, 1.0)) as u64
    }
}

/// Quantizes a 25 MSPS waveform window into a [`Template`].
///
/// The window is the **first** 64 samples; if the waveform is shorter it is
/// cyclically extended (the short-preamble case, where the 16-sample STS
/// repeats continuously on the air).
///
/// # Panics
/// Panics on an empty waveform.
pub fn quantize_template(wave_25msps: &[Cf64]) -> Template {
    assert!(
        !wave_25msps.is_empty(),
        "cannot build a template from nothing"
    );
    let window: Vec<Cf64> = (0..XCORR_LEN)
        .map(|k| wave_25msps[k % wave_25msps.len()])
        .collect();
    // Scale so the largest component magnitude maps to the 3-bit extreme.
    let peak = window
        .iter()
        .flat_map(|s| [s.re.abs(), s.im.abs()])
        .fold(0.0f64, f64::max)
        .max(1e-30);
    let q = |x: f64| -> i8 {
        let v = (x / peak * 3.5).round() as i32;
        v.clamp(-4, 3) as i8
    };
    let mut coeff_i = [0i8; 64];
    let mut coeff_q = [0i8; 64];
    for (k, s) in window.iter().enumerate() {
        coeff_i[k] = q(s.re);
        coeff_q[k] = q(s.im);
    }
    Template { coeff_i, coeff_q }
}

/// Builds a template from a waveform at its native sample rate: resample to
/// 25 MSPS, then window and quantize.
pub fn template_from_native(wave: &[Cf64], native_rate: f64) -> Template {
    let at_usrp = to_usrp_rate(wave, native_rate);
    quantize_template(&at_usrp)
}

/// Template for the 802.11 short training sequence: the 16-sample STS at
/// 20 MSPS becomes 20 samples at 25 MSPS, cyclically extended across the
/// 64-tap window (3.2 repetitions — valid because the STS repeats on air).
pub fn wifi_short_template() -> Template {
    let sts = rjam_phy80211::preamble::short_symbol();
    template_from_native(&sts, rjam_sdr::WIFI_SAMPLE_RATE)
}

/// Template for the 802.11 long training symbol: the 64-sample LTS at
/// 20 MSPS becomes 80 samples at 25 MSPS; the 64-tap window covers only the
/// first 2.56 us of the 3.2 us code — the paper's documented sub-optimal
/// operating condition.
pub fn wifi_long_template() -> Template {
    let lts = rjam_phy80211::preamble::long_symbol();
    template_from_native(&lts, rjam_sdr::WIFI_SAMPLE_RATE)
}

/// Quantizes an arbitrary-length window for the [`rjam_fpga::WideCorrelator`]
/// extension: resamples to 25 MSPS, cyclically extends if needed, windows
/// `len` samples and 3-bit-quantizes both rails (the same construction as
/// the 64-tap templates, without the hardware's length limit).
pub fn wide_template_from_native(
    wave: &[Cf64],
    native_rate: f64,
    len: usize,
) -> (Vec<rjam_fpga::Coeff3>, Vec<rjam_fpga::Coeff3>) {
    assert!(len > 0, "window length must be positive");
    let at_usrp = to_usrp_rate(wave, native_rate);
    assert!(!at_usrp.is_empty(), "cannot build a template from nothing");
    let window: Vec<Cf64> = (0..len).map(|k| at_usrp[k % at_usrp.len()]).collect();
    let peak = window
        .iter()
        .flat_map(|s| [s.re.abs(), s.im.abs()])
        .fold(1e-30f64, f64::max);
    let q = |x: f64| rjam_fpga::Coeff3::saturating((x / peak * 3.5).round() as i32);
    (
        window.iter().map(|s| q(s.re)).collect(),
        window.iter().map(|s| q(s.im)).collect(),
    )
}

/// Template for a WiMAX downlink preamble: the first 64 of the ~2245
/// samples the 11.4 MHz symbol occupies at 25 MSPS ("the 25 us orthogonal
/// code ... is being correlated across its first 2.56 us").
pub fn wimax_template(id_cell: u8, segment: u8) -> Template {
    let sym = rjam_phy80216::preamble_symbol(id_cell, segment);
    // Skip the cyclic prefix so the window starts on the code proper.
    let body = &sym[rjam_phy80216::CP_LEN..];
    template_from_native(body, rjam_sdr::WIMAX_SAMPLE_RATE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_fpga::xcorr::Coeff3;
    use rjam_fpga::CrossCorrelator;
    use rjam_sdr::complex::IqI16;

    fn load(xc: &mut CrossCorrelator, t: &Template) {
        let ci: Vec<Coeff3> = t.coeff_i.iter().map(|&c| Coeff3::new(c)).collect();
        let cq: Vec<Coeff3> = t.coeff_q.iter().map(|&c| Coeff3::new(c)).collect();
        xc.load_coeffs(&ci, &cq);
    }

    /// Feeds a 25 MSPS waveform through a correlator, returning the peak
    /// metric.
    fn peak_metric(t: &Template, wave: &[Cf64]) -> u64 {
        let mut xc = CrossCorrelator::new();
        load(&mut xc, t);
        let mut peak = 0;
        for &s in wave {
            let out = xc.push(IqI16::from_cf64(s.scale(0.5)));
            peak = peak.max(out.metric);
        }
        peak
    }

    #[test]
    fn coefficients_in_hardware_range() {
        for t in [
            wifi_short_template(),
            wifi_long_template(),
            wimax_template(1, 0),
        ] {
            assert!(t.coeff_i.iter().all(|&c| (-4..=3).contains(&c)));
            assert!(t.coeff_q.iter().all(|&c| (-4..=3).contains(&c)));
            // Non-degenerate: some large-magnitude taps on each rail.
            assert!(t.coeff_i.iter().any(|&c| c.abs() >= 2));
        }
    }

    #[test]
    fn long_template_peaks_on_matching_preamble() {
        let t = wifi_long_template();
        let lts = rjam_phy80211::preamble::long_symbol();
        let wave = rjam_sdr::resample::to_usrp_rate(&lts, 20.0e6);
        let peak = peak_metric(&t, &wave);
        let ideal = t.threshold_at_fraction(1.0);
        assert!(
            peak as f64 > 0.25 * ideal as f64,
            "peak {peak} vs ideal {ideal}"
        );
    }

    #[test]
    fn short_template_peaks_on_repeated_sts() {
        let t = wifi_short_template();
        let sp = rjam_phy80211::preamble::short_preamble();
        let wave = rjam_sdr::resample::to_usrp_rate(&sp, 20.0e6);
        let peak = peak_metric(&t, &wave);
        let ideal = t.threshold_at_fraction(1.0);
        assert!(
            peak as f64 > 0.3 * ideal as f64,
            "peak {peak} vs ideal {ideal}"
        );
    }

    #[test]
    fn template_rejects_other_standard() {
        // The WiFi long template must not fire strongly on WiMAX downlink.
        let t = wifi_long_template();
        let mut gen =
            rjam_phy80216::DownlinkGenerator::new(rjam_phy80216::DownlinkConfig::default());
        let frame = gen.next_frame();
        let wave = rjam_sdr::resample::to_usrp_rate(&frame[..20_000], 11.4e6);
        let cross_peak = peak_metric(&t, &wave);
        let lts = rjam_phy80211::preamble::long_symbol();
        let own_peak = peak_metric(&t, &rjam_sdr::resample::to_usrp_rate(&lts, 20.0e6));
        assert!(
            (cross_peak as f64) < 0.8 * own_peak as f64,
            "cross {cross_peak} vs own {own_peak}"
        );
    }

    #[test]
    fn wimax_template_matches_own_preamble() {
        let t = wimax_template(1, 0);
        let sym = rjam_phy80216::preamble_symbol(1, 0);
        let wave = rjam_sdr::resample::to_usrp_rate(&sym[rjam_phy80216::CP_LEN..], 11.4e6);
        let peak = peak_metric(&t, &wave);
        let other = wimax_template(5, 0);
        let peak_other = peak_metric(&other, &wave);
        assert!(peak > peak_other, "own {peak} vs other-cell {peak_other}");
    }

    #[test]
    fn threshold_fraction_scales() {
        let t = wifi_long_template();
        let full = t.threshold_at_fraction(1.0);
        let half = t.threshold_at_fraction(0.5);
        assert!(half * 2 <= full + 1);
        assert_eq!(t.threshold_at_fraction(2.0), full, "clamped above 1");
    }

    #[test]
    fn quantizer_uses_full_range() {
        let t = wifi_long_template();
        let max_i = t.coeff_i.iter().map(|&c| c.abs()).max().unwrap();
        assert!(max_i >= 3, "peak tap should reach the 3-bit extreme");
    }

    #[test]
    #[should_panic(expected = "nothing")]
    fn empty_waveform_rejected() {
        let _ = quantize_template(&[]);
    }

    #[test]
    fn wide_template_matches_64_tap_construction() {
        // At length 64 the wide builder must agree with the fixed builder.
        let lts = rjam_phy80211::preamble::long_symbol();
        let fixed = wifi_long_template();
        let (wi, wq) = wide_template_from_native(&lts, rjam_sdr::WIFI_SAMPLE_RATE, 64);
        for k in 0..64 {
            assert_eq!(wi[k].get(), fixed.coeff_i[k]);
            assert_eq!(wq[k].get(), fixed.coeff_q[k]);
        }
    }

    #[test]
    fn wide_template_drives_wide_correlator() {
        use rjam_fpga::WideCorrelator;
        let lts = rjam_phy80211::preamble::long_symbol();
        let (ci, cq) = wide_template_from_native(&lts, rjam_sdr::WIFI_SAMPLE_RATE, 80);
        let mut xc = WideCorrelator::new(&ci, &cq);
        let wave = rjam_sdr::resample::to_usrp_rate(&lts, rjam_sdr::WIFI_SAMPLE_RATE);
        let mut peak = 0u64;
        for &s in &wave {
            peak = peak.max(
                xc.push(rjam_sdr::complex::IqI16::from_cf64(s.scale(0.5)))
                    .metric,
            );
        }
        assert!(
            peak as f64 > 0.5 * xc.max_metric() as f64,
            "peak {peak} of ideal {}",
            xc.max_metric()
        );
    }
}
