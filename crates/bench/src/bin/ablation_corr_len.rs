//! Ablation of the paper's §6 limitation: the fixed 64-sample correlation
//! window. "Increasing the correlation size above 64 samples will
//! undoubtedly improve the single-preamble detection performance, but will
//! also give rise to higher resource utilization."
//!
//! Using the [`WideCorrelator`] extension, this binary sweeps the window
//! length against the hardest case in the paper — a single 3.2 us WiFi long
//! training symbol (80 samples at 25 MSPS) — and prints detection
//! probability alongside the estimated FPGA footprint at each length.
//!
//! ```sh
//! cargo run --release -p rjam-bench --bin ablation_corr_len [-- --frames 300]
//! ```

use rjam_bench::{figure_header, parse_args};
use rjam_core::coeff::wide_template_from_native;
use rjam_fpga::xcorr::Coeff3;
use rjam_fpga::WideCorrelator;
use rjam_sdr::complex::IqI16;
use rjam_sdr::power::{db_to_lin, scale_to_power};
use rjam_sdr::resample::{fractional_delay, to_usrp_rate};
use rjam_sdr::rng::Rng;

const USAGE: &str = "ablation_corr_len [--frames N]";

/// FA-fair threshold: 1.25x the peak metric observed on a long noise-only
/// run, per window length (longer windows have lower normalized noise
/// floors, which is exactly their processing-gain advantage).
fn calibrated_threshold(ci: &[Coeff3], cq: &[Coeff3], seed: u64) -> u64 {
    let mut xc = WideCorrelator::new(ci, cq);
    let mut noise = rjam_channel::NoiseSource::new(0.02 / db_to_lin(20.0), Rng::seed_from(seed));
    let mut peak = 0u64;
    for _ in 0..1_500_000 {
        peak = peak.max(xc.push(IqI16::from_cf64(noise.next_sample())).metric);
    }
    (peak as f64 * 1.25) as u64
}

fn detection_prob(len: usize, snr_db: f64, frames: usize, thr: u64, seed: u64) -> f64 {
    // Templates longer than one LTS copy span its cyclic repetition (as in
    // the real long preamble, where two copies follow the GI).
    let (ci, cq) = wide_template_from_native(
        &rjam_phy80211::preamble::long_symbol(),
        rjam_sdr::WIFI_SAMPLE_RATE,
        len,
    );
    let mut rng = Rng::seed_from(seed);
    let mut hits = 0usize;
    for _ in 0..frames {
        let mut xc = WideCorrelator::new(&ci, &cq);
        xc.set_threshold(thr);
        // Emission: GI2 + two LTS copies (the real long-preamble section).
        let mut native = rjam_phy80211::preamble::long_symbol()[32..].to_vec();
        native.extend(rjam_phy80211::preamble::long_symbol());
        native.extend(rjam_phy80211::preamble::long_symbol());
        let up = to_usrp_rate(&native, rjam_sdr::WIFI_SAMPLE_RATE);
        let mut wave = fractional_delay(&up, rng.uniform() * 0.999);
        scale_to_power(&mut wave, 0.02);
        let noise_p = 0.02 / db_to_lin(snr_db);
        let mut noise = rjam_channel::NoiseSource::new(noise_p, rng.fork());
        let mut detected = false;
        for _ in 0..len + 64 {
            xc.push(IqI16::from_cf64(noise.next_sample()));
        }
        for &s in &wave {
            if xc.push(IqI16::from_cf64(s + noise.next_sample())).trigger {
                detected = true;
            }
        }
        if detected {
            hits += 1;
        }
    }
    hits as f64 / frames as f64
}

fn main() {
    let frames: usize = parse_args(USAGE, |a| a.get_or("--frames", 150));
    figure_header(
        "Ablation",
        "Correlation window length vs long-preamble detection (paper §6)",
        "64 samples covers 2.56 us of the 3.2 us LTS; longer windows \
         recover detection at higher FPGA cost",
    );

    println!(
        "{:>8} {:>12} {:>12} {:>12}   estimated footprint",
        "taps", "P(det) -6dB", "P(det) -3dB", "P(det) 0dB"
    );
    // 160 taps = the whole GI2+LTS+LTS section; beyond that the template
    // outlives the preamble and can never align (the physical ceiling).
    for len in [32usize, 64, 80, 128, 160] {
        let (tci, tcq) = wide_template_from_native(
            &rjam_phy80211::preamble::long_symbol(),
            rjam_sdr::WIFI_SAMPLE_RATE,
            len,
        );
        let thr = calibrated_threshold(&tci, &tcq, 0xFACA);
        let p0 = detection_prob(len, -6.0, frames, thr, 0xAB1);
        let p5 = detection_prob(len, -3.0, frames, thr, 0xAB2);
        let p10 = detection_prob(len, 0.0, frames, thr, 0xAB3);
        let probe = WideCorrelator::new(&vec![Coeff3::new(1); len], &vec![Coeff3::new(1); len]);
        let res = probe.estimated_resources();
        let fits = if res.fits_in(rjam_fpga::resources::custom_logic_budget()) {
            "fits"
        } else {
            "EXCEEDS FABRIC"
        };
        println!("{len:>8} {p0:>12.2} {p5:>12.2} {p10:>12.2}   {res} [{fits}]");
    }
    println!(
        "\n({frames} long-preamble emissions per point; thresholds FA-calibrated per\n\
         length on noise-only input; random per-frame sampling phase; footprints\n\
         scale the paper's Fig. 3 synthesis. 32 taps has no noise margin at all —\n\
         its calibrated threshold sits above its own matched peak.)"
    );
}
