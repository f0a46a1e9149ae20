//! Integration across the DSP substrate: file I/O feeding spectral
//! analysis.

use rjam_sdr::complex::Cf64;
use rjam_sdr::io::{read_cf32, write_cf32};
use rjam_sdr::rng::Rng;
use rjam_sdr::spectrum::welch_psd;

/// Capture to disk, read back, and confirm the spectrum is unchanged.
#[test]
fn file_roundtrip_preserves_spectrum() {
    let mut rng = Rng::seed_from(42);
    // cf32 stores single precision; generate f32-representable samples so
    // the round trip is exact.
    let wave: Vec<Cf64> = (0..8192)
        .map(|_| {
            Cf64::new(
                (rng.gaussian() * 0.1) as f32 as f64,
                (rng.gaussian() * 0.1) as f32 as f64,
            )
        })
        .collect();
    let mut path = std::env::temp_dir();
    path.push(format!("rjam_dsp_chain_{}.cf32", std::process::id()));
    write_cf32(&path, &wave).unwrap();
    let back = read_cf32(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let a = welch_psd(&wave, 128);
    let b = welch_psd(&back, 128);
    for (x, y) in a.iter().zip(b.iter()) {
        assert!((x - y).abs() < 1e-9 * x.abs().max(1e-12));
    }
}
