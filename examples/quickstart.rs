//! Quickstart: detect and jam a single in-flight 802.11g frame.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! Builds a reactive jammer armed with the WiFi short-preamble template,
//! transmits one frame through an AWGN channel at 25 MSPS, and prints the
//! detection events, the jam burst and the measured response timeline in
//! the paper's Fig. 5 table, each latency against its budget.

use rjam::core::campaign::WifiEmission;
use rjam::core::timeline::{fig5_rows, measure, render_rows, MeasuredTimeline};
use rjam::core::{DetectionPreset, JammerPreset, ReactiveJammer};
use rjam::fpga::JamWaveform;
use rjam::sdr::complex::Cf64;
use rjam::sdr::rng::Rng;

fn main() {
    // 1. Configure the jammer: short-preamble detection, 10 us WGN bursts.
    let mut jammer = ReactiveJammer::new(
        DetectionPreset::WifiShortPreamble { threshold: 0.35 },
        JammerPreset::Reactive {
            uptime_s: 10e-6,
            waveform: JamWaveform::Wgn,
        },
    );
    println!(
        "jammer configured ({} register writes)",
        jammer.reconfig_writes()
    );

    // 2. Put one 802.11g frame on the air (20 MSPS native -> 25 MSPS RX).
    let mut rng = Rng::seed_from(42);
    let mut psdu = vec![0u8; 256];
    rng.fill_bytes(&mut psdu);
    let frame = rjam::phy80211::tx::Frame::new(rjam::phy80211::Rate::R24, psdu);
    let native = rjam::phy80211::tx::modulate_frame(&frame);
    let mut wave = rjam::sdr::resample::to_usrp_rate(&native, rjam::sdr::WIFI_SAMPLE_RATE);
    rjam::sdr::power::scale_to_power(&mut wave, 0.02);

    // Surround it with channel noise (25 dB SNR).
    let noise_p = 0.02 / rjam::sdr::power::db_to_lin(25.0);
    let mut noise = rjam::channel::NoiseSource::new(noise_p, rng.fork());
    let lead = 500usize;
    let mut stream: Vec<Cf64> = noise.block(lead);
    stream.extend(wave.iter().map(|&s| s + noise.next_sample()));
    stream.extend(noise.block(500));

    // 3. Stream through the detector/jammer.
    let (_tx, activity) = jammer.process_block(&stream);
    let _ = WifiEmission::FullFrames { psdu_len: 256 }; // see campaign APIs for sweeps

    println!("\ncore events:");
    for e in jammer.events().iter().take(6) {
        println!("  {e:?}");
    }
    let burst: usize = activity.iter().filter(|&&a| a).count();
    println!("\njam burst: {burst} samples ({} us)", burst as f64 / 25.0);

    // 4. Timeline vs the paper's budget: the correlator path's rows are
    // measured, the energy path (not armed here) reads "not measured".
    let measured = measure(jammer.events(), jammer.jam_events(), lead as u64);
    let rows = fig5_rows(&MeasuredTimeline::default(), &measured);
    print!("\n{}", render_rows(&rows, "measured (ns)"));
}
