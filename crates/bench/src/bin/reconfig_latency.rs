//! §4.3 "Platform Reconfigurability" — all three jammer personalities on a
//! single hardware instantiation, switched at run time over the user
//! register bus.
//!
//! The paper quantifies the switch cost as "a small latency equivalent to
//! the latency of the UHD user setting bus (hundreds of ns)". We count the
//! register writes each personality change needs and convert at a
//! per-write bus cost, then demonstrate mid-stream switching.
//!
//! ```sh
//! cargo run --release -p rjam-bench --bin reconfig_latency
//! ```

use rjam_bench::{figure_header, parse_args};
use rjam_core::{DetectionPreset, JammerPreset, ReactiveJammer};
use rjam_fpga::JamWaveform;
use rjam_sdr::complex::Cf64;
use rjam_sdr::rng::Rng;

const USAGE: &str = "reconfig_latency";

/// UHD user-register bus cost per 32-bit write (host -> FPGA), nanoseconds.
/// Dominated by the settings-bus transaction on the N210 (no round trip).
const NS_PER_WRITE: f64 = 120.0;

fn main() {
    parse_args(USAGE, |_| Ok(()));
    figure_header(
        "§4.3",
        "Run-time jammer personality switching",
        "all three jammers realized on one FPGA image; switch latency = \
         settings-bus latency (hundreds of ns)",
    );

    let mut j = ReactiveJammer::new(
        DetectionPreset::WifiShortPreamble { threshold: 0.35 },
        JammerPreset::Continuous,
    );

    let switches = [
        (
            "continuous -> reactive 0.1 ms",
            JammerPreset::Reactive {
                uptime_s: 1e-4,
                waveform: JamWaveform::Wgn,
            },
        ),
        (
            "reactive 0.1 ms -> reactive 0.01 ms",
            JammerPreset::Reactive {
                uptime_s: 1e-5,
                waveform: JamWaveform::Wgn,
            },
        ),
        (
            "reactive 0.01 ms -> surgical (25 us delay)",
            JammerPreset::Surgical {
                uptime_s: 1e-5,
                delay_s: 25e-6,
                waveform: JamWaveform::Replay,
            },
        ),
        ("surgical -> continuous", JammerPreset::Continuous),
    ];

    println!(
        "{:<44} {:>8} {:>14}",
        "personality switch", "writes", "latency (ns)"
    );
    for (label, preset) in switches {
        let writes = j.set_reaction(preset);
        println!(
            "{label:<44} {writes:>8} {:>14.0}",
            writes as f64 * NS_PER_WRITE
        );
    }

    // Demonstrate that switching works mid-stream without reprogramming.
    let mut rng = Rng::seed_from(43);
    let mut noise = rjam_channel::NoiseSource::new(1e-5, rng.fork());
    j.set_reaction(JammerPreset::Continuous);
    let (_t, a1) = j.process_block(&noise.block(1000));
    j.set_reaction(JammerPreset::Monitor);
    let (_t, a2) = j.process_block(&noise.block(1000));
    let _ = Cf64::ZERO;
    println!(
        "\nmid-stream check: continuous transmitted {}/1000 samples, monitor {}/1000.",
        a1.iter().filter(|&&a| a).count(),
        a2.iter().filter(|&&a| a).count()
    );
    println!("The FPGA image is never rebuilt; only user registers change.");
}
