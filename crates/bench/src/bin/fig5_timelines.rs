//! Fig. 5 / §3.1 — reactive jamming timelines.
//!
//! Prints the analytic latency budget (T_en_det, T_xcorr_det, T_init,
//! T_resp) next to latencies measured live from the cycle-accurate core on
//! real 802.11g frames, for both detection paths.
//!
//! ```sh
//! cargo run --release -p rjam-bench --bin fig5_timelines [-- --trials N]
//! ```

use rjam_bench::{figure_header, parse_args};
use rjam_core::timeline::{episode_stream, measure, TimelineBudget, EPISODE_LEAD_SAMPLES};
use rjam_core::{DetectionPreset, JammerPreset, ReactiveJammer};
use rjam_fpga::JamWaveform;

const USAGE: &str = "fig5_timelines [--trials N]";

fn run_episode(det: DetectionPreset, seed: u64) -> rjam_core::timeline::MeasuredTimeline {
    let mut jammer = ReactiveJammer::new(
        det,
        JammerPreset::Reactive {
            uptime_s: 10e-6,
            waveform: JamWaveform::Wgn,
        },
    );
    jammer.process_block(&episode_stream(100, 200, seed).0);
    measure(
        jammer.events(),
        jammer.jam_events(),
        EPISODE_LEAD_SAMPLES as u64,
    )
}

fn main() {
    let trials: usize = parse_args(USAGE, |a| a.get_or("--trials", 25));
    figure_header(
        "Fig. 5",
        "Reactive jamming timelines",
        "T_en_det < 1.28 us, T_xcorr_det = 2.56 us, T_init ~ 80 ns, \
         T_resp <= 1.36 us (energy) / 2.64 us (xcorr)",
    );

    let budget = TimelineBudget::paper();
    let mut worst_en = 0.0f64;
    let mut worst_x = 0.0f64;
    let mut worst_init = 0.0f64;
    let mut worst_resp_energy = 0.0f64;
    let mut worst_resp_xcorr = 0.0f64;
    for k in 0..trials {
        let m = run_episode(
            DetectionPreset::EnergyRise { threshold_db: 10.0 },
            100 + k as u64,
        );
        if let Some(v) = m.t_en_det_ns {
            worst_en = worst_en.max(v);
        }
        if let (Some(i), Some(r)) = (m.t_init_ns, m.t_resp_ns) {
            worst_init = worst_init.max(i);
            worst_resp_energy = worst_resp_energy.max(r);
        }
        let m = run_episode(
            DetectionPreset::WifiShortPreamble { threshold: 0.35 },
            200 + k as u64,
        );
        if let Some(v) = m.t_xcorr_det_ns {
            worst_x = worst_x.max(v);
        }
        if let (Some(i), Some(r)) = (m.t_init_ns, m.t_resp_ns) {
            worst_init = worst_init.max(i);
            worst_resp_xcorr = worst_resp_xcorr.max(r);
        }
    }

    println!(
        "{:<22} {:>14} {:>22}",
        "metric", "budget (ns)", "worst measured (ns)"
    );
    let rows = [
        ("T_en_det", budget.t_en_det_ns, worst_en),
        ("T_xcorr_det", budget.t_xcorr_det_ns, worst_x),
        ("T_init", budget.t_init_ns, worst_init),
        (
            "T_resp (energy path)",
            budget.t_resp_energy_ns,
            worst_resp_energy,
        ),
        (
            "T_resp (xcorr path)",
            budget.t_resp_xcorr_ns,
            worst_resp_xcorr,
        ),
    ];
    for (name, b, m) in rows {
        let ok = if m <= b {
            "within budget"
        } else {
            "OVER BUDGET"
        };
        println!("{name:<22} {b:>14.0} {m:>22.0}   {ok}");
    }
    println!(
        "\n({trials} frame episodes per detection path; RF response within 80 ns of trigger.)"
    );
}
