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
use rjam_core::timeline::{jam_episode, MeasuredTimeline, TimelineBudget, EPISODE_PRESETS};

const USAGE: &str = "fig5_timelines [--trials N]";

/// PSDU bytes of each episode's frame.
const PSDU_LEN: usize = 100;

fn main() {
    let trials: usize = parse_args(USAGE, |a| a.get_or("--trials", 25));
    figure_header(
        "Fig. 5",
        "Reactive jamming timelines",
        "T_en_det < 1.28 us, T_xcorr_det = 2.56 us, T_init ~ 80 ns, \
         T_resp <= 1.36 us (energy) / 2.64 us (xcorr)",
    );

    let budget = TimelineBudget::paper();
    let [energy_det, xcorr_det] = &EPISODE_PRESETS;
    let mut energy = MeasuredTimeline::default();
    let mut xcorr = MeasuredTimeline::default();
    for k in 0..trials as u64 {
        energy = energy.worst(jam_episode(energy_det, PSDU_LEN, 100 + k).1);
        xcorr = xcorr.worst(jam_episode(xcorr_det, PSDU_LEN, 200 + k).1);
    }

    println!(
        "{:<22} {:>14} {:>22}",
        "metric", "budget (ns)", "worst measured (ns)"
    );
    let rows = [
        ("T_en_det", budget.t_en_det_ns, energy.t_en_det_ns),
        ("T_xcorr_det", budget.t_xcorr_det_ns, xcorr.t_xcorr_det_ns),
        ("T_init", budget.t_init_ns, energy.worst(xcorr).t_init_ns),
        (
            "T_resp (energy path)",
            budget.t_resp_energy_ns,
            energy.t_resp_ns,
        ),
        (
            "T_resp (xcorr path)",
            budget.t_resp_xcorr_ns,
            xcorr.t_resp_ns,
        ),
    ];
    for (name, b, m) in rows {
        let m = m.unwrap_or(0.0);
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
