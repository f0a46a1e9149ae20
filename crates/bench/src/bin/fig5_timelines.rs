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
use rjam_core::timeline::{fig5_rows, jam_episode, render_rows, MeasuredTimeline, EPISODE_PRESETS};

const USAGE: &str = "fig5_timelines [--trials N]";

fn main() {
    let trials: usize = parse_args(USAGE, |a| a.get_or("--trials", 25));
    figure_header(
        "Fig. 5",
        "Reactive jamming timelines",
        "T_en_det < 1.28 us, T_xcorr_det = 2.56 us, T_init ~ 80 ns, \
         T_resp <= 1.36 us (energy) / 2.64 us (xcorr)",
    );

    let [energy_det, xcorr_det] = &EPISODE_PRESETS;
    let mut energy = MeasuredTimeline::default();
    let mut xcorr = MeasuredTimeline::default();
    for k in 0..trials as u64 {
        energy = energy.worst(jam_episode(energy_det, 100 + k).measured);
        xcorr = xcorr.worst(jam_episode(xcorr_det, 200 + k).measured);
    }
    print!(
        "{}",
        render_rows(&fig5_rows(&energy, &xcorr), "worst measured (ns)")
    );
    println!(
        "\n({trials} frame episodes per detection path; RF response within 80 ns of trigger.)"
    );
}
