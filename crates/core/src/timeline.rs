//! Jamming timeline analysis (paper Fig. 5 / §3.1).
//!
//! The paper derives the system response budget analytically from hardware
//! latencies and then demonstrates it live. Both forms live here: the
//! static budget ([`TimelineBudget::paper`]) and the measured extraction of
//! `T_en_det`, `T_xcorr_det`, `T_init` and `T_resp` from a core's event log
//! given the known signal start. [`jam_episode`] runs one episode through a
//! jammer armed with one of [`EPISODE_PRESETS`] and [`EPISODE_REACTION`],
//! and [`fig5_rows`] judges the two paths' measurements, each latency
//! against its own budget.

use crate::jammer::{ReactiveJammer, DEFAULT_LOCKOUT};
use crate::presets::{DetectionPreset, JammerPreset};
use rjam_channel::NoiseSource;
use rjam_fpga::jammer::JamEvent;
use rjam_fpga::{CoreEvent, CLOCKS_PER_SAMPLE, ENERGY_WINDOW, TX_INIT_CYCLES, XCORR_LEN};
use rjam_sdr::complex::Cf64;
use rjam_sdr::rng::Rng;
use std::fmt::Write as _;
use std::ops::Range;

/// Nanoseconds per FPGA clock cycle (100 MHz).
const NS_PER_CYCLE: f64 = 10.0;

/// Noise samples ahead of the frame in an episode (16 µs at 25 MSPS): the
/// stream index where the signal starts.
pub const EPISODE_LEAD_SAMPLES: usize = 400;

/// PSDU bytes of an episode's frame.
pub const EPISODE_PSDU_LEN: usize = 100;

/// Noise samples after the frame in an episode.
const EPISODE_TAIL_SAMPLES: usize = 200;

/// Received frame power of an episode (linear full-scale units), 20 dB
/// above its noise floor.
const EPISODE_RX_POWER: f64 = 0.02;

/// The two detection paths a Fig. 5 exercise times: the 10 dB energy rise
/// and the 0.35 WiFi short-preamble correlator.
pub const EPISODE_PRESETS: [DetectionPreset; 2] = [
    DetectionPreset::EnergyRise { threshold_db: 10.0 },
    DetectionPreset::WifiShortPreamble { threshold: 0.35 },
];

/// The reaction a Fig. 5 episode arms: a 10 µs reactive WGN burst.
pub const EPISODE_REACTION: JammerPreset = JammerPreset::Reactive {
    uptime_s: 10e-6,
    waveform: rjam_fpga::JamWaveform::Wgn,
};

/// The receive stream of one Fig. 5 episode: an R12 802.11g frame of
/// [`EPISODE_PSDU_LEN`] bytes drawn from `seed`, resampled to 25 MSPS at
/// receive power 0.02 (linear full-scale units) and 20 dB SNR, between
/// [`EPISODE_LEAD_SAMPLES`] and [`EPISODE_TAIL_SAMPLES`] noise samples.
/// Returns the stream and the frame's length in samples.
fn episode_stream(seed: u64) -> (Vec<Cf64>, usize) {
    let mut rng = Rng::seed_from(seed);
    let mut psdu = vec![0u8; EPISODE_PSDU_LEN];
    rng.fill_bytes(&mut psdu);
    let frame = rjam_phy80211::tx::Frame::new(rjam_phy80211::Rate::R12, psdu);
    let native = rjam_phy80211::tx::modulate_frame(&frame);
    let mut wave = rjam_sdr::resample::to_usrp_rate(&native, rjam_sdr::WIFI_SAMPLE_RATE);
    rjam_sdr::power::scale_to_power(&mut wave, EPISODE_RX_POWER);
    let noise_p = EPISODE_RX_POWER / rjam_sdr::power::db_to_lin(20.0);
    let mut noise = NoiseSource::new(noise_p, rng.fork());
    let mut stream = noise.block(EPISODE_LEAD_SAMPLES);
    stream.extend(wave.iter().map(|&s| s + noise.next_sample()));
    stream.extend(noise.block(EPISODE_TAIL_SAMPLES));
    (stream, wave.len())
}

/// One Fig. 5 episode after it ran: what [`jam_episode`] returns.
#[derive(Debug)]
pub struct JamEpisode {
    /// The jammer as the episode left it: event logs and capture FIFO
    /// filled.
    pub jammer: ReactiveJammer,
    /// The episode's measured latencies.
    pub measured: MeasuredTimeline,
    /// The frame's samples within the receive stream.
    pub frame: Range<usize>,
    /// Receive-stream length in samples.
    pub samples: usize,
}

/// Runs one Fig. 5 episode: the frame drawn from `seed`, between its noise
/// lead and tail, through a freshly armed [`ReactiveJammer`] detecting with
/// `det`, reacting with [`EPISODE_REACTION`] and capturing 16 samples
/// before and 240 after each trigger into a 1024-sample FIFO.
pub fn jam_episode(det: &DetectionPreset, seed: u64) -> JamEpisode {
    let (stream, frame_len) = episode_stream(seed);
    let mut jammer = ReactiveJammer::from_presets(det, &EPISODE_REACTION, DEFAULT_LOCKOUT);
    jammer.core_mut().enable_capture(16, 240, 1024);
    jammer.process_block(&stream);
    let measured = measure(
        jammer.events(),
        jammer.jam_events(),
        EPISODE_LEAD_SAMPLES as u64,
    );
    JamEpisode {
        jammer,
        measured,
        frame: EPISODE_LEAD_SAMPLES..EPISODE_LEAD_SAMPLES + frame_len,
        samples: stream.len(),
    }
}

/// The analytic timing budget of the platform.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimelineBudget {
    /// Worst-case energy detection time, ns.
    pub t_en_det_ns: f64,
    /// Cross-correlation detection time, ns.
    pub t_xcorr_det_ns: f64,
    /// TX pipeline initialization, ns.
    pub t_init_ns: f64,
    /// Total response via energy detection, ns.
    pub t_resp_energy_ns: f64,
    /// Total response via cross-correlation, ns.
    pub t_resp_xcorr_ns: f64,
}

impl TimelineBudget {
    /// The budget as derived in the paper: T_en_det < 1.28 us (32 samples),
    /// T_xcorr_det = 2.56 us (64 samples), T_init ~ 80 ns (8 cycles),
    /// T_resp <= 1.36 us / 2.64 us.
    pub fn paper() -> Self {
        let sample_ns = CLOCKS_PER_SAMPLE as f64 * NS_PER_CYCLE;
        let t_en = ENERGY_WINDOW as f64 * sample_ns;
        let t_x = XCORR_LEN as f64 * sample_ns;
        let t_i = TX_INIT_CYCLES as f64 * NS_PER_CYCLE;
        TimelineBudget {
            t_en_det_ns: t_en,
            t_xcorr_det_ns: t_x,
            t_init_ns: t_i,
            t_resp_energy_ns: t_en + t_i,
            t_resp_xcorr_ns: t_x + t_i,
        }
    }
}

/// Latencies measured from one detection/jam episode.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MeasuredTimeline {
    /// Signal start to energy-rise trigger, ns (if an energy event fired).
    pub t_en_det_ns: Option<f64>,
    /// Signal start to cross-correlation trigger, ns (if one fired).
    pub t_xcorr_det_ns: Option<f64>,
    /// Jam trigger to RF out, ns.
    pub t_init_ns: Option<f64>,
    /// Signal start to RF out, ns.
    pub t_resp_ns: Option<f64>,
}

impl MeasuredTimeline {
    /// The worse of two timelines, latency by latency: the larger value
    /// where both measured one, otherwise whichever did.
    pub fn worst(self, other: Self) -> Self {
        let max = |a: Option<f64>, b: Option<f64>| match (a, b) {
            (Some(x), Some(y)) => Some(x.max(y)),
            _ => a.or(b),
        };
        MeasuredTimeline {
            t_en_det_ns: max(self.t_en_det_ns, other.t_en_det_ns),
            t_xcorr_det_ns: max(self.t_xcorr_det_ns, other.t_xcorr_det_ns),
            t_init_ns: max(self.t_init_ns, other.t_init_ns),
            t_resp_ns: max(self.t_resp_ns, other.t_resp_ns),
        }
    }
}

/// Extracts the first episode's latencies from core logs.
///
/// `signal_start_sample` is the receive-stream index where the target
/// transmission began (known in a controlled experiment).
pub fn measure(
    events: &[CoreEvent],
    jams: &[JamEvent],
    signal_start_sample: u64,
) -> MeasuredTimeline {
    let start_cycle = signal_start_sample * CLOCKS_PER_SAMPLE;
    let after = |c: u64| (c.saturating_sub(start_cycle)) as f64 * NS_PER_CYCLE;
    let mut out = MeasuredTimeline::default();
    for e in events {
        if e.cycle() < start_cycle {
            continue;
        }
        match e {
            CoreEvent::EnergyHigh { cycle, .. } if out.t_en_det_ns.is_none() => {
                out.t_en_det_ns = Some(after(*cycle));
            }
            CoreEvent::XcorrDetection { cycle, .. } if out.t_xcorr_det_ns.is_none() => {
                out.t_xcorr_det_ns = Some(after(*cycle));
            }
            _ => {}
        }
    }
    if let Some(jam) = jams.iter().find(|j| j.trigger_cycle >= start_cycle) {
        out.t_init_ns = Some(jam.response_cycles() as f64 * NS_PER_CYCLE);
        out.t_resp_ns = Some(after(jam.start_cycle));
    }
    out
}

/// The verdict on a latency against its budget: `within budget`,
/// `OVER BUDGET`, or `not measured` when nothing measured it.
pub fn verdict(measured_ns: Option<f64>, budget_ns: f64) -> &'static str {
    match measured_ns {
        None => "not measured",
        Some(m) if m <= budget_ns => "within budget",
        Some(_) => "OVER BUDGET",
    }
}

/// One row of the Fig. 5 table.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Fig5Row {
    /// The latency as Fig. 5 names it.
    pub name: &'static str,
    /// The registry histogram `rjamctl` records the latency into.
    pub histogram: &'static str,
    /// The paper's budget for it, ns.
    pub budget_ns: f64,
    /// The measured value, ns; `None` when nothing measured it.
    pub measured_ns: Option<f64>,
}

/// The Fig. 5 table from the energy path's and the correlator path's
/// measurements: `T_en_det` from the energy path, `T_xcorr_det` from the
/// correlator path, `T_init` from either, and each path's `T_resp` against
/// that path's own budget.
pub fn fig5_rows(energy: &MeasuredTimeline, xcorr: &MeasuredTimeline) -> [Fig5Row; 5] {
    let b = TimelineBudget::paper();
    let t_init = energy.worst(*xcorr).t_init_ns;
    #[rustfmt::skip]
    let rows = [
        ("T_en_det", "timeline.t_en_det_ns", b.t_en_det_ns, energy.t_en_det_ns),
        ("T_xcorr_det", "timeline.t_xcorr_det_ns", b.t_xcorr_det_ns, xcorr.t_xcorr_det_ns),
        ("T_init", "timeline.t_init_ns", b.t_init_ns, t_init),
        ("T_resp (energy path)", "timeline.t_resp_energy_ns", b.t_resp_energy_ns, energy.t_resp_ns),
        ("T_resp (xcorr path)", "timeline.t_resp_xcorr_ns", b.t_resp_xcorr_ns, xcorr.t_resp_ns),
    ];
    rows.map(|(name, histogram, budget_ns, measured_ns)| Fig5Row {
        name,
        histogram,
        budget_ns,
        measured_ns,
    })
}

/// Renders `rows` as the Fig. 5 table, `measured` heading the column of
/// measured values.
pub fn render_rows(rows: &[Fig5Row], measured: &str) -> String {
    let mut out = format!("{:<22} {:>14} {:>22}\n", "metric", "budget (ns)", measured);
    for r in rows {
        let m = r.measured_ns.map_or("-".to_string(), |m| format!("{m:.0}"));
        let verdict = verdict(r.measured_ns, r.budget_ns);
        let _ = writeln!(
            out,
            "{:<22} {:>14.0} {m:>22}   {verdict}",
            r.name, r.budget_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_budget_values() {
        let b = TimelineBudget::paper();
        assert_eq!(b.t_en_det_ns, 1280.0); // < 1.28 us
        assert_eq!(b.t_xcorr_det_ns, 2560.0); // 2.56 us
        assert_eq!(b.t_init_ns, 80.0); // 80 ns
        assert_eq!(b.t_resp_energy_ns, 1360.0); // <= 1.36 us
        assert_eq!(b.t_resp_xcorr_ns, 2640.0); // <= 2.64 us
    }

    #[test]
    fn measure_from_synthetic_logs() {
        let events = vec![
            CoreEvent::EnergyHigh {
                sample: 110,
                cycle: 441,
            },
            CoreEvent::XcorrDetection {
                sample: 163,
                cycle: 653,
                metric: 99999,
            },
            CoreEvent::JamTrigger {
                sample: 163,
                cycle: 653,
            },
        ];
        let jams = vec![JamEvent {
            trigger_sample: 163,
            trigger_cycle: 653,
            start_cycle: 661,
            end_cycle: Some(761),
        }];
        let m = measure(&events, &jams, 100);
        assert_eq!(m.t_en_det_ns, Some((441 - 400) as f64 * 10.0));
        assert_eq!(m.t_xcorr_det_ns, Some((653 - 400) as f64 * 10.0));
        assert_eq!(m.t_init_ns, Some(80.0));
        assert_eq!(m.t_resp_ns, Some((661 - 400) as f64 * 10.0));
    }

    #[test]
    fn events_before_signal_ignored() {
        let events = vec![
            CoreEvent::EnergyHigh {
                sample: 10,
                cycle: 41,
            }, // stale
            CoreEvent::EnergyHigh {
                sample: 120,
                cycle: 481,
            },
        ];
        let m = measure(&events, &[], 100);
        assert_eq!(m.t_en_det_ns, Some(810.0));
    }

    #[test]
    fn end_to_end_measured_within_budget() {
        // Drive the actual core and verify the measured numbers respect the
        // analytic budget.
        use rjam_fpga::{CoreConfig, DspCore, TriggerMode, TriggerSource};
        use rjam_sdr::complex::IqI16;
        let mut core = DspCore::new();
        core.configure(&CoreConfig {
            energy_high_db: 10.0,
            trigger_mode: TriggerMode::Any(vec![TriggerSource::EnergyHigh]),
            uptime_samples: 100,
            enabled: true,
            ..CoreConfig::default()
        });
        let mut stream = vec![IqI16::new(20, -20); 400];
        stream.extend(vec![IqI16::new(9000, 9000); 400]);
        core.process_block(&stream);
        let m = measure(core.events(), core.jam_events(), 400);
        let b = TimelineBudget::paper();
        let t_en = m.t_en_det_ns.expect("energy detection");
        assert!(t_en <= b.t_en_det_ns, "T_en_det {t_en} ns");
        let t_init = m.t_init_ns.expect("jam");
        assert!(t_init <= b.t_init_ns, "T_init {t_init} ns");
        let t_resp = m.t_resp_ns.expect("resp");
        assert!(t_resp <= b.t_resp_energy_ns, "T_resp {t_resp} ns");
    }

    #[test]
    fn measure_reports_slow_response_without_clamping() {
        // Synthetic episode whose T_resp blows the paper's 2.64 us xcorr
        // budget: signal starts at sample 100 (cycle 400), the correlator
        // fires late and the burst only reaches RF at cycle 1100 — 7 us
        // after signal start.
        let events = vec![
            CoreEvent::XcorrDetection {
                sample: 270,
                cycle: 1080,
                metric: 12345,
            },
            CoreEvent::JamTrigger {
                sample: 270,
                cycle: 1080,
            },
        ];
        let jams = vec![JamEvent {
            trigger_sample: 270,
            trigger_cycle: 1080,
            start_cycle: 1100,
            end_cycle: Some(1600),
        }];
        let m = measure(&events, &jams, 100);
        assert_eq!(m.t_resp_ns, Some(7000.0), "no clamping to the budget");
        assert_eq!(m.t_xcorr_det_ns, Some(6800.0));
    }

    #[test]
    fn worst_keeps_the_larger_latency_and_fills_gaps() {
        let tl = |t_en_det_ns, t_xcorr_det_ns, t_init_ns, t_resp_ns| MeasuredTimeline {
            t_en_det_ns,
            t_xcorr_det_ns,
            t_init_ns,
            t_resp_ns,
        };
        let energy = tl(Some(450.0), None, Some(80.0), Some(530.0));
        let xcorr = tl(None, Some(2530.0), Some(90.0), Some(2610.0));
        let both = tl(Some(450.0), Some(2530.0), Some(90.0), Some(2610.0));
        assert_eq!(energy.worst(xcorr), both);
        assert_eq!(xcorr.worst(energy), both);
        let none = MeasuredTimeline::default();
        assert_eq!(energy.worst(none), energy);
        assert_eq!(none.worst(xcorr), xcorr);
        assert_eq!(none.worst(none), none);
    }

    #[test]
    fn unmeasured_rows_read_not_measured() {
        let none = MeasuredTimeline::default();
        let rows = fig5_rows(&none, &none);
        let names = rows.map(|r| r.name).join(", ");
        let want = "T_en_det, T_xcorr_det, T_init, T_resp (energy path), T_resp (xcorr path)";
        assert_eq!(names, want);
        let table = render_rows(&rows, "worst measured (ns)");
        assert_eq!(table.lines().count(), 6, "{table}");
        assert!(table
            .lines()
            .skip(1)
            .all(|l| l.ends_with(" -   not measured")));
    }

    #[test]
    fn each_path_is_judged_against_its_own_budget() {
        let energy = MeasuredTimeline {
            t_en_det_ns: Some(1920.0),
            t_resp_ns: Some(2000.0),
            ..MeasuredTimeline::default()
        };
        let xcorr = MeasuredTimeline {
            t_xcorr_det_ns: Some(1720.0),
            t_init_ns: Some(80.0),
            t_resp_ns: Some(1800.0),
            ..MeasuredTimeline::default()
        };
        let rows = fig5_rows(&energy, &xcorr);
        let verdicts = rows.map(|r| verdict(r.measured_ns, r.budget_ns)).join(", ");
        let want = "OVER BUDGET, within budget, within budget, OVER BUDGET, within budget";
        assert_eq!(verdicts, want);
        // A path's T_resp budget is the one its preset states.
        let [energy_det, xcorr_det] = &EPISODE_PRESETS;
        assert_eq!(rows[3].budget_ns, energy_det.response_budget_ns());
        assert_eq!(rows[4].budget_ns, xcorr_det.response_budget_ns());
        let table = render_rows(&rows, "p99 (ns)");
        let row = "T_resp (energy path)             1360                   2000   OVER BUDGET";
        assert!(table.lines().any(|l| l == row), "{table}");
    }

    #[test]
    fn an_episode_frames_its_frame_and_fills_the_capture_fifo() {
        let mut ep = jam_episode(&EPISODE_PRESETS[0], 3);
        assert_eq!(ep.frame.start, EPISODE_LEAD_SAMPLES);
        assert_eq!(ep.samples, ep.frame.end + EPISODE_TAIL_SAMPLES);
        assert!(ep.measured.t_resp_ns.is_some());
        assert!(ep.jammer.core_mut().capture_occupancy() > 0);
    }
}
