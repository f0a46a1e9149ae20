//! Jamming timeline analysis (paper Fig. 5 / §3.1).
//!
//! The paper derives the system response budget analytically from hardware
//! latencies and then demonstrates it live. Both forms live here: the
//! static budget ([`TimelineBudget::paper`]) and the measured extraction of
//! `T_en_det`, `T_xcorr_det`, `T_init` and `T_resp` from a core's event log
//! given the known signal start. [`episode_stream`] builds the receive
//! stream of one such episode.

use rjam_channel::NoiseSource;
use rjam_fpga::jammer::JamEvent;
use rjam_fpga::{CoreEvent, CLOCKS_PER_SAMPLE, ENERGY_WINDOW, TX_INIT_CYCLES, XCORR_LEN};
use rjam_sdr::complex::Cf64;
use rjam_sdr::rng::Rng;

/// Nanoseconds per FPGA clock cycle (100 MHz).
const NS_PER_CYCLE: f64 = 10.0;

/// Noise samples ahead of the frame in an [`episode_stream`] (16 µs at
/// 25 MSPS): the stream index where the signal starts.
pub const EPISODE_LEAD_SAMPLES: usize = 400;

/// Received frame power of an [`episode_stream`] (linear full-scale
/// units), 20 dB above its noise floor.
const EPISODE_RX_POWER: f64 = 0.02;

/// The receive stream of one Fig. 5 episode: an R12 802.11g frame of
/// `psdu_len` bytes drawn from `seed`, resampled to 25 MSPS at receive
/// power 0.02 (linear full-scale units) and 20 dB SNR, after
/// [`EPISODE_LEAD_SAMPLES`] noise samples and followed by `tail` more.
/// Returns the stream and the frame's length in samples.
pub fn episode_stream(psdu_len: usize, tail: usize, seed: u64) -> (Vec<Cf64>, usize) {
    let mut rng = Rng::seed_from(seed);
    let mut psdu = vec![0u8; psdu_len];
    rng.fill_bytes(&mut psdu);
    let frame = rjam_phy80211::tx::Frame::new(rjam_phy80211::Rate::R12, psdu);
    let native = rjam_phy80211::tx::modulate_frame(&frame);
    let mut wave = rjam_sdr::resample::to_usrp_rate(&native, rjam_sdr::WIFI_SAMPLE_RATE);
    rjam_sdr::power::scale_to_power(&mut wave, EPISODE_RX_POWER);
    let noise_p = EPISODE_RX_POWER / rjam_sdr::power::db_to_lin(20.0);
    let mut noise = NoiseSource::new(noise_p, rng.fork());
    let mut stream = noise.block(EPISODE_LEAD_SAMPLES);
    stream.extend(wave.iter().map(|&s| s + noise.next_sample()));
    stream.extend(noise.block(tail));
    (stream, wave.len())
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

/// Renders the Fig. 5 comparison as a table of rows
/// `(name, budget_ns, measured_ns)`.
pub fn comparison_rows(
    budget: &TimelineBudget,
    m: &MeasuredTimeline,
) -> Vec<(&'static str, f64, Option<f64>)> {
    vec![
        ("T_en_det", budget.t_en_det_ns, m.t_en_det_ns),
        ("T_xcorr_det", budget.t_xcorr_det_ns, m.t_xcorr_det_ns),
        ("T_init", budget.t_init_ns, m.t_init_ns),
        ("T_resp", budget.t_resp_xcorr_ns, m.t_resp_ns),
    ]
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
    fn comparison_rows_complete() {
        let rows = comparison_rows(&TimelineBudget::paper(), &MeasuredTimeline::default());
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].0, "T_en_det");
        assert!(rows.iter().all(|r| r.2.is_none()));
    }
}
