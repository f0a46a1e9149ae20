//! Autonomous jamming operations (paper §2.5: the GUI "can be easily
//! modified to provide an interface for more powerful host side processing
//! applications, thereby enabling complete, autonomous jamming
//! operations").
//!
//! [`AutonomousJammer`] closes that loop in software: it scans the band
//! with the energy differentiator, captures the activity it finds,
//! classifies the standard by correlating the capture against the template
//! codebook (WiFi STS/LTS and every WiMAX (IDcell, segment) hypothesis),
//! arms the matching protocol-aware personality, and jams — reverting to
//! scanning when the band goes quiet.

use crate::coeff::{wifi_short_template, wimax_template, Template};
use crate::jammer::ReactiveJammer;
use crate::presets::{DetectionPreset, JammerPreset};
use rjam_fpga::xcorr::Coeff3;
use rjam_fpga::CrossCorrelator;
use rjam_sdr::complex::{Cf64, IqI16};

/// The wireless standard a capture was classified as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StandardClass {
    /// 802.11a/g OFDM (matched the short-training-sequence template).
    Wifi,
    /// 802.16e OFDMA downlink from a specific base station.
    Wimax {
        /// Identified Cell ID.
        id_cell: u8,
        /// Identified segment.
        segment: u8,
    },
    /// Energy present but no template matched confidently.
    Unknown,
}

/// Peak normalized correlation of a capture against one template.
fn template_score(capture: &[Cf64], t: &Template) -> f64 {
    let ci: Vec<Coeff3> = t.coeff_i.iter().map(|&c| Coeff3::new(c)).collect();
    let cq: Vec<Coeff3> = t.coeff_q.iter().map(|&c| Coeff3::new(c)).collect();
    let mut xc = CrossCorrelator::new();
    xc.load_coeffs(&ci, &cq);
    let ideal = t.threshold_at_fraction(1.0) as f64;
    let mut peak = 0u64;
    for &s in capture {
        peak = peak.max(xc.push(IqI16::from_cf64(s)).metric);
    }
    peak as f64 / ideal.max(1.0)
}

/// Classification with per-hypothesis evidence.
#[derive(Clone, Debug)]
pub struct Classification {
    /// Best hypothesis.
    pub class: StandardClass,
    /// Score of the winning hypothesis (normalized correlation, 0..~1).
    pub score: f64,
    /// Score of the best WiFi hypothesis.
    pub wifi_score: f64,
    /// Score and identity of the best WiMAX hypothesis.
    pub wimax_score: f64,
}

/// Minimum normalized correlation to accept a classification. Matched
/// captures score 0.9+; noise and cross-standard captures peak near 0.45
/// (the sign-bit metric has a high floor on short windows), so 0.6 gives a
/// wide margin both ways.
pub const CLASSIFY_THRESHOLD: f64 = 0.60;

/// Classifies a 25 MSPS capture against the template codebook.
///
/// `wimax_cells` bounds the WiMAX search (scanning all 32x3 identities over
/// a long capture is affordable but rarely necessary; band plans are known).
pub fn classify_capture(capture: &[Cf64], wimax_cells: &[(u8, u8)]) -> Classification {
    let wifi_score = template_score(capture, &wifi_short_template());
    let mut best_wimax = (0.0f64, 0u8, 0u8);
    for &(id, seg) in wimax_cells {
        let s = template_score(capture, &wimax_template(id, seg));
        if s > best_wimax.0 {
            best_wimax = (s, id, seg);
        }
    }
    let (wimax_score, id_cell, segment) = best_wimax;
    let class = if wifi_score < CLASSIFY_THRESHOLD && wimax_score < CLASSIFY_THRESHOLD {
        StandardClass::Unknown
    } else if wifi_score >= wimax_score {
        StandardClass::Wifi
    } else {
        StandardClass::Wimax { id_cell, segment }
    };
    Classification {
        class,
        score: wifi_score.max(wimax_score),
        wifi_score,
        wimax_score,
    }
}

/// Operating state of the autonomous loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Watching the band with the energy differentiator.
    Scanning,
    /// Energy found; accumulating a capture for classification.
    Capturing,
    /// Armed with a protocol-aware personality and jamming.
    Engaged(StandardClass),
}

/// Jam-burst uptime of every engaged personality.
const ENGAGED_UPTIME_S: f64 = 100e-6;

/// The self-configuring jammer.
#[derive(Debug)]
pub struct AutonomousJammer {
    jammer: ReactiveJammer,
    mode: Mode,
    capture: Vec<Cf64>,
    /// Samples of capture to gather before classifying.
    capture_len: usize,
    /// Consecutive quiet samples before disengaging back to scan.
    idle_limit: u64,
    idle_run: u64,
    wimax_cells: Vec<(u8, u8)>,
    engagements: Vec<Classification>,
}

impl AutonomousJammer {
    /// Creates an autonomous jammer scanning with the given energy-rise
    /// threshold (dB) and searching the given WiMAX identities.
    pub fn new(energy_db: f64, wimax_cells: Vec<(u8, u8)>) -> Self {
        let jammer = ReactiveJammer::new(
            DetectionPreset::EnergyRise {
                threshold_db: energy_db,
            },
            JammerPreset::Monitor,
        );
        AutonomousJammer {
            jammer,
            mode: Mode::Scanning,
            capture: Vec::new(),
            capture_len: 4000, // 160 us: several WiFi preambles / one WiMAX CP+code start
            idle_limit: 2_500_000, // 100 ms of silence disengages
            idle_run: 0,
            wimax_cells,
            engagements: Vec::new(),
        }
    }

    /// Current operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Log of classifications that led to engagements.
    pub fn engagements(&self) -> &[Classification] {
        &self.engagements
    }

    /// Access to the underlying jammer (event logs, feedback).
    pub fn jammer(&self) -> &ReactiveJammer {
        &self.jammer
    }

    /// Records an autonomous state transition to the global observability
    /// layer: one `core.auto_*` counter bump plus a flight-recorder event
    /// timestamped with the receive-stream sample index.
    fn note_transition(&mut self, counter: &'static str, kind: &'static str, a: i64, b: i64) {
        if rjam_obs::enabled() {
            let t = self.jammer.core_mut().samples_processed();
            rjam_obs::registry::counter(counter).inc();
            rjam_obs::recorder::record_event(t, kind, a, b);
        }
    }

    /// Processes one receive block; returns the per-sample TX activity.
    pub fn step(&mut self, block: &[Cf64]) -> Vec<bool> {
        match self.mode {
            Mode::Scanning => {
                let before = self.jammer.core_mut().samples_processed();
                let (_tx, active) = self.jammer.process_block(block);
                // An energy rise within THIS block flips us into capture
                // mode (older events are history from prior engagements).
                let rise = self
                    .jammer
                    .events()
                    .iter()
                    .rev()
                    .take_while(|e| e.sample() >= before)
                    .any(|e| matches!(e, rjam_fpga::CoreEvent::EnergyHigh { .. }));
                if rise {
                    self.mode = Mode::Capturing;
                    self.capture.clear();
                    self.capture.extend_from_slice(block);
                    self.note_transition("core.auto_captures", "auto_capture_start", 0, 0);
                }
                active
            }
            Mode::Capturing => {
                self.capture.extend_from_slice(block);
                if self.capture.len() >= self.capture_len {
                    let cls = classify_capture(&self.capture, &self.wimax_cells);
                    match cls.class {
                        StandardClass::Wifi => {
                            self.jammer
                                .set_detection(DetectionPreset::WifiShortPreamble {
                                    threshold: 0.50,
                                });
                            self.jammer.set_reaction(JammerPreset::Reactive {
                                uptime_s: ENGAGED_UPTIME_S,
                                waveform: rjam_fpga::JamWaveform::Wgn,
                            });
                        }
                        StandardClass::Wimax { id_cell, segment } => {
                            self.jammer.set_detection(DetectionPreset::WimaxFused {
                                id_cell,
                                segment,
                                threshold: 0.45,
                                energy_db: 10.0,
                            });
                            self.jammer.set_lockout(100_000);
                            self.jammer.set_reaction(JammerPreset::Reactive {
                                uptime_s: ENGAGED_UPTIME_S,
                                waveform: rjam_fpga::JamWaveform::Wgn,
                            });
                        }
                        StandardClass::Unknown => {
                            // Fall back to protocol-agnostic energy jamming.
                            self.jammer
                                .set_detection(DetectionPreset::EnergyRise { threshold_db: 10.0 });
                            self.jammer.set_reaction(JammerPreset::Reactive {
                                uptime_s: ENGAGED_UPTIME_S,
                                waveform: rjam_fpga::JamWaveform::Wgn,
                            });
                        }
                    }
                    self.mode = Mode::Engaged(cls.class);
                    // Flight-recorder payload: a = class code (0 WiFi,
                    // 1 WiMAX, 2 unknown), b = winning score in permil.
                    let (code, counter) = match cls.class {
                        StandardClass::Wifi => (0, "core.auto_engage_wifi"),
                        StandardClass::Wimax { .. } => (1, "core.auto_engage_wimax"),
                        StandardClass::Unknown => (2, "core.auto_engage_unknown"),
                    };
                    let permil = (cls.score * 1000.0) as i64;
                    self.note_transition(counter, "auto_engage", code, permil);
                    self.engagements.push(cls);
                    self.idle_run = 0;
                }
                vec![false; block.len()]
            }
            Mode::Engaged(_) => {
                let before = self.jammer.core_mut().samples_processed();
                let (_tx, active) = self.jammer.process_block(block);
                // Track band idleness via completed jam triggers (raw
                // detector events include sporadic noise-floor crossings).
                let news = self
                    .jammer
                    .events()
                    .iter()
                    .rev()
                    .take_while(|e| e.sample() >= before)
                    .filter(|e| matches!(e, rjam_fpga::CoreEvent::JamTrigger { .. }))
                    .count();
                if news == 0 {
                    self.idle_run += block.len() as u64;
                    if self.idle_run >= self.idle_limit {
                        // Band quiet: disengage and resume scanning.
                        self.jammer
                            .set_detection(DetectionPreset::EnergyRise { threshold_db: 10.0 });
                        self.jammer.set_reaction(JammerPreset::Monitor);
                        self.mode = Mode::Scanning;
                        let idle = self.idle_run as i64;
                        self.note_transition("core.auto_disengagements", "auto_disengage", idle, 0);
                    }
                } else {
                    self.idle_run = 0;
                }
                active
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_sdr::power::scale_to_power;
    use rjam_sdr::resample::to_usrp_rate;
    use rjam_sdr::rng::Rng;

    fn wifi_block(rng: &mut Rng) -> Vec<Cf64> {
        let mut psdu = vec![0u8; 120];
        rng.fill_bytes(&mut psdu);
        let frame = rjam_phy80211::tx::Frame::new(rjam_phy80211::Rate::R12, psdu);
        let native = rjam_phy80211::tx::modulate_frame(&frame);
        let mut w = to_usrp_rate(&native, rjam_sdr::WIFI_SAMPLE_RATE);
        scale_to_power(&mut w, 0.02);
        w
    }

    fn wimax_block(id: u8, seg: u8) -> Vec<Cf64> {
        let mut gen = rjam_phy80216::DownlinkGenerator::new(rjam_phy80216::DownlinkConfig {
            id_cell: id,
            segment: seg,
            ..rjam_phy80216::DownlinkConfig::default()
        });
        let f = gen.next_frame();
        let active = gen.dl_subframe_samples();
        let mut w = to_usrp_rate(&f[..active], rjam_sdr::WIMAX_SAMPLE_RATE);
        scale_to_power(&mut w, 0.02);
        w
    }

    fn noisy(mut w: Vec<Cf64>, snr_db: f64, seed: u64) -> Vec<Cf64> {
        let mut n = rjam_channel::NoiseSource::new(
            0.02 / rjam_sdr::power::db_to_lin(snr_db),
            Rng::seed_from(seed),
        );
        for s in w.iter_mut() {
            *s += n.next_sample();
        }
        w
    }

    #[test]
    fn classifies_wifi_capture() {
        let mut rng = Rng::seed_from(1);
        let cap = noisy(wifi_block(&mut rng), 20.0, 2);
        let cls = classify_capture(&cap, &[(1, 0), (2, 1)]);
        assert_eq!(cls.class, StandardClass::Wifi);
        assert!(cls.wifi_score > cls.wimax_score);
    }

    #[test]
    fn classifies_wimax_capture_with_identity() {
        let cap = noisy(wimax_block(5, 1), 20.0, 3);
        let cells = vec![(1u8, 0u8), (5, 1), (9, 2)];
        let cls = classify_capture(&cap[..12_000], &cells);
        assert_eq!(
            cls.class,
            StandardClass::Wimax {
                id_cell: 5,
                segment: 1
            }
        );
    }

    #[test]
    fn noise_is_unknown() {
        let mut n = rjam_channel::NoiseSource::new(0.02, Rng::seed_from(4));
        let cap = n.block(4000);
        let cls = classify_capture(&cap, &[(1, 0)]);
        assert_eq!(cls.class, StandardClass::Unknown);
    }

    #[test]
    fn autonomous_engages_wifi_and_jams() {
        let mut rng = Rng::seed_from(5);
        let mut auto = AutonomousJammer::new(10.0, vec![(1, 0)]);
        assert_eq!(auto.mode(), Mode::Scanning);
        // Quiet band first.
        let mut noise =
            rjam_channel::NoiseSource::new(0.02 / rjam_sdr::power::db_to_lin(20.0), rng.fork());
        auto.step(&noise.block(2000));
        assert_eq!(auto.mode(), Mode::Scanning);
        // Traffic appears: scan -> capture -> engage(WiFi).
        let frame = noisy(wifi_block(&mut rng), 20.0, 6);
        auto.step(&frame);
        assert_eq!(auto.mode(), Mode::Capturing);
        let frame2 = noisy(wifi_block(&mut rng), 20.0, 7);
        auto.step(&frame2);
        assert_eq!(auto.mode(), Mode::Engaged(StandardClass::Wifi));
        // Next frame gets jammed.
        let frame3 = noisy(wifi_block(&mut rng), 20.0, 8);
        let active = auto.step(&frame3);
        assert!(active.iter().any(|&a| a), "must jam after engaging");
        assert_eq!(auto.engagements().len(), 1);
    }

    #[test]
    fn autonomous_engages_wimax_with_cell_identity() {
        let mut auto = AutonomousJammer::new(10.0, vec![(1, 0), (5, 1)]);
        // Quiet band first so the energy differentiator sees the rise.
        let mut noise = rjam_channel::NoiseSource::new(
            0.02 / rjam_sdr::power::db_to_lin(20.0),
            Rng::seed_from(90),
        );
        auto.step(&noise.block(2000));
        let frame = noisy(wimax_block(5, 1), 20.0, 9);
        // Feed in chunks so scan->capture->engage transitions exercise.
        for chunk in frame.chunks(6000) {
            auto.step(chunk);
        }
        match auto.mode() {
            Mode::Engaged(StandardClass::Wimax { id_cell, segment }) => {
                assert_eq!((id_cell, segment), (5, 1));
            }
            other => panic!("expected WiMAX engagement, got {other:?}"),
        }
    }

    #[cfg(feature = "obs")]
    #[test]
    fn engagement_transitions_feed_registry() {
        use rjam_obs::registry::counter_value;
        let cap0 = counter_value("core.auto_captures");
        let eng0 = counter_value("core.auto_engage_wifi");
        let mut rng = Rng::seed_from(5);
        let mut auto = AutonomousJammer::new(10.0, vec![(1, 0)]);
        let mut noise =
            rjam_channel::NoiseSource::new(0.02 / rjam_sdr::power::db_to_lin(20.0), rng.fork());
        auto.step(&noise.block(2000));
        let frame = noisy(wifi_block(&mut rng), 20.0, 6);
        auto.step(&frame);
        let frame2 = noisy(wifi_block(&mut rng), 20.0, 7);
        auto.step(&frame2);
        assert_eq!(auto.mode(), Mode::Engaged(StandardClass::Wifi));
        // Other tests share the global registry; assert growth, not equality.
        assert!(counter_value("core.auto_captures") > cap0);
        assert!(counter_value("core.auto_engage_wifi") > eng0);
    }

    #[test]
    fn disengages_after_idle() {
        let mut rng = Rng::seed_from(10);
        let mut auto = AutonomousJammer::new(10.0, vec![]);
        let mut lead = rjam_channel::NoiseSource::new(
            0.02 / rjam_sdr::power::db_to_lin(20.0),
            Rng::seed_from(91),
        );
        auto.step(&lead.block(2000));
        let frame = noisy(wifi_block(&mut rng), 20.0, 11);
        auto.step(&frame);
        let frame2 = noisy(wifi_block(&mut rng), 20.0, 12);
        auto.step(&frame2);
        assert!(matches!(auto.mode(), Mode::Engaged(_)));
        // 120 ms of silence -> back to scanning.
        let mut noise =
            rjam_channel::NoiseSource::new(0.02 / rjam_sdr::power::db_to_lin(20.0), rng.fork());
        for _ in 0..30 {
            auto.step(&noise.block(100_000));
        }
        assert_eq!(auto.mode(), Mode::Scanning);
    }
}
