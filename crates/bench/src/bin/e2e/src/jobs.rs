//! The four seeded workloads and the air time each of their jobs simulates.
//!
//! A workload is an endless, seeded sequence of `rjam-job-v1` campaign
//! specs. The job *mix* (preset, PSDU length, channel, SNR, jammer) is a
//! function of the job index that repeats every 12 jobs, so any two runs
//! of the same length do the same kind of work; the seed draws every
//! campaign seed, which varies payloads, noise and fading.

use rjam_core::campaign::{ChannelModel, JammerUnderTest, WifiEmission};
use rjam_core::presets::DetectionPreset;
use rjam_core::spec::CampaignRequest;
use rjam_sdr::rng::Rng;
use rjam_sdr::USRP_SAMPLE_RATE;

/// Noise samples around every detection-sweep frame: the campaign's
/// 256-sample lead-in plus its 128-sample tail, at 25 MSPS.
const DETECTION_PAD_SAMPLES: f64 = 384.0;

/// PSDU lengths a `detect_sweep` job cycles through, four jobs each.
const PSDU_LENS: [usize; 3] = [60, 250, 1000];

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 802.11 synthesis + channel + correlator: `wifi_detection` jobs.
    DetectSweep,
    /// Noise + correlator/energy detector only: `false_alarm` jobs.
    NoiseFloor,
    /// 802.16 synthesis, resample, jam controller, scope merge: `wimax` jobs.
    WimaxDownlink,
    /// MAC discrete-event simulation only: `jamming` jobs.
    IperfSweep,
}

/// Every workload, in report order.
pub const ALL: [Workload; 4] = [
    Workload::DetectSweep,
    Workload::NoiseFloor,
    Workload::WimaxDownlink,
    Workload::IperfSweep,
];

impl Workload {
    /// The workload's name on the command line and in records.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DetectSweep => "detect_sweep",
            Workload::NoiseFloor => "noise_floor",
            Workload::WimaxDownlink => "wimax_downlink",
            Workload::IperfSweep => "iperf_sweep",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Keeps the four workloads' seed streams apart for one `--seed`.
    fn salt(self) -> u64 {
        match self {
            Workload::DetectSweep => 0xD37E_C75E,
            Workload::NoiseFloor => 0x0F10_0A12,
            Workload::WimaxDownlink => 0x8021_6D01,
            Workload::IperfSweep => 0x1BE2_F5EE,
        }
    }
}

/// The endless job sequence of workload `w` for `seed`.
pub fn jobs(w: Workload, seed: u64) -> impl Iterator<Item = CampaignRequest> {
    let mut rng = Rng::seed_from(seed ^ w.salt());
    (0usize..).map(move |i| {
        // JSON numbers are f64: campaign seeds on the wire stay < 2^53.
        let seed = rng.next_u64() >> 11;
        match w {
            Workload::DetectSweep => CampaignRequest::WifiDetection {
                preset: if i % 2 == 0 {
                    DetectionPreset::WifiShortPreamble { threshold: 0.35 }
                } else {
                    DetectionPreset::WifiLongPreamble { threshold: 0.34 }
                },
                emission: WifiEmission::FullFrames {
                    psdu_len: PSDU_LENS[(i / 4) % 3],
                },
                channel: if i % 4 == 3 {
                    ChannelModel::Rayleigh { taps: 8, rms: 2.0 }
                } else {
                    ChannelModel::Awgn
                },
                snrs_db: vec![-6.0, 0.0, 6.0, 12.0],
                frames_per_point: 64,
                seed,
            },
            Workload::NoiseFloor => CampaignRequest::FalseAlarm {
                preset: match i % 3 {
                    0 => DetectionPreset::WifiShortPreamble { threshold: 0.30 },
                    1 => DetectionPreset::WifiLongPreamble { threshold: 0.34 },
                    _ => DetectionPreset::EnergyRise { threshold_db: 10.0 },
                },
                samples: 1 << 22,
                seed,
            },
            Workload::WimaxDownlink => CampaignRequest::Wimax {
                fused: i % 2 == 0,
                frames: 24,
                snr_db: [0.0, 10.0, 20.0][i % 3],
                threshold: 0.45,
                seed,
            },
            Workload::IperfSweep => CampaignRequest::Jamming {
                jammer: [
                    JammerUnderTest::Off,
                    JammerUnderTest::Continuous,
                    JammerUnderTest::ReactiveLong,
                    JammerUnderTest::ReactiveShort,
                ][i % 4],
                sirs_db: vec![1.0, 8.0, 14.0, 20.0, 26.0, 32.0],
                duration_s: 1.0,
                seed,
            },
        }
    })
}

/// The untimed warm-up job: shaped like job 0, drawn from another stream.
pub fn warmup_job(w: Workload, seed: u64) -> CampaignRequest {
    jobs(w, !seed).next().expect("the sequence is endless")
}

/// Simulated air time of a job in seconds: a fixed function of the spec,
/// so a job's simulation rate is comparable across commits.
pub fn air_seconds(req: &CampaignRequest) -> f64 {
    match req {
        CampaignRequest::WifiDetection {
            emission,
            snrs_db,
            frames_per_point,
            ..
        } => {
            let frame_samples = match emission {
                WifiEmission::FullFrames { psdu_len } => {
                    rjam_phy80211::Rate::R12.frame_airtime_us(*psdu_len) * 1e-6 * USRP_SAMPLE_RATE
                }
                // One 16-sample STS / 64-sample LTS at 20 MSPS.
                WifiEmission::SingleShortPreamble => 16.0 * USRP_SAMPLE_RATE / 20e6,
                WifiEmission::SingleLongPreamble => 64.0 * USRP_SAMPLE_RATE / 20e6,
            };
            (snrs_db.len() * frames_per_point) as f64 * (frame_samples + DETECTION_PAD_SAMPLES)
                / USRP_SAMPLE_RATE
        }
        CampaignRequest::FalseAlarm { samples, .. } => *samples as f64 / USRP_SAMPLE_RATE,
        CampaignRequest::Wimax { frames, .. } => *frames as f64 * rjam_phy80216::FRAME_DURATION,
        CampaignRequest::Jamming {
            sirs_db,
            duration_s,
            ..
        } => sirs_db.len() as f64 * duration_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_lists_repeat_for_a_seed_and_extend_as_prefixes() {
        let list = |w, seed, n| jobs(w, seed).take(n).collect::<Vec<_>>();
        for w in ALL {
            let a = list(w, 42, 30);
            assert_eq!(a, list(w, 42, 30), "{}", w.name());
            assert_eq!(a[..10], list(w, 42, 10)[..], "{}", w.name());
            assert_ne!(a, list(w, 43, 30), "{}", w.name());
        }
    }

    #[test]
    fn every_generated_spec_passes_the_wire_boundary() {
        for w in ALL {
            for seed in [0, 1, 2, u64::MAX] {
                let mut list: Vec<_> = jobs(w, seed).take(24).collect();
                list.push(warmup_job(w, seed));
                for job in list {
                    job.validate().expect("generated spec validates");
                    let back = CampaignRequest::from_json(&job.to_json()).expect("parses");
                    assert_eq!(back, job, "{}", w.name());
                }
            }
        }
    }

    #[test]
    fn the_mix_repeats_every_twelve_jobs_and_only_seeds_differ() {
        let shape = |job: &CampaignRequest| {
            let mut v = job.to_value();
            if let rjam_obs::json::Value::Object(o) = &mut v {
                o.remove("seed");
            }
            v
        };
        for w in ALL {
            let a: Vec<_> = jobs(w, 1).take(24).collect();
            let b: Vec<_> = jobs(w, 2).take(24).collect();
            for i in 0..24 {
                assert_eq!(shape(&a[i]), shape(&a[i % 12]), "{} job {i}", w.name());
                assert_eq!(shape(&a[i]), shape(&b[i]), "{} job {i}", w.name());
            }
        }
    }

    #[test]
    fn air_time_is_correct_for_each_kind() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-12;
        // 60-byte PSDU at 12 Mb/s: 11 data symbols, 20 + 44 = 64 us.
        let det = CampaignRequest::WifiDetection {
            preset: DetectionPreset::WifiShortPreamble { threshold: 0.35 },
            emission: WifiEmission::FullFrames { psdu_len: 60 },
            channel: ChannelModel::Awgn,
            snrs_db: vec![0.0, 6.0],
            frames_per_point: 10,
            seed: 1,
        };
        assert!(close(air_seconds(&det), 20.0 * (64e-6 + 384.0 / 25e6)));
        let fa = CampaignRequest::FalseAlarm {
            preset: DetectionPreset::EnergyRise { threshold_db: 10.0 },
            samples: 1 << 22,
            seed: 1,
        };
        assert!(close(air_seconds(&fa), 4_194_304.0 / 25e6));
        let wimax = CampaignRequest::Wimax {
            fused: true,
            frames: 24,
            snr_db: 10.0,
            threshold: 0.45,
            seed: 1,
        };
        assert!(close(air_seconds(&wimax), 0.120));
        let jam = CampaignRequest::Jamming {
            jammer: JammerUnderTest::Off,
            sirs_db: vec![1.0, 8.0, 14.0],
            duration_s: 0.5,
            seed: 1,
        };
        assert!(close(air_seconds(&jam), 1.5));
    }
}
