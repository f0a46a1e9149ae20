//! Result export and session reporting.
//!
//! Campaign outputs serialize to plain CSV (plot-ready for gnuplot /
//! matplotlib / a spreadsheet) or canonical JSON, and detection sessions
//! render to a compact text report — the artifacts a lab notebook wants
//! from each run.
//!
//! The JSON exporters are *canonical*: numbers use Rust's shortest
//! round-trip `f64` formatting and keys appear in a fixed order, so two
//! exports are byte-identical exactly when the underlying results are
//! bit-identical. That is the external surface the engine's determinism
//! contract is checked against — CI diffs `RJAM_THREADS=1` output against
//! `RJAM_THREADS=4` output, byte for byte.

use crate::campaign::{
    DetectionPoint, EnergyPoint, JammingPoint, RocPoint, TimeToDetectPoint, WimaxResult,
};
use rjam_fpga::jammer::JamEvent;
use rjam_fpga::CoreEvent;
use rjam_obs::json::write_number as num;
use std::fmt::Write as _;

/// CSV for a detection-probability sweep (Figs 6-8 data).
pub fn detection_csv(points: &[DetectionPoint]) -> String {
    let mut out = String::from("snr_db,p_detect,triggers_per_frame\n");
    for p in points {
        let _ = writeln!(
            out,
            "{:.2},{:.6},{:.4}",
            p.snr_db, p.p_detect, p.triggers_per_frame
        );
    }
    out
}

/// CSV for a jamming sweep (Figs 10-11 data).
pub fn jamming_csv(points: &[JammingPoint]) -> String {
    let mut out = String::from(
        "sir_ap_db,bandwidth_kbps,prr_percent,mean_phy_rate_mbps,jam_bursts,jam_airtime_us,disassociated\n",
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:.2},{:.1},{:.2},{:.2},{},{:.1},{}",
            p.sir_ap_db,
            p.report.bandwidth_kbps,
            p.report.prr_percent,
            p.report.mean_phy_rate_mbps,
            p.report.jam_bursts,
            p.report.jam_airtime_us,
            p.report.disassociated
        );
    }
    out
}

/// CSV for a health-monitor time-to-detect sweep. `frames_to_alarm` is
/// `-1` when the monitor never alarmed (the clean-run rows).
pub fn time_to_detect_csv(points: &[TimeToDetectPoint]) -> String {
    let mut out = String::from("jammer,sir_ap_db,frames,frames_to_alarm,alarms,prr_percent\n");
    for p in points {
        let tta = p.frames_to_alarm.map_or(-1i64, |f| f as i64);
        let _ = writeln!(
            out,
            "{},{:.2},{},{},{},{:.2}",
            p.jammer.label().replace(',', ";"),
            p.sir_ap_db,
            p.frames,
            tta,
            p.alarms,
            p.prr_percent
        );
    }
    out
}

/// CSV for a receiver-operating-characteristic sweep.
pub fn roc_csv(points: &[RocPoint]) -> String {
    let mut out = String::from("threshold,fa_per_s,p_detect\n");
    for p in points {
        let _ = writeln!(
            out,
            "{:.3},{:.4},{:.6}",
            p.threshold, p.fa_per_s, p.p_detect
        );
    }
    out
}

/// CSV for energy-efficiency operating points.
pub fn energy_csv(points: &[EnergyPoint]) -> String {
    let mut out = String::from(
        "jammer,sir_ap_db,tx_power_dbm,duty_percent,energy_joules,residual_bandwidth_percent\n",
    );
    for p in points {
        let _ = writeln!(
            out,
            "{},{:.2},{:.2},{:.3},{:.9},{:.2}",
            p.jammer.label().replace(',', ";"),
            p.sir_ap_db,
            p.tx_power_dbm,
            p.duty_percent,
            p.energy_joules,
            p.residual_bandwidth_percent
        );
    }
    out
}

/// Canonical JSON for a detection-probability sweep.
pub fn detection_json(points: &[DetectionPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"snr_db\":{},\"p_detect\":{},\"triggers_per_frame\":{}}}",
                num(p.snr_db),
                num(p.p_detect),
                num(p.triggers_per_frame)
            )
        })
        .collect();
    format!("{{\"detection\":[{}]}}", rows.join(","))
}

/// Canonical JSON for a jamming sweep.
pub fn jamming_json(points: &[JammingPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            let r = &p.report;
            let per_s: Vec<String> = r.per_second_kbps.iter().map(|&v| num(v)).collect();
            format!(
                concat!(
                    "{{\"sir_ap_db\":{},\"sent\":{},\"received\":{},",
                    "\"bandwidth_kbps\":{},\"prr_percent\":{},",
                    "\"mean_phy_rate_mbps\":{},\"jam_bursts\":{},",
                    "\"jam_airtime_us\":{},\"disassociated\":{},",
                    "\"per_second_kbps\":[{}]}}"
                ),
                num(p.sir_ap_db),
                r.sent,
                r.received,
                num(r.bandwidth_kbps),
                num(r.prr_percent),
                num(r.mean_phy_rate_mbps),
                r.jam_bursts,
                num(r.jam_airtime_us),
                r.disassociated,
                per_s.join(",")
            )
        })
        .collect();
    format!("{{\"jamming\":[{}]}}", rows.join(","))
}

/// Canonical JSON for a receiver-operating-characteristic sweep.
pub fn roc_json(points: &[RocPoint]) -> String {
    let rows: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "{{\"threshold\":{},\"fa_per_s\":{},\"p_detect\":{}}}",
                num(p.threshold),
                num(p.fa_per_s),
                num(p.p_detect)
            )
        })
        .collect();
    format!("{{\"roc\":[{}]}}", rows.join(","))
}

/// Canonical JSON for a false-alarm calibration: raw rate in triggers/s.
pub fn false_alarm_json(fa_per_s: f64) -> String {
    format!("{{\"fa_per_s\":{}}}", num(fa_per_s))
}

/// Canonical JSON for a WiMAX correspondence run. The scope trace is
/// folded in as its marker log plus an envelope checksum
/// ([`rjam_channel::monitor::ScopeTrace::envelope_fnv`], the
/// order-sensitive FNV-1a over every sample's `f64` bits), which pins both
/// detection decisions and every captured sample without megabytes of
/// floats.
pub fn wimax_json(result: &WimaxResult) -> String {
    format!(
        concat!(
            "{{\"detect_fraction\":{},\"mean_latency_us\":{},",
            "\"one_to_one\":{},\"scope_samples\":{},",
            "\"envelope_fnv\":\"{:016x}\",\"markers\":{}}}"
        ),
        num(result.detect_fraction),
        num(result.mean_latency_us),
        result.one_to_one,
        result.scope.len(),
        result.scope.envelope_fnv(),
        result.scope.to_markers_json()
    )
}

/// Renders a detection/jamming session as a timeline report: one line per
/// event with VITA-style absolute timestamps.
pub fn session_report(events: &[CoreEvent], jams: &[JamEvent], epoch_secs: u64) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{:>18}  event", "time (s)");
    let mut jam_iter = jams.iter().peekable();
    for e in events {
        let t = rjam_fpga::VitaTime::from_cycle(e.cycle(), epoch_secs);
        let label = match e {
            CoreEvent::XcorrDetection { metric, .. } => {
                format!("xcorr detection (metric {metric})")
            }
            CoreEvent::EnergyHigh { .. } => "energy rise".to_string(),
            CoreEvent::EnergyLow { .. } => "energy fall".to_string(),
            CoreEvent::JamTrigger { .. } => "JAM TRIGGER".to_string(),
        };
        let _ = writeln!(out, "{:>18.7}  {label}", t.as_secs_f64());
        // Interleave the jam burst that this trigger started, if any.
        if matches!(e, CoreEvent::JamTrigger { .. }) {
            if let Some(j) = jam_iter.next() {
                let ts = rjam_fpga::VitaTime::from_cycle(j.start_cycle, epoch_secs);
                let dur = j
                    .end_cycle
                    .map(|end| format!("{:.1} us", (end - j.start_cycle) as f64 / 100.0))
                    .unwrap_or_else(|| "ongoing".to_string());
                let _ = writeln!(
                    out,
                    "{:>18.7}  -> RF burst ({dur}, response {:.0} ns)",
                    ts.as_secs_f64(),
                    j.response_ns()
                );
            }
        }
    }
    let _ = writeln!(out, "{} events, {} jam bursts", events.len(), jams.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rjam_mac::IperfReport;

    #[test]
    fn detection_csv_shape() {
        let pts = vec![
            DetectionPoint {
                snr_db: -3.0,
                p_detect: 0.36,
                triggers_per_frame: 0.4,
            },
            DetectionPoint {
                snr_db: 3.0,
                p_detect: 0.99,
                triggers_per_frame: 1.0,
            },
        ];
        let csv = detection_csv(&pts);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "snr_db,p_detect,triggers_per_frame");
        assert!(lines[1].starts_with("-3.00,0.36"));
        // Parse back.
        for line in &lines[1..] {
            let fields: Vec<f64> = line.split(',').map(|f| f.parse().unwrap()).collect();
            assert_eq!(fields.len(), 3);
        }
    }

    #[test]
    fn jamming_csv_roundtrips_fields() {
        let pts = vec![JammingPoint {
            sir_ap_db: 15.94,
            report: IperfReport::from_counts(100, 50, 1470, 10.0, vec![], true, 24.0, 7, 700.0),
        }];
        let csv = jamming_csv(&pts);
        let row = csv.lines().nth(1).unwrap();
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(fields.len(), 7);
        assert_eq!(fields[0], "15.94");
        assert_eq!(fields[4], "7");
        assert_eq!(fields[6], "true");
    }

    #[test]
    fn roc_and_energy_headers() {
        assert!(roc_csv(&[]).starts_with("threshold,"));
        assert!(energy_csv(&[]).starts_with("jammer,"));
    }

    #[test]
    fn time_to_detect_csv_encodes_missing_alarm_as_minus_one() {
        use crate::campaign::{JammerUnderTest, TimeToDetectPoint};
        let pts = vec![
            TimeToDetectPoint {
                jammer: JammerUnderTest::ReactiveLong,
                sir_ap_db: 1.0,
                frames: 4590,
                frames_to_alarm: Some(32),
                alarms: 2,
                prr_percent: 3.25,
            },
            TimeToDetectPoint {
                jammer: JammerUnderTest::Off,
                sir_ap_db: 1.0,
                frames: 4590,
                frames_to_alarm: None,
                alarms: 0,
                prr_percent: 97.5,
            },
        ];
        let csv = time_to_detect_csv(&pts);
        assert!(csv.starts_with("jammer,sir_ap_db,frames,frames_to_alarm,alarms,prr_percent\n"));
        let rows: Vec<&str> = csv.lines().skip(1).collect();
        assert_eq!(rows.len(), 2);
        let jammed: Vec<&str> = rows[0].split(',').collect();
        assert_eq!(jammed[0], "Reactive Jammer 0.1ms Uptime");
        assert_eq!(jammed[3], "32");
        assert_eq!(jammed[4], "2");
        let clean: Vec<&str> = rows[1].split(',').collect();
        assert_eq!(clean[3], "-1");
        assert_eq!(clean[4], "0");
    }

    #[test]
    fn json_exports_parse_and_roundtrip_values() {
        let det = vec![DetectionPoint {
            snr_db: -3.5,
            p_detect: 0.362_517,
            triggers_per_frame: 0.25,
        }];
        let doc = rjam_obs::json::parse(&detection_json(&det)).expect("valid JSON");
        let rows = doc.as_object().unwrap()["detection"].as_array().unwrap();
        assert_eq!(rows.len(), 1);
        let row = rows[0].as_object().unwrap();
        assert_eq!(row["snr_db"].as_f64(), Some(-3.5));
        assert_eq!(row["p_detect"].as_f64(), Some(0.362_517));

        let jam = vec![JammingPoint {
            sir_ap_db: 15.94,
            report: IperfReport::from_counts(
                100,
                50,
                1470,
                10.0,
                vec![1.5, 2.5],
                true,
                24.0,
                7,
                700.0,
            ),
        }];
        let doc = rjam_obs::json::parse(&jamming_json(&jam)).expect("valid JSON");
        let row = doc.as_object().unwrap()["jamming"].as_array().unwrap()[0]
            .as_object()
            .unwrap();
        assert_eq!(row["sent"].as_u64(), Some(100));
        assert_eq!(row["jam_bursts"].as_u64(), Some(7));
        assert_eq!(row["per_second_kbps"].as_array().unwrap().len(), 2);

        let roc = vec![RocPoint {
            threshold: 0.3,
            fa_per_s: 12.25,
            p_detect: 0.875,
        }];
        let doc = rjam_obs::json::parse(&roc_json(&roc)).expect("valid JSON");
        assert_eq!(
            doc.as_object().unwrap()["roc"].as_array().unwrap()[0]
                .as_object()
                .unwrap()["fa_per_s"]
                .as_f64(),
            Some(12.25)
        );

        let doc = rjam_obs::json::parse(&false_alarm_json(0.125)).expect("valid JSON");
        assert_eq!(doc.as_object().unwrap()["fa_per_s"].as_f64(), Some(0.125));
    }

    #[test]
    fn json_export_is_canonical_wrt_bits() {
        // Two bit-identical result sets produce byte-identical JSON; a
        // one-ULP change does not. This is exactly the determinism surface
        // CI diffs across thread counts.
        let p = |pd: f64| {
            vec![DetectionPoint {
                snr_db: 3.0,
                p_detect: pd,
                triggers_per_frame: 1.0,
            }]
        };
        let base = 0.362_517_f64;
        assert_eq!(detection_json(&p(base)), detection_json(&p(base)));
        let nudged = f64::from_bits(base.to_bits() + 1);
        assert_ne!(detection_json(&p(base)), detection_json(&p(nudged)));
    }

    #[test]
    fn wimax_json_digests_the_scope() {
        use rjam_channel::monitor::ScopeTrace;
        let mut scope = ScopeTrace::new(25e6);
        scope.capture(&[rjam_sdr::complex::Cf64::new(0.5, 0.0); 8]);
        scope.mark(3, "frame");
        let a = WimaxResult {
            detect_fraction: 1.0,
            mean_latency_us: 2.5,
            scope,
            one_to_one: true,
        };
        let json = wimax_json(&a);
        let doc = rjam_obs::json::parse(&json).expect("valid JSON");
        let obj = doc.as_object().unwrap();
        assert_eq!(obj["scope_samples"].as_u64(), Some(8));
        assert_eq!(obj["one_to_one"].as_str(), None); // bool, not string
        assert!(json.contains("\"markers\":"));
        // Envelope digest reacts to the samples.
        let mut b = a.clone();
        b.scope.capture(&[rjam_sdr::complex::Cf64::new(0.1, 0.0)]);
        assert_ne!(json, wimax_json(&b));
    }

    #[test]
    fn session_report_renders_events() {
        let events = vec![
            CoreEvent::EnergyHigh {
                sample: 100,
                cycle: 401,
            },
            CoreEvent::XcorrDetection {
                sample: 163,
                cycle: 653,
                metric: 140_000,
            },
            CoreEvent::JamTrigger {
                sample: 163,
                cycle: 653,
            },
        ];
        let jams = vec![rjam_fpga::jammer::JamEvent {
            trigger_sample: 163,
            trigger_cycle: 653,
            start_cycle: 661,
            end_cycle: Some(3161),
        }];
        let rep = session_report(&events, &jams, 1000);
        assert!(rep.contains("energy rise"), "{rep}");
        assert!(rep.contains("JAM TRIGGER"), "{rep}");
        assert!(rep.contains("25.0 us"), "{rep}");
        assert!(rep.contains("response 80 ns"), "{rep}");
        assert!(rep.contains("3 events, 1 jam bursts"), "{rep}");
    }

    #[test]
    fn session_report_from_live_core() {
        use crate::{DetectionPreset, JammerPreset, ReactiveJammer};
        let mut j = ReactiveJammer::new(
            DetectionPreset::EnergyRise { threshold_db: 6.0 },
            JammerPreset::Reactive {
                uptime_s: 4e-5,
                waveform: rjam_fpga::JamWaveform::Wgn,
            },
        );
        let mut stream = vec![rjam_sdr::complex::Cf64::new(0.001, 0.0); 300];
        stream.extend(vec![rjam_sdr::complex::Cf64::new(0.2, 0.2); 400]);
        j.process_block(&stream);
        let rep = session_report(j.events(), j.jam_events(), 0);
        assert!(rep.contains("JAM TRIGGER"), "{rep}");
        assert!(rep.contains("RF burst"), "{rep}");
    }
}
