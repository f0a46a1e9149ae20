//! Serializable campaign requests — the job vocabulary of `rjamd`.
//!
//! [`crate::campaign::CampaignSpec`] builders are ordinary Rust values;
//! a campaign *service* needs the same vocabulary as data. This module
//! defines [`CampaignRequest`], a typed, validated, JSON-round-trippable
//! description of every campaign a job can run, plus [`JobCheckpoint`],
//! the persisted shard progress that makes cancel + resume possible.
//!
//! The boundary contract is **reject-before-enqueue**: a request is parsed
//! into typed fields and [`CampaignRequest::validate`]d before any work is
//! scheduled, so a malformed job never occupies a queue slot. Validation
//! errors are typed ([`SpecError`]) and name the offending field.
//!
//! Determinism: [`CampaignRequest::run_to_export`] drives the same
//! checkpointable campaign runners the direct API uses, so a job's export
//! bytes are identical to calling the [`crate::campaign`] builders in
//! process — interrupted-and-resumed or not, at any thread count.
//!
//! ROC sweeps, false-alarm threshold grids and time-to-detect sweeps are
//! plain data too ([`crate::campaign::RocSpec`] is a base preset plus a
//! threshold list), but they are not job kinds yet: the end-to-end
//! benchmark matches the four kinds below exhaustively, so a fifth kind
//! has to land together with a change to that benchmark. Run them in
//! process.

use crate::campaign::{
    false_alarm_rate, CampaignSpec, ChannelModel, JammerUnderTest, JammingPoint, WifiEmission,
    WimaxCheckpoint,
};
use crate::engine::{CampaignEngine, CancelToken};
use crate::export;
use crate::presets::DetectionPreset;
use rjam_mac::MacObsDelta;
use rjam_obs::json::{self, Value};
use rjam_obs::ParseError;
use std::collections::BTreeMap;
use std::fmt;

/// Boundary error for campaign requests: either the JSON didn't parse
/// into the expected shape, or a typed field failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The request text/value was not a well-formed request object.
    Parse(ParseError),
    /// A field parsed but failed validation.
    Field {
        /// Dotted path of the rejected field (e.g. `"preset.threshold"`).
        field: &'static str,
        /// Human-readable constraint that was violated.
        reason: String,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Parse(e) => write!(f, "{e}"),
            SpecError::Field { field, reason } => write!(f, "invalid '{field}': {reason}"),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Parse(e) => Some(e),
            SpecError::Field { .. } => None,
        }
    }
}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> Self {
        SpecError::Parse(e)
    }
}

/// Largest Rayleigh channel a job may request, in taps at 25 MSPS. The
/// channel draws and convolves every tap per frame, so an unbounded count
/// could stall the daemon or abort it on a failed allocation; the stock
/// experiments use at most 12.
pub const MAX_CHANNEL_TAPS: usize = 64;

/// Longest simulated run a jamming job may request per SIR point, in
/// seconds of air: an hour, sixty times the paper's 60 s iperf runs. The
/// DES keeps a per-second bandwidth series and simulates every datagram,
/// so an unbounded duration would hold a worker (and its cancel) for as
/// long as it asked.
pub const MAX_JAMMING_DURATION_S: f64 = 3600.0;

/// Most engine work units one job may run. The engine sizes its result
/// slots and its to-do list by the unit count before any unit runs, so an
/// unbounded count could abort the daemon on a failed allocation. 2^18
/// units admit the paper's 30-minute false-alarm count (4.5 × 10^10
/// samples at 25 MSPS, 171 662 units of 2^18 samples). A `wimax` job's
/// units are 4 frames each, so it may ask for 2^20 frames (87 minutes of
/// downlink); its scope keeps a fixed window, and what grows with its
/// frames is the markers and the export, about 0.1 KB per frame each.
pub const MAX_JOB_UNITS: usize = 1 << 18;

fn field_err(field: &'static str, reason: impl Into<String>) -> SpecError {
    SpecError::Field {
        field,
        reason: reason.into(),
    }
}

/// A campaign a job can run, as data.
///
/// Mirrors the [`CampaignSpec`] builders one-to-one for the four job
/// kinds (see the module docs for the sweeps that are not job kinds yet).
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignRequest {
    /// A WiFi detection-probability sweep (Figs 6-8) exporting the
    /// detection CSV.
    WifiDetection {
        /// Detector personality.
        preset: DetectionPreset,
        /// What the transmitter emits each trial.
        emission: WifiEmission,
        /// Channel model between transmitter and detector.
        channel: ChannelModel,
        /// SNR grid in dB.
        snrs_db: Vec<f64>,
        /// Frames per SNR point.
        frames_per_point: usize,
        /// Campaign seed.
        seed: u64,
    },
    /// A noise-only false-alarm measurement exporting the rate JSON.
    FalseAlarm {
        /// Detector personality.
        preset: DetectionPreset,
        /// Total noise samples to stream.
        samples: usize,
        /// Campaign seed.
        seed: u64,
    },
    /// The WiMAX downlink detection/jamming experiment (Fig. 12)
    /// exporting the result JSON.
    Wimax {
        /// Fused correlator+energy detector (vs correlator alone).
        fused: bool,
        /// TDD downlink frames to receive.
        frames: usize,
        /// Receive SNR in dB.
        snr_db: f64,
        /// Correlation threshold fraction.
        threshold: f64,
        /// Campaign seed.
        seed: u64,
    },
    /// A Fig. 10/11 iperf jamming sweep exporting the jamming CSV.
    Jamming {
        /// Jammer variant under test.
        jammer: JammerUnderTest,
        /// SIR grid at the AP, dB.
        sirs_db: Vec<f64>,
        /// iperf duration per point, seconds.
        duration_s: f64,
        /// Campaign seed.
        seed: u64,
    },
}

impl CampaignRequest {
    /// The campaign kind tag used on the wire and in telemetry.
    pub fn kind(&self) -> &'static str {
        match self {
            CampaignRequest::WifiDetection { .. } => "wifi_detection",
            CampaignRequest::FalseAlarm { .. } => "false_alarm",
            CampaignRequest::Wimax { .. } => "wimax",
            CampaignRequest::Jamming { .. } => "jamming",
        }
    }

    /// Number of engine work units the request will run — the progress
    /// denominator a job reports.
    pub fn n_units(&self) -> usize {
        match self {
            CampaignRequest::WifiDetection {
                preset,
                emission,
                channel,
                snrs_db,
                frames_per_point,
                seed,
            } => CampaignSpec::wifi_detection(preset)
                .emission(*emission)
                .channel(*channel)
                .snrs(snrs_db)
                .trials(*frames_per_point)
                .seed(*seed)
                .n_units(),
            CampaignRequest::FalseAlarm {
                preset,
                samples,
                seed,
            } => CampaignSpec::false_alarm(preset)
                .samples(*samples)
                .seed(*seed)
                .n_units(),
            CampaignRequest::Wimax { frames, .. } => {
                CampaignSpec::wimax_detection().frames(*frames).n_units()
            }
            CampaignRequest::Jamming { sirs_db, .. } => sirs_db.len(),
        }
    }

    /// Checks every field against the constraints the builders and the
    /// detector hardware model impose, naming the first offender. A
    /// request that validates will run; this is the reject-before-enqueue
    /// gate the job queue relies on.
    pub fn validate(&self) -> Result<(), SpecError> {
        fn check_preset(preset: &DetectionPreset) -> Result<(), SpecError> {
            preset.validate().map_err(|e| {
                let field = match e.field {
                    "threshold" => "preset.threshold",
                    "threshold_db" => "preset.threshold_db",
                    "energy_db" => "preset.energy_db",
                    "id_cell" => "preset.id_cell",
                    _ => "preset.segment",
                };
                field_err(field, e.reason)
            })
        }
        fn check_grid(field: &'static str, grid: &[f64]) -> Result<(), SpecError> {
            if grid.is_empty() {
                return Err(field_err(field, "grid is empty"));
            }
            if let Some(bad) = grid.iter().find(|v| !v.is_finite()) {
                return Err(field_err(field, format!("{bad} is not finite")));
            }
            Ok(())
        }
        fn check_units(field: &'static str, units: usize) -> Result<(), SpecError> {
            if units > MAX_JOB_UNITS {
                return Err(field_err(
                    field,
                    format!("the job needs {units} work units, over the limit of {MAX_JOB_UNITS}"),
                ));
            }
            Ok(())
        }

        match self {
            CampaignRequest::WifiDetection {
                preset,
                emission,
                channel,
                snrs_db,
                frames_per_point,
                ..
            } => {
                check_preset(preset)?;
                if let WifiEmission::FullFrames { psdu_len } = emission {
                    if *psdu_len == 0 || *psdu_len > 4095 {
                        return Err(field_err(
                            "emission.psdu_len",
                            format!("{psdu_len} is not in 1..=4095"),
                        ));
                    }
                }
                if let ChannelModel::Rayleigh { taps, rms } = channel {
                    if !(1..=MAX_CHANNEL_TAPS).contains(taps) {
                        return Err(field_err(
                            "channel.taps",
                            format!("{taps} is not in 1..={MAX_CHANNEL_TAPS}"),
                        ));
                    }
                    if !rms.is_finite() || *rms <= 0.0 {
                        return Err(field_err("channel.rms", format!("{rms} is not positive")));
                    }
                }
                check_grid("snrs_db", snrs_db)?;
                if *frames_per_point == 0 {
                    return Err(field_err("trials", "0 frames per point"));
                }
                check_units("trials", self.n_units())
            }
            CampaignRequest::FalseAlarm {
                preset, samples, ..
            } => {
                check_preset(preset)?;
                if *samples == 0 {
                    return Err(field_err("samples", "0 noise samples"));
                }
                check_units("samples", self.n_units())
            }
            CampaignRequest::Wimax {
                fused,
                frames,
                snr_db,
                threshold,
                ..
            } => {
                if *frames == 0 {
                    return Err(field_err("frames", "0 downlink frames"));
                }
                check_units("frames", self.n_units())?;
                if !snr_db.is_finite() {
                    return Err(field_err("snr_db", format!("{snr_db} is not finite")));
                }
                CampaignSpec::wimax_detection()
                    .fused(*fused)
                    .threshold(*threshold)
                    .detection()
                    .validate()
                    .map_err(|e| field_err("threshold", e.reason))
            }
            CampaignRequest::Jamming {
                sirs_db,
                duration_s,
                ..
            } => {
                check_grid("sirs_db", sirs_db)?;
                if !(*duration_s > 0.0 && *duration_s <= MAX_JAMMING_DURATION_S) {
                    return Err(field_err(
                        "duration_s",
                        format!("{duration_s} is not in (0, {MAX_JAMMING_DURATION_S}] s"),
                    ));
                }
                check_units("sirs_db", self.n_units())
            }
        }
    }

    /// Runs the campaign to its canonical export bytes — exactly the
    /// string the corresponding [`crate::export`] function produces from a
    /// direct [`CampaignSpec`] run with the same parameters.
    ///
    /// `ckpt` persists completed shard work across interruptions; `cancel`
    /// stops the run between units, returning `None`. Running again with
    /// the same checkpoint resumes with only the missing units.
    pub fn run_to_export(
        &self,
        engine: &CampaignEngine,
        ckpt: &mut JobCheckpoint,
        cancel: Option<&CancelToken>,
    ) -> Option<String> {
        match self {
            CampaignRequest::WifiDetection {
                preset,
                emission,
                channel,
                snrs_db,
                frames_per_point,
                seed,
            } => {
                let points = CampaignSpec::wifi_detection(preset)
                    .emission(*emission)
                    .channel(*channel)
                    .snrs(snrs_db)
                    .trials(*frames_per_point)
                    .seed(*seed)
                    .run_ckpt(engine, &mut ckpt.wifi, cancel)?;
                Some(export::detection_csv(&points))
            }
            CampaignRequest::FalseAlarm {
                preset,
                samples,
                seed,
            } => {
                let (triggers, streamed) = CampaignSpec::false_alarm(preset)
                    .samples(*samples)
                    .seed(*seed)
                    .run_ckpt(engine, &mut ckpt.fa, cancel)?;
                Some(export::false_alarm_json(false_alarm_rate(
                    triggers, streamed,
                )))
            }
            CampaignRequest::Wimax {
                fused,
                frames,
                snr_db,
                threshold,
                seed,
            } => {
                let result = CampaignSpec::wimax_detection()
                    .fused(*fused)
                    .frames(*frames)
                    .snr_db(*snr_db)
                    .threshold(*threshold)
                    .seed(*seed)
                    .run_ckpt(engine, &mut ckpt.wimax, cancel)?;
                Some(export::wimax_json(&result))
            }
            CampaignRequest::Jamming {
                jammer,
                sirs_db,
                duration_s,
                seed,
            } => {
                let points = CampaignSpec::jamming(*jammer)
                    .sirs(sirs_db)
                    .duration_s(*duration_s)
                    .seed(*seed)
                    .run_ckpt(engine, &mut ckpt.jamming, cancel)?;
                Some(export::jamming_csv(&points))
            }
        }
    }

    /// Serializes to the request's canonical JSON object (the `spec`
    /// payload of an `rjam-job-v1` submit).
    pub fn to_value(&self) -> Value {
        let mut o = BTreeMap::new();
        o.insert("campaign".into(), Value::String(self.kind().into()));
        match self {
            CampaignRequest::WifiDetection {
                preset,
                emission,
                channel,
                snrs_db,
                frames_per_point,
                seed,
            } => {
                o.insert("preset".into(), preset_to_value(preset));
                o.insert("emission".into(), emission_to_value(emission));
                o.insert("channel".into(), channel_to_value(channel));
                o.insert("snrs_db".into(), grid_to_value(snrs_db));
                o.insert("trials".into(), Value::Number(*frames_per_point as f64));
                o.insert("seed".into(), Value::Number(*seed as f64));
            }
            CampaignRequest::FalseAlarm {
                preset,
                samples,
                seed,
            } => {
                o.insert("preset".into(), preset_to_value(preset));
                o.insert("samples".into(), Value::Number(*samples as f64));
                o.insert("seed".into(), Value::Number(*seed as f64));
            }
            CampaignRequest::Wimax {
                fused,
                frames,
                snr_db,
                threshold,
                seed,
            } => {
                o.insert("fused".into(), Value::Bool(*fused));
                o.insert("frames".into(), Value::Number(*frames as f64));
                o.insert("snr_db".into(), Value::Number(*snr_db));
                o.insert("threshold".into(), Value::Number(*threshold));
                o.insert("seed".into(), Value::Number(*seed as f64));
            }
            CampaignRequest::Jamming {
                jammer,
                sirs_db,
                duration_s,
                seed,
            } => {
                o.insert("jammer".into(), Value::String(jammer_id(*jammer).into()));
                o.insert("sirs_db".into(), grid_to_value(sirs_db));
                o.insert("duration_s".into(), Value::Number(*duration_s));
                o.insert("seed".into(), Value::Number(*seed as f64));
            }
        }
        Value::Object(o)
    }

    /// Parses a request from its JSON object form. Shape errors are
    /// [`SpecError::Parse`]; the result is **not** yet validated — callers
    /// decide when to apply [`CampaignRequest::validate`].
    pub fn from_value(v: &Value) -> Result<Self, SpecError> {
        let o = v.as_object().ok_or(ParseError::NotAnObject)?;
        let campaign = str_field(o, "campaign")?;
        match campaign {
            "wifi_detection" => Ok(CampaignRequest::WifiDetection {
                preset: preset_from(o)?,
                emission: emission_from(o)?,
                channel: channel_from(o)?,
                snrs_db: grid_from(o, "snrs_db")?,
                frames_per_point: usize_field(o, "trials")?,
                seed: u64_field(o, "seed")?,
            }),
            "false_alarm" => Ok(CampaignRequest::FalseAlarm {
                preset: preset_from(o)?,
                samples: usize_field(o, "samples")?,
                seed: u64_field(o, "seed")?,
            }),
            "wimax" => Ok(CampaignRequest::Wimax {
                fused: bool_field(o, "fused")?,
                frames: usize_field(o, "frames")?,
                snr_db: f64_field(o, "snr_db")?,
                threshold: f64_field(o, "threshold")?,
                seed: u64_field(o, "seed")?,
            }),
            "jamming" => Ok(CampaignRequest::Jamming {
                jammer: jammer_from_id(str_field(o, "jammer")?)?,
                sirs_db: grid_from(o, "sirs_db")?,
                duration_s: f64_field(o, "duration_s")?,
                seed: u64_field(o, "seed")?,
            }),
            other => Err(field_err(
                "campaign",
                format!(
                    "unknown campaign '{other}' \
                     (wifi_detection | false_alarm | wimax | jamming)"
                ),
            )),
        }
    }

    /// Parses and validates request text in one step — the full boundary
    /// gate.
    pub fn from_json(text: &str) -> Result<Self, SpecError> {
        let v = json::parse(text).map_err(ParseError::Json)?;
        let req = CampaignRequest::from_value(&v)?;
        req.validate()?;
        Ok(req)
    }

    /// Serializes to compact JSON text.
    pub fn to_json(&self) -> String {
        json::write_value(&self.to_value())
    }
}

fn grid_to_value(grid: &[f64]) -> Value {
    Value::Array(grid.iter().map(|&v| Value::Number(v)).collect())
}

fn preset_to_value(p: &DetectionPreset) -> Value {
    let mut o = BTreeMap::new();
    match p {
        DetectionPreset::WifiShortPreamble { threshold } => {
            o.insert("kind".into(), Value::String("wifi_short".into()));
            o.insert("threshold".into(), Value::Number(*threshold));
        }
        DetectionPreset::WifiLongPreamble { threshold } => {
            o.insert("kind".into(), Value::String("wifi_long".into()));
            o.insert("threshold".into(), Value::Number(*threshold));
        }
        DetectionPreset::WimaxPreamble {
            id_cell,
            segment,
            threshold,
        } => {
            o.insert("kind".into(), Value::String("wimax".into()));
            o.insert("id_cell".into(), Value::Number(*id_cell as f64));
            o.insert("segment".into(), Value::Number(*segment as f64));
            o.insert("threshold".into(), Value::Number(*threshold));
        }
        DetectionPreset::EnergyRise { threshold_db } => {
            o.insert("kind".into(), Value::String("energy_rise".into()));
            o.insert("threshold_db".into(), Value::Number(*threshold_db));
        }
        DetectionPreset::EnergyFall { threshold_db } => {
            o.insert("kind".into(), Value::String("energy_fall".into()));
            o.insert("threshold_db".into(), Value::Number(*threshold_db));
        }
        DetectionPreset::WimaxFused {
            id_cell,
            segment,
            threshold,
            energy_db,
        } => {
            o.insert("kind".into(), Value::String("wimax_fused".into()));
            o.insert("id_cell".into(), Value::Number(*id_cell as f64));
            o.insert("segment".into(), Value::Number(*segment as f64));
            o.insert("threshold".into(), Value::Number(*threshold));
            o.insert("energy_db".into(), Value::Number(*energy_db));
        }
    }
    Value::Object(o)
}

fn emission_to_value(e: &WifiEmission) -> Value {
    let mut o = BTreeMap::new();
    match e {
        WifiEmission::FullFrames { psdu_len } => {
            o.insert("kind".into(), Value::String("full_frames".into()));
            o.insert("psdu_len".into(), Value::Number(*psdu_len as f64));
        }
        WifiEmission::SingleShortPreamble => {
            o.insert("kind".into(), Value::String("single_short".into()));
        }
        WifiEmission::SingleLongPreamble => {
            o.insert("kind".into(), Value::String("single_long".into()));
        }
    }
    Value::Object(o)
}

fn channel_to_value(c: &ChannelModel) -> Value {
    let mut o = BTreeMap::new();
    match c {
        ChannelModel::Awgn => {
            o.insert("kind".into(), Value::String("awgn".into()));
        }
        ChannelModel::Rayleigh { taps, rms } => {
            o.insert("kind".into(), Value::String("rayleigh".into()));
            o.insert("taps".into(), Value::Number(*taps as f64));
            o.insert("rms".into(), Value::Number(*rms));
        }
    }
    Value::Object(o)
}

/// Wire identifier of a jammer variant.
pub fn jammer_id(j: JammerUnderTest) -> &'static str {
    match j {
        JammerUnderTest::Off => "off",
        JammerUnderTest::Continuous => "continuous",
        JammerUnderTest::ReactiveLong => "reactive_long",
        JammerUnderTest::ReactiveShort => "reactive_short",
    }
}

/// Inverse of [`jammer_id`].
pub fn jammer_from_id(id: &str) -> Result<JammerUnderTest, SpecError> {
    match id {
        "off" => Ok(JammerUnderTest::Off),
        "continuous" => Ok(JammerUnderTest::Continuous),
        "reactive_long" => Ok(JammerUnderTest::ReactiveLong),
        "reactive_short" => Ok(JammerUnderTest::ReactiveShort),
        other => Err(field_err(
            "jammer",
            format!("unknown jammer '{other}' (off | continuous | reactive_long | reactive_short)"),
        )),
    }
}

type Obj = BTreeMap<String, Value>;

fn str_field<'a>(o: &'a Obj, field: &'static str) -> Result<&'a str, ParseError> {
    o.get(field)
        .and_then(Value::as_str)
        .ok_or(ParseError::Field {
            field: field.to_string(),
            expected: "string",
        })
}

fn f64_field(o: &Obj, field: &'static str) -> Result<f64, ParseError> {
    o.get(field)
        .and_then(Value::as_f64)
        .ok_or(ParseError::Field {
            field: field.to_string(),
            expected: "number",
        })
}

fn u64_field(o: &Obj, field: &'static str) -> Result<u64, ParseError> {
    o.get(field)
        .and_then(Value::as_u64)
        .ok_or(ParseError::Field {
            field: field.to_string(),
            expected: "non-negative integer",
        })
}

fn usize_field(o: &Obj, field: &'static str) -> Result<usize, ParseError> {
    u64_field(o, field).map(|v| v as usize)
}

fn bool_field(o: &Obj, field: &'static str) -> Result<bool, ParseError> {
    match o.get(field) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(ParseError::Field {
            field: field.to_string(),
            expected: "boolean",
        }),
    }
}

fn obj_field<'a>(o: &'a Obj, field: &'static str) -> Result<&'a Obj, ParseError> {
    o.get(field)
        .and_then(Value::as_object)
        .ok_or(ParseError::Field {
            field: field.to_string(),
            expected: "object",
        })
}

fn grid_from(o: &Obj, field: &'static str) -> Result<Vec<f64>, SpecError> {
    let arr = o
        .get(field)
        .and_then(Value::as_array)
        .ok_or(ParseError::Field {
            field: field.to_string(),
            expected: "array of numbers",
        })?;
    arr.iter()
        .map(|v| {
            v.as_f64().ok_or_else(|| {
                ParseError::Field {
                    field: field.to_string(),
                    expected: "array of numbers",
                }
                .into()
            })
        })
        .collect()
}

fn preset_from(o: &Obj) -> Result<DetectionPreset, SpecError> {
    let p = obj_field(o, "preset")?;
    let kind = str_field(p, "kind")?;
    let u8_of = |field: &'static str| -> Result<u8, ParseError> {
        u64_field(p, field).map(|v| v.min(u8::MAX as u64) as u8)
    };
    match kind {
        "wifi_short" => Ok(DetectionPreset::WifiShortPreamble {
            threshold: f64_field(p, "threshold")?,
        }),
        "wifi_long" => Ok(DetectionPreset::WifiLongPreamble {
            threshold: f64_field(p, "threshold")?,
        }),
        "wimax" => Ok(DetectionPreset::WimaxPreamble {
            id_cell: u8_of("id_cell")?,
            segment: u8_of("segment")?,
            threshold: f64_field(p, "threshold")?,
        }),
        "energy_rise" => Ok(DetectionPreset::EnergyRise {
            threshold_db: f64_field(p, "threshold_db")?,
        }),
        "energy_fall" => Ok(DetectionPreset::EnergyFall {
            threshold_db: f64_field(p, "threshold_db")?,
        }),
        "wimax_fused" => Ok(DetectionPreset::WimaxFused {
            id_cell: u8_of("id_cell")?,
            segment: u8_of("segment")?,
            threshold: f64_field(p, "threshold")?,
            energy_db: f64_field(p, "energy_db")?,
        }),
        other => Err(field_err(
            "preset.kind",
            format!(
                "unknown preset '{other}' (wifi_short | wifi_long | wimax | \
                 energy_rise | energy_fall | wimax_fused)"
            ),
        )),
    }
}

fn emission_from(o: &Obj) -> Result<WifiEmission, SpecError> {
    let e = obj_field(o, "emission")?;
    match str_field(e, "kind")? {
        "full_frames" => Ok(WifiEmission::FullFrames {
            psdu_len: usize_field(e, "psdu_len")?,
        }),
        "single_short" => Ok(WifiEmission::SingleShortPreamble),
        "single_long" => Ok(WifiEmission::SingleLongPreamble),
        other => Err(field_err(
            "emission.kind",
            format!("unknown emission '{other}' (full_frames | single_short | single_long)"),
        )),
    }
}

fn channel_from(o: &Obj) -> Result<ChannelModel, SpecError> {
    let c = obj_field(o, "channel")?;
    match str_field(c, "kind")? {
        "awgn" => Ok(ChannelModel::Awgn),
        "rayleigh" => Ok(ChannelModel::Rayleigh {
            taps: usize_field(c, "taps")?,
            rms: f64_field(c, "rms")?,
        }),
        other => Err(field_err(
            "channel.kind",
            format!("unknown channel '{other}' (awgn | rayleigh)"),
        )),
    }
}

/// Persisted shard progress of a job — what survives a cancel.
///
/// The detection, false-alarm and jamming kinds store their per-unit
/// results keyed by original unit index, exactly the `done` maps their
/// `run_ckpt` methods consume. A WiMAX job stores its ordered fold: the
/// tally of the units folded so far plus the units that finished out of
/// order. The checkpoint lives only inside the `rjamd` process; it has no
/// wire form.
#[derive(Default)]
pub struct JobCheckpoint {
    wifi: BTreeMap<usize, Vec<(usize, usize)>>,
    fa: BTreeMap<usize, Vec<usize>>,
    wimax: WimaxCheckpoint,
    jamming: BTreeMap<usize, (JammingPoint, MacObsDelta)>,
}

impl JobCheckpoint {
    /// An empty checkpoint (no completed units).
    pub fn new() -> Self {
        JobCheckpoint::default()
    }

    /// Completed units recorded so far, folded or not.
    pub fn units_done(&self) -> usize {
        self.wifi.len() + self.fa.len() + self.wimax.units_done() + self.jamming.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wifi_request() -> CampaignRequest {
        CampaignRequest::WifiDetection {
            preset: DetectionPreset::WifiShortPreamble { threshold: 0.30 },
            emission: WifiEmission::FullFrames { psdu_len: 60 },
            channel: ChannelModel::Awgn,
            snrs_db: vec![-4.0, 0.0, 5.0],
            frames_per_point: 24,
            seed: 7,
        }
    }

    #[test]
    fn requests_round_trip_through_json() {
        let reqs = [
            wifi_request(),
            CampaignRequest::FalseAlarm {
                preset: DetectionPreset::EnergyRise { threshold_db: 10.0 },
                samples: 1 << 19,
                seed: 3,
            },
            CampaignRequest::Wimax {
                fused: true,
                frames: 8,
                snr_db: 20.0,
                threshold: 0.45,
                seed: 1,
            },
            CampaignRequest::Jamming {
                jammer: JammerUnderTest::ReactiveShort,
                sirs_db: vec![0.0, 10.0],
                duration_s: 0.25,
                seed: 9,
            },
        ];
        for req in reqs {
            let text = req.to_json();
            let back = CampaignRequest::from_json(&text).expect("round trip");
            assert_eq!(back, req, "{text}");
        }
    }

    fn wifi_with(f: impl FnOnce(&mut CampaignRequest)) -> CampaignRequest {
        let mut req = wifi_request();
        f(&mut req);
        req
    }

    #[test]
    fn validation_rejects_before_enqueue() {
        let empty_grid = wifi_with(|r| {
            if let CampaignRequest::WifiDetection { snrs_db, .. } = r {
                snrs_db.clear();
            }
        });
        let zero_trials = wifi_with(|r| {
            if let CampaignRequest::WifiDetection {
                frames_per_point, ..
            } = r
            {
                *frames_per_point = 0;
            }
        });
        let bad_threshold = wifi_with(|r| {
            if let CampaignRequest::WifiDetection { preset, .. } = r {
                *preset = DetectionPreset::WifiShortPreamble { threshold: 1.5 };
            }
        });
        let cases: Vec<(CampaignRequest, &str)> = vec![
            (empty_grid, "snrs_db"),
            (zero_trials, "trials"),
            (bad_threshold, "preset.threshold"),
            // In (0, 1], but it compiles to a zero correlator threshold.
            (
                CampaignRequest::FalseAlarm {
                    preset: DetectionPreset::WifiShortPreamble { threshold: 1e-9 },
                    samples: 1,
                    seed: 0,
                },
                "preset.threshold",
            ),
            (
                CampaignRequest::Wimax {
                    fused: true,
                    frames: 4,
                    snr_db: 20.0,
                    threshold: 1e-9,
                    seed: 0,
                },
                "threshold",
            ),
            (
                CampaignRequest::FalseAlarm {
                    preset: DetectionPreset::EnergyRise { threshold_db: 40.0 },
                    samples: 1,
                    seed: 0,
                },
                "preset.threshold_db",
            ),
            (
                CampaignRequest::Jamming {
                    jammer: JammerUnderTest::Off,
                    sirs_db: vec![1.0],
                    duration_s: 0.0,
                    seed: 0,
                },
                "duration_s",
            ),
        ];
        for (req, field) in cases {
            let err = req.validate().expect_err("must reject");
            assert!(err.to_string().contains(field), "{err} should name {field}");
        }
    }

    #[test]
    fn channel_taps_are_bounded() {
        let with_taps = |taps| {
            wifi_with(|r| {
                if let CampaignRequest::WifiDetection { channel, .. } = r {
                    *channel = ChannelModel::Rayleigh { taps, rms: 2.0 };
                }
            })
        };
        for taps in [1, 8, MAX_CHANNEL_TAPS] {
            with_taps(taps).validate().expect("in range");
        }
        for taps in [0, MAX_CHANNEL_TAPS + 1, 1_000_000_000_000] {
            let err = with_taps(taps).validate().expect_err("out of range");
            assert!(
                matches!(
                    &err,
                    SpecError::Field {
                        field: "channel.taps",
                        ..
                    }
                ),
                "{err}"
            );
        }
        // The wire path rejects it the same way, before anything runs.
        let line = with_taps(8)
            .to_json()
            .replace("\"taps\":8", "\"taps\":1000000000000");
        let err = CampaignRequest::from_json(&line).expect_err("rejects");
        assert!(err.to_string().contains("channel.taps"), "{err}");
    }

    #[test]
    fn jamming_duration_is_bounded() {
        let with_duration = |duration_s| CampaignRequest::Jamming {
            jammer: JammerUnderTest::ReactiveLong,
            sirs_db: vec![14.0],
            duration_s,
            seed: 1,
        };
        // The paper's 60 s runs and every figure, CI and benchmark setting.
        for d in [0.02, 0.5, 1.0, 3.0, 6.0, 10.0, 60.0, MAX_JAMMING_DURATION_S] {
            with_duration(d).validate().expect("in range");
        }
        for d in [
            MAX_JAMMING_DURATION_S * 1.001,
            1e15,
            f64::INFINITY,
            f64::NAN,
        ] {
            let err = with_duration(d).validate().expect_err("out of range");
            assert!(
                matches!(&err, SpecError::Field { field: "duration_s", reason }
                    if reason.contains("3600")),
                "{err}"
            );
        }
    }

    #[test]
    fn job_size_is_bounded() {
        let fa = |samples| CampaignRequest::FalseAlarm {
            preset: DetectionPreset::WifiShortPreamble { threshold: 0.3 },
            samples,
            seed: 1,
        };
        let wifi = |trials, n_snrs| {
            wifi_with(|r| {
                if let CampaignRequest::WifiDetection {
                    frames_per_point,
                    snrs_db,
                    ..
                } = r
                {
                    *frames_per_point = trials;
                    *snrs_db = vec![6.0; n_snrs];
                }
            })
        };
        let wimax = |frames| CampaignRequest::Wimax {
            fused: true,
            frames,
            snr_db: 10.0,
            threshold: 0.45,
            seed: 1,
        };
        let jamming = |n_sirs| CampaignRequest::Jamming {
            jammer: JammerUnderTest::Off,
            sirs_db: vec![14.0; n_sirs],
            duration_s: 0.02,
            seed: 1,
        };
        let fa_unit = 1 << 18;
        for ok in [
            fa(45_000_000_000),
            fa(MAX_JOB_UNITS * fa_unit),
            wifi(MAX_JOB_UNITS * 8, 1),
            wimax(24),
            wimax(MAX_JOB_UNITS * 4),
            jamming(MAX_JOB_UNITS),
        ] {
            ok.validate().unwrap_or_else(|e| panic!("{e}: {ok:?}"));
        }
        let big = 1usize << 53;
        for (bad, field, limit) in [
            (fa(big), "samples", MAX_JOB_UNITS),
            (fa(MAX_JOB_UNITS * fa_unit + 1), "samples", MAX_JOB_UNITS),
            (wifi(big, 1), "trials", MAX_JOB_UNITS),
            (wifi(big, 1 << 14), "trials", MAX_JOB_UNITS),
            (wimax(big), "frames", MAX_JOB_UNITS),
            (wimax(MAX_JOB_UNITS * 4 + 1), "frames", MAX_JOB_UNITS),
            (jamming(MAX_JOB_UNITS + 1), "sirs_db", MAX_JOB_UNITS),
        ] {
            let err = bad.validate().expect_err("over the limit");
            assert!(
                matches!(&err, SpecError::Field { field: f, reason }
                    if *f == field && reason.contains(&limit.to_string())),
                "{err} should name {field} and {limit}"
            );
        }
    }

    #[test]
    fn unknown_kinds_are_named_in_errors() {
        let err = CampaignRequest::from_json(r#"{"campaign":"roc"}"#).expect_err("rejects");
        assert!(err.to_string().contains("unknown campaign 'roc'"), "{err}");
        let err = CampaignRequest::from_json("not json").expect_err("rejects");
        assert!(matches!(err, SpecError::Parse(_)));
    }

    #[test]
    fn cancelled_job_resumes_to_identical_export() {
        let engine = CampaignEngine::with_threads(2);
        let req = wifi_request();
        let direct = req
            .run_to_export(&engine, &mut JobCheckpoint::new(), None)
            .expect("uncancelled run completes");

        let token = CancelToken::new();
        token.cancel();
        let mut ckpt = JobCheckpoint::new();
        assert!(req
            .run_to_export(&engine, &mut ckpt, Some(&token))
            .is_none());

        let fresh = CancelToken::new();
        let resumed = req
            .run_to_export(&engine, &mut ckpt, Some(&fresh))
            .expect("resume completes");
        assert_eq!(resumed, direct, "resumed export must be byte-identical");
    }
}
