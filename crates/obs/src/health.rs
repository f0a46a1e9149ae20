//! Online link-health monitoring: the line-delimited `rjam-health-v1`
//! protocol plus the streaming detectors that drive it.
//!
//! The paper's operator watches the link die on a spectrum scope; this
//! reproduction's equivalent is a [`HealthMonitor`] that judges the frame
//! outcomes the MAC scenario loop feeds it *while a run is in flight* and
//! says "the link just collapsed" the moment it happens. It evaluates a
//! typed rule set over those frames alone —
//!
//! | rule            | metric         | detector           |
//! |-----------------|----------------|--------------------|
//! | `prr_collapse`  | `mac.prr`      | CUSUM vs reference |
//! | `trigger_storm` | `mac.jam_rate` | Page–Hinkley       |
//!
//! — and logs its verdicts as [`HealthEvent`]s, one JSON object per line
//! (NDJSON) when serialised:
//!
//! ```text
//! {"v":"rjam-health-v1","ev":"baseline_established","metric":"mac.prr",...}
//! {"v":"rjam-health-v1","ev":"alarm_raised","rule":"prr_collapse",...}
//! {"v":"rjam-health-v1","ev":"alarm_cleared","rule":"prr_collapse",...}
//! {"v":"rjam-health-v1","ev":"run_summary","alarms_raised":1,...}
//! ```
//!
//! The log belongs to the monitor: [`HealthMonitor::events`] returns it,
//! and `rjamctl monitor --out FILE` writes it once the run has finished.
//!
//! Alarms carry *cause attribution*: the monitor's own most recent
//! degraded `FrameId`s. The MAC feed also leaves a `health.frame_degraded`
//! event per lost/jammed frame in the global flight recorder, for snapshots
//! and post-mortems.
//!
//! The detectors ([`EwmaBaseline`], [`Cusum`] and [`PageHinkley`], which
//! the two rules use, and [`RollingQuantile`]) are allocation-free after
//! construction and read no registry or recorder, so they are always
//! compiled, like the protocol types and parser (validators must read
//! streams even in `--no-default-features` builds); only the monitor
//! compiles to a zero-sized no-op without the `obs` feature.

use crate::json;
use crate::proto::{self, Envelope, ParseError, Protocol};
use std::borrow::Cow;

/// The protocol descriptor for this stream.
pub const PROTOCOL: Protocol = Protocol::HEALTH;

/// Schema tag carried by every `rjam-health-v1` line.
pub const SCHEMA: &str = PROTOCOL.tag;

/// One event of the `rjam-health-v1` stream.
///
/// Rule, metric and detector names are `Cow`s: events the monitor raises
/// borrow its static vocabulary, and only parsed events own their text.
#[derive(Clone, Debug, PartialEq)]
pub enum HealthEvent {
    /// A rule's baseline detector has seen enough samples to judge.
    Baseline {
        /// Metric the baseline describes (`mac.prr`).
        metric: Cow<'static, str>,
        /// Detector that established it (`ewma`).
        detector: Cow<'static, str>,
        /// Baseline mean at establishment.
        mean: f64,
        /// Frames the baseline consumed.
        samples: u64,
    },
    /// A rule tripped.
    AlarmRaised {
        /// Rule name (`prr_collapse`, `trigger_storm`, ...).
        rule: Cow<'static, str>,
        /// Metric the rule watches.
        metric: Cow<'static, str>,
        /// Detector that tripped (`cusum`, `page_hinkley`, ...).
        detector: Cow<'static, str>,
        /// Detector statistic at the trip.
        stat: f64,
        /// Threshold the statistic crossed.
        threshold: f64,
        /// Frame count at the trip (jam onset is frame 0).
        frame: u64,
        /// The raising monitor's last (up to 8) degraded `FrameId`s,
        /// oldest first.
        frames: Vec<u64>,
    },
    /// A previously raised rule recovered.
    AlarmCleared {
        /// Rule name.
        rule: Cow<'static, str>,
        /// Metric the rule watches.
        metric: Cow<'static, str>,
        /// Frame count at the clear.
        frame: u64,
    },
    /// The run finished: emitted once, last.
    RunSummary {
        /// Frames the monitor observed.
        frames: u64,
        /// Alarms raised over the whole run.
        alarms_raised: u64,
        /// Alarms still active at the end.
        alarms_active: u64,
        /// `true` iff no alarm was raised at any point.
        healthy: bool,
    },
}

fn hex_id(id: u64) -> String {
    proto::hex_u64_json(id)
}

impl HealthEvent {
    /// Serialises to one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        let num = |v: u64| json::write_number(v as f64);
        match self {
            HealthEvent::Baseline {
                metric,
                detector,
                mean,
                samples,
            } => format!(
                "{{\"v\":{},\"ev\":\"baseline_established\",\"metric\":{},\
                 \"detector\":{},\"mean\":{},\"samples\":{}}}",
                json::write_string(SCHEMA),
                json::write_string(metric),
                json::write_string(detector),
                json::write_number(*mean),
                num(*samples),
            ),
            HealthEvent::AlarmRaised {
                rule,
                metric,
                detector,
                stat,
                threshold,
                frame,
                frames,
            } => format!(
                "{{\"v\":{},\"ev\":\"alarm_raised\",\"rule\":{},\"metric\":{},\
                 \"detector\":{},\"stat\":{},\"threshold\":{},\"frame\":{},\
                 \"frames\":[{}]}}",
                json::write_string(SCHEMA),
                json::write_string(rule),
                json::write_string(metric),
                json::write_string(detector),
                json::write_number(*stat),
                json::write_number(*threshold),
                num(*frame),
                frames
                    .iter()
                    .map(|f| hex_id(*f))
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            HealthEvent::AlarmCleared {
                rule,
                metric,
                frame,
            } => format!(
                "{{\"v\":{},\"ev\":\"alarm_cleared\",\"rule\":{},\"metric\":{},\
                 \"frame\":{}}}",
                json::write_string(SCHEMA),
                json::write_string(rule),
                json::write_string(metric),
                num(*frame),
            ),
            HealthEvent::RunSummary {
                frames,
                alarms_raised,
                alarms_active,
                healthy,
            } => format!(
                "{{\"v\":{},\"ev\":\"run_summary\",\"frames\":{},\
                 \"alarms_raised\":{},\"alarms_active\":{},\"healthy\":{}}}",
                json::write_string(SCHEMA),
                num(*frames),
                num(*alarms_raised),
                num(*alarms_active),
                num(u64::from(*healthy)),
            ),
        }
    }

    /// Parses one NDJSON line back into an event.
    pub fn from_line(line: &str) -> Result<Self, ParseError> {
        let env = Envelope::parse(&PROTOCOL, line)?;
        let o = env.root();
        match env.event("ev")? {
            "baseline_established" => Ok(HealthEvent::Baseline {
                metric: o.str("metric")?.to_owned().into(),
                detector: o.str("detector")?.to_owned().into(),
                mean: o.f64("mean")?,
                samples: o.u64("samples")?,
            }),
            "alarm_raised" => Ok(HealthEvent::AlarmRaised {
                rule: o.str("rule")?.to_owned().into(),
                metric: o.str("metric")?.to_owned().into(),
                detector: o.str("detector")?.to_owned().into(),
                stat: o.f64("stat")?,
                threshold: o.f64("threshold")?,
                frame: o.u64("frame")?,
                frames: o
                    .array("frames")?
                    .iter()
                    .map(|v| {
                        let s = v
                            .as_str()
                            .ok_or_else(|| ParseError::invalid("frame id is not a string"))?;
                        proto::parse_hex_u64("frame id", s)
                    })
                    .collect::<Result<Vec<_>, ParseError>>()?,
            }),
            "alarm_cleared" => Ok(HealthEvent::AlarmCleared {
                rule: o.str("rule")?.to_owned().into(),
                metric: o.str("metric")?.to_owned().into(),
                frame: o.u64("frame")?,
            }),
            "run_summary" => Ok(HealthEvent::RunSummary {
                frames: o.u64("frames")?,
                alarms_raised: o.u64("alarms_raised")?,
                alarms_active: o.u64("alarms_active")?,
                healthy: o.u64("healthy")? != 0,
            }),
            other => Err(ParseError::UnknownEvent {
                found: other.to_string(),
            }),
        }
    }
}

/// Parses a whole NDJSON stream, reporting the first bad line.
///
/// Blank lines are rejected (a truncated write must not pass silently);
/// only a single trailing newline is tolerated.
pub fn parse_stream(text: &str) -> Result<Vec<HealthEvent>, ParseError> {
    proto::parse_ndjson(text, HealthEvent::from_line)
}

/// Validates a complete monitor stream: exactly one `run_summary` last,
/// raise/clear pairs consistent per rule, at most one baseline per metric,
/// frame counts monotone, and summary totals matching the event log.
pub fn validate_chain(events: &[HealthEvent]) -> Result<(), String> {
    let Some(HealthEvent::RunSummary {
        alarms_raised,
        alarms_active,
        healthy,
        ..
    }) = events.last()
    else {
        return Err("stream does not end with run_summary".into());
    };
    let mut active = std::collections::BTreeSet::new();
    let mut baselined = std::collections::BTreeSet::new();
    let mut raised = 0u64;
    let mut last_frame = 0u64;
    for (k, ev) in events.iter().enumerate() {
        match ev {
            HealthEvent::RunSummary { .. } if k + 1 != events.len() => {
                return Err(format!("event {k}: run_summary before end of stream"));
            }
            HealthEvent::RunSummary { .. } => {}
            HealthEvent::Baseline { metric, .. } => {
                if !baselined.insert(metric.as_ref()) {
                    return Err(format!("event {k}: duplicate baseline for metric {metric}"));
                }
            }
            HealthEvent::AlarmRaised { rule, frame, .. } => {
                if !active.insert(rule.as_ref()) {
                    return Err(format!(
                        "event {k}: alarm_raised for rule {rule} while already active"
                    ));
                }
                raised += 1;
                if *frame < last_frame {
                    return Err(format!(
                        "event {k}: frame {frame} ran backwards (was {last_frame})"
                    ));
                }
                last_frame = *frame;
            }
            HealthEvent::AlarmCleared { rule, frame, .. } => {
                if !active.remove(rule.as_ref()) {
                    return Err(format!(
                        "event {k}: alarm_cleared for rule {rule} without an active alarm"
                    ));
                }
                if *frame < last_frame {
                    return Err(format!(
                        "event {k}: frame {frame} ran backwards (was {last_frame})"
                    ));
                }
                last_frame = *frame;
            }
        }
    }
    if *alarms_raised != raised {
        return Err(format!(
            "run_summary alarms_raised {alarms_raised} != {raised} alarm_raised events"
        ));
    }
    if *alarms_active != active.len() as u64 {
        return Err(format!(
            "run_summary alarms_active {alarms_active} != {} still-active alarms",
            active.len()
        ));
    }
    if *healthy != (raised == 0) {
        return Err(format!(
            "run_summary healthy={healthy} contradicts {raised} raised alarms"
        ));
    }
    Ok(())
}

/// Final health of a monitored run, as returned by [`HealthMonitor::finish`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HealthVerdict {
    /// `true` iff no alarm was raised at any point.
    pub healthy: bool,
    /// Alarms raised over the whole run.
    pub alarms_raised: u64,
    /// Alarms still active at the end.
    pub alarms_active: u64,
    /// Frames the monitor observed.
    pub frames: u64,
}

/// Exponentially weighted mean baseline.
///
/// The first sample seeds the mean; each later one moves it by `alpha`
/// times its distance from the mean.
#[derive(Clone, Copy, Debug)]
pub struct EwmaBaseline {
    alpha: f64,
    mean: f64,
    seeded: bool,
}

impl EwmaBaseline {
    /// A fresh baseline with smoothing factor `alpha` in (0, 1].
    pub fn new(alpha: f64) -> Self {
        EwmaBaseline {
            alpha,
            mean: 0.0,
            seeded: false,
        }
    }

    /// Absorbs one observation.
    pub fn update(&mut self, x: f64) {
        if self.seeded {
            self.mean += self.alpha * (x - self.mean);
        } else {
            self.mean = x;
            self.seeded = true;
        }
    }

    /// Current smoothed mean (0 before any sample).
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

/// One-sided CUSUM accumulator over deviations from a reference.
///
/// Feed it `reference - observed` (so positive deviations are bad);
/// deviations below `slack` are absorbed as noise, sustained excess
/// accumulates until `threshold` trips.
#[derive(Clone, Copy, Debug)]
pub struct Cusum {
    slack: f64,
    threshold: f64,
    stat: f64,
}

impl Cusum {
    /// A fresh accumulator.
    pub fn new(slack: f64, threshold: f64) -> Self {
        Cusum {
            slack,
            threshold,
            stat: 0.0,
        }
    }

    /// Absorbs one deviation; returns `true` while at/over threshold.
    pub fn update(&mut self, deviation: f64) -> bool {
        self.stat = (self.stat + deviation - self.slack).max(0.0);
        self.stat >= self.threshold
    }

    /// Current accumulated statistic.
    pub fn stat(&self) -> f64 {
        self.stat
    }

    /// Trip threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Drops the accumulated statistic back to zero.
    pub fn reset(&mut self) {
        self.stat = 0.0;
    }
}

/// Page–Hinkley upward change-point detector.
///
/// Accumulates `x - running_mean - delta`; trips when the accumulator
/// rises more than `lambda` above its own minimum. A constant input —
/// even a constantly *bad* one — never trips: this detects *changes*,
/// which is why the monitor pairs it with the absolute-reference CUSUM.
#[derive(Clone, Copy, Debug)]
pub struct PageHinkley {
    delta: f64,
    lambda: f64,
    mean: f64,
    n: u64,
    cum: f64,
    cum_min: f64,
}

impl PageHinkley {
    /// A fresh detector with drift allowance `delta`, threshold `lambda`.
    pub fn new(delta: f64, lambda: f64) -> Self {
        PageHinkley {
            delta,
            lambda,
            mean: 0.0,
            n: 0,
            cum: 0.0,
            cum_min: 0.0,
        }
    }

    /// Absorbs one observation; returns `true` while tripped.
    pub fn update(&mut self, x: f64) -> bool {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.cum += x - self.mean - self.delta;
        self.cum_min = self.cum_min.min(self.cum);
        self.stat() > self.lambda
    }

    /// Current statistic (`cum - min(cum)`).
    pub fn stat(&self) -> f64 {
        self.cum - self.cum_min
    }

    /// Forgets everything, including the running mean.
    pub fn reset(&mut self) {
        *self = PageHinkley::new(self.delta, self.lambda);
    }
}

/// Fixed-capacity rolling-window quantile estimator.
///
/// Both the ring and the sort scratch are allocated once at
/// construction; `push` and `quantile` never allocate.
#[derive(Clone, Debug)]
pub struct RollingQuantile {
    ring: Vec<f64>,
    scratch: Vec<f64>,
    head: usize,
    len: usize,
}

impl RollingQuantile {
    /// A window holding the last `capacity` (>= 1) observations.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RollingQuantile {
            ring: vec![0.0; capacity],
            scratch: vec![0.0; capacity],
            head: 0,
            len: 0,
        }
    }

    /// Pushes one observation, evicting the oldest when full.
    pub fn push(&mut self, x: f64) {
        self.ring[self.head] = x;
        self.head = (self.head + 1) % self.ring.len();
        self.len = (self.len + 1).min(self.ring.len());
    }

    /// Observations currently in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no observation has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Quantile `q` (clamped to [0, 1]) of the window; 0 when empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.len == 0 {
            return 0.0;
        }
        self.scratch[..self.len].copy_from_slice(&self.ring[..self.len]);
        self.scratch[..self.len].sort_unstable_by(f64::total_cmp);
        let idx = (q.clamp(0.0, 1.0) * (self.len - 1) as f64).round() as usize;
        self.scratch[idx]
    }
}

#[cfg(feature = "obs")]
mod enabled {
    use super::{Cusum, EwmaBaseline, HealthEvent, HealthVerdict, PageHinkley};
    use crate::registry;

    /// Windows before the PRR baseline is declared established.
    const BASELINE_WINDOWS: u64 = 1;
    /// Consecutive healthy windows before an alarm clears.
    const CLEAR_WINDOWS: u64 = 4;
    /// Reference PRR of a healthy link (CUSUM target).
    const PRR_REF: f64 = 0.92;
    /// CUSUM slack: shortfalls below `PRR_REF` smaller than this are noise.
    const PRR_SLACK: f64 = 0.2;
    /// CUSUM trip threshold (accumulated shortfall).
    const PRR_THRESHOLD: f64 = 1.0;
    /// EWMA smoothing factor for the PRR baseline.
    const PRR_ALPHA: f64 = 0.3;
    /// Page–Hinkley drift allowance on the jammed-frame rate.
    const STORM_DELTA: f64 = 0.05;
    /// Page–Hinkley trip threshold on the jammed-frame rate.
    const STORM_LAMBDA: f64 = 0.5;

    /// Flight-recorder event kind for degraded frames.
    pub const DEGRADED_KIND: &str = "health.frame_degraded";

    /// Degraded frame ids an alarm names, and degraded-frame records a
    /// monitor holds before it writes them into the flight recorder.
    const MAX_ATTRIBUTION: usize = 8;

    /// The ring slot of a monitor's `k`-th degraded frame.
    fn slot(k: u64) -> usize {
        (k % MAX_ATTRIBUTION as u64) as usize
    }

    /// The monitor's own log. A run whose only event is its baseline (a
    /// healthy run before [`HealthMonitor::finish`]) keeps that event
    /// inline and allocates nothing.
    enum EventLog {
        Empty,
        One(HealthEvent),
        Many(Vec<HealthEvent>),
    }

    impl EventLog {
        fn push(&mut self, ev: HealthEvent) {
            *self = match std::mem::replace(self, EventLog::Empty) {
                EventLog::Empty => EventLog::One(ev),
                EventLog::One(first) => EventLog::Many(vec![first, ev]),
                EventLog::Many(mut all) => {
                    all.push(ev);
                    EventLog::Many(all)
                }
            };
        }

        fn as_slice(&self) -> &[HealthEvent] {
            match self {
                EventLog::Empty => &[],
                EventLog::One(ev) => std::slice::from_ref(ev),
                EventLog::Many(all) => all,
            }
        }
    }

    #[derive(Clone, Copy, Default)]
    struct RuleState {
        active: bool,
        streak: u64,
    }

    /// Streaming link-health judge over the MAC frame feed.
    ///
    /// [`note_frame`](HealthMonitor::note_frame) takes each frame outcome
    /// from the MAC scenario loop and evaluates the PRR-collapse and
    /// trigger-storm rules every `cadence` frames. The monitor judges
    /// only the frames it is fed, so its verdict belongs to one run.
    pub struct HealthMonitor {
        /// Frames per evaluation window on the MAC feed.
        cadence: u64,
        events: EventLog,
        frames: u64,
        /// Frame count at which the open window closes.
        window_end: u64,
        windows: u64,
        alarms_raised: u64,
        /// Lost frames in the open window.
        win_lost: u64,
        /// Jammed frames in the open window.
        win_jammed: u64,
        prr_base: EwmaBaseline,
        prr_baselined: bool,
        prr_cusum: Cusum,
        prr_state: RuleState,
        storm_ph: PageHinkley,
        storm_state: RuleState,
        /// The last `MAX_ATTRIBUTION` degraded-frame records `(frame,
        /// frame id, jammed)`, the `k`-th in `slot(k)`: the ids the
        /// next alarm names, and the records not yet in the flight
        /// recorder.
        degraded: [(u64, i64, i64); MAX_ATTRIBUTION],
        /// Degraded frames seen.
        n_degraded: u64,
        /// Degraded frames already written into the flight recorder.
        n_recorded: u64,
    }

    impl HealthMonitor {
        /// A monitor with the stock rules, evaluating the MAC feed every
        /// `cadence` frames (clamped to >= 1).
        pub fn new(cadence: u64) -> Self {
            let cadence = cadence.max(1);
            HealthMonitor {
                cadence,
                events: EventLog::Empty,
                frames: 0,
                window_end: cadence,
                windows: 0,
                alarms_raised: 0,
                win_lost: 0,
                win_jammed: 0,
                prr_base: EwmaBaseline::new(PRR_ALPHA),
                prr_baselined: false,
                prr_cusum: Cusum::new(PRR_SLACK, PRR_THRESHOLD),
                prr_state: RuleState::default(),
                storm_ph: PageHinkley::new(STORM_DELTA, STORM_LAMBDA),
                storm_state: RuleState::default(),
                degraded: [(0, 0, 0); MAX_ATTRIBUTION],
                n_degraded: 0,
                n_recorded: 0,
            }
        }

        /// One MAC frame outcome. Later alarms name the last degraded
        /// (lost or jammed) frames, and each one leaves a
        /// `health.frame_degraded` event in the flight recorder. The
        /// events are buffered and written under one recorder lock when
        /// the buffer is full, before an alarm, and in
        /// [`finish`](HealthMonitor::finish) or drop, in frame order, so
        /// the recorder ends up holding exactly what per-frame writes
        /// would have left there.
        #[inline]
        pub fn note_frame(&mut self, frame_id: u64, delivered: bool, jammed: bool) {
            self.frames += 1;
            if !delivered || jammed {
                self.note_degraded(frame_id, delivered, jammed);
            }
            if self.frames == self.window_end {
                self.evaluate_window();
            }
        }

        fn note_degraded(&mut self, frame_id: u64, delivered: bool, jammed: bool) {
            self.win_lost += u64::from(!delivered);
            self.win_jammed += u64::from(jammed);
            if self.n_degraded - self.n_recorded == MAX_ATTRIBUTION as u64 {
                self.flush_degraded();
            }
            self.degraded[slot(self.n_degraded)] =
                (self.frames, frame_id as i64, i64::from(jammed));
            self.n_degraded += 1;
        }

        /// Writes the buffered degraded-frame records into the flight
        /// recorder under one lock.
        fn flush_degraded(&mut self) {
            if self.n_recorded < self.n_degraded {
                let ring = &self.degraded;
                crate::recorder::record_events(
                    DEGRADED_KIND,
                    (self.n_recorded..self.n_degraded).map(|k| ring[slot(k)]),
                );
                self.n_recorded = self.n_degraded;
            }
        }

        fn evaluate_window(&mut self) {
            self.windows += 1;
            self.window_end += self.cadence;
            let n = self.cadence as f64;
            let prr = (self.cadence - self.win_lost) as f64 / n;
            let jam_rate = self.win_jammed as f64 / n;
            self.win_lost = 0;
            self.win_jammed = 0;

            // PRR collapse: CUSUM of the shortfall below the reference PRR.
            self.prr_base.update(prr);
            if !self.prr_baselined && self.windows >= BASELINE_WINDOWS {
                self.prr_baselined = true;
                let ev = HealthEvent::Baseline {
                    metric: "mac.prr".into(),
                    detector: "ewma".into(),
                    mean: self.prr_base.mean(),
                    samples: self.frames,
                };
                self.push(ev);
            }
            let tripped = self.prr_cusum.update(PRR_REF - prr);
            if self.prr_state.active {
                if prr + 1e-12 >= PRR_REF - PRR_SLACK {
                    self.prr_state.streak += 1;
                    if self.prr_state.streak >= CLEAR_WINDOWS {
                        self.prr_state = RuleState::default();
                        self.prr_cusum.reset();
                        self.clear_rule("prr_collapse", "mac.prr");
                    }
                } else {
                    self.prr_state.streak = 0;
                }
            } else if tripped && self.prr_baselined {
                self.prr_state = RuleState {
                    active: true,
                    streak: 0,
                };
                let stat = self.prr_cusum.stat();
                self.raise("prr_collapse", "mac.prr", "cusum", stat, PRR_THRESHOLD);
            }

            // Trigger storm: Page–Hinkley change-point on the jammed rate.
            let storm_trip = self.storm_ph.update(jam_rate);
            if self.storm_state.active {
                if jam_rate <= 1e-12 {
                    self.storm_state.streak += 1;
                    if self.storm_state.streak >= CLEAR_WINDOWS {
                        self.storm_state = RuleState::default();
                        self.storm_ph.reset();
                        self.clear_rule("trigger_storm", "mac.jam_rate");
                    }
                } else {
                    self.storm_state.streak = 0;
                }
            } else if storm_trip {
                self.storm_state = RuleState {
                    active: true,
                    streak: 0,
                };
                let stat = self.storm_ph.stat();
                self.raise(
                    "trigger_storm",
                    "mac.jam_rate",
                    "page_hinkley",
                    stat,
                    STORM_LAMBDA,
                );
            }
        }

        fn raise(
            &mut self,
            rule: &'static str,
            metric: &'static str,
            detector: &'static str,
            stat: f64,
            threshold: f64,
        ) {
            self.alarms_raised += 1;
            registry::counter("obs.health_alarms").inc();
            self.flush_degraded();
            let ev = HealthEvent::AlarmRaised {
                rule: rule.into(),
                metric: metric.into(),
                detector: detector.into(),
                stat,
                threshold,
                frame: self.frames,
                frames: (self.n_degraded.saturating_sub(MAX_ATTRIBUTION as u64)..self.n_degraded)
                    .map(|k| self.degraded[slot(k)].1 as u64)
                    .collect(),
            };
            self.push(ev);
        }

        fn clear_rule(&mut self, rule: &'static str, metric: &'static str) {
            let ev = HealthEvent::AlarmCleared {
                rule: rule.into(),
                metric: metric.into(),
                frame: self.frames,
            };
            self.push(ev);
        }

        fn push(&mut self, ev: HealthEvent) {
            self.events.push(ev);
        }

        /// Appends the `run_summary` event and returns the final verdict.
        pub fn finish(&mut self) -> HealthVerdict {
            self.flush_degraded();
            let verdict = HealthVerdict {
                healthy: self.alarms_raised == 0,
                alarms_raised: self.alarms_raised,
                alarms_active: self.active_alarms(),
                frames: self.frames,
            };
            let ev = HealthEvent::RunSummary {
                frames: self.frames,
                alarms_raised: verdict.alarms_raised,
                alarms_active: verdict.alarms_active,
                healthy: verdict.healthy,
            };
            self.push(ev);
            verdict
        }

        /// Every event so far, in order: the run's `rjam-health-v1` log
        /// (`rjamctl monitor --out` writes it after [`finish`](Self::finish)).
        pub fn events(&self) -> &[HealthEvent] {
            self.events.as_slice()
        }

        /// Frames observed via [`note_frame`](HealthMonitor::note_frame).
        pub fn frames(&self) -> u64 {
            self.frames
        }

        /// `true` iff no alarm has been raised yet.
        pub fn healthy(&self) -> bool {
            self.alarms_raised == 0
        }

        /// Alarms raised so far.
        pub fn alarms_raised(&self) -> u64 {
            self.alarms_raised
        }

        /// Rules currently in the alarmed state.
        pub fn active_alarms(&self) -> u64 {
            [self.prr_state, self.storm_state]
                .iter()
                .filter(|s| s.active)
                .count() as u64
        }

        /// Frame count at the first raised alarm (time-to-detect).
        pub fn frames_to_first_alarm(&self) -> Option<u64> {
            self.events().iter().find_map(|ev| match ev {
                HealthEvent::AlarmRaised { frame, .. } => Some(*frame),
                _ => None,
            })
        }

        /// Live rule table for the operator console.
        pub fn rule_table(&self) -> String {
            use std::fmt::Write as _;
            let state = |st: &RuleState, baselined: bool| {
                if st.active {
                    "ALARMED"
                } else if baselined {
                    "ok"
                } else {
                    "baselining"
                }
            };
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{:<18} {:<24} {:<17} {:>12}  state",
                "rule", "metric", "detector", "threshold"
            );
            let _ = writeln!(
                out,
                "{:<18} {:<24} {:<17} {:>12}  {}",
                "prr_collapse",
                "mac.prr",
                "cusum",
                format!("{:.2}", PRR_THRESHOLD),
                state(&self.prr_state, self.prr_baselined),
            );
            let _ = writeln!(
                out,
                "{:<18} {:<24} {:<17} {:>12}  {}",
                "trigger_storm",
                "mac.jam_rate",
                "page_hinkley",
                format!("{:.2}", STORM_LAMBDA),
                state(&self.storm_state, true),
            );
            out
        }
    }

    impl Drop for HealthMonitor {
        fn drop(&mut self) {
            // Flushing takes the recorder lock, which can panic; a drop
            // during unwinding must not panic a second time.
            if !std::thread::panicking() {
                self.flush_degraded();
            }
        }
    }
}

#[cfg(feature = "obs")]
pub use enabled::*;

#[cfg(not(feature = "obs"))]
mod disabled {
    use super::{HealthEvent, HealthVerdict};

    /// Zero-sized no-op monitor (`obs` feature disabled): never alarms.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct HealthMonitor;

    impl HealthMonitor {
        /// No-op.
        pub fn new(_cadence: u64) -> Self {
            HealthMonitor
        }
        /// No-op.
        #[inline(always)]
        pub fn note_frame(&mut self, _frame_id: u64, _delivered: bool, _jammed: bool) {}
        /// Always healthy.
        pub fn finish(&mut self) -> HealthVerdict {
            HealthVerdict {
                healthy: true,
                alarms_raised: 0,
                alarms_active: 0,
                frames: 0,
            }
        }
        /// Always empty.
        pub fn events(&self) -> &[HealthEvent] {
            &[]
        }
        /// Always 0.
        #[inline(always)]
        pub fn frames(&self) -> u64 {
            0
        }
        /// Always true.
        #[inline(always)]
        pub fn healthy(&self) -> bool {
            true
        }
        /// Always 0.
        #[inline(always)]
        pub fn alarms_raised(&self) -> u64 {
            0
        }
        /// Always 0.
        #[inline(always)]
        pub fn active_alarms(&self) -> u64 {
            0
        }
        /// Always `None`.
        #[inline(always)]
        pub fn frames_to_first_alarm(&self) -> Option<u64> {
            None
        }
        /// Notes the layer is compiled out.
        pub fn rule_table(&self) -> String {
            "health monitoring compiled out (build without the 'obs' feature)\n".to_string()
        }
    }
}

#[cfg(not(feature = "obs"))]
pub use disabled::*;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<HealthEvent> {
        vec![
            HealthEvent::Baseline {
                metric: "mac.prr".into(),
                detector: "ewma".into(),
                mean: 0.96875,
                samples: 16,
            },
            HealthEvent::AlarmRaised {
                rule: "prr_collapse".into(),
                metric: "mac.prr".into(),
                detector: "cusum".into(),
                stat: 1.34,
                threshold: 1.0,
                frame: 48,
                frames: vec![0x21, 0x22, 0x2f],
            },
            HealthEvent::AlarmCleared {
                rule: "prr_collapse".into(),
                metric: "mac.prr".into(),
                frame: 144,
            },
            HealthEvent::RunSummary {
                frames: 160,
                alarms_raised: 1,
                alarms_active: 0,
                healthy: false,
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips() {
        for ev in sample_events() {
            let line = ev.to_line();
            assert!(!line.contains('\n'), "line-delimited: {line}");
            let back = HealthEvent::from_line(&line).expect("parse back");
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn frame_ids_survive_all_64_bits() {
        let ev = HealthEvent::AlarmRaised {
            rule: "r".into(),
            metric: "m".into(),
            detector: "d".into(),
            stat: 0.5,
            threshold: 0.25,
            frame: 1,
            frames: vec![0, 1, u64::MAX, 0x8000_0000_0000_0001],
        };
        let HealthEvent::AlarmRaised { frames, .. } =
            HealthEvent::from_line(&ev.to_line()).unwrap()
        else {
            panic!("wrong event kind")
        };
        assert_eq!(frames, vec![0, 1, u64::MAX, 0x8000_0000_0000_0001]);
    }

    #[test]
    fn stream_round_trips_and_validates() {
        let events = sample_events();
        let text: String = events
            .iter()
            .map(|e| format!("{}\n", e.to_line()))
            .collect();
        let back = parse_stream(&text).expect("stream parses");
        assert_eq!(back, events);
        validate_chain(&back).expect("chain validates");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(HealthEvent::from_line("{\"v\":\"rjam-health-v1\",\"ev\":\"alarm").is_err());
        assert!(
            HealthEvent::from_line("{\"v\":\"rjam-health-v2\",\"ev\":\"run_summary\"}").is_err()
        );
        assert!(HealthEvent::from_line("{\"v\":\"rjam-health-v1\",\"ev\":\"exploded\"}").is_err());
        // Missing field.
        assert!(HealthEvent::from_line(
            "{\"v\":\"rjam-health-v1\",\"ev\":\"alarm_cleared\",\"rule\":\"r\"}"
        )
        .is_err());
        // Stream with one bad line names the line; blank lines are rejected.
        let good = sample_events()[0].to_line();
        let err = parse_stream(&format!("{good}\nnot json\n")).unwrap_err();
        assert!(err.to_string().starts_with("line 2:"), "{err}");
        assert!(parse_stream(&format!("{good}\n\n{good}\n")).is_err());
    }

    #[test]
    fn chain_validation_pins_exact_errors() {
        let ok = sample_events();
        // Truncated before the summary.
        assert_eq!(
            validate_chain(&ok[..ok.len() - 1]).unwrap_err(),
            "stream does not end with run_summary"
        );
        // Empty stream.
        assert_eq!(
            validate_chain(&[]).unwrap_err(),
            "stream does not end with run_summary"
        );
        // Summary mid-stream.
        let mut bad = ok.clone();
        bad.insert(2, bad[3].clone());
        assert_eq!(
            validate_chain(&bad).unwrap_err(),
            "event 2: run_summary before end of stream"
        );
        // Duplicate baseline for one metric.
        let mut bad = ok.clone();
        bad.insert(1, bad[0].clone());
        assert_eq!(
            validate_chain(&bad).unwrap_err(),
            "event 1: duplicate baseline for metric mac.prr"
        );
        // Raise while already active.
        let mut bad = ok.clone();
        bad.insert(2, bad[1].clone());
        assert_eq!(
            validate_chain(&bad).unwrap_err(),
            "event 2: alarm_raised for rule prr_collapse while already active"
        );
        // Clear without an active alarm.
        let mut bad = ok.clone();
        bad.remove(1);
        assert_eq!(
            validate_chain(&bad).unwrap_err(),
            "event 1: alarm_cleared for rule prr_collapse without an active alarm"
        );
        // Frame counts running backwards.
        let mut bad = ok.clone();
        if let HealthEvent::AlarmCleared { frame, .. } = &mut bad[2] {
            *frame = 12;
        }
        assert_eq!(
            validate_chain(&bad).unwrap_err(),
            "event 2: frame 12 ran backwards (was 48)"
        );
        // Summary totals disagreeing with the log.
        let mut bad = ok.clone();
        if let HealthEvent::RunSummary { alarms_raised, .. } = &mut bad[3] {
            *alarms_raised = 7;
        }
        assert_eq!(
            validate_chain(&bad).unwrap_err(),
            "run_summary alarms_raised 7 != 1 alarm_raised events"
        );
        let mut bad = ok.clone();
        if let HealthEvent::RunSummary { alarms_active, .. } = &mut bad[3] {
            *alarms_active = 3;
        }
        assert_eq!(
            validate_chain(&bad).unwrap_err(),
            "run_summary alarms_active 3 != 0 still-active alarms"
        );
        let mut bad = ok;
        if let HealthEvent::RunSummary { healthy, .. } = &mut bad[3] {
            *healthy = true;
        }
        assert_eq!(
            validate_chain(&bad).unwrap_err(),
            "run_summary healthy=true contradicts 1 raised alarms"
        );
    }

    #[test]
    fn ewma_tracks_the_mean() {
        let mut b = EwmaBaseline::new(0.3);
        assert_eq!(b.mean(), 0.0);
        b.update(4.0);
        assert_eq!(b.mean(), 4.0, "the first sample seeds the mean");
        for _ in 0..50 {
            b.update(4.0);
        }
        assert!((b.mean() - 4.0).abs() < 1e-9, "constant input converges");
        let mut b = EwmaBaseline::new(0.3);
        for k in 0..200 {
            b.update(if k % 2 == 0 { 0.0 } else { 2.0 });
        }
        assert!((b.mean() - 1.0).abs() < 0.5);
    }

    #[test]
    fn cusum_trips_on_sustained_shift_only() {
        let mut c = Cusum::new(0.2, 1.0);
        for _ in 0..100 {
            assert!(!c.update(0.1), "sub-slack deviations never accumulate");
        }
        assert_eq!(c.stat(), 0.0);
        assert!(!c.update(0.9), "one bad window is not enough");
        assert!(c.update(0.9), "sustained shift trips");
        c.reset();
        assert_eq!(c.stat(), 0.0);
    }

    #[test]
    fn page_hinkley_detects_change_not_steady_state() {
        // Constant input — even constantly high — never trips.
        let mut ph = PageHinkley::new(0.05, 0.5);
        for _ in 0..100 {
            assert!(!ph.update(1.0), "no change, no trip");
        }
        // A mean shift after a quiet lead-in trips.
        let mut ph = PageHinkley::new(0.05, 0.5);
        for _ in 0..10 {
            ph.update(0.0);
        }
        let mut tripped = false;
        for _ in 0..6 {
            tripped |= ph.update(1.0);
        }
        assert!(tripped, "0 -> 1 mean shift must trip");
    }

    #[test]
    fn rolling_quantile_windows_and_saturates() {
        let mut q = RollingQuantile::new(4);
        assert!(q.is_empty());
        assert_eq!(q.quantile(0.5), 0.0, "empty window reads 0");
        for v in [1.0, 2.0, 3.0, 4.0] {
            q.push(v);
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.quantile(0.0), 1.0);
        assert_eq!(q.quantile(1.0), 4.0);
        // Pushing past capacity evicts the oldest.
        for v in [10.0, 11.0, 12.0, 13.0] {
            q.push(v);
        }
        assert_eq!(q.len(), 4);
        assert_eq!(q.quantile(0.0), 10.0);
        assert_eq!(q.quantile(1.0), 13.0);
    }

    #[cfg(feature = "obs")]
    mod monitor {
        use super::super::*;

        #[test]
        fn prr_collapse_raises_within_two_windows_and_clears() {
            let mut mon = HealthMonitor::new(16);
            // Healthy lead-in: baseline established, no alarms.
            for fid in 1..=16u64 {
                mon.note_frame(fid, true, false);
            }
            assert!(mon.healthy());
            assert!(matches!(
                mon.events().first(),
                Some(HealthEvent::Baseline { .. })
            ));
            // Jam onset at frame 16: alarm within 32 frames of onset.
            for fid in 17..=48u64 {
                mon.note_frame(fid, false, true);
            }
            // Jam onset is a change point, so Page–Hinkley (trigger_storm)
            // legitimately fires alongside the CUSUM PRR rule.
            assert!(mon.alarms_raised() >= 1, "{:?}", mon.events());
            let first = mon.frames_to_first_alarm().expect("alarm raised");
            assert!(first <= 48, "alarm within 32 frames of onset, got {first}");
            let raised = mon
                .events()
                .iter()
                .find(|e| {
                    matches!(e, HealthEvent::AlarmRaised { rule, .. } if rule == "prr_collapse")
                })
                .expect("prr_collapse raised");
            if let HealthEvent::AlarmRaised {
                rule,
                detector,
                frames,
                ..
            } = raised
            {
                assert_eq!(rule, "prr_collapse");
                assert_eq!(detector, "cusum");
                assert!(!frames.is_empty(), "cause attribution names FrameIds");
            }
            // Recovery clears after clear_windows healthy windows.
            for fid in 49..=(48 + 16 * 4) {
                mon.note_frame(fid, true, false);
            }
            assert!(mon
                .events()
                .iter()
                .any(|e| matches!(e, HealthEvent::AlarmCleared { .. })));
            let v = mon.finish();
            assert!(!v.healthy, "a raised alarm marks the run");
            assert!(v.alarms_raised >= 1);
            assert_eq!(v.alarms_active, 0);
            validate_chain(mon.events()).expect("emitted stream validates");
        }

        #[test]
        fn an_alarm_names_only_its_own_monitors_frames() {
            // Another monitor in the same process fills the shared flight
            // recorder with its own degraded frames first.
            let mut other = HealthMonitor::new(16);
            for fid in 0xA0..0xAA {
                other.note_frame(fid, false, true);
            }
            other.finish();
            let mut mon = HealthMonitor::new(2);
            mon.note_frame(1, true, false);
            mon.note_frame(2, true, false);
            for fid in 3..=6 {
                mon.note_frame(fid, false, false);
            }
            let frames = mon
                .events()
                .iter()
                .find_map(|e| match e {
                    HealthEvent::AlarmRaised { frames, .. } => Some(frames.clone()),
                    _ => None,
                })
                .expect("four lost frames at cadence 2 collapse the PRR");
            assert_eq!(frames, [3, 4, 5, 6]);
        }

        #[test]
        fn clean_run_stays_healthy() {
            let mut mon = HealthMonitor::new(16);
            for fid in 1..=128u64 {
                mon.note_frame(fid, true, false);
            }
            let v = mon.finish();
            assert!(v.healthy);
            assert_eq!(v.alarms_raised, 0);
            assert_eq!(mon.frames_to_first_alarm(), None);
            validate_chain(mon.events()).expect("clean stream validates");
        }

        #[test]
        fn rule_table_lists_both_rules() {
            let mon = HealthMonitor::new(16);
            let table = mon.rule_table();
            let rules: Vec<&str> = table
                .lines()
                .skip(1)
                .filter_map(|row| row.split_whitespace().next())
                .collect();
            assert_eq!(rules, ["prr_collapse", "trigger_storm"], "{table}");
        }
    }
}
