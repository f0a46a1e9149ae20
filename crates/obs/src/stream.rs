//! Live progress streaming: the line-delimited `rjam-progress-v1` protocol.
//!
//! The paper's operator watches campaigns through the FPGA's live status
//! registers; long campaign runs in this reproduction were a black box
//! until they printed their final numbers. This module is the streaming
//! half of the engine telemetry subsystem: the campaign engine emits one
//! JSON object per line (NDJSON) describing campaign lifecycle —
//!
//! ```text
//! {"v":"rjam-progress-v1","ev":"campaign_started","kind":"wifi_detection",...}
//! {"v":"rjam-progress-v1","ev":"shard_finished","shard":0,"worker":1,...}
//! {"v":"rjam-progress-v1","ev":"snapshot","done":18,"total":96,...}
//! {"v":"rjam-progress-v1","ev":"campaign_done","units":96,...}
//! ```
//!
//! — as typed [`ProgressEvent`]s into the sink its owner attached with
//! `CampaignEngine::with_progress` (in `rjam-core`), which writes each
//! event's line once: `rjamctl --progress[=FILE]` to stderr or a file, and
//! `rjamd` with its job tag first ([`ProgressEvent::to_line_after`]) into
//! that job's replay buffer. An engine without a sink emits nothing.
//! Every event kind round-trips through [`ProgressEvent::from_line`],
//! which ignores unknown fields such as the job tag; a whole stream is
//! checked by [`parse_stream`] + [`validate_chain`] (the `check progress`
//! CI gate wraps both).
//!
//! The protocol types and parser are always compiled (validators must read
//! streams even in `--no-default-features` builds); *emission* comes from
//! the engine's instrumentation, which is compiled out without `obs`.
//!
//! Seeds are serialised as `"0x..."` hex strings, not JSON numbers: the
//! shared JSON dialect holds numbers as `f64` and a campaign seed uses all
//! 64 bits.

use crate::json;
use crate::proto::{self, Envelope, ParseError, Protocol};

/// The protocol descriptor for this stream.
pub const PROTOCOL: Protocol = Protocol::PROGRESS;

/// Schema tag carried by every `rjam-progress-v1` line.
pub const SCHEMA: &str = PROTOCOL.tag;

/// One event of the `rjam-progress-v1` stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgressEvent {
    /// A campaign entered the engine: emitted once, first.
    Started {
        /// Unit kind label (`wifi_detection`, `false_alarm`, ...).
        kind: String,
        /// Total units the campaign will run.
        units: u64,
        /// Dispatch ranges in the shard plan.
        shards: u64,
        /// Worker threads the engine resolved.
        workers: u64,
        /// Campaign seed (serialised as a hex string).
        seed: u64,
    },
    /// One contiguous dispatch range completed on some worker.
    ShardFinished {
        /// Shard (range) index in plan order.
        shard: u64,
        /// Worker thread that ran it.
        worker: u64,
        /// Units the range covered.
        units: u64,
        /// Wall-clock the worker spent inside unit closures for this range.
        busy_ns: u64,
    },
    /// Periodic progress snapshot (one per finished shard).
    Snapshot {
        /// Units completed so far.
        done: u64,
        /// Total units of the campaign.
        total: u64,
        /// Wall-clock since the campaign started.
        elapsed_ns: u64,
        /// Remaining-time estimate from the mean unit rate ([`eta_ns`]).
        eta_ns: u64,
    },
    /// The campaign finished: emitted once, last.
    Done {
        /// Units run (equals the started event's `units`).
        units: u64,
        /// Campaign wall-clock.
        elapsed_ns: u64,
        /// Worker threads used.
        workers: u64,
        /// Total busy time across workers.
        busy_ns: u64,
        /// Total idle (dispenser-wait) time across workers.
        idle_ns: u64,
        /// Total merge-wait time across workers.
        merge_wait_ns: u64,
    },
}

/// Remaining-time estimate after `done` of `total` units in `elapsed_ns`.
///
/// Scales the observed mean unit time to the remaining unit count:
/// `elapsed * (total - done) / done` (saturating, 0 when `done == 0`).
/// For a fixed-rate workload (`elapsed = rate * done`) this is exactly
/// `rate * (total - done)` — monotonically non-increasing in `done`, the
/// property the stream tests pin down.
pub fn eta_ns(elapsed_ns: u64, done: u64, total: u64) -> u64 {
    if done == 0 || total <= done {
        return 0;
    }
    let est = u128::from(elapsed_ns) * u128::from(total - done) / u128::from(done);
    u64::try_from(est).unwrap_or(u64::MAX)
}

fn hex_seed(seed: u64) -> String {
    proto::hex_u64_json(seed)
}

impl ProgressEvent {
    /// Serialises to one NDJSON line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_line_after("{")
    }

    /// The line [`Self::to_line`] writes, with `head` in place of its
    /// opening brace: `rjamd` passes `{"job":"<id>",` to put its job tag
    /// first without writing the line twice.
    pub fn to_line_after(&self, head: &str) -> String {
        let num = |v: u64| json::write_number(v as f64);
        match self {
            ProgressEvent::Started {
                kind,
                units,
                shards,
                workers,
                seed,
            } => format!(
                "{head}\"v\":{},\"ev\":\"campaign_started\",\"kind\":{},\"units\":{},\
                 \"shards\":{},\"workers\":{},\"seed\":{}}}",
                json::write_string(SCHEMA),
                json::write_string(kind),
                num(*units),
                num(*shards),
                num(*workers),
                hex_seed(*seed),
            ),
            ProgressEvent::ShardFinished {
                shard,
                worker,
                units,
                busy_ns,
            } => format!(
                "{head}\"v\":{},\"ev\":\"shard_finished\",\"shard\":{},\"worker\":{},\
                 \"units\":{},\"busy_ns\":{}}}",
                json::write_string(SCHEMA),
                num(*shard),
                num(*worker),
                num(*units),
                num(*busy_ns),
            ),
            ProgressEvent::Snapshot {
                done,
                total,
                elapsed_ns,
                eta_ns,
            } => format!(
                "{head}\"v\":{},\"ev\":\"snapshot\",\"done\":{},\"total\":{},\
                 \"elapsed_ns\":{},\"eta_ns\":{}}}",
                json::write_string(SCHEMA),
                num(*done),
                num(*total),
                num(*elapsed_ns),
                num(*eta_ns),
            ),
            ProgressEvent::Done {
                units,
                elapsed_ns,
                workers,
                busy_ns,
                idle_ns,
                merge_wait_ns,
            } => format!(
                "{head}\"v\":{},\"ev\":\"campaign_done\",\"units\":{},\"elapsed_ns\":{},\
                 \"workers\":{},\"busy_ns\":{},\"idle_ns\":{},\"merge_wait_ns\":{}}}",
                json::write_string(SCHEMA),
                num(*units),
                num(*elapsed_ns),
                num(*workers),
                num(*busy_ns),
                num(*idle_ns),
                num(*merge_wait_ns),
            ),
        }
    }

    /// Parses one NDJSON line back into an event.
    pub fn from_line(line: &str) -> Result<Self, ParseError> {
        let env = Envelope::parse(&PROTOCOL, line)?;
        let o = env.root();
        match env.event("ev")? {
            "campaign_started" => Ok(ProgressEvent::Started {
                kind: o.str("kind")?.to_string(),
                units: o.u64("units")?,
                shards: o.u64("shards")?,
                workers: o.u64("workers")?,
                seed: o.hex_u64("seed")?,
            }),
            "shard_finished" => Ok(ProgressEvent::ShardFinished {
                shard: o.u64("shard")?,
                worker: o.u64("worker")?,
                units: o.u64("units")?,
                busy_ns: o.u64("busy_ns")?,
            }),
            "snapshot" => Ok(ProgressEvent::Snapshot {
                done: o.u64("done")?,
                total: o.u64("total")?,
                elapsed_ns: o.u64("elapsed_ns")?,
                eta_ns: o.u64("eta_ns")?,
            }),
            "campaign_done" => Ok(ProgressEvent::Done {
                units: o.u64("units")?,
                elapsed_ns: o.u64("elapsed_ns")?,
                workers: o.u64("workers")?,
                busy_ns: o.u64("busy_ns")?,
                idle_ns: o.u64("idle_ns")?,
                merge_wait_ns: o.u64("merge_wait_ns")?,
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
pub fn parse_stream(text: &str) -> Result<Vec<ProgressEvent>, ParseError> {
    proto::parse_ndjson(text, ProgressEvent::from_line)
}

/// Validates a complete campaign stream: exactly one `campaign_started`
/// first and one `campaign_done` last, snapshots monotone and consistent,
/// shard events disjoint and covering every unit.
pub fn validate_chain(events: &[ProgressEvent]) -> Result<(), String> {
    let Some(ProgressEvent::Started { units, .. }) = events.first() else {
        return Err("stream does not begin with campaign_started".into());
    };
    let total_units = *units;
    let Some(ProgressEvent::Done { units, .. }) = events.last() else {
        return Err("stream does not end with campaign_done".into());
    };
    if *units != total_units {
        return Err(format!(
            "campaign_done units {units} != campaign_started units {total_units}"
        ));
    }
    let mut last_done = 0u64;
    let mut shard_units = 0u64;
    let mut shards_seen = std::collections::BTreeSet::new();
    for (k, ev) in events.iter().enumerate().skip(1) {
        match ev {
            ProgressEvent::Started { .. } => {
                return Err(format!("event {k}: second campaign_started"));
            }
            ProgressEvent::Done { .. } if k + 1 != events.len() => {
                return Err(format!("event {k}: campaign_done before end of stream"));
            }
            ProgressEvent::Done { .. } => {}
            ProgressEvent::ShardFinished { shard, units, .. } => {
                if !shards_seen.insert(*shard) {
                    return Err(format!("event {k}: shard {shard} finished twice"));
                }
                shard_units += units;
            }
            ProgressEvent::Snapshot { done, total, .. } => {
                if *total != total_units {
                    return Err(format!(
                        "event {k}: snapshot total {total} != campaign units {total_units}"
                    ));
                }
                if *done > *total {
                    return Err(format!("event {k}: snapshot done {done} > total {total}"));
                }
                if *done < last_done {
                    return Err(format!(
                        "event {k}: snapshot done {done} ran backwards (was {last_done})"
                    ));
                }
                last_done = *done;
            }
        }
    }
    if shard_units != total_units {
        return Err(format!(
            "shard_finished events cover {shard_units} units, campaign ran {total_units}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<ProgressEvent> {
        vec![
            ProgressEvent::Started {
                kind: "wifi_detection".into(),
                units: 12,
                shards: 3,
                workers: 2,
                seed: 0xDEAD_BEEF_CAFE_F00D,
            },
            ProgressEvent::ShardFinished {
                shard: 0,
                worker: 1,
                units: 4,
                busy_ns: 48_211_000,
            },
            ProgressEvent::Snapshot {
                done: 4,
                total: 12,
                elapsed_ns: 50_000_000,
                eta_ns: 100_000_000,
            },
            ProgressEvent::ShardFinished {
                shard: 1,
                worker: 0,
                units: 4,
                busy_ns: 47_000_000,
            },
            ProgressEvent::Snapshot {
                done: 8,
                total: 12,
                elapsed_ns: 101_000_000,
                eta_ns: 50_500_000,
            },
            ProgressEvent::ShardFinished {
                shard: 2,
                worker: 1,
                units: 4,
                busy_ns: 46_000_000,
            },
            ProgressEvent::Snapshot {
                done: 12,
                total: 12,
                elapsed_ns: 150_000_000,
                eta_ns: 0,
            },
            ProgressEvent::Done {
                units: 12,
                elapsed_ns: 151_000_000,
                workers: 2,
                busy_ns: 141_211_000,
                idle_ns: 9_000_000,
                merge_wait_ns: 1_500_000,
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips() {
        for ev in sample_events() {
            let line = ev.to_line();
            assert!(!line.contains('\n'), "line-delimited: {line}");
            let back = ProgressEvent::from_line(&line).expect("parse back");
            assert_eq!(back, ev, "{line}");
        }
    }

    #[test]
    fn seed_survives_all_64_bits() {
        for seed in [0u64, 1, u64::MAX, 0x8000_0000_0000_0001] {
            let ev = ProgressEvent::Started {
                kind: "k".into(),
                units: 1,
                shards: 1,
                workers: 1,
                seed,
            };
            let ProgressEvent::Started { seed: back, .. } =
                ProgressEvent::from_line(&ev.to_line()).unwrap()
            else {
                panic!("wrong event kind")
            };
            assert_eq!(back, seed);
        }
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
    fn malformed_and_truncated_lines_are_rejected() {
        // Truncated mid-object.
        assert!(ProgressEvent::from_line("{\"v\":\"rjam-progress-v1\",\"ev\":\"snap").is_err());
        // Wrong schema tag.
        assert!(
            ProgressEvent::from_line("{\"v\":\"rjam-progress-v2\",\"ev\":\"snapshot\"}").is_err()
        );
        // Unknown event kind.
        assert!(
            ProgressEvent::from_line("{\"v\":\"rjam-progress-v1\",\"ev\":\"teleported\"}").is_err()
        );
        // Missing field.
        assert!(ProgressEvent::from_line(
            "{\"v\":\"rjam-progress-v1\",\"ev\":\"snapshot\",\"done\":1,\"total\":2,\"eta_ns\":0}"
        )
        .is_err());
        // Stream with one bad line names the line.
        let good = sample_events()[0].to_line();
        let err = parse_stream(&format!("{good}\nnot json\n")).unwrap_err();
        assert!(err.to_string().starts_with("line 2:"), "{err}");
        // A blank line mid-stream is a truncation symptom, not padding.
        assert!(parse_stream(&format!("{good}\n\n{good}\n")).is_err());
    }

    #[test]
    fn chain_validation_catches_broken_streams() {
        let ok = sample_events();
        // Missing done.
        assert!(validate_chain(&ok[..ok.len() - 1]).is_err());
        // Missing started.
        assert!(validate_chain(&ok[1..]).is_err());
        // Snapshot running backwards.
        let mut bad = ok.clone();
        if let ProgressEvent::Snapshot { done, .. } = &mut bad[4] {
            *done = 1;
        }
        assert!(validate_chain(&bad).unwrap_err().contains("backwards"));
        // Shard finishing twice.
        let mut bad = ok.clone();
        if let ProgressEvent::ShardFinished { shard, .. } = &mut bad[3] {
            *shard = 0;
        }
        assert!(validate_chain(&bad).unwrap_err().contains("twice"));
        // Shard coverage short of the campaign.
        let mut bad = ok.clone();
        if let ProgressEvent::ShardFinished { units, .. } = &mut bad[3] {
            *units = 3;
        }
        assert!(validate_chain(&bad).unwrap_err().contains("cover"));
    }

    #[test]
    fn chain_validation_pins_partial_and_interleaved_errors() {
        let ok = sample_events();
        // Truncated right after a shard_finished: no campaign_done yet.
        assert_eq!(
            validate_chain(&ok[..2]).unwrap_err(),
            "stream does not end with campaign_done"
        );
        // Truncated after the started event alone.
        assert_eq!(
            validate_chain(&ok[..1]).unwrap_err(),
            "stream does not end with campaign_done"
        );
        // Duplicate campaign_done spliced mid-stream.
        let mut bad = ok.clone();
        bad.insert(4, ok.last().unwrap().clone());
        assert_eq!(
            validate_chain(&bad).unwrap_err(),
            "event 4: campaign_done before end of stream"
        );
        // Snapshot after done (done is then no longer last).
        let mut bad = ok.clone();
        bad.push(ProgressEvent::Snapshot {
            done: 12,
            total: 12,
            elapsed_ns: 160_000_000,
            eta_ns: 0,
        });
        assert_eq!(
            validate_chain(&bad).unwrap_err(),
            "stream does not end with campaign_done"
        );
        // A second campaign interleaved into the first.
        let mut bad = ok.clone();
        bad.insert(3, ok[0].clone());
        assert_eq!(
            validate_chain(&bad).unwrap_err(),
            "event 3: second campaign_started"
        );
        // Snapshot from some other campaign (total mismatch).
        let mut bad = ok.clone();
        if let ProgressEvent::Snapshot { total, .. } = &mut bad[2] {
            *total = 99;
        }
        assert_eq!(
            validate_chain(&bad).unwrap_err(),
            "event 2: snapshot total 99 != campaign units 12"
        );
        // Snapshot claiming more than the campaign holds.
        let mut bad = ok;
        if let ProgressEvent::Snapshot { done, total, .. } = &mut bad[2] {
            *done = 13;
            *total = 12;
        }
        assert_eq!(
            validate_chain(&bad).unwrap_err(),
            "event 2: snapshot done 13 > total 12"
        );
    }

    #[test]
    fn eta_is_monotone_non_increasing_at_fixed_rate() {
        // Fixed-rate workload: every unit takes exactly `rate` ns.
        for rate in [1u64, 17, 1_000_000, 3_333_333] {
            for total in [1u64, 7, 96, 10_000] {
                let mut last = u64::MAX;
                for done in 1..=total {
                    let eta = eta_ns(done * rate, done, total);
                    assert!(
                        eta <= last,
                        "eta increased at done={done}/{total}, rate={rate}: {eta} > {last}"
                    );
                    last = eta;
                }
                assert_eq!(last, 0, "finished campaign has zero ETA");
            }
        }
    }

    #[test]
    fn eta_edge_cases() {
        assert_eq!(eta_ns(1_000, 0, 10), 0, "no rate estimate before any unit");
        assert_eq!(eta_ns(1_000, 10, 10), 0);
        assert_eq!(eta_ns(1_000, 11, 10), 0, "overshoot clamps");
        // Near-overflow product stays finite via u128.
        assert_eq!(eta_ns(u64::MAX, 1, 2), u64::MAX);
    }

    #[test]
    fn eta_saturates_and_never_divides_by_zero() {
        // done == 0 with a zero-unit campaign: both guards at once.
        assert_eq!(eta_ns(0, 0, 0), 0);
        assert_eq!(eta_ns(1_000, 0, 0), 0, "total == 0 must not divide by zero");
        // total == 0 with spurious progress (done > total).
        assert_eq!(eta_ns(1_000, 5, 0), 0);
        // done > total at every magnitude, including u64::MAX.
        assert_eq!(eta_ns(u64::MAX, u64::MAX, 0), 0);
        assert_eq!(eta_ns(u64::MAX, u64::MAX, 1), 0);
        // Maximal remaining work saturates instead of overflowing.
        assert_eq!(eta_ns(u64::MAX, 1, u64::MAX), u64::MAX);
    }
}
