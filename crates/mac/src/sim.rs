//! The DCF network simulation.
//!
//! One saturating UDP flow runs from the wireless client to the access
//! point (the paper's iperf arrangement) while the AP answers with ACKs and
//! broadcasts beacons. The jammer acts through three couplings:
//!
//! * **packet corruption** — jam bursts overlap transmissions and degrade
//!   per-segment SINR ([`crate::link`]);
//! * **carrier-sense deferral** — continuous jamming energy above the
//!   client's CCA threshold freezes backoff slots, throttling and finally
//!   silencing the transmitter ("connection to the access point was lost");
//! * **beacon starvation** — a client that misses enough consecutive
//!   beacons declares link loss, reproducing the paper's observed
//!   disassociation under continuous jamming.
//!
//! Rate adaptation is ARF-style: two consecutive transmission failures step
//! the PHY rate down, ten consecutive first-attempt successes step it up.

use crate::iperf::IperfReport;
use crate::link::{ack_rate, Burst, LinkMemo};
use crate::model::{
    JammerKind, Scenario, Timings, ACK_BYTES, BEACON_BYTES, CTS_BYTES, PSDU_OVERHEAD, RTS_BYTES,
};
use rjam_obs::trace::FrameIdGen;
use rjam_obs::{HealthMonitor, LocalCounter};
use rjam_phy80211::Rate;
use rjam_sdr::rng::Rng;

/// Per-run MAC observability counters: plain `u64` increments during the
/// discrete-event loop, flushed once into the global `rjam-obs` registry
/// under `mac.*` names when the scenario completes. Zero-cost no-ops when
/// the `obs` feature is disabled.
#[derive(Default)]
struct MacCounters {
    sent: LocalCounter,
    delivered: LocalCounter,
    abandoned: LocalCounter,
    tx_attempts: LocalCounter,
    retries: LocalCounter,
    cca_defers: LocalCounter,
    beacons_ok: LocalCounter,
    beacons_missed: LocalCounter,
    disassociations: LocalCounter,
    jam_bursts: LocalCounter,
    jam_airtime_us: LocalCounter,
}

impl MacCounters {
    fn flush(&mut self) {
        use rjam_obs::registry::flush_counter;
        flush_counter("mac.datagrams_sent", &mut self.sent);
        flush_counter("mac.datagrams_delivered", &mut self.delivered);
        flush_counter("mac.datagrams_abandoned", &mut self.abandoned);
        flush_counter("mac.tx_attempts", &mut self.tx_attempts);
        flush_counter("mac.retries", &mut self.retries);
        flush_counter("mac.cca_defers", &mut self.cca_defers);
        flush_counter("mac.beacons_ok", &mut self.beacons_ok);
        flush_counter("mac.beacons_missed", &mut self.beacons_missed);
        flush_counter("mac.disassociations", &mut self.disassociations);
        flush_counter("mac.jam_bursts", &mut self.jam_bursts);
        flush_counter("mac.jam_airtime_us", &mut self.jam_airtime_us);
    }

    /// Drains `other` into `self` (field-wise counter addition).
    fn absorb(&mut self, other: &mut MacCounters) {
        self.sent.add(other.sent.take());
        self.delivered.add(other.delivered.take());
        self.abandoned.add(other.abandoned.take());
        self.tx_attempts.add(other.tx_attempts.take());
        self.retries.add(other.retries.take());
        self.cca_defers.add(other.cca_defers.take());
        self.beacons_ok.add(other.beacons_ok.take());
        self.beacons_missed.add(other.beacons_missed.take());
        self.disassociations.add(other.disassociations.take());
        self.jam_bursts.add(other.jam_bursts.take());
        self.jam_airtime_us.add(other.jam_airtime_us.take());
    }
}

/// A mergeable batch of `mac.*` counter deltas whose publication into the
/// global `rjam-obs` registry is *deferred*.
///
/// The sharded campaign engine hands each worker its own `MacObsDelta`
/// (via [`ScenarioRun::obs_into`]), merges the per-shard deltas in shard
/// order at join, and publishes once — so the registry sees exactly the
/// same totals as a serial run, independent of thread count. With the
/// `obs` feature disabled this is a zero-sized no-op.
#[derive(Default)]
pub struct MacObsDelta {
    counters: MacCounters,
}

impl MacObsDelta {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes `other` and folds its deltas into `self`. The campaign
    /// engine's ordered merge moves shard results into place without
    /// clones; this is the obs-delta leg of that path.
    pub fn absorb(&mut self, mut other: MacObsDelta) {
        self.counters.absorb(&mut other.counters);
    }

    /// Publishes the batched deltas into the global registry and zeroes
    /// the batch.
    pub fn publish(&mut self) {
        self.counters.flush();
    }

    /// Datagrams sent recorded in this (unpublished) batch. Zero with the
    /// `obs` feature disabled.
    pub fn datagrams_sent(&self) -> u64 {
        self.counters.sent.get()
    }
}

/// ARF: consecutive failures before stepping the rate down.
const ARF_DOWN_AFTER: u32 = 2;
/// ARF: consecutive first-attempt successes before probing a higher rate.
const ARF_UP_AFTER: u32 = 10;
/// Mean busy-period length charged per deferred (frozen) backoff slot, us.
const DEFER_BUSY_US: f64 = 60.0;
/// Deferred slots within one backoff after which the attempt is abandoned
/// (queue overflow / local congestion at the client).
const MAX_DEFERS_PER_BACKOFF: u32 = 2_000;

struct RateController {
    idx: usize,
    consec_fail: u32,
    consec_ok: u32,
}

impl RateController {
    fn new(start: Rate) -> Self {
        let idx = Rate::ALL.iter().position(|&r| r == start).unwrap();
        RateController {
            idx,
            consec_fail: 0,
            consec_ok: 0,
        }
    }

    fn rate(&self) -> Rate {
        Rate::ALL[self.idx]
    }

    fn on_success(&mut self, first_attempt: bool) {
        self.consec_fail = 0;
        if first_attempt {
            self.consec_ok += 1;
            if self.consec_ok >= ARF_UP_AFTER && self.idx + 1 < Rate::ALL.len() {
                self.idx += 1;
                self.consec_ok = 0;
            }
        } else {
            self.consec_ok = 0;
        }
    }

    fn on_failure(&mut self) {
        self.consec_ok = 0;
        self.consec_fail += 1;
        if self.consec_fail >= ARF_DOWN_AFTER && self.idx > 0 {
            self.idx -= 1;
            self.consec_fail = 0;
        }
    }
}

/// Jammer RF-on-time accounting for the energy-efficiency analysis.
#[derive(Default)]
struct JamAccounting {
    bursts: u64,
    airtime_us: f64,
}

/// Draws the reactive jam burst triggered by one frame transmission, if
/// the detector fires on it.
fn reactive_burst(jammer: &JammerKind, rng: &mut Rng, acct: &mut JamAccounting) -> Option<Burst> {
    match jammer {
        JammerKind::Reactive {
            uptime_us,
            response_us,
            delay_us,
            detect_prob,
        } if rng.chance(*detect_prob) => {
            let start = response_us + delay_us;
            acct.bursts += 1;
            acct.airtime_us += uptime_us;
            Some(Burst {
                start_us: start,
                end_us: start + uptime_us,
            })
        }
        _ => None,
    }
}

/// Runs one scenario to completion and reports iperf-style results.
///
/// Equivalent to `ScenarioRun::new(sc).run()`; use [`ScenarioRun`] to
/// defer obs publication or attach a health monitor.
pub fn run_scenario(sc: &Scenario) -> IperfReport {
    ScenarioRun::new(sc).run()
}

/// One configured execution of the DES loop: the scenario plus every
/// optional coupling that used to live in positional-argument variants.
///
/// ```
/// use rjam_mac::{Scenario, sim::ScenarioRun};
/// let sc = Scenario { duration_s: 0.05, ..Scenario::default() };
/// let report = ScenarioRun::new(&sc).run();
/// assert!(report.sent > 0);
/// ```
///
/// Options compose freely:
/// * [`ScenarioRun::obs_into`] — batch `mac.*` counter deltas into a
///   [`MacObsDelta`] instead of publishing them at run end (the sharded
///   campaign engine's deferred-merge path);
/// * [`ScenarioRun::health`] — feed every datagram outcome into an online
///   [`HealthMonitor`], which judges windowed PRR / jam-rate against its
///   rule set as the run progresses (`rjamctl monitor`).
pub struct ScenarioRun<'a> {
    scenario: &'a Scenario,
    obs_out: Option<&'a mut MacObsDelta>,
    health: Option<&'a mut HealthMonitor>,
}

impl<'a> ScenarioRun<'a> {
    /// A run with immediate obs publication and no health monitor.
    pub fn new(scenario: &'a Scenario) -> Self {
        ScenarioRun {
            scenario,
            obs_out: None,
            health: None,
        }
    }

    /// Defers obs publication: `mac.*` counter deltas accumulate into
    /// `delta` instead of the global registry, for later
    /// [`MacObsDelta::publish`] (typically after a shard merge).
    pub fn obs_into(mut self, delta: &'a mut MacObsDelta) -> Self {
        self.obs_out = Some(delta);
        self
    }

    /// Attaches an online health monitor: every datagram's final outcome
    /// (delivered / jammed / missed) is fed to
    /// [`HealthMonitor::note_frame`] as it resolves, so change-point rules
    /// such as PRR collapse evaluate *during* the run instead of from the
    /// end-of-run counter flush. Purely observational — the DES result is
    /// bit-identical with or without a monitor attached.
    pub fn health(mut self, monitor: &'a mut HealthMonitor) -> Self {
        self.health = Some(monitor);
        self
    }

    /// Executes the DES loop to completion.
    pub fn run(self) -> IperfReport {
        run_inner(
            self.scenario,
            self.obs_out,
            self.health,
            &mut LinkMemo::new(),
        )
    }
}

/// The DES loop. Every link evaluation goes through `link`, the run's own
/// memo of the analytic model: its arguments are scenario constants, so
/// after the first few frames each one is a table lookup.
fn run_inner(
    sc: &Scenario,
    obs_out: Option<&mut MacObsDelta>,
    mut health: Option<&mut HealthMonitor>,
    link: &mut LinkMemo,
) -> IperfReport {
    let t = Timings::default();
    let mut rng = Rng::seed_from(sc.seed);
    let duration_us = sc.duration_s * 1e6;
    let psdu_len = sc.payload_bytes + PSDU_OVERHEAD;
    // CBR arrival interval for the offered load.
    let arrival_us = sc.payload_bytes as f64 * 8.0 / sc.offered_mbps;
    let continuous = sc.jammer == JammerKind::Continuous;

    let mut now_us = 0.0f64;
    let mut rc = RateController::new(sc.start_rate);
    let mut sent: u64 = 0;
    let mut received: u64 = 0;
    let mut next_arrival = 0.0f64;
    let mut next_beacon = t.beacon_interval_us;
    let mut missed_beacons = 0u32;
    let mut disassociated = false;
    // Grown as deliveries land rather than sized up front, so an absurd
    // duration costs simulation time, not one huge allocation.
    let seconds = sc.duration_s.ceil() as usize;
    let mut per_second: Vec<u64> = Vec::new();
    let mut rate_accum = 0.0f64;
    let mut rate_count = 0u64;
    let mut acct = JamAccounting::default();
    let mut obs = MacCounters::default();
    // One frame id per datagram, in emission order: the health monitor
    // names the frames behind an alarm by these ids.
    let mut frame_ids = FrameIdGen::new();

    'outer: while now_us < duration_us {
        // --- Beacons due before the next data activity.
        //
        // Beacons are 802.11b DSSS frames (mixed-mode AP): the reactive
        // jammer's OFDM-preamble correlator never triggers on them, and
        // under continuous jamming they enjoy the Barker spreading gain.
        while next_beacon <= now_us {
            let ok = if disassociated {
                false
            } else {
                let g = crate::model::DSSS_SPREADING_GAIN_DB;
                let p = link.frame_success_prob(
                    Rate::R6,
                    BEACON_BYTES,
                    sc.snr_client_db + g,
                    sc.sir_client_db + g,
                    &[],
                    continuous,
                );
                rng.chance(p)
            };
            if ok {
                obs.beacons_ok.inc();
                missed_beacons = 0;
            } else {
                obs.beacons_missed.inc();
                missed_beacons += 1;
                if missed_beacons >= t.beacon_loss_limit {
                    if !disassociated {
                        obs.disassociations.inc();
                    }
                    disassociated = true;
                }
            }
            next_beacon += t.beacon_interval_us;
        }

        // --- Wait for traffic.
        if next_arrival > now_us {
            now_us = next_arrival;
            continue;
        }
        // One datagram enters the MAC queue.
        next_arrival += arrival_us;
        sent += 1;
        obs.sent.inc();
        let fid = frame_ids.mint();
        if disassociated {
            // The client has dropped off the network: datagram lost.
            obs.abandoned.inc();
            if let Some(mon) = health.as_deref_mut() {
                mon.note_frame(fid.raw(), false, false);
            }
            continue;
        }

        // --- DCF: DIFS + random backoff with CCA deferral.
        let mut cw = t.cw_min;
        let mut attempt = 0u32;
        let mut delivered = false;
        let mut frame_jammed = false;
        loop {
            // Medium must be idle through DIFS; continuous jamming energy
            // above the CCA threshold keeps deferring it.
            let mut defers = 0u32;
            while continuous && rng.chance(sc.cca_defer_prob) {
                now_us += DEFER_BUSY_US;
                defers += 1;
                obs.cca_defers.inc();
                if defers >= MAX_DEFERS_PER_BACKOFF {
                    break;
                }
            }
            now_us += t.difs_us();
            let mut slots = rng.below(cw as u64 + 1);
            while slots > 0 && defers < MAX_DEFERS_PER_BACKOFF {
                if continuous && rng.chance(sc.cca_defer_prob) {
                    now_us += DEFER_BUSY_US;
                    defers += 1;
                    obs.cca_defers.inc();
                    if defers >= MAX_DEFERS_PER_BACKOFF {
                        // Medium never clears: the client cannot transmit.
                        break;
                    }
                } else {
                    now_us += t.slot_us;
                    slots -= 1;
                }
            }
            if defers >= MAX_DEFERS_PER_BACKOFF {
                // Abandon this datagram; medium is saturated with energy.
                break;
            }
            if now_us >= duration_us {
                break 'outer;
            }

            // --- Optional RTS/CTS protection exchange at the basic rate.
            attempt += 1;
            obs.tx_attempts.inc();
            if sc.rts_cts {
                let rts_rate = Rate::R6;
                let rts_air = rts_rate.frame_airtime_us(RTS_BYTES);
                let rts_burst = reactive_burst(&sc.jammer, &mut rng, &mut acct);
                let p_rts = link.frame_success_prob(
                    rts_rate,
                    RTS_BYTES,
                    sc.snr_ap_db,
                    sc.sir_ap_db,
                    rts_burst.as_slice(),
                    continuous,
                );
                let rts_ok = rng.chance(p_rts);
                now_us += rts_air + t.sifs_us;
                let mut cts_ok = false;
                if rts_ok {
                    let cts_air = Rate::R6.frame_airtime_us(CTS_BYTES);
                    let cts_burst = reactive_burst(&sc.jammer, &mut rng, &mut acct);
                    let p_cts = link.frame_success_prob(
                        Rate::R6,
                        CTS_BYTES,
                        sc.snr_client_db,
                        sc.sir_client_db,
                        cts_burst.as_slice(),
                        continuous,
                    );
                    cts_ok = rng.chance(p_cts);
                    now_us += cts_air + t.sifs_us;
                } else {
                    now_us += 50.0; // CTS timeout
                }
                if !cts_ok {
                    // Handshake failed: counts as a transmission failure.
                    rc.on_failure();
                    if attempt > t.retry_limit {
                        break;
                    }
                    obs.retries.inc();
                    cw = ((cw + 1) * 2 - 1).min(t.cw_max);
                    continue;
                }
            }

            // --- Transmit the data frame.
            let rate = rc.rate();
            let airtime = rate.frame_airtime_us(psdu_len);
            let burst = reactive_burst(&sc.jammer, &mut rng, &mut acct);
            frame_jammed |= burst.is_some();
            let p_data = link.frame_success_prob(
                rate,
                psdu_len,
                sc.snr_ap_db,
                sc.sir_ap_db,
                burst.as_slice(),
                continuous,
            );
            let data_ok = rng.chance(p_data);
            now_us += airtime;

            // --- ACK (SIFS later, at the basic rate).
            let mut ack_ok = false;
            if data_ok {
                now_us += t.sifs_us;
                let a_rate = ack_rate(rate);
                let a_air = a_rate.frame_airtime_us(ACK_BYTES);
                // The reactive jammer triggers on the ACK as well; a long
                // burst from the data frame may also still be up, shifted
                // into ACK-relative time.
                let offset = airtime + t.sifs_us;
                let carried = burst.filter(|b| b.end_us > offset).map(|b| Burst {
                    start_us: b.start_us - offset,
                    end_us: b.end_us - offset,
                });
                let own = reactive_burst(&sc.jammer, &mut rng, &mut acct);
                let mut ack_bursts = [Burst::default(); 2];
                let mut n_ack_bursts = 0;
                for b in [own, carried].into_iter().flatten() {
                    ack_bursts[n_ack_bursts] = b;
                    n_ack_bursts += 1;
                }
                let p_ack = link.frame_success_prob(
                    a_rate,
                    ACK_BYTES,
                    sc.snr_client_db,
                    sc.sir_client_db,
                    &ack_bursts[..n_ack_bursts],
                    continuous,
                );
                ack_ok = rng.chance(p_ack);
                now_us += a_air;
            } else {
                // ACK timeout.
                now_us += t.sifs_us + 50.0;
            }

            if data_ok {
                // The AP got the datagram (duplicates filtered): count once.
                if !delivered {
                    delivered = true;
                    received += 1;
                    obs.delivered.inc();
                    let sec = (now_us / 1e6) as usize;
                    if sec < seconds {
                        if sec >= per_second.len() {
                            per_second.resize(sec + 1, 0);
                        }
                        per_second[sec] += 1;
                    }
                    rate_accum += rate.mbps();
                    rate_count += 1;
                }
            }
            if data_ok && ack_ok {
                rc.on_success(attempt == 1);
                break;
            }
            // Transmission failed (no ACK): retry with doubled CW.
            rc.on_failure();
            if attempt > t.retry_limit {
                break;
            }
            obs.retries.inc();
            cw = ((cw + 1) * 2 - 1).min(t.cw_max);
        }
        if !delivered {
            obs.abandoned.inc();
        }
        if let Some(mon) = health.as_deref_mut() {
            mon.note_frame(fid.raw(), delivered, frame_jammed);
        }
    }

    debug_assert!(link.len() <= LinkMemo::RUN_BOUND);
    per_second.resize(seconds, 0);
    let per_second_kbps: Vec<f64> = per_second
        .iter()
        .map(|&n| n as f64 * sc.payload_bytes as f64 * 8.0 / 1000.0)
        .collect();
    let mean_rate = if rate_count > 0 {
        rate_accum / rate_count as f64
    } else {
        0.0
    };
    if continuous {
        acct.airtime_us = now_us.min(duration_us);
        acct.bursts = 1;
    }
    obs.jam_bursts.add(acct.bursts);
    obs.jam_airtime_us.add(acct.airtime_us as u64);
    match obs_out {
        // Deferred: the caller batches this run's deltas (shard merge).
        Some(delta) => delta.counters.absorb(&mut obs),
        // Immediate: publish into the global registry at run end.
        None => obs.flush(),
    }
    IperfReport::from_counts(
        sent,
        received,
        sc.payload_bytes,
        sc.duration_s,
        per_second_kbps,
        disassociated,
        mean_rate,
        acct.bursts,
        acct.airtime_us,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Scenario {
        Scenario {
            duration_s: 5.0,
            ..Scenario::default()
        }
    }

    #[test]
    fn clean_link_reaches_paper_ceiling() {
        let sc = base();
        let r = run_scenario(&sc);
        // The paper measures ~29 Mb/s of UDP goodput at 54 Mb/s PHY; DCF
        // overhead should land us in the 25-33 Mb/s band.
        assert!(
            r.bandwidth_kbps > 25_000.0 && r.bandwidth_kbps < 33_000.0,
            "bw={:.0} kbps",
            r.bandwidth_kbps
        );
        assert!(r.prr_percent > 95.0, "prr={}", r.prr_percent);
        assert!(!r.disassociated);
    }

    #[test]
    fn deterministic_given_seed() {
        let sc = base();
        let a = run_scenario(&sc);
        let b = run_scenario(&sc);
        assert_eq!(a.sent, b.sent);
        assert_eq!(a.received, b.received);
    }

    #[test]
    fn scenario_run_options_do_not_change_results() {
        // Deferring obs or attaching a monitor must not perturb the DES
        // outcome — options only observe, never couple into the RNG.
        let sc = base();
        let plain = run_scenario(&sc);
        let mut delta = MacObsDelta::new();
        let deferred = ScenarioRun::new(&sc).obs_into(&mut delta).run();
        assert_eq!(plain.sent, deferred.sent);
        assert_eq!(plain.received, deferred.received);
        let mut mon = HealthMonitor::new(16);
        let monitored = ScenarioRun::new(&sc).health(&mut mon).run();
        assert_eq!(plain.sent, monitored.sent);
        assert_eq!(plain.received, monitored.received);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn jammed_run_with_monitor_raises_prr_collapse() {
        use rjam_obs::health::HealthEvent;
        // Long-uptime reactive jamming at low SIR: PRR collapses below 10%,
        // so every cadence window sits far under the CUSUM reference and
        // the rule must trip.
        let sc = Scenario {
            jammer: JammerKind::Reactive {
                uptime_us: 100.0,
                response_us: 2.64,
                delay_us: 0.0,
                detect_prob: 0.99,
            },
            sir_ap_db: 1.0,
            sir_client_db: -5.0,
            duration_s: 1.0,
            ..base()
        };
        let mut mon = HealthMonitor::new(16);
        let r = ScenarioRun::new(&sc).health(&mut mon).run();
        assert!(r.prr_percent < 10.0, "prr={}", r.prr_percent);
        let raised = mon
            .events()
            .iter()
            .any(|e| matches!(e, HealthEvent::AlarmRaised { rule, .. } if rule == "prr_collapse"));
        assert!(raised, "monitor must flag the collapsed link");
        // The DES mints one frame id per datagram from 1, so the first
        // alarm names the same frames on every run.
        let first = mon
            .events()
            .iter()
            .find(|e| matches!(e, HealthEvent::AlarmRaised { .. }));
        let Some(HealthEvent::AlarmRaised { frame, frames, .. }) = first else {
            panic!("no alarm_raised event");
        };
        assert_eq!(*frame, 32);
        assert_eq!(*frames, (25..=32).collect::<Vec<u64>>());
        assert!(mon.frames_to_first_alarm().is_some());
        let v = mon.finish();
        assert!(!v.healthy);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn deferred_obs_batches_merge_like_serial_flushes() {
        use rjam_obs::registry::counter_value;
        let sc = Scenario {
            duration_s: 1.0,
            ..base()
        };
        // Two deferred runs merged into one batch...
        let mut a = MacObsDelta::new();
        let mut b = MacObsDelta::new();
        let other = Scenario {
            seed: 999,
            ..sc.clone()
        };
        let ra = ScenarioRun::new(&sc).obs_into(&mut a).run();
        let rb = ScenarioRun::new(&other).obs_into(&mut b).run();
        a.absorb(b);
        assert_eq!(a.datagrams_sent(), ra.sent + rb.sent);
        // ...publish exactly once, as one registry delta.
        let before = counter_value("mac.datagrams_sent");
        a.publish();
        assert!(counter_value("mac.datagrams_sent") >= before + ra.sent + rb.sent);
        assert_eq!(a.datagrams_sent(), 0, "publish drains the batch");
    }

    #[test]
    fn continuous_jam_low_power_degrades() {
        let sc = Scenario {
            jammer: JammerKind::Continuous,
            sir_ap_db: 40.0,
            sir_client_db: 40.0,
            cca_defer_prob: 0.3,
            ..base()
        };
        let r = run_scenario(&sc);
        let clean = run_scenario(&base());
        assert!(
            r.bandwidth_kbps < 0.8 * clean.bandwidth_kbps,
            "jammed {:.0} vs clean {:.0}",
            r.bandwidth_kbps,
            clean.bandwidth_kbps
        );
        assert!(r.bandwidth_kbps > 0.0);
    }

    #[test]
    fn continuous_jam_cca_saturation_kills_link() {
        let sc = Scenario {
            jammer: JammerKind::Continuous,
            sir_ap_db: 33.0,
            sir_client_db: 27.0,
            cca_defer_prob: 1.0,
            ..base()
        };
        let r = run_scenario(&sc);
        assert_eq!(r.received, 0, "CCA-saturated client must deliver nothing");
    }

    #[test]
    fn continuous_beacon_loss_disassociates() {
        // Deep continuous jamming: even the DSSS beacons (10.4 dB spreading
        // gain) drown once the SIR at the client is far enough below zero.
        let sc = Scenario {
            jammer: JammerKind::Continuous,
            sir_ap_db: -10.0,
            sir_client_db: -10.0,
            cca_defer_prob: 0.9,
            duration_s: 10.0,
            ..base()
        };
        let r = run_scenario(&sc);
        assert!(
            r.disassociated,
            "deep continuous jamming must drop the link"
        );
        assert_eq!(r.received, 0);
    }

    #[test]
    fn reactive_jamming_never_disassociates() {
        // The reactive jammer triggers only on OFDM preambles; DSSS beacons
        // pass untouched and the client stays associated even while PRR
        // collapses — the paper's stealth observation.
        let sc = Scenario {
            jammer: JammerKind::Reactive {
                uptime_us: 100.0,
                response_us: 2.64,
                delay_us: 0.0,
                detect_prob: 0.99,
            },
            sir_ap_db: 1.0,
            sir_client_db: -5.0,
            duration_s: 10.0,
            ..base()
        };
        let r = run_scenario(&sc);
        assert!(
            !r.disassociated,
            "reactive jamming must not drop association"
        );
        // The floor is set by detector leakage: ~1% of frames go unjammed
        // and retries give each datagram several chances.
        assert!(r.prr_percent < 10.0, "prr={}", r.prr_percent);
    }

    #[test]
    fn reactive_long_uptime_collapses_capacity_at_moderate_sir() {
        // At 14 dB SIR the 100 us jammer kills every 54 Mb/s frame, forcing
        // the link down the rate ladder: goodput collapses by an order of
        // magnitude even though low-rate frames still squeak through.
        let sc = Scenario {
            jammer: JammerKind::Reactive {
                uptime_us: 100.0,
                response_us: 2.64,
                delay_us: 0.0,
                detect_prob: 0.99,
            },
            sir_ap_db: 14.0,
            sir_client_db: 8.0,
            ..base()
        };
        let r = run_scenario(&sc);
        let clean = run_scenario(&base());
        assert!(
            r.bandwidth_kbps < 0.5 * clean.bandwidth_kbps,
            "jammed {:.0} vs clean {:.0} kbps",
            r.bandwidth_kbps,
            clean.bandwidth_kbps
        );
        assert!(r.mean_phy_rate_mbps < 30.0, "rate {}", r.mean_phy_rate_mbps);
    }

    #[test]
    fn reactive_long_uptime_kills_at_low_sir() {
        let sc = Scenario {
            jammer: JammerKind::Reactive {
                uptime_us: 100.0,
                response_us: 2.64,
                delay_us: 0.0,
                detect_prob: 0.99,
            },
            sir_ap_db: 1.0,
            sir_client_db: -5.0,
            ..base()
        };
        let r = run_scenario(&sc);
        assert!(r.prr_percent < 10.0, "prr={}", r.prr_percent);
    }

    #[test]
    fn reactive_long_uptime_survives_high_sir() {
        let sc = Scenario {
            jammer: JammerKind::Reactive {
                uptime_us: 100.0,
                response_us: 2.64,
                delay_us: 0.0,
                detect_prob: 0.99,
            },
            sir_ap_db: 35.0,
            sir_client_db: 29.0,
            ..base()
        };
        let r = run_scenario(&sc);
        assert!(r.prr_percent > 80.0, "prr={}", r.prr_percent);
    }

    #[test]
    fn reactive_short_uptime_needs_more_power() {
        let short = |sir: f64| {
            run_scenario(&Scenario {
                jammer: JammerKind::Reactive {
                    uptime_us: 10.0,
                    response_us: 2.64,
                    delay_us: 0.0,
                    detect_prob: 0.99,
                },
                sir_ap_db: sir,
                sir_client_db: sir - 6.0,
                ..base()
            })
        };
        // At 14 dB SIR (where the 100 us jammer already collapses the
        // link), the 10 us jammer barely dents it...
        let weak = short(14.0);
        assert!(weak.prr_percent > 70.0, "prr={}", weak.prr_percent);
        // ...but near -2 dB it kills too (paper: 2.79 dB).
        let strong = short(-2.0);
        assert!(strong.prr_percent < 10.0, "prr={}", strong.prr_percent);
    }

    #[test]
    fn rate_fallback_engages_under_jamming() {
        let sc = Scenario {
            jammer: JammerKind::Continuous,
            sir_ap_db: 17.0,
            sir_client_db: 17.0,
            cca_defer_prob: 0.0,
            ..base()
        };
        let r = run_scenario(&sc);
        // 54 Mb/s cannot survive 17 dB SINR; the link falls back but lives.
        assert!(
            r.mean_phy_rate_mbps < 40.0,
            "mean rate {}",
            r.mean_phy_rate_mbps
        );
        assert!(r.received > 0);
    }

    #[test]
    fn reactive_energy_is_tiny_compared_to_continuous() {
        let reactive = run_scenario(&Scenario {
            jammer: JammerKind::Reactive {
                uptime_us: 100.0,
                response_us: 2.64,
                delay_us: 0.0,
                detect_prob: 0.99,
            },
            sir_ap_db: 14.0,
            sir_client_db: 8.0,
            ..base()
        });
        let cont = run_scenario(&Scenario {
            jammer: JammerKind::Continuous,
            sir_ap_db: 14.0,
            sir_client_db: 8.0,
            cca_defer_prob: 0.9,
            ..base()
        });
        assert!(reactive.jam_bursts > 100, "bursts={}", reactive.jam_bursts);
        let duty = reactive.jam_duty_percent(5.0);
        assert!(duty < 35.0, "reactive duty {duty}%");
        // Continuous RF is on 100% of the run; the reactive jammer achieves
        // comparable disruption at a fraction of the on-air time (the margin
        // grows as uptime shrinks — see the energy_efficiency binary).
        assert!(
            cont.jam_airtime_us > 3.0 * reactive.jam_airtime_us,
            "continuous {} us vs reactive {} us",
            cont.jam_airtime_us,
            reactive.jam_airtime_us
        );
    }

    #[test]
    fn rts_cts_does_not_defend_against_reactive_jamming() {
        let jam = JammerKind::Reactive {
            uptime_us: 100.0,
            response_us: 2.64,
            delay_us: 0.0,
            detect_prob: 0.99,
        };
        let plain = run_scenario(&Scenario {
            jammer: jam.clone(),
            sir_ap_db: 14.0,
            sir_client_db: 8.0,
            ..base()
        });
        let protected = run_scenario(&Scenario {
            jammer: jam,
            sir_ap_db: 14.0,
            sir_client_db: 8.0,
            rts_cts: true,
            ..base()
        });
        // Protection adds airtime overhead and hands the jammer extra
        // trigger opportunities: goodput must not improve.
        assert!(
            protected.bandwidth_kbps <= 1.05 * plain.bandwidth_kbps,
            "protected {} vs plain {}",
            protected.bandwidth_kbps,
            plain.bandwidth_kbps
        );
    }

    #[test]
    fn rts_cts_costs_throughput_on_clean_links() {
        let plain = run_scenario(&base());
        let protected = run_scenario(&Scenario {
            rts_cts: true,
            ..base()
        });
        assert!(
            protected.bandwidth_kbps < plain.bandwidth_kbps,
            "handshake overhead must show: {} vs {}",
            protected.bandwidth_kbps,
            plain.bandwidth_kbps
        );
        assert!(protected.prr_percent > 95.0);
    }

    #[test]
    fn per_second_series_sums_to_total() {
        let sc = Scenario {
            duration_s: 4.0,
            ..base()
        };
        let r = run_scenario(&sc);
        assert_eq!(r.per_second_kbps.len(), 4);
        let series_bits: f64 = r.per_second_kbps.iter().sum::<f64>() * 1000.0;
        let total_bits = r.received as f64 * sc.payload_bytes as f64 * 8.0;
        // A delivery completing in the last instants can index past the
        // final bucket; allow a couple of datagrams of slack.
        let slack = 3.0 * sc.payload_bytes as f64 * 8.0;
        assert!(
            (series_bits - total_bits).abs() <= slack,
            "series {series_bits} vs total {total_bits}"
        );
        // Steady state: no second deviates wildly from the mean.
        let mean = series_bits / 4.0;
        for (k, &s) in r.per_second_kbps.iter().enumerate() {
            assert!((s * 1000.0 - mean).abs() < 0.2 * mean, "second {k}: {s}");
        }
    }

    #[test]
    fn offered_load_limits_sent_count() {
        let sc = Scenario {
            offered_mbps: 1.0,
            duration_s: 2.0,
            ..base()
        };
        let r = run_scenario(&sc);
        // 1 Mb/s of 1470 B datagrams for 2 s = ~170 datagrams.
        assert!((r.sent as i64 - 170).abs() <= 2, "sent={}", r.sent);
        assert!(r.prr_percent > 99.0);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn scenario_run_flushes_mac_counters() {
        use rjam_obs::registry::counter_value;
        let before_sent = counter_value("mac.datagrams_sent");
        let before_recv = counter_value("mac.datagrams_delivered");
        let before_attempts = counter_value("mac.tx_attempts");
        let r = run_scenario(&base());
        // Other tests run in parallel against the same global registry, so
        // assert growth by at least this run's contribution.
        assert!(
            counter_value("mac.datagrams_sent") >= before_sent + r.sent,
            "sent counter must grow by at least {}",
            r.sent
        );
        assert!(counter_value("mac.datagrams_delivered") >= before_recv + r.received);
        // Every delivery took at least one attempt.
        assert!(counter_value("mac.tx_attempts") >= before_attempts + r.received);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn continuous_jamming_records_cca_defers() {
        use rjam_obs::registry::counter_value;
        let before = counter_value("mac.cca_defers");
        run_scenario(&Scenario {
            jammer: JammerKind::Continuous,
            sir_ap_db: 33.0,
            sir_client_db: 27.0,
            cca_defer_prob: 1.0,
            ..base()
        });
        assert!(
            counter_value("mac.cca_defers") > before,
            "CCA-saturated run must record deferred slots"
        );
    }

    #[test]
    fn surgical_delay_shifts_burst_into_data() {
        // A 10 us burst delayed to hit the DATA region (not the protected
        // preamble) is lethal at moderate SIR — the paper's "surgical"
        // attack on specific packet locations.
        let mk = |delay_us: f64| Scenario {
            jammer: JammerKind::Reactive {
                uptime_us: 10.0,
                response_us: 2.64,
                delay_us,
                detect_prob: 0.99,
            },
            sir_ap_db: 14.0,
            sir_client_db: 8.0,
            ..base()
        };
        // Delay 25 us lands the burst at ~27.6 us: the first data symbols.
        let surgical = run_scenario(&mk(25.0));
        // Without delay the burst ends inside the robust preamble.
        let undelayed = run_scenario(&mk(0.0));
        assert!(
            surgical.bandwidth_kbps < 0.5 * undelayed.bandwidth_kbps,
            "surgical {:.0} vs undelayed {:.0} kbps",
            surgical.bandwidth_kbps,
            undelayed.bandwidth_kbps
        );
    }

    #[test]
    fn link_memo_stays_within_its_run_bound() {
        // The campaign's four jammer shapes over the SIRs, seeds and
        // RTS/CTS settings of rjam-core's pinned report table (whose runs
        // check the same bound through the debug assertion at run end),
        // plus a short payload whose data-frame bursts carry over into the
        // ACK.
        let reactive = |uptime_us| JammerKind::Reactive {
            uptime_us,
            response_us: 2.64,
            delay_us: 0.0,
            detect_prob: 0.995,
        };
        let jammers = [
            JammerKind::Off,
            JammerKind::Continuous,
            reactive(100.0),
            reactive(10.0),
        ];
        for jammer in jammers {
            for sir in [-5.0, 1.0, 14.0, 33.0, 60.0] {
                for (seed, payload_bytes) in [(1, 1470), (0xDC0F, 1470), (7, 100)] {
                    for rts_cts in [false, true] {
                        let sc = Scenario {
                            jammer: jammer.clone(),
                            sir_ap_db: sir,
                            sir_client_db: sir,
                            cca_defer_prob: if jammer == JammerKind::Continuous {
                                0.2
                            } else {
                                0.0
                            },
                            payload_bytes,
                            duration_s: 0.5,
                            rts_cts,
                            seed,
                            ..Scenario::default()
                        };
                        let mut link = LinkMemo::new();
                        run_inner(&sc, None, None, &mut link);
                        assert!(link.len() <= LinkMemo::RUN_BOUND, "{sc:?}: {}", link.len());
                    }
                }
            }
        }
    }
}
