//! Per-packet link evaluation under jamming.
//!
//! A frame is split into three regions with different vulnerability:
//!
//! 1. **PLCP preamble** (0-16 us). Synchronization is a correlation over
//!    many samples (high processing gain), but channel estimation errors
//!    bias every later symbol, so the two effects roughly cancel: the
//!    region behaves like a short block of coded-BPSK decisions, plus the
//!    tunable [`PREAMBLE_GAIN_DB`]. With the default of 0 dB the model's
//!    preamble-confined kill point lands at ~3 dB SINR — right where the
//!    paper measures the 0.01 ms jammer's kill (2.79 dB SIR), whose burst
//!    ends inside the preamble.
//! 2. **SIGNAL field** (16-20 us). One BPSK-1/2 symbol with no such gain;
//!    losing it loses the frame.
//! 3. **DATA** (20 us+). Evaluated segment-wise through the
//!    `rjam-phy80211::per` union-bound model at the frame's rate.

use crate::model::combine_sinr_db;
use rjam_phy80211::per::{per_segments, Segment};
use rjam_phy80211::Rate;

/// Net processing-gain adjustment for preamble acquisition under
/// partial-time interference, dB. Correlation gain and channel-estimation
/// fragility roughly cancel; the paper's measured 0.01 ms (preamble-only)
/// kill point of 2.79 dB SIR pins this near zero.
pub const PREAMBLE_GAIN_DB: f64 = 0.0;

/// Preamble duration in microseconds.
const T_PREAMBLE_US: f64 = 16.0;
/// SIGNAL field duration in microseconds.
const T_SIGNAL_US: f64 = 4.0;

/// A jamming burst in microseconds relative to the frame's first sample.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Burst {
    /// Burst start (us, may be negative if jamming began before the frame).
    pub start_us: f64,
    /// Burst end (us).
    pub end_us: f64,
}

impl Burst {
    /// Overlap of this burst with `[lo, hi)` in microseconds.
    fn overlap(&self, lo: f64, hi: f64) -> f64 {
        (self.end_us.min(hi) - self.start_us.max(lo)).max(0.0)
    }
}

/// Computes the probability that a frame survives the channel.
///
/// ```
/// use rjam_mac::link::{frame_success_prob, Burst};
/// use rjam_phy80211::Rate;
/// // A clean 54 Mb/s frame at 30 dB SNR survives...
/// let clean = frame_success_prob(Rate::R54, 1534, 30.0, 100.0, &[], false);
/// assert!(clean > 0.99);
/// // ...but a 100 us jam burst at 10 dB SIR kills it.
/// let burst = [Burst { start_us: 2.64, end_us: 102.64 }];
/// let jammed = frame_success_prob(Rate::R54, 1534, 30.0, 10.0, &burst, false);
/// assert!(jammed < 0.01);
/// ```
///
/// * `rate`, `psdu_len` — the frame;
/// * `snr_db` — clean SNR at the receiver;
/// * `sir_db` — SIR at the receiver while the jammer transmits;
/// * `bursts` — jam bursts relative to the frame start (empty when the
///   jammer is off or never triggered);
/// * `continuous` — the jammer transmits for the whole frame duration.
pub fn frame_success_prob(
    rate: Rate,
    psdu_len: usize,
    snr_db: f64,
    sir_db: f64,
    bursts: &[Burst],
    continuous: bool,
) -> f64 {
    let airtime = rate.frame_airtime_us(psdu_len);
    let data_dur = airtime - T_PREAMBLE_US - T_SIGNAL_US;
    let jam_sinr = combine_sinr_db(snr_db, sir_db);

    let full_frame = [Burst {
        start_us: 0.0,
        end_us: airtime,
    }];
    let bursts: &[Burst] = if continuous { &full_frame } else { bursts };

    // --- Preamble region: +processing gain, evaluated as a BPSK-1/2 block.
    let pre_jam: f64 = bursts
        .iter()
        .map(|b| b.overlap(0.0, T_PREAMBLE_US))
        .sum::<f64>()
        .min(T_PREAMBLE_US);
    let p_pre = if pre_jam > 0.0 {
        let eff = jam_sinr + PREAMBLE_GAIN_DB;
        // Treat acquisition as ~48 bit-decisions at R6 robustness, scaled by
        // the jammed fraction of the preamble.
        let frac = pre_jam / T_PREAMBLE_US;
        region_success(Rate::R6, eff, snr_db, frac, 48.0)
    } else {
        1.0
    };

    // --- SIGNAL region: 24 bits of BPSK-1/2, no gain.
    let sig_jam: f64 = bursts
        .iter()
        .map(|b| b.overlap(T_PREAMBLE_US, T_PREAMBLE_US + T_SIGNAL_US))
        .sum::<f64>()
        .min(T_SIGNAL_US);
    let p_sig = if sig_jam > 0.0 {
        region_success(Rate::R6, jam_sinr, snr_db, sig_jam / T_SIGNAL_US, 24.0)
    } else {
        // Still subject to thermal noise.
        region_success(Rate::R6, snr_db, snr_db, 1.0, 24.0)
    };

    // --- DATA region: segment-wise at the frame's own rate.
    let data_lo = T_PREAMBLE_US + T_SIGNAL_US;
    let jammed_us: f64 = bursts
        .iter()
        .map(|b| b.overlap(data_lo, airtime))
        .sum::<f64>()
        .min(data_dur.max(0.0));
    let jam_frac = if data_dur > 0.0 {
        jammed_us / data_dur
    } else {
        0.0
    };
    let segments = [
        Segment {
            fraction: 1.0 - jam_frac,
            snr_db,
        },
        Segment {
            fraction: jam_frac,
            snr_db: jam_sinr,
        },
    ];
    let p_data = 1.0 - per_segments(rate, psdu_len, &segments);

    (p_pre * p_sig * p_data).clamp(0.0, 1.0)
}

/// A memo of [`frame_success_prob`] for one scenario run.
///
/// The DES evaluates the link model for every beacon, RTS, CTS, data frame
/// and ACK, but within one run the arguments come from a small fixed set:
/// the SNRs and SIRs are scenario constants, the PSDU length is the
/// payload's or a control frame's, the rate is one of eight, and every
/// reactive burst has the same geometry (`response_us + delay_us`,
/// `uptime_us`), shifted only by the rate-dependent ACK offset when it
/// carries over from the data frame. A lookup is keyed by the exact bits of
/// every argument (`f64::to_bits`, so `0.0` and `-0.0` or two NaN payloads
/// are different keys) and a miss calls [`frame_success_prob`] itself, so
/// a hit returns the very `f64` the model would compute; the memo draws no
/// random numbers.
///
/// One run of [`crate::sim::ScenarioRun`] fills at most
/// [`LinkMemo::RUN_BOUND`] entries, so a lookup is a linear scan: for a
/// few dozen keys that beats hashing them. Calls with more than two
/// bursts, which the DES never makes, go straight to the model.
///
/// ```
/// use rjam_mac::link::{frame_success_prob, Burst, LinkMemo};
/// use rjam_phy80211::Rate;
/// let burst = [Burst { start_us: 2.64, end_us: 102.64 }];
/// let mut memo = LinkMemo::new();
/// let p = memo.frame_success_prob(Rate::R54, 1534, 30.0, 10.0, &burst, false);
/// assert_eq!(p, frame_success_prob(Rate::R54, 1534, 30.0, 10.0, &burst, false));
/// assert_eq!(memo.frame_success_prob(Rate::R54, 1534, 30.0, 10.0, &burst, false), p);
/// assert_eq!(memo.len(), 1);
/// ```
#[derive(Default)]
pub struct LinkMemo {
    entries: Vec<(LinkKey, f64)>,
}

impl LinkMemo {
    /// Most entries one scenario run can create: 1 beacon key, 2 RTS and
    /// 2 CTS keys (with and without a burst), 16 data keys (8 rates, with
    /// and without a burst) and 22 ACK keys — 3 ACK rates times with and
    /// without the ACK's own burst, plus 8 data rates times with and
    /// without it when the data frame's burst carries over.
    pub const RUN_BOUND: usize = 43;

    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`frame_success_prob`], computed once per distinct argument bits.
    pub fn frame_success_prob(
        &mut self,
        rate: Rate,
        psdu_len: usize,
        snr_db: f64,
        sir_db: f64,
        bursts: &[Burst],
        continuous: bool,
    ) -> f64 {
        let eval = || frame_success_prob(rate, psdu_len, snr_db, sir_db, bursts, continuous);
        let burst_bits = match *bursts {
            [] => [None, None],
            [a] => [Some(a), None],
            [a, b] => [Some(a), Some(b)],
            _ => return eval(),
        }
        .map(|b| b.map(|b| (b.start_us.to_bits(), b.end_us.to_bits())));
        let key = LinkKey {
            rate,
            psdu_len,
            snr_db: snr_db.to_bits(),
            sir_db: sir_db.to_bits(),
            continuous,
            bursts: burst_bits,
        };
        if let Some(&(_, p)) = self.entries.iter().find(|(k, _)| *k == key) {
            return p;
        }
        let p = eval();
        self.entries.push((key, p));
        p
    }

    /// Distinct argument sets evaluated so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True before the first lookup.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The exact bits of one [`frame_success_prob`] call with at most two
/// bursts, in call order (the overlap sums are order-sensitive).
#[derive(PartialEq)]
struct LinkKey {
    rate: Rate,
    psdu_len: usize,
    snr_db: u64,
    sir_db: u64,
    continuous: bool,
    bursts: [Option<(u64, u64)>; 2],
}

/// Success probability of a fixed-size decision region: `bits * frac`
/// decisions at `jam_sinr`, the rest at `clean_snr`, at the robustness of
/// `rate`.
fn region_success(rate: Rate, jam_sinr: f64, clean_snr: f64, frac: f64, bits: f64) -> f64 {
    let ber_jam = rjam_phy80211::per::ber_at_snr(rate, jam_sinr);
    let ber_clean = rjam_phy80211::per::ber_at_snr(rate, clean_snr);
    ((1.0 - ber_jam).powf(bits * frac)) * ((1.0 - ber_clean).powf(bits * (1.0 - frac)))
}

/// The highest 802.11g basic rate not exceeding the data rate — control
/// responses (ACKs) are transmitted at this rate.
pub fn ack_rate(data_rate: Rate) -> Rate {
    match data_rate {
        Rate::R6 | Rate::R9 => Rate::R6,
        Rate::R12 | Rate::R18 => Rate::R12,
        _ => Rate::R24,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LEN: usize = 1470 + crate::model::PSDU_OVERHEAD;

    #[test]
    fn clean_link_succeeds() {
        let p = frame_success_prob(Rate::R54, LEN, 30.0, 100.0, &[], false);
        assert!(p > 0.999, "p={p}");
    }

    #[test]
    fn low_snr_fails_without_jammer() {
        let p = frame_success_prob(Rate::R54, LEN, 10.0, 100.0, &[], false);
        assert!(p < 0.01, "p={p}");
    }

    #[test]
    fn continuous_jam_sets_floor() {
        // SIR dominates when well below SNR.
        let p = frame_success_prob(Rate::R6, LEN, 30.0, 2.0, &[], true);
        assert!(p < 0.01, "p={p}");
        let p2 = frame_success_prob(Rate::R6, LEN, 30.0, 25.0, &[], true);
        assert!(p2 > 0.9, "p2={p2}");
    }

    #[test]
    fn data_burst_kills_at_moderate_sir() {
        // A 100 us burst starting 2.64 us into a 240 us frame covers SIGNAL
        // and early data; at 12 dB SIR a 54 Mb/s frame dies.
        let burst = [Burst {
            start_us: 2.64,
            end_us: 102.64,
        }];
        let p = frame_success_prob(Rate::R54, LEN, 30.0, 12.0, &burst, false);
        assert!(p < 0.05, "p={p}");
    }

    #[test]
    fn preamble_only_burst_needs_much_more_power() {
        // A 10 us burst ending at 12.64 us sits inside the preamble.
        let burst = [Burst {
            start_us: 2.64,
            end_us: 12.64,
        }];
        // At 12 dB SIR acquisition survives (coded-BPSK robustness)...
        let p_hi = frame_success_prob(Rate::R54, LEN, 30.0, 12.0, &burst, false);
        assert!(p_hi > 0.9, "p_hi={p_hi}");
        // ...but at 0 dB SIR it is destroyed.
        let p_lo = frame_success_prob(Rate::R54, LEN, 30.0, 0.0, &burst, false);
        assert!(p_lo < 0.1, "p_lo={p_lo}");
    }

    #[test]
    fn uptime_ordering_matches_paper() {
        // Kill-SIR (p=0.5 crossing) must be significantly higher for the
        // 100 us burst than for the 10 us burst.
        let kill_sir = |burst: &[Burst]| -> f64 {
            let mut lo = -20.0;
            let mut hi = 40.0;
            for _ in 0..50 {
                let mid = 0.5 * (lo + hi);
                let p = frame_success_prob(Rate::R54, LEN, 30.0, mid, burst, false);
                if p < 0.5 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            lo
        };
        let k_long = kill_sir(&[Burst {
            start_us: 2.64,
            end_us: 102.64,
        }]);
        let k_short = kill_sir(&[Burst {
            start_us: 2.64,
            end_us: 12.64,
        }]);
        assert!(
            k_long - k_short > 8.0,
            "long-burst kill at {k_long:.1} dB, short at {k_short:.1} dB"
        );
    }

    #[test]
    fn burst_outside_frame_is_harmless() {
        let burst = [Burst {
            start_us: 500.0,
            end_us: 600.0,
        }];
        let p = frame_success_prob(Rate::R54, LEN, 30.0, -10.0, &burst, false);
        assert!(p > 0.999);
    }

    #[test]
    fn overlap_arithmetic() {
        let b = Burst {
            start_us: 10.0,
            end_us: 20.0,
        };
        assert_eq!(b.overlap(0.0, 16.0), 6.0);
        assert_eq!(b.overlap(0.0, 5.0), 0.0);
        assert_eq!(b.overlap(12.0, 18.0), 6.0);
        assert_eq!(b.overlap(25.0, 30.0), 0.0);
    }

    #[test]
    fn ack_rates() {
        assert_eq!(ack_rate(Rate::R54), Rate::R24);
        assert_eq!(ack_rate(Rate::R18), Rate::R12);
        assert_eq!(ack_rate(Rate::R6), Rate::R6);
    }

    #[test]
    fn success_prob_monotone_in_sir() {
        let burst = [Burst {
            start_us: 2.64,
            end_us: 102.64,
        }];
        let mut last = 0.0;
        for sir in [-10.0, 0.0, 10.0, 20.0, 30.0, 40.0] {
            let p = frame_success_prob(Rate::R24, LEN, 30.0, sir, &burst, false);
            assert!(p >= last - 1e-9, "sir={sir}: {p} < {last}");
            last = p;
        }
    }
}
