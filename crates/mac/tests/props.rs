//! Property tests for the discrete-event scheduler and the link-model
//! memo, driven by `rjam-testkit`. The MAC simulator's determinism rests
//! on the queue popping in (time, insertion) order, and its results on the
//! memo returning exactly the `f64` the link model computes.

use rjam_mac::des::EventQueue;
use rjam_mac::link::{frame_success_prob, Burst, LinkMemo};
use rjam_phy80211::Rate;
use rjam_testkit::{self as tk, prop_assert, prop_assert_eq, props};

/// A dB argument: one of the edge values the memo keys by bits (signed
/// zeros, infinities, NaN, ±300 dB) for `pick` < 7, else `x`.
fn db((pick, x): (usize, f64)) -> f64 {
    [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        300.0,
        -300.0,
    ]
    .get(pick)
    .copied()
    .unwrap_or(x)
}

props! {
    cases = 16;

    /// Events pop in nondecreasing time order, ties break FIFO, and the
    /// clock never runs backwards.
    fn event_queue_total_order(
        offsets in tk::vec(0u64..50, 1..64),
    ) {
        let mut q = EventQueue::new();
        for (k, &dt) in offsets.iter().enumerate() {
            // Coarse times force plenty of exact ties.
            q.schedule(dt, k);
        }
        prop_assert_eq!(q.len(), offsets.len());
        let mut popped = Vec::new();
        while let Some((t, k)) = q.pop() {
            prop_assert_eq!(t, q.now(), "now() tracks the popped event");
            popped.push((t, k));
        }
        prop_assert_eq!(popped.len(), offsets.len());
        for w in popped.windows(2) {
            let ((t0, k0), (t1, k1)) = (w[0], w[1]);
            prop_assert!(t0 <= t1, "time went backwards: {t0} > {t1}");
            if t0 == t1 {
                prop_assert!(k0 < k1, "FIFO tie broken: {k0} before {k1}");
            }
        }
        // Each popped event sits at its scheduled time.
        for &(t, k) in &popped {
            prop_assert_eq!(t, offsets[k]);
        }
    }

    /// `schedule_in` is `schedule(now + delay)`: interleaving pops with
    /// relative scheduling still yields a nondecreasing timeline.
    fn relative_scheduling_monotone(
        delays in tk::vec(1u64..1_000, 2..32),
    ) {
        let mut q = EventQueue::new();
        q.schedule(0, usize::MAX);
        let mut last = 0u64;
        let mut remaining = delays.iter();
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last, "timeline regressed");
            last = t;
            if let Some(&d) = remaining.next() {
                q.schedule_in(d, 0usize);
                prop_assert_eq!(q.len(), 1);
            }
        }
        prop_assert!(q.is_empty());
        prop_assert_eq!(last, delays.iter().sum::<u64>());
    }

    /// The memo returns the link model's value bit for bit, on the first
    /// lookup and on repeats, with a neighbouring key in the table: every
    /// rate, PSDU lengths 14-4095, edge-case SNR/SIR, zero to two bursts
    /// (starting before, inside or after the frame, overlapping, or empty;
    /// three bursts take the unmemoised path) and both values of
    /// `continuous`.
    fn link_memo_matches_the_model_bit_for_bit(
        rate in 0usize..8,
        psdu_len in 14usize..4096,
        snr in (0usize..16, -300.0f64..300.0),
        sir in (0usize..16, -300.0f64..300.0),
        bursts in tk::vec((-300.0f64..6000.0, -50.0f64..600.0), 0..4),
        continuous in tk::any::<bool>(),
    ) cases = 256 {
        let rate = Rate::ALL[rate];
        let (snr, sir) = (db(snr), db(sir));
        let bursts: Vec<Burst> = bursts
            .iter()
            .map(|&(start_us, len_us)| Burst {
                start_us,
                end_us: start_us + len_us,
            })
            .collect();
        let model = |snr, sir, continuous| {
            frame_success_prob(rate, psdu_len, snr, sir, &bursts, continuous).to_bits()
        };
        let mut memo = LinkMemo::new();
        let mut lookup = |snr, sir, continuous| {
            memo.frame_success_prob(rate, psdu_len, snr, sir, &bursts, continuous)
                .to_bits()
        };
        prop_assert_eq!(lookup(snr, sir, continuous), model(snr, sir, continuous), "first");
        // The neighbour swaps SNR and SIR and flips `continuous`.
        prop_assert_eq!(lookup(sir, snr, !continuous), model(sir, snr, !continuous));
        prop_assert_eq!(lookup(snr, sir, continuous), model(snr, sir, continuous), "repeat");
        prop_assert_eq!(lookup(sir, snr, !continuous), model(sir, snr, !continuous));
        // Both keys are stored once; calls with more bursts bypass the memo.
        prop_assert_eq!(memo.len(), if bursts.len() <= 2 { 2 } else { 0 });
    }
}
