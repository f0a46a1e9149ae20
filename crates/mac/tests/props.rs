//! Property tests for the link-model memo, driven by `rjam-testkit`: the
//! MAC simulator's results rest on the memo returning exactly the `f64`
//! the link model computes.

use rjam_mac::link::{frame_success_prob, Burst, LinkMemo};
use rjam_phy80211::Rate;
use rjam_testkit::{self as tk, prop_assert_eq, props};

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
