//! Scaling: the DSP lane bank versus running the same hypotheses
//! through separate correlator instances. Each lane is a distinct
//! (template, threshold, lockout) tuple over one shared stream; because
//! lanes that share a template also share one metric evaluation, a
//! threshold sweep amortizes the expensive part and aggregate throughput
//! (lane-samples per second) should grow nearly linearly with lane count.
//!
//! Elements are counted as `samples x lanes`, so the reported throughput is
//! the *aggregate* rate; divide by the lane count for per-lane Msamp/s.
//! `check ratio` gates the `lane_bank` sweep records: 16 lanes must
//! deliver at least 4x the single-lane aggregate, i.e. the `lanes_16`
//! median may be at most 4x the `lanes_1` median.

use rjam_bench::harness::Harness;
use rjam_fpga::{DspLaneBank, LaneBankScratch};
use rjam_sdr::complex::IqI16;
use rjam_sdr::rng::Rng;
use std::hint::black_box;

const STREAM_LEN: usize = 25_000; // 1 ms of air time at 25 MSPS
const BLOCK: usize = 4_096;

fn template(rng: &mut Rng) -> ([i8; 64], [i8; 64]) {
    let ci: [i8; 64] = std::array::from_fn(|_| (rng.below(8) as i32 - 4) as i8);
    let cq: [i8; 64] = std::array::from_fn(|_| (rng.below(8) as i32 - 4) as i8);
    (ci, cq)
}

/// A threshold-sweep bank: every lane shares one template (the ROC /
/// false-alarm-grid shape), thresholds fanned across the metric range.
fn sweep_bank(lanes: usize) -> DspLaneBank {
    let mut rng = Rng::seed_from(42);
    let (ci, cq) = template(&mut rng);
    let mut bank = DspLaneBank::new();
    for k in 0..lanes {
        bank.add_lane(&ci, &cq, 50_000 + 10_000 * k as u64, 1_000);
    }
    bank
}

/// A multi-template bank: every lane carries its own template, so every
/// lane costs a full rail evaluation — the worst case for the bank.
fn multi_template_bank(lanes: usize) -> DspLaneBank {
    let mut rng = Rng::seed_from(43);
    let mut bank = DspLaneBank::new();
    for k in 0..lanes {
        let (ci, cq) = template(&mut rng);
        bank.add_lane(&ci, &cq, 50_000 + 10_000 * k as u64, 1_000);
    }
    bank
}

fn make_stream(n: usize) -> Vec<IqI16> {
    let mut rng = Rng::seed_from(7);
    (0..n)
        .map(|_| {
            IqI16::new(
                (rng.below(65536) as i64 - 32768) as i16,
                (rng.below(65536) as i64 - 32768) as i16,
            )
        })
        .collect()
}

fn main() {
    let stream = make_stream(STREAM_LEN);
    let mut h = Harness::new("dsp_lanes");

    // Aggregate throughput vs lane count (shared template, block datapath).
    // These are the records the lane-scaling gate (`check ratio`) reads.
    for lanes in [1usize, 4, 16, 64] {
        let mut bank = sweep_bank(lanes);
        let elems = (stream.len() * lanes) as u64;
        h.bench_throughput("lane_bank", &format!("lanes_{lanes}"), elems, || {
            bank.reset();
            for chunk in stream.chunks(BLOCK) {
                bank.process_block(black_box(chunk));
            }
            black_box(bank.trigger_count(lanes - 1))
        });
    }

    // Block-size sensitivity at 16 lanes: how much the hoisted bookkeeping
    // of `process_block` buys over the per-sample head path.
    for block in [64usize, 1_024, STREAM_LEN] {
        let mut bank = sweep_bank(16);
        let elems = (stream.len() * 16) as u64;
        h.bench_throughput("lane_bank_block", &format!("block_{block}"), elems, || {
            bank.reset();
            for chunk in stream.chunks(block) {
                bank.process_block(black_box(chunk));
            }
            black_box(bank.trigger_count(15))
        });
    }

    // Worst case: 16 distinct templates (no shared evaluation), and the
    // trigger-collecting datapath used by the campaign detection sweeps.
    let mut bank = multi_template_bank(16);
    let elems = (stream.len() * 16) as u64;
    h.bench_throughput("lane_bank_multi_template", "lanes_16", elems, || {
        bank.reset();
        for chunk in stream.chunks(BLOCK) {
            bank.process_block(black_box(chunk));
        }
        black_box(bank.trigger_count(15))
    });

    let mut bank = sweep_bank(16);
    let mut scratch = LaneBankScratch::default();
    h.bench_throughput("lane_bank_collect", "lanes_16", elems, || {
        bank.reset();
        scratch.clear();
        for chunk in stream.chunks(BLOCK) {
            bank.process_block_into(black_box(chunk), &mut scratch);
        }
        black_box(scratch.triggers.len())
    });

    h.finish();
}
