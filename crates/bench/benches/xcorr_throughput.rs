//! Ablation: the table-driven cross-correlator versus the literal 64-tap
//! reference datapath. The FPGA evaluates all taps in one clock; the
//! table-driven software model (16 lookups per sample) keeps
//! whole-workspace Monte Carlo sweeps tractable, and this bench quantifies
//! by how much. The fast record keeps its historical `xcorr_bitsliced`
//! name so baselines stay comparable.

use rjam_bench::harness::Harness;
use rjam_fpga::xcorr::Coeff3;
use rjam_fpga::CrossCorrelator;
use rjam_sdr::complex::IqI16;
use rjam_sdr::rng::Rng;
use std::hint::black_box;

fn make_correlator() -> CrossCorrelator {
    let mut rng = Rng::seed_from(42);
    let ci: Vec<Coeff3> = (0..64)
        .map(|_| Coeff3::saturating(rng.below(8) as i32 - 4))
        .collect();
    let cq: Vec<Coeff3> = (0..64)
        .map(|_| Coeff3::saturating(rng.below(8) as i32 - 4))
        .collect();
    let mut xc = CrossCorrelator::new();
    xc.load_coeffs(&ci, &cq);
    xc.set_threshold(100_000);
    xc
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
    let stream = make_stream(25_000); // 1 ms of air time at 25 MSPS
    let elems = stream.len() as u64;
    let mut h = Harness::new("xcorr_throughput");

    let mut xc = make_correlator();
    h.bench_throughput("xcorr_bitsliced", "1ms_air", elems, || {
        let mut hits = 0u32;
        for &s in &stream {
            hits += u32::from(xc.push(black_box(s)).trigger);
        }
        black_box(hits)
    });

    let mut xc = make_correlator();
    h.bench_throughput("xcorr_reference", "1ms_air", elems, || {
        let mut hits = 0u32;
        for &s in &stream {
            hits += u32::from(xc.push_reference(black_box(s)).trigger);
        }
        black_box(hits)
    });

    h.finish();
}
