//! PHY-layer micro-benchmarks: frame modulation, the reference receiver,
//! the Viterbi decoder, the 64-point FFT, the 20->25 MSPS resampler and
//! the Rayleigh channel — the hot paths of every detection sweep, at the
//! shapes detection campaigns run them (R12 frames, 8-tap channels).

use rjam_bench::harness::Harness;
use rjam_channel::MultipathChannel;
use rjam_phy80211::convcode::{decode, encode, CodeRate};
use rjam_phy80211::{decode_frame, modulate_frame, Frame, Rate};
use rjam_sdr::complex::Cf64;
use rjam_sdr::fft::Fft;
use rjam_sdr::resample::{to_usrp_rate, Rational};
use rjam_sdr::rng::Rng;
use std::hint::black_box;

fn main() {
    let mut h = Harness::new("phy_chain");
    let mut rng = Rng::seed_from(11);

    // Detection campaigns modulate at R12; the receiver is timed at the
    // slowest and fastest rates.
    for rate in [Rate::R6, Rate::R12, Rate::R54] {
        let params = format!("{rate:?}");
        let mut psdu = vec![0u8; 500];
        rng.fill_bytes(&mut psdu);
        let frame = Frame::new(rate, psdu);
        h.bench("modulate_500B", &params, || {
            black_box(modulate_frame(black_box(&frame)))
        });
        if rate == Rate::R12 {
            continue;
        }
        let wave = modulate_frame(&frame);
        h.bench("decode_500B_hard", &params, || {
            black_box(decode_frame(black_box(&wave), 0).unwrap())
        });
        h.bench("decode_500B_soft", &params, || {
            black_box(rjam_phy80211::decode_frame_soft(black_box(&wave), 0).unwrap())
        });
    }

    // Viterbi decoder on a 1200-info-bit block.
    let mut rng = Rng::seed_from(12);
    let mut bits: Vec<u8> = (0..1200).map(|_| (rng.next_u64() & 1) as u8).collect();
    bits.extend_from_slice(&[0; 6]);
    let coded = encode(&bits, CodeRate::Half);
    h.bench_throughput(
        "viterbi_decode_1200_info_bits",
        "",
        bits.len() as u64,
        || black_box(decode(black_box(&coded), CodeRate::Half, bits.len())),
    );

    // Forward FFT at the OFDM symbol size and a larger sweep size.
    let mut rng = Rng::seed_from(13);
    for n in [64usize, 1024] {
        let plan = Fft::new(n);
        let buf: Vec<Cf64> = (0..n)
            .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
            .collect();
        h.bench_throughput("fft_forward", &format!("n={n}"), n as u64, || {
            let mut y = buf.clone();
            plan.forward(&mut y);
            black_box(y)
        });
    }
    // The inverse at the OFDM symbol size as the modulator runs it, from a
    // spectrum written at bit-reversed bins.
    let plan = Fft::new(64);
    let buf: Vec<Cf64> = (0..64)
        .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
        .collect();
    h.bench_throughput("fft_inverse", "n=64", 64, || {
        let mut y = buf.clone();
        plan.inverse_from_bit_reversed(&mut y);
        black_box(y)
    });

    // 20 -> 25 MSPS rational resampler over 1 ms of Wi-Fi bandwidth.
    let mut rng = Rng::seed_from(14);
    let input: Vec<Cf64> = (0..20_000)
        .map(|_| Cf64::new(rng.gaussian(), rng.gaussian()))
        .collect();
    let r = Rational::new(5, 4, 12);
    h.bench_throughput(
        "resample_rational_5_4",
        "1ms_wifi",
        input.len() as u64,
        || black_box(r.process(black_box(&input))),
    );

    // An 8-tap Rayleigh channel over a 1000-byte R12 frame at 25 MSPS,
    // into a reused buffer as the detection workers run it.
    let mut rng = Rng::seed_from(15);
    let mut psdu = vec![0u8; 1000];
    rng.fill_bytes(&mut psdu);
    let wave = to_usrp_rate(
        &modulate_frame(&Frame::new(Rate::R12, psdu)),
        rjam_sdr::WIFI_SAMPLE_RATE,
    );
    let ch = MultipathChannel::rayleigh(8, 2.0, &mut rng);
    let mut faded = Vec::new();
    h.bench_throughput(
        "multipath_apply",
        "8_taps_1000B_R12",
        wave.len() as u64,
        || {
            ch.apply_into(black_box(&wave), &mut faded);
            black_box(faded.len())
        },
    );

    h.finish();
}
