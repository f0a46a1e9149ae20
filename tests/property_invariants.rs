//! Property-based tests on cross-crate invariants, driven by the in-repo
//! `rjam-testkit` (hermetic, zero external dependencies). Every property and
//! case count from the original proptest suite is preserved.

use rjam::fpga::regs::StatReg;
use rjam::fpga::xcorr::Coeff3;
use rjam::fpga::{
    CoreConfig, CrossCorrelator, DspCore, JamWaveform, RegisterMap, TriggerMode, TriggerSource,
};
use rjam::phy80211::bits::{append_fcs, bits_to_bytes, bytes_to_bits, check_fcs, Scrambler};
use rjam::phy80211::convcode::{decode, encode, CodeRate};
use rjam::phy80211::interleave::{deinterleave, interleave};
use rjam::phy80211::{decode_frame, modulate_frame, Frame, Rate};
use rjam::sdr::complex::{Cf64, IqI16};
use rjam::sdr::fft::{fft, ifft};
use rjam::sdr::rng::Rng;
use rjam_testkit::{self as tk, prop_assert, prop_assert_eq, props, Gen};

fn any_rate() -> impl Gen<Value = Rate> {
    tk::one_of(vec![
        Rate::R6,
        Rate::R9,
        Rate::R12,
        Rate::R18,
        Rate::R24,
        Rate::R36,
        Rate::R48,
        Rate::R54,
    ])
}

/// One 64-tap correlator rail: random (`kind` 0), all -4, all 3 or all 0.
fn template_rail(rng: &mut Rng, kind: usize) -> Vec<Coeff3> {
    (0..64)
        .map(|_| match kind {
            0 => Coeff3::saturating(rng.below(8) as i32 - 4),
            1 => Coeff3::new(-4),
            2 => Coeff3::new(3),
            _ => Coeff3::new(0),
        })
        .collect()
}

/// A random DSP-core personality. `reaction` picks monitor, reactive,
/// surgical (reactive after a programmed delay) or continuous; `waveform`
/// picks WGN, replay or a host stream; `sequence` picks the three-stage
/// sequence trigger over any-of. The template matches `pattern`, so the
/// correlator fires where the stream carries it.
fn random_personality(
    rng: &mut Rng,
    pattern: &[IqI16; 64],
    reaction: usize,
    waveform: usize,
    sequence: bool,
) -> CoreConfig {
    const SOURCES: [TriggerSource; 3] = [
        TriggerSource::Xcorr,
        TriggerSource::EnergyHigh,
        TriggerSource::EnergyLow,
    ];
    let pick = |rng: &mut Rng| SOURCES[rng.below(3) as usize];
    let trigger_mode = if sequence {
        let stages = (0..1 + rng.below(3)).map(|_| pick(rng)).collect();
        TriggerMode::Sequence {
            stages,
            window: rng.below(600),
        }
    } else {
        let mut srcs: Vec<TriggerSource> =
            SOURCES.into_iter().filter(|_| rng.chance(0.5)).collect();
        if srcs.is_empty() {
            srcs.push(pick(rng));
        }
        TriggerMode::Any(srcs)
    };
    let waveform = match waveform {
        0 => JamWaveform::Wgn,
        1 => JamWaveform::Replay,
        _ => JamWaveform::HostStream(
            (0..1 + rng.below(40))
                .map(|k| IqI16::new(100 * k as i16, -50 * k as i16))
                .collect(),
        ),
    };
    CoreConfig {
        coeff_i: pattern.map(|s| if s.i < 0 { -4 } else { 3 }),
        coeff_q: pattern.map(|s| if s.q < 0 { -4 } else { 3 }),
        xcorr_threshold: 80_000 + rng.below(120_000),
        energy_high_db: 3.0 + 27.0 * rng.uniform(),
        energy_low_db: 3.0 + 27.0 * rng.uniform(),
        trigger_mode,
        lockout: rng.below(400),
        waveform,
        uptime_samples: 1 + rng.below(300),
        delay_samples: if reaction == 2 { 1 + rng.below(200) } else { 0 },
        enabled: reaction == 1 || reaction == 2,
        continuous: reaction == 3,
        amplitude: 0.25 + 0.75 * rng.uniform(),
    }
}

/// Quiet noise alternating with loud runs of a repeated 64-sample pattern,
/// so energy rises, correlator peaks and energy falls all occur.
fn bursty_stream(rng: &mut Rng, pattern: &[IqI16; 64], len: usize) -> Vec<IqI16> {
    let mut out = Vec::with_capacity(len);
    let noise = |rng: &mut Rng, amp: f64| {
        IqI16::new((rng.gaussian() * amp) as i16, (rng.gaussian() * amp) as i16)
    };
    while out.len() < len {
        for _ in 0..50 + rng.below(400) {
            out.push(noise(rng, 30.0));
        }
        for k in 0..64 + rng.below(400) as usize {
            let p = pattern[k % 64];
            let n = noise(rng, 200.0);
            out.push(IqI16::new(p.i.saturating_add(n.i), p.q.saturating_add(n.q)));
        }
    }
    out.truncate(len);
    out
}

fn any_code_rate() -> impl Gen<Value = CodeRate> {
    tk::one_of(vec![
        CodeRate::Half,
        CodeRate::TwoThirds,
        CodeRate::ThreeQuarters,
    ])
}

props! {
    cases = 24;

    /// The entire PHY is a bit-exact channel at infinite SNR for every rate,
    /// payload and scrambler seed.
    fn phy_roundtrip_any_payload(
        rate in any_rate(),
        payload in tk::vec(tk::any::<u8>(), 1..300),
        seed in 1u8..0x7F,
    ) {
        let mut frame = Frame::new(rate, payload.clone());
        frame.scrambler_seed = seed;
        let wave = modulate_frame(&frame);
        let decoded = decode_frame(&wave, 0).expect("noiseless decode");
        prop_assert_eq!(decoded.info.rate, rate);
        prop_assert_eq!(decoded.psdu, payload);
    }

    /// FCS accepts every intact frame and rejects every single-bit flip.
    fn fcs_detects_any_single_bit_error(
        body in tk::vec(tk::any::<u8>(), 1..200),
        flip_byte in tk::any::<tk::Index>(),
        flip_bit in 0u8..8,
    ) {
        let framed = append_fcs(&body);
        prop_assert_eq!(check_fcs(&framed), Some(&body[..]));
        let mut bad = framed.clone();
        let idx = flip_byte.index(bad.len());
        bad[idx] ^= 1 << flip_bit;
        prop_assert_eq!(check_fcs(&bad), None);
    }

    /// Scrambling twice with the same seed is the identity.
    fn scrambler_involution(
        bits in tk::vec(0u8..2, 1..500),
        seed in 1u8..0x7F,
    ) {
        let mut data = bits.clone();
        Scrambler::new(seed).process(&mut data);
        Scrambler::new(seed).process(&mut data);
        prop_assert_eq!(data, bits);
    }

    /// Viterbi inverts the encoder (with tail) at every rate.
    fn conv_code_roundtrip(
        mut bits in tk::vec(0u8..2, 24..240),
        rate in any_code_rate(),
    ) {
        // Pattern-period alignment plus the 6-bit tail.
        let trim = bits.len() % 12;
        bits.truncate(bits.len() - trim);
        bits.extend_from_slice(&[0; 6]);
        let coded = encode(&bits, rate);
        prop_assert_eq!(decode(&coded, rate, bits.len()), bits);
    }

    /// Interleaving is a bijection for every 802.11 configuration.
    fn interleaver_bijection(
        cfg in tk::one_of(vec![(48usize, 1usize), (96, 2), (192, 4), (288, 6)]),
        seed in tk::any::<u64>(),
    ) {
        let (n_cbps, n_bpsc) = cfg;
        let mut rng = rjam::sdr::rng::Rng::seed_from(seed);
        let bits: Vec<u8> = (0..n_cbps).map(|_| (rng.next_u64() & 1) as u8).collect();
        let inter = interleave(&bits, n_cbps, n_bpsc);
        prop_assert_eq!(deinterleave(&inter, n_cbps, n_bpsc), bits);
    }

    /// Bit packing round-trips arbitrary bytes.
    fn bit_packing_roundtrip(bytes in tk::vec(tk::any::<u8>(), 0..100)) {
        prop_assert_eq!(bits_to_bytes(&bytes_to_bits(&bytes)), bytes);
    }

    /// IFFT inverts FFT for any power-of-two-sized complex buffer.
    fn fft_roundtrip(
        log_n in 1u32..10,
        seed in tk::any::<u64>(),
    ) {
        let n = 1usize << log_n;
        let mut rng = rjam::sdr::rng::Rng::seed_from(seed);
        let x: Vec<Cf64> = (0..n).map(|_| Cf64::new(rng.gaussian(), rng.gaussian())).collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(y.iter()) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    /// The table-driven and reference correlator datapaths agree on
    /// arbitrary coefficients and sample streams. The first template is
    /// random on both rails and meets 300 independent random samples,
    /// which read its chunk tables at uniformly random entries. Then both
    /// sides load a second template and reset at random points; each rail
    /// of that template is random, all -4, all 3 or all 0, and samples
    /// come singly or in runs of up to 100, whose constant signs drive
    /// whole windows of the extreme rails to the packed sums' bounds.
    fn correlator_datapaths_agree(
        coeff_seed in tk::any::<u64>(),
        stream_seed in tk::any::<u64>(),
        threshold in 0u64..200_000,
        reloaded in (0usize..4, 0usize..4),
    ) cases = 64 {
        let mut rng = rjam::sdr::rng::Rng::seed_from(coeff_seed);
        let (ci, cq) = (template_rail(&mut rng, 0), template_rail(&mut rng, 0));
        let (di, dq) = (template_rail(&mut rng, reloaded.0), template_rail(&mut rng, reloaded.1));
        let mut fast = CrossCorrelator::new();
        let mut slow = CrossCorrelator::new();
        fast.load_coeffs(&ci, &cq);
        slow.load_coeffs(&ci, &cq);
        fast.set_threshold(threshold);
        slow.set_threshold(threshold);
        let mut srng = rjam::sdr::rng::Rng::seed_from(stream_seed);
        let reload_at = 300 + srng.below(600);
        let reset_at = 300 + srng.below(600);
        let (mut s, mut run) = (IqI16::ZERO, 0);
        for n in 0..900 {
            if n == reload_at {
                fast.load_coeffs(&di, &dq);
                slow.load_coeffs(&di, &dq);
            }
            if n == reset_at {
                fast.reset();
                slow.reset();
            }
            if run == 0 {
                s = IqI16::new(
                    (srng.below(65536) as i64 - 32768) as i16,
                    (srng.below(65536) as i64 - 32768) as i16,
                );
                run = if n < 300 || srng.chance(0.5) { 1 } else { 1 + srng.below(100) };
            }
            run -= 1;
            prop_assert_eq!(fast.push(s), slow.push_reference(s), "sample {}", n);
        }
    }

    /// Register-bus coefficient packing round-trips any valid template.
    fn coeff_bus_roundtrip(seed in tk::any::<u64>()) {
        let mut rng = rjam::sdr::rng::Rng::seed_from(seed);
        let coeffs: Vec<i8> = (0..64).map(|_| rng.below(8) as i8 - 4).collect();
        let mut bus = rjam::fpga::RegisterBus::new();
        bus.write_coeffs(rjam::fpga::RegisterMap::XcorrCoeffI0, &coeffs);
        prop_assert_eq!(
            &bus.read_coeffs(rjam::fpga::RegisterMap::XcorrCoeffI0)[..],
            &coeffs[..]
        );
    }

    /// The moving-sum recurrence never deviates from the direct window sum.
    fn moving_sum_matches_direct(values in tk::vec(0u64..1_000_000, 40..200)) {
        let mut ms = rjam::sdr::ring::MovingSum::new(32);
        for (n, &v) in values.iter().enumerate() {
            let got = ms.push(v);
            let lo = n.saturating_sub(31);
            let want: u64 = values[lo..=n].iter().sum();
            prop_assert_eq!(got, want);
        }
    }
}

props! {
    cases = 16;

    /// The DSSS PHY round-trips any payload at 1 Mb/s.
    fn dsss_roundtrip_any_payload(payload in tk::vec(tk::any::<u8>(), 1..120)) {
        let wave = rjam::phy80211::dsss::modulate_dsss(&payload);
        let back = rjam::phy80211::dsss::demodulate_dsss(&wave, payload.len());
        prop_assert_eq!(back, Some(payload));
    }

    /// Soft and hard demapping always agree on the sign of each bit.
    fn soft_hard_demap_sign_agreement(
        re in -1.5f64..1.5,
        im in -1.5f64..1.5,
    ) {
        use rjam::phy80211::modmap::*;
        let p = Cf64::new(re, im);
        for m in [Modulation::Bpsk, Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64] {
            let hard = demap_point(p, m);
            let soft = demap_soft(p, m);
            for (k, &llr) in soft.iter().enumerate() {
                if llr != 0 {
                    prop_assert_eq!(u8::from(llr > 0), hard[k], "{:?} bit {}", m, k);
                }
            }
        }
    }

    /// The soft Viterbi decoder inverts the encoder at every rate.
    fn soft_viterbi_roundtrip(
        mut bits in tk::vec(0u8..2, 24..240),
        rate in any_code_rate(),
    ) {
        use rjam::phy80211::convcode::{depuncture_llr, viterbi_decode_soft};
        let trim = bits.len() % 12;
        bits.truncate(bits.len() - trim);
        bits.extend_from_slice(&[0; 6]);
        let coded = encode(&bits, rate);
        let llrs: Vec<i32> = coded.iter().map(|&b| if b == 1 { 32 } else { -32 }).collect();
        let pairs = depuncture_llr(&llrs, rate, bits.len());
        prop_assert_eq!(viterbi_decode_soft(&pairs, bits.len()), bits);
    }

    /// The rational resampler's output length follows up/down exactly.
    fn resampler_length_property(
        up in 1usize..12,
        down in 1usize..12,
        n in 64usize..2048,
    ) {
        use rjam::sdr::resample::Rational;
        let r = Rational::new(up, down, 8);
        let input = vec![Cf64::ONE; n];
        let out = r.process(&input);
        prop_assert_eq!(out.len(), n * r.up() / r.down());
    }

    /// `DspCore::process_block_into`, on pre-dirtied buffers and random
    /// block splits, is the per-sample `process` loop: same transmit
    /// samples and activity, event logs, host feedback and statistics
    /// registers, for every personality, waveform, trigger mode and with
    /// the capture FIFO on or off.
    fn core_block_path_matches_per_sample_loop(
        seed in tk::any::<u64>(),
        reaction in 0usize..4,
        waveform in 0usize..3,
        sequence in tk::any::<bool>(),
        capture in tk::any::<bool>(),
        splits in tk::vec(1usize..700, 1..12),
    ) cases = 48 {
        let mut rng = Rng::seed_from(seed);
        let pattern: [IqI16; 64] = std::array::from_fn(|_| {
            let sign = |rng: &mut Rng| if rng.chance(0.5) { 4000 } else { -4000 };
            IqI16::new(sign(&mut rng), sign(&mut rng))
        });
        let cfg = random_personality(&mut rng, &pattern, reaction, waveform, sequence);
        let stream = bursty_stream(&mut rng, &pattern, 3000);
        let mut block = DspCore::new();
        let mut sample = DspCore::new();
        for core in [&mut block, &mut sample] {
            core.configure(&cfg);
            if capture {
                core.enable_capture(16, 64, 128);
            }
        }

        let mut tx = Vec::new();
        let mut active = Vec::new();
        for &s in &stream {
            let out = sample.process(s);
            active.push(out.tx.is_some());
            tx.push(out.tx.unwrap_or(IqI16::ZERO));
        }

        // Pre-dirtied, wrongly sized buffers: every block must clear them.
        let mut block_tx = vec![IqI16::new(7, 7); 9];
        let mut block_active = vec![true; 3];
        let mut at = 0;
        for &len in splits.iter().cycle() {
            if at == stream.len() {
                break;
            }
            let end = (at + len).min(stream.len());
            block.process_block_into(&stream[at..end], &mut block_tx, &mut block_active);
            prop_assert_eq!(&block_tx[..], &tx[at..end], "tx of block at {}", at);
            prop_assert_eq!(&block_active[..], &active[at..end], "active of block at {}", at);
            at = end;
        }
        prop_assert_eq!(block.events(), sample.events());
        prop_assert_eq!(block.jam_events(), sample.jam_events());
        prop_assert_eq!(
            block.read_reg(RegisterMap::HostFeedback),
            sample.read_reg(RegisterMap::HostFeedback)
        );
        for reg in StatReg::ALL {
            prop_assert_eq!(block.read_stat(reg), sample.read_stat(reg), "{:?}", reg);
        }
        prop_assert_eq!(block.drain_capture(1024), sample.drain_capture(1024));
    }

    /// VITA timestamps round-trip cycle arithmetic exactly.
    fn vita_time_roundtrip(cycle in 0u64..10_000_000_000, epoch in 0u64..1_000_000) {
        use rjam::fpga::VitaTime;
        let t = VitaTime::from_cycle(cycle, epoch);
        let zero = VitaTime::from_cycle(0, epoch);
        prop_assert_eq!(t.ticks_since(zero), cycle as i64);
        prop_assert!(t.ticks < VitaTime::TICKS_PER_SEC);
    }

    /// The wide correlator at 64 taps is bit-identical to the fixed core.
    fn wide_correlator_matches_core_at_64(seed in tk::any::<u64>()) {
        use rjam::fpga::xcorr::Coeff3;
        use rjam::fpga::{CrossCorrelator, WideCorrelator};
        let mut rng = rjam::sdr::rng::Rng::seed_from(seed);
        let ci: Vec<Coeff3> = (0..64).map(|_| Coeff3::saturating(rng.below(8) as i32 - 4)).collect();
        let cq: Vec<Coeff3> = (0..64).map(|_| Coeff3::saturating(rng.below(8) as i32 - 4)).collect();
        let mut wide = WideCorrelator::new(&ci, &cq);
        let mut core = CrossCorrelator::new();
        core.load_coeffs(&ci, &cq);
        for _ in 0..200 {
            let s = IqI16::new(
                (rng.below(65536) as i64 - 32768) as i16,
                (rng.below(65536) as i64 - 32768) as i16,
            );
            prop_assert_eq!(wide.push(s).metric, core.push(s).metric);
        }
    }

    /// Multipath realizations always carry unit energy and the receiver's
    /// CP absorbs any delay spread shorter than 16 samples.
    fn multipath_energy_normalized(seed in tk::any::<u64>(), taps in 1usize..16) {
        let mut rng = rjam::sdr::rng::Rng::seed_from(seed);
        let ch = rjam::channel::MultipathChannel::rayleigh(taps, 2.0, &mut rng);
        prop_assert!((ch.energy() - 1.0).abs() < 1e-9);
        prop_assert_eq!(ch.n_taps(), taps);
    }
}
