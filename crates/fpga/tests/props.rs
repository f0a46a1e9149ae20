//! Property tests for the FPGA-core models, driven by `rjam-testkit`.

use rjam_fpga::fifo::SampleFifo;
use rjam_fpga::lanes::LaneBankScratch;
use rjam_fpga::vita::VitaTime;
use rjam_fpga::xcorr::Coeff3;
use rjam_fpga::{
    BurstRule, CoreConfig, CoreEvent, DspCore, DspLaneBank, TriggerMode, TriggerSource,
    WideCorrelator,
};
use rjam_sdr::complex::IqI16;
use rjam_sdr::rng::Rng;
use rjam_testkit::{self as tk, prop_assert, prop_assert_eq, props};

fn lane_template(rng: &mut Rng) -> ([i8; 64], [i8; 64]) {
    let ci: [i8; 64] = std::array::from_fn(|_| (rng.below(8) as i32 - 4) as i8);
    let cq: [i8; 64] = std::array::from_fn(|_| (rng.below(8) as i32 - 4) as i8);
    (ci, cq)
}

fn lane_sample(rng: &mut Rng) -> IqI16 {
    IqI16::new(
        (rng.below(65536) as i64 - 32768) as i16,
        (rng.below(65536) as i64 - 32768) as i16,
    )
}

/// Random samples in bursts of 20–600 samples, each burst scaled down by
/// 0–11 bits, so both energy edges fire at many levels.
fn bursty_stream(rng: &mut Rng, n: usize) -> Vec<IqI16> {
    let mut stream = Vec::with_capacity(n);
    while stream.len() < n {
        let len = (20 + rng.below(581) as usize).min(n - stream.len());
        let shift = rng.below(12) as u32;
        stream.extend((0..len).map(|_| {
            let s = lane_sample(rng);
            IqI16::new(s.i >> shift, s.q >> shift)
        }));
    }
    stream
}

/// A random trigger combination: one of the seven non-empty `Any` source
/// sets, or (one time in eight) a 1–3 stage `Sequence`.
fn trigger_mode(rng: &mut Rng) -> TriggerMode {
    const SOURCES: [TriggerSource; 3] = [
        TriggerSource::Xcorr,
        TriggerSource::EnergyHigh,
        TriggerSource::EnergyLow,
    ];
    let set = 1 + rng.below(8);
    if set == 8 {
        let stages = (0..1 + rng.below(3))
            .map(|_| SOURCES[rng.below(3) as usize])
            .collect();
        return TriggerMode::Sequence {
            stages,
            window: rng.below(1_000),
        };
    }
    TriggerMode::Any(
        (0..3)
            .filter(|b| set >> b & 1 == 1)
            .map(|b| SOURCES[b])
            .collect(),
    )
}

/// A lockout: under 300 samples half the time, else up to 5 000 samples
/// (longer than a kernel word and than most blocks) or within one sample
/// of a word multiple.
fn lane_lockout(rng: &mut Rng) -> u64 {
    match rng.below(4) {
        0 | 1 => rng.below(300),
        2 => rng.below(5_000),
        _ => 64 * (1 + rng.below(4)) + rng.below(3) - 1,
    }
}

/// The samples on which a core configured with `cfg` logs `JamTrigger`.
fn core_triggers(cfg: &CoreConfig, stream: &[IqI16]) -> Vec<u64> {
    let mut core = DspCore::new();
    core.configure(cfg);
    core.process_block(stream);
    core.events()
        .iter()
        .filter(|e| matches!(e, CoreEvent::JamTrigger { .. }))
        .map(CoreEvent::sample)
        .collect()
}

/// Streams `stream` through `bank` in blocks of `block` samples and
/// returns each lane's trigger samples.
fn block_triggers(bank: &mut DspLaneBank, stream: &[IqI16], block: usize) -> Vec<Vec<u64>> {
    let mut scratch = LaneBankScratch::default();
    for chunk in stream.chunks(block) {
        bank.process_block_into(chunk, &mut scratch);
    }
    scratch.triggers
}

props! {
    cases = 16;

    /// A VITA timestamp built from any cycle count keeps its tick field in
    /// range and round-trips the cycle difference exactly.
    fn vita_cycle_differences_exact(
        c1 in 0u64..2_000_000_000,
        dc in 0u64..2_000_000_000,
        epoch in 0u64..4_000_000_000,
    ) {
        let a = VitaTime::from_cycle(c1, epoch);
        let b = VitaTime::from_cycle(c1 + dc, epoch);
        prop_assert!(a.ticks < VitaTime::TICKS_PER_SEC);
        prop_assert!(b.ticks < VitaTime::TICKS_PER_SEC);
        prop_assert_eq!(b.ticks_since(a), dc as i64);
        prop_assert!(b >= a, "ordering follows time");
    }

    /// The FIFO never exceeds its depth and accounts every dropped sample
    /// in the overflow counter — total conservation of samples.
    fn fifo_conserves_samples(
        depth in 1usize..64,
        pushes in 0usize..256,
    ) {
        let mut f = SampleFifo::new(depth);
        for k in 0..pushes {
            f.push(IqI16::new(k as i16, -(k as i16)));
        }
        let kept = pushes.min(depth);
        prop_assert_eq!(f.len(), kept);
        prop_assert_eq!(f.overflow(), (pushes - kept) as u64);
        // Host drains: samples come back in arrival order, oldest first.
        let drained = f.pop(pushes + 1);
        prop_assert_eq!(drained.len(), kept);
        for (k, s) in drained.iter().enumerate() {
            prop_assert_eq!(*s, IqI16::new(k as i16, -(k as i16)));
        }
        prop_assert!(f.is_empty());
    }

    /// The lane contract: at any lane count, each lane fires on exactly
    /// the samples where a `DspCore` configured with the lane's config logs
    /// a jam trigger — random templates (with forced sharing so the grouped
    /// metric path is exercised), correlation thresholds, lockouts from 0
    /// to 5 000 samples, energy thresholds of 3–30 dB, every non-empty
    /// `Any` source set and random 1–3 stage sequences, over a stream of
    /// bursts at random levels. Both datapaths are checked: the per-sample
    /// `push_into`, and the block path at a random block size and at one
    /// of 64, 65 and 128 samples (a word, a word and one, two words), each
    /// after a reset that cuts a dirty stream inside the correlator's
    /// 63-sample or the energy sums' 95-sample warm-up.
    fn lanes_fire_where_cores_log_jam_triggers(
        seed in 0u64..1_000_000,
        n_lanes in 1usize..=64,
        n_samples in 64usize..6000,
        block in 1usize..400,
        cut in 1usize..96,
    ) {
        let mut rng = Rng::seed_from(seed);
        let mut bank = DspLaneBank::new();
        let mut expect = Vec::new();
        let mut templates: Vec<([i8; 64], [i8; 64])> = Vec::new();
        let stream = bursty_stream(&mut rng, n_samples);
        for _ in 0..n_lanes {
            // Reuse an earlier template half the time so lanes share groups.
            let (ci, cq) = if !templates.is_empty() && rng.chance(0.5) {
                templates[rng.below(templates.len() as u64) as usize]
            } else {
                let t = lane_template(&mut rng);
                templates.push(t);
                t
            };
            let cfg = CoreConfig {
                coeff_i: ci,
                coeff_q: cq,
                xcorr_threshold: 1 + rng.below(8_000),
                energy_high_db: 3.0 + 27.0 * rng.uniform(),
                energy_low_db: 3.0 + 27.0 * rng.uniform(),
                trigger_mode: trigger_mode(&mut rng),
                lockout: lane_lockout(&mut rng),
                ..CoreConfig::default()
            };
            bank.add_lane(&cfg);
            expect.push(core_triggers(&cfg, &stream));
        }

        let mut out = vec![false; n_lanes];
        let mut seen: Vec<Vec<u64>> = vec![Vec::new(); n_lanes];
        for (n, &s) in stream.iter().enumerate() {
            bank.push_into(s, &mut out);
            for (lane, &fired) in out.iter().enumerate() {
                if fired {
                    seen[lane].push(n as u64);
                }
            }
        }
        prop_assert_eq!(&seen, &expect, "per-sample path");

        // Block path on a reset bank (same lanes), after a reset inside
        // the warm-ups.
        let dirty = bursty_stream(&mut rng, cut);
        for block in [block, [64, 65, 128][seed as usize % 3]] {
            bank.reset();
            bank.process_block(&dirty);
            bank.reset();
            let seen = block_triggers(&mut bank, &stream, block);
            prop_assert_eq!(&seen[..n_lanes], &expect[..], "block size {}", block);
            for (lane, triggers) in expect.iter().enumerate() {
                prop_assert_eq!(bank.trigger_count(lane), triggers.len() as u64);
            }
            prop_assert_eq!(bank.samples_processed(), stream.len() as u64);
        }
    }

    /// The burst rule's contract: fed, block by block, the jam triggers a
    /// reactive `DspCore` logs, `BurstRule::on_air` marks exactly the
    /// samples of the core's activity mask — at random delays, uptimes,
    /// lockouts, trigger modes and block sizes, so triggers land while a
    /// burst is pending or on air and bursts run across block boundaries.
    fn burst_rule_matches_the_core_activity_mask(
        seed in 0u64..1_000_000,
        n_samples in 64usize..4000,
        block in 1usize..400,
        delay in 0u64..300,
        uptime in 0u64..600,
        lockout in 0u64..300,
    ) {
        let mut rng = Rng::seed_from(seed);
        let (ci, cq) = lane_template(&mut rng);
        let cfg = CoreConfig {
            coeff_i: ci,
            coeff_q: cq,
            xcorr_threshold: 1 + rng.below(8_000),
            energy_high_db: 3.0 + 27.0 * rng.uniform(),
            energy_low_db: 3.0 + 27.0 * rng.uniform(),
            trigger_mode: trigger_mode(&mut rng),
            lockout,
            uptime_samples: uptime,
            delay_samples: delay,
            enabled: true,
            ..CoreConfig::default()
        };
        let stream = bursty_stream(&mut rng, n_samples);
        let mut core = DspCore::new();
        core.configure(&cfg);
        let mut rule = BurstRule::new(cfg.delay_samples, cfg.uptime_samples);
        let (mut tx, mut active, mut on_air) = (Vec::new(), Vec::new(), Vec::new());
        let mut base = 0u64;
        for chunk in stream.chunks(block) {
            let logged = core.events().len();
            core.process_block_into(chunk, &mut tx, &mut active);
            let triggers: Vec<u64> = core.events()[logged..]
                .iter()
                .filter(|e| matches!(e, CoreEvent::JamTrigger { .. }))
                .map(CoreEvent::sample)
                .collect();
            let end = base + chunk.len() as u64;
            on_air.clear();
            rule.on_air(base..end, &triggers, &mut on_air);
            let mut marked = vec![false; chunk.len()];
            for r in &on_air {
                marked[(r.start - base) as usize..(r.end - base) as usize].fill(true);
            }
            prop_assert_eq!(&marked, &active, "block at sample {}", base);
            base = end;
        }
    }

    /// `WideCorrelator::reset` restores the pooling contract: after any
    /// dirtying stream, a reset core is bit-equivalent to a fresh one
    /// (mirrors the 64-tap core's `reset_clears_history`).
    fn wide_reset_is_bit_equivalent_to_fresh(
        seed in 0u64..1_000_000,
        len in 1usize..200,
        dirty in 0usize..400,
        probe in 1usize..400,
    ) {
        let mut rng = Rng::seed_from(seed);
        let ci: Vec<Coeff3> = (0..len)
            .map(|_| Coeff3::saturating(rng.below(8) as i32 - 4))
            .collect();
        let cq: Vec<Coeff3> = (0..len)
            .map(|_| Coeff3::saturating(rng.below(8) as i32 - 4))
            .collect();
        let threshold = rng.below(200_000);
        let lockout = rng.below(100);
        let mut pooled = WideCorrelator::new(&ci, &cq);
        pooled.set_threshold(threshold);
        pooled.set_lockout(lockout);
        for _ in 0..dirty {
            pooled.push(lane_sample(&mut rng));
        }
        pooled.reset();
        let mut fresh = WideCorrelator::new(&ci, &cq);
        fresh.set_threshold(threshold);
        fresh.set_lockout(lockout);
        prop_assert_eq!(pooled.threshold(), fresh.threshold());
        for n in 0..probe {
            let s = lane_sample(&mut rng);
            prop_assert_eq!(pooled.push(s), fresh.push(s), "sample {}", n);
        }
    }

    /// Interleaved push/pop never lets occupancy exceed depth, and the
    /// overflow counter only ever grows while the FIFO is full.
    fn fifo_occupancy_invariant(
        depth in 1usize..32,
        ops in tk::vec(tk::any::<bool>(), 1..128),
    ) {
        let mut f = SampleFifo::new(depth);
        let mut expect_len = 0usize;
        let mut expect_drop = 0u64;
        for (k, &push) in ops.iter().enumerate() {
            if push {
                f.push(IqI16::new(k as i16, 0));
                if expect_len == depth {
                    expect_drop += 1;
                } else {
                    expect_len += 1;
                }
            } else {
                let got = f.pop(1).len();
                prop_assert_eq!(got, usize::from(expect_len > 0));
                expect_len -= got;
            }
            prop_assert!(f.len() <= depth);
            prop_assert_eq!(f.len(), expect_len);
            prop_assert_eq!(f.overflow(), expect_drop);
        }
    }
}

/// The lane contract at the WiMAX campaign's 100 000-sample lockout, which
/// outlasts every block: a correlator, an energy-rise and a fused lane
/// over 230 000 samples of bursts, so each fires again after its lockout,
/// in the campaigns' 65 536-sample blocks and in 4 096-sample ones.
#[test]
fn lanes_fire_where_cores_log_jam_triggers_at_the_wimax_lockout() {
    let mut rng = Rng::seed_from(100_000);
    let stream = bursty_stream(&mut rng, 230_000);
    let (ci, cq) = lane_template(&mut rng);
    let lane = |trigger_mode: TriggerMode| CoreConfig {
        coeff_i: ci,
        coeff_q: cq,
        xcorr_threshold: 2_000,
        energy_high_db: 10.0,
        trigger_mode,
        lockout: 100_000,
        ..CoreConfig::default()
    };
    let cfgs = [
        lane(TriggerMode::Any(vec![TriggerSource::Xcorr])),
        lane(TriggerMode::Any(vec![TriggerSource::EnergyHigh])),
        lane(TriggerMode::Any(vec![
            TriggerSource::Xcorr,
            TriggerSource::EnergyHigh,
        ])),
    ];
    let expect: Vec<Vec<u64>> = cfgs.iter().map(|c| core_triggers(c, &stream)).collect();
    for triggers in &expect {
        assert!(triggers.len() >= 2, "each lane fires past its lockout");
    }
    let mut bank = DspLaneBank::new();
    cfgs.iter().for_each(|cfg| {
        bank.add_lane(cfg);
    });
    for block in [1 << 16, 4_096] {
        bank.reset();
        assert_eq!(
            block_triggers(&mut bank, &stream, block),
            expect,
            "block {block}"
        );
    }
}

/// Bursts of 20–600 random samples, each scaled down by 0–3 bits: energy
/// steps of up to 18 dB, so 6 dB comparators fire and 30 dB ones never do.
fn narrow_bursty_stream(rng: &mut Rng, n: usize) -> Vec<IqI16> {
    let mut stream = Vec::with_capacity(n);
    while stream.len() < n {
        let len = (20 + rng.below(581) as usize).min(n - stream.len());
        let shift = rng.below(4) as u32;
        stream.extend((0..len).map(|_| {
            let s = lane_sample(rng);
            IqI16::new(s.i >> shift, s.q >> shift)
        }));
    }
    stream
}

/// The lockout sleep is exact and sleeps. At lockouts around a word (63,
/// 64, 65) and long enough for the block paths to skip samples (1 000,
/// 100 000), each lane shape — a correlator, an energy rise, an energy
/// fall, the fusion of correlator and rise, and a rise-then-correlator
/// sequence — fires where its own `DspCore` logs jam triggers, both alone
/// in a bank (which sleeps whole once its legs are all locked out) and
/// all together beside a fused lane whose 30 dB energy leg never fires, so
/// that bank stays awake and only the per-group sleep applies. Every bank
/// runs at block sizes 1, 63, 64, 65, 4 096 and the whole stream, each
/// after a reset in the middle of a lockout.
#[test]
fn sleeping_lanes_fire_where_cores_log_jam_triggers() {
    for lockout in [63u64, 64, 65, 1_000, 100_000] {
        let mut rng = Rng::seed_from(lockout);
        let stream = narrow_bursty_stream(&mut rng, 2 * lockout as usize + 12_000);
        let (ci, cq) = lane_template(&mut rng);
        let lane = |trigger_mode: TriggerMode| CoreConfig {
            coeff_i: ci,
            coeff_q: cq,
            xcorr_threshold: 1_500,
            energy_high_db: 6.0,
            energy_low_db: 6.0,
            trigger_mode,
            lockout,
            ..CoreConfig::default()
        };
        let firing = [
            lane(TriggerMode::Any(vec![TriggerSource::Xcorr])),
            lane(TriggerMode::Any(vec![TriggerSource::EnergyHigh])),
            lane(TriggerMode::Any(vec![TriggerSource::EnergyLow])),
            lane(TriggerMode::Any(vec![
                TriggerSource::Xcorr,
                TriggerSource::EnergyHigh,
            ])),
            lane(TriggerMode::Sequence {
                stages: vec![TriggerSource::EnergyHigh, TriggerSource::Xcorr],
                window: lockout + 300,
            }),
        ];
        let awake = CoreConfig {
            energy_high_db: 30.0,
            ..lane(TriggerMode::Any(vec![
                TriggerSource::Xcorr,
                TriggerSource::EnergyHigh,
            ]))
        };
        let silent = CoreConfig {
            trigger_mode: TriggerMode::Any(vec![TriggerSource::EnergyHigh]),
            ..awake.clone()
        };
        assert!(
            core_triggers(&silent, &stream).is_empty(),
            "30 dB never rises"
        );
        let expect: Vec<Vec<u64>> = firing
            .iter()
            .chain([&awake])
            .map(|cfg| core_triggers(cfg, &stream))
            .collect();
        for (lane, triggers) in expect.iter().enumerate() {
            assert!(
                triggers.len() >= 2,
                "lockout {lockout}, lane {lane} refires"
            );
        }
        // A reset lands inside the first lane's first lockout.
        let cut = (expect[0][0] + lockout / 2) as usize;

        let mut banks: Vec<(DspLaneBank, Vec<usize>)> = (0..firing.len())
            .map(|k| {
                let mut bank = DspLaneBank::new();
                bank.add_lane(&firing[k]);
                (bank, vec![k])
            })
            .collect();
        let mut all = DspLaneBank::new();
        for cfg in firing.iter().chain([&awake]) {
            all.add_lane(cfg);
        }
        banks.push((all, (0..expect.len()).collect()));

        for (bank, lanes) in &mut banks {
            let alone = lanes.len() == 1;
            for block in [1, 63, 64, 65, 4_096, stream.len()] {
                if block == 1 && lockout == 100_000 && alone {
                    continue; // the all-lanes bank covers it
                }
                bank.reset();
                bank.process_block(&stream[..cut]);
                bank.reset();
                let mut scratch = LaneBankScratch::default();
                let mut slept = 0;
                for chunk in stream.chunks(block) {
                    slept += bank.unread();
                    bank.process_block_into(chunk, &mut scratch);
                }
                let want: Vec<&Vec<u64>> = lanes.iter().map(|&k| &expect[k]).collect();
                let got: Vec<&Vec<u64>> = scratch.triggers.iter().collect();
                assert_eq!(
                    got, want,
                    "lockout {lockout}, lanes {lanes:?}, block {block}"
                );
                assert_eq!(bank.samples_processed(), stream.len() as u64);
                if !alone {
                    assert_eq!(slept, 0, "a never-firing leg keeps the bank awake");
                } else if lockout > 96 && block < lockout as usize {
                    assert!(slept > 0, "lockout {lockout}, lane {lanes:?} never slept");
                }
            }
        }
    }
}
