//! Property tests for the sharded campaign engine, driven by
//! `rjam-testkit`: the determinism contract stated over the *external*
//! JSON export surface, the injectivity of the seed-splitting map, and
//! the pool-reuse contract (a reset core is indistinguishable from a
//! fresh one).

use rjam_core::campaign::{CampaignSpec, JammerUnderTest, WifiEmission};
use rjam_core::engine::{shard_seed, CancelToken, FoldCheckpoint, ShardCtx};
use rjam_core::export::{detection_json, false_alarm_json, jamming_json};
use rjam_core::{CampaignEngine, DetectionPreset, JammerPreset, ReactiveJammer};
use rjam_testkit::{prop_assert, props};

props! {
    cases = 4;

    /// A detection sweep exports byte-identical JSON at 1, 2 and 7
    /// worker threads, for any campaign seed — the determinism contract
    /// observed from the outside. The trial count is deliberately NOT a
    /// multiple of the engine's frames-per-unit, so remainder-bearing
    /// `(snr, seed-block)` cells are always in play.
    fn detection_export_thread_invariant(seed in 0u64..1_000_000) {
        let run = |threads: usize| {
            let pts = CampaignSpec::wifi_detection(
                &DetectionPreset::WifiShortPreamble { threshold: 0.35 },
            )
            .emission(WifiEmission::FullFrames { psdu_len: 60 })
            .snrs(&[-3.0, 3.0, 9.0])
            .trials(11)
            .seed(seed)
            .run(&CampaignEngine::with_threads(threads));
            detection_json(&pts)
        };
        let serial = run(1);
        for threads in [2usize, 7] {
            let sharded = run(threads);
            prop_assert!(
                serial == sharded,
                "JSON diverged at {threads} threads for seed {seed}"
            );
        }
    }

    /// Same contract for the MAC-layer jamming sweep and the false-alarm
    /// calibration (which shards by sample segment, not by point). The
    /// jamming sweep runs with far more workers than shards; the FA
    /// sample count leaves a partial final segment.
    fn jamming_and_fa_exports_thread_invariant(seed in 0u64..1_000_000) {
        let jam = |threads: usize| {
            let pts = CampaignSpec::jamming(JammerUnderTest::ReactiveShort)
                .sirs(&[20.0, 6.0])
                .duration_s(0.5)
                .seed(seed)
                .run(&CampaignEngine::with_threads(threads));
            jamming_json(&pts)
        };
        let fa = |threads: usize| {
            let rate = CampaignSpec::false_alarm(
                &DetectionPreset::WifiLongPreamble { threshold: 0.30 },
            )
            // 2.x units' worth of samples, so the partial-unit path runs.
            .samples(2 * (1 << 18) + 54_321)
            .seed(seed)
            .run(&CampaignEngine::with_threads(threads));
            false_alarm_json(rate)
        };
        let (jam1, fa1) = (jam(1), fa(1));
        // 32 workers against 2 jamming shards: workers > shards must
        // degrade gracefully and change nothing.
        for threads in [2usize, 7, 32] {
            prop_assert!(jam(threads) == jam1, "jamming JSON diverged at {threads} threads");
            prop_assert!(fa(threads) == fa1, "FA JSON diverged at {threads} threads");
        }
    }

    /// The pool-reuse contract behind `CampaignEngine::run_units`: a core
    /// that processed unrelated traffic and was `reset` produces output
    /// bit-identical to a freshly built, identically configured core —
    /// events, transmit waveform and activity mask alike.
    fn reset_jammer_matches_fresh_jammer(seed in 0u64..1_000_000) {
        use rjam_core::BlockScratch;
        use rjam_sdr::complex::Cf64;

        let make = || {
            ReactiveJammer::from_presets(
                &DetectionPreset::WifiShortPreamble { threshold: 0.30 },
                &JammerPreset::Reactive {
                    uptime_s: 10e-6,
                    waveform: rjam_fpga::JamWaveform::Wgn,
                },
                1000,
            )
        };
        let mut rng = rjam_sdr::rng::Rng::seed_from(seed);
        let noise = rjam_channel::noise::NoiseSource::new(1e-4, rng.fork());
        let frame = rjam_phy80211::tx::modulate_frame(&rjam_phy80211::tx::Frame::new(
            rjam_phy80211::Rate::R12,
            vec![0x5A; 40],
        ));
        let wave = rjam_sdr::resample::to_usrp_rate(&frame, rjam_sdr::WIFI_SAMPLE_RATE);
        let mut noise = noise;
        let mut stream: Vec<Cf64> = (0..256).map(|_| noise.next_sample()).collect();
        stream.extend(wave.iter().map(|&s| s.scale(0.2) + noise.next_sample()));
        let dirt: Vec<Cf64> = (0..2048).map(|_| noise.next_sample()).collect();

        // Dirty path: unrelated traffic, then reset, then the stream.
        let mut dirty = make();
        let mut scratch_d = BlockScratch::new();
        dirty.process_block_into(&dirt, &mut scratch_d);
        dirty.reset();
        dirty.process_block_into(&stream, &mut scratch_d);

        // Fresh path: the stream alone.
        let mut fresh = make();
        let mut scratch_f = BlockScratch::new();
        fresh.process_block_into(&stream, &mut scratch_f);

        prop_assert!(
            dirty.events() == fresh.events(),
            "event log differs after reset (seed {seed})"
        );
        prop_assert!(
            scratch_d.tx() == scratch_f.tx(),
            "transmit waveform differs after reset (seed {seed})"
        );
        prop_assert!(
            scratch_d.active() == scratch_f.active(),
            "activity mask differs after reset (seed {seed})"
        );
    }
}

props! {
    cases = 16;

    /// `shard_seed` never collides within a campaign (injective in the
    /// shard index) and separates campaigns at every shard.
    fn shard_seed_splits_cleanly(campaign_a in 0u64..u64::MAX, campaign_b in 0u64..u64::MAX) {
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for shard in 0..512u64 {
            prop_assert!(
                seen.insert(shard_seed(campaign_a, shard)),
                "collision within campaign {campaign_a:#x} at shard {shard}"
            );
        }
        if campaign_a != campaign_b {
            for shard in 0..64u64 {
                prop_assert!(
                    shard_seed(campaign_a, shard) != shard_seed(campaign_b, shard),
                    "campaigns {campaign_a:#x}/{campaign_b:#x} share shard {shard}'s stream"
                );
            }
        }
    }
}

props! {
    cases = 24;

    /// The ordered fold's contract, with an order-sensitive accumulator
    /// (an FNV-1a chain over the unit results): at 1–4 threads the fold
    /// equals the serial one, and so does a run cancelled once any number
    /// of units has finished and then resumed from its checkpoint, which
    /// holds every unit that ran — folded or in the out-of-order tail.
    fn ordered_fold_is_serial_at_any_thread_count_and_resume(
        seed in 0u64..u64::MAX,
        n_units in 0usize..40,
        threads in 1usize..=4,
        cancel_after in 0usize..40,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let fold = |acc: &mut u64, v: u64| *acc = (*acc ^ v).wrapping_mul(0x100_0000_01b3);
        let unit = |_: &mut (), ctx: ShardCtx| ctx.seed.rotate_left(ctx.index as u32 % 64);
        let serial = (0..n_units)
            .map(|i| unit(&mut (), ShardCtx { index: i, seed: shard_seed(seed, i as u64) }))
            .fold(7u64, |mut acc, v| {
                fold(&mut acc, v);
                acc
            });
        let engine = CampaignEngine::with_threads(threads);
        let whole = engine
            .fold_units("t", n_units, seed, &mut FoldCheckpoint::new(7u64), None, || (), unit, fold)
            .expect("uncancelled fold completes");
        prop_assert!(whole == serial, "{threads} threads: {whole:#x} != {serial:#x}");

        let token = CancelToken::new();
        let ran = AtomicUsize::new(0);
        let mut ckpt = FoldCheckpoint::new(7u64);
        let first = engine.fold_units(
            "t",
            n_units,
            seed,
            &mut ckpt,
            Some(&token),
            || (),
            |p, ctx| {
                if ran.fetch_add(1, Ordering::Relaxed) + 1 >= cancel_after {
                    token.cancel();
                }
                unit(p, ctx)
            },
            fold,
        );
        let resumed = match first {
            Some(done) => done,
            None => {
                prop_assert!(
                    ckpt.units_done() == ran.load(Ordering::Relaxed),
                    "checkpoint holds {} of {} units run",
                    ckpt.units_done(),
                    ran.load(Ordering::Relaxed)
                );
                engine
                    .fold_units("t", n_units, seed, &mut ckpt, Some(&CancelToken::new()), || (), unit, fold)
                    .expect("resume with a fresh token completes")
            }
        };
        prop_assert!(resumed == serial, "resume at {threads} threads diverged");
        prop_assert!(ckpt.units_done() == 0);
    }
}
