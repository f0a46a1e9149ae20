//! Property tests for the `rjam-job-v1` service, driven by
//! `rjam-testkit`: wire round-trips for generated job requests, FIFO
//! fairness of the daemon queue under interleaved submit/cancel, and the
//! resume contract — a cancelled-then-resumed job exports byte-identical
//! output to an uninterrupted run, at every worker-thread count.

use rjam_core::campaign::{ChannelModel, JammerUnderTest, WifiEmission};
use rjam_core::spec::JobCheckpoint;
use rjam_core::{CampaignEngine, CampaignRequest, CancelToken, DetectionPreset};
use rjam_daemon::{Daemon, JobError, JobErrorKind, JobRequest, JobResponse, JobState, JobStatus};
use rjam_testkit::{prop_assert, prop_assert_eq, props, TestRng};

// ---- generated, always-valid campaign requests ----

/// A fraction in the validator's (0, 1] threshold window.
fn frac(rng: &mut TestRng) -> f64 {
    (rng.below(99) + 1) as f64 / 100.0
}

/// An energy threshold in the validator's [3, 30] dB window.
fn db(rng: &mut TestRng) -> f64 {
    3.0 + rng.below(28) as f64
}

/// A small non-empty finite dB grid.
fn grid(rng: &mut TestRng) -> Vec<f64> {
    (0..rng.below(3) + 1)
        .map(|_| rng.below(41) as f64 - 10.0 + 0.25 * rng.below(4) as f64)
        .collect()
}

fn preset(rng: &mut TestRng) -> DetectionPreset {
    match rng.below(6) {
        0 => DetectionPreset::WifiShortPreamble {
            threshold: frac(rng),
        },
        1 => DetectionPreset::WifiLongPreamble {
            threshold: frac(rng),
        },
        2 => DetectionPreset::WimaxPreamble {
            id_cell: rng.below(32) as u8,
            segment: rng.below(3) as u8,
            threshold: frac(rng),
        },
        3 => DetectionPreset::EnergyRise {
            threshold_db: db(rng),
        },
        4 => DetectionPreset::EnergyFall {
            threshold_db: db(rng),
        },
        _ => DetectionPreset::WimaxFused {
            id_cell: rng.below(32) as u8,
            segment: rng.below(3) as u8,
            threshold: frac(rng),
            energy_db: db(rng),
        },
    }
}

fn request(rng: &mut TestRng) -> CampaignRequest {
    // JSON numbers are f64: the wire carries integers exactly only
    // through 2^53, so campaign seeds live in that domain.
    let seed = rng.below(1 << 53);
    match rng.below(4) {
        0 => CampaignRequest::WifiDetection {
            preset: preset(rng),
            emission: match rng.below(3) {
                0 => WifiEmission::FullFrames {
                    psdu_len: rng.below(4095) as usize + 1,
                },
                1 => WifiEmission::SingleShortPreamble,
                _ => WifiEmission::SingleLongPreamble,
            },
            channel: if rng.below(2) == 0 {
                ChannelModel::Awgn
            } else {
                ChannelModel::Rayleigh {
                    taps: rng.below(8) as usize + 1,
                    rms: rng.below(5) as f64 + 0.5,
                }
            },
            snrs_db: grid(rng),
            frames_per_point: rng.below(40) as usize + 1,
            seed,
        },
        1 => CampaignRequest::FalseAlarm {
            preset: preset(rng),
            samples: rng.below(1 << 20) as usize + 1,
            seed,
        },
        2 => CampaignRequest::Wimax {
            fused: rng.below(2) == 0,
            frames: rng.below(50) as usize + 1,
            snr_db: rng.below(30) as f64 - 6.0,
            threshold: frac(rng),
            seed,
        },
        _ => CampaignRequest::Jamming {
            jammer: match rng.below(4) {
                0 => JammerUnderTest::Off,
                1 => JammerUnderTest::Continuous,
                2 => JammerUnderTest::ReactiveLong,
                _ => JammerUnderTest::ReactiveShort,
            },
            sirs_db: grid(rng),
            duration_s: (rng.below(20) + 1) as f64 / 10.0,
            seed,
        },
    }
}

/// A tiny single-unit false-alarm job for queue tests.
fn fa_request(samples: usize, seed: u64) -> CampaignRequest {
    CampaignRequest::FalseAlarm {
        preset: DetectionPreset::WifiShortPreamble { threshold: 0.30 },
        samples,
        seed,
    }
}

/// Watch a job to its terminal line and return the `Done` export, if any.
fn watch_terminal(daemon: &Daemon, id: &str) -> Option<(JobState, Option<String>)> {
    let mut terminal = None;
    daemon
        .watch(id, &mut |line| {
            if let Ok(resp) = JobResponse::from_line(line) {
                match resp {
                    JobResponse::Done { export, .. } => {
                        terminal = Some((JobState::Done, Some(export)));
                    }
                    JobResponse::Cancelled { .. } => terminal = Some((JobState::Cancelled, None)),
                    _ => {}
                }
            }
            Ok(())
        })
        .expect("watch succeeds");
    terminal
}

props! {
    cases = 4;

    /// Every generated (valid) campaign request survives the
    /// submit-line round-trip bit-exactly, as do the other request verbs
    /// and every response shape — the wire adds nothing and loses
    /// nothing.
    fn job_lines_round_trip(seed in 0u64..1_000_000) cases = 64 {
        let mut rng = TestRng::seed_from(seed);
        let spec = request(&mut rng);
        prop_assert!(spec.validate().is_ok(), "generator must produce valid specs: {spec:?}");
        let id = format!("job-{}", rng.below(1000));

        let requests = [
            JobRequest::Submit { spec: spec.clone() },
            JobRequest::Status { job: None },
            JobRequest::Status { job: Some(id.clone()) },
            JobRequest::Watch { job: id.clone() },
            JobRequest::Cancel { job: id.clone() },
            JobRequest::Resume { job: id.clone() },
        ];
        for req in &requests {
            let line = req.to_line();
            let back = JobRequest::from_line(&line)
                .unwrap_or_else(|e| panic!("{line} must parse: {e}"));
            prop_assert_eq!(req, &back, "request line: {line}");
        }

        let responses = [
            JobResponse::Accepted { job: id.clone(), queue_depth: rng.below(64) },
            JobResponse::Error(JobError {
                kind: JobErrorKind::BadSpec,
                message: "invalid 'trials': 0 frames per point".into(),
            }),
            JobResponse::Status {
                jobs: vec![JobStatus {
                    job: id.clone(),
                    kind: spec.kind().into(),
                    state: JobState::Running,
                    units_done: rng.below(10),
                    units_total: spec.n_units() as u64,
                }],
            },
            JobResponse::Done { job: id.clone(), export: "snr_db,p_detect\n-3,0.5\n".into() },
            JobResponse::Cancelled { job: id.clone(), units_done: rng.below(10) },
        ];
        for resp in &responses {
            let line = resp.to_line();
            let back = JobResponse::from_line(&line)
                .unwrap_or_else(|e| panic!("{line} must parse: {e}"));
            prop_assert_eq!(resp, &back, "response line: {line}");
        }
    }

    /// FIFO fairness under interleaved submit/cancel: with a blocker
    /// running, queued jobs complete in submission order; a randomly
    /// chosen subset cancelled while queued never runs (zero units
    /// checkpointed) and the survivors' exports still match a direct
    /// single-process run.
    fn queue_is_fifo_under_interleaved_submit_and_cancel(seed in 0u64..1_000_000) cases = 3 {
        let mut rng = TestRng::seed_from(seed ^ 0x51f0);
        let daemon = Daemon::start(CampaignEngine::with_threads(2), 16);

        // A blocker big enough to still be running while we queue and
        // cancel behind it.
        let blocker = fa_request((1 << 18) * 3, 1);
        let (blocker_id, _) = daemon.submit(blocker).expect("blocker accepted");

        let specs: Vec<CampaignRequest> = (0..4)
            .map(|i| fa_request(20_000 + 7 * i, 100 + i as u64))
            .collect();
        let mut ids: Vec<String> = Vec::new();
        let mut cancelled: Vec<String> = Vec::new();
        for spec in &specs {
            let (id, _) = daemon.submit(spec.clone()).expect("job accepted");
            // Interleave: maybe cancel an earlier still-queued job.
            if rng.below(2) == 0 {
                if let Some(victim) = ids.last().filter(|v| !cancelled.contains(*v)) {
                    let units = daemon.cancel(victim).expect("queued cancel succeeds");
                    prop_assert_eq!(units, 0, "a queued job has no checkpointed units");
                    cancelled.push(victim.clone());
                }
            }
            ids.push(id);
        }

        // Wait for the tail of the queue; FIFO means everything ahead of
        // it is then terminal too.
        let last_alive = ids
            .iter()
            .rev()
            .find(|id| !cancelled.contains(id))
            .cloned();
        if let Some(last) = &last_alive {
            let (state, _) = watch_terminal(&daemon, last).expect("terminal line");
            prop_assert_eq!(state, JobState::Done);
        }
        let _ = watch_terminal(&daemon, &blocker_id);

        let rows = daemon.status(None).expect("status");
        let engine = CampaignEngine::with_threads(2);
        for (id, spec) in ids.iter().zip(&specs) {
            let row = rows.iter().find(|r| &r.job == id).expect("status row");
            if cancelled.contains(id) {
                prop_assert_eq!(row.state, JobState::Cancelled, "{id}");
                prop_assert_eq!(row.units_done, 0, "cancelled while queued: {id}");
            } else {
                prop_assert_eq!(row.state, JobState::Done, "{id}");
                let (_, export) = watch_terminal(&daemon, id).expect("terminal line");
                let direct = spec
                    .run_to_export(&engine, &mut JobCheckpoint::new(), None)
                    .expect("direct run completes");
                prop_assert_eq!(export.as_deref(), Some(direct.as_str()), "{id}");
            }
        }
        daemon.shutdown();
    }

    /// Resume equals uninterrupted, at 1, 2 and 7 worker threads: cancel
    /// a multi-unit job of every checkpointing kind at an arbitrary
    /// moment, resume from whatever the checkpoint captured, and the final
    /// export is byte-identical to a never-interrupted run.
    fn resume_equals_uninterrupted_at_1_2_7_threads(seed in 0u64..1_000_000) cases = 2 {
        let mut rng = TestRng::seed_from(seed ^ 0xca7c);
        let specs = [
            fa_request((1 << 18) * 3 + 54_321, seed),
            CampaignRequest::Wimax {
                fused: rng.below(2) == 0,
                frames: 9 + rng.below(4) as usize,
                snr_db: 10.0,
                threshold: 0.45,
                seed,
            },
            CampaignRequest::Jamming {
                jammer: JammerUnderTest::ReactiveLong,
                sirs_db: grid(&mut rng).into_iter().chain([14.0, 26.0]).collect(),
                duration_s: 0.1,
                seed,
            },
        ];
        for (spec, threads) in specs.iter().flat_map(|s| [1usize, 2, 7].map(|t| (s, t))) {
            let engine = CampaignEngine::with_threads(threads);
            let t0 = std::time::Instant::now();
            let direct = spec
                .run_to_export(&engine, &mut JobCheckpoint::new(), None)
                .expect("uninterrupted run completes");
            // Cancel at a random moment of a run as long as this one.
            let run_us = t0.elapsed().as_micros() as u64;

            let token = CancelToken::new();
            let canceller = {
                let token = token.clone();
                let delay = rng.below(run_us.max(1));
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_micros(delay));
                    token.cancel();
                })
            };
            let mut ckpt = JobCheckpoint::new();
            let first = spec.run_to_export(&engine, &mut ckpt, Some(&token));
            canceller.join().expect("canceller joins");

            match first {
                // Finished before the cancel landed — must already match.
                Some(export) => prop_assert_eq!(
                    &export, &direct,
                    "uncancelled run diverged at {threads} threads"
                ),
                None => {
                    prop_assert!(
                        ckpt.units_done() < spec.n_units(),
                        "an interrupted run cannot have checkpointed every unit"
                    );
                    let resume = CancelToken::new();
                    let export = spec
                        .run_to_export(&engine, &mut ckpt, Some(&resume))
                        .expect("resume completes");
                    prop_assert_eq!(
                        &export, &direct,
                        "resume diverged at {threads} threads (seed {seed})"
                    );
                }
            }
        }
    }
}
