//! Supervision contract, property-tested: cooperative interrupts are
//! structured and lossless, and checkpoint/resume is bit-identical.
//!
//! (a) A `CancelAt` harness fault at *any* cycle interrupts the solve
//!     phase with a checkpoint; resuming on a fresh context renders a
//!     stream and summary bit-identical, record for record, to a run
//!     that was never interrupted — at jobs ∈ {1, 4}.
//! (b) Cancelling the supervisor token from inside the sink at *any*
//!     record index stops the sweep with a labelled terminal
//!     [`StreamRecord::Aborted`]; everything delivered before it is an
//!     exact prefix of the uninterrupted stream.
//! (c) The closed loop: a mitigated run interrupted at any cycle, under
//!     any checkpoint cadence, resumes (controller state restored from
//!     the snapshot) into a result bit-identical to the uninterrupted
//!     one, at code latencies 0–4, for every actuation door, at
//!     jobs ∈ {1, 2, 4}; the pipelined runs write the one-worker run's
//!     checkpoint byte for byte.
//! (d) The open loop plans up to eight cycles ahead and solves their
//!     grid updates in one pass, on a solver thread beside the loop
//!     when there are two workers or more: interrupt and cadence
//!     snapshots that land inside such a batch, or while one batch is at
//!     the solver and the next is partly planned, equal, field for
//!     field, the checkpoint of a cycle-by-cycle `CycleStepper::step`
//!     loop, and resuming from them is bit-identical.

use proptest::prelude::*;
use psn_thermometer::control::{
    Mitigator, PiBoost, SupplyBoost, ThresholdStretch, ThresholdThrottle,
};
use psn_thermometer::prelude::*;
use psn_thermometer::scan::campaign::StreamRecord;
use psn_thermometer::sup::Interrupt;
use psn_thermometer::workload::checkpoint::{CheckpointPolicy, CHECKPOINT_VERSION};
use psn_thermometer::workload::{
    CycleStepper, MitigatedCheckpoint, NocWorkload, StreamedNocResult, WindowStats,
    WorkloadCheckpoint, WorkloadError,
};

/// The worker counts the supervision contract is pinned at.
const JOBS: [usize; 2] = [1, 4];

fn ckpt_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("psnt-sup-resume-{}-{tag}.ckpt", std::process::id()))
}

/// Runs the streamed checkpointed path collecting every record.
fn run_collect(
    w: &NocWorkload,
    ctx: &mut RunCtx<'_>,
    policy: &CheckpointPolicy,
    resume: Option<&WorkloadCheckpoint>,
) -> (Vec<StreamRecord>, Result<StreamedNocResult, WorkloadError>) {
    let mut records = Vec::new();
    let out = w.run_streamed_checkpointed(ctx, RetryPolicy::none(), policy, resume, |r| {
        records.push(r);
        Ok(())
    });
    (records, out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// (a) Interrupt at a random solve cycle, resume, compare — the
    /// resumed run is record-for-record identical at jobs ∈ {1, 4}.
    #[test]
    fn cancel_then_resume_is_bit_identical(seed in any::<u64>(), cancel in 1u64..59) {
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        for jobs in JOBS {
            let mut ctx = RunCtx::new(Engine::new(jobs)).with_seed(seed);
            let (clean_records, clean) =
                run_collect(&w, &mut ctx, &CheckpointPolicy::none(), None);
            let clean = clean.unwrap();

            let path = ckpt_path(&format!("cancel-{jobs}"));
            let _ = std::fs::remove_file(&path);
            let mut ictx = RunCtx::new(Engine::new(jobs)).with_seed(seed);
            ictx.set_fault_plan(Some(
                FaultPlan::new().with(Fault::CancelAt { cycle: cancel }),
            ));
            let policy = CheckpointPolicy {
                path: Some(path.clone()),
                every: None,
            };
            let (pre_records, err) = run_collect(&w, &mut ictx, &policy, None);
            prop_assert!(
                matches!(err, Err(WorkloadError::Interrupted(Interrupt::Cancelled))),
                "expected a cancellation interrupt, got {err:?}"
            );
            // Solve-phase interrupt: nothing had reached the sink yet.
            prop_assert!(pre_records.is_empty());
            let ckpt = WorkloadCheckpoint::load(&path).unwrap();
            prop_assert_eq!(ckpt.cycle() as u64, cancel);

            // Resume on a fresh, un-faulted context.
            let mut rctx = RunCtx::new(Engine::new(jobs)).with_seed(seed);
            let (records, out) =
                run_collect(&w, &mut rctx, &CheckpointPolicy::none(), Some(&ckpt));
            prop_assert_eq!(&records, &clean_records, "record stream diverged after resume");
            prop_assert_eq!(&out.unwrap(), &clean, "summary diverged after resume");
            let _ = std::fs::remove_file(&path);
        }
    }

    /// (b) Cancel from inside the sink at a random record index: the
    /// delivered records are an exact prefix of the uninterrupted
    /// stream, closed by a terminal `Aborted` whose `sites_completed`
    /// matches the site records actually delivered.
    #[test]
    fn mid_sweep_cancellation_delivers_a_labelled_prefix(
        seed in any::<u64>(),
        after in 1usize..8,
    ) {
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        for jobs in JOBS {
            let mut ctx = RunCtx::new(Engine::new(jobs)).with_seed(seed);
            let (clean_records, _) =
                run_collect(&w, &mut ctx, &CheckpointPolicy::none(), None);

            let mut ictx = RunCtx::new(Engine::new(jobs)).with_seed(seed);
            let token = ictx.supervisor().token().clone();
            let mut records: Vec<StreamRecord> = Vec::new();
            let out = w.run_streamed(&mut ictx, RetryPolicy::none(), |r| {
                records.push(r);
                if records.len() == after {
                    token.cancel();
                }
                Ok(())
            });
            match out {
                // The token tripped after the stream had already
                // finished — the run completed untouched.
                Ok(_) => prop_assert_eq!(&records, &clean_records),
                Err(WorkloadError::Interrupted(reason)) => {
                    prop_assert_eq!(&reason, &Interrupt::Cancelled);
                    let (last, body) = records.split_last().expect("terminal record");
                    match last {
                        StreamRecord::Aborted { sites_completed, .. } => {
                            let sites = body
                                .iter()
                                .filter(|r| matches!(r, StreamRecord::Site { .. }))
                                .count();
                            prop_assert_eq!(*sites_completed, sites);
                        }
                        other => prop_assert!(false, "terminal record not Aborted: {other:?}"),
                    }
                    prop_assert_eq!(
                        body,
                        &clean_records[..body.len()],
                        "partials are not a prefix of the clean stream"
                    );
                }
                Err(e) => prop_assert!(false, "unexpected error: {e}"),
            }
        }
    }

}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (c) The closed loop resumes bit-identically from a random
    /// interrupt cycle, under a random checkpoint cadence, at code
    /// latencies 0–4, for every actuation door and for no mitigator at
    /// all, with the controller's own state restored from the
    /// snapshot. At jobs 2 and 4 the loop is pipelined from latency 1
    /// up (and always with no mitigator), so the interrupt lands while
    /// a stage is at the solver thread; its checkpoint is byte for byte
    /// the one-worker run's.
    #[test]
    fn mitigated_cancel_then_resume_is_bit_identical(
        seed in any::<u64>(),
        cancel in 1u64..59,
        latency in 0usize..=4,
        arm in 0usize..5,
        every in 0u64..24,
    ) {
        // No cadence below 2.
        let every = (every >= 2).then_some(every);
        let w = closed_loop_chip();
        let run = |jobs: usize,
                   cancel: Option<u64>,
                   policy: &CheckpointPolicy,
                   resume: Option<&MitigatedCheckpoint>| {
            let mut ctx = RunCtx::new(Engine::new(jobs)).with_seed(seed);
            if let Some(cycle) = cancel {
                ctx.set_fault_plan(Some(FaultPlan::new().with(Fault::CancelAt { cycle })));
            }
            let mut m = closed_loop_arm(arm);
            let m = m.as_mut().map(|m| &mut **m as &mut dyn Mitigator);
            w.run_mitigated_checkpointed(&mut ctx, m, latency, policy, resume)
        };
        let clean = run(1, None, &CheckpointPolicy::none(), None).unwrap();
        prop_assert_eq!(clean.engaged_cycles > 0, arm < 4, "every arm engages");

        let mut first_bytes: Option<Vec<u8>> = None;
        for jobs in [1, 2, 4] {
            prop_assert_eq!(&run(jobs, None, &CheckpointPolicy::none(), None).unwrap(), &clean);
            let path = ckpt_path(&format!("mitigated-{jobs}"));
            let _ = std::fs::remove_file(&path);
            let policy = CheckpointPolicy { path: Some(path.clone()), every };
            let err = run(jobs, Some(cancel), &policy, None);
            prop_assert!(
                matches!(err, Err(WorkloadError::Interrupted(Interrupt::Cancelled))),
                "expected a cancellation interrupt, got {err:?}"
            );
            let bytes = std::fs::read(&path).unwrap();
            match &first_bytes {
                None => first_bytes = Some(bytes),
                Some(first) => prop_assert!(
                    first == &bytes,
                    "jobs {} wrote another checkpoint than jobs 1", jobs
                ),
            }
            let ckpt = MitigatedCheckpoint::load(&path).unwrap();
            prop_assert_eq!(ckpt.cycle() as u64, cancel);
            prop_assert_eq!(ckpt.mitigator_state.is_some(), arm < 4);

            // A cold controller instance: its state comes from the snapshot.
            let out = run(jobs, None, &CheckpointPolicy::none(), Some(&ckpt)).unwrap();
            prop_assert_eq!(&out, &clean, "mitigated run diverged after resume at jobs {}", jobs);
            let _ = std::fs::remove_file(&path);
        }
    }
}

/// The 2×2 chip at 1.0 V rails with heavy bursty traffic, so the
/// thermometer levels move and every arm engages within 60 cycles.
fn closed_loop_chip() -> NocWorkload {
    let mut cfg = NocWorkloadConfig::small_2x2();
    cfg.v_pad = Voltage::from_v(1.0);
    cfg.flit_current = Current::from_ma(40.0);
    cfg.pattern = TrafficPattern::Bursty {
        injection_rate: 0.9,
        on_cycles: 12,
        off_cycles: 18,
    };
    cfg.cycles = 60;
    cfg.measure_every = 15;
    NocWorkload::new(cfg).unwrap()
}

/// Closed-loop arm `arm` on that chip: the three threshold doors
/// (throttle, with its deferred backlog; stretch; boost) engaging below
/// full scale, a PI boost, and for `arm ≥ 4` no mitigator.
fn closed_loop_arm(arm: usize) -> Option<Box<dyn Mitigator>> {
    let m: Box<dyn Mitigator> = match arm {
        0 => Box::new(ThresholdThrottle::new(4, 6, 7).unwrap()),
        1 => Box::new(ThresholdStretch::new(4, 6, 7, 0.25).unwrap()),
        2 => Box::new(SupplyBoost::new(4, 6, 7, Voltage::from_v(0.06)).unwrap()),
        3 => Box::new(PiBoost::new(4, 7.0, 0.02, 0.01).unwrap()),
        _ => return None,
    };
    Some(m)
}

/// The checkpoint an open-loop run interrupted at cycle `at` must write,
/// built by stepping one cycle at a time and sampling as the open loop
/// does: each site's rail knot, and the window statistics folded from
/// the three separate grid passes.
fn stepped_checkpoint(w: &NocWorkload, seed: u64, at: usize) -> WorkloadCheckpoint {
    let cfg = w.config();
    let me = cfg.measure_every;
    let mut stepper = CycleStepper::new(w, &mut RunCtx::serial().with_seed(seed)).unwrap();
    let sites: Vec<usize> = w
        .campaign()
        .floorplan()
        .sites()
        .iter()
        .map(|s| s.tile)
        .collect();
    let mut site_points = vec![Vec::new(); sites.len()];
    let mut stats: Vec<WindowStats> = (0..w.windows())
        .map(|k| WindowStats {
            window: k,
            start_cycle: k * me,
            instant: cfg.cycle_time * ((k * me + me / 2) as f64 + 0.5),
            min_v: f64::INFINITY,
            worst_node: 0,
            mean_v: 0.0,
            mean_current: 0.0,
            events: 0,
        })
        .collect();
    for c in 0..at {
        stepper.step().unwrap();
        let v = stepper.voltages();
        for (points, &nd) in site_points.iter_mut().zip(&sites) {
            points.push((cfg.cycle_time * (c as f64 + 0.5), v[nd]));
        }
        let win = &mut stats[c / me];
        let (node, v_min) = stepper.hotspot();
        if v_min < win.min_v {
            win.min_v = v_min;
            win.worst_node = node;
        }
        win.mean_v += v.iter().sum::<f64>() / (v.len() as f64 * me as f64);
        win.mean_current += stepper.solution().loads().iter().sum::<f64>() / me as f64;
        win.events += stepper
            .raw_counts()
            .iter()
            .map(|&x| u64::from(x))
            .sum::<u64>();
    }
    let touched = at.div_ceil(me).min(stats.len());
    WorkloadCheckpoint {
        version: CHECKPOINT_VERSION,
        seed,
        stepper: stepper.snapshot(),
        stats_done: stats[..touched].to_vec(),
        site_points,
    }
}

/// Compares two checkpoints field by field, rail bits included.
fn assert_same_checkpoint(got: &WorkloadCheckpoint, want: &WorkloadCheckpoint, case: &str) {
    assert_eq!(got.version, want.version, "{case}: version");
    assert_eq!(got.seed, want.seed, "{case}: seed");
    assert_eq!(got.stepper, want.stepper, "{case}: stepper snapshot");
    assert_eq!(got.stats_done, want.stats_done, "{case}: window statistics");
    let bits = |c: &WorkloadCheckpoint| -> Vec<Vec<(f64, u64)>> {
        c.site_points
            .iter()
            .map(|s| {
                s.iter()
                    .map(|&(t, v)| (t.picoseconds(), v.to_bits()))
                    .collect()
            })
            .collect()
    };
    assert_eq!(bits(got), bits(want), "{case}: site rails");
}

/// (d) Interrupts at cycles 1, 7, 8, 9, 15, 16, 17, 23, 24, 25 and the
/// last, with no cadence and cadences 3, 8, 13 and 16, at jobs ∈
/// {1, 2, 4}: every snapshot lands inside or at the edge of an
/// eight-cycle batch, and from cycle 15 on, at two workers or more, while
/// the batch before it is at the solver thread; each equals the
/// cycle-by-cycle checkpoint and resumes bit-identically. A completed
/// run at each cadence leaves its last cadence snapshot, which must
/// equal the stepped one too.
#[test]
fn snapshots_inside_a_lane_batch_match_the_stepped_loop() {
    let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
    let cycles = w.config().cycles;
    let seed = 2009;
    for jobs in [1, 2, 4] {
        let mut ctx = RunCtx::new(Engine::new(jobs)).with_seed(seed);
        let (clean_records, clean) = run_collect(&w, &mut ctx, &CheckpointPolicy::none(), None);
        let clean = clean.unwrap();
        for every in [None, Some(3u64), Some(8), Some(13), Some(16)] {
            let path = ckpt_path(&format!("lanes-{jobs}-{every:?}"));
            let policy = CheckpointPolicy {
                path: Some(path.clone()),
                every,
            };
            if let Some(k) = every {
                let _ = std::fs::remove_file(&path);
                let mut cctx = RunCtx::new(Engine::new(jobs)).with_seed(seed);
                let (records, out) = run_collect(&w, &mut cctx, &policy, None);
                assert_eq!(records, clean_records, "cadence {k}: records");
                assert_eq!(out.unwrap(), clean, "cadence {k}: summary");
                let last = (cycles as u64 - 1) / k * k;
                let ckpt = WorkloadCheckpoint::load(&path).unwrap();
                let want = stepped_checkpoint(&w, seed, last as usize);
                assert_same_checkpoint(&ckpt, &want, &format!("cadence {k} at {last}"));
            }
            for cancel in [1, 7, 8, 9, 15, 16, 17, 23, 24, 25, cycles - 1] {
                let case = format!("jobs {jobs}, cadence {every:?}, cancel at {cancel}");
                let _ = std::fs::remove_file(&path);
                let mut ictx = RunCtx::new(Engine::new(jobs)).with_seed(seed);
                ictx.set_fault_plan(Some(FaultPlan::new().with(Fault::CancelAt {
                    cycle: cancel as u64,
                })));
                let (_, err) = run_collect(&w, &mut ictx, &policy, None);
                assert!(
                    matches!(err, Err(WorkloadError::Interrupted(Interrupt::Cancelled))),
                    "{case}: {err:?}"
                );
                let ckpt = WorkloadCheckpoint::load(&path).unwrap();
                assert_same_checkpoint(&ckpt, &stepped_checkpoint(&w, seed, cancel), &case);
                let mut rctx = RunCtx::new(Engine::new(jobs)).with_seed(seed);
                let (records, out) =
                    run_collect(&w, &mut rctx, &CheckpointPolicy::none(), Some(&ckpt));
                assert_eq!(records, clean_records, "{case}: resumed records");
                assert_eq!(out.unwrap(), clean, "{case}: resumed summary");
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}
