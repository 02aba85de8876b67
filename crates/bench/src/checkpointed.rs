//! Checkpoint-aware drivers for the long-running workload experiments.
//!
//! The `repro` binary's `--checkpoint <path>`, `--checkpoint-every N`
//! and `--resume <path>` flags land here: the two chip-scale
//! experiments (`noc-campaign`, `droop-mitigation`) run through the
//! supervised, resumable workload entry points instead of the plain
//! ones. A run that trips a cooperative interrupt — cancellation, a
//! deadline, a budget, or a harness `CancelAt`/`DeadlineTrip` fault —
//! returns an *interrupted* report naming the checkpoint to resume
//! from; rerunning with `--resume` continues it and renders a report
//! bit-identical to one that was never interrupted.
//!
//! `droop-mitigation` is a sweep of several mitigated runs. Its
//! checkpoint is the in-flight run's [`MitigatedCheckpoint`], which
//! names the run's policy and code latency; on resume the sweep
//! re-runs the arms before the first one of that policy and latency
//! (each re-arms the seed, so they reproduce bit-identically), restores
//! that arm from the snapshot, and runs the rest normally. Two arms of
//! one policy and latency are the same run, so a snapshot of either
//! resumes the first.

use std::path::{Path, PathBuf};

use psnt_analysis::report::{fmt_v, Table};
use psnt_cells::units::{Time, Voltage};
use psnt_control::{Mitigator, PiBoost, SupplyBoost, ThresholdStretch, ThresholdThrottle};
use psnt_core::system::SensorSystem;
use psnt_ctx::RunCtx;
use psnt_scan::campaign::{SiteOutcome, StreamRecord};
use psnt_workload::checkpoint::CheckpointPolicy;
use psnt_workload::{
    MitigatedCheckpoint, MitigatedNocResult, NocWorkload, NocWorkloadConfig, WorkloadCheckpoint,
    WorkloadError,
};

/// The `repro` binary's checkpoint flags, parsed.
#[derive(Debug, Clone, Default)]
pub struct CheckpointOptions {
    /// `--checkpoint <path>`: where snapshots are written (atomically,
    /// on interrupt and at every cadence boundary).
    pub checkpoint: Option<PathBuf>,
    /// `--checkpoint-every <N>`: snapshot cadence in cycles; `None`
    /// falls back to the supervisor budget's cadence, if any.
    pub every: Option<u64>,
    /// `--resume <path>`: continue from a previously written
    /// checkpoint.
    pub resume: Option<PathBuf>,
}

impl CheckpointOptions {
    /// No checkpointing and no resume — the plain run.
    pub fn none() -> CheckpointOptions {
        CheckpointOptions::default()
    }

    /// Whether any checkpoint flag was given.
    pub fn is_active(&self) -> bool {
        self.checkpoint.is_some() || self.every.is_some() || self.resume.is_some()
    }

    fn policy(&self) -> CheckpointPolicy {
        CheckpointPolicy {
            path: self.checkpoint.clone(),
            every: self.every,
        }
    }
}

/// The outcome of a checkpoint-aware experiment run.
#[derive(Debug, Clone)]
pub struct CheckpointedRun {
    /// The rendered report: the experiment's full table when the run
    /// completed, or an interrupted notice naming the checkpoint.
    pub report: String,
    /// `true` when the run tripped a cooperative interrupt and stopped
    /// early; the report then describes how to resume.
    pub interrupted: bool,
}

impl CheckpointedRun {
    fn completed(report: String) -> CheckpointedRun {
        CheckpointedRun {
            report,
            interrupted: false,
        }
    }
}

/// The report of a run a cooperative interrupt stopped: `notice`, then
/// where to resume from when a checkpoint reached disk. `saved` holds
/// its path and the cycle it captured (`None` when it cannot be read
/// back).
fn interrupted(
    mut notice: String,
    saved: Option<(&Path, Option<usize>)>,
    cycles: usize,
    experiment: &str,
) -> CheckpointedRun {
    match saved {
        Some((path, cycle)) => {
            let cycle = cycle.map_or_else(|| "?".into(), |c| c.to_string());
            let path = path.display();
            notice.push_str(&format!(
                "checkpoint: {path} (cycle {cycle} of {cycles})\n\
                 resume with: repro --{experiment} --resume {path}\n"
            ));
        }
        None => notice.push_str("no checkpoint on disk — rerun from the start\n"),
    }
    CheckpointedRun {
        report: notice,
        interrupted: true,
    }
}

/// XP-NOC under a checkpoint policy. See
/// [`figures::noc_campaign`](crate::figures::noc_campaign) for the
/// experiment itself.
///
/// # Errors
///
/// [`WorkloadError`] on configuration or I/O failure; a cooperative
/// interrupt is **not** an error — it returns an interrupted
/// [`CheckpointedRun`].
pub fn noc_campaign_checkpointed(
    ctx: &mut RunCtx<'_>,
    opts: &CheckpointOptions,
) -> Result<CheckpointedRun, WorkloadError> {
    let resume = opts
        .resume
        .as_deref()
        .map(WorkloadCheckpoint::load)
        .transpose()?;

    let workload = NocWorkload::new(NocWorkloadConfig::chip_8x8())?;
    let policy = opts.policy();
    let mut sites = 0usize;
    let mut degraded = 0usize;
    let mut deepest_level: Option<usize> = None;
    let out = workload.run_streamed_checkpointed(
        ctx,
        psnt_engine::RetryPolicy::none(),
        &policy,
        resume.as_ref(),
        |record| {
            if let StreamRecord::Site {
                series, outcome, ..
            } = &record
            {
                sites += 1;
                match outcome {
                    SiteOutcome::Degraded { .. } => degraded += 1,
                    SiteOutcome::Measured => {
                        let lvl = series.worst_level();
                        deepest_level = Some(deepest_level.map_or(lvl, |d: usize| d.min(lvl)));
                    }
                }
            }
            Ok(())
        },
    );
    let out = match out {
        Ok(out) => out,
        Err(WorkloadError::Interrupted(reason)) => {
            let saved = opts.checkpoint.as_deref().filter(|p| p.exists());
            let cycle = saved.and_then(|p| WorkloadCheckpoint::load(p).ok().map(|c| c.cycle()));
            let notice = format!("== XP-NOC — INTERRUPTED ==\n{reason}\n");
            let saved = saved.map(|p| (p, cycle));
            return Ok(interrupted(
                notice,
                saved,
                workload.config().cycles,
                "noc-campaign",
            ));
        }
        Err(e) => return Err(e),
    };

    let profile = &out.profile;
    let mut t = Table::new(
        "XP-NOC — cycle-wise noise profile (8×8 mesh, 256 sites, 40×40 grid, uniform 0.25)",
        &[
            "window",
            "cycles",
            "events",
            "I mean",
            "V mean",
            "V min",
            "droop",
            "worst node",
        ],
    );
    for w in &profile.windows {
        t.row([
            w.window.to_string(),
            format!(
                "{}-{}",
                w.start_cycle,
                w.start_cycle + workload.config().measure_every - 1
            ),
            w.events.to_string(),
            format!("{:.2} A", w.mean_current),
            fmt_v(w.mean_v),
            fmt_v(w.min_v),
            format!("{:.1} mV", (profile.v_nom - w.min_v) * 1e3),
            format!(
                "r{}c{}",
                w.worst_node / workload.campaign().floorplan().grid().cols(),
                w.worst_node % workload.campaign().floorplan().grid().cols()
            ),
        ]);
    }
    let mut s = t.render();
    s.push_str(&format!(
        "flits injected: {} | worst droop: {:.1} mV | sites streamed: {sites} \
         ({degraded} degraded) | deepest site level: {} | chain: {} FFs\n",
        profile.flits,
        profile.worst_droop() * 1e3,
        deepest_level.map_or_else(|| "-".into(), |l| l.to_string()),
        workload.campaign().chain().len(),
    ));
    s.push_str(&format!(
        "summary: {:?} (streamed path; bit-identical to the in-memory campaign at any job count)\n",
        out.summary
    ));
    Ok(CheckpointedRun::completed(s))
}

/// The `droop-mitigation` sweep order: `(policy name, code latency)`
/// per run index. Index 0 is the open-loop base, 1–4 the four policy
/// arms at latency 1, 5–13 the supply-boost latency sweep (0–8).
const DROOP_RUNS: usize = 14;

fn droop_run_shape(k: usize) -> (&'static str, usize) {
    match k {
        0 => ("open-loop", 0),
        1 => ("threshold-stretch", 1),
        2 => ("threshold-throttle", 1),
        3 => ("supply-boost", 1),
        4 => ("pi-boost", 1),
        k => ("supply-boost", k - 5),
    }
}

/// XP-DROOP under a checkpoint policy. See
/// [`figures::droop_mitigation`](crate::figures::droop_mitigation) for
/// the experiment itself.
///
/// # Errors
///
/// [`WorkloadError`] on configuration or I/O failure, or a resume
/// checkpoint whose policy and latency no run of the sweep has; a
/// cooperative interrupt returns an interrupted [`CheckpointedRun`]
/// instead.
pub fn droop_mitigation_checkpointed(
    ctx: &mut RunCtx<'_>,
    opts: &CheckpointOptions,
) -> Result<CheckpointedRun, WorkloadError> {
    let resume: Option<(usize, MitigatedCheckpoint)> = match opts.resume.as_deref() {
        Some(path) => {
            let ckpt = MitigatedCheckpoint::load(path)?;
            let run = (0..DROOP_RUNS)
                .find(|&k| droop_run_shape(k) == (ckpt.policy.as_str(), ckpt.latency))
                .ok_or_else(|| WorkloadError::InvalidConfig {
                    name: "resume",
                    reason: format!(
                        "checkpoint ran policy {:?} at code latency {}, \
                         which no droop-mitigation run does",
                        ckpt.policy, ckpt.latency
                    ),
                })?;
            Some((run, ckpt))
        }
        None => None,
    };

    let cfg = crate::figures::droop_chip();
    let tiles = cfg.mesh_rows * cfg.mesh_cols;
    let workload = NocWorkload::new(cfg.clone())?;
    // Self-calibrating thresholds: engage when the droop costs at
    // least one thermometer level off the healthy code.
    let sensor = SensorSystem::new(cfg.sensor.clone())?;
    let healthy = sensor
        .measure_value(cfg.v_pad, Voltage::from_v(0.0), Time::ZERO)?
        .hs_word
        .level
        .max(1);
    let (engage, release) = (healthy - 1, healthy);
    let hold = 16;
    let seed = 2009;
    let ckpt_policy = opts.policy();

    let mut results: Vec<MitigatedNocResult> = Vec::with_capacity(DROOP_RUNS);
    for k in 0..DROOP_RUNS {
        // Every run re-arms the context at the same seed, so all
        // policies see bit-identical traffic — which is also what
        // makes re-running the pre-interrupt arms on resume exact.
        ctx.set_seed(seed);
        let this_resume = match &resume {
            Some((idx, ckpt)) if *idx == k => Some(ckpt),
            _ => None,
        };
        let (policy, latency) = droop_run_shape(k);
        let mut mitigator: Option<Box<dyn Mitigator>> = match k {
            0 => None,
            1 => Some(Box::new(
                ThresholdStretch::new(tiles, engage, release, 0.25)?.with_hold(hold),
            )),
            2 => Some(Box::new(
                ThresholdThrottle::new(tiles, engage, release)?.with_hold(hold),
            )),
            4 => Some(Box::new(PiBoost::new(tiles, release as f64, 0.02, 0.01)?)),
            _ => Some(Box::new(
                SupplyBoost::new(tiles, engage, release, Voltage::from_v(0.06))?.with_hold(hold),
            )),
        };
        let out = workload.run_mitigated_checkpointed(
            ctx,
            mitigator.as_mut().map(|m| m.as_mut() as &mut dyn Mitigator),
            latency,
            &ckpt_policy,
            this_resume,
        );
        match out {
            Ok(r) => results.push(r),
            Err(WorkloadError::Interrupted(reason)) => {
                let saved = opts.checkpoint.as_deref().filter(|p| p.exists());
                let cycle =
                    saved.and_then(|p| MitigatedCheckpoint::load(p).ok().map(|c| c.cycle()));
                let notice = format!(
                    "== XP-DROOP — INTERRUPTED ==\n{reason}\n\
                     run {}/{DROOP_RUNS}: policy {policy}, latency {latency} cy\n",
                    k + 1
                );
                let saved = saved.map(|p| (p, cycle));
                return Ok(interrupted(notice, saved, cfg.cycles, "droop-mitigation"));
            }
            Err(e) => return Err(e),
        }
    }

    Ok(CheckpointedRun::completed(render_droop_report(
        &results, healthy, engage, release,
    )))
}

/// Renders the XP-DROOP tables from the sweep's 14 results, in the
/// same shape the experiment has always printed.
fn render_droop_report(
    results: &[MitigatedNocResult],
    healthy: usize,
    engage: usize,
    release: usize,
) -> String {
    let base = &results[0];
    let duration_floor = base.worst_droop * 0.5;
    let mut t = Table::new(
        "XP-DROOP — droop mitigation under bursty traffic (8×8 mesh, 24×24 grid, \
         0.9 × 12-on/20-off, codes at latency 1)",
        &[
            "policy",
            "worst droop",
            "mean droop",
            "cycles > 50% base",
            "engaged",
            "toggles",
            "deferred peak",
            "reduction",
        ],
    );
    let mut render_arm = |out: &MitigatedNocResult| {
        let reduction = (1.0 - out.worst_droop / base.worst_droop) * 100.0;
        t.row([
            out.policy.clone(),
            format!("{:.1} mV", out.worst_droop * 1e3),
            format!("{:.1} mV", out.mean_droop() * 1e3),
            out.cycles_deeper_than(duration_floor).to_string(),
            format!("{} cy", out.engaged_cycles),
            out.actuation_toggles().to_string(),
            out.deferred_peak.to_string(),
            format!("{reduction:.1}%"),
        ]);
        reduction
    };
    render_arm(base);
    let mut best: Option<(String, f64)> = None;
    for out in &results[1..5] {
        let reduction = render_arm(out);
        if best.as_ref().is_none_or(|(_, b)| reduction > *b) {
            best = Some((out.policy.clone(), reduction));
        }
    }
    let mut s = t.render();

    // Response-latency sweep: the same supply-boost policy with its
    // codes delayed 0–8 cycles on the way to the controller.
    let mut lt = Table::new(
        "XP-DROOP — supply-boost vs code-distribution latency",
        &[
            "latency",
            "worst droop",
            "mean droop",
            "engaged",
            "toggles",
            "reduction",
        ],
    );
    for (latency, out) in results[5..].iter().enumerate() {
        lt.row([
            format!("{latency} cy"),
            format!("{:.1} mV", out.worst_droop * 1e3),
            format!("{:.1} mV", out.mean_droop() * 1e3),
            format!("{} cy", out.engaged_cycles),
            out.actuation_toggles().to_string(),
            format!("{:.1}%", (1.0 - out.worst_droop / base.worst_droop) * 100.0),
        ]);
    }
    s.push_str(&lt.render());

    let (best_name, best_pct) = best.expect("at least one arm");
    s.push_str(&format!(
        "healthy level: {healthy}/7 (engage ≤ {engage}, release ≥ {release}) | \
         open-loop worst droop: {:.1} mV\n",
        base.worst_droop * 1e3
    ));
    s.push_str(&format!(
        "best-arm worst-droop reduction: {best_pct:.1}% ({best_name})\n"
    ));
    s.push_str(
        "stability: threshold hysteresis + PI anti-windup — actuation toggles stay bounded \
         by burst edges at every latency (pinned by tests/control_loop.rs)\n",
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnt_sup::{CancelToken, RunBudget, Supervisor};

    /// The sweep under an event budget (`None`: unlimited),
    /// checkpointing to `checkpoint` and resuming from `resume`; also
    /// returns the events it charged.
    fn sweep(
        budget: Option<u64>,
        checkpoint: Option<&Path>,
        resume: Option<&Path>,
    ) -> (Result<CheckpointedRun, WorkloadError>, u64) {
        let limit = budget.map_or(RunBudget::unlimited(), |b| RunBudget::unlimited().events(b));
        let sup = Supervisor::new(CancelToken::new(), limit);
        let mut ctx = RunCtx::serial().with_supervisor(sup.clone());
        let opts = CheckpointOptions {
            checkpoint: checkpoint.map(Path::to_path_buf),
            every: None,
            resume: resume.map(Path::to_path_buf),
        };
        let run = droop_mitigation_checkpointed(&mut ctx, &opts);
        (run, sup.charge_events(0))
    }

    #[test]
    fn the_droop_sweep_resumes_from_an_interrupt_in_any_arm() {
        let (full, charged) = sweep(None, None, None);
        let full = full.unwrap();
        assert!(!full.interrupted);
        // Every arm charges the same events: its planning, then one per
        // cycle, and the budget trips at the top of the cycle after the
        // one that spends it.
        let per_arm = charged / DROOP_RUNS as u64;
        assert_eq!(per_arm * DROOP_RUNS as u64, charged);
        let cycles = crate::figures::droop_chip().cycles;
        let planning = per_arm - cycles as u64;
        let dir = std::env::temp_dir().join(format!("psnt-droop-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for (arm, cycle) in [(0, 137), (3, 9), (6, 333)] {
            let path = dir.join(format!("arm{arm}.ckpt"));
            let budget = arm as u64 * per_arm + planning + cycle as u64;
            let cut = sweep(Some(budget), Some(&path), None).0.unwrap();
            assert!(cut.interrupted, "arm {arm}: {}", cut.report);
            let ckpt = MitigatedCheckpoint::load(&path).unwrap();
            let (policy, latency) = droop_run_shape(arm);
            assert_eq!((ckpt.policy.as_str(), ckpt.latency), (policy, latency));
            assert_eq!(ckpt.cycle(), cycle + 1, "arm {arm}");
            let at = format!("run {}/{DROOP_RUNS}: policy {policy}", arm + 1);
            assert!(cut.report.contains(&at), "arm {arm}: {}", cut.report);
            let resumed = sweep(None, None, Some(&path)).0.unwrap();
            assert!(!resumed.interrupted);
            assert_eq!(resumed.report, full.report, "arm {arm}, cycle {cycle}");

            // The resumed arm runs on from the snapshot: a droop planted
            // in its trace reaches the report.
            let mut planted = ckpt.clone();
            planted.droop_trace[0] = 1.0;
            planted.save(&path).unwrap();
            let resumed = sweep(None, None, Some(&path)).0.unwrap();
            assert!(resumed.report.contains("1000.0 mV"), "arm {arm}");

            // A policy and latency no arm runs is refused.
            let mut stray = ckpt;
            stray.latency = 9;
            stray.save(&path).unwrap();
            let err = sweep(None, None, Some(&path)).0.unwrap_err();
            assert!(
                matches!(&err, WorkloadError::InvalidConfig { name: "resume", reason }
                    if reason.contains("latency 9")),
                "{err:?}"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }
}
