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
//! checkpoint is the in-flight run's [`MitigatedCheckpoint`] plus a
//! `<path>.meta` sidecar recording which run of the sweep it was; on
//! resume the sweep re-runs the completed arms (each re-arms the seed,
//! so they reproduce bit-identically), restores the interrupted arm
//! from the snapshot, and finishes the rest normally.

use std::fs;
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
/// its path, the cycle it captured (`None` when it cannot be read back)
/// and a suffix for the checkpoint line.
fn interrupted(
    mut notice: String,
    saved: Option<(&Path, Option<usize>, String)>,
    cycles: usize,
    experiment: &str,
) -> CheckpointedRun {
    match saved {
        Some((path, cycle, suffix)) => {
            let cycle = cycle.map_or_else(|| "?".into(), |c| c.to_string());
            let path = path.display();
            notice.push_str(&format!(
                "checkpoint: {path} (cycle {cycle} of {cycles}){suffix}\n\
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

/// The `.meta` sidecar of a `droop-mitigation` checkpoint: records
/// which run of the sweep the snapshot belongs to.
fn meta_path(ckpt: &Path) -> PathBuf {
    let mut s = ckpt.as_os_str().to_owned();
    s.push(".meta");
    PathBuf::from(s)
}

fn meta_err(path: &Path, reason: impl std::fmt::Display) -> WorkloadError {
    WorkloadError::Checkpoint {
        path: path.display().to_string(),
        reason: reason.to_string(),
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
            let saved = saved.map(|p| (p, cycle, String::new()));
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

/// The sweep run the `droop-mitigation <k>` sidecar of checkpoint
/// `ckpt` names, checked against the policy the checkpoint holds.
fn read_sidecar(ckpt: &Path, ckpt_policy: &str) -> Result<usize, WorkloadError> {
    let meta = meta_path(ckpt);
    let text = fs::read_to_string(&meta)
        .map_err(|e| meta_err(&meta, format!("cannot read sweep sidecar: {e}")))?;
    let k = text
        .strip_prefix("droop-mitigation ")
        .and_then(|rest| rest.trim().parse::<usize>().ok())
        .filter(|&k| k < DROOP_RUNS)
        .ok_or_else(|| meta_err(&meta, "not a droop-mitigation sweep sidecar"))?;
    let (policy, _) = droop_run_shape(k);
    if ckpt_policy != policy {
        return Err(meta_err(
            &meta,
            format!("sidecar names run {k} ({policy}) but the checkpoint holds {ckpt_policy:?}"),
        ));
    }
    Ok(k)
}

/// XP-DROOP under a checkpoint policy. See
/// [`figures::droop_mitigation`](crate::figures::droop_mitigation) for
/// the experiment itself.
///
/// # Errors
///
/// [`WorkloadError`] on configuration or I/O failure (including a
/// missing or mismatched `.meta` sidecar on resume); a cooperative
/// interrupt returns an interrupted [`CheckpointedRun`] instead.
pub fn droop_mitigation_checkpointed(
    ctx: &mut RunCtx<'_>,
    opts: &CheckpointOptions,
) -> Result<CheckpointedRun, WorkloadError> {
    let resume: Option<(usize, MitigatedCheckpoint)> = match opts.resume.as_deref() {
        Some(path) => {
            let ckpt = MitigatedCheckpoint::load(path)?;
            Some((read_sidecar(path, &ckpt.policy)?, ckpt))
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
        if let Some(path) = opts.checkpoint.as_deref() {
            // A stale sidecar must not pair with this run's cadence
            // snapshots; it is rewritten only when an interrupt trips.
            let _ = fs::remove_file(meta_path(path));
        }
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
                if let Some(path) = saved {
                    fs::write(meta_path(path), format!("droop-mitigation {k}\n"))
                        .map_err(|e| meta_err(&meta_path(path), e))?;
                }
                let cycle =
                    saved.and_then(|p| MitigatedCheckpoint::load(p).ok().map(|c| c.cycle()));
                let notice = format!(
                    "== XP-DROOP — INTERRUPTED ==\n{reason}\n\
                     run {}/{DROOP_RUNS}: policy {policy}, latency {latency} cy\n",
                    k + 1
                );
                let saved =
                    saved.map(|p| (p, cycle, format!(" + sidecar {}", meta_path(p).display())));
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

    /// Writes `bytes` as the sidecar of checkpoint `name` in a
    /// per-process directory and reads it back through [`read_sidecar`].
    fn sidecar(
        name: &str,
        bytes: &[u8],
        ckpt_policy: &str,
    ) -> (PathBuf, Result<usize, WorkloadError>) {
        let dir = std::env::temp_dir().join(format!("psnt-sidecar-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let ckpt = dir.join(name);
        fs::write(meta_path(&ckpt), bytes).unwrap();
        let r = read_sidecar(&ckpt, ckpt_policy);
        fs::remove_file(meta_path(&ckpt)).unwrap();
        (meta_path(&ckpt), r)
    }

    fn is_sidecar_error(meta: &Path, r: &Result<usize, WorkloadError>) -> bool {
        matches!(r, Err(WorkloadError::Checkpoint { path, .. }) if *path == meta.display().to_string())
    }

    #[test]
    fn sidecars_name_a_run_whose_policy_the_checkpoint_holds() {
        assert_eq!(meta_path(Path::new("run.ckpt")), Path::new("run.ckpt.meta"));
        for k in 0..DROOP_RUNS {
            let (policy, _) = droop_run_shape(k);
            let text = format!("droop-mitigation {k}\n");
            assert_eq!(sidecar("fixed.ckpt", text.as_bytes(), policy).1.unwrap(), k);
        }
        for (text, policy) in [
            ("droop-mitigation 14\n", "supply-boost"),
            ("droop-mitigation 3\n", "open-loop"),
            ("droop-mitigation -1\n", "open-loop"),
            ("droop-mitigation\n", "open-loop"),
            ("noc-campaign 0\n", "open-loop"),
            ("", "open-loop"),
        ] {
            let (meta, r) = sidecar("fixed.ckpt", text.as_bytes(), policy);
            assert!(is_sidecar_error(&meta, &r), "{text:?}: {r:?}");
        }
        let missing = read_sidecar(Path::new("no-such-dir/run.ckpt"), "open-loop");
        assert!(is_sidecar_error(
            Path::new("no-such-dir/run.ckpt.meta"),
            &missing
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]
        /// Mutation fuzzing of a sidecar on disk: byte flips (invalid
        /// UTF-8 included), truncation, inserted bytes and other run
        /// indices. Nothing panics; a sidecar is accepted only when it
        /// names a run below 14 whose policy the checkpoint holds, and
        /// refused with `WorkloadError::Checkpoint` otherwise.
        #[test]
        fn mutated_sidecars_are_refused_cleanly(
            kind in 0u8..4,
            at in 0usize..64,
            byte in proptest::prelude::any::<u8>(),
            run in 0usize..32,
            policy in 0usize..DROOP_RUNS,
        ) {
            let (ckpt_policy, _) = droop_run_shape(policy);
            let mut bytes = b"droop-mitigation 3\n".to_vec();
            let i = at % bytes.len();
            match kind {
                0 => bytes[i] = byte,
                1 => bytes.truncate(i),
                2 => bytes.insert(i, byte),
                _ => bytes = format!("droop-mitigation {run}\n").into_bytes(),
            }
            let (meta, r) = sidecar("fuzz.ckpt", &bytes, ckpt_policy);
            let named = std::str::from_utf8(&bytes)
                .ok()
                .and_then(|t| t.strip_prefix("droop-mitigation "))
                .and_then(|rest| rest.trim().parse::<usize>().ok());
            match named {
                Some(k) if k < DROOP_RUNS && droop_run_shape(k).0 == ckpt_policy => {
                    proptest::prop_assert_eq!(r.ok(), Some(k));
                }
                _ => proptest::prop_assert!(is_sidecar_error(&meta, &r), "{:?}: {:?}", bytes, r),
            }
        }
    }
}
