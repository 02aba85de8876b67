//! Checkpoint/resume for workload campaigns.
//!
//! A supervised run snapshots its solve-phase state — the
//! [`StepperSnapshot`] plus everything the driver accumulated — at the
//! cadence the supervisor's [`RunBudget`](psnt_sup::RunBudget) asks
//! for, and again the moment a cooperative interrupt trips. The
//! snapshot restores onto a fresh run over the **same workload, seed
//! and worker count**, after which the run is bit-identical,
//! record for record, to one that was never interrupted: the stepper's
//! delta-solve chain continues from the captured floating-point state
//! and the traffic plan (a pure function of the seed) is rebuilt, not
//! stored.
//!
//! Checkpoints cover the cycle loop only. The scan sweep that follows
//! the solve always runs in full — an interrupt during the sweep
//! surfaces as the stream's terminal
//! [`StreamRecord::Aborted`](psnt_scan::campaign::StreamRecord::Aborted)
//! record, and a resumed run re-enters the sweep from its start, which
//! keeps the record stream identical without sweep-side bookkeeping.
//!
//! On-disk format: one JSON document, written atomically (`.tmp` +
//! rename) so a crash mid-write never leaves a truncated checkpoint in
//! place of a good one.

use std::fs;
use std::path::{Path, PathBuf};

use psnt_cells::units::Time;
use psnt_control::Actuation;
use psnt_control::ControlFrame;
use serde::{json, Deserialize, Serialize};

use crate::campaign::WindowStats;
use crate::error::WorkloadError;
use crate::mitigated::ActuationSample;
use crate::stepper::StepperSnapshot;

/// Schema version stamped into every checkpoint; loads refuse other
/// versions instead of misinterpreting the payload.
///
/// Version 2 marks grid solutions computed by the vectorised PDN
/// substitution kernel. A version-1 snapshot holds voltages from the
/// earlier float program: resuming it would continue the delta chain
/// from state this build never produces, silently breaking resume
/// bit-identity, so it is refused instead.
pub const CHECKPOINT_VERSION: u32 = 2;

/// Where and how often a supervised run snapshots.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Snapshot destination; `None` disables checkpointing (the run is
    /// still supervised, it just has nothing to resume from).
    pub path: Option<PathBuf>,
    /// Snapshot cadence in cycles. `None` falls back to the
    /// supervisor budget's
    /// [`checkpoint_cadence`](psnt_sup::RunBudget::checkpoint_cadence);
    /// if that is also unset, only interrupts trigger a snapshot.
    pub every: Option<u64>,
}

impl CheckpointPolicy {
    /// No checkpointing.
    pub fn none() -> CheckpointPolicy {
        CheckpointPolicy::default()
    }

    /// Snapshot to `path` every `every` cycles (and on interrupt).
    pub fn to_path(path: impl Into<PathBuf>, every: u64) -> CheckpointPolicy {
        CheckpointPolicy {
            path: Some(path.into()),
            every: Some(every.max(1)),
        }
    }
}

/// A batch-path solve checkpoint ([`NocWorkload::run`] /
/// [`NocWorkload::run_streamed`] drivers).
///
/// [`NocWorkload::run`]: crate::NocWorkload::run
/// [`NocWorkload::run_streamed`]: crate::NocWorkload::run_streamed
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The run seed the snapshot was captured under.
    pub seed: u64,
    /// The stepper's dynamic state at the captured cycle.
    pub stepper: StepperSnapshot,
    /// Window statistics of every window touched so far (a prefix of
    /// the run's windows; untouched windows are rebuilt empty).
    pub stats_done: Vec<WindowStats>,
    /// Per-site sampled rail points so far, one series per sensor
    /// site.
    pub site_points: Vec<Vec<(Time, f64)>>,
}

/// A closed-loop checkpoint ([`NocWorkload::run_mitigated`] driver):
/// the solve state plus the control loop's traces, in-flight frames
/// and policy state.
///
/// [`NocWorkload::run_mitigated`]: crate::NocWorkload::run_mitigated
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MitigatedCheckpoint {
    /// Schema version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// The run seed the snapshot was captured under.
    pub seed: u64,
    /// The policy name in force (`"open-loop"` for no mitigator);
    /// resume refuses a mismatched policy.
    pub policy: String,
    /// The stepper's dynamic state at the captured cycle.
    pub stepper: StepperSnapshot,
    /// Window statistics of every window touched so far.
    pub stats_done: Vec<WindowStats>,
    /// Per-cycle droop depths so far.
    pub droop_trace: Vec<f64>,
    /// Per-cycle actuation summaries so far.
    pub actuation_trace: Vec<ActuationSample>,
    /// Deepest droop so far, volts.
    pub worst_droop: f64,
    /// Cycle of the deepest droop so far.
    pub worst_droop_cycle: usize,
    /// Cycles run with non-neutral actuation so far.
    pub engaged_cycles: u64,
    /// Site readings dropped by faults so far.
    pub degraded_readings: u64,
    /// Peak throttle backlog so far.
    pub deferred_peak: usize,
    /// Frames in the delay line, oldest first.
    pub in_flight: Vec<ControlFrame>,
    /// The actuation the controller last derived.
    pub act: Actuation,
    /// The mitigator's serialized state
    /// ([`Mitigator::state_snapshot`](psnt_control::Mitigator::state_snapshot));
    /// `None` when the policy is stateless or does not support
    /// snapshots.
    pub mitigator_state: Option<String>,
}

fn io_err(path: &Path, e: impl std::fmt::Display) -> WorkloadError {
    WorkloadError::Checkpoint {
        path: path.display().to_string(),
        reason: e.to_string(),
    }
}

/// Writes `text` to `path` atomically: a sibling `.tmp` file is
/// written and fsynced, then renamed over the destination.
fn write_atomic(path: &Path, text: &str) -> Result<(), WorkloadError> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, text).map_err(|e| io_err(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

fn load_checked<T: Deserialize>(
    path: &Path,
    version_of: impl Fn(&T) -> u32,
) -> Result<T, WorkloadError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    let ckpt: T = json::from_str(&text).map_err(|e| io_err(path, format!("decode: {e:?}")))?;
    let v = version_of(&ckpt);
    if v != CHECKPOINT_VERSION {
        return Err(io_err(
            path,
            format!("schema version {v}, this build reads {CHECKPOINT_VERSION}"),
        ));
    }
    Ok(ckpt)
}

impl WorkloadCheckpoint {
    /// Saves the checkpoint to `path` atomically.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Checkpoint`] on I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), WorkloadError> {
        write_atomic(path, &json::to_string(self))
    }

    /// Loads and validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Checkpoint`] on I/O failure, undecodable JSON,
    /// or a schema-version mismatch.
    pub fn load(path: &Path) -> Result<WorkloadCheckpoint, WorkloadError> {
        load_checked(path, |c: &WorkloadCheckpoint| c.version)
    }

    /// The cycle the snapshot was captured at.
    pub fn cycle(&self) -> usize {
        self.stepper.cycle()
    }
}

impl MitigatedCheckpoint {
    /// Saves the checkpoint to `path` atomically.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Checkpoint`] on I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), WorkloadError> {
        write_atomic(path, &json::to_string(self))
    }

    /// Loads and validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::Checkpoint`] on I/O failure, undecodable JSON,
    /// or a schema-version mismatch.
    pub fn load(path: &Path) -> Result<MitigatedCheckpoint, WorkloadError> {
        load_checked(path, |c: &MitigatedCheckpoint| c.version)
    }

    /// The cycle the snapshot was captured at.
    pub fn cycle(&self) -> usize {
        self.stepper.cycle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_constructors() {
        assert_eq!(CheckpointPolicy::none(), CheckpointPolicy::default());
        let p = CheckpointPolicy::to_path("/tmp/x.ckpt", 0);
        assert_eq!(p.every, Some(1), "cadence clamps to ≥ 1");
        assert!(p.path.is_some());
    }

    #[test]
    fn load_rejects_missing_and_garbage_files() {
        let dir = std::env::temp_dir().join("psnt-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let missing = dir.join("missing.ckpt");
        assert!(matches!(
            WorkloadCheckpoint::load(&missing),
            Err(WorkloadError::Checkpoint { .. })
        ));
        let garbage = dir.join("garbage.ckpt");
        fs::write(&garbage, "not json").unwrap();
        assert!(matches!(
            MitigatedCheckpoint::load(&garbage),
            Err(WorkloadError::Checkpoint { .. })
        ));
        fs::remove_file(&garbage).unwrap();
    }

    #[test]
    fn version_1_checkpoints_are_refused_with_a_schema_error() {
        use crate::campaign::{NocWorkload, NocWorkloadConfig};
        use crate::stepper::CycleStepper;
        use psnt_ctx::RunCtx;
        use psnt_engine::RetryPolicy;

        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let mut stepper = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(5)).unwrap();
        stepper.step().unwrap();
        let open = WorkloadCheckpoint {
            version: 1,
            seed: 5,
            stepper: stepper.snapshot(),
            stats_done: Vec::new(),
            site_points: Vec::new(),
        };
        let closed = MitigatedCheckpoint {
            version: 1,
            seed: 5,
            policy: "open-loop".into(),
            stepper: stepper.snapshot(),
            stats_done: Vec::new(),
            droop_trace: Vec::new(),
            actuation_trace: Vec::new(),
            worst_droop: 0.0,
            worst_droop_cycle: 0,
            engaged_cycles: 0,
            degraded_readings: 0,
            deferred_peak: 0,
            in_flight: Vec::new(),
            act: Actuation::neutral(4),
            mitigator_state: None,
        };
        let schema_error = |r: Result<(), WorkloadError>| match r {
            Err(WorkloadError::Checkpoint { reason, .. }) => {
                assert_eq!(reason, "schema version 1, this build reads 2");
            }
            other => panic!("expected a schema-version error, got {other:?}"),
        };

        // From disk: the load itself refuses.
        let dir = std::env::temp_dir().join("psnt-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("v1-open.ckpt");
        open.save(&path).unwrap();
        schema_error(WorkloadCheckpoint::load(&path).map(drop));
        let path_closed = dir.join("v1-closed.ckpt");
        closed.save(&path_closed).unwrap();
        schema_error(MitigatedCheckpoint::load(&path_closed).map(drop));
        fs::remove_file(&path).unwrap();
        fs::remove_file(&path_closed).unwrap();

        // In memory: both resume entry points refuse before stepping.
        let resume_error = |e: WorkloadError| {
            assert!(
                matches!(&e, WorkloadError::InvalidConfig { name: "resume", reason }
                    if reason.contains("schema version 1")),
                "{e:?}"
            );
        };
        let none = CheckpointPolicy::none();
        let mut ctx = RunCtx::serial().with_seed(5);
        resume_error(
            w.run_checkpointed(&mut ctx, RetryPolicy::none(), &none, Some(&open))
                .unwrap_err(),
        );
        resume_error(
            w.run_mitigated_checkpointed(&mut ctx, None, 1, &none, Some(&closed))
                .unwrap_err(),
        );
    }
}
