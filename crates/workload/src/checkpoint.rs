//! Checkpoint/resume for workload campaigns.
//!
//! A supervised run snapshots its solve-phase state — the
//! [`StepperSnapshot`] plus everything the driver accumulated — at the
//! cadence the policy or the supervisor's
//! [`RunBudget`](psnt_sup::RunBudget) asks for, and again the moment a
//! cooperative interrupt trips. Both happen at the top of a cycle, in
//! the one cycle loop every driver shares, so a cadence boundary that
//! is also the interrupt cycle writes one file. The
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
//! # On-disk format (schema version 3)
//!
//! One JSON document per checkpoint. Every field uses the workspace's
//! ordinary serde encoding except the per-site rail history
//! (`site_points`), which dominates the file: a chip-scale snapshot
//! holds one series per sensor site and one `(time, volts)` point per
//! simulated cycle. Each series is a single JSON string of lowercase
//! hex digits, 32 per point: the IEEE-754 bit pattern
//! ([`f64::to_bits`]) of the time in picoseconds, then that of the rail
//! voltage, 16 digits each, most significant nibble first. The series
//! `[(1 ps, 0.5 V)]` is
//! `"3ff00000000000003fe0000000000000"`.
//!
//! The encoding is exact for every bit pattern — NaN payloads, ±∞,
//! −0.0, subnormals — where decimal JSON writes non-finite samples as
//! `null` and could not load them back. It is also several times
//! cheaper to write and read than shortest-round-trip decimal text.
//! Decoding checks every byte and fails with a structured error on a
//! length that is not a whole number of points or on any byte outside
//! `0-9a-f`.
//!
//! A load reads the `version` field first and refuses any other schema
//! version before it looks at the body, so an older file reports its
//! version rather than a decode error. Files are replaced atomically
//! (see [`WorkloadCheckpoint::save`]).

use std::fs;
use std::path::{Path, PathBuf};

use psnt_cells::units::Time;
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
/// bit-identity, so it is refused instead. Version 3 stores each
/// site's rail series as hex bit patterns (see the module docs); a
/// version-2 file holds them as decimal arrays.
pub const CHECKPOINT_VERSION: u32 = 3;

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

/// An open-loop solve checkpoint (the [`NocWorkload::run_streamed`]
/// drivers).
///
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
    /// site (hex bit patterns on disk, see the module docs).
    #[serde(with = "rail_hex")]
    pub site_points: Vec<Vec<(Time, f64)>>,
}

/// A closed-loop checkpoint ([`NocWorkload::run_mitigated`] driver):
/// the solve state plus the control loop's traces, in-flight frames
/// and policy state.
///
/// It stores nothing its traces already hold. The deepest droop, its
/// cycle and the engaged-cycle count are derived from `droop_trace` and
/// `actuation_trace` when the run ends, and the controller's working
/// actuation is the stepper's own. Files that still carry the old
/// `worst_droop`, `worst_droop_cycle`, `engaged_cycles` and `act`
/// fields load unchanged: decoding ignores fields it does not know.
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
    /// Site readings dropped by faults so far.
    pub degraded_readings: u64,
    /// Peak throttle backlog so far.
    pub deferred_peak: usize,
    /// Frames in the delay line, oldest first.
    pub in_flight: Vec<ControlFrame>,
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

/// Writes `text` to `path` by writing a sibling `.tmp` file and
/// renaming it over the destination.
///
/// The replacement is atomic: a reader (or a run resumed after a
/// crash of this process) sees either the previous checkpoint or the
/// new one, never a partial file. It is not durable across power loss:
/// nothing is fsynced, so after an OS crash the rename may be lost or
/// the file may be empty.
pub(crate) fn write_atomic(path: &Path, text: &str) -> Result<(), WorkloadError> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, text).map_err(|e| io_err(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))
}

fn load_checked<T: Deserialize>(path: &Path) -> Result<T, WorkloadError> {
    let text = fs::read_to_string(path).map_err(|e| io_err(path, e))?;
    decode_checked(path, &text)
}

/// Parses a checkpoint document, checking its schema version before
/// decoding the body. `path` only labels errors.
fn decode_checked<T: Deserialize>(path: &Path, text: &str) -> Result<T, WorkloadError> {
    let tree = json::parse(text).map_err(|e| io_err(path, format!("decode: {e:?}")))?;
    let version = tree
        .get("version")
        .ok_or_else(|| io_err(path, "decode: no `version` field"))?;
    let v = u32::from_value(version).map_err(|e| io_err(path, format!("decode: {e:?}")))?;
    if v != CHECKPOINT_VERSION {
        return Err(io_err(
            path,
            format!("schema version {v}, this build reads {CHECKPOINT_VERSION}"),
        ));
    }
    T::from_value(&tree).map_err(|e| io_err(path, format!("decode: {e:?}")))
}

/// The `site_points` codec (`#[serde(with = "rail_hex")]`): one string
/// per series, 32 lowercase hex digits per point (time bits, then
/// voltage bits).
mod rail_hex {
    use psnt_cells::units::Time;
    use serde::{DeError, Value};

    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    /// Hex digits per point: two 64-bit patterns.
    const POINT: usize = 32;
    /// Marks a byte outside `0-9a-f` in [`NIBBLE`].
    const BAD: u8 = 0xff;

    /// The nibble each byte encodes, or [`BAD`].
    static NIBBLE: [u8; 256] = {
        let mut table = [BAD; 256];
        let mut i = 0;
        while i < 16 {
            table[DIGITS[i] as usize] = i as u8;
            i += 1;
        }
        table
    };

    pub(super) fn to_value(sites: &[Vec<(Time, f64)>]) -> Value {
        Value::Seq(sites.iter().map(|s| Value::Str(encode(s))).collect())
    }

    pub(super) fn from_value(v: &Value) -> Result<Vec<Vec<(Time, f64)>>, DeError> {
        let sites = v
            .as_seq()
            .ok_or_else(|| DeError::new("site_points: expected a sequence of hex strings"))?;
        sites
            .iter()
            .enumerate()
            .map(|(k, series)| {
                let hex = series.as_str().ok_or_else(|| {
                    DeError::new(format!("site_points[{k}]: expected a hex string"))
                })?;
                decode(hex).map_err(|e| DeError::new(format!("site_points[{k}]: {e}")))
            })
            .collect()
    }

    /// Writes `bits` as 16 hex digits, most significant nibble first.
    fn put_bits(digits: &mut [u8], bits: u64) {
        for (i, d) in digits.iter_mut().enumerate() {
            *d = DIGITS[(bits >> (60 - 4 * i)) as usize & 0xf];
        }
    }

    fn encode(points: &[(Time, f64)]) -> String {
        let mut out = vec![0u8; points.len() * POINT];
        for (digits, &(t, v)) in out.chunks_exact_mut(POINT).zip(points) {
            let (t_digits, v_digits) = digits.split_at_mut(POINT / 2);
            put_bits(t_digits, t.raw().to_bits());
            put_bits(v_digits, v.to_bits());
        }
        // Every byte comes from `DIGITS`, so this is always valid UTF-8;
        // a broken encoder shows up as an empty series, which the
        // round-trip tests catch.
        String::from_utf8(out).unwrap_or_default()
    }

    /// One 16-digit bit pattern, or `None` if any byte is not a
    /// lowercase hex digit.
    fn parse_bits(digits: &[u8]) -> Option<u64> {
        let mut bits = 0u64;
        let mut seen = 0u8;
        for &d in digits {
            let n = NIBBLE[usize::from(d)];
            seen |= n;
            bits = bits << 4 | u64::from(n & 0xf);
        }
        (seen & !0xf == 0).then_some(bits)
    }

    fn decode(hex: &str) -> Result<Vec<(Time, f64)>, String> {
        let bytes = hex.as_bytes();
        if !bytes.len().is_multiple_of(POINT) {
            return Err(format!(
                "{} hex digits is not a whole number of {POINT}-digit points",
                bytes.len()
            ));
        }
        let mut points = Vec::with_capacity(bytes.len() / POINT);
        for (i, point) in bytes.chunks_exact(POINT).enumerate() {
            let (t, v) = point.split_at(POINT / 2);
            let (Some(t), Some(v)) = (parse_bits(t), parse_bits(v)) else {
                return Err(format!("point {i} holds a byte outside 0-9a-f"));
            };
            points.push((Time::from_ps(f64::from_bits(t)), f64::from_bits(v)));
        }
        Ok(points)
    }
}

impl WorkloadCheckpoint {
    /// Saves the checkpoint to `path`, atomically replacing any
    /// previous file (not durable across power loss: nothing is
    /// fsynced).
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
        load_checked(path)
    }

    /// The cycle the snapshot was captured at.
    pub fn cycle(&self) -> usize {
        self.stepper.cycle()
    }
}

impl MitigatedCheckpoint {
    /// Saves the checkpoint to `path`, atomically replacing any
    /// previous file (not durable across power loss: nothing is
    /// fsynced).
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
        load_checked(path)
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

    /// A 2×2 stepper one cycle in, for checkpoints that need a real
    /// snapshot.
    fn small_snapshot() -> StepperSnapshot {
        use crate::campaign::{NocWorkload, NocWorkloadConfig};
        use crate::stepper::CycleStepper;
        use psnt_ctx::RunCtx;

        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let mut stepper = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(5)).unwrap();
        stepper.step().unwrap();
        stepper.snapshot()
    }

    /// A per-test file under the system temp directory.
    fn temp_file(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("psnt-ckpt-test");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
    }

    fn is_checkpoint_error<T: std::fmt::Debug>(r: &Result<T, WorkloadError>) -> bool {
        matches!(r, Err(WorkloadError::Checkpoint { .. }))
    }

    #[test]
    fn version_1_checkpoints_are_refused_with_a_schema_error() {
        use crate::campaign::{NocWorkload, NocWorkloadConfig};
        use psnt_ctx::RunCtx;
        use psnt_engine::RetryPolicy;

        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let snapshot = small_snapshot();
        let open = WorkloadCheckpoint {
            version: 1,
            seed: 5,
            stepper: snapshot.clone(),
            stats_done: Vec::new(),
            site_points: Vec::new(),
        };
        let closed = MitigatedCheckpoint {
            version: 1,
            seed: 5,
            policy: "open-loop".into(),
            stepper: snapshot.clone(),
            stats_done: Vec::new(),
            droop_trace: Vec::new(),
            actuation_trace: Vec::new(),
            degraded_readings: 0,
            deferred_peak: 0,
            in_flight: Vec::new(),
            mitigator_state: None,
        };
        let schema_error = |r: Result<(), WorkloadError>, v: u32| match r {
            Err(WorkloadError::Checkpoint { reason, .. }) => {
                assert_eq!(reason, format!("schema version {v}, this build reads 3"));
            }
            other => panic!("expected a schema-version error, got {other:?}"),
        };

        // From disk: the load itself refuses.
        let path = temp_file("v1-open.ckpt");
        open.save(&path).unwrap();
        schema_error(WorkloadCheckpoint::load(&path).map(drop), 1);
        let path_closed = temp_file("v1-closed.ckpt");
        closed.save(&path_closed).unwrap();
        schema_error(MitigatedCheckpoint::load(&path_closed).map(drop), 1);
        fs::remove_file(&path_closed).unwrap();

        // A version-2 file as the decimal-layout build wrote it: the
        // rail series are `[t, v]` arrays the hex codec cannot read, so
        // only checking the version first yields the schema error.
        let stepper = json::to_string(&snapshot);
        let v2 = |version: u32| {
            format!(
                r#"{{"version":{version},"seed":5,"stepper":{stepper},"stats_done":[],"site_points":[[[0.0,0.95],[1000.0,0.93]]]}}"#
            )
        };
        fs::write(&path, v2(2)).unwrap();
        schema_error(WorkloadCheckpoint::load(&path).map(drop), 2);
        fs::write(&path, v2(CHECKPOINT_VERSION)).unwrap();
        match WorkloadCheckpoint::load(&path) {
            Err(WorkloadError::Checkpoint { reason, .. }) => {
                assert!(reason.contains("site_points[0]"), "{reason}");
            }
            other => panic!("expected a decode error, got {other:?}"),
        }
        fs::remove_file(&path).unwrap();

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
            w.run_streamed_checkpointed(&mut ctx, RetryPolicy::none(), &none, Some(&open), |_| {
                Ok(())
            })
            .unwrap_err(),
        );
        resume_error(
            w.run_mitigated_checkpointed(&mut ctx, None, 1, &none, Some(&closed))
                .unwrap_err(),
        );
    }

    #[test]
    fn rail_series_are_hex_bit_patterns() {
        let sites = vec![
            vec![(Time::from_ps(1.0), 0.5)],
            Vec::new(),
            vec![(Time::ZERO, -0.0), (Time::from_ps(f64::INFINITY), f64::NAN)],
        ];
        let v = rail_hex::to_value(&sites);
        let hex: Vec<&str> = v
            .as_seq()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect();
        assert_eq!(
            hex,
            [
                "3ff00000000000003fe0000000000000",
                "",
                "00000000000000008000000000000000\
                 7ff00000000000007ff8000000000000",
            ]
        );
        let back = rail_hex::from_value(&v).unwrap();
        let bits = |s: &[Vec<(Time, f64)>]| -> Vec<Vec<(u64, u64)>> {
            s.iter()
                .map(|p| {
                    p.iter()
                        .map(|(t, v)| (t.raw().to_bits(), v.to_bits()))
                        .collect()
                })
                .collect()
        };
        assert_eq!(bits(&back), bits(&sites));
    }

    /// Bit patterns biased towards the float classes decimal JSON
    /// mangles: NaN payloads, ±∞, −0.0 and subnormals.
    fn bit_patterns() -> impl proptest::Strategy<Value = u64> {
        use proptest::prelude::*;
        prop_oneof![
            any::<u64>(),
            any::<u64>(),
            Just(0x7ff8_0000_0000_0000u64),
            Just(0x7ff0_0000_dead_beef),
            Just(0xfff8_0000_0000_0001),
            Just(f64::INFINITY.to_bits()),
            Just(f64::NEG_INFINITY.to_bits()),
            Just((-0.0f64).to_bits()),
            Just(1),
            Just(0x800f_ffff_ffff_ffff),
            Just(u64::MAX),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]
        #[test]
        fn every_bit_pattern_round_trips_through_save_and_load(
            raw in proptest::collection::vec(
                proptest::collection::vec((bit_patterns(), bit_patterns()), 0..24),
                0..5,
            )
        ) {
            let site_points: Vec<Vec<(Time, f64)>> = raw
                .iter()
                .map(|s| {
                    s.iter()
                        .map(|&(t, v)| (Time::from_ps(f64::from_bits(t)), f64::from_bits(v)))
                        .collect()
                })
                .collect();
            let ckpt = WorkloadCheckpoint {
                version: CHECKPOINT_VERSION,
                seed: 9,
                stepper: small_snapshot(),
                stats_done: Vec::new(),
                site_points,
            };
            let path = temp_file("bits.ckpt");
            ckpt.save(&path).unwrap();
            let back = WorkloadCheckpoint::load(&path).unwrap();
            fs::remove_file(&path).unwrap();
            let back_bits: Vec<Vec<(u64, u64)>> = back
                .site_points
                .iter()
                .map(|s| s.iter().map(|(t, v)| (t.raw().to_bits(), v.to_bits())).collect())
                .collect();
            proptest::prop_assert_eq!(back_bits, raw);
            proptest::prop_assert_eq!(back.stepper, ckpt.stepper);
            proptest::prop_assert_eq!((back.version, back.seed), (ckpt.version, ckpt.seed));
        }
    }

    /// A small valid checkpoint document: one site, two points whose
    /// hex holds letters (0.1 V is `3fb999999999999a`).
    fn small_document() -> String {
        json::to_string(&WorkloadCheckpoint {
            version: CHECKPOINT_VERSION,
            seed: 5,
            stepper: small_snapshot(),
            stats_done: Vec::new(),
            site_points: vec![vec![(Time::ZERO, 0.1), (Time::from_ps(1000.0), 0.95)]],
        })
    }

    #[test]
    fn out_of_authority_actuation_is_refused_on_resume() {
        use crate::campaign::{NocWorkload, NocWorkloadConfig};
        use psnt_control::Actuation;
        use psnt_ctx::RunCtx;
        use psnt_engine::RetryPolicy;
        use psnt_fault::{Fault, FaultPlan};

        // A real open-loop checkpoint, cancelled at cycle 30: its
        // stepper holds the neutral actuation the edits replace.
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let path = temp_file("actuation.ckpt");
        let mut ctx = RunCtx::serial()
            .with_seed(5)
            .with_fault_plan(FaultPlan::new().with(Fault::CancelAt { cycle: 30 }));
        let policy = CheckpointPolicy::to_path(&path, 1000);
        let err = w
            .run_streamed_checkpointed(&mut ctx, RetryPolicy::none(), &policy, None, |_| Ok(()))
            .unwrap_err();
        assert!(matches!(err, WorkloadError::Interrupted(_)), "{err:?}");
        let doc = fs::read_to_string(&path).unwrap();
        fs::remove_file(&path).unwrap();
        let neutral = json::to_string(&Actuation::neutral(4));
        assert_eq!(doc.matches(&neutral).count(), 1);

        let resume = |stretch: &str, boost: &str| {
            let act = format!(
                r#"{{"stretch":[{stretch},1.0,1.0,1.0],"throttle":[false,false,false,false],"boost":[{boost},0.0,0.0,0.0]}}"#
            );
            let edited = doc.replace(&neutral, &act);
            assert_ne!(edited, doc);
            // Decoding bypasses the clamping setters: the edit loads.
            let ckpt: WorkloadCheckpoint = decode_checked(&path, &edited).unwrap();
            w.run_streamed_checkpointed(
                &mut RunCtx::serial().with_seed(5),
                RetryPolicy::none(),
                &CheckpointPolicy::none(),
                Some(&ckpt),
                |_| Ok(()),
            )
        };
        for (what, stretch, boost) in [
            ("stretch above 1", "7.0", "0.0"),
            ("negative stretch", "-3.0", "0.0"),
            ("stretch below the floor", "0.1", "0.0"),
            ("boost of 5 V", "1.0", "5.0"),
            ("negative boost", "1.0", "-0.01"),
            ("both", "7.0", "5.0"),
        ] {
            let r = resume(stretch, boost);
            assert!(
                matches!(
                    r,
                    Err(WorkloadError::InvalidConfig {
                        name: "snapshot",
                        ..
                    })
                ),
                "{what}: {r:?}"
            );
        }
        // The edges of the authority resume.
        for (stretch, boost) in [("0.25", "0.2"), ("0.5", "0.1")] {
            let r = resume(stretch, boost);
            assert!(r.is_ok(), "stretch {stretch}, boost {boost}: {r:?}");
        }
    }

    #[test]
    fn malformed_rail_series_are_structured_errors() {
        let path = Path::new("mutated.ckpt");
        let doc = small_document();
        let hex = rail_hex::to_value(&[vec![(Time::ZERO, 0.1), (Time::from_ps(1000.0), 0.95)]]);
        let hex = hex.as_seq().unwrap()[0].as_str().unwrap().to_string();
        assert!(doc.contains(&hex));
        let decode = |text: &str| decode_checked::<WorkloadCheckpoint>(path, text);
        assert!(decode(&doc).is_ok());

        let with_series = |series: &str| doc.replace(&format!("\"{hex}\""), series);
        for (what, series) in [
            ("one digit short", format!("\"{}\"", &hex[1..])),
            ("one digit long", format!("\"{hex}0\"")),
            ("half a point", format!("\"{}\"", &hex[..16])),
            (
                "uppercase digit",
                format!("\"{}\"", hex.replacen('a', "A", 1)),
            ),
            (
                "non-hex letter",
                format!("\"{}\"", hex.replacen('a', "g", 1)),
            ),
            ("space", format!("\"{}\"", hex.replacen('a', " ", 1))),
            ("non-ASCII", format!("\"{}\"", hex.replacen("3f", "é", 1))),
            ("number element", "123".into()),
            ("null element", "null".into()),
            ("decimal pairs", "[[0.0,0.1],[1000.0,0.95]]".into()),
        ] {
            let text = with_series(&series);
            assert_ne!(text, doc, "{what}: mutation did not apply");
            let r = decode(&text);
            assert!(is_checkpoint_error(&r), "{what}: {r:?}");
        }
        for site_points in ["null", "{}", "\"\""] {
            let text = doc.replace(&format!("[\"{hex}\"]"), site_points);
            assert!(
                is_checkpoint_error(&decode(&text)),
                "site_points = {site_points}"
            );
        }

        // Every truncation of the document fails, in memory and on disk.
        for end in 0..doc.len() {
            let r = decode(&doc[..end]);
            assert!(is_checkpoint_error(&r), "prefix of {end} bytes: {r:?}");
        }
        let file = temp_file("truncated.ckpt");
        fs::write(&file, &doc.as_bytes()[..doc.len() / 2]).unwrap();
        assert!(is_checkpoint_error(&WorkloadCheckpoint::load(&file)));

        // Every single-byte flip decodes or fails cleanly, never panics;
        // a flip to a non-digit inside the rail series always fails.
        let series = doc.find(&hex).unwrap()..doc.find(&hex).unwrap() + hex.len();
        let mut bytes = doc.clone().into_bytes();
        for i in 0..bytes.len() {
            let original = bytes[i];
            for flip in [b'x', b'"', b'}', b'7', b'F', b'-'] {
                bytes[i] = flip;
                let r = decode(std::str::from_utf8(&bytes).unwrap());
                assert!(r.is_ok() || is_checkpoint_error(&r), "byte {i} -> {flip}");
                if series.contains(&i) && !flip.is_ascii_digit() {
                    assert!(is_checkpoint_error(&r), "byte {i} -> {flip} decoded");
                }
            }
            bytes[i] = original;
        }
        bytes[series.start] = 0xff;
        fs::write(&file, &bytes).unwrap();
        assert!(is_checkpoint_error(&WorkloadCheckpoint::load(&file)));
        fs::remove_file(&file).unwrap();
    }
}
