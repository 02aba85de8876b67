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
//! # On-disk format (schema version 5)
//!
//! One JSON document per checkpoint. Every field uses the workspace's
//! ordinary serde encoding except the per-site rail history
//! (`site_points`), which dominates the file: a chip-scale snapshot
//! holds one series per sensor site and one `(time, volts)` knot per
//! simulated cycle. Every 64-bit pattern in it ([`f64::to_bits`] of a
//! time in picoseconds or of a rail voltage) is written as 16
//! lowercase hex digits, most significant nibble first.
//!
//! Every site samples its rail at the same instants, so the times are
//! written once. `site_points` is an object of two fields:
//!
//! - `times`: the first series' knot times, 16 digits per knot;
//! - `series`: one string per series, led by a one-byte tag.
//!   - `v` — the series' times equal `times` bit for bit, so only its
//!     voltages follow, 16 digits per knot;
//!   - `p` — the series has times of its own, so its whole points
//!     follow, 32 digits per knot: time bits, then voltage bits.
//!
//! The encoder picks the form per series, so every struct round-trips
//! exactly and there is nothing to configure. Two sites that both read
//! 0.5 V at 1 ps and 1 V at 2 ps, and a third site with the single
//! knot `(1 ps, 0.5 V)`, encode as
//!
//! ```text
//! {"times":"3ff00000000000004000000000000000",
//!  "series":["v3fe00000000000003ff0000000000000",
//!            "v3fe00000000000003ff0000000000000",
//!            "p3ff00000000000003fe0000000000000"]}
//! ```
//!
//! (whitespace added): the first two series lie on the column, the
//! third holds one point of its own. Zero sites write an empty `times`
//! and no series.
//!
//! The encoding is exact for every bit pattern — NaN payloads, ±∞,
//! −0.0, subnormals — where decimal JSON writes non-finite samples as
//! `null` and could not load them back. It is also several times
//! cheaper to write and read than shortest-round-trip decimal text.
//! Decoding checks every byte and fails with a structured error on a
//! missing tag or one other than `v` and `p`, on a length that is not a
//! whole number of knots (or a `v` series whose knot count is not the
//! column's), and on any digit outside `0-9a-f`.
//!
//! Each in-flight flit of the [`StepperSnapshot`] is stored as `(src,
//! dst, hop)`: the flit is `hop` hops along the XY route between its
//! ends, which restore rebuilds and checks. The snapshot stores the
//! last cycle's effective counts once, as `prev_eff`, and its boost
//! overlay only while a boost is active.
//!
//! A closed-loop [`MitigatedCheckpoint`] names the policy and the
//! code latency it ran at; resume refuses either one changed.
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
/// site's rail series as hex bit patterns; a version-2 file holds them
/// as decimal arrays. Version 4 writes the knot times shared by every
/// series once and each flight as `(src, dst, hop)`, where version 3
/// repeats the times per series and stores whole routes (see the
/// module docs). Version 5 drops the stepper's `eff_counts`, a copy
/// of its `prev_eff`, and stores a closed-loop run's code `latency`.
pub const CHECKPOINT_VERSION: u32 = 5;

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
/// actuation is the stepper's own.
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
    /// The code-distribution latency of the run, cycles; resume
    /// refuses a mismatched latency.
    pub latency: usize,
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

/// The `site_points` codec (`#[serde(with = "rail_hex")]`): the shared
/// time column once, then one tagged hex string per series (see the
/// module docs).
mod rail_hex {
    use psnt_cells::units::Time;
    use serde::{DeError, Value};

    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    /// Hex digits per 64-bit pattern.
    const WORD: usize = 16;
    /// Tags a series whose times are the shared column: voltages only.
    const ON_COLUMN: u8 = b'v';
    /// Tags a series with times of its own: `(time, volts)` points.
    const OWN_TIMES: u8 = b'p';
    /// Marks a digit pair that is not two lowercase hex digits in
    /// [`PAIR_BYTE`]; every byte value stays below it.
    const BAD: u16 = 0x100;

    /// The two hex digits of every byte, high nibble first.
    static BYTE_PAIR: [[u8; 2]; 256] = {
        let mut table = [[0; 2]; 256];
        let mut b = 0;
        while b < 256 {
            table[b] = [DIGITS[b >> 4], DIGITS[b & 0xf]];
            b += 1;
        }
        table
    };

    /// The byte each digit pair encodes, indexed by the first digit in
    /// the high 8 bits and the second in the low 8, or [`BAD`].
    static PAIR_BYTE: [u16; 1 << 16] = {
        let mut table = [BAD; 1 << 16];
        let mut hi = 0;
        while hi < 16 {
            let mut lo = 0;
            while lo < 16 {
                table[(DIGITS[hi] as usize) << 8 | DIGITS[lo] as usize] = (hi << 4 | lo) as u16;
                lo += 1;
            }
            hi += 1;
        }
        table
    };

    fn time_bits(point: &(Time, f64)) -> u64 {
        point.0.raw().to_bits()
    }

    pub(super) fn to_value(sites: &[Vec<(Time, f64)>]) -> Value {
        let column = sites.first().map_or(&[][..], Vec::as_slice);
        let times = encode(None, column.len(), column.iter().map(time_bits));
        let series = sites
            .iter()
            .map(|s| {
                let on_column = s.len() == column.len()
                    && s.iter()
                        .zip(column)
                        .all(|(p, c)| time_bits(p) == time_bits(c));
                Value::Str(if on_column {
                    encode(Some(ON_COLUMN), s.len(), s.iter().map(|p| p.1.to_bits()))
                } else {
                    let words = s.iter().flat_map(|p| [time_bits(p), p.1.to_bits()]);
                    encode(Some(OWN_TIMES), 2 * s.len(), words)
                })
            })
            .collect();
        Value::Map(vec![
            ("times".into(), Value::Str(times)),
            ("series".into(), Value::Seq(series)),
        ])
    }

    pub(super) fn from_value(v: &Value) -> Result<Vec<Vec<(Time, f64)>>, DeError> {
        let (Some(Value::Str(times)), Some(Value::Seq(series))) = (v.get("times"), v.get("series"))
        else {
            return Err(DeError::new(
                "site_points: expected a `times` hex string and a `series` sequence",
            ));
        };
        let column = decode(times.as_bytes(), 1, |_, w| {
            Time::from_ps(f64::from_bits(w[0]))
        })
        .map_err(|e| DeError::new(format!("site_points.times: {e}")))?;
        series
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let hex = s.as_str().ok_or_else(|| {
                    DeError::new(format!("site_points.series[{k}]: expected a hex string"))
                })?;
                decode_series(hex.as_bytes(), &column)
                    .map_err(|e| DeError::new(format!("site_points.series[{k}]: {e}")))
            })
            .collect()
    }

    /// An optional tag, then `words` 64-bit patterns as 16 hex digits
    /// each, most significant first, written through [`BYTE_PAIR`]
    /// into a buffer sized up front.
    fn encode(tag: Option<u8>, words: usize, bits: impl Iterator<Item = u64>) -> String {
        let start = usize::from(tag.is_some());
        let mut out = vec![0u8; start + words * WORD];
        if let Some(tag) = tag {
            out[0] = tag;
        }
        for (digits, word) in out[start..].chunks_exact_mut(WORD).zip(bits) {
            for (pair, byte) in digits.chunks_exact_mut(2).zip(word.to_be_bytes()) {
                pair.copy_from_slice(&BYTE_PAIR[usize::from(byte)]);
            }
        }
        // Every byte is a tag or comes from `DIGITS`, so this is always
        // valid UTF-8; a broken encoder shows up as an empty series,
        // which the round-trip tests catch.
        String::from_utf8(out).unwrap_or_default()
    }

    /// One 16-digit bit pattern, or `None` if any byte is not a
    /// lowercase hex digit.
    fn parse_word(digits: &[u8]) -> Option<u64> {
        let mut word = 0u64;
        let mut seen = 0u16;
        for pair in digits.chunks_exact(2) {
            let byte = PAIR_BYTE[usize::from(pair[0]) << 8 | usize::from(pair[1])];
            seen |= byte;
            word = word << 8 | u64::from(byte & 0xff);
        }
        (seen & BAD == 0).then_some(word)
    }

    /// Decodes `hex` as knots of `per_knot` 64-bit patterns each into a
    /// buffer sized up front, mapping every knot's patterns (and its
    /// index) through `knot`.
    fn decode<T>(
        hex: &[u8],
        per_knot: usize,
        mut knot: impl FnMut(usize, &[u64]) -> T,
    ) -> Result<Vec<T>, String> {
        let digits = per_knot * WORD;
        if !hex.len().is_multiple_of(digits) {
            return Err(format!(
                "{} hex digits is not a whole number of {digits}-digit knots",
                hex.len()
            ));
        }
        let mut out = Vec::with_capacity(hex.len() / digits);
        let mut words = [0u64; 2];
        for (i, digits) in hex.chunks_exact(digits).enumerate() {
            for (word, digits) in words.iter_mut().zip(digits.chunks_exact(WORD)) {
                *word = parse_word(digits)
                    .ok_or_else(|| format!("knot {i} holds a byte outside 0-9a-f"))?;
            }
            out.push(knot(i, &words[..per_knot]));
        }
        Ok(out)
    }

    fn decode_series(hex: &[u8], column: &[Time]) -> Result<Vec<(Time, f64)>, String> {
        match hex.split_first() {
            Some((&ON_COLUMN, volts)) => {
                if volts.len() != column.len() * WORD {
                    return Err(format!(
                        "{} voltage digits for a time column of {} knots",
                        volts.len(),
                        column.len()
                    ));
                }
                decode(volts, 1, |i, w| (column[i], f64::from_bits(w[0])))
            }
            Some((&OWN_TIMES, points)) => decode(points, 2, |_, w| {
                (Time::from_ps(f64::from_bits(w[0])), f64::from_bits(w[1]))
            }),
            Some((&other, _)) => Err(format!(
                "series tag {:?} is neither 'v' (voltages on the shared times) \
                 nor 'p' (points with their own times)",
                char::from(other)
            )),
            None => Err("empty string: no series tag".into()),
        }
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
    use serde::Value;

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
            latency: 1,
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
                assert_eq!(reason, format!("schema version {v}, this build reads 5"));
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
                assert!(reason.contains("site_points"), "{reason}");
            }
            other => panic!("expected a decode error, got {other:?}"),
        }

        // A version-3 file: flights as whole routes, one 32-digit hex
        // string per rail series.
        let mut stepper = json::to_value(&snapshot);
        let Value::Map(fields) = &mut stepper else {
            panic!("a snapshot encodes as a map");
        };
        let flights = fields.iter_mut().find(|(k, _)| k == "flights").unwrap();
        flights.1 = json::parse("[[[0,1],1]]").unwrap();
        let stepper = json::render(&stepper);
        let v3 = |version: u32| {
            format!(
                r#"{{"version":{version},"seed":5,"stepper":{stepper},"stats_done":[],"site_points":["3ff00000000000003fe0000000000000"]}}"#
            )
        };
        fs::write(&path, v3(3)).unwrap();
        schema_error(WorkloadCheckpoint::load(&path).map(drop), 3);
        fs::write(&path, v3(CHECKPOINT_VERSION)).unwrap();
        match WorkloadCheckpoint::load(&path) {
            Err(WorkloadError::Checkpoint { reason, .. }) => {
                assert!(reason.starts_with("decode:"), "{reason}");
            }
            other => panic!("expected a decode error, got {other:?}"),
        }

        // Version-4 files: the stepper carries `eff_counts` beside
        // `prev_eff`, and a closed-loop file has no `latency`.
        let mut stepper = json::to_value(&snapshot);
        let Value::Map(fields) = &mut stepper else {
            panic!("a snapshot encodes as a map");
        };
        let prev_eff = fields
            .iter()
            .find(|(k, _)| k == "prev_eff")
            .unwrap()
            .1
            .clone();
        fields.push(("eff_counts".into(), prev_eff));
        let stepper = json::render(&stepper);
        let rails = r#"{"times":"","series":[]}"#;
        let v4_open = |version: u32| {
            format!(
                r#"{{"version":{version},"seed":5,"stepper":{stepper},"stats_done":[],"site_points":{rails}}}"#
            )
        };
        fs::write(&path, v4_open(4)).unwrap();
        schema_error(WorkloadCheckpoint::load(&path).map(drop), 4);
        let mut v4_closed = json::to_value(&MitigatedCheckpoint {
            version: 4,
            ..closed.clone()
        });
        let Value::Map(fields) = &mut v4_closed else {
            panic!("a checkpoint encodes as a map");
        };
        fields.retain(|(k, _)| k != "latency");
        let v4_closed = json::render(&v4_closed);
        fs::write(&path, &v4_closed).unwrap();
        schema_error(MitigatedCheckpoint::load(&path).map(drop), 4);
        // Relabelled as version 5, the closed-loop file lacks its
        // latency; the open-loop one decodes, its `eff_counts` unread,
        // which is why the version is checked first.
        let relabel = |doc: &str| doc.replacen("\"version\":4,", "\"version\":5,", 1);
        fs::write(&path, relabel(&v4_closed)).unwrap();
        match MitigatedCheckpoint::load(&path) {
            Err(WorkloadError::Checkpoint { reason, .. }) => {
                assert!(reason.contains("latency"), "{reason}");
            }
            other => panic!("expected a decode error, got {other:?}"),
        }
        fs::write(&path, relabel(&v4_open(4))).unwrap();
        assert_eq!(WorkloadCheckpoint::load(&path).unwrap().stepper, snapshot);
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

    /// Every time and voltage bit pattern of `sites`, series by series.
    fn bits(sites: &[Vec<(Time, f64)>]) -> Vec<Vec<(u64, u64)>> {
        sites
            .iter()
            .map(|p| {
                p.iter()
                    .map(|(t, v)| (t.raw().to_bits(), v.to_bits()))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn rail_series_share_one_time_column() {
        let ps = Time::from_ps;
        // The module docs' example.
        let sites = vec![
            vec![(ps(1.0), 0.5), (ps(2.0), 1.0)],
            vec![(ps(1.0), 0.5), (ps(2.0), 1.0)],
            vec![(ps(1.0), 0.5)],
        ];
        let v = rail_hex::to_value(&sites);
        assert_eq!(
            json::render(&v),
            r#"{"times":"3ff00000000000004000000000000000","series":["v3fe00000000000003ff0000000000000","v3fe00000000000003ff0000000000000","p3ff00000000000003fe0000000000000"]}"#
        );
        assert_eq!(bits(&rail_hex::from_value(&v).unwrap()), bits(&sites));

        // A time that differs in one bit only (−0.0 against 0.0), NaN
        // payloads, ±∞ and empty series.
        let sites = vec![
            vec![(Time::ZERO, f64::NAN), (ps(f64::INFINITY), -0.0)],
            vec![(ps(-0.0), 0.25), (ps(f64::INFINITY), f64::NEG_INFINITY)],
            vec![(Time::ZERO, 1.0), (ps(f64::INFINITY), 2.0)],
            Vec::new(),
        ];
        let v = rail_hex::to_value(&sites);
        let series: Vec<&str> = v
            .get("series")
            .unwrap()
            .as_seq()
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap())
            .collect();
        assert_eq!(
            series,
            [
                "v7ff80000000000008000000000000000",
                "p80000000000000003fd0000000000000\
                 7ff0000000000000fff0000000000000",
                "v3ff00000000000004000000000000000",
                "p",
            ]
        );
        assert_eq!(bits(&rail_hex::from_value(&v).unwrap()), bits(&sites));

        // Zero sites: an empty column and no series.
        let v = rail_hex::to_value(&[]);
        assert_eq!(json::render(&v), r#"{"times":"","series":[]}"#);
        assert!(rail_hex::from_value(&v).unwrap().is_empty());
        // Empty series over an empty column are on it.
        let v = rail_hex::to_value(&[Vec::new(), Vec::new()]);
        assert_eq!(json::render(&v), r#"{"times":"","series":["v","v"]}"#);
        assert_eq!(
            rail_hex::from_value(&v).unwrap(),
            vec![Vec::new(), Vec::new()]
        );
    }

    /// Bit patterns biased towards the float classes decimal JSON
    /// mangles (NaN payloads, ±∞, −0.0, subnormals) and towards +0.0.
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
            Just(0),
            Just(1),
            Just(0x800f_ffff_ffff_ffff),
            Just(u64::MAX),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(48))]
        #[test]
        fn every_bit_pattern_round_trips_through_save_and_load(
            column in proptest::collection::vec(bit_patterns(), 0..16),
            raw in proptest::collection::vec(
                (
                    0u8..3,
                    proptest::collection::vec(bit_patterns(), 16),
                    proptest::collection::vec((bit_patterns(), bit_patterns()), 0..16),
                ),
                0..6,
            )
        ) {
            // Per site: on the shared column (0), on it but for one
            // time bit (1), or times of its own (2).
            let site_points: Vec<Vec<(Time, f64)>> = raw
                .iter()
                .map(|(form, volts, own)| {
                    let point = |t: u64, v: u64| (Time::from_ps(f64::from_bits(t)), f64::from_bits(v));
                    match form {
                        2 => own.iter().map(|&(t, v)| point(t, v)).collect(),
                        _ => column
                            .iter()
                            .zip(volts)
                            .enumerate()
                            .map(|(i, (&t, &v))| {
                                let flip = u64::from(*form == 1 && i + 1 == column.len());
                                point(t ^ flip, v)
                            })
                            .collect(),
                    }
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
            let text = fs::read_to_string(&path).unwrap();
            let back = WorkloadCheckpoint::load(&path).unwrap();
            fs::remove_file(&path).unwrap();
            proptest::prop_assert_eq!(bits(&back.site_points), bits(&ckpt.site_points));
            proptest::prop_assert_eq!(&back.stepper, &ckpt.stepper);
            proptest::prop_assert_eq!((back.version, back.seed), (ckpt.version, ckpt.seed));
            // Saving what was loaded writes the same bytes.
            proptest::prop_assert_eq!(json::to_string(&back), text);
        }
    }

    /// A small valid checkpoint document: two sites on the shared
    /// time column and one with times of its own, whose hex holds
    /// letters (0.1 V is `3fb999999999999a`).
    fn small_document() -> String {
        let ps = Time::from_ps;
        json::to_string(&WorkloadCheckpoint {
            version: CHECKPOINT_VERSION,
            seed: 5,
            stepper: small_snapshot(),
            stats_done: Vec::new(),
            site_points: vec![
                vec![(Time::ZERO, 0.1), (ps(1000.0), 0.95)],
                vec![(Time::ZERO, 0.2), (ps(1000.0), 0.9)],
                vec![(ps(500.0), 0.1)],
            ],
        })
    }

    /// The open-loop checkpoint of seed 5 on `w`, cancelled at cycle
    /// 30: flights in the mesh, a touched window, a series per site.
    fn interrupted_document(w: &crate::campaign::NocWorkload, name: &str) -> String {
        use psnt_ctx::RunCtx;
        use psnt_engine::RetryPolicy;
        use psnt_fault::{Fault, FaultPlan};

        let path = temp_file(&format!("{name}.ckpt"));
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
        doc
    }

    #[test]
    fn out_of_authority_actuation_is_refused_on_resume() {
        use crate::campaign::{NocWorkload, NocWorkloadConfig};
        use psnt_control::Actuation;
        use psnt_ctx::RunCtx;
        use psnt_engine::RetryPolicy;

        // A real open-loop checkpoint: its stepper holds the neutral
        // actuation the edits replace.
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let path = temp_file("actuation.ckpt");
        let doc = interrupted_document(&w, "actuation");
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
        let decode = |text: &str| decode_checked::<WorkloadCheckpoint>(path, text);
        assert!(decode(&doc).is_ok());
        // The column and the three series as written, quotes included.
        let hex = |field: &str| {
            format!(
                "\"{}\"",
                doc.split(field).nth(1).unwrap().split('"').next().unwrap()
            )
        };
        let times = hex("\"times\":\"");
        let (v0, v1, p2) = {
            let series = doc.split("\"series\":[").nth(1).unwrap();
            let mut it = series
                .split('"')
                .skip(1)
                .step_by(2)
                .map(|h| format!("\"{h}\""));
            (it.next().unwrap(), it.next().unwrap(), it.next().unwrap())
        };
        assert_eq!((times.len(), v0.len(), p2.len()), (34, 35, 35), "{doc}");
        assert!(v0.starts_with("\"v") && v1.starts_with("\"v") && p2.starts_with("\"p"));

        let body = |h: &str| h[1..h.len() - 1].to_string();
        let mutations: Vec<(&str, &str, String)> = vec![
            (
                "times one digit short",
                &times,
                format!("\"{}\"", &body(&times)[1..]),
            ),
            (
                "times one digit long",
                &times,
                format!("\"{}0\"", body(&times)),
            ),
            (
                "times one knot short",
                &times,
                format!("\"{}\"", &body(&times)[16..]),
            ),
            ("times non-hex", &times, times.replacen('4', "g", 1)),
            ("times a number", &times, "0".into()),
            (
                "v one digit short",
                &v0,
                format!("\"{}\"", &body(&v0)[..32]),
            ),
            ("v one digit long", &v0, format!("\"{}0\"", body(&v0))),
            ("v one knot short", &v0, format!("\"{}\"", &body(&v0)[..17])),
            (
                "v one knot long",
                &v0,
                format!("\"{}{}\"", body(&v0), &body(&v0)[1..17]),
            ),
            ("v uppercase digit", &v0, v0.replacen('a', "A", 1)),
            ("v non-hex letter", &v1, v1.replacen('c', "g", 1)),
            ("v space", &v1, v1.replacen('c', " ", 1)),
            ("v non-ASCII", &v0, v0.replacen("3f", "é", 1)),
            ("tag missing", &v0, format!("\"{}\"", &body(&v0)[1..])),
            ("uppercase tag", &v0, v0.replacen('v', "V", 1)),
            ("wrong tag", &v1, v1.replacen('v', "x", 1)),
            ("non-ASCII tag", &v1, v1.replacen('v', "é", 1)),
            ("empty series", &v1, "\"\"".into()),
            ("p half a point", &p2, format!("\"{}\"", &body(&p2)[..17])),
            ("p one digit long", &p2, format!("\"{}0\"", body(&p2))),
            (
                "p one digit short",
                &p2,
                format!("\"{}\"", &body(&p2)[..32]),
            ),
            ("p non-hex letter", &p2, p2.replacen('a', "z", 1)),
            ("number element", &p2, "123".into()),
            ("null element", &p2, "null".into()),
            ("decimal pair", &p2, "[500.0,0.1]".into()),
        ];
        for (what, from, to) in &mutations {
            let text = doc.replacen(*from, to, 1);
            assert_ne!(&text, &doc, "{what}: mutation did not apply");
            let r = decode(&text);
            assert!(is_checkpoint_error(&r), "{what}: {r:?}");
        }
        let site_points = &doc[doc.find("\"site_points\":").unwrap() + 14..doc.len() - 1];
        for shape in [
            "null",
            "{}",
            "\"\"",
            "[]",
            r#"["3ff00000000000003fe0000000000000"]"#,
            r#"{"times":""}"#,
            r#"{"series":[]}"#,
            r#"{"times":0,"series":[]}"#,
            r#"{"times":"","series":{}}"#,
            r#"{"times":"","series":["p","v0000000000000000"]}"#,
        ] {
            let text = doc.replace(site_points, shape);
            assert!(is_checkpoint_error(&decode(&text)), "site_points = {shape}");
        }
        // Relabelling the `p` series as `v` reads its 32 digits as two
        // voltages on the two-knot column: a well-formed document.
        let relabelled = decode(&doc.replacen(&p2, &p2.replacen('p', "v", 1), 1)).unwrap();
        assert_eq!(relabelled.site_points[2].len(), 2);

        // Every truncation of the document fails, in memory and on disk.
        for end in 0..doc.len() {
            let r = decode(&doc[..end]);
            assert!(is_checkpoint_error(&r), "prefix of {end} bytes: {r:?}");
        }
        let file = temp_file("truncated.ckpt");
        fs::write(&file, &doc.as_bytes()[..doc.len() / 2]).unwrap();
        assert!(is_checkpoint_error(&WorkloadCheckpoint::load(&file)));

        // Every single-byte flip decodes or fails cleanly, never panics;
        // a flip to a non-digit inside a rail string always fails.
        let rail: Vec<std::ops::Range<usize>> = [&times, &v0, &v1, &p2]
            .iter()
            .map(|h| {
                let at = doc.find(h.as_str()).unwrap();
                at + 1..at + h.len() - 1
            })
            .collect();
        let mut bytes = doc.clone().into_bytes();
        for i in 0..bytes.len() {
            let original = bytes[i];
            for flip in [b'x', b'"', b'}', b'7', b'F', b'-', b'p', b'v'] {
                bytes[i] = flip;
                let r = decode(std::str::from_utf8(&bytes).unwrap());
                assert!(r.is_ok() || is_checkpoint_error(&r), "byte {i} -> {flip}");
                let tag_swap = matches!(flip, b'p' | b'v') && matches!(original, b'p' | b'v');
                if rail.iter().any(|r| r.contains(&i)) && !flip.is_ascii_digit() && !tag_swap {
                    assert!(is_checkpoint_error(&r), "byte {i} -> {flip} decoded");
                }
            }
            bytes[i] = original;
        }
        bytes[rail[1].start] = 0xff;
        fs::write(&file, &bytes).unwrap();
        assert!(is_checkpoint_error(&WorkloadCheckpoint::load(&file)));
        fs::remove_file(&file).unwrap();
    }

    /// How a mutant of a real checkpoint fared: it was refused at load,
    /// refused at resume, or resumed to the end of the run.
    #[derive(Debug, PartialEq)]
    enum Fate {
        Refused,
        RefusedOnResume,
        Resumed,
    }

    /// Loads `text` as a checkpoint (from disk when it is not UTF-8)
    /// and resumes it on `w`. A panic anywhere fails the calling test;
    /// every refusal must be the structured error of its stage.
    fn fate(w: &crate::campaign::NocWorkload, text: &[u8]) -> Fate {
        use psnt_ctx::RunCtx;
        use psnt_engine::RetryPolicy;

        let loaded = match std::str::from_utf8(text) {
            Ok(text) => decode_checked::<WorkloadCheckpoint>(Path::new("fuzz.ckpt"), text),
            Err(_) => {
                let file = temp_file("fuzz-bytes.ckpt");
                fs::write(&file, text).unwrap();
                let r = WorkloadCheckpoint::load(&file);
                fs::remove_file(&file).unwrap();
                r
            }
        };
        let ckpt = match loaded {
            Ok(ckpt) => ckpt,
            Err(WorkloadError::Checkpoint { .. }) => return Fate::Refused,
            Err(e) => panic!("load failed with {e:?}"),
        };
        let resumed = w.run_streamed_checkpointed(
            &mut RunCtx::serial().with_seed(5),
            RetryPolicy::none(),
            &CheckpointPolicy::none(),
            Some(&ckpt),
            |_| Ok(()),
        );
        match resumed {
            Ok(_) => Fate::Resumed,
            Err(WorkloadError::InvalidConfig { .. }) => Fate::RefusedOnResume,
            Err(e) => panic!("resume failed with {e:?}"),
        }
    }

    /// The fuzzed document, built once per test binary.
    fn fuzz_document() -> &'static (crate::campaign::NocWorkload, String) {
        use crate::campaign::{NocWorkload, NocWorkloadConfig};
        static DOC: std::sync::OnceLock<(NocWorkload, String)> = std::sync::OnceLock::new();
        DOC.get_or_init(|| {
            let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
            let doc = interrupted_document(&w, "fuzz");
            (w, doc)
        })
    }

    #[test]
    fn the_fuzzed_document_resumes_and_has_flights_and_both_series_forms() {
        let (w, doc) = fuzz_document();
        assert_eq!(fate(w, doc.as_bytes()), Fate::Resumed);
        let ckpt: WorkloadCheckpoint = decode_checked(Path::new("fuzz.ckpt"), doc).unwrap();
        assert!(doc.contains("\"flights\":[["), "no flight in the mesh");
        assert!(doc.contains("\"v") && ckpt.site_points.len() == 4);
    }

    #[test]
    fn resume_refuses_rails_and_windows_off_the_run() {
        use psnt_ctx::RunCtx;
        use psnt_engine::RetryPolicy;

        let (w, doc) = fuzz_document();
        let ckpt: WorkloadCheckpoint = decode_checked(Path::new("fuzz.ckpt"), doc).unwrap();
        let resume = |edit: &dyn Fn(&mut WorkloadCheckpoint)| {
            let mut edited = ckpt.clone();
            edit(&mut edited);
            w.run_streamed_checkpointed(
                &mut RunCtx::serial().with_seed(5),
                RetryPolicy::none(),
                &CheckpointPolicy::none(),
                Some(&edited),
                |_| Ok(()),
            )
        };
        let refused = |edit: &dyn Fn(&mut WorkloadCheckpoint)| {
            matches!(
                resume(edit),
                Err(WorkloadError::InvalidConfig { name: "resume", .. })
            )
        };
        assert!(resume(&|_| ()).is_ok());
        // A rail knot moved off its cycle's midpoint, on the column or
        // on one series alone.
        assert!(refused(&|c| c.site_points[0][3].0 = Time::from_ps(1.0)));
        assert!(refused(&|c| c.site_points[2][7].0 = Time::from_ps(f64::NAN)));
        // A captured window that is not the run's own.
        assert!(refused(&|c| c.stats_done[0].instant = Time::ZERO));
        assert!(refused(&|c| c.stats_done[0].window = 1));
        assert!(refused(&|c| c.stats_done[1].start_cycle = 0));
        // Voltages and statistics are the run's data, not its layout.
        assert!(resume(&|c| c.site_points[1][4].1 = 0.5).is_ok());
        assert!(resume(&|c| c.stats_done[0].events += 1).is_ok());
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(384))]
        /// Mutation fuzzing of a real checkpoint: byte flips (any byte,
        /// invalid UTF-8 included), truncation, deleted and duplicated
        /// runs, series tags, odd digit counts, flight hops, boost
        /// overlays and older versions. Nothing panics; every mutant is refused at load
        /// with `WorkloadError::Checkpoint`, refused at resume with
        /// `WorkloadError::InvalidConfig`, or resumes. Mutants that
        /// are malformed by construction are always refused at load.
        #[test]
        fn mutated_checkpoints_are_refused_cleanly_or_resume(
            kind in 0u8..9,
            at in 0usize..1 << 20,
            len in 0usize..48,
            byte in proptest::prelude::any::<u8>(),
        ) {
            let (w, doc) = fuzz_document();
            let mut bytes = doc.clone().into_bytes();
            let n = bytes.len();
            let i = at % n;
            let j = (i + len).min(n);
            // Byte offsets of the rail strings' first characters.
            let rail: Vec<usize> = doc
                .match_indices("\"v")
                .chain(doc.match_indices("\"p"))
                .map(|(k, _)| k + 1)
                .filter(|&k| k > doc.find("\"site_points\"").unwrap() + 14)
                .collect();
            let tag = rail[at % rail.len()];
            let expect_refused = match kind {
                0 => {
                    bytes[i] = byte;
                    false
                }
                1 => {
                    bytes.truncate(i);
                    true
                }
                2 => {
                    bytes.drain(i..j);
                    false
                }
                3 => {
                    let run = bytes[i..j].to_vec();
                    bytes.splice(i..i, run);
                    false
                }
                4 => {
                    // A series tag: anything but `v` and `p` is refused.
                    bytes[tag] = byte;
                    !matches!(byte, b'v' | b'p')
                }
                5 => {
                    // One hex digit more or fewer in a rail string.
                    let digit = tag + 1 + len % 16;
                    if byte.is_multiple_of(2) {
                        bytes.insert(digit, b'0');
                    } else {
                        bytes.remove(digit);
                    }
                    true
                }
                6 => {
                    // A flight's hop: the 2×2 mesh has routes of 0–2 hops.
                    let mut tree = json::parse(doc).unwrap();
                    let Some(Value::Map(stepper)) = map_get_mut(&mut tree, "stepper") else {
                        panic!("no stepper");
                    };
                    let flights = stepper.iter_mut().find(|(k, _)| k == "flights").unwrap();
                    let Value::Seq(flights) = &mut flights.1 else { panic!("no flights") };
                    let k = at % flights.len();
                    let Value::Seq(flight) = &mut flights[k] else { panic!("not a triple") };
                    let hop = len % 4;
                    flight[2] = Value::U64(hop as u64);
                    let end = |v: &Value| usize::from_value(v).unwrap();
                    let past = hop > w.mesh().xy_hops(end(&flight[0]), end(&flight[1]));
                    bytes = json::render(&tree).into_bytes();
                    let want = if past { Fate::RefusedOnResume } else { Fate::Resumed };
                    proptest::prop_assert_eq!(fate(w, &bytes), want);
                    false
                }
                7 => {
                    // The boost overlay: on or off, of a length around
                    // the grid's node count, one entry maybe infinite
                    // (`1e999` parses as +∞). Only a full finite
                    // overlay while on, or none while off, resumes.
                    let nodes = w.campaign().floorplan().grid().tiles();
                    let active = byte & 1 == 1;
                    let n = [0, nodes - 1, nodes, nodes + 1][len % 4];
                    let infinite = byte & 2 == 2 && n > 0;
                    let mut tree = json::parse(doc).unwrap();
                    let Some(Value::Map(stepper)) = map_get_mut(&mut tree, "stepper") else {
                        panic!("no stepper");
                    };
                    for (k, v) in stepper.iter_mut() {
                        match k.as_str() {
                            "boost_active" => *v = Value::Bool(active),
                            "boosted" => {
                                let mut overlay = vec![Value::F64(0.9); n];
                                if infinite {
                                    overlay[at % n] = Value::F64(12345.5);
                                }
                                *v = Value::Seq(overlay);
                            }
                            _ => {}
                        }
                    }
                    bytes = json::render(&tree).replacen("12345.5", "1e999", 1).into_bytes();
                    let fits = if active { n == nodes && !infinite } else { n == 0 };
                    let want = if fits { Fate::Resumed } else { Fate::RefusedOnResume };
                    proptest::prop_assert_eq!(fate(w, &bytes), want);
                    false
                }
                _ => {
                    let version = len % 6;
                    let stamped = doc.replacen(
                        &format!("{{\"version\":{CHECKPOINT_VERSION},"),
                        &format!("{{\"version\":{version},"),
                        1,
                    );
                    bytes = stamped.into_bytes();
                    version != CHECKPOINT_VERSION as usize
                }
            };
            let fate = fate(w, &bytes);
            if expect_refused {
                proptest::prop_assert_eq!(fate, Fate::Refused);
            }
        }
    }

    /// The value under `key` in a map, mutably.
    fn map_get_mut<'v>(tree: &'v mut Value, key: &str) -> Option<&'v mut Value> {
        match tree {
            Value::Map(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}
