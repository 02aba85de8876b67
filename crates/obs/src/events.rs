//! Structured event records and the sinks that persist them.
//!
//! A telemetry stream is a sequence of [`Record`]s: one manifest at the
//! head, then events and spans as the run progresses, then one metrics
//! snapshot at the end. Every record serializes to a single flat JSON
//! object with a `"type"` discriminator, so a stream written by
//! [`JsonlSink`] is plain JSON-Lines that any log tooling can consume.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

use serde::{json, Serialize, Value};

use crate::manifest::RunManifest;
use crate::span::SpanRecord;
use psnt_cells::units::Time;

/// How important an event is. Observers drop events below their
/// configured minimum before they reach the sink (counted, never
/// silent). The default is [`Severity::Info`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Severity {
    /// High-volume diagnostics (per-transition, per-solver-step).
    Debug,
    /// Normal progress events.
    #[default]
    Info,
    /// Degradation the run survived (retries, fallbacks).
    Warn,
    /// Failures surfaced to the caller.
    Error,
}

impl Severity {
    /// The lowercase wire name (`"debug"`, `"info"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Debug => "debug",
            Severity::Info => "info",
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One structured event: where it happened, what happened, when in
/// simulated time, and an open key/value payload.
#[derive(Debug, Clone)]
pub struct Event {
    /// Simulated time in picoseconds, when the event is tied to a
    /// point on the simulation clock.
    pub t_ps: Option<f64>,
    /// Which layer emitted it (`"sim"`, `"fsm"`, `"scan"`, `"pdn"`, ...).
    pub subsystem: String,
    /// What happened (`"transition"`, `"trim"`, `"site_done"`, ...).
    pub kind: String,
    /// How important it is; serialized only when not [`Severity::Info`].
    pub severity: Severity,
    /// Additional payload, flattened into the record's JSON object.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// A new event with no timestamp and no payload.
    pub fn new(subsystem: impl Into<String>, kind: impl Into<String>) -> Event {
        Event {
            t_ps: None,
            subsystem: subsystem.into(),
            kind: kind.into(),
            severity: Severity::Info,
            fields: Vec::new(),
        }
    }

    /// Sets the event's severity.
    pub fn severity(mut self, severity: Severity) -> Event {
        self.severity = severity;
        self
    }

    /// Stamps the event with a simulated time.
    pub fn at(self, t: Time) -> Event {
        self.at_ps(t.picoseconds())
    }

    /// Stamps the event with a simulated time in picoseconds.
    pub fn at_ps(mut self, t_ps: f64) -> Event {
        self.t_ps = Some(t_ps);
        self
    }

    /// Attaches one serializable key/value pair.
    pub fn field(mut self, key: impl Into<String>, value: &impl Serialize) -> Event {
        self.fields.push((key.into(), value.to_value()));
        self
    }
}

/// One line of a telemetry stream.
#[derive(Debug, Clone)]
pub enum Record {
    /// The reproducibility header; first line of every stream.
    Manifest(RunManifest),
    /// A structured event.
    Event(Event),
    /// A finished span, with its place in the causal tree.
    Span(SpanRecord),
    /// The final metrics snapshot (already rendered to a value tree).
    Metrics(Value),
}

impl Serialize for Record {
    fn to_value(&self) -> Value {
        let mut entries: Vec<(String, Value)> = Vec::new();
        match self {
            Record::Manifest(m) => {
                entries.push(("type".to_string(), Value::Str("manifest".to_string())));
                if let Value::Map(rest) = m.to_value() {
                    entries.extend(rest);
                }
            }
            Record::Event(e) => {
                entries.push(("type".to_string(), Value::Str("event".to_string())));
                if let Some(t) = e.t_ps {
                    entries.push(("t_ps".to_string(), Value::F64(t)));
                }
                entries.push(("subsystem".to_string(), Value::Str(e.subsystem.clone())));
                entries.push(("kind".to_string(), Value::Str(e.kind.clone())));
                if e.severity != Severity::Info {
                    entries.push((
                        "severity".to_string(),
                        Value::Str(e.severity.as_str().to_string()),
                    ));
                }
                entries.extend(e.fields.iter().cloned());
            }
            Record::Span(s) => {
                entries.push(("type".to_string(), Value::Str("span".to_string())));
                entries.push(("id".to_string(), Value::U64(s.id)));
                if let Some(p) = s.parent {
                    entries.push(("parent".to_string(), Value::U64(p)));
                }
                entries.push(("name".to_string(), Value::Str(s.name.clone())));
                entries.push(("track".to_string(), Value::U64(s.track as u64)));
                entries.push(("wall_start_us".to_string(), Value::F64(s.wall_start_us)));
                entries.push(("wall_us".to_string(), Value::F64(s.wall_us)));
                if let Some(t0) = s.sim_t0_ps {
                    entries.push(("t0_ps".to_string(), Value::F64(t0)));
                }
                if let Some(t1) = s.sim_t1_ps {
                    entries.push(("t1_ps".to_string(), Value::F64(t1)));
                }
                entries.extend(s.attrs.iter().cloned());
            }
            Record::Metrics(snapshot) => {
                entries.push(("type".to_string(), Value::Str("metrics".to_string())));
                if let Value::Map(rest) = snapshot {
                    entries.extend(rest.iter().cloned());
                }
            }
        }
        Value::Map(entries)
    }
}

impl Record {
    /// The record as one JSON-Lines line (no trailing newline).
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

/// Where records go. Implementations must tolerate being handed
/// records at simulator-event rate.
pub trait EventSink {
    /// Persists one record.
    fn emit(&mut self, record: &Record);

    /// Flushes buffered output; called once when the stream ends.
    fn flush(&mut self) {}

    /// Records this sink has lost (evicted, failed to write, or
    /// deleted by rotation). Promoted to `obs.events_dropped` when the
    /// observer finishes, so truncation is never silent.
    fn dropped(&self) -> u64 {
        0
    }
}

/// Discards every record. Backs trace-only observers, where the span
/// tree is wanted but no stream is.
#[derive(Debug, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn emit(&mut self, _record: &Record) {}
}

/// Writes records as JSON-Lines to a file (or any writer).
pub struct JsonlSink {
    out: Box<dyn Write>,
    write_errors: u64,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<JsonlSink> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            out: Box::new(BufWriter::new(file)),
            write_errors: 0,
        })
    }
}

impl EventSink for JsonlSink {
    fn emit(&mut self, record: &Record) {
        // Telemetry must never abort a simulation; a full disk loses
        // the log line, not the run — but the loss is counted.
        if writeln!(self.out, "{}", record.to_json()).is_err() {
            self.write_errors += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.out.flush();
    }

    fn dropped(&self) -> u64 {
        self.write_errors
    }
}

/// Bounded-disk JSON-Lines: writes to `path`, and when the active file
/// exceeds `max_bytes` shifts it to `path.1` (older generations move
/// to `path.2`, `path.3`, ...). At most `keep` rotated files survive;
/// records in a deleted generation count as dropped.
pub struct RotatingJsonlSink {
    path: std::path::PathBuf,
    max_bytes: u64,
    keep: usize,
    out: Option<BufWriter<File>>,
    bytes: u64,
    /// Lines written to the active file and to each live rotated
    /// generation (index 0 is `path.1`), so deletions can be counted.
    lines_in_file: u64,
    rotated_lines: Vec<u64>,
    dropped: u64,
    write_errors: u64,
}

impl RotatingJsonlSink {
    /// Creates (truncating) the active file at `path`.
    ///
    /// `max_bytes` bounds the active file (at least one record is
    /// always written before rotating); `keep` is how many rotated
    /// generations survive (0 means rotation deletes immediately).
    pub fn create(
        path: impl AsRef<Path>,
        max_bytes: u64,
        keep: usize,
    ) -> std::io::Result<RotatingJsonlSink> {
        let path = path.as_ref().to_path_buf();
        let file = File::create(&path)?;
        Ok(RotatingJsonlSink {
            path,
            max_bytes: max_bytes.max(1),
            keep,
            out: Some(BufWriter::new(file)),
            bytes: 0,
            lines_in_file: 0,
            rotated_lines: Vec::new(),
            dropped: 0,
            write_errors: 0,
        })
    }

    fn generation_path(&self, gen: usize) -> std::path::PathBuf {
        let mut os = self.path.clone().into_os_string();
        os.push(format!(".{gen}"));
        std::path::PathBuf::from(os)
    }

    fn rotate(&mut self) {
        drop(self.out.take());
        // Shift generations up: path.(keep-1) -> path.keep, ...,
        // path -> path.1. The generation pushed past `keep` dies.
        if self.rotated_lines.len() >= self.keep {
            if let Some(lost) = self.rotated_lines.pop() {
                self.dropped += lost;
            }
            let _ = std::fs::remove_file(self.generation_path(self.keep.max(1)));
        }
        for gen in (1..=self.rotated_lines.len()).rev() {
            let _ = std::fs::rename(self.generation_path(gen), self.generation_path(gen + 1));
        }
        if self.keep == 0 {
            self.dropped += self.lines_in_file;
            let _ = std::fs::remove_file(&self.path);
        } else {
            let _ = std::fs::rename(&self.path, self.generation_path(1));
            self.rotated_lines.insert(0, self.lines_in_file);
        }
        self.lines_in_file = 0;
        self.bytes = 0;
        self.out = File::create(&self.path).map(BufWriter::new).ok();
    }
}

impl EventSink for RotatingJsonlSink {
    fn emit(&mut self, record: &Record) {
        if self.bytes >= self.max_bytes {
            self.rotate();
        }
        let line = record.to_json();
        let wrote = match self.out.as_mut() {
            Some(out) => writeln!(out, "{line}").is_ok(),
            None => false,
        };
        if wrote {
            self.bytes += line.len() as u64 + 1;
            self.lines_in_file += 1;
        } else {
            self.write_errors += 1;
        }
    }

    fn flush(&mut self) {
        if let Some(out) = self.out.as_mut() {
            let _ = out.flush();
        }
    }

    fn dropped(&self) -> u64 {
        self.dropped + self.write_errors
    }
}

/// Shared handle to the lines captured by a [`RingBufferSink`].
pub type RingHandle = Rc<RefCell<VecDeque<String>>>;

/// Keeps the most recent `capacity` records in memory as rendered
/// JSON lines — for tests and for post-mortem inspection in-process.
pub struct RingBufferSink {
    capacity: usize,
    lines: RingHandle,
    evicted: u64,
}

impl RingBufferSink {
    /// A sink retaining the last `capacity` records, plus a handle for
    /// reading them back while the sink is owned by an observer.
    pub fn new(capacity: usize) -> (RingBufferSink, RingHandle) {
        let lines: RingHandle = Rc::new(RefCell::new(VecDeque::new()));
        (
            RingBufferSink {
                capacity: capacity.max(1),
                lines: Rc::clone(&lines),
                evicted: 0,
            },
            lines,
        )
    }
}

impl EventSink for RingBufferSink {
    fn emit(&mut self, record: &Record) {
        let mut lines = self.lines.borrow_mut();
        if lines.len() == self.capacity {
            lines.pop_front();
            self.evicted += 1;
        }
        lines.push_back(record.to_json());
    }

    fn dropped(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_record(name: &str, wall_us: f64) -> Record {
        Record::Span(SpanRecord {
            id: 1,
            parent: None,
            name: name.to_string(),
            track: 0,
            wall_start_us: 0.0,
            wall_us,
            sim_t0_ps: None,
            sim_t1_ps: None,
            attrs: Vec::new(),
        })
    }

    #[test]
    fn severity_serializes_only_when_not_info() {
        let info = Record::Event(Event::new("a", "b")).to_json();
        assert!(!info.contains("severity"), "info is the default: {info}");
        let warn = Record::Event(Event::new("a", "b").severity(Severity::Warn)).to_json();
        let v = json::parse(&warn).unwrap();
        assert_eq!(v.get("severity").and_then(Value::as_str), Some("warn"));
        assert!(Severity::Debug < Severity::Info);
        assert!(Severity::Warn < Severity::Error);
    }

    #[test]
    fn span_record_serializes_tree_fields() {
        let line = Record::Span(SpanRecord {
            id: 5,
            parent: Some(2),
            name: "site".to_string(),
            track: 3,
            wall_start_us: 1.5,
            wall_us: 9.0,
            sim_t0_ps: Some(0.0),
            sim_t1_ps: Some(250.0),
            attrs: vec![("tile".to_string(), Value::Str("r1c0".to_string()))],
        })
        .to_json();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("span"));
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(5));
        assert_eq!(v.get("parent").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("track").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("t0_ps").and_then(Value::as_f64), Some(0.0));
        assert_eq!(v.get("t1_ps").and_then(Value::as_f64), Some(250.0));
        assert_eq!(v.get("tile").and_then(Value::as_str), Some("r1c0"));
    }

    #[test]
    fn ring_buffer_counts_evictions() {
        let (mut sink, _lines) = RingBufferSink::new(2);
        for _ in 0..5 {
            sink.emit(&span_record("s", 1.0));
        }
        assert_eq!(sink.dropped(), 3);
    }

    #[test]
    fn rotating_sink_rotates_and_counts_deleted_lines() {
        let dir = std::env::temp_dir().join("psnt_obs_rotate_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        // Tiny budget: every record overflows the active file, so each
        // emit after the first rotates. Keep one generation.
        let mut sink = RotatingJsonlSink::create(&path, 8, 1).unwrap();
        for i in 0..4 {
            sink.emit(&span_record(&format!("s{i}"), 1.0));
        }
        sink.flush();
        // Active file holds s3, path.1 holds s2; s0 and s1 died.
        assert_eq!(sink.dropped(), 2);
        let active = std::fs::read_to_string(&path).unwrap();
        assert!(active.contains("s3"), "active file: {active}");
        let gen1 = std::fs::read_to_string(dir.join("out.jsonl.1")).unwrap();
        assert!(gen1.contains("s2"), "rotated file: {gen1}");
        assert!(!dir.join("out.jsonl.2").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotating_sink_under_budget_drops_nothing() {
        let dir = std::env::temp_dir().join("psnt_obs_rotate_nodrop");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let mut sink = RotatingJsonlSink::create(&path, 1 << 20, 2).unwrap();
        for _ in 0..50 {
            sink.emit(&span_record("s", 1.0));
        }
        sink.flush();
        assert_eq!(sink.dropped(), 0);
        let active = std::fs::read_to_string(&path).unwrap();
        assert_eq!(active.lines().count(), 50);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_record_is_flat_json() {
        let e = Event::new("fsm", "transition")
            .at(Time::from_ns(2.0))
            .field("from", &"Idle")
            .field("to", &"Ready");
        let line = Record::Event(e).to_json();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("type").and_then(Value::as_str), Some("event"));
        assert_eq!(v.get("t_ps").and_then(Value::as_f64), Some(2000.0));
        assert_eq!(v.get("subsystem").and_then(Value::as_str), Some("fsm"));
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("transition"));
        assert_eq!(v.get("from").and_then(Value::as_str), Some("Idle"));
        assert_eq!(v.get("to").and_then(Value::as_str), Some("Ready"));
    }

    #[test]
    fn ring_buffer_keeps_most_recent() {
        let (mut sink, lines) = RingBufferSink::new(2);
        for i in 0..5u64 {
            sink.emit(&Record::Event(Event::new("t", "n").field("i", &i)));
        }
        let lines = lines.borrow();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"i\":3"));
        assert!(lines[1].contains("\"i\":4"));
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let dir = std::env::temp_dir().join("psnt_obs_sink_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        {
            let mut sink = JsonlSink::create(&path).unwrap();
            sink.emit(&span_record("a", 1.5));
            sink.emit(&span_record("b", 2.5));
            sink.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let v = json::parse(line).unwrap();
            assert_eq!(v.get("type").and_then(Value::as_str), Some("span"));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
