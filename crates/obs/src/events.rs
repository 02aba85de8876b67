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
            fields: Vec::new(),
        }
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

    /// Records this sink has lost (evicted or failed to write).
    /// Promoted to `obs.events_dropped` when the observer finishes, so
    /// truncation is never silent.
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
