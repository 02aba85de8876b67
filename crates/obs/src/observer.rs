//! The [`Observer`] facade: one handle a simulator threads through its
//! hot paths to reach metrics, the event log and span timing at once.

use std::time::Instant;

use serde::Serialize;

use crate::events::{Event, EventSink, JsonlSink, NullSink, Record, RingBufferSink, RingHandle};
use crate::manifest::RunManifest;
use crate::metrics::MetricsRegistry;
use crate::span::{RemoteSpan, Span, SpanRecord};

/// The telemetry handle simulators accept as `Option<&mut Observer>`.
///
/// Holds the run's [`MetricsRegistry`], the configured [`EventSink`],
/// and the record framing: [`Observer::manifest`] at the head,
/// [`Observer::finish`] with a metrics snapshot at the end.
pub struct Observer {
    /// The run's metrics; public so call sites can intern ids once
    /// and update by id in hot loops.
    pub metrics: MetricsRegistry,
    sink: Box<dyn EventSink>,
    ring: Option<RingHandle>,
    finished: bool,
    /// Wall-clock zero for every span in this stream.
    epoch: Instant,
    next_span_id: u64,
    /// Ids of spans opened via [`Observer::begin_span`] and not yet
    /// closed — the causal stack new spans take their parent from.
    stack: Vec<u64>,
    /// Every closed span, retained for trace export.
    trace: Vec<SpanRecord>,
}

impl std::fmt::Debug for Observer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observer")
            .field("metrics", &self.metrics)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl Observer {
    /// An observer writing JSON-Lines to `path` (truncates).
    pub fn jsonl(path: impl AsRef<std::path::Path>) -> std::io::Result<Observer> {
        Ok(Observer::with_sink(Box::new(JsonlSink::create(path)?)))
    }

    /// An observer retaining the last `capacity` records in memory,
    /// readable back through [`Observer::ring_lines`].
    pub fn ring(capacity: usize) -> Observer {
        let (sink, handle) = RingBufferSink::new(capacity);
        let mut obs = Observer::with_sink(Box::new(sink));
        obs.ring = Some(handle);
        obs
    }

    /// An observer that records metrics and the span tree but streams
    /// nothing — for trace-only runs (`repro --trace` without
    /// `--telemetry`).
    pub fn null() -> Observer {
        Observer::with_sink(Box::new(NullSink))
    }

    /// An observer over any sink.
    pub fn with_sink(sink: Box<dyn EventSink>) -> Observer {
        Observer {
            metrics: MetricsRegistry::new(),
            sink,
            ring: None,
            finished: false,
            epoch: Instant::now(),
            next_span_id: 1,
            stack: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// Emits the run manifest; call once, before any event.
    pub fn manifest(&mut self, manifest: &RunManifest) {
        self.sink.emit(&Record::Manifest(manifest.clone()));
    }

    /// Emits one structured event.
    pub fn event(&mut self, event: Event) {
        self.sink.emit(&Record::Event(event));
    }

    /// The wall-clock zero of this stream. `Copy + Send`, so worker
    /// threads can time [`RemoteSpan`]s against it.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span as a child of the innermost span still open from a
    /// previous `begin_span` — the causal tree grows here. Close it
    /// with [`Observer::end_span`].
    pub fn begin_span(&mut self, name: impl Into<String>) -> Span {
        let id = self.next_span_id;
        self.next_span_id += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let mut span = Span::begin(name);
        span.id = Some(id);
        span.parent = parent;
        span.wall_start_us = Some(self.since_epoch_us());
        span
    }

    /// Closes a span: emits its record, retains it for trace export,
    /// and folds the duration into the `span.<name>_us` histogram
    /// (log-spaced 1µs..10s buckets).
    ///
    /// Spans begun with the free [`Span::begin`] (no observer) get an
    /// id here and parent under the innermost open span, so legacy
    /// call sites still land in the tree.
    pub fn end_span(&mut self, span: Span) {
        let wall_us = span.elapsed_us();
        let (id, parent) = match span.id {
            Some(id) => {
                if let Some(pos) = self.stack.iter().rposition(|&s| s == id) {
                    self.stack.remove(pos);
                }
                (id, span.parent)
            }
            None => {
                let id = self.next_span_id;
                self.next_span_id += 1;
                (id, self.stack.last().copied())
            }
        };
        let wall_start_us = span
            .wall_start_us
            .unwrap_or_else(|| (self.since_epoch_us() - wall_us).max(0.0));
        let record = SpanRecord {
            id,
            parent,
            name: span.name().to_string(),
            track: 0,
            wall_start_us,
            wall_us,
            sim_t0_ps: span.sim_t0_ps,
            sim_t1_ps: span.sim_t1_ps,
            attrs: span.attrs,
        };
        self.record_span(record);
    }

    /// Folds a worker-recorded span tree into the stream: ids are
    /// assigned depth-first here (so call order — job order — fixes
    /// the stream, not worker scheduling), parented under the
    /// innermost open span.
    pub fn emit_remote_tree(&mut self, root: &RemoteSpan) {
        let parent = self.stack.last().copied();
        self.emit_remote(root, parent);
    }

    fn emit_remote(&mut self, span: &RemoteSpan, parent: Option<u64>) {
        let id = self.next_span_id;
        self.next_span_id += 1;
        let record = SpanRecord {
            id,
            parent,
            name: span.name.clone(),
            track: span.track,
            wall_start_us: span.wall_start_us,
            wall_us: span.wall_us,
            sim_t0_ps: span.sim_t0_ps,
            sim_t1_ps: span.sim_t1_ps,
            attrs: span.attrs.clone(),
        };
        self.record_span(record);
        for child in &span.children {
            self.emit_remote(child, Some(id));
        }
    }

    fn record_span(&mut self, record: SpanRecord) {
        let hist = self.metrics.histogram(
            &format!("span.{}_us", record.name),
            &[1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7],
        );
        self.metrics.record(hist, record.wall_us);
        self.sink.emit(&Record::Span(record.clone()));
        self.trace.push(record);
    }

    fn since_epoch_us(&self) -> f64 {
        Instant::now()
            .checked_duration_since(self.epoch)
            .unwrap_or_default()
            .as_secs_f64()
            * 1e6
    }

    /// Every span closed so far, in emission order.
    pub fn trace_records(&self) -> &[SpanRecord] {
        &self.trace
    }

    /// The trace as Chrome trace-event JSON (Perfetto-loadable).
    pub fn chrome_trace_json(&self) -> String {
        crate::trace::chrome_trace_json(&self.trace)
    }

    /// The trace as folded flamegraph stacks.
    pub fn folded_stacks(&self) -> String {
        crate::trace::folded_stacks(&self.trace)
    }

    /// Ends the stream: promotes drop accounting into the metrics,
    /// emits the final snapshot and flushes. Idempotent; later calls
    /// only re-flush.
    pub fn finish(&mut self) {
        if !self.finished {
            self.finished = true;
            let dropped = self.sink.dropped();
            // Registered only when nonzero, so lossless streams keep
            // their exact pre-existing snapshot shape.
            if dropped > 0 {
                self.metrics.counter_add("obs.events_sink_dropped", dropped);
                self.metrics.counter_add("obs.events_dropped", dropped);
            }
            self.sink
                .emit(&Record::Metrics(self.metrics.snapshot_value()));
        }
        self.sink.flush();
    }

    /// The retained lines when this observer uses a ring buffer.
    pub fn ring_lines(&self) -> Option<Vec<String>> {
        self.ring
            .as_ref()
            .map(|r| r.borrow().iter().cloned().collect())
    }
}

impl Observer {
    /// Convenience: emits a subsystem/kind event with serializable
    /// fields, skipping the builder chain at simple call sites.
    pub fn emit(
        &mut self,
        subsystem: &str,
        kind: &str,
        t_ps: Option<f64>,
        fields: &[(&str, &dyn ErasedSerialize)],
    ) {
        let mut e = Event::new(subsystem, kind);
        if let Some(t) = t_ps {
            e = e.at_ps(t);
        }
        for (k, v) in fields {
            e.fields.push(((*k).to_string(), v.erased_to_value()));
        }
        self.event(e);
    }
}

/// Object-safe serialization, so field lists can mix value types.
pub trait ErasedSerialize {
    /// [`Serialize::to_value`] behind a vtable.
    fn erased_to_value(&self) -> serde::Value;
}

impl<T: Serialize> ErasedSerialize for T {
    fn erased_to_value(&self) -> serde::Value {
        self.to_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{json, Value};

    #[test]
    fn stream_has_manifest_events_spans_and_snapshot() {
        let mut obs = Observer::ring(32);
        obs.manifest(&RunManifest::new("test").seed(1));
        let span = Span::begin("phase");
        let c = obs.metrics.counter("n");
        obs.metrics.inc(c);
        obs.event(Event::new("sub", "did").field("x", &3u64));
        obs.end_span(span);
        obs.finish();

        let lines = obs.ring_lines().unwrap();
        let types: Vec<String> = lines
            .iter()
            .map(|l| {
                json::parse(l)
                    .unwrap()
                    .get("type")
                    .and_then(Value::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(types, ["manifest", "event", "span", "metrics"]);

        let snapshot = json::parse(lines.last().unwrap()).unwrap();
        assert_eq!(
            snapshot
                .get("counters")
                .and_then(|c| c.get("n"))
                .and_then(Value::as_u64),
            Some(1)
        );
        // end_span folded the duration into a histogram.
        assert!(snapshot
            .get("histograms")
            .and_then(|h| h.get("span.phase_us"))
            .is_some());
    }

    #[test]
    fn finish_is_idempotent() {
        let mut obs = Observer::ring(8);
        obs.finish();
        obs.finish();
        assert_eq!(obs.ring_lines().unwrap().len(), 1);
    }

    #[test]
    fn begin_span_builds_a_causal_tree() {
        let mut obs = Observer::ring(32);
        let campaign = obs.begin_span("campaign");
        let solve = obs.begin_span("grid_solve").sim_interval_ps(0.0, 500.0);
        obs.end_span(solve);
        let sweep = obs.begin_span("measure_sweep");
        obs.end_span(sweep);
        obs.end_span(campaign);

        let t = obs.trace_records();
        assert_eq!(t.len(), 3);
        // Close order: grid_solve, measure_sweep, campaign.
        assert_eq!(t[0].name, "grid_solve");
        assert_eq!(t[0].id, 2);
        assert_eq!(t[0].parent, Some(1));
        assert_eq!(t[0].sim_t1_ps, Some(500.0));
        assert_eq!(t[1].name, "measure_sweep");
        assert_eq!(t[1].parent, Some(1));
        assert_eq!(t[2].name, "campaign");
        assert_eq!(t[2].id, 1);
        assert_eq!(t[2].parent, None);
        assert!(t[2].wall_us >= t[0].wall_us);
    }

    #[test]
    fn legacy_free_spans_nest_under_open_stack() {
        let mut obs = Observer::ring(8);
        let outer = obs.begin_span("outer");
        let legacy = Span::begin("legacy");
        obs.end_span(legacy);
        obs.end_span(outer);
        let t = obs.trace_records();
        assert_eq!(t[0].name, "legacy");
        assert_eq!(t[0].parent, Some(1));
    }

    #[test]
    fn remote_trees_are_parented_and_ordered_by_call() {
        let mut obs = Observer::ring(32);
        let sweep = obs.begin_span("measure_sweep");
        let epoch = obs.epoch();
        // Two "workers" finish out of order; the observer is handed
        // their trees in job order, which fixes ids and the stream.
        let mut site1 = RemoteSpan::begin("site", epoch, 2).attr("site", &1u64);
        site1.child(RemoteSpan::begin("measure", epoch, 2).end());
        let site1 = site1.end();
        let site0 = RemoteSpan::begin("site", epoch, 1)
            .attr("site", &0u64)
            .end();
        obs.emit_remote_tree(&site0);
        obs.emit_remote_tree(&site1);
        obs.end_span(sweep);

        let t = obs.trace_records();
        let names: Vec<&str> = t.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["site", "site", "measure", "measure_sweep"]);
        assert_eq!(t[0].id, 2);
        assert_eq!(t[0].parent, Some(1), "sites hang under the sweep");
        assert_eq!(t[1].id, 3);
        assert_eq!(t[2].parent, Some(3), "measure under its own site");
        assert_eq!(t[0].track, 1);
        assert_eq!(t[1].track, 2);
    }

    #[test]
    fn ring_overflow_is_promoted_to_events_dropped() {
        let mut obs = Observer::ring(2);
        for i in 0..5u64 {
            obs.event(Event::new("t", "n").field("i", &i));
        }
        obs.finish();
        // 3 evictions from the 5 events, plus later records (metrics
        // snapshot itself) may evict more — at least 3.
        assert!(obs.metrics.counter_value("obs.events_dropped") >= 3);
    }

    #[test]
    fn lossless_streams_register_no_drop_counters() {
        let mut obs = Observer::ring(64);
        obs.event(Event::new("a", "b"));
        obs.finish();
        assert_eq!(obs.metrics.counter_value("obs.events_dropped"), 0);
        let last = obs.ring_lines().unwrap().last().unwrap().clone();
        assert!(
            !last.contains("events_dropped"),
            "snapshot unchanged when lossless: {last}"
        );
    }

    #[test]
    fn trace_exports_render() {
        let mut obs = Observer::null();
        let root = obs.begin_span("campaign");
        let child = obs.begin_span("site");
        obs.end_span(child);
        obs.end_span(root);
        let chrome = obs.chrome_trace_json();
        assert!(chrome.contains("\"traceEvents\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        let folded = obs.folded_stacks();
        assert!(folded.contains("campaign;site "));
    }

    #[test]
    fn emit_helper_builds_flat_events() {
        let mut obs = Observer::ring(8);
        obs.emit(
            "fsm",
            "transition",
            Some(1.5),
            &[("from", &"A"), ("to", &"B")],
        );
        let lines = obs.ring_lines().unwrap();
        let v = json::parse(&lines[0]).unwrap();
        assert_eq!(v.get("from").and_then(Value::as_str), Some("A"));
        assert_eq!(v.get("t_ps").and_then(Value::as_f64), Some(1.5));
    }
}
