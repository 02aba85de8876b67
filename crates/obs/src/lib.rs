//! Telemetry layer for every simulator in the workspace.
//!
//! Simulation results in this workspace are deterministic, but *how*
//! a run got to its result — how many events the gate-level simulator
//! processed, how deep its queue grew, which FSM transitions fired,
//! how the PDN solver spent its steps — was invisible. This crate
//! makes that visible without perturbing the simulation itself:
//!
//! * [`metrics::MetricsRegistry`] — named counters, gauges and
//!   fixed-bucket histograms, interned to integer ids so hot paths
//!   never hash or compare strings;
//! * [`events`] — a structured event log: serde-serialized records
//!   carrying sim time, subsystem and key/value payloads, written
//!   through an [`events::EventSink`] (JSON-Lines file, in-memory ring
//!   buffer, or a null sink for trace-only runs). Every event reaches
//!   the sink, and whatever a sink loses is counted into
//!   `obs.events_dropped`;
//! * [`span`] — hierarchical spans carrying wall-clock *and*
//!   simulation-time intervals plus typed attributes, forming a causal
//!   tree (campaign → site → grid-solve → measure);
//! * [`trace`] — exporters rendering that tree as Chrome trace-event
//!   JSON (Perfetto-loadable) and folded flamegraph stacks;
//! * [`manifest::RunManifest`] — the reproducibility header (config
//!   hash, seed, PVT corner, delay codes, git describe) emitted at the
//!   head of every telemetry stream.
//!
//! The [`Observer`] facade ties these together. Simulators accept an
//! `Option<&mut Observer>`-style handle — no globals, no background
//! threads — and every instrumentation site is skipped entirely when
//! no observer is attached, so the detached cost is one branch.
//!
//! ```
//! use psnt_obs::{Observer, events::Event, manifest::RunManifest};
//!
//! let mut obs = Observer::ring(64);
//! obs.manifest(&RunManifest::new("demo").seed(7));
//! let span = psnt_obs::span::Span::begin("phase");
//! obs.event(Event::new("demo", "step").field("k", &1u64));
//! obs.end_span(span);
//! obs.finish();
//! assert!(obs.ring_lines().unwrap().len() >= 4);
//! ```

#![warn(unreachable_pub)]

pub mod events;
pub mod manifest;
pub mod metrics;
pub mod observer;
pub mod span;
pub mod trace;

pub use events::{Event, EventSink, JsonlSink, NullSink, Record, RingBufferSink};
pub use manifest::RunManifest;
pub use metrics::{
    CounterId, GaugeId, Histogram, HistogramId, MetricsDiff, MetricsRegistry, MetricsSnapshot,
};
pub use observer::Observer;
pub use span::{mask_wall_times, RemoteSpan, Span, SpanRecord};
