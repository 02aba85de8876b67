//! The benchmark's own span recorder.
//!
//! Spans are taken around the calls the benchmark makes into each
//! layer, never inside the program: attaching a `psnt-obs` observer
//! would switch on the simulator's profiling counters and measure a
//! different program. Every span is folded, as it closes, into its
//! name's calls, total and self time and duration list; the spans of
//! the first few ops are also kept whole, in memory, and go out at the
//! end as Chrome trace JSON. A traced run of the chip-scale workloads
//! closes tens of thousands of spans per op, so keeping all of them
//! would grow the process by tens of MiB.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

use crate::stats::quantile;

const NO_PARENT: u32 = u32::MAX;

/// The root span every traced op opens; its self time is benchmark glue.
pub const OP: &str = "op";

/// One kept span: name, wall interval, causing span, op id.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    op: u32,
}

/// A span still open: its start, the time its closed children took,
/// and its index among the kept spans, if kept.
#[derive(Debug, Clone, Copy)]
struct Open {
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
    kept: u32,
}

/// Running totals of one span name.
#[derive(Debug, Default)]
struct Agg {
    total_ns: u64,
    self_ns: u64,
    durs_ns: Vec<u64>,
}

/// In-memory span and counter store for the traced ops of one run.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    open: Vec<Open>,
    op: u32,
    ops: u32,
    /// Ops whose spans are kept whole for the trace file.
    keep_ops: u32,
    kept: Vec<Span>,
    aggs: BTreeMap<&'static str, Agg>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Recorder {
    /// A recorder that keeps no whole spans, only their statistics.
    fn default() -> Recorder {
        Recorder::keeping(0)
    }
}

/// Duration statistics of one span name.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Spans recorded under the name.
    pub calls: usize,
    /// Summed durations, seconds.
    pub total_s: f64,
    /// Summed self times (duration minus child spans), seconds.
    pub self_s: f64,
    /// Median duration, seconds.
    pub p50_s: f64,
}

impl Recorder {
    /// A recorder that keeps the whole spans of the first `ops` traced
    /// ops for [`Recorder::write_chrome`].
    pub fn keeping(ops: u32) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            open: Vec::new(),
            op: 0,
            ops: 0,
            keep_ops: ops,
            kept: Vec::new(),
            aggs: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        let mut kept = NO_PARENT;
        if self.op < self.keep_ops {
            kept = u32::try_from(self.kept.len()).expect("fewer than 2^32 kept spans");
            self.kept.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().map_or(NO_PARENT, |o| o.kept),
                op: self.op,
            });
        }
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        let o = self.open.pop().expect("end() matches a begin()");
        let end_ns = self.now_ns();
        let dur = end_ns - o.start_ns;
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(s) = self.kept.get_mut(o.kept as usize) {
            s.end_ns = end_ns;
        }
        let a = self.aggs.entry(o.name).or_default();
        a.total_ns += dur;
        a.self_ns += dur.saturating_sub(o.child_ns);
        a.durs_ns.push(dur);
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Opens the root span of the next traced op.
    pub fn begin_op(&mut self) {
        self.op = self.ops;
        self.ops += 1;
        self.begin(OP);
    }

    /// Closes the op's root span and any span an error left open.
    pub fn end_op(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    /// Adds `value` to a named counter, summed over all traced ops.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }

    /// A counter's total divided by the traced op count (0 when absent).
    pub fn per_op(&self, name: &str) -> f64 {
        match (self.counts.get(name), self.ops) {
            (Some(&v), n) if n > 0 => v / f64::from(n),
            _ => 0.0,
        }
    }

    /// A counter's raw total (0 when absent).
    pub fn total(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Statistics per span name.
    pub fn stats(&self) -> BTreeMap<&'static str, SpanStats> {
        self.aggs
            .iter()
            .map(|(&name, a)| {
                let durs: Vec<f64> = a.durs_ns.iter().map(|&d| d as f64 * 1e-9).collect();
                let st = SpanStats {
                    calls: a.durs_ns.len(),
                    total_s: a.total_ns as f64 * 1e-9,
                    self_s: a.self_ns as f64 * 1e-9,
                    p50_s: quantile(&durs, 0.5).unwrap_or(0.0),
                };
                (name, st)
            })
            .collect()
    }

    /// The per-name table: calls, total, self time and median, closed
    /// by the share of traced op time the layer spans account for.
    pub fn table(&self, workload: &str) -> String {
        let stats = self.stats();
        let op_total = stats.get(OP).map_or(0.0, |s| s.total_s);
        let mut s = String::new();
        let _ = writeln!(s, "{workload} per-layer split over {} traced ops", self.ops);
        let _ = writeln!(
            s,
            "  {:<24} {:>9} {:>11} {:>11} {:>7} {:>11}",
            "span", "calls", "total ms", "self ms", "self %", "p50 us"
        );
        let mut layer_self = 0.0;
        for (name, st) in &stats {
            if *name != OP {
                layer_self += st.self_s;
            }
            let _ = writeln!(
                s,
                "  {:<24} {:>9} {:>11.3} {:>11.3} {:>7.2} {:>11.3}",
                name,
                st.calls,
                st.total_s * 1e3,
                st.self_s * 1e3,
                coverage_pct(st.self_s, op_total),
                st.p50_s * 1e6
            );
        }
        let _ = writeln!(
            s,
            "  layer self times sum to {:.2} % of traced op time ({:.3} of {:.3} ms); the rest is benchmark glue",
            coverage_pct(layer_self, op_total),
            layer_self * 1e3,
            op_total * 1e3
        );
        s
    }

    /// Share of traced op time that layer spans (everything but the op
    /// root's own self time) account for, percent.
    pub fn coverage_pct(&self) -> f64 {
        let stats = self.stats();
        let op_total = stats.get(OP).map_or(0.0, |s| s.total_s);
        let layer_self: f64 = stats
            .iter()
            .filter(|(name, _)| **name != OP)
            .map(|(_, st)| st.self_s)
            .sum();
        coverage_pct(layer_self, op_total)
    }

    /// Writes the kept spans as Chrome trace-event JSON (`ph: "X"`
    /// complete events, microseconds), loadable in Perfetto or
    /// `chrome://tracing`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of creating, writing or flushing `path`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        w.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")?;
        for (id, s) in self.kept.iter().enumerate() {
            if id > 0 {
                w.write_all(b",")?;
            }
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            write!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"id\":{id},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                layer,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            )?;
        }
        w.write_all(b"]}\n")?;
        w.flush()
    }
}

fn coverage_pct(part: f64, op_total: f64) -> f64 {
    if op_total > 0.0 {
        part / op_total * 100.0
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::keeping(1);
        for _ in 0..2 {
            r.begin_op();
            r.span("a.child", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.end_op();
        }
        let st = r.stats();
        let op = &st[OP];
        let child = &st["a.child"];
        assert_eq!((op.calls, child.calls), (2, 2));
        assert!(child.total_s >= 0.004);
        assert!((op.self_s - (op.total_s - child.total_s)).abs() < 1e-9);
        assert!(r.coverage_pct() > 50.0);
        // Only the first op's spans are kept whole, the child under its op.
        assert_eq!(r.kept.len(), 2);
        assert_eq!((r.kept[0].parent, r.kept[1].parent), (NO_PARENT, 0));
    }
}
