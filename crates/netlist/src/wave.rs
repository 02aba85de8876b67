//! Digital waveform traces and VCD export.
//!
//! The simulator records every net transition into a [`Trace`], which can
//! be queried (`value_at`), inspected edge by edge, or dumped as a Value
//! Change Dump (VCD) file for external waveform viewers — the digital
//! counterpart of the paper's ELDO waveform plots (Figs. 2, 3, 9).
//!
//! # Examples
//!
//! ```
//! use psnt_cells::logic::Logic;
//! use psnt_cells::units::Time;
//! use psnt_netlist::wave::Trace;
//!
//! let mut trace = Trace::new();
//! let p = trace.add_signal("P");
//! trace.record(p, Time::ZERO, Logic::Zero);
//! trace.record(p, Time::from_ps(100.0), Logic::One);
//! assert_eq!(trace.value_at(p, Time::from_ps(50.0)), Logic::Zero);
//! assert_eq!(trace.value_at(p, Time::from_ps(100.0)), Logic::One);
//! ```

use std::fmt::Write as _;

use psnt_cells::logic::Logic;
use psnt_cells::units::Time;
use serde::{Deserialize, Serialize};

/// Identifier of a signal within a [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SignalId(usize);

impl SignalId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One recorded transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// When the signal changed.
    pub time: Time,
    /// The new value.
    pub value: Logic,
}

/// A collection of per-signal transition histories.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    names: Vec<String>,
    edges: Vec<Vec<Edge>>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Registers a signal and returns its id.
    pub fn add_signal(&mut self, name: impl Into<String>) -> SignalId {
        self.names.push(name.into());
        self.edges.push(Vec::new());
        SignalId(self.names.len() - 1)
    }

    /// Number of signals.
    pub fn signal_count(&self) -> usize {
        self.names.len()
    }

    /// The signal's name.
    pub fn name(&self, id: SignalId) -> &str {
        &self.names[id.0]
    }

    /// Finds a signal by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.names.iter().position(|n| n == name).map(SignalId)
    }

    /// Records a transition. Out-of-order timestamps are tolerated only at
    /// the same instant as the previous edge (the last write wins);
    /// earlier timestamps panic, since the simulator never time-travels.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last recorded edge of this signal.
    pub fn record(&mut self, id: SignalId, time: Time, value: Logic) {
        let edges = &mut self.edges[id.0];
        if let Some(last) = edges.last_mut() {
            assert!(
                time >= last.time,
                "trace for {:?} received time {} < {}",
                self.names[id.0],
                time,
                last.time
            );
            if last.time == time {
                last.value = value;
                return;
            }
            if last.value == value {
                return; // no change, keep the trace minimal
            }
        }
        edges.push(Edge { time, value });
    }

    /// All edges of a signal, in time order.
    pub fn edges(&self, id: SignalId) -> &[Edge] {
        &self.edges[id.0]
    }

    /// Forgets every recorded edge while keeping the signal set and the
    /// per-signal buffer capacity — how [`crate::sim::Simulator::reset`]
    /// rewinds its trace without giving allocations back.
    pub fn clear_edges(&mut self) {
        for edges in &mut self.edges {
            edges.clear();
        }
    }

    /// The signal value at `time` (value of the latest edge at or before
    /// `time`); [`Logic::X`] before the first edge.
    pub fn value_at(&self, id: SignalId, time: Time) -> Logic {
        let edges = &self.edges[id.0];
        match edges.partition_point(|e| e.time <= time) {
            0 => Logic::X,
            n => edges[n - 1].value,
        }
    }

    /// Number of rising (`0→1`) transitions of a signal.
    pub fn rising_edges(&self, id: SignalId) -> usize {
        self.edges[id.0]
            .windows(2)
            .filter(|w| w[0].value == Logic::Zero && w[1].value == Logic::One)
            .count()
    }

    /// The time of the first edge matching `value` at or after `from`.
    pub fn first_edge_to(&self, id: SignalId, value: Logic, from: Time) -> Option<Time> {
        self.edges[id.0]
            .iter()
            .find(|e| e.time >= from && e.value == value)
            .map(|e| e.time)
    }

    /// Serialises the trace as a VCD document (timescale 1 ps).
    pub fn to_vcd(&self, design: &str) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "$date psn-thermometer $end");
        let _ = writeln!(out, "$version psnt-netlist $end");
        let _ = writeln!(out, "$timescale 1ps $end");
        let _ = writeln!(out, "$scope module {design} $end");
        for (i, name) in self.names.iter().enumerate() {
            let _ = writeln!(out, "$var wire 1 {} {} $end", Trace::vcd_code(i), name);
        }
        let _ = writeln!(out, "$upscope $end");
        let _ = writeln!(out, "$enddefinitions $end");

        // Merge-sort all edges by time.
        let mut cursor: Vec<usize> = vec![0; self.edges.len()];
        loop {
            let mut next: Option<(Time, usize)> = None;
            for (sig, &c) in cursor.iter().enumerate() {
                if let Some(e) = self.edges[sig].get(c) {
                    if next.is_none_or(|(t, _)| e.time < t) {
                        next = Some((e.time, sig));
                    }
                }
            }
            let Some((t, _)) = next else { break };
            let _ = writeln!(out, "#{}", t.picoseconds().round() as i64);
            for (sig, c) in cursor.iter_mut().enumerate() {
                while let Some(e) = self.edges[sig].get(*c) {
                    if e.time != t {
                        break;
                    }
                    let _ = writeln!(out, "{}{}", e.value.to_char(), Trace::vcd_code(sig));
                    *c += 1;
                }
            }
        }
        out
    }

    fn vcd_code(index: usize) -> String {
        // Printable identifier codes: ! .. ~ then two-character codes.
        const BASE: usize = 94;
        let mut n = index;
        let mut s = String::new();
        loop {
            s.push((b'!' + (n % BASE) as u8) as char);
            n /= BASE;
            if n == 0 {
                break;
            }
            n -= 1;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(t: f64) -> Time {
        Time::from_ps(t)
    }

    #[test]
    fn record_and_query() {
        let mut tr = Trace::new();
        let s = tr.add_signal("sig");
        tr.record(s, ps(0.0), Logic::Zero);
        tr.record(s, ps(10.0), Logic::One);
        tr.record(s, ps(20.0), Logic::Zero);
        assert_eq!(tr.value_at(s, ps(-1.0)), Logic::X);
        assert_eq!(tr.value_at(s, ps(0.0)), Logic::Zero);
        assert_eq!(tr.value_at(s, ps(10.0)), Logic::One);
        assert_eq!(tr.value_at(s, ps(15.0)), Logic::One);
        assert_eq!(tr.value_at(s, ps(25.0)), Logic::Zero);
    }

    #[test]
    fn duplicate_value_collapsed() {
        let mut tr = Trace::new();
        let s = tr.add_signal("sig");
        tr.record(s, ps(0.0), Logic::One);
        tr.record(s, ps(5.0), Logic::One);
        assert_eq!(tr.edges(s).len(), 1);
    }

    #[test]
    fn same_instant_last_write_wins() {
        let mut tr = Trace::new();
        let s = tr.add_signal("sig");
        tr.record(s, ps(0.0), Logic::Zero);
        tr.record(s, ps(5.0), Logic::One);
        tr.record(s, ps(5.0), Logic::Zero);
        assert_eq!(tr.edges(s).len(), 2);
        assert_eq!(tr.value_at(s, ps(5.0)), Logic::Zero);
    }

    #[test]
    #[should_panic(expected = "received time")]
    fn time_travel_panics() {
        let mut tr = Trace::new();
        let s = tr.add_signal("sig");
        tr.record(s, ps(10.0), Logic::One);
        tr.record(s, ps(5.0), Logic::Zero);
    }

    #[test]
    fn edge_counting() {
        let mut tr = Trace::new();
        let s = tr.add_signal("clk");
        for i in 0..6 {
            tr.record(s, ps(10.0 * i as f64), Logic::from(i % 2 == 1));
        }
        assert_eq!(tr.rising_edges(s), 3);
    }

    #[test]
    fn first_edge_search() {
        let mut tr = Trace::new();
        let s = tr.add_signal("sig");
        tr.record(s, ps(0.0), Logic::Zero);
        tr.record(s, ps(30.0), Logic::One);
        tr.record(s, ps(60.0), Logic::Zero);
        tr.record(s, ps(90.0), Logic::One);
        assert_eq!(tr.first_edge_to(s, Logic::One, ps(0.0)), Some(ps(30.0)));
        assert_eq!(tr.first_edge_to(s, Logic::One, ps(31.0)), Some(ps(90.0)));
        assert_eq!(tr.first_edge_to(s, Logic::X, ps(0.0)), None);
    }

    #[test]
    fn clear_edges_keeps_signals() {
        let (mut tr, a, b) = busy_trace();
        tr.clear_edges();
        assert_eq!(tr.signal_count(), 2);
        assert!(tr.edges(a).is_empty());
        assert!(tr.edges(b).is_empty());
        assert_eq!(tr.value_at(a, ps(100.0)), Logic::X);
        // The trace accepts a fresh history from time zero again.
        tr.record(a, ps(0.0), Logic::One);
        assert_eq!(tr.edges(a).len(), 1);
    }

    #[test]
    fn lookup_by_name() {
        let mut tr = Trace::new();
        let a = tr.add_signal("alpha");
        assert_eq!(tr.signal_by_name("alpha"), Some(a));
        assert_eq!(tr.signal_by_name("beta"), None);
        assert_eq!(tr.name(a), "alpha");
        assert_eq!(tr.signal_count(), 1);
    }

    #[test]
    fn vcd_contains_headers_and_edges() {
        let mut tr = Trace::new();
        let p = tr.add_signal("P");
        let cp = tr.add_signal("CP");
        tr.record(p, ps(0.0), Logic::One);
        tr.record(cp, ps(0.0), Logic::Zero);
        tr.record(p, ps(65.0), Logic::Zero);
        tr.record(cp, ps(130.0), Logic::One);
        let vcd = tr.to_vcd("sensor");
        assert!(vcd.contains("$timescale 1ps $end"));
        assert!(vcd.contains("$scope module sensor $end"));
        assert!(vcd.contains("$var wire 1 ! P $end"));
        assert!(vcd.contains("$var wire 1 \" CP $end"));
        assert!(vcd.contains("#0"));
        assert!(vcd.contains("#65"));
        assert!(vcd.contains("#130"));
    }

    /// Splits a VCD document into (header lines, body lines) at
    /// `$enddefinitions`.
    fn split_vcd(vcd: &str) -> (Vec<&str>, Vec<&str>) {
        let lines: Vec<&str> = vcd.lines().collect();
        let cut = lines
            .iter()
            .position(|l| l.starts_with("$enddefinitions"))
            .expect("VCD has $enddefinitions");
        (lines[..=cut].to_vec(), lines[cut + 1..].to_vec())
    }

    fn busy_trace() -> (Trace, SignalId, SignalId) {
        let mut tr = Trace::new();
        let a = tr.add_signal("a");
        let b = tr.add_signal("b");
        tr.record(a, ps(0.0), Logic::Zero);
        tr.record(b, ps(0.0), Logic::One);
        tr.record(a, ps(10.0), Logic::One);
        tr.record(b, ps(25.0), Logic::Zero);
        tr.record(a, ps(25.0), Logic::Zero);
        tr.record(b, ps(40.0), Logic::One);
        (tr, a, b)
    }

    #[test]
    fn vcd_header_is_well_formed() {
        let (tr, _, _) = busy_trace();
        let vcd = tr.to_vcd("dut");
        let (header, _) = split_vcd(&vcd);
        // Every header line is a complete `$keyword ... $end` directive.
        for line in &header {
            assert!(line.starts_with('$'), "not a directive: {line}");
            assert!(line.ends_with("$end"), "unterminated: {line}");
        }
        // Declarations arrive in order, exactly once.
        for keyword in [
            "$date",
            "$version",
            "$timescale",
            "$scope",
            "$upscope",
            "$enddefinitions",
        ] {
            assert_eq!(
                header.iter().filter(|l| l.starts_with(keyword)).count(),
                1,
                "{keyword} count"
            );
        }
        // One $var per signal, each with a distinct identifier code.
        let codes: Vec<&str> = header
            .iter()
            .filter(|l| l.starts_with("$var"))
            .map(|l| l.split_whitespace().nth(3).unwrap())
            .collect();
        assert_eq!(codes.len(), tr.signal_count());
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len());
    }

    #[test]
    fn vcd_timestamps_strictly_increase() {
        let (tr, _, _) = busy_trace();
        let vcd = tr.to_vcd("dut");
        let (_, body) = split_vcd(&vcd);
        let stamps: Vec<i64> = body
            .iter()
            .filter_map(|l| l.strip_prefix('#'))
            .map(|t| t.parse().unwrap())
            .collect();
        assert!(!stamps.is_empty());
        assert!(stamps.windows(2).all(|w| w[0] < w[1]), "stamps {stamps:?}");
    }

    #[test]
    fn vcd_body_agrees_with_value_at_and_edges() {
        let (tr, _, _) = busy_trace();
        let vcd = tr.to_vcd("dut");
        let (header, body) = split_vcd(&vcd);
        // Map identifier code → signal id from the declarations.
        let by_code: Vec<(String, SignalId)> = header
            .iter()
            .filter(|l| l.starts_with("$var"))
            .map(|l| {
                let mut f = l.split_whitespace();
                let code = f.nth(3).unwrap().to_string();
                let name = f.next().unwrap();
                (code, tr.signal_by_name(name).unwrap())
            })
            .collect();
        // Replay the body; every change must match the trace's view.
        let mut t = Time::ZERO;
        let mut seen = vec![0usize; tr.signal_count()];
        for line in body {
            if let Some(stamp) = line.strip_prefix('#') {
                t = Time::from_ps(stamp.parse::<f64>().unwrap());
                continue;
            }
            let (value, code) = line.split_at(1);
            let &(_, sig) = by_code.iter().find(|(c, _)| c == code).unwrap();
            let value = Logic::try_from(value.chars().next().unwrap()).unwrap();
            assert_eq!(tr.value_at(sig, t), value, "{line} at {t}");
            let edge = tr.edges(sig)[seen[sig.index()]];
            assert_eq!((edge.time, edge.value), (t, value), "{line}");
            seen[sig.index()] += 1;
        }
        // The body emitted every edge of every signal.
        for (i, &n) in seen.iter().enumerate() {
            assert_eq!(n, tr.edges(SignalId(i)).len(), "signal {i}");
        }
    }

    #[test]
    fn vcd_codes_unique_for_many_signals() {
        let codes: Vec<String> = (0..300).map(Trace::vcd_code).collect();
        let mut dedup = codes.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len());
    }
}
