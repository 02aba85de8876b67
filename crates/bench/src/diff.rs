//! Perf-regression diffing between two `BENCH_*.json` snapshots.
//!
//! [`scripts/bench_snapshot.sh`] freezes the Criterion medians of a PR
//! into a snapshot at the repo root; [`BenchDiff::between`] compares
//! two such snapshots bench-by-bench and flags every benchmark whose
//! median grew past a threshold. The `bench-diff` binary wraps this as
//! the CI perf gate: exit 0 when clean, 1 when a regression crosses
//! the threshold, 2 when a snapshot cannot be parsed.
//!
//! [`scripts/bench_snapshot.sh`]: ../../../scripts/bench_snapshot.sh

use std::fmt;

use serde::{json, Value};

/// A parsed `BENCH_*.json` snapshot: suites of `(bench, median ns)`
/// rows, in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    suites: Vec<(String, Vec<(String, f64)>)>,
}

impl BenchSnapshot {
    /// Parses the JSON written by `scripts/bench_snapshot.sh`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem: invalid
    /// JSON, a missing/non-object `suites` key, or a non-numeric
    /// median.
    pub fn from_json(text: &str) -> Result<BenchSnapshot, String> {
        let v = json::parse(text).map_err(|e| format!("invalid JSON: {e:?}"))?;
        let Some(Value::Map(suite_entries)) = v.get("suites") else {
            return Err("missing \"suites\" object".into());
        };
        let mut suites = Vec::with_capacity(suite_entries.len());
        for (suite, benches) in suite_entries {
            let Value::Map(bench_entries) = benches else {
                return Err(format!("suite {suite:?} is not an object"));
            };
            let mut rows = Vec::with_capacity(bench_entries.len());
            for (name, median) in bench_entries {
                let Some(ns) = median.as_f64() else {
                    return Err(format!("bench {suite:?}/{name:?} has a non-numeric median"));
                };
                rows.push((name.clone(), ns));
            }
            suites.push((suite.clone(), rows));
        }
        Ok(BenchSnapshot { suites })
    }

    /// The suites, in file order.
    pub fn suites(&self) -> impl Iterator<Item = &str> {
        self.suites.iter().map(|(s, _)| s.as_str())
    }

    /// The median for one bench, when present.
    pub fn median_ns(&self, suite: &str, name: &str) -> Option<f64> {
        self.suites
            .iter()
            .find(|(s, _)| s == suite)
            .and_then(|(_, rows)| rows.iter().find(|(n, _)| n == name))
            .map(|&(_, ns)| ns)
    }
}

/// One bench's before/after medians. A `None` side means the bench
/// exists in only one snapshot (added or removed since the baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Suite the bench belongs to (`paper`, `kernels`, …).
    pub suite: String,
    /// The bench name inside the suite.
    pub name: String,
    /// Baseline median in nanoseconds, when the baseline has the bench.
    pub before_ns: Option<f64>,
    /// Current median in nanoseconds, when the current run has it.
    pub after_ns: Option<f64>,
}

impl BenchDelta {
    /// Relative change in percent (`+` = slower), when both sides
    /// exist and the baseline is nonzero.
    pub fn delta_pct(&self) -> Option<f64> {
        match (self.before_ns, self.after_ns) {
            (Some(b), Some(a)) if b > 0.0 => Some((a / b - 1.0) * 100.0),
            _ => None,
        }
    }
}

/// The bench-by-bench comparison of two snapshots against a
/// regression threshold.
#[derive(Debug, Clone)]
pub struct BenchDiff {
    rows: Vec<BenchDelta>,
    threshold_pct: f64,
}

impl BenchDiff {
    /// Compares `after` against the `before` baseline. Rows follow the
    /// baseline's order; benches only the current run knows about are
    /// appended per suite. `threshold_pct` is the slowdown (percent)
    /// past which a bench counts as regressed.
    pub fn between(before: &BenchSnapshot, after: &BenchSnapshot, threshold_pct: f64) -> BenchDiff {
        let mut rows = Vec::new();
        for (suite, benches) in &before.suites {
            for (name, ns) in benches {
                rows.push(BenchDelta {
                    suite: suite.clone(),
                    name: name.clone(),
                    before_ns: Some(*ns),
                    after_ns: after.median_ns(suite, name),
                });
            }
        }
        for (suite, benches) in &after.suites {
            for (name, ns) in benches {
                if before.median_ns(suite, name).is_none() {
                    rows.push(BenchDelta {
                        suite: suite.clone(),
                        name: name.clone(),
                        before_ns: None,
                        after_ns: Some(*ns),
                    });
                }
            }
        }
        BenchDiff {
            rows,
            threshold_pct,
        }
    }

    /// Every compared bench, baseline order first.
    pub fn rows(&self) -> &[BenchDelta] {
        &self.rows
    }

    /// The rows slower than the threshold.
    pub fn regressions(&self) -> Vec<&BenchDelta> {
        self.rows
            .iter()
            .filter(|r| r.delta_pct().is_some_and(|d| d > self.threshold_pct))
            .collect()
    }
}

/// Renders nanoseconds with a readable unit (`ns`, `µs`, `ms`, `s`).
fn fmt_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.1} ns")
    } else if ns < 1e6 {
        format!("{:.2} µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.2} ms", ns / 1e6)
    } else {
        format!("{:.2} s", ns / 1e9)
    }
}

impl fmt::Display for BenchDiff {
    /// The regression table: one aligned row per bench with before /
    /// after / delta, flagging `REGRESSED` rows past the threshold and
    /// `added` / `removed` benches present in only one snapshot.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let id = |r: &BenchDelta| format!("{}/{}", r.suite, r.name);
        let width = self.rows.iter().map(|r| id(r).len()).max().unwrap_or(0);
        writeln!(
            f,
            "{:<width$}  {:>12}  {:>12}  {:>8}",
            "bench", "before", "after", "delta"
        )?;
        for r in &self.rows {
            let before = r.before_ns.map_or_else(|| "-".into(), fmt_ns);
            let after = r.after_ns.map_or_else(|| "-".into(), fmt_ns);
            let (delta, flag) = match r.delta_pct() {
                Some(d) if d > self.threshold_pct => (format!("{d:+.1}%"), "  REGRESSED"),
                Some(d) => (format!("{d:+.1}%"), ""),
                None if r.before_ns.is_none() => ("-".into(), "  added"),
                None => ("-".into(), "  removed"),
            };
            writeln!(
                f,
                "{:<width$}  {before:>12}  {after:>12}  {delta:>8}{flag}",
                id(r)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(pairs: &[(&str, &[(&str, f64)])]) -> BenchSnapshot {
        let suites = pairs
            .iter()
            .map(|(s, rows)| {
                let body = rows
                    .iter()
                    .map(|(n, v)| format!("\"{n}\": {v}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("\"{s}\": {{ {body} }}")
            })
            .collect::<Vec<_>>()
            .join(", ");
        BenchSnapshot::from_json(&format!("{{ \"suites\": {{ {suites} }} }}")).unwrap()
    }

    #[test]
    fn parses_the_snapshot_format() {
        let s = BenchSnapshot::from_json(
            r#"{
  "generated_by": "scripts/bench_snapshot.sh",
  "units": "median nanoseconds per iteration",
  "suites": {
    "paper": { "paper/fig2_element_delay": 4750.000 },
    "kernels": { "element_measure": 37.700 }
  }
}"#,
        )
        .unwrap();
        assert_eq!(s.suites().collect::<Vec<_>>(), ["paper", "kernels"]);
        assert_eq!(
            s.median_ns("paper", "paper/fig2_element_delay"),
            Some(4750.0)
        );
        assert_eq!(s.median_ns("kernels", "element_measure"), Some(37.7));
        assert_eq!(s.median_ns("kernels", "missing"), None);
    }

    #[test]
    fn rejects_malformed_snapshots() {
        assert!(BenchSnapshot::from_json("not json").is_err());
        assert!(BenchSnapshot::from_json("{}").is_err());
        assert!(BenchSnapshot::from_json(r#"{ "suites": { "paper": { "x": "fast" } } }"#).is_err());
    }

    #[test]
    fn flags_only_regressions_past_the_threshold() {
        let before = snapshot(&[("k", &[("a", 100.0), ("b", 100.0), ("c", 100.0)])]);
        let after = snapshot(&[("k", &[("a", 110.0), ("b", 130.0), ("c", 80.0)])]);
        let diff = BenchDiff::between(&before, &after, 25.0);
        let regressed: Vec<&str> = diff.regressions().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(regressed, ["b"]);
        // Exactly at the threshold is not a regression.
        let at = BenchDiff::between(&before, &snapshot(&[("k", &[("a", 125.0)])]), 25.0);
        assert!(at.regressions().is_empty());
    }

    #[test]
    fn added_and_removed_benches_never_regress() {
        let before = snapshot(&[("k", &[("gone", 100.0)])]);
        let after = snapshot(&[("k", &[("new", 5000.0)])]);
        let diff = BenchDiff::between(&before, &after, 25.0);
        assert!(diff.regressions().is_empty());
        assert_eq!(diff.rows().len(), 2);
        let table = diff.to_string();
        assert!(table.contains("removed"), "{table}");
        assert!(table.contains("added"), "{table}");
    }

    #[test]
    fn display_renders_the_regression_table() {
        let before = snapshot(&[("k", &[("fast", 100.0), ("slow", 2_000_000.0)])]);
        let after = snapshot(&[("k", &[("fast", 150.0), ("slow", 2_000_000.0)])]);
        let table = BenchDiff::between(&before, &after, 25.0).to_string();
        assert!(table.contains("k/fast"), "{table}");
        assert!(table.contains("+50.0%"), "{table}");
        assert!(table.contains("REGRESSED"), "{table}");
        assert!(table.contains("2.00 ms"), "{table}");
        assert!(table.contains("+0.0%"), "{table}");
    }
}
