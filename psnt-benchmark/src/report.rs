//! Metric definitions and the three output forms of a run: text lines
//! (`<workload> <metric> <value> <unit>`), the one-line JSON result
//! printed last, and the detailed JSON `--compare` reads.

use serde::json;
use serde::Value;

use crate::probe::Probe;
use crate::stats::{median, quantile, quartile_spread, tail_percentile, Fold};
use crate::trace::{Recorder, OP};
use crate::workloads::{Kind, Work};

/// Blocks the timed ops are cut into to estimate a metric's spread.
const SPREAD_BLOCKS: usize = 5;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Relative spread of the estimate within the run, when known.
    pub spread: Option<f64>,
}

fn metric(name: &str, value: f64, unit: &'static str, spread: Option<f64>) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        spread,
    }
}

/// Everything one workload run measured.
#[derive(Debug)]
pub struct RunReport {
    /// The workload.
    pub kind: Kind,
    /// Base seed.
    pub seed: u64,
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds per grid factorisation, one per set-up repetition.
    pub factor_s: Vec<f64>,
    /// Seconds per timed (untraced) op.
    pub op_s: Vec<f64>,
    /// Host-speed probe passes taken between the timed ops.
    pub probe: Probe,
    /// Seconds per traced op (traced runs only).
    pub traced_s: Vec<f64>,
    /// Ops whose output was checked.
    pub attempted: u64,
    /// Ops that returned an error or failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Digests of the verify pass.
    pub verify_digest: Fold,
    /// Work of the timed ops.
    pub work: Work,
    /// Peak resident set size of the process, MiB.
    pub peak_rss_mib: f64,
    /// Spans and counters of the traced ops.
    pub trace: Option<Recorder>,
}

impl RunReport {
    /// Whether every checked op passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Timed ops per second of op time.
    fn ops_per_s(ops: &[f64]) -> f64 {
        ops.len() as f64 / ops.iter().sum::<f64>()
    }

    /// Per-block op medians and throughputs at the reference host
    /// speed, each block scaled by the probe passes taken during it,
    /// for the spread estimate.
    fn blocks(&self) -> (Vec<f64>, Vec<f64>) {
        let n = self.op_s.len();
        if n < 2 * SPREAD_BLOCKS {
            return (Vec::new(), Vec::new());
        }
        (0..SPREAD_BLOCKS)
            .map(|b| {
                let (lo, hi) = (n * b / SPREAD_BLOCKS, n * (b + 1) / SPREAD_BLOCKS);
                let ops = &self.op_s[lo..hi];
                let speed = self.probe.speed(lo, hi);
                (median(ops) * speed, Self::ops_per_s(ops) / speed)
            })
            .unzip()
    }

    /// The gated end-to-end metrics, each with its in-run spread. Op
    /// time and throughput are read at the reference host speed (see
    /// `probe.rs`); their raw values are in [`RunReport::info`].
    pub fn end_to_end(&self) -> Vec<Metric> {
        let (p50s, rates) = self.blocks();
        let spread = |v: &[f64]| (v.len() >= 2).then(|| quartile_spread(v));
        let speed = self.probe.speed(0, usize::MAX);
        vec![
            metric(
                "ref_op_p50_ms",
                median(&self.op_s) * speed * 1e3,
                "ms",
                spread(&p50s),
            ),
            metric(
                "ref_ops_per_s",
                Self::ops_per_s(&self.op_s) / speed,
                "1/s",
                spread(&rates),
            ),
            metric("peak_rss_mb", self.peak_rss_mib, "MiB", None),
            metric("setup_s", median(&self.setup_s), "s", spread(&self.setup_s)),
        ]
    }

    /// Ungated numbers, as measured: the op median and the tail
    /// percentile with its sample count, throughput, the host speed
    /// the gated times were scaled by, the workload's own throughput,
    /// checkpoint size and error rate.
    pub fn info(&self) -> Vec<Metric> {
        let n = self.op_s.len();
        let mut out = vec![
            metric("op_samples", n as f64, "count", None),
            metric("op_p50_ms", median(&self.op_s) * 1e3, "ms", None),
        ];
        if let Some(p) = tail_percentile(n) {
            let v = quantile(&self.op_s, f64::from(p) / 100.0).unwrap_or(0.0);
            out.push(metric(&format!("op_p{p}_ms"), v * 1e3, "ms", None));
        }
        out.push(metric(
            "ops_per_s",
            Self::ops_per_s(&self.op_s),
            "1/s",
            None,
        ));
        out.push(metric("probe_ms", self.probe.median_s() * 1e3, "ms", None));
        out.push(metric(
            "host_speed",
            self.probe.speed(0, usize::MAX),
            "ratio",
            None,
        ));
        let w = &self.work;
        let wall: f64 = self.op_s.iter().sum();
        if w.cycles > 0 && wall > 0.0 {
            out.push(metric(
                "sim_cycles_per_s",
                w.cycles as f64 / wall,
                "cycles/s",
                None,
            ));
        }
        if w.mc_s > 0.0 {
            out.push(metric(
                "mc_trials_per_s",
                w.mc_trials as f64 / w.mc_s,
                "trials/s",
                None,
            ));
        }
        if w.sweep_s > 0.0 {
            out.push(metric(
                "fault_plans_per_s",
                w.plans as f64 / w.sweep_s,
                "plans/s",
                None,
            ));
        }
        if w.ckpt_bytes > 0 {
            out.push(metric(
                "checkpoint_mb",
                w.ckpt_bytes as f64 / (1024.0 * 1024.0),
                "MiB",
                None,
            ));
        }
        out.push(metric(
            "error_rate",
            if self.attempted == 0 {
                1.0
            } else {
                self.failed as f64 / self.attempted as f64
            },
            "ratio",
            None,
        ));
        out
    }

    /// The per-layer metrics of a traced run (empty otherwise): each
    /// layer's share of traced op time, its throughput in its own unit
    /// of work (work over the time spent in the layer's calls, so
    /// stalls count), and its work counts per op. A layer a workload
    /// does not reach reports 0.
    pub fn per_layer(&self) -> Vec<Metric> {
        let Some(rec) = &self.trace else {
            return Vec::new();
        };
        let st = rec.stats();
        let time = |name: &str| st.get(name).map_or(0.0, |s| s.total_s);
        let calls = |name: &str| st.get(name).map_or(0.0, |s| s.calls as f64);
        let rate = |work: f64, secs: f64| if secs > 0.0 { work / secs } else { 0.0 };
        let pct = |part: f64, whole: f64| {
            if whole > 0.0 {
                part / whole * 100.0
            } else {
                0.0
            }
        };
        let op_time = time(OP);
        let share = |layer: &str| {
            let self_s = st
                .iter()
                .filter(|(name, _)| name.split('.').next() == Some(layer) && **name != OP)
                .fold(0.0, |acc, (_, s)| acc + s.self_s);
            pct(self_s, op_time)
        };
        let cycles = rec.total("workload.cycles");
        let mib = rec.total("checkpoint.bytes") / (1024.0 * 1024.0);
        let untraced = median(&self.op_s);
        let m = |name: &str, value: f64, unit: &'static str| metric(name, value, unit, None);
        vec![
            m("workload.self_pct", share("workload"), "%"),
            m(
                "workload.cycles_per_s",
                rate(cycles, time("workload.step")),
                "cycles/s",
            ),
            m(
                "workload.stepper_self_cycles_per_s",
                rate(cycles, time("workload.step") - time("pdn.solve_delta")),
                "cycles/s",
            ),
            m(
                "workload.plans_per_s",
                rate(calls("workload.plan"), time("workload.plan")),
                "1/s",
            ),
            m(
                "workload.delta_solves",
                rec.per_op("workload.delta_solves"),
                "count",
            ),
            m(
                "workload.changed_tiles",
                rate(rec.total("workload.changed_tiles"), cycles),
                "count",
            ),
            m("pdn.self_pct", share("pdn"), "%"),
            m(
                "pdn.solves_per_s",
                rate(calls("pdn.solve_delta"), time("pdn.solve_delta")),
                "1/s",
            ),
            m(
                "pdn.factor_setup_pct",
                pct(median(&self.factor_s), median(&self.setup_s)),
                "%",
            ),
            m("scan.self_pct", share("scan"), "%"),
            m(
                "scan.sites_per_s",
                rate(rec.total("scan.records"), time("scan.sweep")),
                "sites/s",
            ),
            m("scan.records", rec.per_op("scan.records"), "count"),
            m(
                "scan.degraded_sites",
                rec.per_op("scan.degraded_sites"),
                "count",
            ),
            m("core.self_pct", share("core"), "%"),
            m(
                "core.measures_per_s",
                rate(
                    rec.total("core.measure_value_calls"),
                    time("core.measure_value"),
                ),
                "1/s",
            ),
            m(
                "core.measure_value_calls",
                rec.per_op("core.measure_value_calls"),
                "count",
            ),
            m(
                "core.mc_trials_per_s",
                rate(rec.total("core.mc_trials"), time("core.mc_yield")),
                "trials/s",
            ),
            m(
                "core.fault_plans_per_s",
                rate(rec.total("core.fault_plans"), time("core.measure_batch")),
                "plans/s",
            ),
            m(
                "core.measure_batch_calls",
                rec.per_op("core.measure_batch_calls"),
                "count",
            ),
            m(
                "core.batch_lane_errors",
                rec.per_op("core.batch_lane_errors"),
                "count",
            ),
            m("control.self_pct", share("control"), "%"),
            m(
                "control.observes_per_s",
                rate(calls("control.observe"), time("control.observe")),
                "1/s",
            ),
            m(
                "control.engaged_cycles",
                rec.per_op("control.engaged_cycles"),
                "count",
            ),
            m(
                "control.actuation_toggles",
                rec.per_op("control.actuation_toggles"),
                "count",
            ),
            m("checkpoint.self_pct", share("checkpoint"), "%"),
            m(
                "checkpoint.save_mib_per_s",
                rate(mib, time("checkpoint.save")),
                "MiB/s",
            ),
            m(
                "checkpoint.load_mib_per_s",
                rate(mib, time("checkpoint.load")),
                "MiB/s",
            ),
            m("checkpoint.bytes", rec.per_op("checkpoint.bytes"), "B"),
            m(
                "obs.trace_overhead_pct",
                pct(median(&self.traced_s) - untraced, untraced),
                "%",
            ),
            m("obs.self_time_coverage_pct", rec.coverage_pct(), "%"),
        ]
    }

    /// Every metric of the run: gated and informational, or per-layer
    /// with the error rate when traced (a traced run's op times carry
    /// the tracing cost, so its end-to-end numbers are not reported).
    pub fn all(&self) -> Vec<Metric> {
        if self.trace.is_some() {
            let mut v = self.per_layer();
            v.extend(
                self.info()
                    .into_iter()
                    .filter(|m| m.name == "op_samples" || m.name == "error_rate"),
            );
            return v;
        }
        let mut v = self.end_to_end();
        v.extend(self.info());
        v
    }

    /// The text report: one `<workload> <metric> <value> <unit>` line
    /// per metric, the digests, and the layer table of a traced run.
    pub fn lines(&self) -> String {
        let w = self.kind.name();
        let mut s = String::new();
        for m in self.all() {
            s.push_str(&format!("{w} {} {} {}\n", m.name, m.value, m.unit));
        }
        s.push_str(&format!(
            "{w} verify_digest {:016x} hex\n",
            self.verify_digest.int
        ));
        for f in &self.failures {
            s.push_str(&format!("{w} failure {f}\n"));
        }
        if let Some(rec) = &self.trace {
            s.push_str(&rec.table(w));
        }
        s
    }

    /// The one-line JSON result printed last: `correct`,
    /// `attempted`, `failed`, and the end-to-end metrics (untraced run)
    /// or the per-layer metrics (traced run), each as value and unit.
    pub fn result_line(&self) -> String {
        let metrics = if self.trace.is_some() {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        let metrics = Value::Map(
            metrics
                .into_iter()
                .map(|m| {
                    let entry = Value::Map(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]);
                    (m.name, entry)
                })
                .collect(),
        );
        json::render(&Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("metrics".into(), metrics),
        ]))
    }

    /// The detailed record `--json` writes and `--compare` reads.
    pub fn detail(&self) -> Value {
        let metrics = self
            .all()
            .into_iter()
            .map(|m| {
                let mut e = vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.into())),
                ];
                if let Some(s) = m.spread {
                    e.push(("spread".into(), Value::F64(s)));
                }
                (m.name, Value::Map(e))
            })
            .collect();
        Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::U64(self.attempted)),
            ("failed".into(), Value::U64(self.failed)),
            ("seed".into(), Value::U64(self.seed)),
            (
                "verify_digest".into(),
                Value::Str(format!("{:016x}", self.verify_digest.int)),
            ),
            ("metrics".into(), Value::Map(metrics)),
        ])
    }
}

/// Wraps per-workload detail records into the `--json` document.
pub fn document(workloads: Vec<(String, Value)>) -> String {
    json::render(&Value::Map(vec![(
        "workloads".into(),
        Value::Map(workloads),
    )]))
}

/// One gated metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Metric name.
    pub name: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Relative regression bound.
    pub bound: f64,
}

/// Reads the end-to-end gates from a `BENCHMARK.json` document.
///
/// # Errors
///
/// Malformed JSON or a missing/ill-typed field, as text.
pub fn gates(benchmark_json: &str) -> Result<Vec<Gate>, String> {
    let doc = json::parse(benchmark_json).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let list = doc
        .get("end_to_end")
        .and_then(Value::as_seq)
        .ok_or("BENCHMARK.json: no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m.get("name").and_then(Value::as_str);
            let better = m.get("better").and_then(Value::as_str);
            let bound = m.get("bound").and_then(Value::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b @ ("lower" | "higher")), Some(bound)) => Ok(Gate {
                    name: n.to_string(),
                    lower_is_better: b == "lower",
                    bound,
                }),
                _ => Err(format!("BENCHMARK.json: malformed end_to_end entry {m:?}")),
            }
        })
        .collect()
}

/// A compared (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Better than A by more than the bound.
    Better,
    /// Within the bound.
    Same,
    /// Worse than A by more than the bound.
    Worse,
    /// The spread of either side exceeds the bound.
    Unresolved,
}

/// Judges `b` against `a` under `gate`, with the larger of the two
/// in-run spreads when either run could estimate one (a one-sample
/// metric such as peak RSS is judged by the bound alone).
pub fn judge(gate: &Gate, a: f64, b: f64, spread: Option<f64>) -> Verdict {
    if spread.is_some_and(|s| s > gate.bound) {
        return Verdict::Unresolved;
    }
    let change = (b - a) / a;
    let worse = if gate.lower_is_better {
        change
    } else {
        -change
    };
    if worse > gate.bound {
        Verdict::Worse
    } else if worse < -gate.bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn lookup(doc: &Value, workload: &str, metric: &str) -> Option<(f64, Option<f64>)> {
    let m = doc
        .get("workloads")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    Some((value, m.get("spread").and_then(Value::as_f64)))
}

/// The `--compare` table: one row per (gated metric, workload) present
/// in both documents.
///
/// # Errors
///
/// Malformed input documents, as text.
pub fn compare(gates: &[Gate], a: &str, b: &str) -> Result<String, String> {
    let a = json::parse(a).map_err(|e| format!("A: {e:?}"))?;
    let b = json::parse(b).map_err(|e| format!("B: {e:?}"))?;
    let mut s = format!(
        "{:<14} {:<15} {:>14} {:>14} {:>9} {:>7} {:>8}  verdict\n",
        "metric", "workload", "A", "B", "change", "bound", "spread"
    );
    for g in gates {
        for k in Kind::ALL {
            let (Some((va, sa)), Some((vb, sb))) =
                (lookup(&a, k.name(), &g.name), lookup(&b, k.name(), &g.name))
            else {
                continue;
            };
            let spread = match (sa, sb) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let verdict = judge(g, va, vb, spread);
            s.push_str(&format!(
                "{:<14} {:<15} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}% {:>8}  {}\n",
                g.name,
                k.name(),
                va,
                vb,
                (vb - va) / va * 100.0,
                g.bound * 100.0,
                spread.map_or_else(|| "-".into(), |s| format!("{:.2}%", s * 100.0)),
                format!("{verdict:?}").to_lowercase()
            ));
        }
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_respect_direction_bound_and_spread() {
        let lower = Gate {
            name: "op_p50_ms".into(),
            lower_is_better: true,
            bound: 0.1,
        };
        let higher = Gate {
            lower_is_better: false,
            ..lower.clone()
        };
        assert_eq!(judge(&lower, 100.0, 105.0, Some(0.02)), Verdict::Same);
        assert_eq!(judge(&lower, 100.0, 115.0, Some(0.02)), Verdict::Worse);
        assert_eq!(judge(&lower, 100.0, 85.0, Some(0.02)), Verdict::Better);
        assert_eq!(judge(&higher, 100.0, 85.0, Some(0.02)), Verdict::Worse);
        assert_eq!(judge(&lower, 100.0, 115.0, Some(0.2)), Verdict::Unresolved);
        assert_eq!(judge(&lower, 100.0, 115.0, None), Verdict::Worse);
    }
}
