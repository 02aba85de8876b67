//! Counters, gauges and fixed-bucket histograms.
//!
//! Metrics are registered by name once (interning returns a copyable
//! id) and updated by id afterwards, so per-event hot paths do no
//! string work. By-name convenience updaters exist for cold paths like
//! end-of-run promotion of accumulated statistics.

use serde::Value;

/// Id of an interned counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Id of an interned gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Id of an interned histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(usize);

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper edge
/// of bucket `i`, with one extra overflow bucket at the end.
#[derive(Debug, Clone)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// An empty histogram over the given bucket bounds. Public so
    /// standalone profiles (e.g. the kernel's `SimProfile`) can own
    /// histograms outside a registry and fold them in later.
    ///
    /// # Panics
    ///
    /// Panics when the bounds are not strictly increasing.
    pub fn with_bounds(bounds: &[f64]) -> Histogram {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    fn new(bounds: &[f64]) -> Histogram {
        Histogram::with_bounds(bounds)
    }

    /// Records one sample into its bucket.
    pub fn record(&mut self, value: f64) {
        let bucket = self.bounds.partition_point(|&b| b < value);
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += value;
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded values (exact — from the running sum, not the
    /// bucket edges), or `None` while empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// Per-bucket counts (last bucket is overflow past the top bound).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Bucket upper edges (exclusive of the overflow bucket).
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// The inclusive upper edge of the bucket holding the `p`-th
    /// percentile sample (`p` in `0..=100`).
    ///
    /// Fixed-bucket histograms cannot interpolate inside a bucket, so
    /// the answer is quantized to bucket edges: `percentile(50.0)` of a
    /// histogram whose median sample landed in the `(1, 10]` bucket is
    /// `10.0`. Samples past the top bound live in the overflow bucket
    /// and report [`f64::INFINITY`]. Returns `None` while empty.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `0.0..=100.0`.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
        if self.count == 0 {
            return None;
        }
        // Rank of the percentile sample, 1-based, nearest-rank method.
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(self.bounds.get(i).copied().unwrap_or(f64::INFINITY));
            }
        }
        Some(f64::INFINITY)
    }

    /// Folds `other`'s samples into `self` bucket-wise.
    ///
    /// # Panics
    ///
    /// Panics when the bucket bounds differ.
    pub fn merge_from(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    pub(crate) fn to_value(&self) -> Value {
        Value::Map(vec![
            (
                "bounds".to_string(),
                Value::Seq(self.bounds.iter().map(|&b| Value::F64(b)).collect()),
            ),
            (
                "counts".to_string(),
                Value::Seq(self.counts.iter().map(|&c| Value::U64(c)).collect()),
            ),
            ("count".to_string(), Value::U64(self.count)),
            ("sum".to_string(), Value::F64(self.sum)),
        ])
    }
}

impl std::fmt::Display for Histogram {
    /// One-line summary: `count=52 sum=103.400 p50=10 p99=1000`. The
    /// sum is rounded to three decimals, so a sum of float samples does
    /// not print its rounding noise.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "count={} sum={:.3}", self.count, self.sum)?;
        for p in [50.0, 99.0] {
            match self.percentile(p) {
                Some(v) if v.is_finite() => write!(f, " p{p:.0}={v}")?,
                Some(_) => write!(f, " p{p:.0}=overflow")?,
                None => write!(f, " p{p:.0}=-")?,
            }
        }
        Ok(())
    }
}

/// The registry holding every metric of a run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or finds) a counter and returns its id.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Registers (or finds) a gauge and returns its id.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0.0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Registers (or finds) a histogram with the given bucket bounds.
    pub fn histogram(&mut self, name: &str, bounds: &[f64]) -> HistogramId {
        if let Some(i) = self.histograms.iter().position(|(n, _)| n == name) {
            return HistogramId(i);
        }
        self.histograms
            .push((name.to_string(), Histogram::new(bounds)));
        HistogramId(self.histograms.len() - 1)
    }

    /// Adds to a counter by id.
    pub fn add(&mut self, id: CounterId, delta: u64) {
        self.counters[id.0].1 += delta;
    }

    /// Increments a counter by id.
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Sets a gauge by id.
    pub fn set(&mut self, id: GaugeId, value: f64) {
        self.gauges[id.0].1 = value;
    }

    /// Raises a gauge to `value` if it is above the current reading —
    /// a running maximum, e.g. peak queue depth.
    pub fn set_max(&mut self, id: GaugeId, value: f64) {
        let g = &mut self.gauges[id.0].1;
        if value > *g {
            *g = value;
        }
    }

    /// Records a sample into a histogram by id.
    pub fn record(&mut self, id: HistogramId, value: f64) {
        self.histograms[id.0].1.record(value);
    }

    /// Bucket-merges a standalone histogram into a registered one —
    /// how drained profiles fold their samples in.
    ///
    /// # Panics
    ///
    /// Panics when the bucket bounds differ.
    pub fn histogram_merge(&mut self, id: HistogramId, other: &Histogram) {
        self.histograms[id.0].1.merge_from(other);
    }

    /// Adds to a counter by name (cold paths only).
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        let id = self.counter(name);
        self.add(id, delta);
    }

    /// Sets a gauge by name (cold paths only).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        let id = self.gauge(name);
        self.set(id, value);
    }

    /// Running-maximum gauge update by name (cold paths only).
    pub fn gauge_set_max(&mut self, name: &str, value: f64) {
        let id = self.gauge(name);
        self.set_max(id, value);
    }

    /// Current counter value, zero if never registered.
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Current gauge reading, if registered.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The histogram registered under `name`, if any.
    pub fn histogram_value(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Folds `other` into `self` — the join step when several workers
    /// accumulated metrics independently (e.g. one registry per worker
    /// thread of a parallel batch).
    ///
    /// Merge policy, chosen so the merged snapshot is independent of
    /// how work was split across workers:
    ///
    /// * **counters** — summed (they count events, and events
    ///   partition across workers);
    /// * **histograms** — bucket-wise summed; both registries must use
    ///   the same bounds for a shared name;
    /// * **gauges** — the **maximum** reading wins. Every cross-worker
    ///   gauge in this workspace is a running peak (worst droop in mV,
    ///   peak queue depth, workers used); a running *minimum* must be
    ///   stored negated (or folded manually) to survive a merge.
    ///
    /// Metrics present only in `other` are registered in `self`;
    /// registration order is `self`'s entries first, then `other`'s
    /// new names in `other`'s order.
    ///
    /// # Panics
    ///
    /// Panics when a histogram name is present in both registries with
    /// different bucket bounds.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            let id = self.counter(name);
            self.add(id, *v);
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => *mine = mine.max(*v),
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => mine.merge_from(h),
                None => self.histograms.push((name.clone(), h.clone())),
            }
        }
    }

    /// True when nothing has been registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// A serializable snapshot of every metric, in registration order.
    pub fn snapshot_value(&self) -> Value {
        Value::Map(vec![
            (
                "counters".to_string(),
                Value::Map(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Value::Map(
                    self.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), Value::F64(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_string(),
                Value::Map(
                    self.histograms
                        .iter()
                        .map(|(n, h)| (n.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

impl std::fmt::Display for MetricsRegistry {
    /// A human-readable table, one metric per line: counters, then
    /// gauges, then histograms, each section sorted by name.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let width = self
            .counters
            .iter()
            .map(|(n, _)| n.len())
            .chain(self.gauges.iter().map(|(n, _)| n.len()))
            .chain(self.histograms.iter().map(|(n, _)| n.len()))
            .max()
            .unwrap_or(0);
        let mut counters: Vec<_> = self.counters.iter().collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, v) in counters {
            writeln!(f, "  {name:<width$}  {v}")?;
        }
        let mut gauges: Vec<_> = self.gauges.iter().collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, v) in gauges {
            writeln!(f, "  {name:<width$}  {v:.6}")?;
        }
        let mut histograms: Vec<_> = self.histograms.iter().collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, h) in histograms {
            writeln!(f, "  {name:<width$}  {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("events");
        assert_eq!(m.counter("events"), c, "interning is idempotent");
        m.inc(c);
        m.add(c, 4);
        assert_eq!(m.counter_value("events"), 5);
        assert_eq!(m.counter_value("missing"), 0);

        let g = m.gauge("depth");
        m.set(g, 3.0);
        m.set_max(g, 7.0);
        m.set_max(g, 2.0);
        assert_eq!(m.gauge_value("depth"), Some(7.0));
    }

    #[test]
    fn histogram_buckets() {
        let mut m = MetricsRegistry::new();
        let h = m.histogram("dt", &[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 5.0, 50.0, 500.0] {
            m.record(h, v);
        }
        let hist = m.histogram_value("dt").unwrap();
        // 0.5 and 1.0 land in the first bucket (inclusive upper edge).
        assert_eq!(hist.counts(), &[2, 1, 1, 1]);
        assert_eq!(hist.count(), 5);
        assert!((hist.sum() - 556.5).abs() < 1e-9);
        assert!((hist.mean().unwrap() - 556.5 / 5.0).abs() < 1e-9);
        assert_eq!(Histogram::with_bounds(&[1.0]).mean(), None);
    }

    #[test]
    fn merge_sums_counters_and_histograms_and_maxes_gauges() {
        let mut a = MetricsRegistry::new();
        a.counter_add("jobs", 3);
        a.gauge_set("peak", 2.0);
        let ha = a.histogram("us", &[1.0, 10.0]);
        a.record(ha, 0.5);
        a.record(ha, 5.0);

        let mut b = MetricsRegistry::new();
        b.counter_add("jobs", 4);
        b.counter_add("only_b", 1);
        b.gauge_set("peak", 7.0);
        b.gauge_set("neg_only_b", -3.0);
        let hb = b.histogram("us", &[1.0, 10.0]);
        b.record(hb, 50.0);
        let hb2 = b.histogram("only_b_hist", &[1.0]);
        b.record(hb2, 2.0);

        a.merge(&b);
        assert_eq!(a.counter_value("jobs"), 7);
        assert_eq!(a.counter_value("only_b"), 1);
        assert_eq!(a.gauge_value("peak"), Some(7.0));
        // Absent gauges are adopted verbatim, not maxed against 0.
        assert_eq!(a.gauge_value("neg_only_b"), Some(-3.0));
        let h = a.histogram_value("us").unwrap();
        assert_eq!(h.counts(), &[1, 1, 1]);
        assert_eq!(h.count(), 3);
        assert!((h.sum() - 55.5).abs() < 1e-12);
        assert_eq!(a.histogram_value("only_b_hist").unwrap().count(), 1);
    }

    #[test]
    fn merge_keeps_higher_existing_gauge() {
        let mut a = MetricsRegistry::new();
        a.gauge_set("peak", 9.0);
        let mut b = MetricsRegistry::new();
        b.gauge_set("peak", 4.0);
        a.merge(&b);
        assert_eq!(a.gauge_value("peak"), Some(9.0));
    }

    #[test]
    fn merge_of_empty_is_identity() {
        let mut a = MetricsRegistry::new();
        a.counter_add("n", 2);
        let before = a.counter_value("n");
        a.merge(&MetricsRegistry::new());
        assert_eq!(a.counter_value("n"), before);

        let mut empty = MetricsRegistry::new();
        empty.merge(&a);
        assert_eq!(empty.counter_value("n"), 2);
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn merge_rejects_mismatched_histogram_bounds() {
        let mut a = MetricsRegistry::new();
        a.histogram("h", &[1.0, 2.0]);
        let mut b = MetricsRegistry::new();
        b.histogram("h", &[1.0, 3.0]);
        a.merge(&b);
    }

    #[test]
    fn percentile_quantizes_to_bucket_edges() {
        let mut h = Histogram::with_bounds(&[1.0, 10.0, 100.0]);
        assert_eq!(h.percentile(50.0), None, "empty histogram has no p50");

        // Samples: 1 in (..=1], 2 in (1, 10], 1 in (10, 100].
        for v in [1.0, 2.0, 10.0, 100.0] {
            h.record(v);
        }
        // Nearest-rank: p0 and p25 both resolve to the 1st sample.
        assert_eq!(h.percentile(0.0), Some(1.0));
        assert_eq!(h.percentile(25.0), Some(1.0));
        // Rank 2 (p50 of 4 samples) lands in the (1, 10] bucket, whose
        // inclusive upper edge is 10.
        assert_eq!(h.percentile(50.0), Some(10.0));
        assert_eq!(h.percentile(75.0), Some(10.0));
        // p100 is the last sample: the (10, 100] bucket edge.
        assert_eq!(h.percentile(100.0), Some(100.0));

        // An overflow sample reports infinity at the top percentile.
        h.record(1e9);
        assert_eq!(h.percentile(100.0), Some(f64::INFINITY));
        assert_eq!(h.percentile(80.0), Some(100.0));
    }

    #[test]
    fn percentile_single_sample_every_p_same_bucket() {
        let mut h = Histogram::with_bounds(&[5.0]);
        h.record(3.0);
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), Some(5.0));
        }
    }

    #[test]
    #[should_panic(expected = "percentile must be in 0..=100")]
    fn percentile_rejects_out_of_range() {
        Histogram::with_bounds(&[1.0]).percentile(101.0);
    }

    #[test]
    fn display_lists_every_metric_sorted_by_name_within_its_section() {
        let mut m = MetricsRegistry::new();
        m.counter_add("jobs", 5);
        m.counter_add("fresh", 0);
        m.gauge_set("peak", 4.0);
        let h = m.histogram("lat", &[1.0, 10.0]);
        m.record(h, 0.5);
        m.histogram("idle", &[1.0]);
        assert_eq!(
            m.to_string(),
            "  fresh  0\n  jobs   5\n  peak   4.000000\n  \
             idle   count=0 sum=0.000 p50=- p99=-\n  lat    count=1 sum=0.500 p50=1 p99=1\n"
        );
        assert_eq!(MetricsRegistry::new().to_string(), "");
    }

    #[test]
    fn snapshot_shape() {
        let mut m = MetricsRegistry::new();
        let c = m.counter("n");
        m.inc(c);
        let snap = m.snapshot_value();
        assert_eq!(
            snap.get("counters")
                .and_then(|c| c.get("n"))
                .and_then(Value::as_u64),
            Some(1)
        );
        assert!(snap.get("gauges").is_some());
        assert!(snap.get("histograms").is_some());
    }
}
