//! Order statistics, output digests and process memory.

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics; `None` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5).unwrap_or(0.0)
}

/// Relative spread of a set of estimates: the distance between their
/// first and third quartiles over their median (0 below two values).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let m = median(values);
    match (quantile(values, 0.25), quantile(values, 0.75)) {
        (Some(q1), Some(q3)) if values.len() >= 2 && m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it, as a whole percent (`None` below 20 samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    if n < 20 {
        return None;
    }
    let p = (n - 10) * 100 / n;
    Some(u32::try_from(p.min(99)).expect("percent fits u32"))
}

/// Two running 64-bit hashes of an op's outputs: `int` folds only the
/// integer outputs (codes, levels, counts — stable under float
/// reassociation, so it can be pinned), `exact` folds those plus the
/// bit patterns of every float (so two paths that must agree bit for
/// bit can be compared cheaply).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold {
    pub int: u64,
    pub exact: u64,
}

const SEED: u64 = 0xcbf2_9ce4_8422_2325;
const MUL: u64 = 0x517c_c1b7_2722_0a95;

fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(MUL)
}

impl Default for Fold {
    fn default() -> Fold {
        Fold {
            int: SEED,
            exact: SEED,
        }
    }
}

impl Fold {
    /// Folds an integer output into both hashes.
    pub fn int(&mut self, v: u64) {
        self.int = mix(self.int, v);
        self.exact = mix(self.exact, v);
    }

    /// Folds a `usize` output into both hashes.
    pub fn size(&mut self, v: usize) {
        self.int(v as u64);
    }

    /// Folds a float output into the exact hash only.
    pub fn float(&mut self, v: f64) {
        self.exact = mix(self.exact, v.to_bits());
    }

    /// Folds another fold (an op's) into this one (a run's).
    pub fn fold(&mut self, other: Fold) {
        self.int = mix(self.int, other.int);
        self.exact = mix(self.exact, other.exact);
    }
}

/// Peak resident set size of this process (Linux `VmHWM`), MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), Some(4.0));
        assert_eq!(quartile_spread(&[5.0, 1.0, 3.0, 2.0, 4.0]), 2.0 / 3.0);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(25), Some(60));
    }
}
