//! The host-speed probe.
//!
//! The benchmark runs on small virtual machines whose cores are shared
//! with other tenants. For seconds to minutes at a time a neighbour's
//! load slows this guest by up to half, so two runs of the same code
//! can differ by more than any bound worth gating on, and a time alone
//! cannot tell a slow host from a slow program. The
//! probe is a fixed loop that shares no code or data with the program
//! under test. Timed between ops, its median says how fast the host ran
//! during the run, and the gated times are scaled to the reference
//! speed, at which one probe pass takes [`REF_PROBE_S`].

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Seconds one probe pass takes at the reference speed: its median on
/// an idle 2-vCPU x86-64 guest, the host the bounds were measured on.
pub const REF_PROBE_S: f64 = 0.000_970;
/// Iterations of one pass.
const PASS_ITERS: u64 = 400_000;
/// Table the pass updates, in `u64` words (512 KiB).
const TABLE_WORDS: usize = 1 << 16;

/// Probe passes of one run, each with the number of timed ops that had
/// finished before it.
#[derive(Debug)]
pub struct Probe {
    table: Vec<u64>,
    /// `(ops done, seconds)` per pass.
    pub passes: Vec<(usize, f64)>,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe {
            table: vec![0; TABLE_WORDS],
            passes: Vec::new(),
        }
    }
}

impl Probe {
    /// Times one pass: a xorshift stream scattering adds over the table
    /// and a dependent floating-point chain. The table is read into the
    /// cache first, so the pass does not depend on what the op before
    /// it left there.
    pub fn pass(&mut self, ops_done: usize) {
        black_box(self.table.iter().fold(0u64, |a, &w| a ^ w));
        let t = Instant::now();
        let mut h = 0x9e37_79b9_7f4a_7c15_u64;
        let mut x = 1.0f64;
        for i in 0..PASS_ITERS {
            h ^= h << 13;
            h ^= h >> 7;
            h ^= h << 17;
            let k = (h as usize) & (TABLE_WORDS - 1);
            self.table[k] = self.table[k].wrapping_add(i);
            x = x * 1.000_000_1 + k as f64 * 1e-9;
        }
        black_box((x, &self.table));
        self.passes.push((ops_done, t.elapsed().as_secs_f64()));
    }

    /// The host's speed relative to the reference over the passes taken
    /// while ops `lo..hi` ran (all passes when none fall there): the
    /// reference pass time over their median. Times multiplied by it
    /// read as at the reference speed; 1 when no pass was taken.
    pub fn speed(&self, lo: usize, hi: usize) -> f64 {
        let inside: Vec<f64> = self
            .passes
            .iter()
            .filter(|(done, _)| (lo..hi).contains(done))
            .map(|p| p.1)
            .collect();
        let all: Vec<f64> = self.passes.iter().map(|p| p.1).collect();
        let m = median(if inside.is_empty() { &all } else { &inside });
        if m > 0.0 {
            REF_PROBE_S / m
        } else {
            1.0
        }
    }

    /// Median seconds of one pass over the run (0 when none was taken).
    pub fn median_s(&self) -> f64 {
        median(&self.passes.iter().map(|p| p.1).collect::<Vec<_>>())
    }
}
