//! The mesh NoC model: XY routing and the cycle-by-cycle activity
//! trace that turns injected flits into per-tile switching counts.
//!
//! The model is transport-level, not flit-accurate: a flit injected at
//! cycle `c` occupies the router of hop `i` of its XY route at cycle
//! `c + i` (one hop per cycle, no contention). That is deliberately
//! simple — the trace exists as a *power stimulus* for the PDN, where
//! what matters is how much switching happens where and when, not
//! per-flit latency.

use psnt_ctx::RunCtx;
use serde::{Deserialize, Serialize};

use crate::error::WorkloadError;
use crate::traffic::{TileTraffic, TrafficPattern};

/// A `rows × cols` mesh NoC with deterministic XY (X-first) routing.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NocMesh {
    rows: usize,
    cols: usize,
}

impl NocMesh {
    /// Creates a mesh.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for an empty mesh.
    pub fn new(rows: usize, cols: usize) -> Result<NocMesh, WorkloadError> {
        if rows == 0 || cols == 0 {
            return Err(WorkloadError::InvalidConfig {
                name: "mesh",
                reason: format!("{rows}×{cols} mesh must be non-empty"),
            });
        }
        Ok(NocMesh { rows, cols })
    }

    /// Mesh rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Mesh columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of router tiles.
    pub fn tiles(&self) -> usize {
        self.rows * self.cols
    }

    /// The XY route from `src` to `dst` as the sequence of tiles
    /// traversed, inclusive of both endpoints: first along the row to
    /// the destination column, then along the column. Each step is
    /// [`NocMesh::xy_next`].
    pub fn route_xy(&self, src: usize, dst: usize) -> Vec<usize> {
        debug_assert!(src < self.tiles() && dst < self.tiles());
        let (sr, sc) = (src / self.cols, src % self.cols);
        let (dr, dc) = (dst / self.cols, dst % self.cols);
        let mut path = Vec::with_capacity(sc.abs_diff(dc) + sr.abs_diff(dr) + 1);
        let turn = self.xy_turn(src, dst);
        let mut at = src;
        path.push(at);
        while at != dst {
            at = self.xy_next(at, turn, dst);
            path.push(at);
        }
        path
    }

    /// The tile where the XY route from `src` to `dst` leaves the
    /// source's row: the source row's tile in the destination column.
    pub fn xy_turn(&self, src: usize, dst: usize) -> usize {
        src - src % self.cols + dst % self.cols
    }

    // PDN HOT LOOP START
    /// The tile after `at` on the XY route to `dst` that turns at
    /// `turn` ([`NocMesh::xy_turn`]), or `at` itself when it is `dst`.
    /// Short of the turn a flit is on the turn's row, less than a row
    /// away, and steps along it; from the turn on it is in `dst`'s
    /// column and steps along that. No division: a flit pays for its
    /// route's geometry once, when its turn is computed.
    #[inline]
    pub fn xy_next(&self, at: usize, turn: usize, dst: usize) -> usize {
        if at != turn && at.abs_diff(turn) < self.cols {
            if turn > at {
                at + 1
            } else {
                at - 1
            }
        } else if dst > at {
            at + self.cols
        } else if dst < at {
            at - self.cols
        } else {
            at
        }
    }
    // PDN HOT LOOP END
}

/// Per-cycle, per-tile router switching counts for a whole run.
///
/// Storage is one flat `u32` row per cycle (an 8×8 mesh over 1,000
/// cycles is 256 KiB), so campaign-scale traces stay cheap to build
/// and to diff cycle-over-cycle.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityTrace {
    cycles: usize,
    tiles: usize,
    counts: Vec<u32>,
    flits: u64,
}

impl ActivityTrace {
    /// Generates the trace: per-tile injection streams run in parallel
    /// on the context's engine (seed-split from `ctx.seed()`, so the
    /// trace is bit-identical at any worker count), then the XY routes
    /// are overlaid serially into switching counts.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for an invalid pattern
    /// or zero cycles.
    pub fn generate(
        ctx: &mut RunCtx<'_>,
        mesh: &NocMesh,
        pattern: &TrafficPattern,
        cycles: usize,
    ) -> Result<ActivityTrace, WorkloadError> {
        let tiles = mesh.tiles();
        let injections = ActivityTrace::plan(ctx, mesh, pattern, cycles)?;
        // Phase 2 — serial overlay: walk every flit one hop per cycle
        // along its XY route, accumulating router switching counts.
        let mut counts = vec![0u32; cycles * tiles];
        let mut flits = 0u64;
        for (src, flights) in injections.iter().enumerate() {
            for &(c, dst) in flights {
                flits += 1;
                let (mut tile, dst) = (src, dst as usize);
                let turn = mesh.xy_turn(src, dst);
                for at in c as usize..cycles {
                    counts[at * tiles + tile] += 1;
                    if tile == dst {
                        break;
                    }
                    tile = mesh.xy_next(tile, turn, dst);
                }
            }
        }
        if let Some(obs) = ctx.observer() {
            obs.metrics.counter_add("workload.flits", flits);
        }
        Ok(ActivityTrace {
            cycles,
            tiles,
            counts,
            flits,
        })
    }

    /// The raw injection plan behind [`ActivityTrace::generate`] — and
    /// the activity *source* stage of the cycle stepper: per source
    /// tile, the `(cycle, destination)` pairs of every flit the traffic
    /// pattern injects, in cycle order. Per-tile streams run in
    /// parallel on the context's engine and are seed-split from
    /// `ctx.seed()`, so the plan is bit-identical at any worker count —
    /// which is exactly what pins the stepped and batch pipelines to
    /// the same activity.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for an invalid pattern
    /// or zero cycles.
    pub fn plan(
        ctx: &mut RunCtx<'_>,
        mesh: &NocMesh,
        pattern: &TrafficPattern,
        cycles: usize,
    ) -> Result<Vec<Vec<(u32, u32)>>, WorkloadError> {
        pattern.validate()?;
        if cycles == 0 {
            return Err(WorkloadError::InvalidConfig {
                name: "cycles",
                reason: "need at least one cycle".into(),
            });
        }
        let tiles = mesh.tiles();
        let seed = ctx.seed();
        // Parallel per tile: each tile's injections come from its own
        // split stream, so the result is order- and
        // worker-count-independent.
        Ok(ctx.engine().map(tiles, |t| {
            let mut gen = TileTraffic::new(pattern, seed, t, tiles);
            (0..cycles as u64)
                .filter_map(|c| gen.step(c).map(|dst| (c as u32, dst as u32)))
                .collect()
        }))
    }

    /// Number of cycles in the trace.
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// Number of mesh tiles.
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Total flits injected over the run.
    pub fn flits(&self) -> u64 {
        self.flits
    }

    /// The switching count of `tile` at `cycle`.
    pub fn count(&self, cycle: usize, tile: usize) -> u32 {
        self.counts[cycle * self.tiles + tile]
    }

    /// All per-tile counts of one cycle.
    pub fn cycle_counts(&self, cycle: usize) -> &[u32] {
        &self.counts[cycle * self.tiles..(cycle + 1) * self.tiles]
    }

    /// Total switching events across the whole trace.
    pub fn total_events(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnt_engine::Engine;

    #[test]
    fn mesh_geometry_validated() {
        assert!(NocMesh::new(0, 8).is_err());
        let m = NocMesh::new(8, 8).unwrap();
        assert_eq!(m.tiles(), 64);
    }

    #[test]
    fn xy_routes_go_x_first() {
        let m = NocMesh::new(4, 4).unwrap();
        // From (0,0) to (2,3): along row 0 to col 3, then down col 3.
        assert_eq!(m.route_xy(0, 11), vec![0, 1, 2, 3, 7, 11]);
        // Reverse direction.
        assert_eq!(m.route_xy(11, 0), vec![11, 10, 9, 8, 4, 0]);
        // Self route is the single tile.
        assert_eq!(m.route_xy(5, 5), vec![5]);
    }

    #[test]
    fn xy_steps_rebuild_the_row_then_column_route() {
        let m = NocMesh::new(4, 5).unwrap();
        for src in 0..m.tiles() {
            for dst in 0..m.tiles() {
                let (sr, sc) = (src / 5, src % 5);
                let (dr, dc) = (dst / 5, dst % 5);
                let row: Vec<usize> = if sc <= dc {
                    (sc..=dc).map(|c| sr * 5 + c).collect()
                } else {
                    (dc..=sc).rev().map(|c| sr * 5 + c).collect()
                };
                let col: Vec<usize> = if sr <= dr {
                    (sr + 1..=dr).map(|r| r * 5 + dc).collect()
                } else {
                    (dr..sr).rev().map(|r| r * 5 + dc).collect()
                };
                let expected: Vec<usize> = row.into_iter().chain(col).collect();
                assert_eq!(m.route_xy(src, dst), expected, "{src} -> {dst}");
                assert_eq!(m.xy_turn(src, dst), sr * 5 + dc);
                assert_eq!(m.xy_next(dst, m.xy_turn(src, dst), dst), dst);
            }
        }
    }

    #[test]
    fn route_length_is_manhattan_plus_one() {
        let m = NocMesh::new(8, 8).unwrap();
        for (src, dst) in [(0usize, 63usize), (7, 56), (20, 20), (9, 10)] {
            let (sr, sc) = (src / 8, src % 8);
            let (dr, dc) = (dst / 8, dst % 8);
            assert_eq!(
                m.route_xy(src, dst).len(),
                sr.abs_diff(dr) + sc.abs_diff(dc) + 1
            );
        }
    }

    #[test]
    fn trace_is_worker_count_independent() {
        let m = NocMesh::new(4, 4).unwrap();
        let p = TrafficPattern::Uniform {
            injection_rate: 0.5,
        };
        let base =
            ActivityTrace::generate(&mut RunCtx::serial().with_seed(99), &m, &p, 64).unwrap();
        for jobs in [2usize, 4] {
            let t = ActivityTrace::generate(
                &mut RunCtx::new(Engine::new(jobs)).with_seed(99),
                &m,
                &p,
                64,
            )
            .unwrap();
            assert_eq!(t, base, "jobs={jobs}");
        }
        assert!(base.flits() > 0);
        assert!(base.total_events() >= base.flits());
    }

    #[test]
    fn trace_conserves_hops() {
        // With flights clipped at the trace end, total events never
        // exceed flits × longest route.
        let m = NocMesh::new(3, 3).unwrap();
        let p = TrafficPattern::Uniform {
            injection_rate: 1.0,
        };
        let t = ActivityTrace::generate(&mut RunCtx::serial().with_seed(5), &m, &p, 40).unwrap();
        assert_eq!(t.flits(), 9 * 40);
        assert!(t.total_events() <= t.flits() * 5);
        assert_eq!(t.cycle_counts(0).len(), 9);
    }

    #[test]
    fn generation_rejects_bad_inputs() {
        let m = NocMesh::new(2, 2).unwrap();
        let bad = TrafficPattern::Uniform {
            injection_rate: 2.0,
        };
        assert!(ActivityTrace::generate(&mut RunCtx::serial(), &m, &bad, 10).is_err());
        let ok = TrafficPattern::Uniform {
            injection_rate: 0.1,
        };
        assert!(ActivityTrace::generate(&mut RunCtx::serial(), &m, &ok, 0).is_err());
    }
}
