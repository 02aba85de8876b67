//! The cycle-stepped co-simulation core.
//!
//! [`CycleStepper`] decomposes one workload cycle into the stages the
//! batch pipeline used to fuse: **activity source** (the seed-split
//! injection plan from [`ActivityTrace::plan`], walked flit-by-flit) →
//! **current map** (per-tile switching counts scaled by the actuation's
//! clock-stretch into node loads) → **grid state** (one in-place
//! [`PowerGrid::update_delta`](psnt_pdn::grid::PowerGrid::update_delta)
//! per changed cycle, plus the supply-boost overlay). The sense-frame
//! stage sits in the drivers: the batch paths sample node voltages into
//! rail waveforms, the mitigated driver senses thermometer codes with
//! [`SensorSystem::measure_value`](psnt_core::SensorSystem::measure_value)
//! every cycle.
//!
//! Driven with a neutral [`Actuation`], the stepper is **bit-identical**
//! to the old fused loop: flights advance one hop per cycle exactly as
//! the trace overlay accumulated them (`u32` adds commute), a stretch
//! scale of 1.0 reproduces raw counts exactly (`⌊count · 1.0⌋ =
//! count`), changed-tile detection walks tiles in the same order with
//! the same load arithmetic, and a zero boost skips the overlay
//! entirely so solutions are returned by reference. The equivalence
//! proptests in `tests/stepper_equiv.rs` pin this cycle by cycle.
//!
//! Control enters through exactly one door: [`CycleStepper::apply`]
//! stores the [`Actuation`] a [`Mitigator`](psnt_control::Mitigator)
//! derived from cycle *t*'s codes, and the next [`CycleStepper::step`]
//! (cycle *t + 1*) honours it — throttled tiles defer their planned
//! injections into a FIFO that drains one flit per cycle on release,
//! stretched tiles scale their switching counts, boosted tiles see
//! their block nodes lifted after the solve.

use std::collections::VecDeque;

use psnt_control::Actuation;
use psnt_ctx::RunCtx;
use psnt_pdn::grid::GridSolution;
use serde::{Deserialize, Serialize};

use crate::campaign::NocWorkload;
use crate::error::WorkloadError;
use crate::noc::ActivityTrace;

/// A flit in flight: its XY route and the hop it occupies this cycle.
#[derive(Debug, Clone)]
struct Flight {
    route: Vec<usize>,
    hop: usize,
}

/// A serializable image of a [`CycleStepper`]'s dynamic state.
///
/// The injection plan is deliberately **not** captured: it is a pure
/// function of the run seed and workload config, so a resumed run
/// rebuilds it through [`CycleStepper::new`] and
/// [`CycleStepper::restore`] only reinstates the cursors into it. That
/// keeps snapshots small (no replanning data) and makes a stale
/// snapshot detectable — restoring against a different seed or config
/// fails fast on the planned-flit fingerprint instead of silently
/// diverging.
///
/// The grid solution is captured verbatim rather than re-solved at
/// restore: the delta-solve chain is bit-exact only when it continues
/// from the same floating-point state it was interrupted in.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepperSnapshot {
    cursors: Vec<usize>,
    deferred: Vec<Vec<u32>>,
    flights: Vec<(Vec<usize>, usize)>,
    counts: Vec<u32>,
    eff_counts: Vec<u32>,
    prev_eff: Vec<u32>,
    sol: Option<GridSolution>,
    boosted: Vec<f64>,
    boost_active: bool,
    act: Actuation,
    cycle: usize,
    delta_solves: u64,
    planned_flits: u64,
    spawned_flits: u64,
}

impl StepperSnapshot {
    /// The cycle the snapshot was taken at (the next
    /// [`CycleStepper::step`] after restore simulates this index).
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    /// Flits the captured run had released into the mesh.
    pub fn spawned_flits(&self) -> u64 {
        self.spawned_flits
    }
}

/// The per-cycle co-simulation engine over one [`NocWorkload`].
///
/// Construct with [`CycleStepper::new`], then call
/// [`CycleStepper::step`] once per cycle; the grid-state accessors
/// ([`voltages`](CycleStepper::voltages),
/// [`hotspot`](CycleStepper::hotspot),
/// [`solution`](CycleStepper::solution)) describe the cycle most
/// recently stepped.
#[derive(Debug)]
pub struct CycleStepper<'w> {
    workload: &'w NocWorkload,
    /// Planned `(cycle, dst)` injections per source tile, cycle order.
    injections: Vec<Vec<(u32, u32)>>,
    /// Next unconsumed plan entry per source tile.
    cursors: Vec<usize>,
    /// Destinations of flits a throttle held back, per source tile.
    deferred: Vec<VecDeque<u32>>,
    flights: Vec<Flight>,
    counts: Vec<u32>,
    eff_counts: Vec<u32>,
    prev_eff: Vec<u32>,
    sol: Option<GridSolution>,
    /// The cycle's changed `(node, load)` set, reused across cycles.
    changed: Vec<(usize, f64)>,
    boosted: Vec<f64>,
    boost_active: bool,
    act: Actuation,
    cycle: usize,
    delta_solves: u64,
    planned_flits: u64,
    spawned_flits: u64,
}

impl<'w> CycleStepper<'w> {
    /// Plans the traffic (in parallel on the context's engine,
    /// seed-split from `ctx.seed()` — bit-identical at any worker
    /// count) and arms the stepper at cycle 0 with a neutral actuation.
    ///
    /// # Errors
    ///
    /// Propagates [`ActivityTrace::plan`] validation errors.
    pub fn new(
        workload: &'w NocWorkload,
        ctx: &mut RunCtx<'_>,
    ) -> Result<CycleStepper<'w>, WorkloadError> {
        let cfg = workload.config();
        let injections = ActivityTrace::plan(ctx, workload.mesh(), &cfg.pattern, cfg.cycles)?;
        let tiles = workload.mesh().tiles();
        let planned_flits = injections.iter().map(|v| v.len() as u64).sum();
        Ok(CycleStepper {
            workload,
            injections,
            cursors: vec![0; tiles],
            deferred: vec![VecDeque::new(); tiles],
            flights: Vec::new(),
            counts: vec![0; tiles],
            eff_counts: vec![0; tiles],
            prev_eff: vec![0; tiles],
            sol: None,
            changed: Vec::new(),
            boosted: Vec::new(),
            boost_active: false,
            act: Actuation::neutral(tiles),
            cycle: 0,
            delta_solves: 0,
            planned_flits,
            spawned_flits: 0,
        })
    }

    /// Applies `act` to every subsequent cycle (the sanctioned mutation
    /// interface — cycle *t*'s observation actuates cycle *t + 1*).
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] when the actuation's
    /// domain count differs from the mesh tile count.
    pub fn apply(&mut self, act: &Actuation) -> Result<(), WorkloadError> {
        let tiles = self.workload.mesh().tiles();
        if act.domains() != tiles {
            return Err(WorkloadError::InvalidConfig {
                name: "actuation",
                reason: format!("{} domains for a {tiles}-tile mesh", act.domains()),
            });
        }
        self.act = act.clone();
        Ok(())
    }

    /// Simulates one cycle through all stages; returns the index of the
    /// cycle just computed. Stepping past the planned horizon is legal:
    /// injections are exhausted and activity decays to idle.
    ///
    /// # Errors
    ///
    /// Propagates PDN solver errors.
    pub fn step(&mut self) -> Result<usize, WorkloadError> {
        let c = self.cycle;
        let tiles = self.workload.mesh().tiles();

        // Stage 1 — activity source: spawn this cycle's planned
        // injections; throttled tiles defer them instead. A released
        // backlog drains only into idle injection slots (cycles the
        // plan injects nothing), so a tile's injection rate never
        // exceeds the pattern's own peak and lifting a throttle cannot
        // re-create the droop it avoided. Then advance every flight
        // one hop. Counts are additive, so flight order is irrelevant
        // and the neutral path reproduces the trace overlay exactly.
        for t in 0..tiles {
            let throttled = self.act.throttled(t);
            let mut injected = false;
            while self.cursors[t] < self.injections[t].len()
                && self.injections[t][self.cursors[t]].0 as usize == c
            {
                let (_, dst) = self.injections[t][self.cursors[t]];
                self.cursors[t] += 1;
                if throttled {
                    self.deferred[t].push_back(dst);
                } else {
                    self.spawn(t, dst);
                    injected = true;
                }
            }
            if !throttled && !injected {
                if let Some(dst) = self.deferred[t].pop_front() {
                    self.spawn(t, dst);
                }
            }
        }
        self.counts.fill(0);
        let CycleStepper {
            flights, counts, ..
        } = self;
        flights.retain_mut(|f| {
            counts[f.route[f.hop]] += 1;
            f.hop += 1;
            f.hop < f.route.len()
        });

        // Stage 2 — current map: clock-stretch scales activity. At
        // scale 1.0, ⌊count · 1.0⌋ recovers the raw count exactly.
        for t in 0..tiles {
            self.eff_counts[t] = (f64::from(self.counts[t]) * self.act.stretch(t)).floor() as u32;
        }

        // Stage 3 — grid state: full sparse solve at cycle 0, then one
        // in-place delta update per cycle whose effective counts moved
        // (the same arithmetic as `PowerGrid::solve_delta`, minus the
        // clone; the changed set and the solve scratch are reused).
        let grid = self.workload.campaign().floorplan().grid();
        let node_load = self.workload.node_load_fn();
        if let Some(sol) = self.sol.as_mut() {
            // PDN HOT LOOP START
            self.changed.clear();
            for t in 0..tiles {
                if self.eff_counts[t] != self.prev_eff[t] {
                    let l = node_load(self.eff_counts[t]);
                    self.changed
                        .extend(self.workload.block_nodes(t).iter().map(|&nd| (nd, l)));
                }
            }
            if !self.changed.is_empty() {
                grid.update_delta(sol, &self.changed)?;
                self.delta_solves += 1;
            }
            // PDN HOT LOOP END
        } else {
            let mut loads = vec![0.0; grid.tiles()];
            for t in 0..tiles {
                let l = node_load(self.eff_counts[t]);
                for &nd in self.workload.block_nodes(t) {
                    loads[nd] = l;
                }
            }
            self.sol = Some(grid.solve_sparse(&loads)?);
        }
        self.prev_eff.copy_from_slice(&self.eff_counts);

        // Stage 3b — supply-boost overlay: a post-solve lift of the
        // boosted tiles' block nodes (a header-switch model, not a
        // re-solve). Skipped entirely when every boost is zero, so the
        // uncontrolled path hands back solver output untouched.
        self.boost_active = (0..tiles).any(|t| self.act.boost(t) > 0.0);
        if self.boost_active {
            let sol = self.sol.as_ref().expect("solved above");
            self.boosted.clear();
            self.boosted.extend_from_slice(sol.voltages());
            for t in 0..tiles {
                let b = self.act.boost(t);
                if b > 0.0 {
                    for &nd in self.workload.block_nodes(t) {
                        self.boosted[nd] += b;
                    }
                }
            }
        }

        self.cycle = c + 1;
        Ok(c)
    }

    fn spawn(&mut self, src: usize, dst: u32) {
        self.spawned_flits += 1;
        self.flights.push(Flight {
            route: self.workload.mesh().route_xy(src, dst as usize),
            hop: 0,
        });
    }

    /// Raw per-tile switching counts of the last stepped cycle.
    pub fn raw_counts(&self) -> &[u32] {
        &self.counts
    }

    /// Stretch-scaled per-tile counts of the last stepped cycle (what
    /// the grid actually saw).
    pub fn effective_counts(&self) -> &[u32] {
        &self.eff_counts
    }

    /// Node voltages of the last stepped cycle, boost overlay included.
    ///
    /// # Panics
    ///
    /// Panics before the first [`CycleStepper::step`].
    pub fn voltages(&self) -> &[f64] {
        if self.boost_active {
            &self.boosted
        } else {
            self.solution().voltages()
        }
    }

    /// The raw solver output of the last stepped cycle (pre-boost).
    ///
    /// # Panics
    ///
    /// Panics before the first [`CycleStepper::step`].
    pub fn solution(&self) -> &GridSolution {
        self.sol.as_ref().expect("step() the stepper first")
    }

    /// The worst (lowest) node voltage of the last stepped cycle with
    /// its node index, boost overlay included. Ties resolve to the
    /// first minimum, exactly like [`GridSolution::hotspot`].
    ///
    /// # Panics
    ///
    /// Panics before the first [`CycleStepper::step`].
    pub fn hotspot(&self) -> (usize, f64) {
        if self.boost_active {
            let (idx, &worst) = self
                .boosted
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("grid has at least one tile");
            (idx, worst)
        } else {
            self.solution().hotspot()
        }
    }

    /// The actuation currently in force.
    pub fn actuation(&self) -> &Actuation {
        &self.act
    }

    /// Cycles stepped so far (the next [`CycleStepper::step`] simulates
    /// this cycle index).
    pub fn cycle(&self) -> usize {
        self.cycle
    }

    /// Incremental solves issued so far.
    pub fn delta_solves(&self) -> u64 {
        self.delta_solves
    }

    /// Flits the traffic plan injects over the whole run — the value
    /// the batch path reports as `workload.flits`.
    pub fn planned_flits(&self) -> u64 {
        self.planned_flits
    }

    /// Flits actually released into the mesh so far (planned minus the
    /// throttle backlog).
    pub fn spawned_flits(&self) -> u64 {
        self.spawned_flits
    }

    /// Flits currently held back by throttles, across all tiles.
    pub fn deferred_backlog(&self) -> usize {
        self.deferred.iter().map(VecDeque::len).sum()
    }

    /// Captures the stepper's dynamic state for checkpointing. The
    /// snapshot restores onto a fresh stepper built over the **same
    /// workload and seed** (see [`CycleStepper::restore`]).
    pub fn snapshot(&self) -> StepperSnapshot {
        StepperSnapshot {
            cursors: self.cursors.clone(),
            deferred: self
                .deferred
                .iter()
                .map(|q| q.iter().copied().collect())
                .collect(),
            flights: self
                .flights
                .iter()
                .map(|f| (f.route.clone(), f.hop))
                .collect(),
            counts: self.counts.clone(),
            eff_counts: self.eff_counts.clone(),
            prev_eff: self.prev_eff.clone(),
            sol: self.sol.clone(),
            boosted: self.boosted.clone(),
            boost_active: self.boost_active,
            act: self.act.clone(),
            cycle: self.cycle,
            delta_solves: self.delta_solves,
            planned_flits: self.planned_flits,
            spawned_flits: self.spawned_flits,
        }
    }

    /// Reinstates a [`StepperSnapshot`] taken from an identically
    /// configured run, after which stepping continues bit-identically
    /// to the uninterrupted run — the delta-solve chain picks up from
    /// the captured floating-point state, not a fresh solve.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] when the snapshot does
    /// not match this stepper's mesh geometry or traffic plan (wrong
    /// seed, config, or a corrupted snapshot).
    pub fn restore(&mut self, snap: &StepperSnapshot) -> Result<(), WorkloadError> {
        let tiles = self.workload.mesh().tiles();
        let invalid = |reason: String| WorkloadError::InvalidConfig {
            name: "snapshot",
            reason,
        };
        if snap.cursors.len() != tiles
            || snap.deferred.len() != tiles
            || snap.counts.len() != tiles
            || snap.eff_counts.len() != tiles
            || snap.prev_eff.len() != tiles
        {
            return Err(invalid(format!(
                "snapshot covers {} tiles, mesh has {tiles}",
                snap.cursors.len()
            )));
        }
        if snap.planned_flits != self.planned_flits {
            return Err(invalid(format!(
                "snapshot plans {} flits, this run plans {} — different seed or traffic config",
                snap.planned_flits, self.planned_flits
            )));
        }
        if snap.act.domains() != tiles {
            return Err(invalid(format!(
                "snapshot actuation has {} domains for a {tiles}-tile mesh",
                snap.act.domains()
            )));
        }
        for (t, &cur) in snap.cursors.iter().enumerate() {
            if cur > self.injections[t].len() {
                return Err(invalid(format!(
                    "cursor {cur} past tile {t}'s plan of {} injections",
                    self.injections[t].len()
                )));
            }
        }
        if snap.flights.iter().any(|(route, hop)| *hop >= route.len()) {
            return Err(invalid("a flight's hop is past its route".into()));
        }
        self.cursors.copy_from_slice(&snap.cursors);
        self.deferred = snap
            .deferred
            .iter()
            .map(|v| v.iter().copied().collect())
            .collect();
        self.flights = snap
            .flights
            .iter()
            .map(|(route, hop)| Flight {
                route: route.clone(),
                hop: *hop,
            })
            .collect();
        self.counts.copy_from_slice(&snap.counts);
        self.eff_counts.copy_from_slice(&snap.eff_counts);
        self.prev_eff.copy_from_slice(&snap.prev_eff);
        self.sol = snap.sol.clone();
        self.boosted = snap.boosted.clone();
        self.boost_active = snap.boost_active;
        self.act = snap.act.clone();
        self.cycle = snap.cycle;
        self.delta_solves = snap.delta_solves;
        self.spawned_flits = snap.spawned_flits;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::NocWorkloadConfig;
    use crate::noc::NocMesh;
    use crate::traffic::TrafficPattern;

    fn stepper_workload() -> NocWorkload {
        NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap()
    }

    #[test]
    fn neutral_stepper_reproduces_the_activity_trace() {
        let w = stepper_workload();
        let cfg = w.config();
        let trace = ActivityTrace::generate(
            &mut RunCtx::serial().with_seed(41),
            w.mesh(),
            &cfg.pattern,
            cfg.cycles,
        )
        .unwrap();
        let mut s = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(41)).unwrap();
        assert_eq!(s.planned_flits(), trace.flits());
        for c in 0..cfg.cycles {
            assert_eq!(s.step().unwrap(), c);
            assert_eq!(s.raw_counts(), trace.cycle_counts(c), "cycle {c}");
            assert_eq!(s.effective_counts(), trace.cycle_counts(c), "cycle {c}");
        }
        assert_eq!(s.spawned_flits(), trace.flits());
        assert_eq!(s.deferred_backlog(), 0);
        assert!(s.delta_solves() > 0);
    }

    #[test]
    fn throttle_defers_and_drains_injections() {
        let mut cfg = NocWorkloadConfig::small_2x2();
        cfg.pattern = TrafficPattern::Uniform {
            injection_rate: 1.0,
        };
        cfg.cycles = 30;
        cfg.measure_every = 10;
        let w = NocWorkload::new(cfg).unwrap();
        let mut s = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(7)).unwrap();
        let mut act = Actuation::neutral(4);
        for t in 0..4 {
            act.set_throttle(t, true);
        }
        s.apply(&act).unwrap();
        for _ in 0..10 {
            s.step().unwrap();
        }
        // Rate-1.0 traffic: every tile planned one flit per cycle, all
        // of them held back.
        assert_eq!(s.deferred_backlog(), 40);
        assert_eq!(s.spawned_flits(), 0);
        assert_eq!(s.raw_counts(), &[0, 0, 0, 0]);
        // Release: deferred flits drain only into idle injection
        // slots, so while rate-1.0 traffic keeps planning flits the
        // backlog holds level instead of doubling the injection rate.
        s.apply(&Actuation::neutral(4)).unwrap();
        s.step().unwrap();
        assert_eq!(s.deferred_backlog(), 40);
        assert!(s.spawned_flits() > 0);
        for _ in 11..30 {
            s.step().unwrap();
        }
        // Plan exhausted: the backlog now drains one flit per tile per
        // cycle until empty.
        s.step().unwrap();
        assert_eq!(s.deferred_backlog(), 36);
        while s.deferred_backlog() > 0 {
            s.step().unwrap();
        }
        assert_eq!(s.spawned_flits(), s.planned_flits());
    }

    #[test]
    fn stretch_scales_effective_counts_down() {
        let mut cfg = NocWorkloadConfig::small_2x2();
        cfg.pattern = TrafficPattern::Uniform {
            injection_rate: 1.0,
        };
        let w = NocWorkload::new(cfg).unwrap();
        let mut s = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(3)).unwrap();
        let mut act = Actuation::neutral(4);
        act.set_stretch(1, 0.5);
        s.apply(&act).unwrap();
        for _ in 0..5 {
            s.step().unwrap();
        }
        let raw = s.raw_counts()[1];
        assert_eq!(s.effective_counts()[1], raw / 2, "⌊count/2⌋");
        assert_eq!(s.effective_counts()[0], s.raw_counts()[0]);
    }

    #[test]
    fn boost_lifts_only_the_boosted_block() {
        let w = stepper_workload();
        let mut s = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(11)).unwrap();
        s.step().unwrap();
        let (node, v) = s.hotspot();
        assert_eq!(s.solution().hotspot(), (node, v));
        let mut act = Actuation::neutral(4);
        act.set_boost(2, 0.05);
        s.apply(&act).unwrap();
        s.step().unwrap();
        let boosted = s.voltages();
        let raw = s.solution().voltages();
        for t in 0..4 {
            for &nd in w.block_nodes(t) {
                let lift = boosted[nd] - raw[nd];
                if t == 2 {
                    assert!((lift - 0.05).abs() < 1e-12, "boosted block lifts");
                } else {
                    assert_eq!(lift, 0.0, "tile {t} untouched");
                }
            }
        }
    }

    #[test]
    fn apply_rejects_wrong_domain_count() {
        let w = stepper_workload();
        let mut s = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(1)).unwrap();
        let err = s.apply(&Actuation::neutral(3)).unwrap_err();
        assert!(matches!(
            err,
            WorkloadError::InvalidConfig {
                name: "actuation",
                ..
            }
        ));
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let w = stepper_workload();
        let cycles = w.config().cycles;
        let half = cycles / 2;
        // Reference: run straight through, with a mid-run actuation so
        // the snapshot carries non-trivial control state.
        let mut act = Actuation::neutral(4);
        act.set_stretch(1, 0.5);
        act.set_boost(2, 0.03);
        act.set_throttle(3, true);
        let mut full = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(41)).unwrap();
        let mut snap = None;
        let mut reference = Vec::new();
        for c in 0..cycles {
            if c == half / 2 {
                full.apply(&act).unwrap();
            }
            full.step().unwrap();
            if c + 1 == half {
                snap = Some(full.snapshot());
            }
            if c >= half {
                reference.push((full.voltages().to_vec(), full.raw_counts().to_vec()));
            }
        }
        let snap = snap.unwrap();
        assert_eq!(snap.cycle(), half);
        // Resume: fresh stepper, same seed, restore, continue.
        let mut resumed = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(41)).unwrap();
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.cycle(), half);
        assert_eq!(resumed.actuation(), &act);
        for (v, raw) in &reference {
            resumed.step().unwrap();
            assert_eq!(resumed.voltages(), &v[..], "voltages bit-identical");
            assert_eq!(resumed.raw_counts(), &raw[..]);
        }
        assert_eq!(resumed.delta_solves(), full.delta_solves());
        assert_eq!(resumed.spawned_flits(), full.spawned_flits());
    }

    #[test]
    fn restore_rejects_mismatched_snapshots() {
        let w = stepper_workload();
        let mut s = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(41)).unwrap();
        s.step().unwrap();
        let snap = s.snapshot();
        // Different seed → different plan fingerprint.
        let mut other = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(42)).unwrap();
        if other.planned_flits() != s.planned_flits() {
            let err = other.restore(&snap).unwrap_err();
            assert!(matches!(
                err,
                WorkloadError::InvalidConfig {
                    name: "snapshot",
                    ..
                }
            ));
        }
        // Different mesh geometry.
        let mut cfg = NocWorkloadConfig::small_2x2();
        cfg.mesh_rows = 4;
        cfg.mesh_cols = 4;
        let big = NocWorkload::new(cfg).unwrap();
        let mut wrong = CycleStepper::new(&big, &mut RunCtx::serial().with_seed(41)).unwrap();
        let err = wrong.restore(&snap).unwrap_err();
        assert!(matches!(
            err,
            WorkloadError::InvalidConfig {
                name: "snapshot",
                ..
            }
        ));
    }

    #[test]
    fn stepping_past_the_horizon_decays_to_idle() {
        let w = stepper_workload();
        let cycles = w.config().cycles;
        let mut s = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(2)).unwrap();
        for _ in 0..cycles {
            s.step().unwrap();
        }
        // Longest route on a 2×2 mesh is 3 hops; soon after the plan
        // ends the mesh is empty.
        for _ in 0..4 {
            s.step().unwrap();
        }
        assert_eq!(s.raw_counts(), &[0, 0, 0, 0]);
        let mesh = NocMesh::new(2, 2).unwrap();
        assert_eq!(mesh.route_xy(0, 3).len(), 3);
    }
}
