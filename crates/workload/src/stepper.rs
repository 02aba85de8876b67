//! The cycle-stepped co-simulation core.
//!
//! [`CycleStepper`] decomposes one workload cycle into the stages the
//! batch pipeline used to fuse: **activity source** (the seed-split
//! injection plan from [`ActivityTrace::plan`], walked flit-by-flit) →
//! **current map** (per-tile switching counts scaled by the actuation's
//! clock-stretch into node loads) → **grid state** (one delta update
//! per changed cycle, bit-identical to an in-place
//! [`PowerGrid::update_delta`](psnt_pdn::grid::PowerGrid::update_delta),
//! plus the supply-boost overlay). The sense-frame
//! stage sits in the drivers that plug into the workload's one cycle
//! loop: the open loop samples node voltages into rail waveforms, the
//! closed loop senses thermometer levels with
//! [`SensorSystem::hs_level`](psnt_core::SensorSystem::hs_level)
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
//!
//! [`CycleStepper::step`] runs three crate-private stages on one cycle:
//! `plan` (stages 1–2 and the cycle's grid update written into the next
//! lane of a [`DeltaBatch`]), `settle` (one lane-kernel pass over every
//! planned lane) and `advance` (the planned cycle becomes the stepped
//! one: its counts, `v += dv`, its loads and the boost overlay). The
//! open-loop driver plans up to [`DELTA_LANES`] cycles before it
//! settles; nothing in stages 1–2 reads the grid, and a driver that
//! never calls [`CycleStepper::apply`] keeps the actuation fixed, so
//! planning ahead changes no cycle.

use std::collections::VecDeque;

use psnt_control::{Actuation, MAX_BOOST_V, MIN_STRETCH};
use psnt_ctx::RunCtx;
use psnt_pdn::grid::{DeltaBatch, GridSolution, DELTA_LANES};
use serde::{Deserialize, Serialize};

use crate::campaign::NocWorkload;
use crate::error::WorkloadError;
use crate::noc::ActivityTrace;

/// A flit in flight on its XY route from `src` to `dst`, turning at
/// `turn`: the tile it occupies this cycle is `at`. XY routing is
/// arithmetic ([`NocMesh::xy_next`](crate::noc::NocMesh::xy_next)), so
/// the route itself is never stored; a snapshot rebuilds it, and the
/// flight's hop is `at`'s place on it.
#[derive(Debug, Clone, Copy)]
struct Flight {
    src: u32,
    dst: u32,
    turn: u32,
    at: u32,
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

/// The per-cycle grid statistics of [`CycleStepper::scan`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridScan {
    /// The worst (lowest) node voltage with its node index, boost
    /// overlay included; ties resolve to the first minimum.
    pub hotspot: (usize, f64),
    /// The sum of the node voltages in node order, boost overlay
    /// included.
    pub voltage_sum: f64,
    /// The sum of the node loads (amperes) in node order.
    pub load_sum: f64,
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
    /// Raw and effective counts of the cycles planned ahead, one
    /// `tiles`-long slot per cycle.
    planned_counts: Vec<u32>,
    planned_eff: Vec<u32>,
    /// What each planned cycle does to the grid.
    kinds: [Planned; DELTA_LANES],
    /// Cycles planned in the current batch, and how many of them are
    /// advanced; both return to zero once every planned cycle is.
    planned: usize,
    advanced: usize,
    /// The planned cycles' grid updates.
    batch: DeltaBatch,
}

/// What a planned cycle does to the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Planned {
    /// The run's first cycle, solved in full when planned.
    Initial,
    /// No effective count moved, so the grid stands still.
    Still,
    /// A delta update in the batch.
    Delta,
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
            planned_counts: vec![0; tiles * DELTA_LANES],
            planned_eff: vec![0; tiles * DELTA_LANES],
            kinds: [Planned::Still; DELTA_LANES],
            planned: 0,
            advanced: 0,
            batch: DeltaBatch::new(1),
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
        debug_assert_eq!(self.pending(), 0, "actuation changed under planned cycles");
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
        debug_assert_eq!(self.pending(), 0, "step() with cycles planned ahead");
        self.plan(1)?;
        self.settle();
        Ok(self.advance().expect("one cycle planned"))
    }

    /// Stages 1–2 of the next unplanned cycle, plus its grid update
    /// planned into the next lane of a delta batch `lanes` wide. Cycles
    /// planned ahead of [`CycleStepper::advance`] see the same
    /// actuation, so only a driver that never calls
    /// [`CycleStepper::apply`] between cycles plans more than one (at
    /// most `lanes ≤` [`DELTA_LANES`]).
    ///
    /// The first cycle of a run has no prior solution: it is solved in
    /// full right here, so the solution runs one cycle ahead until that
    /// cycle is advanced.
    pub(crate) fn plan(&mut self, lanes: usize) -> Result<(), WorkloadError> {
        let k = self.planned;
        debug_assert!(k < lanes, "more than {lanes} cycles planned");
        if self.pending() == 0 && self.batch.width() != lanes {
            self.batch = DeltaBatch::new(lanes);
        }
        let c = self.cycle + k;
        let tiles = self.workload.mesh().tiles();
        let slot = k * tiles;

        // PDN HOT LOOP START
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
        let mesh = self.workload.mesh();
        let counts = &mut self.planned_counts[slot..slot + tiles];
        counts.fill(0);
        self.flights.retain_mut(|f| {
            counts[f.at as usize] += 1;
            if f.at == f.dst {
                return false;
            }
            f.at = mesh.xy_next(f.at as usize, f.turn as usize, f.dst as usize) as u32;
            true
        });
        // PDN HOT LOOP END

        // Stage 2 — current map: clock-stretch scales activity. At
        // scale 1.0, ⌊count · 1.0⌋ recovers the raw count exactly.
        let eff = &mut self.planned_eff[slot..slot + tiles];
        for (t, (e, &raw)) in eff.iter_mut().zip(counts.iter()).enumerate() {
            *e = (f64::from(raw) * self.act.stretch(t)).floor() as u32;
        }

        // Stage 3 — grid state: full sparse solve at cycle 0, then one
        // delta update per cycle whose effective counts moved, planned
        // into the batch (the same arithmetic as
        // `PowerGrid::update_delta`; the changed set, the batch and its
        // lanes are reused).
        let grid = self.workload.campaign().floorplan().grid();
        let node_load = self.workload.node_load_fn();
        let kind = if let Some(sol) = self.sol.as_ref() {
            // PDN HOT LOOP START
            self.changed.clear();
            for (t, (&e, &prev)) in eff.iter().zip(&self.prev_eff).enumerate() {
                if e != prev {
                    let l = node_load(e);
                    self.changed
                        .extend(self.workload.block_nodes(t).iter().map(|&nd| (nd, l)));
                }
            }
            if self.changed.is_empty() {
                Planned::Still
            } else {
                grid.plan_delta(&mut self.batch, sol, &self.changed)?;
                Planned::Delta
            }
            // PDN HOT LOOP END
        } else {
            let mut loads = vec![0.0; grid.tiles()];
            for (t, &e) in eff.iter().enumerate() {
                let l = node_load(e);
                for &nd in self.workload.block_nodes(t) {
                    loads[nd] = l;
                }
            }
            self.sol = Some(grid.solve_sparse(&loads)?);
            Planned::Initial
        };
        self.prev_eff.copy_from_slice(eff);
        self.kinds[k] = kind;
        self.planned = k + 1;
        Ok(())
    }

    /// Solves the grid updates of every cycle planned so far in one
    /// pass of the lane kernel.
    pub(crate) fn settle(&mut self) {
        if let Some(sol) = self.sol.as_ref() {
            let grid = self.workload.campaign().floorplan().grid();
            grid.settle_deltas(&mut self.batch, sol);
        }
    }

    /// Makes the oldest planned cycle the stepped one: its counts, its
    /// grid update (`v += dv` and the new loads) and the supply-boost
    /// overlay. Returns its index, or `None` when no cycle is planned.
    pub(crate) fn advance(&mut self) -> Option<usize> {
        // PDN HOT LOOP START
        if self.advanced == self.planned {
            return None;
        }
        let k = self.advanced;
        let tiles = self.workload.mesh().tiles();
        let slot = k * tiles;
        self.counts
            .copy_from_slice(&self.planned_counts[slot..slot + tiles]);
        self.eff_counts
            .copy_from_slice(&self.planned_eff[slot..slot + tiles]);
        if self.kinds[k] == Planned::Delta {
            let sol = self.sol.as_mut().expect("a delta follows a solution");
            self.batch.apply(sol);
            self.delta_solves += 1;
        }
        self.advanced = k + 1;
        if self.advanced == self.planned {
            (self.advanced, self.planned) = (0, 0);
        }
        // PDN HOT LOOP END

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

        let c = self.cycle;
        self.cycle = c + 1;
        Some(c)
    }

    /// Cycles planned and not yet advanced.
    pub(crate) fn pending(&self) -> usize {
        self.planned - self.advanced
    }

    // PDN HOT LOOP START
    fn spawn(&mut self, src: usize, dst: u32) {
        self.spawned_flits += 1;
        let turn = self.workload.mesh().xy_turn(src, dst as usize);
        self.flights.push(Flight {
            src: src as u32,
            dst,
            turn: turn as u32,
            at: src as u32,
        });
    }
    // PDN HOT LOOP END

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

    /// One pass over the last stepped cycle's grid state: the
    /// [`hotspot`](CycleStepper::hotspot) and the voltage and load sums
    /// the window statistics fold in. Each reduction keeps its own
    /// order and start value, so the result is bit-identical to the
    /// three separate passes (`hotspot()`, `Σ voltages()`,
    /// `Σ solution().loads()` by `Iterator::sum`); the fused loop runs
    /// the three independent chains side by side.
    ///
    /// # Panics
    ///
    /// Panics before the first [`CycleStepper::step`].
    pub fn scan(&self) -> GridScan {
        let v = self.voltages();
        // `f64::total_cmp` orders floats as these integer keys do; the
        // running minimum keeps its key, so the compare that carries
        // from node to node is one integer compare.
        let key = |x: f64| {
            let bits = x.to_bits() as i64;
            bits ^ (((bits >> 63) as u64) >> 1) as i64
        };
        let (mut node, mut worst) = (0, key(v[0]));
        // `Iterator::sum`'s start value.
        let (mut voltage_sum, mut load_sum) = (-0.0, -0.0);
        for (i, (&vi, &li)) in v.iter().zip(self.solution().loads()).enumerate() {
            let k = key(vi);
            if k < worst {
                (node, worst) = (i, k);
            }
            voltage_sum += vi;
            load_sum += li;
        }
        GridScan {
            hotspot: (node, v[node]),
            voltage_sum,
            load_sum,
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
        debug_assert_eq!(self.pending(), 0, "snapshot with cycles planned ahead");
        let mesh = self.workload.mesh();
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
                .map(|f| {
                    let route = mesh.route_xy(f.src as usize, f.dst as usize);
                    let hop = route.iter().position(|&t| t == f.at as usize);
                    (route, hop.expect("a flight is on its route"))
                })
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
    /// seed, config, or a corrupted snapshot), or when its actuation
    /// asks for a stretch outside
    /// `[`[`MIN_STRETCH`]`, 1]` or a boost outside `[0, `[`MAX_BOOST_V`]`]`.
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
        // Decoding bypasses the clamping setters, so the snapshot's
        // actuation is held to the same authority here. NaN and ±∞ fail
        // both range tests.
        for t in 0..tiles {
            let (stretch, boost) = (snap.act.stretch(t), snap.act.boost(t));
            if !(MIN_STRETCH..=1.0).contains(&stretch) || !(0.0..=MAX_BOOST_V).contains(&boost) {
                return Err(invalid(format!(
                    "domain {t} actuates stretch {stretch} and boost {boost} V, \
                     outside [{MIN_STRETCH}, 1] and [0, {MAX_BOOST_V}] V"
                )));
            }
        }
        for (t, &cur) in snap.cursors.iter().enumerate() {
            if cur > self.injections[t].len() {
                return Err(invalid(format!(
                    "cursor {cur} past tile {t}'s plan of {} injections",
                    self.injections[t].len()
                )));
            }
        }
        let mesh = self.workload.mesh();
        let mut flights = Vec::with_capacity(snap.flights.len());
        for (route, hop) in &snap.flights {
            let (Some(&src), Some(&dst)) = (route.first(), route.last()) else {
                return Err(invalid("a flight has an empty route".into()));
            };
            if src >= tiles || dst >= tiles || *route != mesh.route_xy(src, dst) {
                return Err(invalid(format!(
                    "flight route {route:?} is not the XY route between its ends"
                )));
            }
            if *hop >= route.len() {
                return Err(invalid("a flight's hop is past its route".into()));
            }
            flights.push(Flight {
                src: src as u32,
                dst: dst as u32,
                turn: mesh.xy_turn(src, dst) as u32,
                at: route[*hop] as u32,
            });
        }
        self.cursors.copy_from_slice(&snap.cursors);
        self.deferred = snap
            .deferred
            .iter()
            .map(|v| v.iter().copied().collect())
            .collect();
        self.flights = flights;
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
        (self.planned, self.advanced) = (0, 0);
        self.batch = DeltaBatch::new(self.batch.width());
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
    fn restore_refuses_routes_that_are_not_xy() {
        let w = stepper_workload();
        let mut s = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(41)).unwrap();
        let snap = loop {
            s.step().unwrap();
            let snap = s.snapshot();
            if snap.flights.iter().any(|(route, _)| route.len() >= 3) {
                break snap;
            }
        };
        let k = snap
            .flights
            .iter()
            .position(|(route, _)| route.len() >= 3)
            .unwrap();
        let refused = |edit: fn(&mut Vec<usize>, &mut usize)| {
            let mut bad = snap.clone();
            let (route, hop) = &mut bad.flights[k];
            edit(route, hop);
            let mut fresh = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(41)).unwrap();
            matches!(
                fresh.restore(&bad),
                Err(WorkloadError::InvalidConfig {
                    name: "snapshot",
                    ..
                })
            )
        };
        // On the 2×2 mesh a three-tile route turns one corner; the
        // same ends the other way round (Y first) is not XY.
        assert!(refused(|r, _| r[1] ^= r[0] ^ r[2]));
        assert!(refused(|r, _| r.insert(0, r[0])));
        assert!(refused(|r, _| r.clear()));
        assert!(refused(|r, _| *r.last_mut().unwrap() = 4));
        assert!(refused(|r, h| *h = r.len()));
        // The unedited snapshot restores and round-trips.
        let mut fresh = CycleStepper::new(&w, &mut RunCtx::serial().with_seed(41)).unwrap();
        fresh.restore(&snap).unwrap();
        assert_eq!(fresh.snapshot(), snap);
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
