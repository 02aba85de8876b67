//! The chip-scale workload campaign: NoC activity → tile currents →
//! incremental PDN solves → multi-site measurement.
//!
//! [`NocWorkload`] glues the layers end to end:
//!
//! 1. [`ActivityTrace`](crate::noc::ActivityTrace) turns seed-split
//!    traffic streams into per-mesh-tile switching counts;
//! 2. each mesh tile's current (`idle + flit·count`) is spread over its
//!    block of power-grid nodes, and the grid solution is updated in
//!    place every cycle through [`PowerGrid::update_delta`] — only
//!    blocks whose activity changed enter the right-hand side, so a
//!    1,600-node grid sustains 1,000-cycle campaigns in well under a
//!    second;
//! 3. the per-site rail waveforms and window-centre instants feed the
//!    scan layer's `from_rails` entry points, in memory
//!    ([`NocWorkload::run`]) or streamed record-by-record
//!    ([`NocWorkload::run_streamed`]) with flat memory.
//!
//! Both paths are bit-identical at any worker count, and a
//! `psnt-fault` plan on the context degrades faulted sites instead of
//! aborting the campaign.

use psnt_cells::units::{Current, Resistance, Time, Voltage};
use psnt_core::system::SensorConfig;
use psnt_ctx::RunCtx;
use psnt_engine::RetryPolicy;
use psnt_pdn::grid::PowerGrid;
use psnt_pdn::waveform::Waveform;
use psnt_scan::campaign::{Campaign, DegradationSummary, ResilientCampaignResult, StreamRecord};
use psnt_scan::floorplan::Floorplan;
use psnt_scan::ScanError;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{CheckpointPolicy, WorkloadCheckpoint, CHECKPOINT_VERSION};
use crate::error::WorkloadError;
use crate::noc::NocMesh;
use crate::stepper::CycleStepper;
use crate::traffic::TrafficPattern;

/// Full description of a workload-driven campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocWorkloadConfig {
    /// Mesh rows (routers).
    pub mesh_rows: usize,
    /// Mesh columns (routers).
    pub mesh_cols: usize,
    /// Sensor sites per mesh tile.
    pub sites_per_tile: usize,
    /// Power-grid rows (must be a multiple of `mesh_rows`).
    pub grid_rows: usize,
    /// Power-grid columns (must be a multiple of `mesh_cols`).
    pub grid_cols: usize,
    /// Nominal pad voltage.
    pub v_pad: Voltage,
    /// Mesh segment resistance.
    pub r_mesh: Resistance,
    /// Pad connection resistance.
    pub r_pad: Resistance,
    /// Pad positions as `(row, col)` grid coordinates.
    pub pads: Vec<(usize, usize)>,
    /// The traffic pattern driving the mesh.
    pub pattern: TrafficPattern,
    /// Cycles to simulate.
    pub cycles: usize,
    /// NoC clock period (one activity step per cycle).
    pub cycle_time: Time,
    /// Baseline current of an idle mesh tile.
    pub idle_current: Current,
    /// Extra current per router switching event.
    pub flit_current: Current,
    /// Cycles per measurement window; each window is measured once at
    /// its centre cycle. Trailing cycles that do not fill a window are
    /// simulated but not measured.
    pub measure_every: usize,
    /// The sensor dropped on every site.
    pub sensor: SensorConfig,
}

impl NocWorkloadConfig {
    /// The campaign-scale reference chip: an 8×8 mesh on a 40×40 grid
    /// (5×5 nodes per tile), 4 sensor sites per tile → 256 sites, fed
    /// by a ring of eight pads, running 1,000 cycles of uniform
    /// traffic measured every 100 cycles.
    pub fn chip_8x8() -> NocWorkloadConfig {
        NocWorkloadConfig {
            mesh_rows: 8,
            mesh_cols: 8,
            sites_per_tile: 4,
            grid_rows: 40,
            grid_cols: 40,
            v_pad: Voltage::from_v(1.05),
            r_mesh: Resistance::from_milliohms(120.0),
            r_pad: Resistance::from_milliohms(20.0),
            pads: vec![(0, 0), (0, 39), (39, 0), (39, 39)],
            pattern: TrafficPattern::Uniform {
                injection_rate: 0.25,
            },
            cycles: 1000,
            cycle_time: Time::from_ns(1.0),
            idle_current: Current::from_ma(8.0),
            flit_current: Current::from_ma(2.0),
            measure_every: 100,
            sensor: SensorConfig::default(),
        }
    }

    /// A small smoke-test chip: 2×2 mesh on an 8×8 grid, one site per
    /// tile, 60 cycles measured every 20 — the shape the equivalence
    /// tests and proptests use.
    pub fn small_2x2() -> NocWorkloadConfig {
        NocWorkloadConfig {
            mesh_rows: 2,
            mesh_cols: 2,
            sites_per_tile: 1,
            grid_rows: 8,
            grid_cols: 8,
            v_pad: Voltage::from_v(1.05),
            r_mesh: Resistance::from_milliohms(60.0),
            r_pad: Resistance::from_milliohms(20.0),
            pads: vec![(0, 0), (0, 7), (7, 0), (7, 7)],
            pattern: TrafficPattern::Uniform {
                injection_rate: 0.4,
            },
            cycles: 60,
            cycle_time: Time::from_ns(1.0),
            idle_current: Current::from_ma(8.0),
            flit_current: Current::from_ma(4.0),
            measure_every: 20,
            sensor: SensorConfig::default(),
        }
    }
}

/// Noise statistics of one measurement window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// Window index.
    pub window: usize,
    /// First cycle of the window.
    pub start_cycle: usize,
    /// The instant the scan campaign measures this window (its centre
    /// cycle's midpoint).
    pub instant: Time,
    /// Worst (lowest) node voltage anywhere on the grid in the window.
    pub min_v: f64,
    /// Grid node holding the worst voltage.
    pub worst_node: usize,
    /// Mean node voltage over the window's cycles.
    pub mean_v: f64,
    /// Mean total chip current over the window, in amperes.
    pub mean_current: f64,
    /// Router switching events inside the window.
    pub events: u64,
}

/// The cycle-wise noise profile of a workload run: one
/// [`WindowStats`] per measurement window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NoiseProfile {
    /// Nominal rail voltage (pads).
    pub v_nom: f64,
    /// Per-window statistics, in time order.
    pub windows: Vec<WindowStats>,
    /// Flits injected over the whole run.
    pub flits: u64,
}

impl NoiseProfile {
    /// The window with the deepest droop.
    pub fn worst(&self) -> Option<&WindowStats> {
        self.windows
            .iter()
            .min_by(|a, b| a.min_v.total_cmp(&b.min_v))
    }

    /// Worst droop below nominal, in volts.
    pub fn worst_droop(&self) -> f64 {
        self.worst().map_or(0.0, |w| self.v_nom - w.min_v)
    }
}

/// An in-memory workload campaign result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocCampaignResult {
    /// The scan campaign's (possibly partially degraded) result.
    pub result: ResilientCampaignResult,
    /// The PDN-side noise profile.
    pub profile: NoiseProfile,
}

/// The summary a streamed workload campaign returns after every record
/// has gone through the sink.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamedNocResult {
    /// Degradation summary of the scan sweep.
    pub summary: DegradationSummary,
    /// The PDN-side noise profile.
    pub profile: NoiseProfile,
}

/// Solved rails ready for the scan layer.
struct Rails {
    tile_supplies: Vec<Waveform>,
    instants: Vec<Time>,
    profile: NoiseProfile,
}

/// A workload-driven many-core campaign over an instrumented chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NocWorkload {
    config: NocWorkloadConfig,
    mesh: NocMesh,
    campaign: Campaign,
    /// Grid nodes of each mesh tile's block, row-major by mesh tile.
    block_nodes: Vec<Vec<usize>>,
}

impl NocWorkload {
    /// Validates the configuration and builds the instrumented chip:
    /// power grid, mesh floorplan ([`Floorplan::mesh`]) and scan
    /// campaign.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidConfig`] for bad workload
    /// parameters and propagates grid/floorplan/sensor validation.
    pub fn new(config: NocWorkloadConfig) -> Result<NocWorkload, WorkloadError> {
        config.pattern.validate()?;
        if config.cycles == 0 {
            return Err(WorkloadError::InvalidConfig {
                name: "cycles",
                reason: "need at least one cycle".into(),
            });
        }
        if config.measure_every == 0 || config.measure_every > config.cycles {
            return Err(WorkloadError::InvalidConfig {
                name: "measure_every",
                reason: format!(
                    "window of {} cycles must be in [1, {}]",
                    config.measure_every, config.cycles
                ),
            });
        }
        if config.cycle_time <= Time::ZERO {
            return Err(WorkloadError::InvalidConfig {
                name: "cycle_time",
                reason: "cycle time must be positive".into(),
            });
        }
        for (name, i) in [
            ("idle_current", config.idle_current),
            ("flit_current", config.flit_current),
        ] {
            if !i.amps().is_finite() || i.amps() < 0.0 {
                return Err(WorkloadError::InvalidConfig {
                    name,
                    reason: format!("{} A must be finite and non-negative", i.amps()),
                });
            }
        }
        let mesh = NocMesh::new(config.mesh_rows, config.mesh_cols)?;
        let grid = PowerGrid::new(
            config.grid_rows,
            config.grid_cols,
            config.v_pad,
            config.r_mesh,
            config.r_pad,
            config.pads.clone(),
        )?;
        let floorplan = Floorplan::mesh(
            grid,
            config.mesh_rows,
            config.mesh_cols,
            config.sites_per_tile,
        )?;
        let campaign = Campaign::new(floorplan, config.sensor.clone())?;
        let (block_rows, block_cols) = (
            config.grid_rows / config.mesh_rows,
            config.grid_cols / config.mesh_cols,
        );
        let mut block_nodes = Vec::with_capacity(mesh.tiles());
        for mr in 0..config.mesh_rows {
            for mc in 0..config.mesh_cols {
                let mut nodes = Vec::with_capacity(block_rows * block_cols);
                for r in mr * block_rows..(mr + 1) * block_rows {
                    for c in mc * block_cols..(mc + 1) * block_cols {
                        nodes.push(r * config.grid_cols + c);
                    }
                }
                block_nodes.push(nodes);
            }
        }
        Ok(NocWorkload {
            config,
            mesh,
            campaign,
            block_nodes,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &NocWorkloadConfig {
        &self.config
    }

    /// The router mesh.
    pub fn mesh(&self) -> &NocMesh {
        &self.mesh
    }

    /// The underlying scan campaign (floorplan, chain, sensor).
    pub fn campaign(&self) -> &Campaign {
        &self.campaign
    }

    /// Number of measurement windows.
    pub fn windows(&self) -> usize {
        self.config.cycles / self.config.measure_every
    }

    /// Grid nodes of mesh tile `tile`'s power block.
    pub fn block_nodes(&self, tile: usize) -> &[usize] {
        &self.block_nodes[tile]
    }

    /// The per-node load model: `idle + flit·count` spread over the
    /// tile's block. One closure shared by the stepper and any driver
    /// so both sides compute bit-identical currents.
    pub(crate) fn node_load_fn(&self) -> impl Fn(u32) -> f64 {
        let block = self.block_nodes[0].len() as f64;
        let idle_node = self.config.idle_current.amps() / block;
        let flit_node = self.config.flit_current.amps() / block;
        move |count: u32| idle_node + flit_node * f64::from(count)
    }

    /// Drives the [`CycleStepper`] through the whole run with a neutral
    /// actuation and collects rails + noise profile — the batch entry
    /// points are thin drivers over the per-cycle core.
    fn solve_rails(&self, ctx: &mut RunCtx<'_>) -> Result<Rails, WorkloadError> {
        self.solve_rails_checkpointed(ctx, &CheckpointPolicy::none(), None)
    }

    /// The supervised, resumable cycle loop behind every batch entry
    /// point. With a detached supervisor, no checkpoint policy and no
    /// resume snapshot this is exactly the old unsupervised loop —
    /// supervision costs one atomic load per cycle.
    ///
    /// The context's supervisor is checked once per cycle; a trip
    /// writes a final checkpoint (when `policy.path` is set) and
    /// surfaces as [`WorkloadError::Interrupted`]. Harness-level
    /// faults on the context drive deterministic chaos:
    /// [`Fault::CancelAt`](psnt_fault::Fault::CancelAt) cancels the
    /// supervisor's token at exactly that cycle, and
    /// [`Fault::DeadlineTrip`](psnt_fault::Fault::DeadlineTrip) trips
    /// the wall-clock deadline at the run's midpoint.
    fn solve_rails_checkpointed(
        &self,
        ctx: &mut RunCtx<'_>,
        policy: &CheckpointPolicy,
        resume: Option<&WorkloadCheckpoint>,
    ) -> Result<Rails, WorkloadError> {
        let cfg = &self.config;
        let mut stepper = CycleStepper::new(self, ctx)?;
        if let Some(obs) = ctx.observer() {
            obs.metrics
                .counter_add("workload.flits", stepper.planned_flits());
        }
        let grid = self.campaign.floorplan().grid();
        let n = grid.tiles();
        let v_nom = grid.v_pad().volts();
        let dt = cfg.cycle_time;
        let windows = self.windows();

        let mut solve_span = ctx.observer().map(|o| {
            o.begin_span("workload_solve")
                .attr("cycles", &(cfg.cycles as u64))
                .attr("nodes", &(n as u64))
                .sim_interval_ps(0.0, (dt * cfg.cycles as f64).picoseconds())
        });

        let site_nodes: Vec<usize> = self
            .campaign
            .floorplan()
            .sites()
            .iter()
            .map(|s| s.tile)
            .collect();
        let mut site_points: Vec<Vec<(Time, f64)>> =
            vec![Vec::with_capacity(cfg.cycles); site_nodes.len()];
        let mut stats = self.window_stats_shell();

        let mut start = 0usize;
        if let Some(ckpt) = resume {
            start = self.restore_solve_state(
                ctx,
                ckpt,
                &mut stepper,
                &mut stats,
                &mut site_points,
                site_nodes.len(),
            )?;
        }

        let sup = ctx.supervisor().clone();
        let cancel_at = ctx.fault_plan().and_then(|p| p.cancel_at_cycle());
        let trip_deadline_at = ctx
            .fault_plan()
            .is_some_and(|p| p.deadline_trip())
            .then_some(cfg.cycles / 2);
        let seed = ctx.seed();
        let cadence = policy.every.or_else(|| sup.budget().checkpoint_cadence());
        let snapshot = |stepper: &CycleStepper<'_>,
                        stats: &[WindowStats],
                        site_points: &[Vec<(Time, f64)>]| {
            let done = stepper.cycle();
            let touched = done.div_ceil(cfg.measure_every).min(windows);
            WorkloadCheckpoint {
                version: CHECKPOINT_VERSION,
                seed,
                stepper: stepper.snapshot(),
                stats_done: stats[..touched].to_vec(),
                site_points: site_points.to_vec(),
            }
        };

        for c in start..cfg.cycles {
            if cancel_at == Some(c as u64) {
                sup.token().cancel();
            }
            if trip_deadline_at == Some(c) {
                sup.force_expire();
            }
            if let Err(reason) = sup.check() {
                if let Some(path) = policy.path.as_deref() {
                    snapshot(&stepper, &stats, &site_points).save(path)?;
                }
                if let (Some(obs), Some(span)) = (ctx.observer(), solve_span.take()) {
                    obs.end_span(span);
                }
                return Err(WorkloadError::Interrupted(reason));
            }
            sup.charge_events(1);
            stepper.step()?;
            let t_c = dt * (c as f64 + 0.5);
            for (k, &nd) in site_nodes.iter().enumerate() {
                site_points[k].push((t_c, stepper.voltages()[nd]));
            }
            self.accumulate_window(&mut stats, c, &stepper, n);
            if let (Some(every), Some(path)) = (cadence, policy.path.as_deref()) {
                if (c as u64 + 1).is_multiple_of(every) && c + 1 < cfg.cycles {
                    snapshot(&stepper, &stats, &site_points).save(path)?;
                }
            }
        }

        if let Some(obs) = ctx.observer() {
            obs.metrics
                .counter_add("workload.delta_solves", stepper.delta_solves());
            obs.metrics
                .gauge_set_max("workload.windows", windows as f64);
        }
        if let (Some(obs), Some(span)) = (ctx.observer(), solve_span.take()) {
            obs.end_span(span);
        }

        let mut tile_supplies = vec![Waveform::constant(v_nom); n];
        for (k, points) in site_points.into_iter().enumerate() {
            tile_supplies[site_nodes[k]] = Waveform::from_points(points)?;
        }
        Ok(Rails {
            tile_supplies,
            instants: stats.iter().map(|w| w.instant).collect(),
            profile: NoiseProfile {
                v_nom,
                windows: stats,
                flits: stepper.planned_flits(),
            },
        })
    }

    /// Reinstates a solve checkpoint into a freshly planned run;
    /// returns the cycle the loop continues from.
    fn restore_solve_state(
        &self,
        ctx: &RunCtx<'_>,
        ckpt: &WorkloadCheckpoint,
        stepper: &mut CycleStepper<'_>,
        stats: &mut [WindowStats],
        site_points: &mut [Vec<(Time, f64)>],
        sites: usize,
    ) -> Result<usize, WorkloadError> {
        let invalid = |reason: String| WorkloadError::InvalidConfig {
            name: "resume",
            reason,
        };
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(invalid(format!(
                "checkpoint schema version {}, this build reads {CHECKPOINT_VERSION}",
                ckpt.version
            )));
        }
        if ckpt.seed != ctx.seed() {
            return Err(invalid(format!(
                "checkpoint was captured under seed {}, this run uses {}",
                ckpt.seed,
                ctx.seed()
            )));
        }
        stepper.restore(&ckpt.stepper)?;
        let done = stepper.cycle();
        let touched = done.div_ceil(self.config.measure_every).min(self.windows());
        if ckpt.stats_done.len() != touched {
            return Err(invalid(format!(
                "{} windows captured, cycle {done} expects {touched}",
                ckpt.stats_done.len()
            )));
        }
        stats[..touched].clone_from_slice(&ckpt.stats_done);
        if ckpt.site_points.len() != sites {
            return Err(invalid(format!(
                "{} site series captured, floorplan has {sites}",
                ckpt.site_points.len()
            )));
        }
        for (k, series) in ckpt.site_points.iter().enumerate() {
            if series.len() != done {
                return Err(invalid(format!(
                    "site {k} captured {} rail points, cycle {done} expects {done}",
                    series.len()
                )));
            }
            site_points[k] = series.clone();
        }
        Ok(done)
    }

    /// Empty per-window statistics, one per measurement window.
    pub(crate) fn window_stats_shell(&self) -> Vec<WindowStats> {
        let cfg = &self.config;
        (0..self.windows())
            .map(|w| {
                let centre = w * cfg.measure_every + cfg.measure_every / 2;
                WindowStats {
                    window: w,
                    start_cycle: w * cfg.measure_every,
                    instant: cfg.cycle_time * (centre as f64 + 0.5),
                    min_v: f64::INFINITY,
                    worst_node: 0,
                    mean_v: 0.0,
                    mean_current: 0.0,
                    events: 0,
                }
            })
            .collect()
    }

    /// Folds the stepper's cycle-`c` grid state into its window's
    /// statistics — the same arithmetic, in the same order, as the old
    /// fused loop, so stepped profiles stay bit-identical.
    pub(crate) fn accumulate_window(
        &self,
        stats: &mut [WindowStats],
        c: usize,
        stepper: &CycleStepper<'_>,
        n: usize,
    ) {
        if let Some(w) = stats.get_mut(c / self.config.measure_every) {
            let (node, v_min) = stepper.hotspot();
            if v_min < w.min_v {
                w.min_v = v_min;
                w.worst_node = node;
            }
            let me = self.config.measure_every as f64;
            w.mean_v += stepper.voltages().iter().sum::<f64>() / (n as f64 * me);
            w.mean_current += stepper.solution().loads().iter().sum::<f64>() / me;
            w.events += stepper
                .raw_counts()
                .iter()
                .map(|&x| u64::from(x))
                .sum::<u64>();
        }
    }

    /// Runs the campaign in memory: traffic → per-cycle sparse solves →
    /// resilient multi-site sweep at the window centres.
    ///
    /// # Errors
    ///
    /// Propagates solver and campaign errors; per-site failures (e.g. a
    /// `psnt-fault` [`SitePanic`](psnt_fault::Fault::SitePanic) on the
    /// context) degrade instead of aborting.
    pub fn run(
        &self,
        ctx: &mut RunCtx<'_>,
        retry: RetryPolicy,
    ) -> Result<NocCampaignResult, WorkloadError> {
        let rails = self.solve_rails(ctx)?;
        let result = self.campaign.run_resilient_from_rails(
            ctx,
            rails.tile_supplies,
            None,
            rails.instants,
            retry,
        )?;
        Ok(NocCampaignResult {
            result,
            profile: rails.profile,
        })
    }

    /// Runs the campaign streamed: identical results to
    /// [`NocWorkload::run`], but every per-site series and frame goes
    /// through `sink` as a [`StreamRecord`] instead of accumulating in
    /// memory — the path that keeps a 256-site campaign's footprint
    /// flat.
    ///
    /// # Errors
    ///
    /// As [`NocWorkload::run`]; a sink error aborts the run and is
    /// returned.
    pub fn run_streamed(
        &self,
        ctx: &mut RunCtx<'_>,
        retry: RetryPolicy,
        sink: impl FnMut(StreamRecord) -> Result<(), ScanError>,
    ) -> Result<StreamedNocResult, WorkloadError> {
        let rails = self.solve_rails(ctx)?;
        let summary = self.campaign.run_streamed_from_rails(
            ctx,
            rails.tile_supplies,
            None,
            rails.instants,
            retry,
            sink,
        )?;
        Ok(StreamedNocResult {
            summary,
            profile: rails.profile,
        })
    }

    /// [`NocWorkload::run`] under a checkpoint policy, optionally
    /// resuming from a snapshot: the solve loop writes `policy.path`
    /// at its cadence and on any supervisor trip, and an
    /// interrupted-then-resumed run's result is **bit-identical** to
    /// an uninterrupted one at any worker count.
    ///
    /// The resume snapshot must come from the same workload config and
    /// seed; the scan sweep after the solve is never checkpointed — a
    /// resumed run repeats it from the start, which changes nothing in
    /// the output.
    ///
    /// # Errors
    ///
    /// As [`NocWorkload::run`], plus [`WorkloadError::Interrupted`]
    /// when the context's supervisor trips (a final checkpoint is
    /// written first when a path is configured),
    /// [`WorkloadError::Checkpoint`] on snapshot I/O failures, and
    /// [`WorkloadError::InvalidConfig`] for a mismatched resume
    /// snapshot.
    pub fn run_checkpointed(
        &self,
        ctx: &mut RunCtx<'_>,
        retry: RetryPolicy,
        policy: &CheckpointPolicy,
        resume: Option<&WorkloadCheckpoint>,
    ) -> Result<NocCampaignResult, WorkloadError> {
        let rails = self.solve_rails_checkpointed(ctx, policy, resume)?;
        let result = self.campaign.run_resilient_from_rails(
            ctx,
            rails.tile_supplies,
            None,
            rails.instants,
            retry,
        )?;
        Ok(NocCampaignResult {
            result,
            profile: rails.profile,
        })
    }

    /// [`NocWorkload::run_streamed`] under a checkpoint policy,
    /// optionally resuming from a snapshot — the streamed counterpart
    /// of [`NocWorkload::run_checkpointed`], with the same bit-identity
    /// contract record for record.
    ///
    /// # Errors
    ///
    /// As [`NocWorkload::run_streamed`] plus the checkpoint errors of
    /// [`NocWorkload::run_checkpointed`]. A supervisor trip during the
    /// sweep itself surfaces as the stream's terminal
    /// [`StreamRecord::Aborted`] record and is not checkpointed.
    pub fn run_streamed_checkpointed(
        &self,
        ctx: &mut RunCtx<'_>,
        retry: RetryPolicy,
        policy: &CheckpointPolicy,
        resume: Option<&WorkloadCheckpoint>,
        sink: impl FnMut(StreamRecord) -> Result<(), ScanError>,
    ) -> Result<StreamedNocResult, WorkloadError> {
        let rails = self.solve_rails_checkpointed(ctx, policy, resume)?;
        let summary = self.campaign.run_streamed_from_rails(
            ctx,
            rails.tile_supplies,
            None,
            rails.instants,
            retry,
            sink,
        )?;
        Ok(StreamedNocResult {
            summary,
            profile: rails.profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnt_engine::Engine;
    use psnt_fault::{Fault, FaultPlan};
    use psnt_scan::campaign::{CampaignResult, SiteOutcome};

    #[test]
    fn config_validation_rejects_nonsense() {
        let mut c = NocWorkloadConfig::small_2x2();
        c.cycles = 0;
        assert!(matches!(
            NocWorkload::new(c),
            Err(WorkloadError::InvalidConfig { name: "cycles", .. })
        ));
        let mut c = NocWorkloadConfig::small_2x2();
        c.measure_every = 61;
        assert!(matches!(
            NocWorkload::new(c),
            Err(WorkloadError::InvalidConfig {
                name: "measure_every",
                ..
            })
        ));
        let mut c = NocWorkloadConfig::small_2x2();
        c.flit_current = Current::from_a(-1.0);
        assert!(NocWorkload::new(c).is_err());
        let mut c = NocWorkloadConfig::small_2x2();
        c.mesh_rows = 3; // 3 does not divide 8
        assert!(matches!(
            NocWorkload::new(c),
            Err(WorkloadError::Scan(ScanError::InvalidMesh { .. }))
        ));
    }

    #[test]
    fn chip_8x8_builds_the_campaign_shape() {
        let w = NocWorkload::new(NocWorkloadConfig::chip_8x8()).unwrap();
        assert_eq!(w.campaign().floorplan().sites().len(), 256);
        assert_eq!(w.campaign().floorplan().grid().tiles(), 1600);
        assert_eq!(w.mesh().tiles(), 64);
        assert_eq!(w.windows(), 10);
    }

    #[test]
    fn small_run_produces_profile_and_measurements() {
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let out = w
            .run(&mut RunCtx::serial().with_seed(17), RetryPolicy::none())
            .unwrap();
        assert_eq!(out.result.result.sites.len(), 4);
        assert_eq!(out.result.result.frames.len(), 3);
        assert_eq!(out.profile.windows.len(), 3);
        assert!(out.profile.flits > 0);
        // Activity pulls the rail below nominal somewhere.
        assert!(out.profile.worst_droop() > 0.0);
        for win in &out.profile.windows {
            assert!(win.min_v <= win.mean_v);
            assert!(win.mean_current > 0.0);
        }
        assert!(out
            .result
            .outcomes
            .iter()
            .all(|o| matches!(o, SiteOutcome::Measured)));
    }

    #[test]
    fn run_is_worker_count_independent() {
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let base = w
            .run(&mut RunCtx::serial().with_seed(3), RetryPolicy::none())
            .unwrap();
        for jobs in [2usize, 4] {
            let out = w
                .run(
                    &mut RunCtx::new(Engine::new(jobs)).with_seed(3),
                    RetryPolicy::none(),
                )
                .unwrap();
            assert_eq!(out, base, "jobs={jobs}");
        }
    }

    /// Reassembles a streamed run (mirrors the scan-layer test helper).
    fn collect(records: Vec<StreamRecord>) -> ResilientCampaignResult {
        let mut sites = Vec::new();
        let mut outcomes = Vec::new();
        let mut instants = Vec::new();
        let mut frames = Vec::new();
        let mut summary = None;
        for r in records {
            match r {
                StreamRecord::Site {
                    series, outcome, ..
                } => {
                    sites.push(series);
                    outcomes.push(outcome);
                }
                StreamRecord::Frame { instant, frame, .. } => {
                    instants.push(instant);
                    frames.push(frame);
                }
                StreamRecord::Summary { summary: s, .. } => summary = Some(s),
                StreamRecord::Aborted { reason, .. } => panic!("unexpected abort: {reason}"),
            }
        }
        ResilientCampaignResult {
            result: CampaignResult {
                sites,
                instants,
                frames,
            },
            outcomes,
            summary: summary.expect("missing summary"),
        }
    }

    #[test]
    fn streamed_matches_in_memory_at_any_worker_count() {
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let in_memory = w
            .run(&mut RunCtx::serial().with_seed(29), RetryPolicy::none())
            .unwrap();
        for jobs in [1usize, 4] {
            let mut records = Vec::new();
            let out = w
                .run_streamed(
                    &mut RunCtx::new(Engine::new(jobs)).with_seed(29),
                    RetryPolicy::none(),
                    |r| {
                        records.push(r);
                        Ok(())
                    },
                )
                .unwrap();
            assert_eq!(out.profile, in_memory.profile, "jobs={jobs}");
            assert_eq!(out.summary, in_memory.result.summary, "jobs={jobs}");
            assert_eq!(collect(records), in_memory.result, "jobs={jobs}");
        }
    }

    #[test]
    fn fault_plan_degrades_sites_without_aborting() {
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let plan = || FaultPlan::new().with(Fault::SitePanic { site: 2 });
        let out = w
            .run(
                &mut RunCtx::serial().with_seed(5).with_fault_plan(plan()),
                RetryPolicy::none(),
            )
            .unwrap();
        assert_eq!(out.result.summary.sites_degraded, 1);
        assert!(matches!(
            out.result.outcomes[2],
            SiteOutcome::Degraded { .. }
        ));
        // Streamed path degrades identically.
        let mut records = Vec::new();
        let streamed = w
            .run_streamed(
                &mut RunCtx::serial().with_seed(5).with_fault_plan(plan()),
                RetryPolicy::none(),
                |r| {
                    records.push(r);
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(streamed.summary, out.result.summary);
        assert_eq!(collect(records), out.result);
        // A retry recovers the attempt-0-only panic.
        let recovered = w
            .run(
                &mut RunCtx::serial().with_seed(5).with_fault_plan(plan()),
                RetryPolicy::attempts(2),
            )
            .unwrap();
        assert_eq!(recovered.result.summary.sites_degraded, 0);
    }

    fn ckpt_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("psnt-ckpt-{tag}-{}.json", std::process::id()))
    }

    #[test]
    fn cancel_at_fault_checkpoints_and_resumes_bit_identically() {
        use psnt_sup::Interrupt;
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let full = w
            .run(&mut RunCtx::serial().with_seed(5), RetryPolicy::none())
            .unwrap();
        let path = ckpt_path("cancel");
        // Cadence far past the horizon: only the trip writes.
        let policy = CheckpointPolicy::to_path(&path, 1000);
        let mut ctx = RunCtx::serial()
            .with_seed(5)
            .with_fault_plan(FaultPlan::new().with(Fault::CancelAt { cycle: 30 }));
        let err = w
            .run_checkpointed(&mut ctx, RetryPolicy::none(), &policy, None)
            .unwrap_err();
        assert_eq!(err, WorkloadError::Interrupted(Interrupt::Cancelled));
        let ckpt = WorkloadCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.cycle(), 30, "interrupted exactly at the faulted cycle");
        let resumed = w
            .run_checkpointed(
                &mut RunCtx::serial().with_seed(5),
                RetryPolicy::none(),
                &CheckpointPolicy::none(),
                Some(&ckpt),
            )
            .unwrap();
        assert_eq!(resumed, full, "interrupted-then-resumed ≡ uninterrupted");
        // A mismatched seed is refused instead of silently diverging.
        let err = w
            .run_checkpointed(
                &mut RunCtx::serial().with_seed(6),
                RetryPolicy::none(),
                &CheckpointPolicy::none(),
                Some(&ckpt),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            WorkloadError::InvalidConfig { name: "resume", .. }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn deadline_trip_fault_interrupts_at_midpoint_and_resumes() {
        use psnt_sup::Interrupt;
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let mut records_full = Vec::new();
        let full = w
            .run_streamed(
                &mut RunCtx::serial().with_seed(7),
                RetryPolicy::none(),
                |r| {
                    records_full.push(r);
                    Ok(())
                },
            )
            .unwrap();
        let path = ckpt_path("deadline");
        let policy = CheckpointPolicy::to_path(&path, 1000);
        let mut ctx = RunCtx::serial()
            .with_seed(7)
            .with_fault_plan(FaultPlan::new().with(Fault::DeadlineTrip));
        let mut early = Vec::new();
        let err = w
            .run_streamed_checkpointed(&mut ctx, RetryPolicy::none(), &policy, None, |r| {
                early.push(r);
                Ok(())
            })
            .unwrap_err();
        assert_eq!(err, WorkloadError::Interrupted(Interrupt::DeadlineExpired));
        assert!(early.is_empty(), "solve tripped before the stream started");
        let ckpt = WorkloadCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.cycle(), 30, "deadline trips at the run midpoint");
        let mut records_resumed = Vec::new();
        let resumed = w
            .run_streamed_checkpointed(
                &mut RunCtx::serial().with_seed(7),
                RetryPolicy::none(),
                &CheckpointPolicy::none(),
                Some(&ckpt),
                |r| {
                    records_resumed.push(r);
                    Ok(())
                },
            )
            .unwrap();
        assert_eq!(resumed, full);
        assert_eq!(
            collect(records_resumed),
            collect(records_full),
            "record-for-record identical stream"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn cadence_checkpoints_are_resumable_mid_run() {
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let path = ckpt_path("cadence");
        let policy = CheckpointPolicy::to_path(&path, 16);
        let full = w
            .run_checkpointed(
                &mut RunCtx::serial().with_seed(9),
                RetryPolicy::none(),
                &policy,
                None,
            )
            .unwrap();
        // 60 cycles at cadence 16: snapshots at 16, 32 and 48 — the
        // file on disk holds the last one.
        let ckpt = WorkloadCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.cycle(), 48);
        let resumed = w
            .run_checkpointed(
                &mut RunCtx::serial().with_seed(9),
                RetryPolicy::none(),
                &CheckpointPolicy::none(),
                Some(&ckpt),
            )
            .unwrap();
        assert_eq!(resumed, full);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sink_errors_abort_the_streamed_run() {
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let mut delivered = 0usize;
        let mut terminal = None;
        let err = w
            .run_streamed(
                &mut RunCtx::serial().with_seed(1),
                RetryPolicy::none(),
                |r| {
                    delivered += 1;
                    if let StreamRecord::Aborted {
                        sites_completed,
                        reason,
                    } = r
                    {
                        terminal = Some((sites_completed, reason));
                        return Ok(());
                    }
                    if delivered == 2 {
                        Err(ScanError::InvalidConfig {
                            name: "sink",
                            reason: "full".into(),
                        })
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
        assert!(matches!(
            err,
            WorkloadError::Scan(ScanError::InvalidConfig { name: "sink", .. })
        ));
        // The failed record plus the best-effort terminal abort marker:
        // one site made it downstream before the sink filled up.
        assert_eq!(delivered, 3);
        let (sites_completed, reason) = terminal.expect("terminal abort record");
        assert_eq!(sites_completed, 1);
        assert!(reason.contains("full"), "{reason}");
    }

    #[test]
    fn observer_counts_workload_telemetry() {
        use psnt_obs::Observer;
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let mut obs = Observer::ring(4096);
        let mut ctx = RunCtx::serial().with_seed(9).with_observer(&mut obs);
        w.run(&mut ctx, RetryPolicy::none()).unwrap();
        drop(ctx);
        assert!(obs.metrics.counter_value("workload.flits") > 0);
        assert!(obs.metrics.counter_value("workload.delta_solves") > 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(4))]
            #[test]
            fn workload_bit_identity_across_paths_and_workers(
                seed in 0u64..1000,
                rate in 0.05f64..0.9,
                bursty in any::<bool>(),
            ) {
                let mut cfg = NocWorkloadConfig::small_2x2();
                cfg.cycles = 24;
                cfg.measure_every = 12;
                cfg.pattern = if bursty {
                    TrafficPattern::Bursty {
                        injection_rate: rate,
                        on_cycles: 3,
                        off_cycles: 5,
                    }
                } else {
                    TrafficPattern::Uniform { injection_rate: rate }
                };
                let w = NocWorkload::new(cfg).unwrap();
                let base = w
                    .run(&mut RunCtx::serial().with_seed(seed), RetryPolicy::none())
                    .unwrap();
                let par = w
                    .run(
                        &mut RunCtx::new(Engine::new(4)).with_seed(seed),
                        RetryPolicy::none(),
                    )
                    .unwrap();
                prop_assert_eq!(&par, &base);
                let mut records = Vec::new();
                let streamed = w
                    .run_streamed(
                        &mut RunCtx::new(Engine::new(4)).with_seed(seed),
                        RetryPolicy::none(),
                        |r| {
                            records.push(r);
                            Ok(())
                        },
                    )
                    .unwrap();
                prop_assert_eq!(&streamed.profile, &base.profile);
                prop_assert_eq!(collect(records), base.result);
            }
        }
    }
}
