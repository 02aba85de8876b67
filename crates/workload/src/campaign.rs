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
//!    scan layer's campaign sweep, streamed record-by-record
//!    ([`NocWorkload::run_streamed`]) with flat memory.
//!
//! The stream is bit-identical at any worker count, and a
//! `psnt-fault` plan on the context degrades faulted sites instead of
//! aborting the campaign.

use psnt_cells::units::{Current, Resistance, Time, Voltage};
use psnt_core::system::SensorConfig;
use psnt_ctx::RunCtx;
use psnt_engine::RetryPolicy;
use psnt_obs::{Observer, Span};
use psnt_pdn::grid::{PowerGrid, DELTA_LANES};
use psnt_pdn::waveform::Waveform;
use psnt_scan::campaign::{Campaign, DegradationSummary, StreamRecord};
use psnt_scan::floorplan::Floorplan;
use psnt_scan::ScanError;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{CheckpointPolicy, WorkloadCheckpoint, CHECKPOINT_VERSION};
use crate::driver::{resume_refused, CycleDriver, Shared};
use crate::error::WorkloadError;
use crate::noc::NocMesh;
use crate::stepper::{CycleStepper, GridScan, StepperSnapshot};
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

    /// The grid node under each sensor site, in floorplan order.
    pub(crate) fn site_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.campaign.floorplan().sites().iter().map(|s| s.tile)
    }

    /// The open loop's per-site rail recorder, empty.
    fn rail_recorder(&self) -> RailRecorder {
        let site_nodes: Vec<usize> = self.site_nodes().collect();
        RailRecorder {
            // One allocation per site up front: `vec![v; n]` would clone
            // `v`, and a clone of an empty vector has no capacity.
            site_points: (0..site_nodes.len())
                .map(|_| Vec::with_capacity(self.config.cycles))
                .collect(),
            site_nodes,
            nodes: self.campaign.floorplan().grid().tiles(),
            dt: self.config.cycle_time,
        }
    }

    /// Runs the campaign: traffic → per-cycle sparse solves → resilient
    /// multi-site sweep at the window centres. Every per-site series and
    /// frame goes through `sink` as a [`StreamRecord`] instead of
    /// accumulating in memory — the path that keeps a 256-site
    /// campaign's footprint flat.
    ///
    /// # Errors
    ///
    /// Propagates solver and campaign errors; a sink error aborts the
    /// run and is returned. Per-site failures (e.g. a `psnt-fault`
    /// [`SitePanic`](psnt_fault::Fault::SitePanic) on the context)
    /// degrade instead of aborting.
    pub fn run_streamed(
        &self,
        ctx: &mut RunCtx<'_>,
        retry: RetryPolicy,
        sink: impl FnMut(StreamRecord) -> Result<(), ScanError>,
    ) -> Result<StreamedNocResult, WorkloadError> {
        self.run_streamed_checkpointed(ctx, retry, &CheckpointPolicy::none(), None, sink)
    }

    /// [`NocWorkload::run_streamed`] under a checkpoint policy,
    /// optionally resuming from a snapshot: the cycle loop writes
    /// `policy.path` at its cadence and on any supervisor trip, and an
    /// interrupted-then-resumed run is **bit-identical**, record for
    /// record, to an uninterrupted one at any worker count.
    ///
    /// The resume snapshot must come from the same workload config and
    /// seed. The scan sweep after the cycle loop is never checkpointed:
    /// a resumed run repeats it from the start, which changes nothing in
    /// the output.
    ///
    /// # Errors
    ///
    /// As [`NocWorkload::run_streamed`], plus
    /// [`WorkloadError::Interrupted`] when the context's supervisor
    /// trips in the cycle loop (a final checkpoint is written first when
    /// a path is configured), [`WorkloadError::Checkpoint`] on snapshot
    /// I/O failures, and [`WorkloadError::InvalidConfig`] for a
    /// mismatched resume snapshot. A supervisor trip during the sweep
    /// itself surfaces as the stream's terminal
    /// [`StreamRecord::Aborted`] record and is not checkpointed.
    pub fn run_streamed_checkpointed(
        &self,
        ctx: &mut RunCtx<'_>,
        retry: RetryPolicy,
        policy: &CheckpointPolicy,
        resume: Option<&WorkloadCheckpoint>,
        sink: impl FnMut(StreamRecord) -> Result<(), ScanError>,
    ) -> Result<StreamedNocResult, WorkloadError> {
        let rails = self.drive(ctx, policy, resume, self.rail_recorder())?;
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

/// The open loop's half of the cycle: one rail knot per sensor site per
/// cycle, sampled at the cycle midpoint.
struct RailRecorder {
    /// The grid node each sensor site sits on.
    site_nodes: Vec<usize>,
    site_points: Vec<Vec<(Time, f64)>>,
    /// Grid nodes in total.
    nodes: usize,
    dt: Time,
}

impl RailRecorder {
    /// The instant cycle `c`'s rail knots sit at.
    fn midpoint(&self, c: usize) -> Time {
        self.dt * (c as f64 + 0.5)
    }
}

impl CycleDriver for RailRecorder {
    type Checkpoint = WorkloadCheckpoint;
    type Output = Rails;

    fn lanes(&self) -> usize {
        DELTA_LANES
    }

    /// The open loop only reads the grid, so planning ahead changes no
    /// cycle.
    fn plans_ahead(&self) -> bool {
        true
    }

    fn span(&self, obs: &mut Observer, cycles: usize) -> Span {
        obs.begin_span("workload_solve")
            .attr("cycles", &(cycles as u64))
            .attr("nodes", &(self.nodes as u64))
    }

    fn shared(ckpt: &WorkloadCheckpoint) -> Shared<'_> {
        (ckpt.version, ckpt.seed, &ckpt.stepper, &ckpt.stats_done)
    }

    fn restore(
        &mut self,
        ckpt: &WorkloadCheckpoint,
        stepper: &CycleStepper<'_>,
    ) -> Result<(), WorkloadError> {
        let sites = self.site_points.len();
        if ckpt.site_points.len() != sites {
            return Err(resume_refused(format!(
                "{} site series captured, floorplan has {sites}",
                ckpt.site_points.len()
            )));
        }
        let done = stepper.cycle();
        for (k, series) in ckpt.site_points.iter().enumerate() {
            if series.len() != done {
                return Err(resume_refused(format!(
                    "site {k} captured {} rail points, cycle {done} expects {done}",
                    series.len()
                )));
            }
            if let Some(c) = (0..done).find(|&c| series[c].0 != self.midpoint(c)) {
                return Err(resume_refused(format!(
                    "site {k}'s rail point {c} is not at cycle {c}'s midpoint"
                )));
            }
            self.site_points[k] = series.clone();
        }
        Ok(())
    }

    fn cycle(
        &mut self,
        c: usize,
        _scan: &GridScan,
        stepper: &mut CycleStepper<'_>,
    ) -> Result<(), WorkloadError> {
        let t_c = self.midpoint(c);
        for (points, &nd) in self.site_points.iter_mut().zip(&self.site_nodes) {
            points.push((t_c, stepper.voltages()[nd]));
        }
        Ok(())
    }

    fn checkpoint(
        &self,
        seed: u64,
        stepper: StepperSnapshot,
        stats_done: Vec<WindowStats>,
    ) -> WorkloadCheckpoint {
        WorkloadCheckpoint {
            version: CHECKPOINT_VERSION,
            seed,
            stepper,
            stats_done,
            site_points: self.site_points.clone(),
        }
    }

    fn finish(
        self,
        profile: NoiseProfile,
        obs: Option<&mut Observer>,
    ) -> Result<Rails, WorkloadError> {
        if let Some(obs) = obs {
            let windows = profile.windows.len() as f64;
            obs.metrics.gauge_set_max("workload.windows", windows);
        }
        let mut tile_supplies = vec![Waveform::constant(profile.v_nom); self.nodes];
        for (points, &nd) in self.site_points.into_iter().zip(&self.site_nodes) {
            tile_supplies[nd] = Waveform::from_points(points)?;
        }
        Ok(Rails {
            tile_supplies,
            instants: profile.windows.iter().map(|w| w.instant).collect(),
            profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnt_engine::Engine;
    use psnt_fault::{Fault, FaultPlan};
    use psnt_scan::campaign::{CampaignResult, ResilientCampaignResult, SiteOutcome};

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
        let out = collected(&w, &mut RunCtx::serial().with_seed(17), RetryPolicy::none()).unwrap();
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
        let base = collected(&w, &mut RunCtx::serial().with_seed(3), RetryPolicy::none()).unwrap();
        for jobs in [2usize, 4] {
            let out = collected(
                &w,
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
    fn fault_plan_degrades_sites_without_aborting() {
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let plan = || FaultPlan::new().with(Fault::SitePanic { site: 2 });
        let out = collected(
            &w,
            &mut RunCtx::serial().with_seed(5).with_fault_plan(plan()),
            RetryPolicy::none(),
        )
        .unwrap();
        assert_eq!(out.result.summary.sites_degraded, 1);
        assert!(matches!(
            out.result.outcomes[2],
            SiteOutcome::Degraded { .. }
        ));
        // A retry recovers the attempt-0-only panic.
        let recovered = collected(
            &w,
            &mut RunCtx::serial().with_seed(5).with_fault_plan(plan()),
            RetryPolicy::attempts(2),
        )
        .unwrap();
        assert_eq!(recovered.result.summary.sites_degraded, 0);
    }

    fn ckpt_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("psnt-ckpt-{tag}-{}.json", std::process::id()))
    }

    /// A whole run: the stream's records reassembled in memory, plus
    /// the noise profile.
    #[derive(Debug, PartialEq)]
    struct Collected {
        result: ResilientCampaignResult,
        profile: NoiseProfile,
    }

    /// The streamed checkpointed path, its records collected in memory
    /// so a run compares whole against another.
    fn run_collected(
        w: &NocWorkload,
        ctx: &mut RunCtx<'_>,
        retry: RetryPolicy,
        policy: &CheckpointPolicy,
        resume: Option<&WorkloadCheckpoint>,
    ) -> Result<Collected, WorkloadError> {
        let mut records = Vec::new();
        let out = w.run_streamed_checkpointed(ctx, retry, policy, resume, |r| {
            records.push(r);
            Ok(())
        })?;
        let result = collect(records);
        assert_eq!(out.summary, result.summary);
        Ok(Collected {
            result,
            profile: out.profile,
        })
    }

    /// An uncheckpointed run under `retry`, collected.
    fn collected(
        w: &NocWorkload,
        ctx: &mut RunCtx<'_>,
        retry: RetryPolicy,
    ) -> Result<Collected, WorkloadError> {
        run_collected(w, ctx, retry, &CheckpointPolicy::none(), None)
    }

    #[test]
    fn cancel_at_fault_checkpoints_and_resumes_bit_identically() {
        use psnt_sup::Interrupt;
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let full = collected(&w, &mut RunCtx::serial().with_seed(5), RetryPolicy::none()).unwrap();
        let path = ckpt_path("cancel");
        // Cadence far past the horizon: only the trip writes.
        let policy = CheckpointPolicy::to_path(&path, 1000);
        let mut ctx = RunCtx::serial()
            .with_seed(5)
            .with_fault_plan(FaultPlan::new().with(Fault::CancelAt { cycle: 30 }));
        let err = run_collected(&w, &mut ctx, RetryPolicy::none(), &policy, None).unwrap_err();
        assert_eq!(err, WorkloadError::Interrupted(Interrupt::Cancelled));
        let ckpt = WorkloadCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.cycle(), 30, "interrupted exactly at the faulted cycle");
        let resumed = run_collected(
            &w,
            &mut RunCtx::serial().with_seed(5),
            RetryPolicy::none(),
            &CheckpointPolicy::none(),
            Some(&ckpt),
        )
        .unwrap();
        assert_eq!(resumed, full, "interrupted-then-resumed ≡ uninterrupted");
        // A mismatched seed is refused instead of silently diverging.
        let err = run_collected(
            &w,
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

    /// A closed-loop chip whose rails sit inside the sensor's dynamic
    /// range, so a throttle actually engages.
    fn closed_loop_chip() -> NocWorkload {
        let mut cfg = NocWorkloadConfig::small_2x2();
        cfg.v_pad = psnt_cells::units::Voltage::from_v(1.0);
        cfg.flit_current = Current::from_ma(40.0);
        cfg.pattern = TrafficPattern::Bursty {
            injection_rate: 0.9,
            on_cycles: 12,
            off_cycles: 18,
        };
        NocWorkload::new(cfg).unwrap()
    }

    /// Rewrites a closed-loop checkpoint file in the parent layout: the
    /// deepest droop, its cycle, the engaged cycles and the controller's
    /// actuation stored next to the traces they derive from.
    fn write_parent_format(path: &std::path::Path) {
        use serde::{json, Value};
        let Value::Map(mut entries) = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
        else {
            panic!("a checkpoint is a JSON object");
        };
        let ckpt = Value::Map(entries.clone());
        let droop: Vec<f64> = ckpt
            .get("droop_trace")
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .map(|d| d.as_f64().unwrap())
            .collect();
        let (mut worst, mut worst_cycle) = (0.0f64, 0u64);
        for (c, &d) in droop.iter().enumerate() {
            if d > worst {
                worst = d;
                worst_cycle = c as u64;
            }
        }
        let engaged = ckpt
            .get("actuation_trace")
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .filter(|s| {
                ["stretched", "throttled", "boosted"]
                    .iter()
                    .any(|k| s.get(k).and_then(Value::as_u64) != Some(0))
            })
            .count();
        let act = ckpt
            .get("stepper")
            .and_then(|s| s.get("act"))
            .unwrap()
            .clone();
        entries.push(("worst_droop".into(), Value::F64(worst)));
        entries.push(("worst_droop_cycle".into(), Value::U64(worst_cycle)));
        entries.push(("engaged_cycles".into(), Value::U64(engaged as u64)));
        entries.push(("act".into(), act));
        std::fs::write(path, json::render(&Value::Map(entries))).unwrap();
    }

    #[test]
    fn cadence_checkpoints_are_resumable_mid_run() {
        // Open loop.
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let path = ckpt_path("cadence");
        let policy = CheckpointPolicy::to_path(&path, 16);
        let full = run_collected(
            &w,
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
        let resumed = run_collected(
            &w,
            &mut RunCtx::serial().with_seed(9),
            RetryPolicy::none(),
            &CheckpointPolicy::none(),
            Some(&ckpt),
        )
        .unwrap();
        assert_eq!(resumed, full);
        std::fs::remove_file(&path).ok();

        // Closed loop: a throttle observing codes at latency 2.
        use crate::checkpoint::MitigatedCheckpoint;
        use psnt_control::ThresholdThrottle;
        let w = closed_loop_chip();
        let path = ckpt_path("cadence-closed");
        let policy = CheckpointPolicy::to_path(&path, 16);
        let mk = || ThresholdThrottle::new(4, 6, 7).unwrap();
        let run = |ctrl: &mut ThresholdThrottle,
                   policy: &CheckpointPolicy,
                   resume: Option<&MitigatedCheckpoint>| {
            w.run_mitigated_checkpointed(
                &mut RunCtx::serial().with_seed(9),
                Some(ctrl),
                2,
                policy,
                resume,
            )
            .unwrap()
        };
        let full = run(&mut mk(), &policy, None);
        assert!(full.engaged_cycles > 0, "loop actually closed");
        assert_eq!(full, run(&mut mk(), &CheckpointPolicy::none(), None));
        let ckpt = MitigatedCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.cycle(), 48);
        assert_eq!(ckpt.in_flight.len(), 2);
        let resumed = run(&mut mk(), &CheckpointPolicy::none(), Some(&ckpt));
        assert_eq!(resumed, full, "closed loop resumed from a cadence snapshot");

        // The same snapshot in the parent layout, with the four fields
        // this build derives instead of storing, loads and resumes
        // bit-identically.
        write_parent_format(&path);
        let text = std::fs::read_to_string(&path).unwrap();
        for field in [
            "worst_droop",
            "worst_droop_cycle",
            "engaged_cycles",
            "\"act\"",
        ] {
            assert!(text.contains(field), "parent layout lacks {field}");
        }
        let parent = MitigatedCheckpoint::load(&path).unwrap();
        assert_eq!(parent, ckpt);
        let resumed = run(&mut mk(), &CheckpointPolicy::none(), Some(&parent));
        assert_eq!(resumed, full, "parent-format checkpoint resumed");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_failed_save_closes_the_run_span() {
        use psnt_obs::Observer;
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).unwrap();
        let path = std::env::temp_dir()
            .join(format!("psnt-no-such-dir-{}", std::process::id()))
            .join("run.ckpt");
        let mut obs = Observer::ring(4096);
        let mut ctx = RunCtx::serial().with_seed(3).with_observer(&mut obs);
        let err = w
            .run_streamed_checkpointed(
                &mut ctx,
                RetryPolicy::none(),
                &CheckpointPolicy::to_path(&path, 4),
                None,
                |_| Ok(()),
            )
            .unwrap_err();
        drop(ctx);
        assert!(matches!(err, WorkloadError::Checkpoint { .. }), "{err:?}");
        let solve = obs.trace_records().last().unwrap();
        assert_eq!(solve.name, "workload_solve", "the run span was closed");
        let probe = obs.begin_span("probe");
        obs.end_span(probe);
        let probe = obs.trace_records().last().unwrap();
        assert_eq!(probe.name, "probe");
        assert_eq!(probe.parent, None, "no dead span left open");
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
        w.run_streamed(&mut ctx, RetryPolicy::none(), |_| Ok(()))
            .unwrap();
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
            fn workload_bit_identity_across_workers(
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
                let base = collected(&w, &mut RunCtx::serial().with_seed(seed), RetryPolicy::none())
                    .unwrap();
                for jobs in [2, 4] {
                    let par = collected(
                        &w,
                        &mut RunCtx::new(Engine::new(jobs)).with_seed(seed),
                        RetryPolicy::none(),
                    )
                    .unwrap();
                    prop_assert_eq!(&par, &base, "jobs {}", jobs);
                }
            }
        }
    }
}
