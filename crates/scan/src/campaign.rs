//! Measurement campaigns: many sensors, many instants, one noise map.
//!
//! A [`Campaign`] wires the pieces together the way the paper's Fig. 6
//! system would be deployed: per-tile supply waveforms come from the
//! power grid under a workload, each instrumented site measures them
//! with its own array at the campaign's sampling cadence, and every
//! sampling instant's codes are serialized through the scan chain — "a
//! PSN scan chain" in operation.
//!
//! Every entry point runs one sweep. [`Campaign::run_resilient`] solves
//! the rails from per-tile loads and [`Campaign::run_resilient_from_rails`]
//! takes them already solved; both collect in memory the record stream
//! that [`Campaign::run_streamed_from_rails`] hands to a sink.
//!
//! # Examples
//!
//! See `examples/noise_map.rs` for the end-to-end flow; unit tests below
//! exercise the pieces on a small grid.

use psnt_cells::logic::{Logic, LogicVector};
use psnt_cells::units::{Time, Voltage};
use psnt_core::code::ThermometerCode;
use psnt_core::encoder::{Encoder, EncodingPolicy};
use psnt_core::system::{Measurement, SensorConfig, SensorSystem};
use psnt_ctx::RunCtx;
use psnt_engine::{JobOutcome, JobSpec, RetryPolicy};
use psnt_obs::{Event as ObsEvent, Observer, RemoteSpan};
use psnt_pdn::grid::PowerGrid;
use psnt_pdn::waveform::Waveform;
use serde::{Deserialize, Serialize};

use crate::chain::ScanChain;
use crate::error::ScanError;
use crate::floorplan::Floorplan;

/// One site's measurement series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SiteSeries {
    /// Tile index of the site.
    pub tile: usize,
    /// Site instance name.
    pub name: String,
    /// Measurements in time order.
    pub measurements: Vec<Measurement>,
}

impl SiteSeries {
    /// The worst (minimum) HS level observed — the site's deepest droop.
    pub fn worst_level(&self) -> usize {
        self.measurements
            .iter()
            .map(|m| m.hs_word.level)
            .min()
            .unwrap_or(0)
    }

    /// Mean HS level across the series.
    pub fn mean_level(&self) -> f64 {
        if self.measurements.is_empty() {
            return 0.0;
        }
        self.measurements
            .iter()
            .map(|m| m.hs_word.level as f64)
            .sum::<f64>()
            / self.measurements.len() as f64
    }

    /// The lowest decoded supply estimate (interval midpoints only).
    pub fn worst_voltage(&self) -> Option<Voltage> {
        self.measurements
            .iter()
            .filter_map(|m| m.hs_interval.midpoint())
            .min_by(|a, b| a.total_cmp(b))
    }

    /// The worst (minimum) LS level observed — the deepest ground bounce.
    pub fn worst_ls_level(&self) -> usize {
        self.measurements
            .iter()
            .map(|m| m.ls_word.level)
            .min()
            .unwrap_or(0)
    }

    /// The highest decoded ground-bounce estimate (interval midpoints
    /// only).
    pub fn worst_bounce(&self) -> Option<Voltage> {
        self.measurements
            .iter()
            .filter_map(|m| m.ls_interval.midpoint())
            .max_by(|a, b| a.total_cmp(b))
    }
}

/// The result of a campaign run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CampaignResult {
    /// Per-site series, in floorplan site order.
    pub sites: Vec<SiteSeries>,
    /// Sampling instants shared by all sites.
    pub instants: Vec<Time>,
    /// One serialized scan frame per instant.
    pub frames: Vec<psnt_cells::logic::LogicVector>,
}

impl CampaignResult {
    /// The spatial noise map: `(tile, worst level, mean level)` per site.
    pub fn noise_map(&self) -> Vec<(usize, usize, f64)> {
        self.sites
            .iter()
            .map(|s| (s.tile, s.worst_level(), s.mean_level()))
            .collect()
    }

    /// The site with the deepest observed droop.
    pub fn hotspot(&self) -> Option<&SiteSeries> {
        self.sites
            .iter()
            .min_by(|a, b| (a.worst_level(), a.tile).cmp(&(b.worst_level(), b.tile)))
    }
}

/// Per-site outcome of a resilient campaign run
/// ([`Campaign::run_resilient`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SiteOutcome {
    /// The site measured normally (possibly after deterministic
    /// retries).
    Measured,
    /// The site failed every attempt; the campaign degraded it to an
    /// empty series and all-`X` scan-frame bits instead of aborting.
    Degraded {
        /// The stringified failure (sensor error or panic payload).
        error: String,
    },
}

impl SiteOutcome {
    /// True for [`SiteOutcome::Measured`].
    pub fn is_measured(&self) -> bool {
        matches!(self, SiteOutcome::Measured)
    }
}

/// Aggregate degradation report of a resilient campaign run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradationSummary {
    /// Sites that failed every attempt and were degraded.
    pub sites_degraded: usize,
    /// Array elements whose readout never resolved: the largest count
    /// of `X` bits in any captured scan frame (each degraded site
    /// contributes a full array width).
    pub dead_elements: usize,
    /// Worst-case code error across all measured codes: the largest
    /// level disagreement between the bubble-correcting and truncating
    /// encoders — 0 when every captured code was canonical.
    pub worst_code_error: usize,
}

/// The result of a resilient campaign run: the (possibly partial)
/// campaign data plus per-site outcomes and the degradation summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResilientCampaignResult {
    /// The campaign data. Degraded sites appear with empty
    /// measurement series and contribute all-`X` bits to every frame,
    /// so site order, frame geometry and instants are identical to a
    /// fully healthy run.
    pub result: CampaignResult,
    /// One outcome per site, in floorplan site order.
    pub outcomes: Vec<SiteOutcome>,
    /// The aggregate degradation report.
    pub summary: DegradationSummary,
}

/// One record of a streamed campaign run
/// ([`Campaign::run_streamed_from_rails`]).
///
/// Records arrive in a fixed order regardless of worker count: every
/// site in floorplan order, then one frame per sampling instant, then
/// the summary (always last). [`Campaign::run_resilient`] is exactly
/// these records collected into a [`ResilientCampaignResult`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StreamRecord {
    /// One site's completed series and outcome.
    Site {
        /// Floorplan site index.
        site: usize,
        /// The cycle-window index of each sampling instant in the
        /// sweep: measurement `k` of a healthy series belongs to
        /// window `windows[k]` (a degraded site covers none of them).
        /// Site records arrive *before* any frame, so a streaming
        /// consumer can attribute every measurement to its cycle
        /// window without out-of-band bookkeeping.
        windows: Vec<usize>,
        /// The site's measurement series (empty when degraded).
        series: SiteSeries,
        /// Whether the site measured or degraded.
        outcome: SiteOutcome,
    },
    /// One serialized scan frame.
    Frame {
        /// Sampling-instant index (equal to the cycle-window index).
        index: usize,
        /// The sampling instant.
        instant: Time,
        /// The serialized chain frame (degraded sites read out as `X`).
        frame: LogicVector,
    },
    /// The final degradation summary.
    Summary {
        /// Total cycle windows the sweep covered (one per instant).
        windows: usize,
        /// The aggregate degradation report.
        summary: DegradationSummary,
    },
    /// Terminal record of a run that stopped early — a sink failure or
    /// a supervisor trip (cancellation, deadline, budget). Tells the
    /// stream's consumer exactly how many site records were delivered
    /// before the abort, so a truncated stream is always labelled,
    /// never silently cut mid-sweep. Emitted best-effort (a sink that
    /// is itself failing may drop it); the run still returns the error.
    Aborted {
        /// Site records fully delivered to the sink before the abort.
        sites_completed: usize,
        /// Why the run stopped (stringified sink error or interrupt).
        reason: String,
    },
}

impl StreamRecord {
    /// Renders the record as a structured [`psnt_obs`] event so a
    /// streamed campaign can flow straight into any `psnt-obs` sink
    /// (JSONL file, ring buffer, rotating log, …) without buffering.
    pub fn to_event(&self) -> ObsEvent {
        match self {
            StreamRecord::Site {
                site,
                windows,
                series,
                outcome,
            } => {
                let mut e = ObsEvent::new("scan", "stream_site")
                    .field("site", &(*site as u64))
                    .field("windows", &(windows.len() as u64))
                    .field("tile", &(series.tile as u64))
                    .field("name", &series.name)
                    .field("measured", &outcome.is_measured())
                    .field("worst_level", &(series.worst_level() as u64));
                if let SiteOutcome::Degraded { error } = outcome {
                    e = e.field("error", error);
                }
                e
            }
            StreamRecord::Frame {
                index,
                instant,
                frame,
            } => ObsEvent::new("scan", "stream_frame")
                .field("index", &(*index as u64))
                .field("t_ps", &instant.picoseconds())
                .field("bits", &(frame.len() as u64)),
            StreamRecord::Summary { windows, summary } => ObsEvent::new("scan", "stream_summary")
                .field("windows", &(*windows as u64))
                .field("sites_degraded", &(summary.sites_degraded as u64))
                .field("dead_elements", &(summary.dead_elements as u64))
                .field("worst_code_error", &(summary.worst_code_error as u64)),
            StreamRecord::Aborted {
                sites_completed,
                reason,
            } => ObsEvent::new("scan", "stream_aborted")
                .field("sites_completed", &(*sites_completed as u64))
                .field("reason", reason),
        }
    }
}

/// Sites per producer batch of the campaign sweep. Fixed (not
/// worker-count dependent), so chunk boundaries — and therefore record
/// order and seeds — are identical at any worker count.
const STREAM_CHUNK_SITES: usize = 32;

/// Bound of the producer→consumer channel: about two chunks of records
/// may be in flight, which caps peak memory while still letting the
/// workers compute ahead of a slow sink.
const STREAM_CHANNEL_BOUND: usize = 2 * STREAM_CHUNK_SITES;

/// Producer→consumer message of the campaign sweep.
enum StreamMsg {
    Site {
        site: usize,
        outcome: JobOutcome<Result<(SiteSeries, Option<RemoteSpan>), ScanError>>,
    },
    /// A finished chunk's merged worker metrics, sent after its sites
    /// so the observer merge order is deterministic.
    Metrics(Box<psnt_obs::MetricsRegistry>),
    /// The producer's supervisor tripped at a chunk boundary; no
    /// further sites will arrive.
    Interrupted(psnt_sup::Interrupt),
}

/// Where a campaign's rail waveforms come from.
enum Rails<'a> {
    /// Solve the floorplan's grid (and optionally a ground grid) under
    /// per-tile load currents, sampling `samples` instants `dt` apart.
    Solve {
        tile_loads: &'a [Waveform],
        ground_grid: Option<&'a PowerGrid>,
        start: Time,
        dt: Time,
        samples: usize,
    },
    /// Externally solved rails, sampled at explicit instants.
    Given {
        tile_supplies: Vec<Waveform>,
        tile_bounces: Option<Vec<Waveform>>,
        instants: Vec<Time>,
    },
}

/// Everything the per-site sweep needs: validated inputs, solved rail
/// waveforms and the sampling instants.
struct SweepInputs {
    tile_supplies: Vec<Waveform>,
    tile_bounces: Option<Vec<Waveform>>,
    instants: Vec<Time>,
    /// Cycle-window index of each instant (one sweep window per
    /// instant), carried into every streamed `Site` record.
    windows: Vec<usize>,
    v_nom: f64,
    /// Upper end of the solved waveform range — the campaign span's
    /// sim-time interval grows to cover it so the `grid_solve` child
    /// nests inside its parent.
    solve_end: Time,
}

/// A multi-site measurement campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Campaign {
    floorplan: Floorplan,
    config: SensorConfig,
    chain: ScanChain,
}

impl Campaign {
    /// Instruments a floorplan with identical sensor systems (the paper:
    /// identical arrays, "only a control system is required").
    ///
    /// # Errors
    ///
    /// Propagates sensor-configuration validation.
    pub fn new(floorplan: Floorplan, config: SensorConfig) -> Result<Campaign, ScanError> {
        // Validate the configuration once up front.
        let probe = SensorSystem::new(config.clone())?;
        let chain = ScanChain::new(
            floorplan.sites().iter().map(|s| s.name.clone()).collect(),
            probe.hs_array().bits(),
        );
        Ok(Campaign {
            floorplan,
            config,
            chain,
        })
    }

    /// The floorplan under measurement.
    pub fn floorplan(&self) -> &Floorplan {
        &self.floorplan
    }

    /// The readout chain.
    pub fn chain(&self) -> &ScanChain {
        &self.chain
    }

    /// Runs the campaign: solves the grid under `tile_loads` (amperes per
    /// tile), measures every site at `samples` instants spaced `dt` from
    /// `start`, and serializes each instant through the scan chain.
    ///
    /// With a `ground_grid` the return current flows through a ground
    /// mesh and every site's LOW-SENSE array measures the local ground
    /// bounce. The ground grid mirrors the supply grid's geometry (same
    /// placement) with its own mesh/pad resistances; the bounce at a tile
    /// is its IR rise above the board ground, computed from the same
    /// per-tile currents. Without one the ground rail is quiet.
    ///
    /// The campaign **completes with partial results when individual
    /// sites fail**: each site runs as an isolated job
    /// ([`Engine::run_batch_isolated`](psnt_engine::Engine::run_batch_isolated))
    /// under the given deterministic [`RetryPolicy`], and a site whose
    /// every attempt fails is *degraded* — it contributes an empty
    /// measurement series and all-`X` bits to every scan frame — instead
    /// of aborting the run. [`RetryPolicy::none`] on a healthy run is
    /// plain measurement.
    ///
    /// When the context carries a [`psnt_fault::FaultPlan`] with
    /// [`psnt_fault::Fault::SitePanic`] entries, those sites panic on
    /// their first attempt — the harness-level fault used to exercise
    /// this degradation path end-to-end (a retrying policy recovers
    /// them; [`RetryPolicy::none`] leaves them degraded).
    ///
    /// The result is the record stream of
    /// [`Campaign::run_streamed_from_rails`] collected in memory, so the
    /// two agree by construction, and both are bit-identical at any
    /// worker count: sites are independent jobs keyed by floorplan index
    /// in fixed-size chunks, retries happen inside the owning job, and
    /// records are delivered in site order.
    ///
    /// Telemetry (when observed): a `campaign` span around `grid_solve`
    /// and `measure_sweep` (one `site` span with `measure` children per
    /// measured site), one `scan`/`site` event per site and one
    /// `scan`/`degraded` event per degraded site in site order, the
    /// `campaign.sites_done` / `campaign.sites_degraded` counters, and
    /// `campaign.worst_droop_mv` / `campaign.worst_bounce_mv` /
    /// `campaign.worst_code_error` / `campaign.dead_elements` gauges.
    /// Telemetry is worker-count independent, and results are identical
    /// with and without an observer.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::InvalidConfig`] for load/tile or grid-shape
    /// mismatches, propagates grid-solve and chain-capture failures, and
    /// returns [`ScanError::Interrupted`] when the context's supervisor
    /// trips. Per-site measurement failures do **not** abort the run —
    /// they surface in [`ResilientCampaignResult::outcomes`].
    #[allow(clippy::too_many_arguments)]
    pub fn run_resilient(
        &self,
        ctx: &mut RunCtx<'_>,
        tile_loads: &[Waveform],
        ground_grid: Option<&PowerGrid>,
        start: Time,
        dt: Time,
        samples: usize,
        retry: RetryPolicy,
    ) -> Result<ResilientCampaignResult, ScanError> {
        let rails = Rails::Solve {
            tile_loads,
            ground_grid,
            start,
            dt,
            samples,
        };
        collect_stream(|sink| self.sweep(ctx, rails, retry, sink))
    }

    /// [`Campaign::run_resilient`] against **externally solved rails**:
    /// per-tile supply (and optionally ground-bounce) waveforms plus
    /// explicit sampling instants, skipping the internal grid transient
    /// entirely. This is the path for workload-driven campaigns whose
    /// rail waveforms come from per-cycle delta solves
    /// ([`psnt_pdn::grid::PowerGrid::update_delta`]).
    ///
    /// Only instrumented tiles' waveforms are sampled; uninstrumented
    /// entries may be cheap placeholders (e.g. a constant), but the
    /// vectors must still be grid-shaped so tile indexing stays honest.
    ///
    /// # Errors
    ///
    /// Returns [`ScanError::InvalidConfig`] for grid-shape mismatches or
    /// empty/unsorted instants; per-site failures degrade as in
    /// [`Campaign::run_resilient`].
    pub fn run_resilient_from_rails(
        &self,
        ctx: &mut RunCtx<'_>,
        tile_supplies: Vec<Waveform>,
        tile_bounces: Option<Vec<Waveform>>,
        instants: Vec<Time>,
        retry: RetryPolicy,
    ) -> Result<ResilientCampaignResult, ScanError> {
        let rails = Rails::Given {
            tile_supplies,
            tile_bounces,
            instants,
        };
        collect_stream(|sink| self.sweep(ctx, rails, retry, sink))
    }

    /// Streams a campaign over externally solved rails (see
    /// [`Campaign::run_resilient_from_rails`] for the rails contract)
    /// instead of accumulating it: site records flow through a **bounded
    /// channel** from the measuring workers to the calling thread, which
    /// hands each one to `sink` and drops it — so peak memory holds at
    /// most a couple of chunks of in-flight sites plus a per-instant code
    /// buffer for frame assembly, never a full [`CampaignResult`]. That
    /// is what lets a 256+-site workload campaign run with flat memory
    /// while its records land directly in a `psnt-obs` sink (see
    /// [`StreamRecord::to_event`]).
    ///
    /// Semantics and telemetry are those of [`Campaign::run_resilient`],
    /// which is this stream collected in memory. Records are delivered
    /// in floorplan order — sites first, then one [`StreamRecord::Frame`]
    /// per instant, then the [`StreamRecord::Summary`] (also returned) —
    /// identically at any worker count.
    ///
    /// # Errors
    ///
    /// Rail validation as [`Campaign::run_resilient_from_rails`] and
    /// chain-capture failures; additionally, the first error the sink
    /// returns aborts the stream and is propagated (workers stop at the
    /// next chunk boundary), and a trip of the context's supervisor stops
    /// the sweep at the next chunk boundary with
    /// [`ScanError::Interrupted`]. Either way the truncated stream is
    /// closed with a best-effort terminal [`StreamRecord::Aborted`]
    /// carrying the count of site records already delivered. Per-site
    /// measurement failures do **not** abort the run — they stream as
    /// degraded records.
    pub fn run_streamed_from_rails(
        &self,
        ctx: &mut RunCtx<'_>,
        tile_supplies: Vec<Waveform>,
        tile_bounces: Option<Vec<Waveform>>,
        instants: Vec<Time>,
        retry: RetryPolicy,
        sink: impl FnMut(StreamRecord) -> Result<(), ScanError>,
    ) -> Result<DegradationSummary, ScanError> {
        let rails = Rails::Given {
            tile_supplies,
            tile_bounces,
            instants,
        };
        self.sweep(ctx, rails, retry, sink)
    }

    /// The one campaign sweep every entry point runs: prepares the rails
    /// inside a `campaign` span, streams the sites and frames to `sink`,
    /// then sinks and returns the [`StreamRecord::Summary`].
    fn sweep(
        &self,
        ctx: &mut RunCtx<'_>,
        rails: Rails<'_>,
        retry: RetryPolicy,
        mut sink: impl FnMut(StreamRecord) -> Result<(), ScanError>,
    ) -> Result<DegradationSummary, ScanError> {
        let sites = self.floorplan.sites().len() as u64;
        let (prep, campaign_span) = match rails {
            Rails::Solve {
                tile_loads,
                ground_grid,
                start,
                dt,
                samples,
            } => {
                let mut span = ctx.observer().map(|o| {
                    o.begin_span("campaign")
                        .attr("sites", &sites)
                        .attr("samples", &(samples as u64))
                        .sim_interval_ps(
                            start.picoseconds(),
                            (start + dt * samples as f64).picoseconds(),
                        )
                });
                let prep = self.prepare_sweep(ctx, tile_loads, ground_grid, start, dt, samples)?;
                if let Some(span) = span.as_mut() {
                    span.cover_sim_ps(prep.solve_end.picoseconds());
                }
                (prep, span)
            }
            Rails::Given {
                tile_supplies,
                tile_bounces,
                instants,
            } => {
                let prep = self.rails_inputs(tile_supplies, tile_bounces, instants)?;
                let span = ctx.observer().map(|o| {
                    o.begin_span("campaign")
                        .attr("sites", &sites)
                        .attr("samples", &(prep.instants.len() as u64))
                        .attr("from_rails", &true)
                        .sim_interval_ps(
                            prep.instants[0].picoseconds(),
                            prep.solve_end.picoseconds(),
                        )
                });
                (prep, span)
            }
        };
        let windows = prep.instants.len();
        let out = self.sweep_sites(ctx, prep, retry, &mut sink);
        if let (Some(obs), Some(span)) = (ctx.observer(), campaign_span) {
            obs.end_span(span);
        }
        let summary = out?;
        sink(StreamRecord::Summary { windows, summary })?;
        Ok(summary)
    }

    /// Validates the campaign inputs and solves the rail waveforms.
    fn prepare_sweep(
        &self,
        ctx: &mut RunCtx<'_>,
        tile_loads: &[Waveform],
        ground_grid: Option<&PowerGrid>,
        start: Time,
        dt: Time,
        samples: usize,
    ) -> Result<SweepInputs, ScanError> {
        let grid = self.floorplan.grid();
        if tile_loads.len() != grid.tiles() {
            return Err(ScanError::InvalidConfig {
                name: "tile_loads",
                reason: format!(
                    "expected {} tile load waveforms, got {}",
                    grid.tiles(),
                    tile_loads.len()
                ),
            });
        }
        if samples == 0 || dt <= Time::ZERO {
            return Err(ScanError::InvalidConfig {
                name: "samples/dt",
                reason: "need a positive sample count and spacing".into(),
            });
        }
        if let Some(g) = ground_grid {
            if g.tiles() != grid.tiles() {
                return Err(ScanError::InvalidConfig {
                    name: "ground_grid",
                    reason: format!(
                        "ground grid has {} tiles, supply grid {}",
                        g.tiles(),
                        grid.tiles()
                    ),
                });
            }
        }
        let end = start + dt * samples as f64 + Time::from_ns(1.0);
        let solve_dt = dt / 2.0;
        let solve_span = ctx.observer().map(|o| {
            o.begin_span("grid_solve")
                .attr("tiles", &(grid.tiles() as u64))
                .sim_interval_ps(start.picoseconds(), end.picoseconds())
        });
        let tile_supplies = grid.quasi_static_transient(ctx, tile_loads, start, end, solve_dt)?;
        // Ground bounce: the same tile currents return through the ground
        // mesh; the bounce is the IR rise above the (0 V-referenced) pad.
        let tile_bounces: Option<Vec<Waveform>> = match ground_grid {
            None => None,
            Some(g) => {
                let raw = g.quasi_static_transient(ctx, tile_loads, start, end, solve_dt)?;
                let v_pad = g.v_pad().volts();
                Some(raw.into_iter().map(|w| w.map(|v| v_pad - v)).collect())
            }
        };
        if let (Some(obs), Some(span)) = (ctx.observer(), solve_span) {
            obs.end_span(span);
        }
        let instants: Vec<Time> = (0..samples)
            .map(|k| start + dt * (k as f64 + 0.5))
            .collect();
        Ok(SweepInputs {
            tile_supplies,
            tile_bounces,
            windows: (0..instants.len()).collect(),
            instants,
            v_nom: grid.v_pad().volts(),
            solve_end: end,
        })
    }

    /// Validates externally solved rails into the shared sweep inputs.
    fn rails_inputs(
        &self,
        tile_supplies: Vec<Waveform>,
        tile_bounces: Option<Vec<Waveform>>,
        instants: Vec<Time>,
    ) -> Result<SweepInputs, ScanError> {
        let grid = self.floorplan.grid();
        if tile_supplies.len() != grid.tiles() {
            return Err(ScanError::InvalidConfig {
                name: "tile_supplies",
                reason: format!(
                    "expected {} tile supply waveforms, got {}",
                    grid.tiles(),
                    tile_supplies.len()
                ),
            });
        }
        if let Some(b) = &tile_bounces {
            if b.len() != grid.tiles() {
                return Err(ScanError::InvalidConfig {
                    name: "tile_bounces",
                    reason: format!(
                        "expected {} tile bounce waveforms, got {}",
                        grid.tiles(),
                        b.len()
                    ),
                });
            }
        }
        // Reading the last instant doubles as the emptiness check, so
        // there is no `expect` to go stale if the checks reorder.
        let Some(&solve_end) = instants.last() else {
            return Err(ScanError::InvalidConfig {
                name: "instants",
                reason: "need at least one sampling instant".into(),
            });
        };
        if instants.windows(2).any(|w| w[1] <= w[0]) {
            return Err(ScanError::InvalidConfig {
                name: "instants",
                reason: "instants must be strictly increasing".into(),
            });
        }
        Ok(SweepInputs {
            tile_supplies,
            tile_bounces,
            windows: (0..instants.len()).collect(),
            instants,
            v_nom: grid.v_pad().volts(),
            solve_end,
        })
    }

    /// The chunked producer/consumer site sweep: measures sites in
    /// fixed chunks on the context's engine, streams their records
    /// through the bounded channel, then assembles and streams the
    /// frames from the code buffer. Returns the summary; the caller
    /// sinks the final [`StreamRecord::Summary`].
    fn sweep_sites(
        &self,
        ctx: &mut RunCtx<'_>,
        prep: SweepInputs,
        retry: RetryPolicy,
        sink: &mut impl FnMut(StreamRecord) -> Result<(), ScanError>,
    ) -> Result<DegradationSummary, ScanError> {
        let samples = prep.instants.len();
        let quiet = Waveform::constant(0.0);
        let panicking = ctx
            .fault_plan()
            .map(psnt_fault::FaultPlan::panicking_sites)
            .unwrap_or_default();
        let worker_panics = ctx
            .fault_plan()
            .map(psnt_fault::FaultPlan::worker_panics)
            .unwrap_or_default();
        let mut measure_span = ctx.observer().map(|o| {
            o.begin_span("measure_sweep").sim_interval_ps(
                prep.instants[0].picoseconds(),
                prep.instants[prep.instants.len() - 1].picoseconds(),
            )
        });
        let epoch = ctx.observer().map(|o| o.epoch());
        let site_defs = self.floorplan.sites();
        let n_sites = site_defs.len();
        let engine = ctx.engine().clone();
        let seed = ctx.seed();
        let sup = ctx.supervisor().clone();

        let unknown: ThermometerCode = ThermometerCode::new(
            (0..self.chain.bits_per_site())
                .map(|_| Logic::X)
                .collect::<LogicVector>(),
        );
        let mut summary = DegradationSummary {
            sites_degraded: 0,
            dead_elements: 0,
            worst_code_error: 0,
        };
        // The only cross-site state the frames need: one code per site
        // per instant (a few bits each) — not the measurement series.
        let mut frame_codes: Vec<Vec<ThermometerCode>> = vec![Vec::with_capacity(n_sites); samples];
        let mut sink_result: Result<(), ScanError> = Ok(());
        let mut trip: Option<psnt_sup::Interrupt> = None;
        let mut sites_streamed = 0usize;

        let (tx, rx) = std::sync::mpsc::sync_channel::<StreamMsg>(STREAM_CHANNEL_BOUND);
        let prep_ref = &prep;
        let quiet_ref = &quiet;
        let panicking_ref = &panicking;
        let worker_panics_ref = &worker_panics;
        let sup_prod = sup.clone();
        std::thread::scope(|scope| {
            // Producer: sweeps fixed-size site chunks on the engine and
            // sends each chunk's ordered outcomes. A closed channel
            // (sink failure on the consumer side) stops it at the next
            // send; a supervisor trip stops it at the next chunk
            // boundary, so an interrupted stream is always a
            // whole-chunk prefix of the full run.
            scope.spawn(move || {
                let mut chunk_start = 0usize;
                while chunk_start < n_sites {
                    if let Err(reason) = sup_prod.check() {
                        let _ = tx.send(StreamMsg::Interrupted(reason));
                        return;
                    }
                    let chunk_len = STREAM_CHUNK_SITES.min(n_sites - chunk_start);
                    let spec = JobSpec::new(chunk_len).seed(seed);
                    let batch = engine.run_batch_isolated(&spec, retry, |job| {
                        let index = chunk_start + job.index();
                        if job.attempt() == 0 && panicking_ref.contains(&index) {
                            panic!("injected fault: site {index} panicked");
                        }
                        if worker_panics_ref
                            .iter()
                            .any(|&(j, a)| j == index && job.attempt() <= a)
                        {
                            panic!(
                                "injected fault: job {index} panicked on attempt {}",
                                job.attempt()
                            );
                        }
                        let site = &site_defs[index];
                        let mut site_span = epoch.map(|e| {
                            RemoteSpan::begin("site", e, job.worker() as u32 + 1)
                                .attr("site", &(index as u64))
                                .attr("tile", &(site.tile as u64))
                                .attr("name", &site.name)
                                .attr("attempt", &u64::from(job.attempt()))
                                .sim_interval_ps(
                                    prep_ref.instants[0].picoseconds(),
                                    prep_ref.instants[prep_ref.instants.len() - 1].picoseconds(),
                                )
                        });
                        let system = SensorSystem::new(self.config.clone())?;
                        let vdd = &prep_ref.tile_supplies[site.tile];
                        let gnd = prep_ref
                            .tile_bounces
                            .as_ref()
                            .map_or(quiet_ref, |b| &b[site.tile]);
                        let mut measurements = Vec::with_capacity(prep_ref.instants.len());
                        for &at in &prep_ref.instants {
                            let measure = epoch
                                .map(|e| RemoteSpan::begin("measure", e, job.worker() as u32 + 1));
                            measurements
                                .push(system.measure_at(vdd, gnd, at).map_err(ScanError::from)?);
                            if let (Some(span), Some(measure)) = (site_span.as_mut(), measure) {
                                span.child(
                                    measure
                                        .sim_interval_ps(at.picoseconds(), at.picoseconds())
                                        .end(),
                                );
                            }
                        }
                        job.metrics.counter_add("campaign.sites_done", 1);
                        Ok::<(SiteSeries, Option<RemoteSpan>), ScanError>((
                            SiteSeries {
                                tile: site.tile,
                                name: site.name.clone(),
                                measurements,
                            },
                            site_span.map(RemoteSpan::end),
                        ))
                    });
                    for (j, mut outcome) in batch.results.into_iter().enumerate() {
                        // Rebase the chunk-local job index so degraded
                        // error strings name the floorplan site.
                        if let JobOutcome::Failed(je) = &mut outcome {
                            je.job = chunk_start + j;
                        }
                        let msg = StreamMsg::Site {
                            site: chunk_start + j,
                            outcome,
                        };
                        if tx.send(msg).is_err() {
                            return;
                        }
                    }
                    if tx
                        .send(StreamMsg::Metrics(Box::new(batch.metrics)))
                        .is_err()
                    {
                        return;
                    }
                    sup_prod.charge_events(chunk_len as u64);
                    chunk_start += chunk_len;
                }
            });

            // Consumer (this thread): owns the observer and the sink.
            for msg in rx {
                match msg {
                    StreamMsg::Metrics(m) => {
                        if let Some(obs) = ctx.observer() {
                            obs.metrics.merge(&m);
                        }
                    }
                    StreamMsg::Interrupted(reason) => {
                        // The producer stopped itself; record why and
                        // stop consuming (nothing else will arrive).
                        trip = Some(reason);
                        break;
                    }
                    StreamMsg::Site { site, outcome } => {
                        let measured = match outcome {
                            JobOutcome::Ok(Ok(done)) => Ok(done),
                            JobOutcome::Ok(Err(e)) => Err(e.to_string()),
                            JobOutcome::Failed(je) => Err(je.to_string()),
                        };
                        let (series, site_outcome, span) = match measured {
                            Ok((series, span)) => (series, SiteOutcome::Measured, span),
                            Err(error) => (
                                SiteSeries {
                                    tile: site_defs[site].tile,
                                    name: site_defs[site].name.clone(),
                                    measurements: Vec::new(),
                                },
                                SiteOutcome::Degraded { error },
                                None,
                            ),
                        };
                        for (k, codes) in frame_codes.iter_mut().enumerate() {
                            codes.push(
                                series
                                    .measurements
                                    .get(k)
                                    .map_or_else(|| unknown.clone(), |m| m.hs_code.clone()),
                            );
                        }
                        if let Some(gap) = series
                            .measurements
                            .iter()
                            .flat_map(|m| [&m.hs_code, &m.ls_code])
                            .map(encoder_level_gap)
                            .max()
                        {
                            summary.worst_code_error = summary.worst_code_error.max(gap);
                        }
                        if let SiteOutcome::Degraded { .. } = &site_outcome {
                            summary.sites_degraded += 1;
                        }
                        if let Some(obs) = ctx.observer() {
                            if let Some(span) = &span {
                                obs.emit_remote_tree(span);
                            }
                            emit_site_event(obs, &series, prep_ref.v_nom);
                            if let SiteOutcome::Degraded { error } = &site_outcome {
                                obs.metrics.counter_add("campaign.sites_degraded", 1);
                                obs.event(
                                    ObsEvent::new("scan", "degraded")
                                        .field("site", &(site as u64))
                                        .field("tile", &(site_defs[site].tile as u64))
                                        .field("name", &site_defs[site].name)
                                        .field("error", error),
                                );
                            }
                        }
                        let record = StreamRecord::Site {
                            site,
                            windows: prep_ref.windows.clone(),
                            series,
                            outcome: site_outcome,
                        };
                        if let Err(e) = sink(record) {
                            sink_result = Err(e);
                            // Dropping the receiver (by leaving the
                            // loop) disconnects the channel; the
                            // producer stops at its next send.
                            break;
                        }
                        sites_streamed += 1;
                    }
                }
            }
        });
        // The scope has joined the producer, so the site stream is
        // final. A sink failure or a supervisor trip ends the run here:
        // label the truncated stream with a terminal `Aborted` record
        // (best-effort — the sink may be the failing party) instead of
        // cutting it silently, then surface the error.
        let abort = match (sink_result, trip) {
            (Err(e), _) => Some(e),
            (Ok(()), Some(reason)) => Some(ScanError::Interrupted(reason)),
            (Ok(()), None) => None,
        };
        if let Some(e) = abort {
            let _ = sink(StreamRecord::Aborted {
                sites_completed: sites_streamed,
                reason: e.to_string(),
            });
            if let (Some(obs), Some(span)) = (ctx.observer(), measure_span.take()) {
                obs.end_span(span);
            }
            return Err(e);
        }

        // The frame tail is supervised and labelled the same way as
        // the site phase: a sink failure or a trip between frames
        // still closes the stream with a terminal `Aborted` record
        // instead of cutting it silently.
        let mut tail_abort: Option<ScanError> = None;
        for (k, codes) in frame_codes.iter().enumerate() {
            if let Err(reason) = sup.check() {
                tail_abort = Some(ScanError::Interrupted(reason));
                break;
            }
            let frame = self.chain.capture(codes)?;
            let dead = frame.iter().filter(|b| *b == Logic::X).count();
            summary.dead_elements = summary.dead_elements.max(dead);
            if let Err(e) = sink(StreamRecord::Frame {
                index: k,
                instant: prep.instants[k],
                frame,
            }) {
                tail_abort = Some(e);
                break;
            }
        }
        if let Some(e) = tail_abort {
            let _ = sink(StreamRecord::Aborted {
                sites_completed: sites_streamed,
                reason: e.to_string(),
            });
            if let (Some(obs), Some(span)) = (ctx.observer(), measure_span) {
                obs.end_span(span);
            }
            return Err(e);
        }
        if let Some(obs) = ctx.observer() {
            obs.metrics
                .gauge_set_max("campaign.worst_code_error", summary.worst_code_error as f64);
            obs.metrics
                .gauge_set_max("campaign.dead_elements", summary.dead_elements as f64);
        }
        if let (Some(obs), Some(span)) = (ctx.observer(), measure_span) {
            obs.end_span(span);
        }
        Ok(summary)
    }
}

/// Emits one site's `scan`/`site` event and folds its worst droop and
/// bounce into the campaign gauges. The sweep calls it from the
/// consuming thread in floorplan order, so the telemetry stream is
/// worker-count independent.
fn emit_site_event(obs: &mut Observer, series: &SiteSeries, v_nom: f64) {
    let mut event = ObsEvent::new("scan", "site")
        .field("tile", &(series.tile as u64))
        .field("name", &series.name)
        .field("worst_level", &(series.worst_level() as u64));
    if let Some(v) = series.worst_voltage() {
        let droop_mv = (v_nom - v.volts()) * 1e3;
        obs.metrics
            .gauge_set_max("campaign.worst_droop_mv", droop_mv);
        event = event.field("worst_droop_mv", &droop_mv);
    }
    if let Some(b) = series.worst_bounce() {
        let bounce_mv = b.volts() * 1e3;
        obs.metrics
            .gauge_set_max("campaign.worst_bounce_mv", bounce_mv);
        event = event.field("worst_bounce_mv", &bounce_mv);
    }
    obs.event(event);
}

/// The collecting sink: runs `sweep` with a sink that reassembles its
/// records into the in-memory result shape — sites and outcomes in
/// floorplan order, then the frames with their instants.
fn collect_stream(
    sweep: impl FnOnce(
        &mut dyn FnMut(StreamRecord) -> Result<(), ScanError>,
    ) -> Result<DegradationSummary, ScanError>,
) -> Result<ResilientCampaignResult, ScanError> {
    let mut result = CampaignResult {
        sites: Vec::new(),
        instants: Vec::new(),
        frames: Vec::new(),
    };
    let mut outcomes = Vec::new();
    let summary = sweep(&mut |record| {
        match record {
            StreamRecord::Site {
                series, outcome, ..
            } => {
                result.sites.push(series);
                outcomes.push(outcome);
            }
            StreamRecord::Frame { instant, frame, .. } => {
                result.instants.push(instant);
                result.frames.push(frame);
            }
            StreamRecord::Summary { .. } | StreamRecord::Aborted { .. } => {}
        }
        Ok(())
    })?;
    Ok(ResilientCampaignResult {
        result,
        outcomes,
        summary,
    })
}

/// The level disagreement between the bubble-correcting and truncating
/// encoders on one captured code — 0 for canonical codes, positive when
/// a bubble or unresolved bit made the cheap priority-chain encoder
/// diverge from the corrected reading.
fn encoder_level_gap(code: &ThermometerCode) -> usize {
    let width = code.width();
    let (Ok(correct), Ok(truncate)) = (
        Encoder::new(width, EncodingPolicy::BubbleCorrect),
        Encoder::new(width, EncodingPolicy::Truncate),
    ) else {
        // A zero-width code cannot disagree with itself; don't let a
        // degenerate capture panic the campaign's summary accounting.
        return 0;
    };
    correct
        .encode(code)
        .level
        .abs_diff(truncate.encode(code).level)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::floorplan::Placement;
    use psnt_cells::units::{Resistance, Time};
    use psnt_engine::Engine;

    fn floorplan() -> Floorplan {
        let grid = PowerGrid::corner_fed(
            3,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
        )
        .unwrap();
        Floorplan::new(grid, Placement::EveryTile).unwrap()
    }

    fn campaign() -> Campaign {
        Campaign::new(floorplan(), SensorConfig::default()).unwrap()
    }

    /// A healthy supply-only run's campaign data.
    fn run(
        c: &Campaign,
        ctx: &mut RunCtx<'_>,
        loads: &[Waveform],
        start: Time,
        dt: Time,
        samples: usize,
    ) -> Result<CampaignResult, ScanError> {
        c.run_resilient(ctx, loads, None, start, dt, samples, RetryPolicy::none())
            .map(|r| r.result)
    }

    /// The serial reference sweep: per site and instant,
    /// `SensorSystem::measure_at`; per instant, `chain.capture`. Sites
    /// listed in `degraded` read out as empty series and all-`X` codes.
    fn reference(
        c: &Campaign,
        prep: &SweepInputs,
        degraded: &[usize],
    ) -> (CampaignResult, DegradationSummary) {
        let system = SensorSystem::new(c.config.clone()).unwrap();
        let quiet = Waveform::constant(0.0);
        let sites: Vec<SiteSeries> = c
            .floorplan
            .sites()
            .iter()
            .enumerate()
            .map(|(i, site)| SiteSeries {
                tile: site.tile,
                name: site.name.clone(),
                measurements: if degraded.contains(&i) {
                    Vec::new()
                } else {
                    let vdd = &prep.tile_supplies[site.tile];
                    let gnd = prep.tile_bounces.as_ref().map_or(&quiet, |b| &b[site.tile]);
                    prep.instants
                        .iter()
                        .map(|&at| system.measure_at(vdd, gnd, at).unwrap())
                        .collect()
                },
            })
            .collect();
        let unknown = ThermometerCode::new(
            (0..c.chain.bits_per_site())
                .map(|_| Logic::X)
                .collect::<LogicVector>(),
        );
        let frames: Vec<LogicVector> = (0..prep.instants.len())
            .map(|k| {
                let codes: Vec<ThermometerCode> = sites
                    .iter()
                    .map(|s| {
                        s.measurements
                            .get(k)
                            .map_or(unknown.clone(), |m| m.hs_code.clone())
                    })
                    .collect();
                c.chain.capture(&codes).unwrap()
            })
            .collect();
        let summary = DegradationSummary {
            sites_degraded: degraded.len(),
            dead_elements: degraded.len() * c.chain.bits_per_site(),
            worst_code_error: sites
                .iter()
                .flat_map(|s| &s.measurements)
                .flat_map(|m| [&m.hs_code, &m.ls_code])
                .map(encoder_level_gap)
                .max()
                .unwrap_or(0),
        };
        let result = CampaignResult {
            sites,
            instants: prep.instants.clone(),
            frames,
        };
        (result, summary)
    }

    /// Asserts a resilient result equals the serial reference, with
    /// exactly the `degraded` sites degraded.
    fn assert_matches_reference(
        got: &ResilientCampaignResult,
        expected: &(CampaignResult, DegradationSummary),
        degraded: &[usize],
        what: &str,
    ) {
        assert_eq!(got.result, expected.0, "{what}: campaign data");
        assert_eq!(got.summary, expected.1, "{what}: summary");
        for (i, o) in got.outcomes.iter().enumerate() {
            assert_eq!(o.is_measured(), !degraded.contains(&i), "{what}: site {i}");
        }
    }

    /// Collects a streamed from-rails run of `prep`'s rails.
    fn stream_rails(
        c: &Campaign,
        ctx: &mut RunCtx<'_>,
        prep: &SweepInputs,
    ) -> ResilientCampaignResult {
        collect_stream(|sink| {
            c.run_streamed_from_rails(
                ctx,
                prep.tile_supplies.clone(),
                prep.tile_bounces.clone(),
                prep.instants.clone(),
                RetryPolicy::none(),
                sink,
            )
        })
        .unwrap()
    }

    #[test]
    fn chain_matches_floorplan() {
        let c = campaign();
        assert_eq!(c.chain().site_names().len(), 9);
        assert_eq!(c.chain().len(), 63);
    }

    #[test]
    fn run_produces_series_and_frames() {
        let c = campaign();
        // The centre tile draws a ramping current; others idle lightly.
        let mut loads = vec![Waveform::constant(0.02); 9];
        loads[4] =
            Waveform::from_points(vec![(Time::ZERO, 0.05), (Time::from_ns(200.0), 0.9)]).unwrap();
        let result = run(
            &c,
            &mut RunCtx::serial(),
            &loads,
            Time::from_ns(10.0),
            Time::from_ns(20.0),
            8,
        )
        .unwrap();
        assert_eq!(result.sites.len(), 9);
        assert_eq!(result.frames.len(), 8);
        assert_eq!(result.instants.len(), 8);
        assert!(result.frames.iter().all(|f| f.len() == 63));
        // Every series is time-aligned.
        for s in &result.sites {
            assert_eq!(s.measurements.len(), 8);
        }
    }

    #[test]
    fn hotspot_is_the_loaded_centre() {
        let c = campaign();
        let mut loads = vec![Waveform::constant(0.02); 9];
        loads[4] = Waveform::constant(1.2);
        let result = run(
            &c,
            &mut RunCtx::serial(),
            &loads,
            Time::from_ns(10.0),
            Time::from_ns(20.0),
            4,
        )
        .unwrap();
        let hotspot = result.hotspot().unwrap();
        assert_eq!(hotspot.tile, 4, "noise map: {:?}", result.noise_map());
        // The hotspot's worst level is at most the corner tiles'.
        let corner = result.sites.iter().find(|s| s.tile == 0).unwrap();
        assert!(hotspot.worst_level() <= corner.worst_level());
        assert!(hotspot.worst_voltage().unwrap() < Voltage::from_v(1.05));
    }

    #[test]
    fn load_mismatch_rejected() {
        let c = campaign();
        let loads = vec![Waveform::constant(0.02); 4];
        assert!(matches!(
            run(
                &c,
                &mut RunCtx::serial(),
                &loads,
                Time::ZERO,
                Time::from_ns(10.0),
                2
            ),
            Err(ScanError::InvalidConfig {
                name: "tile_loads",
                ..
            })
        ));
    }

    #[test]
    fn degenerate_sampling_rejected() {
        let c = campaign();
        let loads = vec![Waveform::constant(0.02); 9];
        assert!(run(
            &c,
            &mut RunCtx::serial(),
            &loads,
            Time::ZERO,
            Time::from_ns(10.0),
            0
        )
        .is_err());
        assert!(run(&c, &mut RunCtx::serial(), &loads, Time::ZERO, Time::ZERO, 4).is_err());
    }

    #[test]
    fn dual_rail_campaign_measures_ground_bounce() {
        let c = campaign();
        // A stiffer ground grid (typical: more return vias).
        let gnd_grid = PowerGrid::corner_fed(
            3,
            Voltage::ZERO, // the board ground reference
            Resistance::from_milliohms(120.0),
            Resistance::from_milliohms(40.0),
        )
        .unwrap();
        let mut loads = vec![Waveform::constant(0.05); 9];
        loads[4] = Waveform::constant(0.9);
        let result = c
            .run_resilient(
                &mut RunCtx::serial(),
                &loads,
                Some(&gnd_grid),
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                4,
                RetryPolicy::none(),
            )
            .unwrap()
            .result;
        // The centre tile bounces hardest: its LS level is the worst.
        let centre = result.sites.iter().find(|s| s.tile == 4).unwrap();
        let corner = result.sites.iter().find(|s| s.tile == 0).unwrap();
        assert!(
            centre.worst_ls_level() <= corner.worst_ls_level(),
            "centre LS {} vs corner LS {}",
            centre.worst_ls_level(),
            corner.worst_ls_level()
        );
        // And the decoded bounce at the centre is physically plausible
        // (tens of mV for ~1 A through a 120 mΩ mesh).
        if let Some(b) = centre.worst_bounce() {
            assert!(b > Voltage::from_mv(10.0), "bounce {b}");
            assert!(b < Voltage::from_mv(400.0), "bounce {b}");
        }
        // Without a ground grid the LS readings sit at the quiet code.
        let quiet_run = run(
            &c,
            &mut RunCtx::serial(),
            &loads,
            Time::from_ns(10.0),
            Time::from_ns(20.0),
            2,
        )
        .unwrap();
        let quiet_centre = quiet_run.sites.iter().find(|s| s.tile == 4).unwrap();
        assert!(quiet_centre.worst_ls_level() >= centre.worst_ls_level());
    }

    #[test]
    fn dual_rail_grid_shape_checked() {
        let c = campaign();
        let wrong = PowerGrid::corner_fed(
            4,
            Voltage::ZERO,
            Resistance::from_milliohms(120.0),
            Resistance::from_milliohms(40.0),
        )
        .unwrap();
        let loads = vec![Waveform::constant(0.05); 9];
        assert!(matches!(
            c.run_resilient(
                &mut RunCtx::serial(),
                &loads,
                Some(&wrong),
                Time::ZERO,
                Time::from_ns(10.0),
                2,
                RetryPolicy::none(),
            ),
            Err(ScanError::InvalidConfig {
                name: "ground_grid",
                ..
            })
        ));
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let c = campaign();
        let mut loads = vec![Waveform::constant(0.02); 9];
        loads[4] =
            Waveform::from_points(vec![(Time::ZERO, 0.05), (Time::from_ns(200.0), 0.9)]).unwrap();
        let (start, dt) = (Time::from_ns(10.0), Time::from_ns(20.0));
        let serial = run(&c, &mut RunCtx::serial(), &loads, start, dt, 6).unwrap();
        for jobs in [1usize, 2, 5, 16] {
            let parallel = run(
                &c,
                &mut RunCtx::new(Engine::new(jobs)),
                &loads,
                start,
                dt,
                6,
            );
            assert_eq!(parallel.unwrap(), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn parallel_observed_merges_site_counter_once() {
        let c = campaign();
        let loads = vec![Waveform::constant(0.1); 9];
        let (start, dt) = (Time::from_ns(5.0), Time::from_ns(15.0));
        let mut obs = Observer::ring(128);
        let mut ctx = RunCtx::new(Engine::new(3)).with_observer(&mut obs);
        let parallel = run(&c, &mut ctx, &loads, start, dt, 2).unwrap();
        drop(ctx);
        let plain = run(&c, &mut RunCtx::serial(), &loads, start, dt, 2).unwrap();
        assert_eq!(parallel, plain, "observer+parallelism must be passive");
        assert_eq!(obs.metrics.counter_value("campaign.sites_done"), 9);
        assert_eq!(obs.metrics.counter_value("engine.jobs_done"), 9);
    }

    #[test]
    fn resilient_run_without_faults_matches_reference() {
        let c = campaign();
        let mut loads = vec![Waveform::constant(0.02); 9];
        loads[4] = Waveform::constant(0.8);
        let (start, dt) = (Time::from_ns(10.0), Time::from_ns(20.0));
        let prep = c
            .prepare_sweep(&mut RunCtx::serial(), &loads, None, start, dt, 3)
            .unwrap();
        let expected = reference(&c, &prep, &[]);
        for jobs in [1usize, 4] {
            let collected = c
                .run_resilient(
                    &mut RunCtx::new(Engine::new(jobs)),
                    &loads,
                    None,
                    start,
                    dt,
                    3,
                    RetryPolicy::none(),
                )
                .unwrap();
            assert_matches_reference(
                &collected,
                &expected,
                &[],
                &format!("collected jobs={jobs}"),
            );
            let streamed = stream_rails(&c, &mut RunCtx::new(Engine::new(jobs)), &prep);
            assert_matches_reference(&streamed, &expected, &[], &format!("streamed jobs={jobs}"));
        }
    }

    #[test]
    fn injected_site_panic_degrades_that_site_only() {
        use psnt_fault::{Fault, FaultPlan};
        let c = campaign();
        let loads = vec![Waveform::constant(0.1); 9];
        let plan = FaultPlan::new()
            .with(Fault::SitePanic { site: 2 })
            .with(Fault::SitePanic { site: 6 });
        let mut obs = Observer::ring(256);
        let mut ctx = RunCtx::serial()
            .with_fault_plan(plan)
            .with_observer(&mut obs);
        let r = c
            .run_resilient(
                &mut ctx,
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                2,
                RetryPolicy::none(),
            )
            .unwrap();
        drop(ctx);
        // Partial results: the other 7 sites measured normally.
        assert_eq!(r.summary.sites_degraded, 2);
        for (i, o) in r.outcomes.iter().enumerate() {
            if i == 2 || i == 6 {
                let SiteOutcome::Degraded { error } = o else {
                    panic!("site {i} should be degraded");
                };
                assert!(error.contains(&format!("site {i} panicked")), "{error}");
                assert!(r.result.sites[i].measurements.is_empty());
            } else {
                assert!(o.is_measured());
                assert_eq!(r.result.sites[i].measurements.len(), 2);
            }
        }
        // Degraded sites read out as all-X in every frame.
        assert_eq!(r.summary.dead_elements, 2 * 7);
        for frame in &r.result.frames {
            let x_bits = frame.iter().filter(|b| *b == Logic::X).count();
            assert_eq!(x_bits, 14);
        }
        // Telemetry recorded the degradation.
        assert_eq!(obs.metrics.counter_value("campaign.sites_degraded"), 2);
        assert_eq!(obs.metrics.counter_value("engine.jobs_failed"), 2);
        assert_eq!(
            obs.metrics.gauge_value("campaign.dead_elements"),
            Some(14.0)
        );
    }

    #[test]
    fn retry_policy_recovers_injected_site_panics() {
        use psnt_fault::{Fault, FaultPlan};
        let c = campaign();
        let loads = vec![Waveform::constant(0.1); 9];
        let plan = FaultPlan::new().with(Fault::SitePanic { site: 3 });
        let mut ctx = RunCtx::serial().with_fault_plan(plan);
        // SitePanic fires on the first attempt only, so two attempts
        // recover the site and the run is fully healthy.
        let r = c
            .run_resilient(
                &mut ctx,
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                2,
                RetryPolicy::attempts(2),
            )
            .unwrap();
        assert!(r.outcomes.iter().all(SiteOutcome::is_measured));
        assert_eq!(r.summary.sites_degraded, 0);
        let healthy = run(
            &c,
            &mut RunCtx::serial(),
            &loads,
            Time::from_ns(10.0),
            Time::from_ns(20.0),
            2,
        )
        .unwrap();
        assert_eq!(r.result, healthy);
    }

    #[test]
    fn degraded_campaign_is_bit_identical_at_any_worker_count() {
        use psnt_fault::{Fault, FaultPlan};
        let c = campaign();
        let mut loads = vec![Waveform::constant(0.05); 9];
        loads[4] = Waveform::constant(0.9);
        let run_at = |jobs: usize| {
            let plan = FaultPlan::new().with(Fault::SitePanic { site: 4 });
            let mut ctx = RunCtx::new(Engine::new(jobs)).with_fault_plan(plan);
            c.run_resilient(
                &mut ctx,
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                3,
                RetryPolicy::none(),
            )
            .unwrap()
        };
        let serial = run_at(1);
        for jobs in [2, 4] {
            assert_eq!(run_at(jobs), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn multi_chunk_stream_is_ordered_and_names_floorplan_sites() {
        use psnt_fault::{Fault, FaultPlan};
        // 36 sites span two producer chunks; the degraded site sits in
        // the second, so its error must name the floorplan index, not
        // the chunk-local job index.
        let grid = PowerGrid::corner_fed(
            6,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
        )
        .unwrap();
        let fp = Floorplan::new(grid, Placement::EveryTile).unwrap();
        let c = Campaign::new(fp, SensorConfig::default()).unwrap();
        assert!(c.floorplan().sites().len() > STREAM_CHUNK_SITES);
        let rails = vec![Waveform::constant(1.04); 36];
        let instants = vec![Time::from_ns(5.0), Time::from_ns(20.0)];
        for jobs in [1usize, 4] {
            let mut records = Vec::new();
            let mut ctx = RunCtx::new(Engine::new(jobs))
                .with_fault_plan(FaultPlan::new().with(Fault::SitePanic { site: 33 }));
            c.run_streamed_from_rails(
                &mut ctx,
                rails.clone(),
                None,
                instants.clone(),
                RetryPolicy::none(),
                |r| {
                    records.push(r);
                    Ok(())
                },
            )
            .unwrap();
            // Sites in floorplan order, each with the full window map,
            // then the frames in order, then the summary.
            assert_eq!(records.len(), 36 + 2 + 1, "jobs={jobs}");
            for (i, r) in records[..36].iter().enumerate() {
                let StreamRecord::Site {
                    site,
                    windows,
                    outcome,
                    ..
                } = r
                else {
                    panic!("record {i} is not a site: {r:?}");
                };
                assert_eq!(*site, i);
                assert_eq!(windows, &[0, 1]);
                if i == 33 {
                    let SiteOutcome::Degraded { error } = outcome else {
                        panic!("site 33 should be degraded");
                    };
                    assert!(error.starts_with("job 33 panicked"), "{error}");
                } else {
                    assert!(outcome.is_measured(), "site {i}");
                }
            }
            for (k, r) in records[36..38].iter().enumerate() {
                assert!(
                    matches!(r, StreamRecord::Frame { index, .. } if *index == k),
                    "{r:?}"
                );
            }
            assert!(matches!(
                records[38],
                StreamRecord::Summary {
                    windows: 2,
                    summary: DegradationSummary {
                        sites_degraded: 1,
                        dead_elements: 7,
                        ..
                    }
                }
            ));
        }
    }

    #[test]
    fn from_rails_paths_match_reference_and_validate() {
        let c = campaign();
        // Rails as a workload engine hands them over: per-tile supply
        // waveforms already solved, explicit measurement instants.
        let rails = || -> Vec<Waveform> {
            (0..9)
                .map(|t| {
                    Waveform::from_points(vec![
                        (Time::ZERO, 1.05 - 0.004 * t as f64),
                        (Time::from_ns(100.0), 1.05 - 0.008 * t as f64),
                    ])
                    .unwrap()
                })
                .collect()
        };
        let instants = vec![
            Time::from_ns(10.0),
            Time::from_ns(40.0),
            Time::from_ns(70.0),
        ];
        let prep = c.rails_inputs(rails(), None, instants.clone()).unwrap();
        let expected = reference(&c, &prep, &[]);
        for jobs in [1usize, 4] {
            let collected = c
                .run_resilient_from_rails(
                    &mut RunCtx::new(Engine::new(jobs)),
                    rails(),
                    None,
                    instants.clone(),
                    RetryPolicy::none(),
                )
                .unwrap();
            assert_matches_reference(
                &collected,
                &expected,
                &[],
                &format!("collected jobs={jobs}"),
            );
            let streamed = stream_rails(&c, &mut RunCtx::new(Engine::new(jobs)), &prep);
            assert_matches_reference(&streamed, &expected, &[], &format!("streamed jobs={jobs}"));
        }
        assert!(matches!(
            c.run_resilient_from_rails(
                &mut RunCtx::serial(),
                vec![Waveform::constant(1.05); 4],
                None,
                instants.clone(),
                RetryPolicy::none(),
            ),
            Err(ScanError::InvalidConfig {
                name: "tile_supplies",
                ..
            })
        ));
        assert!(matches!(
            c.run_resilient_from_rails(
                &mut RunCtx::serial(),
                rails(),
                None,
                vec![],
                RetryPolicy::none(),
            ),
            Err(ScanError::InvalidConfig {
                name: "instants",
                ..
            })
        ));
        assert!(matches!(
            c.run_resilient_from_rails(
                &mut RunCtx::serial(),
                rails(),
                None,
                vec![Time::from_ns(10.0), Time::from_ns(10.0)],
                RetryPolicy::none(),
            ),
            Err(ScanError::InvalidConfig {
                name: "instants",
                ..
            })
        ));
        assert!(matches!(
            c.run_streamed_from_rails(
                &mut RunCtx::serial(),
                rails(),
                Some(vec![Waveform::constant(0.0); 3]),
                instants,
                RetryPolicy::none(),
                |_| Ok(()),
            ),
            Err(ScanError::InvalidConfig {
                name: "tile_bounces",
                ..
            })
        ));
    }

    #[test]
    fn streamed_sink_error_aborts_run() {
        let c = campaign();
        let mut delivered = 0usize;
        let mut records = Vec::new();
        let err = c
            .run_streamed_from_rails(
                &mut RunCtx::serial(),
                vec![Waveform::constant(1.04); 9],
                None,
                vec![Time::from_ns(5.0), Time::from_ns(20.0)],
                RetryPolicy::none(),
                |r| {
                    delivered += 1;
                    let failing = delivered == 3;
                    records.push(r);
                    if failing {
                        Err(ScanError::InvalidConfig {
                            name: "sink",
                            reason: "downstream full".into(),
                        })
                    } else {
                        Ok(())
                    }
                },
            )
            .unwrap_err();
        assert!(matches!(err, ScanError::InvalidConfig { name: "sink", .. }));
        // After the third record fails, the stream is closed with one
        // best-effort terminal abort record naming the two site records
        // that made it through — never a silent truncation.
        assert_eq!(delivered, 4);
        match records.last() {
            Some(StreamRecord::Aborted {
                sites_completed,
                reason,
            }) => {
                assert_eq!(*sites_completed, 2);
                assert!(reason.contains("downstream full"), "reason: {reason}");
            }
            other => panic!("expected terminal abort record, got {other:?}"),
        }
    }

    #[test]
    fn streamed_supervisor_trip_stops_at_chunk_boundary() {
        use psnt_sup::{CancelToken, RunBudget, Supervisor};
        let c = campaign();
        let rails = vec![Waveform::constant(1.04); 9];
        let instants = vec![Time::from_ns(5.0), Time::from_ns(20.0)];
        // Pre-cancelled, rails already solved: the producer trips
        // before claiming the first chunk, so zero site records stream
        // and the run reports the interrupt plus a terminal abort
        // record.
        let token = CancelToken::new();
        token.cancel();
        let mut records = Vec::new();
        let err = c
            .run_streamed_from_rails(
                &mut RunCtx::serial()
                    .with_supervisor(Supervisor::new(token, RunBudget::unlimited())),
                rails.clone(),
                None,
                instants.clone(),
                RetryPolicy::none(),
                |r| {
                    records.push(r);
                    Ok(())
                },
            )
            .unwrap_err();
        assert_eq!(err, ScanError::Interrupted(psnt_sup::Interrupt::Cancelled));
        assert_eq!(records.len(), 1, "only the terminal abort record");
        assert!(matches!(
            records.last(),
            Some(StreamRecord::Aborted {
                sites_completed: 0,
                ..
            })
        ));
        // Cancelling before the grid solve interrupts even earlier,
        // with the same error.
        let token = CancelToken::new();
        token.cancel();
        let err = c
            .run_resilient(
                &mut RunCtx::serial()
                    .with_supervisor(Supervisor::new(token, RunBudget::unlimited())),
                &vec![Waveform::constant(0.1); 9],
                None,
                Time::from_ns(5.0),
                Time::from_ns(15.0),
                2,
                RetryPolicy::none(),
            )
            .unwrap_err();
        assert_eq!(err, ScanError::Interrupted(psnt_sup::Interrupt::Cancelled));
        // A detached supervisor (the default) streams the full run.
        let mut full = Vec::new();
        c.run_streamed_from_rails(
            &mut RunCtx::serial().with_supervisor(Supervisor::detached()),
            rails,
            None,
            instants,
            RetryPolicy::none(),
            |r| {
                full.push(r);
                Ok(())
            },
        )
        .unwrap();
        assert!(matches!(full.last(), Some(StreamRecord::Summary { .. })));
    }

    #[test]
    fn streamed_records_render_as_events() {
        let c = campaign();
        let mut kinds = Vec::new();
        c.run_streamed_from_rails(
            &mut RunCtx::serial(),
            vec![Waveform::constant(1.04); 9],
            None,
            vec![Time::from_ns(5.0), Time::from_ns(20.0)],
            RetryPolicy::none(),
            |r| {
                kinds.push(r.to_event().kind);
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(kinds.len(), 9 + 2 + 1);
        assert!(kinds[..9].iter().all(|k| k == "stream_site"));
        assert!(kinds[9..11].iter().all(|k| k == "stream_frame"));
        assert_eq!(kinds[11], "stream_summary");
    }

    mod stream_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(6))]

            /// Both public sinks — the collected `run_resilient` and the
            /// streamed `run_streamed_from_rails` — equal the serial
            /// reference sweep at jobs ∈ {1, 4}, across load patterns,
            /// sample counts and fault plans.
            #[test]
            fn sinks_match_serial_reference(
                centre_load in 0.1..1.0f64,
                samples in 1usize..5,
                // 0..9 faults that site; 9 means no fault.
                faulted_site in 0usize..10,
            ) {
                use psnt_fault::{Fault, FaultPlan};
                let c = campaign();
                let mut loads = vec![Waveform::constant(0.03); 9];
                loads[4] = Waveform::constant(centre_load);
                let (start, dt) = (Time::from_ns(10.0), Time::from_ns(20.0));
                let (plan, degraded) = if faulted_site < 9 {
                    (FaultPlan::new().with(Fault::SitePanic { site: faulted_site }), vec![faulted_site])
                } else {
                    (FaultPlan::default(), vec![])
                };
                let prep = c
                    .prepare_sweep(&mut RunCtx::serial(), &loads, None, start, dt, samples)
                    .unwrap();
                let expected = reference(&c, &prep, &degraded);
                for jobs in [1usize, 4] {
                    let collected = c
                        .run_resilient(
                            &mut RunCtx::new(Engine::new(jobs)).with_fault_plan(plan.clone()),
                            &loads,
                            None,
                            start,
                            dt,
                            samples,
                            RetryPolicy::none(),
                        )
                        .unwrap();
                    assert_matches_reference(&collected, &expected, &degraded, "collected");
                    let mut ctx = RunCtx::new(Engine::new(jobs)).with_fault_plan(plan.clone());
                    let streamed = stream_rails(&c, &mut ctx, &prep);
                    assert_matches_reference(&streamed, &expected, &degraded, "streamed");
                }
            }
        }
    }

    #[test]
    fn frames_roundtrip_through_chain() {
        let c = campaign();
        let loads = vec![Waveform::constant(0.1); 9];
        let result = run(
            &c,
            &mut RunCtx::serial(),
            &loads,
            Time::from_ns(5.0),
            Time::from_ns(15.0),
            3,
        )
        .unwrap();
        for (k, frame) in result.frames.iter().enumerate() {
            let codes = c.chain().deserialize(frame).unwrap();
            for (site, code) in result.sites.iter().zip(&codes) {
                assert_eq!(&site.measurements[k].hs_code, code);
            }
        }
    }
}
