//! The four workloads: fixtures, the untraced ops, the traced replicas
//! that drive each layer from the benchmark's own code, and the verify
//! pass that checks both against reference paths.
//!
//! Every op is one closed-loop request: it starts with empty traffic
//! on a fixture built during set-up (grid factor included) and checks
//! its own output. Op `i` of a run uses seed `base + i`.

use std::cell::OnceCell;
use std::fmt::Display;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use psnt_cells::units::{Current, Resistance, Time, Voltage};
use psnt_cells::{Logic, LogicVector, Pvt};
use psnt_control::{
    Actuation, ControlFrame, DelayLine, Mitigator, PiBoost, SiteReading, SupplyBoost,
    ThresholdStretch, ThresholdThrottle,
};
use psnt_core::code::ThermometerCode;
use psnt_core::element::RailMode;
use psnt_core::encoder::OuteWord;
use psnt_core::gate_level::{GateLevelArray, LaneMeasure};
use psnt_core::lanes::LANES;
use psnt_core::mismatch::{
    monte_carlo_yield, monte_carlo_yield_scalar, MismatchModel, YieldReport,
};
use psnt_core::pulsegen::{DelayCode, PulseGenerator};
use psnt_core::system::{Measurement, SensorConfig, SensorSystem};
use psnt_core::thermometer::{CodeInterval, ThermometerArray};
use psnt_ctx::RunCtx;
use psnt_engine::{split_seed, Interrupt, RetryPolicy, Supervisor};
use psnt_fault::{Fault, FaultPlan};
use psnt_pdn::{GridSolution, Waveform};
use psnt_scan::campaign::{DegradationSummary, StreamRecord};
use psnt_workload::checkpoint::{CheckpointPolicy, CHECKPOINT_VERSION};
use psnt_workload::{
    ActuationSample, CycleStepper, MitigatedNocResult, NocWorkload, NocWorkloadConfig,
    NoiseProfile, TrafficPattern, WindowStats, WorkloadCheckpoint, WorkloadError,
};

use crate::stats::Fold;
use crate::trace::Recorder;

/// The cycle `noc-checkpoint` interrupts its run at.
const INTERRUPT_CYCLE: usize = 500;
/// Code-distribution latency of the closed loop, cycles.
const LATENCY: usize = 1;
/// Minimum engagement dwell of the threshold controllers, frames.
const HOLD: usize = 16;
/// Monte-Carlo trials per `population` op.
const MC_TRIALS: usize = 6400;
/// The rails the fault universe is measured at, volts.
const UNIVERSE_RAILS: [f64; 3] = [1.0, 0.96, 0.9];
/// Lanes sampled against the scalar kernel in the verify pass.
const SAMPLED_LANES: u64 = 64;
/// Delay bands per gate the batch kernel keeps exact.
const MAX_DELAY_BANDS: usize = 8;

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Open-loop 256-site NoC campaign.
    NocOpen,
    /// Closed droop-mitigation loop.
    NocClosed,
    /// The open campaign interrupted, checkpointed and resumed.
    NocCheckpoint,
    /// Mismatch Monte-Carlo plus the fault-universe batch sweep.
    Population,
}

impl Kind {
    /// Every workload, in run order.
    pub const ALL: [Kind; 4] = [
        Kind::NocOpen,
        Kind::NocClosed,
        Kind::NocCheckpoint,
        Kind::Population,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Kind::NocOpen => "noc-open",
            Kind::NocClosed => "noc-closed",
            Kind::NocCheckpoint => "noc-checkpoint",
            Kind::Population => "population",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Untimed ops run after the verify pass, before timing starts.
    pub fn warmup_ops(self) -> usize {
        match self {
            Kind::NocOpen => 3,
            Kind::NocClosed => 4,
            Kind::NocCheckpoint => 2,
            Kind::Population => 20,
        }
    }

    /// Engine workers: two on the chip-scale workloads, whose ops run
    /// 40–250 ms and sweep their sites in parallel. One on
    /// `population`: its 4 ms ops fork and join workers for every
    /// Monte-Carlo call, and on a 2-vCPU guest with busy neighbours the
    /// wait to wake the second vCPU then dominates them (ten-run spread
    /// of the probe-scaled median 14–27 % at two workers, 1–3 % at one).
    pub fn jobs(self) -> usize {
        match self {
            Kind::Population => 1,
            _ => 2,
        }
    }

    /// Seeds the verify pass checks: three, or four on the closed loop
    /// so that each of its four controller arms is checked once.
    pub fn verify_ops(self) -> usize {
        match self {
            Kind::NocClosed => 4,
            _ => 3,
        }
    }
}

/// What one op produced.
#[derive(Debug, Clone, Copy)]
pub struct OpOut {
    /// Digests of the op's outputs.
    pub fold: Fold,
    /// Work the op did.
    pub work: Work,
}

/// Work counts and in-call times of one op, summed over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Work {
    /// Simulated NoC cycles.
    pub cycles: u64,
    /// Monte-Carlo trials.
    pub mc_trials: u64,
    /// Seconds inside `monte_carlo_yield`.
    pub mc_s: f64,
    /// Fault plans swept through the batch kernel.
    pub plans: u64,
    /// Seconds inside the fault-universe sweep.
    pub sweep_s: f64,
    /// Bytes of the interrupt checkpoint.
    pub ckpt_bytes: u64,
}

impl Work {
    /// Adds another op's work.
    pub fn add(&mut self, o: &Work) {
        self.cycles += o.cycles;
        self.mc_trials += o.mc_trials;
        self.mc_s += o.mc_s;
        self.plans += o.plans;
        self.sweep_s += o.sweep_s;
        self.ckpt_bytes = self.ckpt_bytes.max(o.ckpt_bytes);
    }
}

fn err(what: &str, e: impl Display) -> String {
    format!("{what}: {e}")
}

/// A workload's state built once during set-up.
#[derive(Debug)]
pub enum Fixture {
    /// The three chip-scale workloads.
    Noc(Box<Chip>),
    /// The sensor-population workload.
    Population(Box<Population>),
}

/// A chip-scale fixture: the workload with its grid factor built.
#[derive(Debug)]
pub struct Chip {
    kind: Kind,
    workload: NocWorkload,
    /// Closed-loop thresholds, self-calibrated from the healthy level.
    engage: usize,
    release: usize,
    ckpt_path: PathBuf,
}

/// The population fixture: arrays, mismatch model and fault universe.
#[derive(Debug)]
pub struct Population {
    hs: ThermometerArray,
    model: MismatchModel,
    pvt: Pvt,
    mc_skew: Time,
    gate: GateLevelArray,
    universe_skew: Time,
    plans: Vec<FaultPlan>,
    /// Per 64-plan chunk: whether every gate sees at most eight distinct
    /// delay factors across the chunk's lanes, the condition under
    /// which the batch kernel's delay banding is exact. Lanes of other
    /// chunks run on quantised delays and are not compared with the
    /// scalar kernel.
    exact_chunks: Vec<bool>,
    golden: Vec<ThermometerCode>,
    /// Digest of the seed-independent universe sweep, taken in the
    /// verify pass; every later op must reproduce it.
    reference: OnceCell<Fold>,
}

/// The chip `noc-closed` runs: the droop-mitigation experiment's bursty
/// 8×8-mesh chip on a 24×24 grid, rails at the centre of the sensor's
/// dynamic range so levels track the droop.
fn droop_chip() -> NocWorkloadConfig {
    NocWorkloadConfig {
        mesh_rows: 8,
        mesh_cols: 8,
        sites_per_tile: 1,
        grid_rows: 24,
        grid_cols: 24,
        v_pad: Voltage::from_v(1.0),
        r_mesh: Resistance::from_milliohms(120.0),
        r_pad: Resistance::from_milliohms(20.0),
        pads: vec![(0, 0), (0, 23), (23, 0), (23, 23)],
        pattern: TrafficPattern::Bursty {
            injection_rate: 0.9,
            on_cycles: 12,
            off_cycles: 20,
        },
        cycles: 400,
        cycle_time: Time::from_ns(1.0),
        idle_current: Current::from_ma(3.0),
        flit_current: Current::from_ma(7.0),
        measure_every: 50,
        sensor: SensorConfig::default(),
    }
}

/// Builds a workload's fixture; returns it with the seconds spent
/// factoring the power grid (`None` for `population`, which has none).
///
/// # Errors
///
/// Any construction failure, as text.
pub fn setup(kind: Kind, ckpt_path: PathBuf) -> Result<(Fixture, Option<f64>), String> {
    if kind == Kind::Population {
        return Ok((Fixture::Population(Box::new(population()?)), None));
    }
    let cfg = if kind == Kind::NocClosed {
        droop_chip()
    } else {
        NocWorkloadConfig::chip_8x8()
    };
    let sensor_cfg = cfg.sensor.clone();
    let v_pad = cfg.v_pad;
    let workload = NocWorkload::new(cfg).map_err(|e| err("NocWorkload::new", e))?;
    let t = Instant::now();
    std::hint::black_box(workload.campaign().floorplan().grid().factor());
    let factor_s = t.elapsed().as_secs_f64();
    let (mut engage, mut release) = (0, 0);
    if kind == Kind::NocClosed {
        // Engage when the droop costs at least one level off the
        // healthy code, as the droop-mitigation experiment does.
        let healthy = SensorSystem::new(sensor_cfg)
            .and_then(|s| s.measure_value(v_pad, Voltage::from_v(0.0), Time::ZERO))
            .map_err(|e| err("healthy level", e))?
            .hs_word
            .level
            .max(1);
        (engage, release) = (healthy - 1, healthy);
    }
    let chip = Chip {
        kind,
        workload,
        engage,
        release,
        ckpt_path,
    };
    Ok((Fixture::Noc(Box::new(chip)), Some(factor_s)))
}

/// The fault-coverage experiment's universe, rebuilt here: single and
/// double stuck-ats on every net, eight delay factors on every gate,
/// and stuck-at × delay crosses on every other net — 1,016 plans.
fn population() -> Result<Population, String> {
    let gate = GateLevelArray::paper().map_err(|e| err("GateLevelArray::paper", e))?;
    let pvt = Pvt::typical();
    let universe_skew = PulseGenerator::paper_table()
        .skew(DelayCode::new(3).map_err(|e| err("delay code", e))?, &pvt);
    let names: Vec<String> = gate
        .netlist()
        .nets()
        .map(|(_, n)| n.name().to_string())
        .collect();
    let gate_names: Vec<String> = gate
        .netlist()
        .gates()
        .iter()
        .map(|g| g.name().to_string())
        .collect();
    const FACTORS: [f64; 8] = [0.25, 0.5, 0.75, 1.5, 2.0, 3.0, 4.0, 6.0];
    let mut plans = Vec::new();
    for name in &names {
        for value in [Logic::Zero, Logic::One] {
            plans.push(FaultPlan::new().with(Fault::stuck_at(name.clone(), value)));
        }
    }
    for i in 0..names.len() {
        for j in (i + 1)..names.len() {
            for va in [Logic::Zero, Logic::One] {
                for vb in [Logic::Zero, Logic::One] {
                    plans.push(
                        FaultPlan::new()
                            .with(Fault::stuck_at(names[i].clone(), va))
                            .with(Fault::stuck_at(names[j].clone(), vb)),
                    );
                }
            }
        }
    }
    for g in &gate_names {
        for f in FACTORS {
            plans.push(FaultPlan::new().with(Fault::delay_scale(g.clone(), f)));
        }
    }
    for (k, anchor) in names.iter().step_by(2).enumerate() {
        let value = if k % 2 == 0 { Logic::Zero } else { Logic::One };
        for g in &gate_names {
            for f in FACTORS {
                plans.push(
                    FaultPlan::new()
                        .with(Fault::stuck_at(anchor.clone(), value))
                        .with(Fault::delay_scale(g.clone(), f)),
                );
            }
        }
    }
    let exact_chunks = plans
        .chunks(LANES)
        .map(|chunk| {
            gate_names.iter().all(|g| {
                let mut factors: Vec<u64> = chunk
                    .iter()
                    .map(|plan| {
                        let f: f64 = plan
                            .faults
                            .iter()
                            .filter_map(|f| match f {
                                Fault::DelayScale { gate, factor } if gate == g => Some(*factor),
                                _ => None,
                            })
                            .product();
                        f.to_bits()
                    })
                    .collect();
                factors.sort_unstable();
                factors.dedup();
                factors.len() <= MAX_DELAY_BANDS
            })
        })
        .collect();
    let golden = {
        let mut ctx = RunCtx::serial();
        UNIVERSE_RAILS
            .iter()
            .map(|&v| gate.measure(&mut ctx, Voltage::from_v(v), universe_skew))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| err("golden measure", e))?
    };
    Ok(Population {
        hs: ThermometerArray::paper(RailMode::Supply),
        model: MismatchModel::local_90nm(),
        pvt,
        mc_skew: Time::from_ps(149.0),
        gate,
        universe_skew,
        plans,
        exact_chunks,
        golden,
        reference: OnceCell::new(),
    })
}

impl Fixture {
    /// Runs op `i` through the library's own entry point.
    ///
    /// # Errors
    ///
    /// Any `Err` from the library or a failed output check.
    pub fn op<'a>(&'a self, ctx: &mut RunCtx<'a>, i: u64, seed: u64) -> Result<OpOut, String> {
        match self {
            Fixture::Noc(chip) => chip.op(ctx, i, seed),
            Fixture::Population(p) => p.op(ctx, seed, None),
        }
    }

    /// Runs op `i` as a replica that drives each layer from this file,
    /// recording a span around every layer call.
    ///
    /// # Errors
    ///
    /// As [`Fixture::op`], plus a PDN replay that is not bit-equal to
    /// the stepper's own solve.
    pub fn traced_op<'a>(
        &'a self,
        ctx: &mut RunCtx<'a>,
        i: u64,
        seed: u64,
        rec: &mut Recorder,
    ) -> Result<OpOut, String> {
        rec.begin_op();
        let out = match self {
            Fixture::Noc(chip) => chip.traced_op(ctx, i, seed, rec),
            Fixture::Population(p) => p.op(ctx, seed, Some(rec)),
        };
        rec.end_op();
        out
    }

    /// The untimed verify pass for op `i`: checks the op against its
    /// reference path and the replica; returns the op's digests.
    ///
    /// # Errors
    ///
    /// The first disagreement found, as text.
    pub fn verify<'a>(&'a self, ctx: &mut RunCtx<'a>, i: u64, seed: u64) -> Result<Fold, String> {
        match self {
            Fixture::Noc(chip) => chip.verify(ctx, i, seed),
            Fixture::Population(p) => p.verify(ctx, seed),
        }
    }

    /// Removes files the fixture wrote.
    pub fn cleanup(&self) {
        if let Fixture::Noc(chip) = self {
            let _ = fs::remove_file(&chip.ckpt_path);
            let _ = fs::remove_file(chip.ckpt_path.with_extension("tmp"));
        }
    }
}

// ---------------------------------------------------------------- folding

fn logic_code(l: Logic) -> u64 {
    match l {
        Logic::Zero => 0,
        Logic::One => 1,
        Logic::X => 2,
        Logic::Z => 3,
    }
}

fn fold_bits(f: &mut Fold, bits: &LogicVector) {
    let mut word = 0u64;
    for (k, l) in bits.iter().enumerate() {
        word = word << 2 | logic_code(l);
        if k % 32 == 31 {
            f.int(word);
            word = 0;
        }
    }
    f.int(word.rotate_left(8) ^ bits.len() as u64);
}

fn fold_code(f: &mut Fold, c: &ThermometerCode) {
    fold_bits(f, c.bits());
}

fn fold_word(f: &mut Fold, w: &OuteWord) {
    f.size(w.level);
    fold_bits(f, &w.binary);
    f.int(u64::from(w.underflow) | u64::from(w.overflow) << 1 | u64::from(w.bubbled) << 2);
}

fn fold_bound(f: &mut Fold, v: Option<Voltage>) {
    match v {
        Some(v) => {
            f.int(1);
            f.float(v.volts());
        }
        None => f.int(0),
    }
}

fn fold_interval(f: &mut Fold, i: &CodeInterval) {
    fold_bound(f, i.lower);
    fold_bound(f, i.upper);
}

fn fold_measurement(f: &mut Fold, m: &Measurement) {
    f.float(m.at.picoseconds());
    fold_code(f, &m.hs_code);
    fold_code(f, &m.ls_code);
    fold_word(f, &m.hs_word);
    fold_word(f, &m.ls_word);
    fold_interval(f, &m.hs_interval);
    fold_interval(f, &m.ls_interval);
}

fn fold_profile(f: &mut Fold, p: &NoiseProfile) {
    f.float(p.v_nom);
    f.size(p.windows.len());
    for w in &p.windows {
        f.size(w.window);
        f.size(w.start_cycle);
        f.float(w.instant.picoseconds());
        f.float(w.min_v);
        f.size(w.worst_node);
        f.float(w.mean_v);
        f.float(w.mean_current);
        f.int(w.events);
    }
    f.int(p.flits);
}

fn fold_mitigated(f: &mut Fold, r: &MitigatedNocResult) {
    fold_profile(f, &r.profile);
    for &d in &r.droop_trace {
        f.float(d);
    }
    for a in &r.actuation_trace {
        f.size(a.cycle);
        f.size(a.stretched);
        f.size(a.throttled);
        f.size(a.boosted);
    }
    f.float(r.worst_droop);
    f.size(r.worst_droop_cycle);
    f.int(r.engaged_cycles);
    f.int(r.degraded_readings);
    f.size(r.deferred_peak);
    f.size(r.actuation_toggles());
    f.size(r.latency);
}

fn fold_yield(f: &mut Fold, r: &YieldReport) {
    f.size(r.trials);
    f.size(r.monotone);
    f.float(r.mean_abs_shift);
    f.float(r.worst_shift);
}

/// A streamed campaign's sink: folds every record, counts sites and
/// frames, and optionally keeps the records for a record-for-record
/// comparison.
#[derive(Debug, Default)]
struct Sweep {
    fold: Fold,
    sites: usize,
    degraded: usize,
    frames: usize,
    summary: Option<DegradationSummary>,
    aborted: Option<String>,
    records: Option<Vec<StreamRecord>>,
}

impl Sweep {
    fn new(keep: bool) -> Sweep {
        Sweep {
            records: keep.then(Vec::new),
            ..Sweep::default()
        }
    }

    fn push(&mut self, r: StreamRecord) {
        let f = &mut self.fold;
        match &r {
            StreamRecord::Site {
                site,
                windows,
                series,
                outcome,
            } => {
                self.sites += 1;
                f.int(1);
                f.size(*site);
                for &w in windows {
                    f.size(w);
                }
                f.size(series.tile);
                f.size(series.measurements.len());
                for m in &series.measurements {
                    fold_measurement(f, m);
                }
                if !outcome.is_measured() {
                    self.degraded += 1;
                    f.int(u64::MAX);
                }
            }
            StreamRecord::Frame {
                index,
                instant,
                frame,
            } => {
                self.frames += 1;
                f.int(2);
                f.size(*index);
                f.float(instant.picoseconds());
                fold_bits(f, frame);
            }
            StreamRecord::Summary { windows, summary } => {
                f.int(3);
                f.size(*windows);
                f.size(summary.sites_degraded);
                f.size(summary.dead_elements);
                f.size(summary.worst_code_error);
                self.summary = Some(*summary);
            }
            StreamRecord::Aborted { reason, .. } => self.aborted = Some(reason.clone()),
        }
        if let Some(v) = &mut self.records {
            v.push(r);
        }
    }

    /// The cheap per-op checks: a complete, undegraded stream.
    fn check(&self, sites: usize, windows: usize) -> Result<(), String> {
        if let Some(reason) = &self.aborted {
            return Err(format!("stream aborted: {reason}"));
        }
        if self.sites != sites || self.degraded != 0 {
            return Err(format!(
                "{} site records ({} degraded), expected {sites} and 0",
                self.sites, self.degraded
            ));
        }
        if self.frames != windows {
            return Err(format!("{} frames, expected {windows}", self.frames));
        }
        match self.summary {
            Some(s) if s.sites_degraded == 0 => Ok(()),
            Some(s) => Err(format!(
                "summary reports {} degraded sites",
                s.sites_degraded
            )),
            None => Err("stream ended without a summary".into()),
        }
    }
}

/// The output of one open-campaign run, library or replica.
#[derive(Debug)]
struct NocRun {
    sweep: Sweep,
    profile: NoiseProfile,
}

// ---------------------------------------------------------------- chip ops

/// The benchmark's own cycle loop over a [`CycleStepper`]: step, replay
/// the cycle's PDN delta solve, sample rails and window statistics —
/// the work `NocWorkload`'s drivers do, one span per layer call.
struct Stepped<'w> {
    workload: &'w NocWorkload,
    stepper: CycleStepper<'w>,
    /// The replayed solve chain, asserted bit-equal every cycle.
    replay: Option<GridSolution>,
    prev_eff: Vec<u32>,
    changed: Vec<(usize, f64)>,
    idle_node: f64,
    flit_node: f64,
    site_nodes: Vec<usize>,
    site_points: Vec<Vec<(Time, f64)>>,
    stats: Vec<WindowStats>,
}

impl<'w> Stepped<'w> {
    fn plan(
        workload: &'w NocWorkload,
        ctx: &mut RunCtx<'_>,
        rec: &mut Recorder,
        rails: bool,
    ) -> Result<Stepped<'w>, String> {
        let stepper = rec
            .span("workload.plan", || CycleStepper::new(workload, ctx))
            .map_err(|e| err("CycleStepper::new", e))?;
        let cfg = workload.config();
        let tiles = workload.mesh().tiles();
        let block = workload.block_nodes(0).len() as f64;
        let site_nodes: Vec<usize> = workload
            .campaign()
            .floorplan()
            .sites()
            .iter()
            .map(|s| s.tile)
            .collect();
        let me = cfg.measure_every;
        let stats = (0..workload.windows())
            .map(|w| WindowStats {
                window: w,
                start_cycle: w * me,
                instant: cfg.cycle_time * ((w * me + me / 2) as f64 + 0.5),
                min_v: f64::INFINITY,
                worst_node: 0,
                mean_v: 0.0,
                mean_current: 0.0,
                events: 0,
            })
            .collect();
        let points = if rails { cfg.cycles } else { 0 };
        Ok(Stepped {
            workload,
            stepper,
            replay: None,
            prev_eff: vec![0; tiles],
            changed: Vec::new(),
            idle_node: cfg.idle_current.amps() / block,
            flit_node: cfg.flit_current.amps() / block,
            site_points: vec![Vec::with_capacity(points); if rails { site_nodes.len() } else { 0 }],
            site_nodes,
            stats,
        })
    }

    /// Steps one cycle, then re-issues its `solve_delta` on the replay
    /// chain — the changed set is the blocks whose effective counts
    /// moved, at `idle/block + flit/block · count` — and asserts the
    /// result bit-equal to the stepper's own solution.
    fn step(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let c = self.stepper.cycle();
        rec.span("workload.step", || self.stepper.step())
            .map_err(|e| err("CycleStepper::step", e))?;
        let eff = self.stepper.effective_counts();
        match self.replay.take() {
            None => self.replay = Some(self.stepper.solution().clone()),
            Some(prior) => {
                self.changed.clear();
                let mut tiles = 0u32;
                for (t, (&now, &before)) in eff.iter().zip(&self.prev_eff).enumerate() {
                    if now != before {
                        tiles += 1;
                        let l = self.idle_node + self.flit_node * f64::from(now);
                        self.changed
                            .extend(self.workload.block_nodes(t).iter().map(|&nd| (nd, l)));
                    }
                }
                rec.count("workload.changed_tiles", f64::from(tiles));
                if self.changed.is_empty() {
                    self.replay = Some(prior);
                } else {
                    let grid = self.workload.campaign().floorplan().grid();
                    let changed = &self.changed;
                    let next = rec
                        .span("pdn.solve_delta", || grid.solve_delta(&prior, changed))
                        .map_err(|e| err("solve_delta replay", e))?;
                    rec.count("workload.delta_solves", 1.0);
                    self.replay = Some(next);
                }
            }
        }
        rec.count("workload.cycles", 1.0);
        self.prev_eff.copy_from_slice(eff);
        let want = self.stepper.solution().voltages();
        let got = self.replay.as_ref().map_or(&[][..], GridSolution::voltages);
        if want.len() != got.len()
            || want
                .iter()
                .zip(got)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err(format!("PDN replay is not bit-equal at cycle {c}"));
        }
        Ok(())
    }

    /// Folds the last stepped cycle into its window's statistics, with
    /// the arithmetic of the library's drivers.
    fn accumulate(&mut self, c: usize) {
        let me = self.workload.config().measure_every;
        let n = self.workload.campaign().floorplan().grid().tiles();
        if let Some(w) = self.stats.get_mut(c / me) {
            let st = &self.stepper;
            let (node, v_min) = st.hotspot();
            if v_min < w.min_v {
                w.min_v = v_min;
                w.worst_node = node;
            }
            let me = me as f64;
            w.mean_v += st.voltages().iter().sum::<f64>() / (n as f64 * me);
            w.mean_current += st.solution().loads().iter().sum::<f64>() / me;
            w.events += st.raw_counts().iter().map(|&x| u64::from(x)).sum::<u64>();
        }
    }

    /// Samples the site rails of the last stepped cycle and its window
    /// statistics.
    fn sample(&mut self, rec: &mut Recorder, c: usize) {
        rec.begin("workload.sample");
        let t_c = self.workload.config().cycle_time * (c as f64 + 0.5);
        let v = self.stepper.voltages();
        for (pts, &nd) in self.site_points.iter_mut().zip(&self.site_nodes) {
            pts.push((t_c, v[nd]));
        }
        self.accumulate(c);
        rec.end();
    }

    fn run_to(&mut self, rec: &mut Recorder, end: usize) -> Result<(), String> {
        while self.stepper.cycle() < end {
            let c = self.stepper.cycle();
            self.step(rec)?;
            self.sample(rec, c);
        }
        Ok(())
    }

    /// The snapshot the library writes when the run is interrupted.
    fn checkpoint(&self, seed: u64) -> WorkloadCheckpoint {
        let done = self.stepper.cycle();
        let me = self.workload.config().measure_every;
        let touched = done.div_ceil(me).min(self.workload.windows());
        WorkloadCheckpoint {
            version: CHECKPOINT_VERSION,
            seed,
            stepper: self.stepper.snapshot(),
            stats_done: self.stats[..touched].to_vec(),
            site_points: self.site_points.clone(),
        }
    }

    /// Reinstates a checkpoint into a freshly planned run.
    fn restore(&mut self, ckpt: &WorkloadCheckpoint, seed: u64) -> Result<(), String> {
        if ckpt.version != CHECKPOINT_VERSION || ckpt.seed != seed {
            return Err(format!(
                "checkpoint version {} seed {}, expected {CHECKPOINT_VERSION} / {seed}",
                ckpt.version, ckpt.seed
            ));
        }
        self.stepper
            .restore(&ckpt.stepper)
            .map_err(|e| err("restore", e))?;
        let done = self.stepper.cycle();
        let touched = ckpt.stats_done.len();
        if touched > self.stats.len()
            || ckpt.site_points.len() != self.site_points.len()
            || ckpt.site_points.iter().any(|s| s.len() != done)
        {
            return Err(format!("checkpoint shape does not match cycle {done}"));
        }
        self.stats[..touched].clone_from_slice(&ckpt.stats_done);
        self.site_points.clone_from(&ckpt.site_points);
        Ok(())
    }

    /// Builds the rail waveforms and sweeps every site through the scan
    /// layer's streamed path.
    fn sweep(self, ctx: &mut RunCtx<'_>, rec: &mut Recorder, keep: bool) -> Result<NocRun, String> {
        rec.begin("workload.rails");
        let grid = self.workload.campaign().floorplan().grid();
        let v_nom = grid.v_pad().volts();
        let mut supplies = vec![Waveform::constant(v_nom); grid.tiles()];
        for (pts, &nd) in self.site_points.into_iter().zip(&self.site_nodes) {
            supplies[nd] =
                Waveform::from_points(pts).map_err(|e| err("Waveform::from_points", e))?;
        }
        let instants: Vec<Time> = self.stats.iter().map(|w| w.instant).collect();
        let profile = NoiseProfile {
            v_nom,
            windows: self.stats,
            flits: self.stepper.planned_flits(),
        };
        rec.end();
        let mut sweep = Sweep::new(keep);
        let campaign = self.workload.campaign();
        let summary = rec
            .span("scan.sweep", || {
                campaign.run_streamed_from_rails(
                    ctx,
                    supplies,
                    None,
                    instants,
                    RetryPolicy::none(),
                    |r| {
                        sweep.push(r);
                        Ok(())
                    },
                )
            })
            .map_err(|e| err("run_streamed_from_rails", e))?;
        if sweep.summary != Some(summary) {
            return Err("returned summary differs from the streamed one".into());
        }
        rec.count("scan.records", sweep.sites as f64);
        rec.count("scan.degraded_sites", sweep.degraded as f64);
        Ok(NocRun { sweep, profile })
    }
}

impl Chip {
    fn sites(&self) -> usize {
        self.workload.campaign().floorplan().sites().len()
    }

    fn out(&self, run: &NocRun, work: Work) -> Result<OpOut, String> {
        run.sweep.check(self.sites(), self.workload.windows())?;
        let mut fold = run.sweep.fold;
        fold_profile(&mut fold, &run.profile);
        Ok(OpOut { fold, work })
    }

    fn cycles(&self) -> u64 {
        self.workload.config().cycles as u64
    }

    fn op<'a>(&'a self, ctx: &mut RunCtx<'a>, i: u64, seed: u64) -> Result<OpOut, String> {
        let work = Work {
            cycles: self.cycles(),
            ..Work::default()
        };
        match self.kind {
            Kind::NocOpen => self.out(&self.open(ctx, seed, false)?, work),
            Kind::NocCheckpoint => {
                let (run, _, bytes) = self.checkpointed(ctx, seed, false)?;
                self.out(
                    &run,
                    Work {
                        ckpt_bytes: bytes,
                        ..work
                    },
                )
            }
            _ => closed_out(&self.closed(ctx, i, seed)?, work),
        }
    }

    fn traced_op<'a>(
        &'a self,
        ctx: &mut RunCtx<'a>,
        i: u64,
        seed: u64,
        rec: &mut Recorder,
    ) -> Result<OpOut, String> {
        let work = Work {
            cycles: self.cycles(),
            ..Work::default()
        };
        match self.kind {
            Kind::NocOpen => self.out(&self.open_replica(ctx, seed, rec, false)?, work),
            Kind::NocCheckpoint => {
                let (run, _, bytes) = self.checkpoint_replica(ctx, seed, rec, false)?;
                rec.count("checkpoint.bytes", bytes as f64);
                self.out(
                    &run,
                    Work {
                        ckpt_bytes: bytes,
                        ..work
                    },
                )
            }
            _ => closed_out(&self.closed_replica(ctx, i, seed, rec)?, work),
        }
    }

    fn verify<'a>(&'a self, ctx: &mut RunCtx<'a>, i: u64, seed: u64) -> Result<Fold, String> {
        let mut scratch = Recorder::default();
        let same = |what: &str, ok: bool| {
            if ok {
                Ok(())
            } else {
                Err(format!("seed {seed}: {what}"))
            }
        };
        let out = match self.kind {
            Kind::NocOpen => {
                let lib = self.open(ctx, seed, true)?;
                let rep = self.open_replica(ctx, seed, &mut scratch, true)?;
                same(
                    "stepper replica differs from NocWorkload::run_streamed",
                    rep.sweep.records == lib.sweep.records && rep.profile == lib.profile,
                )?;
                self.out(&lib, Work::default())?
            }
            Kind::NocCheckpoint => {
                let whole = self.open(ctx, seed, true)?;
                let (resumed, lib_ckpt, _) = self.checkpointed(ctx, seed, true)?;
                same(
                    "resumed output differs from the uninterrupted run",
                    resumed.sweep.records == whole.sweep.records
                        && resumed.profile == whole.profile,
                )?;
                let (rep, rep_ckpt, _) = self.checkpoint_replica(ctx, seed, &mut scratch, true)?;
                same(
                    "replica checkpoint differs from the library's",
                    rep_ckpt == lib_ckpt,
                )?;
                same(
                    "replica output differs from the resumed run",
                    rep.sweep.records == resumed.sweep.records && rep.profile == resumed.profile,
                )?;
                self.out(&resumed, Work::default())?
            }
            _ => {
                let lib = self.closed(ctx, i, seed)?;
                let rep = self.closed_replica(ctx, i, seed, &mut scratch)?;
                same(
                    "closed-loop replica differs from NocWorkload::run_mitigated",
                    rep == lib,
                )?;
                let work = Work {
                    cycles: self.cycles(),
                    ..Work::default()
                };
                closed_out(&lib, work)?
            }
        };
        Ok(out.fold)
    }

    // -- noc-open

    fn open(&self, ctx: &mut RunCtx<'_>, seed: u64, keep: bool) -> Result<NocRun, String> {
        ctx.set_seed(seed);
        let mut sweep = Sweep::new(keep);
        let out = self
            .workload
            .run_streamed(ctx, RetryPolicy::none(), |r| {
                sweep.push(r);
                Ok(())
            })
            .map_err(|e| err("run_streamed", e))?;
        Ok(NocRun {
            sweep,
            profile: out.profile,
        })
    }

    fn open_replica(
        &self,
        ctx: &mut RunCtx<'_>,
        seed: u64,
        rec: &mut Recorder,
        keep: bool,
    ) -> Result<NocRun, String> {
        ctx.set_seed(seed);
        let mut s = Stepped::plan(&self.workload, ctx, rec, true)?;
        s.run_to(rec, self.workload.config().cycles)?;
        s.sweep(ctx, rec, keep)
    }

    // -- noc-checkpoint

    /// The library path: run until `Fault::CancelAt` interrupts it at
    /// [`INTERRUPT_CYCLE`] (the trip writes the checkpoint), load the
    /// snapshot, resume to completion.
    fn checkpointed(
        &self,
        ctx: &mut RunCtx<'_>,
        seed: u64,
        keep: bool,
    ) -> Result<(NocRun, WorkloadCheckpoint, u64), String> {
        ctx.set_seed(seed);
        ctx.set_supervisor(Supervisor::detached());
        ctx.set_fault_plan(Some(FaultPlan::new().with(Fault::CancelAt {
            cycle: INTERRUPT_CYCLE as u64,
        })));
        let policy = CheckpointPolicy {
            path: Some(self.ckpt_path.clone()),
            every: None,
        };
        let first = self.workload.run_streamed_checkpointed(
            ctx,
            RetryPolicy::none(),
            &policy,
            None,
            |_| Ok(()),
        );
        // The cancelled token is sticky: the resumed run gets a fresh one.
        ctx.set_fault_plan(None);
        ctx.set_supervisor(Supervisor::detached());
        match first {
            Err(WorkloadError::Interrupted(Interrupt::Cancelled)) => {}
            Err(e) => return Err(err("interrupted run", e)),
            Ok(_) => return Err("the run was not interrupted".into()),
        }
        let bytes = fs::metadata(&self.ckpt_path)
            .map_err(|e| err("checkpoint size", e))?
            .len();
        let ckpt =
            WorkloadCheckpoint::load(&self.ckpt_path).map_err(|e| err("checkpoint load", e))?;
        if ckpt.cycle() != INTERRUPT_CYCLE {
            return Err(format!(
                "checkpoint at cycle {}, expected {INTERRUPT_CYCLE}",
                ckpt.cycle()
            ));
        }
        let mut sweep = Sweep::new(keep);
        let out = self
            .workload
            .run_streamed_checkpointed(
                ctx,
                RetryPolicy::none(),
                &CheckpointPolicy::none(),
                Some(&ckpt),
                |r| {
                    sweep.push(r);
                    Ok(())
                },
            )
            .map_err(|e| err("resumed run", e))?;
        let run = NocRun {
            sweep,
            profile: out.profile,
        };
        Ok((run, ckpt, bytes))
    }

    fn checkpoint_replica(
        &self,
        ctx: &mut RunCtx<'_>,
        seed: u64,
        rec: &mut Recorder,
        keep: bool,
    ) -> Result<(NocRun, WorkloadCheckpoint, u64), String> {
        ctx.set_seed(seed);
        let mut s = Stepped::plan(&self.workload, ctx, rec, true)?;
        s.run_to(rec, INTERRUPT_CYCLE)?;
        let path = &self.ckpt_path;
        rec.span("checkpoint.save", || s.checkpoint(seed).save(path))
            .map_err(|e| err("checkpoint save", e))?;
        // The interrupted run ends here; the resumed one replans.
        drop(s);
        let bytes = fs::metadata(path)
            .map_err(|e| err("checkpoint size", e))?
            .len();
        let ckpt = rec
            .span("checkpoint.load", || WorkloadCheckpoint::load(path))
            .map_err(|e| err("checkpoint load", e))?;
        let mut r = Stepped::plan(&self.workload, ctx, rec, true)?;
        rec.span("checkpoint.resume", || r.restore(&ckpt, seed))?;
        r.replay = Some(r.stepper.solution().clone());
        r.prev_eff.copy_from_slice(r.stepper.effective_counts());
        r.run_to(rec, self.workload.config().cycles)?;
        Ok((r.sweep(ctx, rec, keep)?, ckpt, bytes))
    }

    // -- noc-closed

    /// Arm `i mod 4` over the four actuation doors.
    fn mitigator(&self, i: u64) -> Result<Box<dyn Mitigator>, String> {
        let tiles = self.workload.mesh().tiles();
        let (e, r) = (self.engage, self.release);
        let m: Box<dyn Mitigator> = match i % 4 {
            0 => Box::new(
                ThresholdStretch::new(tiles, e, r, 0.25)
                    .map_err(|x| err("stretch", x))?
                    .with_hold(HOLD),
            ),
            1 => Box::new(
                ThresholdThrottle::new(tiles, e, r)
                    .map_err(|x| err("throttle", x))?
                    .with_hold(HOLD),
            ),
            2 => Box::new(
                SupplyBoost::new(tiles, e, r, Voltage::from_v(0.06))
                    .map_err(|x| err("boost", x))?
                    .with_hold(HOLD),
            ),
            _ => Box::new(PiBoost::new(tiles, r as f64, 0.02, 0.01).map_err(|x| err("pi", x))?),
        };
        Ok(m)
    }

    fn closed(
        &self,
        ctx: &mut RunCtx<'_>,
        i: u64,
        seed: u64,
    ) -> Result<MitigatedNocResult, String> {
        ctx.set_seed(seed);
        let mut m = self.mitigator(i)?;
        self.workload
            .run_mitigated(ctx, Some(m.as_mut()), LATENCY)
            .map_err(|e| err("run_mitigated", e))
    }

    /// The closed loop driven from here: step → sense every site with
    /// `measure_value` → `DelayLine::push` → `Mitigator::observe` →
    /// `CycleStepper::apply`, with the library driver's bookkeeping.
    fn closed_replica(
        &self,
        ctx: &mut RunCtx<'_>,
        i: u64,
        seed: u64,
        rec: &mut Recorder,
    ) -> Result<MitigatedNocResult, String> {
        ctx.set_seed(seed);
        let mut m = self.mitigator(i)?;
        let w = &self.workload;
        let cfg = w.config();
        let tiles = w.mesh().tiles();
        let sensor = rec
            .span("core.sensor_new", || SensorSystem::new(cfg.sensor.clone()))
            .map_err(|e| err("SensorSystem::new", e))?;
        let grid = w.campaign().floorplan().grid();
        let v_nom = grid.v_pad().volts();
        let mut node_domain = vec![0usize; grid.tiles()];
        for t in 0..tiles {
            for &nd in w.block_nodes(t) {
                node_domain[nd] = t;
            }
        }
        let mut s = Stepped::plan(w, ctx, rec, false)?;
        let mut delay = DelayLine::new(LATENCY);
        let mut act = Actuation::neutral(tiles);
        let mut droop_trace = Vec::with_capacity(cfg.cycles);
        let mut actuation_trace = Vec::with_capacity(cfg.cycles);
        let (mut worst_droop, mut worst_droop_cycle) = (0.0f64, 0usize);
        let (mut engaged_cycles, mut deferred_peak) = (0u64, 0usize);
        for c in 0..cfg.cycles {
            s.step(rec)?;
            rec.begin("workload.sample");
            s.accumulate(c);
            let droop = v_nom - s.stepper.hotspot().1;
            if droop > worst_droop {
                worst_droop = droop;
                worst_droop_cycle = c;
            }
            droop_trace.push(droop);
            deferred_peak = deferred_peak.max(s.stepper.deferred_backlog());
            let a = s.stepper.actuation();
            if !a.is_neutral() {
                engaged_cycles += 1;
            }
            actuation_trace.push(ActuationSample {
                cycle: c,
                stretched: (0..tiles).filter(|&t| a.stretch(t) < 1.0).count(),
                throttled: (0..tiles).filter(|&t| a.throttled(t)).count(),
                boosted: (0..tiles).filter(|&t| a.boost(t) > 0.0).count(),
            });
            rec.end();

            rec.begin("core.measure_value");
            let at = cfg.cycle_time * (c as f64 + 0.5);
            let v = s.stepper.voltages();
            let readings: Result<Vec<SiteReading>, _> = s
                .site_nodes
                .iter()
                .map(|&nd| {
                    sensor
                        .measure_value(Voltage::from_v(v[nd]), Voltage::from_v(0.0), at)
                        .map(|meas| SiteReading {
                            domain: node_domain[nd],
                            level: Some(meas.hs_word.level),
                        })
                })
                .collect();
            rec.end();
            let readings = readings.map_err(|e| err("measure_value", e))?;
            rec.count("core.measure_value_calls", readings.len() as f64);
            let frame = ControlFrame {
                cycle: c as u64,
                readings,
            };
            rec.begin("control.observe");
            let observed = delay.push(frame);
            if let Some(f) = &observed {
                m.observe(f, &mut act);
            }
            rec.end();
            if observed.is_some() {
                rec.span("workload.apply", || s.stepper.apply(&act))
                    .map_err(|e| err("apply", e))?;
            }
        }
        let out = MitigatedNocResult {
            policy: m.name().to_string(),
            latency: LATENCY,
            profile: NoiseProfile {
                v_nom,
                windows: s.stats,
                flits: s.stepper.planned_flits(),
            },
            droop_trace,
            actuation_trace,
            worst_droop,
            worst_droop_cycle,
            engaged_cycles,
            degraded_readings: 0,
            deferred_peak,
        };
        rec.count("control.engaged_cycles", engaged_cycles as f64);
        rec.count("control.actuation_toggles", out.actuation_toggles() as f64);
        Ok(out)
    }
}

/// The closed loop's cheap checks (one droop sample per cycle, no
/// dropped readings) and digests.
fn closed_out(r: &MitigatedNocResult, work: Work) -> Result<OpOut, String> {
    let cycles = work.cycles as usize;
    if r.droop_trace.len() != cycles || r.actuation_trace.len() != cycles {
        return Err(format!(
            "{} droop samples, expected {cycles}",
            r.droop_trace.len()
        ));
    }
    if r.degraded_readings != 0 {
        return Err(format!("{} degraded readings", r.degraded_readings));
    }
    let mut fold = Fold::default();
    fold_mitigated(&mut fold, r);
    Ok(OpOut { fold, work })
}

// ---------------------------------------------------------------- population

/// The universe sweep's result.
struct Universe {
    fold: Fold,
    lanes: Vec<Vec<Vec<LaneMeasure>>>,
}

impl Population {
    /// `monte_carlo_yield` over [`MC_TRIALS`] trials, then the whole
    /// fault universe through `measure_batch` at three rails, 64 plans
    /// per call. Traced when `rec` is given.
    fn op<'a>(
        &'a self,
        ctx: &mut RunCtx<'a>,
        seed: u64,
        mut rec: Option<&mut Recorder>,
    ) -> Result<OpOut, String> {
        ctx.set_seed(seed);
        let t = Instant::now();
        let mut mc = || {
            monte_carlo_yield(
                ctx,
                &self.hs,
                self.mc_skew,
                &self.pvt,
                &self.model,
                MC_TRIALS,
            )
        };
        let report = match rec.as_deref_mut() {
            Some(r) => r.span("core.mc_yield", mc),
            None => mc(),
        }
        .map_err(|e| err("monte_carlo_yield", e))?;
        let mc_s = t.elapsed().as_secs_f64();
        if let Some(r) = rec.as_deref_mut() {
            r.count("core.mc_trials", MC_TRIALS as f64);
        }
        let t = Instant::now();
        let universe = self.sweep(ctx, rec, false)?;
        let sweep_s = t.elapsed().as_secs_f64();
        if report.trials != MC_TRIALS || report.monotone > report.trials {
            return Err(format!(
                "yield report of {} trials ({} monotone), expected {MC_TRIALS}",
                report.trials, report.monotone
            ));
        }
        match self.reference.get() {
            Some(r) if *r == universe.fold => {}
            Some(_) => return Err("fault-universe sweep differs from the verified one".into()),
            None => return Err("the verify pass has not run".into()),
        }
        let mut fold = Fold::default();
        fold_yield(&mut fold, &report);
        fold.fold(universe.fold);
        Ok(OpOut {
            fold,
            work: Work {
                mc_trials: MC_TRIALS as u64,
                mc_s,
                plans: self.plans.len() as u64,
                sweep_s,
                ..Work::default()
            },
        })
    }

    fn sweep<'a>(
        &'a self,
        ctx: &mut RunCtx<'a>,
        mut rec: Option<&mut Recorder>,
        keep: bool,
    ) -> Result<Universe, String> {
        let mut fold = Fold::default();
        let mut lanes = Vec::new();
        let (mut calls, mut lane_errors) = (0u32, 0u32);
        for chunk in self.plans.chunks(LANES) {
            let mut per_rail = Vec::with_capacity(UNIVERSE_RAILS.len());
            for &v in &UNIVERSE_RAILS {
                let rail = Voltage::from_v(v);
                let mut batch = || {
                    self.gate
                        .measure_batch(ctx, rail, self.universe_skew, chunk)
                };
                let res = match rec.as_deref_mut() {
                    Some(r) => r.span("core.measure_batch", batch),
                    None => batch(),
                }
                .map_err(|e| err("measure_batch", e))?;
                calls += 1;
                per_rail.push(res);
            }
            for l in 0..chunk.len() {
                let mut detected = false;
                for (res, gold) in per_rail.iter().zip(&self.golden) {
                    match &res[l] {
                        Ok((sense, prepare)) => {
                            fold_code(&mut fold, sense);
                            fold_code(&mut fold, prepare);
                            detected |= sense != gold;
                        }
                        Err(_) => {
                            fold.int(u64::MAX);
                            detected = true;
                            lane_errors += 1;
                        }
                    }
                }
                fold.int(u64::from(detected));
            }
            if keep {
                lanes.push(per_rail);
            }
        }
        if let Some(r) = rec {
            r.count("core.fault_plans", self.plans.len() as f64);
            r.count("core.measure_batch_calls", f64::from(calls));
            r.count("core.batch_lane_errors", f64::from(lane_errors));
        }
        Ok(Universe { fold, lanes })
    }

    fn verify<'a>(&'a self, ctx: &mut RunCtx<'a>, seed: u64) -> Result<Fold, String> {
        ctx.set_seed(seed);
        let batched = monte_carlo_yield(
            ctx,
            &self.hs,
            self.mc_skew,
            &self.pvt,
            &self.model,
            MC_TRIALS,
        )
        .map_err(|e| err("monte_carlo_yield", e))?;
        let scalar = monte_carlo_yield_scalar(
            ctx,
            &self.hs,
            self.mc_skew,
            &self.pvt,
            &self.model,
            MC_TRIALS,
        )
        .map_err(|e| err("monte_carlo_yield_scalar", e))?;
        if batched != scalar {
            return Err(format!(
                "seed {seed}: batched Monte-Carlo differs from the scalar reference"
            ));
        }
        let universe = self.sweep(ctx, None, true)?;
        let reference = *self.reference.get_or_init(|| universe.fold);
        if reference != universe.fold {
            return Err("fault-universe sweep is not repeatable".into());
        }
        let slots = self.plans.len() as u64 * UNIVERSE_RAILS.len() as u64;
        let mut sampled = 0;
        for k in 0.. {
            if sampled == SAMPLED_LANES {
                break;
            }
            let slot = usize::try_from(split_seed(seed, k) % slots).expect("slot fits usize");
            let (p, r) = (slot / UNIVERSE_RAILS.len(), slot % UNIVERSE_RAILS.len());
            if !self.exact_chunks[p / LANES] {
                continue;
            }
            sampled += 1;
            ctx.set_fault_plan(Some(self.plans[p].clone()));
            let scalar = self.gate.measure_detailed(
                ctx,
                Voltage::from_v(UNIVERSE_RAILS[r]),
                self.universe_skew,
            );
            ctx.set_fault_plan(None);
            let lane = &universe.lanes[p / LANES][r][p % LANES];
            let agree = match (lane, &scalar) {
                (Ok(a), Ok(b)) => a == b,
                (Err(_), Err(_)) => true,
                _ => false,
            };
            if !agree {
                return Err(format!(
                    "plan {p} at {} V: batch lane {lane:?} differs from measure_detailed {scalar:?}",
                    UNIVERSE_RAILS[r]
                ));
            }
        }
        let mut fold = Fold::default();
        fold_yield(&mut fold, &batched);
        fold.fold(universe.fold);
        Ok(fold)
    }
}
