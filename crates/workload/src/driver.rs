//! The one supervised cycle loop behind every [`NocWorkload`] driver.
//!
//! [`NocWorkload::drive`] holds everything the open-loop campaign and
//! the closed droop loop share. It builds the [`CycleStepper`], counts
//! `workload.flits` and `workload.delta_solves`, opens the run span and
//! closes it on every exit path, fires the harness faults
//! ([`Fault::CancelAt`](psnt_fault::Fault::CancelAt) cancels the
//! supervisor's token at exactly that cycle,
//! [`Fault::DeadlineTrip`](psnt_fault::Fault::DeadlineTrip) trips the
//! wall-clock deadline at the run's midpoint), checks the supervisor and
//! charges its event budget once per cycle, folds every cycle into the
//! window statistics, writes cadence and interrupt snapshots, and
//! restores the state every snapshot shares on resume.
//!
//! A [`CycleDriver`] plugs in the rest: the open loop records each
//! site's rail knot, the closed loop senses, delays and actuates. The
//! loop is generic over the driver, so the per-cycle path makes no
//! `dyn` call.
//!
//! The loop plans up to [`CycleDriver::LANES`] cycles (stages 1–2 and
//! the grid update) before it drains them: one lane-kernel pass solves
//! their grid updates, then each cycle in turn is advanced, scanned,
//! folded into its window and handed to the driver. It drains when the
//! batch is full, before any snapshot, on a plan error and at the end,
//! so every snapshot and every driver call sees the state a
//! cycle-by-cycle loop would.
//!
//! Snapshots are taken at the top of a cycle, before the supervisor
//! check: cycle `c` writes one when `c` is a positive multiple of the
//! cadence past the resume point, or when the check trips. A cadence
//! boundary that is also the interrupt cycle writes once. A trip
//! surfaces as [`WorkloadError::Interrupted`] after the snapshot.

use psnt_ctx::RunCtx;
use psnt_obs::{Observer, Span};
use serde::{json, Serialize};

use crate::campaign::{NocWorkload, NoiseProfile, WindowStats};
use crate::checkpoint::{write_atomic, CheckpointPolicy, CHECKPOINT_VERSION};
use crate::error::WorkloadError;
use crate::stepper::{CycleStepper, GridScan, StepperSnapshot};

/// The part of a checkpoint every driver shares, as the loop checks it
/// on resume: schema version, run seed, stepper image and the
/// statistics of every window touched so far.
pub(crate) type Shared<'a> = (u32, u64, &'a StepperSnapshot, &'a [WindowStats]);

/// One driver's half of the supervised cycle loop.
pub(crate) trait CycleDriver {
    /// The checkpoint document the driver writes and resumes from.
    type Checkpoint: Serialize;
    /// What a completed run returns.
    type Output;
    /// Cycles the loop may plan before the driver sees the first of
    /// them: 1 for a driver that feeds back through
    /// [`CycleStepper::apply`], up to
    /// [`DELTA_LANES`](psnt_pdn::grid::DELTA_LANES) for one that only
    /// reads the grid, whose cycles then share one lane-kernel pass.
    const LANES: usize;

    /// Opens the run span over `cycles` with the driver's name and
    /// attributes.
    fn span(&self, obs: &mut Observer, cycles: usize) -> Span;

    /// The shared state inside one of the driver's checkpoints.
    fn shared(ckpt: &Self::Checkpoint) -> Shared<'_>;

    /// Reinstates the driver's own state from `ckpt`. The loop has
    /// already restored the stepper and the window statistics.
    fn restore(
        &mut self,
        ckpt: &Self::Checkpoint,
        stepper: &CycleStepper<'_>,
    ) -> Result<(), WorkloadError>;

    /// The driver's half of cycle `c`, run right after the stepper
    /// computed it; `scan` is the stepper's [`GridScan`] of that cycle.
    fn cycle(
        &mut self,
        c: usize,
        scan: &GridScan,
        stepper: &mut CycleStepper<'_>,
    ) -> Result<(), WorkloadError>;

    /// A checkpoint of the run so far, around the shared state the loop
    /// captured at the current cycle.
    fn checkpoint(
        &self,
        seed: u64,
        stepper: StepperSnapshot,
        stats_done: Vec<WindowStats>,
    ) -> Self::Checkpoint;

    /// Finishes a completed run inside its span: records the driver's
    /// metrics and assembles the output.
    fn finish(
        self,
        profile: NoiseProfile,
        obs: Option<&mut Observer>,
    ) -> Result<Self::Output, WorkloadError>;
}

/// The error a resume snapshot that does not fit this run returns.
pub(crate) fn resume_refused(reason: String) -> WorkloadError {
    WorkloadError::InvalidConfig {
        name: "resume",
        reason,
    }
}

impl NocWorkload {
    /// Runs `driver` through the whole workload under the context's
    /// supervisor and `policy`, optionally resuming from `resume`.
    pub(crate) fn drive<D: CycleDriver>(
        &self,
        ctx: &mut RunCtx<'_>,
        policy: &CheckpointPolicy,
        resume: Option<&D::Checkpoint>,
        driver: D,
    ) -> Result<D::Output, WorkloadError> {
        let cfg = self.config();
        let mut stepper = CycleStepper::new(self, ctx)?;
        if let Some(obs) = ctx.observer() {
            let flits = stepper.planned_flits();
            obs.metrics.counter_add("workload.flits", flits);
        }
        let span = ctx.observer().map(|o| {
            let end_ps = (cfg.cycle_time * cfg.cycles as f64).picoseconds();
            driver.span(o, cfg.cycles).sim_interval_ps(0.0, end_ps)
        });
        let out = self.run_cycles(ctx, policy, resume, driver, &mut stepper);
        if let (Some(obs), Some(span)) = (ctx.observer(), span) {
            obs.end_span(span);
        }
        out
    }

    /// The cycle loop proper, inside the run span.
    fn run_cycles<D: CycleDriver>(
        &self,
        ctx: &mut RunCtx<'_>,
        policy: &CheckpointPolicy,
        resume: Option<&D::Checkpoint>,
        mut driver: D,
        stepper: &mut CycleStepper<'_>,
    ) -> Result<D::Output, WorkloadError> {
        let cfg = self.config();
        let grid = self.campaign().floorplan().grid();
        let seed = ctx.seed();
        let mut stats = self.window_stats_shell();
        let mut start = 0;
        if let Some(ckpt) = resume {
            start = self.restore_shared(seed, D::shared(ckpt), stepper, &mut stats)?;
            driver.restore(ckpt, stepper)?;
        }

        let sup = ctx.supervisor().clone();
        let cancel_at = ctx.fault_plan().and_then(|p| p.cancel_at_cycle());
        let trip_deadline_at = ctx
            .fault_plan()
            .is_some_and(|p| p.deadline_trip())
            .then_some(cfg.cycles / 2);
        let cadence = policy.every.or_else(|| sup.budget().checkpoint_cadence());

        for c in start..cfg.cycles {
            if cancel_at == Some(c as u64) {
                sup.token().cancel();
            }
            if trip_deadline_at == Some(c) {
                sup.force_expire();
            }
            let cadence_due =
                c > start && cadence.is_some_and(|every| (c as u64).is_multiple_of(every));
            let tripped = sup.check().err();
            if tripped.is_some() || cadence_due {
                self.drain(&mut stats, &mut driver, stepper)?;
                if let Some(path) = policy.path.as_deref() {
                    // Windows holding at least one finished cycle.
                    let touched = c.div_ceil(cfg.measure_every).min(stats.len());
                    let ckpt =
                        driver.checkpoint(seed, stepper.snapshot(), stats[..touched].to_vec());
                    write_atomic(path, &json::to_string(&ckpt))?;
                }
                if let Some(reason) = tripped {
                    return Err(WorkloadError::Interrupted(reason));
                }
            }
            sup.charge_events(1);
            if let Err(e) = stepper.plan(D::LANES) {
                // The cycles before this one finish first, as they
                // would have one at a time.
                self.drain(&mut stats, &mut driver, stepper)?;
                return Err(e);
            }
            if stepper.pending() == D::LANES {
                self.drain(&mut stats, &mut driver, stepper)?;
            }
        }
        self.drain(&mut stats, &mut driver, stepper)?;

        if let Some(obs) = ctx.observer() {
            let solves = stepper.delta_solves();
            obs.metrics.counter_add("workload.delta_solves", solves);
        }
        let profile = NoiseProfile {
            v_nom: grid.v_pad().volts(),
            windows: stats,
            flits: stepper.planned_flits(),
        };
        driver.finish(profile, ctx.observer())
    }

    /// Settles the planned cycles in one lane-kernel pass, then gives
    /// each, oldest first, its grid state, its window statistics and
    /// the driver's half of the cycle.
    fn drain<D: CycleDriver>(
        &self,
        stats: &mut [WindowStats],
        driver: &mut D,
        stepper: &mut CycleStepper<'_>,
    ) -> Result<(), WorkloadError> {
        // PDN HOT LOOP START
        stepper.settle();
        while let Some(c) = stepper.advance() {
            let scan = stepper.scan();
            self.accumulate_window(stats, c, &scan, stepper);
            driver.cycle(c, &scan, stepper)?;
        }
        // PDN HOT LOOP END
        Ok(())
    }

    /// Checks a checkpoint's schema version and seed, then restores the
    /// state every checkpoint shares into a freshly planned run; returns
    /// the cycle the loop continues from.
    fn restore_shared(
        &self,
        seed: u64,
        (version, ckpt_seed, snapshot, stats_done): Shared<'_>,
        stepper: &mut CycleStepper<'_>,
        stats: &mut [WindowStats],
    ) -> Result<usize, WorkloadError> {
        if version != CHECKPOINT_VERSION {
            return Err(resume_refused(format!(
                "checkpoint schema version {version}, this build reads {CHECKPOINT_VERSION}"
            )));
        }
        if ckpt_seed != seed {
            return Err(resume_refused(format!(
                "checkpoint was captured under seed {ckpt_seed}, this run uses {seed}"
            )));
        }
        stepper.restore(snapshot)?;
        let done = stepper.cycle();
        let touched = done.div_ceil(self.config().measure_every).min(stats.len());
        if stats_done.len() != touched {
            return Err(resume_refused(format!(
                "{} windows captured, cycle {done} expects {touched}",
                stats_done.len()
            )));
        }
        let layout = |w: &WindowStats| (w.window, w.start_cycle, w.instant);
        if let Some(w) = (0..touched).find(|&w| layout(&stats_done[w]) != layout(&stats[w])) {
            return Err(resume_refused(format!(
                "captured window {w} is not this run's window {w}"
            )));
        }
        stats[..touched].clone_from_slice(stats_done);
        Ok(done)
    }

    /// Empty per-window statistics, one per measurement window.
    fn window_stats_shell(&self) -> Vec<WindowStats> {
        let cfg = self.config();
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

    /// Folds the stepper's cycle-`c` grid state, scanned once into
    /// `scan`, into its window's statistics — the same arithmetic, in
    /// the same order, as the old fused loop, so stepped profiles stay
    /// bit-identical.
    fn accumulate_window(
        &self,
        stats: &mut [WindowStats],
        c: usize,
        scan: &GridScan,
        stepper: &CycleStepper<'_>,
    ) {
        let me = self.config().measure_every;
        if let Some(w) = stats.get_mut(c / me) {
            let (node, v_min) = scan.hotspot;
            if v_min < w.min_v {
                w.min_v = v_min;
                w.worst_node = node;
            }
            let me = me as f64;
            let nodes = stepper.voltages().len() as f64;
            w.mean_v += scan.voltage_sum / (nodes * me);
            w.mean_current += scan.load_sum / me;
            w.events += stepper
                .raw_counts()
                .iter()
                .map(|&x| u64::from(x))
                .sum::<u64>();
        }
    }
}
