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
//! The loop plans up to [`CycleDriver::lanes`] cycles (stages 1–2 and
//! the grid update) into a stage, then hands it off: the stage is
//! sealed and solved in one lane-kernel pass, and the stage solved
//! before it comes back, each of its cycles in turn advanced, scanned,
//! folded into its window and handed to the driver. Right before each
//! cycle is planned, [`CycleDriver::before_plan`] lets the driver apply
//! whatever governs that cycle. It hands off when the stage is full,
//! and drains every planned cycle before any snapshot, on a plan error
//! and at the end, so every snapshot and every driver call sees the
//! state a cycle-by-cycle loop would.
//!
//! Who runs what: with more than one engine worker
//! ([`Engine::jobs`](psnt_engine::Engine::jobs), `--jobs` /
//! `PSNT_JOBS`) and a driver that may plan ahead
//! ([`CycleDriver::plans_ahead`]), the solve runs on one scoped solver
//! thread and the loop becomes a two-stage pipeline: while the solver
//! solves stage *k + 1*, the loop advances stage *k* and plans stage
//! *k + 2*. The open loop plans ahead in eight-cycle stages, since it
//! only reads the grid. The closed loop plans ahead in one-cycle stages
//! at code latency 1 or more, where the frames a cycle's actuation
//! depends on were sensed two cycles before it, and delivers them in
//! `before_plan`. At most one stage is handed over at a time. The loop
//! never waits for the solver thread to *start* a stage: when it needs
//! the stage back and the thread has not taken it yet (the thread was
//! slow to spawn or to be woken, say on a host whose other tenants hold
//! its CPU), the loop solves it itself, so a late solver thread costs
//! the overlap, not a stall. It waits only for a solve under way, and
//! each side polls, yielding, for up to a millisecond before it
//! blocks, longer than a solve takes, so a waiting thread does not put
//! its CPU to sleep just before the stage it waits for arrives.
//! Otherwise (one worker, or the closed loop at code latency 0, whose
//! every frame governs the very next cycle) the same loop solves each
//! stage on the loop's thread as soon as it is sealed. No stage update
//! reads a voltage (`Δv = K⁻¹·Δb`, and `Δb` comes from the planned
//! loads alone), each planned cycle carries its own actuation, and the
//! solution only changes when a stage is advanced, in cycle order, on
//! the loop's thread; so the worker count, and which thread solves a
//! stage, move where the solve runs and nothing else, not a bit of any
//! result. The solver thread is joined before the loop returns, whether
//! it returns `Ok`, an error or by a panic.
//!
//! Snapshots are taken at the top of a cycle, before the supervisor
//! check: cycle `c` writes one when `c` is a positive multiple of the
//! cadence past the resume point, or when the check trips. A cadence
//! boundary that is also the interrupt cycle writes once. A trip
//! surfaces as [`WorkloadError::Interrupted`] after the snapshot.

use std::sync::mpsc::{sync_channel, Receiver, RecvError, TryRecvError};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use psnt_ctx::RunCtx;
use psnt_obs::{Observer, Span};
use psnt_pdn::grid::PowerGrid;
use serde::{json, Serialize};

use crate::campaign::{NocWorkload, NoiseProfile, WindowStats};
use crate::checkpoint::{write_atomic, CheckpointPolicy, CHECKPOINT_VERSION};
use crate::error::WorkloadError;
use crate::stepper::{CycleStepper, GridScan, Stage, StepperSnapshot};

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
    /// Cycles per stage this run: up to
    /// [`DELTA_LANES`](psnt_pdn::grid::DELTA_LANES), whose cycles then
    /// share one lane-kernel pass.
    fn lanes(&self) -> usize;

    /// Whether the loop may plan a cycle while the cycle before it is
    /// still unstepped, so that with more than one engine worker a
    /// stage is solved on the solver thread while the loop advances the
    /// stage before it. A driver that feeds back through
    /// [`CycleStepper::apply`] may, when everything the next cycle's
    /// actuation depends on was handed to [`CycleDriver::cycle`] two
    /// cycles before it, and [`CycleDriver::before_plan`] delivers it.
    fn plans_ahead(&self) -> bool;

    /// Runs right before cycle `c` is planned: a driver that plans
    /// ahead applies here whatever governs cycle `c` and has not been
    /// applied yet.
    fn before_plan(
        &mut self,
        _c: usize,
        _stepper: &mut CycleStepper<'_>,
    ) -> Result<(), WorkloadError> {
        Ok(())
    }

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
        let lanes = driver.lanes();
        let threaded = driver.plans_ahead() && ctx.engine().jobs() > 1;

        with_solver(grid, threaded, |solver| {
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
                    self.drain(solver, &mut stats, &mut driver, stepper)?;
                    if tripped.is_some() {
                        // The run ends here: the solver thread ends now,
                        // still awake, instead of being woken to end after
                        // the write.
                        solver.retire();
                    }
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
                driver.before_plan(c, stepper)?;
                if let Err(e) = stepper.plan(lanes) {
                    // The cycles before this one finish first, as they
                    // would have one at a time.
                    self.drain(solver, &mut stats, &mut driver, stepper)?;
                    return Err(e);
                }
                if stepper.open_cycles() == lanes {
                    self.hand_off(solver, &mut stats, &mut driver, stepper)?;
                }
            }
            self.drain(solver, &mut stats, &mut driver, stepper)
        })?;

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

    /// Seals the open stage and hands it to `solver`, then steps the
    /// stage the solver hands back: each of its cycles, oldest first,
    /// gets its grid state, its window statistics and the driver's half
    /// of the cycle.
    fn hand_off<D: CycleDriver>(
        &self,
        solver: &mut Solver<'_>,
        stats: &mut [WindowStats],
        driver: &mut D,
        stepper: &mut CycleStepper<'_>,
    ) -> Result<(), WorkloadError> {
        // PDN HOT LOOP START
        let sealed = stepper.seal();
        if let Some(solved) = solver.swap(sealed) {
            stepper.install(solved);
            while let Some(c) = stepper.advance() {
                let scan = stepper.scan();
                self.accumulate_window(stats, c, &scan, stepper);
                driver.cycle(c, &scan, stepper)?;
            }
        }
        // PDN HOT LOOP END
        Ok(())
    }

    /// Steps every planned cycle, in cycle order: the open stage goes to
    /// the solver behind the one already there, and both come back.
    fn drain<D: CycleDriver>(
        &self,
        solver: &mut Solver<'_>,
        stats: &mut [WindowStats],
        driver: &mut D,
        stepper: &mut CycleStepper<'_>,
    ) -> Result<(), WorkloadError> {
        self.hand_off(solver, stats, driver, stepper)?;
        self.hand_off(solver, stats, driver, stepper)
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

/// Where the cycle loop's sealed stages are solved.
enum Solver<'g> {
    /// On the loop's thread, as each stage is sealed.
    Inline(&'g PowerGrid),
    /// On the scoped solver thread. At most one stage is handed over at
    /// a time: `away` while it has not come back. It waits in the
    /// thread's [`Inbox`] until the thread takes it; when the loop needs
    /// it back first (the thread was slow to spawn or to be woken, or
    /// its CPU is held by the host), the loop takes it back and solves
    /// it itself, so the loop waits only for a solve under way. Either
    /// way the same kernel solves the same stage, so the choice moves
    /// no bit.
    Thread {
        grid: &'g PowerGrid,
        inbox: &'g Inbox,
        /// Solved stages coming back.
        from: Receiver<Stage>,
        away: bool,
    },
}

impl Solver<'_> {
    /// Hands `sealed` over and returns the oldest stage solved and not
    /// yet returned: inline that is `sealed` itself; on the thread it is
    /// the stage handed over last time, and `sealed` is solved while
    /// the caller steps it.
    // PDN HOT LOOP START
    fn swap(&mut self, sealed: Option<Stage>) -> Option<Stage> {
        match self {
            Solver::Inline(grid) => sealed.map(|mut stage| {
                stage.settle(grid);
                stage
            }),
            Solver::Thread {
                grid,
                inbox,
                from,
                away,
            } => {
                let solved = away.then(|| match inbox.take_back() {
                    Some(mut stage) => {
                        stage.settle(grid);
                        stage
                    }
                    None => recv_soon(from).expect("the solver thread panicked"),
                });
                *away = sealed.is_some();
                if let Some(stage) = sealed {
                    inbox.put(stage);
                }
                solved
            }
        }
    }
    // PDN HOT LOOP END

    /// Lets the solver thread end once the loop has drained its last
    /// stage and will hand over no more.
    fn retire(&mut self) {
        if let Solver::Thread { inbox, away, .. } = self {
            debug_assert!(!*away, "retired with a stage at the solver");
            inbox.close();
        }
    }
}

impl Drop for Solver<'_> {
    /// Closes the solver thread's inbox, so the thread ends, whether the
    /// loop returns or unwinds.
    fn drop(&mut self) {
        if let Solver::Thread { inbox, .. } = self {
            inbox.close();
        }
    }
}

/// The solver thread's inbox: the one stage handed over and not yet
/// started, and whether the loop has stopped handing stages over.
#[derive(Default)]
struct Inbox {
    slot: Mutex<Slot>,
    filled: Condvar,
}

#[derive(Default)]
struct Slot {
    /// The stage handed over, until the solver thread or the loop takes it.
    stage: Option<Stage>,
    /// Set once no stage will follow.
    closed: bool,
}

impl Inbox {
    /// Locks the slot. Nothing panics while holding it, so a poisoned
    /// lock still guards a whole slot.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Puts a sealed stage in the (empty) slot and wakes the solver.
    fn put(&self, stage: Stage) {
        self.lock().stage = Some(stage);
        self.filled.notify_one();
    }

    /// Takes back the stage the solver thread has not started, if any.
    fn take_back(&self) -> Option<Stage> {
        self.lock().stage.take()
    }

    /// Tells the solver thread no stage will follow.
    fn close(&self) {
        self.lock().closed = true;
        self.filled.notify_one();
    }

    /// The solver thread's next stage: polled for, yielding, for up to
    /// [`POLL`], then waited for; `None` once the inbox is closed.
    fn next(&self) -> Option<Stage> {
        let start = Instant::now();
        let mut slot = self.lock();
        loop {
            if let Some(stage) = slot.stage.take() {
                return Some(stage);
            }
            if slot.closed {
                return None;
            }
            slot = if start.elapsed() < POLL {
                drop(slot);
                std::thread::yield_now();
                self.lock()
            } else {
                self.filled
                    .wait(slot)
                    .unwrap_or_else(PoisonError::into_inner)
            };
        }
    }
}

/// How long a hand-off polls before it blocks: several times one
/// stage's solve, so a thread waiting on a solve under way, or on the
/// next stage while its peer keeps pace, keeps its virtual CPU awake;
/// a thread blocked on an idle virtual CPU is woken late when the host
/// is busy.
const POLL: Duration = Duration::from_millis(1);

/// Receives from `rx`, yielding the thread between polls for up to
/// [`POLL`] before it blocks. Yielding rather than spinning lets the
/// other thread run when both share one core.
fn recv_soon<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    let start = Instant::now();
    loop {
        match rx.try_recv() {
            Ok(value) => return Ok(value),
            Err(TryRecvError::Empty) if start.elapsed() < POLL => std::thread::yield_now(),
            Err(TryRecvError::Empty) => return rx.recv(),
            Err(TryRecvError::Disconnected) => return Err(RecvError),
        }
    }
}

/// Runs `run` with a [`Solver`] over `grid`: inline, or when `threaded`
/// with a solver thread scoped to the call. The thread solves each
/// stage it takes from its inbox and sends it back; dropping the solver
/// when `run` returns or unwinds closes the inbox, so the thread ends
/// and is joined before this returns.
fn with_solver<R>(grid: &PowerGrid, threaded: bool, run: impl FnOnce(&mut Solver<'_>) -> R) -> R {
    if !threaded {
        return run(&mut Solver::Inline(grid));
    }
    let inbox = Inbox::default();
    std::thread::scope(|scope| {
        let (outbox, from) = sync_channel(1);
        let inbox = &inbox;
        scope.spawn(move || {
            while let Some(mut stage) = inbox.next() {
                stage.settle(grid);
                if outbox.send(stage).is_err() {
                    break;
                }
            }
        });
        run(&mut Solver::Thread {
            grid,
            inbox,
            from,
            away: false,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::NocWorkloadConfig;
    use psnt_pdn::grid::DELTA_LANES;

    /// Plans `cycles` cycles into one stage and hands it to `solver`,
    /// which must hold no stage yet.
    fn hand_over(solver: &mut Solver<'_>, stepper: &mut CycleStepper<'_>, cycles: usize) {
        for _ in 0..cycles {
            stepper.plan(DELTA_LANES).expect("the 2×2 chip plans");
        }
        let sealed = stepper.seal();
        assert!(sealed.is_some());
        assert!(
            solver.swap(sealed).is_none(),
            "a first hand-off returns nothing"
        );
    }

    #[test]
    fn the_solver_thread_ends_with_the_run() {
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).expect("valid config");
        let grid = w.campaign().floorplan().grid();
        let mut stepper = CycleStepper::new(&w, &mut RunCtx::serial()).expect("plans");
        // A run that returns with a stage still at the solver.
        let out = with_solver(grid, true, |solver| {
            hand_over(solver, &mut stepper, 3);
            7
        });
        assert_eq!(out, 7);
        // Draining returns the stage in flight, solved, and then nothing.
        let mut stepper = CycleStepper::new(&w, &mut RunCtx::serial()).expect("plans");
        with_solver(grid, true, |solver| {
            hand_over(solver, &mut stepper, 5);
            let solved = solver.swap(None).expect("the stage in flight comes back");
            assert!(solver.swap(None).is_none());
            stepper.install(solved);
            let stepped: Vec<usize> = std::iter::from_fn(|| stepper.advance()).collect();
            assert_eq!(stepped, [0, 1, 2, 3, 4]);
        });
    }

    /// A stage the solver thread has not taken when the loop needs it
    /// back is solved by the loop itself, to the bits the inline solver
    /// gives. Here no solver thread runs at all.
    #[test]
    fn a_stage_the_solver_thread_has_not_taken_is_solved_by_the_loop() {
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).expect("valid config");
        let grid = w.campaign().floorplan().grid();
        let run = |solver: &mut Solver<'_>| {
            let mut stepper = CycleStepper::new(&w, &mut RunCtx::serial()).expect("plans");
            for _ in 0..5 {
                stepper.plan(DELTA_LANES).expect("the 2×2 chip plans");
            }
            let solved = match solver.swap(stepper.seal()) {
                Some(stage) => stage,
                None => solver.swap(None).expect("the stage comes back"),
            };
            stepper.install(solved);
            let stepped: Vec<usize> = std::iter::from_fn(|| stepper.advance()).collect();
            assert_eq!(stepped, [0, 1, 2, 3, 4]);
            let bits: Vec<u64> = stepper.voltages().iter().map(|v| v.to_bits()).collect();
            bits
        };
        let inline = run(&mut Solver::Inline(grid));
        let inbox = Inbox::default();
        let (_outbox, from) = sync_channel(1);
        let taken_back = run(&mut Solver::Thread {
            grid,
            inbox: &inbox,
            from,
            away: false,
        });
        assert_eq!(inline, taken_back);
    }

    /// A run that panics with a stage at the solver unwinds out of the
    /// scope, its solver thread joined, instead of waiting on the
    /// thread forever.
    #[test]
    #[should_panic(expected = "the driver failed mid-run")]
    fn a_panicking_run_unwinds_past_its_solver_thread() {
        let w = NocWorkload::new(NocWorkloadConfig::small_2x2()).expect("valid config");
        let grid = w.campaign().floorplan().grid();
        let mut stepper = CycleStepper::new(&w, &mut RunCtx::serial()).expect("plans");
        with_solver(grid, true, |solver| {
            hand_over(solver, &mut stepper, DELTA_LANES);
            panic!("the driver failed mid-run");
        })
    }
}
