//! # psnt-sup — run supervision
//!
//! Every long-running path in the workspace — 1,000-cycle NoC
//! campaigns, 1,016-plan fault sweeps, closed-loop mitigation runs —
//! needs a way to be cancelled, bounded and resumed without losing
//! work. This crate supplies the vocabulary, kept dependency-free on
//! purpose so the lowest layers (`psnt-netlist`, `psnt-engine`,
//! `psnt-pdn`) can link it without cycles:
//!
//! * [`CancelToken`] — a shared cooperative cancellation flag;
//! * [`RunBudget`] — wall-clock deadline, sim-time budget, global
//!   event budget and checkpoint cadence;
//! * [`Supervisor`] — token + budget + start instant, checked cheaply
//!   (two relaxed atomic loads on the fast path) at coarse loop
//!   boundaries: netlist events, engine chunk claims, PDN sweep steps,
//!   Monte-Carlo trials and workload cycles;
//! * [`Interrupt`] — the structured reason a check tripped;
//! * [`Supervised`] — `Done(T)` or `Interrupted { at, reason,
//!   partial }`, the result shape of every supervised entry point: an
//!   interruption carries the completed-so-far prefix, never a panic
//!   and never a hang.
//!
//! # Determinism contract
//!
//! A **detached** supervisor ([`Supervisor::detached`], the default on
//! a `RunCtx`) never trips: supervised entry points driven by one are
//! bit-identical to their unsupervised twins. Cancellation and
//! wall-clock deadlines are inherently timing-dependent — *where* a
//! run is interrupted varies — but *what* is returned at any
//! interruption point is a deterministic prefix of the full run, and
//! resuming from a checkpoint reproduces the uninterrupted run
//! record-for-record (pinned by the resume proptests at the workspace
//! root). The chaos harness makes interruption itself deterministic by
//! tripping at an exact cycle ([`Supervisor::force_expire`] and the
//! `CancelAt` fault in `psnt-fault`).
//!
//! ```
//! use psnt_sup::{CancelToken, Interrupt, RunBudget, Supervisor};
//!
//! let token = CancelToken::new();
//! let sup = Supervisor::new(token.clone(), RunBudget::unlimited().events(1000));
//! assert!(sup.check().is_ok());
//! token.cancel();
//! assert_eq!(sup.check(), Err(Interrupt::Cancelled));
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared cooperative cancellation flag: clone it anywhere (another
/// thread, a signal handler, a service frontend), call
/// [`CancelToken::cancel`] once, and every [`Supervisor`] carrying the
/// token trips at its next check. Cancellation is sticky — there is no
/// un-cancel.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// The budgets a supervised run honours. The default
/// ([`RunBudget::unlimited`]) bounds nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunBudget {
    deadline: Option<Duration>,
    sim_time_ps: Option<f64>,
    events: Option<u64>,
    checkpoint_every: Option<u64>,
}

impl RunBudget {
    /// No deadline, no sim-time or event budget, no checkpoint cadence.
    pub fn unlimited() -> RunBudget {
        RunBudget::default()
    }

    /// Caps the run's wall-clock time, measured from the supervisor's
    /// construction.
    #[must_use]
    pub fn deadline(mut self, wall: Duration) -> RunBudget {
        self.deadline = Some(wall);
        self
    }

    /// Caps the simulated time a run may cover, in picoseconds
    /// (checked by [`Supervisor::check_at`]).
    #[must_use]
    pub fn sim_time_ps(mut self, ps: f64) -> RunBudget {
        self.sim_time_ps = Some(ps);
        self
    }

    /// Caps the global event/iteration count charged through
    /// [`Supervisor::charge_events`] across every layer of the run.
    #[must_use]
    pub fn events(mut self, budget: u64) -> RunBudget {
        self.events = Some(budget);
        self
    }

    /// Asks checkpointing entry points to snapshot every `cycles`
    /// cycles (advisory — only paths with a checkpoint sink honour it).
    #[must_use]
    pub fn checkpoint_every(mut self, cycles: u64) -> RunBudget {
        self.checkpoint_every = Some(cycles.max(1));
        self
    }

    /// The global event budget, if any.
    pub fn event_budget(&self) -> Option<u64> {
        self.events
    }

    /// The checkpoint cadence in cycles, if any.
    pub fn checkpoint_cadence(&self) -> Option<u64> {
        self.checkpoint_every
    }
}

/// Why a supervised run stopped early.
#[derive(Debug, Clone, PartialEq)]
pub enum Interrupt {
    /// The run's [`CancelToken`] was cancelled.
    Cancelled,
    /// The wall-clock deadline expired (or the supervisor was
    /// [`force_expire`](Supervisor::force_expire)d by the chaos
    /// harness's `DeadlineTrip` fault).
    DeadlineExpired,
    /// The simulated-time budget was exhausted.
    SimTimeBudget {
        /// The configured budget, picoseconds.
        budget_ps: f64,
        /// The simulated instant that overran it, picoseconds.
        at_ps: f64,
    },
    /// The global event budget was exhausted.
    EventBudget {
        /// The configured budget.
        budget: u64,
        /// Events charged when the check tripped.
        used: u64,
    },
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Interrupt::Cancelled => write!(f, "run cancelled"),
            Interrupt::DeadlineExpired => write!(f, "wall-clock deadline expired"),
            Interrupt::SimTimeBudget { budget_ps, at_ps } => write!(
                f,
                "sim-time budget exhausted: at {at_ps} ps against a budget of {budget_ps} ps"
            ),
            Interrupt::EventBudget { budget, used } => write!(
                f,
                "event budget exhausted: {used} events charged against a budget of {budget}"
            ),
        }
    }
}

impl std::error::Error for Interrupt {}

/// The supervision handle threaded through `RunCtx`: a [`CancelToken`],
/// a [`RunBudget`] and the start instant the deadline is measured from.
///
/// Clones share the token, the global event counter and the forced-trip
/// flag, so a supervisor handed to a worker thread observes the same
/// trip the consumer does.
#[derive(Debug, Clone)]
pub struct Supervisor {
    token: CancelToken,
    budget: RunBudget,
    started: Instant,
    events: Arc<AtomicU64>,
    forced: Arc<AtomicBool>,
}

impl Default for Supervisor {
    fn default() -> Supervisor {
        Supervisor::detached()
    }
}

impl Supervisor {
    /// The never-tripping supervisor every `RunCtx` starts with: fresh
    /// token, unlimited budget. Supervised entry points driven by a
    /// detached supervisor behave bit-identically to their
    /// unsupervised twins.
    pub fn detached() -> Supervisor {
        Supervisor::new(CancelToken::new(), RunBudget::unlimited())
    }

    /// A supervisor over `token` and `budget`; the wall-clock deadline
    /// starts counting now.
    pub fn new(token: CancelToken, budget: RunBudget) -> Supervisor {
        Supervisor {
            token,
            budget,
            started: Instant::now(),
            events: Arc::new(AtomicU64::new(0)),
            forced: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The supervisor's cancellation token (clone it to cancel from
    /// elsewhere).
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// The budget this supervisor enforces.
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// Wall-clock time elapsed since the supervisor was constructed.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Charges `n` events/iterations against the global event budget
    /// and returns the new total. Cheap (one relaxed atomic add); call
    /// at coarse boundaries (per chunk, per kilocycle), not per event.
    pub fn charge_events(&self, n: u64) -> u64 {
        self.events.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Trips the wall-clock deadline immediately, regardless of the
    /// budget — the deterministic lever the chaos harness's
    /// `DeadlineTrip` fault pulls so the genuine deadline path is
    /// exercised without waiting out a real deadline.
    pub fn force_expire(&self) {
        self.forced.store(true, Ordering::Relaxed);
    }

    /// The cooperative check every supervised loop calls at its
    /// boundary. Fast path (detached supervisor): two relaxed atomic
    /// loads. Checks, in order: cancellation, forced/real deadline,
    /// event budget.
    ///
    /// # Errors
    ///
    /// Returns the [`Interrupt`] describing the first tripped
    /// condition.
    pub fn check(&self) -> Result<(), Interrupt> {
        if self.token.is_cancelled() {
            return Err(Interrupt::Cancelled);
        }
        if self.forced.load(Ordering::Relaxed) {
            return Err(Interrupt::DeadlineExpired);
        }
        if let Some(d) = self.budget.deadline {
            if self.started.elapsed() >= d {
                return Err(Interrupt::DeadlineExpired);
            }
        }
        if let Some(b) = self.budget.events {
            let used = self.events.load(Ordering::Relaxed);
            if used > b {
                return Err(Interrupt::EventBudget { budget: b, used });
            }
        }
        Ok(())
    }

    /// [`Supervisor::check`] plus the sim-time budget against the
    /// current simulated instant `at_ps`.
    ///
    /// # Errors
    ///
    /// As [`Supervisor::check`], plus [`Interrupt::SimTimeBudget`].
    pub fn check_at(&self, at_ps: f64) -> Result<(), Interrupt> {
        self.check()?;
        if let Some(b) = self.budget.sim_time_ps {
            if at_ps > b {
                return Err(Interrupt::SimTimeBudget {
                    budget_ps: b,
                    at_ps,
                });
            }
        }
        Ok(())
    }
}

/// The result of a supervised run: completed, or interrupted with the
/// completed-so-far prefix. `P` is the partial payload an interruption
/// carries (a checkpoint, a profile prefix, completed campaign maps) —
/// by default the same type as the full result.
#[derive(Debug, Clone, PartialEq)]
pub enum Supervised<T, P = T> {
    /// The run completed; results are bit-identical to the
    /// unsupervised path.
    Done(T),
    /// The run was interrupted cooperatively — no panic, no hang, no
    /// lost partials.
    Interrupted {
        /// The loop index (cycle, trial, chunk) the run stopped at:
        /// everything strictly before `at` completed.
        at: u64,
        /// Why the run stopped.
        reason: Interrupt,
        /// The completed-so-far payload.
        partial: P,
    },
}

impl<T, P> Supervised<T, P> {
    /// The completed result, consuming the value.
    pub fn done(self) -> Option<T> {
        match self {
            Supervised::Done(t) => Some(t),
            Supervised::Interrupted { .. } => None,
        }
    }

    /// The interruption `(at, reason, partial)` by reference, if the
    /// run was interrupted.
    pub fn interrupted(&self) -> Option<(u64, &Interrupt, &P)> {
        match self {
            Supervised::Done(_) => None,
            Supervised::Interrupted {
                at,
                reason,
                partial,
            } => Some((*at, reason, partial)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detached_supervisor_never_trips() {
        let sup = Supervisor::detached();
        for _ in 0..100 {
            assert!(sup.check().is_ok());
            assert!(sup.check_at(1e12).is_ok());
        }
        sup.charge_events(u64::MAX / 2);
        assert!(sup.check().is_ok(), "no budget, no trip");
        assert!(Supervisor::default().check().is_ok());
    }

    #[test]
    fn cancellation_is_shared_and_sticky() {
        let token = CancelToken::new();
        let sup = Supervisor::new(token.clone(), RunBudget::unlimited());
        let clone = sup.clone();
        assert!(sup.check().is_ok());
        token.cancel();
        assert_eq!(sup.check(), Err(Interrupt::Cancelled));
        assert_eq!(clone.check(), Err(Interrupt::Cancelled), "clones share");
        token.cancel();
        assert!(token.is_cancelled(), "idempotent");
    }

    #[test]
    fn event_budget_trips_across_clones() {
        let sup = Supervisor::new(CancelToken::new(), RunBudget::unlimited().events(100));
        let worker = sup.clone();
        assert_eq!(worker.charge_events(60), 60);
        assert!(sup.check().is_ok());
        assert_eq!(sup.charge_events(60), 120, "counter is global");
        let err = worker.check().unwrap_err();
        assert_eq!(
            err,
            Interrupt::EventBudget {
                budget: 100,
                used: 120
            }
        );
    }

    #[test]
    fn sim_time_budget_checks_only_check_at() {
        let sup = Supervisor::new(
            CancelToken::new(),
            RunBudget::unlimited().sim_time_ps(500.0),
        );
        assert!(sup.check().is_ok(), "plain check ignores sim time");
        assert!(sup.check_at(500.0).is_ok(), "inclusive bound");
        assert_eq!(
            sup.check_at(501.0),
            Err(Interrupt::SimTimeBudget {
                budget_ps: 500.0,
                at_ps: 501.0
            })
        );
    }

    #[test]
    fn deadline_and_force_expire() {
        // A zero deadline has already expired.
        let sup = Supervisor::new(
            CancelToken::new(),
            RunBudget::unlimited().deadline(Duration::ZERO),
        );
        assert_eq!(sup.check(), Err(Interrupt::DeadlineExpired));
        // force_expire trips the same path without any deadline set.
        let sup = Supervisor::detached();
        assert!(sup.check().is_ok());
        sup.force_expire();
        assert_eq!(sup.check(), Err(Interrupt::DeadlineExpired));
        assert_eq!(sup.clone().check(), Err(Interrupt::DeadlineExpired));
    }

    #[test]
    fn budget_builders_compose() {
        let b = RunBudget::unlimited()
            .deadline(Duration::from_secs(5))
            .sim_time_ps(1e6)
            .events(1_000_000)
            .checkpoint_every(0);
        assert_eq!(b.event_budget(), Some(1_000_000));
        assert_eq!(b.checkpoint_cadence(), Some(1), "cadence clamps to 1");
    }

    #[test]
    fn supervised_accessors() {
        let done: Supervised<u32> = Supervised::Done(7);
        assert_eq!(done.interrupted(), None);
        assert_eq!(done.done(), Some(7));
        let cut: Supervised<u32, Vec<u32>> = Supervised::Interrupted {
            at: 3,
            reason: Interrupt::Cancelled,
            partial: vec![0, 1, 2],
        };
        let (at, reason, partial) = cut.interrupted().unwrap();
        assert_eq!((at, partial.len()), (3, 3));
        assert_eq!(reason, &Interrupt::Cancelled);
        assert_eq!(cut.done(), None);
    }

    #[test]
    fn interrupt_displays_and_is_error() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<Interrupt>();
        assert!(Interrupt::Cancelled.to_string().contains("cancelled"));
        assert!(Interrupt::DeadlineExpired.to_string().contains("deadline"));
        assert!(Interrupt::SimTimeBudget {
            budget_ps: 1.0,
            at_ps: 2.0
        }
        .to_string()
        .contains("sim-time"));
        assert!(Interrupt::EventBudget { budget: 1, used: 2 }
            .to_string()
            .contains("event budget"));
    }

    #[test]
    fn supervisor_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Supervisor>();
        assert_send_sync::<CancelToken>();
        assert_send_sync::<Interrupt>();
    }
}
