//! # psnt-engine — deterministic parallel execution engine
//!
//! Every heavy workload in this workspace — scan-chain campaigns over a
//! floorplan, Monte-Carlo mismatch yield, per-corner trim sweeps — is
//! an embarrassingly parallel loop over independent jobs. This crate
//! runs those loops on a scoped worker pool (`std::thread` only, no
//! external runtime) without giving up the workspace's reproducibility
//! contract:
//!
//! > **A batch produces bit-identical results at any worker count,
//! > including one.**
//!
//! Three mechanisms enforce that, see [`pool`] for the full contract:
//!
//! * **index-determined inputs** — a job sees its index and, for seeded
//!   batches, a child RNG stream derived only from
//!   `(base seed, index)` ([`seed::split_seed`]); never the worker id
//!   or any timing;
//! * **order-preserving collection** — [`BatchResult::results`]`[i]` is
//!   job `i`'s output regardless of scheduling; job errors select the
//!   lowest-index error, panics propagate to the caller;
//! * **a shared serial path** — `jobs = 1` runs the identical claim
//!   loop inline on the calling thread, so serial entry points are the
//!   same code, not a fork.
//!
//! Telemetry is contention-free: every worker owns a private
//! [`psnt_obs::MetricsRegistry`] (jobs record domain metrics through
//! [`JobCtx::metrics`]) and the engine merges them into one snapshot at
//! join via [`psnt_obs::MetricsRegistry::merge`].
//!
//! ```
//! use psnt_engine::{Engine, JobSpec};
//!
//! let engine = Engine::new(4);
//! // An unseeded map: results arrive in index order.
//! let squares = engine.map(8, |i| i * i);
//! assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
//!
//! // A seeded batch: job i's RNG depends only on (base, i), so any
//! // worker count gives the same draws.
//! let batch = engine
//!     .run_batch::<_, std::convert::Infallible, _>(
//!         &JobSpec::new(5).seed(2024),
//!         |ctx| {
//!             use psnt_engine::rand::Rng;
//!             Ok(ctx.rng().gen_range(0.0..1.0))
//!         },
//!     )
//!     .unwrap();
//! let serial = Engine::serial()
//!     .run_batch::<_, std::convert::Infallible, _>(
//!         &JobSpec::new(5).seed(2024),
//!         |ctx| {
//!             use psnt_engine::rand::Rng;
//!             Ok(ctx.rng().gen_range(0.0..1.0))
//!         },
//!     )
//!     .unwrap();
//! assert_eq!(batch.results, serial.results);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod batch;
pub mod pool;
pub mod seed;

pub use batch::{BatchResult, JobCtx, JobError, JobOutcome, JobSpec, RetryPolicy};
pub use seed::{lane_seed, split_seed};

// Re-exported so supervised call sites can name the interruption types
// without adding `psnt-sup` to their own dependency list.
pub use psnt_sup::{Interrupt, Supervisor};

// Re-exported so seeded job closures can use `Rng` without adding the
// vendored `rand` to their own dependency list.
pub use rand;

use std::convert::Infallible;

/// The environment variable [`Engine::from_env`] consults for a worker
/// count before falling back to the machine's available parallelism.
pub const JOBS_ENV: &str = "PSNT_JOBS";

/// A handle sizing the worker pool. Cheap to clone; holds no threads —
/// workers are scoped to each batch call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Engine {
    jobs: usize,
}

impl Engine {
    /// A single-worker engine: batches run inline on the calling
    /// thread. This is the `jobs = 1` path every serial entry point in
    /// the workspace routes through.
    pub fn serial() -> Engine {
        Engine { jobs: 1 }
    }

    /// An engine with `jobs` workers; `0` is clamped to `1`.
    pub fn new(jobs: usize) -> Engine {
        Engine { jobs: jobs.max(1) }
    }

    /// Sizes the pool from the environment: the [`JOBS_ENV`]
    /// (`PSNT_JOBS`) variable when set to a positive integer, otherwise
    /// [`std::thread::available_parallelism`] (falling back to 1 when
    /// even that is unknown).
    pub fn from_env() -> Engine {
        let jobs = std::env::var(JOBS_ENV)
            .ok()
            .and_then(|v| parse_jobs(&v))
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            });
        Engine::new(jobs)
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs a batch of fallible jobs, collecting outputs in job-index
    /// order together with the merged per-worker metrics.
    ///
    /// # Errors
    ///
    /// When jobs fail, the whole batch still runs and the error with
    /// the lowest job index is returned (worker-count independent).
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any panicking job on the calling thread.
    pub fn run_batch<R, E, F>(&self, spec: &JobSpec, f: F) -> Result<BatchResult<R>, E>
    where
        R: Send,
        E: Send,
        F: Fn(&mut JobCtx<'_>) -> Result<R, E> + Sync,
    {
        pool::execute(self.jobs, spec, &f)
    }

    /// [`Engine::run_batch`] under a [`Supervisor`]: each worker checks
    /// the supervisor before every chunk claim (and charges the chunk's
    /// job count against the event budget), so cancellation, deadline
    /// expiry and budget exhaustion stop the batch cooperatively — no
    /// panic, no hang, no torn job.
    ///
    /// A trip that lands after every job already completed returns the
    /// full `Ok` batch: supervised results, when they arrive, are
    /// bit-identical to [`Engine::run_batch`]. A detached supervisor
    /// ([`Supervisor::detached`]) never trips, making this a drop-in
    /// superset of the unsupervised path.
    ///
    /// # Errors
    ///
    /// The lowest-index job error, exactly as [`Engine::run_batch`];
    /// or `E::from(interrupt)` when supervision stopped the batch with
    /// jobs unfinished.
    ///
    /// # Panics
    ///
    /// Re-raises the panic of any panicking job on the calling thread.
    pub fn run_batch_supervised<R, E, F>(
        &self,
        spec: &JobSpec,
        sup: &Supervisor,
        f: F,
    ) -> Result<BatchResult<R>, E>
    where
        R: Send,
        E: Send + From<Interrupt>,
        F: Fn(&mut JobCtx<'_>) -> Result<R, E> + Sync,
    {
        match pool::execute_supervised(self.jobs, spec, sup, &f) {
            Ok(b) => Ok(b),
            Err(pool::ExecErr::Job(e)) => Err(e),
            Err(pool::ExecErr::Interrupted(reason)) => Err(E::from(reason)),
        }
    }

    /// Runs a batch with **per-job isolation**: a panicking job becomes
    /// [`JobOutcome::Failed`] in its own slot instead of poisoning the
    /// pool, so every other job still completes and the caller degrades
    /// gracefully with partial results.
    ///
    /// A [`RetryPolicy`] bounds deterministic re-attempts for injected
    /// transient faults: retries run inside the owning job, and
    /// attempt `a > 0` of a reseeding policy sees
    /// `split_seed(job_seed, a)` through [`JobCtx::seed`] — a function
    /// of `(base seed, index, attempt)` only, so outcome vectors are
    /// bit-identical at any worker count. [`JobCtx::attempt`] exposes
    /// the attempt number.
    ///
    /// Telemetry: `engine.job_retries` counts extra attempts that led to
    /// a success, `engine.jobs_failed` counts exhausted slots.
    ///
    /// This wrapper (via the pool) is the workspace's only sanctioned
    /// `catch_unwind`: higher layers request isolation here rather than
    /// catching panics themselves (grep-gated in `scripts/ci.sh`).
    pub fn run_batch_isolated<R, F>(
        &self,
        spec: &JobSpec,
        retry: RetryPolicy,
        f: F,
    ) -> BatchResult<JobOutcome<R>>
    where
        R: Send,
        F: Fn(&mut JobCtx<'_>) -> R + Sync,
    {
        use std::panic::{catch_unwind, AssertUnwindSafe};

        let run = |ctx: &mut JobCtx<'_>| -> Result<JobOutcome<R>, Infallible> {
            let base_seed = ctx.seed;
            let max = retry.max_attempts.max(1);
            let mut last: Option<batch::JobError> = None;
            for attempt in 0..max {
                ctx.attempt = attempt;
                ctx.seed = if retry.reseed && attempt > 0 {
                    base_seed.map(|s| split_seed(s, u64::from(attempt)))
                } else {
                    base_seed
                };
                match catch_unwind(AssertUnwindSafe(|| f(ctx))) {
                    Ok(r) => {
                        if attempt > 0 {
                            ctx.metrics
                                .counter_add("engine.job_retries", u64::from(attempt));
                        }
                        return Ok(JobOutcome::Ok(r));
                    }
                    Err(payload) => {
                        last = Some(batch::JobError::from_panic(
                            ctx.index,
                            payload.as_ref(),
                            attempt + 1,
                        ));
                    }
                }
            }
            ctx.metrics.counter_add("engine.jobs_failed", 1);
            Ok(JobOutcome::Failed(last.expect("max_attempts >= 1")))
        };
        match pool::execute(self.jobs, spec, &run) {
            Ok(batch) => batch,
            Err(e) => match e {},
        }
    }

    /// Maps `f` over `0..n` in parallel, preserving index order.
    pub fn map<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let batch: Result<BatchResult<R>, Infallible> =
            self.run_batch(&JobSpec::new(n), |ctx| Ok(f(ctx.index())));
        match batch {
            Ok(b) => b.results,
            Err(e) => match e {},
        }
    }

    /// Maps a fallible `f` over `0..n` in parallel, preserving index
    /// order.
    ///
    /// # Errors
    ///
    /// Returns the lowest-index job error (worker-count independent).
    pub fn try_map<R, E, F>(&self, n: usize, f: F) -> Result<Vec<R>, E>
    where
        R: Send,
        E: Send,
        F: Fn(usize) -> Result<R, E> + Sync,
    {
        Ok(self
            .run_batch(&JobSpec::new(n), |ctx| f(ctx.index()))?
            .results)
    }
}

/// Parses a `PSNT_JOBS`-style value: a positive integer, or `None` for
/// anything else (empty, zero, garbage).
fn parse_jobs(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&j| j > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_clamped_to_one() {
        assert_eq!(Engine::new(0).jobs(), 1);
        assert_eq!(Engine::new(3).jobs(), 3);
        assert_eq!(Engine::serial().jobs(), 1);
    }

    #[test]
    fn parse_jobs_accepts_positive_integers_only() {
        assert_eq!(parse_jobs("4"), Some(4));
        assert_eq!(parse_jobs(" 8 "), Some(8));
        assert_eq!(parse_jobs("0"), None);
        assert_eq!(parse_jobs(""), None);
        assert_eq!(parse_jobs("many"), None);
        assert_eq!(parse_jobs("-2"), None);
    }

    #[test]
    fn from_env_yields_at_least_one_worker() {
        assert!(Engine::from_env().jobs() >= 1);
    }

    #[derive(Debug, PartialEq)]
    enum TestError {
        Interrupted(Interrupt),
    }

    impl From<Interrupt> for TestError {
        fn from(i: Interrupt) -> TestError {
            TestError::Interrupted(i)
        }
    }

    #[test]
    fn detached_supervised_batch_matches_unsupervised() {
        for workers in [1, 4] {
            let engine = Engine::new(workers);
            let spec = JobSpec::new(64).seed(7);
            let sup = Supervisor::detached();
            let supervised = engine
                .run_batch_supervised::<_, TestError, _>(&spec, &sup, |ctx| {
                    Ok(ctx.index() as u64 ^ ctx.seed())
                })
                .unwrap();
            let plain = engine
                .run_batch::<_, std::convert::Infallible, _>(&spec, |ctx| {
                    Ok(ctx.index() as u64 ^ ctx.seed())
                })
                .unwrap();
            assert_eq!(supervised.results, plain.results, "workers = {workers}");
        }
    }

    #[test]
    fn cancelled_supervisor_interrupts_before_any_claim() {
        use psnt_sup::{CancelToken, RunBudget};
        let token = CancelToken::new();
        token.cancel();
        let sup = Supervisor::new(token, RunBudget::unlimited());
        let err = Engine::new(4)
            .run_batch_supervised::<u64, TestError, _>(&JobSpec::new(100), &sup, |_| {
                panic!("no job may run once cancelled before the batch")
            })
            .unwrap_err();
        assert_eq!(err, TestError::Interrupted(Interrupt::Cancelled));
    }

    #[test]
    fn event_budget_stops_the_claim_loop() {
        use psnt_sup::{CancelToken, RunBudget};
        // Serial engine, chunk 1: budget of 5 jobs trips on the 6th
        // chunk claim at the latest.
        let sup = Supervisor::new(CancelToken::new(), RunBudget::unlimited().events(5));
        let err = Engine::serial()
            .run_batch_supervised::<usize, TestError, _>(&JobSpec::new(100).chunk(1), &sup, |ctx| {
                Ok(ctx.index())
            })
            .unwrap_err();
        match err {
            TestError::Interrupted(Interrupt::EventBudget { budget: 5, used }) => {
                assert!(used >= 5, "trip reports events actually charged")
            }
            other => panic!("expected an event-budget interrupt, got {other:?}"),
        }
    }

    #[test]
    fn trip_after_completion_returns_the_full_batch() {
        use psnt_sup::{CancelToken, RunBudget};
        // Budget equal to the job count: every job is charged and runs,
        // and the check never observes used > budget, so the supervised
        // batch completes bit-identically to the unsupervised one.
        let sup = Supervisor::new(CancelToken::new(), RunBudget::unlimited().events(8));
        let batch = Engine::new(2)
            .run_batch_supervised::<usize, TestError, _>(&JobSpec::new(8), &sup, |ctx| {
                Ok(ctx.index() * 2)
            })
            .unwrap();
        assert_eq!(batch.results, (0..8).map(|i| i * 2).collect::<Vec<_>>());
    }
}
