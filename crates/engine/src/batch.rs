//! Batch descriptions and results: [`JobSpec`], [`JobCtx`],
//! [`BatchResult`], and the graceful-degradation vocabulary
//! ([`JobOutcome`], [`JobError`], [`RetryPolicy`]).

use std::fmt;

use psnt_obs::MetricsRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::seed::split_seed;

/// Describes one batch of independent jobs, indexed `0..jobs`.
///
/// The spec carries everything that must be identical regardless of
/// worker count: the job count, the optional base seed (split into one
/// child stream per job index), and an optional chunk-size override
/// for the work queue.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    jobs: usize,
    seed: Option<u64>,
    chunk: Option<usize>,
}

impl JobSpec {
    /// A spec for `jobs` independent jobs.
    pub fn new(jobs: usize) -> JobSpec {
        JobSpec {
            jobs,
            seed: None,
            chunk: None,
        }
    }

    /// Attaches a base seed: job `i` will see `split_seed(base, i)`
    /// through [`JobCtx::seed`] / [`JobCtx::rng`], independent of which
    /// worker runs it.
    #[must_use]
    pub fn seed(mut self, base: u64) -> JobSpec {
        self.seed = Some(base);
        self
    }

    /// Overrides the work-queue chunk size (jobs claimed per atomic
    /// queue operation). Values below 1 are clamped to 1. The default
    /// — `ceil(jobs / (4 · workers))` — balances claim overhead against
    /// tail latency and never affects results, only scheduling.
    #[must_use]
    pub fn chunk(mut self, jobs_per_claim: usize) -> JobSpec {
        self.chunk = Some(jobs_per_claim.max(1));
        self
    }

    /// The number of jobs in the batch.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The base seed, if one was attached.
    pub fn base_seed(&self) -> Option<u64> {
        self.seed
    }

    pub(crate) fn chunk_size(&self, workers: usize) -> usize {
        self.chunk
            .unwrap_or_else(|| self.jobs.div_ceil(workers.max(1) * 4))
            .max(1)
    }
}

/// The per-job context handed to the batch closure.
///
/// Everything observable through the context except [`JobCtx::worker`]
/// and the metrics registry depends only on the job index, which is
/// what makes seeded batches bit-identical at any worker count.
#[derive(Debug)]
pub struct JobCtx<'a> {
    pub(crate) index: usize,
    pub(crate) worker: usize,
    pub(crate) seed: Option<u64>,
    pub(crate) attempt: u32,
    /// The executing worker's private metrics registry. Record domain
    /// metrics freely — no locks, no contention — and the engine merges
    /// every worker's registry into one snapshot at join
    /// ([`psnt_obs::MetricsRegistry::merge`]).
    pub metrics: &'a mut MetricsRegistry,
}

impl JobCtx<'_> {
    /// The job's index in `0..spec.jobs()`.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The executing worker's id in `0..workers`. Scheduling-dependent:
    /// do not let results depend on it.
    pub fn worker(&self) -> usize {
        self.worker
    }

    /// Zero-based attempt number: always 0 outside isolated batches,
    /// incremented per retry under a [`RetryPolicy`]. Deterministic —
    /// retries happen inside the owning job, never on another worker.
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// This job's split seed.
    ///
    /// # Panics
    ///
    /// Panics when the [`JobSpec`] carried no base seed.
    pub fn seed(&self) -> u64 {
        self.seed
            .expect("JobCtx::seed called on a batch whose JobSpec has no base seed")
    }

    /// A fresh RNG seeded with this job's split seed.
    ///
    /// # Panics
    ///
    /// Panics when the [`JobSpec`] carried no base seed.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed())
    }
}

pub(crate) fn job_seed(spec: &JobSpec, index: usize) -> Option<u64> {
    spec.base_seed().map(|s| split_seed(s, index as u64))
}

/// An attributable job failure: which job failed, the stringified panic
/// payload, and how many attempts it consumed.
///
/// This is both the per-slot error inside
/// [`JobOutcome::Failed`] and — in non-isolated mode — the payload the
/// pool re-raises on the calling thread (`panic_any(JobError)`), so a
/// batch panic always names its originating job index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// The failing job's index in `0..spec.jobs()`.
    pub job: usize,
    /// The panic payload, stringified (`&str` and `String` payloads are
    /// preserved verbatim; anything else becomes a placeholder).
    pub payload: String,
    /// Attempts consumed (1 without a [`RetryPolicy`]).
    pub attempts: u32,
}

impl JobError {
    pub(crate) fn from_panic(
        job: usize,
        payload: &(dyn std::any::Any + Send),
        attempts: u32,
    ) -> JobError {
        let payload = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        JobError {
            job,
            payload,
            attempts,
        }
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job {} panicked after {} attempt(s): {}",
            self.job, self.attempts, self.payload
        )
    }
}

impl std::error::Error for JobError {}

/// Per-slot outcome of an isolated batch
/// ([`Engine::run_batch_isolated`](crate::Engine::run_batch_isolated)):
/// the job's value, or the attributable failure that exhausted its
/// retries — other slots are unaffected either way.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome<T> {
    /// The job completed, possibly after deterministic retries.
    Ok(T),
    /// Every attempt panicked; the final attempt's failure is kept.
    Failed(JobError),
}

impl<T> JobOutcome<T> {
    /// True for [`JobOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Ok(_))
    }

    /// The success value, consuming the outcome.
    pub fn ok(self) -> Option<T> {
        match self {
            JobOutcome::Ok(v) => Some(v),
            JobOutcome::Failed(_) => None,
        }
    }

    /// The success value by reference.
    pub fn as_ok(&self) -> Option<&T> {
        match self {
            JobOutcome::Ok(v) => Some(v),
            JobOutcome::Failed(_) => None,
        }
    }

    /// The failure, if the job failed.
    pub fn error(&self) -> Option<&JobError> {
        match self {
            JobOutcome::Ok(_) => None,
            JobOutcome::Failed(e) => Some(e),
        }
    }
}

/// Bounded deterministic retry for isolated batches.
///
/// Retries run inside the owning job (never another worker), and the
/// retry seed depends only on `(base seed, job index, attempt)`, so an
/// isolated batch remains bit-identical at any worker count — including
/// which jobs fail and after how many attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job, clamped to at least 1.
    pub max_attempts: u32,
    /// When true, retry attempt `a > 0` re-derives the job seed as
    /// `split_seed(job_seed, a)`, giving injected transient faults
    /// fresh (but reproducible) randomness per attempt. Attempt 0
    /// always uses the plain job seed, so a policy with
    /// `max_attempts = 1` is exactly the no-retry behavior.
    pub reseed: bool,
}

impl RetryPolicy {
    /// One attempt, no reseeding — the identity policy.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            reseed: false,
        }
    }

    /// Up to `max_attempts` attempts, replaying the same seed each time.
    pub fn attempts(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            reseed: false,
        }
    }

    /// Up to `max_attempts` attempts with per-attempt reseeding.
    pub fn reseeding(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: max_attempts.max(1),
            reseed: true,
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::none()
    }
}

/// The ordered outcome of a batch: `results[i]` is job `i`'s output,
/// regardless of which worker computed it or when.
#[derive(Debug)]
pub struct BatchResult<R> {
    /// Per-job outputs in job-index order.
    pub results: Vec<R>,
    /// The merged per-worker metrics (see
    /// [`psnt_obs::MetricsRegistry::merge`] for the policy): domain
    /// metrics the jobs recorded plus the engine's own
    /// `engine.jobs_done` / `engine.chunks_claimed` counters and the
    /// `engine.workers` gauge.
    pub metrics: MetricsRegistry,
    /// Worker threads the batch actually used (≤ requested jobs).
    pub workers: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_size_defaults_scale_with_workers() {
        let spec = JobSpec::new(100);
        assert_eq!(spec.chunk_size(1), 25);
        assert_eq!(spec.chunk_size(4), 7);
        assert_eq!(spec.chunk_size(100), 1);
        // Explicit override wins and is clamped to at least one job.
        assert_eq!(JobSpec::new(100).chunk(3).chunk_size(4), 3);
        assert_eq!(JobSpec::new(100).chunk(0).chunk_size(4), 1);
        // Degenerate batches still claim one job at a time.
        assert_eq!(JobSpec::new(0).chunk_size(4), 1);
    }

    #[test]
    fn job_seed_is_index_only() {
        let spec = JobSpec::new(10).seed(7);
        assert_eq!(job_seed(&spec, 3), job_seed(&spec, 3));
        assert_ne!(job_seed(&spec, 3), job_seed(&spec, 4));
        assert_eq!(job_seed(&JobSpec::new(10), 3), None);
    }
}
