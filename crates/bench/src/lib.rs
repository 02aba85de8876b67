//! # psnt-bench — reproduction harness
//!
//! One function per paper figure/table ([`figures`]) and per design
//! ablation ([`ablations`]). The `repro` binary prints them; the
//! Criterion benches in `benches/` time them. See `EXPERIMENTS.md` at
//! the workspace root for measured-vs-published values.
//!
//! Every experiment runner takes the session's
//! [`RunCtx`](psnt_ctx::RunCtx) — one context carries the parallel
//! engine, the optional telemetry observer, the reusable-simulator
//! pool and the seed policy. The rendered reports are bit-identical at
//! any worker count; parallelism changes wall-clock time, never
//! results.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod ablations;
pub mod checkpointed;
pub mod diff;
pub mod figures;

pub use checkpointed::{CheckpointOptions, CheckpointedRun};

/// An experiment registry row: stable id, one-line description, and
/// the ctx-taking runner (re-exported from [`figures`]).
pub type Experiment = figures::Experiment;

/// Every experiment as `(id, description, runner)`, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    figures::registry()
}

#[cfg(test)]
mod tests {
    use psnt_ctx::RunCtx;

    #[test]
    fn all_experiments_run_and_render() {
        let mut ctx = RunCtx::serial();
        for (id, _desc, run) in super::all_experiments() {
            let out = run(&mut ctx);
            assert!(!out.is_empty(), "{id} produced no output");
            assert!(out.contains("=="), "{id} missing a table title");
        }
    }
}
