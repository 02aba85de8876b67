//! # psnt-workload — the chip-scale workload engine
//!
//! The paper closes by arguing its sensor "can be used for every type
//! of architecture on a systematic basis". This crate supplies the
//! *architecture*: a many-core CUT modelled as an NoC mesh whose
//! routers draw supply current as synthetic traffic moves through
//! them, so campaigns measure the noise a realistic workload induces
//! rather than hand-authored tile waveforms.
//!
//! * [`traffic`] — deterministic, seed-split traffic generators
//!   (uniform Bernoulli, bursty `k`-on/`m`-off, Gaussian link loads à
//!   la Booksim's random link-load tables);
//! * [`noc`] — the mesh, XY routing and the per-cycle activity trace;
//! * [`stepper`] — [`CycleStepper`], the cycle-stepped co-simulation
//!   core: activity source → current map → incremental grid state
//!   ([`PowerGrid::update_delta`](psnt_pdn::grid::PowerGrid::update_delta)),
//!   with a sanctioned [`Actuation`](psnt_control::Actuation) door for
//!   closed-loop control;
//! * [`campaign`] — [`NocWorkload`]: the open-loop entry points, which
//!   record every site's rail per cycle (bit-identical to the old fused
//!   loop) → a streamed multi-site scan campaign;
//! * [`mitigated`] — [`NocWorkload::run_mitigated`], the closed loop:
//!   per-cycle thermometer sensing → delayed codes → a
//!   [`Mitigator`](psnt_control::Mitigator) actuating the next cycle;
//! * [`checkpoint`] — the snapshot formats both drivers write and
//!   resume from.
//!
//! Every driver runs the same private, supervised cycle loop. It steps
//! the [`CycleStepper`], folds each cycle into the window statistics,
//! checks the context's supervisor, fires the harness faults, writes
//! cadence and interrupt snapshots and closes the run span on every
//! exit path; a driver adds only its per-cycle work.
//!
//! # Example
//!
//! ```
//! use psnt_ctx::RunCtx;
//! use psnt_engine::RetryPolicy;
//! use psnt_workload::{NocWorkload, NocWorkloadConfig};
//!
//! let workload = NocWorkload::new(NocWorkloadConfig::small_2x2())?;
//! let mut records = 0;
//! let out = workload.run_streamed(
//!     &mut RunCtx::serial().with_seed(7),
//!     RetryPolicy::none(),
//!     |_record| {
//!         records += 1;
//!         Ok(())
//!     },
//! )?;
//! assert_eq!(records, 4 + 3 + 1); // sites, frames, summary
//! assert!(out.profile.worst_droop() > 0.0);
//! # Ok::<(), psnt_workload::WorkloadError>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod checkpoint;
mod driver;
pub mod error;
pub mod mitigated;
pub mod noc;
pub mod stepper;
pub mod traffic;

pub use campaign::{NocWorkload, NocWorkloadConfig, NoiseProfile, StreamedNocResult, WindowStats};
pub use checkpoint::{CheckpointPolicy, MitigatedCheckpoint, WorkloadCheckpoint};
pub use error::WorkloadError;
pub use mitigated::{ActuationSample, MitigatedNocResult};
pub use noc::{ActivityTrace, NocMesh};
pub use stepper::{CycleStepper, StepperSnapshot};
pub use traffic::{TileTraffic, TrafficPattern};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::NocWorkload>();
        assert_send_sync::<crate::ActivityTrace>();
        assert_send_sync::<crate::TrafficPattern>();
        assert_send_sync::<crate::WorkloadError>();
    }
}
