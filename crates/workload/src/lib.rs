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
//! * [`campaign`] — [`NocWorkload`]: the batch entry points, now thin
//!   drivers over the stepper (bit-identical to the old fused loop) →
//!   in-memory or streamed multi-site scan campaigns;
//! * [`mitigated`] — [`NocWorkload::run_mitigated`], the closed loop:
//!   per-cycle thermometer sensing → delayed codes → a
//!   [`Mitigator`](psnt_control::Mitigator) actuating the next cycle.
//!
//! # Example
//!
//! ```
//! use psnt_ctx::RunCtx;
//! use psnt_engine::RetryPolicy;
//! use psnt_workload::{NocWorkload, NocWorkloadConfig};
//!
//! let workload = NocWorkload::new(NocWorkloadConfig::small_2x2())?;
//! let out = workload.run(&mut RunCtx::serial().with_seed(7), RetryPolicy::none())?;
//! assert_eq!(out.result.result.sites.len(), 4);
//! assert!(out.profile.worst_droop() > 0.0);
//! # Ok::<(), psnt_workload::WorkloadError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod checkpoint;
pub mod error;
pub mod mitigated;
pub mod noc;
pub mod stepper;
pub mod traffic;

pub use campaign::{
    NocCampaignResult, NocWorkload, NocWorkloadConfig, NoiseProfile, StreamedNocResult, WindowStats,
};
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
