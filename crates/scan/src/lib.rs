//! # psnt-scan — the PSN scan chain
//!
//! The deployment layer of the `psn-thermometer` workspace (reproduction
//! of Graziano & Vittori, IEEE SOCC 2009). The paper's closing claim is
//! that its sensor "can be used for every type of architecture on a
//! systematic basis for PSN measure as scan chains are for fault
//! verification". This crate realises the analogy:
//!
//! * [`floorplan`] — sensor-site placement over a `psnt-pdn` power grid;
//! * [`chain`] — serial capture/shift/deserialize of all sites' codes;
//! * [`sampler`] — equivalent-time reconstruction of periodic noise from
//!   iterated measures;
//! * [`campaign`] — end-to-end multi-site measurement runs producing
//!   spatial noise maps.
//!
//! # Example
//!
//! ```
//! use psnt_cells::units::{Resistance, Time, Voltage};
//! use psnt_core::system::SensorConfig;
//! use psnt_ctx::RunCtx;
//! use psnt_engine::RetryPolicy;
//! use psnt_pdn::grid::PowerGrid;
//! use psnt_pdn::waveform::Waveform;
//! use psnt_scan::campaign::Campaign;
//! use psnt_scan::floorplan::{Floorplan, Placement};
//!
//! let grid = PowerGrid::corner_fed(3, Voltage::from_v(1.0),
//!     Resistance::from_milliohms(40.0), Resistance::from_milliohms(10.0))?;
//! let fp = Floorplan::new(grid, Placement::CornersAndCentre)?;
//! let campaign = Campaign::new(fp, SensorConfig::default())?;
//! let loads = vec![Waveform::constant(0.05); 9];
//! let mut ctx = RunCtx::serial();
//! let run = campaign.run_resilient(&mut ctx, &loads, None, Time::from_ns(10.0),
//!     Time::from_ns(20.0), 4, RetryPolicy::none())?;
//! assert_eq!(run.result.frames.len(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod campaign;
pub mod chain;
pub mod error;
pub mod floorplan;
pub mod sampler;

pub use campaign::{
    Campaign, CampaignResult, DegradationSummary, ResilientCampaignResult, SiteOutcome, SiteSeries,
    StreamRecord,
};
pub use chain::ScanChain;
pub use error::ScanError;
pub use floorplan::{Floorplan, Placement, SensorSite};
pub use sampler::{EquivalentTimeSampler, Reconstruction};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Campaign>();
        assert_send_sync::<crate::ScanChain>();
        assert_send_sync::<crate::Reconstruction>();
    }
}
