//! # psnt-pdn — power-delivery and supply-noise substrate
//!
//! The analog environment of the `psn-thermometer` workspace
//! (reproduction of Graziano & Vittori, IEEE SOCC 2009). The sensor under
//! reproduction observes noisy `VDD-n(t)` / `GND-n(t)` rails; this crate
//! produces them:
//!
//! * [`waveform`] — piecewise-linear analog waveforms (the exchange type
//!   between PDN models and sensors);
//! * [`sources`] — composable synthetic noise (IR drop, package
//!   resonance, di/dt droops, broadband noise) with known ground truth;
//! * [`rlc`] — a lumped series-R-L / shunt-C package+die model integrated
//!   with RK4, for physically derived waveforms;
//! * [`grid`] — a 2-D resistive on-die grid, solved through one cached
//!   banded Cholesky factor, for spatial IR-drop maps (the scan-chain
//!   experiments) and per-cycle workload solves;
//! * [`impedance`] — frequency-domain |Z(f)| analysis of the lumped
//!   network (the anti-resonance that makes some workloads worst-case);
//! * [`workload`] — CUT current-draw generators that drive the models.
//!
//! # Example: physically derived supply noise
//!
//! ```
//! use psnt_cells::units::{Current, Frequency, Time};
//! use psnt_pdn::rlc::LumpedPdn;
//! use psnt_pdn::workload::resonant_loop;
//!
//! let pdn = LumpedPdn::typical_90nm_package();
//! // A hot loop pulsing current near the PDN resonance…
//! let load = resonant_loop(
//!     Current::from_a(0.2), Current::from_a(1.5),
//!     pdn.resonance_frequency(), Time::from_ns(500.0), 42,
//! )?;
//! // …produces a strongly oscillating on-die supply.
//! let mut ctx = psnt_ctx::RunCtx::serial();
//! let vdd = pdn.transient(&mut ctx, &load, Time::from_ps(200.0), Time::from_ns(500.0))?;
//! assert!(vdd.max_value() - vdd.min_value() > 0.02);
//! # Ok::<(), psnt_pdn::error::PdnError>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod error;
pub mod grid;
pub mod impedance;
pub mod rlc;
pub mod sources;
pub mod waveform;
pub mod workload;

pub use error::PdnError;
pub use grid::{GridFactor, GridSolution, PowerGrid};
pub use impedance::{impedance_magnitude, impedance_peak, impedance_profile, ImpedancePoint};
pub use rlc::LumpedPdn;
pub use sources::{ground_bounce, supply_step, SupplyNoiseBuilder};
pub use waveform::Waveform;
pub use workload::{resonant_loop, WorkloadBuilder};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Waveform>();
        assert_send_sync::<crate::LumpedPdn>();
        assert_send_sync::<crate::PowerGrid>();
    }
}
