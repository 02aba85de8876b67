//! # psnt-core — the fully digital power supply noise thermometer
//!
//! This crate implements the primary contribution of
//! *“A fully digital power supply noise thermometer”* (M. Graziano and
//! M. D. Vittori, IEEE SOCC 2009): a standard-cell-based sensor that
//! converts the instantaneous on-die supply (or ground) voltage into a
//! thermometer-coded digital word, usable both for verification readout
//! and for on-chip power-aware policies.
//!
//! The layers map one-to-one onto the paper's figures:
//!
//! * [`element`] — the INV + C + FF key element (Fig. 1 left, Fig. 2);
//! * [`thermometer`] — the 7-bit array with its capacitor ladder
//!   (Fig. 1 right, Figs. 4–5), plus code↔voltage decoding;
//! * [`code`] — thermometer codes, bubbles and correction;
//! * [`pulsegen`] — the PG block with the published delay-code table
//!   (Fig. 7) and [`pulsegen::AutoRanger`], the internal delay-code
//!   policy;
//! * [`control`] — the CNTR FSM (Fig. 8), behavioural *and* gate-level
//!   (reproducing the 1.22 ns critical-path claim);
//! * [`gate_level`] — the array as an actual standard-cell netlist with
//!   a separate noisy power domain, equivalence-checked against the
//!   behavioural model;
//! * [`encoder`] — the ENC block producing the `OUTE` noise word;
//! * [`system`] — the assembled HIGH-SENSE/LOW-SENSE system (Figs. 6, 9);
//! * [`calibration`] — characterisation sweeps and the
//!   process-variation delay-code trim;
//! * [`mismatch`] — local-mismatch Monte-Carlo (thermometer-property
//!   yield under within-die variation);
//! * [`lanes`] — the 64-wide lockstep threshold kernel behind the
//!   batched Monte-Carlo (DESIGN.md §14);
//! * [`baseline`] — the comparison systems from the paper's related work
//!   (ring-oscillator sensor, Razor, error-probability monitor).
//!
//! # Quickstart
//!
//! ```
//! use psnt_cells::units::{Time, Voltage};
//! use psnt_core::system::{SensorConfig, SensorSystem};
//! use psnt_ctx::RunCtx;
//! use psnt_pdn::sources::supply_step;
//! use psnt_pdn::waveform::Waveform;
//!
//! // The paper's Fig. 9 scenario: two measures across a 1.0 → 0.9 V step.
//! let mut sensor = SensorSystem::new(SensorConfig::default())?;
//! let mut ctx = RunCtx::serial();
//! let vdd = supply_step(
//!     Voltage::from_v(1.0), Voltage::from_v(0.9),
//!     Time::from_ns(15.0), Time::from_us(1.0),
//! )?;
//! let measures = sensor.run(&mut ctx, &vdd, &Waveform::constant(0.0), Time::ZERO, 2)?;
//! assert_eq!(measures[0].hs_code.to_string(), "0011111");
//! assert_eq!(measures[1].hs_code.to_string(), "0000011");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod baseline;
pub mod calibration;
pub mod code;
pub mod control;
pub mod element;
pub mod encoder;
pub mod error;
pub mod gate_level;
pub mod lanes;
pub mod mismatch;
pub mod pulsegen;
pub mod system;
pub mod thermometer;

pub use calibration::{
    array_characteristic, linear_fit, sensitivity_characteristic, trim_for_corner,
    ArrayCharacteristic, SensitivityPoint, TrimResult,
};
pub use code::ThermometerCode;
pub use control::{
    build_control_netlist, Controller, CtrlInputs, CtrlNetlistConfig, CtrlOutputs, CtrlState,
};
pub use element::{ElementReading, RailMode, SenseElement};
pub use encoder::{Encoder, EncodingPolicy, OuteWord};
pub use error::SensorError;
pub use gate_level::{GateLevelArray, GateLevelMeasure, GateLevelPulseGen, GateLevelSystem};
pub use mismatch::{monte_carlo_yield, monte_carlo_yield_scalar, MismatchModel, YieldReport};
pub use pulsegen::{DelayCode, PulseGenerator, PulseTiming};
pub use system::{Measurement, SensorConfig, SensorSystem};
pub use thermometer::{CapacitorLadder, CodeInterval, OperatingPoint, ThermometerArray};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::SensorSystem>();
        assert_send_sync::<crate::ThermometerArray>();
        assert_send_sync::<crate::OperatingPoint>();
        assert_send_sync::<crate::Measurement>();
        assert_send_sync::<crate::SensorError>();
    }
}
