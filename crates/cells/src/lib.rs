//! # psnt-cells — standard-cell timing substrate
//!
//! This crate is the lowest layer of the `psn-thermometer` workspace, the
//! reproduction of *“A fully digital power supply noise thermometer”*
//! (Graziano & Vittori, IEEE SOCC 2009). It stands in for what the paper
//! obtained from a 90 nm standard-cell library plus ELDO post-layout
//! simulation:
//!
//! * [`units`] — typed physical quantities ([`units::Time`],
//!   [`units::Voltage`], [`units::Capacitance`], …);
//! * [`logic`] — four-valued logic and vectors;
//! * [`process`] — process corners, temperature derating, PVT points;
//! * [`delay`] — gate delay models (the Sakurai–Newton alpha-power law
//!   and NLDM-style tables), the physics behind the sensor's
//!   voltage→delay conversion;
//! * [`gates`] — combinational standard cells;
//! * [`dff`] — the flip-flop with setup/hold windows and metastability,
//!   the element the sensor deliberately drives into violation.
//!
//! # Example: the sensing principle in three lines
//!
//! ```
//! use psnt_cells::delay::{AlphaPowerDelay, DelayModel};
//! use psnt_cells::process::Pvt;
//! use psnt_cells::units::{Capacitance, Voltage};
//!
//! let inv = AlphaPowerDelay::paper_sense_inverter();
//! let c = Capacitance::from_pf(2.0);
//! let nominal = inv.propagation_delay(Voltage::from_v(1.00), c, &Pvt::typical());
//! let droopy = inv.propagation_delay(Voltage::from_v(0.90), c, &Pvt::typical());
//! // A supply droop slows the inverter — that is the whole sensor.
//! assert!(droopy > nominal);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod delay;
pub mod dff;
pub mod error;
pub mod fastmath;
pub mod gates;
pub mod logic;
pub mod process;
pub mod units;

pub use delay::{AlphaPowerDelay, DelayModel, TableDelay};
pub use dff::{Dff, SampleOutcome};
pub use error::CellError;
pub use gates::{GateFunction, StdCell};
pub use logic::{Logic, LogicVector};
pub use process::{ProcessCorner, Pvt};
pub use units::{
    Capacitance, Current, Frequency, Inductance, Resistance, Temperature, Time, Voltage,
};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::AlphaPowerDelay>();
        assert_send_sync::<crate::TableDelay>();
        assert_send_sync::<crate::Dff>();
        assert_send_sync::<crate::LogicVector>();
        assert_send_sync::<crate::Pvt>();
    }
}
