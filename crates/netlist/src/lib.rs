//! # psnt-netlist — gate-level netlists, simulation and timing
//!
//! The digital-design substrate of the `psn-thermometer` workspace
//! (reproduction of Graziano & Vittori, IEEE SOCC 2009). Where the paper
//! used synthesised standard-cell netlists, post-layout ELDO transient
//! runs and a synthesis tool's timing report, this crate provides:
//!
//! * [`graph`] — netlist construction and structural validation;
//! * [`sim`] — an event-driven four-valued simulator whose gate delays
//!   are voltage-aware (supply droop slows paths) and whose flip-flops
//!   exhibit real setup violations and metastability;
//! * [`sta`] — static timing analysis (arrival propagation, critical
//!   path, slack), used to reproduce the paper's "critical path 1.22 ns"
//!   claim for the CNTR block;
//! * [`wave`] — transition traces and VCD export.
//!
//! # Example
//!
//! ```
//! use psnt_cells::gates::StdCell;
//! use psnt_cells::logic::Logic;
//! use psnt_cells::units::{Time, Voltage};
//! use psnt_netlist::graph::Netlist;
//! use psnt_netlist::sim::Simulator;
//! use psnt_netlist::sta::{analyze, StaConfig};
//!
//! let mut n = Netlist::new("majority");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let c = n.add_input("c");
//! let ab = n.add_gate("g_ab", StdCell::and2(1.0), &[a, b])?;
//! let bc = n.add_gate("g_bc", StdCell::and2(1.0), &[b, c])?;
//! let ac = n.add_gate("g_ac", StdCell::and2(1.0), &[a, c])?;
//! let t = n.add_gate("g_or1", StdCell::or2(1.0), &[ab, bc])?;
//! let q = n.add_gate("g_or2", StdCell::or2(1.0), &[t, ac])?;
//! n.mark_output("q", q);
//!
//! // Simulate.
//! let mut sim = Simulator::new(&n, Voltage::from_v(1.0))?;
//! for (net, v) in [(a, Logic::One), (b, Logic::One), (c, Logic::Zero)] {
//!     sim.drive(net, v, Time::ZERO)?;
//! }
//! sim.run_until(Time::from_ns(2.0));
//! assert_eq!(sim.value(q), Logic::One);
//!
//! // And time it.
//! let report = analyze(&n, &StaConfig::default())?;
//! assert!(report.critical_delay() > Time::ZERO);
//! # Ok::<(), psnt_netlist::error::NetlistError>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod error;
pub mod graph;
pub mod profile;
pub mod sim;
pub mod sta;
pub mod wave;

pub use batch::{BatchSimulator, BatchStats, LANES};
pub use error::NetlistError;
pub use graph::{DffId, DffInst, DomainId, Driver, Gate, GateId, Net, NetId, Netlist};
pub use profile::SimProfile;
pub use sim::{MetastabilityMode, SimStats, Simulator};
pub use sta::{
    analyze, analyze_with_domain_supplies, Endpoint, PathStage, StaConfig, StaReport, TimingPath,
};
pub use wave::{Edge, SignalId, Trace};

#[cfg(test)]
mod tests {
    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::Netlist>();
        assert_send_sync::<crate::Trace>();
        assert_send_sync::<crate::StaReport>();
    }
}
