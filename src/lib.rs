//! # psn-thermometer
//!
//! A Rust reproduction of *“A fully digital power supply noise
//! thermometer”* (M. Graziano and M. D. Vittori, IEEE SOCC 2009,
//! DOI 10.1109/SOCCON.2009.5398066): a standard-cell-based sensor that
//! digitises the instantaneous on-die supply/ground voltage into a
//! flash-ADC-like thermometer code, replicable across a die like a scan
//! chain.
//!
//! This facade crate re-exports the workspace layers:
//!
//! * [`cells`] (`psnt-cells`) — standard-cell timing substrate
//!   (alpha-power delay physics, setup/metastability flip-flop);
//! * [`netlist`] (`psnt-netlist`) — gate-level netlists, event-driven
//!   simulation, STA;
//! * [`pdn`] (`psnt-pdn`) — supply-noise waveforms, RLC package model,
//!   on-die power grid, workloads;
//! * [`sensor`] (`psnt-core`) — the paper's sensor element, thermometer
//!   array, pulse generator, control FSM, full system, calibration and
//!   related-work baselines;
//! * [`scan`] (`psnt-scan`) — multi-site placement, serial readout,
//!   equivalent-time sampling, campaigns;
//! * [`workload`] (`psnt-workload`) — chip-scale workload engine:
//!   seed-split NoC-mesh traffic driving a cycle-stepped co-simulation
//!   core ([`CycleStepper`](psnt_workload::CycleStepper)) with
//!   incremental sparse PDN solves and streamed 256+-site campaigns;
//! * [`control`] (`psnt-control`) — closed-loop droop mitigation:
//!   [`Mitigator`](psnt_control::Mitigator) policies (threshold clock
//!   stretch / load throttle / supply boost, PI boost with anti-windup)
//!   observing thermometer codes at cycle `t` and actuating cycle
//!   `t + 1` through a sanctioned [`Actuation`](psnt_control::Actuation)
//!   interface;
//! * [`analysis`] (`psnt-analysis`) — statistics, ADC linearity metrics,
//!   fidelity scoring, report tables;
//! * [`obs`] (`psnt-obs`) — telemetry: metrics registry, structured
//!   JSON-Lines event log, span timing, run manifests;
//! * [`engine`] (`psnt-engine`) — deterministic parallel execution:
//!   a scoped worker pool whose results are bit-identical at any
//!   worker count;
//! * [`fault`] (`psnt-fault`) — seeded deterministic fault injection:
//!   serde-able [`FaultPlan`](psnt_fault::FaultPlan)s of stuck-ats,
//!   delay scalings, bit upsets, supply glitches and transients,
//!   applied inside the event kernel;
//! * [`sup`] (`psnt-sup`) — run supervision: cooperative
//!   [`CancelToken`](psnt_sup::CancelToken)s, wall/sim/event
//!   [`RunBudget`](psnt_sup::RunBudget)s and structured
//!   [`Interrupt`](psnt_sup::Interrupt)ion, checked cheaply at every
//!   layer's loop boundaries;
//! * [`ctx`] (`psnt-ctx`) — the unified execution context
//!   ([`RunCtx`](psnt_ctx::RunCtx)): engine + observer + reusable
//!   simulator pool + seed policy + supervisor, threaded through every
//!   layer.
//!
//! # Quickstart
//!
//! ```
//! use psn_thermometer::prelude::*;
//!
//! // Build the paper's sensor and measure a 60 mV droop.
//! let sensor = SensorSystem::new(SensorConfig::default())?;
//! let m = sensor.measure_at(
//!     &Waveform::constant(0.94),
//!     &Waveform::constant(0.0),
//!     Time::from_ns(10.0),
//! )?;
//! println!("code {} → VDD-n in {:?}", m.hs_code, m.hs_interval);
//! assert_eq!(m.hs_code.to_string(), "0000111");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub use psnt_analysis as analysis;
pub use psnt_cells as cells;
pub use psnt_control as control;
pub use psnt_core as sensor;
pub use psnt_ctx as ctx;
pub use psnt_engine as engine;
pub use psnt_fault as fault;
pub use psnt_netlist as netlist;
pub use psnt_obs as obs;
pub use psnt_pdn as pdn;
pub use psnt_scan as scan;
pub use psnt_sup as sup;
pub use psnt_workload as workload;

/// The most common imports for working with the sensor.
pub mod prelude {
    pub use psnt_cells::process::{ProcessCorner, Pvt};
    pub use psnt_cells::units::{Capacitance, Current, Frequency, Resistance, Time, Voltage};
    pub use psnt_control::{Actuation, Mitigator};
    pub use psnt_core::code::ThermometerCode;
    pub use psnt_core::element::{RailMode, SenseElement};
    pub use psnt_core::pulsegen::{DelayCode, PulseGenerator};
    pub use psnt_core::system::{Measurement, SensorConfig, SensorSystem};
    pub use psnt_core::thermometer::{CapacitorLadder, OperatingPoint, ThermometerArray};
    pub use psnt_ctx::RunCtx;
    pub use psnt_engine::{Engine, RetryPolicy};
    pub use psnt_fault::{Fault, FaultPlan};
    pub use psnt_obs::{Observer, RunManifest};
    pub use psnt_pdn::sources::{supply_step, SupplyNoiseBuilder};
    pub use psnt_pdn::waveform::Waveform;
    pub use psnt_pdn::workload::WorkloadBuilder;
    pub use psnt_scan::campaign::Campaign;
    pub use psnt_scan::floorplan::{Floorplan, Placement};
    pub use psnt_sup::{CancelToken, RunBudget, Supervised, Supervisor};
    pub use psnt_workload::{NocWorkload, NocWorkloadConfig, TrafficPattern};
}
