//! Razor-style shadow-latch timing-error detection (paper ref. \[8\]).
//!
//! Razor augments a pipeline flip-flop with a shadow latch clocked by a
//! delayed phase: when supply droop stretches the datapath beyond the
//! main FF's sampling point but the data still reaches the shadow latch,
//! main and shadow disagree and the error is flagged (and recoverable at
//! the microarchitecture level).
//!
//! The paper's critique, reproduced here: Razor "requires a careful
//! design of the sense block and of the recovering system which is
//! suitable for a pipeline based processor, and not for a general
//! architecture" — and as a *sensor* it only observes cycles where the
//! pipeline actually exercises the critical path, and it reports a
//! binary error, not a voltage.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::units::{Time, Voltage};
//! use psnt_core::baseline::{RazorOutcome, RazorStage};
//!
//! let stage = RazorStage::typical_pipeline();
//! // Nominal supply, path exercised: no error.
//! let out = stage.evaluate(Voltage::from_v(1.0), true, Time::from_ns(2.0));
//! assert_eq!(out, RazorOutcome::NoError);
//! // Idle path: a droop goes completely unobserved.
//! let idle = stage.evaluate(Voltage::from_v(0.85), false, Time::from_ns(2.0));
//! assert_eq!(idle, RazorOutcome::NotExercised);
//! ```

use psnt_cells::delay::{AlphaPowerDelay, DelayModel};
use psnt_cells::process::Pvt;
use psnt_cells::units::{Capacitance, Time, Voltage};
use serde::{Deserialize, Serialize};

/// What a Razor stage reports for one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RazorOutcome {
    /// The datapath met timing; main and shadow agree.
    NoError,
    /// Main FF missed the data but the shadow latch caught it: a
    /// detected, recoverable timing error.
    Detected,
    /// The data arrived after even the shadow window: a silent data
    /// corruption Razor cannot flag (the failure mode that bounds how
    /// far voltage can be scaled).
    Missed,
    /// The monitored path was not exercised this cycle — Razor sees
    /// nothing regardless of the supply.
    NotExercised,
}

/// One Razor-protected pipeline stage.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RazorStage {
    /// The critical datapath modelled with the same alpha-power physics
    /// as the sensor (so the whole path scales with supply).
    path: AlphaPowerDelay,
    /// Switched-capacitance equivalent of one gate stage.
    gate_equivalent: Capacitance,
    /// Number of equivalent gate stages in the path.
    depth: f64,
    /// Main FF setup time.
    setup: Time,
    /// The shadow latch stays transparent this long after the main edge.
    shadow_window: Time,
    pvt: Pvt,
}

impl RazorStage {
    /// A typical 90 nm pipeline stage: a 28-gate path sized to consume
    /// ~80 % of a 2 ns cycle at nominal supply (first timing failure near
    /// 0.79 V), with a half-cycle shadow window.
    pub fn typical_pipeline() -> RazorStage {
        RazorStage {
            path: AlphaPowerDelay::new(
                32.0,
                Capacitance::ZERO,
                Time::ZERO,
                Voltage::from_v(0.30),
                1.3,
            )
            .expect("static parameters are valid"),
            gate_equivalent: Capacitance::from_pf(1.1),
            depth: 28.0,
            setup: Time::from_ps(30.0),
            shadow_window: Time::from_ps(1000.0),
            pvt: Pvt::typical(),
        }
    }

    /// Returns a copy with a different path depth (gate count).
    #[must_use]
    pub fn with_depth(mut self, depth: f64) -> RazorStage {
        self.depth = depth;
        self
    }

    /// The datapath delay at a supply voltage.
    pub fn path_delay(&self, supply: Voltage) -> Time {
        self.path
            .propagation_delay(supply, self.gate_equivalent * self.depth, &self.pvt)
    }

    /// The lowest supply at which the stage still meets timing for the
    /// given clock period (bisection).
    pub fn min_supply(&self, period: Time) -> Voltage {
        let meets = |v: Voltage| self.path_delay(v) <= period - self.setup;
        let (mut lo, mut hi) = (Voltage::from_v(0.4), Voltage::from_v(1.5));
        if meets(lo) {
            return lo;
        }
        if !meets(hi) {
            return hi;
        }
        for _ in 0..50 {
            let mid = lo.lerp(hi, 0.5);
            if meets(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// Evaluates one cycle: does the stage flag a timing error at this
    /// supply? `exercised` is whether the critical path toggles this
    /// cycle (Razor's fundamental observability condition).
    pub fn evaluate(&self, supply: Voltage, exercised: bool, period: Time) -> RazorOutcome {
        if !exercised {
            return RazorOutcome::NotExercised;
        }
        let arrival = self.path_delay(supply);
        if arrival <= period - self.setup {
            RazorOutcome::NoError
        } else if arrival <= period + self.shadow_window {
            RazorOutcome::Detected
        } else {
            RazorOutcome::Missed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn period() -> Time {
        Time::from_ns(2.0)
    }

    #[test]
    fn nominal_supply_meets_timing() {
        let s = RazorStage::typical_pipeline();
        let d = s.path_delay(Voltage::from_v(1.0));
        assert!(d < period() - Time::from_ps(30.0));
        assert!(d > period() * 0.5, "path should be reasonably critical");
        assert_eq!(
            s.evaluate(Voltage::from_v(1.0), true, period()),
            RazorOutcome::NoError
        );
    }

    #[test]
    fn droop_is_detected_then_missed() {
        let s = RazorStage::typical_pipeline();
        let vmin = s.min_supply(period());
        assert!(vmin.volts() > 0.5 && vmin.volts() < 1.0, "vmin {vmin}");
        // Just below the edge: detected by the shadow latch.
        let detected = s.evaluate(vmin - Voltage::from_mv(20.0), true, period());
        assert_eq!(detected, RazorOutcome::Detected);
        // Deep droop: even the shadow window is blown.
        let missed = s.evaluate(Voltage::from_v(0.45), true, period());
        assert_eq!(missed, RazorOutcome::Missed);
    }

    #[test]
    fn idle_path_sees_nothing() {
        let s = RazorStage::typical_pipeline();
        assert_eq!(
            s.evaluate(Voltage::from_v(0.5), false, period()),
            RazorOutcome::NotExercised
        );
    }

    #[test]
    fn deeper_path_raises_min_supply() {
        let shallow = RazorStage::typical_pipeline().with_depth(20.0);
        let deep = RazorStage::typical_pipeline().with_depth(32.0);
        assert!(deep.min_supply(period()) > shallow.min_supply(period()));
    }

    #[test]
    fn min_supply_saturates_at_search_bounds() {
        let s = RazorStage::typical_pipeline().with_depth(1.0);
        // A single gate meets 2 ns at any supply in range.
        assert_eq!(s.min_supply(period()), Voltage::from_v(0.4));
        let heavy = RazorStage::typical_pipeline().with_depth(500.0);
        assert_eq!(heavy.min_supply(period()), Voltage::from_v(1.5));
    }
}
