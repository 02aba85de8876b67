//! Ring-oscillator supply sensor (paper ref. \[7\], Ogasahara et al.).
//!
//! A ring of standard-cell inverters is powered from the *noisy* rail
//! pair; a counter in the clean domain counts its oscillations over a
//! measurement window. The count tracks the window-average of the
//! effective swing `VDD-n − GND-n`, from which a voltage estimate can be
//! inverted.
//!
//! Two structural limitations — the reasons the paper proposes the
//! thermometer instead — fall out of the physics:
//!
//! 1. the ring frequency depends only on the *difference* of the rails,
//!    so a 50 mV supply droop and a 50 mV ground bounce are
//!    indistinguishable ([`RingOscillatorSensor::count`] returns the same
//!    count for both);
//! 2. the count integrates over the whole window, so a short droop is
//!    smeared into a small average shift rather than pinpointed.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::process::Pvt;
//! use psnt_cells::units::{Time, Voltage};
//! use psnt_core::baseline::RingOscillatorSensor;
//! use psnt_pdn::waveform::Waveform;
//!
//! let ro = RingOscillatorSensor::paper_31_stage();
//! let count = ro.count(
//!     &Waveform::constant(1.0), &Waveform::constant(0.0),
//!     Time::ZERO, Time::from_us(1.0), &Pvt::typical(),
//! );
//! assert!(count > 0);
//! ```

use psnt_cells::delay::{AlphaPowerDelay, DelayModel};
use psnt_cells::process::Pvt;
use psnt_cells::units::{Capacitance, Time, Voltage};
use psnt_pdn::waveform::Waveform;
use serde::{Deserialize, Serialize};

use crate::error::SensorError;

/// A ring-oscillator-based average-supply sensor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RingOscillatorSensor {
    stages: usize,
    inv: AlphaPowerDelay,
    stage_load: Capacitance,
}

impl RingOscillatorSensor {
    /// Creates a ring of `stages` inverters (must be odd and ≥ 3).
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] for an even or too-short
    /// ring.
    pub fn new(
        stages: usize,
        inv: AlphaPowerDelay,
        stage_load: Capacitance,
    ) -> Result<RingOscillatorSensor, SensorError> {
        if stages < 3 || stages.is_multiple_of(2) {
            return Err(SensorError::InvalidConfig {
                name: "stages",
                reason: format!("ring needs an odd stage count >= 3, got {stages}"),
            });
        }
        Ok(RingOscillatorSensor {
            stages,
            inv,
            stage_load,
        })
    }

    /// A 31-stage ring of the same 90 nm inverters the thermometer uses,
    /// each loaded by its successor's input (≈ 12 fF per stage).
    pub fn paper_31_stage() -> RingOscillatorSensor {
        RingOscillatorSensor {
            stages: 31,
            inv: AlphaPowerDelay::paper_sense_inverter(),
            stage_load: Capacitance::from_ff(12.0),
        }
    }

    /// Number of ring stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Oscillation period at a fixed effective supply
    /// (`2 · stages · t_inv`).
    pub fn period(&self, effective_supply: Voltage, pvt: &Pvt) -> Time {
        self.inv
            .propagation_delay(effective_supply, self.stage_load, pvt)
            * (2.0 * self.stages as f64)
    }

    /// Instantaneous frequency in Hz at a fixed effective supply.
    pub fn frequency(&self, effective_supply: Voltage, pvt: &Pvt) -> f64 {
        1.0 / self.period(effective_supply, pvt).seconds()
    }

    /// Counts full oscillations over `[from, from + window]` with the
    /// ring powered between the two rails: the phase integral of
    /// `f(vdd(t) − gnd(t))`, evaluated at 100 sub-steps.
    ///
    /// # Panics
    ///
    /// Panics if `window` is non-positive.
    pub fn count(
        &self,
        vdd: &Waveform,
        gnd: &Waveform,
        from: Time,
        window: Time,
        pvt: &Pvt,
    ) -> u64 {
        assert!(window > Time::ZERO, "measurement window must be positive");
        const STEPS: usize = 100;
        let dt = window / STEPS as f64;
        let mut phase = 0.0f64;
        for k in 0..STEPS {
            let t = from + dt * (k as f64 + 0.5);
            let swing = Voltage::from_v(vdd.sample(t) - gnd.sample(t));
            phase += dt.seconds() * self.frequency(swing, pvt);
        }
        phase as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnt_pdn::sources::SupplyNoiseBuilder;

    fn pvt() -> Pvt {
        Pvt::typical()
    }

    fn ro() -> RingOscillatorSensor {
        RingOscillatorSensor::paper_31_stage()
    }

    #[test]
    fn constructor_validates() {
        let inv = AlphaPowerDelay::paper_sense_inverter();
        let c = Capacitance::from_ff(12.0);
        assert!(RingOscillatorSensor::new(31, inv, c).is_ok());
        assert!(RingOscillatorSensor::new(30, inv, c).is_err());
        assert!(RingOscillatorSensor::new(1, inv, c).is_err());
    }

    #[test]
    fn frequency_rises_with_supply() {
        let r = ro();
        let f_lo = r.frequency(Voltage::from_v(0.9), &pvt());
        let f_hi = r.frequency(Voltage::from_v(1.1), &pvt());
        assert!(f_hi > f_lo);
        // Sanity: tens-to-hundreds of MHz for a 31-stage 90 nm ring.
        let f_nom = r.frequency(Voltage::from_v(1.0), &pvt());
        assert!((1.0e7..2.0e9).contains(&f_nom), "f = {f_nom:.3e} Hz");
    }

    #[test]
    fn count_tracks_average_supply() {
        let r = ro();
        let window = Time::from_us(1.0);
        let quiet = r.count(
            &Waveform::constant(1.0),
            &Waveform::constant(0.0),
            Time::ZERO,
            window,
            &pvt(),
        );
        let droopy = r.count(
            &Waveform::constant(0.9),
            &Waveform::constant(0.0),
            Time::ZERO,
            window,
            &pvt(),
        );
        assert!(droopy < quiet);
    }

    #[test]
    fn cannot_distinguish_vdd_droop_from_gnd_bounce() {
        // The paper's core criticism of ref. [7]: identical counts for a
        // 60 mV supply droop and a 60 mV ground bounce.
        let r = ro();
        let window = Time::from_us(1.0);
        let droop = r.count(
            &Waveform::constant(0.94),
            &Waveform::constant(0.0),
            Time::ZERO,
            window,
            &pvt(),
        );
        let bounce = r.count(
            &Waveform::constant(1.0),
            &Waveform::constant(0.06),
            Time::ZERO,
            window,
            &pvt(),
        );
        assert_eq!(droop, bounce);
    }

    #[test]
    fn short_droop_is_smeared_into_the_average() {
        // A 100 mV droop lasting 5 % of the window shifts the count by
        // only a few percent — the RO cannot localise it.
        let r = ro();
        let window = Time::from_us(1.0);
        let vdd = SupplyNoiseBuilder::new(Voltage::from_v(1.0))
            .span(Time::ZERO, window)
            .resolution(Time::from_ns(1.0))
            .ramp(
                Voltage::from_mv(-100.0),
                Time::from_ns(475.0),
                Time::from_ns(480.0),
            )
            .ramp(
                Voltage::from_mv(100.0),
                Time::from_ns(520.0),
                Time::from_ns(525.0),
            )
            .build()
            .unwrap();
        let gnd = Waveform::constant(0.0);
        let with_droop = r.count(&vdd, &gnd, Time::ZERO, window, &pvt());
        let quiet = r.count(&Waveform::constant(1.0), &gnd, Time::ZERO, window, &pvt());
        let rel = (quiet as f64 - with_droop as f64) / quiet as f64;
        assert!(rel > 0.0, "droop must reduce the count");
        assert!(rel < 0.03, "count shift {rel:.4} should be marginal");
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn empty_window_panics() {
        ro().count(
            &Waveform::constant(1.0),
            &Waveform::constant(0.0),
            Time::ZERO,
            Time::ZERO,
            &pvt(),
        );
    }
}
