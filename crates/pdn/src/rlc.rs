//! Lumped RLC power-delivery model.
//!
//! The dominant mid-frequency PSN mechanism (the paper's refs. \[1\]\[2\]) is
//! the series resonance of the package inductance against the on-die
//! decoupling capacitance. [`LumpedPdn`] models the classic second-order
//! network
//!
//! ```text
//!  V_src ──R──L──┬──── v_die(t)
//!                C         │
//!                └──── i_load(t)
//! ```
//!
//! integrated with fourth-order Runge–Kutta. Feeding it a workload
//! current profile produces the realistic `VDD-n(t)` waveforms the sensor
//! experiments sample.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::units::{Current, Time};
//! use psnt_pdn::rlc::LumpedPdn;
//! use psnt_pdn::waveform::Waveform;
//!
//! let pdn = LumpedPdn::typical_90nm_package();
//! // A 2 A load step at t = 100 ns.
//! let load = Waveform::from_points(vec![
//!     (Time::ZERO, 0.5),
//!     (Time::from_ns(100.0), 0.5),
//!     (Time::from_ns(100.1), 2.5),
//! ])?;
//! let mut ctx = psnt_ctx::RunCtx::serial();
//! let vdd = pdn.transient(&mut ctx, &load, Time::from_ps(100.0), Time::from_ns(400.0))?;
//! // The step causes a droop well below the static IR level.
//! assert!(vdd.min_value() < pdn.steady_state(Current::from_a(2.5)).volts());
//! # Ok::<(), psnt_pdn::error::PdnError>(())
//! ```

use std::f64::consts::TAU;

use psnt_cells::units::{Capacitance, Current, Frequency, Inductance, Resistance, Time, Voltage};
use psnt_ctx::RunCtx;
use psnt_obs::Event as ObsEvent;
use serde::{Deserialize, Serialize};

use crate::error::PdnError;
use crate::waveform::Waveform;

/// A series-R-L, shunt-C lumped power-delivery network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LumpedPdn {
    v_source: Voltage,
    r: Resistance,
    l: Inductance,
    c: Capacitance,
}

impl LumpedPdn {
    /// Creates a network.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] when any element value is
    /// non-positive.
    pub fn new(
        v_source: Voltage,
        r: Resistance,
        l: Inductance,
        c: Capacitance,
    ) -> Result<LumpedPdn, PdnError> {
        if v_source <= Voltage::ZERO {
            return Err(PdnError::InvalidParameter {
                name: "v_source",
                reason: "source voltage must be positive".into(),
            });
        }
        if r.ohms() <= 0.0 {
            return Err(PdnError::InvalidParameter {
                name: "r",
                reason: "series resistance must be positive".into(),
            });
        }
        if l.henries() <= 0.0 {
            return Err(PdnError::InvalidParameter {
                name: "l",
                reason: "series inductance must be positive".into(),
            });
        }
        if c.farads() <= 0.0 {
            return Err(PdnError::InvalidParameter {
                name: "c",
                reason: "decoupling capacitance must be positive".into(),
            });
        }
        Ok(LumpedPdn { v_source, r, l, c })
    }

    /// A representative 90 nm-era package/die network: 1.0 V source,
    /// 5 mΩ series resistance, 100 pH package inductance, 100 nF die
    /// decap. Resonates near 50 MHz with Q ≈ 6.
    pub fn typical_90nm_package() -> LumpedPdn {
        LumpedPdn {
            v_source: Voltage::from_v(1.0),
            r: Resistance::from_milliohms(5.0),
            l: Inductance::from_ph(100.0),
            c: Capacitance::from_nf(100.0),
        }
    }

    /// The regulator-side source voltage.
    pub fn v_source(&self) -> Voltage {
        self.v_source
    }

    /// Series resistance.
    pub fn r(&self) -> Resistance {
        self.r
    }

    /// Series inductance.
    pub fn l(&self) -> Inductance {
        self.l
    }

    /// Shunt (decoupling) capacitance.
    pub fn c(&self) -> Capacitance {
        self.c
    }

    /// The tank resonance `1 / (2π√(LC))`.
    pub fn resonance_frequency(&self) -> Frequency {
        Frequency::from_hz(1.0 / (TAU * (self.l.henries() * self.c.farads()).sqrt()))
    }

    /// Characteristic impedance `√(L/C)` — the peak droop per ampere of
    /// instantaneous load step in the underdamped regime.
    pub fn characteristic_impedance(&self) -> Resistance {
        Resistance::from_ohms((self.l.henries() / self.c.farads()).sqrt())
    }

    /// Quality factor `Z₀ / R`; values above ~0.5 ring.
    pub fn q_factor(&self) -> f64 {
        self.characteristic_impedance().ohms() / self.r.ohms()
    }

    /// Steady-state die voltage under a constant load: `V_src − R·I`.
    pub fn steady_state(&self, load: Current) -> Voltage {
        self.v_source - Voltage::from_v(self.r.ohms() * load.amps())
    }

    /// Integrates the die voltage under the load-current waveform
    /// (amperes) from the waveform start until `until`, producing a
    /// breakpoint every `dt`. Initial conditions are the steady state for
    /// the initial load value.
    ///
    /// When the context carries an observer: counts RK4 steps into
    /// `pdn.solver_steps`, accounts the energy delivered to the load and
    /// dissipated in the series resistance (`pdn.load_energy_j`,
    /// `pdn.dissipated_energy_j` gauges), and — when the observer has
    /// per-step events enabled — emits one `pdn`/`step` event per RK4
    /// step. The returned waveform is identical with and without an
    /// observer.
    ///
    /// # Errors
    ///
    /// Returns [`PdnError::InvalidParameter`] when `dt` is non-positive,
    /// too coarse for the resonance period (needs ≥ 20 points per period),
    /// or `until` does not exceed the load start.
    pub fn transient(
        &self,
        ctx: &mut RunCtx<'_>,
        load: &Waveform,
        dt: Time,
        until: Time,
    ) -> Result<Waveform, PdnError> {
        if dt <= Time::ZERO {
            return Err(PdnError::InvalidParameter {
                name: "dt",
                reason: "must be positive".into(),
            });
        }
        let period = Time::period_of(self.resonance_frequency());
        if dt > period / 20.0 {
            return Err(PdnError::InvalidParameter {
                name: "dt",
                reason: format!(
                    "step {dt} too coarse for resonance period {period} (need ≥ 20 points/period)"
                ),
            });
        }
        let start = load.start();
        if until <= start {
            return Err(PdnError::InvalidParameter {
                name: "until",
                reason: format!("must exceed the load start {start}"),
            });
        }

        let l = self.l.henries();
        let c = self.c.farads();
        let r = self.r.ohms();
        let vs = self.v_source.volts();
        let h = dt.seconds();

        // State: (inductor current, die voltage).
        let i0 = load.sample(start);
        let mut il = i0;
        let mut v = vs - r * i0;

        let deriv = |il: f64, v: f64, i_load: f64| -> (f64, f64) {
            ((vs - r * il - v) / l, (il - i_load) / c)
        };

        let steps = ((until - start) / dt).ceil() as usize;
        let mut points = Vec::with_capacity(steps + 1);
        points.push((start, v));
        // Energy accounting (trapezoidal in the per-step endpoint values).
        let mut load_energy_j = 0.0;
        let mut dissipated_j = 0.0;
        let per_step_events = ctx.observer().is_some_and(|obs| obs.config().solver_steps);
        for k in 0..steps {
            let t = start + dt * k as f64;
            let t_mid = t + dt / 2.0;
            let t_end = t + dt;
            let (i_a, i_m, i_b) = (load.sample(t), load.sample(t_mid), load.sample(t_end));
            let (v_prev, il_prev) = (v, il);
            // Classic RK4 with the load sampled at sub-step times.
            let (k1i, k1v) = deriv(il, v, i_a);
            let (k2i, k2v) = deriv(il + 0.5 * h * k1i, v + 0.5 * h * k1v, i_m);
            let (k3i, k3v) = deriv(il + 0.5 * h * k2i, v + 0.5 * h * k2v, i_m);
            let (k4i, k4v) = deriv(il + h * k3i, v + h * k3v, i_b);
            il += h / 6.0 * (k1i + 2.0 * k2i + 2.0 * k3i + k4i);
            v += h / 6.0 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v);
            points.push((t_end, v));
            if let Some(obs) = ctx.observer() {
                load_energy_j += 0.5 * (v_prev * i_a + v * i_b) * h;
                dissipated_j += 0.5 * r * (il_prev * il_prev + il * il) * h;
                if per_step_events {
                    obs.event(
                        ObsEvent::new("pdn", "step")
                            .at(t_end)
                            .field("v_die", &v)
                            .field("i_l", &il)
                            .field("i_load", &i_b),
                    );
                }
            }
        }
        if let Some(obs) = ctx.observer() {
            obs.metrics.counter_add("pdn.solver_steps", steps as u64);
            obs.metrics.gauge_set("pdn.load_energy_j", load_energy_j);
            obs.metrics
                .gauge_set("pdn.dissipated_energy_j", dissipated_j);
        }
        Waveform::from_points(points)
    }
}

impl Default for LumpedPdn {
    fn default() -> LumpedPdn {
        LumpedPdn::typical_90nm_package()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(t: f64) -> Time {
        Time::from_ns(t)
    }

    fn step_load(i0: f64, i1: f64, at: Time, end: Time) -> Waveform {
        Waveform::from_points(vec![
            (Time::ZERO, i0),
            (at, i0),
            (at + Time::from_ps(100.0), i1),
            (end, i1),
        ])
        .unwrap()
    }

    #[test]
    fn constructor_validates() {
        let v = Voltage::from_v(1.0);
        let r = Resistance::from_milliohms(5.0);
        let l = Inductance::from_ph(100.0);
        let c = Capacitance::from_nf(100.0);
        assert!(LumpedPdn::new(v, r, l, c).is_ok());
        assert!(LumpedPdn::new(Voltage::ZERO, r, l, c).is_err());
        assert!(LumpedPdn::new(v, Resistance::from_ohms(0.0), l, c).is_err());
        assert!(LumpedPdn::new(v, r, Inductance::from_h(0.0), c).is_err());
        assert!(LumpedPdn::new(v, r, l, Capacitance::ZERO).is_err());
    }

    #[test]
    fn analytic_figures_of_merit() {
        let pdn = LumpedPdn::typical_90nm_package();
        // f_res = 1/(2π√(1e-10 · 1e-7)) ≈ 50.33 MHz.
        let f = pdn.resonance_frequency().hertz() / 1e6;
        assert!((f - 50.33).abs() < 0.5, "f_res {f} MHz");
        // Z0 = √(L/C) = √(1e-3) ≈ 31.6 mΩ.
        let z0 = pdn.characteristic_impedance().ohms() * 1e3;
        assert!((z0 - 31.6).abs() < 0.2, "Z0 {z0} mΩ");
        assert!(pdn.q_factor() > 5.0);
    }

    #[test]
    fn steady_state_ir_drop() {
        let pdn = LumpedPdn::typical_90nm_package();
        let v = pdn.steady_state(Current::from_a(2.0));
        assert!((v.volts() - 0.99).abs() < 1e-12);
    }

    #[test]
    fn constant_load_stays_at_steady_state() {
        let pdn = LumpedPdn::typical_90nm_package();
        let load = Waveform::constant(1.0);
        let v = pdn
            .transient(
                &mut RunCtx::serial(),
                &load,
                Time::from_ps(200.0),
                ns(200.0),
            )
            .unwrap();
        let expect = pdn.steady_state(Current::from_a(1.0)).volts();
        assert!((v.min_value() - expect).abs() < 1e-6);
        assert!((v.max_value() - expect).abs() < 1e-6);
    }

    #[test]
    fn load_step_droops_by_roughly_z0_times_di() {
        let pdn = LumpedPdn::typical_90nm_package();
        let di = 2.0;
        let load = step_load(0.5, 0.5 + di, ns(100.0), ns(600.0));
        let v = pdn
            .transient(
                &mut RunCtx::serial(),
                &load,
                Time::from_ps(200.0),
                ns(600.0),
            )
            .unwrap();
        let pre = pdn.steady_state(Current::from_a(0.5)).volts();
        let droop = pre - v.min_over(ns(100.0), ns(200.0));
        let z0di = pdn.characteristic_impedance().ohms() * di;
        // Underdamped with finite Q: peak droop between 0.6·Z0·ΔI and 1.1·Z0·ΔI.
        assert!(droop > 0.6 * z0di, "droop {droop} vs Z0·ΔI {z0di}");
        assert!(droop < 1.1 * z0di, "droop {droop} vs Z0·ΔI {z0di}");
    }

    #[test]
    fn ring_frequency_matches_resonance() {
        let pdn = LumpedPdn::typical_90nm_package();
        let load = step_load(0.0, 2.0, ns(50.0), ns(450.0));
        let v = pdn
            .transient(
                &mut RunCtx::serial(),
                &load,
                Time::from_ps(100.0),
                ns(450.0),
            )
            .unwrap();
        // Find successive minima spacing after the step.
        let pts = v.points();
        let mut minima = Vec::new();
        for w in pts.windows(3) {
            let (t1, y1) = w[1];
            if t1 > ns(55.0) && y1 < w[0].1 && y1 < w[2].1 && y1 < 0.995 {
                minima.push(t1);
            }
        }
        assert!(
            minima.len() >= 2,
            "expected ringing, found {} minima",
            minima.len()
        );
        let period = (minima[1] - minima[0]).seconds();
        let f_measured = 1.0 / period;
        let f_expected = pdn.resonance_frequency().hertz();
        let rel = (f_measured - f_expected).abs() / f_expected;
        assert!(
            rel < 0.05,
            "ring {f_measured:.3e} vs resonance {f_expected:.3e}"
        );
    }

    #[test]
    fn settles_to_new_steady_state() {
        let pdn = LumpedPdn::typical_90nm_package();
        let load = step_load(0.5, 2.0, ns(50.0), ns(1000.0));
        let v = pdn
            .transient(
                &mut RunCtx::serial(),
                &load,
                Time::from_ps(200.0),
                ns(1000.0),
            )
            .unwrap();
        let expect = pdn.steady_state(Current::from_a(2.0)).volts();
        assert!((v.sample(ns(990.0)) - expect).abs() < 1e-4);
    }

    #[test]
    fn load_release_overshoots() {
        let pdn = LumpedPdn::typical_90nm_package();
        let load = step_load(2.0, 0.2, ns(50.0), ns(400.0));
        let v = pdn
            .transient(
                &mut RunCtx::serial(),
                &load,
                Time::from_ps(200.0),
                ns(400.0),
            )
            .unwrap();
        // The rail must swing above the new steady state (overshoot).
        let new_ss = pdn.steady_state(Current::from_a(0.2)).volts();
        assert!(v.max_over(ns(50.0), ns(150.0)) > new_ss + 0.02);
    }

    #[test]
    fn coarse_dt_rejected() {
        let pdn = LumpedPdn::typical_90nm_package();
        let load = Waveform::constant(1.0);
        // Period ≈ 19.9 ns; dt = 2 ns gives < 20 points per period.
        assert!(pdn
            .transient(&mut RunCtx::serial(), &load, ns(2.0), ns(100.0))
            .is_err());
        assert!(pdn
            .transient(&mut RunCtx::serial(), &load, Time::ZERO, ns(100.0))
            .is_err());
        assert!(pdn
            .transient(
                &mut RunCtx::serial(),
                &load,
                Time::from_ps(100.0),
                Time::ZERO
            )
            .is_err());
    }
}
