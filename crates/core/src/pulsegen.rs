//! The pulse generator (PG) block — paper Fig. 7 and the delay-code table.
//!
//! The PG receives the raw `P`/`CP` pulses from the control block and
//! re-emits them with a *trimmed* relative delay selected by a 3-bit
//! delay code. The paper's table:
//!
//! | code | 000 | 001 | 010 | 011 | 100 | 101 | 110 | 111 |
//! |------|-----|-----|-----|-----|-----|-----|-----|-----|
//! | CP delay (ps) | 26 | 40 | 50 | 65 | 77 | 92 | 100 | 107 |
//!
//! Two structural details from Fig. 7 are modelled faithfully:
//!
//! * the selecting **MUX adds its own delay, so an identical MUX sits on
//!   the `P` path** — the mux delays cancel and only the table value
//!   skews `CP` against `P`;
//! * the CP branch carries a fixed buffer-chain insertion delay (the
//!   84 ps clock-path offset of `DESIGN.md` §2) which, net of the FF
//!   setup time, gives the 54 ps base sense window.
//!
//! The delay elements are standard-cell inverters, so the emitted delays
//! scale with process corner and temperature like everything else —
//! exactly the property the paper exploits to trim corners.
//!
//! [`AutoRanger`] is the delay-code policy the paper mentions but leaves
//! unpublished ("the control … can define and set them internally
//! according to a policy"): when measures saturate at either end of the
//! dynamic range for several cycles, it steps the delay code so the
//! range slides back over the rail.
//!
//! # Examples
//!
//! ```
//! use psnt_core::pulsegen::{DelayCode, PulseGenerator};
//!
//! let pg = PulseGenerator::paper_table();
//! let code = DelayCode::new(3)?;
//! assert_eq!(pg.cp_delay(code).picoseconds(), 65.0);
//! # Ok::<(), psnt_core::error::SensorError>(())
//! ```

use std::fmt;

use psnt_cells::process::Pvt;
use psnt_cells::units::Time;
use serde::{Deserialize, Serialize};

use crate::error::SensorError;
use crate::system::Measurement;

/// A 3-bit delay-code selecting one PG delay-line tap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct DelayCode(u8);

impl DelayCode {
    /// Creates a code, checking it against the paper's 8-entry table.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidDelayCode`] for values above 7.
    pub fn new(code: u8) -> Result<DelayCode, SensorError> {
        if code > 7 {
            return Err(SensorError::InvalidDelayCode { code, table_len: 8 });
        }
        Ok(DelayCode(code))
    }

    /// The raw 3-bit value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// All eight codes in ascending order.
    pub fn all() -> [DelayCode; 8] {
        [0, 1, 2, 3, 4, 5, 6, 7].map(DelayCode)
    }
}

impl fmt::Display for DelayCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:03b}", self.0)
    }
}

impl TryFrom<u8> for DelayCode {
    type Error = SensorError;

    fn try_from(v: u8) -> Result<DelayCode, SensorError> {
        DelayCode::new(v)
    }
}

/// Timing of one emitted pulse pair, relative to the control block's raw
/// `P` edge.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PulseTiming {
    /// When the (delayed) `P` edge reaches the sense inverter inputs.
    pub p_edge: Time,
    /// When the (delayed) `CP` edge reaches the FF clock pins.
    pub cp_edge: Time,
}

impl PulseTiming {
    /// The P→CP skew at the sensor pins — the quantity that sets the
    /// sense window.
    pub fn skew(&self) -> Time {
        self.cp_edge - self.p_edge
    }
}

/// The pulse-generator model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PulseGenerator {
    /// Tap delays at the typical corner, indexed by delay code.
    taps: Vec<Time>,
    /// Fixed CP-branch insertion (buffer chain) delay, typical corner.
    insertion: Time,
    /// Delay of each (matched) output MUX, typical corner.
    mux_delay: Time,
}

impl PulseGenerator {
    /// The PG with the paper's published tap table, an 84 ps CP-branch
    /// insertion delay and 34 ps matched MUXes.
    pub fn paper_table() -> PulseGenerator {
        PulseGenerator {
            taps: [26.0, 40.0, 50.0, 65.0, 77.0, 92.0, 100.0, 107.0]
                .into_iter()
                .map(Time::from_ps)
                .collect(),
            insertion: Time::from_ps(84.0),
            mux_delay: Time::from_ps(34.0),
        }
    }

    /// The selectable CP tap delay at the typical corner (the table value).
    ///
    /// # Panics
    ///
    /// Panics if `code` exceeds the table (cannot happen for
    /// [`DelayCode`] against the 8-entry paper table).
    pub fn cp_delay(&self, code: DelayCode) -> Time {
        self.taps[code.value() as usize]
    }

    /// The CP tap delay scaled by the operating point (the delay line is
    /// built from inverters, so slow silicon stretches it).
    pub fn cp_delay_at(&self, code: DelayCode, pvt: &Pvt) -> Time {
        self.cp_delay(code) / pvt.drive_factor()
    }

    /// The fixed CP-branch insertion delay at the operating point.
    pub fn insertion_at(&self, pvt: &Pvt) -> Time {
        self.insertion / pvt.drive_factor()
    }

    /// Emits one pulse pair for the given code at the operating point,
    /// relative to the raw control-block edge at t = 0. Both paths carry
    /// one MUX; the mux delays cancel in the skew.
    pub fn emit(&self, code: DelayCode, pvt: &Pvt) -> PulseTiming {
        let mux = self.mux_delay / pvt.drive_factor();
        PulseTiming {
            p_edge: mux,
            cp_edge: mux + self.insertion_at(pvt) + self.cp_delay_at(code, pvt),
        }
    }

    /// The P→CP skew for a code at the operating point:
    /// `insertion + tap(code)`, independent of the matched MUX delay.
    pub fn skew(&self, code: DelayCode, pvt: &Pvt) -> Time {
        self.emit(code, pvt).skew()
    }

    /// Formats the delay-code table like the paper prints it.
    pub fn table_report(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("Delay Code ");
        for i in 0..self.taps.len() {
            let _ = write!(s, "{:>6}", format!("{:03b}", i));
        }
        s.push_str("\nCP delay   ");
        for t in &self.taps {
            let _ = write!(s, "{:>6}", format!("{:.0}", t.picoseconds()));
        }
        s.push_str(" [ps]");
        s
    }
}

impl Default for PulseGenerator {
    fn default() -> PulseGenerator {
        PulseGenerator::paper_table()
    }
}

/// The paper's on-chip delay-code policy: auto re-ranging.
///
/// Saturated codes carry one bit of information — "the rail is beyond
/// this edge of the range". After `debounce` consecutive saturations on
/// the same side, the ranger steps the HS delay code: a *smaller* tap
/// moves the dynamic range **up** (for overflow), a *larger* tap moves
/// it **down** (for underflow) — the direction relation of Fig. 5.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AutoRanger {
    code: DelayCode,
    debounce: usize,
    over_streak: usize,
    under_streak: usize,
    retunes: u64,
}

impl AutoRanger {
    /// Creates a ranger starting from `initial` with the given debounce.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] for a zero debounce.
    pub fn new(initial: DelayCode, debounce: usize) -> Result<AutoRanger, SensorError> {
        if debounce == 0 {
            return Err(SensorError::InvalidConfig {
                name: "debounce",
                reason: "debounce must be at least one measure".into(),
            });
        }
        Ok(AutoRanger {
            code: initial,
            debounce,
            over_streak: 0,
            under_streak: 0,
            retunes: 0,
        })
    }

    /// The currently selected delay code.
    pub fn code(&self) -> DelayCode {
        self.code
    }

    /// Number of re-ranging steps taken.
    pub fn retunes(&self) -> u64 {
        self.retunes
    }

    /// Feeds one measurement; returns `Some(new_code)` when the policy
    /// decides to re-range (the caller applies it with
    /// [`crate::system::SensorSystem::set_delay_codes`]).
    pub fn observe(&mut self, m: &Measurement) -> Option<DelayCode> {
        if m.hs_word.overflow {
            self.over_streak += 1;
            self.under_streak = 0;
        } else if m.hs_word.underflow {
            self.under_streak += 1;
            self.over_streak = 0;
        } else {
            self.over_streak = 0;
            self.under_streak = 0;
            return None;
        }
        if self.over_streak >= self.debounce {
            // Rail above the range: shorter tap shifts the range up.
            self.over_streak = 0;
            return self.step(-1);
        }
        if self.under_streak >= self.debounce {
            // Rail below the range: longer tap shifts the range down.
            self.under_streak = 0;
            return self.step(1);
        }
        None
    }

    fn step(&mut self, dir: i8) -> Option<DelayCode> {
        let next = self.code.value() as i8 + dir;
        let next = DelayCode::new(u8::try_from(next).ok()?).ok()?;
        if next == self.code {
            return None;
        }
        self.code = next;
        self.retunes += 1;
        Some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnt_cells::process::ProcessCorner;
    use psnt_cells::units::{Temperature, Voltage};
    use psnt_pdn::waveform::Waveform;

    #[test]
    fn delay_code_validation() {
        assert!(DelayCode::new(7).is_ok());
        assert!(matches!(
            DelayCode::new(8),
            Err(SensorError::InvalidDelayCode { code: 8, .. })
        ));
        assert_eq!(DelayCode::try_from(5).unwrap().value(), 5);
        assert_eq!(DelayCode::all().len(), 8);
    }

    #[test]
    fn delay_code_displays_as_binary() {
        assert_eq!(DelayCode::new(3).unwrap().to_string(), "011");
        assert_eq!(DelayCode::new(0).unwrap().to_string(), "000");
    }

    #[test]
    fn paper_table_values_exact() {
        // The published table: 26, 40, 50, 65, 77, 92, 100, 107 ps.
        let pg = PulseGenerator::paper_table();
        let expected = [26.0, 40.0, 50.0, 65.0, 77.0, 92.0, 100.0, 107.0];
        for (i, &e) in expected.iter().enumerate() {
            let code = DelayCode::new(i as u8).unwrap();
            assert_eq!(pg.cp_delay(code).picoseconds(), e, "code {code}");
        }
    }

    #[test]
    fn taps_strictly_increasing() {
        let pg = PulseGenerator::paper_table();
        for w in DelayCode::all().windows(2) {
            assert!(pg.cp_delay(w[1]) > pg.cp_delay(w[0]));
        }
    }

    #[test]
    fn mux_skew_cancels() {
        // The whole point of the matched MUX on the P path (Fig. 7): the
        // skew must not depend on the mux delay.
        let pvt = Pvt::typical();
        let code = DelayCode::new(3).unwrap();
        let a = PulseGenerator {
            taps: vec![Time::from_ps(65.0)],
            insertion: Time::from_ps(84.0),
            mux_delay: Time::from_ps(10.0),
        };
        let b = PulseGenerator {
            mux_delay: Time::from_ps(500.0),
            ..a.clone()
        };
        let c0 = DelayCode::new(0).unwrap();
        assert_eq!(a.skew(c0, &pvt), b.skew(c0, &pvt));
        // And for the paper table, skew = insertion + tap.
        let pg = PulseGenerator::paper_table();
        assert_eq!(pg.skew(code, &pvt), Time::from_ps(84.0 + 65.0));
    }

    #[test]
    fn slow_corner_stretches_delays() {
        let pg = PulseGenerator::paper_table();
        let code = DelayCode::new(3).unwrap();
        let tt = Pvt::typical();
        let ss = Pvt::new(
            ProcessCorner::SS,
            Voltage::from_v(1.0),
            Temperature::from_celsius(25.0),
        );
        assert!(pg.cp_delay_at(code, &ss) > pg.cp_delay_at(code, &tt));
        assert!(pg.skew(code, &ss) > pg.skew(code, &tt));
    }

    #[test]
    fn emit_orders_edges() {
        let pg = PulseGenerator::paper_table();
        let t = pg.emit(DelayCode::new(0).unwrap(), &Pvt::typical());
        assert!(t.cp_edge > t.p_edge);
        assert_eq!(t.skew(), Time::from_ps(84.0 + 26.0));
    }

    #[test]
    fn table_report_matches_paper_layout() {
        let report = PulseGenerator::paper_table().table_report();
        assert!(report.contains("Delay Code"));
        assert!(report.contains("011"));
        assert!(report.contains("65"));
        assert!(report.contains("107"));
        assert!(report.contains("[ps]"));
    }

    #[test]
    fn auto_ranger_validates_and_follows_the_rail() {
        use crate::system::{SensorConfig, SensorSystem};
        assert!(AutoRanger::new(DelayCode::new(3).unwrap(), 0).is_err());

        let mut sensor = SensorSystem::new(SensorConfig::default()).unwrap();
        let mut ranger = AutoRanger::new(sensor.config().hs_code, 2).unwrap();
        let gnd = Waveform::constant(0.0);
        // The rail drifts up to 1.15 V: code 011 saturates; the ranger
        // must walk the code down (shorter taps) until it resolves.
        let vdd = Waveform::constant(1.15);
        let mut resolved = false;
        for k in 0..12 {
            let m = sensor
                .measure_at(&vdd, &gnd, Time::from_ns(10.0 * (k + 1) as f64))
                .unwrap();
            if !m.hs_word.overflow && !m.hs_word.underflow {
                resolved = true;
                break;
            }
            if let Some(code) = ranger.observe(&m) {
                sensor
                    .set_delay_codes(code, sensor.config().ls_code)
                    .unwrap();
            }
        }
        assert!(resolved, "ranger never brought 1.15 V into range");
        assert!(ranger.code().value() < 3, "code should have stepped down");
        assert!(ranger.retunes() >= 1);

        // Now the rail collapses to 0.87 V: the ranger walks back up.
        let vdd = Waveform::constant(0.87);
        let mut resolved = false;
        for k in 0..16 {
            let m = sensor
                .measure_at(&vdd, &gnd, Time::from_ns(10.0 * (k + 1) as f64))
                .unwrap();
            if !m.hs_word.overflow && !m.hs_word.underflow {
                resolved = true;
                break;
            }
            if let Some(code) = ranger.observe(&m) {
                sensor
                    .set_delay_codes(code, sensor.config().ls_code)
                    .unwrap();
            }
        }
        assert!(resolved, "ranger never brought 0.87 V into range");
    }

    #[test]
    fn auto_ranger_saturates_at_the_table_ends() {
        let mut ranger = AutoRanger::new(DelayCode::new(0).unwrap(), 1).unwrap();
        // A permanently overflowing measurement cannot step below code 0.
        let sensor =
            crate::system::SensorSystem::new(crate::system::SensorConfig::default()).unwrap();
        let m = sensor
            .measure_at(
                &Waveform::constant(1.6),
                &Waveform::constant(0.0),
                Time::from_ns(10.0),
            )
            .unwrap();
        assert!(m.hs_word.overflow);
        assert_eq!(ranger.observe(&m), None);
        assert_eq!(ranger.code().value(), 0);

        let mut ranger = AutoRanger::new(DelayCode::new(7).unwrap(), 1).unwrap();
        let m = sensor
            .measure_at(
                &Waveform::constant(0.5),
                &Waveform::constant(0.0),
                Time::from_ns(10.0),
            )
            .unwrap();
        assert!(m.hs_word.underflow);
        assert_eq!(ranger.observe(&m), None);
        assert_eq!(ranger.code().value(), 7);
    }

    #[test]
    fn auto_ranger_debounces_single_saturations() {
        let sensor =
            crate::system::SensorSystem::new(crate::system::SensorConfig::default()).unwrap();
        let gnd = Waveform::constant(0.0);
        let mut ranger = AutoRanger::new(DelayCode::new(3).unwrap(), 3).unwrap();
        let over = sensor
            .measure_at(&Waveform::constant(1.2), &gnd, Time::from_ns(10.0))
            .unwrap();
        let fine = sensor
            .measure_at(&Waveform::constant(0.95), &gnd, Time::from_ns(10.0))
            .unwrap();
        // Two saturations interrupted by a clean measure: no retune.
        assert_eq!(ranger.observe(&over), None);
        assert_eq!(ranger.observe(&over), None);
        assert_eq!(ranger.observe(&fine), None);
        assert_eq!(ranger.observe(&over), None);
        assert_eq!(ranger.retunes(), 0);
        // Three in a row: retune.
        assert_eq!(ranger.observe(&over), None);
        assert!(ranger.observe(&over).is_some());
    }
}
