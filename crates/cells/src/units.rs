//! Strongly typed physical quantities used throughout the workspace.
//!
//! Every quantity is a thin `f64` newtype ([C-NEWTYPE]) with an explicit
//! canonical unit, so a [`Time`] can never be confused with a [`Voltage`]
//! at a call site. Canonical units are chosen so that the numbers occurring
//! in 90 nm standard-cell timing are O(1)–O(1000):
//!
//! * [`Time`] — **picoseconds**
//! * [`Voltage`] — **volts**
//! * [`Capacitance`] — **picofarads**
//! * [`Current`] — **amperes**
//! * [`Resistance`] — **ohms**
//! * [`Inductance`] — **henries**
//! * [`Frequency`] — **hertz**
//! * [`Temperature`] — **degrees Celsius**
//!
//! # Examples
//!
//! ```
//! use psnt_cells::units::{Time, Voltage, Capacitance};
//!
//! let window = Time::from_ps(54.0) + Time::from_ps(65.0);
//! assert_eq!(window, Time::from_ps(119.0));
//!
//! let vdd = Voltage::from_mv(950.0);
//! assert!((vdd.volts() - 0.95).abs() < 1e-12);
//!
//! let c = Capacitance::from_ff(81.0);
//! assert!((c.picofarads() - 0.081).abs() < 1e-12);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Implements the shared arithmetic surface for an `f64` quantity newtype.
macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Returns the raw value in the canonical unit.
            #[inline]
            pub const fn raw(self) -> f64 {
                self.0
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> $name {
                $name(self.0.abs())
            }

            /// Returns the smaller of two quantities.
            #[inline]
            pub fn min(self, other: $name) -> $name {
                $name(self.0.min(other.0))
            }

            /// Returns the larger of two quantities.
            #[inline]
            pub fn max(self, other: $name) -> $name {
                $name(self.0.max(other.0))
            }

            /// Clamps the quantity between `lo` and `hi`.
            ///
            /// # Panics
            ///
            /// Panics if `lo > hi`.
            #[inline]
            pub fn clamp(self, lo: $name, hi: $name) -> $name {
                assert!(lo.0 <= hi.0, "clamp bounds inverted");
                $name(self.0.clamp(lo.0, hi.0))
            }

            /// Total ordering that treats NaN as greater than all values,
            /// mirroring [`f64::total_cmp`].
            #[inline]
            pub fn total_cmp(&self, other: &$name) -> std::cmp::Ordering {
                self.0.total_cmp(&other.0)
            }

            /// `true` when the underlying value is finite (not NaN/∞).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Linear interpolation between `self` (at `t = 0`) and `other`
            /// (at `t = 1`). `t` outside `[0, 1]` extrapolates.
            #[inline]
            pub fn lerp(self, other: $name, t: f64) -> $name {
                $name(self.0 + (other.0 - self.0) * t)
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Dividing two like quantities yields a dimensionless ratio.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|q| q.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $unit)
                } else {
                    write!(f, "{} {}", self.0, $unit)
                }
            }
        }
    };
}

quantity!(
    /// A time span or instant, stored in **picoseconds**.
    ///
    /// ```
    /// use psnt_cells::units::Time;
    /// assert_eq!(Time::from_ns(1.5).picoseconds(), 1500.0);
    /// ```
    Time,
    "ps"
);

quantity!(
    /// An electric potential, stored in **volts**.
    ///
    /// ```
    /// use psnt_cells::units::Voltage;
    /// assert_eq!(Voltage::from_mv(900.0), Voltage::from_v(0.9));
    /// ```
    Voltage,
    "V"
);

quantity!(
    /// A capacitance, stored in **picofarads**.
    ///
    /// ```
    /// use psnt_cells::units::Capacitance;
    /// assert_eq!(Capacitance::from_ff(2000.0), Capacitance::from_pf(2.0));
    /// ```
    Capacitance,
    "pF"
);

quantity!(
    /// An electric current, stored in **amperes**.
    ///
    /// ```
    /// use psnt_cells::units::Current;
    /// assert_eq!(Current::from_ma(250.0).amps(), 0.25);
    /// ```
    Current,
    "A"
);

quantity!(
    /// A resistance, stored in **ohms**.
    ///
    /// ```
    /// use psnt_cells::units::Resistance;
    /// assert_eq!(Resistance::from_milliohms(500.0).ohms(), 0.5);
    /// ```
    Resistance,
    "Ω"
);

quantity!(
    /// An inductance, stored in **henries**.
    ///
    /// ```
    /// use psnt_cells::units::Inductance;
    /// assert_eq!(Inductance::from_nh(2.0).henries(), 2.0e-9);
    /// ```
    Inductance,
    "H"
);

quantity!(
    /// A frequency, stored in **hertz**.
    ///
    /// ```
    /// use psnt_cells::units::Frequency;
    /// assert_eq!(Frequency::from_mhz(100.0).hertz(), 1.0e8);
    /// ```
    Frequency,
    "Hz"
);

quantity!(
    /// A temperature, stored in **degrees Celsius**.
    ///
    /// ```
    /// use psnt_cells::units::Temperature;
    /// assert_eq!(Temperature::from_celsius(25.0).celsius(), 25.0);
    /// ```
    Temperature,
    "°C"
);

impl Time {
    /// Constructs a time from picoseconds.
    #[inline]
    pub const fn from_ps(ps: f64) -> Time {
        Time(ps)
    }

    /// Constructs a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: f64) -> Time {
        Time(ns * 1.0e3)
    }

    /// Constructs a time from microseconds.
    #[inline]
    pub const fn from_us(us: f64) -> Time {
        Time(us * 1.0e6)
    }

    /// Constructs a time from seconds.
    #[inline]
    pub const fn from_seconds(s: f64) -> Time {
        Time(s * 1.0e12)
    }

    /// The value in picoseconds.
    #[inline]
    pub const fn picoseconds(self) -> f64 {
        self.0
    }

    /// The value in nanoseconds.
    #[inline]
    pub fn nanoseconds(self) -> f64 {
        self.0 * 1.0e-3
    }

    /// The value in seconds.
    #[inline]
    pub fn seconds(self) -> f64 {
        self.0 * 1.0e-12
    }

    /// The period of the given frequency.
    ///
    /// # Panics
    ///
    /// Panics if `f` is zero.
    #[inline]
    pub fn period_of(f: Frequency) -> Time {
        assert!(f.hertz() != 0.0, "period of zero frequency");
        Time::from_seconds(1.0 / f.hertz())
    }
}

impl Voltage {
    /// Constructs a voltage from volts.
    #[inline]
    pub const fn from_v(v: f64) -> Voltage {
        Voltage(v)
    }

    /// Constructs a voltage from millivolts.
    #[inline]
    pub const fn from_mv(mv: f64) -> Voltage {
        Voltage(mv * 1.0e-3)
    }

    /// The value in volts.
    #[inline]
    pub const fn volts(self) -> f64 {
        self.0
    }

    /// The value in millivolts.
    #[inline]
    pub fn millivolts(self) -> f64 {
        self.0 * 1.0e3
    }
}

impl Capacitance {
    /// Constructs a capacitance from picofarads.
    #[inline]
    pub const fn from_pf(pf: f64) -> Capacitance {
        Capacitance(pf)
    }

    /// Constructs a capacitance from femtofarads.
    #[inline]
    pub const fn from_ff(ff: f64) -> Capacitance {
        Capacitance(ff * 1.0e-3)
    }

    /// Constructs a capacitance from nanofarads.
    #[inline]
    pub const fn from_nf(nf: f64) -> Capacitance {
        Capacitance(nf * 1.0e3)
    }

    /// The value in picofarads.
    #[inline]
    pub const fn picofarads(self) -> f64 {
        self.0
    }

    /// The value in femtofarads.
    #[inline]
    pub fn femtofarads(self) -> f64 {
        self.0 * 1.0e3
    }

    /// The value in farads.
    #[inline]
    pub fn farads(self) -> f64 {
        self.0 * 1.0e-12
    }
}

impl Current {
    /// Constructs a current from amperes.
    #[inline]
    pub const fn from_a(a: f64) -> Current {
        Current(a)
    }

    /// Constructs a current from milliamperes.
    #[inline]
    pub const fn from_ma(ma: f64) -> Current {
        Current(ma * 1.0e-3)
    }

    /// The value in amperes.
    #[inline]
    pub const fn amps(self) -> f64 {
        self.0
    }
}

impl Resistance {
    /// Constructs a resistance from ohms.
    #[inline]
    pub const fn from_ohms(ohms: f64) -> Resistance {
        Resistance(ohms)
    }

    /// Constructs a resistance from milliohms.
    #[inline]
    pub const fn from_milliohms(mo: f64) -> Resistance {
        Resistance(mo * 1.0e-3)
    }

    /// The value in ohms.
    #[inline]
    pub const fn ohms(self) -> f64 {
        self.0
    }
}

impl Inductance {
    /// Constructs an inductance from henries.
    #[inline]
    pub const fn from_h(h: f64) -> Inductance {
        Inductance(h)
    }

    /// Constructs an inductance from nanohenries.
    #[inline]
    pub const fn from_nh(nh: f64) -> Inductance {
        Inductance(nh * 1.0e-9)
    }

    /// Constructs an inductance from picohenries.
    #[inline]
    pub const fn from_ph(ph: f64) -> Inductance {
        Inductance(ph * 1.0e-12)
    }

    /// The value in henries.
    #[inline]
    pub const fn henries(self) -> f64 {
        self.0
    }
}

impl Frequency {
    /// Constructs a frequency from hertz.
    #[inline]
    pub const fn from_hz(hz: f64) -> Frequency {
        Frequency(hz)
    }

    /// Constructs a frequency from megahertz.
    #[inline]
    pub const fn from_mhz(mhz: f64) -> Frequency {
        Frequency(mhz * 1.0e6)
    }

    /// Constructs a frequency from gigahertz.
    #[inline]
    pub const fn from_ghz(ghz: f64) -> Frequency {
        Frequency(ghz * 1.0e9)
    }

    /// The value in hertz.
    #[inline]
    pub const fn hertz(self) -> f64 {
        self.0
    }

    /// The frequency whose period is `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is zero.
    #[inline]
    pub fn from_period(t: Time) -> Frequency {
        assert!(t.picoseconds() != 0.0, "frequency of zero period");
        Frequency(1.0 / t.seconds())
    }
}

impl Temperature {
    /// Constructs a temperature from degrees Celsius.
    #[inline]
    pub const fn from_celsius(c: f64) -> Temperature {
        Temperature(c)
    }

    /// The value in degrees Celsius.
    #[inline]
    pub const fn celsius(self) -> f64 {
        self.0
    }

    /// The value in kelvin.
    #[inline]
    pub fn kelvin(self) -> f64 {
        self.0 + 273.15
    }
}

/// `R · C` has the dimension of time: convenience for RC time constants.
impl Mul<Capacitance> for Resistance {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: Capacitance) -> Time {
        Time::from_seconds(self.ohms() * rhs.farads())
    }
}

/// `C · V` has the dimension of charge; dividing by current yields time.
/// This helper computes the constant-current (dis)charge time `C·V / I`.
///
/// # Panics
///
/// Panics if `i` is zero.
pub fn charge_time(c: Capacitance, v: Voltage, i: Current) -> Time {
    assert!(i.amps() != 0.0, "charge_time with zero current");
    Time::from_seconds(c.farads() * v.volts() / i.amps())
}

/// Ohm's law: `V / R`.
///
/// # Panics
///
/// Panics if `r` is zero.
pub fn ohms_law_current(v: Voltage, r: Resistance) -> Current {
    assert!(r.ohms() != 0.0, "ohms_law_current with zero resistance");
    Current::from_a(v.volts() / r.ohms())
}

/// Ohm's law: `I · R`.
pub fn ohms_law_voltage(i: Current, r: Resistance) -> Voltage {
    Voltage::from_v(i.amps() * r.ohms())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn time_conversions_roundtrip() {
        assert_eq!(Time::from_ns(1.0).picoseconds(), 1000.0);
        assert_eq!(Time::from_us(1.0).picoseconds(), 1.0e6);
        assert_eq!(Time::from_seconds(1.0).picoseconds(), 1.0e12);
        assert!((Time::from_ps(2500.0).nanoseconds() - 2.5).abs() < 1e-12);
        assert!((Time::from_ps(1.0).seconds() - 1.0e-12).abs() < 1e-24);
    }

    #[test]
    fn voltage_conversions() {
        assert_eq!(Voltage::from_mv(1000.0), Voltage::from_v(1.0));
        assert!((Voltage::from_v(0.9).millivolts() - 900.0).abs() < 1e-9);
    }

    #[test]
    fn capacitance_conversions() {
        assert_eq!(Capacitance::from_ff(1000.0), Capacitance::from_pf(1.0));
        assert_eq!(Capacitance::from_nf(1.0), Capacitance::from_pf(1000.0));
        assert!((Capacitance::from_pf(2.0).farads() - 2.0e-12).abs() < 1e-24);
    }

    #[test]
    fn arithmetic_ops() {
        let a = Time::from_ps(10.0);
        let b = Time::from_ps(4.0);
        assert_eq!(a + b, Time::from_ps(14.0));
        assert_eq!(a - b, Time::from_ps(6.0));
        assert_eq!(a * 2.0, Time::from_ps(20.0));
        assert_eq!(2.0 * a, Time::from_ps(20.0));
        assert_eq!(a / 2.0, Time::from_ps(5.0));
        assert_eq!(a / b, 2.5);
        assert_eq!(-a, Time::from_ps(-10.0));
        let mut c = a;
        c += b;
        assert_eq!(c, Time::from_ps(14.0));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn min_max_clamp_abs() {
        let a = Voltage::from_v(0.9);
        let b = Voltage::from_v(1.1);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(Voltage::from_v(1.3).clamp(a, b), b);
        assert_eq!(Voltage::from_v(0.5).clamp(a, b), a);
        assert_eq!(Voltage::from_v(-0.2).abs(), Voltage::from_v(0.2));
    }

    #[test]
    #[should_panic(expected = "clamp bounds inverted")]
    fn clamp_inverted_bounds_panics() {
        let _ = Time::from_ps(1.0).clamp(Time::from_ps(2.0), Time::from_ps(1.0));
    }

    #[test]
    fn sum_iterator() {
        let total: Time = (1..=4).map(|i| Time::from_ps(i as f64)).sum();
        assert_eq!(total, Time::from_ps(10.0));
    }

    #[test]
    fn display_formatting() {
        assert_eq!(format!("{:.2}", Time::from_ps(12.345)), "12.35 ps");
        assert_eq!(format!("{}", Voltage::from_v(1.0)), "1 V");
        assert_eq!(format!("{:.1}", Capacitance::from_pf(2.0)), "2.0 pF");
    }

    #[test]
    fn rc_time_constant() {
        let tau = Resistance::from_ohms(1000.0) * Capacitance::from_pf(1.0);
        assert!((tau.picoseconds() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn charge_time_matches_analytic() {
        // 1 pF charged by 1 mA across 1 V: t = CV/I = 1e-12 / 1e-3 = 1 ns.
        let t = charge_time(
            Capacitance::from_pf(1.0),
            Voltage::from_v(1.0),
            Current::from_ma(1.0),
        );
        assert!((t.nanoseconds() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ohms_law_helpers() {
        let i = ohms_law_current(Voltage::from_v(1.0), Resistance::from_ohms(50.0));
        assert!((i.amps() - 0.02).abs() < 1e-12);
        let v = ohms_law_voltage(Current::from_a(0.02), Resistance::from_ohms(50.0));
        assert!((v.volts() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn frequency_period_roundtrip() {
        let f = Frequency::from_mhz(100.0);
        let t = Time::period_of(f);
        assert!((t.nanoseconds() - 10.0).abs() < 1e-9);
        let f2 = Frequency::from_period(t);
        assert!((f2.hertz() - f.hertz()).abs() < 1.0);
    }

    #[test]
    fn temperature_kelvin() {
        assert!((Temperature::from_celsius(25.0).kelvin() - 298.15).abs() < 1e-12);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = Voltage::from_v(0.9);
        let b = Voltage::from_v(1.1);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert!((a.lerp(b, 0.5).volts() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn total_cmp_handles_equal() {
        use std::cmp::Ordering;
        assert_eq!(
            Time::from_ps(1.0).total_cmp(&Time::from_ps(1.0)),
            Ordering::Equal
        );
        assert_eq!(
            Time::from_ps(1.0).total_cmp(&Time::from_ps(2.0)),
            Ordering::Less
        );
    }

    proptest! {
        #[test]
        fn add_sub_inverse(a in -1.0e9..1.0e9f64, b in -1.0e9..1.0e9f64) {
            let x = Time::from_ps(a);
            let y = Time::from_ps(b);
            let back = (x + y) - y;
            prop_assert!((back.picoseconds() - a).abs() <= 1e-3_f64.max(a.abs() * 1e-12));
        }

        #[test]
        fn scalar_mul_distributes(a in -1.0e6..1.0e6f64, b in -1.0e6..1.0e6f64, k in -100.0..100.0f64) {
            let lhs = (Voltage::from_v(a) + Voltage::from_v(b)) * k;
            let rhs = Voltage::from_v(a) * k + Voltage::from_v(b) * k;
            prop_assert!((lhs.volts() - rhs.volts()).abs() <= 1e-6_f64.max(lhs.volts().abs() * 1e-9));
        }

        #[test]
        fn lerp_bounded(a in -10.0..10.0f64, b in -10.0..10.0f64, t in 0.0..1.0f64) {
            let lo = a.min(b);
            let hi = a.max(b);
            let v = Voltage::from_v(a).lerp(Voltage::from_v(b), t).volts();
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }

        #[test]
        fn min_max_consistent(a in -1.0e6..1.0e6f64, b in -1.0e6..1.0e6f64) {
            let x = Time::from_ps(a);
            let y = Time::from_ps(b);
            prop_assert!(x.min(y) <= x.max(y));
            prop_assert_eq!(x.min(y) + x.max(y), x + y);
        }
    }
}
