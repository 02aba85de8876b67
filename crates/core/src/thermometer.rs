//! The multi-bit noise thermometer — paper Fig. 1 (right) and Fig. 5.
//!
//! Seven identical INV+FF elements share the same `P`/`CP` pulses; only
//! the load capacitor at each `DS-i` differs, rising along a ladder so
//! each flip-flop has a different failure threshold. The array output is
//! a [`ThermometerCode`] "proportional to the VDD-n value … in principle
//! similar to a flash A/D converter".
//!
//! Two ladders are provided:
//!
//! * [`CapacitorLadder::paper_fig5`] — calibrated so the delay-code-011
//!   thresholds land on the paper's published values (0.827, 0.896,
//!   0.929, …, 1.053 V);
//! * [`CapacitorLadder::linear`] — the idealised uniform ladder the paper
//!   describes ("the capacitor at DS-i increases linearly"), used by the
//!   ladder-design ablation.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::process::Pvt;
//! use psnt_cells::units::{Time, Voltage};
//! use psnt_core::element::RailMode;
//! use psnt_core::thermometer::{CapacitorLadder, ThermometerArray};
//!
//! let array = ThermometerArray::paper(RailMode::Supply);
//! let skew = Time::from_ps(149.0); // delay code 011
//! let point = array.at(skew, &Pvt::typical())?;
//! let code = point.measure(Voltage::from_v(1.0));
//! assert_eq!(code.to_string(), "0011111"); // paper Fig. 9, first measure
//! # let _ = CapacitorLadder::paper_fig5();
//! # Ok::<(), psnt_core::error::SensorError>(())
//! ```

use psnt_cells::logic::{Logic, LogicVector};
use psnt_cells::process::Pvt;
use psnt_cells::units::{Capacitance, Time, Voltage};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::code::ThermometerCode;
use crate::element::{ElementReading, RailMode, SenseElement};
use crate::error::SensorError;

/// The most elements an array measured at an [`OperatingPoint`] may
/// have: a measurement packs its outcomes into one `u64`.
pub const MAX_ELEMENTS: usize = 64;

/// An ascending ladder of load capacitances, one per array element.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacitorLadder {
    caps: Vec<Capacitance>,
}

impl CapacitorLadder {
    /// Builds a ladder from explicit values.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] when empty, non-positive or
    /// not strictly increasing.
    pub fn from_caps(caps: Vec<Capacitance>) -> Result<CapacitorLadder, SensorError> {
        if caps.is_empty() {
            return Err(SensorError::InvalidConfig {
                name: "ladder",
                reason: "must have at least one element".into(),
            });
        }
        if caps.iter().any(|&c| c <= Capacitance::ZERO) {
            return Err(SensorError::InvalidConfig {
                name: "ladder",
                reason: "capacitances must be positive".into(),
            });
        }
        if caps.windows(2).any(|w| w[1] <= w[0]) {
            return Err(SensorError::InvalidConfig {
                name: "ladder",
                reason: "capacitances must be strictly increasing".into(),
            });
        }
        Ok(CapacitorLadder { caps })
    }

    /// The idealised uniform ladder: `c0, c0+step, …` for `n` elements.
    ///
    /// # Errors
    ///
    /// Propagates [`CapacitorLadder::from_caps`] validation.
    pub fn linear(
        c0: Capacitance,
        step: Capacitance,
        n: usize,
    ) -> Result<CapacitorLadder, SensorError> {
        CapacitorLadder::from_caps((0..n).map(|i| c0 + step * i as f64).collect())
    }

    /// The 7-element ladder calibrated against the paper's Fig. 5
    /// (delay code 011 characteristics): thresholds at 0.827 / 0.896 /
    /// 0.929 / 0.961 / 0.992 / 1.021 / 1.053 V. Nearly linear with a
    /// slightly larger first step, as the published boundaries imply.
    pub fn paper_fig5() -> CapacitorLadder {
        CapacitorLadder {
            caps: [1.7504, 1.9129, 1.9861, 2.0541, 2.1179, 2.1756, 2.2373]
                .into_iter()
                .map(Capacitance::from_pf)
                .collect(),
        }
    }

    /// The capacitances, ascending.
    pub fn caps(&self) -> &[Capacitance] {
        &self.caps
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.caps.len()
    }

    /// `true` when empty (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.caps.is_empty()
    }
}

/// A decoded voltage interval for a thermometer code: the rail lies
/// between `lower` and `upper` (either side open-ended at the dynamic
/// range boundaries).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CodeInterval {
    /// Greatest threshold at or below the rail (absent at underflow).
    pub lower: Option<Voltage>,
    /// Smallest threshold above the rail (absent at overflow).
    pub upper: Option<Voltage>,
}

impl CodeInterval {
    /// The interval midpoint, when both bounds exist.
    pub fn midpoint(&self) -> Option<Voltage> {
        match (self.lower, self.upper) {
            (Some(a), Some(b)) => Some(a.lerp(b, 0.5)),
            _ => None,
        }
    }

    /// `true` when `v` is inside the (half-open) interval.
    pub fn contains(&self, v: Voltage) -> bool {
        self.lower.is_none_or(|lo| v >= lo) && self.upper.is_none_or(|hi| v < hi)
    }
}

/// Half-width of an element's bracket around its kernel threshold:
/// ten times the kernel's 10 µV bisection tolerance, and far above the
/// `exp2_fast`-vs-`powf_pos` difference (~1e-10 relative), so the
/// direct model's switching point lies strictly inside the bracket and
/// the build-time check passes.
const BRACKET_HALF_WIDTH_V: f64 = 100e-6;

/// How far past its bracket edge an element's outcome is taken from
/// the table. Beyond it the rail is unphysical (the alpha-power kernel
/// is only defined on finite, moderate supplies) and goes to the
/// direct model.
const LOOKUP_SPAN_V: f64 = 0.5;

/// The rails, as closed intervals in volts, at which one element's
/// outcome is known without evaluating it.
///
/// Exactness: the inner edges `t ∓ δ` are checked against
/// [`SenseElement::measure`] when the bracket is built — HIGH-SENSE
/// must fail at `t − δ` and pass at `t + δ`, LOW-SENSE the mirror
/// image — and the direct model is monotone in the rail
/// (`tests/characteristic.rs` pins it over the whole span). So every
/// rail in `fail` fails and every rail in `pass` passes, bit for bit
/// what the direct model would say. Rails strictly between the edges,
/// beyond the span, and NaN (every compare is false) go to the direct
/// model. An element whose check fails gets [`Bracket::EMPTY`] and is
/// always evaluated directly.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Bracket {
    fail: (f64, f64),
    pass: (f64, f64),
}

impl Bracket {
    /// Contains no rail: every measure evaluates the element.
    const EMPTY: Bracket = Bracket {
        fail: (f64::INFINITY, f64::NEG_INFINITY),
        pass: (f64::INFINITY, f64::NEG_INFINITY),
    };

    fn verified(e: &SenseElement, threshold: Voltage, skew: Time, pvt: &Pvt) -> Bracket {
        let t = threshold.volts();
        let (below, above) = (t - BRACKET_HALF_WIDTH_V, t + BRACKET_HALF_WIDTH_V);
        let passes = |v: f64| e.measure(Voltage::from_v(v), skew, pvt).passed;
        let low = (below - LOOKUP_SPAN_V, below);
        let high = (above, above + LOOKUP_SPAN_V);
        match (e.mode(), passes(below), passes(above)) {
            (RailMode::Supply, false, true) => Bracket {
                fail: low,
                pass: high,
            },
            (RailMode::Ground, true, false) => Bracket {
                fail: high,
                pass: low,
            },
            _ => Bracket::EMPTY,
        }
    }

    /// `true` when no rail is in both ranges (an empty range is
    /// disjoint from everything).
    fn is_disjoint(&self) -> bool {
        let empty = |(lo, hi): (f64, f64)| lo > hi;
        empty(self.fail)
            || empty(self.pass)
            || self.fail.1 < self.pass.0
            || self.pass.1 < self.fail.0
    }
}

/// A multi-bit sensor array: identical elements, rising loads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermometerArray {
    elements: Vec<SenseElement>,
    mode: RailMode,
}

impl ThermometerArray {
    /// Builds an array of paper-calibrated elements over a ladder.
    pub fn new(ladder: &CapacitorLadder, mode: RailMode) -> ThermometerArray {
        ThermometerArray {
            elements: ladder
                .caps()
                .iter()
                .map(|&c| SenseElement::paper(c, mode))
                .collect(),
            mode,
        }
    }

    /// The paper's 7-bit array ([`CapacitorLadder::paper_fig5`]).
    pub fn paper(mode: RailMode) -> ThermometerArray {
        ThermometerArray::new(&CapacitorLadder::paper_fig5(), mode)
    }

    /// Builds an array from explicit elements (e.g. mismatched copies
    /// from [`crate::mismatch`]). The caller is responsible for the
    /// intended load ordering — a mismatched array may legitimately have
    /// inverted thresholds, which is exactly what the yield analysis
    /// quantifies.
    ///
    /// # Panics
    ///
    /// Panics if `elements` is empty or an element's rail mode differs
    /// from `mode`.
    pub fn from_elements(elements: Vec<SenseElement>, mode: RailMode) -> ThermometerArray {
        assert!(!elements.is_empty(), "array needs at least one element");
        assert!(
            elements.iter().all(|e| e.mode() == mode),
            "all elements must observe the same rail"
        );
        ThermometerArray { elements, mode }
    }

    /// Number of output bits.
    pub fn bits(&self) -> usize {
        self.elements.len()
    }

    /// The rail this array observes.
    pub fn mode(&self) -> RailMode {
        self.mode
    }

    /// The elements, in ascending-load order.
    pub fn elements(&self) -> &[SenseElement] {
        &self.elements
    }

    /// The array at one operating point: the pulse generator's `P`→`CP`
    /// skew (set by the delay code) and the PVT point. The thresholds
    /// are solved and every element's lookup bracket is built and
    /// checked here, once; the returned value then measures and decodes
    /// without solving anything.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] for an array of no or more
    /// than [`MAX_ELEMENTS`] elements, and propagates
    /// [`SenseElement::threshold`] failures (the lowest-indexed failing
    /// element wins).
    pub fn at(&self, skew: Time, pvt: &Pvt) -> Result<OperatingPoint, SensorError> {
        if !(1..=MAX_ELEMENTS).contains(&self.bits()) {
            return Err(SensorError::InvalidConfig {
                name: "array",
                reason: format!("{} elements, not 1 to {MAX_ELEMENTS}", self.bits()),
            });
        }
        let thresholds = self.solve_thresholds(skew, pvt)?;
        let mut ascending = thresholds.clone();
        ascending.sort_by(Voltage::total_cmp);
        let brackets: Vec<Bracket> = self
            .elements
            .iter()
            .zip(&thresholds)
            .map(|(e, &t)| Bracket::verified(e, t, skew, pvt))
            .collect();
        // The characteristic's invariants, on the sorted table because
        // a mismatched array may invert its element order.
        debug_assert!(
            ascending.windows(2).all(|w| w[0] < w[1]),
            "thresholds not strictly ascending: {ascending:?}"
        );
        debug_assert!(
            brackets.iter().all(Bracket::is_disjoint),
            "a bracket's fail and pass ranges overlap: {brackets:?}"
        );
        Ok(OperatingPoint {
            array: self.clone(),
            skew,
            pvt: *pvt,
            thresholds,
            ascending,
            brackets,
        })
    }

    /// Like [`OperatingPoint::measure`] but also returning each
    /// element's reading (ascending-load order). Always evaluates every
    /// element: this is the direct reference the lookup is tested
    /// against.
    pub fn measure_detailed(
        &self,
        rail: Voltage,
        skew: Time,
        pvt: &Pvt,
    ) -> (ThermometerCode, Vec<ElementReading>) {
        let readings: Vec<ElementReading> = self
            .elements
            .iter()
            .map(|e| e.measure(rail, skew, pvt))
            .collect();
        (ThermometerArray::pack(&readings), readings)
    }

    /// Stochastic variant: metastable boundary elements resolve randomly,
    /// occasionally producing bubble codes.
    pub fn measure_with_rng<R: Rng + ?Sized>(
        &self,
        rail: Voltage,
        skew: Time,
        pvt: &Pvt,
        rng: &mut R,
    ) -> ThermometerCode {
        let readings: Vec<ElementReading> = self
            .elements
            .iter()
            .map(|e| e.measure_with_rng(rail, skew, pvt, rng))
            .collect();
        ThermometerArray::pack(&readings)
    }

    fn pack(readings: &[ElementReading]) -> ThermometerCode {
        // Most-loaded first: reverse of the ascending element order.
        let bits: LogicVector = readings
            .iter()
            .rev()
            .map(|r| Logic::from(r.passed))
            .collect();
        ThermometerCode::new(bits)
    }

    /// Oversampled measurement: the mean *level* across `n` stochastic
    /// measures. Near a threshold, metastability dithers the boundary
    /// element, so the mean carries sub-LSB information about the rail —
    /// the stochastic-flash-ADC effect behind the paper's advice that
    /// "measures should be iterated".
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn oversampled_level<R: Rng + ?Sized>(
        &self,
        rail: Voltage,
        skew: Time,
        pvt: &Pvt,
        n: usize,
        rng: &mut R,
    ) -> f64 {
        assert!(n > 0, "need at least one measure");
        let total: usize = (0..n)
            .map(|_| {
                self.measure_with_rng(rail, skew, pvt, rng)
                    .correct_bubbles()
                    .level()
            })
            .sum();
        total as f64 / n as f64
    }

    /// The analytic expectation of the (stochastic) level at a rail
    /// value: the sum of each element's capture probability given its DS
    /// arrival. This is the smooth transfer curve that oversampling
    /// samples — strictly monotone in the rail across the dynamic range,
    /// which is what makes sub-LSB inversion possible.
    pub fn expected_level(&self, rail: Voltage, skew: Time, pvt: &Pvt) -> f64 {
        // Capturing the SENSE transition is a pass for both modes; only
        // the rail→arrival mapping differs, and ds_delay encodes it.
        self.elements()
            .iter()
            .map(|e| {
                e.flip_flop()
                    .capture_probability(e.ds_delay(rail, pvt) - skew)
            })
            .sum()
    }

    /// Per-element failure thresholds, ascending-load order: every
    /// element at once through the 64-lane lockstep kernel
    /// ([`crate::lanes::solve`], one lane per element), bit-identical
    /// to the per-element [`SenseElement::threshold`] calls, which share
    /// the same float program. The lowest failing element is reported
    /// exactly like the serial per-element sweep.
    pub(crate) fn solve_thresholds(
        &self,
        skew: Time,
        pvt: &Pvt,
    ) -> Result<Vec<Voltage>, SensorError> {
        use crate::lanes::{self, LaneTasks, LANES};
        let df = pvt.drive_factor();
        let mut th = Vec::with_capacity(self.elements.len());
        for chunk in self.elements.chunks(LANES) {
            let mut tasks = LaneTasks {
                n: chunk.len(),
                ..LaneTasks::default()
            };
            for (l, e) in chunk.iter().enumerate() {
                let (ac_ps, t_int_ps, vth_eff_v, alpha, window_ps) = e.lane_task(skew, pvt);
                tasks.ac_ps[l] = ac_ps;
                tasks.t_int_ps[l] = t_int_ps;
                tasks.vth_eff_v[l] = vth_eff_v;
                tasks.alpha[l] = alpha;
                tasks.window_ps[l] = window_ps;
            }
            let mut out = [0.0f64; LANES];
            let mask = if chunk.len() == LANES {
                u64::MAX
            } else {
                (1u64 << chunk.len()) - 1
            };
            let bad = lanes::solve(&tasks, df, &mut out) & mask;
            if bad != 0 {
                let l = bad.trailing_zeros() as usize;
                return Err(SensorError::ThresholdOutOfRange {
                    lo: lanes::lo_bound_v(tasks.vth_eff_v[l]),
                    hi: lanes::hi_bound_v(),
                });
            }
            th.extend(
                chunk
                    .iter()
                    .zip(&out)
                    .map(|(e, &v)| e.rail_from_effective(Voltage::from_v(v), pvt)),
            );
        }
        Ok(th)
    }
}

/// A [`ThermometerArray`] at one operating point (`P`→`CP` skew and PVT
/// point), built by [`ThermometerArray::at`]: an immutable flash-ADC
/// comparator ladder against fixed per-element thresholds, as the
/// delay code and the trim fix it on the chip.
///
/// It holds the thresholds, their ascending sort (the decode table)
/// and one verified bracket per element, so a rail clear of an
/// element's threshold settles that bit with two compares. Nothing is
/// solved or cached after construction, so the value is `Sync` and a
/// read takes no lock.
#[derive(Debug, Clone, PartialEq)]
pub struct OperatingPoint {
    array: ThermometerArray,
    skew: Time,
    pvt: Pvt,
    /// The kernel thresholds, ascending-load order.
    thresholds: Vec<Voltage>,
    /// The thresholds sorted ascending: the decode table.
    ascending: Vec<Voltage>,
    /// One bracket per element, ascending-load order.
    brackets: Vec<Bracket>,
}

impl OperatingPoint {
    /// The array this point was built from.
    pub fn array(&self) -> &ThermometerArray {
        &self.array
    }

    /// The `P`→`CP` skew of the point.
    pub fn skew(&self) -> Time {
        self.skew
    }

    /// The PVT point.
    pub fn pvt(&self) -> &Pvt {
        &self.pvt
    }

    /// Number of output bits.
    pub fn bits(&self) -> usize {
        self.array.bits()
    }

    /// Per-element failure thresholds, ascending-load order. For
    /// HIGH-SENSE these rise with load; for LOW-SENSE (ground) they fall.
    pub fn thresholds(&self) -> &[Voltage] {
        &self.thresholds
    }

    /// The measurable span `(min, max)` of rail values: outside it the
    /// code saturates at all-0 / all-1.
    pub fn dynamic_range(&self) -> (Voltage, Voltage) {
        (self.ascending[0], self.ascending[self.ascending.len() - 1])
    }

    /// Performs one measurement; the code prints most-loaded element
    /// first, matching the paper's `0011111` notation.
    ///
    /// A flash lookup: each bit is read from the element's bracket, and
    /// only an element whose bracket holds the rail is evaluated
    /// directly. The code is bit-identical to
    /// [`ThermometerArray::measure_detailed`]'s.
    pub fn measure(&self, rail: Voltage) -> ThermometerCode {
        // `from_u64` puts the top bit, the most-loaded element, first.
        ThermometerCode::new(LogicVector::from_u64(self.passed_bits(rail), self.bits()))
    }

    // SENSE READ PATH START
    /// [`OperatingPoint::measure`] packed into an integer: bit `i` is
    /// set when element `i` (ascending-load order) passes. Every
    /// bracket is compared without a branch; only the elements none of
    /// whose ranges holds the rail are evaluated with the delay model.
    pub(crate) fn passed_bits(&self, rail: Voltage) -> u64 {
        let v = rail.volts();
        let (mut pass, mut known) = (0u64, 0u64);
        for (i, b) in self.brackets.iter().enumerate() {
            let p = (b.pass.0 <= v) & (v <= b.pass.1);
            let f = (b.fail.0 <= v) & (v <= b.fail.1);
            pass |= u64::from(p) << i;
            known |= u64::from(p | f) << i;
        }
        let mut unknown = !known & (u64::MAX >> (64 - self.bits()));
        while unknown != 0 {
            let i = unknown.trailing_zeros() as usize;
            let e = &self.array.elements[i];
            pass |= u64::from(e.measure(rail, self.skew, &self.pvt).passed) << i;
            unknown &= unknown - 1;
        }
        pass
    }
    // SENSE READ PATH END

    /// Inverts an oversampled mean level into a sub-LSB voltage estimate
    /// by bisecting the analytic [`ThermometerArray::expected_level`]
    /// curve. With the paper's array the metastability windows of
    /// adjacent elements overlap (±8 ps ≈ 70 mV vs ~30 mV element
    /// spacing), so several elements dither simultaneously; the expected-
    /// level curve accounts for all of them at once. Returns `None` when
    /// the mean sits at a saturated end (nothing to interpolate).
    pub fn decode_oversampled(&self, mean_level: f64) -> Option<Voltage> {
        let bits = self.bits() as f64;
        if mean_level <= 0.0 || mean_level >= bits {
            return None;
        }
        let (range_lo, range_hi) = self.dynamic_range();
        let margin = Voltage::from_mv(150.0);
        // Bisect along the direction of increasing level: HIGH-SENSE
        // level rises with the rail, LOW-SENSE with a *shrinking* bounce.
        let (mut lo, mut hi) = match self.array.mode {
            RailMode::Supply => (range_lo - margin, range_hi + margin),
            RailMode::Ground => (range_hi + margin, range_lo - margin),
        };
        for _ in 0..60 {
            let mid = lo.lerp(hi, 0.5);
            if self.array.expected_level(mid, self.skew, &self.pvt) < mean_level {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo.lerp(hi, 0.5))
    }

    /// Decodes a measured code into the rail-voltage interval it implies
    /// (the inverse of the array characteristic). Bubbles are corrected
    /// first. The interval is read in place from the ascending
    /// thresholds.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidConfig`] when the code width does not
    /// match the array.
    pub fn decode(&self, code: &ThermometerCode) -> Result<CodeInterval, SensorError> {
        let n = self.bits();
        if code.width() != n {
            return Err(SensorError::InvalidConfig {
                name: "code",
                reason: format!("code width {} does not match array width {n}", code.width()),
            });
        }
        let f = n - code.corrected_level();
        let asc = &self.ascending;
        Ok(match self.array.mode {
            RailMode::Supply => CodeInterval {
                // f elements fail ⇒ the rail sits between the (n−f)-th and
                // (n−f+1)-th ascending thresholds.
                lower: (f < n).then(|| asc[n - f - 1]),
                upper: (f > 0).then(|| asc[n - f]),
            },
            RailMode::Ground => CodeInterval {
                // Ground bounce fails *above* thresholds: f fails ⇒ the
                // bounce exceeds the f smallest thresholds.
                lower: (f > 0).then(|| asc[f - 1]),
                upper: (f < n).then(|| asc[f]),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pvt() -> Pvt {
        Pvt::typical()
    }

    /// Delay code 011: 84 ps insertion + 65 ps tap.
    fn skew011() -> Time {
        Time::from_ps(149.0)
    }

    /// Delay code 010: 84 ps insertion + 50 ps tap.
    fn skew010() -> Time {
        Time::from_ps(134.0)
    }

    fn array() -> ThermometerArray {
        ThermometerArray::paper(RailMode::Supply)
    }

    /// The paper HIGH-SENSE array at delay code 011, typical corner.
    fn point() -> OperatingPoint {
        array().at(skew011(), &pvt()).unwrap()
    }

    #[test]
    fn ladder_validation() {
        let pf = Capacitance::from_pf;
        assert!(CapacitorLadder::from_caps(vec![]).is_err());
        assert!(CapacitorLadder::from_caps(vec![pf(1.0), pf(1.0)]).is_err());
        assert!(CapacitorLadder::from_caps(vec![pf(2.0), pf(1.0)]).is_err());
        assert!(CapacitorLadder::from_caps(vec![pf(0.0), pf(1.0)]).is_err());
        let lin = CapacitorLadder::linear(pf(1.75), Capacitance::from_ff(81.0), 7).unwrap();
        assert_eq!(lin.len(), 7);
        assert!((lin.caps()[6].picofarads() - 2.236).abs() < 1e-9);
    }

    #[test]
    fn operating_points_pack_at_most_64_elements() {
        for (n, fits) in [(MAX_ELEMENTS, true), (MAX_ELEMENTS + 1, false)] {
            let step = Capacitance::from_ff(1.0);
            let ladder = CapacitorLadder::linear(Capacitance::from_pf(1.0), step, n).unwrap();
            let a = ThermometerArray::new(&ladder, RailMode::Supply);
            assert_eq!(a.at(skew011(), &pvt()).is_ok(), fits, "{n} elements");
        }
    }

    #[test]
    fn paper_ladder_reproduces_fig5_thresholds() {
        // Paper Fig. 5 / §III-B, delay code 011: thresholds at
        // 0.827, 0.896, 0.929, (0.961), 0.992, 1.021, 1.053 V.
        let p = point();
        let expected = [0.827, 0.896, 0.929, 0.961, 0.992, 1.021, 1.053];
        for (i, (&t, &e)) in p.thresholds().iter().zip(&expected).enumerate() {
            assert!(
                (t.volts() - e).abs() < 0.003,
                "element {i}: threshold {t} vs paper {e} V"
            );
        }
    }

    #[test]
    fn fig5_dynamic_range_code_011() {
        // "the threshold range goes from 0.827 V (all errors) to 1.053 V
        // (no errors)".
        let (lo, hi) = point().dynamic_range();
        assert!((lo.volts() - 0.827).abs() < 0.003, "low end {lo}");
        assert!((hi.volts() - 1.053).abs() < 0.003, "high end {hi}");
    }

    #[test]
    fn fig5_dynamic_range_code_010_shifts_up() {
        // "In case the delay code is 010, the dynamic ranges from 0.951 V
        // to 1.237 V (also overvoltages can be measured)".
        let (lo, hi) = array().at(skew010(), &pvt()).unwrap().dynamic_range();
        assert!((lo.volts() - 0.951).abs() < 0.004, "low end {lo}");
        // Our alpha-power model puts the top at ≈1.25 V vs the paper's
        // 1.237 V (1.4 % — see DESIGN.md §2); assert the shape.
        assert!((hi.volts() - 1.237).abs() < 0.025, "high end {hi}");
        let (lo011, hi011) = point().dynamic_range();
        assert!(lo > lo011 && hi > hi011, "010 range must sit above 011");
    }

    #[test]
    fn fig9_measurement_codes() {
        // Paper Fig. 9, delay code 011: VDD-n = 1.0 V ⇒ 0011111,
        // VDD-n = 0.9 V ⇒ 0000011.
        let p = point();
        assert_eq!(p.measure(Voltage::from_v(1.0)).to_string(), "0011111");
        assert_eq!(p.measure(Voltage::from_v(0.9)).to_string(), "0000011");
    }

    #[test]
    fn saturation_codes() {
        let p = point();
        assert!(p.measure(Voltage::from_v(0.70)).is_underflow());
        assert!(p.measure(Voltage::from_v(1.20)).is_overflow());
    }

    #[test]
    fn codes_are_canonical_and_monotone_in_voltage() {
        let p = point();
        let mut prev_level = 0;
        for mv in (700..=1200).step_by(5) {
            let code = p.measure(Voltage::from_mv(mv as f64));
            assert!(code.is_canonical(), "bubble at {mv} mV: {code}");
            assert!(
                code.level() >= prev_level,
                "level dropped at {mv} mV: {code}"
            );
            prev_level = code.level();
        }
        assert_eq!(prev_level, 7);
    }

    #[test]
    fn decode_inverts_measure() {
        // Paper: "0011111 corresponds to a VDD-n in the range
        // 0.992 V–1.021 V, while 0000011 to the range 0.896 V–0.929 V".
        let p = point();
        let code: ThermometerCode = "0011111".parse().unwrap();
        let interval = p.decode(&code).unwrap();
        let lo = interval.lower.unwrap().volts();
        let hi = interval.upper.unwrap().volts();
        assert!((lo - 0.992).abs() < 0.003, "lower {lo}");
        assert!((hi - 1.021).abs() < 0.003, "upper {hi}");

        let code2: ThermometerCode = "0000011".parse().unwrap();
        let interval2 = p.decode(&code2).unwrap();
        assert!((interval2.lower.unwrap().volts() - 0.896).abs() < 0.003);
        assert!((interval2.upper.unwrap().volts() - 0.929).abs() < 0.003);
    }

    #[test]
    fn decode_saturated_codes_open_ended() {
        let p = point();
        let over: ThermometerCode = "1111111".parse().unwrap();
        let i = p.decode(&over).unwrap();
        assert!(i.lower.is_some() && i.upper.is_none());
        let under: ThermometerCode = "0000000".parse().unwrap();
        let i = p.decode(&under).unwrap();
        assert!(i.lower.is_none() && i.upper.is_some());
    }

    #[test]
    fn decode_rejects_wrong_width() {
        let code: ThermometerCode = "011".parse().unwrap();
        assert!(point().decode(&code).is_err());
    }

    #[test]
    fn interval_contains_true_voltage() {
        let p = point();
        for mv in (840..=1040).step_by(7) {
            let v = Voltage::from_mv(mv as f64);
            let code = p.measure(v);
            let interval = p.decode(&code).unwrap();
            assert!(
                interval.contains(v),
                "decoded interval missed {v} for code {code}"
            );
        }
    }

    #[test]
    fn ground_array_mirrors() {
        let p = ThermometerArray::paper(RailMode::Ground)
            .at(skew011(), &pvt())
            .unwrap();
        // Quiet ground: the LS inverters see the full nominal swing, so
        // the code equals the HS code at nominal VDD — the two most-loaded
        // elements sit above 1.0 V and fail even with no bounce.
        let quiet = p.measure(Voltage::ZERO);
        assert_eq!(quiet.to_string(), "0011111");
        // Monotone: more bounce, more failures.
        let mut prev = quiet.fail_count();
        for mv in (0..=300).step_by(5) {
            let code = p.measure(Voltage::from_mv(mv as f64));
            assert!(code.is_canonical(), "bubble at {mv} mV bounce");
            let fails = code.fail_count();
            assert!(fails >= prev, "failures dropped at {mv} mV");
            prev = fails;
        }
        assert_eq!(prev, 7);
        // Ground thresholds fall with load (most-loaded trips first).
        for w in p.thresholds().windows(2) {
            assert!(w[1] < w[0]);
        }
    }

    #[test]
    fn ground_decode_contains_true_bounce() {
        let p = ThermometerArray::paper(RailMode::Ground)
            .at(skew011(), &pvt())
            .unwrap();
        for mv in (10..=160).step_by(7) {
            let g = Voltage::from_mv(mv as f64);
            let code = p.measure(g);
            let interval = p.decode(&code).unwrap();
            assert!(interval.contains(g), "missed bounce {g} for {code}");
        }
    }

    #[test]
    fn stochastic_measurement_can_bubble_but_corrects() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let a = array();
        let mut rng = StdRng::seed_from_u64(11);
        // Sit exactly on a threshold: the boundary element resolves
        // randomly (and its immediate neighbours, ~3.5 ps away, are also
        // inside the 8 ps metastability window and may flip).
        let t3 = point().thresholds()[3];
        let mut saw_both = (false, false);
        for _ in 0..64 {
            let code = a.measure_with_rng(t3, skew011(), &pvt(), &mut rng);
            let fixed = code.correct_bubbles();
            assert!(fixed.is_canonical());
            let fails = fixed.fail_count();
            assert!(
                (1..=6).contains(&fails),
                "implausible fail count {fails} at a threshold"
            );
            match fails {
                3 => saw_both.0 = true,
                4 => saw_both.1 = true,
                _ => {}
            }
        }
        assert!(saw_both.0 && saw_both.1, "boundary element never flipped");
    }

    #[test]
    fn lane_solved_thresholds_match_per_element_search() {
        // `at` packs all elements into one 64-lane solve; it must
        // replay the standalone per-element search bit for bit.
        let p = point();
        for (e, t) in p.array().elements().iter().zip(p.thresholds()) {
            let alone = e.threshold(skew011(), &pvt()).unwrap();
            assert_eq!(t.volts().to_bits(), alone.volts().to_bits());
        }
    }

    #[test]
    fn operating_points_are_pure_values() {
        // A point is a function of the array, the skew and the PVT
        // point alone: rebuilding, cloning and re-solving agree.
        let s11 = point();
        assert_eq!(array().at(skew011(), &pvt()).unwrap(), s11);
        assert_eq!(s11.clone(), s11);
        let s10 = array().at(skew010(), &pvt()).unwrap();
        assert_ne!(s10.thresholds(), s11.thresholds());
        let hot = Pvt::new(
            psnt_cells::process::ProcessCorner::TT,
            Voltage::from_v(1.0),
            psnt_cells::units::Temperature::from_celsius(85.0),
        );
        let s_hot = array().at(skew011(), &hot).unwrap();
        assert_ne!(s_hot.thresholds(), s11.thresholds());
        assert_eq!((s_hot.skew(), *s_hot.pvt()), (skew011(), hot));
    }

    #[test]
    fn interval_midpoint() {
        let i = CodeInterval {
            lower: Some(Voltage::from_v(0.9)),
            upper: Some(Voltage::from_v(1.0)),
        };
        assert!((i.midpoint().unwrap().volts() - 0.95).abs() < 1e-12);
        let open = CodeInterval {
            lower: None,
            upper: Some(Voltage::from_v(1.0)),
        };
        assert!(open.midpoint().is_none());
    }

    #[test]
    fn oversampling_resolves_below_one_lsb() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let a = array();
        let p = point();
        let mut rng = StdRng::seed_from_u64(99);
        // Probe points straddling threshold T4 at sub-LSB offsets (the
        // LSB here is ~30 mV; the metastability window covers ≈ ±70 mV
        // around each threshold).
        for offset_mv in [-20.0, -8.0, 0.0, 8.0, 20.0] {
            let v = p.thresholds()[3] + Voltage::from_mv(offset_mv);
            let mean = a.oversampled_level(v, skew011(), &pvt(), 3000, &mut rng);
            let est = p.decode_oversampled(mean).expect("in range");
            let err = (est - v).abs();
            assert!(
                err < Voltage::from_mv(6.0),
                "offset {offset_mv} mV: estimated {est} vs true {v} (err {err})"
            );
        }
    }

    #[test]
    fn oversampled_decode_saturation_returns_none() {
        let p = point();
        assert_eq!(p.decode_oversampled(0.0), None);
        assert_eq!(p.decode_oversampled(7.0), None);
        assert!(p.decode_oversampled(3.5).is_some());
    }

    #[test]
    #[should_panic(expected = "at least one measure")]
    fn oversampled_level_rejects_zero_samples() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let _ = array().oversampled_level(Voltage::from_v(1.0), skew011(), &pvt(), 0, &mut rng);
    }

    #[test]
    fn bracket_disjointness() {
        let (fail, pass) = ((0.3, 0.8), (0.8002, 1.3));
        assert!(Bracket { fail, pass }.is_disjoint());
        assert!(Bracket::EMPTY.is_disjoint());
        let shifted = (pass.0 - 1e-3, pass.1 - 1e-3);
        assert!(!Bracket {
            fail,
            pass: shifted
        }
        .is_disjoint());
    }

    /// The three corners the paper array is characterised at.
    fn corners() -> [Pvt; 3] {
        [Pvt::typical(), Pvt::slow(), Pvt::fast()]
    }

    /// Every operating point the paper array runs at: both rails, all
    /// eight delay codes, the typical, slow and fast corners.
    fn operating_points() -> Vec<OperatingPoint> {
        let pg = crate::pulsegen::PulseGenerator::paper_table();
        let mut points = Vec::new();
        for mode in [RailMode::Supply, RailMode::Ground] {
            let a = ThermometerArray::paper(mode);
            for pvt in corners() {
                for code in crate::pulsegen::DelayCode::all() {
                    points.push(a.at(pg.skew(code, &pvt), &pvt).unwrap());
                }
            }
        }
        points
    }

    /// Mismatched copies of the paper arrays, wide enough that some
    /// thresholds invert.
    fn perturbed_arrays() -> Vec<ThermometerArray> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let model = crate::mismatch::MismatchModel::local_90nm().scaled(6.0);
        let mut rng = StdRng::seed_from_u64(23);
        let mut arrays = Vec::new();
        for mode in [RailMode::Supply, RailMode::Ground] {
            for _ in 0..4 {
                arrays.push(model.perturb_array(&ThermometerArray::paper(mode), &mut rng));
            }
        }
        let inverted = arrays.iter().any(|a| {
            let p = a.at(skew011(), &pvt()).unwrap();
            p.thresholds().windows(2).any(|w| match a.mode() {
                RailMode::Supply => w[1] < w[0],
                RailMode::Ground => w[1] > w[0],
            })
        });
        assert!(inverted, "no mismatched array inverts a threshold pair");
        arrays
    }

    /// The rails the lookup pivots on at one operating point: every
    /// threshold and every finite bracket edge, each with its two ulp
    /// neighbours.
    fn pivot_rails(p: &OperatingPoint) -> Vec<f64> {
        let mut pivots: Vec<f64> = p.thresholds().iter().map(|t| t.volts()).collect();
        for b in &p.brackets {
            pivots.extend([b.fail.0, b.fail.1, b.pass.0, b.pass.1]);
        }
        pivots
            .into_iter()
            .filter(|v| v.is_finite())
            .flat_map(|v| {
                let bits = v.to_bits();
                [
                    f64::from_bits(bits.wrapping_sub(1)),
                    v,
                    f64::from_bits(bits.wrapping_add(1)),
                ]
            })
            .collect()
    }

    const SPECIAL_RAILS: [f64; 7] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        1e300,
        -1e300,
    ];

    fn assert_lookup_matches_direct(p: &OperatingPoint, rail: f64) {
        let v = Voltage::from_v(rail);
        let direct = p.array().measure_detailed(v, p.skew(), p.pvt()).0;
        assert_eq!(
            p.measure(v),
            direct,
            "{:?} array at {rail:e} V, skew {}, {:?}",
            p.array().mode(),
            p.skew(),
            p.pvt().corner
        );
    }

    #[test]
    fn lookup_matches_direct_at_every_bracket_edge() {
        for p in operating_points() {
            let pivots = pivot_rails(&p);
            assert_eq!(pivots.len(), 7 * 5 * 3, "{:?}", p.pvt().corner);
            for rail in pivots.into_iter().chain(SPECIAL_RAILS) {
                assert_lookup_matches_direct(&p, rail);
            }
            // Every paper element passes its build-time check, so no
            // bit of a clear rail falls back to the direct model.
            assert!(p.brackets.iter().all(|b| b.pass.0 <= b.pass.1));
        }
        for a in perturbed_arrays() {
            let p = a.at(skew011(), &pvt()).unwrap();
            for rail in pivot_rails(&p).into_iter().chain(SPECIAL_RAILS) {
                assert_lookup_matches_direct(&p, rail);
            }
        }
    }

    /// The decode this crate shipped before the flash table: clone the
    /// thresholds, sort them, and index by the corrected code's fails.
    fn decode_by_sorting(p: &OperatingPoint, code: &ThermometerCode) -> CodeInterval {
        let mut asc = p.thresholds().to_vec();
        asc.sort_by(Voltage::total_cmp);
        let (n, f) = (p.bits(), code.correct_bubbles().fail_count());
        match p.array().mode() {
            RailMode::Supply => CodeInterval {
                lower: (f < n).then(|| asc[n - f - 1]),
                upper: (f > 0).then(|| asc[n - f]),
            },
            RailMode::Ground => CodeInterval {
                lower: (f > 0).then(|| asc[f - 1]),
                upper: (f < n).then(|| asc[f]),
            },
        }
    }

    #[test]
    fn decode_matches_the_sorting_decode_for_every_fail_count() {
        let arrays = [
            ThermometerArray::paper(RailMode::Supply),
            ThermometerArray::paper(RailMode::Ground),
        ];
        for a in arrays.iter().chain(&perturbed_arrays()) {
            let p = a.at(skew011(), &pvt()).unwrap();
            for fails in 0..=a.bits() {
                let code = ThermometerCode::from_fail_count(fails, a.bits());
                assert_eq!(
                    p.decode(&code).unwrap(),
                    decode_by_sorting(&p, &code),
                    "{:?} array, {fails} fails",
                    a.mode()
                );
            }
        }
    }

    /// A rail for the lookup proptests: `kind` 0–1 draws `uniform`
    /// (−1 to 2.5 V), 2 one of the special rails and 3 one of the
    /// point's pivot rails (thresholds and bracket edges, ±1 ulp).
    fn pick_rail(p: &OperatingPoint, kind: u8, uniform: f64, pick: usize) -> f64 {
        match kind {
            0 | 1 => uniform,
            2 => SPECIAL_RAILS[pick % SPECIAL_RAILS.len()],
            _ => {
                let pivots = pivot_rails(p);
                pivots[pick % pivots.len()]
            }
        }
    }

    proptest! {
        #[test]
        fn lookup_matches_direct_for_random_rails(
            ground in any::<bool>(),
            corner in 0usize..3,
            code in 0u8..8,
            kind in 0u8..4,
            uniform in -1.0..2.5f64,
            pick in 0usize..1024,
        ) {
            let mode = if ground { RailMode::Ground } else { RailMode::Supply };
            let pvt = corners()[corner];
            let code = crate::pulsegen::DelayCode::new(code).unwrap();
            let skew = crate::pulsegen::PulseGenerator::paper_table().skew(code, &pvt);
            let p = ThermometerArray::paper(mode).at(skew, &pvt).unwrap();
            let v = Voltage::from_v(pick_rail(&p, kind, uniform, pick));
            prop_assert_eq!(p.measure(v), p.array().measure_detailed(v, skew, &pvt).0);
        }

        #[test]
        fn lookup_matches_direct_on_mismatched_arrays(
            seed in any::<u64>(),
            ground in any::<bool>(),
            rail in -0.5..1.5f64,
        ) {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mode = if ground { RailMode::Ground } else { RailMode::Supply };
            let model = crate::mismatch::MismatchModel::local_90nm().scaled(6.0);
            let a = model.perturb_array(
                &ThermometerArray::paper(mode),
                &mut StdRng::seed_from_u64(seed),
            );
            let v = Voltage::from_v(rail);
            prop_assert_eq!(
                a.at(skew011(), &pvt()).unwrap().measure(v),
                a.measure_detailed(v, skew011(), &pvt()).0
            );
        }

        #[test]
        fn decode_matches_the_sorting_decode_for_any_code(s in "[01xX]{7}") {
            let code: ThermometerCode = s.parse().unwrap();
            for mode in [RailMode::Supply, RailMode::Ground] {
                let p = ThermometerArray::paper(mode).at(skew011(), &pvt()).unwrap();
                prop_assert_eq!(p.decode(&code).unwrap(), decode_by_sorting(&p, &code));
            }
        }

        #[test]
        fn measured_code_always_canonical(mv in 600.0..1300.0f64) {
            prop_assert!(point().measure(Voltage::from_mv(mv)).is_canonical());
        }

        #[test]
        fn level_monotone_in_voltage(a in 600.0..1300.0f64, b in 600.0..1300.0f64) {
            prop_assume!(a < b);
            let p = point();
            let la = p.measure(Voltage::from_mv(a)).level();
            let lb = p.measure(Voltage::from_mv(b)).level();
            prop_assert!(la <= lb);
        }

        #[test]
        fn decode_roundtrip_contains_voltage(mv in 830.0..1050.0f64) {
            let p = point();
            let v = Voltage::from_mv(mv);
            let interval = p.decode(&p.measure(v)).unwrap();
            prop_assert!(interval.contains(v));
        }
    }
}
