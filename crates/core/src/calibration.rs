//! Characterisation and trimming — the data behind Figs. 4 and 5.
//!
//! The paper characterises the sensor twice:
//!
//! * **element sensitivity** (Fig. 4) — the failure-threshold voltage as
//!   a function of the load capacitance, "linear within the VDD-n range
//!   of interest";
//! * **array characteristic** (Fig. 5) — the per-element thresholds and
//!   overall dynamic range for each delay code, which is also the handle
//!   for *process-variation-aware* operation: a corner shifts the
//!   characteristic, and re-trimming the delay code moves it back.
//!
//! [`trim_for_corner`] implements a documented trim policy (the paper
//! leaves its own "not reported for sake of brevity"): pick the delay
//! code whose dynamic-range midpoint at the corner is closest to the
//! reference (TT) midpoint.
//!
//! # Examples
//!
//! ```
//! use psnt_cells::process::Pvt;
//! use psnt_core::calibration::array_characteristic;
//! use psnt_core::element::RailMode;
//! use psnt_core::pulsegen::{DelayCode, PulseGenerator};
//! use psnt_core::thermometer::ThermometerArray;
//!
//! let array = ThermometerArray::paper(RailMode::Supply);
//! let pg = PulseGenerator::paper_table();
//! let ch = array_characteristic(&array, &pg, DelayCode::new(3)?, &Pvt::typical())?;
//! assert_eq!(ch.thresholds.len(), 7);
//! # Ok::<(), psnt_core::error::SensorError>(())
//! ```

use psnt_cells::process::Pvt;
use psnt_cells::units::{Capacitance, Time, Voltage};
use psnt_ctx::RunCtx;
use serde::{Deserialize, Serialize};

use crate::element::{RailMode, SenseElement};
use crate::error::SensorError;
use crate::pulsegen::{DelayCode, PulseGenerator};
use crate::thermometer::ThermometerArray;

/// One point of the Fig. 4 sensitivity curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensitivityPoint {
    /// The added load capacitance at `DS`.
    pub load: Capacitance,
    /// The rail threshold below (HIGH-SENSE) or above (LOW-SENSE) which
    /// the element fails.
    pub threshold: Voltage,
}

/// Sweeps the element failure threshold over load capacitances — the
/// Fig. 4 characterisation. `skew` is the P→CP pin skew (PG insertion
/// plus tap).
///
/// # Errors
///
/// Propagates threshold-search failures.
pub fn sensitivity_characteristic(
    mode: RailMode,
    skew: Time,
    pvt: &Pvt,
    loads: impl IntoIterator<Item = Capacitance>,
) -> Result<Vec<SensitivityPoint>, SensorError> {
    loads
        .into_iter()
        .map(|load| {
            let elem = SenseElement::paper(load, mode);
            Ok(SensitivityPoint {
                load,
                threshold: elem.threshold(skew, pvt)?,
            })
        })
        .collect()
}

/// Linear-regression fit of a sensitivity curve: returns
/// `(slope V/pF, intercept V, max |residual| V)` — quantifying the
/// paper's "linear behaviour within the range of interest".
///
/// # Panics
///
/// Panics when fewer than two points are supplied.
pub fn linear_fit(points: &[SensitivityPoint]) -> (f64, f64, f64) {
    assert!(points.len() >= 2, "need at least two points to fit");
    let n = points.len() as f64;
    let xs: Vec<f64> = points.iter().map(|p| p.load.picofarads()).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.threshold.volts()).collect();
    let sx: f64 = xs.iter().sum();
    let sy: f64 = ys.iter().sum();
    let sxx: f64 = xs.iter().map(|x| x * x).sum();
    let sxy: f64 = xs.iter().zip(&ys).map(|(x, y)| x * y).sum();
    let slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let intercept = (sy - slope * sx) / n;
    let max_residual = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| (y - (slope * x + intercept)).abs())
        .fold(0.0, f64::max);
    (slope, intercept, max_residual)
}

/// The Fig. 5 characterisation of one delay code.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrayCharacteristic {
    /// The delay code characterised.
    pub code: DelayCode,
    /// The P→CP skew it produces at this operating point.
    pub skew: Time,
    /// Per-element thresholds, ascending-load order.
    pub thresholds: Vec<Voltage>,
    /// The measurable range `(all-errors boundary, no-errors boundary)`.
    pub range: (Voltage, Voltage),
}

impl ArrayCharacteristic {
    /// The midpoint of the dynamic range.
    pub fn midpoint(&self) -> Voltage {
        self.range.0.lerp(self.range.1, 0.5)
    }
}

/// Characterises an array for one delay code at an operating point.
///
/// The per-element threshold searches run as one 64-lane lockstep solve
/// (one lane per element, see `psnt_core::lanes`) — bit-identical to a
/// serial per-element sweep. The solve is one serial kernel call, so
/// it takes no run context and records nothing.
///
/// # Errors
///
/// Propagates threshold-search failures (lowest-indexed element wins
/// when several fail).
pub fn array_characteristic(
    array: &ThermometerArray,
    pg: &PulseGenerator,
    code: DelayCode,
    pvt: &Pvt,
) -> Result<ArrayCharacteristic, SensorError> {
    let skew = pg.skew(code, pvt);
    let thresholds = array.solve_thresholds(skew, pvt)?;
    let lo = thresholds
        .iter()
        .copied()
        .fold(Voltage::from_v(f64::INFINITY), Voltage::min);
    let hi = thresholds
        .iter()
        .copied()
        .fold(Voltage::from_v(f64::NEG_INFINITY), Voltage::max);
    Ok(ArrayCharacteristic {
        code,
        skew,
        thresholds,
        range: (lo, hi),
    })
}

/// The result of a corner trim.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrimResult {
    /// The delay code chosen for the corner.
    pub code: DelayCode,
    /// Dynamic-range midpoint error against the reference, volts.
    pub residual: Voltage,
    /// The corner's midpoint with the *reference* code, for comparison
    /// (what the error would have been without trimming).
    pub untrimmed_residual: Voltage,
}

/// Chooses the delay code that best restores the reference (typically
/// TT) characteristic at a different operating point: minimal
/// dynamic-range midpoint error. This is the documented stand-in for the
/// paper's unpublished internal delay-code policy.
///
/// The per-delay-code characterisations run on the context's engine
/// (one characterisation per code, scheduled as independent jobs), and
/// each characterisation solves its element thresholds through the
/// 64-lane lockstep kernel. The winning code is selected by a serial
/// fold over the ordered results (first minimum in code order), so the
/// trim is bit-identical at any worker count; a serial context is the
/// `jobs = 1` path of this code.
///
/// # Errors
///
/// Propagates characterisation failures (lowest code wins when several
/// fail).
pub fn trim_for_corner(
    ctx: &mut RunCtx<'_>,
    array: &ThermometerArray,
    pg: &PulseGenerator,
    reference_code: DelayCode,
    reference_pvt: &Pvt,
    corner_pvt: &Pvt,
) -> Result<TrimResult, SensorError> {
    let reference = array_characteristic(array, pg, reference_code, reference_pvt)?;
    let target = reference.midpoint();

    let codes = DelayCode::all();
    let characteristics = ctx.engine().try_map(codes.len(), |i| {
        array_characteristic(array, pg, codes[i], corner_pvt)
    })?;

    let mut best: Option<(DelayCode, Voltage)> = None;
    let mut untrimmed = Voltage::ZERO;
    for (code, ch) in codes.iter().zip(&characteristics) {
        let err = (ch.midpoint() - target).abs();
        if *code == reference_code {
            untrimmed = err;
        }
        if best.is_none_or(|(_, e)| err < e) {
            best = Some((*code, err));
        }
    }
    let (code, residual) = best.expect("delay-code table is non-empty");
    Ok(TrimResult {
        code,
        residual,
        untrimmed_residual: untrimmed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psnt_cells::process::ProcessCorner;
    use psnt_cells::units::Temperature;
    use psnt_engine::Engine;

    fn pvt() -> Pvt {
        Pvt::typical()
    }

    fn pg() -> PulseGenerator {
        PulseGenerator::paper_table()
    }

    fn code011() -> DelayCode {
        DelayCode::new(3).unwrap()
    }

    fn array() -> ThermometerArray {
        ThermometerArray::paper(RailMode::Supply)
    }

    #[test]
    fn fig4_sweep_monotone_and_hits_published_point() {
        let loads: Vec<Capacitance> = (5..=35)
            .map(|i| Capacitance::from_pf(i as f64 * 0.1))
            .collect();
        let skew = pg().skew(code011(), &pvt());
        let points = sensitivity_characteristic(RailMode::Supply, skew, &pvt(), loads).unwrap();
        for w in points.windows(2) {
            assert!(w[1].threshold > w[0].threshold, "Fig. 4 must be monotone");
        }
        // Published point: C = 2 pF → 0.9360 V.
        let at_2pf = points
            .iter()
            .find(|p| (p.load.picofarads() - 2.0).abs() < 1e-9)
            .unwrap();
        assert!((at_2pf.threshold.volts() - 0.936).abs() < 0.004);
    }

    #[test]
    fn fig4_linear_in_range_of_interest() {
        // "the characteristic has a linear behavior within the VDD-n range
        // of interest (0.9 V – 1.1 V)".
        let skew = pg().skew(code011(), &pvt());
        // Loads spanning thresholds 0.91–1.09 V (the in-range portion of
        // the Fig. 4 sweep).
        let loads: Vec<Capacitance> = (0..=20)
            .map(|i| Capacitance::from_pf(1.95 + 0.018 * i as f64))
            .collect();
        let points = sensitivity_characteristic(RailMode::Supply, skew, &pvt(), loads).unwrap();
        assert!(points
            .iter()
            .all(|p| (0.88..=1.12).contains(&p.threshold.volts())));
        let (slope, _, max_residual) = linear_fit(&points);
        assert!(slope > 0.0);
        assert!(
            max_residual < 0.008,
            "deviation from line {max_residual} V too large"
        );
    }

    #[test]
    fn fig5_characteristics_for_three_codes() {
        let a = array();
        let p = pg();
        let ch011 = array_characteristic(&a, &p, DelayCode::new(3).unwrap(), &pvt()).unwrap();
        let ch010 = array_characteristic(&a, &p, DelayCode::new(2).unwrap(), &pvt()).unwrap();
        let ch001 = array_characteristic(&a, &p, DelayCode::new(1).unwrap(), &pvt()).unwrap();
        // Paper numbers: 011 → 0.827–1.053 V, 010 → 0.951–1.237 V.
        assert!((ch011.range.0.volts() - 0.827).abs() < 0.003);
        assert!((ch011.range.1.volts() - 1.053).abs() < 0.003);
        assert!((ch010.range.0.volts() - 0.951).abs() < 0.004);
        assert!((ch010.range.1.volts() - 1.237).abs() < 0.025);
        // Smaller tap ⇒ higher window shortfall ⇒ ranges stack upward.
        assert!(ch001.range.0 > ch010.range.0);
        assert!(ch010.range.0 > ch011.range.0);
    }

    #[test]
    fn characteristic_thresholds_ascend_with_load() {
        let ch = array_characteristic(&array(), &pg(), code011(), &pvt()).unwrap();
        for w in ch.thresholds.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert_eq!(ch.skew, Time::from_ps(149.0));
        let mid = ch.midpoint();
        assert!(mid > ch.range.0 && mid < ch.range.1);
    }

    #[test]
    fn linear_fit_recovers_exact_line() {
        let pts: Vec<SensitivityPoint> = (0..10)
            .map(|i| SensitivityPoint {
                load: Capacitance::from_pf(1.0 + 0.1 * i as f64),
                threshold: Voltage::from_v(0.5 + 0.2 * (1.0 + 0.1 * i as f64)),
            })
            .collect();
        let (slope, intercept, residual) = linear_fit(&pts);
        assert!((slope - 0.2).abs() < 1e-9);
        assert!((intercept - 0.5).abs() < 1e-9);
        assert!(residual < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn linear_fit_needs_two_points() {
        linear_fit(&[SensitivityPoint {
            load: Capacitance::from_pf(1.0),
            threshold: Voltage::from_v(1.0),
        }]);
    }

    #[test]
    fn corner_shifts_characteristic() {
        // Process variation moves the whole characteristic — the effect
        // the delay-code trim compensates.
        let a = array();
        let p = pg();
        let tt = array_characteristic(&a, &p, code011(), &pvt()).unwrap();
        let ss_pvt = Pvt::new(
            ProcessCorner::SS,
            Voltage::from_v(1.0),
            Temperature::from_celsius(25.0),
        );
        let ss = array_characteristic(&a, &p, code011(), &ss_pvt).unwrap();
        let shift = (ss.midpoint() - tt.midpoint()).abs();
        assert!(
            shift > Voltage::from_mv(10.0),
            "corner should move the midpoint, got {shift}"
        );
    }

    #[test]
    fn trim_recovers_reference_characteristic() {
        let a = array();
        let p = pg();
        for corner in [ProcessCorner::SS, ProcessCorner::FF] {
            let corner_pvt = Pvt::new(
                corner,
                Voltage::from_v(1.0),
                Temperature::from_celsius(25.0),
            );
            let trim = trim_for_corner(
                &mut RunCtx::serial(),
                &a,
                &p,
                code011(),
                &pvt(),
                &corner_pvt,
            )
            .unwrap();
            assert!(
                trim.residual <= trim.untrimmed_residual,
                "{corner}: trim must not be worse than no trim"
            );
            // The trim is quantised by the PG tap granularity: adjacent
            // taps move the midpoint by up to ~170 mV near the short-tap
            // end, so the guaranteed residual bound is half that.
            assert!(
                trim.residual < Voltage::from_mv(95.0),
                "{corner}: residual {} too large",
                trim.residual
            );
        }
    }

    #[test]
    fn parallel_characteristic_and_trim_match_serial() {
        let a = array();
        let p = pg();
        let serial_ch = array_characteristic(&a, &p, code011(), &pvt()).unwrap();
        let ss_pvt = Pvt::new(
            ProcessCorner::SS,
            Voltage::from_v(1.0),
            Temperature::from_celsius(25.0),
        );
        let serial_trim =
            trim_for_corner(&mut RunCtx::serial(), &a, &p, code011(), &pvt(), &ss_pvt).unwrap();
        for jobs in [1usize, 2, 7] {
            let mut ctx = RunCtx::new(Engine::new(jobs));
            let ch = array_characteristic(&a, &p, code011(), &pvt()).unwrap();
            assert_eq!(ch, serial_ch, "jobs={jobs}");
            let trim = trim_for_corner(&mut ctx, &a, &p, code011(), &pvt(), &ss_pvt).unwrap();
            assert_eq!(trim, serial_trim, "jobs={jobs}");
        }
    }

    #[test]
    fn trim_at_reference_point_keeps_reference_code() {
        let trim = trim_for_corner(
            &mut RunCtx::serial(),
            &array(),
            &pg(),
            code011(),
            &pvt(),
            &pvt(),
        )
        .unwrap();
        assert_eq!(trim.code, code011());
        assert!(trim.residual < Voltage::from_mv(1.0));
    }
}
