//! The static transfer characteristic of the paper's 7-bit array, on
//! both rails, at every delay code and at the typical, slow and fast
//! corners — the flash-ADC "no missing codes" figures of merit:
//!
//! * the output level is monotone in the observed rail over a fine
//!   sweep (it never falls as `VDD-n` rises, never rises as the ground
//!   bounce rises) and visits every level from 0 to 7 — on the
//!   `measure` lookup and on the direct `measure_detailed` reference,
//!   whose monotonicity the lookup's exactness rests on (checked over
//!   the lookup's whole span);
//! * the per-element thresholds are strictly ordered, the ladder's
//!   differential non-linearity stays above −1 LSB and its integral
//!   non-linearity within ±1 LSB.

use psn_thermometer::analysis::adc_metrics::linearity;
use psn_thermometer::prelude::*;

/// Sweep points per (rail, code, corner) characteristic.
const SWEEP_POINTS: usize = 4001;

/// How far past the outermost thresholds each sweep runs, so both
/// saturated ends are exercised.
const SWEEP_MARGIN_V: f64 = 0.1;

/// Every (rail, corner, code) the characteristic is checked at: the
/// array at that operating point, with a label.
fn operating_points() -> Vec<(OperatingPoint, String)> {
    let pg = PulseGenerator::paper_table();
    let mut points = Vec::new();
    for mode in [RailMode::Supply, RailMode::Ground] {
        let array = ThermometerArray::paper(mode);
        for pvt in [Pvt::typical(), Pvt::slow(), Pvt::fast()] {
            for code in DelayCode::all() {
                let what = format!("{mode:?} {:?} code {}", pvt.corner, code.value());
                points.push((array.at(pg.skew(code, &pvt), &pvt).unwrap(), what));
            }
        }
    }
    points
}

/// How far past the outermost thresholds the reference sweep runs:
/// beyond the 0.5 V span (plus the 0.1 mV bracket half-width) over
/// which `OperatingPoint::measure` reads bits from its table instead
/// of the delay model.
const LOOKUP_SPAN_MARGIN_V: f64 = 0.6;

/// Sweeps `level_at` over `[lo, hi]`, asserts the level is monotone
/// in the rail observed in `mode`, and returns which levels it
/// visited.
fn sweep_levels(
    mode: RailMode,
    what: &str,
    (lo, hi): (f64, f64),
    level_at: impl Fn(Voltage) -> usize,
) -> [bool; 8] {
    let step = (hi - lo) / (SWEEP_POINTS - 1) as f64;
    let mut seen = [false; 8];
    let mut prev: Option<usize> = None;
    for i in 0..SWEEP_POINTS {
        let rail = Voltage::from_v(lo + step * i as f64);
        let level = level_at(rail);
        if let Some(p) = prev {
            match mode {
                RailMode::Supply => assert!(
                    level >= p,
                    "{what}: level fell {p} -> {level} as VDD rose to {rail}"
                ),
                RailMode::Ground => assert!(
                    level <= p,
                    "{what}: level rose {p} -> {level} as the bounce rose to {rail}"
                ),
            }
        }
        seen[level] = true;
        prev = Some(level);
    }
    seen
}

/// The rail span past the outermost thresholds by `margin` volts.
fn span(thresholds: &[Voltage], margin: f64) -> (f64, f64) {
    // The outermost thresholds are the first and last element's.
    let (first, last) = (thresholds[0].volts(), thresholds[6].volts());
    (first.min(last) - margin, first.max(last) + margin)
}

#[test]
fn level_is_monotone_in_the_rail_with_no_missing_codes() {
    let mut checked = 0usize;
    for (point, what) in operating_points() {
        let seen = sweep_levels(
            point.array().mode(),
            &what,
            span(point.thresholds(), SWEEP_MARGIN_V),
            |rail| point.measure(rail).level(),
        );
        assert!(seen.iter().all(|&s| s), "{what}: missing codes {seen:?}");
        checked += SWEEP_POINTS;
    }
    assert_eq!(checked, 2 * 3 * 8 * SWEEP_POINTS);
}

#[test]
fn reference_path_is_monotone_across_the_lookup_span() {
    for (point, what) in operating_points() {
        let (array, thresholds) = (point.array(), point.thresholds());
        let direct = |rail| array.measure_detailed(rail, point.skew(), point.pvt()).0;
        let seen = sweep_levels(
            array.mode(),
            &what,
            span(thresholds, SWEEP_MARGIN_V),
            |rail| direct(rail).level(),
        );
        assert!(seen.iter().all(|&s| s), "{what}: missing codes {seen:?}");
        sweep_levels(
            array.mode(),
            &what,
            span(thresholds, LOOKUP_SPAN_MARGIN_V),
            |rail| {
                let code = direct(rail);
                assert_eq!(point.measure(rail), code, "{what} at {rail}");
                code.level()
            },
        );
    }
}

#[test]
fn thresholds_are_strictly_ordered_with_dnl_above_minus_one_lsb() {
    for (point, what) in operating_points() {
        let thresholds = point.thresholds();
        assert_eq!(thresholds.len(), 7, "{what}");
        // HIGH-SENSE thresholds rise with element load; LOW-SENSE fall.
        let ordered = thresholds.windows(2).all(|w| match point.array().mode() {
            RailMode::Supply => w[1] > w[0],
            RailMode::Ground => w[1] < w[0],
        });
        assert!(ordered, "{what}: thresholds out of order {thresholds:?}");

        let mut ascending = thresholds.to_vec();
        ascending.sort_by(|a, b| a.volts().total_cmp(&b.volts()));
        let report = linearity(&ascending);
        for (i, &dnl) in report.dnl.iter().enumerate() {
            assert!(
                dnl > -1.0,
                "{what}: step {i} DNL {dnl} LSB (a missing code)"
            );
        }
    }
}

#[test]
fn inl_stays_within_one_lsb() {
    for (point, what) in operating_points() {
        let mut ascending = point.thresholds().to_vec();
        ascending.sort_by(|a, b| a.volts().total_cmp(&b.volts()));
        let report = linearity(&ascending);
        for (i, &inl) in report.inl.iter().enumerate() {
            assert!(inl.abs() < 1.0, "{what}: threshold {i} INL {inl} LSB");
        }
    }
}
