//! The static transfer characteristic of the paper's 7-bit array, on
//! both rails, at every delay code and at the typical, slow and fast
//! corners — the flash-ADC "no missing codes" figures of merit:
//!
//! * the output level is monotone in the observed rail over a fine
//!   sweep (it never falls as `VDD-n` rises, never rises as the ground
//!   bounce rises) and visits every level from 0 to 7;
//! * the per-element thresholds are strictly ordered, and the ladder's
//!   differential non-linearity stays above −1 LSB.

use psn_thermometer::analysis::adc_metrics::linearity;
use psn_thermometer::prelude::*;

/// Sweep points per (rail, code, corner) characteristic.
const SWEEP_POINTS: usize = 4001;

/// How far past the outermost thresholds each sweep runs, so both
/// saturated ends are exercised.
const SWEEP_MARGIN_V: f64 = 0.1;

/// Every (rail, corner, code) the characteristic is checked at, with
/// the array, the P→CP skew and the element thresholds.
fn operating_points() -> Vec<(ThermometerArray, Pvt, DelayCode, Time, Vec<Voltage>)> {
    let pg = PulseGenerator::paper_table();
    let mut points = Vec::new();
    for mode in [RailMode::Supply, RailMode::Ground] {
        for pvt in [Pvt::typical(), Pvt::slow(), Pvt::fast()] {
            for code in DelayCode::all() {
                let array = ThermometerArray::paper(mode);
                let skew = pg.skew(code, &pvt);
                let thresholds = array.thresholds(skew, &pvt).unwrap();
                points.push((array, pvt, code, skew, thresholds));
            }
        }
    }
    points
}

#[test]
fn level_is_monotone_in_the_rail_with_no_missing_codes() {
    let mut checked = 0usize;
    for (array, pvt, code, skew, thresholds) in operating_points() {
        let what = format!("{:?} {:?} code {}", array.mode(), pvt.corner, code.value());
        // The outermost thresholds are the first and last element's.
        let (first, last) = (thresholds[0].volts(), thresholds[6].volts());
        let lo = first.min(last) - SWEEP_MARGIN_V;
        let hi = first.max(last) + SWEEP_MARGIN_V;
        let step = (hi - lo) / (SWEEP_POINTS - 1) as f64;
        let mut seen = [false; 8];
        let mut prev: Option<usize> = None;
        for i in 0..SWEEP_POINTS {
            let rail = Voltage::from_v(lo + step * i as f64);
            let level = array.measure(rail, skew, &pvt).level();
            if let Some(p) = prev {
                match array.mode() {
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
            checked += 1;
        }
        assert!(seen.iter().all(|&s| s), "{what}: missing codes {seen:?}");
    }
    assert_eq!(checked, 2 * 3 * 8 * SWEEP_POINTS);
}

#[test]
fn thresholds_are_strictly_ordered_with_dnl_above_minus_one_lsb() {
    for (array, pvt, code, _, thresholds) in operating_points() {
        let what = format!("{:?} {:?} code {}", array.mode(), pvt.corner, code.value());
        assert_eq!(thresholds.len(), 7, "{what}");
        // HIGH-SENSE thresholds rise with element load; LOW-SENSE fall.
        let ordered = thresholds.windows(2).all(|w| match array.mode() {
            RailMode::Supply => w[1] > w[0],
            RailMode::Ground => w[1] < w[0],
        });
        assert!(ordered, "{what}: thresholds out of order {thresholds:?}");

        let mut ascending = thresholds.clone();
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
