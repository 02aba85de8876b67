//! End-to-end checks of every headline number in the paper, through the
//! facade crate's public API. These are the acceptance tests of the
//! reproduction; `EXPERIMENTS.md` cites them.

use psn_thermometer::prelude::*;
use psn_thermometer::sensor::calibration::{array_characteristic, sensitivity_characteristic};
use psn_thermometer::sensor::element::RailMode;

fn pvt() -> Pvt {
    Pvt::typical()
}

fn pg() -> PulseGenerator {
    PulseGenerator::paper_table()
}

#[test]
fn tab1_delay_code_table_matches_exactly() {
    let expected_ps = [26.0, 40.0, 50.0, 65.0, 77.0, 92.0, 100.0, 107.0];
    for (i, &e) in expected_ps.iter().enumerate() {
        let code = DelayCode::new(i as u8).unwrap();
        assert_eq!(pg().cp_delay(code).picoseconds(), e, "code {code}");
    }
}

#[test]
fn fig4_threshold_at_2pf_is_0_936v() {
    let skew = pg().skew(DelayCode::new(3).unwrap(), &pvt());
    let points =
        sensitivity_characteristic(RailMode::Supply, skew, &pvt(), [Capacitance::from_pf(2.0)])
            .unwrap();
    let t = points[0].threshold.volts();
    assert!(
        (t - 0.9360).abs() < 0.004,
        "threshold {t} vs paper 0.9360 V"
    );
}

#[test]
fn fig4_linear_within_range_of_interest() {
    let skew = pg().skew(DelayCode::new(3).unwrap(), &pvt());
    let loads: Vec<Capacitance> = (0..=15)
        .map(|i| Capacitance::from_pf(1.95 + 0.024 * i as f64))
        .collect();
    let points = sensitivity_characteristic(RailMode::Supply, skew, &pvt(), loads).unwrap();
    let (slope, _, residual) = psn_thermometer::sensor::calibration::linear_fit(&points);
    assert!(slope > 0.0);
    assert!(residual < 0.01, "max residual {residual} V");
}

#[test]
fn fig5_dynamic_ranges_match_paper() {
    let array = ThermometerArray::paper(RailMode::Supply);
    let mut ctx = RunCtx::serial();
    let ch011 =
        array_characteristic(&mut ctx, &array, &pg(), DelayCode::new(3).unwrap(), &pvt()).unwrap();
    let ch010 =
        array_characteristic(&mut ctx, &array, &pg(), DelayCode::new(2).unwrap(), &pvt()).unwrap();
    // Paper: code 011 → 0.827 V (all errors) … 1.053 V (no errors).
    assert!((ch011.range.0.volts() - 0.827).abs() < 0.003);
    assert!((ch011.range.1.volts() - 1.053).abs() < 0.003);
    // Paper: code 010 → 0.951 … 1.237 V (shape: within 2 %).
    assert!((ch010.range.0.volts() - 0.951).abs() < 0.005);
    assert!((ch010.range.1.volts() - 1.237).abs() / 1.237 < 0.02);
}

#[test]
fn fig5_code_boundaries_match_paper() {
    let skew = pg().skew(DelayCode::new(3).unwrap(), &pvt());
    let point = ThermometerArray::paper(RailMode::Supply)
        .at(skew, &pvt())
        .unwrap();
    let code: ThermometerCode = "0011111".parse().unwrap();
    let interval = point.decode(&code).unwrap();
    assert!((interval.lower.unwrap().volts() - 0.992).abs() < 0.003);
    assert!((interval.upper.unwrap().volts() - 1.021).abs() < 0.003);
}

#[test]
fn fig9_full_system_sequence() {
    let mut sensor = SensorSystem::new(SensorConfig::default()).unwrap();
    let vdd = supply_step(
        Voltage::from_v(1.0),
        Voltage::from_v(0.9),
        Time::from_ns(15.0),
        Time::from_us(1.0),
    )
    .unwrap();
    let measures = sensor
        .run(
            &mut RunCtx::serial(),
            &vdd,
            &Waveform::constant(0.0),
            Time::ZERO,
            2,
        )
        .unwrap();
    assert_eq!(sensor.hs_prepare_code().to_string(), "0000000");
    assert_eq!(measures[0].hs_code.to_string(), "0011111");
    assert_eq!(measures[1].hs_code.to_string(), "0000011");
    // "The measures are thus reflecting the two 'input' noise values."
    assert!(measures[0].hs_interval.contains(Voltage::from_v(1.0)));
    assert!(measures[1].hs_interval.contains(Voltage::from_v(0.9)));
}

#[test]
fn critical_path_in_the_1_22ns_regime() {
    use psn_thermometer::netlist::sta::{analyze, StaConfig};
    use psn_thermometer::sensor::control::{build_control_netlist, CtrlNetlistConfig};
    let netlist = build_control_netlist(&CtrlNetlistConfig::default());
    let report = analyze(&netlist, &StaConfig::default()).unwrap();
    let ns = report.critical_delay().nanoseconds();
    assert!(
        (1.0..1.45).contains(&ns),
        "critical path {ns} ns vs paper 1.22 ns"
    );
    // "It can work with most of the typical CUTs system clock": meets 2 ns.
    assert!(report.meets_timing());
}

#[test]
fn overvoltage_measurable_with_code_010() {
    // Paper: "also overvoltages can be measured then if interesting".
    let mut sensor = SensorSystem::new(SensorConfig::default()).unwrap();
    sensor
        .set_delay_codes(DelayCode::new(2).unwrap(), DelayCode::new(3).unwrap())
        .unwrap();
    let m = sensor
        .measure_at(
            &Waveform::constant(1.15),
            &Waveform::constant(0.0),
            Time::from_ns(10.0),
        )
        .unwrap();
    assert!(!m.hs_word.overflow && !m.hs_word.underflow);
    assert!(m.hs_interval.contains(Voltage::from_v(1.15)));
}

#[test]
fn ground_rail_measured_independently_of_supply() {
    // The HS/LS separation claim of §III-B.
    let sensor = SensorSystem::new(SensorConfig::default()).unwrap();
    let quiet = sensor
        .measure_at(
            &Waveform::constant(1.0),
            &Waveform::constant(0.0),
            Time::from_ns(10.0),
        )
        .unwrap();
    let bounce = sensor
        .measure_at(
            &Waveform::constant(1.0),
            &Waveform::constant(0.07),
            Time::from_ns(10.0),
        )
        .unwrap();
    assert_eq!(
        quiet.hs_code, bounce.hs_code,
        "HS must not react to GND bounce"
    );
    assert!(bounce.ls_word.level < quiet.ls_word.level, "LS must react");
}
