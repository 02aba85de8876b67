//! Physics-to-readout integration: workloads drive the RLC package
//! model, the resulting waveform feeds the sensor, and the decoded
//! measurements are checked against the simulation's ground truth.

use psn_thermometer::analysis::reconstruct::score_series;
use psn_thermometer::analysis::spectrum::dominant_frequency;
use psn_thermometer::pdn::rlc::LumpedPdn;
use psn_thermometer::pdn::workload::resonant_loop;
use psn_thermometer::prelude::*;
use psn_thermometer::sensor::baseline::{RazorOutcome, RazorStage, RingOscillatorSensor};
use rand::{Rng, SeedableRng};

/// Full chain: bursty workload → RLC transient → sensor series → decoded
/// intervals contain the true (window-averaged) voltage.
#[test]
fn workload_to_decoded_voltage_roundtrip() {
    let pdn = LumpedPdn::typical_90nm_package();
    let span = Time::from_us(1.0);
    let load = WorkloadBuilder::new(Current::from_a(0.6))
        .span(Time::ZERO, span)
        .resolution(Time::from_ps(500.0))
        .burst(
            Time::from_ns(300.0),
            Time::from_ns(80.0),
            Current::from_a(2.4),
        )
        .build()
        .unwrap();
    let vdd = pdn
        .transient(&mut RunCtx::serial(), &load, Time::from_ps(200.0), span)
        .unwrap();
    let gnd = Waveform::constant(0.0);

    let sensor = SensorSystem::new(SensorConfig::default()).unwrap();
    let skew = sensor
        .pulse_generator()
        .skew(sensor.config().hs_code, &sensor.config().pvt);
    let measures: Vec<_> = (0..60)
        .map(|k| {
            sensor
                .measure_at(
                    &vdd,
                    &gnd,
                    Time::from_ns(50.0) + Time::from_ns(14.0) * k as f64,
                )
                .unwrap()
        })
        .collect();
    let report = score_series(&measures, &vdd, skew);
    assert_eq!(report.total, 60);
    // Decoding is interval-exact for every resolvable sample.
    assert_eq!(report.hits, report.total);
    assert!(report.resolved > 40, "most samples should resolve in-range");
    assert!(report.rmse < 0.02, "rmse {} V", report.rmse);
}

/// The burst droop must actually be *seen*: the worst decoded voltage
/// drops below the pre-burst steady level by roughly the analytic
/// droop magnitude.
#[test]
fn droop_depth_matches_pdn_analytics() {
    let pdn = LumpedPdn::typical_90nm_package();
    let span = Time::from_us(1.0);
    let di = 1.8;
    let load = WorkloadBuilder::new(Current::from_a(0.5))
        .span(Time::ZERO, span)
        .resolution(Time::from_ps(500.0))
        .burst(
            Time::from_ns(400.0),
            Time::from_ns(100.0),
            Current::from_a(0.5 + di),
        )
        .build()
        .unwrap();
    let vdd = pdn
        .transient(&mut RunCtx::serial(), &load, Time::from_ps(200.0), span)
        .unwrap();
    let sensor = SensorSystem::new(SensorConfig::default()).unwrap();
    let gnd = Waveform::constant(0.0);

    let mut worst = Voltage::from_v(2.0);
    for k in 0..120 {
        let at = Time::from_ns(300.0) + Time::from_ns(3.0) * k as f64;
        let m = sensor.measure_at(&vdd, &gnd, at).unwrap();
        if let Some(mid) = m.hs_interval.midpoint() {
            worst = worst.min(mid);
        }
    }
    let steady = pdn.steady_state(Current::from_a(0.5)).volts();
    let droop_seen = steady - worst.volts();
    let droop_expected = pdn.characteristic_impedance().ohms() * di;
    assert!(
        droop_seen > 0.5 * droop_expected,
        "sensor saw only {droop_seen:.3} V of a ~{droop_expected:.3} V droop"
    );
    assert!(
        droop_seen < 1.6 * droop_expected,
        "sensor exaggerated the droop: {droop_seen:.3} V vs {droop_expected:.3} V"
    );
}

/// The paper's comparison, end to end: on the same physical waveforms,
/// the ring oscillator cannot tell a VDD droop from a GND bounce while
/// the thermometer's HS/LS pair can; Razor misses everything while the
/// pipeline idles.
#[test]
fn baselines_compared_on_shared_waveforms() {
    let pvt = Pvt::typical();
    let sensor = SensorSystem::new(SensorConfig::default()).unwrap();
    let ro = RingOscillatorSensor::paper_31_stage();
    let razor = RazorStage::typical_pipeline();
    let window = Time::from_us(1.0);

    let droop = (Waveform::constant(0.95), Waveform::constant(0.0));
    let bounce = (Waveform::constant(1.0), Waveform::constant(0.05));

    // Ring oscillator: identical counts.
    let c_droop = ro.count(&droop.0, &droop.1, Time::ZERO, window, &pvt);
    let c_bounce = ro.count(&bounce.0, &bounce.1, Time::ZERO, window, &pvt);
    assert_eq!(c_droop, c_bounce);

    // Thermometer: different signatures.
    let m_droop = sensor
        .measure_at(&droop.0, &droop.1, Time::from_ns(10.0))
        .unwrap();
    let m_bounce = sensor
        .measure_at(&bounce.0, &bounce.1, Time::from_ns(10.0))
        .unwrap();
    assert_ne!(
        (m_droop.hs_code.clone(), m_droop.ls_code.clone()),
        (m_bounce.hs_code.clone(), m_bounce.ls_code.clone())
    );
    assert!(m_droop.hs_word.level < m_bounce.hs_word.level);
    assert!(m_droop.ls_word.level > m_bounce.ls_word.level);

    // Razor: blind while idle, regardless of a supply well below the
    // pipeline's minimum.
    let vmin = razor.min_supply(Time::from_ns(2.0));
    let deep = vmin - Voltage::from_mv(50.0);
    assert_eq!(
        razor.evaluate(deep, false, Time::from_ns(2.0)),
        RazorOutcome::NotExercised
    );
    // The thermometer reads the same rail unconditionally.
    let m = sensor
        .measure_at(
            &Waveform::constant(deep.volts()),
            &Waveform::constant(0.0),
            Time::from_ns(10.0),
        )
        .unwrap();
    assert!(m.hs_word.level < 7);
}

/// A resonant workload tuned to the package tank produces a visible
/// oscillation in the measurement series (level spread > 1 code).
#[test]
fn resonant_workload_oscillates_the_readout() {
    let pdn = LumpedPdn::typical_90nm_package();
    let span = Time::from_us(2.0);
    let load = resonant_loop(
        Current::from_a(0.3),
        Current::from_a(2.2),
        pdn.resonance_frequency(),
        span,
        9,
    )
    .unwrap();
    let vdd = pdn
        .transient(&mut RunCtx::serial(), &load, Time::from_ps(200.0), span)
        .unwrap();
    let sensor = SensorSystem::new(SensorConfig::default()).unwrap();
    let gnd = Waveform::constant(0.0);
    let levels: Vec<usize> = (0..100)
        .map(|k| {
            sensor
                .measure_at(
                    &vdd,
                    &gnd,
                    Time::from_ns(500.0) + Time::from_ns(7.0) * k as f64,
                )
                .unwrap()
                .hs_word
                .level
        })
        .collect();
    let min = levels.iter().min().unwrap();
    let max = levels.iter().max().unwrap();
    assert!(
        max - min >= 2,
        "resonance should spread the codes, got {min}..{max}"
    );
}

/// The full measurement record implements the common traits the
/// guidelines require (Serialize via derive; Debug is checked here).
#[test]
fn measurement_implements_common_traits() {
    fn assert_serialize<T: serde::Serialize>(_: &T) {}
    let sensor = SensorSystem::new(SensorConfig::default()).unwrap();
    let m = sensor
        .measure_at(
            &Waveform::constant(0.95),
            &Waveform::constant(0.0),
            Time::from_ns(10.0),
        )
        .unwrap();
    assert_serialize(&m);
    let text = format!("{m:?}");
    assert!(text.contains("hs_code"));
    assert_eq!(m.clone(), m);
}

/// End-to-end spectral identification: a resonant workload's frequency
/// is recovered from decoded sensor samples to within 2 %.
#[test]
fn resonance_identified_from_sensor_samples() {
    let pdn = LumpedPdn::new(
        Voltage::from_v(0.95),
        Resistance::from_milliohms(5.0),
        psn_thermometer::cells::units::Inductance::from_ph(100.0),
        Capacitance::from_nf(100.0),
    )
    .unwrap();
    let f_true = pdn.resonance_frequency();
    let span = Time::from_us(8.0);
    let load = resonant_loop(Current::from_a(0.3), Current::from_a(0.9), f_true, span, 3).unwrap();
    let vdd = pdn
        .transient(&mut RunCtx::serial(), &load, Time::from_ps(200.0), span)
        .unwrap();
    let gnd = Waveform::constant(0.0);
    let sensor = SensorSystem::new(SensorConfig::default()).unwrap();

    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let mut samples = Vec::new();
    let mut t = Time::from_ns(400.0);
    while t < span - Time::from_ns(10.0) {
        let m = sensor.measure_at(&vdd, &gnd, t).unwrap();
        if let Some(v) = m.hs_interval.midpoint() {
            samples.push((t, v.volts()));
        }
        t += Time::from_ns(17.0 + rng.gen_range(0.0..12.0));
    }
    assert!(samples.len() > 200, "too few resolved samples");
    let (f_est, amp) = dominant_frequency(
        &samples,
        Frequency::from_mhz(10.0),
        Frequency::from_mhz(200.0),
        200,
    )
    .unwrap();
    let rel = (f_est.hertz() - f_true.hertz()).abs() / f_true.hertz();
    assert!(
        rel < 0.02,
        "estimated {:.3e} vs true {:.3e}",
        f_est.hertz(),
        f_true.hertz()
    );
    assert!(amp > 0.03, "implausibly small identified amplitude {amp}");
}
