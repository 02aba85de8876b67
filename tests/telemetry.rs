//! Telemetry integration: the observer never changes simulation
//! results, streams are well-formed JSON-Lines, and the serializable
//! result types round-trip.

use proptest::prelude::*;
use psn_thermometer::netlist::sim::SimStats;
use psn_thermometer::obs::{Observer, RunManifest};
use psn_thermometer::pdn::grid::PowerGrid;
use psn_thermometer::pdn::sources::supply_step;
use psn_thermometer::prelude::*;
use psn_thermometer::sensor::encoder::EncodingPolicy;
use serde::{json, Serialize, Value};

fn config(hs: u8, ls: u8, truncate: bool) -> SensorConfig {
    SensorConfig {
        hs_code: DelayCode::new(hs).unwrap(),
        ls_code: DelayCode::new(ls).unwrap(),
        encoding: if truncate {
            EncodingPolicy::Truncate
        } else {
            EncodingPolicy::BubbleCorrect
        },
        ..SensorConfig::default()
    }
}

proptest! {
    /// Attaching an observer is purely passive: the measurement
    /// sequence is identical with and without one, for any sensor
    /// configuration and supply step.
    #[test]
    fn observer_never_changes_measurements(
        hs in 0u8..=7,
        ls in 0u8..=7,
        truncate in any::<bool>(),
        v0_mv in 960.0f64..1040.0,
        v1_mv in 860.0f64..1000.0,
    ) {
        let vdd = supply_step(
            Voltage::from_mv(v0_mv),
            Voltage::from_mv(v1_mv),
            Time::from_ns(15.0),
            Time::from_us(1.0),
        )
        .unwrap();
        let gnd = Waveform::constant(0.0);

        let mut plain = SensorSystem::new(config(hs, ls, truncate)).unwrap();
        let expected = plain
            .run(&mut RunCtx::serial(), &vdd, &gnd, Time::ZERO, 3)
            .unwrap();

        let mut obs = Observer::ring(256);
        let mut observed_sys = SensorSystem::new(config(hs, ls, truncate)).unwrap();
        let observed = observed_sys
            .run(
                &mut RunCtx::serial().with_observer(&mut obs),
                &vdd,
                &gnd,
                Time::ZERO,
                3,
            )
            .unwrap();

        prop_assert_eq!(&expected, &observed);
        // And the observer did actually see the run.
        prop_assert_eq!(
            obs.metrics.counter_value("sensor.measures"),
            observed.len() as u64
        );
    }
}

/// A full observed run produces a parseable JSON-Lines stream framed by
/// a manifest and a metrics snapshot, with the FSM walk in between.
#[test]
fn observed_run_streams_well_formed_jsonl() {
    let mut obs = Observer::ring(512);
    obs.manifest(
        &RunManifest::new("telemetry-test")
            .delay_codes(3, 3)
            .pvt("Typical"),
    );
    let vdd = supply_step(
        Voltage::from_v(1.0),
        Voltage::from_v(0.9),
        Time::from_ns(15.0),
        Time::from_us(1.0),
    )
    .unwrap();
    let mut system = SensorSystem::new(SensorConfig::default()).unwrap();
    system
        .run(
            &mut RunCtx::serial().with_observer(&mut obs),
            &vdd,
            &Waveform::constant(0.0),
            Time::ZERO,
            2,
        )
        .unwrap();
    obs.finish();

    let lines = obs.ring_lines().unwrap();
    let records: Vec<Value> = lines.iter().map(|l| json::parse(l).unwrap()).collect();
    let kind = |v: &Value| v.get("type").and_then(Value::as_str).unwrap().to_string();
    assert_eq!(kind(&records[0]), "manifest");
    assert_eq!(kind(records.last().unwrap()), "metrics");
    let transitions: Vec<(String, String)> = records
        .iter()
        .filter(|r| kind(r) == "event" && r.get("subsystem").and_then(Value::as_str) == Some("fsm"))
        .map(|r| {
            (
                r.get("from").and_then(Value::as_str).unwrap().to_string(),
                r.get("to").and_then(Value::as_str).unwrap().to_string(),
            )
        })
        .collect();
    // Every phase of the paper's FSM walk appears at least once.
    for expected in [
        ("Idle", "Ready"),
        ("Ready", "Prepare0"),
        ("Prepare0", "Prepare"),
        ("Prepare", "Sense0"),
        ("Sense0", "Sense"),
        ("Sense", "Ready"),
    ] {
        assert!(
            transitions
                .iter()
                .any(|(f, t)| (f.as_str(), t.as_str()) == expected),
            "missing transition {expected:?} in {transitions:?}"
        );
    }
}

fn roundtrip<T>(value: &T) -> T
where
    T: Serialize + serde::Deserialize,
{
    json::from_str(&json::to_string(value)).unwrap()
}

#[test]
fn sim_stats_roundtrip() {
    let stats = SimStats {
        events: 12_345,
        cancelled: 67,
        ff_captures: 89,
        ff_violations: 1,
    };
    assert_eq!(roundtrip(&stats), stats);
}

#[test]
fn measurement_roundtrip() {
    let system = SensorSystem::new(SensorConfig::default()).unwrap();
    let m = system
        .measure_at(
            &Waveform::constant(0.94),
            &Waveform::constant(0.02),
            Time::from_ns(10.0),
        )
        .unwrap();
    assert_eq!(roundtrip(&m), m);
}

#[test]
fn campaign_result_roundtrip() {
    let grid = PowerGrid::corner_fed(
        2,
        Voltage::from_v(1.05),
        Resistance::from_milliohms(60.0),
        Resistance::from_milliohms(20.0),
    )
    .unwrap();
    let fp = Floorplan::new(grid, Placement::EveryTile).unwrap();
    let campaign = Campaign::new(fp, SensorConfig::default()).unwrap();
    let loads = vec![Waveform::constant(0.2); 4];
    let result = campaign
        .run_resilient(
            &mut RunCtx::serial(),
            &loads,
            None,
            Time::from_ns(10.0),
            Time::from_ns(20.0),
            3,
            RetryPolicy::none(),
        )
        .unwrap()
        .result;
    assert_eq!(roundtrip(&result), result);
}
