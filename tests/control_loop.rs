//! Closed-loop stability contract of the droop-mitigation layer.
//!
//! The experiment's claim is only meaningful if the loop is *stable*:
//! a controller that limit-cycles (engage → reading recovers → release
//! → droop returns → engage, every few cycles) would trade worst-case
//! droop for a self-inflicted oscillation. These tests pin, at every
//! code-distribution latency in 0..=8:
//!
//! * bounded actuation toggling — neutral↔engaged transitions stay
//!   bounded by the traffic's burst edges, never one per few cycles;
//! * stretch never deepens the droop — scaling activity down can only
//!   lower per-cycle switching counts, so the mitigated droop trace is
//!   cycle-for-cycle no deeper than the open loop's;
//! * determinism — closed-loop runs with the same seed and latency
//!   produce bit-identical droop and actuation traces at one, two and
//!   four workers, where from latency 1 up the loop is pipelined.
//!
//! The same vocabulary is the sensor's minimal alarm: a one-domain
//! threshold controller behind a one-frame delay line trips on a deep
//! transient and clears after it passes.

use proptest::prelude::*;
use psn_thermometer::control::{
    ControlFrame, DelayLine, PiBoost, SiteReading, SupplyBoost, ThresholdStretch, ThresholdThrottle,
};
use psn_thermometer::prelude::*;

/// A bursty chip inside the sensor's dynamic range: 2×2 mesh, 1.0 V
/// rails, heavy per-flit current so the thermometer levels track the
/// bursts.
fn bursty_chip() -> NocWorkload {
    let mut cfg = NocWorkloadConfig::small_2x2();
    cfg.v_pad = Voltage::from_v(1.0);
    cfg.flit_current = Current::from_ma(40.0);
    cfg.pattern = TrafficPattern::Bursty {
        injection_rate: 0.9,
        on_cycles: 12,
        off_cycles: 18,
    };
    cfg.cycles = 150;
    cfg.measure_every = 30;
    NocWorkload::new(cfg).unwrap()
}

/// Worst-case count of burst edges over the run: each of the 4 tiles
/// turns on and off once per 30-cycle period over 150 cycles. A
/// well-damped controller toggles global neutral↔engaged at most once
/// per edge; a limit-cycling one toggles every few cycles (~75).
const BURST_EDGE_BOUND: usize = 4 * (150 / 30) * 2;

#[test]
fn every_policy_is_stable_at_every_latency() {
    let w = bursty_chip();
    let base = w
        .run_mitigated(&mut RunCtx::serial().with_seed(2009), None, 0)
        .unwrap();
    assert!(base.worst_droop > 0.0, "chip must actually droop");

    for latency in 0..=8usize {
        let arms: Vec<Box<dyn psn_thermometer::control::Mitigator>> = vec![
            Box::new(ThresholdStretch::new(4, 4, 5, 0.25).unwrap().with_hold(16)),
            Box::new(ThresholdThrottle::new(4, 4, 5).unwrap().with_hold(16)),
            Box::new(
                SupplyBoost::new(4, 4, 5, Voltage::from_v(0.06))
                    .unwrap()
                    .with_hold(16),
            ),
            Box::new(PiBoost::new(4, 5.0, 0.02, 0.01).unwrap()),
        ];
        for mut arm in arms {
            let out = w
                .run_mitigated(
                    &mut RunCtx::serial().with_seed(2009),
                    Some(arm.as_mut()),
                    latency,
                )
                .unwrap();
            assert!(
                out.actuation_toggles() <= BURST_EDGE_BOUND,
                "{} limit-cycled at latency {}: {} toggles (bound {})",
                out.policy,
                latency,
                out.actuation_toggles(),
                BURST_EDGE_BOUND
            );
            assert_eq!(out.latency, latency);
            assert_eq!(out.droop_trace.len(), 150);
        }
    }
}

#[test]
fn stretch_never_deepens_any_cycle() {
    // Stretching scales effective switching counts down
    // (⌊count·scale⌋ ≤ count) without touching flight progress, so the
    // mitigated chip can never droop deeper than the open loop at any
    // cycle — at any latency.
    let w = bursty_chip();
    let base = w
        .run_mitigated(&mut RunCtx::serial().with_seed(2009), None, 0)
        .unwrap();
    for latency in 0..=8usize {
        let mut arm = ThresholdStretch::new(4, 4, 5, 0.25).unwrap().with_hold(16);
        let out = w
            .run_mitigated(
                &mut RunCtx::serial().with_seed(2009),
                Some(&mut arm),
                latency,
            )
            .unwrap();
        for (c, (m, b)) in out.droop_trace.iter().zip(&base.droop_trace).enumerate() {
            assert!(
                m <= &(b + 1e-12),
                "stretch deepened cycle {c} at latency {latency}: {m} > {b}"
            );
        }
        assert!(out.worst_droop <= base.worst_droop + 1e-12);
    }
}

/// The alarm trips during a deep transient and clears after it passes.
/// The one-frame delay line holds the trip back: a reading at or below
/// level 2 engages the throttle one sample later, which keeps the trip
/// after the 300 ns droop onset.
#[test]
fn alarm_tracks_a_transient() {
    let sensor = SensorSystem::new(SensorConfig::default()).unwrap();
    let gnd = Waveform::constant(0.0);
    let vdd = SupplyNoiseBuilder::new(Voltage::from_v(1.0))
        .span(Time::ZERO, Time::from_us(1.0))
        .resolution(Time::from_ps(250.0))
        .droop(
            Time::from_ns(300.0),
            Voltage::from_mv(120.0),
            Time::from_ns(60.0),
            Frequency::from_mhz(3.0),
        )
        .build()
        .unwrap();
    let mut alarm = ThresholdThrottle::new(1, 2, 3).unwrap();
    let mut line = DelayLine::new(1);
    let mut act = Actuation::neutral(1);
    let mut trips = 0;
    let mut trip_time = None;
    let mut clear_time = None;
    for k in 0..90 {
        let at = Time::from_ns(20.0) + Time::from_ns(10.0) * k as f64;
        let m = sensor.measure_at(&vdd, &gnd, at).unwrap();
        let was = act.throttled(0);
        let frame = ControlFrame {
            cycle: k,
            readings: vec![SiteReading {
                domain: 0,
                level: Some(m.hs_word.level),
            }],
        };
        if let Some(sensed) = line.push(frame) {
            alarm.observe(&sensed, &mut act);
        }
        let now = act.throttled(0);
        if !was && now {
            trips += 1;
            if trip_time.is_none() {
                trip_time = Some(at);
            }
        }
        if was && !now {
            clear_time = Some(at);
        }
    }
    let trip = trip_time.expect("the 120 mV droop must trip the alarm");
    let clear = clear_time.expect("the alarm must clear after recovery");
    assert!(
        trip > Time::from_ns(300.0),
        "tripped before the droop: {trip}"
    );
    assert!(trip < Time::from_ns(450.0), "tripped too late: {trip}");
    assert!(clear > trip);
    assert_eq!(trips, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Closed-loop determinism: same seed + latency → bit-identical
    /// droop and actuation traces, at jobs ∈ {1, 2, 4} (inline, and at
    /// latency ≥ 1 pipelined with a solver thread) and for any latency
    /// in the swept range.
    #[test]
    fn closed_loop_runs_are_deterministic(
        seed in any::<u64>(),
        latency in 0usize..=8,
    ) {
        let w = bursty_chip();
        let mut runs = Vec::new();
        for jobs in [1usize, 2, 4] {
            let mut arm = SupplyBoost::new(4, 4, 5, Voltage::from_v(0.06))
                .unwrap()
                .with_hold(16);
            let out = w
                .run_mitigated(
                    &mut RunCtx::new(Engine::new(jobs)).with_seed(seed),
                    Some(&mut arm),
                    latency,
                )
                .unwrap();
            runs.push(out);
        }
        let bits = |t: &[f64]| t.iter().map(|d| d.to_bits()).collect::<Vec<_>>();
        for run in &runs[1..] {
            prop_assert_eq!(
                bits(&runs[0].droop_trace),
                bits(&run.droop_trace),
                "droop trace diverged across worker counts"
            );
            prop_assert_eq!(&runs[0].actuation_trace, &run.actuation_trace);
            prop_assert_eq!(&runs[0], run);
        }
    }
}
