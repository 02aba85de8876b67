//! Stepper-equivalence contract: the batch entry points are thin
//! drivers over the cycle-stepped co-simulation core, and the refactor
//! is only allowed to exist because it is *indistinguishable* from the
//! fused loops it replaced:
//!
//! (a) a neutral [`CycleStepper`] reproduces the batch
//!     [`ActivityTrace`] cycle-for-cycle and is worker-count
//!     independent, for any traffic pattern and seed;
//! (b) `NocWorkload::run_streamed` (a stepper driver) returns
//!     bit-identical campaigns — records, summary, noise profile — with
//!     record-for-record identical telemetry (wall times masked) at
//!     jobs ∈ {1, 2, 4};
//! (c) the open-loop `run_mitigated(None)` profile equals the batch
//!     profile bit-for-bit;
//! (d) a `SitePanic` degrading one mid-loop control frame never
//!     desyncs the closed loop: same frame stream, same profile, same
//!     actuation trace as the healthy run;
//! (e) the one-pass [`CycleStepper::scan`] equals the three passes it
//!     fused (hotspot, Σ voltages, Σ loads) bit for bit, boost overlay
//!     included, and a driven run's window statistics equal the
//!     three-pass fold of the same cycles.

use proptest::prelude::*;
use psn_thermometer::control::{Actuation, ControlFrame, Mitigator};
use psn_thermometer::fault::Fault;
use psn_thermometer::prelude::*;
use psn_thermometer::workload::{ActivityTrace, CycleStepper};

/// The worker counts the equivalence contract is pinned at.
const JOBS: [usize; 3] = [1, 2, 4];

/// Masks wall-clock span times and worker tracks so two telemetry
/// streams of the same work compare record-for-record. This suite
/// compares runs at *different* worker counts, so the `engine.workers`
/// gauge, which names the worker count, is masked too.
fn normalized(lines: Vec<String>) -> Vec<String> {
    lines
        .into_iter()
        .map(|l| {
            psn_thermometer::obs::mask_wall_times(&l)
                .replace("\"engine.workers\":1.0", "\"engine.workers\":\"<jobs>\"")
                .replace("\"engine.workers\":2.0", "\"engine.workers\":\"<jobs>\"")
                .replace("\"engine.workers\":4.0", "\"engine.workers\":\"<jobs>\"")
        })
        .collect()
}

/// A small chip with the traffic pattern swapped in by each test.
fn chip(pattern: TrafficPattern, cycles: usize) -> NocWorkload {
    let mut cfg = NocWorkloadConfig::small_2x2();
    cfg.pattern = pattern;
    cfg.cycles = cycles;
    cfg.measure_every = cycles / 3;
    NocWorkload::new(cfg).unwrap()
}

fn pattern_from_draw(kind: u8, rate: f64) -> TrafficPattern {
    match kind % 3 {
        0 => TrafficPattern::Uniform {
            injection_rate: rate,
        },
        1 => TrafficPattern::Bursty {
            injection_rate: rate,
            on_cycles: 5,
            off_cycles: 7,
        },
        _ => TrafficPattern::GaussianLinks {
            mean_rate: rate,
            sigma: 0.1,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (a) Neutral stepper ≡ batch activity trace, at jobs ∈ {1, 2, 4}:
    /// identical per-cycle switching counts, flit totals, and event
    /// totals, for any pattern and seed.
    #[test]
    fn neutral_stepper_matches_batch_activity(
        seed in any::<u64>(),
        kind in any::<u8>(),
        rate in 0.1f64..0.9,
        cycles in 12usize..36,
    ) {
        let pattern = pattern_from_draw(kind, rate);
        let w = chip(pattern.clone(), cycles);
        let mut traces = Vec::new();
        for jobs in JOBS {
            let mut ctx = RunCtx::new(Engine::new(jobs)).with_seed(seed);
            let trace =
                ActivityTrace::generate(&mut ctx, w.mesh(), &pattern, cycles).unwrap();
            let mut sctx = RunCtx::new(Engine::new(jobs)).with_seed(seed);
            let mut stepper = CycleStepper::new(&w, &mut sctx).unwrap();
            let mut events = 0u64;
            for c in 0..cycles {
                stepper.step().unwrap();
                prop_assert_eq!(
                    stepper.raw_counts(),
                    trace.cycle_counts(c),
                    "stepper diverged from the trace at cycle {} (jobs {})",
                    c,
                    jobs
                );
                events += stepper.raw_counts().iter().map(|&x| u64::from(x)).sum::<u64>();
            }
            prop_assert_eq!(stepper.planned_flits(), trace.flits());
            prop_assert_eq!(stepper.spawned_flits(), trace.flits());
            prop_assert_eq!(events, trace.total_events());
            traces.push(trace);
        }
        for trace in &traces[1..] {
            prop_assert_eq!(&traces[0], trace, "trace depends on worker count");
        }
    }

    /// (b) + (c) The stepper-driven batch path: bit-identical campaign
    /// results and record-identical telemetry at jobs ∈ {1, 2, 4}, and an
    /// open-loop mitigated run whose noise profile equals the batch
    /// profile bit-for-bit.
    #[test]
    fn batch_driver_results_and_telemetry_are_job_independent(
        seed in any::<u64>(),
        kind in any::<u8>(),
        rate in 0.1f64..0.8,
    ) {
        let w = chip(pattern_from_draw(kind, rate), 30);
        let mut runs = Vec::new();
        for jobs in JOBS {
            let mut obs = Observer::ring(8192);
            let mut ctx = RunCtx::new(Engine::new(jobs))
                .with_seed(seed)
                .with_observer(&mut obs);
            let mut records = Vec::new();
            let out = w
                .run_streamed(&mut ctx, RetryPolicy::none(), |r| {
                    records.push(r);
                    Ok(())
                })
                .unwrap();
            drop(ctx);
            obs.finish();
            runs.push((out, records, normalized(obs.ring_lines().unwrap())));
        }
        let (ref a, ref a_records, ref a_tel) = runs[0];
        for (b, b_records, b_tel) in &runs[1..] {
            prop_assert_eq!(a, b, "campaign diverged across jobs");
            prop_assert_eq!(a_records, b_records, "records diverged across jobs");
            prop_assert_eq!(a_tel, b_tel, "telemetry diverged across jobs");
        }

        let open = w
            .run_mitigated(&mut RunCtx::new(Engine::new(4)).with_seed(seed), None, 0)
            .unwrap();
        prop_assert_eq!(&open.profile, &a.profile, "open loop diverged from batch");
        prop_assert_eq!(open.engaged_cycles, 0);
    }
}

/// The window statistics a neutral stepped run folds, each cycle
/// scanned in three separate passes: `(min_v, worst_node, mean_v,
/// mean_current, events)` per window.
fn three_pass_windows(w: &NocWorkload, seed: u64) -> Vec<(f64, usize, f64, f64, u64)> {
    let cfg = w.config();
    let me = cfg.measure_every;
    let mut stepper = CycleStepper::new(w, &mut RunCtx::serial().with_seed(seed)).unwrap();
    let mut windows = vec![(f64::INFINITY, 0, 0.0, 0.0, 0); cfg.cycles / me];
    for c in 0..cfg.cycles {
        stepper.step().unwrap();
        if let Some(win) = windows.get_mut(c / me) {
            let (node, v_min) = stepper.hotspot();
            if v_min < win.0 {
                (win.0, win.1) = (v_min, node);
            }
            let v = stepper.voltages();
            win.2 += v.iter().sum::<f64>() / (v.len() as f64 * me as f64);
            win.3 += stepper.solution().loads().iter().sum::<f64>() / me as f64;
            win.4 += stepper
                .raw_counts()
                .iter()
                .map(|&x| u64::from(x))
                .sum::<u64>();
        }
    }
    windows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (e) Fused scan ≡ three passes, cycle by cycle with a boost
    /// switched on and off mid-run, and driven window statistics ≡
    /// the three-pass fold.
    #[test]
    fn fused_window_statistics_match_three_passes(
        seed in any::<u64>(),
        kind in any::<u8>(),
        rate in 0.1f64..0.8,
    ) {
        let w = chip(pattern_from_draw(kind, rate), 30);
        let tiles = w.mesh().tiles();
        let mut stepper =
            CycleStepper::new(&w, &mut RunCtx::serial().with_seed(seed)).unwrap();
        for c in 0..30 {
            if c == 10 {
                let mut act = Actuation::neutral(tiles);
                act.set_boost(1, 0.02);
                stepper.apply(&act).unwrap();
            }
            if c == 20 {
                stepper.apply(&Actuation::neutral(tiles)).unwrap();
            }
            stepper.step().unwrap();
            let scan = stepper.scan();
            let (node, v_min) = stepper.hotspot();
            let v_sum = stepper.voltages().iter().sum::<f64>();
            let load_sum = stepper.solution().loads().iter().sum::<f64>();
            prop_assert_eq!(scan.hotspot.0, node, "cycle {}", c);
            prop_assert_eq!(scan.hotspot.1.to_bits(), v_min.to_bits(), "cycle {}", c);
            prop_assert_eq!(scan.voltage_sum.to_bits(), v_sum.to_bits(), "cycle {}", c);
            prop_assert_eq!(scan.load_sum.to_bits(), load_sum.to_bits(), "cycle {}", c);
        }

        let open = w
            .run_mitigated(&mut RunCtx::serial().with_seed(seed), None, 0)
            .unwrap();
        let folded = three_pass_windows(&w, seed);
        prop_assert_eq!(open.profile.windows.len(), folded.len());
        for (win, &(min_v, worst, mean_v, mean_i, events)) in
            open.profile.windows.iter().zip(&folded)
        {
            prop_assert_eq!(win.min_v.to_bits(), min_v.to_bits());
            prop_assert_eq!(win.worst_node, worst);
            prop_assert_eq!(win.mean_v.to_bits(), mean_v.to_bits());
            prop_assert_eq!(win.mean_current.to_bits(), mean_i.to_bits());
            prop_assert_eq!(win.events, events);
        }
    }
}

/// Observes every delayed frame, actuates nothing: the probe the
/// desync case uses to watch the loop's frame stream.
struct Probe {
    frames: usize,
    degraded: usize,
}

impl Mitigator for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn observe(&mut self, frame: &ControlFrame, _act: &mut Actuation) {
        self.frames += 1;
        if frame.readings.iter().any(|r| r.level.is_none()) {
            self.degraded += 1;
        }
    }
}

/// (d) `SitePanic` knocks one site's reading out of exactly one
/// mid-loop control frame; the loop keeps its 1:1 cycle↔frame mapping
/// and the run stays bit-identical to the healthy one.
#[test]
fn site_panic_mid_loop_never_desyncs_the_stepper() {
    let mut cfg = NocWorkloadConfig::small_2x2();
    cfg.v_pad = Voltage::from_v(1.0);
    cfg.cycles = 48;
    cfg.measure_every = 16;
    let w = NocWorkload::new(cfg).unwrap();

    for jobs in JOBS {
        let mut healthy_probe = Probe {
            frames: 0,
            degraded: 0,
        };
        let healthy = w
            .run_mitigated(
                &mut RunCtx::new(Engine::new(jobs)).with_seed(41),
                Some(&mut healthy_probe),
                3,
            )
            .unwrap();

        let mut faulted_probe = Probe {
            frames: 0,
            degraded: 0,
        };
        let mut ctx = RunCtx::new(Engine::new(jobs))
            .with_seed(41)
            .with_fault_plan(FaultPlan::new().with(Fault::SitePanic { site: 2 }));
        let faulted = w
            .run_mitigated(&mut ctx, Some(&mut faulted_probe), 3)
            .unwrap();

        assert_eq!(faulted.degraded_readings, 1, "jobs {jobs}");
        assert_eq!(healthy.degraded_readings, 0, "jobs {jobs}");
        assert_eq!(faulted_probe.frames, 48 - 3, "jobs {jobs}");
        assert_eq!(faulted_probe.frames, healthy_probe.frames, "jobs {jobs}");
        assert_eq!(faulted_probe.degraded, 1, "jobs {jobs}");
        assert_eq!(faulted.profile, healthy.profile, "desync at jobs {jobs}");
        assert_eq!(faulted.droop_trace, healthy.droop_trace, "jobs {jobs}");
        assert_eq!(
            faulted.actuation_trace, healthy.actuation_trace,
            "jobs {jobs}"
        );
    }
}
