//! The engine's determinism contract, checked end to end: every
//! parallelized sweep is bit-identical at any worker count (jobs ∈
//! {1, 2, 7} here, including a worker count above the job count), and
//! attaching an observer to a parallel run never changes results.

use proptest::prelude::*;
use psn_thermometer::cells::units::Temperature;
use psn_thermometer::pdn::grid::PowerGrid;
use psn_thermometer::prelude::*;
use psn_thermometer::sensor::calibration::trim_for_corner;
use psn_thermometer::sensor::mismatch::{monte_carlo_yield, MismatchModel};

/// The worker counts every property is checked over. 1 is the inline
/// serial path, 2 the smallest real pool, 7 deliberately odd and (for
/// the small sweeps here) larger than the job count.
const JOBS: [usize; 3] = [1, 2, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A scan campaign over a corner-fed grid returns bit-identical
    /// site series and frames at any worker count, for any tile
    /// activity pattern.
    #[test]
    fn campaign_run_is_worker_count_invariant(
        active_tile in 0usize..9,
        idle in 0.01f64..0.1,
        burst in 0.2f64..0.9,
        samples in 2usize..5,
    ) {
        let grid = PowerGrid::corner_fed(
            3,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
        )
        .unwrap();
        let fp = Floorplan::new(grid, Placement::EveryTile).unwrap();
        let campaign = Campaign::new(fp, SensorConfig::default()).unwrap();
        let mut loads = vec![Waveform::constant(idle); 9];
        loads[active_tile] = Waveform::from_points(vec![
            (Time::ZERO, idle),
            (Time::from_ns(20.0), burst),
            (Time::from_ns(60.0), idle),
        ])
        .unwrap();

        let serial = campaign
            .run_resilient(
                &mut RunCtx::serial(),
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(25.0),
                samples,
                RetryPolicy::none(),
            )
            .unwrap()
            .result;
        for jobs in JOBS {
            let parallel = campaign
                .run_resilient(
                    &mut RunCtx::new(Engine::new(jobs)),
                    &loads,
                    None,
                    Time::from_ns(10.0),
                    Time::from_ns(25.0),
                    samples,
                    RetryPolicy::none(),
                )
                .unwrap()
                .result;
            prop_assert_eq!(&serial, &parallel, "campaign diverged at jobs={}", jobs);
        }
    }

    /// Monte-Carlo yield uses one seed-split RNG stream per trial, so
    /// the report is bit-identical at any worker count for any seed,
    /// trial count and mismatch magnitude.
    #[test]
    fn monte_carlo_yield_is_worker_count_invariant(
        seed in any::<u64>(),
        n in 1usize..40,
        sigma_scale in 0.25f64..2.0,
    ) {
        let array = ThermometerArray::paper(RailMode::Supply);
        let model = MismatchModel::local_90nm().scaled(sigma_scale);
        let pvt = Pvt::typical();
        let skew = Time::from_ps(149.0);

        let serial = monte_carlo_yield(
            &mut RunCtx::serial().with_seed(seed),
            &array,
            skew,
            &pvt,
            &model,
            n,
        )
        .unwrap();
        for jobs in JOBS {
            let parallel = monte_carlo_yield(
                &mut RunCtx::new(Engine::new(jobs)).with_seed(seed),
                &array,
                skew,
                &pvt,
                &model,
                n,
            )
            .unwrap();
            prop_assert_eq!(&serial, &parallel, "yield diverged at jobs={}", jobs);
        }
    }

    /// The corner trim characterises every delay code on the context's
    /// engine and folds the results in code order, so it picks the
    /// same code at any worker count, for every reference code.
    #[test]
    fn trim_for_corner_is_worker_count_invariant(code_bits in 0u8..=7, corner in 0usize..3) {
        let array = ThermometerArray::paper(RailMode::Supply);
        let pg = PulseGenerator::paper_table();
        let code = DelayCode::new(code_bits).unwrap();
        let reference = Pvt::typical();
        let process = [ProcessCorner::SS, ProcessCorner::FF, ProcessCorner::TT][corner];
        let pvt = Pvt::new(process, Voltage::from_v(1.0), Temperature::from_celsius(25.0));

        let serial =
            trim_for_corner(&mut RunCtx::serial(), &array, &pg, code, &reference, &pvt).unwrap();
        for jobs in JOBS {
            let parallel = trim_for_corner(
                &mut RunCtx::new(Engine::new(jobs)),
                &array,
                &pg,
                code,
                &reference,
                &pvt,
            )
            .unwrap();
            prop_assert_eq!(&serial, &parallel, "trim diverged at jobs={}", jobs);
        }
    }

    /// Attaching an observer to a parallel campaign is purely passive:
    /// results equal the unobserved serial run, and the merged metrics
    /// count each site exactly once regardless of worker count.
    #[test]
    fn parallel_observer_is_passive_and_merged_once(
        jobs_ix in 0usize..3,
        idle in 0.01f64..0.1,
    ) {
        let jobs = JOBS[jobs_ix];
        let grid = PowerGrid::corner_fed(
            2,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
        )
        .unwrap();
        let fp = Floorplan::new(grid, Placement::EveryTile).unwrap();
        let campaign = Campaign::new(fp, SensorConfig::default()).unwrap();
        let loads = vec![Waveform::constant(idle); 4];

        let plain = campaign
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
        let mut obs = Observer::ring(256);
        let observed = campaign
            .run_resilient(
                &mut RunCtx::new(Engine::new(jobs)).with_observer(&mut obs),
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                3,
                RetryPolicy::none(),
            )
            .unwrap()
            .result;

        prop_assert_eq!(&plain, &observed);
        prop_assert_eq!(obs.metrics.counter_value("campaign.sites_done"), 4);
        prop_assert_eq!(obs.metrics.counter_value("engine.jobs_done"), 4);
    }
}

/// Masks what legitimately varies with the worker count: wall times
/// and worker tracks on spans, the pool-size gauge, and the pool's
/// chunk-claim counter (its claim granularity scales with the pool).
fn normalized(lines: Vec<String>) -> Vec<String> {
    const CLAIMS: &str = "\"engine.chunks_claimed\":";
    lines
        .into_iter()
        .map(|l| {
            let mut l = psn_thermometer::obs::mask_wall_times(&l)
                .replace("\"engine.workers\":1.0", "\"engine.workers\":\"<jobs>\"")
                .replace("\"engine.workers\":4.0", "\"engine.workers\":\"<jobs>\"");
            if let Some(at) = l.find(CLAIMS).map(|i| i + CLAIMS.len()) {
                let digits = l[at..].bytes().take_while(u8::is_ascii_digit).count();
                l.replace_range(at..at + digits, "\"<claims>\"");
            }
            l
        })
        .collect()
}

/// An observed resilient campaign with one panicking site emits a
/// record-for-record identical telemetry stream — spans, site and
/// degraded events, metrics — at jobs 1 and 4, once wall times, worker
/// tracks and the pool-size gauge are masked.
#[test]
fn degraded_campaign_telemetry_is_worker_count_invariant() {
    let grid = PowerGrid::corner_fed(
        3,
        Voltage::from_v(1.05),
        Resistance::from_milliohms(60.0),
        Resistance::from_milliohms(20.0),
    )
    .unwrap();
    let fp = Floorplan::new(grid, Placement::EveryTile).unwrap();
    let campaign = Campaign::new(fp, SensorConfig::default()).unwrap();
    let mut loads = vec![Waveform::constant(0.05); 9];
    loads[4] = Waveform::constant(0.8);

    let mut runs = Vec::new();
    for jobs in [1usize, 4] {
        let mut obs = Observer::ring(1024);
        let mut ctx = RunCtx::new(Engine::new(jobs))
            .with_fault_plan(FaultPlan::new().with(Fault::SitePanic { site: 2 }))
            .with_observer(&mut obs);
        let result = campaign
            .run_resilient(
                &mut ctx,
                &loads,
                None,
                Time::from_ns(10.0),
                Time::from_ns(20.0),
                3,
                RetryPolicy::none(),
            )
            .unwrap();
        drop(ctx);
        obs.finish();
        assert_eq!(result.summary.sites_degraded, 1);
        let lines = normalized(obs.ring_lines().unwrap());
        assert!(
            lines.iter().any(|l| l.contains("\"degraded\"")),
            "no degraded event"
        );
        runs.push((result, lines));
    }
    assert_eq!(runs[0].0, runs[1].0, "results diverged across jobs");
    assert_eq!(runs[0].1, runs[1].1, "telemetry diverged across jobs");
}
