//! Trace-tree well-formedness: for any campaign configuration at
//! jobs ∈ {1, 4}, the observer's span records form a single rooted
//! tree whose wall-clock and sim-time intervals nest inside their
//! parents, with per-track monotone start times — and detaching the
//! observer never changes the campaign's results (observer passivity).

use std::collections::HashMap;

use proptest::prelude::*;
use psn_thermometer::obs::SpanRecord;
use psn_thermometer::pdn::grid::PowerGrid;
use psn_thermometer::prelude::*;
use psn_thermometer::scan::campaign::ResilientCampaignResult;

/// The worker counts the tracing contract is pinned at.
const JOBS: [usize; 2] = [1, 4];

fn small_campaign() -> Campaign {
    let grid = PowerGrid::corner_fed(
        2,
        Voltage::from_v(1.05),
        Resistance::from_milliohms(60.0),
        Resistance::from_milliohms(20.0),
    )
    .unwrap();
    let fp = Floorplan::new(grid, Placement::EveryTile).unwrap();
    Campaign::new(fp, SensorConfig::default()).unwrap()
}

/// Asserts every structural invariant of a recorded span forest.
fn assert_well_formed(records: &[SpanRecord]) {
    assert!(!records.is_empty(), "no spans recorded");
    let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    assert_eq!(by_id.len(), records.len(), "span ids are not unique");

    for r in records {
        // Every parent id refers to a recorded span, and intervals
        // nest: a child runs within its parent's wall-clock window and
        // (when both declare one) within its sim-time interval.
        let Some(pid) = r.parent else { continue };
        let parent = by_id
            .get(&pid)
            .unwrap_or_else(|| panic!("span {} ({}) has unknown parent {pid}", r.id, r.name));
        let eps = 1e-3; // µs slack for f64 rounding of clock reads
        assert!(
            r.wall_start_us >= parent.wall_start_us - eps
                && r.wall_start_us + r.wall_us <= parent.wall_start_us + parent.wall_us + eps,
            "span {} [{};{}µs] escapes parent {} [{};{}µs]",
            r.name,
            r.wall_start_us,
            r.wall_us,
            parent.name,
            parent.wall_start_us,
            parent.wall_us,
        );
        if let (Some(t0), Some(t1), Some(p0), Some(p1)) =
            (r.sim_t0_ps, r.sim_t1_ps, parent.sim_t0_ps, parent.sim_t1_ps)
        {
            assert!(
                t0 >= p0 && t1 <= p1,
                "span {} sim [{t0};{t1}] escapes parent {} sim [{p0};{p1}]",
                r.name,
                parent.name,
            );
        }
    }

    // Per track (thread lane), start times ascend in id order: the
    // observer opens its own spans in id order, and a worker claims
    // its jobs in ascending index order, which is also the remote
    // trees' emission (id-assignment) order. Records themselves stream
    // in span-END order, so sort each lane by id first.
    let mut tracks: HashMap<u32, Vec<&SpanRecord>> = HashMap::new();
    for r in records {
        tracks.entry(r.track).or_default().push(r);
    }
    for (track, mut lane) in tracks {
        lane.sort_by_key(|r| r.id);
        for pair in lane.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                b.wall_start_us >= a.wall_start_us - 1e-3,
                "span {} (id {}) on track {track} starts at {} before its predecessor {} (id {}) at {}",
                b.name,
                b.id,
                b.wall_start_us,
                a.name,
                a.id,
                a.wall_start_us,
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `run_resilient`'s trace is a well-formed campaign → grid_solve /
    /// measure_sweep → site → measure tree for any load level, sample
    /// count and worker count — and the traced results are
    /// bit-identical to a detached (no-observer) run.
    #[test]
    fn campaign_trace_tree_is_well_formed(
        jobs_ix in 0usize..2,
        idle in 0.01f64..0.2,
        samples in 2usize..5,
    ) {
        let jobs = JOBS[jobs_ix];
        let campaign = small_campaign();
        let loads = vec![Waveform::constant(idle); 4];
        let (start, dt) = (Time::from_ns(10.0), Time::from_ns(20.0));

        let mut obs = Observer::null();
        let observed = campaign
            .run_resilient(
                &mut RunCtx::new(Engine::new(jobs)).with_observer(&mut obs),
                &loads,
                None,
                start,
                dt,
                samples,
                RetryPolicy::none(),
            )
            .unwrap()
            .result;
        obs.finish();
        let records = obs.trace_records();
        assert_well_formed(records);

        // The expected shape: one campaign root owning everything.
        let count = |n: &str| records.iter().filter(|r| r.name == n).count();
        prop_assert_eq!(count("campaign"), 1);
        prop_assert_eq!(count("grid_solve"), 1);
        prop_assert_eq!(count("measure_sweep"), 1);
        prop_assert_eq!(count("site"), 4);
        prop_assert_eq!(count("measure"), 4 * samples);
        let root = records.iter().find(|r| r.name == "campaign").unwrap();
        prop_assert!(root.parent.is_none());

        // Observer passivity: the detached run returns the same bits.
        let detached = campaign
            .run_resilient(
                &mut RunCtx::new(Engine::new(jobs)),
                &loads,
                None,
                start,
                dt,
                samples,
                RetryPolicy::none(),
            )
            .unwrap()
            .result;
        prop_assert_eq!(&observed, &detached, "observer changed results at jobs={}", jobs);
    }

    /// The resilient run's trace stays well-formed when sites panic
    /// and retry, and degraded sites simply contribute no site span.
    #[test]
    fn resilient_trace_tree_survives_site_faults(
        jobs_ix in 0usize..2,
        bad_site in 0usize..4,
    ) {
        let jobs = JOBS[jobs_ix];
        let campaign = small_campaign();
        let loads = vec![Waveform::constant(0.05); 4];
        let (start, dt) = (Time::from_ns(10.0), Time::from_ns(20.0));
        let plan = FaultPlan::new().with(Fault::SitePanic { site: bad_site });

        let run = |observer: Option<&mut Observer>| -> ResilientCampaignResult {
            let mut ctx = RunCtx::new(Engine::new(jobs)).with_observer_opt(observer);
            ctx.set_fault_plan(Some(plan.clone()));
            campaign
                .run_resilient(
                    &mut ctx,
                    &loads,
                    None,
                    start,
                    dt,
                    2,
                    psn_thermometer::engine::RetryPolicy::none(),
                )
                .unwrap()
        };

        let mut obs = Observer::null();
        let observed = run(Some(&mut obs));
        obs.finish();
        let records = obs.trace_records();
        assert_well_formed(records);
        // The panicked site degrades without a span; the other three
        // sites trace normally.
        prop_assert_eq!(observed.summary.sites_degraded, 1);
        prop_assert_eq!(records.iter().filter(|r| r.name == "site").count(), 3);

        let detached = run(None);
        prop_assert_eq!(&observed, &detached, "observer changed resilient results");
    }
}
