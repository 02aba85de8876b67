//! Micro-benchmarks of the hot kernels underneath the experiments:
//! element measurement, array measurement, PDN transients, grid solve,
//! event-driven simulation and STA.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use psnt_cells::process::Pvt;
use psnt_cells::units::{Capacitance, Resistance, Time, Voltage};
use psnt_core::control::{build_control_netlist, CtrlNetlistConfig};
use psnt_core::element::{RailMode, SenseElement};
use psnt_core::thermometer::ThermometerArray;
use psnt_ctx::RunCtx;
use psnt_netlist::sim::Simulator;
use psnt_netlist::sta::{analyze, StaConfig};
use psnt_pdn::grid::PowerGrid;
use psnt_pdn::rlc::LumpedPdn;
use psnt_pdn::waveform::Waveform;

fn bench_kernels(c: &mut Criterion) {
    let pvt = Pvt::typical();
    let skew = Time::from_ps(149.0);

    c.bench_function("mismatch_monte_carlo_50", |b| {
        use psnt_core::element::RailMode;
        use psnt_core::mismatch::{monte_carlo_yield, MismatchModel};
        let array = ThermometerArray::paper(RailMode::Supply);
        let model = MismatchModel::local_90nm();
        let mut ctx = RunCtx::serial().with_seed(1);
        b.iter(|| monte_carlo_yield(&mut ctx, &array, skew, &pvt, &model, 50).unwrap())
    });

    // The PR-8 headline pair: 3,200 trials scalar (one bisection per
    // element per trial) vs batched (64 trials per word through the
    // lockstep lane kernel). Equal statistics — identical per-lane RNG
    // streams and bit-identical reports — so the ratio is pure kernel
    // speedup (target ≥10×, recorded in BENCH_PR8.json).
    c.bench_function("mismatch_monte_carlo_3200_scalar", |b| {
        use psnt_core::mismatch::{monte_carlo_yield_scalar, MismatchModel};
        let array = ThermometerArray::paper(RailMode::Supply);
        let model = MismatchModel::local_90nm();
        let mut ctx = RunCtx::serial().with_seed(1);
        b.iter(|| monte_carlo_yield_scalar(&mut ctx, &array, skew, &pvt, &model, 3200).unwrap())
    });

    c.bench_function("mismatch_monte_carlo_3200_batched", |b| {
        use psnt_core::mismatch::{monte_carlo_yield, MismatchModel};
        let array = ThermometerArray::paper(RailMode::Supply);
        let model = MismatchModel::local_90nm();
        let mut ctx = RunCtx::serial().with_seed(1);
        b.iter(|| monte_carlo_yield(&mut ctx, &array, skew, &pvt, &model, 3200).unwrap())
    });

    // The event-kernel half of the PR-8 pair: one 64-lane batched
    // PREPARE/SENSE measure carrying 64 distinct fault plans, vs the
    // same 64 plans installed and measured serially on the pooled
    // scalar simulator. Per-lane results are bit-identical (pinned by
    // `tests/batch_equiv.rs`), so the ratio is pure kernel speedup.
    let fault_plans_64 = || {
        use psnt_cells::logic::Logic;
        use psnt_fault::{Fault, FaultPlan};
        let mut plans = Vec::with_capacity(64);
        for i in 0..7 {
            for value in [Logic::Zero, Logic::One] {
                plans.push(FaultPlan::new().with(Fault::stuck_at(format!("inv{i}.out"), value)));
                plans.push(FaultPlan::new().with(Fault::stuck_at(format!("ff{i}.q"), value)));
            }
        }
        for i in 0..7 {
            for factor in [0.5, 1.5, 2.0, 3.0] {
                plans.push(FaultPlan::new().with(Fault::delay_scale(format!("inv{i}"), factor)));
            }
        }
        plans.push(FaultPlan::new().with(Fault::stuck_at("P", Logic::Zero)));
        plans.push(FaultPlan::new().with(Fault::stuck_at("P", Logic::One)));
        plans.push(FaultPlan::new().with(Fault::stuck_at("CP", Logic::Zero)));
        plans.push(FaultPlan::new().with(Fault::stuck_at("CP", Logic::One)));
        for i in 0..4 {
            plans.push(
                FaultPlan::new().with(Fault::bit_upset(format!("ff{i}"), Time::from_ns(6.0))),
            );
        }
        assert_eq!(plans.len(), 64);
        plans
    };

    c.bench_function("batch_gate_eval_64_scalar", |b| {
        use psnt_core::gate_level::GateLevelArray;
        let array = GateLevelArray::paper().unwrap();
        let plans = fault_plans_64();
        let mut ctx = RunCtx::serial();
        b.iter(|| {
            for plan in &plans {
                ctx.set_fault_plan(Some(plan.clone()));
                array
                    .measure_detailed(&mut ctx, Voltage::from_v(0.96), skew)
                    .unwrap();
            }
            ctx.set_fault_plan(None);
        })
    });

    c.bench_function("batch_gate_eval_64", |b| {
        use psnt_core::gate_level::GateLevelArray;
        let array = GateLevelArray::paper().unwrap();
        let plans = fault_plans_64();
        let mut ctx = RunCtx::serial();
        b.iter(|| {
            array
                .measure_batch(&mut ctx, Voltage::from_v(0.96), skew, &plans)
                .unwrap()
        })
    });

    c.bench_function("spectrum_dominant_400pts", |b| {
        use psnt_analysis::spectrum::dominant_frequency;
        use psnt_cells::units::Frequency;
        let samples: Vec<(Time, f64)> = (0..400)
            .map(|k| {
                let t = Time::from_ns(23.0 * k as f64);
                (
                    t,
                    0.94 + 0.03 * (std::f64::consts::TAU * 5.0e7 * t.seconds()).sin(),
                )
            })
            .collect();
        b.iter(|| {
            dominant_frequency(
                &samples,
                Frequency::from_mhz(10.0),
                Frequency::from_mhz(200.0),
                200,
            )
            .unwrap()
        })
    });

    c.bench_function("gate_level_system_measure", |b| {
        use psnt_core::gate_level::GateLevelSystem;
        use psnt_core::pulsegen::DelayCode;
        let sys = GateLevelSystem::paper().unwrap();
        let code = DelayCode::new(3).unwrap();
        // A fresh context per iteration: the pool rebuilds the
        // simulator every measure.
        b.iter(|| {
            sys.run_measures(&mut RunCtx::serial(), code, &[Voltage::from_v(1.0)])
                .unwrap()
        })
    });

    // The reusable-simulator counterpart: identical work, but the
    // simulator (topology, delay cache, buffers) survives across
    // measures via reset() instead of being rebuilt.
    c.bench_function("gate_level_system_measure_reused", |b| {
        use psnt_core::gate_level::GateLevelSystem;
        use psnt_core::pulsegen::DelayCode;
        let sys = GateLevelSystem::paper().unwrap();
        let code = DelayCode::new(3).unwrap();
        // One long-lived context: its pool keeps the simulator alive
        // across iterations via reset().
        let mut ctx = RunCtx::serial();
        b.iter(|| {
            sys.run_measures(&mut ctx, code, &[Voltage::from_v(1.0)])
                .unwrap()
        })
    });

    // Fresh-construction vs reset() on the bare array twin: a 7-point
    // rail sweep, one simulator per point…
    c.bench_function("gate_level_sweep_7pt_fresh", |b| {
        use psnt_core::gate_level::GateLevelArray;
        let gate = GateLevelArray::paper().unwrap();
        b.iter(|| {
            for mv in (820..=1060).step_by(40) {
                gate.measure(
                    &mut RunCtx::serial(),
                    Voltage::from_mv(mv as f64 + 3.0),
                    skew,
                )
                .unwrap();
            }
        })
    });

    // …vs one simulator reset per point.
    c.bench_function("gate_level_sweep_7pt_reused", |b| {
        use psnt_core::gate_level::GateLevelArray;
        let gate = GateLevelArray::paper().unwrap();
        let mut ctx = RunCtx::serial();
        b.iter(|| {
            for mv in (820..=1060).step_by(40) {
                gate.measure(&mut ctx, Voltage::from_mv(mv as f64 + 3.0), skew)
                    .unwrap();
            }
        })
    });

    // Repeat decodes at one operating point: the threshold memo removes
    // the seven bisection searches behind each decode after the first.
    c.bench_function("array_decode_memoised", |b| {
        let a = ThermometerArray::paper(RailMode::Supply);
        let code = a.measure(Voltage::from_v(0.97), skew, &pvt);
        b.iter(|| a.decode(std::hint::black_box(&code), skew, &pvt).unwrap())
    });

    c.bench_function("element_measure", |b| {
        let e = SenseElement::paper(Capacitance::from_pf(2.0), RailMode::Supply);
        b.iter(|| e.measure(std::hint::black_box(Voltage::from_v(0.97)), skew, &pvt))
    });

    c.bench_function("array_measure_7bit", |b| {
        let a = ThermometerArray::paper(RailMode::Supply);
        b.iter(|| a.measure(std::hint::black_box(Voltage::from_v(0.97)), skew, &pvt))
    });

    c.bench_function("element_threshold_bisection", |b| {
        let e = SenseElement::paper(Capacitance::from_pf(2.0), RailMode::Supply);
        b.iter(|| e.threshold(skew, &pvt).unwrap())
    });

    c.bench_function("rlc_transient_400ns", |b| {
        let pdn = LumpedPdn::typical_90nm_package();
        let load = Waveform::from_points(vec![
            (Time::ZERO, 0.5),
            (Time::from_ns(100.0), 0.5),
            (Time::from_ns(100.1), 2.0),
        ])
        .unwrap();
        let mut ctx = RunCtx::serial();
        b.iter(|| {
            pdn.transient(&mut ctx, &load, Time::from_ps(200.0), Time::from_ns(400.0))
                .unwrap()
        })
    });

    c.bench_function("grid_solve_8x8", |b| {
        let grid = PowerGrid::corner_fed(
            8,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(40.0),
            Resistance::from_milliohms(10.0),
        )
        .unwrap();
        let loads = vec![0.05f64; 64];
        b.iter(|| grid.solve(&loads).unwrap())
    });

    // The workload-scale grid (40×40 = 1,600 nodes). The next four
    // benches pin the sparse-solver story: factor once, then per-cycle
    // solves orders of magnitude below a relaxation sweep.
    let chip_grid = || {
        PowerGrid::new(
            40,
            40,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
            vec![(0, 0), (0, 39), (39, 0), (39, 39)],
        )
        .unwrap()
    };
    let chip_loads: Vec<f64> = (0..1600).map(|i| 1.0e-4 * (1 + i % 7) as f64).collect();

    c.bench_function("grid_factor_1600", |b| {
        // A fresh grid per iteration so the lazily cached banded
        // Cholesky factor is actually rebuilt.
        b.iter(|| chip_grid().factor().bandwidth())
    });

    c.bench_function("grid_solve_dense_1600", |b| {
        let grid = chip_grid();
        b.iter(|| grid.solve(&chip_loads).unwrap())
    });

    c.bench_function("grid_solve_sparse_1600", |b| {
        let grid = chip_grid();
        grid.factor(); // amortised once, like a campaign does
        b.iter(|| grid.solve_sparse(&chip_loads).unwrap())
    });

    c.bench_function("grid_solve_delta_1600", |b| {
        let grid = chip_grid();
        let prior = grid.solve_sparse(&chip_loads).unwrap();
        // One 5×5 mesh-tile block (the per-cycle workload shape).
        let changed: Vec<(usize, f64)> = (0..5)
            .flat_map(|r| (0..5).map(move |c| ((20 + r) * 40 + 20 + c, 2.5e-4)))
            .collect();
        b.iter(|| grid.solve_delta(&prior, &changed).unwrap())
    });

    // The delta shape the NoC campaign actually issues: 48 of the 64
    // 5×5 tile blocks change (the campaign averages ~48 changed tiles
    // per cycle), including block 0, so the forward pass starts at
    // node 0 and the solve costs what a full one does.
    c.bench_function("grid_solve_delta_1600_48blocks", |b| {
        let grid = chip_grid();
        let prior = grid.solve_sparse(&chip_loads).unwrap();
        let changed: Vec<(usize, f64)> = (0..64)
            .filter(|blk| blk % 4 != 3)
            .flat_map(|blk: usize| {
                let (br, bc) = (blk / 8, blk % 8);
                let load = 1.0e-4 * (2 + blk % 5) as f64;
                (0..25).map(move |q| ((br * 5 + q / 5) * 40 + bc * 5 + q % 5, load))
            })
            .collect();
        b.iter(|| grid.solve_delta(&prior, &changed).unwrap())
    });

    // One `CycleStepper::step` of the reference 8×8-mesh chip (uniform
    // traffic, 40×40 grid): activity, current map, the in-place delta
    // update and the boost check. The run rewinds to cycle 1 (past the
    // cycle-0 full solve) whenever it reaches the planned horizon, so
    // every timed step is an in-horizon cycle.
    c.bench_function("stepper_step_8x8", |b| {
        use psnt_workload::stepper::CycleStepper;
        use psnt_workload::{NocWorkload, NocWorkloadConfig};
        let workload = NocWorkload::new(NocWorkloadConfig::chip_8x8()).unwrap();
        let horizon = workload.config().cycles;
        let mut stepper =
            CycleStepper::new(&workload, &mut RunCtx::serial().with_seed(2009)).unwrap();
        stepper.step().unwrap();
        let start = stepper.snapshot();
        b.iter(|| {
            if stepper.cycle() == horizon {
                stepper.restore(&start).unwrap();
            }
            stepper.step().unwrap()
        })
    });

    // Quasi-static transient over 20 steps; each step warm-starts from
    // the previous instant's solution.
    c.bench_function("grid_transient_4x4_20steps", |b| {
        let grid = PowerGrid::corner_fed(
            4,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
        )
        .unwrap();
        let mut loads = vec![Waveform::constant(0.02); 16];
        loads[5] =
            Waveform::from_points(vec![(Time::ZERO, 0.02), (Time::from_ns(100.0), 0.3)]).unwrap();
        let mut ctx = RunCtx::serial();
        b.iter(|| {
            grid.quasi_static_transient(
                &mut ctx,
                &loads,
                Time::ZERO,
                Time::from_ns(100.0),
                Time::from_ns(5.0),
            )
            .unwrap()
        })
    });

    c.bench_function("cntr_sta", |b| {
        let netlist = build_control_netlist(&CtrlNetlistConfig::default());
        b.iter(|| analyze(&netlist, &StaConfig::default()).unwrap())
    });

    c.bench_function("cntr_gate_sim_10_cycles", |b| {
        let netlist = build_control_netlist(&CtrlNetlistConfig::default());
        b.iter_batched(
            || {
                let mut sim = Simulator::new(&netlist, Voltage::from_v(1.0)).unwrap();
                let clk = netlist.net_by_name("clk").unwrap();
                let enable = netlist.net_by_name("enable").unwrap();
                let start = netlist.net_by_name("start").unwrap();
                sim.drive(enable, psnt_cells::logic::Logic::One, Time::ZERO)
                    .unwrap();
                sim.drive(start, psnt_cells::logic::Logic::One, Time::ZERO)
                    .unwrap();
                sim.drive_clock(clk, Time::from_ns(2.0), Time::from_ns(4.0), 10)
                    .unwrap();
                sim
            },
            |mut sim| {
                sim.run_until(Time::from_ns(50.0));
            },
            BatchSize::SmallInput,
        )
    });

    // The same 10-cycle run on one long-lived simulator: reset() rewinds
    // state but keeps the topology, delay cache and buffers alive.
    c.bench_function("cntr_gate_sim_10_cycles_reused", |b| {
        let netlist = build_control_netlist(&CtrlNetlistConfig::default());
        let clk = netlist.net_by_name("clk").unwrap();
        let enable = netlist.net_by_name("enable").unwrap();
        let start = netlist.net_by_name("start").unwrap();
        let mut sim = Simulator::new(&netlist, Voltage::from_v(1.0)).unwrap();
        b.iter(|| {
            sim.reset();
            sim.drive(enable, psnt_cells::logic::Logic::One, Time::ZERO)
                .unwrap();
            sim.drive(start, psnt_cells::logic::Logic::One, Time::ZERO)
                .unwrap();
            sim.drive_clock(clk, Time::from_ns(2.0), Time::from_ns(4.0), 10)
                .unwrap();
            sim.run_until(Time::from_ns(50.0));
        })
    });
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
