//! Micro-benchmarks of the hot kernels underneath the experiments:
//! element measurement, array measurement, PDN transients, grid solve,
//! event-driven simulation and STA.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use psnt_cells::process::Pvt;
use psnt_cells::units::{Capacitance, Resistance, Time, Voltage};
use psnt_core::control::{build_control_netlist, CtrlNetlistConfig};
use psnt_core::element::{RailMode, SenseElement};
use psnt_core::thermometer::ThermometerArray;
use psnt_ctx::RunCtx;
use psnt_netlist::sim::Simulator;
use psnt_netlist::sta::{analyze, StaConfig};
use psnt_pdn::grid::{DeltaBatch, GridSolution, PowerGrid, DELTA_LANES};
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

    // Decodes at one operating point: each indexes the point's
    // ascending thresholds in place.
    c.bench_function("array_decode", |b| {
        let p = ThermometerArray::paper(RailMode::Supply)
            .at(skew, &pvt)
            .unwrap();
        let code = p.measure(Voltage::from_v(0.97));
        b.iter(|| p.decode(std::hint::black_box(&code)).unwrap())
    });

    // Building one operating point: the 7-element threshold solve plus
    // the bracket checks (two delay-model evaluations per element).
    c.bench_function("array_at_7bit", |b| {
        let a = ThermometerArray::paper(RailMode::Supply);
        b.iter(|| a.at(std::hint::black_box(skew), &pvt).unwrap())
    });

    c.bench_function("element_measure", |b| {
        let e = SenseElement::paper(Capacitance::from_pf(2.0), RailMode::Supply);
        b.iter(|| e.measure(std::hint::black_box(Voltage::from_v(0.97)), skew, &pvt))
    });

    c.bench_function("array_measure_7bit", |b| {
        let p = ThermometerArray::paper(RailMode::Supply)
            .at(skew, &pvt)
            .unwrap();
        b.iter(|| p.measure(std::hint::black_box(Voltage::from_v(0.97))))
    });

    // One closed-loop sense frame: 64 two-rail measures over the droop
    // chip's rail spread (0.85–1.00 V), default sensor configuration.
    c.bench_function("sense_frame_64", |b| {
        use psnt_core::system::{SensorConfig, SensorSystem};
        let sensor = SensorSystem::new(SensorConfig::default()).unwrap();
        let rails: Vec<Voltage> = (0..64)
            .map(|k| Voltage::from_v(0.85 + 0.15 * k as f64 / 63.0))
            .collect();
        b.iter(|| {
            for &vdd in &rails {
                std::hint::black_box(
                    sensor
                        .measure_value(vdd, Voltage::ZERO, Time::ZERO)
                        .unwrap(),
                );
            }
        })
    });

    // The closed loop's real read path over the same frame: 64
    // HIGH-SENSE levels, no words, codes or decodes.
    c.bench_function("hs_level_frame_64", |b| {
        use psnt_core::system::{SensorConfig, SensorSystem};
        let sensor = SensorSystem::new(SensorConfig::default()).unwrap();
        let rails: Vec<Voltage> = (0..64)
            .map(|k| Voltage::from_v(0.85 + 0.15 * k as f64 / 63.0))
            .collect();
        b.iter(|| {
            for &vdd in &rails {
                std::hint::black_box(sensor.hs_level(std::hint::black_box(vdd)));
            }
        })
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

    // The workload-scale grid (40×40 = 1,600 nodes). The next benches
    // pin the direct-solver story: factor once, then cheap per-cycle
    // full and delta solves.
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

    // The same 48-block shape, eight updates at a time: each timed
    // round plans eight delta updates into one `DeltaBatch`, solves
    // them in one lane-kernel pass and applies them, and the time is
    // reported per right-hand side. The updates alternate between two
    // load sets, so every one of them moves its loads.
    c.bench_function("grid_solve_delta_1600_48blocks_x8", |b| {
        let grid = chip_grid();
        let prior = grid.solve_sparse(&chip_loads).unwrap();
        let sets = [blocks_48(40, 1.0e-4), blocks_48(40, 1.5e-4)];
        b.iter_custom(|iters| batched_deltas(&grid, prior.clone(), &sets, DELTA_LANES, iters))
    });

    // The same two on a 64×64 grid (4,096 nodes, 8×8-node blocks),
    // whose 2.1 MB factor no longer fits in L2: one lane streams `L`
    // from memory once per solve, eight lanes once per eight.
    let big_grid = || {
        PowerGrid::new(
            64,
            64,
            Voltage::from_v(1.05),
            Resistance::from_milliohms(60.0),
            Resistance::from_milliohms(20.0),
            vec![(0, 0), (0, 63), (63, 0), (63, 63)],
        )
        .unwrap()
    };
    let big_loads: Vec<f64> = (0..4096).map(|i| 1.0e-4 * (1 + i % 7) as f64).collect();
    c.bench_function("grid_solve_delta_4096_48blocks", |b| {
        let grid = big_grid();
        let prior = grid.solve_sparse(&big_loads).unwrap();
        let changed = blocks_48(64, 1.0e-4);
        b.iter(|| grid.solve_delta(&prior, &changed).unwrap())
    });
    c.bench_function("grid_solve_delta_4096_48blocks_x8", |b| {
        let grid = big_grid();
        let prior = grid.solve_sparse(&big_loads).unwrap();
        let sets = [blocks_48(64, 1.0e-4), blocks_48(64, 1.5e-4)];
        b.iter_custom(|iters| batched_deltas(&grid, prior.clone(), &sets, DELTA_LANES, iters))
    });

    // The same delta shape on the droop-mitigation chip's 24×24 grid
    // (576 nodes, band 24): 48 of its 64 3×3 tile blocks, block 0
    // included.
    let droop_grid = || {
        PowerGrid::new(
            24,
            24,
            Voltage::from_v(1.0),
            Resistance::from_milliohms(120.0),
            Resistance::from_milliohms(20.0),
            vec![(0, 0), (0, 23), (23, 0), (23, 23)],
        )
        .unwrap()
    };
    let droop_loads: Vec<f64> = (0..576).map(|i| 3.0e-3 * (1 + i % 7) as f64).collect();
    let blocks_48_576 = |scale: usize| -> Vec<(usize, f64)> {
        (0..64)
            .filter(|blk| blk % 4 != 3)
            .flat_map(|blk: usize| {
                let (br, bc) = (blk / 8, blk % 8);
                let load = 3.0e-3 * (2 + (blk + scale) % 5) as f64;
                (0..9).map(move |q| ((br * 3 + q / 3) * 24 + bc * 3 + q % 3, load))
            })
            .collect()
    };
    c.bench_function("grid_solve_delta_576_48blocks", |b| {
        let grid = droop_grid();
        let prior = grid.solve_sparse(&droop_loads).unwrap();
        let changed = blocks_48_576(0);
        b.iter(|| grid.solve_delta(&prior, &changed).unwrap())
    });
    // The same updates two and eight to a pass of the lane kernel, per
    // right-hand side: on this band the two-lane pass costs more per
    // update than the one-lane kernel, which is why the closed loop
    // does not batch the cycles its code latency decides.
    for width in [2, DELTA_LANES] {
        c.bench_function(&format!("grid_solve_delta_576_48blocks_x{width}"), |b| {
            let grid = droop_grid();
            let prior = grid.solve_sparse(&droop_loads).unwrap();
            let sets = [blocks_48_576(0), blocks_48_576(1)];
            b.iter_custom(|iters| batched_deltas(&grid, prior.clone(), &sets, width, iters))
        });
    }

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

    // Save + load of the reference chip's checkpoint at cycle 500 (of
    // 1,000): the 256 sites' rail histories dominate the file. The
    // snapshot comes from a library run interrupted at cycle 500, so
    // the timed file is exactly what a supervised campaign writes.
    // (Named `checkpoint_save_load_8x8_500c` before schema version 4.)
    {
        use psnt_fault::{Fault, FaultPlan};
        use psnt_workload::checkpoint::CheckpointPolicy;
        use psnt_workload::{NocWorkload, NocWorkloadConfig, WorkloadCheckpoint};
        let dir = std::env::temp_dir().join(format!("psnt-kernels-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("chip-8x8-500c.ckpt");
        let workload = NocWorkload::new(NocWorkloadConfig::chip_8x8()).unwrap();
        let mut ctx = RunCtx::serial()
            .with_seed(2009)
            .with_fault_plan(FaultPlan::new().with(Fault::CancelAt { cycle: 500 }));
        let policy = CheckpointPolicy {
            path: Some(path.clone()),
            every: None,
        };
        let interrupted = workload.run_streamed_checkpointed(
            &mut ctx,
            psnt_engine::RetryPolicy::none(),
            &policy,
            None,
            |_| Ok(()),
        );
        assert!(interrupted.is_err(), "the run must stop at cycle 500");
        let ckpt = WorkloadCheckpoint::load(&path).unwrap();
        assert_eq!(ckpt.cycle(), 500);
        c.bench_function("checkpoint_roundtrip_chip_8x8", |b| {
            b.iter(|| {
                ckpt.save(&path).unwrap();
                WorkloadCheckpoint::load(&path).unwrap()
            })
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Quasi-static transient over 21 instants, one solve through the
    // cached factor each.
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

/// The NoC campaign's delta shape on a `side × side` grid split into
/// 8×8 tile blocks: 48 of the 64 blocks change (every fourth is
/// skipped, block 0 changes, so the forward pass starts at node 0),
/// block `blk` to `scale · (2 + blk % 5)` amperes per node.
fn blocks_48(side: usize, scale: f64) -> Vec<(usize, f64)> {
    let block = side / 8;
    (0..64)
        .filter(|blk| blk % 4 != 3)
        .flat_map(|blk: usize| {
            let (br, bc) = (blk / 8, blk % 8);
            let load = scale * (2 + blk % 5) as f64;
            (0..block * block).map(move |q| {
                (
                    (br * block + q / block) * side + bc * block + q % block,
                    load,
                )
            })
        })
        .collect()
}

/// Runs `iters` rounds of [`DELTA_LANES`] delta updates of `sol`, each
/// round planned into one `DeltaBatch`, settled in one pass and
/// applied; the updates alternate between the two `sets`. Returns the
/// time per update.
fn batched_deltas(
    grid: &PowerGrid,
    mut sol: GridSolution,
    sets: &[Vec<(usize, f64)>; 2],
    width: usize,
    iters: u64,
) -> Duration {
    let mut batch = DeltaBatch::new(width);
    let mut loads = sol.loads().to_vec();
    let t = Instant::now();
    for _ in 0..iters {
        for k in 0..width {
            grid.plan_delta(&mut batch, &mut loads, &sets[k % 2])
                .unwrap();
        }
        grid.settle_deltas(&mut batch);
        while batch.apply(&mut sol).is_some() {}
    }
    t.elapsed() / width as u32
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
