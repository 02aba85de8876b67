//! Criterion benches: one per paper figure/table (the benchmark body is
//! the full reproduction of that artifact).

use criterion::{criterion_group, criterion_main, Criterion};
use psnt_bench::figures;
use psnt_ctx::RunCtx;

fn bench_figures(c: &mut Criterion) {
    let mut g = c.benchmark_group("paper");
    g.sample_size(10);
    g.bench_function("fig2_element_delay", |b| b.iter(figures::fig2));
    g.bench_function("fig3_measure_sequence", |b| b.iter(figures::fig3));
    g.bench_function("fig4_threshold_vs_cap", |b| b.iter(figures::fig4));
    g.bench_function("fig5_array_characteristic", |b| b.iter(figures::fig5));
    g.bench_function("tab1_pulse_generator", |b| b.iter(figures::tab1));
    g.bench_function("fig6_system_assembly", |b| {
        b.iter(|| figures::fig6(&mut RunCtx::serial()))
    });
    g.bench_function("fig8_control_fsm", |b| b.iter(figures::fig8));
    g.bench_function("fig9_system_sequence", |b| {
        b.iter(|| figures::fig9(&mut RunCtx::serial()))
    });
    g.bench_function("xp_gnd_characteristic", |b| b.iter(figures::gnd));
    g.bench_function("xp_process_trim", |b| {
        b.iter(|| figures::pv(&mut RunCtx::serial()))
    });
    g.bench_function("xp_baseline_comparison", |b| b.iter(figures::baseline));
    g.bench_function("xp_scan_chain", |b| {
        b.iter(|| figures::scan(&mut RunCtx::serial()))
    });
    g.bench_function("xp_gate_level_twin", |b| b.iter(figures::gate_level));
    g.bench_function("xp_overhead", |b| b.iter(figures::overhead));
    g.bench_function("xp_noc_campaign", |b| {
        b.iter(|| figures::noc_campaign(&mut RunCtx::serial()))
    });
    // 1,000 closed-loop cycles: per-cycle thermometer sensing on every
    // site, a delay line, a supply-boost mitigator, and the incremental
    // grid solve — the full co-simulation hot path. At one worker the
    // loop runs inline; at two, at code latency 1, it is pipelined with
    // a solver thread.
    for (name, jobs) in [
        ("droop_mitigation_1000c", 1),
        ("droop_mitigation_1000c_jobs2", 2),
    ] {
        g.bench_function(name, |b| {
            use psnt_cells::units::Voltage;
            use psnt_control::SupplyBoost;
            use psnt_engine::Engine;
            use psnt_workload::{NocWorkload, NocWorkloadConfig, TrafficPattern};
            let mut cfg = NocWorkloadConfig::chip_8x8();
            cfg.sites_per_tile = 1;
            cfg.v_pad = Voltage::from_v(1.0);
            cfg.pattern = TrafficPattern::Bursty {
                injection_rate: 0.9,
                on_cycles: 12,
                off_cycles: 20,
            };
            let workload = NocWorkload::new(cfg).expect("bench chip");
            b.iter(|| {
                let mut boost = SupplyBoost::new(64, 4, 5, Voltage::from_v(0.06))
                    .expect("boost")
                    .with_hold(16);
                let mut ctx = RunCtx::new(Engine::new(jobs)).with_seed(2009);
                workload
                    .run_mitigated(&mut ctx, Some(&mut boost), 1)
                    .expect("mitigated run")
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_figures);
criterion_main!(benches);
