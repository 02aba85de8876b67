//! `xp_parallel_scaling` — wall-clock scaling of the engine-parallel
//! experiments with worker count. Every variant produces bit-identical
//! results; only the wall time may change. Jobs = 1 runs the exact
//! serial code path (the engine claims the whole batch inline), so the
//! `jobs=1` row doubles as the serial baseline.
//!
//! Interpreting the numbers: on an N-core machine the scan sweep
//! (16 sites × 8 samples) should approach N× at small worker counts;
//! on a single-core container all rows collapse to the serial time
//! plus ~µs of pool overhead. See `EXPERIMENTS.md` § parallel scaling.

use criterion::{criterion_group, criterion_main, Criterion};
use psnt_bench::figures::scan_campaign;
use psnt_cells::units::Time;
use psnt_ctx::RunCtx;
use psnt_engine::{Engine, RetryPolicy};

fn bench_parallel_scaling(c: &mut Criterion) {
    let (campaign, loads) = scan_campaign();
    let start = Time::from_ns(10.0);
    let dt = Time::from_ns(25.0);

    let mut group = c.benchmark_group("xp_parallel_scaling");
    group.sample_size(10);
    for jobs in [1usize, 2, 4, 8] {
        let mut ctx = RunCtx::new(Engine::new(jobs));
        group.bench_function(&format!("scan_16sites/jobs={jobs}"), |b| {
            b.iter(|| {
                campaign
                    .run_resilient(
                        &mut ctx,
                        std::hint::black_box(&loads),
                        None,
                        start,
                        dt,
                        8,
                        RetryPolicy::none(),
                    )
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_scaling);
criterion_main!(benches);
