//! Criterion benches for the DESIGN.md §5 ablations.

use criterion::{criterion_group, criterion_main, Criterion};
use psnt_bench::ablations;
use psnt_ctx::RunCtx;

fn bench_ablations(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablations");
    g.sample_size(10);
    g.bench_function("xp_delay_model", |b| b.iter(ablations::delay_model));
    g.bench_function("xp_ladder", |b| b.iter(ablations::ladder));
    g.bench_function("xp_encoding", |b| b.iter(ablations::encoding));
    g.bench_function("xp_sampling", |b| b.iter(ablations::sampling));
    g.bench_function("xp_mismatch", |b| {
        b.iter(|| ablations::mismatch(&mut RunCtx::serial()))
    });
    g.bench_function("xp_impedance", |b| {
        b.iter(|| ablations::impedance(&mut RunCtx::serial()))
    });
    g.bench_function("xp_temperature", |b| b.iter(ablations::temperature));
    g.bench_function("xp_code_density", |b| b.iter(ablations::code_density));
    g.bench_function("xp_oversampling", |b| b.iter(ablations::oversampling));
    g.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
