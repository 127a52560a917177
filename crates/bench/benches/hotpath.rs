//! Hot-path microbenches: streaming vs allocating Pearson, lazy vs eager
//! ranking, and the budgeted recommender replay through the current vs the
//! PR-1 baseline path. The `hotpath` binary records the same pairs into
//! `BENCH_hotpath.json` for the perf trajectory.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use at_bench::baseline::{execute_eager, pearson_inputs, synthetic_correlations, AllocCfService};
use at_bench::deployments::{build_recommender, DeployScale};
use at_core::{rank, rank_top, ExecutionPolicy};
use at_linalg::{
    pearson_on_common, pearson_on_common_alloc, pearson_on_common_blocked, BlockedRow,
};
use std::time::Instant;

fn bench_pearson(c: &mut Criterion) {
    let mut g = c.benchmark_group("pearson");
    let (ca, va, cb, vb) = pearson_inputs(200);
    let ba = BlockedRow::from_sorted(&ca, &va);
    let bb = BlockedRow::from_sorted(&cb, &vb);
    g.bench_function("streaming", |b| {
        b.iter(|| pearson_on_common(&ca, &va, &cb, &vb))
    });
    g.bench_function("blocked", |b| {
        b.iter(|| pearson_on_common_blocked(&ba, &bb))
    });
    g.bench_function("allocating_baseline", |b| {
        b.iter(|| pearson_on_common_alloc(&ca, &va, &cb, &vb))
    });
    g.finish();
}

fn bench_ranking(c: &mut Criterion) {
    let mut g = c.benchmark_group("ranking");
    let corr = synthetic_correlations(1024);
    g.bench_function("lazy_top5", |b| {
        b.iter_batched(
            || corr.clone(),
            |mut c| {
                let mut prefix = rank_top(&mut c, 5);
                prefix.get(4)
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("eager_full_sort_baseline", |b| {
        b.iter_batched(|| corr.clone(), rank, BatchSize::SmallInput)
    });
    g.finish();
}

fn bench_budgeted_replay(c: &mut Criterion) {
    let deployment = build_recommender(DeployScale::quick());
    let policy = ExecutionPolicy::budgeted(5);
    let mut g = c.benchmark_group("budgeted_replay");
    g.bench_function("current_lazy_streaming", |b| {
        b.iter(|| {
            for req in &deployment.requests {
                for comp in deployment.service.components() {
                    std::hint::black_box(comp.execute(&req.active, &policy, Instant::now()));
                }
            }
        })
    });
    g.bench_function("eager_allocating_baseline", |b| {
        b.iter(|| {
            for req in &deployment.requests {
                for comp in deployment.service.components() {
                    std::hint::black_box(execute_eager(comp, &AllocCfService, &req.active, 5));
                }
            }
        })
    });
    g.finish();
}

fn bench_batched_serve(c: &mut Criterion) {
    let deployment = build_recommender(DeployScale::quick());
    let policy = ExecutionPolicy::budgeted(5);
    let batch: Vec<_> = (0..8)
        .map(|i| {
            deployment.requests[i % deployment.requests.len()]
                .active
                .clone()
        })
        .collect();
    let mut g = c.benchmark_group("batched_serve");
    g.bench_function("serve_batch_8", |b| {
        b.iter(|| std::hint::black_box(deployment.service.serve_batch(&batch, &policy)))
    });
    g.bench_function("sequential_serve_baseline", |b| {
        b.iter(|| {
            for req in &batch {
                std::hint::black_box(deployment.service.serve(req, &policy));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_pearson,
    bench_ranking,
    bench_budgeted_replay,
    bench_batched_serve
);
criterion_main!(benches);
