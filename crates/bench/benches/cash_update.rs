//! Update throughput of the cash-register summaries (the time axis of
//! Figures 5e/5f): elements/second at a permissive and a tight ε.
//!
//! Expected shape (paper §4.2.3): GKArray, Random and MRL99 stay fast
//! at tight ε because they only sort and merge; GKAdaptive falls off
//! once its pointer structures outgrow cache. The paper's FastQDigest
//! falls off with it; ours is one sorted node array and stays within
//! ~10× of Random (EXPERIMENTS.md, Fig. 5e/5f).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sqs_bench::bench_stream;
use sqs_harness::runner::CashAlgo;

const N: usize = 200_000;

fn bench(c: &mut Criterion) {
    let data = bench_stream(N, 1);
    let mut group = c.benchmark_group("cash_update");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1500));
    group.throughput(Throughput::Elements(N as u64));
    for eps in [1e-2, 1e-3] {
        for algo in CashAlgo::HEADLINE {
            group.bench_with_input(
                BenchmarkId::new(algo.name(), format!("eps={eps}")),
                &eps,
                |b, &eps| {
                    b.iter(|| {
                        let mut s = algo.build(eps, 24, N as u64, 7);
                        s.extend_from_slice(&data);
                        s.n()
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
