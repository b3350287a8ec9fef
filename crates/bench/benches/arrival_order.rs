//! Figure 8's time panel as a Criterion group: random vs sorted vs
//! reversed arrival order (uniform values, u = 2^32). Sorted order is
//! the GK stress case — every insert is a new maximum.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sqs_data::{Order, Uniform};
use sqs_harness::runner::CashAlgo;

const N: usize = 200_000;
const EPS: f64 = 1e-3;

fn bench(c: &mut Criterion) {
    let base: Vec<u64> = Uniform::new(32, 19).take(N).collect();
    let orders = [
        ("random", Order::Random),
        ("sorted", Order::Sorted),
        ("reversed", Order::Reversed),
    ];
    let mut group = c.benchmark_group("arrival_order");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_millis(1500));
    group.throughput(Throughput::Elements(N as u64));
    for (tag, order) in orders {
        let mut data = base.clone();
        order.apply(&mut data, 23);
        for algo in [CashAlgo::GkAdaptive, CashAlgo::GkArray, CashAlgo::Random] {
            group.bench_with_input(BenchmarkId::new(algo.name(), tag), &data, |b, data| {
                b.iter(|| {
                    let mut s = algo.build(EPS, 32, N as u64, 29);
                    for &x in data.iter() {
                        s.insert(x);
                    }
                    s.n()
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
