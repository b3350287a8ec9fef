//! The sampled fold's speed floor, as a ratio so it holds on any
//! machine: once `Random` keeps one row in `2^l`, `insert_batch` must
//! cost a step per kept sample, not a step per row.
//!
//! An integration test on purpose: under `cfg(test)` the library audits
//! every batch, which would be most of what a unit test measured.

use sqs_core::random::RandomSketch;
use sqs_core::QuantileSummary;
use sqs_util::rng::Xoshiro256pp;
use sqs_util::timing::{alternate, Bound};
use std::hint::black_box;

/// At the service's shape — ε = 0.01, a shard past 2^22 rows (level 8:
/// sixteen samples out of a 4096-row batch) — the batch fold must be at
/// least 8× faster per row than the scalar `insert` loop. It measured
/// ≈ 70× on the box that recorded docs/PERF.md §11; it was ≈ 1× while
/// the batch path handed each row to the scalar sampler.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing floor: run with --release")]
fn insert_batch_is_8x_faster_per_row_than_the_scalar_loop() {
    const BATCH: usize = 4096;
    let mut rng = Xoshiro256pp::new(0x5a3d);
    let rows: Vec<u64> = (0..1 << 22).map(|_| rng.next_below(1 << 32)).collect();
    let mut warm = RandomSketch::new(0.01, 7);
    warm.insert_batch(&rows);
    // A clone of the warm sketch, off the clock, then every batch.
    let folds = |fold: fn(&mut RandomSketch<u64>, &[u64])| {
        let (mut s, rows) = (warm.clone(), &rows);
        move || {
            rows.chunks(BATCH).for_each(|b| fold(&mut s, black_box(b)));
            s
        }
    };
    alternate(
        5,
        || folds(|s, batch| batch.iter().for_each(|&x| s.insert(x))),
        || folds(|s, batch| s.insert_batch(batch)),
    )
    .gate("insert_batch over the scalar loop", Bound::AtLeast(8.0));
}
