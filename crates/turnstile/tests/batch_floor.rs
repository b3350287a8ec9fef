//! The batched turnstile kernels' speed floors, as ratios so they hold
//! on any machine: `insert_batch` against the scalar `insert` loop and
//! `rank_signed_batch` against the `rank_signed` loop, for DCM and DCS
//! at the paper's tuned shape (ε = 0.01, u = 2³², d = 7 — §4.3.1).
//!
//! That the two sides of each ratio leave the same state and give the
//! same answers is `batch_props.rs`'s job; absolute throughput is the
//! benchmark's (`turnstile_mix`, `paper_suite` against the parent).
//!
//! One test, not four: the harness runs tests of a file on parallel
//! threads, and a timing taken beside another timing measures the
//! neighbour.

use sqs_sketch::FrequencySketch;
use sqs_turnstile::{new_dcm, new_dcs, DyadicQuantiles, TurnstileQuantiles};
use sqs_util::rng::Xoshiro256pp;
use std::hint::black_box;
use std::time::Instant;

const EPS: f64 = 0.01;
const LOG_U: u32 = 32;
const KEYS: usize = 150_000;
const BATCH: usize = 1024;
const PROBES: usize = 4096;

fn uniform_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256pp::new(seed);
    (0..n).map(|_| rng.next_below(1 << LOG_U)).collect()
}

/// Best-of-5 seconds of each side, passes alternated: a busy spell on
/// a shared host then slows both sides of the ratio, not one.
fn best_of_5_each(mut scalar: impl FnMut() -> f64, mut batched: impl FnMut() -> f64) -> (f64, f64) {
    let mut best = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        best.0 = best.0.min(scalar());
        best.1 = best.1.min(batched());
    }
    best
}

/// `(insert_batch over the insert loop, rank_signed_batch over the
/// rank_signed loop)`: inserts into a fresh structure per pass, the
/// rank sweeps on one loaded with every key.
fn speedups<S: FrequencySketch>(make: impl Fn() -> DyadicQuantiles<S>) -> (f64, f64) {
    let keys = uniform_keys(KEYS, 0x7e2f);
    let probes = uniform_keys(PROBES, 0xbeef);

    let fill_secs = |fill: fn(&mut DyadicQuantiles<S>, &[u64])| {
        let mut dq = make();
        let start = Instant::now();
        fill(&mut dq, black_box(&keys));
        black_box(dq.live());
        start.elapsed().as_secs_f64()
    };
    let insert = best_of_5_each(
        || {
            fill_secs(|dq, keys| {
                for &x in keys {
                    dq.insert(x);
                }
            })
        },
        || {
            fill_secs(|dq, keys| {
                for batch in keys.chunks(BATCH) {
                    dq.insert_batch(batch);
                }
            })
        },
    );

    let mut loaded = make();
    loaded.insert_batch(&keys);
    let mut ranks = vec![0i64; PROBES];
    let rank = best_of_5_each(
        || {
            let start = Instant::now();
            for &x in black_box(&probes) {
                black_box(loaded.rank_signed(x));
            }
            start.elapsed().as_secs_f64()
        },
        || {
            let start = Instant::now();
            loaded.rank_signed_batch(black_box(&probes), &mut ranks);
            black_box(&ranks);
            start.elapsed().as_secs_f64()
        },
    );

    (insert.0 / insert.1, rank.0 / rank.1)
}

/// The update floors sit under the hash-bound ceiling of a batched
/// write path that must stay bit-identical to the scalar one (≈ 1.5×
/// measured); the rank floors under the exact-prefix collapse plus
/// level-major sketch reads (≈ 2.6× DCM, ≈ 1.7× DCS) — docs/PERF.md §4.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing floor: run with --release")]
fn batched_kernels_keep_their_speedup_over_the_scalar_loops() {
    let (dcm_insert, dcm_rank) = speedups(|| new_dcm(EPS, LOG_U, 0x7e2f));
    let (dcs_insert, dcs_rank) = speedups(|| new_dcs(EPS, LOG_U, 0x7e2f));
    println!(
        "batched/scalar: DCM insert {dcm_insert:.2}x, DCS insert {dcs_insert:.2}x, \
         DCM rank {dcm_rank:.2}x, DCS rank {dcs_rank:.2}x"
    );
    for (kernel, speedup, floor) in [
        ("DCM insert_batch", dcm_insert, 1.2),
        ("DCS insert_batch", dcs_insert, 1.2),
        ("DCM rank_signed_batch", dcm_rank, 1.7),
        ("DCS rank_signed_batch", dcs_rank, 1.3),
    ] {
        assert!(
            speedup >= floor,
            "{kernel} is only {speedup:.2}x its scalar loop, under the {floor}x floor"
        );
    }
}
