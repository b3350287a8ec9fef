//! The cold read's speed floor, as a ratio so it holds on any machine:
//! at `ingest_mem`'s shape (4 shards, ε 0.01, 2²⁴ rows per shard, 64
//! batches of 4 096 rows between reads, 9 φ and 3 ranks), a cold
//! `query_many` against what the read cost before the stable index
//! outlived writes — clone the four shards, `merge_tree` them, sweep
//! the merge. The shards are mirrored outside the engine, fed the same
//! batches in the router's order, so both sides read the same state.
//!
//! That the cold read answers exactly what an index over the shards'
//! runs answers is `reads.rs`'s job; absolute latency is the
//! benchmark's (`ingest_mem` against the parent).

use std::hint::black_box;
use std::time::Instant;

use sqs_core::random::RandomSketch;
use sqs_core::QuantileSummary;
use sqs_engine::{merge_tree, ShardedEngine};
use sqs_util::rng::Xoshiro256pp;

const SHARDS: usize = 4;
const ROWS: usize = 4096;
const BATCHES_PER_READ: usize = 64;
/// Reads per pass; a pass's ratio is of its summed times.
const READS: usize = 16;
const PHIS: [f64; 9] = [0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999];
const RANKS: [u64; 3] = [1_234_567, 5_555_555, 11_111_111];

struct Feed {
    engine: ShardedEngine<u64, RandomSketch<u64>>,
    mirror: Vec<RandomSketch<u64>>,
    next: usize,
    rng: Xoshiro256pp,
}

impl Feed {
    fn ingest(&mut self) {
        let xs: Vec<u64> = (0..ROWS).map(|_| self.rng.next_below(1 << 24)).collect();
        self.engine.ingest_batch(&xs);
        self.mirror[self.next % SHARDS].insert_batch(&xs);
        self.next += 1;
    }

    /// Seconds of [`READS`] cold engine reads and of as many clone +
    /// merge + sweep reads of the mirror, each after 64 batches.
    fn pass(&mut self) -> (f64, f64) {
        let (mut cold, mut merged) = (0.0, 0.0);
        for _ in 0..READS {
            (0..BATCHES_PER_READ).for_each(|_| self.ingest());
            let start = Instant::now();
            black_box(self.engine.query_many(&PHIS, &RANKS));
            cold += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let (mut merge, _) = merge_tree(self.mirror.clone());
            let ranks: Vec<u64> = RANKS.iter().map(|&x| merge.rank_estimate(x)).collect();
            black_box((merge.quantiles(&PHIS), ranks));
            merged += start.elapsed().as_secs_f64();
        }
        (cold, merged)
    }
}

/// A cold read copies four fills, sorts and indexes them, and now and
/// then re-indexes the stable runs when a shard released a fill; the
/// old read cloned and merged four summaries and indexed the merge.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing floor: run with --release")]
fn a_cold_read_costs_at_most_half_a_clone_merge_and_sweep() {
    let make = |i: usize| RandomSketch::new(0.01, 0xF1 + i as u64);
    let mut feed = Feed {
        engine: ShardedEngine::new_with(SHARDS, 0, make),
        mirror: (0..SHARDS).map(make).collect(),
        next: 0,
        rng: Xoshiro256pp::new(0x35),
    };
    while feed.engine.n() < (SHARDS << 24) as u64 {
        feed.ingest();
    }
    // Best of five passes, each side timed inside the same pass: a busy
    // spell on a shared host then slows both sides of the ratio.
    let mut best = (f64::INFINITY, 0.0, 0.0);
    for _ in 0..5 {
        let (cold, merged) = feed.pass();
        if cold / merged < best.0 {
            best = (cold / merged, cold, merged);
        }
    }
    let (ratio, cold, merged) = best;
    println!(
        "cold query_many: {:.1} us, clone + merge_tree + sweep: {:.1} us ({ratio:.3})",
        cold / READS as f64 * 1e6,
        merged / READS as f64 * 1e6
    );
    assert!(
        ratio <= 0.5,
        "a cold read costs {ratio:.3} of a clone + merge + sweep, over the 1/2 floor"
    );
}
