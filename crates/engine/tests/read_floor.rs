//! What a cold read costs against what it cost before — clone the four
//! shards, `merge_tree` them, sweep the merge — printed, not gated. A
//! cold `query_many` (9 φ and 3 ranks) is timed beside the same read of
//! shards mirrored outside the engine, fed the same batches in the
//! router's order, at two shapes:
//!
//! - `ingest_mem`'s (`RandomSketch`, ε 0.01, 2²⁴ rows per shard, 64
//!   batches of 4 096 rows between reads), where the read indexes the
//!   shards' runs (≈ 0.34 on a 2-core box);
//! - `turnstile_mix`'s (`dcs(0.01, 24)`, one seed for every shard, 8
//!   batches of 4 096 rows between reads), where the read sums the
//!   shards' cells under their locks.
//!
//! A second read at the same epoch asks other φs: a cache hit for
//! `Random`, and for DCS the merging cut (clone the shards under their
//! locks, `merge_tree`, sweep), which ROADMAP.md item 14 prices against
//! the mirror's read. docs/PERF.md §26.7 has the readings.
//!
//! The mechanism is counted in debug instead: `clones.rs` holds a cold
//! read to 0 clones, with runs and for summed reads, and the lib test
//! `rank_indexes_live_in_the_read_cache_only` holds the stable index
//! across writes. That the read answers what the runs or the merged
//! sketch answer is `reads.rs`'s job; absolute latency is the
//! benchmark's. Run with `cargo test --release -p sqs-engine --test
//! read_floor -- --ignored --nocapture`.

use std::hint::black_box;
use std::time::Instant;

use sqs_core::random::RandomSketch;
use sqs_core::MergeableSummary;
use sqs_engine::{merge_tree, ShardedEngine};
use sqs_turnstile::Dcs;
use sqs_util::rng::Xoshiro256pp;

const SHARDS: usize = 4;
const ROWS: usize = 4096;
/// Reads per pass; a pass's ratio is of its summed times.
const READS: usize = 16;
const PHIS: [f64; 9] = [0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999];
const RANKS: [u64; 3] = [1_234_567, 5_555_555, 11_111_111];

struct Feed<S> {
    engine: ShardedEngine<u64, S>,
    mirror: Vec<S>,
    next: usize,
    rng: Xoshiro256pp,
}

impl<S: MergeableSummary<u64> + Clone> Feed<S> {
    fn new(make: impl Fn(usize) -> S) -> Self {
        Self {
            engine: ShardedEngine::new_with(SHARDS, 0, &make),
            mirror: (0..SHARDS).map(make).collect(),
            next: 0,
            rng: Xoshiro256pp::new(0x35),
        }
    }

    fn ingest(&mut self) {
        let xs: Vec<u64> = (0..ROWS).map(|_| self.rng.next_below(1 << 24)).collect();
        self.engine.ingest_batch(&xs);
        self.mirror[self.next % SHARDS].insert_batch(&xs);
        self.next += 1;
    }

    /// Seconds of [`READS`] cold engine reads, of as many second reads
    /// at the same epoch that ask other φs, and of as many clone + merge
    /// + sweep reads of the mirror, each after `batches` batches.
    fn pass(&mut self, batches: usize) -> [f64; 3] {
        let mut secs = [0.0; 3];
        for _ in 0..READS {
            (0..batches).for_each(|_| self.ingest());
            let start = Instant::now();
            black_box(self.engine.query_many(&PHIS, &RANKS));
            secs[0] += start.elapsed().as_secs_f64();
            let start = Instant::now();
            black_box(self.engine.query_many(&PHIS[1..], &RANKS));
            secs[1] += start.elapsed().as_secs_f64();
            let start = Instant::now();
            let (mut merge, _) = merge_tree(self.mirror.clone());
            let ranks: Vec<u64> = RANKS.iter().map(|&x| merge.rank_estimate(x)).collect();
            black_box((merge.quantiles(&PHIS), ranks));
            secs[2] += start.elapsed().as_secs_f64();
        }
        secs
    }

    /// Prints the best of five passes of each read against the mirror's
    /// read in the same pass: a busy spell on a shared host then slows
    /// both sides.
    fn print_best(&mut self, batches: usize, label: &str) {
        let mut best = [(f64::INFINITY, 0.0, 0.0); 2];
        for _ in 0..5 {
            let secs = self.pass(batches);
            for (read, best) in best.iter_mut().enumerate() {
                if secs[read] / secs[2] < best.0 {
                    *best = (secs[read] / secs[2], secs[read], secs[2]);
                }
            }
        }
        let us = |secs: f64| secs / READS as f64 * 1e6;
        for ((ratio, read, merged), what) in
            best.into_iter().zip(["cold query_many", "second read"])
        {
            println!(
                "{label}: {what} {:.1} us, clone + merge_tree + sweep {:.1} us ({ratio:.3})",
                us(read),
                us(merged)
            );
        }
    }
}

/// A cold `Random` read copies four fills, sorts and indexes them, and
/// now and then re-indexes the stable runs when a shard released a fill;
/// a cold DCS read gathers each probed cell from the four shards and
/// sums it. The read before them cloned and merged four summaries
/// (≈ 182 KB sketches for DCS) and swept the merge.
#[test]
#[ignore = "prints timings: run with --release -- --ignored --nocapture"]
fn cold_reads_against_a_clone_merge_and_sweep() {
    let mut feed = Feed::new(|i| RandomSketch::new(0.01, 0xF1 + i as u64));
    while feed.engine.n() < (SHARDS << 24) as u64 {
        feed.ingest();
    }
    feed.print_best(64, "Random, ingest_mem's shape");
    let mut feed = Feed::new(|_| Dcs::dcs(0.01, 24, 0xDC5));
    (0..64).for_each(|_| feed.ingest());
    feed.print_best(8, "DCS, turnstile_mix's shape");
}
