//! The cold read's speed floors, as ratios so they hold on any machine:
//! a cold `query_many` (9 φ and 3 ranks) against what the read cost
//! before — clone the four shards, `merge_tree` them, sweep the merge.
//! The shards are mirrored outside the engine, fed the same batches in
//! the router's order, so both sides read the same state.
//!
//! - At `ingest_mem`'s shape (`RandomSketch`, ε 0.01, 2²⁴ rows per
//!   shard, 64 batches of 4 096 rows between reads) the read indexes
//!   the shards' runs: ≤ ½.
//! - At `turnstile_mix`'s shape (`dcs(0.01, 24)`, one seed for every
//!   shard, 8 batches of 4 096 rows between reads) the read sums the
//!   shards' cells under their locks: ≤ 0.7.
//!
//! The two tests take turns (a timing measured beside another measures
//! both). That the cold read answers exactly what the runs or the
//! merged sketch answer is `reads.rs`'s job; absolute latency is the
//! benchmark's (the two workloads against the parent).

use std::hint::black_box;
use std::sync::{Mutex, PoisonError};
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

/// Held by each floor while it runs.
static TIMING: Mutex<()> = Mutex::new(());

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

    /// Seconds of [`READS`] cold engine reads and of as many clone +
    /// merge + sweep reads of the mirror, each after `batches` batches.
    fn pass(&mut self, batches: usize) -> (f64, f64) {
        let (mut cold, mut merged) = (0.0, 0.0);
        for _ in 0..READS {
            (0..batches).for_each(|_| self.ingest());
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

    /// Best of five passes, each side timed inside the same pass: a busy
    /// spell on a shared host then slows both sides of the ratio.
    /// Prints and returns the best pass's ratio.
    fn best_ratio(&mut self, batches: usize, label: &str) -> f64 {
        let mut best = (f64::INFINITY, 0.0, 0.0);
        for _ in 0..5 {
            let (cold, merged) = self.pass(batches);
            if cold / merged < best.0 {
                best = (cold / merged, cold, merged);
            }
        }
        let (ratio, cold, merged) = best;
        println!(
            "{label}: cold query_many {:.1} us, clone + merge_tree + sweep {:.1} us ({ratio:.3})",
            cold / READS as f64 * 1e6,
            merged / READS as f64 * 1e6
        );
        ratio
    }
}

/// A cold read copies four fills, sorts and indexes them, and now and
/// then re-indexes the stable runs when a shard released a fill; the
/// old read cloned and merged four summaries and indexed the merge.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing floor: run with --release")]
fn a_cold_read_costs_at_most_half_a_clone_merge_and_sweep() {
    let _turn = TIMING.lock().unwrap_or_else(PoisonError::into_inner);
    let mut feed = Feed::new(|i| RandomSketch::new(0.01, 0xF1 + i as u64));
    while feed.engine.n() < (SHARDS << 24) as u64 {
        feed.ingest();
    }
    let ratio = feed.best_ratio(64, "Random, ingest_mem's shape");
    assert!(
        ratio <= 0.5,
        "a cold read costs {ratio:.3} of a clone + merge + sweep, over the 1/2 floor"
    );
}

/// A cold DCS read gathers each probed cell from the four shards and
/// sums it; the old read cloned four ≈ 182 KB sketches, added them
/// counter by counter and swept the sum.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing floor: run with --release")]
fn a_cold_dcs_read_costs_at_most_0_7_of_a_clone_merge_and_sweep() {
    let _turn = TIMING.lock().unwrap_or_else(PoisonError::into_inner);
    let mut feed = Feed::new(|_| Dcs::dcs(0.01, 24, 0xDC5));
    (0..64).for_each(|_| feed.ingest());
    let ratio = feed.best_ratio(8, "DCS, turnstile_mix's shape");
    assert!(
        ratio <= 0.7,
        "a cold DCS read costs {ratio:.3} of a clone + merge + sweep, over the 0.7 floor"
    );
}
