//! The engine's clone ledger: writes clone nothing, a cold read of a
//! summary without runs clones each shard once, a cold read of one with
//! runs or of a linear one (its shards' cells summed) clones none, a
//! linear summary's second read at one epoch clones each shard once,
//! warm reads clone nothing, and `snapshot()` clones the cached merge
//! for its caller. Counted by a summary
//! wrapper, so it holds for whatever the read path is built from.

use std::cell::Cell;

use sqs_core::buffers::Runs;
use sqs_core::random::RandomSketch;
use sqs_core::{MergeableSummary, QuantileSummary};
use sqs_engine::ShardedEngine;
use sqs_turnstile::Dcs;
use sqs_util::audit::{CheckInvariants, InvariantViolation};
use sqs_util::space::SpaceUsage;

thread_local! {
    /// Clones of [`CountsClones`] made on this thread. The test drives
    /// the engine from its own thread only, so the count is its own.
    static CLONES: Cell<usize> = const { Cell::new(0) };
}

/// A summary that counts how often the engine clones it, and hands the
/// engine its runs only if `RUNS`.
struct CountsClones<S, const RUNS: bool = false>(S);

impl<S: Clone, const RUNS: bool> Clone for CountsClones<S, RUNS> {
    fn clone(&self) -> Self {
        CLONES.set(CLONES.get() + 1);
        Self(self.0.clone())
    }
}

impl<S: SpaceUsage, const RUNS: bool> SpaceUsage for CountsClones<S, RUNS> {
    fn space_bytes(&self) -> usize {
        self.0.space_bytes()
    }
}

impl<S: QuantileSummary<u64>, const RUNS: bool> QuantileSummary<u64> for CountsClones<S, RUNS> {
    fn insert(&mut self, x: u64) {
        self.0.insert(x);
    }
    fn insert_batch(&mut self, xs: &[u64]) {
        self.0.insert_batch(xs);
    }
    fn n(&self) -> u64 {
        self.0.n()
    }
    fn rank_estimate(&mut self, x: u64) -> u64 {
        self.0.rank_estimate(x)
    }
    fn quantile(&mut self, phi: f64) -> Option<u64> {
        self.0.quantile(phi)
    }
    fn name(&self) -> &'static str {
        "CountsClones"
    }
}

impl<S: MergeableSummary<u64>, const RUNS: bool> MergeableSummary<u64> for CountsClones<S, RUNS> {
    fn merge_from(&mut self, other: Self) {
        self.0.merge_from(other.0);
    }
    fn merge_compatible(&self, other: &Self) -> bool {
        self.0.merge_compatible(&other.0)
    }
    fn runs(&self) -> Option<Runs<'_, u64>> {
        self.0.runs().filter(|_| RUNS)
    }
    fn answer_sum(
        parts: &[&Self],
        phis: &[f64],
        xs: &[u64],
    ) -> Option<(Vec<Option<u64>>, Vec<u64>)> {
        let parts: Vec<&S> = parts.iter().map(|p| &p.0).collect();
        S::answer_sum(&parts, phis, xs)
    }
}

impl<S: CheckInvariants, const RUNS: bool> CheckInvariants for CountsClones<S, RUNS> {
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.0.check_invariants()
    }
}

fn clones_during(f: impl FnOnce()) -> usize {
    let before = CLONES.get();
    f();
    CLONES.get() - before
}

#[test]
fn only_cold_reads_clone_shards() {
    const SHARDS: usize = 4;
    let sketch = |seed: usize| CountsClones::<_, false>(RandomSketch::new(0.05, seed as u64));
    let e = ShardedEngine::new_with(SHARDS, 0, sketch);
    let writes = clones_during(|| {
        for lo in (0..8_000u64).step_by(8) {
            e.ingest_batch(&(lo..lo + 8).collect::<Vec<_>>());
        }
        let mut donor = sketch(99);
        donor.insert_batch(&[1, 2, 3]);
        assert!(e.try_absorb(donor).is_ok());
    });
    assert_eq!(writes, 0, "a write-only tenant pays for no reader");
    assert_eq!(e.stats().epoch, 1_001);
    let cold = clones_during(|| drop(e.query_many(&[0.5], &[4_000])));
    assert_eq!(cold, SHARDS, "one clone per shard, under its lock");
    let warm = clones_during(|| {
        let _ = e.query_many(&[0.5], &[4_000]);
        let _ = e.quantile(0.25);
        let _ = e.rank_estimate(17);
    });
    assert_eq!(warm, 0, "hits answer from the cached merge in place");
    assert_eq!(clones_during(|| drop(e.snapshot())), 1);
    assert_eq!(e.stats().snapshots, 1);
    e.assert_invariants();
}

#[test]
fn cold_reads_of_a_summary_with_runs_clone_no_shard() {
    const SHARDS: usize = 4;
    let sketch = |seed: usize| CountsClones::<_, true>(RandomSketch::new(0.05, seed as u64));
    let e = ShardedEngine::new_with(SHARDS, 0, sketch);
    let reads = clones_during(|| {
        for lo in (0..40_000u64).step_by(1_000) {
            e.ingest_batch(&(lo..lo + 1_000).collect::<Vec<_>>());
            let _ = e.query_many(&[0.5], &[4_000]);
            let _ = e.quantile(0.25);
        }
    });
    assert_eq!(reads, 0, "a cold read copies runs, never a summary");
    assert_eq!(e.stats().snapshots, 40, "one cut per cold read");
    // A snapshot merges clones of every shard, then hands one out.
    assert_eq!(clones_during(|| drop(e.snapshot())), SHARDS + 1);
    assert_eq!(e.stats().snapshots, 41);
    e.assert_invariants();
}

/// A linear summary's read sums its shards' cells under their locks: a
/// cold read clones nothing (the merging read cloned every shard), and
/// neither does a repeat of it. A different read at the same epoch
/// clones every shard once and caches the merge, and the reads after it
/// clone nothing; a snapshot at that epoch hands out a clone of the
/// cached merge, and one after a fold merges clones of every shard, then
/// hands one out.
#[test]
fn cold_reads_of_a_linear_summary_clone_no_shard() {
    const SHARDS: usize = 4;
    let dcs = |_| CountsClones::<_>(Dcs::dcs(0.05, 20, 0xD5));
    let e = ShardedEngine::new_with(SHARDS, 0, dcs);
    for lo in (0..40_000u64).step_by(1_000) {
        e.ingest_batch(&(lo..lo + 1_000).collect::<Vec<_>>());
        let cold = clones_during(|| {
            let _ = e.query_many(&[0.5], &[4_000]);
            let _ = e.query_many(&[0.5], &[4_000]);
        });
        assert_eq!(cold, 0, "a cold read sums cells, never clones a sketch");
        assert_eq!(
            clones_during(|| {
                let _ = e.quantile(0.25);
            }),
            SHARDS
        );
        let warm = clones_during(|| {
            let _ = e.rank_estimate(17);
            let _ = e.quantiles(&[0.1, 0.9]);
        });
        assert_eq!(warm, 0, "hits answer from the cached merge in place");
    }
    let stats = e.stats();
    assert_eq!((stats.snapshots, stats.snapshot_cache_hits), (80, 120));
    assert_eq!(clones_during(|| drop(e.snapshot())), 1, "a hit");
    let mut donor = dcs(0);
    donor.insert_batch(&[1, 2, 3]);
    let absorbed = clones_during(|| {
        assert!(e.try_absorb(donor).is_ok());
        let _ = e.quantiles(&[0.1, 0.9]);
    });
    assert_eq!(absorbed, 0);
    assert_eq!(clones_during(|| drop(e.snapshot())), SHARDS + 1);
    assert_eq!(clones_during(|| drop(e.snapshot())), 1);
    assert_eq!(e.stats().snapshots, 82);
    e.assert_invariants();
}
