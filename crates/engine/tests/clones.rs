//! The engine's clone ledger: writes clone nothing, a cold read clones
//! each shard once, warm reads clone nothing, and `snapshot()` clones
//! the cached merge for its caller. Counted by a summary wrapper, so
//! it holds for whatever the read path is built from.

use std::cell::Cell;

use sqs_core::random::RandomSketch;
use sqs_core::{MergeableSummary, QuantileSummary};
use sqs_engine::ShardedEngine;
use sqs_util::audit::{CheckInvariants, InvariantViolation};
use sqs_util::space::SpaceUsage;

thread_local! {
    /// Clones of [`CountsClones`] made on this thread. The test drives
    /// the engine from its own thread only, so the count is its own.
    static CLONES: Cell<usize> = const { Cell::new(0) };
}

/// A `RandomSketch` that counts how often the engine clones it.
struct CountsClones(RandomSketch<u64>);

impl Clone for CountsClones {
    fn clone(&self) -> Self {
        CLONES.set(CLONES.get() + 1);
        Self(self.0.clone())
    }
}

impl SpaceUsage for CountsClones {
    fn space_bytes(&self) -> usize {
        self.0.space_bytes()
    }
}

impl QuantileSummary<u64> for CountsClones {
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

impl MergeableSummary<u64> for CountsClones {
    fn merge_from(&mut self, other: Self) {
        self.0.merge_from(other.0);
    }
    fn merge_compatible(&self, other: &Self) -> bool {
        self.0.merge_compatible(&other.0)
    }
}

impl CheckInvariants for CountsClones {
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
    let sketch = |seed: usize| CountsClones(RandomSketch::new(0.05, seed as u64));
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
