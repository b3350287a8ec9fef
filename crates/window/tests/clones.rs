//! The union read's clone ledger: a window query over a summary with
//! runs clones no bucket and merges nothing once the rollups it covers
//! exist — ingests, rotations and every spec included. Counted by a
//! summary wrapper, so it holds for whatever the read path is built
//! from; the same wrapper without runs shows the merge path's cost.

use std::cell::Cell;

use sqs_core::buffers::Runs;
use sqs_core::random::RandomSketch;
use sqs_core::{MergeableSummary, QuantileSummary};
use sqs_util::audit::{CheckInvariants, InvariantViolation};
use sqs_util::space::SpaceUsage;
use sqs_window::{WindowConfig, WindowRing, WindowSpec};

thread_local! {
    /// Clones and `merge_from` calls of [`Counts`] made on this thread.
    /// The test drives the ring from its own thread only.
    static CALLS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// A `RandomSketch` that counts its clones and merges, and hands out
/// its runs only if `RUNS`.
struct Counts<const RUNS: bool>(RandomSketch<u64>);

impl<const RUNS: bool> Clone for Counts<RUNS> {
    fn clone(&self) -> Self {
        let (clones, merges) = CALLS.get();
        CALLS.set((clones + 1, merges));
        Self(self.0.clone())
    }
}

impl<const RUNS: bool> SpaceUsage for Counts<RUNS> {
    fn space_bytes(&self) -> usize {
        self.0.space_bytes()
    }
}

impl<const RUNS: bool> QuantileSummary<u64> for Counts<RUNS> {
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
        "Counts"
    }
}

impl<const RUNS: bool> MergeableSummary<u64> for Counts<RUNS> {
    fn merge_from(&mut self, other: Self) {
        let (clones, merges) = CALLS.get();
        CALLS.set((clones, merges + 1));
        self.0.merge_from(other.0);
    }
    fn merge_compatible(&self, other: &Self) -> bool {
        self.0.merge_compatible(&other.0)
    }
    fn runs(&self) -> Option<Runs<'_, u64>> {
        self.0.runs().filter(|_| RUNS)
    }
}

impl<const RUNS: bool> CheckInvariants for Counts<RUNS> {
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.0.check_invariants()
    }
}

const BUCKET: u64 = 1_000;
/// `window_mix`'s three specs.
fn specs() -> [WindowSpec; 3] {
    [
        WindowSpec::sliding(8 * BUCKET),
        WindowSpec::sliding(64 * BUCKET),
        WindowSpec::tumbling(16 * BUCKET),
    ]
}

/// Clones and merges made by `f`.
fn calls_during(f: impl FnOnce()) -> (usize, usize) {
    let (clones, merges) = CALLS.get();
    f();
    let (after_clones, after_merges) = CALLS.get();
    (after_clones - clones, after_merges - merges)
}

/// A ring of 64 filled buckets (rollups of 8), now in bucket 64, each
/// spec queried once so that the rollups they cover exist.
fn warm<const RUNS: bool>() -> (WindowRing<Counts<RUNS>>, u64) {
    let cfg = WindowConfig::new(BUCKET, 128);
    let mut ring = WindowRing::new(cfg, |idx| Counts(RandomSketch::new(0.01, 0xC1 ^ idx)));
    let mut x = 0u64;
    for bucket in 0..=64u64 {
        let now = bucket * BUCKET;
        for _ in 0..4 {
            let xs: Vec<u64> = (0..512)
                .map(|k| (x + k) * 2_654_435_761 % 1_000_003)
                .collect();
            x += 512;
            ring.ingest(now, &xs, now);
        }
    }
    for spec in specs() {
        ring.query(spec, &[0.5], 64 * BUCKET)
            .expect("the span fits");
    }
    (ring, x)
}

/// Ingests, queries of every spec, and rotations that complete no
/// rollup group (buckets 64 → 71): what a query over existing rollups
/// costs.
fn drive<const RUNS: bool>(ring: &mut WindowRing<Counts<RUNS>>, mut x: u64) {
    for bucket in 64..72u64 {
        let now = bucket * BUCKET + 1;
        for spec in specs() {
            let xs: Vec<u64> = (0..512)
                .map(|k| (x + k) * 2_654_435_761 % 1_000_003)
                .collect();
            x += 512;
            ring.ingest(now, &xs, now);
            let a = ring
                .query(spec, &[0.1, 0.5, 0.9], now)
                .expect("the span fits");
            assert!(a.answers.iter().all(Option::is_some), "{spec:?}");
            ring.query(spec, &[0.99], now).expect("the span fits");
        }
    }
}

#[test]
fn a_union_read_clones_and_merges_nothing_once_its_rollups_exist() {
    let (mut ring, x) = warm::<true>();
    let built = ring.stats().rollups_built;
    assert_eq!(calls_during(|| drive(&mut ring, x)), (0, 0));
    assert_eq!(ring.stats().rollups_built, built, "no group completed");
    assert_eq!(ring.read_side().merge_bytes, 0);
    ring.assert_invariants();
}

/// The same schedule without runs, which shows the ledger counts: every
/// query after an ingest clones the open bucket and merges the cached
/// sealed merge into it.
#[test]
fn the_merge_path_clones_the_open_bucket_per_query() {
    let (mut ring, x) = warm::<false>();
    let (clones, merges) = calls_during(|| drive(&mut ring, x));
    assert!(
        clones >= 8 * 3 && merges >= 8 * 2,
        "{clones} clones, {merges} merges"
    );
    ring.assert_invariants();
}
