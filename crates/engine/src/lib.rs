//! A sharded, epoch-snapshotting concurrent engine over the mergeable
//! quantile summaries of `sqs-core`.
//!
//! The paper studies single-threaded summaries; production collectors
//! ingest from many threads at once. The mergeable-summary property
//! (Agarwal et al., PODS'12 — see `PAPERS.md`) makes the standard
//! scale-out construction sound: run `k` independent ε-summaries, one
//! per *shard*, and answer queries by folding the shards with a merge
//! tree — sharding buys concurrency without spending accuracy.
//!
//! One way in, one way out (safe stable Rust: `forbid(unsafe_code)`,
//! atomics + mutex leaves only):
//!
//! 1. **Request-scoped writes** — [`ShardedEngine::ingest_batch`]
//!    folds the caller's slice into the next shard's *live* summary
//!    under its [`OrderedMutex`] and clones it there, stamped with the
//!    shard's fold count; outside the lock the clone is **published**
//!    (the slot keeps whichever clone carries the newer stamp) and the
//!    engine epoch ticks. Nothing is buffered or queued, and writes to
//!    different shards run in parallel.
//! 2. **Epoch / seqlock snapshots** — readers collect the published
//!    `Arc`s between two equal reads of the epoch and never touch a
//!    live lock, so queries cannot stall ingestion; the merged
//!    snapshot is cached keyed on that epoch. See `docs/ENGINE.md` for
//!    the memory-ordering argument and the error analysis.

#![forbid(unsafe_code)]

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use sqs_core::MergeableSummary;
use sqs_util::audit::{ensure, CheckInvariants, InvariantViolation};
use sqs_util::pad::CachePadded;
use sqs_util::sync::{next_domain, OrderedMutex, OrderedMutexGuard};

/// Seqlock read attempts before a reader accepts a possibly-mixed
/// (multi-epoch) cut — the relaxed-semantics escape hatch that keeps
/// readers wait-free under a continuous stream of publications.
const SNAPSHOT_RETRY_LIMIT: usize = 16;

/// A point-in-time copy of the engine's operational counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Elements folded into shard summaries so far.
    pub items: u64,
    /// The engine epoch: one tick per publication. The snapshot
    /// cache's invalidation signal.
    pub epoch: u64,
    /// Merged snapshots rebuilt so far (snapshot-cache misses).
    pub snapshots: u64,
    /// Query sweeps answered from the epoch-keyed snapshot cache
    /// without re-merging.
    pub snapshot_cache_hits: u64,
    /// Seqlock retries readers have paid waiting out concurrent
    /// publications.
    pub snapshot_retries: u64,
    /// Snapshots that gave up retrying and accepted a mixed-epoch
    /// (relaxed-consistency) cut. Zero in every quiescent workload.
    pub snapshots_torn: u64,
    /// Merge-tree depth of the most recent snapshot rebuild
    /// (`⌈log₂ shards⌉`; 0 before the first).
    pub last_merge_depth: u32,
    /// Wall-clock nanoseconds spent on the most recent snapshot
    /// rebuild (publication reads + merge tree; 0 before the first).
    pub last_snapshot_nanos: u64,
    /// Poisoned shard locks recovered so far: a writer panicked while
    /// folding into a shard, and a later acquisition audited the
    /// summary's invariants, cleared the poison, and carried on —
    /// without whatever that thread had not yet folded.
    pub lock_recoveries: u64,
}

/// A shard summary and the number of folds it contains. The live
/// lock guards one (`X = S`); the published slot holds a clone of it
/// for readers (`X = Arc<S>`), stamped with the count it was taken at.
struct Stamped<X> {
    stamp: u64,
    summary: X,
}

impl<S: Clone> Stamped<S> {
    /// Counts one fold and clones its result. `&mut self` is the live
    /// guard, so the stamp is taken in the critical section that made
    /// the clone: stamp order is fold order.
    fn stamped_clone(&mut self) -> Stamped<Arc<S>> {
        self.stamp += 1;
        Stamped {
            stamp: self.stamp,
            summary: Arc::new(self.summary.clone()),
        }
    }
}

/// One shard: the live summary writes fold into and the last published
/// clone readers merge from. The whole struct sits inside one
/// [`CachePadded`] slot so neighbouring shards' hot words never
/// false-share a cache line.
struct Shard<S> {
    live: OrderedMutex<Stamped<S>>,
    published: Mutex<Stamped<Arc<S>>>,
}

impl<S> Shard<S> {
    /// The published clone, without touching the live lock.
    fn published(&self) -> Arc<S> {
        let slot = self
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Arc::clone(&slot.summary)
    }
}

/// The merged snapshot the read path caches between ingest epochs.
struct CachedSnapshot<S> {
    epoch: u64,
    summary: S,
}

/// A concurrent quantile-ingestion engine: `k` cache-padded shards,
/// each a mergeable ε-summary plus its stamped published clone (see
/// the [crate docs](crate)). Shared by reference across threads: all
/// methods take `&self`, writers and readers alike.
///
/// ```
/// use sqs_core::random::RandomSketch;
/// use sqs_engine::ShardedEngine;
///
/// let engine = ShardedEngine::new_with(4, 0, |i| RandomSketch::new(0.05, i as u64));
/// std::thread::scope(|scope| {
///     for t in 0..4u64 {
///         let engine = &engine;
///         scope.spawn(move || {
///             for lo in (t * 10_000..(t + 1) * 10_000).step_by(500) {
///                 engine.ingest_batch(&(lo..lo + 500).collect::<Vec<_>>());
///             }
///         });
///     }
/// });
/// assert_eq!(engine.n(), 40_000);
/// let q = engine.quantile(0.5).unwrap();
/// assert!((q as f64 - 20_000.0).abs() <= 0.05 * 40_000.0);
/// ```
pub struct ShardedEngine<T, S> {
    shards: Vec<CachePadded<Shard<S>>>,
    /// The seqlock epoch: one tick per publication, read by snapshots
    /// as the consistency check and the cache key.
    epoch: CachePadded<AtomicU64>,
    /// Round-robin shard router for incoming batches.
    router: CachePadded<AtomicUsize>,
    /// Write-side counter (bumped once per fold).
    items: CachePadded<AtomicU64>,
    /// Read-side stats + the epoch-keyed merged-snapshot cache.
    snapshots: AtomicU64,
    cache_hits: AtomicU64,
    snapshot_retries: AtomicU64,
    snapshots_torn: AtomicU64,
    last_merge_depth: AtomicU64,
    last_snapshot_nanos: AtomicU64,
    lock_recoveries: AtomicU64,
    cache: Mutex<Option<CachedSnapshot<S>>>,
    _elem: PhantomData<fn(T)>,
}

impl<T, S> ShardedEngine<T, S>
where
    T: Ord + Copy,
    S: MergeableSummary<T> + CheckInvariants + Clone,
{
    /// Builds an engine with `shard_count` shards, constructing each
    /// shard's summary via `make(shard_index)` — the closure is where
    /// per-shard seeds diverge for randomized summaries.
    ///
    /// `_batch_capacity` is unused — it sized producer buffers the
    /// engine no longer has — and goes once `benchmark/` stops passing it.
    ///
    /// # Panics
    /// Panics if `shard_count == 0`.
    pub fn new_with(
        shard_count: usize,
        _batch_capacity: usize,
        mut make: impl FnMut(usize) -> S,
    ) -> Self {
        assert!(shard_count > 0, "ShardedEngine needs at least one shard");
        // One ordering domain per engine, shard index as rank: debug
        // builds enforce "shard locks only in ascending order" at
        // runtime, and locks of unrelated engines stay independent.
        let domain = next_domain();
        Self {
            shards: (0..shard_count)
                .map(|i| {
                    let live = Stamped {
                        stamp: 0,
                        summary: make(i),
                    };
                    let published = Stamped {
                        stamp: 0,
                        summary: Arc::new(live.summary.clone()),
                    };
                    CachePadded::new(Shard {
                        live: OrderedMutex::new(domain, i, live),
                        published: Mutex::new(published),
                    })
                })
                .collect(),
            epoch: CachePadded::new(AtomicU64::new(0)),
            router: CachePadded::new(AtomicUsize::new(0)),
            items: CachePadded::new(AtomicU64::new(0)),
            snapshots: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            snapshot_retries: AtomicU64::new(0),
            snapshots_torn: AtomicU64::new(0),
            last_merge_depth: AtomicU64::new(0),
            last_snapshot_nanos: AtomicU64::new(0),
            lock_recoveries: AtomicU64::new(0),
            cache: Mutex::new(None),
            _elem: PhantomData,
        }
    }

    /// Elements folded into shard summaries so far. A write is counted
    /// just after it is published: a snapshot taken after reading `n()`
    /// holds at least that many (exactly that many at quiescence).
    pub fn n(&self) -> u64 {
        self.items.load(Ordering::Acquire)
    }

    /// A copy of the engine's operational counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            items: self.items.load(Ordering::Acquire),
            epoch: self.epoch.load(Ordering::Acquire),
            snapshots: self.snapshots.load(Ordering::Acquire),
            snapshot_cache_hits: self.cache_hits.load(Ordering::Acquire),
            snapshot_retries: self.snapshot_retries.load(Ordering::Acquire),
            snapshots_torn: self.snapshots_torn.load(Ordering::Acquire),
            last_merge_depth: u32::try_from(self.last_merge_depth.load(Ordering::Acquire))
                .unwrap_or(u32::MAX),
            last_snapshot_nanos: self.last_snapshot_nanos.load(Ordering::Acquire),
            lock_recoveries: self.lock_recoveries.load(Ordering::Acquire),
        }
    }

    fn shard(&self, shard: usize) -> &Shard<S> {
        self.shards
            .get(shard)
            .expect("Engine invariant: shard index within shard count")
    }

    fn lock_shard(&self, shard: usize) -> OrderedMutexGuard<'_, Stamped<S>> {
        let m = &self.shard(shard).live;
        m.lock().unwrap_or_else(|poisoned| {
            // A holder panicked mid-fold — necessarily inside the
            // summary's own insert/merge code, since the engine does
            // nothing else under the guard. The summary is safe to keep
            // only if its structural invariants survived the unwind;
            // audit it (panicking loudly if not), then clear the poison
            // so later acquisitions stop paying this path.
            let guard = poisoned.into_inner();
            guard.summary.assert_invariants();
            m.clear_poison();
            self.lock_recoveries.fetch_add(1, Ordering::AcqRel);
            guard
        })
    }

    /// Makes one fold visible and counts it, with no guard held: offer
    /// the stamped clone to the shard's published slot, count the mass,
    /// tick the epoch — in that order, so a reader that sees the tick
    /// sees the publication (Release/Acquire pairs on the slot mutex
    /// and the counters). Two writers on one shard fold in live-lock
    /// order but get here in any order; the later fold's clone contains
    /// the earlier fold, so the slot keeps the newer stamp and drops a
    /// late arrival: a reader never sees a shard's mass go backwards.
    fn publish(&self, shard: usize, next: Stamped<Arc<S>>, mass: u64) {
        {
            let slot = &self.shard(shard).published;
            let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
            if next.stamp > slot.stamp {
                *slot = next;
            }
        }
        self.items.fetch_add(mass, Ordering::AcqRel);
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Ingests one caller-assembled batch: picks the next shard
    /// round-robin and folds the whole slice under a single critical
    /// section, publishing before returning.
    ///
    /// The ingest path is *request-scoped*: nothing stays buffered or
    /// queued engine-side afterwards — every element is visible to the
    /// next snapshot the moment the call returns. `sqs-service` relies
    /// on it so a server never holds client data in limbo (its
    /// `INSERT_BATCH` reply means "merged"), and so graceful shutdown
    /// has nothing left to flush.
    pub fn ingest_batch(&self, xs: &[T]) {
        if xs.is_empty() {
            return;
        }
        let shard = self.router.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let next = {
            let mut live = self.lock_shard(shard);
            live.summary.insert_batch(xs);
            live.stamped_clone()
        };
        // The live guard is gone (it died with the block); publish and
        // account outside the shard's critical section.
        self.publish(shard, next, xs.len() as u64);
    }

    /// Merges an externally-built summary (e.g. one decoded off the
    /// wire) into shard 0 under a single critical section, adding its
    /// mass to the engine's totals. Returns the summary back as `Err`
    /// without touching anything if its accuracy configuration is
    /// incompatible with this engine's shards — the panic-free gate
    /// remote `MERGE_SNAPSHOT` traffic goes through.
    pub fn try_absorb(&self, other: S) -> Result<(), S> {
        let mass = other.n();
        let next = {
            let mut live = self.lock_shard(0);
            if !live.summary.merge_compatible(&other) {
                return Err(other);
            }
            live.summary.merge_from(other);
            live.stamped_clone()
        };
        // Counting the absorbed mass keeps `engine.mass_conservation`
        // (Σ shard.n() == items) holding.
        self.publish(0, next, mass);
        Ok(())
    }

    /// Collects a consistent cut of the per-shard published clones —
    /// the seqlock read protocol. Returns the `Arc`s plus the epoch
    /// they correspond to, or `None` as the epoch if the reader
    /// exhausted its retries and accepted a possibly mixed-epoch cut
    /// (relaxed semantics; see `docs/ENGINE.md` §2).
    ///
    /// Never touches a shard's live lock: readers cannot stall
    /// ingestion, and folding cannot stall readers — the epoch moves
    /// only at the instant a write publishes, so a reader retries only
    /// if a publication actually landed mid-collection.
    fn published_cut(&self) -> (Vec<Arc<S>>, Option<u64>) {
        let mut attempts = 0usize;
        loop {
            let e1 = self.epoch.load(Ordering::Acquire);
            let cut: Vec<Arc<S>> = self.shards.iter().map(|s| s.published()).collect();
            let e2 = self.epoch.load(Ordering::Acquire);
            if e1 == e2 {
                return (cut, Some(e1));
            }
            if attempts >= SNAPSHOT_RETRY_LIMIT {
                self.snapshots_torn.fetch_add(1, Ordering::AcqRel);
                return (cut, None);
            }
            attempts += 1;
            self.snapshot_retries.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// Rebuilds the merged snapshot from the published cut. Returns
    /// the merge and the epoch it is consistent with (`None` for a
    /// torn cut, which is never cached).
    fn rebuild_snapshot(&self) -> (S, Option<u64>) {
        let start = Instant::now();
        let (cut, epoch) = self.published_cut();
        let clones: Vec<S> = cut.iter().map(|a| S::clone(a)).collect();
        let (merged, depth) = merge_tree(clones);
        self.snapshots.fetch_add(1, Ordering::AcqRel);
        self.last_merge_depth
            .store(u64::from(depth), Ordering::Release);
        self.last_snapshot_nanos.store(
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX),
            Ordering::Release,
        );
        (merged, epoch)
    }

    /// Runs `f` against the merged snapshot for the current epoch,
    /// reusing the cached merge when no publication has happened since
    /// it was built — the epoch counter is the invalidation signal, so
    /// repeated query sweeps between writes cost one mutex acquisition
    /// and zero merging.
    fn with_snapshot<R>(&self, f: impl FnOnce(&mut S) -> R) -> R {
        let now = self.epoch.load(Ordering::Acquire);
        {
            let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(cached) = cache.as_mut() {
                if cached.epoch == now {
                    self.cache_hits.fetch_add(1, Ordering::AcqRel);
                    return f(&mut cached.summary);
                }
            }
        }
        // Rebuild outside the cache lock (the seqlock cut takes the
        // published-slot locks; holding the cache lock across them
        // would nest guards). A concurrent rebuild racing us is
        // harmless — both are valid snapshots; the newer epoch wins
        // the cache slot.
        let (mut merged, epoch) = self.rebuild_snapshot();
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(e) = epoch {
            let newer = cache.as_ref().is_some_and(|c| c.epoch > e);
            if !newer {
                *cache = Some(CachedSnapshot {
                    epoch: e,
                    summary: merged,
                });
                let cached = cache
                    .as_mut()
                    .expect("Engine invariant: cache slot just filled");
                return f(&mut cached.summary);
            }
        }
        // Torn cut (or a newer cache already present): answer from our
        // private merge without caching it.
        drop(cache);
        f(&mut merged)
    }

    /// Folds the current published shard summaries into one queryable
    /// summary (an ε-summary of every element ingested so far).
    ///
    /// Reads the per-shard publications under the seqlock protocol —
    /// never the shard live locks — and reuses the epoch-keyed cache,
    /// so a burst of snapshots between writes costs one merge.
    pub fn snapshot(&self) -> S {
        self.with_snapshot(|s| s.clone())
    }

    /// An ε-approximate φ-quantile of everything ingested so far,
    /// answered from the epoch-cached snapshot. `None` while empty.
    ///
    /// Answering *many* ranks? [`quantiles`](Self::quantiles) answers
    /// a whole sweep against one snapshot read.
    pub fn quantile(&self, phi: f64) -> Option<T> {
        self.with_snapshot(|s| s.quantile(phi))
    }

    /// Answers a whole rank sweep from **one** epoch-consistent
    /// snapshot: every φ reads the same merged summary, so the
    /// answers are mutually consistent, and a sweep between writes
    /// costs no merging at all (cache hit). Rides the summary's
    /// [`quantiles`](sqs_core::QuantileSummary::quantiles) bulk path —
    /// the turnstile backends answer the whole sorted sweep in one
    /// lockstep bisection instead of re-bisecting per φ.
    ///
    /// # Panics
    /// Panics if any `φ ∉ (0, 1)`, matching
    /// [`QuantileSummary::quantile`](sqs_core::QuantileSummary::quantile).
    pub fn quantiles(&self, phis: &[f64]) -> Vec<Option<T>> {
        if phis.is_empty() {
            return Vec::new();
        }
        self.with_snapshot(|s| s.quantiles(phis))
    }

    /// Estimated rank of `x` over everything ingested so far,
    /// answered from the epoch-cached snapshot.
    pub fn rank_estimate(&self, x: T) -> u64 {
        self.with_snapshot(|s| s.rank_estimate(x))
    }

    /// Answers a φ-sweep **and** a rank sweep against the *same*
    /// epoch-consistent snapshot in one call — the service's
    /// `QUERY_MANY` op. One snapshot read, one batched quantile sweep,
    /// one rank pass; the two answer vectors are mutually consistent
    /// by construction (no publication can land between them).
    ///
    /// # Panics
    /// Panics if any `φ ∉ (0, 1)`.
    pub fn query_many(&self, phis: &[f64], xs: &[T]) -> (Vec<Option<T>>, Vec<u64>) {
        if phis.is_empty() && xs.is_empty() {
            return (Vec::new(), Vec::new());
        }
        self.with_snapshot(|s| {
            let quantiles = s.quantiles(phis);
            let ranks = xs.iter().map(|&x| s.rank_estimate(x)).collect();
            (quantiles, ranks)
        })
    }
}

/// Folds summaries pairwise, level by level — the balanced merge tree.
/// Returns the fold and its depth (`⌈log₂ k⌉`). Balance keeps every
/// leaf at the same depth, which matters for summaries whose merge
/// guarantee degrades with *tree depth* rather than merge count; for
/// the fully-mergeable summaries in `sqs-core` it simply bounds
/// intermediate sizes.
///
/// # Panics
/// Panics if `layer` is empty.
pub fn merge_tree<T: Ord + Copy, S: MergeableSummary<T>>(mut layer: Vec<S>) -> (S, u32) {
    assert!(!layer.is_empty(), "merge_tree needs at least one summary");
    let mut depth = 0u32;
    while layer.len() > 1 {
        depth += 1;
        let prev = std::mem::take(&mut layer);
        layer.reserve(prev.len().div_ceil(2));
        let mut it = prev.into_iter();
        while let Some(mut a) = it.next() {
            if let Some(b) = it.next() {
                a.merge_from(b);
            }
            layer.push(a);
        }
    }
    let root = layer
        .pop()
        .expect("Engine invariant: merge tree reduces to one root");
    (root, depth)
}

impl<T, S> CheckInvariants for ShardedEngine<T, S>
where
    T: Ord + Copy,
    S: MergeableSummary<T> + CheckInvariants + Clone,
{
    /// Engine-level invariants on top of each shard's own:
    ///
    /// * `engine.shard_structure` — at least one shard exists (a
    ///   construction-time guarantee that must survive);
    /// * every shard's `CheckInvariants`, live **and** published
    ///   (first violation wins);
    /// * `engine.mass_conservation` — the live shards' element counts
    ///   sum exactly to the engine's items counter: no fold lost or
    ///   double-counted an element;
    /// * `engine.epoch_accounting` — every fold ticked the epoch
    ///   exactly once (the epoch equals the shards' fold stamps summed)
    ///   and every published slot carries its shard's latest stamp;
    /// * `engine.cache_coherence` — a cached snapshot claiming the
    ///   current epoch carries exactly the folded mass.
    ///
    /// Meaningful at quiescence (as the audit tests use it): a write
    /// between its fold and its tick is, correctly, mid-publication.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        ensure(
            !self.shards.is_empty(),
            "ShardedEngine",
            "engine.shard_structure",
            || "no shards".to_owned(),
        )?;
        let mut shard_mass = 0u64;
        let (mut folds, mut stale_slots) = (0u64, 0usize);
        for s in &self.shards {
            // Poison alone is not a violation — `lock_shard` recovers
            // from it by design; what matters is whether the summary's
            // own invariants survived the holder's panic, which the
            // audit below reports directly.
            let live = s.live.lock().unwrap_or_else(PoisonError::into_inner);
            live.summary.check_invariants()?;
            shard_mass = shard_mass.saturating_add(live.summary.n());
            let stamp = live.stamp;
            drop(live);
            folds = folds.saturating_add(stamp);
            let slot = s.published.lock().unwrap_or_else(PoisonError::into_inner);
            slot.summary.check_invariants()?;
            stale_slots += usize::from(slot.stamp != stamp);
        }
        let counted = self.items.load(Ordering::Acquire);
        ensure(
            shard_mass == counted,
            "ShardedEngine",
            "engine.mass_conservation",
            || format!("Σ shard.n() = {shard_mass} but items counter = {counted}"),
        )?;
        let epoch = self.epoch.load(Ordering::Acquire);
        ensure(
            epoch == folds && stale_slots == 0,
            "ShardedEngine",
            "engine.epoch_accounting",
            || format!("epoch {epoch} after {folds} folds, {stale_slots} slots behind their shard"),
        )?;
        let cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(cached) = cache.as_ref() {
            if cached.epoch == self.epoch.load(Ordering::Acquire) {
                let cached_n = cached.summary.n();
                ensure(
                    cached_n == counted,
                    "ShardedEngine",
                    "engine.cache_coherence",
                    || {
                        format!(
                            "cached snapshot at current epoch holds {cached_n} \
                             elements but items counter = {counted}"
                        )
                    },
                )?;
            }
        }
        Ok(())
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use sqs_core::qdigest::QDigest;
    use sqs_core::random::RandomSketch;
    use sqs_core::sampled::ReservoirQuantiles;
    use sqs_core::QuantileSummary;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    /// `cap` is `new_with`'s ignored middle argument, passed through.
    fn random_engine(shards: usize, cap: usize) -> ShardedEngine<u64, RandomSketch<u64>> {
        ShardedEngine::new_with(shards, cap, |i| RandomSketch::new(0.05, 100 + i as u64))
    }

    /// Ingests `rows` as one batch (one fold on the next shard).
    fn ingest<S>(e: &ShardedEngine<u64, S>, rows: std::ops::Range<u64>)
    where
        S: MergeableSummary<u64> + CheckInvariants + Clone,
    {
        e.ingest_batch(&rows.collect::<Vec<_>>());
    }

    #[test]
    fn round_robin_assigns_all_shards() {
        let e = random_engine(4, 8);
        for rows in 1..=8u64 {
            ingest(&e, 0..rows);
        }
        let per_shard: Vec<u64> = (0..4).map(|i| e.lock_shard(i).summary.n()).collect();
        assert_eq!(per_shard, vec![1 + 5, 2 + 6, 3 + 7, 4 + 8]);
        e.assert_invariants();
    }

    #[test]
    fn epoch_ticks_once_per_publication() {
        let e = random_engine(2, 16);
        assert_eq!(e.stats().epoch, 0);
        e.ingest_batch(&[1, 2, 3]);
        assert_eq!(e.stats().epoch, 1, "one fold = one publication");
        e.try_absorb(RandomSketch::new(0.05, 9))
            .expect("same eps must merge");
        assert_eq!(e.stats().epoch, 2, "an absorbed summary is a fold too");
        e.assert_invariants();
    }

    #[test]
    fn snapshot_records_depth_and_latency() {
        for (shards, want_depth) in [(1usize, 0u32), (2, 1), (4, 2), (5, 3), (8, 3)] {
            let e = random_engine(shards, 32);
            ingest(&e, 0..100);
            let _ = e.snapshot();
            let stats = e.stats();
            assert_eq!(stats.snapshots, 1);
            assert_eq!(stats.last_merge_depth, want_depth, "shards = {shards}");
            assert!(stats.last_snapshot_nanos > 0);
        }
    }

    #[test]
    fn snapshot_sees_all_ingested_mass() {
        let e = random_engine(4, 16);
        for t in 0..4u64 {
            ingest(&e, t * 1_000..(t + 1) * 1_000);
        }
        let mut snap = e.snapshot();
        assert_eq!(snap.n(), 4_000);
        assert_eq!(snap.n(), e.n());
        let q = snap.quantile(0.5).expect("test invariant: nonempty");
        assert!(q.abs_diff(2_000) <= 200, "median {q}");
        e.assert_invariants();
    }

    #[test]
    fn snapshot_cache_hits_between_writes_and_invalidates_on_ingest() {
        let e = random_engine(4, 64);
        e.ingest_batch(&(0..4_000u64).collect::<Vec<_>>());
        let _ = e.snapshot();
        let s1 = e.stats();
        assert_eq!(s1.snapshots, 1);
        assert_eq!(s1.snapshot_cache_hits, 0);
        // Repeated reads between writes: all cache hits, no re-merge.
        let _ = e.quantile(0.5);
        let _ = e.quantiles(&[0.25, 0.5, 0.75]);
        let _ = e.rank_estimate(2_000);
        let s2 = e.stats();
        assert_eq!(s2.snapshots, 1, "no rebuild between writes");
        assert_eq!(s2.snapshot_cache_hits, 3);
        // A write bumps the epoch; the next read rebuilds.
        e.ingest_batch(&[9_999]);
        let _ = e.quantile(0.5);
        let s3 = e.stats();
        assert_eq!(s3.snapshots, 2, "epoch change invalidates the cache");
        e.assert_invariants();
    }

    #[test]
    fn rank_index_lives_in_the_merge_cache_only() {
        let e = random_engine(4, 64);
        let has_view = |e: &ShardedEngine<u64, RandomSketch<u64>>| {
            let cache = e.cache.lock().unwrap_or_else(PoisonError::into_inner);
            cache.as_ref().is_some_and(|c| c.summary.view_is_cached())
        };
        e.ingest_batch(&(0..4_000u64).collect::<Vec<_>>());
        assert!(!e.snapshot().view_is_cached(), "never queried");
        assert!(!has_view(&e), "a snapshot clone sorts nothing");
        // The first query sorts once, inside the cached merge; the
        // second is a hit on both the merge and its index.
        let first = e.query_many(&[0.9, 0.1, 0.5, 0.5], &[1_000, 3_000]);
        assert!(has_view(&e));
        assert_eq!(e.query_many(&[0.9, 0.1, 0.5, 0.5], &[1_000, 3_000]), first);
        assert_eq!(e.stats().snapshots, 1);
        // Clones leave the index behind: what `snapshot` hands out and
        // what `ingest_batch` publishes (a clone of a live shard, which
        // no query ever touches) cost the same as before any query.
        assert!(!e.snapshot().view_is_cached());
        e.ingest_batch(&[7; 100]);
        for shard in &e.shards {
            assert!(!shard.published().view_is_cached());
        }
        // The write ticked the epoch: the stale merge, and the index
        // inside it, are replaced on the next read.
        let _ = e.query_many(&[0.5], &[3_000]);
        assert_eq!(e.stats().snapshots, 2);
        assert!(has_view(&e));
        e.assert_invariants();
    }

    #[test]
    fn quantile_and_rank_work_through_the_engine() {
        let e = ShardedEngine::new_with(3, 128, |_| QDigest::new(0.01, 20));
        for lo in (0..10_000u64).step_by(128) {
            ingest(&e, lo..(lo + 128).min(10_000));
        }
        let q = e.quantile(0.25).expect("test invariant: nonempty");
        assert!(q.abs_diff(2_500) <= 100, "q1 {q}");
        let r = e.rank_estimate(5_000);
        assert!(r.abs_diff(5_000) <= 100, "rank {r}");
        assert!(e.quantile(0.5).is_some());
        e.assert_invariants();
    }

    #[test]
    fn reservoir_backend_engine_is_sound() {
        let e = ShardedEngine::new_with(4, 64, |i| {
            ReservoirQuantiles::with_capacity(2_000, 40 + i as u64)
        });
        for _ in 0..4 {
            ingest(&e, 0..5_000);
        }
        let mut snap = e.snapshot();
        assert_eq!(snap.n(), 20_000);
        let q = snap.quantile(0.5).expect("test invariant: nonempty");
        assert!(q.abs_diff(2_500) <= 500, "median {q}");
        e.assert_invariants();
    }

    #[test]
    fn merge_tree_of_one_is_identity() {
        let mut s = RandomSketch::new(0.1, 1);
        for x in 0..100u64 {
            s.insert(x);
        }
        let (merged, depth) = merge_tree(vec![s]);
        assert_eq!(depth, 0);
        assert_eq!(merged.n(), 100);
    }

    #[test]
    fn mass_conservation_violation_is_named() {
        let e = random_engine(2, 16);
        ingest(&e, 0..64);
        e.assert_invariants();
        // Corrupt the items counter behind the shards' backs.
        e.items.fetch_add(5, Ordering::AcqRel);
        let err = e.check_invariants().expect_err("corruption must be caught");
        assert_eq!(err.invariant, "engine.mass_conservation");
        assert_eq!(err.algorithm, "ShardedEngine");
        e.items.fetch_sub(5, Ordering::AcqRel);
        // And the epoch/fold ledger: a tick no fold made …
        e.epoch.fetch_add(1, Ordering::AcqRel);
        let err = e
            .check_invariants()
            .expect_err("epoch drift must be caught");
        assert_eq!(err.invariant, "engine.epoch_accounting");
        e.epoch.fetch_sub(1, Ordering::AcqRel);
        // … and a published slot left behind its shard's last fold.
        e.shard(0)
            .published
            .lock()
            .expect("test invariant: slot not poisoned")
            .stamp = 0;
        let err = e.check_invariants().expect_err("stale slot must be caught");
        assert_eq!(err.invariant, "engine.epoch_accounting");
    }

    #[test]
    fn quantiles_sweep_matches_single_snapshot() {
        let e = random_engine(4, 64);
        for t in 0..4u64 {
            ingest(&e, t * 5_000..(t + 1) * 5_000);
        }
        let phis = [0.1, 0.25, 0.5, 0.75, 0.9];
        let swept = e.quantiles(&phis);
        // One snapshot answers all ranks; the per-φ answers must agree
        // with reading the same snapshot directly.
        let mut snap = e.snapshot();
        let direct: Vec<Option<u64>> = phis.iter().map(|&p| snap.quantile(p)).collect();
        assert_eq!(swept, direct);
        // And repeat sweeps between writes never re-merge.
        let before = e.stats().snapshots;
        let _ = e.quantiles(&phis);
        assert_eq!(e.stats().snapshots, before, "cache hit, no rebuild");
        assert_eq!(e.quantiles(&[]), Vec::<Option<u64>>::new());
    }

    #[test]
    fn query_many_matches_separate_queries_on_one_snapshot() {
        use sqs_turnstile::TurnstileSummary;
        let e = ShardedEngine::new_with(2, 64, |_| TurnstileSummary::dcs(0.05, 16, 0xABC));
        e.ingest_batch(&(0..10_000u64).collect::<Vec<_>>());
        let phis = [0.9, 0.25, 0.5];
        let xs = [0u64, 2_500, 9_999, 70_000];
        let (quantiles, ranks) = e.query_many(&phis, &xs);
        assert_eq!(quantiles, e.quantiles(&phis));
        let direct_ranks: Vec<u64> = xs.iter().map(|&x| e.rank_estimate(x)).collect();
        assert_eq!(ranks, direct_ranks);
        // Degenerate shapes: either side may be empty.
        assert_eq!(e.query_many(&[], &[]), (Vec::new(), Vec::new()));
        let (q_only, r_empty) = e.query_many(&phis, &[]);
        assert_eq!(q_only.len(), 3);
        assert!(r_empty.is_empty());
    }

    #[test]
    fn ingest_batch_is_immediately_visible() {
        let e = random_engine(3, 16);
        let batch: Vec<u64> = (0..1_000).collect();
        e.ingest_batch(&batch);
        assert_eq!(e.n(), 1_000, "no engine-side buffering");
        assert_eq!(e.snapshot().n(), 1_000, "visible to the next snapshot");
        e.ingest_batch(&[]);
        assert_eq!(e.stats().epoch, 1, "empty batches don't count");
        e.ingest_batch(&batch);
        assert_eq!(e.n(), 2_000);
        assert_eq!(e.snapshot().n(), 2_000);
        e.assert_invariants();
    }

    #[test]
    fn try_absorb_merges_and_conserves_mass() {
        let e = random_engine(2, 16);
        e.ingest_batch(&(0..4_000u64).collect::<Vec<_>>());
        let mut donor = RandomSketch::new(0.05, 999);
        for x in 4_000..8_000u64 {
            donor.insert(x);
        }
        e.try_absorb(donor).expect("same eps must merge");
        assert_eq!(e.n(), 8_000);
        e.assert_invariants(); // engine.mass_conservation holds
        let q = e.quantile(0.5).expect("test invariant: nonempty");
        assert!(q.abs_diff(4_000) <= 400, "median {q}");
    }

    #[test]
    fn try_absorb_rejects_incompatible_config() {
        let e = random_engine(2, 16);
        e.ingest_batch(&[1, 2, 3]);
        let mut donor = RandomSketch::new(0.2, 7); // different eps
        donor.insert(9);
        let back = e.try_absorb(donor).expect_err("eps mismatch must bounce");
        assert_eq!(back.n(), 1, "donor returned untouched");
        assert_eq!(e.n(), 3, "engine untouched");
        assert_eq!(e.stats().epoch, 1, "no epoch tick on rejection");
        e.assert_invariants();

        // The q-digest's accuracy is its σ: an equal-universe digest
        // built at a coarser ε carries internal nodes heavier than this
        // tenant's ⌊n/σ⌋ allows, and must bounce the same way.
        let e = ShardedEngine::new_with(2, 16, |_| QDigest::new(0.01, 16));
        e.ingest_batch(&[1, 2, 3]);
        let mut coarse = QDigest::new(0.2, 16);
        coarse.insert(9);
        let back = e.try_absorb(coarse).expect_err("σ mismatch must bounce");
        assert_eq!(back.n(), 1, "donor returned untouched");
        assert_eq!(e.n(), 3, "engine untouched");
        e.assert_invariants();
    }

    #[test]
    fn dcs_backend_shards_merge_exactly() {
        use sqs_turnstile::TurnstileSummary;
        // Same seed on every shard → identical hash draws → snapshot
        // merging is *exact*: the engine snapshot is state-identical
        // to one summary fed the whole stream directly.
        let seed = 0xD05;
        let e = ShardedEngine::new_with(4, 64, |_| TurnstileSummary::dcs(0.05, 16, seed));
        let mut direct = TurnstileSummary::dcs(0.05, 16, seed);
        let mut rng = sqs_util::rng::Xoshiro256pp::new(77);
        let data: Vec<u64> = (0..8_000).map(|_| rng.next_below(1 << 16)).collect();
        for chunk in data.chunks(250) {
            e.ingest_batch(chunk);
        }
        direct.insert_batch(&data);
        let snap = e.snapshot();
        assert_eq!(snap, direct, "sharded != direct");
        assert_eq!(e.n(), 8_000);
        e.assert_invariants();
    }

    #[test]
    fn poisoned_shard_is_recovered_and_counted() {
        let e = random_engine(1, 16);
        ingest(&e, 0..100);
        // Kill a writer while it holds shard 0: the unwind poisons the
        // shard mutex.
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = e.lock_shard(0);
            panic!("writer dies while holding shard 0");
        }));
        assert!(died.is_err());
        assert_eq!(e.stats().lock_recoveries, 0, "nothing recovered yet");
        // The next acquisition audits the summary, clears the poison,
        // and counts the recovery — then ingestion continues as if
        // nothing happened.
        ingest(&e, 100..200);
        assert_eq!(e.stats().lock_recoveries, 1);
        assert_eq!(e.n(), 200, "no mass lost to the recovery");
        e.assert_invariants();
        // Poison was cleared: the recovery path ran once, not per lock.
        ingest(&e, 200..300);
        let _ = e.snapshot();
        assert!(e.quantile(0.5).is_some());
        assert_eq!(e.stats().lock_recoveries, 1);
    }

    /// Two writers fold into one shard in live-lock order but reach the
    /// published slot in the other order: the late, older clone must
    /// not replace the newer one (red with the stamp comparison in
    /// `publish` removed).
    #[test]
    fn stale_publication_never_replaces_a_newer_one() {
        let e = random_engine(1, 16);
        let (first, second) = {
            let mut live = e.lock_shard(0);
            live.summary.insert_batch(&[1, 2, 3]);
            let first = live.stamped_clone();
            live.summary.insert_batch(&[4, 5]);
            (first, live.stamped_clone())
        };
        e.publish(0, second, 2);
        assert_eq!(e.snapshot().n(), 5, "the newer clone holds both folds");
        e.publish(0, first, 3);
        assert_eq!(e.shard(0).published().n(), 5, "late arrival dropped");
        assert_eq!(e.snapshot().n(), 5);
        assert_eq!(e.n(), 5);
        e.assert_invariants();
    }

    #[test]
    fn reads_never_take_a_live_lock() {
        let e = random_engine(2, 16);
        ingest(&e, 0..1_000);
        ingest(&e, 1_000..2_000);
        std::thread::scope(|scope| {
            // Every live lock stays held while the reader runs. The
            // guards live inside the scope so that a failure below
            // releases them on unwind and the reader can be joined.
            let _writers = (e.lock_shard(0), e.lock_shard(1));
            let (tx, rx) = std::sync::mpsc::channel();
            let e = &e;
            scope.spawn(move || {
                let _ = e.query_many(&[0.5], &[1_000]);
                let _ = tx.send(e.snapshot().n());
            });
            let n = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("a read blocked on a live shard lock");
            assert_eq!(n, 2_000);
        });
    }

    /// A reader that cannot get two equal epoch reads in
    /// `SNAPSHOT_RETRY_LIMIT` tries answers from a possibly mixed cut:
    /// counted, and never left in the cache. The ticker has to run
    /// *inside* the reader's window, which takes a second core; the
    /// test loops until it has seen one torn cut instead of assuming a
    /// schedule.
    #[test]
    fn torn_cut_is_counted_and_never_cached() {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        if cores < 2 {
            eprintln!("torn_cut_is_counted_and_never_cached: skipped on a {cores}-core host");
            return;
        }
        let e = random_engine(2, 16);
        ingest(&e, 0..1_000);
        ingest(&e, 1_000..2_000);
        let stop = AtomicBool::new(false);
        let seen = std::thread::scope(|scope| {
            // Stands in for a continuous stream of publications: the
            // tick is all a reader can see of one.
            scope.spawn(|| {
                while !stop.load(Ordering::Acquire) {
                    e.epoch.fetch_add(1, Ordering::AcqRel);
                }
            });
            let deadline = Instant::now() + Duration::from_secs(30);
            let mut seen = None;
            while seen.is_none() && Instant::now() < deadline {
                *e.cache.lock().unwrap_or_else(PoisonError::into_inner) = None;
                let before = e.stats();
                let n = e.snapshot().n();
                let after = e.stats();
                if after.snapshots_torn > before.snapshots_torn {
                    let cached = e
                        .cache
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .is_some();
                    seen = Some((n, after.snapshot_retries - before.snapshot_retries, cached));
                }
            }
            stop.store(true, Ordering::Release);
            seen
        });
        let (n, retries, cached) = seen.expect("no torn cut in 30 s of continuous ticks");
        assert_eq!(n, 2_000, "the slots are whole whatever the epoch does");
        assert_eq!(retries, SNAPSHOT_RETRY_LIMIT as u64, "retried to the limit");
        assert!(!cached, "a torn cut is never cached");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock order")]
    fn out_of_order_shard_locks_panic_in_debug() {
        let e = random_engine(2, 16);
        let _hi = e.lock_shard(1);
        let _lo = e.lock_shard(0); // descending: OrderedMutex trips
    }

    #[cfg(debug_assertions)]
    #[test]
    fn ascending_shard_locks_are_legal() {
        let e = random_engine(3, 16);
        let _a = e.lock_shard(0);
        let _b = e.lock_shard(2); // ascending: the sanctioned exception
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = ShardedEngine::<u64, RandomSketch<u64>>::new_with(0, 8, |i| {
            RandomSketch::new(0.1, i as u64)
        });
    }
}
