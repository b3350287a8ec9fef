//! A sharded concurrent engine over the mergeable quantile summaries
//! of `sqs-core`.
//!
//! The paper studies single-threaded summaries; production collectors
//! ingest from many threads at once. The mergeable-summary property
//! (Agarwal et al., PODS'12 — see `PAPERS.md`) makes the standard
//! scale-out construction sound: run `k` independent ε-summaries, one
//! per *shard*, and answer queries by folding the shards with a merge
//! tree — sharding buys concurrency without spending accuracy.
//!
//! One way in, one way out, one lock per shard (safe stable Rust:
//! `forbid(unsafe_code)`, atomics + mutex leaves only):
//!
//! 1. **Writes publish nothing** — [`ShardedEngine::ingest_batch`]
//!    folds the caller's slice into the next shard's summary under its
//!    [`OrderedMutex`] and, still under it, counts the mass and ticks
//!    the engine epoch. Nothing is cloned, buffered or queued, and
//!    writes to different shards run in parallel.
//! 2. **Reads cut on demand** — a read takes the cache mutex and
//!    answers from the read cache if it carries the current epoch.
//!    Otherwise it takes *every* shard lock in ascending order, reads
//!    the epoch (stable: each tick happens under one of the held
//!    locks), copies what it answers from, and releases: a cut is a
//!    state the engine was in, by construction. A summary with
//!    [`runs`](MergeableSummary::runs) is answered from the union of
//!    the shards' runs: the cut copies the fills, and the stable runs
//!    only when a shard's generation moved, and the read indexes them
//!    after the locks are released — the stable index outlives writes.
//!    A linear summary (DCM, DCS) answers the first read after a fold
//!    under the locks from the sum of the shards' cells
//!    ([`answer_sum`](MergeableSummary::answer_sum)), with no clone, and
//!    keeps that read's answers; a different read at the same epoch
//!    merges clones and caches the merge, so reads polling between
//!    folds hit. Any other summary, and every
//!    [`snapshot`](ShardedEngine::snapshot), is answered from the merge
//!    of `k` clones.
//!
//! Lock order: cache, then shards ascending; a writer takes one shard
//! lock and never the cache. `docs/ENGINE.md` has the argument, the
//! wait bound this costs and the error analysis.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use sqs_core::buffers::{RankIndex, Runs, UnionReader};
use sqs_core::{MergeableSummary, QuantileSummary};
use sqs_util::audit::{ensure, CheckInvariants, InvariantViolation};
use sqs_util::pad::CachePadded;
use sqs_util::sync::{next_domain, OrderedMutex, OrderedMutexGuard};

/// The most elements an engine will count: [`ShardedEngine::try_absorb`]
/// refuses a summary that would take `items` past it, so one that lies
/// about its `n` cannot wrap the `u64` counters (or a turnstile
/// backend's `i64` live count), and from below it `ingest_batch` would
/// need another 2⁶³ rows to.
const MAX_ITEMS: u64 = i64::MAX as u64;

/// A point-in-time copy of the engine's operational counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Elements folded into shard summaries so far.
    pub items: u64,
    /// The engine epoch: one tick per fold (`ingest_batch` or
    /// `try_absorb`). The snapshot cache's invalidation signal.
    pub epoch: u64,
    /// Cuts taken so far (read-cache misses): each took every shard
    /// lock once, for a read or a [`snapshot`](ShardedEngine::snapshot)
    /// the epoch-keyed cache could not answer.
    pub snapshots: u64,
    /// Reads and snapshots answered from the epoch-keyed read cache
    /// without a cut.
    pub snapshot_cache_hits: u64,
    /// Always 0: a cut is taken under every shard lock and never
    /// retried. Kept because `benchmark/` reads the field; goes with
    /// the next benchmark-only change.
    pub snapshot_retries: u64,
    /// Always 0: no cut can mix epochs. Kept for the same reason as
    /// [`snapshot_retries`](Self::snapshot_retries).
    pub snapshots_torn: u64,
    /// Poisoned shard locks recovered so far: a writer panicked while
    /// folding into a shard, and a later acquisition audited the
    /// summary's invariants, cleared the poison, and carried on —
    /// without whatever that thread had not yet folded.
    pub lock_recoveries: u64,
}

/// A merge of `k` shard clones and the epoch of the cut it was taken at.
struct Merged<S> {
    epoch: u64,
    summary: S,
}

/// One part of the shards' runs as a cut copied it — the samples back
/// to back, each run's end and weight — until the first read indexes it,
/// after the shard locks are released.
struct Part<T> {
    samples: Vec<T>,
    runs: Vec<(usize, u64)>,
    index: Option<RankIndex<T>>,
}

impl<T: Ord + Copy> Part<T> {
    fn copy<'a>(runs: impl Iterator<Item = (&'a [T], u64)>) -> Self
    where
        T: 'a,
    {
        let (mut samples, mut ends) = (Vec::new(), Vec::new());
        for (data, weight) in runs {
            samples.extend_from_slice(data);
            ends.push((samples.len(), weight));
        }
        Self {
            samples,
            runs: ends,
            index: None,
        }
    }

    /// The copied runs as slices.
    fn slices<'a>(samples: &'a [T], runs: &[(usize, u64)]) -> Vec<(&'a [T], u64)> {
        let starts = std::iter::once(0).chain(runs.iter().map(|&(end, _)| end));
        let bounds = starts.zip(runs);
        bounds
            .map(|(start, &(end, weight))| (samples.get(start..end).unwrap_or_default(), weight))
            .collect()
    }

    /// The index over the copied runs, built (and the copy dropped) on
    /// first use.
    fn index(&mut self) -> &RankIndex<T> {
        self.index.get_or_insert_with(|| {
            let (samples, runs) = (
                std::mem::take(&mut self.samples),
                std::mem::take(&mut self.runs),
            );
            RankIndex::build(&Self::slices(&samples, &runs))
        })
    }

    /// Whether this part is what a copy of `runs` would be.
    fn holds(&self, runs: &[(&[T], u64)]) -> bool {
        match &self.index {
            Some(index) => *index == RankIndex::build(runs),
            None => Self::slices(&self.samples, &self.runs) == runs,
        }
    }
}

/// One shard's fill as the last cut saw it: its samples, sorted up to
/// where the last read sorted them, and their weight.
struct Fill<T> {
    weight: u64,
    samples: Vec<T>,
}

impl<T: Ord + Copy> Fill<T> {
    /// Brings the copy up to the shard's fill in `runs`, read under its
    /// lock. At an unmoved generation the fill has only grown at its
    /// end (`Runs`' contract), so only what was appended is copied.
    fn cut(mut self, runs: &Runs<'_, T>, same_generation: bool) -> Self {
        let (data, weight) = runs.fresh.unwrap_or((&[], self.weight));
        let grown = same_generation && (self.samples.is_empty() || self.weight == weight);
        match data.get(self.samples.len()..) {
            Some(appended) if grown => self.samples.extend_from_slice(appended),
            _ => {
                self.samples.clear();
                self.samples.extend_from_slice(data);
            }
        }
        self.weight = weight;
        self
    }

    /// Whether the copy holds the samples of `fresh` at its weight.
    fn holds(&self, fresh: Option<(&[T], u64)>) -> bool {
        let (data, weight) = fresh.unwrap_or((&[], self.weight));
        let (mut mine, mut theirs) = (self.samples.clone(), data.to_vec());
        mine.sort_unstable();
        theirs.sort_unstable();
        weight == self.weight && mine == theirs
    }
}

/// The shards' runs as of a cut: the stable runs of the last cut that
/// found a shard's generation moved, and every shard's fill.
struct Parts<T> {
    epoch: u64,
    /// Each shard's generation when `stable` was copied: the key that
    /// lets `stable`, and its index, outlive writes.
    generations: Vec<u64>,
    stable: Part<T>,
    fills: Vec<Fill<T>>,
    /// The index over `fills`, built by the first read of this cut.
    fresh: Option<RankIndex<T>>,
}

impl<T: Ord + Copy> Parts<T> {
    /// Copies `runs` (read under every shard lock at `epoch`), keeping
    /// `kept` whole if it is of this epoch, its stable part if every
    /// generation still matches, and a shard's fill copy, extended, if
    /// that shard's does.
    fn cut(epoch: u64, runs: &[Runs<'_, T>], kept: Option<Self>) -> Self {
        let generations: Vec<u64> = runs.iter().map(|r| r.generation).collect();
        let (stable, fills) = match kept {
            Some(kept) if kept.epoch == epoch => return kept,
            Some(kept) => {
                let same = |i: usize| kept.generations.get(i) == generations.get(i);
                let fills = (runs.iter().zip(kept.fills).enumerate())
                    .map(|(i, (r, fill))| fill.cut(r, same(i)))
                    .collect();
                (
                    (kept.generations == generations).then_some(kept.stable),
                    fills,
                )
            }
            None => {
                let empty = || Fill {
                    weight: 1,
                    samples: Vec::new(),
                };
                (None, runs.iter().map(|r| empty().cut(r, false)).collect())
            }
        };
        let copy = || Part::copy(runs.iter().flat_map(|r| r.stable.iter().copied()));
        Self {
            epoch,
            generations,
            stable: stable.unwrap_or_else(copy),
            fills,
            fresh: None,
        }
    }

    /// The reader over both parts, indexing what this cut left
    /// unindexed: the fills always, sorted in place (a stable sort, so
    /// a sorted prefix and an appended tail cost a sort of the tail and
    /// one merge), the stable runs when they were copied afresh.
    fn reader(&mut self) -> UnionReader<'_, T> {
        let fills = &mut self.fills;
        let fresh = self.fresh.get_or_insert_with(|| {
            fills.iter_mut().for_each(|fill| fill.samples.sort());
            let runs: Vec<(&[T], u64)> = fills.iter().map(|f| (&f.samples[..], f.weight)).collect();
            RankIndex::build(&runs)
        });
        UnionReader::new([self.stable.index(), fresh])
    }
}

/// What the read path keeps between folds.
struct ReadCache<T, S> {
    /// The merge of the last cut that took clones: every snapshot, a
    /// linear summary's other read after its summed one at one epoch,
    /// and every read of a summary that neither has runs nor sums its
    /// shards.
    merged: Option<Merged<S>>,
    /// The shards' runs as of the last cut, for summaries that have
    /// them: what their reads answer from.
    parts: Option<Parts<T>>,
    /// The last read answered from the sum of the shards' cells. While
    /// its epoch is current, the same read is answered from it, and any
    /// other clones and merges instead, so the reads after it hit the
    /// cache and wait for no fold.
    summed: Option<Summed<T>>,
}

/// A read answered from the sum of the shards' cells: the epoch of its
/// cut, the φs and values it was asked, and its answers.
struct Summed<T> {
    epoch: u64,
    phis: Vec<f64>,
    xs: Vec<T>,
    answers: Answers<T>,
}

impl<T, S> ReadCache<T, S> {
    /// Whether a read at `epoch` is answered without a cut.
    fn reads_at(&self, epoch: u64) -> bool {
        match &self.parts {
            Some(parts) => parts.epoch == epoch,
            None => self.merged.as_ref().is_some_and(|m| m.epoch == epoch),
        }
    }
}

/// The answers of one read: a φ-sweep and a rank per probe.
type Answers<T> = (Vec<Option<T>>, Vec<u64>);

/// What one read answers from, after the cut or from the read cache.
enum Reader<'a, T, S> {
    /// The union of the shards' runs.
    Runs(UnionReader<'a, T>),
    /// The merge of a cut, for a summary without runs.
    Merged(&'a mut S),
}

impl<T: Ord + Copy, S: QuantileSummary<T>> Reader<'_, T, S> {
    fn answer(&mut self, phis: &[f64], xs: &[T]) -> Answers<T> {
        match self {
            Self::Runs(r) => (r.quantiles(phis), xs.iter().map(|&x| r.rank(x)).collect()),
            Self::Merged(s) => (
                s.quantiles(phis),
                xs.iter().map(|&x| s.rank_estimate(x)).collect(),
            ),
        }
    }
}

/// A concurrent quantile-ingestion engine: `k` cache-padded shards,
/// each one mergeable ε-summary behind one lock (see the
/// [crate docs](crate)). Shared by reference across threads: all
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
    /// One summary per shard, each in its own [`CachePadded`] slot so
    /// neighbouring shards' lock words never false-share a line.
    shards: Vec<CachePadded<OrderedMutex<S>>>,
    /// Folds so far. Ticked only under a shard lock, so it is stable
    /// while all of them are held; the snapshot cache's key.
    epoch: CachePadded<AtomicU64>,
    /// Round-robin shard router for incoming batches.
    router: CachePadded<AtomicUsize>,
    /// Elements folded so far; moves with `epoch`, under the same lock.
    items: CachePadded<AtomicU64>,
    snapshots: AtomicU64,
    cache_hits: AtomicU64,
    lock_recoveries: AtomicU64,
    /// What the last cuts copied, keyed on the epoch they were taken
    /// at. First in the lock order: held across a miss's shard locks.
    cache: Mutex<ReadCache<T, S>>,
    _elem: PhantomData<fn(T)>,
}

impl<T, S> ShardedEngine<T, S>
where
    T: Ord + Copy,
    S: MergeableSummary<T> + Clone,
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
                .map(|i| CachePadded::new(OrderedMutex::new(domain, i, make(i))))
                .collect(),
            epoch: CachePadded::new(AtomicU64::new(0)),
            router: CachePadded::new(AtomicUsize::new(0)),
            items: CachePadded::new(AtomicU64::new(0)),
            snapshots: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            lock_recoveries: AtomicU64::new(0),
            cache: Mutex::new(ReadCache {
                merged: None,
                parts: None,
                summed: None,
            }),
            _elem: PhantomData,
        }
    }

    /// Elements folded into shard summaries so far. A fold is counted
    /// under the lock it ran under, so a snapshot taken after reading
    /// `n()` holds at least that many (exactly that many at quiescence).
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
            snapshot_retries: 0,
            snapshots_torn: 0,
            lock_recoveries: self.lock_recoveries.load(Ordering::Acquire),
        }
    }

    fn lock_shard(&self, shard: usize) -> OrderedMutexGuard<'_, S> {
        let m = self
            .shards
            .get(shard)
            .expect("Engine invariant: shard index within shard count");
        m.lock().unwrap_or_else(|poisoned| {
            // A holder panicked mid-fold — necessarily inside the
            // summary's own insert/merge code, since the engine does
            // nothing else under the guard that can unwind. The summary
            // is safe to keep only if its structural invariants
            // survived; audit it (panicking loudly if not), then clear
            // the poison so later acquisitions stop paying this path.
            let guard = poisoned.into_inner();
            guard.assert_invariants();
            m.clear_poison();
            self.lock_recoveries.fetch_add(1, Ordering::AcqRel);
            guard
        })
    }

    /// Counts one finished fold. Takes the guard the fold ran under as
    /// proof that `items` and `epoch` move inside that critical
    /// section: a reader holding every shard lock therefore reads an
    /// epoch and a mass that label the `k` summaries exactly.
    fn count_fold(&self, _held: &OrderedMutexGuard<'_, S>, mass: u64) {
        self.items.fetch_add(mass, Ordering::AcqRel);
        // Release half of the hit path's pair: a reader whose Acquire
        // load sees this tick misses the cache and cuts afresh.
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Ingests one caller-assembled batch: picks the next shard
    /// round-robin and folds the whole slice, counts it and ticks the
    /// epoch in one critical section under that shard's lock. No clone.
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
        let mut held = self.lock_shard(shard);
        held.insert_batch(xs);
        self.count_fold(&held, xs.len() as u64);
    }

    /// Merges an externally-built summary (e.g. one decoded off the
    /// wire) into shard 0 under a single critical section, adding its
    /// mass to the engine's totals — the panic-free gate remote
    /// `MERGE_SNAPSHOT` traffic goes through. Returns the summary back
    /// as `Err` without touching anything if its accuracy configuration
    /// is incompatible with this engine's shards, or if its claimed `n`
    /// would take the engine's count past `i64::MAX` (no honest stream
    /// gets there; a crafted frame would otherwise wrap the counters).
    pub fn try_absorb(&self, other: S) -> Result<(), S> {
        let mass = other.n();
        let mut held = self.lock_shard(0);
        let fits = mass <= MAX_ITEMS.saturating_sub(self.n());
        if !fits || !held.merge_compatible(&other) {
            return Err(other);
        }
        held.merge_from(other);
        self.count_fold(&held, mass);
        Ok(())
    }

    /// Takes a cut: every shard lock in ascending order, the epoch,
    /// then what the read needs. A summary with runs leaves its runs in
    /// `cache` (the fills; the stable runs only where a generation
    /// moved) and is indexed after the locks are released, so a writer
    /// waits for copies only. A read (`query`) of one without runs is
    /// answered here, under the locks, if it sums its shards
    /// ([`answer_sum`](MergeableSummary::answer_sum)): nothing is
    /// cloned, a writer waits for the sweep, and the read and its
    /// answers are kept under the epoch. Otherwise — another read at
    /// that epoch, a summary that neither has runs nor sums, and every
    /// snapshot (`query` is `None`) — the cut clones the `k` shards and
    /// leaves their merge in `cache`.
    fn cut(
        &self,
        cache: &mut ReadCache<T, S>,
        query: Option<(&[f64], &[T])>,
    ) -> Option<Answers<T>> {
        self.snapshots.fetch_add(1, Ordering::AcqRel);
        let (epoch, clones) = {
            // The engine's one lock order: the caller holds the cache,
            // then every shard ascending; writers take one shard and never
            // the cache (docs/ENGINE.md §1.2).
            let held: Vec<_> = (0..self.shards.len()).map(|i| self.lock_shard(i)).collect();
            let epoch = self.epoch.load(Ordering::Acquire);
            let runs: Option<Vec<Runs<'_, T>>> = held.iter().map(|shard| shard.runs()).collect();
            if let Some(runs) = runs {
                cache.parts = Some(Parts::cut(epoch, &runs, cache.parts.take()));
                if query.is_some() {
                    return None;
                }
            } else if let Some((phis, xs)) = query.filter(|_| {
                let summed = cache.summed.as_ref();
                summed.is_none_or(|s| s.epoch != epoch)
            }) {
                let parts: Vec<&S> = held.iter().map(|shard| &**shard).collect();
                if let Some(answers) = S::answer_sum(&parts, phis, xs) {
                    cache.summed = Some(Summed {
                        epoch,
                        phis: phis.to_vec(),
                        xs: xs.to_vec(),
                        answers: answers.clone(),
                    });
                    return Some(answers);
                }
            }
            (epoch, held.iter().map(|shard| S::clone(shard)).collect())
        };
        let (summary, _depth) = merge_tree(clones);
        cache.merged = Some(Merged { epoch, summary });
        None
    }

    /// Answers `phis` and the ranks of `xs` from what the current epoch
    /// reads from — the engine's one read path. A hit (no fold since
    /// the last cut that left something to read, or since the summed
    /// read that asked the same) costs the cache mutex and no shard
    /// lock. A miss cuts (see [`cut`](Self::cut)). The cache mutex is
    /// held throughout: racing readers queue behind one cut.
    fn read(&self, phis: &[f64], xs: &[T]) -> Answers<T> {
        // Refused before any lock is taken: a summed read answers under
        // the shard locks, and a panic there would poison every shard.
        for &phi in phis {
            assert!(
                phi > 0.0 && phi < 1.0,
                "phi must be in the open interval (0,1), got {phi}"
            );
        }
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch = self.epoch.load(Ordering::Acquire);
        let asked = |s: &&Summed<T>| s.epoch == epoch && s.phis == phis && s.xs == xs;
        if let Some(summed) = cache.summed.as_ref().filter(asked) {
            self.cache_hits.fetch_add(1, Ordering::AcqRel);
            return summed.answers.clone();
        }
        if cache.reads_at(epoch) {
            self.cache_hits.fetch_add(1, Ordering::AcqRel);
        } else if let Some(answers) = self.cut(&mut cache, Some((phis, xs))) {
            return answers;
        }
        let cache = &mut *cache;
        let mut reader = match (&mut cache.parts, &mut cache.merged) {
            (Some(parts), _) => Reader::Runs(parts.reader()),
            (None, merged) => Reader::Merged(
                &mut merged
                    .as_mut()
                    .expect("Engine invariant: a cut leaves runs or a merge")
                    .summary,
            ),
        };
        reader.answer(phis, xs)
    }

    /// Folds the shard summaries into one queryable summary (an
    /// ε-summary of every element ingested so far): a clone of the
    /// epoch-cached merge, so a burst of snapshots between writes costs
    /// one cut and one merge. Its answers are within ε of the engine's
    /// own, not equal to them, where the engine answers from the union
    /// of the shards' runs; a linear summary's are the engine's.
    pub fn snapshot(&self) -> S {
        let mut cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let epoch = self.epoch.load(Ordering::Acquire);
        if cache.merged.as_ref().is_some_and(|m| m.epoch == epoch) {
            self.cache_hits.fetch_add(1, Ordering::AcqRel);
        } else {
            self.cut(&mut cache, None);
        }
        let merged = cache.merged.as_ref();
        merged
            .expect("Engine invariant: a merging cut leaves a merge")
            .summary
            .clone()
    }

    /// An ε-approximate φ-quantile of everything ingested so far.
    /// `None` while empty.
    ///
    /// Answering *many* ranks? [`quantiles`](Self::quantiles) answers
    /// a whole sweep against one read.
    pub fn quantile(&self, phi: f64) -> Option<T> {
        self.read(&[phi], &[]).0.pop().flatten()
    }

    /// Answers a whole rank sweep from **one** epoch-consistent read:
    /// every φ reads the same cut, so the answers are mutually
    /// consistent, and a sweep between writes of a summary with runs
    /// takes no shard lock (cache hit); a linear summary's does when it
    /// repeats the summed read or follows the merging one. A merged or
    /// summed read rides the summary's
    /// [`quantiles`](sqs_core::QuantileSummary::quantiles) walk — the
    /// turnstile backends answer the whole sorted sweep in one descent
    /// of their dyadic tree instead of searching per φ.
    ///
    /// # Panics
    /// Panics if any `φ ∉ (0, 1)`, matching
    /// [`QuantileSummary::quantile`](sqs_core::QuantileSummary::quantile).
    pub fn quantiles(&self, phis: &[f64]) -> Vec<Option<T>> {
        self.query_many(phis, &[]).0
    }

    /// Estimated rank of `x` over everything ingested so far.
    pub fn rank_estimate(&self, x: T) -> u64 {
        self.read(&[], &[x]).1.pop().unwrap_or_default()
    }

    /// Answers a φ-sweep **and** a rank sweep against the *same*
    /// epoch-consistent read in one call — the service's `QUERY_MANY`
    /// op. One read, one batched quantile sweep, one rank pass; the two
    /// answer vectors are mutually consistent by construction (no fold
    /// can land between them).
    ///
    /// # Panics
    /// Panics if any `φ ∉ (0, 1)`.
    pub fn query_many(&self, phis: &[f64], xs: &[T]) -> (Vec<Option<T>>, Vec<u64>) {
        if phis.is_empty() && xs.is_empty() {
            return (Vec::new(), Vec::new());
        }
        self.read(phis, xs)
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
    S: MergeableSummary<T> + Clone,
{
    /// Engine-level invariants on top of each shard's own:
    ///
    /// * `engine.shard_structure` — at least one shard exists (a
    ///   construction-time guarantee that must survive);
    /// * every shard summary's `CheckInvariants` (first violation
    ///   wins);
    /// * `engine.mass_conservation` — the shards' element counts sum
    ///   exactly to the engine's items counter: no fold lost or
    ///   double-counted an element;
    /// * `engine.cache_coherence` — a cached merge claiming the
    ///   current epoch carries exactly the folded mass; cached stable
    ///   runs whose generation key still matches the shards' equal a
    ///   rebuild from them (so a missed generation bump fails here, not
    ///   in an answer); cached fills claiming the current epoch equal
    ///   the shards' fills.
    ///
    /// Takes the read path's locks in the read path's order (cache,
    /// then every shard ascending), so it audits one state of the
    /// engine and holds **while writers run**, not only at quiescence.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        ensure(
            !self.shards.is_empty(),
            "ShardedEngine",
            "engine.shard_structure",
            || "no shards".to_owned(),
        )?;
        let cache = self.cache.lock().unwrap_or_else(PoisonError::into_inner);
        // Poison alone is not a violation — `lock_shard` recovers from
        // it by design; what matters is whether the summary's own
        // invariants survived the holder's panic, which the audit below
        // reports directly (and without `lock_shard`'s side effects).
        let held: Vec<_> = self
            .shards
            .iter()
            // analyze:allow(SQS-L01): same order as the read path — cache, then shards ascending (docs/ENGINE.md §1.2)
            .map(|shard| shard.lock().unwrap_or_else(PoisonError::into_inner))
            .collect();
        let mut shard_mass = 0u64;
        for shard in &held {
            shard.check_invariants()?;
            shard_mass = shard_mass.saturating_add(shard.n());
        }
        let counted = self.n();
        ensure(
            shard_mass == counted,
            "ShardedEngine",
            "engine.mass_conservation",
            || format!("Σ shard.n() = {shard_mass} but items counter = {counted}"),
        )?;
        let epoch = self.epoch.load(Ordering::Acquire);
        if let Some(merged) = cache.merged.as_ref().filter(|m| m.epoch == epoch) {
            let merged_n = merged.summary.n();
            ensure(
                merged_n == counted,
                "ShardedEngine",
                "engine.cache_coherence",
                || {
                    format!(
                        "cached merge at current epoch holds {merged_n} \
                         elements but items counter = {counted}"
                    )
                },
            )?;
        }
        let runs: Option<Vec<Runs<'_, T>>> = held.iter().map(|shard| shard.runs()).collect();
        if let (Some(parts), Some(runs)) = (cache.parts.as_ref(), runs) {
            let generations: Vec<u64> = runs.iter().map(|r| r.generation).collect();
            let stable: Vec<_> = runs.iter().flat_map(|r| r.stable.iter().copied()).collect();
            ensure(
                parts.generations != generations || parts.stable.holds(&stable),
                "ShardedEngine",
                "engine.cache_coherence",
                || {
                    format!(
                        "cached stable runs at generations {generations:?} differ \
                         from a rebuild (a missed generation bump)"
                    )
                },
            )?;
            let fills = runs.iter().zip(&parts.fills);
            ensure(
                parts.epoch != epoch || fills.clone().all(|(r, fill)| fill.holds(r.fresh)),
                "ShardedEngine",
                "engine.cache_coherence",
                || format!("cached fills at current epoch {epoch} differ from the shards'"),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_core::codec::{seal, WireCodec};
    use sqs_core::qdigest::QDigest;
    use sqs_core::random::RandomSketch;
    use sqs_core::sampled::ReservoirQuantiles;
    use sqs_core::QuantileSummary;

    /// `cap` is `new_with`'s ignored middle argument, passed through.
    fn random_engine(shards: usize, cap: usize) -> ShardedEngine<u64, RandomSketch<u64>> {
        ShardedEngine::new_with(shards, cap, |i| RandomSketch::new(0.05, 100 + i as u64))
    }

    /// Ingests `rows` as one batch (one fold on the next shard).
    fn ingest<S>(e: &ShardedEngine<u64, S>, rows: std::ops::Range<u64>)
    where
        S: MergeableSummary<u64> + Clone,
    {
        e.ingest_batch(&rows.collect::<Vec<_>>());
    }

    #[test]
    fn round_robin_assigns_all_shards() {
        let e = random_engine(4, 8);
        for rows in 1..=8u64 {
            ingest(&e, 0..rows);
        }
        let per_shard: Vec<u64> = (0..4).map(|i| e.lock_shard(i).n()).collect();
        assert_eq!(per_shard, vec![1 + 5, 2 + 6, 3 + 7, 4 + 8]);
        e.assert_invariants();
    }

    #[test]
    fn epoch_ticks_once_per_fold() {
        let e = random_engine(2, 16);
        assert_eq!(e.stats().epoch, 0);
        e.ingest_batch(&[1, 2, 3]);
        assert_eq!(e.stats().epoch, 1, "one batch = one fold = one tick");
        e.try_absorb(RandomSketch::new(0.05, 9))
            .expect("same eps must merge");
        assert_eq!(e.stats().epoch, 2, "an absorbed summary is a fold too");
        e.assert_invariants();
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

    /// Generations of the shards' pools, read under each lock in turn.
    fn generations(e: &ShardedEngine<u64, RandomSketch<u64>>) -> Vec<u64> {
        let generation = |i| e.lock_shard(i).runs().map(|r| r.generation);
        (0..e.shards.len()).filter_map(generation).collect()
    }

    /// The index a fresh copy of the shards' stable runs gets.
    fn stable_index(e: &ShardedEngine<u64, RandomSketch<u64>>) -> RankIndex<u64> {
        let mut runs: Vec<(Vec<u64>, u64)> = Vec::new();
        for i in 0..e.shards.len() {
            if let Some(r) = e.lock_shard(i).runs() {
                runs.extend(
                    r.stable
                        .iter()
                        .map(|&(data, weight)| (data.to_vec(), weight)),
                );
            }
        }
        let slices: Vec<(&[u64], u64)> = runs.iter().map(|(d, w)| (d.as_slice(), *w)).collect();
        RankIndex::build(&slices)
    }

    #[test]
    fn rank_indexes_live_in_the_read_cache_only() {
        let e = random_engine(4, 64);
        let indexed = |e: &ShardedEngine<u64, RandomSketch<u64>>| {
            let cache = e.cache.lock().unwrap_or_else(PoisonError::into_inner);
            let parts = cache.parts.as_ref().expect("a read cut the runs");
            (parts.stable.index.is_some(), parts.fresh.is_some())
        };
        e.ingest_batch(&(0..4_000u64).collect::<Vec<_>>());
        let _ = e.snapshot();
        // The snapshot's cut copied the runs; nothing indexed them yet.
        assert_eq!(indexed(&e), (false, false));
        // The first query indexes both parts inside the read cache; the
        // second is a hit on both.
        let first = e.query_many(&[0.9, 0.1, 0.5, 0.5], &[1_000, 3_000]);
        assert_eq!(indexed(&e), (true, true));
        assert_eq!(e.query_many(&[0.9, 0.1, 0.5, 0.5], &[1_000, 3_000]), first);
        assert_eq!(e.stats().snapshots, 1);
        // A write that releases no fill keeps every generation: the next
        // read copies the fills only, and the stable index survives it —
        // the same index, not one rebuilt equal to it: a marker planted in
        // its place is still there after the read.
        let marker = || RankIndex::build(&[(&[u64::MAX][..], 1)]);
        let stable = |e: &ShardedEngine<u64, RandomSketch<u64>>, index| {
            let mut cache = e.cache.lock().unwrap_or_else(PoisonError::into_inner);
            let parts = cache.parts.as_mut().expect("a read cut the runs");
            std::mem::replace(&mut parts.stable.index, index)
        };
        let real = stable(&e, Some(marker()));
        let before = generations(&e);
        e.ingest_batch(&[7; 10]);
        assert_eq!(generations(&e), before);
        let _ = e.query_many(&[0.5], &[3_000]);
        assert_eq!(e.stats().snapshots, 2);
        let kept = stable(&e, real);
        assert!(kept == Some(marker()), "the stable index was rebuilt");
        assert_eq!(indexed(&e), (true, true));
        e.assert_invariants();
        let old_index = stable_index(&e);
        let cache = e.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let parts = cache.parts.as_ref().expect("a read cut the runs");
        assert!(parts.stable.index.as_ref() == Some(&old_index));
        drop(cache);
        // A write that releases a fill moves its shard's generation: the
        // stable runs are copied and indexed afresh.
        while generations(&e) == before {
            e.ingest_batch(&(0..500u64).collect::<Vec<_>>());
        }
        let (moved, new_index) = (generations(&e), stable_index(&e));
        let _ = e.quantile(0.5);
        assert_eq!(indexed(&e), (true, true));
        let cache = e.cache.lock().unwrap_or_else(PoisonError::into_inner);
        let parts = cache.parts.as_ref().expect("a read cut the runs");
        assert_eq!(parts.generations, moved);
        let index = parts.stable.index.as_ref().expect("indexed above");
        assert!(*index != old_index, "the stable index outlived its runs");
        assert!(
            *index == new_index,
            "the stable index is not of the new runs"
        );
        drop(cache);
        e.assert_invariants();
    }

    /// A generation bump a summary forgot, as the engine would see it:
    /// the stable runs moved and the cached key still matches. The
    /// audit rebuilds the key-matching runs and names the difference.
    #[test]
    fn a_missed_generation_bump_fails_the_audit() {
        let e = random_engine(2, 16);
        ingest(&e, 0..4_000);
        let _ = e.quantile(0.5);
        e.assert_invariants();
        let before = generations(&e);
        while generations(&e) == before {
            ingest(&e, 0..300);
        }
        {
            let mut cache = e.cache.lock().unwrap_or_else(PoisonError::into_inner);
            let parts = cache.parts.as_mut().expect("a read cut the runs");
            parts.generations = generations(&e);
        }
        let err = e.check_invariants().expect_err("a stale stable index");
        assert_eq!(err.invariant, "engine.cache_coherence");
        assert!(err.to_string().contains("missed generation bump"), "{err}");
        // Fills claiming the current epoch are held to the shards' too.
        let e = random_engine(1, 16);
        ingest(&e, 0..50);
        let _ = e.quantile(0.5);
        {
            let mut cache = e.cache.lock().unwrap_or_else(PoisonError::into_inner);
            let parts = cache.parts.as_mut().expect("a read cut the runs");
            parts.fills[0].samples.push(1);
        }
        let err = e.check_invariants().expect_err("stale fills");
        assert_eq!(err.invariant, "engine.cache_coherence");
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
    fn merge_tree_keeps_all_mass_at_depth_ceil_log2() {
        for (k, want_depth) in [(1u64, 0u32), (2, 1), (4, 2), (5, 3), (8, 3)] {
            let leaves = (0..k)
                .map(|i| {
                    let mut s = RandomSketch::new(0.1, i);
                    s.insert_batch(&(0..100u64).collect::<Vec<_>>());
                    s
                })
                .collect();
            let (merged, depth) = merge_tree(leaves);
            assert_eq!(depth, want_depth, "k = {k}");
            assert_eq!(merged.n(), 100 * k, "k = {k}");
        }
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
    }

    /// A sweep answers from one read of the shards' runs: each φ as a
    /// single `quantile` answers it, every answer within ε of the truth,
    /// as the merged snapshot's are — the two are different ε-summaries
    /// of the same stream, not one.
    #[test]
    fn quantiles_sweep_matches_single_quantiles_and_the_snapshot_within_eps() {
        let e = random_engine(4, 64);
        for t in 0..4u64 {
            ingest(&e, t * 5_000..(t + 1) * 5_000);
        }
        let phis = [0.1, 0.25, 0.5, 0.75, 0.9];
        let swept = e.quantiles(&phis);
        let direct: Vec<Option<u64>> = phis.iter().map(|&p| e.quantile(p)).collect();
        assert_eq!(swept, direct);
        let mut snap = e.snapshot();
        for (&phi, q) in phis.iter().zip(&swept) {
            let truth = phi * 20_000.0;
            let q = q.expect("test invariant: nonempty") as f64;
            let s = snap.quantile(phi).expect("test invariant: nonempty") as f64;
            assert!((q - truth).abs() <= 0.05 * 20_000.0, "phi {phi}: {q}");
            assert!(
                (s - truth).abs() <= 0.05 * 20_000.0,
                "phi {phi}: snapshot {s}"
            );
        }
        // And repeat sweeps between writes never cut again.
        let before = e.stats().snapshots;
        let _ = e.quantiles(&phis);
        assert_eq!(e.stats().snapshots, before, "cache hit, no cut");
        assert_eq!(e.quantiles(&[]), Vec::<Option<u64>>::new());
    }

    #[test]
    fn query_many_matches_separate_queries_on_one_snapshot() {
        use sqs_turnstile::Dcs;
        let e = ShardedEngine::new_with(2, 64, |_| Dcs::dcs(0.05, 16, 0xABC));
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

    /// An honest `RandomSketch` frame whose `n` field (bytes 36..44:
    /// 16 of frame header, then ε, h and s) is overwritten and the
    /// frame re-sealed. It decodes and passes the audit — `Σ ≤ n` is
    /// all `random.mass_bound` asks.
    fn sketch_claiming(n: u64) -> RandomSketch<u64> {
        let mut honest = RandomSketch::new(0.05, 7);
        honest.insert_batch(&[1, 2, 3, 4, 5, 6]);
        let mut frame = WireCodec::to_bytes(&mut honest);
        frame.truncate(frame.len() - 8);
        frame[36..44].copy_from_slice(&n.to_le_bytes());
        seal(&mut frame);
        let lying = RandomSketch::from_bytes(&frame).expect("a lie the decoder cannot see");
        assert_eq!(lying.n(), n);
        lying
    }

    #[test]
    fn try_absorb_refuses_a_count_that_would_wrap() {
        let e = random_engine(2, 16);
        ingest(&e, 0..100);
        // 100 + (u64::MAX − 5) wraps to 94; 100 + i64::MAX wraps an
        // `i64` live count. Both bounce with nothing touched.
        for n in [u64::MAX - 5, i64::MAX as u64, MAX_ITEMS - 99] {
            let back = e.try_absorb(sketch_claiming(n)).expect_err("must bounce");
            assert_eq!(back.n(), n, "donor returned untouched");
            assert_eq!((e.n(), e.snapshot().n()), (100, 100), "after n = {n}");
            assert_eq!(e.stats().epoch, 1, "no tick on refusal");
            e.assert_invariants();
        }
        // The largest claim that fits is still absorbed; nothing after
        // it is.
        e.try_absorb(sketch_claiming(MAX_ITEMS - 100))
            .expect("fits exactly");
        assert_eq!(e.n(), MAX_ITEMS);
        assert!(e.try_absorb(sketch_claiming(6)).is_err());
        e.assert_invariants();
    }

    /// A φ outside (0, 1) panics before the read takes a shard lock, so
    /// it poisons no shard, though a DCS read answers under the locks.
    #[test]
    fn a_bad_phi_poisons_no_shard() {
        use sqs_turnstile::Dcs;
        let e = ShardedEngine::new_with(2, 0, |_| Dcs::dcs(0.05, 16, 0xB4D));
        ingest(&e, 0..1_000);
        for phi in [0.0, 1.5, f64::NAN] {
            let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                e.query_many(&[0.5, phi], &[7])
            }));
            assert!(read.is_err(), "phi {phi} was answered");
        }
        assert!(e.quantile(0.5).is_some());
        assert_eq!(e.stats().lock_recoveries, 0);
        e.assert_invariants();
    }

    #[test]
    fn dcs_backend_shards_merge_exactly() {
        use sqs_turnstile::Dcs;
        // Same seed on every shard → identical hash draws → snapshot
        // merging is *exact*: the engine snapshot is state-identical
        // to one summary fed the whole stream directly.
        let seed = 0xD05;
        let e = ShardedEngine::new_with(4, 64, |_| Dcs::dcs(0.05, 16, seed));
        let mut direct = Dcs::dcs(0.05, 16, seed);
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

    /// What survives of "reads never take a shard lock": a cache hit
    /// answers under the cache mutex alone, so it does not wait for a
    /// fold in flight. (A miss does, for at most one fold per shard —
    /// the bound `docs/ENGINE.md` §2 states.)
    #[test]
    fn warm_reads_take_no_shard_lock() {
        let e = random_engine(2, 16);
        ingest(&e, 0..1_000);
        ingest(&e, 1_000..2_000);
        assert_eq!(e.snapshot().n(), 2_000, "warms the cache");
        std::thread::scope(|scope| {
            // Every shard lock stays held while the reader runs. The
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
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("a cache hit blocked on a shard lock");
            assert_eq!(n, 2_000);
        });
        assert_eq!(e.stats().snapshots, 1);
    }

    /// A linear tenant polled between folds: the first read sums the
    /// shards' cells and keeps its answers, a repeat of it answers from
    /// them, another read merges clones and caches the merge, and every
    /// read after those is a hit that takes no shard lock — so a reader
    /// in a loop leaves a writer the locks.
    #[test]
    fn linear_reads_polled_between_folds_hit_the_cache() {
        use sqs_turnstile::Dcs;
        let e = ShardedEngine::new_with(2, 0, |_| Dcs::dcs(0.05, 16, 0xD05));
        let cuts_and_hits = |e: &ShardedEngine<u64, _>| {
            let stats = e.stats();
            (stats.snapshots, stats.snapshot_cache_hits)
        };
        ingest(&e, 0..1_000);
        ingest(&e, 1_000..2_000);
        let summed = e.query_many(&[0.5], &[1_000]);
        assert_eq!(e.query_many(&[0.5], &[1_000]), summed, "a repeat");
        assert_eq!(cuts_and_hits(&e), (1, 1));
        let merged = e.query_many(&[0.25, 0.5], &[1_000]);
        assert_eq!(
            merged.0[1], summed.0[0],
            "the sum and the merge answer alike"
        );
        assert_eq!(cuts_and_hits(&e), (2, 1));
        std::thread::scope(|scope| {
            let _writers = (e.lock_shard(0), e.lock_shard(1));
            let (tx, rx) = std::sync::mpsc::channel();
            let e = &e;
            scope.spawn(move || {
                let _ = tx.send((e.query_many(&[0.5], &[1_000]), e.quantile(0.75)));
            });
            let (polled, _) = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("a polling read blocked on a shard lock");
            assert_eq!(polled, summed);
        });
        assert_eq!(cuts_and_hits(&e), (2, 3));
        ingest(&e, 2_000..3_000);
        let _ = e.query_many(&[0.5], &[1_000]);
        assert_eq!(e.stats().snapshots, 3, "a fold: the next read cuts");
        e.assert_invariants();
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
