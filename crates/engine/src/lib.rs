//! A wait-free-ingest, epoch-snapshotting concurrent engine over the
//! mergeable quantile summaries of `sqs-core`.
//!
//! The paper studies single-threaded summaries; production collectors
//! ingest from many threads at once. The mergeable-summary property
//! (Agarwal et al., PODS'12 — see `PAPERS.md`) makes the standard
//! scale-out construction sound: run `k` independent ε-summaries, one
//! per *shard*, and answer queries by folding the shards with a merge
//! tree — sharding buys concurrency without spending accuracy.
//!
//! Earlier revisions of this crate took a striped-lock approach:
//! producers batched locally, then flushed **inline** under the shard
//! mutex, and every query sweep re-folded the shards under their
//! locks. That makes the shard mutex the write-throughput ceiling and
//! puts readers on the writers' critical path. This revision rebuilds
//! the ingest pipeline along the lines of **Quancurrent**
//! (Elias-Zada, Rinberg, Keidar — see `PAPERS.md`): thread-local
//! buffers, a propagation stage with brief synchronized handoffs, and
//! relaxed-semantics snapshots versioned by a monotonic epoch. In safe
//! stable Rust (`forbid(unsafe_code)`, atomics + mutex leaves only):
//!
//! 1. **Owned ingest buffers** — [`IngestHandle::insert`] appends to a
//!    buffer the handle *owns*; the hot path touches no shared state
//!    at all. A full buffer is **handed off** whole: one brief push
//!    onto its shard's propagation queue, no folding on the producer's
//!    path.
//! 2. **Per-shard propagation rounds** — each shard has a propagation
//!    token (`AtomicBool`); whoever holds it (a dedicated
//!    [`spawn_propagator`](ShardedEngine::spawn_propagator) thread, or
//!    a producer *cooperatively stealing* the round at handoff) drains
//!    that shard's queue and folds the buffers through
//!    [`insert_batches`], holding the shard's [`OrderedMutex`] once
//!    per round — a short, bounded critical section. Rounds on
//!    different shards run in parallel; folding scales with the shard
//!    count instead of funnelling through one lock. After folding, the
//!    round **publishes** an `Arc` clone of the shard's summary — one
//!    atomic slot swap — and ticks the engine epoch.
//! 3. **Epoch / seqlock snapshots** — the monotonic engine epoch
//!    (`AtomicU64`) counts publications. Readers collect the published
//!    `Arc`s between two equal epoch reads — no publication landed
//!    mid-collection, so the cut is a consistent point in time — and
//!    never touch a shard's live lock, so queries cannot stall
//!    ingestion (nor wait out a fold: the epoch moves only at the
//!    instant of publication). The merged snapshot is cached keyed on
//!    that epoch: repeated query sweeps between writes cost one
//!    cache-mutex acquisition. See `docs/ENGINE.md` for the
//!    memory-ordering argument and the error analysis.
//!
//! [`insert_batches`]: sqs_core::QuantileSummary::insert_batches

#![forbid(unsafe_code)]

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sqs_core::MergeableSummary;
use sqs_util::audit::{ensure, CheckInvariants, InvariantViolation};
use sqs_util::pad::CachePadded;
use sqs_util::sync::{next_domain, OrderedMutex, OrderedMutexGuard};

/// Default ingest-buffer capacity (elements per [`IngestHandle`]
/// between handoffs to the propagation queue). Swept 256..8192
/// against the sketch crate's 1024-element `CHUNK` on the reference
/// box (`results/batch_sweep.csv`, written by `sqs-exp engine`):
/// throughput climbs steeply up to 1024 and then flattens within
/// run-to-run noise; 2048 sits on that plateau while halving
/// queue/handoff traffic vs 1024, at 16 KiB of in-flight `u64`s per
/// producer. Going further (8192) buys ≲10% single-producer
/// throughput for 4× the per-producer memory and 4× the snapshot
/// staleness window (buffered items are invisible to queries until
/// handoff). See docs/PERF.md §4.
pub const DEFAULT_BATCH_CAPACITY: usize = 2048;

/// Most handed-off buffers a single propagation round folds — bounds
/// the shard critical section a round may hold.
const MAX_ROUND_BUFFERS: usize = 32;

/// Per-shard queue depth at which a producer *must* help propagate
/// before continuing, even with a background propagator attached — the
/// engine's bound on handed-off-but-unfolded memory per shard
/// (`MAX_QUEUE_BUFFERS × batch_capacity` elements).
const MAX_QUEUE_BUFFERS: usize = 64;

/// Seqlock read attempts before a reader accepts a possibly-mixed
/// (multi-epoch) cut — the relaxed-semantics escape hatch that keeps
/// readers wait-free under a continuous stream of publications.
const SNAPSHOT_RETRY_LIMIT: usize = 16;

/// A point-in-time copy of the engine's operational counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Elements propagated into shard summaries so far (excludes
    /// elements buffered in live [`IngestHandle`]s and elements handed
    /// off but not yet folded — see [`queued_items`]).
    ///
    /// [`queued_items`]: EngineStats::queued_items
    pub items: u64,
    /// Elements handed off to the propagation queues and not yet
    /// folded into a shard summary.
    pub queued_items: u64,
    /// Buffers handed off to the propagation queues so far.
    pub handoffs: u64,
    /// Publications so far: propagation rounds plus direct folds
    /// ([`ingest_batch`](ShardedEngine::ingest_batch) /
    /// [`try_absorb`](ShardedEngine::try_absorb)). Equals the epoch at
    /// quiescence.
    pub propagations: u64,
    /// Handed-off buffers folded by propagation rounds so far.
    pub propagated_buffers: u64,
    /// Buffers folded by the most recent round — the observed
    /// propagation depth.
    pub last_round_buffers: u64,
    /// Deepest any shard's propagation queue has ever been (buffers).
    pub max_queue_depth: u64,
    /// Queue-to-fold latency of the last buffer propagated:
    /// wall-clock nanoseconds between its handoff and its fold.
    pub last_handoff_latency_nanos: u64,
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
    /// Number of poisoned shard locks recovered so far: a propagating
    /// thread panicked while folding into a shard, and a later
    /// acquisition audited the summary's invariants, cleared the
    /// poison, and carried on. Nonzero values mean some thread died
    /// mid-fold — the engine survived, but whatever that thread was
    /// folding and had not yet folded is gone.
    pub lock_recoveries: u64,
}

/// One handed-off producer buffer awaiting propagation.
struct Handoff<T> {
    data: Vec<T>,
    enqueued: Instant,
}

/// One shard: the live summary rounds fold into, the last published
/// clone readers merge from, and the shard's own propagation pipeline.
/// The whole struct sits inside one [`CachePadded`] slot so
/// neighbouring shards' hot words never false-share a cache line.
struct Shard<S, T> {
    live: OrderedMutex<S>,
    published: Mutex<Arc<S>>,
    queue: Mutex<VecDeque<Handoff<T>>>,
    /// Single-propagator-per-shard token: rounds on one shard
    /// serialize; rounds on different shards run in parallel.
    token: AtomicBool,
    /// Buffers handed off to this shard so far (the handoff sequence
    /// number assigned under the queue lock, so it matches FIFO
    /// order).
    handoffs: AtomicU64,
    /// Buffers folded so far. FIFO + serialized rounds make
    /// `completed ≥ seq` exactly "handoff `seq` is folded and
    /// published".
    completed: AtomicU64,
    /// Elements currently sitting in `queue`.
    queued_items: AtomicU64,
}

impl<S, T> Shard<S, T> {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Handoff<T>>> {
        // Nothing queue-structural can be torn by a holder's panic
        // (push/drain are the only mutations); recover and carry on.
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The published clone, without touching the live lock.
    fn published(&self) -> Arc<S> {
        Arc::clone(
            &self
                .published
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        )
    }

    /// Replaces the published clone — the single atomic slot swap that
    /// makes a round's effects visible to readers.
    fn publish(&self, snap: Arc<S>) {
        *self
            .published
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = snap;
    }
}

/// The merged snapshot the read path caches between ingest epochs.
struct CachedSnapshot<S> {
    epoch: u64,
    summary: S,
}

/// RAII over one shard's propagation token. On drop — normal
/// completion *or* an unwind out of a panicking summary fold — the
/// token is released, so a dying propagator can never wedge its
/// shard's pipeline.
struct TokenGuard<'a> {
    token: &'a AtomicBool,
}

impl<'a> TokenGuard<'a> {
    /// Tries to become the shard's propagator. `None` if another
    /// thread holds the token.
    fn acquire(token: &'a AtomicBool) -> Option<Self> {
        if token.swap(true, Ordering::Acquire) {
            return None;
        }
        Some(Self { token })
    }
}

impl Drop for TokenGuard<'_> {
    fn drop(&mut self) {
        self.token.store(false, Ordering::Release);
    }
}

/// A concurrent quantile-ingestion engine: `k` cache-padded shards,
/// each a mergeable ε-summary with its own propagation pipeline, fed
/// by wait-free owned-buffer handoffs and folded on demand into an
/// epoch-versioned queryable snapshot.
///
/// Shared by reference across producer threads; all methods take
/// `&self`. Producers obtain an [`IngestHandle`] (one shard each,
/// assigned round-robin) and push elements through it; readers call
/// [`snapshot`](Self::snapshot) / [`quantile`](Self::quantile) /
/// [`quantiles`](Self::quantiles) at any time. Optionally, wrap the
/// engine in an [`Arc`] and call
/// [`spawn_propagator`](Self::spawn_propagator) to move folding onto a
/// background thread.
///
/// ```
/// use sqs_core::random::RandomSketch;
/// use sqs_engine::ShardedEngine;
///
/// let engine = ShardedEngine::new_with(4, 256, |i| RandomSketch::new(0.05, i as u64));
/// std::thread::scope(|scope| {
///     for t in 0..4u64 {
///         let engine = &engine;
///         scope.spawn(move || {
///             let mut h = engine.handle();
///             for x in 0..10_000u64 {
///                 h.insert(t * 10_000 + x);
///             }
///         });
///     }
/// });
/// let q = engine.quantile(0.5).unwrap();
/// assert!((q as f64 - 20_000.0).abs() <= 0.05 * 40_000.0);
/// ```
pub struct ShardedEngine<T, S> {
    shards: Vec<CachePadded<Shard<S, T>>>,
    /// The seqlock epoch: one tick per publication, read by snapshots
    /// as the consistency check and the cache key.
    epoch: CachePadded<AtomicU64>,
    /// Round-robin shard router for new handles / direct batches.
    router: CachePadded<AtomicUsize>,
    /// Propagator-side counters (written once per round / fold).
    items: CachePadded<AtomicU64>,
    propagations: AtomicU64,
    propagated_buffers: AtomicU64,
    last_round_buffers: AtomicU64,
    max_queue_depth: AtomicU64,
    last_handoff_latency_nanos: AtomicU64,
    /// Read-side stats + the epoch-keyed merged-snapshot cache.
    snapshots: AtomicU64,
    cache_hits: AtomicU64,
    snapshot_retries: AtomicU64,
    snapshots_torn: AtomicU64,
    last_merge_depth: AtomicU64,
    last_snapshot_nanos: AtomicU64,
    lock_recoveries: AtomicU64,
    cache: Mutex<Option<CachedSnapshot<S>>>,
    /// Background propagators currently attached (producers steal
    /// eagerly only when this is zero).
    propagator_count: AtomicUsize,
    batch_capacity: usize,
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
    /// # Panics
    /// Panics if `shard_count == 0` or `batch_capacity == 0`.
    pub fn new_with(
        shard_count: usize,
        batch_capacity: usize,
        mut make: impl FnMut(usize) -> S,
    ) -> Self {
        assert!(shard_count > 0, "ShardedEngine needs at least one shard");
        assert!(batch_capacity > 0, "batch_capacity must be positive");
        // One ordering domain per engine, shard index as rank: debug
        // builds enforce "shard locks only in ascending order" at
        // runtime, and locks of unrelated engines stay independent.
        let domain = next_domain();
        Self {
            shards: (0..shard_count)
                .map(|i| {
                    let live = make(i);
                    let published = Mutex::new(Arc::new(live.clone()));
                    CachePadded::new(Shard {
                        live: OrderedMutex::new(domain, i, live),
                        published,
                        queue: Mutex::new(VecDeque::new()),
                        token: AtomicBool::new(false),
                        handoffs: AtomicU64::new(0),
                        completed: AtomicU64::new(0),
                        queued_items: AtomicU64::new(0),
                    })
                })
                .collect(),
            epoch: CachePadded::new(AtomicU64::new(0)),
            router: CachePadded::new(AtomicUsize::new(0)),
            items: CachePadded::new(AtomicU64::new(0)),
            propagations: AtomicU64::new(0),
            propagated_buffers: AtomicU64::new(0),
            last_round_buffers: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
            last_handoff_latency_nanos: AtomicU64::new(0),
            snapshots: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            snapshot_retries: AtomicU64::new(0),
            snapshots_torn: AtomicU64::new(0),
            last_merge_depth: AtomicU64::new(0),
            last_snapshot_nanos: AtomicU64::new(0),
            lock_recoveries: AtomicU64::new(0),
            cache: Mutex::new(None),
            propagator_count: AtomicUsize::new(0),
            batch_capacity,
            _elem: PhantomData,
        }
    }

    /// Number of shards (fixed at construction).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Elements each [`IngestHandle`] buffers between handoffs.
    pub fn batch_capacity(&self) -> usize {
        self.batch_capacity
    }

    /// Creates a producer handle bound to the next shard in round-robin
    /// order. One `fetch_add` — producers never touch shared state
    /// again until a buffer handoff. Spawning one handle per thread
    /// gives thread-affine shards whenever the thread count divides the
    /// shard count.
    pub fn handle(&self) -> IngestHandle<'_, T, S> {
        let shard = self.router.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        self.handle_for(shard)
    }

    /// Creates a producer handle pinned to a specific shard — the
    /// deterministic-assignment variant used by the stress tests (and
    /// by callers that partition producers themselves).
    ///
    /// # Panics
    /// Panics if `shard >= self.shard_count()`.
    pub fn handle_for(&self, shard: usize) -> IngestHandle<'_, T, S> {
        assert!(
            shard < self.shards.len(),
            "shard index {shard} out of range (have {})",
            self.shards.len()
        );
        IngestHandle {
            engine: self,
            shard,
            buf: Vec::with_capacity(self.batch_capacity),
            last_seq: 0,
        }
    }

    /// Elements propagated into shard summaries so far. Elements still
    /// buffered in live handles (or handed off but not yet folded) are
    /// *not* counted — callers wanting an exact count drop (or
    /// [`flush`]) their handles first; both wait for propagation.
    ///
    /// [`flush`]: IngestHandle::flush
    pub fn n(&self) -> u64 {
        self.items.load(Ordering::Acquire)
    }

    /// The current engine epoch (one tick per publication).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A copy of the engine's operational counters.
    pub fn stats(&self) -> EngineStats {
        let mut handoffs = 0u64;
        let mut queued_items = 0u64;
        for s in &self.shards {
            handoffs += s.handoffs.load(Ordering::Acquire);
            queued_items += s.queued_items.load(Ordering::Acquire);
        }
        EngineStats {
            items: self.items.load(Ordering::Acquire),
            queued_items,
            handoffs,
            propagations: self.propagations.load(Ordering::Acquire),
            propagated_buffers: self.propagated_buffers.load(Ordering::Acquire),
            last_round_buffers: self.last_round_buffers.load(Ordering::Acquire),
            max_queue_depth: self.max_queue_depth.load(Ordering::Acquire),
            last_handoff_latency_nanos: self.last_handoff_latency_nanos.load(Ordering::Acquire),
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

    fn shard(&self, shard: usize) -> &Shard<S, T> {
        self.shards
            .get(shard)
            .expect("Engine invariant: shard index within shard count")
    }

    fn lock_shard(&self, shard: usize) -> OrderedMutexGuard<'_, S> {
        let m = &self.shard(shard).live;
        m.lock().unwrap_or_else(|poisoned| {
            // A holder panicked mid-fold — necessarily inside the
            // summary's own insert/merge code, since the engine does
            // nothing else under the guard. The summary is safe to keep
            // only if its structural invariants survived the unwind;
            // audit it (panicking loudly if not), then clear the poison
            // so later acquisitions stop paying this path.
            let guard = poisoned.into_inner();
            guard.assert_invariants();
            m.clear_poison();
            self.lock_recoveries.fetch_add(1, Ordering::AcqRel);
            guard
        })
    }

    /// Hands one full producer buffer to `shard`'s propagation queue
    /// and returns its handoff sequence number (rounds complete FIFO —
    /// [`wait_propagated`](Self::wait_propagated) on the returned
    /// number waits for exactly this buffer).
    ///
    /// This is the only producer-side synchronization: one brief queue
    /// push. Folding happens on whichever thread runs the shard's next
    /// propagation round — a background propagator if attached,
    /// otherwise a producer stealing the round cooperatively right
    /// here.
    fn handoff(&self, shard: usize, data: Vec<T>) -> u64 {
        let len = data.len() as u64;
        debug_assert!(len > 0, "empty buffers are never handed off");
        let sh = self.shard(shard);
        let (seq, depth) = {
            let mut q = sh.lock_queue();
            q.push_back(Handoff {
                data,
                enqueued: Instant::now(),
            });
            // Sequence numbers are assigned under the queue lock so
            // they match FIFO queue order exactly.
            sh.queued_items.fetch_add(len, Ordering::AcqRel);
            (sh.handoffs.fetch_add(1, Ordering::AcqRel) + 1, q.len())
        };
        self.max_queue_depth
            .fetch_max(depth as u64, Ordering::AcqRel);
        if self.propagator_count.load(Ordering::Acquire) == 0 || depth >= MAX_QUEUE_BUFFERS {
            // No background propagator (or it has fallen too far
            // behind): fold cooperatively so queued memory stays
            // bounded. A no-op if another thread already holds this
            // shard's token.
            self.propagate_shard(shard);
        }
        seq
    }

    /// Blocks (helping) until `shard`'s buffer with handoff sequence
    /// number `seq` has been folded and published.
    fn wait_propagated(&self, shard: usize, seq: u64) {
        let sh = self.shard(shard);
        while sh.completed.load(Ordering::Acquire) < seq {
            if !self.propagate_shard(shard) {
                // Another thread holds this shard's round; let it
                // finish rather than burning the core.
                std::thread::yield_now();
            }
        }
    }

    /// Runs one propagation round on `shard`: drains up to
    /// [`MAX_ROUND_BUFFERS`] handed-off buffers, folds them into the
    /// shard summary under one short critical section, publishes the
    /// shard's new clone, and ticks the epoch. Returns `false` without
    /// folding if another thread holds the shard's token or its queue
    /// is empty.
    ///
    /// Rounds on *different* shards run concurrently — folding
    /// throughput scales with the shard count.
    pub fn propagate_shard(&self, shard: usize) -> bool {
        let sh = self.shard(shard);
        let Some(_token) = TokenGuard::acquire(&sh.token) else {
            return false;
        };
        let batch: Vec<Handoff<T>> = {
            let mut q = sh.lock_queue();
            let take = q.len().min(MAX_ROUND_BUFFERS);
            q.drain(..take).collect()
        };
        if batch.is_empty() {
            return false; // token guard drop releases the token
        }
        let folded = batch.len() as u64;
        let mass: u64 = batch.iter().map(|h| h.data.len() as u64).sum();
        let slices: Vec<&[T]> = batch.iter().map(|h| h.data.as_slice()).collect();
        let published = {
            let mut guard = self.lock_shard(shard);
            guard.insert_batches(&slices);
            Arc::new(guard.clone())
        };
        // The live guard is gone (the temporary died with the block);
        // publish and account outside the shard's critical section.
        sh.publish(published);
        self.items.fetch_add(mass, Ordering::AcqRel);
        sh.queued_items.fetch_sub(mass, Ordering::AcqRel);
        let latency = batch
            .iter()
            .map(|h| h.enqueued.elapsed().as_nanos())
            .max()
            .unwrap_or(0);
        self.last_handoff_latency_nanos.store(
            u64::try_from(latency).unwrap_or(u64::MAX),
            Ordering::Release,
        );
        self.last_round_buffers.store(folded, Ordering::Release);
        self.propagations.fetch_add(1, Ordering::AcqRel);
        self.propagated_buffers.fetch_add(folded, Ordering::AcqRel);
        // Completion order: publish first, then `completed`, then the
        // epoch tick. A waiter that sees `completed ≥ seq` therefore
        // sees its data folded *and* published; a reader that sees the
        // epoch tick sees the publication (Release/Acquire pairs on
        // the slot mutex and the counters).
        sh.completed.fetch_add(folded, Ordering::AcqRel);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Runs one propagation round on every shard with queued work.
    /// Returns `true` if any round folded anything — the background
    /// propagator's main loop, also handy in tests.
    pub fn propagate_all(&self) -> bool {
        let mut any = false;
        for i in 0..self.shards.len() {
            any |= self.propagate_shard(i);
        }
        any
    }

    /// Spins until this thread holds `shard`'s token — the entry point
    /// for the *direct* fold paths ([`ingest_batch`](Self::ingest_batch),
    /// [`try_absorb`](Self::try_absorb)) that must mutate a shard
    /// outside the queue pipeline.
    fn acquire_token_blocking(&self, shard: usize) -> TokenGuard<'_> {
        loop {
            if let Some(guard) = TokenGuard::acquire(&self.shard(shard).token) {
                return guard;
            }
            std::thread::yield_now();
        }
    }

    /// Ingests one caller-assembled batch directly: picks the next
    /// shard round-robin and folds the whole slice under a single
    /// critical section, publishing before returning.
    ///
    /// This is the *request-scoped* ingest path: unlike an
    /// [`IngestHandle`], nothing stays buffered or queued engine-side
    /// afterwards — every element is visible to the next snapshot the
    /// moment the call returns. `sqs-service` uses it so a server never
    /// holds client data in limbo (its `INSERT_BATCH` reply means
    /// "merged"), and so graceful shutdown has nothing left to flush.
    pub fn ingest_batch(&self, xs: &[T]) {
        if xs.is_empty() {
            return;
        }
        let shard = self.router.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let _token = self.acquire_token_blocking(shard);
        let published = {
            let mut guard = self.lock_shard(shard);
            guard.insert_batch(xs);
            Arc::new(guard.clone())
        };
        self.shard(shard).publish(published);
        self.items.fetch_add(xs.len() as u64, Ordering::AcqRel);
        self.propagations.fetch_add(1, Ordering::AcqRel);
        self.last_round_buffers.store(1, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Merges an externally-built summary (e.g. one decoded off the
    /// wire) into shard 0 under a single critical section, adding its
    /// mass to the engine's totals. Returns the summary back as `Err`
    /// without touching anything if its accuracy configuration is
    /// incompatible with this engine's shards — the panic-free gate
    /// remote `MERGE_SNAPSHOT` traffic goes through.
    pub fn try_absorb(&self, other: S) -> Result<(), S> {
        let mass = other.n();
        let _token = self.acquire_token_blocking(0);
        let published = {
            let mut guard = self.lock_shard(0);
            if !guard.merge_compatible(&other) {
                return Err(other); // token guard drop releases the token
            }
            guard.merge_from(other);
            Arc::new(guard.clone())
        };
        self.shard(0).publish(published);
        // Count the absorbed mass so `engine.mass_conservation`
        // (Σ shard.n() == items) keeps holding.
        self.items.fetch_add(mass, Ordering::AcqRel);
        self.propagations.fetch_add(1, Ordering::AcqRel);
        self.epoch.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Collects a consistent cut of the per-shard published clones —
    /// the seqlock read protocol. Returns the `Arc`s plus the epoch
    /// they correspond to, or `None` as the epoch if the reader
    /// exhausted its retries and accepted a possibly mixed-epoch cut
    /// (relaxed semantics; see `docs/ENGINE.md` §3).
    ///
    /// Never touches a shard's live lock: readers cannot stall
    /// ingestion, and folding cannot stall readers — the epoch moves
    /// only at the instant a round publishes, so a reader retries only
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
    /// summary (an ε-summary of every element propagated so far).
    ///
    /// Reads the per-shard publications under the seqlock protocol —
    /// never the shard live locks — and reuses the epoch-keyed cache,
    /// so a burst of snapshots between writes costs one merge.
    /// Elements still buffered in live handles, or handed off but not
    /// yet propagated, are invisible until folded.
    pub fn snapshot(&self) -> S {
        self.with_snapshot(|s| s.clone())
    }

    /// An ε-approximate φ-quantile of everything propagated so far,
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

    /// Estimated rank of `x` over everything propagated so far,
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

impl<T, S> ShardedEngine<T, S>
where
    T: Ord + Copy + Send + 'static,
    S: MergeableSummary<T> + CheckInvariants + Clone + Send + Sync + 'static,
{
    /// Starts a background propagation thread that sweeps the shard
    /// queues so producers almost never fold. Requires the engine in
    /// an [`Arc`] (the thread co-owns it). Several propagators may be
    /// attached; per-shard rounds still serialize on each shard's
    /// token.
    ///
    /// The returned [`PropagatorHandle`] stops and joins the thread on
    /// [`stop`](PropagatorHandle::stop) or drop, draining the queues
    /// on the way out so a stopped propagator never strands handed-off
    /// data. Producers detect the detachment and fall back to
    /// cooperative stealing — the engine keeps working through any
    /// kill/restart sequence.
    pub fn spawn_propagator(self: &Arc<Self>) -> PropagatorHandle {
        let engine = Arc::clone(self);
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        self.propagator_count.fetch_add(1, Ordering::AcqRel);
        let thread = std::thread::spawn(move || {
            while !stop_flag.load(Ordering::Acquire) {
                if !engine.propagate_all() {
                    // Idle: nap briefly instead of spinning. Producers
                    // fold for themselves if a queue hits its depth
                    // bound before the next sweep.
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            // Drain on the way out: nothing handed off before the stop
            // is left to strand.
            while engine.propagate_all() {}
            engine.propagator_count.fetch_sub(1, Ordering::AcqRel);
        });
        PropagatorHandle {
            stop,
            thread: Some(thread),
        }
    }
}

/// A running background propagator (see
/// [`ShardedEngine::spawn_propagator`]). Dropping it stops and joins
/// the thread.
pub struct PropagatorHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl PropagatorHandle {
    /// Signals the propagator to stop, waits for it to drain the
    /// queues and exit. Idempotent with drop.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for PropagatorHandle {
    fn drop(&mut self) {
        self.halt();
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

/// A producer-side ingest buffer bound to one shard of a
/// [`ShardedEngine`].
///
/// `insert` appends to a buffer this handle *owns* — the hot path
/// performs no shared-state synchronization of any kind. When the
/// buffer reaches the engine's `batch_capacity` it is **handed off**
/// whole to the shard's propagation queue (one brief queue push; the
/// replacement buffer is a fresh allocation) and the producer
/// continues immediately — folding happens on the propagation stage.
/// Dropping the handle flushes the remainder *and waits for its
/// propagation*, so no element is ever lost and everything a dropped
/// handle ingested is visible to the next snapshot; call
/// [`flush`](Self::flush) explicitly to publish early.
///
/// Handles are cheap; create one per producer thread.
pub struct IngestHandle<'a, T, S>
where
    T: Ord + Copy,
    S: MergeableSummary<T> + CheckInvariants + Clone,
{
    engine: &'a ShardedEngine<T, S>,
    shard: usize,
    buf: Vec<T>,
    /// Handoff sequence number of this handle's most recent handoff
    /// (0 before the first) — what `flush` waits on.
    last_seq: u64,
}

impl<T, S> IngestHandle<'_, T, S>
where
    T: Ord + Copy,
    S: MergeableSummary<T> + CheckInvariants + Clone,
{
    /// Buffers one element, handing the buffer off to the propagation
    /// stage when it fills.
    #[inline]
    pub fn insert(&mut self, x: T) {
        self.buf.push(x);
        if self.buf.len() >= self.engine.batch_capacity {
            self.handoff();
        }
    }

    /// Buffers a slice, handing off at each capacity boundary.
    pub fn insert_slice(&mut self, xs: &[T]) {
        for &x in xs {
            self.insert(x);
        }
    }

    /// Hands the owned buffer to the shard's propagation queue and
    /// replaces it with a fresh one. Does not wait for the fold.
    fn handoff(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let full = std::mem::replace(
            &mut self.buf,
            Vec::with_capacity(self.engine.batch_capacity),
        );
        self.last_seq = self.engine.handoff(self.shard, full);
    }

    /// Publishes everything this handle has buffered **and waits until
    /// it is folded into the shard summaries** — after `flush`
    /// returns, every element inserted through this handle is visible
    /// to snapshots. The wait is cooperative: if no propagator is
    /// running, this thread folds the queue itself.
    pub fn flush(&mut self) {
        self.handoff();
        if self.last_seq > 0 {
            self.engine.wait_propagated(self.shard, self.last_seq);
        }
    }

    /// Index of the shard this handle feeds.
    pub fn shard_index(&self) -> usize {
        self.shard
    }

    /// Elements buffered in this handle and not yet handed off.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

impl<T, S> Drop for IngestHandle<'_, T, S>
where
    T: Ord + Copy,
    S: MergeableSummary<T> + CheckInvariants + Clone,
{
    fn drop(&mut self) {
        self.flush();
    }
}

impl<T, S> CheckInvariants for ShardedEngine<T, S>
where
    T: Ord + Copy,
    S: MergeableSummary<T> + CheckInvariants + Clone,
{
    /// Engine-level invariants on top of each shard's own:
    ///
    /// * `engine.shard_structure` — at least one shard exists and the
    ///   batch capacity is positive (construction-time guarantees that
    ///   must survive);
    /// * every shard's `CheckInvariants`, live **and** published
    ///   (first violation wins);
    /// * `engine.mass_conservation` — the live shards' element counts
    ///   sum exactly to the engine's propagated-items counter: no fold
    ///   lost or double-counted an element;
    /// * `engine.queue_accounting` — per shard, the handed-off mass
    ///   sitting in the propagation queue matches the shard's
    ///   `queued_items` counter, and its completed-buffers counter
    ///   never exceeds its handoffs (checked only when the shard's
    ///   round token is free);
    /// * `engine.epoch_accounting` — the epoch equals the publication
    ///   count (checked only when every token is free);
    /// * `engine.cache_coherence` — a cached snapshot claiming the
    ///   current epoch carries exactly the propagated mass.
    ///
    /// Meaningful at quiescence (as the audit tests use it): counters
    /// race benignly while rounds are actively folding.
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        ensure(
            !self.shards.is_empty() && self.batch_capacity > 0,
            "ShardedEngine",
            "engine.shard_structure",
            || {
                format!(
                    "shards = {}, batch_capacity = {}",
                    self.shards.len(),
                    self.batch_capacity
                )
            },
        )?;
        let mut shard_mass = 0u64;
        let mut all_tokens_free = true;
        for s in &self.shards {
            // Poison alone is not a violation — `lock_shard` recovers
            // from it by design; what matters is whether the summary's
            // own invariants survived the holder's panic, which the
            // audit below reports directly.
            let guard = s.live.lock().unwrap_or_else(PoisonError::into_inner);
            guard.check_invariants()?;
            shard_mass = shard_mass.saturating_add(guard.n());
            drop(guard);
            s.published().check_invariants()?;
            if s.token.load(Ordering::Acquire) {
                all_tokens_free = false;
                continue;
            }
            let queue_mass: u64 = s.lock_queue().iter().map(|h| h.data.len() as u64).sum();
            let queued = s.queued_items.load(Ordering::Acquire);
            ensure(
                queue_mass == queued,
                "ShardedEngine",
                "engine.queue_accounting",
                || format!("queue holds {queue_mass} elements but queued_items = {queued}"),
            )?;
            let (done, sent) = (
                s.completed.load(Ordering::Acquire),
                s.handoffs.load(Ordering::Acquire),
            );
            ensure(
                done <= sent,
                "ShardedEngine",
                "engine.queue_accounting",
                || format!("completed {done} buffers but only {sent} handed off"),
            )?;
        }
        let counted = self.items.load(Ordering::Acquire);
        ensure(
            shard_mass == counted,
            "ShardedEngine",
            "engine.mass_conservation",
            || format!("Σ shard.n() = {shard_mass} but items counter = {counted}"),
        )?;
        if all_tokens_free {
            let (epoch, pubs) = (
                self.epoch.load(Ordering::Acquire),
                self.propagations.load(Ordering::Acquire),
            );
            ensure(
                epoch == pubs,
                "ShardedEngine",
                "engine.epoch_accounting",
                || format!("epoch {epoch} but {pubs} publications at quiescence"),
            )?;
        }
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

    fn random_engine(shards: usize, cap: usize) -> ShardedEngine<u64, RandomSketch<u64>> {
        ShardedEngine::new_with(shards, cap, |i| RandomSketch::new(0.05, 100 + i as u64))
    }

    #[test]
    fn round_robin_assigns_all_shards() {
        let e = random_engine(4, 8);
        let seen: Vec<usize> = (0..8).map(|_| e.handle().shard_index()).collect();
        assert_eq!(seen, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn drop_flushes_and_propagates_partial_buffer() {
        let e = random_engine(2, 1000);
        {
            let mut h = e.handle();
            for x in 0..7u64 {
                h.insert(x);
            }
            assert_eq!(h.buffered(), 7);
            assert_eq!(e.n(), 0, "nothing visible before flush");
        }
        assert_eq!(e.n(), 7, "drop hands off and waits for propagation");
        let stats = e.stats();
        assert_eq!(stats.handoffs, 1);
        assert_eq!(stats.propagations, 1);
        assert_eq!(stats.queued_items, 0);
        e.assert_invariants();
    }

    #[test]
    fn handoff_cadence_matches_batch_capacity() {
        let e = random_engine(1, 64);
        let mut h = e.handle_for(0);
        for x in 0..256u64 {
            h.insert(x);
        }
        assert_eq!(h.buffered(), 0);
        drop(h);
        let stats = e.stats();
        assert_eq!(stats.items, 256);
        assert_eq!(stats.handoffs, 4, "256 elements / 64 per buffer");
        assert_eq!(stats.propagated_buffers, 4);
        assert!(stats.propagations >= 1, "at least one round folded them");
        assert_eq!(stats.epoch, stats.propagations, "one tick per round");
    }

    #[test]
    fn epoch_ticks_once_per_publication() {
        let e = random_engine(2, 16);
        assert_eq!(e.epoch(), 0);
        e.ingest_batch(&[1, 2, 3]);
        assert_eq!(e.epoch(), 1, "one direct fold = one publication");
        let mut h = e.handle_for(1);
        h.insert_slice(&(0..64u64).collect::<Vec<_>>());
        h.flush();
        let stats = e.stats();
        assert!(stats.epoch >= 2, "epoch {}", stats.epoch);
        assert_eq!(stats.epoch, stats.propagations);
        e.assert_invariants();
    }

    #[test]
    fn snapshot_records_depth_and_latency() {
        for (shards, want_depth) in [(1usize, 0u32), (2, 1), (4, 2), (5, 3), (8, 3)] {
            let e = random_engine(shards, 32);
            let mut h = e.handle();
            for x in 0..100u64 {
                h.insert(x);
            }
            drop(h);
            let _ = e.snapshot();
            let stats = e.stats();
            assert_eq!(stats.snapshots, 1);
            assert_eq!(stats.last_merge_depth, want_depth, "shards = {shards}");
            assert!(stats.last_snapshot_nanos > 0);
        }
    }

    #[test]
    fn snapshot_sees_all_propagated_mass() {
        let e = random_engine(4, 16);
        for t in 0..4 {
            let mut h = e.handle_for(t);
            for x in 0..1_000u64 {
                h.insert(u64::try_from(t).expect("test invariant: t fits u64") * 1_000 + x);
            }
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
        let mut h = e.handle();
        for x in 0..10_000u64 {
            h.insert(x);
        }
        drop(h);
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
        for t in 0..4 {
            let mut h = e.handle_for(t);
            for x in 0..5_000u64 {
                h.insert(x);
            }
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
        let mut h = e.handle_for(0);
        for x in 0..64u64 {
            h.insert(x);
        }
        drop(h);
        e.assert_invariants();
        // Corrupt the propagated-items counter behind the shards' backs.
        e.items.fetch_add(5, Ordering::AcqRel);
        let err = e.check_invariants().expect_err("corruption must be caught");
        assert_eq!(err.invariant, "engine.mass_conservation");
        assert_eq!(err.algorithm, "ShardedEngine");
        e.items.fetch_sub(5, Ordering::AcqRel);
        // Corrupt the queue accounting the same way.
        let sh = e.shard(0);
        sh.queued_items.fetch_add(3, Ordering::AcqRel);
        let err = e
            .check_invariants()
            .expect_err("queue drift must be caught");
        assert_eq!(err.invariant, "engine.queue_accounting");
        sh.queued_items.fetch_sub(3, Ordering::AcqRel);
        // And the epoch/publication ledger.
        e.epoch.fetch_add(1, Ordering::AcqRel);
        let err = e
            .check_invariants()
            .expect_err("epoch drift must be caught");
        assert_eq!(err.invariant, "engine.epoch_accounting");
    }

    #[test]
    fn quantiles_sweep_matches_single_snapshot() {
        let e = random_engine(4, 64);
        for t in 0..4 {
            let mut h = e.handle_for(t);
            for x in 0..5_000u64 {
                h.insert(u64::try_from(t).expect("test invariant: t fits u64") * 5_000 + x);
            }
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
        e.ingest_batch(&[]);
        assert_eq!(e.stats().propagations, 1, "empty batches don't count");
        e.ingest_batch(&batch);
        assert_eq!(e.n(), 2_000);
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
        let epoch_before = e.epoch();
        let mut donor = RandomSketch::new(0.2, 7); // different eps
        donor.insert(9);
        let back = e.try_absorb(donor).expect_err("eps mismatch must bounce");
        assert_eq!(back.n(), 1, "donor returned untouched");
        assert_eq!(e.n(), 3, "engine untouched");
        assert_eq!(e.epoch(), epoch_before, "no epoch tick on rejection");
        let token_free = !e.shard(0).token.load(Ordering::Acquire);
        assert!(token_free, "token released");
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
        let e = random_engine(2, 16);
        let mut h = e.handle_for(0);
        h.insert_slice(&(0..100u64).collect::<Vec<_>>());
        h.flush();
        // Kill a "propagator" while it holds shard 0: the unwind
        // poisons the shard mutex.
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = e.lock_shard(0);
            panic!("propagating thread dies while holding shard 0");
        }));
        assert!(died.is_err());
        assert_eq!(e.stats().lock_recoveries, 0, "nothing recovered yet");
        // The next acquisition audits the summary, clears the poison,
        // and counts the recovery — then ingestion continues as if
        // nothing happened.
        h.insert_slice(&(100..200u64).collect::<Vec<_>>());
        h.flush();
        assert_eq!(e.stats().lock_recoveries, 1);
        assert_eq!(e.n(), 200, "no mass lost to the recovery");
        e.assert_invariants();
        // Poison was cleared: the recovery path ran once, not per lock.
        let _ = e.snapshot();
        assert!(e.quantile(0.5).is_some());
        assert_eq!(e.stats().lock_recoveries, 1);
    }

    #[test]
    fn token_guard_unwind_releases_the_token() {
        let e = random_engine(1, 16);
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _token = e.acquire_token_blocking(0);
            panic!("propagator dies mid-round");
        }));
        assert!(died.is_err());
        let token_free = !e.shard(0).token.load(Ordering::Acquire);
        assert!(token_free, "unwind released the token");
        // The engine still ingests and snapshots normally.
        e.ingest_batch(&[1, 2, 3]);
        assert_eq!(e.n(), 3);
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

    #[test]
    #[should_panic(expected = "out of range")]
    fn handle_for_checks_bounds() {
        let e = random_engine(2, 8);
        let _ = e.handle_for(2);
    }

    #[test]
    fn background_propagator_folds_without_producer_help() {
        let e = Arc::new(random_engine(2, 32));
        let prop = e.spawn_propagator();
        {
            let mut h = e.handle_for(0);
            for x in 0..10_000u64 {
                h.insert(x);
            }
            // Wait for the propagator to drain everything handed off
            // so far, without this thread ever stealing a round.
            let deadline = Instant::now() + Duration::from_secs(10);
            while e.stats().propagated_buffers < e.stats().handoffs {
                assert!(Instant::now() < deadline, "propagator never caught up");
                std::thread::sleep(Duration::from_millis(1));
            }
            assert!(e.n() > 0, "propagator folded handed-off buffers");
        }
        prop.stop();
        assert_eq!(e.n(), 10_000);
        assert_eq!(e.stats().queued_items, 0, "stop drained the queues");
        e.assert_invariants();
    }
}
