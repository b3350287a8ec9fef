//! `sqs-window`: time-windowed quantiles over any mergeable summary.
//!
//! The paper's summaries answer "quantiles of everything seen so far";
//! production mostly wants "p99 over the last five minutes". The
//! mergeable-summary property (Agarwal et al., PODS '12) makes the
//! windowed question cheap without a second algorithm: keep a **ring of
//! per-bucket partial summaries** — one ε-summary per time bucket — and
//! answer any window by merging the covered buckets on demand. A merge
//! of ε-summaries is an ε-summary, so every windowed answer keeps the
//! backend's rank guarantee.
//!
//! The design (see `docs/WINDOW.md` for the full layout):
//!
//! * [`WindowRing`] — the clock-free core. Buckets are identified by
//!   `index = timestamp / bucket_nanos`; only the *current* bucket
//!   accepts inserts, so every sealed bucket is immutable — that is
//!   what makes rollups and the query cache trivially coherent. The
//!   caller passes "now" explicitly; nothing in this crate reads wall
//!   time.
//! * **Rotation & retention** — advancing "now" past a bucket edge
//!   seals the current bucket; buckets older than `retention_buckets`
//!   are evicted (their mass is accounted in
//!   [`WindowStats::evicted_items`]).
//! * **Sliding / tumbling queries** ([`WindowSpec`]) — a sliding
//!   window covers the last `len` of time ending at the current bucket
//!   (inclusive, so the in-progress bucket participates); a tumbling
//!   window is the most recently *completed* aligned `len`-wide
//!   window. A window is answered from its *parts*: the whole rollups
//!   it covers, the sealed fine buckets of its ragged edges, then the
//!   open bucket when in range.
//! * **Two read paths.** A summary with runs
//!   ([`MergeableSummary::runs`], e.g. `Random`) is read as one union of
//!   its parts' rank indexes ([`sqs_core::buffers::UnionReader`]): each
//!   part indexes its runs once — a sealed part never changes, the open
//!   bucket drops its index on ingest — and nothing is cloned or merged
//!   to answer. A rotation drops the index of every part no query read
//!   since the rotation before it. A summary without runs has its
//!   covered sealed parts merged with the engine's balanced
//!   [`sqs_engine::merge_tree`], that merge cached per spec and keyed on
//!   the covered range (an ingest touches only the open bucket, so the
//!   merge outlives it until a rotation moves the range), and the open
//!   bucket merged in at the root.
//! * **Rollups** — TimescaleDB-style pre-aggregation: groups of
//!   `rollup_factor` sealed buckets are merged once (lazily, the first
//!   time a query covers the whole group) and reused, so a span of
//!   `m` buckets reads `O(m / rollup_factor)` parts instead of `O(m)`
//!   once warm.
//! * **Late arrivals** ([`LatePolicy`]) — a timestamp older than the
//!   current bucket is *late* (sealed buckets are immutable). Policy
//!   [`LatePolicy::Drop`] discards it and counts it
//!   ([`WindowStats::late_dropped`]); [`LatePolicy::RouteToCurrent`]
//!   folds it into the current bucket (counted in
//!   [`WindowStats::late_routed`]) — mass is preserved, placement is
//!   approximate.
//! * [`WindowedEngine`] — the service-facing wrapper: an
//!   [`sqs_engine::ShardedEngine`] (the all-time stream) plus a
//!   [`WindowRing`] behind one mutex, rotation driven by an injected
//!   [`sqs_util::clock::Clock`].

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use sqs_core::buffers::{RankIndex, UnionReader};
use sqs_core::MergeableSummary;
use sqs_engine::{merge_tree, ShardedEngine};
use sqs_util::audit::{ensure, CheckInvariants, InvariantViolation};
use sqs_util::clock::Clock;
use sqs_util::space::SpaceUsage;

/// What happens to an insert whose timestamp falls before the current
/// bucket (sealed buckets are immutable, so it cannot land "where it
/// belongs").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LatePolicy {
    /// Discard the late values and count them
    /// ([`WindowStats::late_dropped`]). Windowed answers then reflect
    /// only on-time data; the all-time engine still sees every value.
    Drop,
    /// Fold the late values into the *current* bucket (counted in
    /// [`WindowStats::late_routed`]): mass is preserved, placement is
    /// off by the lateness — the usual streaming trade-off.
    RouteToCurrent,
}

/// The shape of a window query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// The last `len` of time ending now (current bucket inclusive).
    Sliding,
    /// The most recently *completed* aligned window of width `len`.
    Tumbling,
}

/// One window query descriptor: kind plus span. The span must be a
/// positive multiple of the ring's bucket width, at most the retention
/// horizon — [`WindowRing::query`] validates against its config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Sliding or tumbling.
    pub kind: WindowKind,
    /// Window span in nanoseconds.
    pub len_nanos: u64,
}

impl WindowSpec {
    /// A sliding window over the last `len_nanos`.
    #[must_use]
    pub fn sliding(len_nanos: u64) -> Self {
        Self {
            kind: WindowKind::Sliding,
            len_nanos,
        }
    }

    /// The most recently completed tumbling window of width
    /// `len_nanos`.
    #[must_use]
    pub fn tumbling(len_nanos: u64) -> Self {
        Self {
            kind: WindowKind::Tumbling,
            len_nanos,
        }
    }
}

impl CheckInvariants for WindowSpec {
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        ensure(
            self.len_nanos > 0,
            "WindowSpec",
            "window.spec_positive_span",
            || "window span must be positive".to_owned(),
        )
    }
}

/// Ring configuration: bucket width, retention, rollup grouping, late
/// policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Bucket width in nanoseconds (must be positive).
    pub bucket_nanos: u64,
    /// How many buckets stay queryable; older buckets are evicted
    /// (must be at least 1).
    pub retention_buckets: u64,
    /// Sealed buckets are pre-merged in aligned groups of this many
    /// for long-range queries; `0` disables rollups (values `0` and
    /// `>= 2` are valid).
    pub rollup_factor: u64,
    /// What happens to inserts older than the current bucket.
    pub late_policy: LatePolicy,
}

impl WindowConfig {
    /// A config with the given bucket width and retention, rollups in
    /// groups of 8, and drop-with-counter late handling.
    #[must_use]
    pub fn new(bucket_nanos: u64, retention_buckets: u64) -> Self {
        Self {
            bucket_nanos,
            retention_buckets,
            rollup_factor: 8,
            late_policy: LatePolicy::Drop,
        }
    }

    /// Validates the configuration, naming the first violated rule.
    ///
    /// # Errors
    /// Returns a message describing the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.bucket_nanos == 0 {
            return Err("window bucket width must be positive".to_owned());
        }
        if self.retention_buckets == 0 {
            return Err("window retention must be at least 1 bucket".to_owned());
        }
        if self.rollup_factor == 1 {
            return Err("window rollup factor must be 0 (disabled) or >= 2".to_owned());
        }
        Ok(())
    }
}

/// Why a window query was refused (all deterministic spec-vs-config
/// mismatches — never a panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowError {
    /// The span is zero.
    ZeroSpan,
    /// The span is not a multiple of the bucket width.
    Unaligned {
        /// The offending span.
        len_nanos: u64,
        /// The ring's bucket width.
        bucket_nanos: u64,
    },
    /// The span needs more buckets than the ring retains: a sliding
    /// span of `m` buckets needs `m`, a tumbling one `2m` — its newest
    /// completed group can start `2m − 1` buckets behind the open one.
    SpanExceedsRetention {
        /// Buckets the span covers.
        span_buckets: u64,
        /// Buckets that must be retained for the answer to be whole.
        needed_buckets: u64,
        /// Buckets the ring retains.
        retention_buckets: u64,
    },
}

impl fmt::Display for WindowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowError::ZeroSpan => write!(f, "window span must be positive"),
            WindowError::Unaligned {
                len_nanos,
                bucket_nanos,
            } => write!(
                f,
                "window span {len_nanos}ns is not a multiple of the {bucket_nanos}ns bucket width"
            ),
            WindowError::SpanExceedsRetention {
                span_buckets,
                needed_buckets,
                retention_buckets,
            } => write!(
                f,
                "window spans {span_buckets} buckets and needs {needed_buckets} retained, \
                 but the ring retains only {retention_buckets}"
            ),
        }
    }
}

impl std::error::Error for WindowError {}

/// What one windowed ingest did with its values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowIngestOutcome {
    /// Values placed in the ring (on-time, or routed under
    /// [`LatePolicy::RouteToCurrent`]).
    pub accepted: u64,
    /// Values discarded as late under [`LatePolicy::Drop`].
    pub dropped: u64,
}

/// One answered window query: the bucket-aligned time range actually
/// covered, the mass inside it, and one answer per requested φ
/// (`None` when the window holds no data).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WindowAnswer {
    /// Window start (inclusive), bucket-aligned nanoseconds.
    pub start_nanos: u64,
    /// Window end (exclusive); `start == end` means no window has
    /// completed yet (tumbling, before the first full span).
    pub end_nanos: u64,
    /// Items inside the window.
    pub n: u64,
    /// One φ-quantile per requested φ, in request order.
    pub answers: Vec<Option<u64>>,
}

impl CheckInvariants for WindowAnswer {
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        ensure(
            self.start_nanos <= self.end_nanos,
            "WindowAnswer",
            "window.answer_range_ordered",
            || {
                format!(
                    "window range [{}, {}) is inverted",
                    self.start_nanos, self.end_nanos
                )
            },
        )?;
        ensure(
            self.n > 0 || self.answers.iter().all(Option::is_none),
            "WindowAnswer",
            "window.answer_empty_consistent",
            || "an empty window produced Some(quantile) answers".to_owned(),
        )
    }
}

/// Counters and gauges describing one ring (per tenant, in the
/// service). All counters are cumulative since the ring was created.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Bucket width in nanoseconds (config echo).
    pub bucket_nanos: u64,
    /// Retention horizon in buckets (config echo).
    pub retention_buckets: u64,
    /// Rollup group size, 0 when disabled (config echo).
    pub rollup_factor: u64,
    /// Index of the current (still-open) bucket.
    pub current_bucket: u64,
    /// Buckets currently holding data.
    pub live_buckets: u64,
    /// Items currently inside retained buckets.
    pub live_items: u64,
    /// Items ever placed in the ring (on-time + routed).
    pub ingested_items: u64,
    /// Buckets evicted past the retention horizon.
    pub evicted_buckets: u64,
    /// Items that left with evicted buckets.
    pub evicted_items: u64,
    /// Late values discarded under [`LatePolicy::Drop`].
    pub late_dropped: u64,
    /// Late values folded into the current bucket under
    /// [`LatePolicy::RouteToCurrent`].
    pub late_routed: u64,
    /// Bucket edges crossed by rotation.
    pub buckets_rotated: u64,
    /// Rollup summaries materialized.
    pub rollups_built: u64,
    /// Rollups read in place of fine buckets by queries.
    pub rollup_hits: u64,
    /// Window queries answered.
    pub queries: u64,
    /// Queries that merged or indexed no sealed part: every sealed part
    /// they read was indexed already (summaries with runs), or their
    /// spec's cached sealed merge still covered the same range (without).
    pub cache_hits: u64,
}

/// The number of `u64` words [`WindowStats`] flattens to on the wire
/// (kept in sync by `as_words` / `from_words`).
pub const WINDOW_STATS_WORDS: usize = 16;

impl WindowStats {
    /// Flattens to a fixed array of words (wire encoding order).
    #[must_use]
    pub fn as_words(&self) -> [u64; WINDOW_STATS_WORDS] {
        [
            self.bucket_nanos,
            self.retention_buckets,
            self.rollup_factor,
            self.current_bucket,
            self.live_buckets,
            self.live_items,
            self.ingested_items,
            self.evicted_buckets,
            self.evicted_items,
            self.late_dropped,
            self.late_routed,
            self.buckets_rotated,
            self.rollups_built,
            self.rollup_hits,
            self.queries,
            self.cache_hits,
        ]
    }

    /// Rebuilds from the wire word order (inverse of
    /// [`WindowStats::as_words`]).
    #[must_use]
    pub fn from_words(w: &[u64; WINDOW_STATS_WORDS]) -> Self {
        let at = |i: usize| w.get(i).copied().unwrap_or(0);
        Self {
            bucket_nanos: at(0),
            retention_buckets: at(1),
            rollup_factor: at(2),
            current_bucket: at(3),
            live_buckets: at(4),
            live_items: at(5),
            ingested_items: at(6),
            evicted_buckets: at(7),
            evicted_items: at(8),
            late_dropped: at(9),
            late_routed: at(10),
            buckets_rotated: at(11),
            rollups_built: at(12),
            rollup_hits: at(13),
            queries: at(14),
            cache_hits: at(15),
        }
    }
}

/// One fine bucket: its index (`timestamp / bucket_nanos`) and the
/// partial summary of everything that landed in it.
struct Bucket<S> {
    idx: u64,
    n: u64,
    summary: S,
    index: PartIndex,
}

/// A sealed rollup: group `g` covers fine buckets
/// `[g * factor, (g + 1) * factor)`.
struct Rollup<S> {
    n: u64,
    summary: S,
    index: PartIndex,
}

/// A part's rank index over its runs, for the union read: built by the
/// first query that reads the part, dropped by an ingest into it (only
/// the open bucket takes one) and by a rotation it was not read before.
#[derive(Default)]
struct PartIndex {
    cached: Option<RankIndex<u64>>,
    /// The rotation epoch a query last read the part in.
    read: u64,
}

impl PartIndex {
    /// The part's index, built from `summary` if no query built it
    /// since it was last dropped, and whether this call built it.
    fn read<S: MergeableSummary<u64>>(
        &mut self,
        summary: &S,
        epoch: u64,
    ) -> (&RankIndex<u64>, bool) {
        self.read = epoch;
        let built = self.cached.is_none();
        (self.cached.get_or_insert_with(|| index_of(summary)), built)
    }
}

/// A part of the ring, for audit messages.
#[derive(Clone, Copy)]
enum Part {
    /// The fine bucket of this index.
    Bucket(u64),
    /// The rollup of this group.
    Rollup(u64),
}

impl fmt::Display for Part {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Part::Bucket(idx) => write!(f, "bucket {idx}"),
            Part::Rollup(g) => write!(f, "rollup group {g}"),
        }
    }
}

/// One index over a summary's runs, the stable ones then the fill.
fn index_of<S: MergeableSummary<u64>>(summary: &S) -> RankIndex<u64> {
    let runs = summary
        .runs()
        .expect("WindowRing invariant: a summary with runs has them in every state");
    let mut all = runs.stable;
    all.extend(runs.fresh);
    RankIndex::build(&all)
}

/// How many specs keep a sealed merge at once, least recently queried
/// dropped first. A client can name up to 2 × retention distinct specs
/// between two rotations, and every entry pins up to two summaries.
const SEALED_MERGES: usize = 4;

/// One queried spec's merge of the *sealed* buckets it covers, for a
/// summary without runs. Sealed buckets never change, so the merge is
/// exact for as long as the spec covers the same range: an ingest
/// (which touches only the open bucket) leaves it valid, and a rotation
/// that moves the range makes the spec's next query rebuild it.
struct SealedMerge<S> {
    spec: WindowSpec,
    /// The covered bucket range `[lo, hi]` it was built for.
    range: (u64, u64),
    /// Items in the sealed part of the range.
    n: u64,
    /// `merge_tree` of the sealed parts; `None` when they hold nothing.
    /// Never queried: a summary may reorder itself when queried (a
    /// reservoir sorts), and a merge reads that order.
    sealed: Option<S>,
    /// What the spec's queries read: a clone of `sealed` (stamped
    /// `None`) while the open bucket is out of range or empty, else a
    /// clone of the open bucket with `sealed` merged in, valid while
    /// the ring version still equals the stamp.
    root: Option<(Option<u64>, S)>,
}

/// The clock-free windowing core: a sparse ring of per-bucket partial
/// summaries with rotation, retention and rollups, read as a union of
/// its parts' rank indexes (summaries with runs) or through a
/// range-keyed cache of sealed merges (summaries without). Every method
/// takes `now_nanos` explicitly — the caller owns time (see
/// [`WindowedEngine`] for the clock-driven wrapper).
pub struct WindowRing<S> {
    cfg: WindowConfig,
    make: Box<dyn Fn(u64) -> S + Send + Sync>,
    /// Live fine buckets, strictly ascending by index. Sparse: a
    /// bucket exists only if something landed in it.
    buckets: VecDeque<Bucket<S>>,
    /// Sealed rollups by group index, built lazily on first covering
    /// query.
    rollups: BTreeMap<u64, Rollup<S>>,
    /// Index of the current (open) bucket.
    cur_idx: u64,
    /// False until the first `advance_to` anchors the ring in time.
    started: bool,
    /// Ticks on every mutation; stamps each entry's `root`.
    version: u64,
    /// Whether queries read the parts' runs as one union; asked once,
    /// of an empty bucket, at construction.
    union: bool,
    /// Ticks on every rotation; stamps each part index's last read.
    epoch: u64,
    /// Rank indexes built since the ring was created.
    indexes_built: u64,
    /// Sealed merges, least recently queried first; at most
    /// [`SEALED_MERGES`], one per spec. Empty on the union path.
    merges: Vec<SealedMerge<S>>,
    stats: WindowStats,
}

/// What a ring holds beside its counters, for audits, tests and memory
/// reports. Bytes are [`SpaceUsage`]'s (4 per word).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReadSide {
    /// Bytes of the bucket and rollup summaries.
    pub summary_bytes: usize,
    /// Bytes of the cached sealed merges and their roots (summaries
    /// without runs).
    pub merge_bytes: usize,
    /// Parts (buckets and rollups) holding a rank index.
    pub part_indexes: u64,
    /// Bytes of those indexes.
    pub index_bytes: usize,
    /// Rank indexes built since the ring was created.
    pub indexes_built: u64,
}

impl<S> fmt::Debug for WindowRing<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WindowRing")
            .field("cfg", &self.cfg)
            .field("cur_idx", &self.cur_idx)
            .field("live_buckets", &self.buckets.len())
            .field("rollups", &self.rollups.len())
            .field("sealed_merges", &self.merges.len())
            .field("union", &self.union)
            .field("version", &self.version)
            .finish_non_exhaustive()
    }
}

impl<S> WindowRing<S>
where
    S: MergeableSummary<u64> + Clone,
{
    /// A fresh ring. `make(bucket_index)` builds the empty partial
    /// summary for one bucket — the place where per-bucket seeds
    /// diverge for randomized backends (all buckets must be
    /// merge-compatible with each other). One bucket is made here and
    /// asked for its runs, which picks the read path: a summary that
    /// has runs must have them in every state.
    ///
    /// # Panics
    /// Panics if `cfg` fails [`WindowConfig::validate`].
    #[must_use]
    pub fn new(cfg: WindowConfig, make: impl Fn(u64) -> S + Send + Sync + 'static) -> Self {
        if let Err(msg) = cfg.validate() {
            panic!("WindowRing invariant: {msg}");
        }
        let union = make(0).runs().is_some();
        Self {
            cfg,
            make: Box::new(make),
            buckets: VecDeque::new(),
            rollups: BTreeMap::new(),
            cur_idx: 0,
            started: false,
            version: 0,
            union,
            epoch: 0,
            indexes_built: 0,
            merges: Vec::new(),
            stats: WindowStats {
                bucket_nanos: cfg.bucket_nanos,
                retention_buckets: cfg.retention_buckets,
                rollup_factor: cfg.rollup_factor,
                ..WindowStats::default()
            },
        }
    }

    /// The ring's configuration.
    #[must_use]
    pub fn config(&self) -> &WindowConfig {
        &self.cfg
    }

    /// Current counters/gauges (live gauges recomputed on read).
    #[must_use]
    pub fn stats(&self) -> WindowStats {
        let mut s = self.stats;
        s.current_bucket = self.cur_idx;
        s.live_buckets = self.buckets.len() as u64;
        s.live_items = self.buckets.iter().map(|b| b.n).sum();
        s
    }

    /// What the ring holds beside its counters.
    #[must_use]
    pub fn read_side(&self) -> ReadSide {
        let indexes = || {
            self.part_indexes()
                .filter_map(|(_, _, ix)| ix.cached.as_ref())
        };
        let roots = self
            .merges
            .iter()
            .flat_map(|e| e.sealed.iter().chain(e.root.as_ref().map(|(_, s)| s)));
        ReadSide {
            summary_bytes: self.part_indexes().map(|(_, s, _)| s.space_bytes()).sum(),
            merge_bytes: roots.map(SpaceUsage::space_bytes).sum(),
            part_indexes: indexes().count() as u64,
            index_bytes: indexes().map(SpaceUsage::space_bytes).sum(),
            indexes_built: self.indexes_built,
        }
    }

    /// Every part — the fine buckets, then the rollups — with its
    /// summary and index, named for audit messages.
    fn part_indexes(&self) -> impl Iterator<Item = (Part, &S, &PartIndex)> {
        let buckets = (self.buckets.iter()).map(|b| (Part::Bucket(b.idx), &b.summary, &b.index));
        let rollups = (self.rollups.iter()).map(|(&g, r)| (Part::Rollup(g), &r.summary, &r.index));
        buckets.chain(rollups)
    }

    /// The oldest bucket index still retained at the current position.
    fn min_retained(&self) -> u64 {
        (self.cur_idx + 1).saturating_sub(self.cfg.retention_buckets)
    }

    /// Moves the ring to `now`: seals buckets behind any crossed
    /// edges and evicts past the retention horizon. Time never moves
    /// backwards (an older `now` is a no-op — the [`Clock`] contract).
    pub fn advance_to(&mut self, now_nanos: u64) {
        let idx = now_nanos / self.cfg.bucket_nanos;
        if !self.started {
            self.started = true;
            self.cur_idx = idx;
            self.version += 1;
            return;
        }
        if idx <= self.cur_idx {
            return;
        }
        self.stats.buckets_rotated += idx - self.cur_idx;
        self.cur_idx = idx;
        self.version += 1;
        self.epoch += 1;
        let min_idx = self.min_retained();
        while let Some(front) = self.buckets.front() {
            if front.idx >= min_idx {
                break;
            }
            let gone = self
                .buckets
                .pop_front()
                .expect("WindowRing invariant: front exists while loop runs");
            self.stats.evicted_buckets += 1;
            self.stats.evicted_items += gone.n;
        }
        if self.cfg.rollup_factor >= 2 {
            // A rollup group is evictable once its last fine bucket
            // fell behind the retention horizon.
            let f = self.cfg.rollup_factor;
            self.rollups.retain(|&g, _| g * f + (f - 1) >= min_idx);
        }
        // The epoch that just ended keeps the indexes it read.
        let ended = self.epoch - 1;
        let buckets = self.buckets.iter_mut().map(|b| &mut b.index);
        for part in buckets.chain(self.rollups.values_mut().map(|r| &mut r.index)) {
            if part.read < ended {
                part.cached = None;
            }
        }
    }

    /// Places one timestamped batch. `ts_nanos` is the *event* time of
    /// every value in `xs`; `now_nanos` drives rotation first. Values
    /// with future timestamps (past the current bucket) are clamped
    /// into the current bucket — `now` is authoritative.
    pub fn ingest(&mut self, ts_nanos: u64, xs: &[u64], now_nanos: u64) -> WindowIngestOutcome {
        self.advance_to(now_nanos);
        if xs.is_empty() {
            return WindowIngestOutcome::default();
        }
        let len = xs.len() as u64;
        let idx = ts_nanos / self.cfg.bucket_nanos;
        if idx < self.cur_idx {
            match self.cfg.late_policy {
                LatePolicy::Drop => {
                    self.stats.late_dropped += len;
                    return WindowIngestOutcome {
                        accepted: 0,
                        dropped: len,
                    };
                }
                LatePolicy::RouteToCurrent => {
                    self.stats.late_routed += len;
                }
            }
        }
        // On-time, routed-late and clamped-future values all land in
        // the current bucket: sealed buckets stay immutable, which is
        // what keeps rollups and the sealed merges coherent.
        let cur_idx = self.cur_idx;
        let needs_new = self.buckets.back().is_none_or(|b| b.idx != cur_idx);
        if needs_new {
            self.buckets.push_back(Bucket {
                idx: cur_idx,
                n: 0,
                summary: (self.make)(cur_idx),
                index: PartIndex::default(),
            });
        }
        let bucket = self
            .buckets
            .back_mut()
            .expect("WindowRing invariant: current bucket exists after push");
        bucket.summary.insert_batch(xs);
        bucket.n += len;
        bucket.index.cached = None;
        self.stats.ingested_items += len;
        self.version += 1;
        WindowIngestOutcome {
            accepted: len,
            dropped: 0,
        }
    }

    /// Validates a spec against this ring's config and returns the
    /// span in buckets.
    fn span_buckets(&self, spec: WindowSpec) -> Result<u64, WindowError> {
        if spec.len_nanos == 0 {
            return Err(WindowError::ZeroSpan);
        }
        if !spec.len_nanos.is_multiple_of(self.cfg.bucket_nanos) {
            return Err(WindowError::Unaligned {
                len_nanos: spec.len_nanos,
                bucket_nanos: self.cfg.bucket_nanos,
            });
        }
        let m = spec.len_nanos / self.cfg.bucket_nanos;
        // Sliding reaches back m − 1 buckets from the open one. The
        // newest completed tumbling group starts at cur − 2m + 1 when
        // cur is the last bucket of the group after it, so only a ring
        // retaining 2m buckets always still holds all of it.
        let needed = match spec.kind {
            WindowKind::Sliding => m,
            WindowKind::Tumbling => m.saturating_mul(2),
        };
        if needed > self.cfg.retention_buckets {
            return Err(WindowError::SpanExceedsRetention {
                span_buckets: m,
                needed_buckets: needed,
                retention_buckets: self.cfg.retention_buckets,
            });
        }
        Ok(m)
    }

    /// The inclusive bucket range `[lo, hi]` a spec covers at the
    /// current position, or `None` while no tumbling window has
    /// completed yet.
    fn covered_range(&self, spec: WindowSpec, m: u64) -> Option<(u64, u64)> {
        match spec.kind {
            WindowKind::Sliding => {
                let hi = self.cur_idx;
                let lo = (hi + 1).saturating_sub(m);
                Some((lo, hi))
            }
            WindowKind::Tumbling => {
                let group = self.cur_idx / m;
                if group == 0 {
                    return None;
                }
                let lo = (group - 1) * m;
                Some((lo, lo + m - 1))
            }
        }
    }

    /// The rollup groups lying entirely inside the sealed range
    /// `[lo, hi]` (`hi < cur_idx`); empty when rollups are off.
    fn groups(&self, lo: u64, hi: u64) -> std::ops::Range<u64> {
        let f = self.cfg.rollup_factor;
        if f >= 2 {
            let first = lo.div_ceil(f);
            first..((hi + 1) / f).max(first)
        } else {
            0..0
        }
    }

    /// The rollup of group `g`, merged from its buckets by the first
    /// query that covers it; `None` when the group holds no data.
    fn rollup(&mut self, g: u64) -> Option<&Rollup<S>> {
        if !self.rollups.contains_key(&g) {
            let f = self.cfg.rollup_factor;
            let group = (self.buckets.iter()).filter(|b| b.idx / f == g);
            let n = group.clone().map(|b| b.n).sum();
            let parts: Vec<S> = group.map(|b| b.summary.clone()).collect();
            if parts.is_empty() {
                return None;
            }
            let (summary, _depth) = merge_tree(parts);
            self.stats.rollups_built += 1;
            let index = PartIndex::default();
            self.rollups.insert(g, Rollup { n, summary, index });
        }
        self.rollups.get(&g)
    }

    /// Clones of the summaries covering the *sealed* range `[lo, hi]`
    /// (`hi < cur_idx`): first one rollup per aligned group lying
    /// entirely inside it, then the fine buckets of the ragged edges,
    /// each in ascending order.
    fn collect_parts(&mut self, lo: u64, hi: u64) -> (Vec<S>, u64) {
        let groups = self.groups(lo, hi);
        let mut parts = Vec::new();
        let mut n = 0u64;
        for g in groups.clone() {
            if let Some(r) = self.rollup(g) {
                parts.push(r.summary.clone());
                n += r.n;
                self.stats.rollup_hits += 1;
            }
        }
        let f = self.cfg.rollup_factor;
        let fine = self
            .buckets
            .iter()
            .filter(|b| b.idx >= lo && b.idx <= hi && !(f >= 2 && groups.contains(&(b.idx / f))));
        for b in fine {
            parts.push(b.summary.clone());
            n += b.n;
        }
        (parts, n)
    }

    /// Makes the last entry of `merges` the sealed merge of `spec`
    /// over `range`: reused when the spec's entry still covers it
    /// (counted in `cache_hits`), rebuilt from the sealed parts
    /// otherwise, the least recently queried entry making room.
    fn sealed_merge(&mut self, spec: WindowSpec, range: (u64, u64)) {
        if let Some(i) = self.merges.iter().position(|e| e.spec == spec) {
            let entry = self.merges.remove(i);
            if entry.range == range {
                self.stats.cache_hits += 1;
                self.merges.push(entry);
                return;
            }
        } else if self.merges.len() == SEALED_MERGES {
            self.merges.remove(0);
        }
        // Every covered bucket but the open one is sealed.
        let (lo, hi) = range;
        let (parts, n) = if lo < self.cur_idx {
            self.collect_parts(lo, hi.min(self.cur_idx - 1))
        } else {
            (Vec::new(), 0)
        };
        let sealed = (!parts.is_empty()).then(|| merge_tree(parts).0);
        self.merges.push(SealedMerge {
            spec,
            range,
            n,
            sealed,
            root: None,
        });
    }

    /// The merge path's answer to `spec` over `(lo, hi)`: the spec's
    /// sealed merge, with the open bucket merged in at the root when it
    /// is in range.
    fn read_merged(
        &mut self,
        spec: WindowSpec,
        (lo, hi): (u64, u64),
        phis: &[f64],
    ) -> (u64, Vec<Option<u64>>) {
        self.sealed_merge(spec, (lo, hi));
        let entry = self
            .merges
            .last_mut()
            .expect("WindowRing invariant: sealed_merge leaves the spec's entry last");
        // The open bucket is in range only for a sliding window, and
        // exists only once something landed in it.
        let cur = self.cur_idx;
        let open = self.buckets.back().filter(|b| b.idx == cur && hi == cur);
        let (n, stamp) = match open {
            None => (entry.n, None),
            Some(b) => (entry.n + b.n, Some(self.version)),
        };
        if entry.root.as_ref().is_none_or(|(v, _)| *v != stamp) {
            let root = match open {
                Some(b) => {
                    let mut root = b.summary.clone();
                    if let Some(sealed) = &entry.sealed {
                        root.merge_from(sealed.clone());
                    }
                    Some(root)
                }
                None => entry.sealed.clone(),
            };
            entry.root = root.map(|s| (stamp, s));
        }
        let answers = match &mut entry.root {
            Some((_, s)) => s.quantiles(phis),
            None => vec![None; phis.len()],
        };
        (n, answers)
    }

    /// The union path's answer over `(lo, hi)`: one read of the covered
    /// parts' rank indexes in part order — the whole rollups, the
    /// sealed fine buckets of the edges, the open bucket — indexing only
    /// the parts no query indexed yet, and merging only the rollups no
    /// query built yet.
    fn read_parts(&mut self, (lo, hi): (u64, u64), phis: &[f64]) -> (u64, Vec<Option<u64>>) {
        let cur = self.cur_idx;
        let groups = if lo < cur {
            self.groups(lo, hi.min(cur - 1))
        } else {
            0..0
        };
        let rollups_built = self.stats.rollups_built;
        for g in groups.clone() {
            self.rollup(g);
        }
        let (epoch, f) = (self.epoch, self.cfg.rollup_factor);
        let (mut n, mut parts) = (0u64, Vec::new());
        // Whether this query merged or indexed a sealed part.
        let mut built_sealed = self.stats.rollups_built != rollups_built;
        for (_, r) in self.rollups.range_mut(groups.clone()) {
            let (index, fresh) = r.index.read(&r.summary, epoch);
            parts.push(index);
            n += r.n;
            self.stats.rollup_hits += 1;
            self.indexes_built += u64::from(fresh);
            built_sealed |= fresh;
        }
        let start = self.buckets.partition_point(|b| b.idx < lo);
        let end = self.buckets.partition_point(|b| b.idx <= hi);
        let fine = (self.buckets.range_mut(start..end))
            .filter(|b| !(f >= 2 && groups.contains(&(b.idx / f))));
        for b in fine {
            let (index, fresh) = b.index.read(&b.summary, epoch);
            parts.push(index);
            n += b.n;
            self.indexes_built += u64::from(fresh);
            built_sealed |= fresh && b.idx < cur;
        }
        self.stats.cache_hits += u64::from(!built_sealed);
        (n, UnionReader::new(parts).quantiles(phis))
    }

    /// Answers one window query at `now`. Rotation happens first, so
    /// the answer always reflects the clock the caller passed.
    ///
    /// # Errors
    /// Returns a [`WindowError`] when the spec does not fit this
    /// ring's bucket width or retention.
    pub fn query(
        &mut self,
        spec: WindowSpec,
        phis: &[f64],
        now_nanos: u64,
    ) -> Result<WindowAnswer, WindowError> {
        self.advance_to(now_nanos);
        let m = self.span_buckets(spec)?;
        self.stats.queries += 1;
        let Some((lo, hi)) = self.covered_range(spec, m) else {
            // No completed tumbling window yet: an explicitly empty
            // answer (start == end).
            return Ok(WindowAnswer {
                start_nanos: 0,
                end_nanos: 0,
                n: 0,
                answers: vec![None; phis.len()],
            });
        };
        let (n, answers) = if self.union {
            self.read_parts((lo, hi), phis)
        } else {
            self.read_merged(spec, (lo, hi), phis)
        };
        Ok(WindowAnswer {
            start_nanos: lo.saturating_mul(self.cfg.bucket_nanos),
            end_nanos: (hi + 1).saturating_mul(self.cfg.bucket_nanos),
            n,
            answers,
        })
    }
}

impl<S> CheckInvariants for WindowRing<S>
where
    S: MergeableSummary<u64> + Clone,
{
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        let min_idx = self.min_retained();
        let mut prev: Option<u64> = None;
        for b in &self.buckets {
            ensure(
                prev.is_none_or(|p| p < b.idx),
                "WindowRing",
                "window.buckets_ascending",
                || format!("bucket indices not strictly ascending at {}", b.idx),
            )?;
            prev = Some(b.idx);
            ensure(
                b.idx >= min_idx && b.idx <= self.cur_idx,
                "WindowRing",
                "window.buckets_within_retention",
                || {
                    format!(
                        "bucket {} outside retained range [{min_idx}, {}]",
                        b.idx, self.cur_idx
                    )
                },
            )?;
            ensure(
                b.n == b.summary.n(),
                "WindowRing",
                "window.bucket_mass_matches_summary",
                || {
                    format!(
                        "bucket {} ledger holds {} items but its summary holds {}",
                        b.idx,
                        b.n,
                        b.summary.n()
                    )
                },
            )?;
        }
        let live: u64 = self.buckets.iter().map(|b| b.n).sum();
        ensure(
            live + self.stats.evicted_items == self.stats.ingested_items,
            "WindowRing",
            "window.mass_conservation",
            || {
                format!(
                    "live {} + evicted {} != ingested {}",
                    live, self.stats.evicted_items, self.stats.ingested_items
                )
            },
        )?;
        for (&g, r) in &self.rollups {
            ensure(
                r.n == r.summary.n(),
                "WindowRing",
                "window.rollup_mass_matches_summary",
                || {
                    format!(
                        "rollup group {g} ledger holds {} items but its summary holds {}",
                        r.n,
                        r.summary.n()
                    )
                },
            )?;
        }
        ensure(
            self.merges.len() <= SEALED_MERGES,
            "WindowRing",
            "window.sealed_merges_bounded",
            || format!("{} sealed merges cached", self.merges.len()),
        )?;
        for e in &self.merges {
            let m = e.spec.len_nanos / self.cfg.bucket_nanos;
            if self.covered_range(e.spec, m) != Some(e.range) {
                continue; // stale: rebuilt on its spec's next query
            }
            let (lo, hi) = e.range;
            let sealed: u64 = (self.buckets.iter())
                .filter(|b| b.idx >= lo && b.idx <= hi && b.idx < self.cur_idx)
                .map(|b| b.n)
                .sum();
            let open = self
                .buckets
                .back()
                .filter(|b| b.idx == self.cur_idx && hi == b.idx);
            // A root stamped for another state is rebuilt on its
            // spec's next query.
            let root = match &e.root {
                Some((None, s)) => open.is_some() || s.n() == sealed,
                Some((Some(v), s)) => {
                    *v != self.version || s.n() == sealed + open.map_or(0, |b| b.n)
                }
                None => true,
            };
            ensure(
                e.n == sealed && e.sealed.as_ref().map_or(0, |s| s.n()) == sealed && root,
                "WindowRing",
                "window.sealed_merge_coherence",
                || {
                    format!(
                        "the sealed merge of {:?} over {:?} holds {} items, its buckets {sealed}",
                        e.spec, e.range, e.n
                    )
                },
            )?;
        }
        // The union path's part indexes: only on retained parts a query
        // read in this rotation epoch or the one before, each what a
        // build from its part's runs gives now.
        let f = self.cfg.rollup_factor;
        for (part, summary, ix) in self.part_indexes() {
            let Some(index) = &ix.cached else { continue };
            let retained = match part {
                Part::Bucket(_) => true,
                Part::Rollup(g) => g * f + (f - 1) >= min_idx,
            };
            ensure(
                retained && ix.read + 1 >= self.epoch,
                "WindowRing",
                "window.part_indexes_bounded",
                || {
                    format!(
                        "{part} holds an index, last read in rotation epoch {} of {} \
                         (retained: {retained})",
                        ix.read, self.epoch
                    )
                },
            )?;
            ensure(
                *index == index_of(summary),
                "WindowRing",
                "window.part_index_coherence",
                || format!("the cached index of {part} differs from a build from its runs"),
            )?;
        }
        Ok(())
    }
}

/// The service-facing windowed engine: the tenant's all-time
/// [`ShardedEngine`] plus one [`WindowRing`], with rotation driven by
/// an injected [`Clock`].
///
/// Windowed ingest feeds **both**: the ring (subject to the late
/// policy) and the engine (unconditionally — a late value was still
/// observed, so the all-time stream keeps it even when the window
/// drops it).
pub struct WindowedEngine<S> {
    engine: Arc<ShardedEngine<u64, S>>,
    ring: Mutex<WindowRing<S>>,
    clock: Arc<dyn Clock>,
}

impl<S> fmt::Debug for WindowedEngine<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WindowedEngine")
            .field("clock", &self.clock)
            .finish_non_exhaustive()
    }
}

impl<S> WindowedEngine<S>
where
    S: MergeableSummary<u64> + Clone + Send + 'static,
{
    /// Wraps an existing engine with a window ring. `make` builds each
    /// bucket's empty partial summary (see [`WindowRing::new`]).
    #[must_use]
    pub fn new(
        engine: Arc<ShardedEngine<u64, S>>,
        cfg: WindowConfig,
        clock: Arc<dyn Clock>,
        make: impl Fn(u64) -> S + Send + Sync + 'static,
    ) -> Self {
        Self {
            engine,
            ring: Mutex::new(WindowRing::new(cfg, make)),
            clock,
        }
    }

    /// The wrapped all-time engine.
    #[must_use]
    pub fn engine(&self) -> &Arc<ShardedEngine<u64, S>> {
        &self.engine
    }

    fn lock_ring(&self) -> MutexGuard<'_, WindowRing<S>> {
        match self.ring.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Windowed ingest: places `xs` (event time `ts_nanos`) in the
    /// ring, then folds them into the all-time engine.
    pub fn ingest(&self, ts_nanos: u64, xs: &[u64]) -> WindowIngestOutcome {
        let outcome = self.ingest_window_only(ts_nanos, xs);
        // Engine ingest happens after the ring guard is released —
        // the engine takes shard locks of its own.
        self.engine.ingest_batch(xs);
        outcome
    }

    /// Ring-only ingest, for callers that feed the engine themselves
    /// (the durable server logs the batch and ingests under its WAL
    /// gate, then updates the ring with this).
    pub fn ingest_window_only(&self, ts_nanos: u64, xs: &[u64]) -> WindowIngestOutcome {
        let now = self.clock.now_nanos();
        let mut ring = self.lock_ring();
        ring.ingest(ts_nanos, xs, now)
    }

    /// Answers one window query at the injected clock's "now".
    ///
    /// # Errors
    /// See [`WindowRing::query`].
    pub fn query(&self, spec: WindowSpec, phis: &[f64]) -> Result<WindowAnswer, WindowError> {
        let now = self.clock.now_nanos();
        let mut ring = self.lock_ring();
        ring.query(spec, phis, now)
    }

    /// Rotates to the clock's "now" and reports the ring's stats.
    #[must_use]
    pub fn stats(&self) -> WindowStats {
        let now = self.clock.now_nanos();
        let mut ring = self.lock_ring();
        ring.advance_to(now);
        ring.stats()
    }

    /// Audits the ring's structural invariants (tests and the audit
    /// driver).
    ///
    /// # Errors
    /// Returns the first violated invariant.
    pub fn check_ring_invariants(&self) -> Result<(), InvariantViolation> {
        self.lock_ring().check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_core::qdigest::QDigest;
    use sqs_core::random::RandomSketch;

    fn cfg(bucket: u64, retention: u64, rollup: u64, late: LatePolicy) -> WindowConfig {
        WindowConfig {
            bucket_nanos: bucket,
            retention_buckets: retention,
            rollup_factor: rollup,
            late_policy: late,
        }
    }

    /// A ring over `Random`, which has runs: the union path.
    fn ring(
        bucket: u64,
        retention: u64,
        rollup: u64,
        late: LatePolicy,
    ) -> WindowRing<RandomSketch<u64>> {
        let cfg = cfg(bucket, retention, rollup, late);
        WindowRing::new(cfg, |idx| RandomSketch::new(0.05, 0xBEEF ^ idx))
    }

    /// A ring over the q-digest, which has none: the merge path.
    fn qdigest_ring(
        bucket: u64,
        retention: u64,
        rollup: u64,
        late: LatePolicy,
    ) -> WindowRing<QDigest> {
        let cfg = cfg(bucket, retention, rollup, late);
        WindowRing::new(cfg, |_| QDigest::new(0.05, 16))
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(WindowConfig::new(0, 4).validate().is_err());
        assert!(WindowConfig::new(100, 0).validate().is_err());
        let mut c = WindowConfig::new(100, 4);
        c.rollup_factor = 1;
        assert!(c.validate().is_err());
        c.rollup_factor = 0;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn sliding_window_covers_current_bucket() {
        let mut r = ring(100, 8, 0, LatePolicy::Drop);
        r.ingest(50, &[1, 2, 3], 50); // bucket 0
        r.ingest(150, &[10, 20], 150); // bucket 1
        let a = r
            .query(WindowSpec::sliding(200), &[0.5], 150)
            .expect("aligned spec");
        assert_eq!(a.n, 5);
        assert_eq!((a.start_nanos, a.end_nanos), (0, 200));
        let one = r
            .query(WindowSpec::sliding(100), &[0.5], 150)
            .expect("aligned spec");
        assert_eq!(one.n, 2, "one-bucket sliding window sees only bucket 1");
    }

    #[test]
    fn tumbling_window_is_the_last_completed_span() {
        let mut r = ring(100, 8, 0, LatePolicy::Drop);
        r.ingest(50, &[1, 2], 50);
        r.ingest(150, &[3], 150);
        // Still inside the first 2-bucket tumbling window: nothing
        // completed yet.
        let a = r
            .query(WindowSpec::tumbling(200), &[0.5], 150)
            .expect("aligned spec");
        assert_eq!(a.n, 0);
        assert_eq!((a.start_nanos, a.end_nanos), (0, 0));
        assert_eq!(a.answers, vec![None]);
        // Cross into the second window: the first one [0, 200) is
        // complete and holds all 3 items.
        let a = r
            .query(WindowSpec::tumbling(200), &[0.5], 250)
            .expect("aligned spec");
        assert_eq!(a.n, 3);
        assert_eq!((a.start_nanos, a.end_nanos), (0, 200));
    }

    #[test]
    fn spec_validation_matches_config() {
        let mut r = ring(100, 4, 0, LatePolicy::Drop);
        assert_eq!(
            r.query(WindowSpec::sliding(0), &[0.5], 0),
            Err(WindowError::ZeroSpan)
        );
        assert!(matches!(
            r.query(WindowSpec::sliding(150), &[0.5], 0),
            Err(WindowError::Unaligned { .. })
        ));
        assert!(matches!(
            r.query(WindowSpec::sliding(500), &[0.5], 0),
            Err(WindowError::SpanExceedsRetention { .. })
        ));
    }

    #[test]
    fn cache_hits_between_mutations() {
        let mut r = qdigest_ring(100, 8, 0, LatePolicy::Drop);
        r.ingest(10, &[5; 64], 10); // bucket 0
        r.ingest(110, &[6; 32], 110); // bucket 1, open
        let hits = |r: &WindowRing<QDigest>| r.stats().cache_hits;
        let spec = WindowSpec::sliding(200);
        let a = r.query(spec, &[0.5], 110).expect("q1");
        assert_eq!((a.n, hits(&r)), (96, 0), "the first query merges bucket 0");
        let b = r.query(spec, &[0.25, 0.75], 110).expect("q2");
        assert_eq!((b.n, hits(&r)), (96, 1), "a repeat merges nothing");
        // An ingest touches only the open bucket: the sealed merge of
        // bucket 0 outlives it.
        r.ingest(120, &[7], 120);
        let c = r.query(spec, &[0.5], 120).expect("q3");
        assert_eq!((c.n, hits(&r)), (97, 2), "the ingest kept the sealed merge");
        // A rotation moves the range to [1, 2]: rebuilt.
        r.advance_to(200);
        let d = r.query(spec, &[0.5], 200).expect("q4");
        assert_eq!((d.n, hits(&r)), (33, 2), "the rotation moved the range");
        // A tumbling range outlives ingests and rotations until the
        // next span completes.
        let t = WindowSpec::tumbling(200);
        assert_eq!(r.query(t, &[0.5], 200).expect("t1").n, 97);
        r.ingest(250, &[8], 250);
        r.advance_to(300);
        let e = r.query(t, &[0.5], 300).expect("t2");
        assert_eq!((e.n, hits(&r)), (97, 3), "[0, 1] is still the newest span");
        r.assert_invariants();
    }

    /// [`cache_hits_between_mutations`]'s schedule on the union path:
    /// each part is indexed once, an ingest costs the open bucket's
    /// index only, and a rotation keeps every index the epoch before it
    /// read — so the rotation that rebuilt the merge above is a hit.
    #[test]
    fn union_reads_index_each_part_once() {
        let mut r = ring(100, 8, 0, LatePolicy::Drop);
        r.ingest(10, &[5; 64], 10); // bucket 0
        r.ingest(110, &[6; 32], 110); // bucket 1, open
        let counts =
            |r: &WindowRing<RandomSketch<u64>>| (r.stats().cache_hits, r.read_side().indexes_built);
        let spec = WindowSpec::sliding(200);
        let a = r.query(spec, &[0.5], 110).expect("q1");
        assert_eq!((a.n, counts(&r)), (96, (0, 2)), "bucket 0 and the open one");
        let b = r.query(spec, &[0.25, 0.75], 110).expect("q2");
        assert_eq!((b.n, counts(&r)), (96, (1, 2)), "a repeat builds nothing");
        r.ingest(120, &[7], 120);
        let c = r.query(spec, &[0.5], 120).expect("q3");
        assert_eq!(
            (c.n, counts(&r)),
            (97, (2, 3)),
            "the ingest costs the open index"
        );
        r.advance_to(200);
        let d = r.query(spec, &[0.5], 200).expect("q4");
        assert_eq!(
            (d.n, counts(&r)),
            (33, (3, 3)),
            "bucket 1 sealed with its index"
        );
        let t = WindowSpec::tumbling(200);
        assert_eq!(r.query(t, &[0.5], 200).expect("t1").n, 97);
        r.ingest(250, &[8], 250);
        r.advance_to(300);
        let e = r.query(t, &[0.5], 300).expect("t2");
        assert_eq!(
            (e.n, counts(&r)),
            (97, (5, 3)),
            "[0, 1] read from its indexes"
        );
        assert_eq!(r.read_side().merge_bytes, 0, "no merge is cached");
        r.assert_invariants();
    }

    #[test]
    fn rollups_build_once_and_serve_long_spans() {
        let mut r = qdigest_ring(10, 64, 4, LatePolicy::Drop);
        // Fill buckets 0..16, one value each; current ends at 16.
        for i in 0..=16u64 {
            r.ingest(i * 10, &[i], i * 10);
        }
        let spec = WindowSpec::sliding(160); // 16 buckets: 1..=16
        let a = r.query(spec, &[0.5], 160).expect("aligned");
        assert_eq!(a.n, 16);
        // Sealed part [1, 15]: groups 1–3 rolled up, buckets 1–3 fine.
        let s1 = r.stats();
        assert_eq!((s1.rollups_built, s1.rollup_hits), (3, 3));
        // An ingest leaves the sealed merge valid: no rollup is read.
        r.ingest(165, &[99], 165);
        assert_eq!(r.query(spec, &[0.5], 165).expect("aligned").n, 17);
        let s2 = r.stats();
        assert_eq!((s2.rollups_built, s2.rollup_hits), (3, 3));
        assert_eq!(s2.cache_hits, s1.cache_hits + 1);
        // A rotation moves the range to [2, 17]; the rebuild reuses the
        // three groups instead of building them again.
        r.ingest(175, &[100], 175);
        assert_eq!(r.query(spec, &[0.5], 175).expect("aligned").n, 17);
        let s3 = r.stats();
        assert_eq!((s3.rollups_built, s3.rollup_hits), (3, 6));
        r.assert_invariants();
    }

    /// [`rollups_build_once_and_serve_long_spans`]'s schedule on the
    /// union path: every query reads the three rollups, each rollup and
    /// bucket is indexed once, and an ingest or a rotation re-indexes
    /// only the open bucket.
    #[test]
    fn union_reads_rollups_in_place() {
        let mut r = ring(10, 64, 4, LatePolicy::Drop);
        for i in 0..=16u64 {
            r.ingest(i * 10, &[i], i * 10);
        }
        let spec = WindowSpec::sliding(160); // 16 buckets: 1..=16
        assert_eq!(r.query(spec, &[0.5], 160).expect("aligned").n, 16);
        // Groups 1–3, buckets 1–3 and the open bucket 16: seven parts.
        let counts = |r: &WindowRing<RandomSketch<u64>>| {
            let s = r.stats();
            (
                s.rollups_built,
                s.rollup_hits,
                s.cache_hits,
                r.read_side().indexes_built,
            )
        };
        assert_eq!(counts(&r), (3, 3, 0, 7));
        r.ingest(165, &[99], 165);
        assert_eq!(r.query(spec, &[0.5], 165).expect("aligned").n, 17);
        assert_eq!(counts(&r), (3, 6, 1, 8), "the ingest costs the open index");
        // The rotation to [2, 17] seals bucket 16 with the index the
        // last query built; only the new open bucket is indexed.
        r.ingest(175, &[100], 175);
        assert_eq!(r.query(spec, &[0.5], 175).expect("aligned").n, 17);
        assert_eq!(counts(&r), (3, 9, 2, 9));
        r.assert_invariants();
    }

    /// Every valid span of a 256-bucket ring, both kinds, between two
    /// rotations: the cache never holds more than its constant, and
    /// each answer covers the right range with the right mass and ranks
    /// within ε of an exact mirror.
    #[test]
    fn a_storm_of_distinct_specs_stays_bounded_and_exact() {
        use sqs_util::exact::ExactQuantiles;
        const RETENTION: u64 = 256;
        const PHIS: [f64; 3] = [0.1, 0.5, 0.9];
        let mut r = ring(10, RETENTION, 8, LatePolicy::Drop);
        let mut mirror: Vec<Vec<u64>> = Vec::new();
        let cur = 300u64;
        for idx in 0..=cur {
            let xs: Vec<u64> = (0..64)
                .map(|k| (idx * 7_919 + k * 104_729) % 10_007)
                .collect();
            r.ingest(idx * 10, &xs, idx * 10);
            mirror.push(xs);
        }
        let now = cur * 10 + 5;
        let storm = (1..=RETENTION)
            .map(|m| WindowSpec::sliding(m * 10))
            .chain((1..=RETENTION / 2).map(|m| WindowSpec::tumbling(m * 10)));
        for (i, spec) in storm.enumerate() {
            if i % 5 == 0 {
                // The open bucket moves under the cached indexes.
                let x = i as u64 % 10_007;
                r.ingest(now, &[x], now);
                mirror[cur as usize].push(x);
            }
            let a = r.query(spec, &PHIS, now).expect("every span fits");
            assert!(
                r.merges.len() <= SEALED_MERGES,
                "{} entries",
                r.merges.len()
            );
            let m = spec.len_nanos / 10;
            let (lo, hi) = match spec.kind {
                WindowKind::Sliding => (cur + 1 - m, cur),
                WindowKind::Tumbling => ((cur / m - 1) * m, (cur / m) * m - 1),
            };
            assert_eq!(
                (a.start_nanos, a.end_nanos),
                (lo * 10, (hi + 1) * 10),
                "{spec:?}"
            );
            let exact = ExactQuantiles::new(mirror[lo as usize..=hi as usize].concat());
            assert_eq!(a.n, exact.len() as u64, "{spec:?}");
            for (&phi, ans) in PHIS.iter().zip(&a.answers) {
                let err = exact.quantile_error(phi, ans.expect("no window is empty"));
                assert!(err <= 0.05, "{spec:?} phi {phi}: rank error {err}");
            }
        }
        r.assert_invariants();
        // The next rotation keeps every index the storm built but the
        // evicted bucket's (the sliding-256 spans read it).
        let read = r.read_side().part_indexes;
        assert!(read > RETENTION / 2, "{read} parts indexed");
        r.advance_to(now + 10);
        assert_eq!(r.read_side().part_indexes, read - 1);
        // The rotation after that keeps only what a sliding-8 query read
        // in between: seven sealed buckets; the new open bucket is empty.
        r.query(WindowSpec::sliding(80), &PHIS, now + 10)
            .expect("the span fits");
        r.advance_to(now + 20);
        assert_eq!(r.read_side().part_indexes, 7);
        r.assert_invariants();
    }

    #[test]
    fn windowed_engine_feeds_both_ring_and_engine() {
        use sqs_util::clock::ManualClock;
        let clock = ManualClock::new();
        let engine = Arc::new(ShardedEngine::new_with(2, 64, |i| {
            RandomSketch::new(0.05, i as u64)
        }));
        let w = WindowedEngine::new(
            Arc::clone(&engine),
            WindowConfig::new(100, 8),
            Arc::new(clock.clone()),
            |idx| RandomSketch::new(0.05, 0xD0 ^ idx),
        );
        clock.set(250); // bucket 2
        let out = w.ingest(250, &[1, 2, 3]);
        assert_eq!(out.accepted, 3);
        // A late value (bucket 0) is dropped by the ring but kept by
        // the all-time engine.
        let out = w.ingest(10, &[9]);
        assert_eq!(out.dropped, 1);
        assert_eq!(engine.n(), 4);
        let a = w.query(WindowSpec::sliding(100), &[0.5]).expect("aligned");
        assert_eq!(a.n, 3);
        let s = w.stats();
        assert_eq!(s.late_dropped, 1);
        w.check_ring_invariants().expect("ring invariants hold");
    }

    #[test]
    fn stats_words_roundtrip() {
        let mut s = WindowStats::default();
        s.bucket_nanos = 7;
        s.cache_hits = 99;
        s.late_dropped = 3;
        let w = s.as_words();
        assert_eq!(WindowStats::from_words(&w), s);
    }
}
