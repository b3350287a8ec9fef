//! `FastQDigest` — the q-digest of Shrivastava et al. (SenSys'04) in
//! the buffered, streaming form the study benchmarks (§1.2.1, §4.2.4).
//!
//! The q-digest is the only deterministic **fixed-universe** summary in
//! the study, and the only deterministic *mergeable* one — the reason
//! the paper keeps it relevant despite losing every streaming
//! comparison (§4.2.4). It stores counts on nodes of the dyadic tree
//! over `[u]`, maintaining the digest property that every surviving
//! non-root node together with its sibling and parent outweighs
//! `⌊n/σ⌋`, which caps the node count at `3σ` and the rank error at
//! `log(u)·⌊n/σ⌋`. We size `σ = ⌈log₂(u)/ε⌉` for an `ε·n` rank
//! guarantee.
//!
//! The nodes live in one array in post-order of the tree — by right
//! endpoint, the deeper of two nodes that end together first — which is
//! the order COMPRESS decides in and the queries accumulate in, so every
//! operation but decoding is a linear walk and nothing is sorted: a
//! flush sorts the buffered values and merges their leaves into the
//! array, a merge is a two-cursor union, COMPRESS is one pass with a
//! stack of pending subtrees (a node alone in its subtree jumps straight
//! to the level at which it next meets mass) that writes its survivors
//! back in the same order, and a query is a binary search over the
//! nodes' prefix counts. The byte form lists the nodes by ascending id;
//! encoding lays them out by depth, decoding sorts them back. Updates
//! are buffered ("Fast") up to what is left of the `3σ` node budget, so
//! COMPRESS runs once per refill of that budget — the behaviour
//! Figures 5e/5f and 7a measure. A read never flushes: it answers what
//! the flushed digest would from the nodes and the buffer counted by
//! bucket, sorting only the buckets its φs land in, so
//! when a digest is read changes nothing about it.

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "indices and narrowing casts stay within the bounds `check_invariants` audits"
)]

use std::cmp::Ordering;

use crate::codec::Reader;
use crate::QuantileSummary;
use sqs_util::audit::CheckInvariants;
use sqs_util::space::{words, SpaceUsage};

const MAGIC: u32 = 0x5144_4731; // "QDG1"

/// Bytes before the first node of the byte form: magic, `log_u`, σ, n
/// and the node count.
const HEADER_LEN: usize = 32;

/// The fewest buffered updates a flush waits for, however little of the
/// node budget is left.
const MIN_BUFFER: usize = 256;

/// A read of an unflushed digest counts the buffer in at most
/// `2^BUCKET_BITS` buckets ([`Buckets`]): ≈ 10 values each in a full
/// buffer at ε 10⁻³, log u 32.
const BUCKET_BITS: u32 = 12;

/// A stored node: `(heap id, count)`.
type Node = (u64, u64);

/// A read-side view cached inside a summary: built by the first query
/// after a mutation and dropped by every mutator, like the `sorted`
/// flag of `ReservoirQuantiles`. `clone` never copies it: clones are
/// taken to publish a summary or to feed a merge, which drops it, so a
/// clone costs the same whether or not its source was ever queried.
#[derive(Debug)]
struct CachedView<V>(Option<V>);

impl<V> Default for CachedView<V> {
    fn default() -> Self {
        Self(None)
    }
}

impl<V> Clone for CachedView<V> {
    fn clone(&self) -> Self {
        Self(None)
    }
}

impl<V> CachedView<V> {
    /// The view, built with `build` if no query has needed it since
    /// the last mutation.
    fn get_or_build(&mut self, build: impl FnOnce() -> V) -> &V {
        self.0.get_or_insert_with(build)
    }

    /// Drops the view; every mutator of the owning summary calls this.
    #[inline]
    fn invalidate(&mut self) {
        self.0 = None;
    }

    /// The view if one is currently cached.
    fn get(&self) -> Option<&V> {
        self.0.as_ref()
    }
}

/// A streaming q-digest over the universe `[0, 2^log_u)`.
///
/// # Example
///
/// ```
/// use sqs_core::codec::WireCodec;
/// use sqs_core::{qdigest::QDigest, MergeableSummary, QuantileSummary};
///
/// // Two sensors summarize locally, merge, ship as bytes.
/// let mut a = QDigest::new(0.01, 16);
/// let mut b = QDigest::new(0.01, 16);
/// for x in 0..30_000u64 {
///     a.insert(x % 65_536);
///     b.insert((x * 7) % 65_536);
/// }
/// a.merge_from(b);
/// let bytes = a.to_bytes();
/// let mut back = QDigest::from_bytes(&bytes).unwrap();
/// assert_eq!(back.n(), 60_000);
/// assert_eq!(back.quantile(0.5), a.quantile(0.5));
/// ```

#[derive(Debug, Clone)]
pub struct QDigest {
    log_u: u32,
    sigma: u64,
    n: u64,
    /// The stored nodes in post-order: strictly ascending
    /// [`key`](Self::key). Root is id 1; the leaf for value `x` is id
    /// `u + x`; node `id` has children `2id, 2id+1`.
    nodes: Vec<Node>,
    /// Observed values not yet applied to `nodes`; flushed at
    /// [`buffer_cap`](Self::buffer_cap) of them, never by a read.
    buffer: Vec<u64>,
    /// `cum[i]`: the summed count of `nodes[..=i]`, what the queries
    /// search; dropped wherever `nodes` changes (`flush`, `merge_from`).
    view: CachedView<Vec<u64>>,
    /// The nodes and the buffer counted by bucket, what a quantile of
    /// an unflushed digest searches first; dropped, with the two views
    /// below, by every insert and wherever `nodes` changes.
    buckets: CachedView<Buckets>,
    /// The sorted values and summed node counts of the buckets the reads
    /// since the last insert landed in ([`Buckets::gather`]).
    gathered: CachedView<Gathered>,
    /// This digest flushed, while a flush would run COMPRESS
    /// ([`flushed_if_compressing`](Self::flushed_if_compressing)).
    flushed: CachedView<Box<QDigest>>,
}

impl QDigest {
    /// Creates a q-digest for universe size `2^log_u` with rank error
    /// at most `ε·n`.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1` and `1 ≤ log_u ≤ 40`, or if ε is so
    /// small that the node budget `3σ` overflows.
    pub fn new(eps: f64, log_u: u32) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        assert!(
            (1..=40).contains(&log_u),
            "log_u must be in 1..=40, got {log_u}"
        );
        let sigma = ((log_u as f64) / eps).ceil() as u64;
        assert!(
            Self::sigma_is_valid(sigma),
            "eps {eps} is too small: the node budget 3σ overflows"
        );
        Self::empty(log_u, sigma)
    }

    /// The digest of no data over `[0, 2^log_u)` at compression σ.
    fn empty(log_u: u32, sigma: u64) -> Self {
        Self {
            log_u,
            sigma,
            n: 0,
            nodes: Vec::new(),
            buffer: Vec::new(),
            view: CachedView::default(),
            buckets: CachedView::default(),
            gathered: CachedView::default(),
            flushed: CachedView::default(),
        }
    }

    /// Whether σ is positive and its node budget `3σ + 1` fits a
    /// `usize`, which [`buffer_cap`](Self::buffer_cap) relies on.
    fn sigma_is_valid(sigma: u64) -> bool {
        sigma >= 1
            && sigma
                .checked_mul(3)
                .and_then(|budget| budget.checked_add(1))
                .is_some_and(|budget| usize::try_from(budget).is_ok())
    }

    /// Universe exponent.
    pub fn log_u(&self) -> u32 {
        self.log_u
    }

    /// Compression factor σ.
    pub fn sigma(&self) -> u64 {
        self.sigma
    }

    /// Number of tree nodes currently stored (after a flush).
    pub fn node_count(&mut self) -> usize {
        self.flush();
        self.nodes.len()
    }

    #[inline]
    fn universe(&self) -> u64 {
        1u64 << self.log_u
    }

    /// Depth of a node id (root = 0, leaves = `log_u`).
    #[inline]
    fn depth(id: u64) -> u32 {
        63 - id.leading_zeros()
    }

    /// Inclusive value range `[lo, hi]` covered by node `id` of the
    /// tree over `[0, 2^log_u)`.
    #[inline]
    fn node_range(log_u: u32, id: u64) -> (u64, u64) {
        let level = log_u - Self::depth(id);
        let lo = (id << level) - (1u64 << log_u);
        (lo, lo + (1u64 << level) - 1)
    }

    /// A node's place in post-order, packed: the end of its range in
    /// leaf ids (one past its last leaf), then its height. Unique per
    /// id.
    #[inline]
    fn key(log_u: u32, id: u64) -> u64 {
        let height = log_u - Self::depth(id);
        ((id + 1) << height) << 6 | u64::from(height)
    }

    /// How many updates are buffered before a flush: what is left of
    /// the node budget, `3σ + 1 − |nodes|`, since that many new leaves
    /// are what it takes to make COMPRESS due — but no more than the
    /// universe has values, which is all the leaves there can ever be —
    /// and never fewer than [`MIN_BUFFER`]. Nodes plus buffered updates
    /// therefore stay within `3σ + MIN_BUFFER`.
    #[inline]
    fn buffer_cap(&self) -> usize {
        let universe = usize::try_from(self.universe()).unwrap_or(usize::MAX);
        (3 * self.sigma as usize + 1)
            .saturating_sub(self.nodes.len())
            .min(universe)
            .max(MIN_BUFFER)
    }

    /// Makes room for `extra` more buffered values, `extra` within what
    /// is left of [`buffer_cap`](Self::buffer_cap). The buffer grows
    /// geometrically up to exactly that cap: it never holds more memory
    /// than `space_bytes` charges, nor more than twice what was
    /// inserted, whatever σ a decoded header claims.
    #[inline]
    fn reserve_buffer(&mut self, extra: usize) {
        let need = self.buffer.len() + extra;
        if need > self.buffer.capacity() {
            let target = need
                .max(2 * self.buffer.capacity())
                .max(MIN_BUFFER)
                .min(self.buffer_cap());
            self.buffer.reserve_exact(target - self.buffer.len());
        }
    }

    /// Appends to `out` the union of two node runs in post-order over
    /// `[0, 2^log_u)`, adding the counts of ids present in both.
    fn union_into(out: &mut Vec<Node>, a: &[Node], b: &[Node], log_u: u32) {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match Self::key(log_u, a[i].0).cmp(&Self::key(log_u, b[j].0)) {
                Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                Ordering::Equal => {
                    out.push((a[i].0, a[i].1 + b[j].1));
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
    }

    /// Applies the buffered updates: sorts them, run-lengths them into
    /// leaves and merges those into `nodes` by key, into a new array:
    /// each new leaf lands between stored nodes, so every node moves,
    /// and writing each once beats growing the array and moving them
    /// within it.
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        #[cfg(test)]
        crate::counts::tick(crate::counts::Work::Flush);
        self.view.invalidate();
        self.drop_buffer_views();
        sort_values(&mut self.buffer, self.log_u);
        let (u, log_u) = (self.universe(), self.log_u);
        let mut merged = Vec::with_capacity(self.nodes.len() + self.buffer.len());
        let mut at = 0;
        for run in self.buffer.chunk_by(|a, b| a == b) {
            let (id, mut count) = (u + run[0], run.len() as u64);
            // A leaf's key: its end, `id + 1`, at height 0.
            let key = (id + 1) << 6;
            while at < self.nodes.len() && Self::key(log_u, self.nodes[at].0) < key {
                merged.push(self.nodes[at]);
                at += 1;
            }
            if at < self.nodes.len() && self.nodes[at].0 == id {
                count += self.nodes[at].1;
                at += 1;
            }
            merged.push((id, count));
        }
        merged.extend_from_slice(&self.nodes[at..]);
        self.nodes = merged;
        self.buffer.clear();
        self.settle();
    }

    /// After `nodes` grew: runs COMPRESS if they exceed `3σ`, and hands
    /// back the memory the node array and the (empty) buffer hold
    /// beyond what `space_bytes` charges.
    fn settle(&mut self) {
        if self.nodes.len() as u64 > 3 * self.sigma {
            self.compress();
        }
        self.nodes.shrink_to_fit();
        self.buffer.shrink_to(self.buffer_cap());
    }

    /// The q-digest COMPRESS: bottom-up, merge any child pair whose
    /// combined weight with the parent is within `⌊n/σ⌋`.
    ///
    /// One pass over the nodes in their post-order ([`Compress`]). A
    /// node with no sibling and no stored parent makes the same decision
    /// at every level of the empty chain above it — rise iff its weight
    /// is within `⌊n/σ⌋` — so it jumps straight to where it next meets
    /// mass: a stored ancestor, or the lowest common ancestor of it and
    /// the next pending subtree. Those meetings are exactly the
    /// pair-plus-parent triples a level-by-level walk decides, so the
    /// surviving nodes are the same, and they come out in post-order.
    fn compress(&mut self) {
        let threshold = self.n / self.sigma;
        if threshold == 0 {
            return;
        }
        Compress::run(threshold, &mut self.nodes);
    }

    /// Puts `nodes` in post-order over `[0, 2^log_u)`: the order a
    /// decoded byte form (ascending ids) is stored in.
    fn post_order(nodes: &mut [Node], log_u: u32) {
        #[cfg(test)]
        crate::counts::tick(crate::counts::Work::NodeSort);
        nodes.sort_unstable_by_key(|&(id, _)| Self::key(log_u, id));
    }

    /// Inclusive prefix sums of the nodes' counts, in their order.
    fn prefix_counts(nodes: &[Node]) -> Vec<u64> {
        let mut cum = 0u64;
        nodes
            .iter()
            .map(|node| {
                cum += node.1;
                cum
            })
            .collect()
    }

    /// The largest value node `id` covers.
    #[inline]
    fn hi(log_u: u32, id: u64) -> u64 {
        Self::node_range(log_u, id).1
    }

    /// Drops the read views that depend on the buffer.
    #[inline]
    fn drop_buffer_views(&mut self) {
        self.buckets.invalidate();
        self.gathered.invalidate();
        self.flushed.invalidate();
    }

    /// A flushed clone, if a flush might run COMPRESS, which changes
    /// the answers: only past the `3σ` node budget, which the nodes and
    /// the buffer together pass only while the buffer is held at its
    /// floor ([`MIN_BUFFER`]), so on small digests. The reads answer
    /// from it, as the flushing read did, and leave `self` as it is;
    /// it is kept until the next insert.
    fn flushed_if_compressing(&mut self) -> Option<&mut Self> {
        let past_budget = (self.nodes.len() + self.buffer.len()) as u64 > 3 * self.sigma;
        if !past_budget || self.buffer.is_empty() {
            return None;
        }
        if self.flushed.get().is_none() {
            let mut flushed = self.clone();
            flushed.flush();
            self.flushed.0 = Some(Box::new(flushed));
        }
        self.flushed.0.as_deref_mut()
    }

    /// The answers to `phis`, each exactly what the same digest answers
    /// once flushed: the right endpoint at which the count summed in
    /// post-order first reaches `⌈φ·n⌉`. A buffered value `v` would
    /// become leaf `u + v`, whose right endpoint is `v` and whose key
    /// comes first among the nodes ending at `v`, so that answer is the
    /// least endpoint `e`, of a stored node or a buffered value, at
    /// which the nodes ending at or before `e` and the buffered values
    /// at or below `e` count `⌈φ·n⌉`. With the buffer empty that is a
    /// binary search over the nodes' prefix counts per φ; otherwise
    /// [`Buckets`] find each φ's bucket, and only the values of the
    /// buckets the sweep lands in are collected and sorted, in one
    /// pass over the buffer.
    fn sweep(&mut self, phis: &[f64]) -> Vec<Option<u64>> {
        for &phi in phis {
            crate::traits::check_phi(phi);
        }
        if self.n == 0 {
            return vec![None; phis.len()];
        }
        if let Some(flushed) = self.flushed_if_compressing() {
            return flushed.sweep(phis);
        }
        let (log_u, n) = (self.log_u, self.n as f64);
        let top = self.universe() - 1;
        let targets = phis.iter().map(|&phi| ((phi * n).ceil() as u64).max(1));
        if self.buffer.is_empty() {
            let cum = self.view.get_or_build(|| Self::prefix_counts(&self.nodes));
            let nodes = &self.nodes;
            return targets
                .map(|target| {
                    let at = cum.partition_point(|&c| c < target);
                    Some(nodes.get(at).map_or(top, |&(id, _)| Self::hi(log_u, id)))
                })
                .collect();
        }
        let buckets = self
            .buckets
            .get_or_build(|| Buckets::build(&self.nodes, &self.buffer, log_u));
        let landed: Vec<(usize, u64)> = targets
            .map(|target| (buckets.reach.partition_point(|&r| r < target), target))
            .collect();
        let wide: Vec<usize> = (landed.iter())
            .map(|&(b, _)| b)
            .filter(|&b| b < buckets.reach.len() && buckets.one_value(b, log_u).is_none())
            .collect();
        let gathered =
            buckets.gathered(&mut self.gathered, &self.nodes, &self.buffer, &wide, log_u);
        landed
            .into_iter()
            .map(|(b, target)| {
                let answer = (b < buckets.reach.len())
                    .then(|| buckets.answer(b, target, &self.nodes, gathered, log_u));
                Some(answer.flatten().unwrap_or(top))
            })
            .collect()
    }
}

/// The first `i` in `range` at which `reached(i)` holds, `range.end` if
/// none does; `reached` must be monotone over the range.
fn first_reached(range: std::ops::Range<usize>, reached: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (range.start, range.end);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if reached(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// The stored nodes and the buffered values of a q-digest counted by
/// bucket. The buckets split the range the buffered values span into
/// equal parts: one value wide where the range holds at most
/// `2^BUCKET_BITS` values, else at most `2^BUCKET_BITS` parts and at
/// most twice as many as there are buffered values. The first bucket
/// also holds everything below the range and the last everything above
/// it. A φ's bucket is the first
/// whose end the summed count reaches `⌈φ·n⌉` at; its answer lies among
/// the endpoints inside it.
#[derive(Debug, PartialEq)]
struct Buckets {
    /// The least buffered value.
    lo: u64,
    /// A value's bucket is `(value − lo) >> shift`, clamped into range.
    shift: u32,
    /// `nodes_to[b]`: how many stored nodes end in buckets `..=b`.
    nodes_to: Vec<usize>,
    /// `buffered_to[b]`: how many buffered values lie in buckets `..=b`.
    buffered_to: Vec<u64>,
    /// `reach[b]`: the count summed at bucket `b`'s last value — the
    /// first `nodes_to[b]` nodes' counts plus `buffered_to[b]`.
    reach: Vec<u64>,
}

/// What the reads use of the buckets they land in ([`Buckets::gather`]).
#[derive(Debug, Default, PartialEq)]
struct Gathered {
    /// Their buffered values, sorted: one bucket after the other.
    values: Vec<u64>,
    /// Their nodes' counts, each summed with every node's before it.
    sums: Vec<u64>,
    /// Where each bucket gathered starts in `values` and in `sums`;
    /// `usize::MAX` in `values` for a bucket not gathered.
    start: Vec<(usize, usize)>,
}

impl Gathered {
    /// Whether bucket `b` was gathered.
    #[inline]
    fn holds(&self, b: usize) -> bool {
        self.start.get(b).is_some_and(|&(at, _)| at != usize::MAX)
    }

    /// The `count` sorted values of bucket `b`, gathered.
    #[inline]
    fn values_in(&self, b: usize, count: usize) -> &[u64] {
        let at = self.start[b].0;
        &self.values[at..at + count]
    }
}

impl Buckets {
    /// Counts the unsorted, non-empty `buffer` by bucket, then walks
    /// `nodes`, in post-order and so by right endpoint, once, summing
    /// their counts and closing each bucket at the first node past it.
    /// A run of values in one bucket is counted at its end: a count
    /// through memory, each entry read right after it was stored, ran
    /// several times slower on a buffer of copies.
    fn build(nodes: &[Node], buffer: &[u64], log_u: u32) -> Self {
        let (lo, hi) = buffer
            .iter()
            .fold((u64::MAX, 0), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let bits = BUCKET_BITS.min(usize::BITS - buffer.len().leading_zeros());
        let shift = match hi - lo {
            span if span >> BUCKET_BITS == 0 => 0,
            span => (64 - span.leading_zeros()).saturating_sub(bits),
        };
        let last = ((hi - lo) >> shift) as usize;
        let (mut nodes_to, mut buffered_to, mut reach) =
            (vec![0; last + 1], vec![0; last + 1], vec![0; last + 1]);
        let mut run = (0, 0);
        for &x in buffer {
            let b = ((x - lo) >> shift) as usize;
            if b == run.0 {
                run.1 += 1;
            } else {
                buffered_to[run.0] += run.1;
                run = (b, 1);
            }
        }
        buffered_to[run.0] += run.1;
        // A node ends in bucket `..=b` iff its key is below `bound(b)`,
        // the key of a leaf one past the bucket's last value.
        let u = 1u64 << log_u;
        let bound = |b: usize| {
            if b == last {
                u64::MAX
            } else {
                (u + lo + ((b as u64 + 1) << shift) + 1) << 6
            }
        };
        let (mut b, mut below, mut stored, mut buffered) = (0, bound(0), 0, 0);
        for (at, &(id, count)) in nodes.iter().enumerate() {
            let key = QDigest::key(log_u, id);
            while key >= below {
                buffered += buffered_to[b];
                (nodes_to[b], buffered_to[b], reach[b]) = (at, buffered, stored + buffered);
                b += 1;
                below = bound(b);
            }
            stored += count;
        }
        for b in b..=last {
            buffered += buffered_to[b];
            (nodes_to[b], buffered_to[b], reach[b]) = (nodes.len(), buffered, stored + buffered);
        }
        Self {
            lo,
            shift,
            nodes_to,
            buffered_to,
            reach,
        }
    }

    /// The one value bucket `b` spans, if it spans one: then every
    /// endpoint in it is that value.
    #[inline]
    fn one_value(&self, b: usize, log_u: u32) -> Option<u64> {
        let first = if b == 0 {
            0
        } else {
            self.lo + ((b as u64) << self.shift)
        };
        let last = match self.reach.len() - 1 {
            end if b == end => (1 << log_u) - 1,
            _ => self.lo + ((b as u64 + 1) << self.shift) - 1,
        };
        (first == last).then_some(first)
    }

    /// The bucket of `x`, a buffered value.
    #[inline]
    fn of(&self, x: u64) -> usize {
        ((x - self.lo) >> self.shift) as usize
    }

    /// `kept` if it holds every bucket in `wanted`. Otherwise buckets
    /// are gathered afresh: `wanted` on the first read since the last
    /// insert, every bucket on a later one — that sorts the whole
    /// buffer, as a flush would, so that repeated reads pay for it once.
    fn gathered<'a>(
        &self,
        kept: &'a mut CachedView<Gathered>,
        nodes: &[Node],
        buffer: &[u64],
        wanted: &[usize],
        log_u: u32,
    ) -> &'a Gathered {
        if kept
            .get()
            .is_some_and(|held| !wanted.iter().all(|&b| held.holds(b)))
        {
            kept.invalidate();
            let every: Vec<usize> = (0..self.reach.len()).collect();
            return kept.get_or_build(|| self.gather(nodes, buffer, &every, log_u));
        }
        kept.get_or_build(|| self.gather(nodes, buffer, wanted, log_u))
    }

    /// The buffered values of the buckets in `wanted`, sorted by
    /// [`sort_values`], and their nodes' counts summed.
    fn gather(&self, nodes: &[Node], buffer: &[u64], wanted: &[usize], log_u: u32) -> Gathered {
        let len = self.reach.len();
        if wanted.is_empty() {
            return Gathered::default();
        }
        let mut gathered = Gathered {
            start: vec![(usize::MAX, 0); len],
            ..Gathered::default()
        };
        for &b in wanted {
            gathered.start[b].0 = 0;
        }
        let mut kept = 0;
        for b in 0..len {
            if gathered.holds(b) {
                gathered.start[b] = (kept, gathered.sums.len());
                kept += self.buffered_in(b).len();
                let mut sum = self.stored_before(b);
                let counts = nodes[self.stored_in(b)].iter().map(|node| {
                    sum += node.1;
                    sum
                });
                gathered.sums.extend(counts);
            }
        }
        gathered.values = if kept == buffer.len() {
            buffer.to_vec()
        } else {
            let mut values = Vec::with_capacity(kept);
            values.extend(buffer.iter().filter(|&&x| gathered.holds(self.of(x))));
            values
        };
        sort_values(&mut gathered.values, log_u);
        gathered
    }

    /// The bucket `x`, any value of the universe, falls in.
    #[inline]
    fn clamped(&self, x: u64) -> usize {
        ((x.saturating_sub(self.lo) >> self.shift) as usize).min(self.reach.len() - 1)
    }

    /// Which stored nodes end in bucket `b`.
    #[inline]
    fn stored_in(&self, b: usize) -> std::ops::Range<usize> {
        b.checked_sub(1).map_or(0, |prev| self.nodes_to[prev])..self.nodes_to[b]
    }

    /// The counts of the stored nodes that end before bucket `b`,
    /// summed.
    #[inline]
    fn stored_before(&self, b: usize) -> u64 {
        b.checked_sub(1)
            .map_or(0, |prev| self.reach[prev] - self.buffered_to[prev])
    }

    /// Where bucket `b`'s buffered values are in the buffer once it is
    /// sorted: the values of the buckets before it, up to its own.
    #[inline]
    fn buffered_in(&self, b: usize) -> std::ops::Range<usize> {
        let before = b.checked_sub(1).map_or(0, |prev| self.buffered_to[prev]);
        before as usize..self.buffered_to[b] as usize
    }

    /// The answer to `target` in bucket `b`, the first whose end it
    /// reaches: the least endpoint in the bucket, of a stored node or a
    /// buffered value, at which the count reaches `target`. `gathered`
    /// holds the bucket's sorted values and summed node counts unless
    /// the bucket spans one value.
    ///
    /// The first node of the bucket that reaches `target`, counting the
    /// buffered values up to its end, is a binary search over the
    /// bucket's nodes, each step counting the values by another. A
    /// buffered value below that node's end answers only if the values
    /// alone make up what the nodes before it leave of `target`, and
    /// the first that can is an index: the node before it fell short
    /// with every value up to its own end, so that value lies past it.
    /// (If that node ends where the first one does, the value lies past
    /// both, and the node answers.) A bucket that holds the whole buffer
    /// costs no walk.
    fn answer(
        &self,
        b: usize,
        target: u64,
        nodes: &[Node],
        gathered: &Gathered,
        log_u: u32,
    ) -> Option<u64> {
        if let Some(only) = self.one_value(b, log_u) {
            return Some(only);
        }
        let (stored, buffered) = (self.stored_in(b), self.buffered_in(b));
        let values = gathered.values_in(b, buffered.len());
        let sums_at = gathered.start[b].1;
        let sums = &gathered.sums[sums_at..sums_at + stored.len()];
        let below = buffered.start as u64;
        let end = |k: usize| QDigest::hi(log_u, nodes[stored.start + k].0);
        let node = first_reached(0..sums.len(), |k| {
            let within = values.partition_point(|&x| x <= end(k));
            sums[k] + below + within as u64 >= target
        });
        let by_node = (node < sums.len()).then(|| end(node));
        let counted = node
            .checked_sub(1)
            .map_or(self.stored_before(b), |last| sums[last]);
        let rest = target - counted - below;
        let by_value = values.get(rest as usize - 1).copied();
        by_node.into_iter().chain(by_value).min()
    }
}

/// Sorts `values`, each below `2^log_u`: least significant byte first,
/// one counting pass per byte the universe has (a byte every value
/// shares is skipped), through a scratch array of the same length.
/// About 1.6× as fast as `sort_unstable` on the ≈ 40 000 values a
/// full buffer holds at ε 10⁻³, log u 32; below ≈ 2 000 values it is
/// the slower by a few µs at most.
fn sort_values(values: &mut Vec<u64>, log_u: u32) {
    let bytes = log_u.div_ceil(8) as usize;
    let mut counts = vec![[0usize; 256]; bytes];
    for &x in values.iter() {
        for (byte, count) in counts.iter_mut().enumerate() {
            count[(x >> (8 * byte)) as usize & 0xff] += 1;
        }
    }
    let mut scratch = vec![0u64; values.len()];
    for (byte, count) in counts.iter_mut().enumerate() {
        if count.contains(&values.len()) {
            continue;
        }
        let mut at = 0;
        for slot in count.iter_mut() {
            at += std::mem::replace(slot, at);
        }
        for &x in values.iter() {
            let slot = &mut count[(x >> (8 * byte)) as usize & 0xff];
            scratch[*slot] = x;
            *slot += 1;
        }
        std::mem::swap(values, &mut scratch);
    }
}

/// An output slot no survivor took; [`Compress`] drops them at the end.
const HOLE: Node = (0, 0);

/// One COMPRESS pass ([`QDigest::compress`]) over the stored nodes in
/// post-order.
///
/// The stack holds the pending subtrees left to right, one [`Pending`]
/// each: a node that may still rise (weight within `⌊n/σ⌋`), carried at
/// the position it was last decided at, or a heavy node — already kept,
/// it never rises, but it makes its pair decision fail. The lowest
/// common ancestors of neighbouring entries deepen towards the top, so
/// when a node arrives at most two entries lie in its subtree, one
/// under each child.
///
/// The survivors are written in post-order, not in the order they are
/// decided: a pending node is decided only once the subtree to its
/// right is, and where it is kept depends on how high it rose. So each
/// entry reserves an output slot when it is pushed, after everything
/// below it, and one more ([`Mark`]) each time the entry above it is
/// settled, after everything settled so far, tagged with the depth at
/// which that material meets it. An entry kept at depth `d` takes its
/// last slot whose material lies inside its node there (tag ≥ `d`); a
/// promoted pair takes its right entry's last slot. Slots no survivor
/// took stay [`HOLE`]s, which one compaction pass drops.
struct Compress {
    threshold: u64,
    stack: Vec<Pending>,
    /// The survivors in post-order, with holes.
    out: Vec<Node>,
    /// The stack entries' later slots, entry by entry, oldest first.
    marks: Vec<Mark>,
}

/// A pending subtree of [`Compress`].
#[derive(Clone, Copy)]
struct Pending {
    id: u64,
    weight: u64,
    depth: u32,
    /// Depth of the lowest common ancestor of this entry and the one
    /// below it on the stack (meaningless at the bottom).
    meet: u32,
    /// The output slot reserved when the entry was pushed.
    slot: usize,
    /// Index of this entry's first [`Mark`]; its marks run up to the
    /// next entry's first.
    mark: usize,
}

/// An output slot reserved for a pending entry after material to its
/// right that meets it at depth `meet`: the entry kept at depth `d`
/// goes here if `d ≤ meet`.
#[derive(Clone, Copy)]
struct Mark {
    slot: usize,
    meet: u32,
}

impl Compress {
    /// Compresses `nodes`, the stored nodes in post-order, at
    /// `threshold`: overwritten with the survivors, in post-order.
    fn run(threshold: u64, nodes: &mut Vec<Node>) {
        let mut pass = Self {
            threshold,
            stack: Vec::with_capacity(64),
            out: Vec::with_capacity(2 * nodes.len()),
            marks: Vec::with_capacity(64),
        };
        for &(id, count) in nodes.iter() {
            pass.arrive(id, count);
        }
        pass.finish();
        let mut kept = 0;
        for i in 0..pass.out.len() {
            let node = pass.out[i];
            pass.out[kept] = node;
            kept += usize::from(node != HOLE);
        }
        pass.out.truncate(kept);
        *nodes = pass.out;
    }

    /// Appends a hole to the output and returns its slot.
    #[inline(always)]
    fn reserve(&mut self) -> usize {
        self.out.push(HOLE);
        self.out.len() - 1
    }

    /// The slot after everything `top`, the entry on top of the stack,
    /// covers: its last.
    #[inline(always)]
    fn last_slot(&self, top: Pending) -> usize {
        match self.marks[top.mark..] {
            [.., last] => last.slot,
            [] => top.slot,
        }
    }

    /// Stored node `id` with `count` arrives.
    fn arrive(&mut self, id: u64, count: u64) {
        let depth = QDigest::depth(id);
        let (promoted, meet) = self.gather(id, depth, count);
        self.push(id, promoted.unwrap_or(count), depth, meet);
    }

    /// Decides what `id` (at `depth`, stored with `count`) ends: every
    /// finished pair left of it, then its own children. Returns the
    /// weight promoted into `id`, if any, and the depth at which `id`
    /// meets the entry left on top.
    // Inlined, as `decide` is: through the two calls per node the pass
    // ran about twice as slow.
    #[inline(always)]
    fn gather(&mut self, id: u64, depth: u32, count: u64) -> (Option<u64>, u32) {
        // Depth of the lowest common ancestor of the top entry and `id`.
        let reach = match self.stack.last() {
            Some(top) => {
                let d = depth.min(top.depth);
                let diff = (top.id >> (top.depth - d)) ^ (id >> (depth - d));
                d - (64 - diff.leading_zeros())
            }
            None => 0,
        };
        let reach = self.close(reach);
        // The entries in `id`'s subtree, one under each child at most.
        if reach != depth {
            return (None, reach);
        }
        let (promoted, first) = match self.stack[..] {
            [.., a, b] if b.meet == depth => {
                self.stack.truncate(self.stack.len() - 2);
                (self.decide(count, [a, b], depth + 1), a)
            }
            [.., c] => {
                self.stack.pop();
                (self.decide(count, [c], depth + 1), c)
            }
            [] => return (None, reach),
        };
        self.marks.truncate(first.mark);
        (promoted, first.meet)
    }

    /// Decides every pair on top of the stack whose lowest common
    /// ancestor lies deeper than `reach`: no stored node is left in that
    /// subtree, so the pair meets there with no parent count. Returns
    /// `reach`, raised to where the entry left on top meets what was
    /// settled above it.
    #[inline(always)]
    fn close(&mut self, mut reach: u32) -> u32 {
        while let [.., a, b] = self.stack[..] {
            if b.meet <= reach {
                break;
            }
            self.stack.truncate(self.stack.len() - 2);
            let promoted = self.decide(0, [a, b], b.meet + 1);
            let slot = self.last_slot(b);
            self.marks.truncate(a.mark);
            match promoted {
                Some(weight) => self.stack.push(Pending {
                    id: b.id >> (b.depth - b.meet),
                    weight,
                    depth: b.meet,
                    meet: a.meet,
                    slot,
                    mark: self.marks.len(),
                }),
                None => {
                    reach = reach.min(a.meet);
                    if let Some(&top) = self.stack.last() {
                        let slot = self.reserve();
                        match self.marks[top.mark..].last_mut() {
                            Some(last) if last.meet == a.meet => last.slot = slot,
                            _ => self.marks.push(Mark { slot, meet: a.meet }),
                        }
                    }
                }
            }
        }
        reach
    }

    /// The pair-plus-parent decision on `children` (left to right, each
    /// strictly below depth `child − 1`, their marks still on the mark
    /// stack) carried up to depth `child`, and the parent's stored
    /// `count`: the promoted weight if it is within `⌊n/σ⌋`, else the
    /// children are kept (the heavy ones already are) and `None`. A
    /// light child rises through the empty levels; a heavy one stays
    /// where it is, and is gone from every level above its own.
    #[inline(always)]
    fn decide<const K: usize>(
        &mut self,
        count: u64,
        children: [Pending; K],
        child: u32,
    ) -> Option<u64> {
        let threshold = self.threshold;
        let mut weight = count;
        let mut present = false;
        for c in children {
            if c.weight <= threshold || c.depth == child {
                weight += c.weight;
                present = true;
            }
        }
        if !present {
            return None;
        }
        if weight <= threshold {
            return Some(weight);
        }
        for (i, c) in children.iter().enumerate() {
            if c.weight <= threshold {
                let end = children
                    .get(i + 1)
                    .map_or(self.marks.len(), |next| next.mark);
                let slot = self.marks[c.mark..end]
                    .iter()
                    .rev()
                    .find(|mark| mark.meet >= child)
                    .map_or(c.slot, |mark| mark.slot);
                self.out[slot] = (c.id >> (c.depth - child), c.weight);
            }
        }
        None
    }

    /// Puts a pending entry on the stack, with a slot after everything
    /// below it. A heavy node never rises, so it is kept now, and stays
    /// as a blocker whose pair decision fails.
    #[inline(always)]
    fn push(&mut self, id: u64, weight: u64, depth: u32, meet: u32) {
        if weight > self.threshold {
            self.out.push((id, weight));
        }
        let slot = self.reserve();
        self.stack.push(Pending {
            id,
            weight,
            depth,
            meet,
            slot,
            mark: self.marks.len(),
        });
    }

    /// Ends the pass at the root — the last arrival if it is stored,
    /// else a meeting with no count, promoted after everything else.
    fn finish(&mut self) {
        if let [root @ Pending { id: 1, .. }] = self.stack[..] {
            if root.weight <= self.threshold {
                self.out[root.slot] = (1, root.weight);
            }
            return;
        }
        self.close(0);
        let (promoted, top) = match self.stack[..] {
            [.., a, b] => (self.decide(0, [a, b], 1), b),
            [.., c] => (self.decide(0, [c], 1), c),
            [] => return,
        };
        if let Some(weight) = promoted {
            let slot = self.last_slot(top);
            self.out[slot] = (1, weight);
        }
    }
}

impl crate::MergeableSummary<u64> for QDigest {
    /// Merges another q-digest into this one (the mergeable-summary
    /// operation of Agarwal et al. the paper highlights in §4.2.4).
    ///
    /// COMPRESS runs only when the combined node array actually exceeds
    /// its `3σ` budget, not unconditionally — a k-way merge tree
    /// folding k ε-digests therefore compresses O(k·|digest|/σ) times
    /// total instead of once per internal node (no double-compression
    /// of an already-compact digest).
    ///
    /// # Panics
    /// Panics if the universes differ, or the compression factors σ:
    /// the sum of two counts bounded by `⌊n₁/σ₁⌋` and `⌊n₂/σ₂⌋` is
    /// bounded by `⌊(n₁+n₂)/σ⌋` only for `σ₁ = σ₂ = σ`.
    fn merge_from(&mut self, mut other: Self) {
        assert_eq!(self.log_u, other.log_u, "q-digest merge: universe mismatch");
        assert_eq!(
            self.sigma, other.sigma,
            "q-digest merge: compression factor σ (accuracy) mismatch"
        );
        self.flush();
        other.flush();
        if other.n == 0 {
            return; // merging nothing is the identity
        }
        self.view.invalidate();
        self.drop_buffer_views();
        let mut merged = Vec::with_capacity(self.nodes.len() + other.nodes.len());
        Self::union_into(&mut merged, &self.nodes, &other.nodes, self.log_u);
        self.nodes = merged;
        self.n += other.n;
        self.settle();
    }

    /// Same universe and same σ: a digest built at a coarser ε carries
    /// internal nodes heavier than this one's `⌊n/σ⌋` allows.
    fn merge_compatible(&self, other: &Self) -> bool {
        self.log_u == other.log_u && self.sigma == other.sigma
    }
}

impl crate::codec::WireCodec for QDigest {
    const KIND: crate::codec::Kind = crate::codec::Kind::QDigest;

    /// The compact byte form the sensor-network deployment the q-digest
    /// was designed for ships: a 32-byte header (magic `QDG1`, `log_u`,
    /// σ, n, the node count) followed by the `(node id, count)`
    /// little-endian u64 pairs in ascending id order — the post-order
    /// array laid out by a stable count by depth. Encoding flushes
    /// the buffered inserts first, so equal digests serialize equally —
    /// and a digest that was checkpointed or snapshotted and then
    /// continued can hold other nodes, and answer otherwise, than one
    /// that never was; both stay within ε, and the decoded copy
    /// continues exactly as the encoded original
    /// ([`WireCodec::encode_body`](crate::codec::WireCodec::encode_body)).
    fn encode_body(&mut self, out: &mut Vec<u8>) {
        self.flush();
        out.reserve(HEADER_LEN + self.nodes.len() * 16);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.log_u.to_le_bytes());
        out.extend_from_slice(&self.sigma.to_le_bytes());
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&(self.nodes.len() as u64).to_le_bytes());
        // `next[d]`: the index of depth `d`'s next node. Within a depth
        // post-order is ascending id, so shallowest depth first is too.
        let mut next = [0usize; 42];
        for &(id, _) in &self.nodes {
            next[Self::depth(id) as usize + 1] += 1;
        }
        for d in 1..next.len() {
            next[d] += next[d - 1];
        }
        let body = out.len();
        out.resize(body + self.nodes.len() * 16, 0);
        for &(id, count) in &self.nodes {
            let slot = &mut next[Self::depth(id) as usize];
            let at = body + *slot * 16;
            out[at..at + 8].copy_from_slice(&id.to_le_bytes());
            out[at + 8..at + 16].copy_from_slice(&count.to_le_bytes());
            *slot += 1;
        }
    }

    /// Validates the structure: the header, a node count the bytes can
    /// hold (checked before anything is allocated for it), node ids
    /// within the declared tree and strictly ascending, counts summing
    /// to `n`; then puts the nodes in post-order. The frame's audit
    /// checks the rest.
    fn decode_body(body: &[u8]) -> Result<Self, crate::codec::CodecError> {
        use crate::codec::CodecError;
        let bad_header = CodecError::Malformed("q-digest: bad magic/version header");
        let mut reader = Reader::new(body);
        if reader.u32()? != MAGIC {
            return Err(bad_header);
        }
        let log_u = reader.u32()?;
        if !(1..=40).contains(&log_u) {
            return Err(bad_header);
        }
        let sigma = reader.u64()?;
        if !Self::sigma_is_valid(sigma) {
            return Err(bad_header);
        }
        let n = reader.u64()?;
        let count = reader.u64()?;
        if count > (reader.remaining() / 16) as u64 {
            return Err(CodecError::Truncated);
        }
        let mut digest = Self::empty(log_u, sigma);
        digest.n = n;
        digest.nodes.reserve_exact(count as usize);
        let max_id = 1u64 << (log_u + 1);
        let mut last_id = 0u64;
        let mut mass = 0u64;
        let count_mismatch = || CodecError::Malformed("q-digest: node counts do not sum to n");
        for _ in 0..count {
            let id = reader.u64()?;
            let c = reader.u64()?;
            if id == 0 || id >= max_id {
                return Err(CodecError::Malformed("q-digest: node id outside tree"));
            }
            if id <= last_id {
                return Err(CodecError::Malformed(
                    "q-digest: node ids not strictly ascending",
                ));
            }
            last_id = id;
            // Adversarial counts could overflow the running sum; an
            // overflow can never equal an honest n, so report it as the
            // count mismatch it is instead of panicking.
            mass = mass.checked_add(c).ok_or_else(count_mismatch)?;
            digest.nodes.push((id, c));
        }
        if mass != n {
            return Err(count_mismatch());
        }
        Self::post_order(&mut digest.nodes, log_u);
        Ok(digest)
    }
}

impl CheckInvariants for QDigest {
    /// q-digest invariants (Shrivastava et al. §3, study §1.2.1):
    /// every stored node id lies inside the dyadic tree over
    /// `[0, 2^log_u)` (so parent/child arithmetic `2id, 2id+1` stays
    /// closed) and comes after the one before it in post-order (the
    /// order every walk of the array assumes), no non-leaf node
    /// outweighs `⌊n/σ⌋` (what the ε bound rests on), nodes and buffered
    /// updates together respect the `3σ` capacity (plus the
    /// buffered-"Fast" slack), the node counts plus buffered updates
    /// conserve the stream mass `n`, and every cached read view (prefix
    /// counts, buckets, gathered buckets, flushed copy) equals a rebuild.
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "FastQDigest";
        ensure(
            (1..=40).contains(&self.log_u),
            ALG,
            "qdigest.log_u_range",
            || format!("log_u = {} outside 1..=40", self.log_u),
        )?;
        ensure(
            Self::sigma_is_valid(self.sigma),
            ALG,
            "qdigest.sigma_positive",
            || format!("σ = {} must be ≥ 1 with 3σ + 1 a usize", self.sigma),
        )?;
        let max_id = 1u64 << (self.log_u + 1);
        let threshold = self.n / self.sigma;
        let mut mass = 0u64;
        let (mut last_id, mut last_key) = (0u64, 0u64);
        for &(id, c) in &self.nodes {
            ensure(id >= 1 && id < max_id, ALG, "qdigest.node_in_tree", || {
                format!("node id {id} outside the heap numbering [1, {max_id})")
            })?;
            ensure(
                Self::depth(id) <= self.log_u,
                ALG,
                "qdigest.depth_bound",
                || format!("node id {id} deeper than the leaf level {}", self.log_u),
            )?;
            let key = Self::key(self.log_u, id);
            ensure(key > last_key, ALG, "qdigest.nodes_ascending", || {
                format!("node id {id} stored after node id {last_id}, out of post-order")
            })?;
            (last_id, last_key) = (id, key);
            ensure(
                id >= self.universe() || c <= threshold,
                ALG,
                "qdigest.count_bound",
                || format!("non-leaf node {id} counts {c} > ⌊n/σ⌋ = {threshold}"),
            )?;
            mass = mass.saturating_add(c);
        }
        ensure(
            mass.saturating_add(self.buffer.len() as u64) == self.n,
            ALG,
            "qdigest.mass_conservation",
            || {
                format!(
                    "node mass {mass} + {} buffered ≠ n = {}",
                    self.buffer.len(),
                    self.n
                )
            },
        )?;
        ensure(
            self.buffer.len() <= self.buffer_cap(),
            ALG,
            "qdigest.buffer_bound",
            || {
                format!(
                    "{} buffered > capacity {}",
                    self.buffer.len(),
                    self.buffer_cap()
                )
            },
        )?;
        ensure(
            self.nodes.len() + self.buffer.len()
                <= (3 * self.sigma as usize).saturating_add(MIN_BUFFER),
            ALG,
            "qdigest.node_capacity",
            || {
                format!(
                    "{} nodes + {} buffered > 3σ = {} (+ {MIN_BUFFER} buffer slack)",
                    self.nodes.len(),
                    self.buffer.len(),
                    3 * self.sigma,
                )
            },
        )?;
        let buckets = || Buckets::build(&self.nodes, &self.buffer, self.log_u);
        let flushed = || {
            let mut flushed = self.clone();
            flushed.flush();
            flushed
        };
        ensure(
            self.view
                .get()
                .is_none_or(|kept| *kept == Self::prefix_counts(&self.nodes))
                && self.buckets.get().is_none_or(|kept| *kept == buckets())
                && self.gathered.get().is_none_or(|kept| {
                    let buckets = buckets();
                    let held: Vec<usize> = (0..buckets.reach.len())
                        .filter(|&b| kept.holds(b))
                        .collect();
                    *kept == buckets.gather(&self.nodes, &self.buffer, &held, self.log_u)
                })
                && self
                    .flushed
                    .get()
                    .is_none_or(|kept| (kept.n, &kept.nodes) == (self.n, &flushed().nodes)),
            ALG,
            "qdigest.view_fresh",
            || "a cached read view differs from a rebuild (a mutator kept it)".to_string(),
        )
    }
}

impl QuantileSummary<u64> for QDigest {
    /// Observes `x`, which must lie in `[0, 2^log_u)`.
    fn insert(&mut self, x: u64) {
        assert!(
            x < self.universe(),
            "value {x} outside universe 2^{}",
            self.log_u
        );
        self.n += 1;
        self.drop_buffer_views();
        self.reserve_buffer(1);
        self.buffer.push(x);
        if self.buffer.len() >= self.buffer_cap() {
            self.flush();
        }
        #[cfg(any(test, feature = "audit"))]
        if sqs_util::audit::audit_point(self.n) {
            sqs_util::audit::CheckInvariants::assert_invariants(self);
        }
    }

    /// Bulk insert: extends the update buffer sliceful-at-a-time and
    /// flushes exactly at the itemwise flush boundaries, so the
    /// resulting digest state is identical to element-wise insertion.
    ///
    /// # Panics
    /// Panics if any element lies outside `[0, 2^log_u)`.
    fn insert_batch(&mut self, xs: &[u64]) {
        let u = self.universe();
        self.drop_buffer_views();
        let mut rest = xs;
        while !rest.is_empty() {
            // A full buffer is flushed on the spot, so there is room.
            let room = self.buffer_cap() - self.buffer.len();
            let (chunk, tail) = rest.split_at(room.min(rest.len()));
            for &x in chunk {
                assert!(x < u, "value {x} outside universe 2^{}", self.log_u);
            }
            self.reserve_buffer(chunk.len());
            self.buffer.extend_from_slice(chunk);
            self.n += chunk.len() as u64;
            rest = tail;
            if self.buffer.len() >= self.buffer_cap() {
                self.flush();
            }
        }
        #[cfg(any(test, feature = "audit"))]
        sqs_util::audit::CheckInvariants::assert_invariants(self);
    }

    fn n(&self) -> u64 {
        self.n
    }

    /// The standard q-digest lower-bound rank estimate: total count of
    /// nodes entirely below `x`, the buffered values below `x` counted
    /// as the leaves a flush would make them. A binary search over the
    /// nodes' prefix counts and, while values are buffered, one over
    /// the sorted values of the bucket `x` falls in; nothing is flushed.
    fn rank_estimate(&mut self, x: u64) -> u64 {
        if let Some(flushed) = self.flushed_if_compressing() {
            return flushed.rank_estimate(x);
        }
        let log_u = self.log_u;
        let below = self
            .nodes
            .partition_point(|&(id, _)| Self::hi(log_u, id) < x);
        let cum = self.view.get_or_build(|| Self::prefix_counts(&self.nodes));
        let stored = below.checked_sub(1).map_or(0, |last| cum[last]);
        if self.buffer.is_empty() {
            return stored;
        }
        let buckets = self
            .buckets
            .get_or_build(|| Buckets::build(&self.nodes, &self.buffer, log_u));
        let b = buckets.clamped(x);
        let gathered = buckets.gathered(&mut self.gathered, &self.nodes, &self.buffer, &[b], log_u);
        let buffered = buckets.buffered_in(b);
        let values = gathered.values_in(b, buffered.len());
        stored + (buffered.start + values.partition_point(|&v| v < x)) as u64
    }

    /// The right endpoint of the first node, in post-order, at which
    /// the cumulative count reaches `⌈φ·n⌉`, the buffered values
    /// counted as the leaves a flush would make them; nothing is
    /// flushed. A sweep of one φ ([`quantiles`](Self::quantiles)).
    fn quantile(&mut self, phi: f64) -> Option<u64> {
        self.sweep(&[phi])[0]
    }

    /// One [`quantile`](Self::quantile) per φ: one count of the buffer
    /// by bucket, one pass collecting the buckets the φs land in, a
    /// binary search per φ.
    fn quantiles(&mut self, phis: &[f64]) -> Vec<Option<u64>> {
        self.sweep(phis)
    }

    fn name(&self) -> &'static str {
        "FastQDigest"
    }
}

impl SpaceUsage for QDigest {
    fn space_bytes(&self) -> usize {
        // Two words per stored node (id, count) plus the update buffer
        // at its budget — a function of σ, the universe and the node
        // count, not of what a `Vec` happens to hold, so a clone reports
        // what its original does. `|nodes| + 3σ + 1` words wherever the
        // budget is neither at `MIN_BUFFER` nor capped by the universe.
        words(self.nodes.len() * 2 + self.buffer_cap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::WireCodec;
    use crate::MergeableSummary;
    use sqs_util::exact::{observed_errors, probe_phis, ExactQuantiles};
    use sqs_util::rng::Xoshiro256pp;
    use std::collections::HashMap;

    fn check_errors(eps: f64, log_u: u32, data: Vec<u64>) {
        let mut s = QDigest::new(eps, log_u);
        for &x in &data {
            s.insert(x);
        }
        let oracle = ExactQuantiles::new(data);
        let answers: Vec<(f64, u64)> = probe_phis(eps)
            .into_iter()
            .map(|p| (p, s.quantile(p).unwrap()))
            .collect();
        let (max_err, _) = observed_errors(&oracle, &answers);
        assert!(max_err <= eps, "max err {max_err} > {eps}");
    }

    #[test]
    fn node_range_geometry() {
        let s = QDigest::new(0.1, 3); // u = 8
        let range = |id| QDigest::node_range(s.log_u, id);
        assert_eq!(range(1), (0, 7)); // root
        assert_eq!(range(2), (0, 3));
        assert_eq!(range(3), (4, 7));
        assert_eq!(range(8), (0, 0)); // first leaf
        assert_eq!(range(15), (7, 7)); // last leaf
    }

    #[test]
    fn errors_within_eps_uniform() {
        let mut rng = Xoshiro256pp::new(20);
        let data: Vec<u64> = (0..50_000).map(|_| rng.next_below(1 << 16)).collect();
        check_errors(0.02, 16, data);
    }

    #[test]
    fn errors_within_eps_skewed() {
        // Normal-ish pile-up in a narrow band of the universe.
        let mut rng = Xoshiro256pp::new(21);
        let data: Vec<u64> = (0..50_000)
            .map(|_| 30_000 + rng.next_below(200) + rng.next_below(200))
            .collect();
        check_errors(0.02, 16, data);
    }

    #[test]
    fn errors_within_eps_sorted() {
        check_errors(
            0.05,
            20,
            (0..60_000u64).map(|i| i * 17 % (1 << 20)).collect(),
        );
    }

    #[test]
    fn node_count_bounded_by_3_sigma() {
        let mut rng = Xoshiro256pp::new(22);
        let mut s = QDigest::new(0.05, 16);
        for _ in 0..200_000 {
            s.insert(rng.next_below(1 << 16));
        }
        let bound = 3 * s.sigma() as usize + MIN_BUFFER; // slack for a flush at the buffer floor
        assert!(s.node_count() <= bound, "{} > {bound}", s.nodes.len());
    }

    #[test]
    fn merge_preserves_accuracy() {
        let eps = 0.05;
        let mut rng = Xoshiro256pp::new(23);
        let a_data: Vec<u64> = (0..30_000).map(|_| rng.next_below(1 << 16)).collect();
        let b_data: Vec<u64> = (0..30_000)
            .map(|_| 20_000 + rng.next_below(1 << 14))
            .collect();
        let mut a = QDigest::new(eps, 16);
        let mut b = QDigest::new(eps, 16);
        for &x in &a_data {
            a.insert(x);
        }
        for &x in &b_data {
            b.insert(x);
        }
        a.merge_from(b);
        assert_eq!(a.n(), 60_000);
        let mut all = a_data;
        all.extend(b_data);
        let oracle = ExactQuantiles::new(all);
        for phi in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let q = a.quantile(phi).unwrap();
            // Merging can double the error constant; 2ε is the
            // mergeable-summary guarantee for a single merge.
            assert!(oracle.quantile_error(phi, q) <= 2.0 * eps, "phi={phi}");
        }
    }

    #[test]
    fn rank_estimate_is_lower_bound() {
        let mut rng = Xoshiro256pp::new(24);
        let data: Vec<u64> = (0..50_000).map(|_| rng.next_below(1 << 12)).collect();
        let mut s = QDigest::new(0.05, 12);
        for &x in &data {
            s.insert(x);
        }
        let oracle = ExactQuantiles::new(data);
        for x in [100u64, 1000, 2000, 4000] {
            let est = s.rank_estimate(x);
            let truth = oracle.rank(x);
            assert!(est <= truth, "estimate {est} exceeds true rank {truth}");
            assert!(truth - est <= (0.05 * 50_000.0) as u64 + 1, "x={x}");
        }
    }

    #[test]
    fn duplicates_all_same_value() {
        let mut s = QDigest::new(0.01, 10);
        for _ in 0..10_000 {
            s.insert(512);
        }
        assert_eq!(s.quantile(0.5), Some(512));
        assert!(s.node_count() <= 12, "nodes = {}", s.nodes.len());
    }

    #[test]
    fn empty_and_bounds() {
        let mut s = QDigest::new(0.1, 8);
        assert_eq!(s.quantile(0.5), None);
        s.insert(255);
        assert_eq!(s.quantile(0.5), Some(255));
    }

    #[test]
    fn deserialization_validates() {
        use crate::codec::{CodecError, WireCodec};
        let mut d = QDigest::new(0.1, 8);
        d.insert(3);
        let mut good = Vec::new();
        d.encode_body(&mut good);
        let decode = |body: &[u8]| QDigest::decode_body(body).err();
        assert_eq!(decode(&good[..10]), Some(CodecError::Truncated));
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            decode(&bad_magic),
            Some(CodecError::Malformed("q-digest: bad magic/version header"))
        );
        let mut bad_count = good.clone();
        let last = bad_count.len() - 1;
        bad_count[last] ^= 0x01; // corrupt a node count
        assert!(matches!(
            decode(&bad_count),
            Some(CodecError::Malformed(
                "q-digest: node counts do not sum to n" | "q-digest: node id outside tree"
            ))
        ));
        assert_eq!(decode(&[]), Some(CodecError::Truncated));
    }

    /// A byte form with every field chosen by the caller.
    fn crafted_body(log_u: u32, sigma: u64, n: u64, count: u64, nodes: &[Node]) -> Vec<u8> {
        let mut out = MAGIC.to_le_bytes().to_vec();
        out.extend_from_slice(&log_u.to_le_bytes());
        for word in [sigma, n, count] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for &(id, c) in nodes {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// `body` in a sealed kind-2 frame, as a sender would ship it.
    fn framed(body: &[u8]) -> Vec<u8> {
        use crate::codec::{seal, Kind, WIRE_MAGIC, WIRE_VERSION};
        let mut frame = WIRE_MAGIC.to_vec();
        frame.extend_from_slice(&[WIRE_VERSION, Kind::QDigest as u8, 0, 0]);
        frame.extend_from_slice(&(body.len() as u64).to_le_bytes());
        frame.extend_from_slice(body);
        seal(&mut frame);
        frame
    }

    #[test]
    fn hostile_bodies_are_refused_without_allocating_for_them() {
        use crate::codec::{CodecError, WireCodec};
        const THIRD: u64 = u64::MAX / 3; // 3·THIRD = u64::MAX: one short of room for 3σ + 1
        let leaves = [(256 + 3, 1), (256 + 9, 1)];
        let not_ascending = CodecError::Malformed("q-digest: node ids not strictly ascending");
        let bad_header = CodecError::Malformed("q-digest: bad magic/version header");
        let cases: Vec<(&str, Vec<u8>, CodecError)> = vec![
            (
                "count = u64::MAX",
                crafted_body(8, 80, 2, u64::MAX, &leaves),
                CodecError::Truncated,
            ),
            (
                "count asks for gigabytes",
                crafted_body(8, 80, 2, 1 << 30, &leaves),
                CodecError::Truncated,
            ),
            (
                "count one past the records",
                crafted_body(8, 80, 2, 3, &leaves),
                CodecError::Truncated,
            ),
            (
                "duplicated id",
                crafted_body(8, 80, 2, 2, &[(259, 1), (259, 1)]),
                not_ascending.clone(),
            ),
            (
                "descending ids",
                crafted_body(8, 80, 2, 2, &[(265, 1), (259, 1)]),
                not_ascending.clone(),
            ),
            (
                "σ = 0",
                crafted_body(8, 0, 2, 2, &leaves),
                bad_header.clone(),
            ),
            (
                "σ = u64::MAX",
                crafted_body(8, u64::MAX, 2, 2, &leaves),
                bad_header.clone(),
            ),
            (
                "3σ + 1 overflows",
                crafted_body(8, THIRD, 2, 2, &leaves),
                bad_header.clone(),
            ),
        ];
        for (what, body, expected) in cases {
            assert_eq!(
                QDigest::decode_body(&body).err(),
                Some(expected.clone()),
                "{what}"
            );
            let through_frame = QDigest::from_bytes(&framed(&body));
            assert_eq!(through_frame.err(), Some(expected), "{what}");
        }
        // The largest σ a header may carry decodes, audits and takes
        // updates without reserving its 3σ-value buffer.
        let body = crafted_body(8, THIRD - 1, 2, 2, &leaves);
        let mut huge = QDigest::from_bytes(&framed(&body)).expect("valid frame");
        huge.insert(7);
        assert_eq!(huge.quantile(0.5), Some(7));
        assert!(huge.buffer.capacity() <= MIN_BUFFER);
    }

    #[test]
    fn decoded_frames_run_the_digest_audit() {
        use crate::codec::{CodecError, WireCodec};
        let leaves: Vec<Node> = (0..260).map(|x| (512 + x, 1)).collect();
        let cases = [
            // A root holding all of n = 100, where σ = 1 600 allows no
            // internal count at all: it answered every φ with 65 535.
            (
                "root over ⌊n/σ⌋",
                crafted_body(16, 1_600, 100, 1, &[(1, 100)]),
                "qdigest.count_bound",
            ),
            // n = 200 at σ = 80 allows internal counts of 2; node 2
            // (the left half of the universe) claims 150.
            (
                "fat internal node",
                crafted_body(8, 80, 200, 2, &[(2, 150), (256 + 200, 50)]),
                "qdigest.count_bound",
            ),
            // σ = 1: 3σ + 256 = 259 nodes at most, 260 leaves sent.
            (
                "nodes over the budget",
                crafted_body(9, 1, 260, 260, &leaves),
                "qdigest.node_capacity",
            ),
        ];
        for (what, body, rule) in cases {
            match QDigest::from_bytes(&framed(&body)) {
                Err(CodecError::Invariant(v)) => assert_eq!(v.invariant, rule, "{what}"),
                other => panic!("{what}: frame not refused: {other:?}"),
            }
        }
        // One leaf fewer is within the budget, and decodes.
        let body = crafted_body(9, 1, 259, 259, &leaves[..259]);
        assert!(QDigest::from_bytes(&framed(&body)).is_ok());
    }

    #[test]
    fn merge_gate_compares_sigma_as_well_as_the_universe() {
        use crate::MergeableSummary;
        let fine = QDigest::new(0.01, 16);
        assert!(fine.merge_compatible(&QDigest::new(0.01, 16)));
        assert!(!fine.merge_compatible(&QDigest::new(0.1, 16)), "coarser ε");
        assert!(!fine.merge_compatible(&QDigest::new(0.01, 12)), "universe");
    }

    #[test]
    #[should_panic(expected = "σ (accuracy) mismatch")]
    fn merge_rejects_a_different_sigma() {
        QDigest::new(0.01, 16).merge_from(QDigest::new(0.1, 16));
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn rejects_out_of_universe() {
        let mut s = QDigest::new(0.1, 8);
        s.insert(256);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_batch_rejects_out_of_universe() {
        let mut s = QDigest::new(0.1, 8);
        s.insert_batch(&[1, 2, 300]);
    }

    /// COMPRESS as this module ran it on its hash-map node store: the
    /// reference the post-order pass must agree with, node for node.
    fn compress_oracle(log_u: u32, threshold: u64, nodes: &[Node]) -> Vec<Node> {
        let mut counts: HashMap<u64, u64> = nodes.iter().copied().collect();
        let mut by_depth: Vec<Vec<u64>> = vec![Vec::new(); log_u as usize + 1];
        for &id in counts.keys() {
            by_depth[QDigest::depth(id) as usize].push(id);
        }
        for d in (1..=log_u as usize).rev() {
            if threshold == 0 {
                break;
            }
            for id in std::mem::take(&mut by_depth[d]) {
                // Canonicalize to the even child; skip ids already merged.
                let left = id & !1;
                if !counts.contains_key(&left) && !counts.contains_key(&(left | 1)) {
                    continue;
                }
                let parent = left >> 1;
                let cl = counts.get(&left).copied().unwrap_or(0);
                let cr = counts.get(&(left | 1)).copied().unwrap_or(0);
                let cp = counts.get(&parent).copied().unwrap_or(0);
                if cl + cr + cp <= threshold {
                    counts.remove(&left);
                    counts.remove(&(left | 1));
                    if counts.insert(parent, cl + cr + cp).is_none() {
                        by_depth[d - 1].push(parent);
                    }
                }
            }
        }
        let mut out: Vec<Node> = counts.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Runs COMPRESS on `s` as it stands and checks it node for node,
    /// in id order, against the hash-map oracle, and that it left them
    /// in post-order; whether it merged anything.
    fn compress_against_the_oracle(s: &mut QDigest, what: &str) -> bool {
        let expected = compress_oracle(s.log_u, s.n / s.sigma, &s.nodes);
        let before = s.nodes.len();
        s.compress();
        let mut by_id = s.nodes.clone();
        by_id.sort_unstable();
        assert_eq!(by_id, expected, "{what}");
        let log_u = s.log_u;
        assert!(
            s.nodes
                .windows(2)
                .all(|w| QDigest::key(log_u, w[0].0) < QDigest::key(log_u, w[1].0)),
            "{what}: survivors out of post-order"
        );
        s.nodes.len() < before
    }

    /// Adds `xs` to the leaf tail the way a flush does, without the
    /// flush's own COMPRESS.
    fn add_leaves(s: &mut QDigest, mut xs: Vec<u64>) {
        xs.sort_unstable();
        let u = s.universe();
        let fresh: Vec<Node> = xs
            .chunk_by(|a, b| a == b)
            .map(|run| (u + run[0], run.len() as u64))
            .collect();
        let mut grown = Vec::new();
        QDigest::union_into(&mut grown, &s.nodes, &fresh, s.log_u);
        s.nodes = grown;
        s.n += xs.len() as u64;
    }

    /// A digest over `2^log_u` with up to `k` nodes at random depths,
    /// some of count 0, leaves up to three times a random cap and
    /// internal nodes up to the cap (up to three times it too when
    /// `fat`), σ picked so that `⌊n/σ⌋` is at least the cap.
    fn scattered(rng: &mut Xoshiro256pp, log_u: u32, k: usize, fat: bool) -> QDigest {
        let cap = 1 + rng.next_below(20);
        let mut ids: Vec<u64> = (0..k)
            .map(|_| {
                let depth = rng.next_below(u64::from(log_u) + 1);
                (1 << depth) + rng.next_below(1 << depth)
            })
            .collect();
        ids.sort_unstable();
        ids.dedup();
        let mut s = QDigest::empty(log_u, 1);
        for id in ids {
            let most = if fat || id >> log_u == 1 {
                3 * cap
            } else {
                cap
            };
            s.nodes.push((id, rng.next_below(most + 1)));
        }
        QDigest::post_order(&mut s.nodes, log_u);
        s.n = s.nodes.iter().map(|node| node.1).sum();
        s.sigma = (s.n / cap).max(1);
        s
    }

    /// Rounds of rows added to the leaf tail and compressed, each
    /// checked against the oracle, for every `(log u, ε, rows per round,
    /// rounds)` shape, draw and four seeds: how many rounds merged
    /// anything.
    fn oracle_rounds(shapes: &[(u32, f64, u64, usize)]) -> usize {
        type Draw = fn(&mut Xoshiro256pp, u64) -> u64;
        let draws: [(&str, Draw); 4] = [
            ("uniform", |rng, u| rng.next_below(u)),
            ("skewed", |rng, u| {
                let band = u.min(400) / 2;
                u / 2 + (rng.next_below(band) + rng.next_below(band)) / 2
            }),
            ("all duplicates", |_, u| u / 3),
            // One row in eight on one of three values: leaves heavier
            // than ⌊n/σ⌋ among light lone ones.
            ("hot values", |rng, u| match rng.next_below(24) {
                hot @ 0..=2 => u / 5 * (hot + 1) + 1,
                _ => rng.next_below(u),
            }),
        ];
        let mut merged = 0;
        for &(log_u, eps, per_round, rounds) in shapes {
            for (name, draw) in draws {
                for seed in 0..4 {
                    let mut rng = Xoshiro256pp::new(70 + u64::from(log_u) * 8 + seed);
                    let mut s = QDigest::new(eps, log_u);
                    for round in 0..rounds {
                        let u = s.universe();
                        add_leaves(&mut s, (0..per_round).map(|_| draw(&mut rng, u)).collect());
                        let what = format!("log u {log_u}, {name}, seed {seed}, round {round}");
                        merged += usize::from(compress_against_the_oracle(&mut s, &what));
                    }
                }
            }
        }
        merged
    }

    #[test]
    fn compress_matches_the_hash_map_oracle_at_the_paper_suite_shape() {
        // The first round's ⌊n/σ⌋ is 1: leaves of count 1 rise but never
        // pair, so only the second merges anything.
        let merged = oracle_rounds(&[(32, 1e-3, 50_000, 2)]);
        assert!(merged >= 8, "only {merged} rounds merged anything");
    }

    #[test]
    fn compress_matches_the_hash_map_oracle() {
        // log u = 3 saturates: every leaf of the universe is stored.
        let merged = oracle_rounds(&[
            (3, 0.3, 40, 12),
            (12, 0.05, 600, 12),
            (32, 0.02, 4_000, 6),
            (40, 0.02, 4_000, 4),
        ]);
        assert!(merged >= 200, "only {merged} rounds merged anything");

        // Two heavy leaves with a light subtree between them whose pair
        // is kept, a heavy right child beside a light left one, and a
        // stored root: n = 61 at σ = 20 gives ⌊n/σ⌋ = 3.
        let mut s = QDigest::empty(5, 20);
        s.nodes = vec![
            (1, 2),
            (32, 1),
            (33, 9),
            (36, 2),
            (37, 2),
            (42, 1),
            (44, 10),
            (61, 1),
            (62, 33),
        ];
        QDigest::post_order(&mut s.nodes, 5);
        s.n = 61;
        compress_against_the_oracle(&mut s, "heavy leaves around a kept pair");
        for kept in [(32, 1), (33, 9), (36, 2), (44, 10)] {
            assert!(s.nodes.contains(&kept), "{kept:?} in {:?}", s.nodes);
        }

        // Nodes at every depth, counts of 0, a stored root now and then,
        // fed in as decoded byte forms; then internal nodes over ⌊n/σ⌋,
        // which no audited digest holds but COMPRESS takes as they are.
        for seed in 0..64 {
            let mut rng = Xoshiro256pp::new(700 + seed);
            let log_u = [4, 9, 20, 40][seed as usize % 4];
            let mut s = scattered(&mut rng, log_u, 8 + seed as usize * 3, false);
            let mut s = QDigest::from_bytes(&s.to_bytes()).expect("an audited byte form");
            compress_against_the_oracle(&mut s, &format!("decoded, seed {seed}"));
            let mut s = scattered(&mut rng, log_u, 8 + seed as usize * 3, true);
            compress_against_the_oracle(&mut s, &format!("fat internal nodes, seed {seed}"));
        }

        // Digests built at different n, unioned as `merge_from` does:
        // internal nodes at the depths each one's ⌊n/σ⌋ left them.
        for seed in 0..4 {
            let mut rng = Xoshiro256pp::new(800 + seed);
            let mut build = |rows: u64| {
                let mut s = QDigest::new(0.01, 20);
                let xs: Vec<u64> = (0..rows).map(|_| rng.next_below(1 << 20)).collect();
                s.insert_batch(&xs);
                s.flush();
                s
            };
            let (small, large) = (build(3_000 * (seed + 1)), build(40_000));
            let mut s = QDigest::empty(20, small.sigma);
            QDigest::union_into(&mut s.nodes, &small.nodes, &large.nodes, 20);
            s.n = small.n + large.n;
            let what = format!("merge of n = {} and {}", small.n, large.n);
            assert!(compress_against_the_oracle(&mut s, &what), "{what}");
        }
    }

    #[test]
    fn heavy_leaves_flush_at_the_buffer_floor() {
        // 3σ + 1 = 121 < 256: the budget is at its floor throughout, and
        // 30 values of n/30 each outweigh ⌊n/40⌋, so no COMPRESS could
        // merge anything.
        let mut s = QDigest::new(0.5, 20);
        assert_eq!(s.sigma(), 40);
        for i in 0..10_000u64 {
            s.insert((i % 30) << 15);
            assert!(s.buffer.len() < MIN_BUFFER, "insert {i} left a full buffer");
            assert_eq!(s.buffer.is_empty(), (i + 1) % 256 == 0, "insert {i}");
        }
        s.flush();
        let before = s.nodes.clone();
        assert_eq!(before.len(), 30);
        s.compress();
        assert_eq!(s.nodes, before);
        sqs_util::audit::CheckInvariants::assert_invariants(&s);
        assert_eq!(s.space_bytes(), words(30 * 2 + MIN_BUFFER));
    }

    #[test]
    fn space_charges_the_budget_not_the_allocation() {
        let mut s = QDigest::new(0.01, 16);
        let budget = 3 * s.sigma() as usize + 1;
        assert_eq!(s.space_bytes(), words(budget));
        for x in 0..1_000u64 {
            s.insert(x * 60);
        }
        assert_eq!(s.space_bytes(), words(budget), "buffered, not yet nodes");
        assert!(s.buffer.capacity() <= s.buffer_cap());
        // n < σ: nothing to compress, every value its own leaf.
        assert_eq!(s.node_count(), 1_000);
        assert_eq!(s.space_bytes(), words(1_000 + budget));
        assert_eq!(s.clone().space_bytes(), s.space_bytes());
        // What is held is what is charged: no slack behind either array.
        assert_eq!(s.nodes.capacity(), s.nodes.len());
        assert!(s.buffer.capacity() <= s.buffer_cap());
        // A universe with fewer values than the node budget caps it:
        // there can never be more than 2^10 leaves to make room for.
        let saturable = QDigest::new(1e-4, 10);
        assert!(3 * saturable.sigma() > 1 << 10);
        assert_eq!(saturable.space_bytes(), words(1 << 10));
    }

    #[test]
    fn view_is_never_stale_under_any_interleaving() {
        use crate::buffers::oracle::check_answers_under_interleavings;
        use crate::codec::WireCodec;
        // The per-call sweep over a flushed clone: sort the nodes by
        // (right endpoint, larger left endpoint first), accumulate to
        // ⌈φ·n⌉; ranks by a scan of every node.
        fn expect(s: &mut QDigest, phis: &[f64], xs: &[u64]) -> (Vec<Option<u64>>, Vec<u64>) {
            let s = &mut s.clone();
            s.flush();
            let mut nodes: Vec<(u64, u64, u64)> = s
                .nodes
                .iter()
                .map(|&(id, c)| {
                    let (lo, hi) = QDigest::node_range(s.log_u, id);
                    (hi, lo, c)
                })
                .collect();
            nodes.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
            let quantile = |phi: f64| {
                let target = ((phi * s.n as f64).ceil() as u64).max(1);
                let mut cum = 0u64;
                for &(hi, _lo, c) in &nodes {
                    cum += c;
                    if cum >= target {
                        return hi;
                    }
                }
                s.universe() - 1
            };
            let rank = |x: u64| nodes.iter().filter(|n| n.0 < x).map(|n| n.2).sum();
            (
                phis.iter()
                    .map(|&p| (s.n > 0).then(|| quantile(p)))
                    .collect(),
                xs.iter().map(|&x| rank(x)).collect(),
            )
        }
        fn merge(s: &mut QDigest, rng: &mut Xoshiro256pp) {
            let mut other = QDigest::empty(s.log_u, s.sigma);
            for _ in 0..rng.next_below(1500) {
                other.insert(rng.next_below(48));
            }
            let _ = other.quantile(0.5); // the donor's own view must not leak in
            s.merge_from(other);
        }
        fn roundtrip(s: &mut QDigest, _: &mut Xoshiro256pp) {
            *s = <QDigest as WireCodec>::from_bytes(&WireCodec::to_bytes(s))
                .expect("own frame decodes");
        }
        // At ε 0.1 the buffer is mostly held at its floor, past the node
        // budget, and the reads answer from a flushed clone; at ε 0.01
        // they answer from the buckets, one value wide at log u 12 and
        // wider at log u 20.
        for (eps, log_u, universe, seed) in [
            (0.1, 12, 48, 1),
            (0.1, 12, 1 << 12, 2),
            (0.01, 12, 1 << 12, 3),
            (0.01, 20, 1 << 20, 4),
        ] {
            check_answers_under_interleavings(
                QDigest::new(eps, log_u),
                universe,
                seed,
                expect,
                &[merge, roundtrip],
            );
        }
    }

    /// A digest at the `paper_suite` shape of the benchmark: ε = 10⁻³,
    /// log u 32, 2^19 uniform rows, which leave ≈ 52 000 nodes and
    /// ≈ 42 000 buffered values.
    fn paper_suite_digest() -> QDigest {
        let mut rng = Xoshiro256pp::new(0x5017e);
        let rows: Vec<u64> = (0..1 << 19).map(|_| rng.next_below(1 << 32)).collect();
        let mut digest = QDigest::new(1e-3, 32);
        digest.insert_batch(&rows);
        digest
    }

    /// The digests the read oracle compares with their flushed clones,
    /// by name: buffers of every shape a read must answer from.
    fn oracle_shapes() -> Vec<(&'static str, QDigest)> {
        let mut rng = Xoshiro256pp::new(0x0acc);
        let mut rows =
            |k: usize, bound: u64| -> Vec<u64> { (0..k).map(|_| rng.next_below(bound)).collect() };
        let mut shapes = vec![("paper_suite", paper_suite_digest())];
        // Fewer than 1 000 values, so the whole buffer shares one top
        // 12 bits; filled until ≥ 40 000 copies of them are buffered.
        let mut one_bucket = QDigest::new(1e-3, 32);
        one_bucket.insert_batch(&rows(200_000, 997));
        while one_bucket.buffer.len() < 45_000 {
            one_bucket.insert(rows(1, 997)[0]);
        }
        shapes.push(("one bucket", one_bucket));
        let mut sorted = QDigest::new(1e-3, 32);
        sorted.insert_batch(&(0..1 << 19).map(|i| i * 4_099).collect::<Vec<_>>());
        shapes.push(("sorted", sorted));
        for (name, log_u, eps) in [
            ("log u 1", 1, 0.01),
            ("log u 8", 8, 0.01),
            ("log u 12", 12, 0.005),
            ("log u 13", 13, 0.005),
        ] {
            let mut s = QDigest::new(eps, log_u);
            s.insert_batch(&rows(30_011, 1 << log_u));
            shapes.push((name, s));
        }
        let mut flushed = paper_suite_digest();
        flushed.flush();
        shapes.push(("empty buffer", flushed));
        // 3σ + 1 = 121 < 256: the buffer flushes at its floor; one value
        // short of it here.
        let mut floor = QDigest::new(0.5, 20);
        floor.insert_batch(&rows(256 * 20 + 255, 1 << 20));
        assert_eq!(floor.buffer.len(), MIN_BUFFER - 1);
        shapes.push(("buffer at MIN_BUFFER", floor));
        let mut merged = QDigest::new(0.01, 24);
        merged.insert_batch(&rows(40_000, 1 << 24));
        let mut donor = QDigest::new(0.01, 24);
        donor.insert_batch(&rows(40_000, 1 << 24));
        merged.merge_from(donor);
        merged.insert_batch(&rows(3_000, 1 << 24));
        shapes.push(("after merge_from", merged));
        let mut decoded = QDigest::new(0.01, 24);
        decoded.insert_batch(&rows(50_000, 1 << 24));
        let mut decoded = QDigest::from_bytes(&decoded.to_bytes()).expect("own frame decodes");
        decoded.insert_batch(&rows(7_000, 1 << 24));
        shapes.push(("decoded, then inserts", decoded));
        shapes
    }

    /// Every read of `s` answers exactly what the same read of a clone
    /// flushed by `node_count()` answers: the grid with φ unsorted and
    /// repeated, each φ alone, and ranks at 64 probes, a third of them
    /// buffered values and their neighbours.
    fn reads_match_a_flushed_clone(name: &str, s: &mut QDigest, rng: &mut Xoshiro256pp) {
        let mut phis = probe_phis(0.01);
        phis.extend([0.5, 0.01, 1e-9, 1.0 - 1e-9, 0.5, 0.999_999]);
        for i in (1..phis.len()).rev() {
            phis.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        let mut flushed = s.clone();
        flushed.node_count();
        assert_eq!(
            s.quantiles(&phis),
            flushed.quantiles(&phis),
            "{name}: quantiles"
        );
        for &phi in &phis {
            assert_eq!(
                s.quantile(phi),
                flushed.quantile(phi),
                "{name}: quantile({phi})"
            );
        }
        let top = s.universe() - 1;
        let mut probes = vec![0, 1, top, top / 2];
        while probes.len() < 64 {
            let x = match (s.buffer.len(), probes.len() % 3) {
                (len @ 1.., 0) => s.buffer[rng.next_below(len as u64) as usize],
                _ => rng.next_below(s.universe()),
            };
            probes.extend([x, x.saturating_sub(1), (x + 1).min(top)]);
        }
        for x in probes {
            assert_eq!(
                s.rank_estimate(x),
                flushed.rank_estimate(x),
                "{name}: rank({x})"
            );
        }
    }

    #[test]
    fn reads_leave_no_trace() {
        // ε 0.01 reads from the buckets, ε 0.1 from a flushed clone.
        for (eps, seed) in [(0.01, 1), (0.1, 2)] {
            let mut rng = Xoshiro256pp::new(0x7ace + seed);
            let (mut read, mut unread) = (QDigest::new(eps, 16), QDigest::new(eps, 16));
            let grid = probe_phis(0.05);
            let mut boundaries = 0;
            for step in 0..120_000 {
                let x = rng.next_below(1 << 16);
                read.insert(x);
                unread.insert(x);
                if step % 541 == 0 {
                    let _ = read.quantiles(&grid);
                    let _ = read.quantile(0.5);
                    let _ = read.rank_estimate(x);
                }
                if unread.buffer.is_empty() {
                    boundaries += 1;
                    let what = format!("ε {eps}, flush boundary after row {step}");
                    assert_eq!(read.space_bytes(), unread.space_bytes(), "{what}");
                    assert_eq!(read.clone().to_bytes(), unread.clone().to_bytes(), "{what}");
                }
            }
            assert!(boundaries >= 20, "ε {eps}: {boundaries} flush boundaries");
        }
    }

    #[test]
    fn unflushed_reads_answer_what_a_flushed_clone_answers() {
        let mut rng = Xoshiro256pp::new(0x0ac1e);
        for (name, mut s) in oracle_shapes() {
            assert_eq!(s.buffer.is_empty(), name == "empty buffer", "{name}");
            reads_match_a_flushed_clone(name, &mut s, &mut rng);
        }
    }

    #[test]
    fn merge_tree_skips_redundant_compress() {
        // Folding many already-compact digests keeps the node budget
        // without compressing at every internal node: accuracy stays
        // within the k-way merge bound and the capacity invariant holds.
        let mut rng = Xoshiro256pp::new(61);
        let eps = 0.05;
        let mut shards: Vec<QDigest> = Vec::new();
        let mut all = Vec::new();
        for _ in 0..8 {
            let data: Vec<u64> = (0..15_000).map(|_| rng.next_below(1 << 16)).collect();
            let mut s = QDigest::new(eps, 16);
            s.insert_batch(&data);
            all.extend(data);
            shards.push(s);
        }
        while shards.len() > 1 {
            let mut next = Vec::new();
            let mut it = shards.into_iter();
            while let Some(mut a) = it.next() {
                if let Some(b) = it.next() {
                    a.merge_from(b);
                }
                next.push(a);
            }
            shards = next;
        }
        let mut root = shards.pop().expect("one digest remains");
        assert_eq!(root.n(), 120_000);
        sqs_util::audit::CheckInvariants::assert_invariants(&root);
        let oracle = ExactQuantiles::new(all);
        for phi in [0.1, 0.5, 0.9] {
            let err = oracle.quantile_error(phi, root.quantile(phi).expect("nonempty"));
            assert!(err <= 2.0 * eps, "phi={phi}: err {err}");
        }
    }

    /// The update-time ceiling, as a ratio so it holds on any machine:
    /// at the `paper_suite` shape of the benchmark (ε = 10⁻³, log u 32,
    /// 2^19 uniform rows through the scalar `insert`) the q-digest may
    /// cost at most 5× the fastest summary of the study. The level walk
    /// COMPRESS replaced read ≈ 6×; the post-order pass ≈ 3×.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing ceiling: run with --release")]
    fn scalar_insert_stays_within_5x_of_random_sketch() {
        use crate::{random::RandomSketch, traits::scalar_inserts};
        use sqs_util::timing::{alternate, Bound};
        let mut rng = Xoshiro256pp::new(0x5017e);
        let rows: Vec<u64> = (0..1 << 19).map(|_| rng.next_below(1 << 32)).collect();
        alternate(
            3,
            || scalar_inserts(QDigest::new(1e-3, 32), &rows),
            || scalar_inserts(RandomSketch::new(1e-3, 7), &rows),
        )
        .gate("q-digest insert over RandomSketch's", Bound::AtMost(5.0));
    }

    /// At the `paper_suite` shape, a cold 99-φ grid right after
    /// `node_count()` has flushed the buffer reads the nodes in their
    /// stored post-order: no node sort (the read that sorted them for
    /// every cold read cost ≈ 1.5 flushes).
    #[test]
    fn a_cold_grid_sorts_no_nodes() {
        use crate::counts::{during, Work};
        let mut digest = paper_suite_digest();
        assert!(digest.buffer.len() > digest.nodes.len() / 4);
        digest.node_count();
        let (_, work) = during(|| digest.quantiles(&probe_phis(0.01)));
        assert_eq!(work[Work::NodeSort], 0, "node sorts in a cold grid");
    }

    /// At the `paper_suite` shape, cold reads of the digest as its
    /// inserts left it, buffer unflushed, flush neither the digest nor
    /// a clone of it (the flushing read cost a flush and the grid).
    #[test]
    fn cold_reads_of_an_unflushed_digest_flush_nothing() {
        use crate::counts::{during, Work};
        let digest = paper_suite_digest();
        assert!(digest.buffer.len() > digest.nodes.len() / 4);
        let grid = probe_phis(0.01);
        let reads: [fn(&mut QDigest, &[f64]); 3] = [
            |d, grid| drop(d.quantiles(grid)),
            |d, _| {
                d.quantile(0.5);
            },
            |d, _| {
                d.rank_estimate(1 << 31);
            },
        ];
        for read in reads {
            let mut d = digest.clone();
            let (_, work) = during(|| read(&mut d, &grid));
            let done = (work[Work::Flush], work[Work::NodeSort]);
            assert_eq!(done, (0, 0), "(flushes, node sorts) of a cold read");
            assert_eq!(d.buffer.len(), digest.buffer.len());
        }
    }

    /// Prints the cold 99-φ grid of every oracle shape, on a clone, best
    /// of 9 (docs/PERF.md §24.4).
    #[test]
    #[ignore = "prints timings: run with --release -- --ignored --nocapture"]
    fn oracle_shapes_cold_grid_times() {
        use std::hint::black_box;
        use std::time::Instant;
        let grid = probe_phis(0.01);
        for (name, digest) in oracle_shapes() {
            let best = (0..9)
                .map(|_| {
                    let mut d = digest.clone();
                    let start = Instant::now();
                    black_box(d.quantiles(&grid));
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            println!("{name:>24} {:>10.1} µs", best * 1e6);
        }
    }

    #[test]
    fn sort_values_sorts_every_universe() {
        let mut rng = Xoshiro256pp::new(90);
        for (log_u, len) in [
            (1, 5_000),
            (8, 4_096),
            (16, 1),
            (20, 9_000),
            (32, 256),
            (32, 20_000),
            (40, 7_000),
        ] {
            for spread in [1u64 << log_u, 1 << (log_u / 2), 3] {
                let mut values: Vec<u64> = (0..len)
                    .map(|_| (1 << log_u) - 1 - rng.next_below(spread.min(1 << log_u)))
                    .collect();
                let mut expected = values.clone();
                expected.sort_unstable();
                sort_values(&mut values, log_u);
                assert_eq!(values, expected, "log u {log_u}, spread {spread}");
            }
        }
    }

    #[test]
    fn cached_view_builds_once_and_is_never_cloned() {
        let mut view = CachedView::default();
        let mut builds = 0;
        for _ in 0..3 {
            view.get_or_build(|| builds += 1);
        }
        assert_eq!(builds, 1);
        assert!(view.clone().get().is_none());
        view.invalidate();
        assert!(view.get().is_none());
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use crate::QuantileSummary;
    use sqs_util::audit::CheckInvariants;

    fn filled() -> QDigest {
        let mut s = QDigest::new(0.05, 12);
        for x in 0..10_000u64 {
            s.insert(x % 4_096);
        }
        // Two leaves too heavy to merge.
        for x in [4_000u64, 4_095] {
            s.insert_batch(&[x; 100]);
        }
        s.flush();
        s
    }

    /// Where the leaf of `x` is stored.
    fn leaf(s: &QDigest, x: u64) -> usize {
        let id = s.universe() + x;
        let at = s.nodes.iter().position(|node| node.0 == id);
        at.expect("the leaf is stored")
    }

    fn violated(s: &QDigest) -> &'static str {
        let err = s.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "FastQDigest");
        err.invariant
    }

    #[test]
    fn auditor_catches_out_of_tree_node() {
        let mut s = filled();
        s.nodes.push((1u64 << (s.log_u + 2), 0));
        assert_eq!(violated(&s), "qdigest.node_in_tree");
    }

    #[test]
    fn auditor_catches_nodes_out_of_order() {
        let mut s = filled();
        let last = s.nodes.len() - 1;
        s.nodes.swap(last - 1, last);
        assert_eq!(violated(&s), "qdigest.nodes_ascending");
        // A leaf and the internal node after it, the other way round.
        let mut s = filled();
        let at = s.nodes.windows(2).position(|w| w[1].0 < s.universe());
        let at = at.expect("a compressed digest has internal nodes");
        s.nodes.swap(at, at + 1);
        assert_eq!(violated(&s), "qdigest.nodes_ascending");
        // Ascending ids, the byte form's order, are not post-order.
        let mut s = filled();
        s.nodes.sort_unstable();
        assert_eq!(violated(&s), "qdigest.nodes_ascending");
        let mut s = filled();
        let repeated = s.nodes[last];
        s.nodes.insert(last, (repeated.0, 0));
        assert_eq!(violated(&s), "qdigest.nodes_ascending");
    }

    #[test]
    fn auditor_catches_a_fat_internal_node() {
        let mut s = filled();
        let threshold = s.n / s.sigma;
        // Move mass from the last leaf's side of the books onto the
        // first internal node: conserved, ascending, but too heavy.
        let internal = s.nodes.iter().position(|&(id, _)| id < s.universe());
        let internal = internal.expect("a compressed digest has internal nodes");
        let moved = threshold + 1 - s.nodes[internal].1;
        s.n += moved;
        s.nodes[internal].1 += moved;
        assert!(s.nodes[internal].1 > s.n / s.sigma);
        assert_eq!(violated(&s), "qdigest.count_bound");
    }

    #[test]
    fn auditor_catches_a_view_kept_across_a_mutation() {
        let mut s = filled();
        let _ = s.quantile(0.5);
        s.check_invariants().expect("a fresh view passes");
        // A mutator that forgot to drop the view: move one heavy leaf's
        // count to the other, mass conserved.
        let (from, to) = (leaf(&s, 4_000), leaf(&s, 4_095));
        let moved = std::mem::replace(&mut s.nodes[from].1, 0);
        s.nodes[to].1 += moved;
        assert_eq!(violated(&s), "qdigest.view_fresh");
    }

    #[test]
    fn auditor_catches_broken_mass() {
        let mut s = filled();
        let at = leaf(&s, 4_095);
        s.nodes[at].1 += 17;
        assert_eq!(violated(&s), "qdigest.mass_conservation");
    }
}
