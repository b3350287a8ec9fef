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
//! The nodes live in one array in ascending heap-id order, which is
//! level order (level `d` is the contiguous id range `[2^d, 2^(d+1))`,
//! the leaves are the tail) and the order of the byte form, so every
//! operation is a linear walk: a flush sorts the buffered values and
//! merges them into the leaf tail, a merge is a two-cursor union.
//! COMPRESS and the queries read the nodes in post-order instead (by
//! right endpoint, deeper first), one bucket sort away: COMPRESS is one
//! pass over that order with a stack of pending subtrees, where a node
//! alone in its subtree jumps straight to the level at which it next
//! meets mass. Updates are buffered ("Fast") up to what is left of the
//! `3σ` node budget, so COMPRESS runs once per refill of that budget —
//! the behaviour Figures 5e/5f and 7a measure.

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "indices and narrowing casts stay within the bounds `check_invariants` audits"
)]

use std::cmp::Ordering;

use crate::buffers::CachedView;
use crate::codec::Reader;
use crate::QuantileSummary;
use sqs_util::audit::{CheckInvariants, InvariantViolation};
use sqs_util::space::{words, SpaceUsage};

/// Errors from [`QDigest::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic or version, or a σ no digest can have.
    BadHeader,
    /// Byte stream ends mid-record.
    Truncated,
    /// A node id is outside the declared universe's tree.
    BadNodeId(u64),
    /// A node id does not exceed the one before it: the byte form lists
    /// every node once, in ascending id order.
    NodesNotAscending(u64),
    /// Node counts don't sum to the declared n.
    CountMismatch,
    /// The nodes parse but break the digest's own audit
    /// ([`CheckInvariants`]): an internal count above `⌊n/σ⌋`, or more
    /// nodes than the `3σ` budget allows.
    Invariant(InvariantViolation),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadHeader => write!(f, "bad magic/version header"),
            DecodeError::Truncated => write!(f, "byte stream truncated"),
            DecodeError::BadNodeId(id) => write!(f, "node id {id} outside tree"),
            DecodeError::NodesNotAscending(id) => {
                write!(f, "node id {id} does not ascend past the one before it")
            }
            DecodeError::CountMismatch => write!(f, "node counts do not sum to n"),
            DecodeError::Invariant(v) => write!(f, "decoded digest fails audit: {v}"),
        }
    }
}

impl std::error::Error for DecodeError {}

const MAGIC: u32 = 0x5144_4731; // "QDG1"

/// Bytes before the first node of the byte form: magic, `log_u`, σ, n
/// and the node count.
const HEADER_LEN: usize = 32;

/// The fewest buffered updates a flush waits for, however little of the
/// node budget is left.
const MIN_BUFFER: usize = 256;

/// A stored node: `(heap id, count)`.
type Node = (u64, u64);

/// The read path: the stored nodes in the q-digest query order — by
/// right endpoint, smaller intervals first on ties (post-order of the
/// tree) — with inclusive prefix sums of their counts, so a quantile
/// or a rank is one binary search.
#[derive(Debug, PartialEq)]
struct NodeIndex {
    /// Right endpoint of each node, in query order.
    his: Vec<u64>,
    /// `cum[i]`: the summed count of nodes `0..=i`.
    cum: Vec<u64>,
}

/// A streaming q-digest over the universe `[0, 2^log_u)`.
///
/// # Example
///
/// ```
/// use sqs_core::{qdigest::QDigest, QuantileSummary};
///
/// // Two sensors summarize locally, merge, ship as bytes.
/// let mut a = QDigest::new(0.01, 16);
/// let mut b = QDigest::new(0.01, 16);
/// for x in 0..30_000u64 {
///     a.insert(x % 65_536);
///     b.insert((x * 7) % 65_536);
/// }
/// a.merge(&mut b);
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
    /// The stored nodes in strictly ascending heap-id order. Root is
    /// id 1; the leaf for value `x` is id `u + x`; node `id` has
    /// children `2id, 2id+1`.
    nodes: Vec<Node>,
    /// Observed values not yet applied to `nodes`; flushed at
    /// [`buffer_cap`](Self::buffer_cap) of them.
    buffer: Vec<u64>,
    /// The queries' sorted form of `nodes`; dropped wherever `nodes`
    /// changes (`flush`, `merge_from`).
    view: CachedView<NodeIndex>,
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

    /// Index in the ascending `nodes` at which level `depth` begins.
    fn level_start(nodes: &[Node], depth: u32) -> usize {
        nodes.partition_point(|&(id, _)| id < 1u64 << depth)
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

    /// Appends to `out` the union of two ascending node runs, adding
    /// the counts of ids present in both.
    fn union_into(out: &mut Vec<Node>, a: &[Node], b: &[Node]) {
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
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
    /// leaves and merges those into the leaf tail of `nodes`, in place:
    /// one pass counts the values not stored yet, a second merges from
    /// the back into the array grown by that many.
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.view.invalidate();
        self.buffer.sort_unstable();
        let u = self.universe();
        let leaves = Self::level_start(&self.nodes, self.log_u);
        let old = self.nodes.len();
        let (mut added, mut at) = (0, leaves);
        for run in self.buffer.chunk_by(|a, b| a == b) {
            let id = u + run[0];
            while at < old && self.nodes[at].0 < id {
                at += 1;
            }
            added += usize::from(at == old || self.nodes[at].0 != id);
        }
        self.nodes.resize(old + added, (0, 0));
        let (mut read, mut write) = (old, old + added);
        for run in self.buffer.chunk_by(|a, b| a == b).rev() {
            let (id, mut count) = (u + run[0], run.len() as u64);
            while read > leaves && self.nodes[read - 1].0 > id {
                read -= 1;
                write -= 1;
                self.nodes[write] = self.nodes[read];
            }
            if read > leaves && self.nodes[read - 1].0 == id {
                read -= 1;
                count += self.nodes[read].1;
            }
            write -= 1;
            self.nodes[write] = (id, count);
        }
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
    /// One pass over the nodes in post-order ([`Compress`]). A node with
    /// no sibling and no stored parent makes the same decision at every
    /// level of the empty chain above it — rise iff its weight is within
    /// `⌊n/σ⌋` — so it jumps straight to where it next meets mass: a
    /// stored ancestor, or the lowest common ancestor of it and the next
    /// pending subtree. Those meetings are exactly the pair-plus-parent
    /// triples a level-by-level walk decides, so the surviving nodes are
    /// the same; they come out ascending within each depth and are laid
    /// back out shallowest depth first.
    fn compress(&mut self) {
        let threshold = self.n / self.sigma;
        if threshold == 0 {
            return;
        }
        let order = Self::post_order(&self.nodes, self.log_u);
        Compress::run(threshold, order, &mut self.nodes);
    }

    /// Merges another q-digest into this one (the mergeable-summary
    /// operation of Agarwal et al. the paper highlights in §4.2.4).
    ///
    /// Thin wrapper over [`merge_from`](QDigest::merge_from): takes
    /// `other`'s state and leaves it an empty digest over the same
    /// universe.
    ///
    /// # Panics
    /// Panics if the universes or the compression factors differ.
    pub fn merge(&mut self, other: &mut QDigest) {
        let empty = Self::empty(other.log_u, other.sigma);
        self.merge_from(std::mem::replace(other, empty));
    }

    /// Consuming form of [`merge`](QDigest::merge): the primitive the
    /// engine's balanced merge tree folds with
    /// ([`MergeableSummary`](crate::MergeableSummary)).
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
    pub fn merge_from(&mut self, mut other: QDigest) {
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
        let mut merged = Vec::with_capacity(self.nodes.len() + other.nodes.len());
        Self::union_into(&mut merged, &self.nodes, &other.nodes);
        self.nodes = merged;
        self.n += other.n;
        self.settle();
    }

    /// Serializes the digest to a compact, portable byte form (the
    /// sensor-network deployment the q-digest was designed for ships
    /// digests over the network): a 32-byte header followed by the
    /// `(node id, count)` little-endian u64 pairs in ascending id
    /// order. Flushes first, so equal digests serialize equally.
    pub fn to_bytes(&mut self) -> Vec<u8> {
        self.flush();
        let mut out = Vec::with_capacity(HEADER_LEN + self.nodes.len() * 16);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.log_u.to_le_bytes());
        out.extend_from_slice(&self.sigma.to_le_bytes());
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&(self.nodes.len() as u64).to_le_bytes());
        for &(id, count) in &self.nodes {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
        out
    }

    /// Reconstructs a digest from [`QDigest::to_bytes`] output,
    /// validating structure: header, a node count the bytes can hold
    /// (checked before anything is allocated for it), node ids within
    /// the declared tree and strictly ascending, counts summing to `n`
    /// — and then the digest's whole audit, so what decodes here is
    /// what a framed decode accepts.
    pub fn from_bytes(bytes: &[u8]) -> Result<QDigest, DecodeError> {
        // The cursor's only failure is running out of bytes.
        let truncated = |_| DecodeError::Truncated;
        let mut reader = Reader::new(bytes);
        if reader.u32().map_err(truncated)? != MAGIC {
            return Err(DecodeError::BadHeader);
        }
        let log_u = reader.u32().map_err(truncated)?;
        if !(1..=40).contains(&log_u) {
            return Err(DecodeError::BadHeader);
        }
        let sigma = reader.u64().map_err(truncated)?;
        if !Self::sigma_is_valid(sigma) {
            return Err(DecodeError::BadHeader);
        }
        let n = reader.u64().map_err(truncated)?;
        let count = reader.u64().map_err(truncated)?;
        if count > (reader.remaining() / 16) as u64 {
            return Err(DecodeError::Truncated);
        }
        let mut digest = Self::empty(log_u, sigma);
        digest.n = n;
        digest.nodes.reserve_exact(count as usize);
        let max_id = 1u64 << (log_u + 1);
        let mut last_id = 0u64;
        let mut mass = 0u64;
        for _ in 0..count {
            let id = reader.u64().map_err(truncated)?;
            let c = reader.u64().map_err(truncated)?;
            if id == 0 || id >= max_id {
                return Err(DecodeError::BadNodeId(id));
            }
            if id <= last_id {
                return Err(DecodeError::NodesNotAscending(id));
            }
            last_id = id;
            // Adversarial counts could overflow the running sum; an
            // overflow can never equal an honest n, so report it as the
            // count mismatch it is instead of panicking.
            mass = mass.checked_add(c).ok_or(DecodeError::CountMismatch)?;
            digest.nodes.push((id, c));
        }
        if mass != n {
            return Err(DecodeError::CountMismatch);
        }
        digest.check_invariants().map_err(DecodeError::Invariant)?;
        Ok(digest)
    }

    /// The stored nodes in post-order of the tree: by right endpoint,
    /// the deeper of two nodes that end together first — the order
    /// COMPRESS decides in and the queries accumulate in.
    ///
    /// A counting sort on a packed key — the end of the node's range in
    /// leaf ids, then its height — by the high bits of the end, about a
    /// bucket per two to four nodes; each bucket is then sorted on the
    /// whole key, which is unique and gives the id back.
    fn post_order(nodes: &[Node], log_u: u32) -> Vec<Node> {
        let key = |id: u64| {
            let height = log_u - Self::depth(id);
            ((id + 1) << height) << 6 | u64::from(height)
        };
        let bits = (usize::BITS - nodes.len().leading_zeros())
            .saturating_sub(2)
            .min(log_u);
        // The end of the first leaf, the smallest end there is.
        let first_end = (1 << log_u) + 1;
        let bucket = |key: u64| (((key >> 6) - first_end) >> (log_u - bits)) as usize;
        // `next[b]`: where bucket `b`'s next node goes.
        let mut next = vec![0usize; (1 << bits) + 1];
        for &(id, _) in nodes {
            next[bucket(key(id)) + 1] += 1;
        }
        for b in 1..next.len() {
            next[b] += next[b - 1];
        }
        let mut order = vec![(0, 0); nodes.len()];
        for &(id, count) in nodes {
            let key = key(id);
            let slot = &mut next[bucket(key)];
            order[*slot] = (key, count);
            *slot += 1;
        }
        // Each `next[b]` is now where bucket `b` ends.
        let mut start = 0;
        for &end in &next[..1 << bits] {
            if end - start > 1 {
                order[start..end].sort_unstable_by_key(|&(key, _)| key);
            }
            start = end;
        }
        for node in &mut order {
            node.0 = (node.0 >> 6 >> (node.0 & 63)) - 1;
        }
        order
    }

    /// Builds the form the queries search: the nodes in
    /// [post-order](Self::post_order) with inclusive prefix sums.
    fn build_view(nodes: &[Node], log_u: u32) -> NodeIndex {
        let by_hi = Self::post_order(nodes, log_u);
        let mut cum = 0u64;
        NodeIndex {
            his: by_hi
                .iter()
                .map(|&(id, _)| Self::node_range(log_u, id).1)
                .collect(),
            cum: by_hi
                .iter()
                .map(|node| {
                    cum += node.1;
                    cum
                })
                .collect(),
        }
    }

    /// Applies the buffered updates, then returns the node index —
    /// sorted on the first query after the node array changed.
    fn view(&mut self) -> &NodeIndex {
        self.flush();
        self.view
            .get_or_build(|| Self::build_view(&self.nodes, self.log_u))
    }
}

/// One COMPRESS pass ([`QDigest::compress`]) over the stored nodes in
/// post-order.
///
/// The stack holds the pending subtrees left to right, one [`Pending`]
/// each: a node that may still rise (weight within `⌊n/σ⌋`), carried at
/// the position it was last decided at, or a heavy left child — already
/// kept, it never rises, but it makes its sibling's pair decision fail.
/// The lowest common ancestors of neighbouring entries deepen towards
/// the top, so when a node arrives at most two entries lie in its
/// subtree, one under each child.
struct Compress {
    threshold: u64,
    stack: Vec<Pending>,
    /// The nodes in post-order, read front to back. Its first `kept`
    /// slots are overwritten with the survivors in the order they are
    /// decided — ascending within each depth. That never overtakes the
    /// read: each survivor stands for a node already read, and no node
    /// for two survivors.
    nodes: Vec<Node>,
    kept: usize,
    /// How many survivors lie at each depth.
    per_depth: [usize; 41],
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
}

impl Compress {
    /// Compresses `order`, the stored nodes in post-order, at
    /// `threshold`: `out` is overwritten with the survivors in ascending
    /// id order.
    fn run(threshold: u64, order: Vec<Node>, out: &mut Vec<Node>) {
        let mut pass = Self {
            threshold,
            stack: Vec::with_capacity(64),
            nodes: order,
            kept: 0,
            per_depth: [0; 41],
        };
        for i in 0..pass.nodes.len() {
            let (id, count) = pass.nodes[i];
            pass.arrive(id, count);
        }
        pass.finish(out);
    }

    fn keep(&mut self, node: Node, depth: u32) {
        self.per_depth[depth as usize] += 1;
        self.nodes[self.kept] = node;
        self.kept += 1;
    }

    /// Stored node `id` with `count` arrives.
    fn arrive(&mut self, id: u64, count: u64) {
        let depth = QDigest::depth(id);
        let (promoted, meet) = self.gather(id, depth, count);
        self.push(Pending {
            id,
            weight: promoted.unwrap_or(count),
            depth,
            meet,
        });
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
        let mut reach = match self.stack.last() {
            Some(top) => {
                let d = depth.min(top.depth);
                let diff = (top.id >> (top.depth - d)) ^ (id >> (depth - d));
                d - (64 - diff.leading_zeros())
            }
            None => 0,
        };
        // Every pair whose lowest common ancestor lies deeper than
        // `reach` is finished: no stored node is left in that subtree,
        // so the pair meets there with no parent count.
        while let [.., a, b] = self.stack[..] {
            if b.meet <= reach {
                break;
            }
            self.stack.truncate(self.stack.len() - 2);
            match self.decide(0, [a, b], b.meet + 1) {
                Some(weight) => self.stack.push(Pending {
                    id: b.id >> (b.depth - b.meet),
                    weight,
                    depth: b.meet,
                    meet: a.meet,
                }),
                None => reach = reach.min(a.meet),
            }
        }
        // The entries in `id`'s subtree, one under each child at most.
        if reach != depth {
            return (None, reach);
        }
        match self.stack[..] {
            [.., a, b] if b.meet == depth => {
                self.stack.truncate(self.stack.len() - 2);
                (self.decide(count, [a, b], depth + 1), a.meet)
            }
            [.., c] => {
                self.stack.pop();
                (self.decide(count, [c], depth + 1), c.meet)
            }
            [] => (None, reach),
        }
    }

    /// The pair-plus-parent decision on `children` (left to right, each
    /// strictly below depth `child − 1`) carried up to depth `child`,
    /// and the parent's stored `count`: the promoted weight if it is
    /// within `⌊n/σ⌋`, else the children are kept (the heavy ones
    /// already are) and `None`. A light child rises through the empty
    /// levels; a heavy one stays where it is, and is gone from every
    /// level above its own.
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
        for c in children {
            if c.weight <= threshold {
                self.keep((c.id >> (c.depth - child), c.weight), child);
            }
        }
        None
    }

    /// Puts `entry` on the stack. A heavy node never rises, so it is
    /// kept now; as a right child it decides its pair on the spot, as a
    /// left child it stays as its sibling's blocker.
    fn push(&mut self, entry: Pending) {
        if entry.weight <= self.threshold {
            self.stack.push(entry);
            return;
        }
        if entry.id & 1 == 0 {
            self.keep((entry.id, entry.weight), entry.depth);
            self.stack.push(entry);
            return;
        }
        // The top entry lies under the left sibling iff it meets this
        // node at their parent.
        if entry.depth > 0 && entry.meet + 1 == entry.depth {
            if let Some(top) = self.stack.pop() {
                if top.weight <= self.threshold {
                    self.keep(
                        (top.id >> (top.depth - entry.depth), top.weight),
                        entry.depth,
                    );
                }
            }
        }
        self.keep((entry.id, entry.weight), entry.depth);
    }

    /// Ends the pass at the root — the last arrival if it is stored,
    /// else a meeting with no count — and lays the survivors out in
    /// `out` shallowest depth first: ascending id order.
    fn finish(mut self, out: &mut Vec<Node>) {
        match self.stack[..] {
            [Pending { id: 1, weight, .. }] => self.keep((1, weight), 0),
            [] => {}
            _ => {
                if let (Some(weight), _) = self.gather(1, 0, 0) {
                    self.keep((1, weight), 0);
                }
            }
        }
        let mut next = [0usize; 41];
        let mut at = 0;
        for (slot, &count) in next.iter_mut().zip(&self.per_depth) {
            *slot = at;
            at += count;
        }
        out.clear();
        out.resize(self.kept, (0, 0));
        for &node in &self.nodes[..self.kept] {
            let slot = &mut next[QDigest::depth(node.0) as usize];
            out[*slot] = node;
            *slot += 1;
        }
    }
}

impl crate::MergeableSummary<u64> for QDigest {
    fn merge_from(&mut self, other: Self) {
        QDigest::merge_from(self, other);
    }

    /// Same universe and same σ: a digest built at a coarser ε carries
    /// internal nodes heavier than this one's `⌊n/σ⌋` allows.
    fn merge_compatible(&self, other: &Self) -> bool {
        self.log_u == other.log_u && self.sigma == other.sigma
    }
}

impl crate::codec::WireCodec for QDigest {
    const KIND: crate::codec::Kind = crate::codec::Kind::QDigest;

    /// The frame body is exactly the digest's pre-existing compact
    /// byte form ([`QDigest::to_bytes`]); the shared frame adds the
    /// version/kind header and checksum on top. Encoding flushes the
    /// buffered inserts first, so a digest that was checkpointed or
    /// snapshotted and then continued can hold other nodes, and answer
    /// otherwise, than one that never was; both stay within ε, and the
    /// decoded copy continues exactly as the encoded original
    /// ([`WireCodec::encode_body`](crate::codec::WireCodec::encode_body)).
    fn encode_body(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    fn decode_body(body: &[u8]) -> Result<Self, crate::codec::CodecError> {
        use crate::codec::CodecError;
        QDigest::from_bytes(body).map_err(|e| match e {
            DecodeError::Truncated => CodecError::Truncated,
            DecodeError::BadHeader => CodecError::Malformed("q-digest: bad magic/version header"),
            DecodeError::BadNodeId(_) => CodecError::Malformed("q-digest: node id outside tree"),
            DecodeError::NodesNotAscending(_) => {
                CodecError::Malformed("q-digest: node ids not strictly ascending")
            }
            DecodeError::CountMismatch => {
                CodecError::Malformed("q-digest: node counts do not sum to n")
            }
            DecodeError::Invariant(v) => CodecError::Invariant(v),
        })
    }
}

impl CheckInvariants for QDigest {
    /// q-digest invariants (Shrivastava et al. §3, study §1.2.1):
    /// every stored node id lies inside the dyadic tree over
    /// `[0, 2^log_u)` (so parent/child arithmetic `2id, 2id+1` stays
    /// closed) and exceeds the one before it (the order every walk of
    /// the array assumes), no non-leaf node outweighs `⌊n/σ⌋` (what the
    /// ε bound rests on), nodes and buffered updates together respect
    /// the `3σ` capacity (plus the buffered-"Fast" slack), the node
    /// counts plus buffered updates conserve the stream mass `n`, and a
    /// cached node index equals a rebuild from the node array.
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
        let mut last_id = 0u64;
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
            ensure(id > last_id, ALG, "qdigest.nodes_ascending", || {
                format!("node id {id} stored after node id {last_id}")
            })?;
            last_id = id;
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
        ensure(
            self.view
                .get()
                .is_none_or(|v| *v == Self::build_view(&self.nodes, self.log_u)),
            ALG,
            "qdigest.view_fresh",
            || "cached node index differs from a rebuild (a mutator kept it)".to_string(),
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
    /// nodes entirely below `x`.
    fn rank_estimate(&mut self, x: u64) -> u64 {
        let view = self.view();
        let below = view.his.partition_point(|&hi| hi < x);
        below.checked_sub(1).map_or(0, |last| view.cum[last])
    }

    /// The right endpoint of the first node, in query order, at which
    /// the cumulative count reaches `⌈φ·n⌉`.
    fn quantile(&mut self, phi: f64) -> Option<u64> {
        crate::traits::check_phi(phi);
        if self.n == 0 {
            return None;
        }
        let target = ((phi * self.n as f64).ceil() as u64).max(1);
        let top = self.universe() - 1;
        let view = self.view();
        let at = view.cum.partition_point(|&cum| cum < target);
        Some(view.his.get(at).copied().unwrap_or(top))
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
        a.merge(&mut b);
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
        let mut d = QDigest::new(0.1, 8);
        d.insert(3);
        let good = d.to_bytes();
        assert_eq!(
            QDigest::from_bytes(&good[..10]).err(),
            Some(DecodeError::Truncated)
        );
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            QDigest::from_bytes(&bad_magic).err(),
            Some(DecodeError::BadHeader)
        );
        let mut bad_count = good.clone();
        let last = bad_count.len() - 1;
        bad_count[last] ^= 0x01; // corrupt a node count
        assert!(matches!(
            QDigest::from_bytes(&bad_count),
            Err(DecodeError::CountMismatch) | Err(DecodeError::BadNodeId(_))
        ));
        assert_eq!(QDigest::from_bytes(&[]).err(), Some(DecodeError::Truncated));
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
        let cases: Vec<(&str, Vec<u8>, DecodeError)> = vec![
            (
                "count = u64::MAX",
                crafted_body(8, 80, 2, u64::MAX, &leaves),
                DecodeError::Truncated,
            ),
            (
                "count asks for gigabytes",
                crafted_body(8, 80, 2, 1 << 30, &leaves),
                DecodeError::Truncated,
            ),
            (
                "count one past the records",
                crafted_body(8, 80, 2, 3, &leaves),
                DecodeError::Truncated,
            ),
            (
                "duplicated id",
                crafted_body(8, 80, 2, 2, &[(259, 1), (259, 1)]),
                DecodeError::NodesNotAscending(259),
            ),
            (
                "descending ids",
                crafted_body(8, 80, 2, 2, &[(265, 1), (259, 1)]),
                DecodeError::NodesNotAscending(259),
            ),
            (
                "σ = 0",
                crafted_body(8, 0, 2, 2, &leaves),
                DecodeError::BadHeader,
            ),
            (
                "σ = u64::MAX",
                crafted_body(8, u64::MAX, 2, 2, &leaves),
                DecodeError::BadHeader,
            ),
            (
                "3σ + 1 overflows",
                crafted_body(8, THIRD, 2, 2, &leaves),
                DecodeError::BadHeader,
            ),
        ];
        for (what, body, expected) in cases {
            assert_eq!(
                QDigest::from_bytes(&body).err(),
                Some(expected.clone()),
                "{what}"
            );
            let through_frame = <QDigest as WireCodec>::from_bytes(&framed(&body));
            match expected {
                DecodeError::Truncated => {
                    assert_eq!(through_frame.err(), Some(CodecError::Truncated), "{what}")
                }
                _ => assert!(
                    matches!(through_frame, Err(CodecError::Malformed(_))),
                    "{what}: {through_frame:?}"
                ),
            }
        }
        // The largest σ a header may carry decodes, audits and takes
        // updates without reserving its 3σ-value buffer.
        let body = crafted_body(8, THIRD - 1, 2, 2, &leaves);
        let mut huge = <QDigest as WireCodec>::from_bytes(&framed(&body)).expect("valid frame");
        huge.insert(7);
        assert_eq!(huge.quantile(0.5), Some(7));
        assert!(huge.buffer.capacity() <= MIN_BUFFER);
    }

    #[test]
    fn the_byte_form_decoder_runs_the_audit_the_frame_runs() {
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
            match QDigest::from_bytes(&body) {
                Err(DecodeError::Invariant(v)) => assert_eq!(v.invariant, rule, "{what}"),
                other => panic!("{what}: not refused: {other:?}"),
            }
            match <QDigest as WireCodec>::from_bytes(&framed(&body)) {
                Err(CodecError::Invariant(v)) => assert_eq!(v.invariant, rule, "{what}"),
                other => panic!("{what}: frame not refused: {other:?}"),
            }
        }
        // One leaf fewer is within the budget, and decodes both ways.
        let body = crafted_body(9, 1, 259, 259, &leaves[..259]);
        assert!(QDigest::from_bytes(&body).is_ok());
        assert!(<QDigest as WireCodec>::from_bytes(&framed(&body)).is_ok());
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

    /// Runs COMPRESS on `s` as it stands and checks it node for node
    /// against the hash-map oracle; whether it merged anything.
    fn compress_against_the_oracle(s: &mut QDigest, what: &str) -> bool {
        let expected = compress_oracle(s.log_u, s.n / s.sigma, &s.nodes);
        let before = s.nodes.len();
        s.compress();
        assert_eq!(s.nodes, expected, "{what}");
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
        QDigest::union_into(&mut grown, &s.nodes, &fresh);
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
            QDigest::union_into(&mut s.nodes, &small.nodes, &large.nodes);
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
    fn merge_from_consuming_matches_wrapper() {
        let build = |step: u64| {
            let mut s = QDigest::new(0.05, 14);
            for x in 0..20_000u64 {
                s.insert((x * step) % (1 << 14));
            }
            s
        };
        let mut via_wrapper = build(7);
        let mut donor = build(13);
        via_wrapper.merge(&mut donor);
        let mut via_consume = build(7);
        via_consume.merge_from(build(13));
        assert_eq!(via_wrapper.n(), via_consume.n());
        assert_eq!(via_wrapper.to_bytes(), via_consume.to_bytes());
        // The drained donor is a usable empty digest over the universe.
        assert_eq!(donor.n(), 0);
        donor.insert(9);
        assert_eq!(donor.quantile(0.5), Some(9));
    }

    #[test]
    fn view_is_never_stale_under_any_interleaving() {
        use crate::buffers::oracle::check_view_never_stale;
        use crate::codec::WireCodec;
        // The per-call sweep: sort the nodes by (right endpoint, larger
        // left endpoint first), accumulate to ⌈φ·n⌉; ranks by a scan of
        // every node.
        fn expect(s: &mut QDigest, phis: &[f64], xs: &[u64]) -> (Vec<Option<u64>>, Vec<u64>) {
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
            let mut other = QDigest::new(0.1, s.log_u);
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
        for (universe, seed) in [(48, 1), (1 << 12, 2)] {
            check_view_never_stale(
                QDigest::new(0.1, 12),
                universe,
                seed,
                expect,
                &[merge, roundtrip],
            );
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
        use crate::random::RandomSketch;
        use std::hint::black_box;
        use std::time::Instant;
        fn best_secs<S: QuantileSummary<u64>>(rows: &[u64], make: impl Fn() -> S) -> f64 {
            (0..3)
                .map(|_| {
                    let mut s = make();
                    let start = Instant::now();
                    for &x in rows {
                        s.insert(black_box(x));
                    }
                    black_box(s.n());
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        }
        let mut rng = Xoshiro256pp::new(0x5017e);
        let rows: Vec<u64> = (0..1 << 19).map(|_| rng.next_below(1 << 32)).collect();
        let digest = best_secs(&rows, || QDigest::new(1e-3, 32));
        let random = best_secs(&rows, || RandomSketch::new(1e-3, 7));
        let ratio = digest / random;
        println!("q-digest insert is {ratio:.2}x RandomSketch's");
        assert!(
            ratio <= 5.0,
            "q-digest insert is {ratio:.1}x RandomSketch's"
        );
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
        // Two leaves too heavy to merge: the tail of the array.
        for x in [4_000u64, 4_095] {
            s.insert_batch(&[x; 100]);
        }
        s.flush();
        s
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
        // A mutator that forgot to drop the view: move one leaf's count
        // to another, mass conserved.
        let last = s.nodes.len() - 1;
        let moved = std::mem::replace(&mut s.nodes[last - 1].1, 0);
        s.nodes[last].1 += moved;
        assert_eq!(violated(&s), "qdigest.view_fresh");
    }

    #[test]
    fn auditor_catches_broken_mass() {
        let mut s = filled();
        let last = s.nodes.len() - 1;
        s.nodes[last].1 += 17;
        assert_eq!(violated(&s), "qdigest.mass_conservation");
    }
}
