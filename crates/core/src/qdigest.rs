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
//! Updates are buffered and applied in batches ("Fast"), with COMPRESS
//! re-run when the node map outgrows `3σ`, giving amortized O(1)-ish
//! updates — the behaviour Figures 5e/5f and 7a measure.

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
// ^ audited: indices and casts here are bounded by structural
// invariants (see `check_invariants` impls and docs/ANALYSIS.md);
// this module is on the `cargo xtask check` allowlist.

use std::collections::HashMap;

use crate::buffers::CachedView;
use crate::QuantileSummary;
use sqs_util::space::{words, SpaceUsage};

/// Errors from [`QDigest::from_bytes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Wrong magic or version.
    BadHeader,
    /// Byte stream ends mid-record.
    Truncated,
    /// A node id is outside the declared universe's tree.
    BadNodeId(u64),
    /// Node counts don't sum to the declared n.
    CountMismatch,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadHeader => write!(f, "bad magic/version header"),
            DecodeError::Truncated => write!(f, "byte stream truncated"),
            DecodeError::BadNodeId(id) => write!(f, "node id {id} outside tree"),
            DecodeError::CountMismatch => write!(f, "node counts do not sum to n"),
        }
    }
}

impl std::error::Error for DecodeError {}

const MAGIC: u32 = 0x5144_4731; // "QDG1"

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
    /// Heap-numbered dyadic node → count. Root is id 1; the leaf for
    /// value `x` is id `u + x`; node `id` has children `2id, 2id+1`.
    counts: HashMap<u64, u64>,
    buffer: Vec<u64>,
    buffer_cap: usize,
    /// The queries' sorted form of `counts`; dropped wherever `counts`
    /// changes (`flush`, `merge_from`).
    view: CachedView<NodeIndex>,
}

impl QDigest {
    /// Creates a q-digest for universe size `2^log_u` with rank error
    /// at most `ε·n`.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1` and `1 ≤ log_u ≤ 40`.
    pub fn new(eps: f64, log_u: u32) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        assert!(
            (1..=40).contains(&log_u),
            "log_u must be in 1..=40, got {log_u}"
        );
        let sigma = ((log_u as f64) / eps).ceil() as u64;
        Self {
            log_u,
            sigma,
            n: 0,
            counts: HashMap::new(),
            buffer: Vec::with_capacity(256),
            buffer_cap: 256,
            view: CachedView::default(),
        }
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
        self.counts.len()
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

    /// Applies buffered leaf increments.
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.view.invalidate();
        let u = self.universe();
        let buf = std::mem::take(&mut self.buffer);
        for x in buf {
            *self.counts.entry(u + x).or_insert(0) += 1;
        }
        if self.counts.len() as u64 > 3 * self.sigma {
            self.compress();
        }
    }

    /// The q-digest COMPRESS: bottom-up, merge any child pair whose
    /// combined weight with the parent is within `⌊n/σ⌋`.
    fn compress(&mut self) {
        let threshold = self.n / self.sigma;
        if threshold == 0 {
            return;
        }
        // Bucket node ids by depth so merges feed the next level up.
        let mut by_depth: Vec<Vec<u64>> = vec![Vec::new(); self.log_u as usize + 1];
        for &id in self.counts.keys() {
            by_depth[Self::depth(id) as usize].push(id);
        }
        for d in (1..=self.log_u as usize).rev() {
            let ids = std::mem::take(&mut by_depth[d]);
            for id in ids {
                // Canonicalize to the even child; skip ids already merged.
                let left = id & !1;
                if !self.counts.contains_key(&left) && !self.counts.contains_key(&(left | 1)) {
                    continue;
                }
                let parent = left >> 1;
                let cl = self.counts.get(&left).copied().unwrap_or(0);
                let cr = self.counts.get(&(left | 1)).copied().unwrap_or(0);
                let cp = self.counts.get(&parent).copied().unwrap_or(0);
                if cl + cr + cp <= threshold {
                    self.counts.remove(&left);
                    self.counts.remove(&(left | 1));
                    let existed = self.counts.insert(parent, cl + cr + cp).is_some();
                    if !existed {
                        by_depth[d - 1].push(parent);
                    }
                }
            }
        }
    }

    /// Merges another q-digest into this one (the mergeable-summary
    /// operation of Agarwal et al. the paper highlights in §4.2.4).
    ///
    /// Thin wrapper over [`merge_from`](QDigest::merge_from): takes
    /// `other`'s state and leaves it an empty digest over the same
    /// universe.
    ///
    /// # Panics
    /// Panics if the universes differ.
    pub fn merge(&mut self, other: &mut QDigest) {
        let empty = QDigest {
            log_u: other.log_u,
            sigma: other.sigma,
            n: 0,
            counts: HashMap::new(),
            buffer: Vec::with_capacity(other.buffer_cap),
            buffer_cap: other.buffer_cap,
            view: CachedView::default(),
        };
        self.merge_from(std::mem::replace(other, empty));
    }

    /// Consuming form of [`merge`](QDigest::merge): the primitive the
    /// engine's balanced merge tree folds with
    /// ([`MergeableSummary`](crate::MergeableSummary)).
    ///
    /// COMPRESS runs only when the combined node map actually exceeds
    /// its `3σ` budget, not unconditionally — a k-way merge tree
    /// folding k ε-digests therefore compresses O(k·|digest|/σ) times
    /// total instead of once per internal node (no double-compression
    /// of an already-compact digest).
    ///
    /// # Panics
    /// Panics if the universes differ.
    pub fn merge_from(&mut self, mut other: QDigest) {
        assert_eq!(self.log_u, other.log_u, "q-digest merge: universe mismatch");
        self.flush();
        other.flush();
        if other.n == 0 {
            return; // merging nothing is the identity
        }
        self.view.invalidate();
        for (&id, &c) in &other.counts {
            *self.counts.entry(id).or_insert(0) += c;
        }
        self.n += other.n;
        if self.counts.len() as u64 > 3 * self.sigma {
            self.compress();
        }
    }

    /// Serializes the digest to a compact, portable byte form (the
    /// sensor-network deployment the q-digest was designed for ships
    /// digests over the network): a fixed header followed by sorted
    /// `(node id, count)` little-endian u64 pairs. Flushes first, so
    /// equal digests serialize equally.
    pub fn to_bytes(&mut self) -> Vec<u8> {
        self.flush();
        let mut ids: Vec<u64> = self.counts.keys().copied().collect();
        ids.sort_unstable();
        let mut out = Vec::with_capacity(28 + ids.len() * 16);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&self.log_u.to_le_bytes());
        out.extend_from_slice(&self.sigma.to_le_bytes());
        out.extend_from_slice(&self.n.to_le_bytes());
        out.extend_from_slice(&(ids.len() as u64).to_le_bytes());
        for id in ids {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&self.counts[&id].to_le_bytes());
        }
        out
    }

    /// Reconstructs a digest from [`QDigest::to_bytes`] output,
    /// validating structure (header, node ids within the declared
    /// tree, counts summing to `n`).
    pub fn from_bytes(bytes: &[u8]) -> Result<QDigest, DecodeError> {
        let take_u32 = |b: &[u8], at: usize| -> Result<u32, DecodeError> {
            b.get(at..at + 4)
                .map(|s| {
                    u32::from_le_bytes(
                        s.try_into()
                            .expect("QDigest invariant: chunks_exact(4) yields 4-byte slices"),
                    )
                })
                .ok_or(DecodeError::Truncated)
        };
        let take_u64 = |b: &[u8], at: usize| -> Result<u64, DecodeError> {
            b.get(at..at + 8)
                .map(|s| {
                    u64::from_le_bytes(
                        s.try_into()
                            .expect("QDigest invariant: chunks_exact(8) yields 8-byte slices"),
                    )
                })
                .ok_or(DecodeError::Truncated)
        };
        if take_u32(bytes, 0)? != MAGIC {
            return Err(DecodeError::BadHeader);
        }
        let log_u = take_u32(bytes, 4)?;
        if !(1..=40).contains(&log_u) {
            return Err(DecodeError::BadHeader);
        }
        let sigma = take_u64(bytes, 8)?;
        let n = take_u64(bytes, 16)?;
        let count = take_u64(bytes, 24)? as usize;
        let mut counts = HashMap::with_capacity(count);
        let max_id = 1u64 << (log_u + 1);
        let mut total_at_some_level = 0u64;
        for i in 0..count {
            let at = 32 + i * 16;
            let id = take_u64(bytes, at)?;
            let c = take_u64(bytes, at + 8)?;
            if id == 0 || id >= max_id {
                return Err(DecodeError::BadNodeId(id));
            }
            // Adversarial counts could overflow the running sum; an
            // overflow can never equal an honest n, so report it as the
            // count mismatch it is instead of panicking.
            total_at_some_level = total_at_some_level
                .checked_add(c)
                .ok_or(DecodeError::CountMismatch)?;
            counts.insert(id, c);
        }
        if total_at_some_level != n {
            return Err(DecodeError::CountMismatch);
        }
        Ok(QDigest {
            log_u,
            sigma: sigma.max(1),
            n,
            counts,
            buffer: Vec::with_capacity(256),
            buffer_cap: 256,
            view: CachedView::default(),
        })
    }

    /// Nodes sorted in the q-digest query order: by right endpoint,
    /// smaller intervals first on ties (post-order of the tree).
    fn ordered_nodes(counts: &HashMap<u64, u64>, log_u: u32) -> Vec<(u64, u64, u64)> {
        // (hi, lo, count)
        let mut nodes: Vec<(u64, u64, u64)> = counts
            .iter()
            .map(|(&id, &c)| {
                let (lo, hi) = Self::node_range(log_u, id);
                (hi, lo, c)
            })
            .collect();
        nodes.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        nodes
    }

    /// Sorts the node map once into the form the queries search.
    fn build_view(counts: &HashMap<u64, u64>, log_u: u32) -> NodeIndex {
        let nodes = Self::ordered_nodes(counts, log_u);
        let mut cum = 0u64;
        NodeIndex {
            his: nodes.iter().map(|n| n.0).collect(),
            cum: nodes
                .iter()
                .map(|n| {
                    cum += n.2;
                    cum
                })
                .collect(),
        }
    }

    /// Applies the buffered updates, then returns the node index —
    /// sorted on the first query after the node map changed.
    fn view(&mut self) -> &NodeIndex {
        self.flush();
        self.view
            .get_or_build(|| Self::build_view(&self.counts, self.log_u))
    }
}

impl crate::MergeableSummary<u64> for QDigest {
    fn merge_from(&mut self, other: Self) {
        QDigest::merge_from(self, other);
    }

    fn merge_compatible(&self, other: &Self) -> bool {
        self.log_u == other.log_u
    }
}

impl crate::codec::WireCodec for QDigest {
    const WIRE_KIND: u8 = crate::codec::KIND_QDIGEST;

    /// The frame body is exactly the digest's pre-existing compact
    /// byte form ([`QDigest::to_bytes`]); the shared frame adds the
    /// version/kind header and checksum on top.
    fn encode_body(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bytes());
    }

    fn decode_body(body: &[u8]) -> Result<Self, crate::codec::CodecError> {
        use crate::codec::CodecError;
        QDigest::from_bytes(body).map_err(|e| match e {
            DecodeError::Truncated => CodecError::Truncated,
            DecodeError::BadHeader => CodecError::Malformed("q-digest: bad magic/version header"),
            DecodeError::BadNodeId(_) => CodecError::Malformed("q-digest: node id outside tree"),
            DecodeError::CountMismatch => {
                CodecError::Malformed("q-digest: node counts do not sum to n")
            }
        })
    }
}

impl sqs_util::audit::CheckInvariants for QDigest {
    /// q-digest invariants (Shrivastava et al. §3, study §1.2.1):
    /// every stored node id lies inside the dyadic tree over
    /// `[0, 2^log_u)` (so parent/child arithmetic `2id, 2id+1` stays
    /// closed), the node count respects the `3σ` capacity (plus the
    /// buffered-"Fast" slack of one unflushed buffer), the node counts
    /// plus buffered updates conserve the stream mass `n`, and a cached
    /// node index equals a rebuild from the node map.
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "FastQDigest";
        ensure(
            (1..=40).contains(&self.log_u),
            ALG,
            "qdigest.log_u_range",
            || format!("log_u = {} outside 1..=40", self.log_u),
        )?;
        ensure(self.sigma >= 1, ALG, "qdigest.sigma_positive", || {
            format!("σ = {} must be ≥ 1", self.sigma)
        })?;
        let max_id = 1u64 << (self.log_u + 1);
        let mut mass = 0u64;
        for (&id, &c) in &self.counts {
            ensure(id >= 1 && id < max_id, ALG, "qdigest.node_in_tree", || {
                format!("node id {id} outside the heap numbering [1, {max_id})")
            })?;
            ensure(
                Self::depth(id) <= self.log_u,
                ALG,
                "qdigest.depth_bound",
                || format!("node id {id} deeper than the leaf level {}", self.log_u),
            )?;
            mass += c;
        }
        ensure(
            mass + self.buffer.len() as u64 == self.n,
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
            self.buffer.len() <= self.buffer_cap,
            ALG,
            "qdigest.buffer_bound",
            || {
                format!(
                    "{} buffered > capacity {}",
                    self.buffer.len(),
                    self.buffer_cap
                )
            },
        )?;
        ensure(
            self.counts.len() <= 3 * self.sigma as usize + self.buffer_cap,
            ALG,
            "qdigest.node_capacity",
            || {
                format!(
                    "{} nodes > 3σ = {} (+ {} buffer slack)",
                    self.counts.len(),
                    3 * self.sigma,
                    self.buffer_cap
                )
            },
        )?;
        ensure(
            self.view
                .get()
                .is_none_or(|v| *v == Self::build_view(&self.counts, self.log_u)),
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
        self.buffer.push(x);
        if self.buffer.len() >= self.buffer_cap {
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
            let room = self.buffer_cap - self.buffer.len();
            let take = room.min(rest.len()).max(1);
            let (chunk, tail) = rest.split_at(take);
            for &x in chunk {
                assert!(x < u, "value {x} outside universe 2^{}", self.log_u);
            }
            self.buffer.extend_from_slice(chunk);
            self.n += take as u64;
            rest = tail;
            if self.buffer.len() >= self.buffer_cap {
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
        // Per stored node: id + count + one hash-slot pointer (3 words);
        // plus the update buffer capacity.
        words(self.counts.len() * 3 + self.buffer_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_util::exact::{observed_errors, probe_phis, ExactQuantiles};
    use sqs_util::rng::Xoshiro256pp;

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
        let bound = 3 * s.sigma() as usize + 256; // slack for the post-compress buffer refill
        assert!(s.node_count() <= bound, "{} > {bound}", s.counts.len());
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
        assert!(s.node_count() <= 12, "nodes = {}", s.counts.len());
    }

    #[test]
    fn empty_and_bounds() {
        let mut s = QDigest::new(0.1, 8);
        assert_eq!(s.quantile(0.5), None);
        s.insert(255);
        assert_eq!(s.quantile(0.5), Some(255));
    }

    #[test]
    fn serialization_roundtrips() {
        let mut rng = Xoshiro256pp::new(50);
        let mut d = QDigest::new(0.02, 16);
        for _ in 0..50_000 {
            d.insert(rng.next_below(1 << 16));
        }
        let bytes = d.to_bytes();
        let mut back = QDigest::from_bytes(&bytes).expect("roundtrip");
        assert_eq!(back.n(), d.n());
        assert_eq!(back.log_u(), d.log_u());
        for phi in [0.1, 0.5, 0.9] {
            assert_eq!(back.quantile(phi), d.quantile(phi), "phi={phi}");
        }
        // Deserialized digests keep working as streams and merges.
        back.insert(7);
        assert_eq!(back.n(), d.n() + 1);
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

    #[test]
    #[should_panic(expected = "outside universe")]
    fn rejects_out_of_universe() {
        let mut s = QDigest::new(0.1, 8);
        s.insert(256);
    }

    #[test]
    fn insert_batch_is_rank_equivalent_to_itemwise() {
        // Bulk insertion hits the same flush boundaries as itemwise
        // insertion, so the digests are byte-for-byte identical.
        let mut rng = Xoshiro256pp::new(60);
        let data: Vec<u64> = (0..80_000).map(|_| rng.next_below(1 << 16)).collect();
        let mut itemwise = QDigest::new(0.02, 16);
        let mut batched = QDigest::new(0.02, 16);
        for &x in &data {
            itemwise.insert(x);
        }
        for chunk in data.chunks(1013) {
            batched.insert_batch(chunk);
        }
        assert_eq!(itemwise.n(), batched.n());
        assert_eq!(itemwise.to_bytes(), batched.to_bytes());
        for x in [100u64, 30_000, 60_000] {
            assert_eq!(itemwise.rank_estimate(x), batched.rank_estimate(x));
        }
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_batch_rejects_out_of_universe() {
        let mut s = QDigest::new(0.1, 8);
        s.insert_batch(&[1, 2, 300]);
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
        // The per-call sweep: sort the node map, accumulate to ⌈φ·n⌉;
        // ranks by a scan of every node.
        fn expect(s: &mut QDigest, phis: &[f64], xs: &[u64]) -> (Vec<Option<u64>>, Vec<u64>) {
            s.flush();
            let nodes = QDigest::ordered_nodes(&s.counts, s.log_u);
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
        s
    }

    #[test]
    fn auditor_catches_out_of_tree_node() {
        let mut s = filled();
        s.counts.insert(1u64 << (s.log_u + 2), 1);
        let err = s.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "FastQDigest");
        assert_eq!(err.invariant, "qdigest.node_in_tree");
    }

    #[test]
    fn auditor_catches_a_view_kept_across_a_mutation() {
        let mut s = filled();
        let _ = s.quantile(0.5);
        s.check_invariants().expect("a fresh view passes");
        // A mutator that forgot to drop the view: move one node's
        // count to another, mass conserved.
        let moved = {
            let c = s.counts.values_mut().next().expect("nonempty");
            std::mem::replace(c, 0)
        };
        *s.counts.values_mut().last().expect("nonempty") += moved;
        assert_eq!(
            s.check_invariants().unwrap_err().invariant,
            "qdigest.view_fresh"
        );
    }

    #[test]
    fn auditor_catches_broken_mass() {
        let mut s = filled();
        *s.counts.values_mut().next().expect("nonempty") += 17;
        assert_eq!(
            s.check_invariants().unwrap_err().invariant,
            "qdigest.mass_conservation"
        );
    }
}
