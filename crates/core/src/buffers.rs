//! The buffer pool of the sampling-based summaries (`Random`, `MRL99`,
//! `MRL98`) and the machinery around it.
//!
//! All three are one compactor hierarchy: a `Pool` of `b` buffers of
//! `cap` weighted samples that is filled one buffer at a time and, when
//! no buffer is empty, frees one by collapsing several into one. The
//! pool owns everything the three do alike — the slots, the fill, the
//! sort-and-release of a full buffer, the replacement of a set of
//! buffers by their collapse, the read side and the audit of all that.
//! Each summary keeps what tells it apart: its sizing, whether a
//! `GroupSampler` thins the arrivals, and *which* buffers collapse at
//! *what* offset. The collapses reduce to two primitives over sorted
//! buffers:
//!
//! * [`merge_equal_level`] — the `Random` rule (§2.2): merge two
//!   sorted, equal-weight buffers and keep either the odd or the even
//!   positions of the combined sequence, each with probability 1/2.
//! * [`weighted_collapse`] — the MRL COLLAPSE: merge any number of
//!   sorted buffers with arbitrary integer weights into `out_size`
//!   samples, selecting the elements whose *expanded* positions (each
//!   element repeated `weight` times) hit an arithmetic progression of
//!   targets with a chosen offset. A random offset gives the MRL99
//!   unbiased collapse; the fixed midpoint offset gives the
//!   deterministic MRL98 collapse.
//!
//! The write side's `GroupSampler` thins the arrivals that feed a
//! `Random` or `MRL99` fill buffer to one per `2^level`; the read side
//! is a `RankIndex` over the union of all live buffers, which the pool
//! keeps in a `CachedView` between mutations.

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
// ^ audited: indices and casts here are bounded by structural
// invariants (see `check_invariants` impls and docs/ANALYSIS.md);
// this module is on the `cargo xtask check` allowlist.

/// Merges two sorted equal-weight buffers, keeping odd (`take_odd`)
/// or even positions of the merged sequence (0-indexed).
///
/// With `|a| = |b| = s` the result has exactly `s` elements and
/// represents the union at twice the weight.
pub fn merge_equal_level<T: Ord + Copy>(a: &[T], b: &[T], take_odd: bool) -> Vec<T> {
    debug_assert!(a.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(b.windows(2).all(|w| w[0] <= w[1]));
    let total = a.len() + b.len();
    let mut out = Vec::with_capacity(total / 2 + 1);
    let (mut i, mut j) = (0usize, 0usize);
    let mut pos = 0usize;
    let want = usize::from(take_odd);
    while i < a.len() || j < b.len() {
        let x = if j >= b.len() || (i < a.len() && a[i] <= b[j]) {
            let v = a[i];
            i += 1;
            v
        } else {
            let v = b[j];
            j += 1;
            v
        };
        if pos % 2 == want {
            out.push(x);
        }
        pos += 1;
    }
    out
}

/// Collapses sorted buffers with per-buffer integer weights into
/// `out_size` samples.
///
/// Conceptually each buffer's elements are expanded `weight`-fold and
/// the combined expanded sequence (length `W = Σ weight_i · len_i`) is
/// sampled at positions `offset + ⌊j·W/out_size⌋` for
/// `j = 0..out_size`. `offset` must be in `[0, W/out_size)`; draw it
/// uniformly for the unbiased MRL99 collapse, or pass
/// `W/(2·out_size)` for the deterministic MRL98 midpoint rule.
///
/// Returns the sampled elements (sorted) and the total expanded weight
/// `W`; each output element represents `W/out_size` of the input mass.
///
/// # Panics
/// Panics if `out_size == 0`, all buffers are empty, or `offset` is
/// out of range.
pub fn weighted_collapse<T: Ord + Copy>(
    bufs: &[(&[T], u64)],
    out_size: usize,
    offset: u64,
) -> (Vec<T>, u64) {
    assert!(out_size > 0, "weighted_collapse: out_size must be positive");
    let total_w: u64 = bufs.iter().map(|(d, w)| d.len() as u64 * w).sum();
    assert!(total_w > 0, "weighted_collapse: no input mass");
    let stride = total_w / out_size as u64;
    assert!(
        offset < stride.max(1),
        "weighted_collapse: offset {offset} out of range (stride {stride})"
    );

    // Flatten to (value, weight) and sort by value; buffer sizes are
    // small (O(1/ε·polylog)), so the O(N log N) flatten is the paper's
    // own cost model for a collapse.
    let mut items: Vec<(T, u64)> = Vec::with_capacity(bufs.iter().map(|(d, _)| d.len()).sum());
    for (data, w) in bufs {
        debug_assert!(data.windows(2).all(|x| x[0] <= x[1]));
        items.extend(data.iter().map(|&v| (v, *w)));
    }
    items.sort_unstable_by_key(|x| x.0);

    let mut out = Vec::with_capacity(out_size);
    let mut cum = 0u64; // expanded positions consumed so far
    let mut j = 0u64; // next target index
    for (v, w) in items {
        let hi = cum + w;
        // Emit every target position falling inside [cum, hi).
        while j < out_size as u64 {
            let target = offset + (j * total_w) / out_size as u64;
            if target < hi {
                out.push(v);
                j += 1;
            } else {
                break;
            }
        }
        cum = hi;
        if j == out_size as u64 {
            break;
        }
    }
    debug_assert_eq!(out.len(), out_size);
    (out, total_w)
}

/// The level sampler that feeds a fill buffer of `Random` and `MRL99`:
/// out of every group of `2^level` consecutive arrivals it keeps the
/// one at a position drawn uniformly when the group starts.
///
/// Between calls the sampler is always inside a group (`pos < size`).
/// A group that completes hands its sample over and leaves the sampler
/// *dormant* — the state of [`new`](GroupSampler::new), a level-0
/// group nothing has entered — until the owner starts the next one.
/// Whether a row is looked at depends only on its position, so
/// [`offer_slice`](GroupSampler::offer_slice) steps over a whole span
/// of rows at once and ends in the state the same rows would leave
/// through [`offer`](GroupSampler::offer) one by one.
#[derive(Debug, Clone)]
pub(crate) struct GroupSampler<T> {
    /// Rows per group, `2^level`.
    size: u64,
    /// Rows of the current group already seen.
    pos: u64,
    /// Position inside the group of the row to keep.
    target: u64,
    /// The kept row, once `pos` has passed `target`.
    choice: Option<T>,
}

impl<T: Copy> GroupSampler<T> {
    /// A dormant sampler.
    pub(crate) fn new() -> Self {
        Self {
            size: 1,
            pos: 0,
            target: 0,
            choice: None,
        }
    }

    /// Abandons the group in progress, as a merge does.
    pub(crate) fn park(&mut self) {
        *self = Self::new();
    }

    /// Begins a group of `2^level` rows. The one RNG draw a group
    /// costs happens here, and not at all at level 0.
    #[inline]
    pub(crate) fn start(&mut self, level: u32, rng: &mut sqs_util::rng::Xoshiro256pp) {
        let size = 1u64 << level;
        *self = Self {
            size,
            pos: 0,
            target: if level == 0 { 0 } else { rng.next_below(size) },
            choice: None,
        };
    }

    /// Whether rows of an unfinished group have been seen.
    #[cfg(test)]
    pub(crate) fn is_mid_group(&self) -> bool {
        self.pos > 0
    }

    /// Rows per group (audits: must match the fill buffer's weight).
    pub(crate) fn size(&self) -> u64 {
        self.size
    }

    /// Feeds one row; returns the group's sample if `x` completed it.
    #[inline]
    pub(crate) fn offer(&mut self, x: T) -> Option<T> {
        if self.pos == self.target {
            self.choice = Some(x);
        }
        self.pos += 1;
        self.finish_if_complete()
    }

    /// Feeds as many rows of `xs` as the current group still takes, in
    /// one step; returns how many that was and the group's sample if
    /// they completed it.
    #[inline]
    pub(crate) fn offer_slice(&mut self, xs: &[T]) -> (usize, Option<T>) {
        let room = usize::try_from(self.size - self.pos).unwrap_or(usize::MAX);
        let take = room.min(xs.len());
        if self.pos <= self.target && self.target - self.pos < take as u64 {
            self.choice = Some(xs[(self.target - self.pos) as usize]);
        }
        self.pos += take as u64;
        (take, self.finish_if_complete())
    }

    #[inline]
    fn finish_if_complete(&mut self) -> Option<T> {
        if self.pos < self.size {
            return None;
        }
        let kept = self.choice;
        debug_assert!(kept.is_some(), "a completed group has passed its target");
        self.park();
        kept
    }

    /// The one rule that makes a sampler state safe to continue from,
    /// for the owners' audits and so for every decoded frame: the
    /// group size is a power of two, target and position lie inside
    /// the group, and a choice is pending exactly when the position
    /// has passed the target.
    pub(crate) fn check_invariants(
        &self,
        algorithm: &'static str,
        invariant: &'static str,
    ) -> Result<(), sqs_util::audit::InvariantViolation> {
        sqs_util::audit::ensure(
            self.size.is_power_of_two()
                && self.target < self.size
                && self.pos < self.size
                && self.choice.is_some() == (self.pos > self.target),
            algorithm,
            invariant,
            || {
                format!(
                    "sampler at position {} of a group of {}, target {}, choice {}",
                    self.pos,
                    self.size,
                    self.target,
                    if self.choice.is_some() {
                        "pending"
                    } else {
                        "not pending"
                    }
                )
            },
        )
    }
}

impl GroupSampler<u64> {
    /// Wire form (little-endian): `size`, `pos`, `target` `u64`×3,
    /// choice flag `u8`, choice value `u64` (0 when none is pending).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.size.to_le_bytes());
        out.extend_from_slice(&self.pos.to_le_bytes());
        out.extend_from_slice(&self.target.to_le_bytes());
        out.push(u8::from(self.choice.is_some()));
        out.extend_from_slice(&self.choice.unwrap_or(0).to_le_bytes());
    }

    /// Reads [`encode`](GroupSampler::encode)'s form. The result is
    /// only as sound as the frame: audit it with
    /// [`check_invariants`](GroupSampler::check_invariants) before use.
    pub(crate) fn decode(
        r: &mut crate::codec::Reader<'_>,
    ) -> Result<Self, crate::codec::CodecError> {
        let (size, pos, target) = (r.u64()?, r.u64()?, r.u64()?);
        let has_choice = match r.u8()? {
            0 => false,
            1 => true,
            _ => {
                return Err(crate::codec::CodecError::Malformed(
                    "sampler: choice flag not 0/1",
                ))
            }
        };
        let value = r.u64()?;
        Ok(Self {
            size,
            pos,
            target,
            choice: has_choice.then_some(value),
        })
    }
}

/// A read-side view cached inside a summary: built by the first query
/// after a mutation and dropped by every mutator, like the `sorted`
/// flag of `ReservoirQuantiles`. `clone` never copies it: clones are
/// taken to publish a summary or to feed a merge, which drops it, so a
/// clone costs the same whether or not its source was ever queried.
#[derive(Debug)]
pub(crate) struct CachedView<V>(Option<V>);

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
    pub(crate) fn get_or_build(&mut self, build: impl FnOnce() -> V) -> &V {
        self.0.get_or_insert_with(build)
    }

    /// Drops the view; every mutator of the owning summary calls this.
    #[inline]
    pub(crate) fn invalidate(&mut self) {
        self.0 = None;
    }

    /// The view if one is currently cached.
    pub(crate) fn get(&self) -> Option<&V> {
        self.0.as_ref()
    }
}

/// The read path of every buffer summary: the sorted weighted union of
/// the live buffers with prefix ranks, so that §2.2's
/// `r̂(v) = Σ_X w(X)·|{y ∈ X : y < v}|` and its inverse are binary
/// searches instead of a flatten-and-sort per query.
#[derive(Debug, PartialEq)]
pub(crate) struct RankIndex<T> {
    /// Every live sample, ascending.
    values: Vec<T>,
    /// `rank_before[i]`: the summed weight of the samples sorted before
    /// position `i` — strictly increasing, since every weight is ≥ 1.
    rank_before: Vec<u64>,
    /// The represented mass `W = Σ weight·|buffer|`.
    total: u64,
}

impl<T: Ord + Copy> RankIndex<T> {
    /// Flattens `bufs` (slices of samples with a per-slice weight; the
    /// slices need not be sorted) and sorts the union once.
    pub(crate) fn build(bufs: &[(&[T], u64)]) -> Self {
        let mut items: Vec<(T, u64)> = Vec::with_capacity(bufs.iter().map(|(d, _)| d.len()).sum());
        for (data, w) in bufs {
            items.extend(data.iter().map(|&v| (v, *w)));
        }
        items.sort_unstable_by_key(|x| x.0);
        let mut values = Vec::with_capacity(items.len());
        let mut rank_before = Vec::with_capacity(items.len());
        let mut total = 0u64;
        for (v, w) in items {
            values.push(v);
            rank_before.push(total);
            total += w;
        }
        Self {
            values,
            rank_before,
            total,
        }
    }

    /// Estimated rank of `x`: the summed weight of all sampled
    /// elements strictly smaller than `x`.
    pub(crate) fn rank(&self, x: T) -> u64 {
        let i = self.values.partition_point(|&v| v < x);
        self.rank_before.get(i).copied().unwrap_or(self.total)
    }

    /// φ-quantile: the sampled element whose estimated rank — the mass
    /// strictly before it — is closest to `φ·W` (§2.2), the earlier
    /// one on a tie. `None` when the buffers hold nothing.
    pub(crate) fn quantile(&self, phi: f64) -> Option<T> {
        let target = phi * self.total as f64;
        // Distances to the target shrink up to the last rank ≤ target
        // and grow from the first rank beyond it: one of the two wins.
        let above = self.rank_before.partition_point(|&r| r as f64 <= target);
        let below = above.checked_sub(1)?;
        let dist = |i: usize| (self.rank_before[i] as f64 - target).abs();
        let pick = if above < self.values.len() && dist(above) < dist(below) {
            above
        } else {
            below
        };
        Some(self.values[pick])
    }
}

/// One slot of a [`Pool`].
#[derive(Debug, Clone)]
pub(crate) struct Buffer<T> {
    /// Height in the collapse tree: a fill starts at the level its
    /// owner states, a collapse lands one above its highest input.
    pub(crate) level: u32,
    /// Stream elements each sample stands for.
    pub(crate) weight: u64,
    /// At most `cap` samples, in arrival order until the buffer fills.
    pub(crate) data: Vec<T>,
    /// `|data| = cap`; a full buffer is sorted.
    pub(crate) full: bool,
}

impl<T> Buffer<T> {
    /// Back to an empty slot.
    pub(crate) fn clear(&mut self) {
        self.data.clear();
        (self.level, self.weight, self.full) = (0, 1, false);
    }
}

/// The live weighted buffers (a partial fill included): what a query
/// sees of a pool.
pub(crate) fn live_buffers<T>(buffers: &[Buffer<T>]) -> Vec<(&[T], u64)> {
    buffers
        .iter()
        .filter(|b| !b.data.is_empty())
        .map(|b| (b.data.as_slice(), b.weight))
        .collect()
}

/// `b` buffers of `cap` weighted samples, the stream length and the
/// queries' view of them: the state and the mechanics `Random`, `MRL99`
/// and `MRL98` share. At most one buffer is *the fill* — appended to
/// until it holds `cap` samples, then sorted and released; the owner
/// decides at what level and weight a fill starts and, once no buffer
/// is empty, which buffers [`collapse`](Pool::collapse) into one.
#[derive(Debug, Clone)]
pub(crate) struct Pool<T> {
    /// Per-buffer capacity.
    pub(crate) cap: usize,
    pub(crate) buffers: Vec<Buffer<T>>,
    /// Index of the buffer currently being filled.
    pub(crate) fill: Option<usize>,
    /// Stream elements seen.
    pub(crate) n: u64,
    /// The queries' sorted union of `buffers`; every mutator drops it.
    pub(crate) view: CachedView<RankIndex<T>>,
}

impl<T> Pool<T> {
    /// The preallocated footprint: `b·cap` sample slots plus a weight
    /// and a level/fill word per buffer.
    pub(crate) fn space_bytes(&self) -> usize {
        sqs_util::space::words(self.buffers.len() * (self.cap + 2))
    }
}

impl<T: Ord + Copy> Pool<T> {
    /// `count` empty buffers, preallocated for `cap` samples each.
    pub(crate) fn new(count: usize, cap: usize) -> Self {
        let empty = || Buffer {
            level: 0,
            weight: 1,
            data: Vec::with_capacity(cap),
            full: false,
        };
        Self {
            cap,
            buffers: (0..count).map(|_| empty()).collect(),
            fill: None,
            n: 0,
            view: CachedView::default(),
        }
    }

    /// Whether `other` has this pool's buffer count and capacity, so
    /// that its buffers fit this pool's slots.
    pub(crate) fn same_shape(&self, other: &Self) -> bool {
        self.cap == other.cap && self.buffers.len() == other.buffers.len()
    }

    /// The level `Random` and `MRL99` sample a buffer started now at,
    /// given the height `h` their sizing aims for:
    /// `max(0, ⌈log₂(n/(cap·2^{h−1}))⌉)`.
    pub(crate) fn active_level(&self, h: u32) -> u32 {
        let denom = self.cap as f64 * (1u64 << (h - 1)) as f64;
        let ratio = self.n as f64 / denom;
        if ratio <= 1.0 {
            0
        } else {
            ratio.log2().ceil() as u32
        }
    }

    /// Indices of the buffers holding nothing.
    pub(crate) fn empty_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.buffers.len()).filter(|&i| self.buffers[i].data.is_empty())
    }

    /// Whether every buffer is full — the owner must collapse before
    /// the next fill can start.
    pub(crate) fn all_full(&self) -> bool {
        self.buffers.iter().all(|b| b.full)
    }

    /// Makes buffer `idx` the fill, its samples standing for `weight`
    /// stream elements each at `level`.
    pub(crate) fn start_fill(&mut self, idx: usize, level: u32, weight: u64) {
        (self.buffers[idx].level, self.buffers[idx].weight) = (level, weight);
        self.fill = Some(idx);
    }

    /// Appends one sample to the fill. Returns the fill's level while
    /// it still has room (a sampling owner starts its next group
    /// there) — `None` once this sample filled it and it was released.
    #[inline]
    pub(crate) fn push(&mut self, x: T) -> Option<u32> {
        let idx = self.fill_index();
        self.buffers[idx].data.push(x);
        self.room_or_release(idx)
    }

    /// Appends as many of `xs` as the fill has room for, in one copy;
    /// returns how many that was and what [`push`](Pool::push) would.
    #[inline]
    pub(crate) fn extend(&mut self, xs: &[T]) -> (usize, Option<u32>) {
        let idx = self.fill_index();
        let buf = &mut self.buffers[idx];
        let take = (self.cap - buf.data.len()).min(xs.len());
        buf.data.extend_from_slice(&xs[..take]);
        (take, self.room_or_release(idx))
    }

    #[inline]
    fn fill_index(&self) -> usize {
        self.fill
            .expect("pool invariant: a fill is started before samples are appended")
    }

    #[inline]
    fn room_or_release(&mut self, idx: usize) -> Option<u32> {
        let buf = &self.buffers[idx];
        if buf.data.len() < self.cap {
            return Some(buf.level);
        }
        self.release_fill(idx);
        None
    }

    /// Sorts and releases the fill, now full.
    // Cold — once per buffer of samples — so that the per-sample step
    // around it stays small enough to inline into the owner's `insert`.
    #[cold]
    fn release_fill(&mut self, idx: usize) {
        let buf = &mut self.buffers[idx];
        buf.data.sort_unstable();
        buf.full = true;
        self.fill = None;
    }

    /// Puts `data` at (`level`, `weight`) into the first buffer of
    /// `chosen` and clears the others.
    pub(crate) fn replace(&mut self, chosen: &[usize], level: u32, weight: u64, data: Vec<T>) {
        let (&target, rest) = chosen
            .split_first()
            .expect("pool invariant: a replacement names its target");
        rest.iter().for_each(|&i| self.buffers[i].clear());
        let buf = &mut self.buffers[target];
        (buf.level, buf.weight) = (level, weight);
        buf.full = data.len() == self.cap;
        buf.data = data;
    }

    /// The MRL COLLAPSE of the `chosen` buffers into one full buffer of
    /// their summed weight, one level above the highest of them:
    /// [`weighted_collapse`] at the offset `offset` picks given the
    /// stride `W/cap`.
    pub(crate) fn collapse(&mut self, chosen: &[usize], offset: impl FnOnce(u64) -> u64) {
        let picked = || chosen.iter().map(|&i| &self.buffers[i]);
        let inputs: Vec<(&[T], u64)> = picked().map(|b| (b.data.as_slice(), b.weight)).collect();
        let total_w: u64 = inputs.iter().map(|(d, w)| d.len() as u64 * w).sum();
        let stride = (total_w / self.cap as u64).max(1);
        let (merged, _) = weighted_collapse(&inputs, self.cap, offset(stride));
        let weight = picked().map(|b| b.weight).sum();
        let level = picked().map(|b| b.level).max().map_or(0, |l| l + 1);
        self.replace(chosen, level, weight, merged);
    }

    /// The rank index over the live buffers, sorted on the first query
    /// after a mutation.
    pub(crate) fn view(&mut self) -> &RankIndex<T> {
        self.view
            .get_or_build(|| RankIndex::build(&live_buffers(&self.buffers)))
    }

    /// The rules that hold for any owner's pool — positive weights, no
    /// buffer past `cap`, `full ⇔ |data| = cap`, full buffers sorted,
    /// the fill index in range and not on a full buffer, a cached rank
    /// index equal to a rebuild — reported under the owner's
    /// `algorithm`. Returns the represented mass `Σ weight·|data|`
    /// (saturating), which each owner holds to its own rule against
    /// `n`.
    pub(crate) fn audit(
        &self,
        algorithm: &'static str,
    ) -> Result<u64, sqs_util::audit::InvariantViolation> {
        let broken = |rule: &'static str, what: String| {
            Err(sqs_util::audit::InvariantViolation::new(
                algorithm, rule, what,
            ))
        };
        let cap = self.cap;
        let mut mass = 0u64;
        for (i, b) in self.buffers.iter().enumerate() {
            let (len, w) = (b.data.len(), b.weight);
            if w == 0 {
                return broken(
                    "buffers.weight_positive",
                    format!("buffer {i} has weight 0"),
                );
            }
            if len > cap {
                let what = format!("buffer {i} holds {len} > capacity {cap}");
                return broken("buffers.buffer_overflow", what);
            }
            if b.full != (len == cap) {
                let what = format!("buffer {i}: full = {} but holds {len} of {cap}", b.full);
                return broken("buffers.fill_flag", what);
            }
            if b.full && !b.data.windows(2).all(|w| w[0] <= w[1]) {
                let what = format!("full buffer {i} at weight {w} is not sorted");
                return broken("buffers.full_buffer_sorted", what);
            }
            mass = mass.saturating_add((len as u64).saturating_mul(w));
        }
        match self.fill {
            Some(idx) if idx >= self.buffers.len() => {
                return broken(
                    "buffers.fill_index",
                    format!("fill index {idx} out of range"),
                );
            }
            Some(idx) if self.buffers[idx].full => {
                let what = format!("fill buffer {idx} is already marked full");
                return broken("buffers.fill_not_full", what);
            }
            _ => {}
        }
        let cached = self.view.get();
        if cached.is_some_and(|v| *v != RankIndex::build(&live_buffers(&self.buffers))) {
            let what = "cached rank index differs from a rebuild (a mutator kept it)";
            return broken("buffers.view_fresh", what.to_string());
        }
        Ok(mass)
    }
}

/// The per-query flatten-sort-sweep queries the `RankIndex` replaced,
/// kept as the reference the index is tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::QuantileSummary;
    use sqs_util::audit::CheckInvariants;
    use sqs_util::rng::Xoshiro256pp;

    /// The reference answers for a φ-vector and a rank vector, computed
    /// from a summary's state without its cached view.
    pub(crate) type Expect<S> = fn(&mut S, &[f64], &[u64]) -> (Vec<Option<u64>>, Vec<u64>);

    /// A mutation only some summaries have (merge, codec round trip).
    pub(crate) type Mutator<S> = fn(&mut S, &mut Xoshiro256pp);

    /// The stale-view property: under a random interleaving of
    /// `insert`, `insert_batch`, clones, `extra` mutators and queries,
    /// every answer equals `expect`'s — φ unsorted and repeated — and
    /// a view that is present passes the `*.view_fresh` audit.
    pub(crate) fn check_view_never_stale<S>(
        mut s: S,
        universe: u64,
        seed: u64,
        expect: Expect<S>,
        extra: &[Mutator<S>],
    ) where
        S: QuantileSummary<u64> + CheckInvariants + Clone,
    {
        let mut rng = Xoshiro256pp::new(seed);
        let query = |s: &mut S, rng: &mut Xoshiro256pp| {
            let mut phis: Vec<f64> = (0..1 + rng.next_below(12))
                .map(|_| (1 + rng.next_below(999)) as f64 / 1000.0)
                .collect();
            phis.push(phis[0]);
            let xs: Vec<u64> = (0..4).map(|_| rng.next_below(universe + 1)).collect();
            let (want_q, want_r) = expect(s, &phis, &xs);
            assert_eq!(s.quantiles(&phis), want_q, "phis {phis:?} at n = {}", s.n());
            let got_r: Vec<u64> = xs.iter().map(|&x| s.rank_estimate(x)).collect();
            assert_eq!(got_r, want_r, "ranks of {xs:?} at n = {}", s.n());
            let grid = sqs_util::exact::probe_phis(0.05);
            let want_grid: Vec<(f64, u64)> = grid
                .iter()
                .zip(expect(s, &grid, &[]).0)
                .filter_map(|(&phi, q)| q.map(|q| (phi, q)))
                .collect();
            assert_eq!(s.quantile_grid(0.05), want_grid, "grid at n = {}", s.n());
            s.assert_invariants();
        };
        for _ in 0..4000 {
            match rng.next_below(6 + extra.len() as u64) {
                0 => s.insert(rng.next_below(universe)),
                1 => {
                    for _ in 0..rng.next_below(40) {
                        s.insert(rng.next_below(universe));
                    }
                }
                2 => {
                    let xs: Vec<u64> = (0..rng.next_below(300))
                        .map(|_| rng.next_below(universe))
                        .collect();
                    s.insert_batch(&xs);
                }
                3 => {
                    let mut copy = s.clone();
                    query(&mut copy, &mut rng.clone());
                    query(&mut s, &mut rng);
                    s = copy;
                }
                4 | 5 => query(&mut s, &mut rng),
                k => extra[k as usize - 6](&mut s, &mut rng),
            }
        }
        query(&mut s, &mut rng);
    }

    /// The state-identity property of a sampling summary's
    /// `insert_batch`: feeds `rows` to `itemwise` one by one and to
    /// `batched` in chunks, and after every chunk requires the two
    /// `state`s (the frame, or whatever else covers buffers, sampler
    /// and RNG) to be equal. Chunk lengths are drawn around `group` —
    /// the span after which the summary's bulk path changes course, a
    /// sampling group or the room left in a buffer — 0, 1, `group − 1`,
    /// `group`, `group + 1`, many groups in one chunk, many chunks
    /// inside one group, and anything up to 3 000.
    pub(crate) fn feed_both<S: QuantileSummary<u64>>(
        itemwise: &mut S,
        batched: &mut S,
        rows: &[u64],
        rng: &mut Xoshiro256pp,
        group: fn(&S) -> u64,
        state: fn(&mut S) -> Vec<u8>,
    ) {
        let mut rest = rows;
        while !rest.is_empty() {
            let g = group(batched).max(1);
            let len = match rng.next_below(8) {
                0 => 0,
                1 => 1,
                2 => g - 1,
                3 => g,
                4 => g + 1,
                5 => g * (2 + rng.next_below(30)) + rng.next_below(g),
                6 => 1 + rng.next_below(g / 8 + 1),
                _ => rng.next_below(3000),
            };
            let (chunk, tail) = rest.split_at((len as usize).min(rest.len()));
            for &x in chunk {
                itemwise.insert(x);
            }
            batched.insert_batch(chunk);
            assert!(
                state(itemwise) == state(batched),
                "states differ at n = {} after a chunk of {}",
                itemwise.n(),
                chunk.len()
            );
            rest = tail;
        }
    }

    /// A sampler in a state its own methods may never reach, for the
    /// owners' corruption tests.
    pub(crate) fn sampler_in_state(
        size: u64,
        pos: u64,
        target: u64,
        choice: Option<u64>,
    ) -> super::GroupSampler<u64> {
        super::GroupSampler {
            size,
            pos,
            target,
            choice,
        }
    }

    /// [`Expect`] for a buffer summary, given its live buffers.
    pub(crate) fn sweep(
        bufs: &[(&[u64], u64)],
        phis: &[f64],
        xs: &[u64],
    ) -> (Vec<Option<u64>>, Vec<u64>) {
        (
            phis.iter().map(|&p| weighted_quantile(bufs, p)).collect(),
            xs.iter().map(|&x| weighted_rank(bufs, x)).collect(),
        )
    }

    /// Summed weight of all sampled elements strictly smaller than `x`.
    pub(crate) fn weighted_rank<T: Ord + Copy>(bufs: &[(&[T], u64)], x: T) -> u64 {
        bufs.iter()
            .map(|(data, w)| data.iter().filter(|&&v| v < x).count() as u64 * w)
            .sum()
    }

    /// The sampled element whose estimated rank is closest to `φ · W`,
    /// found by a sweep over the freshly sorted union.
    pub(crate) fn weighted_quantile<T: Ord + Copy>(bufs: &[(&[T], u64)], phi: f64) -> Option<T> {
        let total_w: u64 = bufs.iter().map(|(d, w)| d.len() as u64 * w).sum();
        if total_w == 0 {
            return None;
        }
        let mut items: Vec<(T, u64)> = Vec::with_capacity(bufs.iter().map(|(d, _)| d.len()).sum());
        for (data, w) in bufs {
            items.extend(data.iter().map(|&v| (v, *w)));
        }
        items.sort_unstable_by_key(|x| x.0);

        let target = phi * total_w as f64;
        let mut cum = 0u64;
        let mut best = items[0].0;
        let mut best_dist = f64::INFINITY;
        for (v, w) in items {
            let rank = cum as f64;
            let dist = (rank - target).abs();
            if dist < best_dist {
                best_dist = dist;
                best = v;
            } else if rank > target {
                break; // ranks only move away from the target now
            }
            cum += w;
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_level_merge_parity() {
        let a = [1u64, 3, 5, 7];
        let b = [2u64, 4, 6, 8];
        assert_eq!(merge_equal_level(&a, &b, false), vec![1, 3, 5, 7]);
        assert_eq!(merge_equal_level(&a, &b, true), vec![2, 4, 6, 8]);
    }

    #[test]
    fn equal_level_merge_with_duplicates() {
        let a = [1u64, 1, 2];
        let b = [1u64, 2, 3];
        let evens = merge_equal_level(&a, &b, false);
        let odds = merge_equal_level(&a, &b, true);
        assert_eq!(evens.len(), 3);
        assert_eq!(odds.len(), 3);
        // Union of both picks = full merged sequence.
        let mut all = evens.clone();
        all.extend(&odds);
        all.sort_unstable();
        assert_eq!(all, vec![1, 1, 1, 2, 2, 3]);
    }

    #[test]
    fn collapse_uniform_weights_is_spread() {
        // 2 buffers of 4 elements, weight 1 each → W=8, out 4, stride 2.
        let a = [0u64, 2, 4, 6];
        let b = [1u64, 3, 5, 7];
        let (out, w) = weighted_collapse(&[(&a, 1), (&b, 1)], 4, 0);
        assert_eq!(w, 8);
        assert_eq!(out, vec![0, 2, 4, 6]);
        let (out, _) = weighted_collapse(&[(&a, 1), (&b, 1)], 4, 1);
        assert_eq!(out, vec![1, 3, 5, 7]);
    }

    #[test]
    fn collapse_respects_weights() {
        // One heavy element should dominate the output.
        let heavy = [5u64];
        let light = [1u64, 9];
        let (out, w) = weighted_collapse(&[(&heavy, 8), (&light, 1)], 5, 0);
        assert_eq!(w, 10);
        // Expanded: 1, 5×8, 9 → targets 0,2,4,6,8 → 1,5,5,5,5
        assert_eq!(out, vec![1, 5, 5, 5, 5]);
    }

    #[test]
    fn collapse_output_sorted_and_sized() {
        let a = [3u64, 6, 9, 12];
        let b = [1u64, 5, 8];
        let c = [2u64, 4];
        let (out, _) = weighted_collapse(&[(&a, 2), (&b, 3), (&c, 5)], 6, 1);
        assert_eq!(out.len(), 6);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "offset")]
    fn collapse_rejects_bad_offset() {
        let a = [1u64, 2];
        weighted_collapse(&[(&a, 1)], 2, 5);
    }

    #[test]
    fn sampler_slices_end_where_single_rows_would() {
        use sqs_util::rng::Xoshiro256pp;
        // Every split of every group of 1, 2 and 8 rows, for every
        // target the draw can produce.
        let rows: Vec<u64> = (100..108).collect();
        for level in [0, 1, 3] {
            let size = 1usize << level;
            for seed in 0..32 {
                for cut in 0..=size {
                    let mut single = GroupSampler::new();
                    single.start(level, &mut Xoshiro256pp::new(seed));
                    let mut sliced = single.clone();
                    let kept: Vec<Option<u64>> =
                        rows[..size].iter().map(|&x| single.offer(x)).collect();
                    let (head, tail) = rows[..size].split_at(cut);
                    assert_eq!(
                        sliced.offer_slice(head),
                        (cut, kept[..cut].last().copied().flatten())
                    );
                    sliced
                        .check_invariants("test", "sampler")
                        .expect("mid-group state");
                    if cut < size {
                        // More rows than the group takes: it stops at its end.
                        let mut long = tail.to_vec();
                        long.extend([7, 7, 7]);
                        assert_eq!(sliced.offer_slice(&long), (size - cut, kept[size - 1]));
                    }
                    assert!(kept[size - 1].is_some());
                    assert_eq!(format!("{sliced:?}"), format!("{single:?}"));
                    assert_eq!(
                        format!("{sliced:?}"),
                        format!("{:?}", GroupSampler::<u64>::new())
                    );
                }
            }
        }
    }

    #[test]
    fn index_rank_counts_mass() {
        let a = [1u64, 3, 5];
        let b = [2u64, 4];
        let index = RankIndex::build(&[(&a[..], 2), (&b[..], 3)]);
        assert_eq!(index.rank(0), 0);
        assert_eq!(index.rank(3), 2 + 3); // {1}·2 + {2}·3
        assert_eq!(index.rank(100), 6 + 6);
    }

    #[test]
    fn index_quantile_median_of_uniform() {
        let a: Vec<u64> = (0..100).collect();
        let index = RankIndex::build(&[(&a[..], 1)]);
        let med = index.quantile(0.5).unwrap();
        assert!((45..=55).contains(&med), "median = {med}");
        // Exact convention: rank ⌊0.01·100⌋ = 1 → value 1.
        assert_eq!(index.quantile(0.01).unwrap(), 1);
        assert_eq!(index.quantile(0.999).unwrap(), 99);
    }

    #[test]
    fn index_matches_the_sweep_on_ties_unsorted_input_and_any_phi_order() {
        // Duplicates across buffers of different weight, one buffer
        // unsorted (a partial fill buffer), φ descending and repeated.
        let a: Vec<u64> = (0..500).map(|i| i / 3).collect();
        let b: Vec<u64> = (0..200).map(|i| (i * 7 + 1) % 170).collect();
        let c = [5u64, 5, 5, 160, 0];
        let bufs: Vec<(&[u64], u64)> = vec![(&a, 2), (&b, 5), (&c, 1)];
        let index = RankIndex::build(&bufs);
        let mut phis: Vec<f64> = (1..400).rev().map(|i| f64::from(i) / 400.0).collect();
        phis.extend([0.5, 0.5, 1e-9, 1.0 - 1e-9]);
        for phi in phis {
            assert_eq!(
                index.quantile(phi),
                oracle::weighted_quantile(&bufs, phi),
                "phi={phi}"
            );
        }
        for x in 0..172 {
            assert_eq!(index.rank(x), oracle::weighted_rank(&bufs, x), "x={x}");
        }
    }

    #[test]
    fn empty_index_answers_none_and_zero() {
        let index = RankIndex::<u64>::build(&[]);
        assert_eq!(index.quantile(0.5), None);
        assert_eq!(index.rank(7), 0);
    }

    /// The pool's rules, each broken in turn in each owner's pool: the
    /// rule fires, and under that owner's name.
    #[test]
    fn auditor_catches_every_broken_pool_field_under_its_owners_name() {
        use crate::{mrl98::Mrl98, mrl99::Mrl99, random::RandomSketch, QuantileSummary};
        use sqs_util::audit::CheckInvariants;

        fn a_full(pool: &mut Pool<u64>) -> &mut Buffer<u64> {
            let full = pool.buffers.iter_mut().find(|b| b.full);
            full.expect("a full buffer")
        }
        let breaks: [(&str, fn(&mut Pool<u64>)); 7] = [
            ("buffers.weight_positive", |p| p.buffers[0].weight = 0),
            ("buffers.buffer_overflow", |p| a_full(p).data.push(u64::MAX)),
            ("buffers.fill_flag", |p| a_full(p).full = false),
            ("buffers.full_buffer_sorted", |p| a_full(p).data.reverse()),
            ("buffers.fill_index", |p| p.fill = Some(p.buffers.len())),
            ("buffers.fill_not_full", |p| {
                p.fill = p.buffers.iter().position(|b| b.full);
            }),
            // A mutator that forgot to drop the view.
            ("buffers.view_fresh", |p| {
                p.view();
                a_full(p).data.iter_mut().for_each(|v| *v /= 2);
            }),
        ];
        fn check<S: QuantileSummary<u64> + CheckInvariants + Clone>(
            mut honest: S,
            pool: fn(&mut S) -> &mut Pool<u64>,
            breaks: &[(&str, fn(&mut Pool<u64>))],
        ) {
            (0..20_000).for_each(|x| honest.insert(20_000 - x));
            honest.check_invariants().expect("honest state");
            for (rule, corrupt) in breaks {
                let mut s = honest.clone();
                corrupt(pool(&mut s));
                let err = s.check_invariants().expect_err(rule);
                assert_eq!((err.algorithm, err.invariant), (honest.name(), *rule));
            }
        }
        check(RandomSketch::new(0.05, 7), |s| &mut s.pool, &breaks);
        check(Mrl99::new(0.05, 9), |s| &mut s.pool, &breaks);
        check(Mrl98::new(0.05, 20_000), |s| &mut s.pool, &breaks);
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
