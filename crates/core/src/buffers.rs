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
//! The COLLAPSE needs the weighted union of several buffers in
//! ascending order. The full buffers are sorted already, so
//! [`merge_runs`] merges them instead of sorting their union: one
//! ordered pass per level of a balanced merge tree, the partial fill
//! (the one run that may be out of order) sorted as a copy. Equal values
//! come out in slice order, the order a stable sort of the flattened
//! buffers gives, whatever the sort of a fill did. That order cannot
//! change a COLLAPSE: a block of equal values covers the same expanded
//! positions however it is arranged inside, so every target picks the
//! same value. It can change a [`RankIndex`] quantile in one case only —
//! equal values of different weight at the boundary of the target — and
//! never a rank.
//!
//! The write side's `GroupSampler` thins the arrivals that feed a
//! `Random` or `MRL99` fill buffer to one per `2^level`. The read side
//! keeps nothing between queries. A rank is §2.2's weighted sum over
//! the live buffers, computed directly. A φ-sweep answers what one
//! [`RankIndex`] over the live buffers would — the union [`merge_runs`]
//! orders — but builds that index only for a dense sweep: a sparse one
//! searches the sorted buffers where they lie, each a `Run` of a
//! [`UnionReader`], the fill as a sorted copy in its own slot (see
//! `Pool::quantiles`).
//!
//! [`UnionReader`] answers from any number of sorted parts exactly what
//! one index over their union, in part order, would: its parts are a
//! pool's buffers, or [`RankIndex`]es that a reader keeps across writes.
//! Such a reader splits the live buffers in two ([`Runs`]): the *stable*
//! buffers, which change only when the pool bumps its generation (a fill
//! released, a replacement or collapse, a partial resumed as the fill),
//! and the *fresh* one, the fill, which every insert may change. Only
//! the part that changed is re-indexed per read: the engine reads its
//! shards' stable runs and fills as two parts, a window ring its covered
//! buckets and rollups as one part each.

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "indices and narrowing casts stay within the bounds `check_invariants` audits"
)]

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

    debug_assert!(bufs.iter().all(|(d, _)| d.windows(2).all(|x| x[0] <= x[1])));
    let items = merge_runs(bufs);

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

/// The weighted union of `bufs` as `(value, weight)` pairs in ascending
/// value order: what flattening the slices and sorting them stably
/// gives, at the cost of a merge.
///
/// Each slice is one run at its weight. A run that is not ascending is
/// sorted as a copy; the others are read as they are. Neighbouring runs
/// are merged pairwise, level by level of a balanced tree, and a tie
/// takes the left run's element, so equal values keep slice order.
pub fn merge_runs<T: Ord + Copy>(bufs: &[(&[T], u64)]) -> Vec<(T, u64)> {
    let total = bufs.iter().map(|(d, _)| d.len()).sum();
    let mut src: Vec<(T, u64)> = Vec::with_capacity(total);
    // `ends[i]`: where run `i` ends in `src`.
    let mut ends: Vec<usize> = Vec::with_capacity(bufs.len());
    for &(data, w) in bufs.iter().filter(|(d, _)| !d.is_empty()) {
        let start = src.len();
        src.extend(data.iter().map(|&v| (v, w)));
        if !data.windows(2).all(|p| p[0] <= p[1]) {
            src[start..].sort_unstable_by_key(|x| x.0);
        }
        ends.push(src.len());
    }
    if ends.len() <= 1 {
        return src;
    }
    let mut dst = src.clone();
    while ends.len() > 1 {
        let mut start = 0;
        for pair in ends.chunks(2) {
            let end = pair[pair.len() - 1];
            match *pair {
                [mid, _] => merge_into(&src[start..mid], &src[mid..end], &mut dst[start..end]),
                _ => dst[start..end].copy_from_slice(&src[start..end]),
            }
            start = end;
        }
        ends = ends.chunks(2).map(|pair| pair[pair.len() - 1]).collect();
        std::mem::swap(&mut src, &mut dst);
    }
    src
}

/// Merges two ascending runs into `out` (`|out| = |a| + |b|`), the left
/// run first on a tie. Which side the next element comes from is
/// computed, not branched on: on random data that branch mispredicts
/// about every other element, and a branchy merge measured no faster
/// than the sort it replaces.
///
/// The merge runs from both ends at once, the smallest remaining pair
/// to the front and the largest to the back, so that two independent
/// chains of compares overlap. For `min(|a|, |b|)` steps neither end
/// can run out of a run, and within `|out| / 2` they cannot meet; the
/// front finishes whatever lies between them.
fn merge_into<T: Ord + Copy>(a: &[(T, u64)], b: &[(T, u64)], out: &mut [(T, u64)]) {
    debug_assert_eq!(a.len() + b.len(), out.len());
    let (mut i, mut j) = (0, 0);
    let (mut ie, mut je) = (a.len(), b.len());
    for _ in 0..a.len().min(b.len()).min(out.len() / 2) {
        let (x, y) = (a[i], b[j]);
        let right = y.0 < x.0;
        out[i + j] = if right { y } else { x };
        i += usize::from(!right);
        j += usize::from(right);
        let (x, y) = (a[ie - 1], b[je - 1]);
        let left = y.0 < x.0;
        out[ie + je - 1] = if left { x } else { y };
        ie -= usize::from(left);
        je -= usize::from(!left);
    }
    merge_front(&a[i..ie], &b[j..je], &mut out[i + j..ie + je]);
}

/// [`merge_into`] from the front only.
#[inline]
fn merge_front<T: Ord + Copy>(a: &[(T, u64)], b: &[(T, u64)], out: &mut [(T, u64)]) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        let right = y.0 < x.0;
        out[i + j] = if right { y } else { x };
        i += usize::from(!right);
        j += usize::from(right);
    }
    // One side is used up; the other's tail follows as it is.
    out[i + j..j + a.len()].copy_from_slice(&a[i..]);
    out[j + a.len()..].copy_from_slice(&b[j..]);
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

/// The sorted weighted union of several buffers with prefix ranks, so
/// that §2.2's `r̂(v) = Σ_X w(X)·|{y ∈ X : y < v}|` and its inverse are
/// binary searches. It is the part the engine and the window ring keep
/// per shard or bucket and read through a [`UnionReader`]; a pool's own
/// dense φ-sweep builds one too (see `Pool::quantiles`).
#[derive(Debug, PartialEq)]
pub struct RankIndex<T> {
    /// Every live sample, ascending, with the summed weight of the
    /// samples sorted before it — strictly increasing, since every
    /// weight is ≥ 1. One vector, written in place over the merge's
    /// `(value, weight)` pairs.
    items: Vec<(T, u64)>,
    /// The represented mass `W = Σ weight·|buffer|`.
    total: u64,
}

impl<T: Ord + Copy> RankIndex<T> {
    /// The index over `bufs` (slices of samples with a per-slice weight;
    /// a slice need not be sorted), their union ordered by
    /// [`merge_runs`].
    pub fn build(bufs: &[(&[T], u64)]) -> Self {
        #[cfg(test)]
        crate::counts::tick(crate::counts::Work::IndexBuild);
        let mut items = merge_runs(bufs);
        let mut total = 0u64;
        for item in &mut items {
            let weight = std::mem::replace(&mut item.1, total);
            total += weight;
        }
        Self { items, total }
    }

    /// Estimated rank of `x`: the summed weight of all sampled
    /// elements strictly smaller than `x`.
    pub fn rank(&self, x: T) -> u64 {
        self.before(self.items.partition_point(|&(v, _)| v < x))
    }

    /// φ-quantile: the sampled element whose estimated rank — the mass
    /// strictly before it — is closest to `φ·W` (§2.2), the earlier
    /// one on a tie. `None` when the buffers hold nothing. φ is not
    /// checked: the summaries check it before they ask.
    pub fn quantile(&self, phi: f64) -> Option<T> {
        let target = phi * self.total as f64;
        // Distances to the target shrink up to the last rank ≤ target
        // and grow from the first rank beyond it: one of the two wins.
        let above = self.items.partition_point(|&(_, r)| r as f64 <= target);
        let below = above.checked_sub(1)?;
        let dist = |i: usize| (self.items[i].1 as f64 - target).abs();
        let pick = if above < self.items.len() && dist(above) < dist(below) {
            above
        } else {
            below
        };
        Some(self.items[pick].0)
    }
}

impl<T> sqs_util::space::SpaceUsage for RankIndex<T> {
    /// Two words per sample (the sample and the mass before it) and the
    /// total.
    fn space_bytes(&self) -> usize {
        sqs_util::space::words(2 * self.items.len() + 1)
    }
}

/// A part a [`UnionReader`] reads: samples in ascending order, each
/// with the mass of the part's samples before it.
pub trait SortedPart<T> {
    /// Samples in the part.
    fn samples(&self) -> usize;

    /// The sample at `i` (`i < samples()`).
    fn value(&self, i: usize) -> T;

    /// The mass of the samples before `i` (`i ≤ samples()`): at
    /// `samples()`, the part's whole mass.
    fn before(&self, i: usize) -> u64;

    /// The first `i` in `lo..hi` whose sample `pred` fails, or `hi`:
    /// `pred` holds for a prefix of the samples.
    fn partition_point(&self, lo: usize, hi: usize, pred: impl FnMut(T) -> bool) -> usize;
}

impl<T: Copy> SortedPart<T> for RankIndex<T> {
    fn samples(&self) -> usize {
        self.items.len()
    }

    fn value(&self, i: usize) -> T {
        self.items[i].0
    }

    fn before(&self, i: usize) -> u64 {
        self.items.get(i).map_or(self.total, |&(_, r)| r)
    }

    fn partition_point(&self, lo: usize, hi: usize, mut pred: impl FnMut(T) -> bool) -> usize {
        lo + self.items[lo..hi].partition_point(|&(x, _)| pred(x))
    }
}

/// One sorted buffer read where it lies, every sample at the buffer's
/// weight: the mass before sample `i` is `i · weight`. Nothing is copied.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Run<'a, T> {
    data: &'a [T],
    weight: u64,
}

impl<T: Copy> SortedPart<T> for Run<'_, T> {
    fn samples(&self) -> usize {
        self.data.len()
    }

    fn value(&self, i: usize) -> T {
        self.data[i]
    }

    fn before(&self, i: usize) -> u64 {
        i as u64 * self.weight
    }

    fn partition_point(&self, lo: usize, hi: usize, mut pred: impl FnMut(T) -> bool) -> usize {
        lo + self.data[lo..hi].partition_point(|&x| pred(x))
    }
}

/// Parts read as one: what [`RankIndex::build`] over the runs of every
/// part, concatenated in part order, answers — without merging the
/// parts. Equal values order as that merge orders them, earlier parts
/// first. A rank is the sum of the parts' ranks; a quantile bisects the
/// widest part for the union's neighbours of the target, then does the
/// same inside the gap between those two samples with the remaining
/// parts (see [`quantile`](Self::quantile)). The engine and the window
/// ring read [`RankIndex`] parts, a pool its buffers as `Run`s.
#[derive(Debug, Clone)]
pub struct UnionReader<'a, T, P = RankIndex<T>> {
    parts: Vec<&'a P>,
    total: u64,
    values: std::marker::PhantomData<fn() -> T>,
}

/// The samples `lo..hi` of part `part` that a quantile search has not
/// yet placed before or after its target, and where the sample it
/// probes last sits among them.
#[derive(Debug, Clone, Copy)]
struct Window {
    part: usize,
    lo: usize,
    hi: usize,
    at: usize,
}

impl<'a, T: Ord + Copy, P: SortedPart<T>> UnionReader<'a, T, P> {
    /// The reader over `parts`, in that order.
    pub fn new(parts: impl IntoIterator<Item = &'a P>) -> Self {
        let parts: Vec<&'a P> = parts.into_iter().collect();
        let total = parts.iter().map(|p| p.before(p.samples())).sum();
        Self {
            parts,
            total,
            values: std::marker::PhantomData,
        }
    }

    /// The summed weight of all samples strictly smaller than `x`.
    pub fn rank(&self, x: T) -> u64 {
        let rank = |p: &P| p.before(p.partition_point(0, p.samples(), |v| v < x));
        self.parts.iter().map(|p| rank(p)).sum()
    }

    /// [`RankIndex::quantile`] of the union.
    ///
    /// # Panics
    /// Panics if `φ ∉ (0, 1)`.
    pub fn quantile(&self, phi: f64) -> Option<T> {
        self.quantiles(&[phi]).pop().flatten()
    }

    /// One [`quantile`](Self::quantile) per φ.
    ///
    /// The φs are answered in ascending order, the median one first:
    /// every answer to a smaller φ lies at or before the upper
    /// neighbour of its target, every answer to a larger one at or
    /// after the lower neighbour, so each half is searched only among
    /// the samples on its side of that φ's cut.
    ///
    /// # Panics
    /// Panics if any `φ ∉ (0, 1)`.
    pub fn quantiles(&self, phis: &[f64]) -> Vec<Option<T>> {
        phis.iter().for_each(|&phi| crate::traits::check_phi(phi));
        let mut order: Vec<usize> = (0..phis.len()).collect();
        order.sort_by(|&a, &b| phis[a].total_cmp(&phis[b]));
        let mut out = vec![None; phis.len()];
        // Each level of the halving keeps two bounds per part, below the
        // whole union's.
        let k = self.parts.len();
        let depth = (usize::BITS - phis.len().leading_zeros()) as usize;
        let mut bounds = vec![0; 2 * k * (depth + 1)];
        let (whole, below) = bounds.split_at_mut(2 * k);
        let (from, to) = whole.split_at_mut(k);
        to.iter_mut()
            .zip(&self.parts)
            .for_each(|(t, p)| *t = p.samples());
        let mut windows = Vec::with_capacity(k);
        self.sweep(phis, &order, (from, to), below, &mut windows, &mut out);
        out
    }

    /// Answers the φs of `order`, ascending, from the samples
    /// `from[p]..to[p]` of each part `p`: one unbroken stretch of the
    /// union that holds both neighbours of each of their targets.
    /// `bounds` holds two bounds per part for each level of halving
    /// still to come.
    fn sweep(
        &self,
        phis: &[f64],
        order: &[usize],
        (from, to): (&[usize], &[usize]),
        bounds: &mut [usize],
        windows: &mut Vec<Window>,
        out: &mut [Option<T>],
    ) {
        let Some(&median) = order.get(order.len() / 2) else {
            return;
        };
        let k = self.parts.len();
        let (mine, deeper) = bounds.split_at_mut(2 * k);
        let (cut, upto) = mine.split_at_mut(k);
        let Some((answer, below, above)) = self.quantile_in(phis[median], from, to, windows, cut)
        else {
            return; // No samples: every answer is `None`.
        };
        out[median] = Some(answer);
        // Up to the upper neighbour, and from the lower one on.
        upto.copy_from_slice(cut);
        if let Some(part) = above {
            upto[part] += 1;
        }
        cut[below] -= 1;
        let (smaller, larger) = (&order[..order.len() / 2], &order[order.len() / 2 + 1..]);
        self.sweep(phis, smaller, (from, upto), deeper, windows, out);
        self.sweep(phis, larger, (cut, to), deeper, windows, out);
    }

    /// The quantile search, one level per part, among the samples
    /// `from[p]..to[p]` of each part `p` (see [`sweep`](Self::sweep)).
    /// Returns the answer and the parts that hold the target's lower
    /// and upper neighbours, and leaves in `cut[p]` how many of part
    /// `p`'s samples come no later than the lower one.
    ///
    /// A sample's place in the union is its own part's rank plus, for
    /// every other part, the mass of that part's samples before it —
    /// at or below its value for an earlier part, strictly below for a
    /// later one. Each level takes the widest window and finds its
    /// first sample past the target. Its own prefix ranks bound where
    /// that sample can be (the others add between nothing and all of
    /// their windows' mass); inside that range a bisection probes its
    /// samples, placing each in every other window, and every probe
    /// narrows those windows too. The level ends with two neighbouring
    /// samples of the widest part, the last not past the target and the
    /// first past it, and the other windows cut down to the samples
    /// between them: the next level's gap. Every sample left is later in
    /// the union than this level's `below` and earlier than its `above`,
    /// so a deeper level's candidates replace them.
    fn quantile_in(
        &self,
        phi: f64,
        from: &[usize],
        to: &[usize],
        windows: &mut Vec<Window>,
        cut: &mut [usize],
    ) -> Option<(T, usize, Option<usize>)> {
        let target = phi * self.total as f64;
        let past = |r: u64| r as f64 > target;
        let parts = &self.parts;
        windows.clear();
        windows.extend((0..parts.len()).map(|part| Window {
            part,
            lo: from[part],
            hi: to[part],
            at: 0,
        }));
        // The mass before the gap from parts no longer searched.
        let mut base = 0u64;
        let (mut below, mut above) = (None, None);
        loop {
            windows.retain(|w| {
                let empty = w.lo == w.hi;
                if empty {
                    base += parts[w.part].before(w.lo);
                    cut[w.part] = w.lo;
                }
                !empty
            });
            let Some(widest) = (0..windows.len()).max_by_key(|&k| windows[k].hi - windows[k].lo)
            else {
                break;
            };
            let own = windows.swap_remove(widest);
            let p = parts[own.part];
            // A window wholly before the widest one's samples adds all
            // its mass to each of their ranks, one wholly after adds
            // none; only the windows that overlap leave a range.
            let (first_v, last_v) = (p.value(own.lo), p.value(own.hi - 1));
            let (mut floor, mut others) = (base, 0u64);
            for w in windows.iter() {
                let q = parts[w.part];
                let (lo_mass, hi_mass) = (q.before(w.lo), q.before(w.hi));
                // Equal values order the earlier part's first.
                let earlier = w.part < own.part;
                let (first_w, last_w) = (q.value(w.lo), q.value(w.hi - 1));
                if last_w < first_v || (earlier && last_w == first_v) {
                    floor += hi_mass;
                } else {
                    floor += lo_mass;
                    if first_w < last_v || (earlier && first_w == last_v) {
                        others += hi_mass - lo_mass;
                    }
                }
            }
            let hi = first(own.lo, own.hi, |i| past(floor + p.before(i)));
            let mut lo = first(own.lo, hi, |i| past(floor + p.before(i) + others));
            // Where sample `i` of the widest part sits in each window,
            // left in `at`; the rank it has in the union.
            let place = |windows: &mut [Window], i: usize| {
                #[cfg(test)]
                crate::counts::tick(crate::counts::Work::Probe);
                let v = p.value(i);
                let mut rank = base + p.before(i);
                for w in windows.iter_mut() {
                    let q = parts[w.part];
                    w.at = if w.part < own.part {
                        q.partition_point(w.lo, w.hi, |x| x <= v)
                    } else {
                        q.partition_point(w.lo, w.hi, |x| x < v)
                    };
                    rank += q.before(w.at);
                }
                rank
            };
            if lo > own.lo {
                place(windows, lo - 1);
                windows.iter_mut().for_each(|w| w.lo = w.at);
            }
            if hi < own.hi {
                place(windows, hi);
                windows.iter_mut().for_each(|w| w.hi = w.at);
            }
            let mut end = hi;
            while lo < end {
                let mid = lo + (end - lo) / 2;
                if past(place(windows, mid)) {
                    end = mid;
                    windows.iter_mut().for_each(|w| w.hi = w.at);
                } else {
                    lo = mid + 1;
                    windows.iter_mut().for_each(|w| w.lo = w.at);
                }
            }
            // The windows now hold the samples between `lo − 1` and `lo`.
            let rank_with = |i: usize, pos: fn(&Window) -> usize| {
                let others: u64 = windows.iter().map(|w| parts[w.part].before(pos(w))).sum();
                (base + p.before(i) + others, p.value(i), own.part)
            };
            if lo > own.lo {
                below = Some(rank_with(lo - 1, |w| w.lo));
            }
            if lo < own.hi {
                above = Some(rank_with(lo, |w| w.hi));
            }
            base += p.before(lo);
            cut[own.part] = lo;
        }
        let (rb, vb, below) = below?;
        let dist = |r: u64| (r as f64 - target).abs();
        match above {
            Some((ra, va, part)) if dist(ra) < dist(rb) => Some((va, below, Some(part))),
            _ => Some((vb, below, above.map(|a| a.2))),
        }
    }
}

/// The first `i` in `lo..hi` at which `pred` holds, or `hi`: `pred`
/// is monotone and known to hold at `hi`.
fn first(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// A pool's live buffers split for a reader that keeps an index across
/// writes (see the [module docs](self)).
#[derive(Debug)]
pub struct Runs<'a, T> {
    /// The pool's generation: while it reads the same, `stable` holds
    /// the same samples at the same weights in the same order, and the
    /// fill only grows at its end, at its weight.
    pub generation: u64,
    /// Every nonempty buffer but the fill, in slot order; each sorted
    /// unless it is a partial that `merge_from` left.
    pub stable: Vec<(&'a [T], u64)>,
    /// The fill, in arrival order, while it holds anything.
    pub fresh: Option<(&'a [T], u64)>,
}

/// Where [`Pool::quantiles`] stops searching the buffers in place and
/// merges them into one [`RankIndex`]: past one φ per this many samples
/// of a buffer. A sweep's searches cost about `k·log²(cap)` per φ for
/// `k` buffers, falling as the φs grow dense; the merge costs about
/// `N·log k` once for `N` samples. On uniform rows at ε 10⁻², 10⁻³ and
/// 10⁻⁴ the two cross between `cap/5` and `cap/4` φs (docs/PERF.md
/// §25); on sorted rows, whose buffers hold disjoint ranges, the
/// searches stay cheaper past `cap` φs.
const SAMPLES_PER_SEARCHED_PHI: usize = 5;

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

/// `b` buffers of `cap` weighted samples and the stream length: the
/// state and the mechanics `Random`, `MRL99` and `MRL98` share. At most
/// one buffer is *the fill* — appended to until it holds `cap` samples,
/// then sorted and released; the owner decides at what level and weight
/// a fill starts and, once no buffer is empty, which buffers
/// [`collapse`](Pool::collapse) into one.
#[derive(Debug, Clone)]
pub(crate) struct Pool<T> {
    /// Per-buffer capacity.
    pub(crate) cap: usize,
    pub(crate) buffers: Vec<Buffer<T>>,
    /// Index of the buffer currently being filled.
    pub(crate) fill: Option<usize>,
    /// Stream elements seen.
    pub(crate) n: u64,
    /// Bumped by every change to a buffer other than the fill: the key
    /// of [`Runs::stable`].
    pub(crate) generation: u64,
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
            generation: 0,
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

    /// Makes the partial buffer `idx` the fill again, at its own level
    /// and weight: it leaves the stable part.
    pub(crate) fn resume_fill(&mut self, idx: usize) {
        self.fill = Some(idx);
        self.generation += 1;
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
        self.generation += 1;
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
        self.generation += 1;
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

    /// The live buffers split into the stable part and the fill.
    pub(crate) fn runs(&self) -> Runs<'_, T> {
        fn run<T>(b: &Buffer<T>) -> (&[T], u64) {
            (b.data.as_slice(), b.weight)
        }
        let live = |&(i, b): &(usize, &Buffer<T>)| Some(i) != self.fill && !b.data.is_empty();
        let stable = self.buffers.iter().enumerate().filter(live);
        Runs {
            generation: self.generation,
            stable: stable.map(|(_, b)| run(b)).collect(),
            fresh: (self.fill.map(|i| &self.buffers[i]))
                .filter(|b| !b.data.is_empty())
                .map(run),
        }
    }

    /// A φ-sweep: what one [`RankIndex`] over the live buffers answers.
    ///
    /// A sweep of at most `cap /` [`SAMPLES_PER_SEARCHED_PHI`] φs reads
    /// the buffers where they lie, each nonempty one a [`Run`] in slot
    /// order — the order [`live_buffers`] hands the index — and a buffer
    /// out of order (the fill) as a sorted copy in its own slot: a
    /// [`UnionReader`] over them answers what that index would. A denser
    /// sweep builds the index, whose merge then costs less than the
    /// searches.
    ///
    /// # Panics
    /// Panics if any `φ ∉ (0, 1)`.
    pub(crate) fn quantiles(&self, phis: &[f64]) -> Vec<Option<T>> {
        if phis.len() * SAMPLES_PER_SEARCHED_PHI > self.cap {
            phis.iter().for_each(|&phi| crate::traits::check_phi(phi));
            let index = RankIndex::build(&live_buffers(&self.buffers));
            return phis.iter().map(|&phi| index.quantile(phi)).collect();
        }
        let in_order = |b: &Buffer<T>| b.full || b.data.is_sorted();
        let copies: Vec<Vec<T>> = (self.buffers.iter().filter(|b| !in_order(b)))
            .map(|b| {
                let mut copy = b.data.clone();
                copy.sort_unstable();
                copy
            })
            .collect();
        let mut copies = copies.iter();
        let runs: Vec<Run<'_, T>> = (self.buffers.iter().filter(|b| !b.data.is_empty()))
            .map(|b| Run {
                data: if in_order(b) {
                    &b.data
                } else {
                    copies
                        .next()
                        .expect("pool invariant: one sorted copy per buffer out of order")
                },
                weight: b.weight,
            })
            .collect();
        UnionReader::new(&runs).quantiles(phis)
    }

    /// §2.2's `r̂(x) = Σ_X w(X)·|{y ∈ X : y < x}|` over the live
    /// buffers: a binary search in a full (sorted) buffer, a count in
    /// the others — what [`RankIndex::rank`] over them answers.
    pub(crate) fn rank(&self, x: T) -> u64 {
        let below = |b: &Buffer<T>| {
            if b.full {
                b.data.partition_point(|&y| y < x)
            } else {
                b.data.iter().filter(|&&y| y < x).count()
            }
        };
        self.buffers
            .iter()
            .map(|b| below(b) as u64 * b.weight)
            .sum()
    }

    /// The rules that hold for any owner's pool — positive weights, no
    /// buffer past `cap`, `full ⇔ |data| = cap`, full buffers sorted,
    /// the fill index in range and not on a full buffer — reported
    /// under the owner's `algorithm`. Returns the represented mass
    /// `Σ weight·|data|` (saturating), which each owner holds to its own
    /// rule against `n`.
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
        Ok(mass)
    }
}

/// The per-query flatten-sort-sweep queries the `RankIndex` replaced and
/// the sort-based COLLAPSE [`merge_runs`] replaced, kept as the
/// references the merged forms are tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use crate::QuantileSummary;
    use sqs_util::audit::CheckInvariants;
    use sqs_util::rng::Xoshiro256pp;

    /// The reference answers for a φ-vector and a rank vector, computed
    /// from a summary's state alone.
    pub(crate) type Expect<S> = fn(&mut S, &[f64], &[u64]) -> (Vec<Option<u64>>, Vec<u64>);

    /// A mutation only some summaries have (merge, codec round trip).
    pub(crate) type Mutator<S> = fn(&mut S, &mut Xoshiro256pp);

    /// Under a random interleaving of `insert`, `insert_batch`, clones,
    /// `extra` mutators and queries, every answer equals `expect`'s — φ
    /// unsorted and repeated — and the summary passes its audit.
    pub(crate) fn check_answers_under_interleavings<S>(
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

    /// The generation contract of a summary's [`super::Runs`] under a
    /// random interleaving of inserts, batches (0, 1, up to a fill
    /// boundary and past it, many buffers) and `extra` mutators: while
    /// the generation reads what it read one step earlier, `stable`
    /// holds the same runs and the fill has only grown at its end; and,
    /// read through
    /// [`super::UnionReader`], the two parts answer what one index over
    /// `stable ++ fresh` answers, their ranks the summary's own.
    pub(crate) fn check_runs_follow_the_generation<S>(
        mut s: S,
        universe: u64,
        seed: u64,
        runs: for<'a> fn(&'a S) -> super::Runs<'a, u64>,
        cap: u64,
        extra: &[Mutator<S>],
    ) where
        S: QuantileSummary<u64> + CheckInvariants,
    {
        use super::{RankIndex, UnionReader};
        type Owned = Vec<(Vec<u64>, u64)>;
        let own = |parts: &[(&[u64], u64)]| -> Owned {
            parts.iter().map(|&(d, w)| (d.to_vec(), w)).collect()
        };
        let mut rng = Xoshiro256pp::new(seed);
        let mut last: Option<(u64, Owned, (Vec<u64>, u64))> = None;
        for step in 0..3000 {
            // Rows to the fill's boundary, give or take a sampler group.
            let room = |s: &S| {
                let fill = runs(s).fresh;
                fill.map_or(cap, |(d, w)| (cap - d.len() as u64) * w)
            };
            let len = match rng.next_below(5 + extra.len() as u64) {
                0 => 1,
                1 => [0, room(&s), room(&s) + 1][rng.next_below(3) as usize],
                2 => rng.next_below(40),
                3 => rng.next_below(4_000),
                4 => 0,
                k => {
                    extra[k as usize - 5](&mut s, &mut rng);
                    0
                }
            };
            let xs: Vec<u64> = (0..len).map(|_| rng.next_below(universe)).collect();
            s.insert_batch(&xs);
            let r = runs(&s);
            let stable = own(&r.stable);
            let fill = r.fresh.map_or((Vec::new(), 0), |(d, w)| (d.to_vec(), w));
            if let Some((generation, before, (prefix, weight))) = &last {
                if *generation == r.generation {
                    assert_eq!(
                        &stable, before,
                        "step {step}: stable runs moved at one generation"
                    );
                    let grown =
                        fill.0.starts_with(prefix) && (prefix.is_empty() || fill.1 == *weight);
                    assert!(grown, "step {step}: the fill changed other than at its end");
                }
            }
            let mut both = r.stable.clone();
            both.extend(r.fresh);
            let fresh: Vec<(&[u64], u64)> = r.fresh.into_iter().collect();
            let (whole, stable_index) = (RankIndex::build(&both), RankIndex::build(&r.stable));
            let fresh_index = RankIndex::build(&fresh);
            let reader = UnionReader::new([&stable_index, &fresh_index]);
            let phis: Vec<f64> = (1..40).map(|i| f64::from(i) / 40.0).collect();
            let want: Vec<Option<u64>> = phis.iter().map(|&p| whole.quantile(p)).collect();
            let xs: Vec<u64> = (0..6).map(|_| rng.next_below(universe + 1)).collect();
            let ranks: Vec<u64> = xs.iter().map(|&x| reader.rank(x)).collect();
            last = Some((r.generation, stable, fill));
            assert_eq!(reader.quantiles(&phis), want, "step {step}");
            let own_ranks: Vec<u64> = xs.iter().map(|&x| s.rank_estimate(x)).collect();
            assert_eq!(
                ranks, own_ranks,
                "step {step}: the parts are not the live buffers"
            );
        }
        s.assert_invariants();
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

    /// The read a pool answered every φ-sweep with before it searched
    /// its buffers in place: one [`super::RankIndex`] over the live
    /// buffers, one lookup per φ and per rank.
    pub(crate) fn one_index(
        bufs: &[(&[u64], u64)],
        phis: &[f64],
        xs: &[u64],
    ) -> (Vec<Option<u64>>, Vec<u64>) {
        let index = super::RankIndex::build(bufs);
        (
            phis.iter().map(|&p| index.quantile(p)).collect(),
            xs.iter().map(|&x| index.rank(x)).collect(),
        )
    }

    /// Summed weight of all sampled elements strictly smaller than `x`.
    pub(crate) fn weighted_rank<T: Ord + Copy>(bufs: &[(&[T], u64)], x: T) -> u64 {
        bufs.iter()
            .map(|(data, w)| data.iter().filter(|&&v| v < x).count() as u64 * w)
            .sum()
    }

    /// The flattened slices as `(value, weight)` pairs, in slice order.
    fn flatten<T: Copy>(bufs: &[(&[T], u64)]) -> Vec<(T, u64)> {
        let pairs = bufs
            .iter()
            .flat_map(|&(d, w)| d.iter().map(move |&v| (v, w)));
        pairs.collect()
    }

    /// [`super::merge_runs`] as a stable flatten-and-sort: equal values
    /// in slice order.
    pub(crate) fn merge_runs_by_sort<T: Ord + Copy>(bufs: &[(&[T], u64)]) -> Vec<(T, u64)> {
        let mut items = flatten(bufs);
        items.sort_by_key(|x| x.0);
        items
    }

    /// [`super::weighted_collapse`] as it was before [`super::merge_runs`]:
    /// flatten, sort unstably, then sweep the targets.
    pub(crate) fn weighted_collapse_by_sort<T: Ord + Copy>(
        bufs: &[(&[T], u64)],
        out_size: usize,
        offset: u64,
    ) -> (Vec<T>, u64) {
        let total_w: u64 = bufs.iter().map(|(d, w)| d.len() as u64 * w).sum();
        let mut items = flatten(bufs);
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
        (out, total_w)
    }

    /// The sampled element whose estimated rank is closest to `φ · W`,
    /// found by a sweep over the freshly (stably) sorted union.
    pub(crate) fn weighted_quantile<T: Ord + Copy>(bufs: &[(&[T], u64)], phi: f64) -> Option<T> {
        let total_w: u64 = bufs.iter().map(|(d, w)| d.len() as u64 * w).sum();
        if total_w == 0 {
            return None;
        }
        let items = merge_runs_by_sort(bufs);

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

    /// Seeded runs for the merge tests: 1–12 of them, lengths from 0 up
    /// (empty runs included), weights 1–2^20, values from a universe of
    /// 4 (heavy ties across runs of different weight) up to 2^40.
    fn seeded_runs(rng: &mut sqs_util::rng::Xoshiro256pp) -> Vec<(Vec<u64>, u64)> {
        let universe = [4, 64, 5_000, 1 << 40][rng.next_below(4) as usize];
        (0..1 + rng.next_below(12))
            .map(|_| {
                let len = [0, 1, 2, 7, 300, 3_163][rng.next_below(6) as usize];
                let mut run: Vec<u64> = (0..len).map(|_| rng.next_below(universe)).collect();
                run.sort_unstable();
                let bits = rng.next_below(21);
                (run, 1 + rng.next_below(1 << bits))
            })
            .collect()
    }

    #[test]
    fn merged_collapse_is_bit_equal_to_the_sort_it_replaced() {
        let mut rng = sqs_util::rng::Xoshiro256pp::new(30);
        let mut checked = 0;
        while checked < 2_000 {
            let runs = seeded_runs(&mut rng);
            let bufs: Vec<(&[u64], u64)> = runs.iter().map(|(d, w)| (d.as_slice(), *w)).collect();
            let total_w: u64 = bufs.iter().map(|(d, w)| d.len() as u64 * w).sum();
            if total_w == 0 {
                continue;
            }
            let out_size = 1 + rng.next_below(4_000) as usize;
            let stride = (total_w / out_size as u64).max(1);
            for offset in [0, stride / 2, stride - 1, rng.next_below(stride)] {
                assert_eq!(
                    weighted_collapse(&bufs, out_size, offset),
                    oracle::weighted_collapse_by_sort(&bufs, out_size, offset),
                    "{} runs into {out_size} at offset {offset}",
                    bufs.len()
                );
            }
            checked += 1;
        }
    }

    #[test]
    fn merge_runs_is_a_stable_sort_of_the_flattened_runs() {
        let mut rng = sqs_util::rng::Xoshiro256pp::new(31);
        for _ in 0..500 {
            let mut runs = seeded_runs(&mut rng);
            // One run out of order, as a partial fill is.
            let unsorted = rng.next_below(runs.len() as u64) as usize;
            runs[unsorted].0.reverse();
            let bufs: Vec<(&[u64], u64)> = runs.iter().map(|(d, w)| (d.as_slice(), *w)).collect();
            assert_eq!(merge_runs(&bufs), oracle::merge_runs_by_sort(&bufs));
        }
        // Equal values at different weights keep slice order.
        let (a, b, c) = ([5u64, 5, 9], [1u64, 5], [5u64, 0]);
        let merged = merge_runs(&[(&a, 2), (&b, 7), (&c, 3)]);
        let expect = [(0, 3), (1, 7), (5, 2), (5, 2), (5, 7), (5, 3), (9, 2)];
        assert_eq!(merged, expect);
        assert!(merge_runs::<u64>(&[]).is_empty());
        assert!(merge_runs::<u64>(&[(&[], 4)]).is_empty());
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

    /// `count` parts of 0–4 runs each, weights 1–16, values below
    /// `domain`; now and then a run is empty, and a part's last run is
    /// left in arrival order (a fill).
    fn seeded_parts(
        rng: &mut sqs_util::rng::Xoshiro256pp,
        count: usize,
        domain: u64,
    ) -> Vec<Vec<(Vec<u64>, u64)>> {
        (0..count)
            .map(|_| {
                let runs = rng.next_below(5) as usize;
                (0..runs)
                    .map(|r| {
                        let len = [0, 1, 3, 40, 300][rng.next_below(5) as usize];
                        let mut run: Vec<u64> = (0..len).map(|_| rng.next_below(domain)).collect();
                        if r + 1 < runs || rng.next_below(2) == 0 {
                            run.sort_unstable();
                        }
                        (run, 1 + rng.next_below(16))
                    })
                    .collect()
            })
            .collect()
    }

    /// The N-part reader's contract: over `parts`, read as one, each φ
    /// of a 99-point grid (and the extremes) and each rank of `xs`
    /// equals what `RankIndex::build` over all their runs, concatenated
    /// in part order, answers.
    fn assert_union_is_one_index(parts: &[Vec<(Vec<u64>, u64)>], xs: &[u64]) {
        fn slices(runs: &[(Vec<u64>, u64)]) -> Vec<(&[u64], u64)> {
            runs.iter().map(|(d, w)| (d.as_slice(), *w)).collect()
        }
        let indexes: Vec<RankIndex<u64>> =
            parts.iter().map(|p| RankIndex::build(&slices(p))).collect();
        let whole = RankIndex::build(&slices(&parts.concat()));
        let reader = UnionReader::new(&indexes);
        let mut phis: Vec<f64> = (1..100).map(|i| f64::from(i) / 100.0).collect();
        phis.extend([1e-9, 1.0 - 1e-9]);
        let want: Vec<Option<u64>> = phis.iter().map(|&p| whole.quantile(p)).collect();
        assert_eq!(reader.quantiles(&phis), want, "{parts:?}");
        for &x in xs {
            assert_eq!(reader.rank(x), whole.rank(x), "x = {x}, {parts:?}");
        }
    }

    #[test]
    fn a_union_reader_answers_what_one_index_over_all_its_parts_answers() {
        let mut rng = sqs_util::rng::Xoshiro256pp::new(37);
        for case in 0..3_000 {
            let count = 1 + case % 9;
            // Mostly 8 values, so ties across parts are the rule.
            let domain = [8, 8, 8, 1_000, 1 << 40][rng.next_below(5) as usize];
            let parts = seeded_parts(&mut rng, count, domain);
            let xs: Vec<u64> = (0..20).map(|_| rng.next_below(domain + 2)).collect();
            assert_union_is_one_index(&parts, &xs);
        }
    }

    /// The engine's shape: every split of a summary's runs into a
    /// stable part and a fresh one, either empty included.
    #[test]
    fn two_parts_answer_what_one_index_over_both_answers() {
        let mut rng = sqs_util::rng::Xoshiro256pp::new(35);
        for _ in 0..400 {
            let mut runs = seeded_runs(&mut rng);
            let cut = rng.next_below(runs.len() as u64 + 1) as usize;
            if let Some(fill) = runs.get_mut(cut) {
                fill.0.reverse();
            }
            let fresh = runs.split_off(cut);
            let xs: Vec<u64> = (0..50)
                .map(|_| {
                    let x = rng.next_below(1 << 41);
                    [x, x % 70, x % 5][rng.next_below(3) as usize]
                })
                .collect();
            assert_union_is_one_index(&[runs, fresh], &xs);
        }
        // A tie across the parts at the target: the stable 5 (weight 3)
        // is the union's, as merge_runs orders it.
        let parts = [vec![(vec![5u64], 3)], vec![(vec![9u64, 5], 1)]];
        assert_union_is_one_index(&parts, &[4, 5, 6, 9, 10]);
        let empty = RankIndex::<u64>::build(&[]);
        assert_eq!(UnionReader::new([&empty, &empty]).quantile(0.5), None);
        assert_eq!(
            UnionReader::new(std::iter::empty::<&RankIndex<u64>>()).quantile(0.5),
            None
        );
    }

    #[test]
    #[should_panic(expected = "phi must be in the open interval")]
    fn two_parts_check_phi() {
        let empty = RankIndex::<u64>::build(&[]);
        UnionReader::new([&empty, &empty]).quantile(1.0);
    }

    #[test]
    fn empty_index_answers_none_and_zero() {
        let index = RankIndex::<u64>::build(&[]);
        assert_eq!(index.quantile(0.5), None);
        assert_eq!(index.rank(7), 0);
    }

    /// `count` φs, half of them a grid (targets that land on prefix
    /// ranks, so ties in distance) and half drawn, shuffled, the last a
    /// repeat of another when there are two or more.
    fn mixed_phis(count: usize, rng: &mut sqs_util::rng::Xoshiro256pp) -> Vec<f64> {
        let mut phis: Vec<f64> = (0..count)
            .map(|i| {
                if i % 2 == 0 {
                    (i + 1) as f64 / (count + 1) as f64
                } else {
                    (1 + rng.next_below(999_999)) as f64 / 1e6
                }
            })
            .collect();
        for i in (1..count).rev() {
            phis.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        if count > 1 {
            phis[count - 1] = phis[rng.next_below(count as u64 - 1) as usize];
        }
        phis
    }

    /// Every read of `s` against [`oracle::one_index`] over its pool's
    /// live buffers: the sweep of 1, 9, 99 and `1/ε − 1` φs (unsorted,
    /// with a repeat), `quantile` at each φ of the short sweeps and at
    /// about ten of each long one, and `rank_estimate` at the universe's ends,
    /// around sampled values and at drawn ones.
    fn assert_reads_are_one_index<S: crate::QuantileSummary<u64>>(
        s: &mut S,
        pool: fn(&S) -> &Pool<u64>,
        eps: f64,
        rng: &mut sqs_util::rng::Xoshiro256pp,
    ) {
        let live = |s: &S| -> Vec<(Vec<u64>, u64)> {
            let bufs = live_buffers(&pool(s).buffers);
            bufs.iter().map(|&(d, w)| (d.to_vec(), w)).collect()
        };
        let owned = live(s);
        let bufs: Vec<(&[u64], u64)> = owned.iter().map(|(d, w)| (d.as_slice(), *w)).collect();
        let mut xs = vec![0, 1, u64::MAX];
        for (d, _) in &owned {
            for &v in d.iter().step_by(97) {
                xs.extend([v.saturating_sub(1), v, v.saturating_add(1)]);
            }
        }
        xs.extend((0..20).map(|_| rng.next_below(1 << 32)));
        let widest = (1.0 / eps).round() as usize - 1;
        for count in [1, 9, 99, widest] {
            let phis = mixed_phis(count, rng);
            let (want, ranks) = oracle::one_index(&bufs, &phis, &xs);
            let at = format!("{count} φs at n = {}", s.n());
            assert_eq!(s.quantiles(&phis), want, "{} {at}", s.name());
            let every = (count / 10).max(1);
            for (&phi, &q) in phis.iter().zip(&want).step_by(every) {
                assert_eq!(s.quantile(phi), q, "{} φ = {phi}, {at}", s.name());
            }
            let got: Vec<u64> = xs.iter().map(|&x| s.rank_estimate(x)).collect();
            assert_eq!(got, ranks, "{} ranks, {at}", s.name());
        }
        assert_eq!(live(s), owned, "{}: a read moved the buffers", s.name());
    }

    /// Whether the fill holds samples and a nonempty buffer sits in a
    /// slot after the fill's.
    fn fill_is_in_a_middle_slot(pool: &Pool<u64>) -> bool {
        let last = pool.buffers.iter().rposition(|b| !b.data.is_empty());
        matches!((pool.fill, last), (Some(f), Some(l)) if f < l && !pool.buffers[f].data.is_empty())
    }

    /// The reads of `Random`, MRL99 and MRL98 against one index over
    /// their live buffers, on an empty pool, at `paper_suite`'s shape
    /// (ε 10⁻³, 2^19 uniform rows over 2^32), and over a 48-value
    /// universe — ties everywhere — at every point of the stream where
    /// the fill sits in a slot below another nonempty buffer (a COLLAPSE
    /// freed a low slot, or `merge_from` left partials ahead of it).
    #[test]
    fn pool_reads_answer_what_one_index_over_the_live_buffers_answers() {
        use crate::{mrl98::Mrl98, mrl99::Mrl99, random::RandomSketch, QuantileSummary};
        use sqs_util::rng::Xoshiro256pp;
        fn random(s: &RandomSketch<u64>) -> &Pool<u64> {
            &s.pool
        }
        fn mrl99(s: &Mrl99<u64>) -> &Pool<u64> {
            &s.pool
        }
        fn mrl98(s: &Mrl98<u64>) -> &Pool<u64> {
            &s.pool
        }
        /// Feeds `rows` one by one and checks the reads whenever the
        /// fill moves into a middle slot, at most `checks` times, and
        /// at the end; returns how often the fill was in one.
        fn middle_slots<S: QuantileSummary<u64>>(
            s: &mut S,
            pool: fn(&S) -> &Pool<u64>,
            eps: f64,
            rows: impl Iterator<Item = u64>,
            checks: usize,
            rng: &mut Xoshiro256pp,
        ) -> usize {
            let mut seen = 0;
            let mut was = false;
            for x in rows {
                s.insert(x);
                let now = fill_is_in_a_middle_slot(pool(s));
                if now && !was {
                    if seen < checks {
                        assert_reads_are_one_index(s, pool, eps, rng);
                    }
                    seen += 1;
                }
                was = now;
            }
            assert_reads_are_one_index(s, pool, eps, rng);
            seen
        }
        let mut rng = Xoshiro256pp::new(44);

        // Empty pools answer None and rank 0, on both sides of the crossover.
        assert_reads_are_one_index(&mut RandomSketch::new(1e-3, 1), random, 1e-3, &mut rng);
        assert_reads_are_one_index(&mut Mrl99::new(1e-3, 1), mrl99, 1e-3, &mut rng);
        assert_reads_are_one_index(&mut Mrl98::new(1e-3, 1 << 19), mrl98, 1e-3, &mut rng);

        // paper_suite's shape.
        let mut rows = Xoshiro256pp::new(0x5017e);
        let wide: Vec<u64> = (0..1 << 19).map(|_| rows.next_below(1 << 32)).collect();
        let mut s = RandomSketch::new(1e-3, 7);
        wide.iter().for_each(|&x| s.insert(x));
        assert_eq!(
            (s.pool.buffers.iter().filter(|b| b.full).count(), s.pool.cap),
            (10, 3163)
        );
        assert_reads_are_one_index(&mut s, random, 1e-3, &mut rng);
        let mut s = Mrl99::new(1e-3, 7);
        wide.iter().for_each(|&x| s.insert(x));
        assert_reads_are_one_index(&mut s, mrl99, 1e-3, &mut rng);
        let mut s = Mrl98::new(1e-3, 1 << 19);
        wide.iter().for_each(|&x| s.insert(x));
        assert_reads_are_one_index(&mut s, mrl98, 1e-3, &mut rng);

        // Ties everywhere, the fill below other buffers after a COLLAPSE.
        for eps in [1e-2, 1e-3] {
            let n = (600.0 / eps) as u64;
            let rows = |seed| {
                let mut r = Xoshiro256pp::new(seed);
                (0..n).map(move |_| r.next_below(48))
            };
            let seen = [
                middle_slots(
                    &mut RandomSketch::new(eps, 3),
                    random,
                    eps,
                    rows(5),
                    6,
                    &mut rng,
                ),
                middle_slots(&mut Mrl99::new(eps, 3), mrl99, eps, rows(6), 6, &mut rng),
            ];
            assert!(
                seen.iter().all(|&k| k > 0),
                "ε {eps}: fill never in a middle slot: {seen:?}"
            );
            // MRL98's COLLAPSE keeps the lowest chosen slot and its next
            // fill takes the first empty one, above every full buffer:
            // its reads are checked at stream points instead.
            let mut s = Mrl98::new(eps, n);
            for part in 0..4 {
                let seen = middle_slots(
                    &mut s,
                    mrl98,
                    eps,
                    rows(7 + part).take(n as usize / 8),
                    0,
                    &mut rng,
                );
                assert_eq!(seen, 0, "ε {eps}: an MRL98 fill below a full buffer");
            }
        }

        // `merge_from` leaves sorted partials in the low slots; the fill
        // then resumes one of them or starts in an empty slot among them.
        for eps in [1e-2, 1e-3] {
            let cap = RandomSketch::<u64>::new(eps, 0).buffer_size() as u64;
            let mut seen = 0;
            for seed in 0..12u64 {
                let mut s = RandomSketch::new(eps, seed);
                let mut r = Xoshiro256pp::new(100 + seed);
                (0..cap * (3 + seed % 5) + r.next_below(cap))
                    .for_each(|_| s.insert(r.next_below(48)));
                let mut other = RandomSketch::new(eps, seed + 1_000);
                (0..cap * (seed % 3) + r.next_below(cap))
                    .for_each(|_| other.insert(r.next_below(48)));
                s.merge_from(other);
                assert_reads_are_one_index(&mut s, random, eps, &mut rng);
                let more = (0..cap * 4).map(|_| r.next_below(48));
                seen += middle_slots(&mut s, random, eps, more, 2, &mut rng);
            }
            assert!(seen > 0, "ε {eps}: no merge left the fill in a middle slot");
        }
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
        let breaks: [(&str, fn(&mut Pool<u64>)); 6] = [
            ("buffers.weight_positive", |p| p.buffers[0].weight = 0),
            ("buffers.buffer_overflow", |p| a_full(p).data.push(u64::MAX)),
            ("buffers.fill_flag", |p| a_full(p).full = false),
            ("buffers.full_buffer_sorted", |p| a_full(p).data.reverse()),
            ("buffers.fill_index", |p| p.fill = Some(p.buffers.len())),
            ("buffers.fill_not_full", |p| {
                p.fill = p.buffers.iter().position(|b| b.full);
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

    /// The work of a cold sweep of `phis` on `Random` and MRL99 at
    /// `paper_suite`'s shape (ε 10⁻³, 2^19 uniform rows over 2^32: 10
    /// full buffers of 3 163 samples and a fill).
    fn sweep_work(phis: &[f64]) -> [(&'static str, crate::counts::Counts); 2] {
        use crate::{counts::during, mrl99::Mrl99, random::RandomSketch, QuantileSummary};
        fn work<S: QuantileSummary<u64>>(
            mut s: S,
            rows: &[u64],
            phis: &[f64],
        ) -> crate::counts::Counts {
            s.insert_batch(rows);
            during(|| s.quantiles(phis)).1
        }
        let mut rng = sqs_util::rng::Xoshiro256pp::new(0x5017e);
        let rows: Vec<u64> = (0..1 << 19).map(|_| rng.next_below(1 << 32)).collect();
        [
            ("MRL99", work(Mrl99::new(1e-3, 7), &rows, phis)),
            ("Random", work(RandomSketch::new(1e-3, 7), &rows, phis)),
        ]
    }

    /// A sparse sweep (99 φs, under `cap /` [`SAMPLES_PER_SEARCHED_PHI`])
    /// builds no index, and each half of it searches only its side of
    /// the median's cut. The counts are deterministic at this seed:
    /// 1 099 samples placed for MRL99, 1 155 for `Random`; searching
    /// every φ among all the samples places 1 530 and 1 623. The bound,
    /// 13 per φ (1 287), lies between.
    #[test]
    fn a_sparse_sweep_builds_no_index_and_probes_each_side_of_its_cuts() {
        use crate::counts::Work;
        let phis = sqs_util::exact::probe_phis(0.01);
        let bound = 13 * phis.len() as u64;
        for (name, work) in sweep_work(&phis) {
            assert_eq!(work[Work::IndexBuild], 0, "{name}: index builds");
            let probes = work[Work::Probe];
            assert!(probes <= bound, "{name}: {probes} probes, over {bound}");
        }
    }

    /// A dense sweep (999 φs, past [`SAMPLES_PER_SEARCHED_PHI`]'s
    /// crossover) builds exactly one index and searches nothing in place.
    #[test]
    fn a_dense_sweep_builds_one_index_and_searches_nothing_in_place() {
        use crate::counts::Work;
        for (name, work) in sweep_work(&sqs_util::exact::probe_phis(1e-3)) {
            assert_eq!(
                (work[Work::IndexBuild], work[Work::Probe]),
                (1, 0),
                "{name}: (index builds, probes) of a dense sweep"
            );
        }
    }
}
