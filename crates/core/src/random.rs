//! `Random` — the paper's simplified randomized summary (§2.2), a
//! streamlined MRL99 with the new `O((1/ε)·log^1.5(1/ε))` analysis.
//!
//! With `h = ⌈log₂(1/ε)⌉`, the summary keeps `b = h + 1` buffers of
//! `s = ⌈(1/ε)·√h⌉` elements each. An empty buffer is filled at the
//! current *active level* `l = max(0, ⌈log₂(n/(s·2^{h−1}))⌉)` by
//! keeping one uniformly-chosen element out of every `2^l` arrivals.
//! When every buffer is full, the two fullest-at-the-lowest-level
//! buffers are merged: the combined sorted sequence keeps its odd or
//! its even positions, each with probability 1/2, and the result lives
//! one level higher. Ranks are estimated as
//! `r̂(v) = Σ_X 2^{l(X)} · |{y ∈ X : y < v}|`.
//!
//! `Random` is MRL99 with the weighted COLLAPSE cut out, and the code
//! says so: both are one [`Sampled`] — a buffer `Pool` fed through a
//! `GroupSampler` — whose `WEIGHTED` parameter picks the rule that
//! frees a buffer, this module's odd/even merge or
//! [`mrl99`](crate::mrl99)'s COLLAPSE.

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
// ^ audited: indices and casts here are bounded by structural
// invariants (see `check_invariants` impls and docs/ANALYSIS.md);
// this module is on the `cargo xtask check` allowlist.

use crate::buffers::{merge_equal_level, weighted_collapse, GroupSampler, Pool};
use crate::QuantileSummary;
use sqs_util::rng::Xoshiro256pp;
use sqs_util::space::SpaceUsage;

/// A sampling summary of the MRL99 family: [`RandomSketch`]
/// (`WEIGHTED = false`) or [`Mrl99`](crate::mrl99::Mrl99) (`true`).
#[derive(Debug, Clone)]
pub struct Sampled<T, const WEIGHTED: bool> {
    eps: f64,
    /// h = ⌈log₂(1/ε)⌉; the conceptual merge-tree has height ~h.
    h: u32,
    /// `b = h + 1` buffers of `s = ⌈(1/ε)·√h⌉` samples; in `Random` a
    /// buffer at level `l` has weight `2^l`.
    pub(crate) pool: Pool<T>,
    /// Thins the arrivals feeding the pool's fill to one per weight.
    pub(crate) sampler: GroupSampler<T>,
    rng: Xoshiro256pp,
}

/// The `Random` summary (randomized, comparison-based; reports all
/// quantiles within ε with constant probability).
///
/// # Example
///
/// ```
/// use sqs_core::{random::RandomSketch, QuantileSummary};
/// use sqs_util::SpaceUsage;
///
/// let mut s = RandomSketch::new(0.01, /* seed */ 42);
/// let fixed_footprint = s.space_bytes(); // preallocated from ε alone
/// for x in 0..500_000u64 {
///     s.insert(x);
/// }
/// assert_eq!(s.space_bytes(), fixed_footprint); // never grows
/// let p90 = s.quantile(0.9).unwrap();
/// assert!((440_000..=460_000).contains(&p90));
/// ```
pub type RandomSketch<T> = Sampled<T, false>;

/// Merges two sorted buffers at levels `l0 ≤ l1` into one at level
/// `l1 + 1`. Equal levels take the paper's rule: the odd or the even
/// positions of the combined sequence, each with probability 1/2.
/// Distinct levels take a weighted collapse capped at `s` samples and
/// so that `|out|·2^(l1+1)` stays within the mass of the inputs, which
/// a collapse must not exceed (`random.mass_bound`) — `None` when the
/// two hold less than one group of the merged level.
fn merge_pair<T: Ord + Copy>(
    s: usize,
    rng: &mut Xoshiro256pp,
    (l0, a): (u32, &[T]),
    (l1, b): (u32, &[T]),
) -> Option<Vec<T>> {
    if l0 == l1 {
        // Pad odd-sized partial buffers implicitly: the odd/even rule
        // works on any sorted pair.
        let mut merged = merge_equal_level(a, b, rng.next_bool());
        // An odd combined size with the even rule keeps ⌈m/2⌉ samples,
        // which at weight 2^(l+1) would represent one group more than
        // actually arrived; drop a uniform sample to preserve the
        // `random.mass_bound` invariant Σ 2^level·|data| ≤ n.
        if merged.len() * 2 > a.len() + b.len() {
            let drop = rng.next_below(merged.len() as u64) as usize;
            merged.remove(drop);
        }
        return Some(merged);
    }
    let (wa, wb) = (1u64 << l0, 1u64 << l1);
    let total = a.len() as u64 * wa + b.len() as u64 * wb;
    let cap = usize::try_from(total >> (l1 + 1)).unwrap_or(usize::MAX);
    if cap == 0 {
        return None;
    }
    let out_size = s.min(cap);
    let stride = (total / out_size as u64).max(1);
    let offset = rng.next_below(stride);
    Some(weighted_collapse(&[(a, wa), (b, wb)], out_size, offset).0)
}

/// Frees one buffer by merging. Prefers the paper's rule (two buffers
/// at the lowest level with ≥ 2); if every level holds at most one
/// full buffer, falls back to a weighted collapse of the two
/// lowest-level buffers (documented deviation — the equal-level pair
/// exists in all normal schedules, the fallback only guards adversarial
/// edge cases). Distinct levels always cap the output below `s`: the
/// result is then a partial buffer, resumed at its own level like the
/// partials `merge_from` leaves.
fn merge_once<T: Ord + Copy>(pool: &mut Pool<T>, rng: &mut Xoshiro256pp) {
    debug_assert!(pool.all_full());
    let bufs = &pool.buffers;
    let mut by_level: Vec<(u32, usize)> = (0..bufs.len()).map(|i| (bufs[i].level, i)).collect();
    by_level.sort_unstable();
    let equal = by_level.windows(2).position(|w| w[0].0 == w[1].0);
    let at = equal.unwrap_or(0);
    let ((li, i), (lj, j)) = (by_level[at], by_level[at + 1]);
    let merged = merge_pair(pool.cap, rng, (li, &bufs[i].data), (lj, &bufs[j].data))
        .expect("RandomSketch invariant: two full buffers hold a merged-level group");
    pool.replace(&[i, j], lj + 1, 1 << (lj + 1), merged);
}

impl<T: Ord + Copy, const WEIGHTED: bool> Sampled<T, WEIGHTED> {
    const ALG: &'static str = if WEIGHTED { "MRL99" } else { "Random" };

    /// The audit's rule names: ε range, buffer count, buffer size,
    /// mass bound, sampler state, sampler group against the fill.
    const RULES: [&'static str; 6] = if WEIGHTED {
        [
            "mrl99.eps_range",
            "mrl99.buffer_count",
            "mrl99.buffer_size",
            "mrl99.mass_bound",
            "mrl99.sampler_choice",
            "mrl99.sampler_weight",
        ]
    } else {
        [
            "random.eps_range",
            "random.buffer_count",
            "random.buffer_size",
            "random.mass_bound",
            "random.sampler_choice",
            "random.sampler_level",
        ]
    };

    /// Creates a summary with error target ε and a PRNG seed.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1`.
    pub fn new(eps: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        let h = (1.0 / eps).log2().ceil().max(1.0) as u32;
        let s = ((1.0 / eps) * (h as f64).sqrt()).ceil() as usize;
        Self {
            eps,
            h,
            pool: Pool::new(h as usize + 1, s.max(2)),
            sampler: GroupSampler::new(),
            rng: Xoshiro256pp::new(seed),
        }
    }

    /// The configured ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Buffer count `b = h + 1`.
    pub fn buffer_count(&self) -> usize {
        self.pool.buffers.len()
    }

    /// Per-buffer capacity `s`.
    pub fn buffer_size(&self) -> usize {
        self.pool.cap
    }

    /// Frees at least one buffer of the pool, every one of them full.
    fn make_room(&mut self) {
        if WEIGHTED {
            crate::mrl99::collapse(&mut self.pool, &mut self.rng);
        } else {
            merge_once(&mut self.pool, &mut self.rng);
        }
    }

    /// Ensures the sampler has a fill target: an empty buffer, sampled
    /// at the active level, its weight the `2^level` it is started at.
    /// Normally some buffer is empty, but `merge_from` can pack pooled
    /// samples into *every* slot: resume the lowest-level partial at
    /// its own level (the sampler thins each group of `2^level`
    /// arrivals to one sample, exactly that buffer's weight), or — with
    /// every slot truly full — compact once to free one.
    fn start_fill(&mut self) {
        let mut slot = self.pool.empty_slots().next();
        if slot.is_none() {
            let bufs = &self.pool.buffers;
            let partials = bufs.iter().enumerate().filter(|(_, b)| !b.full);
            let lowest = partials.min_by_key(|(_, b)| b.level);
            if let Some((idx, level)) = lowest.map(|(i, b)| (i, b.level)) {
                self.pool.fill = Some(idx);
                return self.sampler.start(level, &mut self.rng);
            }
            self.make_room();
            slot = self.pool.empty_slots().next();
        }
        let idx = slot.expect("pool invariant: freeing a buffer leaves one empty");
        let level = self.pool.active_level(self.h);
        self.pool.start_fill(idx, level, 1 << level);
        self.sampler.start(level, &mut self.rng);
    }

    /// Settles the fill after samples were appended to it: the next
    /// group starts at the level it still has `room` at; a fill that
    /// was released instead may have left no buffer free, and then one
    /// is freed.
    #[inline]
    fn settle(&mut self, room: Option<u32>) {
        match room {
            Some(level) => self.sampler.start(level, &mut self.rng),
            None if self.pool.all_full() => self.make_room(),
            None => {}
        }
    }

    /// Whether a query has built the rank index since the last
    /// mutation (inspection/tests; a clone never carries one).
    pub fn view_is_cached(&self) -> bool {
        self.pool.view.get().is_some()
    }
}

impl<T: Ord + Copy> RandomSketch<T> {
    /// Current levels of the full buffers (inspection/tests).
    pub fn levels(&self) -> Vec<u32> {
        let full = self.pool.buffers.iter().filter(|b| b.full);
        full.map(|b| b.level).collect()
    }

    /// Merges another summary into this one — the mergeable-summary
    /// operation of Agarwal et al. [1] that `Random` descends from
    /// (§2.2: "inspired by the algorithm ... that provides the
    /// mergeable property").
    ///
    /// Both summaries' full buffers are pooled; equal-level pairs are
    /// merged with the usual odd/even rule until at most `b` buffers
    /// remain (unpaired stragglers are weighted-collapsed at the end if
    /// still over budget). Partial fill buffers are folded in by
    /// replaying their samples at their buffer's level. The combined
    /// summary keeps the ε guarantee with the usual mergeable-summary
    /// constant.
    ///
    /// # Panics
    /// Panics if the two summaries were built with different ε.
    pub fn merge(&mut self, other: &mut RandomSketch<T>) {
        // Thin wrapper over the consuming form: take `other`'s state,
        // leaving it a fresh empty summary with the same ε (the
        // pre-merge contract — `other` ends up drained either way).
        let eps = other.eps;
        self.merge_from(std::mem::replace(other, RandomSketch::new(eps, 0)));
    }

    /// Consuming form of [`merge`](RandomSketch::merge): the primitive
    /// the engine's balanced merge tree folds with
    /// ([`MergeableSummary`](crate::MergeableSummary)). Taking `other`
    /// by value lets the tree hand summaries down the fold without
    /// leaving drained husks behind, and the pooled equal-level merge
    /// below compacts once per call — no double-compression when the
    /// result immediately feeds the next round.
    ///
    /// # Panics
    /// Panics if the two summaries were built with different ε, or
    /// (a decoded frame can claim any) hold pools of different shape.
    pub fn merge_from(&mut self, mut other: RandomSketch<T>) {
        assert!(
            crate::MergeableSummary::merge_compatible(self, &other),
            "RandomSketch merge: eps mismatch ({} vs {}) or another pool shape",
            self.eps,
            other.eps
        );
        self.pool.view.invalidate();
        // Pool all nonempty buffers as (level, sorted samples). Partial
        // buffers participate at their own level; in-progress groups
        // are dropped (bounded by one group each, same as queries).
        let mut pooled: Vec<(u32, Vec<T>)> = Vec::new();
        for b in (self.pool.buffers.iter_mut()).chain(other.pool.buffers.iter_mut()) {
            if !b.data.is_empty() {
                b.data.sort_unstable();
                pooled.push((b.level, std::mem::take(&mut b.data)));
            }
            b.clear();
        }
        self.pool.n += other.pool.n;
        self.pool.fill = None;
        self.sampler.park();

        // Repeatedly merge the lowest equal-level pair until we fit.
        let budget = self.pool.buffers.len();
        loop {
            pooled.sort_by_key(|(l, _)| *l);
            if pooled.len() <= budget {
                break;
            }
            // The lowest equal-level pair, or — all levels distinct but
            // still over budget — the two lowest, which collapse or,
            // holding less than one merged-level group, are dropped
            // outright: a loss bounded by one group, like the
            // in-progress groups above.
            let pair = pooled.windows(2).position(|w| w[0].0 == w[1].0);
            let i = pair.unwrap_or(0);
            let ((l0, a), (l1, b)) = (pooled.remove(i), pooled.remove(i));
            if let Some(merged) = merge_pair(self.pool.cap, &mut self.rng, (l0, &a), (l1, &b)) {
                pooled.push((l1 + 1, merged));
            }
        }
        for (idx, (level, data)) in pooled.into_iter().enumerate() {
            self.pool.replace(&[idx], level, 1 << level, data);
        }
    }
}

// analyze:allow(SQS-I01): `RandomSketch` is `Sampled<T, false>`, whose `CheckInvariants` impl is below
impl<T: Ord + Copy> crate::MergeableSummary<T> for RandomSketch<T> {
    fn merge_from(&mut self, other: Self) {
        RandomSketch::merge_from(self, other);
    }

    /// The same ε and the same pool shape. A decoded frame states its
    /// own buffer count and capacity, and `random.buffer_size` is only
    /// a lower bound: a frame with this tenant's ε and a larger `s`
    /// would otherwise hand over buffers no slot here can hold.
    fn merge_compatible(&self, other: &Self) -> bool {
        (self.eps - other.eps).abs() < 1e-12 && self.pool.same_shape(&other.pool)
    }
}

impl crate::codec::WireCodec for RandomSketch<u64> {
    const WIRE_KIND: u8 = crate::codec::KIND_RANDOM;

    /// Body layout (little-endian): ε bits `u64`, `h u32`, `s u64`,
    /// `n u64`, fill index `u64` (`u64::MAX` = none), the sampler
    /// (`GroupSampler::encode`: size, position, target `u64`×3,
    /// choice flag `u8` + value `u64`), RNG state `u64`×4, buffer count
    /// `u64`, then per buffer: `level u32`, full flag `u8`,
    /// length-prefixed samples. Serializing the sampler and RNG state
    /// makes the decoded summary *stream-identical* to the original:
    /// further inserts make exactly the random choices the sender would
    /// have made.
    fn encode_body(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.eps.to_bits().to_le_bytes());
        out.extend_from_slice(&self.h.to_le_bytes());
        out.extend_from_slice(&(self.pool.cap as u64).to_le_bytes());
        out.extend_from_slice(&self.pool.n.to_le_bytes());
        let fill = self.pool.fill.map_or(u64::MAX, |i| i as u64);
        out.extend_from_slice(&fill.to_le_bytes());
        self.sampler.encode(out);
        for w in self.rng.state() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&(self.pool.buffers.len() as u64).to_le_bytes());
        for b in &self.pool.buffers {
            out.extend_from_slice(&b.level.to_le_bytes());
            out.push(u8::from(b.full));
            crate::codec::put_u64_slice(out, &b.data);
        }
    }

    fn decode_body(body: &[u8]) -> Result<Self, crate::codec::CodecError> {
        use crate::buffers::Buffer;
        use crate::codec::{CodecError, Reader};
        let mut r = Reader::new(body);
        let eps = f64::from_bits(r.u64()?);
        let h = r.u32()?;
        // h bounds the `1 << (h-1)` in `active_level`; the per-buffer
        // levels bound the `<< level` mass shifts. Anything past 63
        // would overflow, so it is rejected here rather than audited.
        if !(1..=63).contains(&h) {
            return Err(CodecError::Malformed("Random: h outside 1..=63"));
        }
        let cap = usize::try_from(r.u64()?)
            .map_err(|_| CodecError::Malformed("Random: buffer size exceeds address space"))?;
        let n = r.u64()?;
        let fill_raw = r.u64()?;
        let sampler = GroupSampler::decode(&mut r)?;
        let rng_state = [r.u64()?, r.u64()?, r.u64()?, r.u64()?];
        let buf_count = r.read_len()?;
        // Each buffer costs at least 13 header bytes, so an honest
        // count never exceeds the room the body actually has.
        if buf_count > r.remaining() / 13 {
            return Err(CodecError::Truncated);
        }
        let mut buffers = Vec::with_capacity(buf_count);
        for _ in 0..buf_count {
            let level = r.u32()?;
            if level > 63 {
                return Err(CodecError::Malformed("Random: buffer level exceeds 63"));
            }
            let full = match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(CodecError::Malformed("Random: full flag not 0/1")),
            };
            buffers.push(Buffer {
                level,
                weight: 1 << level,
                data: r.u64_vec()?,
                full,
            });
        }
        r.done()?;
        let fill =
            if fill_raw == u64::MAX {
                None
            } else {
                Some(usize::try_from(fill_raw).map_err(|_| {
                    CodecError::Malformed("Random: fill index exceeds address space")
                })?)
            };
        // Whether the sampler state can be continued from is
        // `random.sampler_choice`, part of the audit `from_bytes` ends
        // in.
        Ok(Self {
            eps,
            h,
            pool: Pool {
                buffers,
                fill,
                n,
                ..Pool::new(0, cap)
            },
            sampler,
            rng: Xoshiro256pp::from_state(rng_state),
        })
    }
}

impl<T: Ord + Copy, const WEIGHTED: bool> sqs_util::audit::CheckInvariants
    for Sampled<T, WEIGHTED>
{
    /// Invariants of `Random` (§2.2) and MRL99 (Manku et al. '99, study
    /// §1.2.1): the `b = h+1` / `s = ⌈(1/ε)√h⌉` sizing, the pool's own
    /// rules (`buffers.*`: positive weights, the fill discipline, full
    /// buffers sorted, a fresh view), the level sampler drawing its
    /// target uniformly inside the fill's weight-sized group, and the
    /// represented mass `Σ weight·|data|` never exceeding the arrivals
    /// `n`. In `Random` every weight is `2^level`; MRL99's COLLAPSE
    /// sums weights into arbitrary integers.
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        let [eps_range, buffer_count, buffer_size, mass_bound, sampler_choice, sampler_group] =
            Self::RULES;
        let (alg, pool, s) = (Self::ALG, &self.pool, self.pool.cap);
        ensure(self.eps > 0.0 && self.eps < 1.0, alg, eps_range, || {
            format!("eps = {} outside (0,1)", self.eps)
        })?;
        ensure(
            pool.buffers.len() == self.h as usize + 1,
            alg,
            buffer_count,
            || format!("{} buffers ≠ b = h+1 = {}", pool.buffers.len(), self.h + 1),
        )?;
        ensure(
            s >= 2 && s >= (1.0 / self.eps).floor() as usize,
            alg,
            buffer_size,
            || format!("s = {s} below the ⌈(1/ε)√h⌉ sizing for eps {}", self.eps),
        )?;
        let mass = pool.audit(alg)?;
        ensure(
            WEIGHTED || pool.buffers.iter().all(|b| b.weight == 1 << b.level),
            alg,
            "random.level_weight",
            || "a buffer's weight is not 2^level".to_string(),
        )?;
        ensure(mass <= pool.n, alg, mass_bound, || {
            format!("represented mass {mass} exceeds arrivals n = {}", pool.n)
        })?;
        self.sampler.check_invariants(alg, sampler_choice)?;
        let Some(fill) = pool.fill.map(|idx| &pool.buffers[idx]) else {
            return Ok(());
        };
        ensure(
            self.sampler.size() == fill.weight,
            alg,
            sampler_group,
            || {
                format!(
                    "group size {} ≠ weight {} of the fill buffer at level {}",
                    self.sampler.size(),
                    fill.weight,
                    fill.level
                )
            },
        )
    }
}

impl<T: Ord + Copy, const WEIGHTED: bool> QuantileSummary<T> for Sampled<T, WEIGHTED> {
    fn insert(&mut self, x: T) {
        self.pool.view.invalidate();
        // Ensure a fill target exists before consuming the element.
        if self.pool.fill.is_none() {
            self.start_fill();
        }
        self.pool.n += 1;

        if let Some(kept) = self.sampler.offer(x) {
            let room = self.pool.push(kept);
            self.settle(room);
        }
        #[cfg(any(test, feature = "audit"))]
        if sqs_util::audit::audit_point(self.pool.n) {
            sqs_util::audit::CheckInvariants::assert_invariants(self);
        }
    }

    /// Bulk insert, leaving exactly the state itemwise insertion of
    /// the same rows would: the same samples, the same RNG draws in
    /// the same order, the same sorts and merges.
    ///
    /// At level 0 every arrival is kept, so whole slices are appended
    /// to the fill buffer. At level `l ≥ 1` one row in `2^l` is kept
    /// and which one was drawn when its group started, so the sampler
    /// steps over the rest of the group without looking at it
    /// (`GroupSampler::offer_slice`): a batch costs one step per kept
    /// sample, not one per row.
    fn insert_batch(&mut self, xs: &[T]) {
        self.pool.view.invalidate();
        let mut rest = xs;
        while !rest.is_empty() {
            if self.pool.fill.is_none() {
                self.start_fill();
            }
            let (used, room) = if self.sampler.size() == 1 {
                let (used, room) = self.pool.extend(rest);
                (used, Some(room))
            } else {
                let (used, kept) = self.sampler.offer_slice(rest);
                (used, kept.map(|kept| self.pool.push(kept)))
            };
            self.pool.n += used as u64;
            if let Some(room) = room {
                self.settle(room);
            }
            rest = &rest[used..];
        }
        #[cfg(any(test, feature = "audit"))]
        sqs_util::audit::CheckInvariants::assert_invariants(self);
    }

    fn n(&self) -> u64 {
        self.pool.n
    }

    fn rank_estimate(&mut self, x: T) -> u64 {
        self.pool.view().rank(x)
    }

    fn quantile(&mut self, phi: f64) -> Option<T> {
        crate::traits::check_phi(phi);
        self.pool.view().quantile(phi)
    }

    fn name(&self) -> &'static str {
        Self::ALG
    }
}

impl<T, const WEIGHTED: bool> SpaceUsage for Sampled<T, WEIGHTED> {
    fn space_bytes(&self) -> usize {
        // §4.2.5: "the buffers are pre-allocated according to ε", so
        // the footprint is the constant b·s elements plus per-buffer
        // level/fill bookkeeping.
        self.pool.space_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_util::exact::{observed_errors, probe_phis, ExactQuantiles};

    fn observed_max_err(eps: f64, data: Vec<u64>, seed: u64) -> f64 {
        let mut s = RandomSketch::new(eps, seed);
        for &x in &data {
            s.insert(x);
        }
        let oracle = ExactQuantiles::new(data);
        let answers: Vec<(f64, u64)> = probe_phis(eps)
            .into_iter()
            .map(|p| (p, s.quantile(p).unwrap()))
            .collect();
        observed_errors(&oracle, &answers).0
    }

    #[test]
    fn parameters_match_formulas() {
        let s = RandomSketch::<u64>::new(0.01, 1);
        assert_eq!(s.h, 7); // ⌈log₂ 100⌉
        assert_eq!(s.buffer_count(), 8);
        assert_eq!(s.buffer_size(), (100.0 * 7f64.sqrt()).ceil() as usize);
    }

    #[test]
    fn small_stream_is_exact() {
        // While n ≤ b·s every element is retained at level 0, so
        // queries are exact.
        let mut s = RandomSketch::new(0.1, 2);
        let data: Vec<u64> = (0..50).collect();
        for &x in &data {
            s.insert(x);
        }
        let oracle = ExactQuantiles::new(data);
        for phi in [0.1, 0.25, 0.5, 0.75, 0.9] {
            assert_eq!(oracle.quantile_error(phi, s.quantile(phi).unwrap()), 0.0);
        }
    }

    #[test]
    fn error_within_eps_with_slack_random_data() {
        let mut rng = sqs_util::rng::Xoshiro256pp::new(77);
        let data: Vec<u64> = (0..100_000).map(|_| rng.next_below(1 << 30)).collect();
        // Randomized guarantee: check against 1.5ε over a few seeds and
        // require the *average* within ε (the observed error in the
        // paper is far below ε).
        let eps = 0.02;
        let errs: Vec<f64> = (0..5)
            .map(|seed| observed_max_err(eps, data.clone(), seed))
            .collect();
        let avg = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(avg <= eps, "avg of max errors {avg} > eps {eps} ({errs:?})");
        assert!(errs.iter().all(|&e| e <= 2.0 * eps), "outlier: {errs:?}");
    }

    #[test]
    fn error_within_eps_sorted_data() {
        let data: Vec<u64> = (0..100_000).collect();
        let e = observed_max_err(0.02, data, 3);
        assert!(e <= 0.04, "err = {e}");
    }

    #[test]
    fn levels_grow_with_stream() {
        let mut s = RandomSketch::new(0.05, 4);
        for x in 0..200_000u64 {
            s.insert(x);
        }
        let max_lvl = s.levels().into_iter().max().unwrap_or(0);
        assert!(max_lvl >= 2, "max level = {max_lvl}");
        // Sampling keeps the space fixed regardless.
        assert_eq!(
            s.space_bytes(),
            s.buffer_count() * (s.buffer_size() + 2) * 4
        );
    }

    #[test]
    fn n_is_counted_exactly() {
        let mut s = RandomSketch::new(0.1, 5);
        for x in 0..12_345u64 {
            s.insert(x);
        }
        assert_eq!(s.n(), 12_345);
    }

    #[test]
    fn deterministic_given_seed() {
        let data: Vec<u64> = (0..50_000).map(|i| (i * 2654435761) % 99_991).collect();
        let mut a = RandomSketch::new(0.05, 9);
        let mut b = RandomSketch::new(0.05, 9);
        for &x in &data {
            a.insert(x);
            b.insert(x);
        }
        for phi in [0.2, 0.5, 0.8] {
            assert_eq!(a.quantile(phi), b.quantile(phi));
        }
    }

    #[test]
    fn rank_estimates_are_monotone_enough() {
        let mut s = RandomSketch::new(0.05, 10);
        for x in 0..50_000u64 {
            s.insert(x);
        }
        let r1 = s.rank_estimate(10_000);
        let r2 = s.rank_estimate(40_000);
        assert!(r1 < r2);
        assert!((r1 as f64) < 0.3 * 50_000.0);
        assert!((r2 as f64) > 0.6 * 50_000.0);
    }

    #[test]
    fn empty_returns_none() {
        let mut s = RandomSketch::<u64>::new(0.1, 11);
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn merge_combines_two_streams() {
        let eps = 0.05;
        let mut rng = sqs_util::rng::Xoshiro256pp::new(21);
        let a_data: Vec<u64> = (0..80_000).map(|_| rng.next_below(1 << 20)).collect();
        let b_data: Vec<u64> = (0..80_000)
            .map(|_| (1 << 19) + rng.next_below(1 << 20))
            .collect();
        let mut a = RandomSketch::new(eps, 1);
        let mut b = RandomSketch::new(eps, 2);
        for &x in &a_data {
            a.insert(x);
        }
        for &x in &b_data {
            b.insert(x);
        }
        a.merge(&mut b);
        assert_eq!(a.n(), 160_000);
        let mut all = a_data;
        all.extend(b_data);
        let oracle = ExactQuantiles::new(all);
        for phi in [0.1, 0.5, 0.9] {
            let q = a.quantile(phi).unwrap();
            let err = oracle.quantile_error(phi, q);
            // Mergeable-summary constant: allow 2ε.
            assert!(err <= 2.0 * eps, "phi={phi}: err {err}");
        }
    }

    #[test]
    fn merge_tree_of_many_shards() {
        let eps = 0.05;
        let mut shards: Vec<RandomSketch<u64>> = Vec::new();
        let mut all = Vec::new();
        for i in 0..8u64 {
            let mut rng = sqs_util::rng::Xoshiro256pp::new(100 + i);
            let data: Vec<u64> = (0..20_000).map(|_| rng.next_below(1 << 16)).collect();
            let mut s = RandomSketch::new(eps, i);
            for &x in &data {
                s.insert(x);
            }
            all.extend(data);
            shards.push(s);
        }
        while shards.len() > 1 {
            let mut next = Vec::new();
            let mut it = shards.into_iter();
            while let (Some(mut a), Some(mut b)) = (it.next(), it.next()) {
                a.merge(&mut b);
                next.push(a);
            }
            shards = next;
        }
        let mut root = shards.pop().unwrap();
        assert_eq!(root.n(), 160_000);
        let oracle = ExactQuantiles::new(all);
        for phi in [0.25, 0.5, 0.75] {
            let err = oracle.quantile_error(phi, root.quantile(phi).unwrap());
            assert!(err <= 2.5 * eps, "phi={phi}: err {err}");
        }
    }

    #[test]
    fn merge_with_empty_keeps_answers_valid() {
        let mut a = RandomSketch::new(0.1, 5);
        for x in 0..10_000u64 {
            a.insert(x);
        }
        let mut empty = RandomSketch::new(0.1, 6);
        a.merge(&mut empty);
        assert_eq!(a.n(), 10_000);
        let q = a.quantile(0.5).unwrap();
        assert!((4_000..6_000).contains(&q), "median {q}");
    }

    #[test]
    #[should_panic(expected = "eps mismatch")]
    fn merge_rejects_mismatched_eps() {
        let mut a = RandomSketch::<u64>::new(0.1, 1);
        let mut b = RandomSketch::<u64>::new(0.2, 2);
        a.merge(&mut b);
    }

    fn frame(s: &mut RandomSketch<u64>) -> Vec<u8> {
        use crate::codec::WireCodec;
        s.to_bytes()
    }

    fn group(s: &RandomSketch<u64>) -> u64 {
        s.sampler.size()
    }

    #[test]
    fn insert_batch_leaves_the_state_itemwise_insertion_would() {
        use crate::buffers::oracle::feed_both;
        use crate::codec::WireCodec;
        // The frame covers buffers, levels, fill index, sampler and RNG
        // state, so equal frames are equal summaries.
        for (eps, n, seed) in [(0.1, 24_000, 1), (0.02, 400_000, 2), (0.01, 1_500_000, 3)] {
            let mut rng = Xoshiro256pp::new(seed);
            let rows: Vec<u64> = (0..n).map(|_| rng.next_below(1 << 24)).collect();
            let (head, rest) = rows.split_at(n / 2);
            let (middle, tail) = rest.split_at(n / 4);
            let mut itemwise = RandomSketch::new(eps, seed);
            let mut batched = itemwise.clone();
            feed_both(&mut itemwise, &mut batched, head, &mut rng, group, frame);
            assert!(group(&batched) >= 1 << 6, "eps {eps}: level 6 not reached");

            // Resume from a frame taken in the middle of a group.
            assert!(batched.sampler.is_mid_group(), "eps {eps}");
            batched = RandomSketch::from_bytes(&frame(&mut batched)).expect("own frame decodes");
            feed_both(&mut itemwise, &mut batched, middle, &mut rng, group, frame);

            // A merge that packs every slot and leaves a partial buffer
            // above level 0: the next insert resumes that partial.
            let mut donor = RandomSketch::new(eps, seed + 100);
            donor.insert_batch(head);
            itemwise.merge_from(donor.clone());
            batched.merge_from(donor);
            assert!(
                group(&batched) == 1 && !batched.sampler.is_mid_group(),
                "eps {eps}: a merge abandons the group in progress"
            );
            assert!(
                batched.pool.buffers.iter().all(|b| !b.data.is_empty())
                    && batched.pool.buffers.iter().any(|b| !b.full && b.level > 0),
                "eps {eps}: the merge left no partial to resume"
            );
            feed_both(&mut itemwise, &mut batched, tail, &mut rng, group, frame);
        }
    }

    /// Frames the parent of the `GroupSampler` change encoded, at
    /// ε = 0.5 (two buffers of two samples) and seed 7 over the rows
    /// `value(0..n)`: one in the middle of a level-7 group with the
    /// choice pending, one at n = 2048 where an insert has just filled
    /// a buffer and no fill target exists.
    const PARENT_FRAME_MID_GROUP: &str = "\
        53515343020100009700000000000000000000000000e03f01000000020000000000000066010000\
        00000000010000000000000080000000000000006600000000000000650000000000000001bf5ca3\
        0000000000e3063922270b46e36beb7c91675fc360e84e823ae27e9b3b56ea863c6c182866020000\
        000000000007000000010200000000000000bdb728000000000086fd750000000000070000000000\
        0000000000000053d2ab82aeb25ac6";
    const PARENT_FRAME_BUFFER_JUST_FILLED: &str = "\
        53515343020100009700000000000000000000000000e03f01000000020000000000000000080000\
        00000000ffffffffffffffff01000000000000000000000000000000000000000000000000000000\
        0000000000fa657bf2f0a175a6f24ac0ff30ff012ed1d34820d8d2059df95ca02487699b43020000\
        00000000000a000000010200000000000000d9551a00000000007ad9790000000000000000000000\
        000000000000005edba272a6ab127f";

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
            .collect()
    }

    #[test]
    fn parent_frames_decode_continue_and_are_emitted_unchanged() {
        use crate::codec::WireCodec;
        let value = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
        let mid = unhex(PARENT_FRAME_MID_GROUP);
        let end = unhex(PARENT_FRAME_BUFFER_JUST_FILLED);

        // Built here from nothing, scalar and batched: the parent's
        // bytes, including the dormant sampler an encode used to write
        // in by hand when no fill target exists.
        let mut scalar = RandomSketch::<u64>::new(0.5, 7);
        let mut batched = scalar.clone();
        (0..358).for_each(|i| scalar.insert(value(i)));
        batched.insert_batch(&(0..358).map(value).collect::<Vec<_>>());
        assert_eq!(scalar.to_bytes(), mid);
        assert_eq!(batched.to_bytes(), mid);

        // The parent's mid-group frame, continued here in batches,
        // makes the parent's random choices.
        let mut resumed = RandomSketch::<u64>::from_bytes(&mid).expect("parent frame decodes");
        assert!(resumed.sampler.is_mid_group());
        let more: Vec<u64> = (358..2048).map(value).collect();
        for chunk in more.chunks(97) {
            resumed.insert_batch(chunk);
        }
        assert!(resumed.pool.fill.is_none());
        assert_eq!(resumed.to_bytes(), end);
    }

    #[test]
    fn merge_from_consuming_matches_wrapper() {
        let eps = 0.05;
        let build = |seed: u64, lo: u64| {
            let mut s = RandomSketch::new(eps, seed);
            for x in 0..40_000u64 {
                s.insert(lo + (x * 2654435761) % 100_000);
            }
            s
        };
        let mut via_wrapper = build(1, 0);
        let mut donor = build(2, 50_000);
        via_wrapper.merge(&mut donor);
        let mut via_consume = build(1, 0);
        via_consume.merge_from(build(2, 50_000));
        assert_eq!(via_wrapper.n(), via_consume.n());
        for phi in [0.1, 0.5, 0.9] {
            assert_eq!(via_wrapper.quantile(phi), via_consume.quantile(phi));
        }
        // The drained donor is a usable empty summary.
        assert_eq!(donor.n(), 0);
        donor.insert(7);
        assert_eq!(donor.quantile(0.5), Some(7));
    }

    #[test]
    fn view_is_never_stale_under_any_interleaving() {
        use crate::buffers::live_buffers;
        use crate::buffers::oracle::{check_view_never_stale, sweep};
        use crate::codec::WireCodec;
        type S = RandomSketch<u64>;
        fn expect(s: &mut S, phis: &[f64], xs: &[u64]) -> (Vec<Option<u64>>, Vec<u64>) {
            sweep(&live_buffers(&s.pool.buffers), phis, xs)
        }
        fn merge(s: &mut S, rng: &mut Xoshiro256pp) {
            let mut other = S::new(s.eps, rng.next_below(1 << 32));
            for _ in 0..rng.next_below(1500) {
                other.insert(rng.next_below(48));
            }
            let _ = other.quantile(0.5); // the donor's own view must not leak in
            s.merge_from(other);
        }
        fn roundtrip(s: &mut S, _: &mut Xoshiro256pp) {
            *s = S::from_bytes(&s.to_bytes()).expect("own frame decodes");
        }
        // A 48-value universe piles equal values into buffers of
        // different weight; the wide one has next to no ties.
        for (universe, seed) in [(48, 1), (1 << 20, 2)] {
            check_view_never_stale(
                S::new(0.1, seed),
                universe,
                seed,
                expect,
                &[merge, roundtrip],
            );
        }
    }

    #[test]
    fn insert_compacts_when_merge_left_no_buffer_empty() {
        // `merge_from` may pack pooled samples into every slot (the
        // last one partial). Reconstruct that post-merge state and
        // check inserts compact instead of panicking (regression: the
        // durable-store recovery path absorbs a checkpoint and then
        // replays WAL batches into the same sketch).
        let mut s = RandomSketch::new(0.05, 11);
        for x in 0..40_000u64 {
            s.insert((x * 2654435761) % 100_000);
        }
        s.pool.fill = None;
        s.sampler.park();
        for b in &mut s.pool.buffers {
            if b.data.is_empty() {
                b.clear();
                b.data.push(7);
                s.pool.n += 1;
            }
        }
        let before = s.n();
        s.insert(9);
        s.insert_batch(&[1, 2, 3]);
        assert_eq!(s.n(), before + 4);
        assert!(s.quantile(0.5).is_some());
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    fn filled() -> RandomSketch<u64> {
        let mut s = RandomSketch::new(0.05, 7);
        for x in 0..20_000u64 {
            s.insert(20_000 - x);
        }
        s
    }

    #[test]
    fn auditor_catches_a_sampler_outside_its_group() {
        use crate::buffers::oracle::sampler_in_state;
        use crate::codec::{CodecError, WireCodec};
        let mut s = filled();
        let size = s.sampler.size();
        assert!(s.pool.fill.is_some() && size >= 4);
        // A choice before the target is reached; none after it (the
        // group's sample would be lost); a position at the group's
        // end; a target beyond it; a group of three.
        for (size, pos, target, choice) in [
            (size, 0, 0, Some(1)),
            (size, 2, 1, None),
            (size, size, 0, Some(1)),
            (size, 0, size, None),
            (3, 0, 0, None),
        ] {
            s.sampler = sampler_in_state(size, pos, target, choice);
            let err = s.check_invariants().unwrap_err();
            assert_eq!(err.invariant, "random.sampler_choice", "{:?}", s.sampler);
            // The same rule is what stands between a forged frame and
            // a later insert.
            match RandomSketch::<u64>::from_bytes(&s.to_bytes()) {
                Err(CodecError::Invariant(v)) => assert_eq!(v.invariant, err.invariant),
                other => panic!("{:?} decoded as {other:?}", s.sampler),
            }
        }
    }

    #[test]
    fn auditor_catches_a_sampler_or_a_weight_off_its_buffers_level() {
        use crate::buffers::oracle::sampler_in_state;
        let mut s = filled();
        let fill = s.pool.fill.expect("a fill in progress");
        // Sound in itself, but not the fill buffer's group.
        s.sampler = sampler_in_state(s.sampler.size() * 2, 0, 0, None);
        let err = s.check_invariants().unwrap_err();
        assert_eq!(err.invariant, "random.sampler_level");
        // The mass rule reads weights, the merges read levels.
        s.pool.buffers[fill].weight *= 2;
        let err = s.check_invariants().unwrap_err();
        assert_eq!(err.invariant, "random.level_weight");
    }

    #[test]
    fn a_frame_whose_mass_would_wrap_is_refused() {
        use crate::codec::{seal, CodecError, WireCodec};
        // Six samples at level 63 stand for 6·2^63 rows: summed in
        // wrapping arithmetic that is 0 ≤ n, and the first query over
        // the absorbed buffer overflowed its prefix ranks.
        let mut s = RandomSketch::<u64>::new(0.05, 1);
        s.insert_batch(&[1, 2, 3, 4, 5, 6]);
        let mut frame = s.to_bytes();
        frame.truncate(frame.len() - 8);
        // No fill (44..52), so the sampler has no level to match, and
        // buffer 0's level (125..129) raised to the decoder's limit.
        frame[44..52].copy_from_slice(&u64::MAX.to_le_bytes());
        frame[125..129].copy_from_slice(&63u32.to_le_bytes());
        seal(&mut frame);
        match RandomSketch::<u64>::from_bytes(&frame) {
            Err(CodecError::Invariant(v)) => assert_eq!(v.invariant, "random.mass_bound"),
            other => panic!("decoded as {other:?}"),
        }
    }

    #[test]
    fn auditor_catches_mass_inflation() {
        let mut s = filled();
        s.pool.n = 19_000;
        let err = s.check_invariants().unwrap_err();
        assert_eq!(
            (err.algorithm, err.invariant),
            ("Random", "random.mass_bound")
        );
    }
}
