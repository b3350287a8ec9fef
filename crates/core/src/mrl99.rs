//! `MRL99` — Manku, Rajagopalan & Lindsay's randomized sampler
//! (SIGMOD'99), the algorithm the paper's `Random` simplifies (§1.2.1).
//!
//! Mechanically, MRL99 differs from `Random` in two ways the study
//! isolates:
//!
//! * **COLLAPSE merges *all* buffers at the minimal weight** (not just
//!   a pair) into one output buffer whose weight is the sum, using the
//!   weighted position-selection rule with a uniformly random offset —
//!   buffer weights are therefore arbitrary integers, not powers of 2.
//! * If only one buffer has the minimal weight, the next-lightest
//!   buffer joins the collapse (the MRL99 policy guarantees ≥ 2
//!   inputs).
//!
//! New buffers are fed by the same active-level sampling as `Random`
//! (one uniformly-chosen element per `2^l` arrivals, giving the buffer
//! weight `2^l`).
//!
//! **Sizing note (recorded in DESIGN.md):** MRL99 chooses `b` and `k`
//! by numerically solving an optimization over its (loose) error
//! bound. The study's finding is that those "details were not actually
//! needed"; to make the comparison isolate the *mechanism* (collapse-
//! all + random offset vs pairwise odd/even), this implementation uses
//! the same `b = h+1`, `k = ⌈(1/ε)√h⌉` sizing as `Random`. The paper's
//! observation that the two perform near-identically is then directly
//! checkable.

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
// ^ audited: indices and casts here are bounded by structural
// invariants (see `check_invariants` impls and docs/ANALYSIS.md);
// this module is on the `cargo xtask check` allowlist.

use crate::buffers::{weighted_collapse, CachedView, GroupSampler, RankIndex};
use crate::QuantileSummary;
use sqs_util::rng::Xoshiro256pp;
use sqs_util::space::{words, SpaceUsage};

#[derive(Debug, Clone)]
struct Buffer<T> {
    weight: u64,
    data: Vec<T>,
    full: bool,
}

/// The MRL99 randomized quantile summary (comparison-based,
/// `O((1/ε)·log²(1/ε))` space by its original analysis).
#[derive(Debug, Clone)]
pub struct Mrl99<T> {
    eps: f64,
    h: u32,
    k: usize,
    buffers: Vec<Buffer<T>>,
    fill: Option<usize>,
    /// Thins the arrivals feeding `buffers[fill]` to one per weight.
    sampler: GroupSampler<T>,
    n: u64,
    rng: Xoshiro256pp,
    /// The queries' sorted union of `buffers`; every mutator drops it.
    view: CachedView<RankIndex<T>>,
}

impl<T: Ord + Copy> Mrl99<T> {
    /// Creates a summary with error target ε and a PRNG seed.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1`.
    pub fn new(eps: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        let h = (1.0 / eps).log2().ceil().max(1.0) as u32;
        let k = (((1.0 / eps) * (h as f64).sqrt()).ceil() as usize).max(2);
        let b = h as usize + 1;
        Self {
            eps,
            h,
            k,
            buffers: (0..b)
                .map(|_| Buffer {
                    weight: 1,
                    data: Vec::with_capacity(k),
                    full: false,
                })
                .collect(),
            fill: None,
            sampler: GroupSampler::new(),
            n: 0,
            rng: Xoshiro256pp::new(seed),
            view: CachedView::default(),
        }
    }

    /// The configured ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Number of buffers.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Per-buffer capacity.
    pub fn buffer_size(&self) -> usize {
        self.k
    }

    /// Weights of the currently full buffers (inspection/tests).
    pub fn weights(&self) -> Vec<u64> {
        self.buffers
            .iter()
            .filter(|b| b.full)
            .map(|b| b.weight)
            .collect()
    }

    /// The level a buffer started now is sampled at — `Random`'s
    /// rule; the buffer's weight is `2^level`.
    fn active_level(&self) -> u32 {
        let denom = self.k as f64 * (1u64 << (self.h - 1)) as f64;
        let ratio = self.n as f64 / denom;
        if ratio <= 1.0 {
            0
        } else {
            ratio.log2().ceil() as u32
        }
    }

    /// Picks an empty buffer to fill, if none is being filled.
    #[inline]
    fn ensure_fill_target(&mut self) {
        if self.fill.is_none() {
            self.start_buffer();
        }
    }

    /// Starts filling an empty buffer at the active level.
    fn start_buffer(&mut self) {
        let idx = self
            .buffers
            .iter()
            .position(|b| !b.full && b.data.is_empty())
            .expect("MRL99 invariant: an empty buffer exists after collapsing");
        let level = self.active_level();
        self.buffers[idx].weight = 1u64 << level;
        self.fill = Some(idx);
        self.sampler.start(level, &mut self.rng);
    }

    /// Appends a kept sample to the fill buffer: the next group starts
    /// at the buffer's weight, unless the buffer is full.
    #[inline]
    fn push_sample(&mut self, kept: T) {
        let idx = self
            .fill
            .expect("MRL99 invariant: fill buffer selected before append");
        let buf = &mut self.buffers[idx];
        buf.data.push(kept);
        if buf.data.len() < self.k {
            // A fill buffer's weight is the power of two it was
            // started at (`mrl99.sampler_weight`).
            self.sampler
                .start(buf.weight.trailing_zeros(), &mut self.rng);
        } else {
            self.release_fill_buffer(idx);
        }
    }

    /// Sorts and releases the fill buffer, now full; if that leaves no
    /// buffer free, a COLLAPSE frees one.
    // Cold — once per buffer of samples — so that the per-sample step
    // around it stays small enough to inline into `insert`.
    #[cold]
    fn release_fill_buffer(&mut self, idx: usize) {
        let buf = &mut self.buffers[idx];
        buf.data.sort_unstable();
        buf.full = true;
        self.fill = None;
        if self.buffers.iter().all(|b| b.full) {
            self.collapse();
        }
    }

    /// The MRL99 COLLAPSE: merge all minimal-weight full buffers (at
    /// least two — the second-lightest joins if the minimum is unique)
    /// into one buffer of summed weight.
    fn collapse(&mut self) {
        debug_assert!(self.buffers.iter().all(|b| b.full));
        let min_w = self
            .buffers
            .iter()
            .map(|b| b.weight)
            .min()
            .expect("MRL99 invariant: at least one buffer exists");
        let mut chosen: Vec<usize> = self
            .buffers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.weight == min_w)
            .map(|(i, _)| i)
            .collect();
        if chosen.len() < 2 {
            // Include the next-lightest buffer.
            let next = self
                .buffers
                .iter()
                .enumerate()
                .filter(|(i, _)| !chosen.contains(i))
                .min_by_key(|(_, b)| b.weight)
                .map(|(i, _)| i)
                .expect("MRL99 invariant: collapse requires >= 2 minimum-weight buffers");
            chosen.push(next);
        }
        let inputs: Vec<(&[T], u64)> = chosen
            .iter()
            .map(|&i| (self.buffers[i].data.as_slice(), self.buffers[i].weight))
            .collect();
        let total_w: u64 = inputs.iter().map(|(d, w)| d.len() as u64 * w).sum();
        let stride = (total_w / self.k as u64).max(1);
        let offset = self.rng.next_below(stride);
        let (merged, _) = weighted_collapse(&inputs, self.k, offset);
        let new_weight: u64 = chosen.iter().map(|&i| self.buffers[i].weight).sum();

        let target = chosen[0];
        self.buffers[target].data = merged;
        self.buffers[target].weight = new_weight;
        self.buffers[target].full = true;
        for &i in &chosen[1..] {
            self.buffers[i].data.clear();
            self.buffers[i].full = false;
            self.buffers[i].weight = 1;
        }
    }

    fn live_buffers(buffers: &[Buffer<T>]) -> Vec<(&[T], u64)> {
        buffers
            .iter()
            .filter(|b| !b.data.is_empty())
            .map(|b| (b.data.as_slice(), b.weight))
            .collect()
    }

    /// The rank index over the live buffers, sorted on the first query
    /// after a mutation.
    fn view(&mut self) -> &RankIndex<T> {
        self.view
            .get_or_build(|| RankIndex::build(&Self::live_buffers(&self.buffers)))
    }
}

impl<T: Ord + Copy> sqs_util::audit::CheckInvariants for Mrl99<T> {
    /// MRL99 invariants (Manku et al. '99, study §1.2.1): `b = h+1`
    /// buffers of capacity `k`, positive integer buffer weights
    /// (arbitrary, not powers of two — the COLLAPSE sums them), the
    /// `full ⇔ |data| = k` fill discipline with full buffers sorted,
    /// represented mass `Σ weight·|data| ≤ n`, the level sampler
    /// targeting a uniform position inside the current weight-sized
    /// group, and a cached rank index equal to a rebuild from the
    /// buffers.
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "MRL99";
        ensure(
            self.eps > 0.0 && self.eps < 1.0,
            ALG,
            "mrl99.eps_range",
            || format!("eps = {} outside (0,1)", self.eps),
        )?;
        ensure(
            self.buffers.len() == self.h as usize + 1,
            ALG,
            "mrl99.buffer_count",
            || format!("{} buffers ≠ b = h+1 = {}", self.buffers.len(), self.h + 1),
        )?;
        ensure(self.k >= 2, ALG, "mrl99.buffer_size", || {
            format!("k = {} below the minimum of 2", self.k)
        })?;
        let mut mass = 0u64;
        for (i, b) in self.buffers.iter().enumerate() {
            ensure(b.weight >= 1, ALG, "mrl99.weight_positive", || {
                format!("buffer {i} has weight 0")
            })?;
            ensure(b.data.len() <= self.k, ALG, "mrl99.buffer_overflow", || {
                format!("buffer {i} holds {} > k = {}", b.data.len(), self.k)
            })?;
            ensure(
                b.full == (b.data.len() == self.k),
                ALG,
                "mrl99.fill_flag",
                || {
                    format!(
                        "buffer {i}: full = {} but |data| = {} (k = {})",
                        b.full,
                        b.data.len(),
                        self.k
                    )
                },
            )?;
            if b.full {
                ensure(
                    b.data.windows(2).all(|w| w[0] <= w[1]),
                    ALG,
                    "mrl99.full_buffer_sorted",
                    || format!("full buffer {i} at weight {} is not sorted", b.weight),
                )?;
            }
            mass += b.data.len() as u64 * b.weight;
        }
        ensure(mass <= self.n, ALG, "mrl99.mass_bound", || {
            format!("represented mass {mass} exceeds arrivals n = {}", self.n)
        })?;
        self.sampler.check_invariants(ALG, "mrl99.sampler_choice")?;
        if let Some(idx) = self.fill {
            ensure(idx < self.buffers.len(), ALG, "mrl99.fill_index", || {
                format!("fill index {idx} out of range")
            })?;
            ensure(!self.buffers[idx].full, ALG, "mrl99.fill_not_full", || {
                format!("fill buffer {idx} is already marked full")
            })?;
            ensure(
                self.sampler.size() == self.buffers[idx].weight,
                ALG,
                "mrl99.sampler_weight",
                || {
                    format!(
                        "group size {} ≠ fill buffer weight {}",
                        self.sampler.size(),
                        self.buffers[idx].weight
                    )
                },
            )?;
        }
        self.view
            .ensure_fresh(&Self::live_buffers(&self.buffers), ALG, "mrl99.view_fresh")
    }
}

impl<T: Ord + Copy> QuantileSummary<T> for Mrl99<T> {
    fn insert(&mut self, x: T) {
        self.view.invalidate();
        self.ensure_fill_target();
        self.n += 1;
        if let Some(kept) = self.sampler.offer(x) {
            self.push_sample(kept);
        }
        #[cfg(any(test, feature = "audit"))]
        if sqs_util::audit::audit_point(self.n) {
            sqs_util::audit::CheckInvariants::assert_invariants(self);
        }
    }

    /// Bulk insert, leaving exactly the state itemwise insertion of
    /// the same rows would: the sampler steps over the rows of a group
    /// it was never going to keep (`GroupSampler::offer_slice`), so a
    /// batch costs one step per kept sample, not one per row.
    fn insert_batch(&mut self, xs: &[T]) {
        self.view.invalidate();
        let mut rest = xs;
        while !rest.is_empty() {
            self.ensure_fill_target();
            let (used, kept) = self.sampler.offer_slice(rest);
            self.n += used as u64;
            if let Some(kept) = kept {
                self.push_sample(kept);
            }
            rest = &rest[used..];
        }
        #[cfg(any(test, feature = "audit"))]
        sqs_util::audit::CheckInvariants::assert_invariants(self);
    }

    fn n(&self) -> u64 {
        self.n
    }

    fn rank_estimate(&mut self, x: T) -> u64 {
        self.view().rank(x)
    }

    fn quantile(&mut self, phi: f64) -> Option<T> {
        crate::traits::check_phi(phi);
        self.view().quantile(phi)
    }

    fn name(&self) -> &'static str {
        "MRL99"
    }
}

impl<T> SpaceUsage for Mrl99<T> {
    fn space_bytes(&self) -> usize {
        // Pre-allocated b·k sample slots + weight/fill word per buffer.
        words(self.buffers.len() * (self.k + 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_util::exact::{observed_errors, probe_phis, ExactQuantiles};

    fn observed_max_err(eps: f64, data: &[u64], seed: u64) -> f64 {
        let mut s = Mrl99::new(eps, seed);
        for &x in data {
            s.insert(x);
        }
        let oracle = ExactQuantiles::new(data.to_vec());
        let answers: Vec<(f64, u64)> = probe_phis(eps)
            .into_iter()
            .map(|p| (p, s.quantile(p).unwrap()))
            .collect();
        observed_errors(&oracle, &answers).0
    }

    #[test]
    fn small_stream_exact() {
        let mut s = Mrl99::new(0.1, 1);
        let data: Vec<u64> = (0..40).rev().collect();
        for &x in &data {
            s.insert(x);
        }
        let oracle = ExactQuantiles::new(data);
        for phi in [0.2, 0.5, 0.8] {
            assert_eq!(oracle.quantile_error(phi, s.quantile(phi).unwrap()), 0.0);
        }
    }

    #[test]
    fn error_within_eps_with_slack() {
        let mut rng = sqs_util::rng::Xoshiro256pp::new(42);
        let data: Vec<u64> = (0..100_000).map(|_| rng.next_below(1 << 28)).collect();
        let eps = 0.02;
        let errs: Vec<f64> = (0..5)
            .map(|seed| observed_max_err(eps, &data, seed))
            .collect();
        let avg = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(avg <= eps, "avg max err {avg} > {eps} ({errs:?})");
        assert!(errs.iter().all(|&e| e <= 2.0 * eps), "outlier: {errs:?}");
    }

    #[test]
    fn collapse_produces_summed_weights() {
        let mut s = Mrl99::new(0.2, 7);
        for x in 0..100_000u64 {
            s.insert(x);
        }
        let weights = s.weights();
        assert!(!weights.is_empty());
        // Total represented mass stays close to n (partial groups and
        // the fill buffer account for the gap).
        let mass: u64 = s
            .buffers
            .iter()
            .map(|b| b.data.len() as u64 * b.weight)
            .sum();
        let n = s.n();
        assert!(mass <= n);
        assert!(mass as f64 > 0.8 * n as f64, "mass {mass} vs n {n}");
    }

    #[test]
    fn matches_random_sizing() {
        let m = Mrl99::<u64>::new(0.01, 1);
        let r = crate::random::RandomSketch::<u64>::new(0.01, 1);
        assert_eq!(m.buffer_count(), r.buffer_count());
        assert_eq!(m.buffer_size(), r.buffer_size());
    }

    #[test]
    fn deterministic_given_seed() {
        let data: Vec<u64> = (0..60_000).map(|i| (i * 48271) % 65_536).collect();
        let mut a = Mrl99::new(0.05, 3);
        let mut b = Mrl99::new(0.05, 3);
        for &x in &data {
            a.insert(x);
            b.insert(x);
        }
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
    }

    #[test]
    fn insert_batch_leaves_the_state_itemwise_insertion_would() {
        use crate::buffers::oracle::feed_both;
        // MRL99 has no wire form; its `Debug` form covers the same
        // ground — buffers, weights, fill index, sampler and RNG state.
        fn state(s: &mut Mrl99<u64>) -> Vec<u8> {
            format!("{s:?}").into_bytes()
        }
        fn group(s: &Mrl99<u64>) -> u64 {
            s.sampler.size()
        }
        for (eps, n, seed) in [(0.1, 24_000, 1), (0.02, 400_000, 2), (0.01, 1_500_000, 3)] {
            let mut rng = Xoshiro256pp::new(seed);
            let rows: Vec<u64> = (0..n).map(|_| rng.next_below(1 << 24)).collect();
            let mut itemwise = Mrl99::new(eps, seed);
            let mut batched = itemwise.clone();
            feed_both(&mut itemwise, &mut batched, &rows, &mut rng, group, state);
            assert!(group(&batched) >= 1 << 6, "eps {eps}: level 6 not reached");
        }
    }

    #[test]
    fn view_is_never_stale_under_any_interleaving() {
        use crate::buffers::oracle::{check_view_never_stale, sweep};
        type S = Mrl99<u64>;
        fn expect(s: &mut S, phis: &[f64], xs: &[u64]) -> (Vec<Option<u64>>, Vec<u64>) {
            sweep(&S::live_buffers(&s.buffers), phis, xs)
        }
        for (universe, seed) in [(48, 1), (1 << 20, 2)] {
            check_view_never_stale(S::new(0.1, seed), universe, seed, expect, &[]);
        }
    }

    #[test]
    fn empty_is_none() {
        let mut s = Mrl99::<u64>::new(0.1, 5);
        assert_eq!(s.quantile(0.4), None);
        assert_eq!(s.n(), 0);
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    #[test]
    fn auditor_catches_zeroed_weight() {
        let mut s = Mrl99::<u64>::new(0.05, 9);
        for x in 0..20_000u64 {
            s.insert(x);
        }
        s.buffers[0].weight = 0;
        let err = s.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "MRL99");
        assert_eq!(err.invariant, "mrl99.weight_positive");
    }

    #[test]
    fn auditor_catches_a_sampler_outside_its_group() {
        use crate::buffers::oracle::sampler_in_state;
        let mut s = Mrl99::<u64>::new(0.05, 9);
        for x in 0..20_000u64 {
            s.insert(x);
        }
        let size = s.sampler.size();
        assert!(s.fill.is_some() && size >= 4);
        // Past the target with no choice: the group's sample is lost.
        s.sampler = sampler_in_state(size, 2, 1, None);
        assert_eq!(
            s.check_invariants().unwrap_err().invariant,
            "mrl99.sampler_choice"
        );
        // Sound in itself, but not the fill buffer's group.
        s.sampler = sampler_in_state(size * 2, 0, 0, None);
        assert_eq!(
            s.check_invariants().unwrap_err().invariant,
            "mrl99.sampler_weight"
        );
    }

    #[test]
    fn auditor_catches_lost_buffer() {
        let mut s = Mrl99::<u64>::new(0.05, 9);
        for x in 0..20_000u64 {
            s.insert(x);
        }
        s.buffers.pop();
        assert_eq!(
            s.check_invariants().unwrap_err().invariant,
            "mrl99.buffer_count"
        );
    }
}
