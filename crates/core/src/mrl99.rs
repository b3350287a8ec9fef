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

use crate::buffers::Pool;
use sqs_util::rng::Xoshiro256pp;

/// The MRL99 randomized quantile summary (comparison-based,
/// `O((1/ε)·log²(1/ε))` space by its original analysis):
/// [`Sampled`](crate::random::Sampled) with the weighted COLLAPSE that
/// `Random` cuts out.
pub type Mrl99<T> = crate::random::Sampled<T, true>;

impl<T: Ord + Copy> Mrl99<T> {
    /// Weights of the currently full buffers (inspection/tests).
    pub fn weights(&self) -> Vec<u64> {
        let full = self.pool.buffers.iter().filter(|b| b.full);
        full.map(|b| b.weight).collect()
    }
}

/// The MRL99 COLLAPSE: merge all minimal-weight full buffers (at least
/// two — the second-lightest joins if the minimum is unique) into one
/// buffer of summed weight, at a uniformly random offset.
pub(crate) fn collapse<T: Ord + Copy>(pool: &mut Pool<T>, rng: &mut Xoshiro256pp) {
    debug_assert!(pool.all_full());
    let weights = || pool.buffers.iter().map(|b| b.weight).enumerate();
    let min_w = weights()
        .map(|(_, w)| w)
        .min()
        .expect("MRL99 invariant: at least one buffer exists");
    let lightest = weights().filter(|&(_, w)| w == min_w);
    let mut chosen: Vec<usize> = lightest.map(|(i, _)| i).collect();
    if chosen.len() < 2 {
        // Include the next-lightest buffer.
        let (next, _) = weights()
            .filter(|(i, _)| !chosen.contains(i))
            .min_by_key(|&(_, w)| w)
            .expect("MRL99 invariant: collapse requires >= 2 minimum-weight buffers");
        chosen.push(next);
    }
    pool.collapse(&chosen, |stride| rng.next_below(stride));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QuantileSummary;
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
            .pool
            .buffers
            .iter()
            .map(|b| b.data.len() as u64 * b.weight)
            .sum();
        let n = s.n();
        assert!(mass <= n);
        assert!(mass as f64 > 0.8 * n as f64, "mass {mass} vs n {n}");
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

            // One batch from the empty summary: whole slices appended
            // at weight 1, then groups stepped over, inside one call.
            let mut whole = Mrl99::new(eps, seed);
            whole.insert_batch(&rows);
            assert!(state(&mut whole) == state(&mut itemwise), "eps {eps}");
        }
    }

    #[test]
    fn view_is_never_stale_under_any_interleaving() {
        use crate::buffers::live_buffers;
        use crate::buffers::oracle::{check_view_never_stale, sweep};
        type S = Mrl99<u64>;
        fn expect(s: &mut S, phis: &[f64], xs: &[u64]) -> (Vec<Option<u64>>, Vec<u64>) {
            sweep(&live_buffers(&s.pool.buffers), phis, xs)
        }
        for (universe, seed) in [(48, 1), (1 << 20, 2)] {
            check_view_never_stale(S::new(0.1, seed), universe, seed, expect, &[]);
        }
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use crate::QuantileSummary;
    use sqs_util::audit::CheckInvariants;

    #[test]
    fn auditor_catches_a_sampler_outside_its_group() {
        use crate::buffers::oracle::sampler_in_state;
        let mut s = Mrl99::<u64>::new(0.05, 9);
        for x in 0..20_000u64 {
            s.insert(x);
        }
        let size = s.sampler.size();
        assert!(s.pool.fill.is_some() && size >= 4);
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
        s.pool.buffers.pop();
        assert_eq!(
            s.check_invariants().unwrap_err().invariant,
            "mrl99.buffer_count"
        );
    }
}
