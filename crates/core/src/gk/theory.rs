//! `GKTheory` — the original Greenwald–Khanna algorithm with the
//! banding COMPRESS procedure, exactly as analyzed in the 2001 paper
//! and summarized in §2.1 of the study.
//!
//! A new element is inserted as `(v, 1, ⌊2εn⌋ − 1)` before its
//! successor, and once every `⌈1/(2ε)⌉` insertions the COMPRESS sweep
//! merges tuples right-to-left according to the *band* hierarchy,
//! which guarantees the `O((1/ε)·log(εn))` space bound.
//!
//! Physically, tuples live in a flat array and incoming elements are
//! buffered for exactly one COMPRESS period, then folded in with a
//! single sorted merge pass immediately before the sweep — the same
//! amortization GK01 obtains from its list+tree representation
//! (O(log |L|) per element), without per-element `memmove`s. The
//! buffered form is bound-preserving: a batched element's `Δ` is
//! computed with the end-of-batch `n`, which can only exceed its
//! arrival-time `⌊2εn⌋ − 1`, keeping invariant (1) safe, while
//! invariant (2) is checked against the monotonically growing `n`.
//! The study found this variant empirically worse than
//! [`GkAdaptive`](super::GkAdaptive) — a finding our harness
//! reproduces — but it is the only GK variant with a proven size
//! bound.

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "indices and narrowing casts stay within the bounds `check_invariants` audits"
)]

use super::{query_quantiles, query_rank, threshold, Tuple};
use crate::QuantileSummary;
use sqs_util::space::{words, SpaceUsage};

/// The analyzed Greenwald–Khanna summary (deterministic,
/// comparison-based, `O((1/ε)·log(εn))` space).
#[derive(Debug, Clone)]
pub struct GkTheory<T> {
    eps: f64,
    n: u64,
    tuples: Vec<Tuple<T>>,
    /// Elements awaiting the next COMPRESS-period fold-in.
    buffer: Vec<T>,
    /// COMPRESS period: `⌈1/(2ε)⌉` insertions.
    period: usize,
}

/// The GK band of a tuple with slack `delta`, against capacity `p = ⌊2εn⌋`.
///
/// Band 0 holds `Δ = p`; band α ≥ 1 holds all Δ with
/// `2^{α−1} + (p mod 2^{α−1}) ≤ p − Δ < 2^α + (p mod 2^α)`.
/// Higher band = older tuple = more valuable; COMPRESS only merges a
/// tuple into a successor of equal or higher band.
fn band(delta: u64, p: u64) -> u32 {
    debug_assert!(delta <= p, "delta {delta} exceeds capacity {p}");
    if delta == p {
        return 0;
    }
    let diff = p - delta; // ≥ 1
    for alpha in 1..=64u32 {
        let lo = (1u64 << (alpha - 1)) + (p & ((1u64 << (alpha - 1)) - 1));
        let hi = (1u64 << alpha) + (p & ((1u64 << alpha) - 1));
        if lo <= diff && diff < hi {
            return alpha;
        }
    }
    unreachable!("band not found for delta={delta}, p={p}")
}

impl<T: Ord + Copy> GkTheory<T> {
    /// Creates a summary with error guarantee ε.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        let period = (1.0 / (2.0 * eps)).ceil() as usize;
        Self {
            eps,
            n: 0,
            tuples: Vec::new(),
            buffer: Vec::with_capacity(period),
            period,
        }
    }

    /// Number of tuples currently held (after folding the buffer in).
    pub fn tuple_count(&mut self) -> usize {
        self.fold_in();
        self.tuples.len()
    }

    /// The tuples (for invariant checks in tests).
    pub fn tuples(&mut self) -> &[Tuple<T>] {
        self.fold_in();
        &self.tuples
    }

    /// The configured ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Merges the buffered period into the tuple array: each element
    /// becomes `(v, 1, ⌊2εn⌋ − 1)` before its successor (extremes
    /// pinned at Δ = 0), in one sorted merge pass.
    fn fold_in(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.buffer.sort_unstable();
        let delta_interior = threshold(self.eps, self.n).saturating_sub(1);
        let old = std::mem::take(&mut self.tuples);
        let mut out: Vec<Tuple<T>> = Vec::with_capacity(old.len() + self.buffer.len());
        let mut li = 0usize;
        for &v in &self.buffer {
            while li < old.len() && old[li].v <= v {
                out.push(old[li]);
                li += 1;
            }
            let delta = if li == old.len() || out.is_empty() {
                0
            } else {
                delta_interior
            };
            out.push(Tuple { v, g: 1, delta });
        }
        out.extend_from_slice(&old[li..]);
        self.tuples = out;
        self.buffer.clear();
    }

    /// The COMPRESS sweep of GK01: scan right-to-left; a tuple whose
    /// band is ≤ its successor's is merged (together with its whole
    /// band-subtree of preceding lower-band tuples) into the successor
    /// whenever the combined tuple respects the capacity `p`.
    fn compress(&mut self) {
        let len = self.tuples.len();
        if len < 3 {
            return;
        }
        let p = threshold(self.eps, self.n);
        let bands: Vec<u32> = self
            .tuples
            .iter()
            .map(|t| band(t.delta.min(p), p))
            .collect();

        // Build the surviving list right-to-left. The last tuple (max
        // element) is never merged away; the first (min) is never part
        // of any subtree (extent stops at index 1).
        let mut out: Vec<Tuple<T>> = Vec::with_capacity(len);
        out.push(self.tuples[len - 1]);
        let mut succ_delta_band = bands[len - 1];
        let mut i = len as isize - 2;
        while i >= 0 {
            let idx = i as usize;
            if idx == 0 {
                out.push(self.tuples[0]);
                break;
            }
            if bands[idx] <= succ_delta_band {
                // Extent of the band-subtree rooted at idx: the maximal
                // run of strictly-lower-band tuples immediately before it.
                let mut g_star = self.tuples[idx].g;
                let mut j = idx as isize - 1;
                while j >= 1 && bands[j as usize] < bands[idx] {
                    g_star += self.tuples[j as usize].g;
                    j -= 1;
                }
                let succ = out
                    .last()
                    .expect("GK invariant: compress output seeded with the max tuple");
                if g_star + succ.g + succ.delta < p {
                    out.last_mut()
                        .expect("GK invariant: compress output stays nonempty")
                        .g += g_star;
                    i = j;
                    continue;
                }
            }
            succ_delta_band = bands[idx];
            out.push(self.tuples[idx]);
            i -= 1;
        }
        out.reverse();
        self.tuples = out;
    }
}

impl<T: Ord + Copy> sqs_util::audit::CheckInvariants for GkTheory<T> {
    /// GK invariants (§2.1): sorted tuples, `g+Δ ≤ ⌊2εn⌋`, `Σg`
    /// matching the folded element count, the buffer bounded by the
    /// COMPRESS period, and band monotonicity (the GK01 band of a
    /// tuple never increases with its `Δ` — the property the COMPRESS
    /// subtree rule depends on).
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "GKTheory";
        ensure(
            self.eps > 0.0 && self.eps < 1.0,
            ALG,
            "gk.eps_range",
            || format!("eps = {} outside (0,1)", self.eps),
        )?;
        ensure(
            self.period == (1.0 / (2.0 * self.eps)).ceil() as usize,
            ALG,
            "gk.compress_period",
            || format!("period {} ≠ ⌈1/2ε⌉ for eps {}", self.period, self.eps),
        )?;
        ensure(
            self.buffer.len() <= self.period,
            ALG,
            "gk.buffer_bound",
            || format!("{} buffered > period {}", self.buffer.len(), self.period),
        )?;
        let folded = self.n - self.buffer.len() as u64;
        super::audit_tuples(&self.tuples, self.eps, folded, ALG)?;
        let p = threshold(self.eps, self.n);
        let mut deltas: Vec<u64> = self.tuples.iter().map(|t| t.delta).collect();
        deltas.sort_unstable();
        for w in deltas.windows(2) {
            ensure(
                w[0] > p || band(w[0], p) >= band(w[1].min(p), p),
                ALG,
                "gk.band_monotone",
                || format!("band(Δ={}) < band(Δ={}) at capacity p={p}", w[0], w[1]),
            )?;
        }
        Ok(())
    }
}

impl<T: Ord + Copy> QuantileSummary<T> for GkTheory<T> {
    fn insert(&mut self, x: T) {
        self.n += 1;
        self.buffer.push(x);
        if self.buffer.len() >= self.period {
            self.fold_in();
            self.compress();
        }
        #[cfg(any(test, feature = "audit"))]
        if sqs_util::audit::audit_point(self.n) {
            sqs_util::audit::CheckInvariants::assert_invariants(self);
        }
    }

    /// Bulk insert: copies whole slices into the pending buffer and
    /// runs the fold-in/COMPRESS cycle exactly at the itemwise period
    /// boundaries, so the resulting summary state is identical to
    /// element-wise insertion.
    fn insert_batch(&mut self, xs: &[T]) {
        let mut rest = xs;
        while !rest.is_empty() {
            let room = self.period - self.buffer.len();
            let take = room.min(rest.len()).max(1);
            let (chunk, tail) = rest.split_at(take);
            self.buffer.extend_from_slice(chunk);
            self.n += take as u64;
            rest = tail;
            if self.buffer.len() >= self.period {
                self.fold_in();
                self.compress();
            }
        }
        #[cfg(any(test, feature = "audit"))]
        sqs_util::audit::CheckInvariants::assert_invariants(self);
    }

    fn n(&self) -> u64 {
        self.n
    }

    fn rank_estimate(&mut self, x: T) -> u64 {
        self.fold_in();
        query_rank(&self.tuples, x)
    }

    fn quantile(&mut self, phi: f64) -> Option<T> {
        self.quantiles(&[phi]).pop().flatten()
    }

    /// One fold-in and one prefix sum for the whole sweep.
    fn quantiles(&mut self, phis: &[f64]) -> Vec<Option<T>> {
        self.fold_in();
        query_quantiles(&self.tuples, self.n, self.eps, phis)
    }

    fn name(&self) -> &'static str {
        "GKTheory"
    }
}

impl<T> SpaceUsage for GkTheory<T> {
    fn space_bytes(&self) -> usize {
        // Three words per tuple (v, g, Δ) + one word per buffered
        // element (the buffer is the auxiliary structure here).
        words(self.tuples.len() * 3 + self.buffer.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gk::check_invariants;
    use sqs_util::exact::{observed_errors, probe_phis, ExactQuantiles};
    use sqs_util::rng::Xoshiro256pp;

    fn run_stream(eps: f64, data: &[u64]) -> GkTheory<u64> {
        let mut s = GkTheory::new(eps);
        for &x in data {
            s.insert(x);
        }
        s
    }

    #[test]
    fn insert_batch_is_rank_equivalent_to_itemwise() {
        // Bulk insertion folds at the same period boundaries as
        // itemwise insertion, so the summaries answer identically.
        let mut rng = Xoshiro256pp::new(91);
        let data: Vec<u64> = (0..40_000).map(|_| rng.next_below(1 << 20)).collect();
        let mut itemwise = run_stream(0.02, &data);
        let mut batched = GkTheory::new(0.02);
        for chunk in data.chunks(611) {
            batched.insert_batch(chunk);
        }
        assert_eq!(itemwise.n(), batched.n());
        for phi in [0.1, 0.3, 0.5, 0.7, 0.9] {
            assert_eq!(itemwise.quantile(phi), batched.quantile(phi));
        }
        for x in [1u64 << 16, 1 << 18, 1 << 19] {
            assert_eq!(itemwise.rank_estimate(x), batched.rank_estimate(x));
        }
    }

    #[test]
    fn band_partitions_capacity_range() {
        // Every Δ in [0, p] must land in exactly one band, and Δ = p in
        // band 0, Δ = 0 in the highest.
        for p in [1u64, 2, 3, 7, 8, 100, 1023] {
            let bands: Vec<u32> = (0..=p).map(|d| band(d, p)).collect();
            assert_eq!(*bands.last().unwrap(), 0, "p = {p}");
            let max_band = *bands.iter().max().unwrap();
            assert_eq!(bands[0], max_band, "Δ=0 must be the highest band, p={p}");
            // Bands are non-increasing in Δ.
            for w in bands.windows(2) {
                assert!(w[0] >= w[1], "bands must not increase with Δ, p={p}");
            }
        }
    }

    #[test]
    fn errors_within_eps_random_order() {
        let eps = 0.02;
        let mut rng = Xoshiro256pp::new(1);
        let data: Vec<u64> = (0..20_000).map(|_| rng.next_below(1 << 20)).collect();
        let mut s = run_stream(eps, &data);
        let n = s.n();
        check_invariants(s.tuples(), eps, n).unwrap();
        let oracle = ExactQuantiles::new(data);
        let answers: Vec<(f64, u64)> = probe_phis(eps)
            .into_iter()
            .map(|p| (p, s.quantile(p).unwrap()))
            .collect();
        let (max_err, _) = observed_errors(&oracle, &answers);
        assert!(max_err <= eps, "max error {max_err} > eps {eps}");
    }

    #[test]
    fn errors_within_eps_sorted_order() {
        let eps = 0.05;
        let data: Vec<u64> = (0..10_000).collect();
        let mut s = run_stream(eps, &data);
        let oracle = ExactQuantiles::new(data);
        let answers: Vec<(f64, u64)> = probe_phis(eps)
            .into_iter()
            .map(|p| (p, s.quantile(p).unwrap()))
            .collect();
        let (max_err, _) = observed_errors(&oracle, &answers);
        assert!(max_err <= eps, "max error {max_err} > eps {eps}");
    }

    #[test]
    fn errors_within_eps_tight_eps() {
        // The batched fold-in must stay correct at tight ε (this is
        // the regime the per-element Vec insert couldn't reach).
        let eps = 0.001;
        let mut rng = Xoshiro256pp::new(9);
        let data: Vec<u64> = (0..200_000).map(|_| rng.next_below(1 << 30)).collect();
        let mut s = run_stream(eps, &data);
        let n = s.n();
        check_invariants(s.tuples(), eps, n).unwrap();
        let oracle = ExactQuantiles::new(data);
        for phi in [0.01, 0.5, 0.99] {
            let q = s.quantile(phi).unwrap();
            assert!(oracle.quantile_error(phi, q) <= eps, "phi={phi}");
        }
    }

    #[test]
    fn space_is_sublinear_and_within_gk_bound() {
        let eps = 0.01;
        let data: Vec<u64> = (0..100_000u64)
            .map(|i| i.wrapping_mul(2654435761) % 1_000_003)
            .collect();
        let mut s = run_stream(eps, &data);
        // The bound is (11/2ε)·log(2εn) tuples; assert generous slack.
        let bound = (11.0 / (2.0 * eps)) * (2.0 * eps * 100_000.0).log2().max(1.0);
        let count = s.tuple_count();
        assert!((count as f64) < bound, "tuples {count} vs bound {bound}");
        assert!(count < 20_000, "far smaller than the stream");
    }

    #[test]
    fn duplicate_heavy_stream() {
        let eps = 0.05;
        let data: Vec<u64> = (0..5_000).map(|i| i % 7).collect();
        let mut s = run_stream(eps, &data);
        let oracle = ExactQuantiles::new(data);
        for phi in probe_phis(eps) {
            let q = s.quantile(phi).unwrap();
            assert!(oracle.quantile_error(phi, q) <= eps);
        }
    }

    #[test]
    fn single_element_stream() {
        let mut s = GkTheory::new(0.1);
        s.insert(42u64);
        assert_eq!(s.quantile(0.5), Some(42));
        assert_eq!(s.n(), 1);
    }

    #[test]
    fn empty_returns_none() {
        let mut s = GkTheory::<u64>::new(0.1);
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    #[should_panic(expected = "eps must be in (0,1)")]
    fn rejects_bad_eps() {
        GkTheory::<u64>::new(1.5);
    }

    #[test]
    fn space_accounting_tracks_tuples_and_buffer() {
        let mut s = run_stream(0.1, &(0..1000u64).collect::<Vec<_>>());
        let tuples = s.tuple_count();
        assert_eq!(s.space_bytes(), (tuples * 3 + s.buffer.capacity()) * 4);
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    fn filled(eps: f64, n: u64) -> GkTheory<u64> {
        let mut s = GkTheory::new(eps);
        for x in 0..n {
            s.insert(x % 997);
        }
        s
    }

    #[test]
    fn auditor_catches_inflated_delta() {
        let mut s = filled(0.01, 10_000);
        s.tuples[1].delta += threshold(s.eps, s.n) + 1;
        let err = s.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "GKTheory");
        assert_eq!(err.invariant, "gk.g_delta_bound");
    }

    #[test]
    fn auditor_catches_lost_mass() {
        let mut s = filled(0.05, 5_000);
        s.n += 100;
        assert_eq!(s.check_invariants().unwrap_err().invariant, "gk.g_sum");
    }

    #[test]
    fn auditor_catches_unsorted_tuples() {
        let mut s = filled(0.05, 5_000);
        let last = s.tuples.len() - 1;
        s.tuples.swap(0, last);
        assert_eq!(s.check_invariants().unwrap_err().invariant, "gk.sorted");
    }
}
