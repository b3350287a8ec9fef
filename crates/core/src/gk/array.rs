//! `GKArray` — the journal version's new buffered GK variant (§2.1.2).
//!
//! Instead of a pointer-based search structure, tuples live in a flat
//! array and incoming elements are collected in a buffer of size
//! Θ(|L|). When the buffer fills it is sorted and merged into the
//! tuple array in a single linear pass; during the merge each buffered
//! element receives its `(v, 1, g_i + Δ_i − 1)` tuple from its
//! original successor and every tuple (old or new) that has become
//! removable is folded into its successor on the spot. Sorting and
//! merging are cache-friendly, which is the entire point: same
//! pruning rule as [`GkAdaptive`](super::GkAdaptive), much faster in
//! practice (Figures 5e/5f).

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "indices and narrowing casts stay within the bounds `check_invariants` audits"
)]

use super::{query_quantiles, query_rank, threshold, Tuple};
use crate::QuantileSummary;
use sqs_util::space::{words, SpaceUsage};

/// Minimum buffer capacity (the Θ(|L|) sizing needs a floor while the
/// summary is still tiny).
const MIN_BUFFER: usize = 64;

/// The buffered, array-backed Greenwald–Khanna summary
/// (deterministic, comparison-based; amortized O(log |L|) update).
///
/// # Example
///
/// ```
/// use sqs_core::{gk::GkArray, QuantileSummary};
///
/// let mut s = GkArray::new(0.01); // ±1% rank error, guaranteed
/// for x in 0..100_000u64 {
///     s.insert(x);
/// }
/// let median = s.quantile(0.5).unwrap();
/// assert!((49_000..=51_000).contains(&median));
/// ```

#[derive(Debug, Clone)]
pub struct GkArray<T> {
    eps: f64,
    n: u64,
    tuples: Vec<Tuple<T>>,
    buffer: Vec<T>,
    buffer_cap: usize,
    /// Buffer size as a multiple of |L| (1.0 = the paper's Θ(|L|);
    /// swept by the ablation experiment).
    buffer_factor: f64,
}

impl<T: Ord + Copy> GkArray<T> {
    /// Creates a summary with error guarantee ε.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1`.
    pub fn new(eps: f64) -> Self {
        Self::with_buffer_factor(eps, 1.0)
    }

    /// Creates a summary whose buffer holds `factor · |L|` elements
    /// instead of the default `|L|` — the knob behind the buffer-size
    /// ablation (DESIGN.md). Small factors approach GKAdaptive's
    /// per-element behaviour; large factors amortize harder at the
    /// cost of staler summaries between flushes.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1` and `factor > 0`.
    pub fn with_buffer_factor(eps: f64, factor: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        assert!(factor > 0.0, "buffer factor must be positive");
        Self {
            eps,
            n: 0,
            tuples: Vec::new(),
            buffer: Vec::with_capacity(MIN_BUFFER),
            buffer_cap: MIN_BUFFER,
            buffer_factor: factor,
        }
    }

    /// Number of tuples currently held (excluding buffered elements).
    pub fn tuple_count(&self) -> usize {
        self.tuples.len()
    }

    /// The configured ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Tuples after flushing the buffer (tests and inspection).
    pub fn tuples(&mut self) -> &[Tuple<T>] {
        self.flush();
        &self.tuples
    }

    /// Sorts the buffer and merges it into the tuple array (§2.1.2
    /// steps 1–3). A no-op on an empty buffer.
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.buffer.sort_unstable();
        let p = threshold(self.eps, self.n);

        let old = std::mem::take(&mut self.tuples);
        let mut out: Vec<Tuple<T>> = Vec::with_capacity(old.len() + self.buffer.len());
        // `pending` is the last tuple produced but not yet emitted: when
        // the next tuple arrives we either fold `pending` into it
        // (removability rule g_i + g_{i+1} + Δ_{i+1} ≤ ⌊2εn⌋) or emit it.
        let mut pending: Option<Tuple<T>> = None;
        let emit = |out: &mut Vec<Tuple<T>>, pending: &mut Option<Tuple<T>>, mut cur: Tuple<T>| {
            if let Some(prev) = pending.take() {
                // Never fold the overall first tuple (keeps the minimum
                // pinned); the last is safe because it ends as pending.
                if !out.is_empty() && prev.g + cur.g + cur.delta <= p {
                    cur.g += prev.g;
                } else {
                    out.push(prev);
                }
            }
            *pending = Some(cur);
        };

        let mut li = 0; // cursor into old tuples
        for &v in &self.buffer {
            // Emit all existing tuples with element ≤ v first (the
            // successor of v is the smallest tuple element > v).
            while li < old.len() && old[li].v <= v {
                emit(&mut out, &mut pending, old[li]);
                li += 1;
            }
            let delta = if li < old.len() && !(out.is_empty() && pending.is_none()) {
                (old[li].g + old[li].delta).saturating_sub(1)
            } else {
                0 // new maximum, or new minimum of an empty summary
            };
            emit(&mut out, &mut pending, Tuple { v, g: 1, delta });
        }
        while li < old.len() {
            emit(&mut out, &mut pending, old[li]);
            li += 1;
        }
        if let Some(last) = pending {
            out.push(last);
        }
        self.tuples = out;
        self.buffer.clear();
        // §2.1.2: the buffer tracks Θ(|L|).
        self.buffer_cap =
            ((self.tuples.len() as f64 * self.buffer_factor) as usize).max(MIN_BUFFER);
    }
}

impl<T: Ord + Copy> sqs_util::audit::CheckInvariants for GkArray<T> {
    /// GKArray invariants (§2.1.2): sorted tuple array with
    /// `g+Δ ≤ ⌊2εn⌋` and `Σg` equal to the folded element count, plus
    /// the buffer/segment bookkeeping — the buffer never exceeds its
    /// Θ(|L|) capacity and the capacity tracks the tuple count.
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "GKArray";
        ensure(
            self.eps > 0.0 && self.eps < 1.0,
            ALG,
            "gk.eps_range",
            || format!("eps = {} outside (0,1)", self.eps),
        )?;
        ensure(
            self.buffer.len() <= self.buffer_cap,
            ALG,
            "gkarray.buffer_bound",
            || {
                format!(
                    "{} buffered > capacity {}",
                    self.buffer.len(),
                    self.buffer_cap
                )
            },
        )?;
        ensure(
            self.buffer_cap
                >= ((self.tuples.len() as f64 * self.buffer_factor) as usize).max(MIN_BUFFER),
            ALG,
            "gkarray.buffer_tracks_tuples",
            || {
                format!(
                    "buffer capacity {} below Θ(|L|) sizing for {} tuples",
                    self.buffer_cap,
                    self.tuples.len()
                )
            },
        )?;
        let folded = self.n - self.buffer.len() as u64;
        super::audit_tuples(&self.tuples, self.eps, folded, ALG)
    }
}

impl<T: Ord + Copy> QuantileSummary<T> for GkArray<T> {
    fn insert(&mut self, x: T) {
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

    /// Bulk insert: copies whole slices into the element buffer and
    /// flushes exactly at the itemwise flush boundaries (the flush
    /// sorts, so pre-sorting here would be redundant work). The
    /// resulting summary state is identical to element-wise insertion.
    fn insert_batch(&mut self, xs: &[T]) {
        let mut rest = xs;
        while !rest.is_empty() {
            let room = self.buffer_cap - self.buffer.len();
            let take = room.min(rest.len()).max(1);
            let (chunk, tail) = rest.split_at(take);
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

    fn rank_estimate(&mut self, x: T) -> u64 {
        self.flush();
        query_rank(&self.tuples, x)
    }

    fn quantile(&mut self, phi: f64) -> Option<T> {
        self.quantiles(&[phi]).pop().flatten()
    }

    /// One flush and one prefix sum for the whole sweep.
    fn quantiles(&mut self, phis: &[f64]) -> Vec<Option<T>> {
        self.flush();
        query_quantiles(&self.tuples, self.n, self.eps, phis)
    }

    fn name(&self) -> &'static str {
        "GKArray"
    }
}

impl<T> SpaceUsage for GkArray<T> {
    fn space_bytes(&self) -> usize {
        // 3 words per tuple + 1 word per buffer slot (capacity, since
        // the buffer is pre-sized to Θ(|L|)).
        words(self.tuples.len() * 3 + self.buffer_cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gk::check_invariants;
    use sqs_util::exact::{observed_errors, probe_phis, ExactQuantiles};
    use sqs_util::rng::Xoshiro256pp;

    #[test]
    fn insert_batch_is_rank_equivalent_to_itemwise() {
        // Bulk insertion hits the same flush boundaries as itemwise
        // insertion, so the tuple arrays are identical.
        let mut rng = Xoshiro256pp::new(81);
        let data: Vec<u64> = (0..60_000).map(|_| rng.next_below(1 << 20)).collect();
        let mut itemwise = GkArray::new(0.01);
        let mut batched = GkArray::new(0.01);
        for &x in &data {
            itemwise.insert(x);
        }
        for chunk in data.chunks(769) {
            batched.insert_batch(chunk);
        }
        assert_eq!(itemwise.n(), batched.n());
        assert_eq!(itemwise.tuples(), batched.tuples());
        for phi in [0.1, 0.5, 0.9] {
            assert_eq!(itemwise.quantile(phi), batched.quantile(phi));
        }
    }

    fn check_errors(eps: f64, data: Vec<u64>) {
        let mut s = GkArray::new(eps);
        for &x in &data {
            s.insert(x);
        }
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
    fn errors_within_eps_random_order() {
        let mut rng = Xoshiro256pp::new(5);
        let data: Vec<u64> = (0..30_000).map(|_| rng.next_below(1 << 24)).collect();
        check_errors(0.02, data);
    }

    #[test]
    fn errors_within_eps_sorted() {
        check_errors(0.05, (0..10_000u64).collect());
    }

    #[test]
    fn errors_within_eps_reverse_sorted() {
        check_errors(0.05, (0..10_000u64).rev().collect());
    }

    #[test]
    fn errors_within_eps_semi_sorted_runs() {
        // MPCAT-like arrival: sorted chunks of varying length.
        let mut rng = Xoshiro256pp::new(6);
        let mut data = Vec::new();
        while data.len() < 20_000 {
            let run = 10 + rng.next_below(500) as usize;
            let base = rng.next_below(1 << 20);
            data.extend((0..run as u64).map(|i| base + i));
        }
        check_errors(0.02, data);
    }

    #[test]
    fn tiny_eps_large_dup_stream() {
        check_errors(0.01, (0..50_000u64).map(|i| i % 101).collect());
    }

    #[test]
    fn query_flushes_buffer() {
        let mut s = GkArray::new(0.1);
        for x in 0..10u64 {
            s.insert(x);
        }
        // Fewer than MIN_BUFFER inserts — everything still buffered.
        assert_eq!(s.tuple_count(), 0);
        // The flush compresses (⌊2εn⌋ = 2), so the answer may be one
        // rank off the exact median; it must stay within ε·n = 1 rank.
        let q = s.quantile(0.5).unwrap();
        assert!((4..=6).contains(&q), "median = {q}");
        assert!(s.tuple_count() > 0);
    }

    #[test]
    fn space_is_sublinear() {
        let mut rng = Xoshiro256pp::new(7);
        let mut s = GkArray::new(0.01);
        for _ in 0..200_000u64 {
            s.insert(rng.next_below(1 << 30));
        }
        s.flush();
        assert!(s.tuple_count() < 10_000, "tuples = {}", s.tuple_count());
    }

    #[test]
    fn agrees_with_adaptive_on_error_magnitude() {
        // Not bit-identical (different removal schedules) but both must
        // stay within ε; sanity-check they land in the same ballpark.
        let mut rng = Xoshiro256pp::new(8);
        let data: Vec<u64> = (0..20_000).map(|_| rng.next_below(1 << 16)).collect();
        let oracle = ExactQuantiles::new(data.clone());
        let eps = 0.02;
        let mut a = GkArray::new(eps);
        let mut b = crate::gk::GkAdaptive::new(eps);
        for &x in &data {
            a.insert(x);
            b.insert(x);
        }
        for phi in [0.1, 0.5, 0.9] {
            assert!(oracle.quantile_error(phi, a.quantile(phi).unwrap()) <= eps);
            assert!(oracle.quantile_error(phi, b.quantile(phi).unwrap()) <= eps);
        }
    }

    #[test]
    fn empty_and_singleton() {
        let mut s = GkArray::<u64>::new(0.2);
        assert_eq!(s.quantile(0.3), None);
        s.insert(9);
        assert_eq!(s.quantile(0.3), Some(9));
    }

    #[test]
    fn buffer_capacity_tracks_tuples() {
        let mut rng = Xoshiro256pp::new(9);
        let mut s = GkArray::new(0.001);
        for _ in 0..100_000u64 {
            s.insert(rng.next_below(1 << 30));
        }
        s.flush();
        assert_eq!(s.buffer_cap, s.tuple_count().max(MIN_BUFFER));
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    #[test]
    fn auditor_catches_unsorted_tuples() {
        let mut s = GkArray::new(0.02);
        for x in 0..10_000u64 {
            s.insert(x % 499);
        }
        let last = s.tuples.len() - 1;
        s.tuples.swap(0, last);
        let err = s.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "GKArray");
        assert_eq!(err.invariant, "gk.sorted");
    }

    #[test]
    fn auditor_catches_buffer_overrun() {
        let mut s = GkArray::new(0.02);
        for x in 0..5_000u64 {
            s.insert(x);
        }
        s.buffer_cap = 0;
        s.buffer.push(1);
        assert_eq!(
            s.check_invariants().unwrap_err().invariant,
            "gkarray.buffer_bound"
        );
    }
}
