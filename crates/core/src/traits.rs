//! The common interface of every quantile summary, cash-register and
//! turnstile alike.

use sqs_util::audit::CheckInvariants;
use sqs_util::SpaceUsage;

/// A one-pass quantile summary.
///
/// The stream is fed element-by-element through [`insert`]; at any
/// point the summary can answer rank and quantile queries for the data
/// seen so far — the paper's "always ready to stop" requirement (§1).
/// The cash-register summaries of this crate (§2) and the turnstile
/// structures of `sqs-turnstile` (§3) both implement it; the turnstile
/// ones add a `delete` of their own (`TurnstileQuantiles`), and their
/// [`n`](QuantileSummary::n) is the live count.
///
/// Query methods take `&mut self` for two reasons, neither of which
/// changes the summarized multiset. Several summaries (GKArray,
/// GKTheory, FastQDigest) buffer recent inserts and must flush before
/// answering. And the buffer summaries (Random, MRL99, MRL98 — one
/// `buffers::Pool`) and FastQDigest answer from a sorted rank index that
/// the first query after a mutation builds and keeps inside the
/// summary: a query on a summary nobody has touched since the last one
/// is a binary search, not a rebuild. The buffer summaries build theirs
/// by merging buffers that are sorted already (`buffers::merge_runs`),
/// never by sorting their union. Every mutator drops the index and
/// `clone` never copies it, so it lives exactly as long as the state it
/// describes. (The engine does not query its shards' summaries: it
/// indexes their [`runs`](MergeableSummary::runs) itself.)
///
/// [`insert`]: QuantileSummary::insert
pub trait QuantileSummary<T: Ord + Copy>: SpaceUsage {
    /// Observes one stream element.
    fn insert(&mut self, x: T);

    /// Number of elements observed so far.
    fn n(&self) -> u64;

    /// Estimated rank of `x`: the approximate number of observed
    /// elements strictly smaller than `x`.
    fn rank_estimate(&mut self, x: T) -> u64;

    /// An ε-approximate φ-quantile of the elements seen so far, or
    /// `None` if the stream is still empty.
    ///
    /// # Panics
    /// Implementations panic if `φ ∉ (0, 1)`.
    fn quantile(&mut self, phi: f64) -> Option<T>;

    /// The algorithm's name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Observes a batch of elements through the summary's fastest bulk
    /// path.
    ///
    /// The default is element-wise [`insert`]; summaries with a
    /// cheaper bulk route (buffered fold-in, sort-then-insert)
    /// override it. Overrides must summarize the same multiset as
    /// itemwise insertion under the same ε guarantee — rank answers
    /// after a batch stay within `ε·n` of the itemwise answers (the
    /// engine's `ingest_batch` relies on this; see `docs/ENGINE.md`).
    ///
    /// [`insert`]: QuantileSummary::insert
    fn insert_batch(&mut self, xs: &[T]) {
        for &x in xs {
            self.insert(x);
        }
    }

    /// A φ-sweep: one quantile per entry of `phis` (each `None` while
    /// the stream is empty; φ in any order, duplicates allowed). The one
    /// batched read: [`quantile_grid`] and every multi-φ caller go
    /// through it.
    ///
    /// The default is a per-φ [`quantile`] loop, which is already the
    /// batched path for a summary that answers from a cached read view.
    /// Summaries with a cheaper joint walk override it: the buffer
    /// summaries (`Random`, MRL99, MRL98) build one rank index for the
    /// sweep, the GK family flushes or walks its tuple list and sums its
    /// rank prefix once for the whole sweep, the q-digest counts its
    /// unflushed buffer by bucket once and sorts only the buckets the
    /// sweep lands in (with the buffer empty, its nodes' prefix counts:
    /// one sum, then a binary search per φ), and the turnstile dyadic
    /// structures descend their dyadic tree once. Overrides must
    /// return exactly what the per-φ loop would — answer for answer, not
    /// merely within ε.
    ///
    /// # Panics
    /// Implementations panic if any `φ ∉ (0, 1)`.
    ///
    /// [`quantile`]: QuantileSummary::quantile
    /// [`quantile_grid`]: QuantileSummary::quantile_grid
    fn quantiles(&mut self, phis: &[f64]) -> Vec<Option<T>> {
        phis.iter().map(|&phi| self.quantile(phi)).collect()
    }

    /// Answers the standard probe grid φ = ε, 2ε, …, 1−ε in one
    /// [`quantiles`] call, returning `(φ, answer)` pairs (empty if the
    /// stream is empty).
    ///
    /// [`quantiles`]: QuantileSummary::quantiles
    fn quantile_grid(&mut self, eps: f64) -> Vec<(f64, T)> {
        let phis = sqs_util::exact::probe_phis(eps);
        let answers = self.quantiles(&phis);
        let pairs = phis.into_iter().zip(answers);
        pairs.filter_map(|(phi, q)| q.map(|q| (phi, q))).collect()
    }

    /// The estimated cumulative distribution at `x`:
    /// `rank_estimate(x) / n` — §1's point that quantiles characterize
    /// the cdf, as a direct API. Returns 0 on an empty stream.
    fn cdf(&mut self, x: T) -> f64 {
        let n = self.n();
        if n == 0 {
            return 0.0;
        }
        (self.rank_estimate(x) as f64 / n as f64).clamp(0.0, 1.0)
    }

    /// An equi-depth histogram: `buckets` boundaries splitting the
    /// seen data into equal-mass ranges (the classic downstream use of
    /// quantile summaries). Returns the `buckets − 1` interior
    /// boundaries, or an empty vector on an empty stream.
    ///
    /// # Panics
    /// Panics if `buckets < 2`.
    fn equi_depth_histogram(&mut self, buckets: usize) -> Vec<T> {
        assert!(buckets >= 2, "need at least 2 buckets");
        (1..buckets)
            .filter_map(|i| self.quantile(i as f64 / buckets as f64))
            .collect()
    }
}

/// A quantile summary supporting the *mergeable-summary* operation of
/// Agarwal et al.: two ε-summaries combine into one ε-summary of the
/// union of their streams.
///
/// This is the primitive that makes sharded ingestion sound: N shards
/// each maintain their own summary, and a query folds them with a
/// balanced merge tree (`sqs-engine`). The consuming signature lets a
/// merge tree thread ownership down the fold without re-compressing a
/// summary that was already compacted by a previous round.
///
/// Implementors in this crate: [`RandomSketch`](crate::random::RandomSketch)
/// (randomized, comparison model), [`QDigest`](crate::qdigest::QDigest)
/// (deterministic, fixed universe), and
/// [`ReservoirQuantiles`](crate::sampled::ReservoirQuantiles) — the
/// paper's sampling baseline, merged in tests but not served. In
/// `sqs-turnstile`, every
/// `DyadicQuantiles` over a mergeable sketch (DCM, DCS): linear
/// sketches built from one seed merge exactly.
///
/// Anything that can be merged can be corrupted by a merge, so a
/// mergeable summary must be auditable: [`CheckInvariants`] is a
/// supertrait, and the engine, the window ring and the server audit
/// what they merge and decode without asking for it separately.
pub trait MergeableSummary<T: Ord + Copy>: QuantileSummary<T> + CheckInvariants + Sized {
    /// Merges `other` into `self`, consuming it.
    ///
    /// Both summaries must have been built with the same accuracy
    /// configuration (same ε, and same universe where applicable);
    /// implementations panic on a mismatch.
    fn merge_from(&mut self, other: Self);

    /// Whether [`merge_from`](MergeableSummary::merge_from) would
    /// accept `other`: the two summaries share the accuracy
    /// configuration (ε, universe, capacity — whatever the concrete
    /// type's merge asserts).
    ///
    /// `merge_from` panics on incompatible inputs because a local
    /// mismatch is a programming error; a *remote* summary decoded off
    /// the wire (`sqs-service` `MERGE_SNAPSHOT`) is untrusted input,
    /// and the server uses this check to turn the mismatch into an
    /// error reply instead of a worker panic.
    fn merge_compatible(&self, other: &Self) -> bool;

    /// The summary's live samples split into the part that outlives
    /// writes and the part every write may change, for a reader that
    /// keeps an index over the first across writes (the engine's cold
    /// read, docs/ENGINE.md §2). `None`, the default, for a summary
    /// that has no such split: the engine then merges clones.
    ///
    /// Answering from [`UnionReader`](crate::buffers::UnionReader) over
    /// indexes of the two parts must stay within ε of the summary's
    /// own answers — it is the union the summary itself answers from,
    /// in another order among equal values.
    fn runs(&self) -> Option<crate::buffers::Runs<'_, T>> {
        None
    }

    /// Answers the φ-sweep `phis` and the ranks of `xs` over the sum of
    /// `parts` — answer for answer what [`quantiles`] and
    /// [`rank_estimate`] of the merge of clones of `parts` return —
    /// without building that merge, or `None`. `None`, the default, for
    /// a summary whose merge is not a sum it can read through, and for
    /// parts that do not merge: the engine then merges clones
    /// (docs/ENGINE.md §2). The linear dyadic structures (DCM, DCS)
    /// override it: each probed cell is gathered from every part and
    /// summed.
    ///
    /// # Panics
    /// Implementations panic if any `φ ∉ (0, 1)`.
    ///
    /// [`quantiles`]: QuantileSummary::quantiles
    /// [`rank_estimate`]: QuantileSummary::rank_estimate
    fn answer_sum(parts: &[&Self], phis: &[f64], xs: &[T]) -> Option<(Vec<Option<T>>, Vec<u64>)> {
        let _ = (parts, phis, xs);
        None
    }
}

/// Validates a φ argument; shared by all implementations.
#[inline]
pub(crate) fn check_phi(phi: f64) {
    assert!(
        phi > 0.0 && phi < 1.0,
        "phi must be in the open interval (0,1), got {phi}"
    );
}

#[cfg(test)]
/// One round of an insert-time gate: `s` fed `rows` through the scalar
/// `insert`, and handed back so the timer drops it off the clock.
pub(crate) fn scalar_inserts<'a, S: QuantileSummary<u64> + 'a>(
    mut s: S,
    rows: &'a [u64],
) -> impl FnOnce() -> S + 'a {
    move || {
        rows.iter().for_each(|&x| s.insert(std::hint::black_box(x)));
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::gk::GkArray;
    use crate::QuantileSummary;

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let mut s = GkArray::new(0.01);
        for x in 0..10_000u64 {
            s.insert(x);
        }
        assert_eq!(s.cdf(0), 0.0);
        let (a, b, c) = (s.cdf(2_500), s.cdf(5_000), s.cdf(7_500));
        assert!(a < b && b < c, "{a} {b} {c}");
        assert!((b - 0.5).abs() < 0.02);
        assert!(s.cdf(1_000_000) >= 0.99);
        let mut empty = GkArray::<u64>::new(0.1);
        assert_eq!(empty.cdf(5), 0.0);
    }

    #[test]
    fn equi_depth_histogram_splits_mass() {
        let mut s = GkArray::new(0.005);
        for x in 0..100_000u64 {
            s.insert(x);
        }
        let bounds = s.equi_depth_histogram(4);
        assert_eq!(bounds.len(), 3);
        for (i, &b) in bounds.iter().enumerate() {
            let target = (i as u64 + 1) * 25_000;
            assert!(b.abs_diff(target) < 1_000, "boundary {i}: {b}");
        }
    }

    #[test]
    #[should_panic(expected = "at least 2 buckets")]
    fn histogram_needs_buckets() {
        GkArray::<u64>::new(0.1).equi_depth_histogram(1);
    }
}
