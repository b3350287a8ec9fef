//! Turnstile frequency-estimation sketches (§3 of the paper).
//!
//! Every turnstile quantile algorithm in the study is the same dyadic
//! scaffold instantiated with a different *frequency-estimation
//! sketch*: a small structure processing `insert(x)` / `delete(x)`
//! updates over a fixed universe and answering "how many copies of `x`
//! remain?" approximately. This crate provides the three the paper
//! discusses, plus the exact fallback used for levels whose reduced
//! universe is small:
//!
//! * [`countmin::CountMin`] — Cormode & Muthukrishnan's Count-Min:
//!   `w×d` counters, min-of-rows estimator; biased upward, error
//!   `εn` with `w = O(1/ε)`.
//! * [`countsketch::CountSketch`] — Charikar, Chen & Farach-Colton's
//!   Count-Sketch: adds a 4-wise ±1 sign hash; the median-of-rows
//!   estimator is **unbiased** with variance `F₂/w` — the property
//!   §3.1's new DCS analysis exploits.
//! * [`subsetsum::SubsetSum`] — Gilbert et al.'s random-subset-sum
//!   estimator (the first turnstile quantile sketch; kept to show why
//!   it lost: `O(1/ε²)` space).
//! * [`crprecis::CrPrecis`] — Ganguly & Majumder's *deterministic*
//!   prime-residue estimator (the study's §1.2.2 "not considered
//!   practical" deterministic turnstile option, included so that
//!   judgment is measurable).
//! * [`exactlevel::ExactCounts`] — plain counter array for reduced
//!   universes small enough to store exactly (§3: "if the reduced
//!   universe size is smaller than the sketch size, we should maintain
//!   the frequencies exactly").
//!
//! All sketches share the [`FrequencySketch`] interface and the
//! paper's 4-byte-per-counter space accounting.

#![warn(missing_docs)]

pub mod countmin;
pub mod countsketch;
pub mod crprecis;
pub mod exactlevel;
pub mod subsetsum;

pub use countmin::CountMin;
pub use countsketch::CountSketch;
pub use crprecis::CrPrecis;
pub use exactlevel::ExactCounts;
pub use subsetsum::SubsetSum;

use sqs_util::audit::CheckInvariants;
use sqs_util::SpaceUsage;

/// Shared sizing for the batched update paths.
pub(crate) mod batch_scratch {
    /// Keys processed per stack-scratch refill in `update_batch`
    /// overrides. Sized to the engine/service ingest batch (1024), so
    /// a whole application batch folds its keys **once** — shared by
    /// every row — and each row then makes a single pass over it with
    /// its counters L1-resident. The scratch is at most 1024 keys ×
    /// 24 bytes (the Count-Sketch's three key powers) = 24 KiB, inside
    /// a 48 KiB L1 alongside one sketch row.
    pub(crate) const CHUNK: usize = 1024;
}

/// Rounds a sketch row width up to a whole 64-byte cache line of
/// `i64` counters, so row-contiguous storage never splits a line
/// between rows. Padding slots stay zero and are excluded from the
/// paper's space accounting.
pub(crate) fn row_stride(width: usize) -> usize {
    width.next_multiple_of(8)
}

/// A frequency-estimation sketch over a fixed universe, processing a
/// turnstile stream of item insertions and deletions.
///
/// Every sketch must also implement [`CheckInvariants`] — the audit
/// layer relies on the supertrait to recurse into the per-level
/// sketches of the dyadic structures.
pub trait FrequencySketch: SpaceUsage + CheckInvariants {
    /// Adds `delta` copies of item `x` (negative to delete). The
    /// turnstile model guarantees no item's multiplicity goes negative;
    /// sketches do not check this (they cannot).
    fn update(&mut self, x: u64, delta: i64);

    /// Applies a batch of `(item, delta)` updates.
    ///
    /// The default is an element-wise [`update`](Self::update) loop.
    /// Overrides must be **state-identical** to that loop — counter for
    /// counter, including any audit bookkeeping — and exist purely so
    /// row-organized sketches can walk the batch row-major with their
    /// hash coefficients held in registers (see `docs/PERF.md`). The
    /// dyadic structures and the property tests in
    /// `crates/turnstile/tests/batch_props.rs` rely on the identity.
    fn update_batch(&mut self, batch: &[(u64, i64)]) {
        for &(x, delta) in batch {
            self.update(x, delta);
        }
    }

    /// Estimated current frequency of item `x`. May be negative for
    /// unbiased sketches (Count-Sketch); callers clamp as appropriate.
    fn estimate(&self, x: u64) -> i64;

    /// Estimates a batch of query keys: `out[k] = estimate(xs[k])`.
    ///
    /// The default is an element-wise [`estimate`](Self::estimate)
    /// loop. Overrides must be **bit-identical** to that loop — answer
    /// for answer — and exist purely to amortize key folding across
    /// rows and walk the counters row-major, the read-side dual of
    /// [`update_batch`](Self::update_batch) (see `docs/PERF.md` §7).
    /// The batched dyadic rank path and the property tests in
    /// `crates/turnstile/tests/batch_props.rs` rely on the identity.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    fn estimate_batch(&self, xs: &[u64], out: &mut [i64]) {
        assert_eq!(xs.len(), out.len(), "estimate_batch: slice length mismatch");
        for (&x, o) in xs.iter().zip(out) {
            *o = self.estimate(x);
        }
    }

    /// The universe size this sketch summarizes.
    fn universe(&self) -> u64;

    /// Checks the counters against the number of live items `live` the
    /// sketch summarizes, in the **strict** turnstile model (no item's
    /// multiplicity ever negative). A linear sketch's state is then a
    /// function of the live multiset alone, which bounds every row:
    /// Count-Sketch rows hold `Σ|C| ≤ live`, Count-Min rows `C ≥ 0`
    /// and `ΣC = live`. Only the owner of the exact live count can ask
    /// (the dyadic structures' `dyadic.sketch_level_mass` audit);
    /// with it, no counter a decoded frame carries exceeds its claimed
    /// `n`. `Err` describes the first offending row. The default
    /// checks nothing.
    fn check_live_mass(&self, live: u64) -> Result<(), String> {
        let _ = live;
        Ok(())
    }

    /// An estimate of the variance of [`estimate`](Self::estimate) —
    /// used by the DCS post-processing (§3.2.4: "the Count-Sketch
    /// itself actually provides a good estimator for this variance").
    /// Sketches without a meaningful estimate return `None`.
    fn variance_estimate(&self) -> Option<f64> {
        None
    }

    /// A per-item refinement of [`variance_estimate`]: the variance of
    /// the estimate for this *specific* item. For the Count-Sketch this
    /// is `(F₂ − f_x²)/w` — substantially smaller than the generic
    /// `F₂/w` for heavy items, which matters enormously to the OLS
    /// post-processing on skewed data (see DESIGN.md). Defaults to the
    /// per-structure estimate.
    ///
    /// [`variance_estimate`]: Self::variance_estimate
    fn variance_estimate_for(&self, x: u64) -> Option<f64> {
        let _ = x;
        self.variance_estimate()
    }
}

/// A frequency sketch whose state is a linear function of the update
/// stream, so two sketches drawn with the **same hash functions** can
/// be combined counter-wise into the sketch of the concatenated
/// streams.
///
/// This is what lets the dyadic turnstile structures participate in
/// the sharded engine (`sqs-engine`) and the service's snapshot-merge
/// protocol: shards built from one seed are hash-compatible, and
/// merging them is exact — the merged sketch is state-identical to a
/// single sketch that saw every update.
pub trait MergeableSketch: FrequencySketch {
    /// Whether `other` was drawn with the same hash functions and
    /// shape, so [`merge_from`](Self::merge_from) is meaningful.
    fn merge_compatible(&self, other: &Self) -> bool;

    /// Adds `other`'s counters into `self`.
    ///
    /// # Panics
    /// Panics if the sketches are not
    /// [`merge_compatible`](Self::merge_compatible).
    fn merge_from(&mut self, other: &Self);
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_util::rng::Xoshiro256pp;

    /// All sketches must track a simple turnstile workload closely.
    fn roundtrip<S: FrequencySketch>(mut sketch: S, tolerance: i64) {
        // Insert a skewed workload, delete part of it, check survivors.
        for x in 0..100u64 {
            for _ in 0..=(x % 10) {
                sketch.update(x, 1);
            }
        }
        for x in 0..50u64 {
            for _ in 0..=(x % 10) {
                sketch.update(x, -1);
            }
        }
        for x in [50u64, 59, 73, 99] {
            let truth = (x % 10 + 1) as i64;
            let est = sketch.estimate(x);
            assert!(
                (est - truth).abs() <= tolerance,
                "x={x}: est {est} vs truth {truth}"
            );
        }
        for x in [0u64, 13, 49] {
            assert!(sketch.estimate(x).abs() <= tolerance, "deleted x={x}");
        }
    }

    #[test]
    fn exact_counts_roundtrip() {
        roundtrip(ExactCounts::new(128), 0);
    }

    #[test]
    fn countmin_roundtrip() {
        let mut rng = Xoshiro256pp::new(1);
        roundtrip(CountMin::new(256, 5, &mut rng), 30);
    }

    #[test]
    fn countsketch_roundtrip() {
        let mut rng = Xoshiro256pp::new(2);
        roundtrip(CountSketch::new(256, 5, &mut rng), 30);
    }

    #[test]
    fn subsetsum_roundtrip() {
        let mut rng = Xoshiro256pp::new(3);
        roundtrip(SubsetSum::new(128, 400, &mut rng), 60);
    }
}
