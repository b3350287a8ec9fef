//! Exact per-item counters for small (reduced) universes.
//!
//! §3 of the paper: *"if the reduced universe size `u/2^i` is smaller
//! than the sketch size, we should maintain the frequencies exactly,
//! rather than using a sketch."* The top levels of every dyadic
//! structure use this; its estimates are exact and its variance zero —
//! which is also what anchors the OLS post-processing (the exact nodes
//! are the `σ_i = 0` constraints in Definition 1).

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "cell indices are reduced into [0, width) before use, and `check_invariants` audits the counter layout they index"
)]

use crate::{FrequencySketch, MergeableSketch};
use sqs_util::space::{words, SpaceUsage};

/// A plain counter array over a small universe.
#[derive(Debug, Clone)]
pub struct ExactCounts {
    counts: Vec<i64>,
    #[cfg(any(test, feature = "audit"))]
    updates: u64,
}

// Equality is summary state only — the audit-only `updates` diagnostic
// is excluded, since it legitimately differs between paths that reach
// the same state (wire decode starts it at zero, shard merges sum it).
impl PartialEq for ExactCounts {
    fn eq(&self, other: &Self) -> bool {
        self.counts == other.counts
    }
}

impl Eq for ExactCounts {}

impl ExactCounts {
    /// Creates counters for a universe of `universe` items.
    ///
    /// # Panics
    /// Panics if `universe == 0` or implausibly large (> 2^28) — the
    /// dyadic structure should have used a sketch instead.
    pub fn new(universe: u64) -> Self {
        assert!(universe > 0, "ExactCounts: empty universe");
        assert!(
            universe <= 1 << 28,
            "ExactCounts: universe too large for exact counting"
        );
        Self {
            counts: vec![0; universe as usize],
            #[cfg(any(test, feature = "audit"))]
            updates: 0,
        }
    }

    /// The raw per-item counts, for serialization.
    pub fn counts(&self) -> &[i64] {
        &self.counts
    }

    /// Rebuilds from decoded counts (the inverse of
    /// [`counts`](Self::counts)). Returns `Err` if the implied universe
    /// is empty or too large for exact counting.
    pub fn from_counts(counts: Vec<i64>) -> Result<Self, &'static str> {
        if counts.is_empty() {
            return Err("ExactCounts: empty universe");
        }
        if counts.len() > 1 << 28 {
            return Err("ExactCounts: universe too large for exact counting");
        }
        Ok(Self {
            counts,
            #[cfg(any(test, feature = "audit"))]
            updates: 0,
        })
    }
}

impl sqs_util::audit::CheckInvariants for ExactCounts {
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "ExactCounts";
        ensure(
            !self.counts.is_empty() && self.counts.len() <= 1 << 28,
            ALG,
            "exact.universe_range",
            || format!("universe of {} counters", self.counts.len()),
        )?;
        // Strict turnstile model: no multiplicity ever goes negative.
        for (x, &c) in self.counts.iter().enumerate() {
            ensure(c >= 0, ALG, "exact.count_nonnegative", || {
                format!("item {x} has multiplicity {c}")
            })?;
        }
        Ok(())
    }
}

impl FrequencySketch for ExactCounts {
    fn update(&mut self, x: u64, delta: i64) {
        self.counts[x as usize] += delta;
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += 1;
            if sqs_util::audit::audit_point(self.updates) {
                sqs_util::audit::CheckInvariants::assert_invariants(self);
            }
        }
    }

    // A tight add loop with the audit bookkeeping amortized over the
    // batch; state-identical to the scalar loop.
    fn update_batch(&mut self, batch: &[(u64, i64)]) {
        for &(x, delta) in batch {
            self.counts[x as usize] += delta;
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += batch.len() as u64;
            if sqs_util::audit::audit_point(self.updates) {
                sqs_util::audit::CheckInvariants::assert_invariants(self);
            }
        }
    }

    fn estimate(&self, x: u64) -> i64 {
        self.counts[x as usize]
    }

    // Direct indexed loads — trivially bit-identical to the scalar
    // estimate; the override just skips the per-call trait dispatch.
    fn estimate_batch(&self, xs: &[u64], out: &mut [i64]) {
        assert_eq!(xs.len(), out.len(), "estimate_batch: slice length mismatch");
        for (&x, o) in xs.iter().zip(out) {
            *o = self.counts[x as usize];
        }
    }

    fn universe(&self) -> u64 {
        self.counts.len() as u64
    }

    fn variance_estimate(&self) -> Option<f64> {
        Some(0.0)
    }
}

impl MergeableSketch for ExactCounts {
    fn merge_compatible(&self, other: &Self) -> bool {
        self.counts.len() == other.counts.len()
    }

    fn merge_from(&mut self, other: &Self) {
        assert!(
            self.merge_compatible(other),
            "ExactCounts invariant: merge requires identical universes"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += other.updates;
        }
    }
}

impl SpaceUsage for ExactCounts {
    fn space_bytes(&self) -> usize {
        words(self.counts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracks_exactly() {
        let mut e = ExactCounts::new(16);
        e.update(3, 5);
        e.update(3, -2);
        e.update(15, 1);
        assert_eq!(e.estimate(3), 3);
        assert_eq!(e.estimate(15), 1);
        assert_eq!(e.estimate(0), 0);
        assert_eq!(e.variance_estimate(), Some(0.0));
        assert_eq!(e.universe(), 16);
        assert_eq!(e.space_bytes(), 64);
    }

    #[test]
    #[should_panic(expected = "empty universe")]
    fn rejects_empty() {
        ExactCounts::new(0);
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    #[test]
    fn auditor_catches_negative_multiplicity() {
        let mut e = ExactCounts::new(64);
        e.update(10, 3);
        e.counts[20] = -1; // a deletion that never had a matching insert
        let err = e.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "ExactCounts");
        assert_eq!(err.invariant, "exact.count_nonnegative");
    }
}
