//! Exact turnstile quantiles over a small universe — the baseline the
//! paper repeatedly invokes: *"storing the frequencies of all u
//! elements exactly only takes 0.25MB"* (§4.2.4), and the point where
//! the u = 2¹⁶ curves of Figure 11 "halt, since at this point the
//! algorithms have sufficient space to store all frequencies exactly".
//!
//! A Fenwick (binary indexed) tree over the `u` counters gives
//! O(log u) insert/delete, O(log u) rank, and O(log u) quantile (by
//! descending the implicit tree), all *exact* — strictly dominating
//! every sketch whenever `u` words of memory are affordable.

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "indices and narrowing casts stay within the bounds `check_invariants` audits"
)]

use crate::TurnstileQuantiles;
use sqs_core::QuantileSummary;
use sqs_util::space::{words, SpaceUsage};

/// Exact turnstile quantile structure (Fenwick tree over `[0, u)`).
#[derive(Debug, Clone)]
pub struct ExactTurnstile {
    /// 1-indexed Fenwick array over the u counters.
    tree: Vec<i64>,
    universe: u64,
    live: i64,
    /// Largest power of two ≤ u (for the quantile descent).
    top_bit: u64,
    #[cfg(any(test, feature = "audit"))]
    updates: u64,
}

impl ExactTurnstile {
    /// Creates the structure for a universe of `universe` items.
    ///
    /// # Panics
    /// Panics if `universe == 0` or is implausibly large (> 2^28 —
    /// use a sketch instead, which is the paper's whole subject).
    pub fn new(universe: u64) -> Self {
        assert!(universe > 0, "ExactTurnstile: empty universe");
        assert!(
            universe <= 1 << 28,
            "ExactTurnstile: use a sketch for universes this large"
        );
        let mut top_bit = 1u64;
        while top_bit * 2 <= universe {
            top_bit *= 2;
        }
        Self {
            tree: vec![0; universe as usize + 1],
            universe,
            live: 0,
            top_bit,
            #[cfg(any(test, feature = "audit"))]
            updates: 0,
        }
    }

    /// Convenience: universe `2^log_u`.
    pub fn for_log_u(log_u: u32) -> Self {
        assert!((1..=28).contains(&log_u), "log_u must be in 1..=28");
        Self::new(1u64 << log_u)
    }

    fn add(&mut self, x: u64, delta: i64) {
        assert!(x < self.universe, "element {x} outside universe");
        self.live += delta;
        let mut i = x as usize + 1;
        while i <= self.universe as usize {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += 1;
            if sqs_util::audit::audit_point(self.updates) {
                sqs_util::audit::CheckInvariants::assert_invariants(self);
            }
        }
    }

    /// Exact number of live elements < `x`.
    fn prefix(&self, x: u64) -> i64 {
        let mut i = x.min(self.universe) as usize;
        let mut acc = 0;
        while i > 0 {
            acc += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        acc
    }
}

impl sqs_util::audit::CheckInvariants for ExactTurnstile {
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "ExactTurnstile";
        ensure(
            self.universe > 0 && self.universe <= 1 << 28,
            ALG,
            "fenwick.universe_range",
            || format!("universe of {} items", self.universe),
        )?;
        ensure(
            self.tree.len() == self.universe as usize + 1,
            ALG,
            "fenwick.tree_size",
            || {
                format!(
                    "Fenwick array of {} slots for universe {}",
                    self.tree.len(),
                    self.universe
                )
            },
        )?;
        ensure(
            self.top_bit.is_power_of_two()
                && self.top_bit <= self.universe
                && self.top_bit * 2 > self.universe,
            ALG,
            "fenwick.top_bit",
            || format!("top_bit {} for universe {}", self.top_bit, self.universe),
        )?;
        // Strict turnstile model: deletions never outrun insertions.
        ensure(self.live >= 0, ALG, "fenwick.live_nonnegative", || {
            format!("live count is {}", self.live)
        })?;
        // Each Fenwick node covers a contiguous value range, whose
        // multiplicities are all non-negative in the strict model.
        for (i, &node) in self.tree.iter().enumerate().skip(1) {
            ensure(node >= 0, ALG, "fenwick.node_nonnegative", || {
                format!("node {i} holds {node}")
            })?;
        }
        // The full prefix must reproduce the exactly-tracked live count.
        ensure(
            self.prefix(self.universe) == self.live,
            ALG,
            "fenwick.total_mass",
            || {
                format!(
                    "prefix over the whole universe is {}, live count is {}",
                    self.prefix(self.universe),
                    self.live
                )
            },
        )
    }
}

impl QuantileSummary<u64> for ExactTurnstile {
    fn insert(&mut self, x: u64) {
        self.add(x, 1);
    }

    /// The live count (insertions − deletions).
    fn n(&self) -> u64 {
        self.live.max(0) as u64
    }

    fn rank_estimate(&mut self, x: u64) -> u64 {
        self.prefix(x).max(0) as u64
    }

    /// Exact φ-quantile by Fenwick descent: find the smallest value
    /// whose prefix count exceeds ⌊φ·live⌋ — O(log u), no binary
    /// search over ranks needed.
    fn quantile(&mut self, phi: f64) -> Option<u64> {
        assert!(phi > 0.0 && phi < 1.0, "phi must be in (0,1), got {phi}");
        if self.live <= 0 {
            return None;
        }
        let mut remaining = (phi * self.live as f64).floor() as i64;
        let mut pos = 0usize; // prefix [1..=pos] consumed
        let mut step = self.top_bit as usize;
        while step > 0 {
            let next = pos + step;
            if next <= self.universe as usize && self.tree[next] <= remaining {
                remaining -= self.tree[next];
                pos = next;
            }
            step /= 2;
        }
        // pos = number of values with cumulative count ≤ target → the
        // quantile is the value at index pos (0-based).
        Some((pos as u64).min(self.universe - 1))
    }

    fn name(&self) -> &'static str {
        "ExactTurnstile"
    }
}

impl TurnstileQuantiles for ExactTurnstile {
    fn delete(&mut self, x: u64) {
        self.add(x, -1);
    }
}

impl SpaceUsage for ExactTurnstile {
    fn space_bytes(&self) -> usize {
        words(self.tree.len() + 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_util::exact::ExactQuantiles;
    use sqs_util::rng::Xoshiro256pp;

    #[test]
    fn matches_oracle_exactly() {
        let mut s = ExactTurnstile::for_log_u(12);
        let mut rng = Xoshiro256pp::new(1);
        let data: Vec<u64> = (0..50_000).map(|_| rng.next_below(1 << 12)).collect();
        for &x in &data {
            s.insert(x);
        }
        let oracle = ExactQuantiles::new(data);
        for x in [0u64, 1, 100, 2048, 4095] {
            assert_eq!(s.rank_estimate(x), oracle.rank(x), "rank({x})");
        }
        for phi in [0.01, 0.1, 0.5, 0.9, 0.99] {
            assert_eq!(
                oracle.quantile_error(phi, s.quantile(phi).unwrap()),
                0.0,
                "phi={phi}"
            );
        }
    }

    #[test]
    fn deletion_is_exact() {
        let mut s = ExactTurnstile::new(1000);
        for x in 0..1000u64 {
            s.insert(x);
        }
        for x in 0..500u64 {
            s.delete(x);
        }
        assert_eq!(s.n(), 500);
        assert_eq!(s.rank_estimate(750), 250);
        assert_eq!(s.quantile(0.5), Some(750));
    }

    #[test]
    fn quantile_descent_handles_duplicates() {
        let mut s = ExactTurnstile::new(16);
        for _ in 0..100 {
            s.insert(7);
        }
        s.insert(3);
        s.insert(12);
        assert_eq!(s.quantile(0.5), Some(7));
        assert_eq!(s.quantile(0.005), Some(3));
        assert_eq!(s.quantile(0.999), Some(12));
    }

    #[test]
    fn non_power_of_two_universe() {
        let mut s = ExactTurnstile::new(1000);
        for x in [0u64, 999, 500] {
            s.insert(x);
        }
        assert_eq!(s.quantile(0.9), Some(999));
        assert_eq!(s.rank_estimate(1000), 3);
    }

    #[test]
    fn space_is_u_words() {
        let s = ExactTurnstile::for_log_u(16);
        assert_eq!(s.space_bytes(), (65_536 + 1 + 2) * 4);
        // §4.2.4's "0.25MB" observation for u = 2^16: 64Ki counters.
        assert!((s.space_bytes() as f64 / 1024.0 / 1024.0 - 0.25).abs() < 0.01);
    }

    #[test]
    fn empty_and_drained() {
        let mut s = ExactTurnstile::new(64);
        assert_eq!(s.quantile(0.5), None);
        s.insert(5);
        s.delete(5);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.n(), 0);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn bounds_checked() {
        ExactTurnstile::new(8).insert(8);
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    #[test]
    fn auditor_catches_tampered_tree_node() {
        let mut e = ExactTurnstile::new(256);
        for x in 0..100u64 {
            e.insert(x);
        }
        let root = e.tree.len() - 1;
        e.tree[root] += 3; // prefix sums no longer reconcile with `live`
        let err = e.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "ExactTurnstile");
        assert_eq!(err.invariant, "fenwick.total_mass");
    }

    #[test]
    fn auditor_catches_negative_node() {
        let mut e = ExactTurnstile::new(256);
        e.insert(5);
        e.tree[1] = -2;
        assert_eq!(
            e.check_invariants().unwrap_err().invariant,
            "fenwick.node_nonnegative"
        );
    }
}
