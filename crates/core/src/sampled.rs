//! The classic random-sampling baseline (§1.2.1): a uniform sample of
//! `O((1/ε²)·log(1/ε))` elements preserves all quantiles within ε with
//! constant probability (Vapnik–Chervonenkis).
//!
//! The paper notes the original sample-then-summarize scheme needs `n`
//! in advance; a *reservoir* sample removes that requirement while
//! keeping the guarantee, which is the variant implemented here
//! (documented deviation). Queries answer from the exact quantiles of
//! the reservoir. This baseline is what the sophisticated algorithms
//! must beat: its space is quadratic in 1/ε where theirs is linear.
//!
//! It merges ([`MergeableSummary`](crate::MergeableSummary)) but is not
//! served: it has no wire form, since `Random` takes less space at equal
//! observed error on every stream of `results/reservoir_vs_random.csv`
//! (EXPERIMENTS.md). It stays as the harness's baseline and as an
//! exact-capacity oracle in the engine's tests.

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "indices and narrowing casts stay within the bounds `check_invariants` audits"
)]

use crate::QuantileSummary;
use sqs_util::rng::Xoshiro256pp;
use sqs_util::space::{words, SpaceUsage};

/// Cap on the reservoir so tiny ε doesn't demand gigabytes; once the
/// VC bound exceeds the cap the ε guarantee is no longer formal (the
/// harness surfaces this in the error plots, which is the point of a
/// baseline).
const MAX_RESERVOIR: usize = 1 << 23;

/// Reservoir-sampling quantile baseline (randomized, comparison-based).
#[derive(Debug, Clone)]
pub struct ReservoirQuantiles<T> {
    capacity: usize,
    reservoir: Vec<T>,
    sorted: bool,
    n: u64,
    rng: Xoshiro256pp,
}

impl<T: Ord + Copy> ReservoirQuantiles<T> {
    /// Creates the baseline for error target ε: reservoir of
    /// `⌈(1/ε²)·ln(2/ε)⌉` elements (capped at 2^23).
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1`.
    pub fn new(eps: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        let want = ((1.0 / (eps * eps)) * (2.0 / eps).ln()).ceil() as usize;
        Self::with_capacity(want.clamp(16, MAX_RESERVOIR), seed)
    }

    /// Creates the baseline with an explicit reservoir capacity.
    pub fn with_capacity(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            capacity,
            reservoir: Vec::with_capacity(capacity.min(1 << 16)),
            sorted: false,
            n: 0,
            rng: Xoshiro256pp::new(seed),
        }
    }

    /// Reservoir capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Elements currently held.
    pub fn sample_len(&self) -> usize {
        self.reservoir.len()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.reservoir.sort_unstable();
            self.sorted = true;
        }
    }
}

impl<T: Ord + Copy> crate::MergeableSummary<T> for ReservoirQuantiles<T> {
    /// Merges `other` into `self`, consuming it — the sampled fallback
    /// the engine uses where the paper's GK summaries (which are not
    /// mergeable without weakening ε) would otherwise be the backend.
    ///
    /// While both sides still hold every element they have seen, the
    /// union is kept exactly (still a uniform sample). Once either
    /// side is subsampled, the merged reservoir draws each slot from
    /// one of the two parents with probability proportional to the
    /// stream mass its remaining sample represents, without
    /// replacement — the merged sample is uniform over the combined
    /// stream up to the parents' own sampling variance, so the VC
    /// bound behind [`new`](ReservoirQuantiles::new) carries over.
    ///
    /// # Panics
    /// Panics if the two reservoirs were built with different
    /// capacities (i.e. different ε).
    fn merge_from(&mut self, mut other: Self) {
        assert_eq!(
            self.capacity, other.capacity,
            "Reservoir merge: capacity mismatch"
        );
        if other.n == 0 {
            return;
        }
        let n_total = self.n + other.n;
        if self.n as usize == self.reservoir.len()
            && other.n as usize == other.reservoir.len()
            && self.reservoir.len() + other.reservoir.len() <= self.capacity
        {
            // Both sides exact and the union fits: keep everything.
            self.reservoir.append(&mut other.reservoir);
            self.sorted = false;
            self.n = n_total;
            return;
        }
        // Per-element represented stream mass on each side.
        let wa = self.n as f64 / self.reservoir.len().max(1) as f64;
        let wb = other.n as f64 / other.reservoir.len().max(1) as f64;
        let k = self
            .capacity
            .min(self.reservoir.len() + other.reservoir.len());
        let mut merged = Vec::with_capacity(k);
        let mut a = std::mem::take(&mut self.reservoir);
        let mut b = std::mem::take(&mut other.reservoir);
        for _ in 0..k {
            let (ra, rb) = (a.len() as f64 * wa, b.len() as f64 * wb);
            // A 53-bit uniform draw decides the side by remaining mass.
            let u = (self.rng.next_below(1u64 << 53) as f64) / (1u64 << 53) as f64;
            let side = if b.is_empty() || (!a.is_empty() && u < ra / (ra + rb)) {
                &mut a
            } else {
                &mut b
            };
            if side.is_empty() {
                break;
            }
            let at = self.rng.next_below(side.len() as u64) as usize;
            merged.push(side.swap_remove(at));
        }
        self.reservoir = merged;
        self.sorted = false;
        self.n = n_total;
    }

    fn merge_compatible(&self, other: &Self) -> bool {
        self.capacity == other.capacity
    }
}

impl<T: Ord + Copy> sqs_util::audit::CheckInvariants for ReservoirQuantiles<T> {
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "Reservoir";
        ensure(
            self.capacity > 0,
            ALG,
            "reservoir.capacity_positive",
            || "reservoir capacity is zero".to_string(),
        )?;
        ensure(
            self.reservoir.len() <= self.capacity,
            ALG,
            "reservoir.size_bound",
            || {
                format!(
                    "reservoir holds {} elements, capacity {}",
                    self.reservoir.len(),
                    self.capacity
                )
            },
        )?;
        // Algorithm R keeps the reservoir exactly full once n >= capacity,
        // and exactly n-sized before that.
        let expect = (self.n as usize).min(self.capacity);
        ensure(
            self.reservoir.len() == expect,
            ALG,
            "reservoir.fill_level",
            || {
                format!(
                    "reservoir holds {} elements but n = {} implies {}",
                    self.reservoir.len(),
                    self.n,
                    expect
                )
            },
        )?;
        ensure(
            !self.sorted || self.reservoir.windows(2).all(|w| w[0] <= w[1]),
            ALG,
            "reservoir.sorted_flag",
            || "sorted flag set but reservoir is out of order".to_string(),
        )
    }
}

impl<T: Ord + Copy> QuantileSummary<T> for ReservoirQuantiles<T> {
    fn insert(&mut self, x: T) {
        self.n += 1;
        if self.reservoir.len() < self.capacity {
            self.reservoir.push(x);
            self.sorted = false;
        } else {
            // Algorithm R: element n replaces a random slot w.p. cap/n.
            let j = self.rng.next_below(self.n);
            if (j as usize) < self.capacity {
                self.reservoir[j as usize] = x;
                self.sorted = false;
            }
        }
        #[cfg(any(test, feature = "audit"))]
        if sqs_util::audit::audit_point(self.n) {
            sqs_util::audit::CheckInvariants::assert_invariants(self);
        }
    }

    /// Bulk insert, leaving exactly the state itemwise insertion would:
    /// while the reservoir has room every row is kept and no random
    /// draw is made, so that prefix is one append; the rest goes
    /// through Algorithm R row by row.
    fn insert_batch(&mut self, xs: &[T]) {
        let room = self.capacity - self.reservoir.len();
        let (kept, sampled) = xs.split_at(room.min(xs.len()));
        if !kept.is_empty() {
            self.reservoir.extend_from_slice(kept);
            self.sorted = false;
            self.n += kept.len() as u64;
        }
        for &x in sampled {
            self.insert(x);
        }
        #[cfg(any(test, feature = "audit"))]
        sqs_util::audit::CheckInvariants::assert_invariants(self);
    }

    fn n(&self) -> u64 {
        self.n
    }

    fn rank_estimate(&mut self, x: T) -> u64 {
        if self.reservoir.is_empty() {
            return 0;
        }
        self.ensure_sorted();
        let in_sample = self.reservoir.partition_point(|&v| v < x) as u64;
        // Scale the sample rank back to stream scale.
        (in_sample as f64 / self.reservoir.len() as f64 * self.n as f64) as u64
    }

    fn quantile(&mut self, phi: f64) -> Option<T> {
        crate::traits::check_phi(phi);
        if self.reservoir.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let idx = ((phi * self.reservoir.len() as f64) as usize).min(self.reservoir.len() - 1);
        Some(self.reservoir[idx])
    }

    fn name(&self) -> &'static str {
        "Reservoir"
    }
}

impl<T> SpaceUsage for ReservoirQuantiles<T> {
    fn space_bytes(&self) -> usize {
        words(self.reservoir.len().max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MergeableSummary;
    use sqs_util::exact::ExactQuantiles;
    use sqs_util::rng::Xoshiro256pp;

    #[test]
    fn below_capacity_is_exact() {
        let mut s = ReservoirQuantiles::with_capacity(1000, 1);
        let data: Vec<u64> = (0..500).rev().collect();
        for &x in &data {
            s.insert(x);
        }
        let oracle = ExactQuantiles::new(data);
        for phi in [0.1, 0.5, 0.9] {
            assert_eq!(oracle.quantile_error(phi, s.quantile(phi).unwrap()), 0.0);
        }
    }

    #[test]
    fn sample_size_never_exceeds_capacity() {
        let mut s = ReservoirQuantiles::with_capacity(100, 2);
        for x in 0..10_000u64 {
            s.insert(x);
        }
        assert_eq!(s.sample_len(), 100);
        assert_eq!(s.n(), 10_000);
    }

    #[test]
    fn sampled_median_is_close() {
        let mut rng = Xoshiro256pp::new(3);
        let mut s = ReservoirQuantiles::new(0.05, 4);
        let data: Vec<u64> = (0..200_000).map(|_| rng.next_below(1_000_000)).collect();
        for &x in &data {
            s.insert(x);
        }
        let oracle = ExactQuantiles::new(data);
        let err = oracle.quantile_error(0.5, s.quantile(0.5).unwrap());
        assert!(err <= 0.05, "err = {err}");
    }

    #[test]
    fn reservoir_is_unbiased_enough() {
        // Mean of reservoir over uniform stream ≈ stream mean.
        let mut s = ReservoirQuantiles::with_capacity(2_000, 5);
        for x in 0..100_000u64 {
            s.insert(x);
        }
        let mean: f64 = s.reservoir.iter().map(|&x| x as f64).sum::<f64>() / s.sample_len() as f64;
        assert!((mean - 50_000.0).abs() < 4_000.0, "mean = {mean}");
    }

    #[test]
    fn eps_sizing_monotone() {
        let a = ReservoirQuantiles::<u64>::new(0.1, 1).capacity();
        let b = ReservoirQuantiles::<u64>::new(0.01, 1).capacity();
        assert!(b > a);
        assert!(b <= MAX_RESERVOIR);
    }

    #[test]
    fn empty_is_none() {
        let mut s = ReservoirQuantiles::<u64>::with_capacity(10, 7);
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.rank_estimate(5), 0);
    }

    #[test]
    fn insert_batch_leaves_the_state_itemwise_insertion_would() {
        use crate::buffers::oracle::feed_both;
        // Chunks are sized around the room left, so they stop short
        // of, end at and straddle the point where sampling starts.
        fn room(s: &ReservoirQuantiles<u64>) -> u64 {
            (s.capacity - s.reservoir.len()) as u64
        }
        let mut rng = Xoshiro256pp::new(17);
        let rows: Vec<u64> = (0..40_000).map(|_| rng.next_below(1 << 24)).collect();
        for capacity in [1, 700, 5_000] {
            let mut itemwise = ReservoirQuantiles::with_capacity(capacity, 3);
            let mut batched = itemwise.clone();
            feed_both(&mut itemwise, &mut batched, &rows, &mut rng, room, |s| {
                format!("{s:?}").into_bytes()
            });
            assert_eq!(batched.sample_len(), capacity);
        }
    }

    #[test]
    fn merge_of_exact_reservoirs_keeps_everything() {
        let mut a = ReservoirQuantiles::with_capacity(1_000, 11);
        let mut b = ReservoirQuantiles::with_capacity(1_000, 12);
        for x in 0..300u64 {
            a.insert(x);
            b.insert(1_000 + x);
        }
        a.merge_from(b);
        assert_eq!(a.n(), 600);
        assert_eq!(a.sample_len(), 600);
        sqs_util::audit::CheckInvariants::assert_invariants(&a);
        assert_eq!(
            ExactQuantiles::new((0..300u64).chain(1_000..1_300).collect())
                .quantile_error(0.5, a.quantile(0.5).unwrap()),
            0.0
        );
    }

    #[test]
    fn merge_of_subsampled_reservoirs_stays_accurate() {
        // Two heavily-subsampled streams over disjoint ranges: the
        // merged sample must weight each side by its stream mass, so
        // the median of the (2:1-sized) union lands in the bigger
        // side's range.
        let mut rng = Xoshiro256pp::new(13);
        let mut a = ReservoirQuantiles::with_capacity(4_000, 14);
        let mut b = ReservoirQuantiles::with_capacity(4_000, 15);
        let mut all: Vec<u64> = Vec::new();
        for _ in 0..200_000 {
            let x = rng.next_below(1 << 20);
            a.insert(x);
            all.push(x);
        }
        for _ in 0..100_000 {
            let x = (1 << 20) + rng.next_below(1 << 20);
            b.insert(x);
            all.push(x);
        }
        a.merge_from(b);
        assert_eq!(a.n(), 300_000);
        assert_eq!(a.sample_len(), 4_000);
        sqs_util::audit::CheckInvariants::assert_invariants(&a);
        let oracle = ExactQuantiles::new(all);
        for phi in [0.25, 0.5, 0.75] {
            let err = oracle.quantile_error(phi, a.quantile(phi).unwrap());
            assert!(err <= 0.05, "phi={phi}: err {err}");
        }
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    #[test]
    fn auditor_catches_reservoir_overfill() {
        let mut s = ReservoirQuantiles::with_capacity(100, 1);
        for x in 0..5_000u64 {
            s.insert(x);
        }
        s.reservoir.push(0);
        let err = s.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "Reservoir");
        assert_eq!(err.invariant, "reservoir.size_bound");
    }

    #[test]
    fn auditor_catches_false_sorted_flag() {
        let mut s = ReservoirQuantiles::with_capacity(100, 2);
        for x in (0..100u64).rev() {
            s.insert(x);
        }
        s.sorted = true; // reservoir still holds the reversed insertion order
        assert_eq!(
            s.check_invariants().unwrap_err().invariant,
            "reservoir.sorted_flag"
        );
    }
}
