//! The random-subset-sum sketch (Gilbert, Kotidis, Muthukrishnan &
//! Strauss, VLDB'02) — the first turnstile quantile sketch (§1.2.2).
//!
//! Each of `k` repetitions keeps one counter `C_j` summing the
//! frequencies of the items in a pairwise-independent random half of
//! the universe (`b_j(x) = 1`), plus the exact total mass `N`. Then
//!
//! * if `b_j(x) = 1`:  `E[C_j] = f(x) + (N − f(x))/2` → `f̂ = 2C_j − N`,
//! * if `b_j(x) = 0`:  `E[C_j] = (N − f(x))/2`       → `f̂ = N − 2C_j`,
//!
//! both unbiased with variance `Θ(F₂)`; averaging the `k` repetitions
//! divides the variance by `k`, which is why this sketch needs
//! `k = O(1/ε²)` counters where Count-Min/Count-Sketch need `O(1/ε)`
//! buckets — the reason the paper excludes it from the headline plots
//! ("its performance is much worse"), and why we keep it: to show
//! that.

#![expect(
    clippy::indexing_slicing,
    reason = "cell indices are reduced into [0, width) before use, and `check_invariants` audits the counter layout they index"
)]

use crate::{batch_scratch::CHUNK, FrequencySketch, MergeableSketch};
use sqs_util::hash::PairwiseHash;
use sqs_util::rng::Xoshiro256pp;
use sqs_util::space::{words, SpaceUsage};

/// A `k`-repetition random-subset-sum sketch.
#[derive(Debug, Clone)]
pub struct SubsetSum {
    counters: Vec<i64>,
    members: Vec<PairwiseHash>, // b_j : [u] → {0, 1}
    total: i64,                 // exact N (insertions − deletions)
    universe: u64,
    #[cfg(any(test, feature = "audit"))]
    updates: u64,
}

// Equality is summary state only — the audit-only `updates` diagnostic
// is excluded, since it legitimately differs between paths that reach
// the same state (wire decode starts it at zero, shard merges sum it).
impl PartialEq for SubsetSum {
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters
            && self.members == other.members
            && self.total == other.total
            && self.universe == other.universe
    }
}

impl Eq for SubsetSum {}

impl SubsetSum {
    /// Creates a sketch over `universe` items with `k` repetitions.
    ///
    /// # Panics
    /// Panics if `k == 0` or `universe == 0`.
    pub fn new(universe: u64, k: usize, rng: &mut Xoshiro256pp) -> Self {
        assert!(k > 0, "SubsetSum: k must be positive");
        assert!(universe > 0, "SubsetSum: empty universe");
        Self {
            counters: vec![0; k],
            members: (0..k).map(|_| PairwiseHash::new(rng, 2)).collect(),
            total: 0,
            universe,
            #[cfg(any(test, feature = "audit"))]
            updates: 0,
        }
    }

    /// Number of repetitions `k`.
    pub fn repetitions(&self) -> usize {
        self.counters.len()
    }
}

impl sqs_util::audit::CheckInvariants for SubsetSum {
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "SubsetSum";
        ensure(
            !self.counters.is_empty(),
            ALG,
            "subsetsum.reps_positive",
            || "no repetitions".to_string(),
        )?;
        ensure(
            self.members.len() == self.counters.len(),
            ALG,
            "subsetsum.member_pairing",
            || {
                format!(
                    "{} membership hashes for {} counters",
                    self.members.len(),
                    self.counters.len()
                )
            },
        )?;
        ensure(
            self.universe > 0,
            ALG,
            "subsetsum.universe_positive",
            || "universe is zero".to_string(),
        )?;
        // Strict turnstile model: item multiplicities never go negative,
        // so each subset's mass sits between 0 and the total mass.
        ensure(self.total >= 0, ALG, "subsetsum.total_nonnegative", || {
            format!("total mass is {}", self.total)
        })?;
        for (j, &c) in self.counters.iter().enumerate() {
            ensure(
                c >= 0 && c <= self.total,
                ALG,
                "subsetsum.subset_mass_bound",
                || format!("repetition {j} holds {c}, outside [0, {}]", self.total),
            )?;
        }
        Ok(())
    }
}

impl FrequencySketch for SubsetSum {
    fn update(&mut self, x: u64, delta: i64) {
        self.total += delta;
        for (c, b) in self.counters.iter_mut().zip(&self.members) {
            if b.hash(x) == 1 {
                *c += delta;
            }
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += 1;
            if sqs_util::audit::audit_point(self.updates) {
                sqs_util::audit::CheckInvariants::assert_invariants(self);
            }
        }
    }

    // Repetition-major batch walk: each membership hash is evaluated
    // over the whole chunk with coefficients in registers, and the
    // `{0,1}` membership bit multiplies the delta branchlessly.
    // State-identical to the scalar loop.
    fn update_batch(&mut self, batch: &[(u64, i64)]) {
        let mut keys = [0u64; CHUNK];
        let mut mbuf = [0u64; CHUNK];
        for chunk in batch.chunks(CHUNK) {
            let m = chunk.len();
            // One field-fold per key, shared by every repetition.
            for (k, &(x, _)) in keys.iter_mut().zip(chunk) {
                *k = sqs_util::hash::fold_to_field(x);
            }
            self.total += chunk.iter().map(|&(_, d)| d).sum::<i64>();
            for (c, b) in self.counters.iter_mut().zip(&self.members) {
                b.hash_folded_batch(&keys[..m], &mut mbuf[..m]);
                for (&bit, &(_, delta)) in mbuf[..m].iter().zip(chunk) {
                    *c += bit as i64 * delta;
                }
            }
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
        let k = self.counters.len() as i64;
        let sum: i64 = self
            .counters
            .iter()
            .zip(&self.members)
            .map(|(&c, b)| {
                if b.hash(x) == 1 {
                    2 * c - self.total
                } else {
                    self.total - 2 * c
                }
            })
            .sum();
        // Round-to-nearest average.
        (sum + k.signum() * k / 2) / k
    }

    fn estimate_batch(&self, xs: &[u64], out: &mut [i64]) {
        Self::estimate_parts(&[self], xs, out);
    }

    fn universe(&self) -> u64 {
        self.universe
    }

    fn variance_estimate(&self) -> Option<f64> {
        // Var(single estimator) ≈ F₂ ≤ N²; we expose the crude N²/k
        // bound (the sketch has no good F₂ estimator of its own).
        let k = self.counters.len() as f64;
        Some((self.total as f64) * (self.total as f64) / k)
    }
}

impl MergeableSketch for SubsetSum {
    fn merge_compatible(&self, other: &Self) -> bool {
        self.universe == other.universe && self.members == other.members
    }

    fn merge_from(&mut self, other: &Self) {
        assert!(
            self.merge_compatible(other),
            "SubsetSum invariant: merge requires identical membership hashes"
        );
        self.total += other.total;
        for (c, o) in self.counters.iter_mut().zip(&other.counters) {
            *c += o;
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += other.updates;
        }
    }

    // Repetition-major read: each membership hash sweeps the chunk's
    // folded keys once, accumulating the per-key estimator sums in
    // repetition order from the counter and total summed over the
    // parts — i64 addition commutes, so the final rounded average is
    // bit-identical to the merged sketch's scalar estimate.
    fn estimate_parts(parts: &[&Self], xs: &[u64], out: &mut [i64]) {
        assert_eq!(xs.len(), out.len(), "estimate_parts: slice length mismatch");
        let Some((first, rest)) = parts.split_first() else {
            out.fill(0);
            return;
        };
        let k = first.counters.len() as i64;
        let total = rest.iter().fold(first.total, |t, p| t + p.total);
        let mut keys = [0u64; CHUNK];
        let mut mbuf = [0u64; CHUNK];
        for (chunk, out_c) in xs.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            let m = chunk.len();
            for (key, &x) in keys.iter_mut().zip(chunk) {
                *key = sqs_util::hash::fold_to_field(x);
            }
            out_c.fill(0);
            for (r, (&c, b)) in first.counters.iter().zip(&first.members).enumerate() {
                let c = rest.iter().fold(c, |c, p| c + p.counters[r]);
                b.hash_folded_batch(&keys[..m], &mut mbuf[..m]);
                for (o, &bit) in out_c.iter_mut().zip(&mbuf[..m]) {
                    *o += if bit == 1 {
                        2 * c - total
                    } else {
                        total - 2 * c
                    };
                }
            }
            for o in out_c.iter_mut() {
                *o = (*o + k.signum() * k / 2) / k;
            }
        }
    }
}

impl SpaceUsage for SubsetSum {
    fn space_bytes(&self) -> usize {
        // k counters + 2 hash coefficients each + the exact total.
        words(self.counters.len() * 3 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbiased_over_draws() {
        let mut seed_rng = Xoshiro256pp::new(40);
        let trials = 400;
        let mut sum = 0f64;
        for _ in 0..trials {
            let mut ss = SubsetSum::new(1024, 8, &mut seed_rng);
            for x in 0..64u64 {
                ss.update(x, 4);
            }
            sum += ss.estimate(5) as f64;
        }
        let mean = sum / trials as f64;
        assert!((mean - 4.0).abs() < 12.0, "mean = {mean}");
    }

    #[test]
    fn heavy_item_detectable_with_many_reps() {
        let mut rng = Xoshiro256pp::new(41);
        let mut ss = SubsetSum::new(4096, 2000, &mut rng);
        // One heavy item among light noise.
        ss.update(77, 5_000);
        let mut noise = Xoshiro256pp::new(42);
        for _ in 0..5_000 {
            ss.update(noise.next_below(4096), 1);
        }
        let est = ss.estimate(77);
        assert!((est - 5_000).abs() < 1_500, "est = {est}");
    }

    #[test]
    fn deletions_cancel_exactly() {
        let mut rng = Xoshiro256pp::new(43);
        let mut ss = SubsetSum::new(256, 50, &mut rng);
        for x in 0..100u64 {
            ss.update(x, 2);
        }
        for x in 0..100u64 {
            ss.update(x, -2);
        }
        for x in 0..100u64 {
            assert_eq!(ss.estimate(x), 0, "x={x}");
        }
    }

    #[test]
    fn batch_is_state_identical_to_scalar() {
        let mut rng = Xoshiro256pp::new(45);
        let mut scalar = SubsetSum::new(1 << 20, 64, &mut rng);
        let mut batched = scalar.clone();
        let mut stream_rng = Xoshiro256pp::new(46);
        // Deletions target keys already inserted, keeping the stream
        // strict-turnstile so mid-batch audit points stay valid.
        let mut batch: Vec<(u64, i64)> = Vec::new();
        for i in 0..700 {
            let x = stream_rng.next_below(1 << 20);
            batch.push((x, 1));
            if i % 4 == 3 {
                batch.push((x, -1));
            }
        }
        for &(x, d) in &batch {
            scalar.update(x, d);
        }
        batched.update_batch(&batch);
        assert_eq!(scalar, batched);
    }

    #[test]
    fn estimate_batch_is_bit_identical_to_scalar() {
        let mut rng = Xoshiro256pp::new(47);
        let mut ss = SubsetSum::new(1 << 16, 64, &mut rng);
        let mut stream_rng = Xoshiro256pp::new(48);
        for _ in 0..5_000 {
            ss.update(stream_rng.next_below(1 << 16), 1);
        }
        for n in [1usize, 17, 1024, 1025] {
            let xs: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9) % (1 << 16))
                .collect();
            let mut out = vec![0i64; n];
            ss.estimate_batch(&xs, &mut out);
            for (&x, &o) in xs.iter().zip(&out) {
                assert_eq!(o, ss.estimate(x), "n={n} x={x}");
            }
        }
    }

    #[test]
    fn space_is_three_words_per_rep() {
        let mut rng = Xoshiro256pp::new(44);
        let ss = SubsetSum::new(64, 100, &mut rng);
        assert_eq!(ss.space_bytes(), (300 + 1) * 4);
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    #[test]
    fn auditor_catches_subset_exceeding_total() {
        let mut rng = Xoshiro256pp::new(70);
        let mut ss = SubsetSum::new(256, 16, &mut rng);
        for x in 0..500u64 {
            ss.update(x % 200, 1);
        }
        ss.counters[3] = ss.total + 1;
        let err = ss.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "SubsetSum");
        assert_eq!(err.invariant, "subsetsum.subset_mass_bound");
    }

    #[test]
    fn auditor_catches_negative_total() {
        let mut rng = Xoshiro256pp::new(71);
        let mut ss = SubsetSum::new(256, 16, &mut rng);
        ss.total = -5;
        assert_eq!(
            ss.check_invariants().unwrap_err().invariant,
            "subsetsum.total_nonnegative"
        );
    }
}
