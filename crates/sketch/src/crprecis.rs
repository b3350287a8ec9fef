//! The CR-precis structure (Ganguly & Majumder, ESCAPE'07) — the
//! *deterministic* turnstile frequency estimator behind the
//! `O((1/ε²)·log⁵u·log(log u/ε))` deterministic quantile algorithm the
//! study mentions and dismisses: *"The high dependency on 1/ε and
//! log u is not considered practical"* (§1.2.2). Implemented so the
//! dismissal is measurable.
//!
//! Structure: `t` rows, row `j` keyed by residues modulo the `j`-th
//! prime `p_j` (primes chosen ≥ a base so that their product over any
//! `t` rows exceeds the universe). Like a Count-Min sketch whose
//! "hash functions" are fixed residue maps — no randomness anywhere:
//!
//! * never underestimates (insert-only mass);
//! * any two distinct items collide in fewer than `log_b u` of the `t`
//!   rows (CRT), so the *minimum* row overshoots by at most
//!   `(n − f_x)·log_b(u)/t`.

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "cell indices are reduced into [0, width) before use, and `check_invariants` audits the counter layout they index"
)]

use crate::FrequencySketch;
use sqs_util::space::{words, SpaceUsage};

/// Deterministic sieve: first `count` primes that are ≥ `from`.
fn primes_from(from: u64, count: usize) -> Vec<u64> {
    let mut out = Vec::with_capacity(count);
    let mut candidate = from.max(2);
    while out.len() < count {
        let is_prime = (2..)
            .take_while(|d| d * d <= candidate)
            .all(|d| !candidate.is_multiple_of(d));
        if is_prime {
            out.push(candidate);
        }
        candidate += 1;
    }
    out
}

/// A CR-precis sketch: `t` prime-residue counter rows.
#[derive(Debug, Clone)]
pub struct CrPrecis {
    primes: Vec<u64>,
    /// Row `j` has `primes[j]` counters; rows are concatenated with
    /// per-row offsets.
    counters: Vec<i64>,
    offsets: Vec<usize>,
    universe: u64,
    #[cfg(any(test, feature = "audit"))]
    updates: u64,
}

impl CrPrecis {
    /// Builds a sketch over `universe` items with `t` rows of primes
    /// starting at `base` (row widths are the primes themselves, so
    /// total space ≈ `t·base` counters).
    ///
    /// # Panics
    /// Panics if `t == 0`, `base < 2` or `universe == 0`.
    pub fn new(universe: u64, t: usize, base: u64) -> Self {
        assert!(t > 0, "CrPrecis: t must be positive");
        assert!(base >= 2, "CrPrecis: base must be ≥ 2");
        assert!(universe > 0, "CrPrecis: empty universe");
        let primes = primes_from(base, t);
        let mut offsets = Vec::with_capacity(t);
        let mut total = 0usize;
        for &p in &primes {
            offsets.push(total);
            total += p as usize;
        }
        Self {
            primes,
            counters: vec![0; total],
            offsets,
            universe,
            #[cfg(any(test, feature = "audit"))]
            updates: 0,
        }
    }

    /// Sizes a sketch for ε-fraction frequency error over `universe`:
    /// collisions per pair < log_base(u), so `t = ⌈log_b(u)/ε⌉` rows of
    /// width ≈ `base = ⌈log₂ u/ε⌉` give `εn` overshoot — the quadratic
    /// 1/ε² footprint that makes the paper call it impractical.
    pub fn for_eps(universe: u64, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        let base = (((universe as f64).log2() / eps).ceil() as u64).max(8);
        let collisions = (universe as f64).log(base as f64).ceil().max(1.0);
        let t = ((collisions / eps).ceil() as usize).clamp(1, 4096);
        Self::new(universe, t, base)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.primes.len()
    }
}

impl sqs_util::audit::CheckInvariants for CrPrecis {
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "CrPrecis";
        ensure(
            !self.primes.is_empty(),
            ALG,
            "crprecis.rows_positive",
            || "no rows".to_string(),
        )?;
        ensure(
            self.offsets.len() == self.primes.len(),
            ALG,
            "crprecis.offset_count",
            || {
                format!(
                    "{} offsets for {} rows",
                    self.offsets.len(),
                    self.primes.len()
                )
            },
        )?;
        let mut total = 0usize;
        for (j, &p) in self.primes.iter().enumerate() {
            ensure(
                j == 0 || self.primes[j - 1] < p,
                ALG,
                "crprecis.primes_increasing",
                || format!("row {j} modulus {p} does not exceed its predecessor"),
            )?;
            let is_prime = p >= 2
                && (2..)
                    .take_while(|d| d * d <= p)
                    .all(|d| !p.is_multiple_of(d));
            ensure(is_prime, ALG, "crprecis.modulus_prime", || {
                format!("row {j} modulus {p} is composite")
            })?;
            ensure(
                self.offsets[j] == total,
                ALG,
                "crprecis.row_offsets",
                || format!("row {j} starts at {} instead of {total}", self.offsets[j]),
            )?;
            total += p as usize;
        }
        ensure(
            self.counters.len() == total,
            ALG,
            "crprecis.counter_layout",
            || format!("{} counters for Σ primes = {total}", self.counters.len()),
        )?;
        // Each update adds its delta to one residue class per row, so
        // all row sums equal the total update mass.
        let width0 = self.primes[0] as usize;
        let first: i64 = self.counters[..width0].iter().sum();
        for (j, &p) in self.primes.iter().enumerate().skip(1) {
            let row: i64 = self.counters[self.offsets[j]..self.offsets[j] + p as usize]
                .iter()
                .sum();
            ensure(row == first, ALG, "crprecis.row_mass_equal", || {
                format!("row {j} sums to {row}, row 0 sums to {first}")
            })?;
        }
        Ok(())
    }
}

impl FrequencySketch for CrPrecis {
    fn update(&mut self, x: u64, delta: i64) {
        for (j, &p) in self.primes.iter().enumerate() {
            self.counters[self.offsets[j] + (x % p) as usize] += delta;
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += 1;
            if sqs_util::audit::audit_point(self.updates) {
                sqs_util::audit::CheckInvariants::assert_invariants(self);
            }
        }
    }

    fn estimate(&self, x: u64) -> i64 {
        self.primes
            .iter()
            .enumerate()
            .map(|(j, &p)| self.counters[self.offsets[j] + (x % p) as usize])
            .min()
            .expect("CrPrecis invariant: t > 0 rows")
    }

    fn universe(&self) -> u64 {
        self.universe
    }
}

impl SpaceUsage for CrPrecis {
    fn space_bytes(&self) -> usize {
        words(self.counters.len() + self.primes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prime_generation() {
        assert_eq!(primes_from(2, 5), vec![2, 3, 5, 7, 11]);
        assert_eq!(primes_from(10, 3), vec![11, 13, 17]);
        assert_eq!(primes_from(100, 2), vec![101, 103]);
    }

    #[test]
    fn never_underestimates_and_deterministic() {
        let mut a = CrPrecis::new(1 << 16, 10, 64);
        let mut b = CrPrecis::new(1 << 16, 10, 64);
        let mut truth = std::collections::HashMap::new();
        for i in 0..20_000u64 {
            let x = (i * 48271) % (1 << 16);
            a.update(x, 1);
            b.update(x, 1);
            *truth.entry(x).or_insert(0i64) += 1;
        }
        for (&x, &t) in truth.iter().take(500) {
            assert!(a.estimate(x) >= t, "underestimate at {x}");
            assert_eq!(a.estimate(x), b.estimate(x), "determinism");
        }
    }

    #[test]
    fn collision_bound_holds() {
        // Two distinct items in [u] collide in < log_base(u) rows.
        let s = CrPrecis::new(1 << 16, 20, 17);
        for (x, y) in [(5u64, 9000), (123, 45678), (1, 65535)] {
            let collisions = s.primes.iter().filter(|&&p| x % p == y % p).count();
            let bound = (65536f64).log(17.0).ceil() as usize;
            assert!(
                collisions < bound.max(1),
                "{x},{y}: {collisions} collisions"
            );
        }
    }

    #[test]
    fn eps_sizing_estimates_within_budget() {
        let eps = 0.05;
        let mut s = CrPrecis::for_eps(1 << 12, eps);
        let n = 20_000u64;
        for i in 0..n {
            s.update((i * 7919) % (1 << 12), 1);
        }
        // Overshoot of any single estimate ≤ εn (deterministic bound).
        let mut truth = std::collections::HashMap::new();
        for i in 0..n {
            *truth.entry((i * 7919) % (1 << 12)).or_insert(0i64) += 1;
        }
        for (&x, &t) in truth.iter().take(300) {
            let over = s.estimate(x) - t;
            assert!(over >= 0);
            assert!(
                (over as f64) <= eps * n as f64 + 1.0,
                "x={x}: overshoot {over}"
            );
        }
    }

    #[test]
    fn deletions_cancel_exactly() {
        let mut s = CrPrecis::new(1 << 10, 8, 16);
        for x in 0..500u64 {
            s.update(x, 3);
        }
        for x in 0..500u64 {
            s.update(x, -3);
        }
        for x in 0..500u64 {
            assert_eq!(s.estimate(x), 0);
        }
    }

    #[test]
    fn space_is_quadratic_in_inv_eps() {
        let coarse = CrPrecis::for_eps(1 << 20, 0.1);
        let fine = CrPrecis::for_eps(1 << 20, 0.01);
        let ratio = fine.space_bytes() as f64 / coarse.space_bytes() as f64;
        assert!(
            ratio > 20.0,
            "ratio = {ratio} — should blow up quadratically"
        );
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    #[test]
    fn auditor_catches_row_mass_drift() {
        let mut s = CrPrecis::new(1 << 12, 6, 16);
        for x in 0..2_000u64 {
            s.update(x % 500, 1);
        }
        s.counters[0] += 1;
        let err = s.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "CrPrecis");
        assert_eq!(err.invariant, "crprecis.row_mass_equal");
    }

    #[test]
    fn auditor_catches_composite_modulus() {
        let mut s = CrPrecis::new(1 << 12, 6, 16);
        s.primes[2] += 1; // 19 → 20, composite (and layout now lies too)
        let err = s.check_invariants().unwrap_err();
        assert!(
            err.invariant == "crprecis.modulus_prime" || err.invariant == "crprecis.row_offsets",
            "unexpected invariant {}",
            err.invariant
        );
    }
}
