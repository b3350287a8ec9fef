//! Biased and targeted quantiles — the CKMS extension of GK
//! (Cormode, Korn, Muthukrishnan & Srivastava, "Space- and
//! time-efficient deterministic algorithms for biased quantiles over
//! data streams", cited as [10] in the study's §1 list of extensions).
//!
//! Uniform-ε summaries waste space when only a few quantiles matter,
//! or when the tails need *relative* precision (p99.9 of latencies to
//! ±1% of its rank, not ±ε·n). CKMS generalizes the GK invariant: the
//! allowed gap at rank `r` becomes a function `f(r, n)` instead of the
//! constant `2εn`:
//!
//! * **low-biased**: `f(r, n) = max(2εr, 2)` — relative error for
//!   small φ (and by symmetry `high_biased` for the upper tail);
//! * **targeted** at `{(φ_j, ε_j)}`:
//!   `f_j(r, n) = 2ε_j·r/φ_j` for `r ≥ φ_j n`, and
//!   `2ε_j·(n−r)/(1−φ_j)` below — tight exactly where queries land.
//!
//! The mechanics are GKAdaptive-style: insert `(v, 1, f(r)−1)` before
//! the successor, periodically sweep and merge every tuple whose
//! combined gap fits `f` at its rank.

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "indices and narrowing casts stay within the bounds `check_invariants` audits"
)]

use crate::gk::Tuple;
use crate::QuantileSummary;
use sqs_util::space::{words, SpaceUsage};

/// The gap-budget shape.
#[derive(Debug, Clone)]
enum Invariant {
    LowBiased { eps: f64 },
    HighBiased { eps: f64 },
    Targeted { targets: Vec<(f64, f64)> },
}

impl Invariant {
    /// The allowed combined gap `f(r, n)` at rank `r`.
    fn budget(&self, r: f64, n: f64) -> f64 {
        let f = match self {
            Invariant::LowBiased { eps } => 2.0 * eps * r,
            Invariant::HighBiased { eps } => 2.0 * eps * (n - r),
            Invariant::Targeted { targets } => targets
                .iter()
                .map(|&(phi, eps)| {
                    if r >= phi * n {
                        2.0 * eps * r / phi
                    } else {
                        2.0 * eps * (n - r) / (1.0 - phi)
                    }
                })
                .fold(f64::INFINITY, f64::min),
        };
        f.max(2.0)
    }

    /// Upper bound on `f` anywhere in the rank interval `[a, b]`.
    /// Every component is monotone on each side of its kink, so a
    /// component's max over an interval is at an endpoint; the min over
    /// components is bounded by the max endpoint value of any of them.
    fn budget_upper(&self, a: f64, b: f64, n: f64) -> f64 {
        let hi = match self {
            Invariant::LowBiased { eps } => 2.0 * eps * b,
            Invariant::HighBiased { eps } => 2.0 * eps * (n - a),
            Invariant::Targeted { targets } => targets
                .iter()
                .map(|&(phi, eps)| {
                    let at = |r: f64| {
                        if r >= phi * n {
                            2.0 * eps * r / phi
                        } else {
                            2.0 * eps * (n - r) / (1.0 - phi)
                        }
                    };
                    at(a).max(at(b))
                })
                .fold(0.0, f64::max),
        };
        hi.max(2.0)
    }
}

/// A biased/targeted quantile summary (deterministic,
/// comparison-based).
///
/// # Example
///
/// ```
/// use sqs_core::{biased::Ckms, QuantileSummary};
///
/// // Tight p99, loose median — the tail budget doesn't tax the middle.
/// let mut s = Ckms::targeted(&[(0.5, 0.02), (0.99, 0.001)]);
/// for x in 0..200_000u64 {
///     s.insert(x);
/// }
/// let p99 = s.quantile(0.99).unwrap();
/// assert!(p99.abs_diff(198_000) <= 800); // within 2·0.001·n ranks
/// ```

#[derive(Debug, Clone)]
pub struct Ckms<T> {
    invariant: Invariant,
    n: u64,
    tuples: Vec<Tuple<T>>,
    buffer: Vec<T>,
    /// Compress after this many buffered inserts (amortizes the sweep).
    batch: usize,
}

impl<T: Ord + Copy> Ckms<T> {
    fn with_invariant(invariant: Invariant) -> Self {
        Self {
            invariant,
            n: 0,
            tuples: Vec::new(),
            buffer: Vec::with_capacity(128),
            batch: 128,
        }
    }

    /// Relative-error summary for the **lower** tail: the φ-quantile is
    /// answered within rank error `ε·φ·n` — small quantiles get
    /// proportionally tighter answers.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1`.
    pub fn low_biased(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        Self::with_invariant(Invariant::LowBiased { eps })
    }

    /// Relative-error summary for the **upper** tail (p99, p999, …):
    /// the φ-quantile is answered within `ε·(1−φ)·n`.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1`.
    pub fn high_biased(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        Self::with_invariant(Invariant::HighBiased { eps })
    }

    /// Summary targeted at specific `(φ, ε)` pairs — e.g.
    /// `[(0.5, 0.01), (0.99, 0.001)]` for a coarse median and a tight
    /// p99.
    ///
    /// # Panics
    /// Panics if `targets` is empty or any pair is out of range.
    pub fn targeted(targets: &[(f64, f64)]) -> Self {
        assert!(!targets.is_empty(), "targeted: no targets");
        for &(phi, eps) in targets {
            assert!(phi > 0.0 && phi < 1.0, "target phi {phi} out of (0,1)");
            assert!(eps > 0.0 && eps < 1.0, "target eps {eps} out of (0,1)");
        }
        Self::with_invariant(Invariant::Targeted {
            targets: targets.to_vec(),
        })
    }

    /// Number of tuples currently held.
    pub fn tuple_count(&mut self) -> usize {
        self.flush();
        self.tuples.len()
    }

    /// Applies buffered inserts (sequential semantics, sorted for
    /// locality) and runs the compressing sweep.
    fn flush(&mut self) {
        if self.buffer.is_empty() {
            return;
        }
        self.buffer.sort_unstable();
        let buffered = std::mem::take(&mut self.buffer);
        let mut li = 0usize;
        let mut rmin_before = 0u64; // Σ g of tuples emitted so far
        let old = std::mem::take(&mut self.tuples);
        let mut out: Vec<Tuple<T>> = Vec::with_capacity(old.len() + buffered.len());
        let n = self.n as f64;
        for &v in &buffered {
            while li < old.len() && old[li].v <= v {
                rmin_before += old[li].g;
                out.push(old[li]);
                li += 1;
            }
            let delta = if li >= old.len() || out.is_empty() {
                0 // new max / new min pinned
            } else {
                (self.invariant.budget(rmin_before as f64, n).floor() as u64)
                    .saturating_sub(1)
                    .min(old[li].g + old[li].delta.max(1) - 1)
            };
            out.push(Tuple { v, g: 1, delta });
            rmin_before += 1;
        }
        out.extend_from_slice(&old[li..]);
        self.tuples = out;
        self.compress();
    }

    /// The CKMS COMPRESS: one right-to-left sweep merging every tuple
    /// whose combined gap with its successor fits the budget at its
    /// rank.
    fn compress(&mut self) {
        if self.tuples.len() < 3 {
            return;
        }
        let n = self.n as f64;
        // Prefix ranks (rmin of each tuple); folds to the right never
        // change the rank of tuples to their left.
        let mut ranks = Vec::with_capacity(self.tuples.len());
        let mut acc = 0u64;
        for t in &self.tuples {
            acc += t.g;
            ranks.push(acc);
        }
        let mut kept: Vec<Tuple<T>> = Vec::with_capacity(self.tuples.len());
        kept.push(
            *self
                .tuples
                .last()
                .expect("CKMS invariant: compress runs only with >= 3 tuples"),
        );
        for i in (1..self.tuples.len() - 1).rev() {
            let t = self.tuples[i];
            let succ = *kept
                .last()
                .expect("CKMS invariant: kept list seeded with the last tuple");
            if (t.g + succ.g + succ.delta) as f64 <= self.invariant.budget(ranks[i] as f64, n) {
                kept.last_mut()
                    .expect("CKMS invariant: kept list stays nonempty during compress")
                    .g += t.g;
            } else {
                kept.push(t);
            }
        }
        kept.push(self.tuples[0]);
        kept.reverse();
        self.tuples = kept;
    }
}

impl<T: Ord + Copy> sqs_util::audit::CheckInvariants for Ckms<T> {
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "CKMS";
        ensure(self.batch >= 1, ALG, "ckms.batch_positive", || {
            "compress batch size is zero".to_string()
        })?;
        ensure(
            self.buffer.len() <= self.batch,
            ALG,
            "ckms.buffer_bound",
            || {
                format!(
                    "buffer holds {} elements, batch limit {}",
                    self.buffer.len(),
                    self.batch
                )
            },
        )?;
        // Σg accounts for folded elements only; the rest sit in `buffer`.
        let folded = self.n - self.buffer.len() as u64;
        let n = self.n as f64;
        let mut rmin = 0u64;
        for (i, t) in self.tuples.iter().enumerate() {
            ensure(t.g >= 1, ALG, "ckms.g_positive", || {
                format!("tuple {i} has g = 0")
            })?;
            if i > 0 {
                ensure(self.tuples[i - 1].v <= t.v, ALG, "ckms.sorted", || {
                    format!("tuple {i} is smaller than its predecessor")
                })?;
            }
            let before = rmin;
            rmin += t.g;
            if i > 0 && i + 1 < self.tuples.len() {
                // The gap budget was granted at some rank in
                // [rmin_before, rmin] and only grows with n and rank,
                // so the endpoint upper bound (+1 merge slack) holds.
                let cap = self.invariant.budget_upper(before as f64, rmin as f64, n) + 1.0;
                ensure(
                    (t.g + t.delta) as f64 <= cap + 1e-6,
                    ALG,
                    "ckms.gap_budget",
                    || {
                        format!(
                            "tuple {i}: g+Δ = {} exceeds rank-budget bound {cap:.1}",
                            t.g + t.delta
                        )
                    },
                )?;
            }
        }
        ensure(
            self.tuples.is_empty() || rmin == folded,
            ALG,
            "ckms.g_sum",
            || format!("Σg = {rmin} ≠ folded element count {folded}"),
        )?;
        let ends_pinned = self.tuples.first().is_none_or(|t| t.delta == 0)
            && self.tuples.last().is_none_or(|t| t.delta == 0);
        ensure(ends_pinned, ALG, "ckms.ends_pinned", || {
            "extreme tuples must carry Δ = 0".to_string()
        })
    }
}

impl<T: Ord + Copy> QuantileSummary<T> for Ckms<T> {
    fn insert(&mut self, x: T) {
        self.n += 1;
        self.buffer.push(x);
        if self.buffer.len() >= self.batch {
            self.flush();
            // Keep the sweep amortized against the summary size.
            self.batch = self.tuples.len().max(128);
        }
        #[cfg(any(test, feature = "audit"))]
        if sqs_util::audit::audit_point(self.n) {
            sqs_util::audit::CheckInvariants::assert_invariants(self);
        }
    }

    fn n(&self) -> u64 {
        self.n
    }

    fn rank_estimate(&mut self, x: T) -> u64 {
        self.flush();
        let mut rmin = 0u64;
        let mut best = 0u64;
        for t in &self.tuples {
            if t.v > x {
                break;
            }
            rmin += t.g;
            best = rmin + t.delta / 2;
        }
        best.saturating_sub(1)
    }

    fn quantile(&mut self, phi: f64) -> Option<T> {
        crate::traits::check_phi(phi);
        self.flush();
        if self.tuples.is_empty() {
            return None;
        }
        let n = self.n as f64;
        let target = (phi * n).floor() + 1.0;
        let margin = self.invariant.budget(target, n) / 2.0;
        let mut rmin = 0u64;
        let mut prev = self.tuples[0].v;
        for t in &self.tuples {
            rmin += t.g;
            if rmin as f64 + t.delta as f64 > target + margin {
                return Some(prev);
            }
            prev = t.v;
        }
        Some(prev)
    }

    fn name(&self) -> &'static str {
        "CKMS"
    }
}

impl<T> SpaceUsage for Ckms<T> {
    fn space_bytes(&self) -> usize {
        words(self.tuples.len() * 3 + self.buffer.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_util::exact::ExactQuantiles;
    use sqs_util::rng::Xoshiro256pp;

    fn stream(n: usize, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256pp::new(seed);
        (0..n).map(|_| rng.next_below(1 << 30)).collect()
    }

    #[test]
    fn high_biased_is_tight_in_the_tail() {
        let eps = 0.05;
        let data = stream(100_000, 1);
        let oracle = ExactQuantiles::new(data.clone());
        let mut s = Ckms::high_biased(eps);
        for &x in &data {
            s.insert(x);
        }
        for phi in [0.9, 0.99, 0.999] {
            let q = s.quantile(phi).unwrap();
            let err = oracle.quantile_error(phi, q);
            let allowed = 2.0 * eps * (1.0 - phi) + 1e-4; // relative budget
            assert!(err <= allowed, "phi={phi}: err {err} > {allowed}");
        }
    }

    #[test]
    fn low_biased_is_tight_at_the_bottom() {
        let eps = 0.05;
        let data = stream(100_000, 2);
        let oracle = ExactQuantiles::new(data.clone());
        let mut s = Ckms::low_biased(eps);
        for &x in &data {
            s.insert(x);
        }
        for phi in [0.001, 0.01, 0.1] {
            let q = s.quantile(phi).unwrap();
            let err = oracle.quantile_error(phi, q);
            let allowed = 2.0 * eps * phi + 1e-4;
            assert!(err <= allowed, "phi={phi}: err {err} > {allowed}");
        }
    }

    #[test]
    fn targeted_hits_its_targets() {
        let targets = [(0.5, 0.02), (0.99, 0.002)];
        let data = stream(200_000, 3);
        let oracle = ExactQuantiles::new(data.clone());
        let mut s = Ckms::targeted(&targets);
        for &x in &data {
            s.insert(x);
        }
        for &(phi, eps) in &targets {
            let q = s.quantile(phi).unwrap();
            let err = oracle.quantile_error(phi, q);
            assert!(err <= 2.0 * eps, "phi={phi}: err {err} > {}", 2.0 * eps);
        }
    }

    #[test]
    fn targeted_uses_less_space_than_uniform_tightest() {
        // A tight p99 target should not force tight-ε space everywhere.
        let data = stream(200_000, 4);
        let mut targeted = Ckms::targeted(&[(0.99, 0.001)]);
        let mut uniform = crate::gk::GkArray::new(0.001);
        for &x in &data {
            targeted.insert(x);
            uniform.insert(x);
        }
        let t = targeted.tuple_count();
        let u = uniform.tuples().len();
        assert!(t * 2 < u, "targeted {t} vs uniform {u} tuples");
    }

    #[test]
    fn sorted_and_duplicate_streams() {
        let mut s = Ckms::high_biased(0.1);
        for x in 0..50_000u64 {
            s.insert(x % 100);
        }
        let oracle = ExactQuantiles::new((0..50_000u64).map(|x| x % 100).collect());
        let q = s.quantile(0.99).unwrap();
        assert!(oracle.quantile_error(0.99, q) <= 0.01);
    }

    #[test]
    fn empty_and_singleton() {
        let mut s = Ckms::<u64>::low_biased(0.1);
        assert_eq!(s.quantile(0.5), None);
        s.insert(5);
        assert_eq!(s.quantile(0.5), Some(5));
        assert_eq!(s.n(), 1);
    }

    #[test]
    #[should_panic(expected = "no targets")]
    fn rejects_empty_targets() {
        Ckms::<u64>::targeted(&[]);
    }

    #[test]
    fn space_stays_sublinear() {
        let mut s = Ckms::high_biased(0.01);
        for x in stream(300_000, 5) {
            s.insert(x);
        }
        assert!(s.tuple_count() < 30_000, "tuples = {}", s.tuple_count());
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    fn filled() -> Ckms<u64> {
        let mut s = Ckms::high_biased(0.05);
        for x in 0..20_000u64 {
            s.insert(x % 4_999);
        }
        s.flush();
        s
    }

    #[test]
    fn auditor_catches_mass_drift() {
        let mut s = filled();
        s.tuples[0].g += 5;
        let err = s.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "CKMS");
        assert_eq!(err.invariant, "ckms.g_sum");
    }

    #[test]
    fn auditor_catches_unpinned_extremes() {
        let mut s = filled();
        s.tuples.last_mut().expect("nonempty").delta = 3;
        assert_eq!(
            s.check_invariants().unwrap_err().invariant,
            "ckms.ends_pinned"
        );
    }
}
