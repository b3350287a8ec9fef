//! Exact (offline) rank and quantile computation.
//!
//! This is both the ground truth the harness measures every summary
//! against and the trivial "keep everything and sort" baseline the
//! paper's introduction contrasts with streaming computation.
//!
//! The error convention follows §4.1.2 of the paper precisely:
//!
//! * the φ-quantile of `n` elements is the element of rank `⌊φn⌋`,
//!   where the rank of `x` is the number of elements smaller than `x`;
//! * when a value occurs multiple times, its possible rank is an
//!   **interval** `[#{< x}, #{< x} + #{= x} − 1]`, and the error of a
//!   returned quantile is the distance from `⌊φn⌋` to the closer
//!   interval endpoint (0 if contained) — i.e. the measurement
//!   "favors the algorithms".

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "indices come from binary searches over the sorted data they index, and ranks never exceed its length"
)]

/// The rank interval of a value within a data set: every position the
/// value could legitimately occupy in some sorted order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankInterval {
    /// Least possible rank: the number of elements strictly smaller.
    pub lo: u64,
    /// Greatest possible rank: `lo + multiplicity − 1` for present
    /// values, `lo` for absent ones.
    pub hi: u64,
}

impl RankInterval {
    /// Distance from `target` to this interval (0 if contained).
    #[inline]
    pub fn distance(&self, target: u64) -> u64 {
        if target < self.lo {
            self.lo - target
        } else {
            target.saturating_sub(self.hi)
        }
    }
}

/// Exact quantile oracle over a materialized data set.
///
/// Construction sorts a copy of the data (`O(n log n)`); queries are
/// `O(log n)` binary searches.
///
/// # Example
///
/// ```
/// use sqs_util::exact::ExactQuantiles;
///
/// let q = ExactQuantiles::new(vec![3u64, 1, 4, 1, 5, 9, 2, 6]);
/// assert_eq!(q.quantile(0.5), 4); // the element of rank ⌊0.5·8⌋ = 4
/// assert_eq!(q.rank(4), 4); // elements smaller than 4: {1, 1, 2, 3}
/// assert_eq!(q.quantile_error(0.5, 4), 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct ExactQuantiles<T: Ord> {
    sorted: Vec<T>,
}

impl<T: Ord + Copy> ExactQuantiles<T> {
    /// Builds the oracle from a stream snapshot.
    pub fn new(mut data: Vec<T>) -> Self {
        data.sort_unstable();
        Self { sorted: data }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the data set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The rank of `x`: number of elements strictly smaller than `x`.
    #[inline]
    pub fn rank(&self, x: T) -> u64 {
        self.sorted.partition_point(|&y| y < x) as u64
    }

    /// The rank interval of `x` (see [`RankInterval`]). For a value not
    /// present in the data the interval is the single point `#{< x}` —
    /// fixed-universe algorithms may legitimately return such values.
    pub fn rank_interval(&self, x: T) -> RankInterval {
        let lo = self.sorted.partition_point(|&y| y < x) as u64;
        let hi_excl = self.sorted.partition_point(|&y| y <= x) as u64;
        if hi_excl > lo {
            RankInterval {
                lo,
                hi: hi_excl - 1,
            }
        } else {
            RankInterval { lo, hi: lo }
        }
    }

    /// The exact φ-quantile: the element of rank `⌊φn⌋` (clamped to the
    /// last element for φ so close to 1 that `⌊φn⌋ = n`).
    ///
    /// # Panics
    /// Panics on an empty data set or `φ ∉ (0, 1)`.
    pub fn quantile(&self, phi: f64) -> T {
        assert!(!self.sorted.is_empty(), "quantile of empty data");
        assert!(phi > 0.0 && phi < 1.0, "phi must be in (0,1), got {phi}");
        let r = ((phi * self.sorted.len() as f64) as usize).min(self.sorted.len() - 1);
        self.sorted[r]
    }

    /// Normalized error of answering `answer` for the φ-quantile:
    /// `distance(⌊φn⌋, rank_interval(answer)) / n` (§4.1.2).
    pub fn quantile_error(&self, phi: f64, answer: T) -> f64 {
        let n = self.sorted.len() as u64;
        assert!(n > 0, "error against empty data");
        let target = (phi * n as f64) as u64;
        self.rank_interval(answer).distance(target.min(n - 1)) as f64 / n as f64
    }

    /// The sorted data (for tests and direct inspection).
    #[inline]
    pub fn sorted(&self) -> &[T] {
        &self.sorted
    }
}

/// Measures a batch of quantile answers against the exact oracle and
/// returns `(max_error, avg_error)` — the paper's two error metrics
/// (Kolmogorov–Smirnov divergence and the total-variation-related
/// average; §4.1.2).
///
/// `answers` pairs each probed φ with the summary's returned element.
pub fn observed_errors<T: Ord + Copy>(
    oracle: &ExactQuantiles<T>,
    answers: &[(f64, T)],
) -> (f64, f64) {
    assert!(!answers.is_empty(), "observed_errors: no probes");
    let mut max = 0.0f64;
    let mut sum = 0.0f64;
    for &(phi, ans) in answers {
        let e = oracle.quantile_error(phi, ans);
        max = max.max(e);
        sum += e;
    }
    (max, sum / answers.len() as f64)
}

/// The standard probe grid φ = ε, 2ε, …, up to but excluding 1
/// (`1/ε − 1` probes; §1.1(3), §4.1.2).
pub fn probe_phis(eps: f64) -> Vec<f64> {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
    let k = (1.0 / eps).round() as usize;
    (1..k)
        .map(|i| i as f64 * eps)
        .filter(|&p| p < 1.0)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_and_quantile_basic() {
        let q = ExactQuantiles::new(vec![5u64, 1, 3, 2, 4]);
        assert_eq!(q.rank(1), 0);
        assert_eq!(q.rank(3), 2);
        assert_eq!(q.rank(6), 5);
        assert_eq!(q.quantile(0.5), 3); // rank ⌊0.5·5⌋ = 2 → value 3
        assert_eq!(q.quantile(0.9), 5);
        assert_eq!(q.quantile(0.01), 1);
    }

    #[test]
    fn rank_interval_with_duplicates() {
        // data: 1 2 2 2 3 → ranks: 1:[0,0], 2:[1,3], 3:[4,4]
        let q = ExactQuantiles::new(vec![2u64, 2, 1, 3, 2]);
        assert_eq!(q.rank_interval(1), RankInterval { lo: 0, hi: 0 });
        assert_eq!(q.rank_interval(2), RankInterval { lo: 1, hi: 3 });
        assert_eq!(q.rank_interval(3), RankInterval { lo: 4, hi: 4 });
        // absent values get a point interval at their insertion rank
        assert_eq!(q.rank_interval(0), RankInterval { lo: 0, hi: 0 });
        assert_eq!(q.rank_interval(10), RankInterval { lo: 5, hi: 5 });
    }

    #[test]
    fn interval_distance() {
        let iv = RankInterval { lo: 3, hi: 7 };
        assert_eq!(iv.distance(1), 2);
        assert_eq!(iv.distance(3), 0);
        assert_eq!(iv.distance(5), 0);
        assert_eq!(iv.distance(7), 0);
        assert_eq!(iv.distance(10), 3);
    }

    #[test]
    fn quantile_error_favors_duplicates() {
        // 100 copies of the same value: any φ answered with that value
        // has zero error.
        let q = ExactQuantiles::new(vec![42u64; 100]);
        for phi in [0.1, 0.5, 0.9] {
            assert_eq!(q.quantile_error(phi, 42), 0.0);
        }
        // Answering a larger absent value: interval is [100,100] but
        // target ⌊φ·100⌋ ≤ 99, so error is positive.
        assert!(q.quantile_error(0.5, 43) > 0.0);
    }

    #[test]
    fn exact_answers_have_zero_error() {
        let data: Vec<u64> = (0..1000).map(|i| (i * 37) % 500).collect();
        let q = ExactQuantiles::new(data);
        for phi in probe_phis(0.01) {
            assert_eq!(q.quantile_error(phi, q.quantile(phi)), 0.0, "phi = {phi}");
        }
    }

    #[test]
    fn probe_grid_shape() {
        let phis = probe_phis(0.25);
        assert_eq!(phis, vec![0.25, 0.5, 0.75]);
        assert_eq!(probe_phis(0.01).len(), 99);
        assert!(probe_phis(0.001).iter().all(|&p| p > 0.0 && p < 1.0));
    }

    #[test]
    fn off_by_one_near_one() {
        // φ close enough to 1 that ⌊φn⌋ = n must clamp to last element.
        let q = ExactQuantiles::new((0..10u64).collect::<Vec<_>>());
        assert_eq!(q.quantile(0.9999), 9);
    }

    #[test]
    #[should_panic(expected = "quantile of empty data")]
    fn quantile_empty_panics() {
        ExactQuantiles::<u64>::new(vec![]).quantile(0.5);
    }
}
