//! Seeded inputs and the exact oracle that checks answers against them.
//!
//! Every input the benchmark sends is drawn here, from `--seed`, before
//! any clock starts. A [`Stream`] is a finite pool of values that a
//! client cycles through in fixed-size frames, so the program under
//! test can be fed for as long as a run lasts without the generator
//! doing any work inside the timed loop — and the exact rank of any
//! value after `k` acknowledged rows has a closed form:
//! `passes × rank-in-pool + rank in the partial pass`.

use sqs_util::rng::{SplitMix64, Xoshiro256pp};

/// The seed of one named input, derived from the run seed so that no
/// two inputs share a random stream.
pub fn derive_seed(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

/// A pool of values one source cycles through, plus its sorted copy for
/// the oracle.
#[derive(Debug, Clone)]
pub struct Stream {
    values: Vec<u64>,
    sorted: Vec<u64>,
}

impl Stream {
    /// `len` values uniform over `[0, bound)`.
    pub fn uniform(seed: u64, len: usize, bound: u64) -> Self {
        let mut rng = Xoshiro256pp::new(seed);
        Self::from_values((0..len).map(|_| rng.next_below(bound)).collect())
    }

    pub fn from_values(values: Vec<u64>) -> Self {
        assert!(!values.is_empty(), "a stream needs at least one value");
        let mut sorted = values.clone();
        sorted.sort_unstable();
        Self { values, sorted }
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Splits the pool into `parts` equal streams (one per tenant of a
    /// client), so that tenants see disjoint slices of one seeded pool.
    pub fn split(&self, parts: usize) -> Vec<Stream> {
        assert!(
            parts > 0 && self.len().is_multiple_of(parts),
            "pool of {} does not split into {parts}",
            self.len()
        );
        self.values
            .chunks(self.len() / parts)
            .map(|c| Stream::from_values(c.to_vec()))
            .collect()
    }

    /// The `j`-th frame of `rows` values, cycling through the pool.
    /// `rows` must divide the pool so that no frame wraps.
    pub fn frame(&self, j: u64, rows: usize) -> &[u64] {
        assert!(
            rows > 0 && self.len().is_multiple_of(rows),
            "frames of {rows} rows do not tile a pool of {}",
            self.len()
        );
        let frames = (self.len() / rows) as u64;
        let at = (j % frames) as usize * rows;
        &self.values[at..at + rows]
    }

    /// For each probe `x`: how many of the first `rows` cycled values
    /// are `< x` and how many are `<= x`.
    pub fn ranks_after(&self, rows: u64, xs: &[u64]) -> Vec<(u64, u64)> {
        let len = self.len() as u64;
        let passes = rows / len;
        let partial = &self.values[..(rows % len) as usize];
        if xs.len() <= 16 {
            // A few probes: counting beats sorting the partial pass.
            return xs
                .iter()
                .map(|&x| {
                    (
                        passes * self.sorted.partition_point(|&v| v < x) as u64
                            + partial.iter().filter(|&&v| v < x).count() as u64,
                        passes * self.sorted.partition_point(|&v| v <= x) as u64
                            + partial.iter().filter(|&&v| v <= x).count() as u64,
                    )
                })
                .collect();
        }
        let mut partial = partial.to_vec();
        partial.sort_unstable();
        xs.iter()
            .map(|&x| {
                let lt = |s: &[u64]| s.partition_point(|&v| v < x) as u64;
                let le = |s: &[u64]| s.partition_point(|&v| v <= x) as u64;
                (
                    passes * lt(&self.sorted) + lt(&partial),
                    passes * le(&self.sorted) + le(&partial),
                )
            })
            .collect()
    }
}

/// What one tenant was fed: each source stream with the number of its
/// rows the server acknowledged.
pub struct Oracle<'a> {
    pub sources: Vec<(&'a Stream, u64)>,
}

impl Oracle<'_> {
    pub fn n(&self) -> u64 {
        self.sources.iter().map(|&(_, rows)| rows).sum()
    }

    /// Exact `(< x, <= x)` counts over everything acknowledged.
    pub fn ranks(&self, xs: &[u64]) -> Vec<(u64, u64)> {
        let mut total = vec![(0u64, 0u64); xs.len()];
        for &(stream, rows) in &self.sources {
            for (t, r) in total.iter_mut().zip(stream.ranks_after(rows, xs)) {
                t.0 += r.0;
                t.1 += r.1;
            }
        }
        total
    }

    /// The largest rank error of a φ-sweep's answers, in rows: the
    /// distance from `φ·n` to the interval of ranks the answer occupies.
    /// `None` answers count as an error of `n`.
    pub fn max_quantile_error(&self, phis: &[f64], answers: &[Option<u64>]) -> f64 {
        let n = self.n();
        if answers.len() != phis.len() || answers.iter().any(Option::is_none) {
            return n as f64;
        }
        let xs: Vec<u64> = answers.iter().flatten().copied().collect();
        phis.iter()
            .zip(self.ranks(&xs))
            .map(|(&phi, (lt, le))| interval_distance(phi * n as f64, lt, le))
            .fold(0.0, f64::max)
    }

    /// The largest error of estimated ranks against the exact interval.
    pub fn max_rank_error(&self, xs: &[u64], estimates: &[u64]) -> f64 {
        if estimates.len() != xs.len() {
            return self.n() as f64;
        }
        estimates
            .iter()
            .zip(self.ranks(xs))
            .map(|(&est, (lt, le))| interval_distance(est as f64, lt, le))
            .fold(0.0, f64::max)
    }
}

/// Distance from `target` to the closed interval `[lo, hi]`.
pub fn interval_distance(target: f64, lo: u64, hi: u64) -> f64 {
    if target < lo as f64 {
        lo as f64 - target
    } else if target > hi as f64 {
        target - hi as f64
    } else {
        0.0
    }
}

/// The φ grid of the end-of-run sweep: 0.01, 0.02, …, 0.99.
pub fn phi_grid() -> Vec<f64> {
    (1..100).map(|i| f64::from(i) / 100.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sort-based oracle: materialise the cycled prefix and count.
    fn brute(stream: &Stream, rows: u64, x: u64) -> (u64, u64) {
        let seen: Vec<u64> = (0..rows)
            .map(|i| stream.values()[(i % stream.len() as u64) as usize])
            .collect();
        (
            seen.iter().filter(|&&v| v < x).count() as u64,
            seen.iter().filter(|&&v| v <= x).count() as u64,
        )
    }

    #[test]
    fn cycling_oracle_equals_sort_based_oracle() {
        // A small universe forces duplicates; row counts cover zero, a
        // partial pass, exact passes and passes plus a remainder.
        let stream = Stream::uniform(3, 64, 40);
        let probes: Vec<u64> = (0..42).collect();
        for rows in [0, 1, 17, 63, 64, 65, 128, 200, 1000] {
            let got = stream.ranks_after(rows, &probes);
            for (&x, &r) in probes.iter().zip(&got) {
                assert_eq!(r, brute(&stream, rows, x), "rows {rows} probe {x}");
            }
        }
    }

    #[test]
    fn oracle_sums_sources_and_measures_quantile_error() {
        let a = Stream::from_values((0..100).collect());
        let b = Stream::from_values((100..200).collect());
        let oracle = Oracle {
            sources: vec![(&a, 250), (&b, 100)],
        };
        assert_eq!(oracle.n(), 350);
        // 250 rows of `a` = two passes and 0..50: values < 50 occur
        // three times, the rest twice.
        assert_eq!(oracle.ranks(&[50]), vec![(150, 152)]);
        assert_eq!(oracle.ranks(&[150]), vec![(300, 301)]);
        // φ = 0.5 targets rank 175; value 62 covers ranks [174, 176].
        assert_eq!(oracle.max_quantile_error(&[0.5], &[Some(62)]), 0.0);
        // Value 70 covers [190, 192]: 15 rows off.
        assert_eq!(oracle.max_quantile_error(&[0.5], &[Some(70)]), 15.0);
        assert_eq!(oracle.max_quantile_error(&[0.5], &[None]), 350.0);
        assert_eq!(oracle.max_rank_error(&[50, 150], &[151, 310]), 9.0);
    }

    #[test]
    fn one_seed_gives_identical_frames_and_another_seed_differs() {
        let frames = |seed: u64| -> Vec<Vec<u64>> {
            let pool = Stream::uniform(derive_seed(seed, 1), 1 << 12, 1 << 24);
            let tenants = pool.split(4);
            (0..40u64)
                .map(|j| tenants[(j % 4) as usize].frame(j / 4, 256).to_vec())
                .collect()
        };
        assert_eq!(frames(11), frames(11));
        assert_ne!(frames(11), frames(12));
    }

    #[test]
    fn frames_cycle_without_wrapping() {
        let stream = Stream::from_values((0..12).collect());
        assert_eq!(stream.frame(0, 4), &[0, 1, 2, 3]);
        assert_eq!(stream.frame(2, 4), &[8, 9, 10, 11]);
        assert_eq!(stream.frame(3, 4), &[0, 1, 2, 3]);
    }
}
