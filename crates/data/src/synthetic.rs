//! Synthetic stream families (§4.1.1): uniform and normal value
//! distributions over a power-of-two universe, with controlled arrival
//! order.

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "every draw is bounded by the value universe or the length of the table it indexes before it is narrowed"
)]

use sqs_util::rng::Xoshiro256pp;

/// Uniform values over `[0, 2^log_u)`, random arrival order.
#[derive(Debug, Clone)]
pub struct Uniform {
    rng: Xoshiro256pp,
    universe: u64,
}

impl Uniform {
    /// Creates the generator.
    ///
    /// # Panics
    /// Panics unless `1 ≤ log_u ≤ 63`.
    pub fn new(log_u: u32, seed: u64) -> Self {
        assert!((1..=63).contains(&log_u), "log_u out of range");
        Self {
            rng: Xoshiro256pp::new(seed),
            universe: 1u64 << log_u,
        }
    }
}

impl Iterator for Uniform {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        Some(self.rng.next_below(self.universe))
    }
}

/// Normal values: mean `u/2`, standard deviation `σ·u`, clamped to
/// `[0, 2^log_u)` — the paper's skewness knob (§4.2.4, §4.3.6 use
/// σ ∈ {0.05, 0.15, 0.25}; smaller σ = more skew/concentration).
#[derive(Debug, Clone)]
pub struct Normal {
    rng: Xoshiro256pp,
    universe: u64,
    sigma: f64,
}

impl Normal {
    /// Creates the generator with relative standard deviation `sigma`.
    ///
    /// # Panics
    /// Panics unless `1 ≤ log_u ≤ 63` and `sigma > 0`.
    pub fn new(log_u: u32, sigma: f64, seed: u64) -> Self {
        assert!((1..=63).contains(&log_u), "log_u out of range");
        assert!(sigma > 0.0, "sigma must be positive");
        Self {
            rng: Xoshiro256pp::new(seed),
            universe: 1u64 << log_u,
            sigma,
        }
    }
}

impl Iterator for Normal {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let u = self.universe as f64;
        let x = u / 2.0 + self.rng.next_standard_normal() * self.sigma * u;
        Some((x.max(0.0) as u64).min(self.universe - 1))
    }
}

/// Arrival orders for materialized streams (§4.1.1's "order (random
/// and sorted)"; Figure 8 compares them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Order {
    /// Leave the generator's order (i.i.d. random).
    Random,
    /// Ascending.
    Sorted,
    /// Descending — the classic adversarial order for GK-family
    /// summaries.
    Reversed,
    /// Sorted runs of random lengths in `[min, max]` — the MPCAT-like
    /// "chunks of ordered data" pattern.
    SortedRuns {
        /// Minimum run length.
        min: usize,
        /// Maximum run length.
        max: usize,
    },
}

impl Order {
    /// Rearranges `data` in place into this order. `seed` drives run
    /// boundaries for [`Order::SortedRuns`].
    pub fn apply(self, data: &mut [u64], seed: u64) {
        match self {
            Order::Random => {}
            Order::Sorted => data.sort_unstable(),
            Order::Reversed => {
                data.sort_unstable();
                data.reverse();
            }
            Order::SortedRuns { min, max } => {
                assert!(min >= 1 && max >= min, "bad run bounds");
                let mut rng = Xoshiro256pp::new(seed);
                let mut i = 0;
                while i < data.len() {
                    let run = min + rng.next_below((max - min + 1) as u64) as usize;
                    let end = (i + run).min(data.len());
                    data[i..end].sort_unstable();
                    i = end;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_stays_in_universe_and_spreads() {
        let vals: Vec<u64> = Uniform::new(16, 1).take(10_000).collect();
        assert!(vals.iter().all(|&v| v < 65_536));
        let mean = vals.iter().sum::<u64>() as f64 / vals.len() as f64;
        assert!((mean - 32_768.0).abs() < 2_000.0, "mean = {mean}");
    }

    #[test]
    fn normal_concentrates_with_small_sigma() {
        let narrow: Vec<u64> = Normal::new(20, 0.05, 2).take(10_000).collect();
        let wide: Vec<u64> = Normal::new(20, 0.25, 2).take(10_000).collect();
        let u = (1u64 << 20) as f64;
        let spread = |v: &[u64]| {
            let m = v.iter().sum::<u64>() as f64 / v.len() as f64;
            (v.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
        };
        let (sn, sw) = (spread(&narrow), spread(&wide));
        assert!(sn < sw, "{sn} !< {sw}");
        assert!((sn / u - 0.05).abs() < 0.02, "sn/u = {}", sn / u);
    }

    #[test]
    fn normal_clamps_to_universe() {
        let vals: Vec<u64> = Normal::new(8, 1.0, 3).take(10_000).collect();
        assert!(vals.iter().all(|&v| v < 256));
        // With σ = u, clamping hits both edges.
        assert!(vals.contains(&0));
        assert!(vals.contains(&255));
    }

    #[test]
    fn orders_are_permutations() {
        let base: Vec<u64> = Uniform::new(16, 4).take(5_000).collect();
        for order in [
            Order::Sorted,
            Order::Reversed,
            Order::SortedRuns { min: 10, max: 100 },
        ] {
            let mut data = base.clone();
            order.apply(&mut data, 9);
            let mut a = base.clone();
            let mut b = data.clone();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{order:?} must permute, not mutate");
        }
    }

    #[test]
    fn sorted_runs_have_runs() {
        let mut data: Vec<u64> = Uniform::new(16, 5).take(10_000).collect();
        Order::SortedRuns { min: 50, max: 51 }.apply(&mut data, 6);
        // Not globally sorted, but locally ascending within runs.
        assert!(data.windows(2).any(|w| w[0] > w[1]));
        let ascending_pairs = data.windows(2).filter(|w| w[0] <= w[1]).count();
        assert!(ascending_pairs as f64 > 0.9 * (data.len() - 1) as f64);
    }

    #[test]
    fn generators_are_deterministic() {
        let a: Vec<u64> = Uniform::new(20, 7).take(100).collect();
        let b: Vec<u64> = Uniform::new(20, 7).take(100).collect();
        assert_eq!(a, b);
        let c: Vec<u64> = Normal::new(20, 0.15, 7).take(100).collect();
        let d: Vec<u64> = Normal::new(20, 0.15, 7).take(100).collect();
        assert_eq!(c, d);
    }
}
