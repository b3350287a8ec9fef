//! `RSS` — dyadic random-subset-sum quantiles (Gilbert et al.,
//! VLDB'02), the first turnstile algorithm (§1.2.2).
//!
//! The paper excludes it from its headline plots because "its
//! performance is much worse" than DCM/DCS; we include it so that
//! claim is measurable. Its per-level estimator needs `O(1/ε²)`
//! repetitions for `εn` error, so at equal ε it is quadratically
//! larger than the hash-bucketed sketches.

#![expect(
    clippy::cast_possible_truncation,
    reason = "sketch shapes computed from eps and log u are small positive numbers, so the float-to-integer casts cannot truncate"
)]

use crate::dyadic::DyadicQuantiles;
use sqs_sketch::SubsetSum;
use sqs_util::rng::{SplitMix64, Xoshiro256pp};

/// The dyadic random-subset-sum turnstile quantile summary.
pub type Rss = DyadicQuantiles<SubsetSum>;

/// Practical cap on per-level repetitions so tiny ε doesn't demand
/// gigabytes (the point of including RSS is to show the 1/ε² blow-up,
/// which the cap leaves visible long before it binds).
const MAX_REPS: usize = 1 << 22;

/// Builds an RSS summary for error target ε over `[0, 2^log_u)`:
/// `k = (log₂u)/ε²` repetitions per level (the per-level error budget
/// is ε/log u of the total, costing the usual quadratic factor).
pub fn new_rss(eps: f64, log_u: u32, seed: u64) -> Rss {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
    let k = (((log_u as f64) / (eps * eps)).ceil() as usize).clamp(16, MAX_REPS);
    new_rss_with(k, log_u, seed)
}

/// Builds an RSS summary with an explicit per-level repetition count.
pub fn new_rss_with(k: usize, log_u: u32, seed: u64) -> Rss {
    let mut seeds = SplitMix64::new(seed);
    DyadicQuantiles::new(
        log_u,
        0,
        k as u64,
        move |cells, _| {
            let mut rng = Xoshiro256pp::new(seeds.next_u64());
            SubsetSum::new(cells, k, &mut rng)
        },
        "RSS",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TurnstileQuantiles;
    use sqs_core::QuantileSummary;
    use sqs_util::exact::ExactQuantiles;
    use sqs_util::rng::Xoshiro256pp;
    use sqs_util::SpaceUsage;

    #[test]
    fn coarse_quantiles_work() {
        // RSS is only usable at coarse ε; verify it does function there.
        let eps = 0.1;
        let mut rss = new_rss(eps, 12, 1);
        let mut rng = Xoshiro256pp::new(2);
        let data: Vec<u64> = (0..20_000).map(|_| rng.next_below(1 << 12)).collect();
        for &x in &data {
            rss.insert(x);
        }
        let oracle = ExactQuantiles::new(data);
        for phi in [0.25, 0.5, 0.75] {
            let q = rss.quantile(phi).unwrap();
            let err = oracle.quantile_error(phi, q);
            assert!(err <= 2.0 * eps, "phi={phi}, err={err}");
        }
    }

    #[test]
    fn quadratically_larger_than_dcs() {
        let eps = 0.05;
        let rss = new_rss(eps, 16, 1);
        let dcs = crate::Dcs::dcs(eps, 16, 1);
        let ratio = rss.space_bytes() as f64 / dcs.space_bytes() as f64;
        assert!(ratio > 10.0, "ratio = {ratio} — RSS should dwarf DCS");
    }

    #[test]
    fn deletions_cancel() {
        let mut rss = new_rss_with(500, 10, 3);
        for x in 0..500u64 {
            rss.insert(x);
            rss.insert(x);
        }
        for x in 0..500u64 {
            rss.delete(x);
        }
        assert_eq!(rss.n(), 500);
    }
}
