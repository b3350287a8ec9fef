//! `DCS` — Dyadic Count-Sketch, the paper's new turnstile variant
//! (§3.1).
//!
//! Identical scaffold to DCM, but the per-level estimator is the
//! *unbiased* Count-Sketch: summing `log u` unbiased level estimates
//! lets positive and negative errors cancel, growing the total error
//! only ∝ `√(log u)` instead of `log u` — the
//! `O((1/ε)·log^1.5 u·log^1.5(log u/ε))` bound of §3.1, the best known
//! for the problem. The paper's tuning (§4.3.1) sets the per-level
//! width to `w = √(log₂u)/ε` and depth `d = 7`, which is about 1/10th
//! of DCM's space at equal error (Figure 10c). This reproduction keeps
//! a sketch at every other sketched level only (the 4-adic layout of
//! [`crate::dyadic`]), so a derived cell sums two sketched ones; the
//! width becomes `w = √(2·log₂u)/ε` to cover the worst case, a derived
//! term with twice one cell's variance (DESIGN.md §3).

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
// ^ audited: indices and casts here are bounded by structural
// invariants (see `check_invariants` impls and docs/ANALYSIS.md);
// this module is on the `cargo xtask check` allowlist.

use crate::dyadic::DyadicQuantiles;
use sqs_sketch::CountSketch;
use sqs_util::rng::{SplitMix64, Xoshiro256pp};

/// The Dyadic Count-Sketch turnstile quantile summary.
pub type Dcs = DyadicQuantiles<CountSketch>;

/// Builds a DCS for error target ε over the universe `[0, 2^log_u)`:
/// `w = √(2·log₂u)/ε` (the paper's `√(log₂u)/ε`, widened for derived
/// levels), `d = 7`.
pub fn new_dcs(eps: f64, log_u: u32, seed: u64) -> Dcs {
    new_dcs_with(eps, log_u, 7, seed)
}

/// [`new_dcs`] with an explicit depth `d` (Table 3/4 tuning). The ε
/// target also sets the default dyadic level cutoff
/// ([`crate::default_level_cutoff`]): levels far below the ε
/// resolution keep no counters, shortening every update and query walk
/// while staying inside the error budget.
pub fn new_dcs_with(eps: f64, log_u: u32, depth: usize, seed: u64) -> Dcs {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
    let width = ((2.0 * log_u as f64).sqrt() / eps).ceil().max(8.0) as usize;
    build(
        width,
        depth,
        log_u,
        crate::default_level_cutoff(eps, log_u),
        seed,
    )
}

/// Builds a DCS with an explicit per-level `width × depth` geometry
/// and no level cutoff (total-sketch-size sweeps, Tables 3–4).
pub fn from_width_depth(width: usize, depth: usize, log_u: u32, seed: u64) -> Dcs {
    build(width, depth, log_u, 0, seed)
}

fn build(width: usize, depth: usize, log_u: u32, cutoff: u32, seed: u64) -> Dcs {
    let mut seeds = SplitMix64::new(seed);
    DyadicQuantiles::new(
        log_u,
        cutoff,
        (width * depth) as u64,
        move |cells, _| {
            let mut rng = Xoshiro256pp::new(seeds.next_u64());
            CountSketch::for_universe(cells, width, depth, &mut rng)
        },
        "DCS",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TurnstileQuantiles;
    use sqs_util::exact::{observed_errors, probe_phis, ExactQuantiles};
    use sqs_util::rng::Xoshiro256pp;
    use sqs_util::SpaceUsage;

    fn max_avg_err(eps: f64, log_u: u32, data: &[u64], seed: u64) -> (f64, f64) {
        let mut dcs = new_dcs(eps, log_u, seed);
        for &x in data {
            dcs.insert(x);
        }
        let oracle = ExactQuantiles::new(data.to_vec());
        let answers: Vec<(f64, u64)> = probe_phis(eps)
            .into_iter()
            .map(|p| (p, dcs.quantile(p).unwrap()))
            .collect();
        observed_errors(&oracle, &answers)
    }

    #[test]
    fn errors_within_eps_uniform() {
        let mut rng = Xoshiro256pp::new(10);
        let data: Vec<u64> = (0..50_000).map(|_| rng.next_below(1 << 20)).collect();
        let (max_err, _) = max_avg_err(0.02, 20, &data, 1);
        assert!(max_err <= 0.02, "max {max_err}");
    }

    #[test]
    fn errors_within_eps_skewed() {
        let mut rng = Xoshiro256pp::new(11);
        // Normal-ish pile in a narrow band.
        let data: Vec<u64> = (0..50_000)
            .map(|_| 500_000 + rng.next_below(2_000) + rng.next_below(2_000))
            .collect();
        let (max_err, _) = max_avg_err(0.02, 20, &data, 2);
        assert!(max_err <= 0.02, "max {max_err}");
    }

    #[test]
    fn uses_less_space_than_dcm_at_equal_eps() {
        let eps = 0.01;
        let dcs = new_dcs(eps, 32, 1);
        let dcm = crate::new_dcm(eps, 32, 1);
        let ratio = dcm.space_bytes() as f64 / dcs.space_bytes() as f64;
        // Paper: DCS needs about 1/10 of DCM's space at equal error; at
        // equal ε parameter the width ratio is log u/√log u = √log u.
        assert!(ratio > 3.0, "ratio = {ratio}");
    }

    #[test]
    fn delete_everything_returns_none() {
        let mut dcs = new_dcs(0.05, 16, 3);
        for x in 0..1000u64 {
            dcs.insert(x);
        }
        for x in 0..1000u64 {
            dcs.delete(x);
        }
        assert_eq!(dcs.live(), 0);
        assert_eq!(dcs.quantile(0.5), None);
    }

    #[test]
    fn insert_then_delete_prefix_adversary() {
        // The adversarial pattern of §1.2.2: insert n, delete all but
        // one; the survivor must be found.
        let mut dcs = new_dcs(0.05, 16, 4);
        for x in 0..5_000u64 {
            dcs.insert(x);
        }
        for x in 0..5_000u64 {
            if x != 3_333 {
                dcs.delete(x);
            }
        }
        assert_eq!(dcs.live(), 1);
        let q = dcs.quantile(0.5).unwrap();
        // One survivor in a 2^16 universe: the estimate must land on
        // (or immediately next to) it.
        assert!((3_330..=3_336).contains(&q), "q = {q}");
    }
}
