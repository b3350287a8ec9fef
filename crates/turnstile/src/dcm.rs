//! `DCM` — Dyadic Count-Min (§1.2.2, [7]): the dyadic structure over
//! Count-Min sketches, the pre-DCS state of the art in the turnstile
//! model with space `O((1/ε)·log²u·log(log u/ε))`.

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
// ^ audited: indices and casts here are bounded by structural
// invariants (see `check_invariants` impls and docs/ANALYSIS.md);
// this module is on the `cargo xtask check` allowlist.

use crate::dyadic::DyadicQuantiles;
use sqs_sketch::CountMin;
use sqs_util::rng::{SplitMix64, Xoshiro256pp};

/// The Dyadic Count-Min turnstile quantile summary.
pub type Dcm = DyadicQuantiles<CountMin>;

/// Builds a DCM for error target ε over the universe `[0, 2^log_u)`,
/// with the paper's tuned parameters (§4.3.1): per-level width
/// `w = (1/ε)·log₂u` and depth `d = 7`.
pub fn new_dcm(eps: f64, log_u: u32, seed: u64) -> Dcm {
    new_dcm_with(eps, log_u, 7, seed)
}

/// [`new_dcm`] with an explicit depth `d` (used by the Table 3/4
/// tuning experiments). The ε target also sets the default dyadic
/// level cutoff ([`crate::default_level_cutoff`]): levels far below
/// the ε resolution keep no counters, shortening every update and
/// query walk while staying inside the error budget.
pub fn new_dcm_with(eps: f64, log_u: u32, depth: usize, seed: u64) -> Dcm {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
    let width = ((1.0 / eps) * log_u as f64).ceil().max(8.0) as usize;
    build(
        width,
        depth,
        log_u,
        crate::default_level_cutoff(eps, log_u),
        seed,
    )
}

/// Builds a DCM with an explicit per-level `width × depth` geometry
/// and no level cutoff (used when sweeping total sketch size, Tables
/// 3–4).
pub fn from_width_depth(width: usize, depth: usize, log_u: u32, seed: u64) -> Dcm {
    build(width, depth, log_u, 0, seed)
}

fn build(width: usize, depth: usize, log_u: u32, cutoff: u32, seed: u64) -> Dcm {
    let mut seeds = SplitMix64::new(seed);
    DyadicQuantiles::new(
        log_u,
        cutoff,
        (width * depth) as u64,
        move |cells, _| {
            let mut rng = Xoshiro256pp::new(seeds.next_u64());
            CountMin::for_universe(cells, width, depth, &mut rng)
        },
        "DCM",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TurnstileQuantiles;
    use sqs_util::exact::{observed_errors, probe_phis, ExactQuantiles};
    use sqs_util::rng::Xoshiro256pp;
    use sqs_util::SpaceUsage;

    #[test]
    fn errors_within_eps_uniform() {
        let eps = 0.02;
        let mut dcm = new_dcm(eps, 20, 1);
        let mut rng = Xoshiro256pp::new(2);
        let data: Vec<u64> = (0..50_000).map(|_| rng.next_below(1 << 20)).collect();
        for &x in &data {
            dcm.insert(x);
        }
        let oracle = ExactQuantiles::new(data);
        let answers: Vec<(f64, u64)> = probe_phis(eps)
            .into_iter()
            .map(|p| (p, dcm.quantile(p).unwrap()))
            .collect();
        let (max_err, avg_err) = observed_errors(&oracle, &answers);
        assert!(max_err <= eps, "max {max_err} > {eps}");
        assert!(avg_err <= eps / 2.0, "avg {avg_err}");
    }

    #[test]
    fn survives_heavy_deletion() {
        // Insert n, delete all but a narrow band; quantiles must track
        // the survivors (§1.2.2's motivating scenario).
        let eps = 0.05;
        let mut dcm = new_dcm(eps, 16, 3);
        for x in 0..60_000u64 {
            dcm.insert(x % 65_536);
        }
        for x in 0..60_000u64 {
            let v = x % 65_536;
            if !(10_000..11_000).contains(&v) {
                dcm.delete(v);
            }
        }
        let survivors: Vec<u64> = (0..60_000u64)
            .map(|x| x % 65_536)
            .filter(|v| (10_000..11_000).contains(v))
            .collect();
        let oracle = ExactQuantiles::new(survivors);
        for phi in [0.25, 0.5, 0.75] {
            let q = dcm.quantile(phi).unwrap();
            let err = oracle.quantile_error(phi, q);
            assert!(err <= eps, "phi={phi}, err={err}, q={q}");
        }
    }

    #[test]
    fn space_grows_with_precision() {
        let coarse = new_dcm(0.05, 16, 1);
        let fine = new_dcm(0.005, 16, 1);
        assert!(fine.space_bytes() > coarse.space_bytes());
    }
}
