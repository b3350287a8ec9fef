//! `DGM` — the dyadic structure over the deterministic CR-precis
//! sketch: Ganguly & Majumder's deterministic turnstile quantile
//! algorithm (§1.2.2), with its `O((1/ε²)·poly(log u))` space. The
//! study dismisses it as impractical without measuring; `new_dgm`
//! makes the footprint comparison one function call.

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
// ^ audited: indices and casts here are bounded by structural
// invariants (see `check_invariants` impls and docs/ANALYSIS.md);
// this module is on the `cargo xtask check` allowlist.

use crate::dyadic::DyadicQuantiles;
use sqs_sketch::CrPrecis;

/// The dyadic CR-precis turnstile quantile summary (deterministic).
pub type Dgm = DyadicQuantiles<CrPrecis>;

/// Practical cap on per-level rows so coarse experiments stay in
/// memory; the quadratic blow-up is visible long before it binds.
const MAX_T: usize = 1 << 14;

/// Builds the deterministic dyadic quantile structure for error target
/// ε over `[0, 2^log_u)`, so every factor in the paper's scary bound
/// shows up honestly.
///
/// **The bound.** A CR-precis cell overshoots by at most `ε'·n`, `ε'`
/// the per-level budget, and exact cells not at all. A rank sums at
/// most three stored cells per (stored, derived) level pair — a
/// derived cell is two stored ones — and one for a lone stored level
/// under the exact run: at most `1.5·log u` sketched cells. With
/// `ε' = 2ε/(3·log u)` the rank is therefore off by at most `εn`,
/// deterministically (while the row cap `MAX_T` and the `10⁻⁶` floor
/// on `ε'` do not bind).
pub fn new_dgm(eps: f64, log_u: u32) -> Dgm {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
    let per_level_eps = (2.0 * eps / (3.0 * log_u as f64)).max(1e-6);
    DyadicQuantiles::new(
        log_u,
        0,
        // Exact-level rule: match the sketch's own counter budget.
        {
            let probe = CrPrecis::for_eps(1u64 << log_u, per_level_eps);
            (sqs_util::SpaceUsage::space_bytes(&probe) / 4) as u64
        },
        move |cells, _| {
            let mut s = CrPrecis::for_eps(cells, per_level_eps);
            // Cap rows for tractability (documented).
            if s.rows() > MAX_T {
                s = CrPrecis::new(cells, MAX_T, (cells as f64).log2().ceil() as u64 + 2);
            }
            s
        },
        "DGM",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TurnstileQuantiles;
    use sqs_util::exact::ExactQuantiles;
    use sqs_util::SpaceUsage;

    #[test]
    fn deterministic_quantiles_under_deletion() {
        let eps = 0.1;
        let mut s = new_dgm(eps, 10);
        for x in 0..2_000u64 {
            s.insert(x % 1024);
        }
        for x in 0..500u64 {
            s.delete(x % 1024);
        }
        let live: Vec<u64> = (500..2_000u64).map(|x| x % 1024).collect();
        let oracle = ExactQuantiles::new(live);
        for phi in [0.25, 0.5, 0.75] {
            let q = s.quantile(phi).unwrap();
            let err = oracle.quantile_error(phi, q);
            assert!(err <= eps, "phi={phi}, err={err}");
        }
    }

    #[test]
    fn two_runs_agree_exactly() {
        // No randomness anywhere: identical streams → identical answers.
        let mut a = new_dgm(0.1, 12);
        let mut b = new_dgm(0.1, 12);
        for x in 0..5_000u64 {
            a.insert((x * 37) % 4096);
            b.insert((x * 37) % 4096);
        }
        for phi in [0.1, 0.5, 0.9] {
            assert_eq!(a.quantile(phi), b.quantile(phi));
        }
    }

    #[test]
    fn impractically_larger_than_dcs() {
        // The §1.2.2 dismissal, quantified.
        let eps = 0.05;
        let dgm = new_dgm(eps, 16);
        let dcs = crate::new_dcs(eps, 16, 1);
        let ratio = dgm.space_bytes() as f64 / dcs.space_bytes() as f64;
        assert!(ratio > 20.0, "DGM/DCS space ratio = {ratio}");
    }
}
