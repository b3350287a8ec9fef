//! The Greenwald–Khanna family of deterministic quantile summaries
//! (§2.1 of the paper).
//!
//! All three variants maintain the same logical object: a sorted list
//! of tuples `(v_i, g_i, Δ_i)` where the `v_i` are stream elements and
//!
//! 1. `Σ_{j≤i} g_j ≤ r(v_i) + 1 ≤ Σ_{j≤i} g_j + Δ_i` — each tuple
//!    brackets the true rank of its element, and
//! 2. `g_i + Δ_i ≤ ⌊2εn⌋` — no rank gap is wide enough to break the
//!    ε guarantee.
//!
//! They differ in *how tuples are removed* to keep the list short:
//!
//! * [`GkTheory`] — the original analyzed algorithm: periodic
//!   COMPRESS sweep over band "subtrees", O((1/ε)·log(εn)) space.
//! * [`GkAdaptive`] — the variant the GK authors actually implemented:
//!   after each insertion remove one removable tuple if any exists,
//!   located with a min-heap (§2.1.1).
//! * [`GkArray`] — the journal version's new variant: buffer incoming
//!   elements and fold them into a flat tuple array with a sort+merge
//!   pass (§2.1.2); algorithmically identical pruning rule, far more
//!   cache-friendly.

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "indices and narrowing casts stay within the bounds `check_invariants` audits"
)]

mod adaptive;
mod array;
mod theory;

pub use adaptive::GkAdaptive;
pub use array::GkArray;
pub use theory::GkTheory;

/// One GK tuple: an element `v` with rank-bracketing bookkeeping.
///
/// `g` is the gap from the previous tuple's minimum rank
/// (`rmin_i = Σ_{j≤i} g_j`), and `delta` the extra slack
/// (`rmax_i = rmin_i + Δ_i`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tuple<T> {
    /// The element from the stream.
    pub v: T,
    /// Rank-gap to the previous tuple.
    pub g: u64,
    /// Rank slack: `rmax − rmin` for this element.
    pub delta: u64,
}

/// `⌊2εn⌋`, the capacity threshold of invariant (2).
#[inline]
pub(crate) fn threshold(eps: f64, n: u64) -> u64 {
    (2.0 * eps * n as f64).floor() as u64
}

/// Answers a φ-sweep over a sorted tuple list (shared by all variants;
/// `eps` is the summary's error parameter): one answer per φ, in the
/// order given, each `None` while the list is empty.
///
/// GK's extraction guarantee (§2.1): for the 1-indexed target rank
/// `r = ⌊φn⌋ + 1`, invariant (2) ensures some tuple satisfies both
/// `rmin_i ≥ r − εn` and `rmax_i ≤ r + εn`, and any such tuple's
/// element has true rank within `εn` of the target (by invariant (1)).
/// Among the tuples satisfying the two-sided condition we return the
/// one whose bracket midpoint is closest to `r`, which makes answers
/// exact on an uncompressed list.
///
/// The `rmin` prefix is summed once for the whole sweep; each φ then
/// binary-searches it for the window `rmin ∈ [r − εn, r + εn]` (from one
/// tuple before it), which holds every two-sided-valid tuple. Should
/// rounding leave no tuple valid, the closest midpoint inside the
/// window answers.
pub(crate) fn query_quantiles<T: Ord + Copy>(
    tuples: &[Tuple<T>],
    n: u64,
    eps: f64,
    phis: &[f64],
) -> Vec<Option<T>> {
    phis.iter().for_each(|&phi| crate::traits::check_phi(phi));
    if tuples.is_empty() || n == 0 {
        return vec![None; phis.len()];
    }
    let rmins: Vec<u64> = tuples
        .iter()
        .scan(0u64, |rmin, t| {
            *rmin += t.g;
            Some(*rmin)
        })
        .collect();
    let margin = eps * n as f64;
    phis.iter()
        .map(|&phi| {
            let target = (phi * n as f64).floor() + 1.0;
            let lo_rank = (target - margin).max(0.0) as u64;
            let hi_rank = (target + margin) as u64;
            let start = rmins.partition_point(|&r| r < lo_rank).saturating_sub(1);
            let mut best_valid: Option<(f64, T)> = None;
            let mut best_any: Option<(f64, T)> = None;
            for (&rmin, t) in rmins[start..].iter().zip(&tuples[start..]) {
                #[cfg(test)]
                crate::counts::tick(crate::counts::Work::Probe);
                let rmax = rmin + t.delta;
                let dist = (rmin as f64 + t.delta as f64 / 2.0 - target).abs();
                if rmin as f64 >= target - margin && rmax as f64 <= target + margin {
                    match best_valid {
                        Some((d, _)) if d <= dist => {}
                        _ => best_valid = Some((dist, t.v)),
                    }
                }
                match best_any {
                    Some((d, _)) if d <= dist => {}
                    _ => best_any = Some((dist, t.v)),
                }
                if rmin > hi_rank {
                    break; // every later bracket is farther and invalid
                }
            }
            best_valid.or(best_any).map(|(_, v)| v)
        })
        .collect()
}

/// Estimated rank of `x` over a sorted tuple list: the midpoint of the
/// rank bracket of the largest tuple element ≤ `x`.
pub(crate) fn query_rank<T: Ord + Copy>(tuples: &[Tuple<T>], x: T) -> u64 {
    let mut rmin = 0u64;
    let mut best = 0u64;
    for t in tuples {
        if t.v > x {
            break;
        }
        rmin += t.g;
        best = rmin + t.delta / 2;
    }
    best.saturating_sub(1)
}

/// Debug/test helper: verifies invariant (2) (`g+Δ ≤ ⌊2εn⌋`) for every
/// tuple except the first (whose `g+Δ` the algorithms pin to exact),
/// and that elements are sorted. Returns a description of the first
/// violation.
pub fn check_invariants<T: Ord + Copy + std::fmt::Debug>(
    tuples: &[Tuple<T>],
    eps: f64,
    n: u64,
) -> Result<(), String> {
    let cap = threshold(eps, n).max(1);
    let mut total_g = 0u64;
    for (i, t) in tuples.iter().enumerate() {
        if i > 0 {
            if t.v < tuples[i - 1].v {
                return Err(format!(
                    "tuples out of order at {i}: {:?} < {:?}",
                    t.v,
                    tuples[i - 1].v
                ));
            }
            if t.g + t.delta > cap {
                return Err(format!(
                    "capacity violated at {i}: g+Δ = {} > ⌊2εn⌋ = {cap}",
                    t.g + t.delta
                ));
            }
        }
        total_g += t.g;
    }
    if total_g != n && !tuples.is_empty() {
        return Err(format!("Σg = {total_g} ≠ n = {n}"));
    }
    Ok(())
}

/// Structured-audit form of [`check_invariants`], shared by the three
/// GK variants' [`sqs_util::audit::CheckInvariants`] impls and by the
/// biased (CKMS) summary. `n` is the *folded* element count — total
/// insertions minus any still-buffered elements.
pub(crate) fn audit_tuples<T: Ord>(
    tuples: &[Tuple<T>],
    eps: f64,
    n: u64,
    algorithm: &'static str,
) -> Result<(), sqs_util::audit::InvariantViolation> {
    use sqs_util::audit::ensure;
    let cap = threshold(eps, n).max(1);
    let mut total_g = 0u64;
    for (i, t) in tuples.iter().enumerate() {
        if i > 0 {
            ensure(tuples[i - 1].v <= t.v, algorithm, "gk.sorted", || {
                format!("tuple {i} is smaller than its predecessor")
            })?;
            ensure(t.g + t.delta <= cap, algorithm, "gk.g_delta_bound", || {
                format!(
                    "tuple {i}: g+Δ = {} > ⌊2εn⌋ = {cap} (n = {n})",
                    t.g + t.delta
                )
            })?;
        }
        total_g += t.g;
    }
    ensure(
        tuples.is_empty() || total_g == n,
        algorithm,
        "gk.g_sum",
        || format!("Σg = {total_g} ≠ folded element count {n}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Vec<Tuple<u64>> {
        // elements 10,20,30,40 with exact ranks (g=1 each, Δ=0)
        vec![
            Tuple {
                v: 10,
                g: 1,
                delta: 0,
            },
            Tuple {
                v: 20,
                g: 1,
                delta: 0,
            },
            Tuple {
                v: 30,
                g: 1,
                delta: 0,
            },
            Tuple {
                v: 40,
                g: 1,
                delta: 0,
            },
        ]
    }

    #[test]
    fn exact_list_answers_exactly() {
        // Exact convention: the φ-quantile is the element of rank ⌊φn⌋:
        // ⌊1.04⌋ = rank 1, then ranks 2, 3 and 0.
        let t = toy();
        assert_eq!(
            query_quantiles(&t, 4, 0.25, &[0.26, 0.5, 0.76, 0.01]),
            [Some(20), Some(30), Some(40), Some(10)]
        );
    }

    #[test]
    fn empty_list_returns_none() {
        assert_eq!(
            query_quantiles::<u64>(&[], 0, 0.1, &[0.5, 0.2]),
            [None, None]
        );
    }

    #[test]
    #[should_panic(expected = "open interval")]
    fn empty_list_still_checks_phi() {
        query_quantiles::<u64>(&[], 0, 0.1, &[0.5, 1.0]);
    }

    /// The per-φ scan over the whole list that the windowed sweep
    /// replaced.
    fn full_scan(tuples: &[Tuple<u64>], n: u64, eps: f64, phi: f64) -> Option<u64> {
        let target = (phi * n as f64).floor() + 1.0;
        let margin = eps * n as f64;
        let mut rmin = 0u64;
        let mut best: Option<(f64, u64)> = None;
        for t in tuples {
            rmin += t.g;
            let dist = (rmin as f64 + t.delta as f64 / 2.0 - target).abs();
            let valid =
                rmin as f64 >= target - margin && (rmin + t.delta) as f64 <= target + margin;
            if valid && best.is_none_or(|(d, _)| dist < d) {
                best = Some((dist, t.v));
            }
        }
        best.map(|(_, v)| v)
    }

    #[test]
    fn rank_query_midpoints() {
        let t = toy();
        assert_eq!(query_rank(&t, 5), 0);
        assert_eq!(query_rank(&t, 10), 0);
        assert_eq!(query_rank(&t, 25), 1);
        assert_eq!(query_rank(&t, 100), 3);
    }

    #[test]
    fn invariant_checker_catches_violations() {
        let mut t = toy();
        assert!(check_invariants(&t, 0.5, 4).is_ok());
        t[2].delta = 100;
        assert!(check_invariants(&t, 0.5, 4).is_err());
        let unsorted = vec![
            Tuple {
                v: 5u64,
                g: 1,
                delta: 0,
            },
            Tuple {
                v: 3,
                g: 1,
                delta: 0,
            },
        ];
        assert!(check_invariants(&unsorted, 0.5, 2).is_err());
    }

    #[test]
    fn the_window_holds_every_valid_tuple() {
        // Whenever a two-sided-valid tuple exists, the sweep's window
        // answers what a scan of the whole list would — over lists of
        // each variant, φ dense near 0 and 1 and in between.
        use crate::QuantileSummary;
        let mut rng = sqs_util::rng::Xoshiro256pp::new(123);
        let mut phis = sqs_util::exact::probe_phis(0.001);
        phis.extend([1e-9, 1e-6, 1.0 - 1e-6, 1.0 - 1e-9]);
        for (eps, universe) in [(0.02, 1 << 20), (0.005, 1 << 40), (0.01, 37)] {
            let rows: Vec<u64> = (0..20_000).map(|_| rng.next_below(universe)).collect();
            let mut array = crate::gk::GkArray::new(eps);
            let mut theory = crate::gk::GkTheory::new(eps);
            let mut adaptive = crate::gk::GkAdaptive::new(eps);
            for &x in &rows {
                array.insert(x);
                theory.insert(x);
                adaptive.insert(x);
            }
            let lists = [
                array.tuples().to_vec(),
                theory.tuples().to_vec(),
                adaptive.tuples(),
            ];
            for tuples in &lists {
                let sweep = query_quantiles(tuples, 20_000, eps, &phis);
                for (&phi, got) in phis.iter().zip(sweep) {
                    let want = full_scan(tuples, 20_000, eps, phi);
                    assert!(want.is_some(), "eps {eps} phi {phi}: no valid tuple");
                    assert_eq!(got, want, "eps {eps} phi {phi}");
                }
            }
        }
    }

    #[test]
    fn threshold_matches_formula() {
        assert_eq!(threshold(0.1, 100), 20);
        assert_eq!(threshold(0.01, 49), 0);
        assert_eq!(threshold(0.5, 3), 3);
    }
}
