//! Turnstile quantile algorithms (§3 of the paper).
//!
//! In the turnstile model elements are both inserted and deleted, which
//! rules out every comparison-based summary (§1.2.2's adversarial
//! argument); all known algorithms impose the *dyadic structure* over a
//! fixed universe `[u]` and keep one frequency-estimation sketch per
//! level:
//!
//! * [`dyadic::DyadicQuantiles`] — the generic scaffold: `log u`
//!   levels, exact counters where the reduced universe is small, a
//!   sketch at every other level below them (the level between is the
//!   sum of its children), rank = sum over the prefix decomposition,
//!   quantile = binary search (§3).
//! * [`dcm`] — Dyadic Count-Min (Cormode & Muthukrishnan), the prior
//!   state of the art.
//! * [`dcs`] — Dyadic Count-Sketch, the paper's new variant with the
//!   `O((1/ε)·log^1.5 u · log^1.5(log u/ε))` analysis (§3.1).
//! * [`rss`] — dyadic random-subset-sum (Gilbert et al.), the
//!   `O(1/ε²)` ancestor, included to show why it lost.
//! * [`dgm`] — dyadic CR-precis (Ganguly & Majumder), the
//!   deterministic turnstile option §1.2.2 calls impractical —
//!   included so the impracticality is a measurement, not a rumor.
//! * [`exact`] — the Fenwick-tree exact baseline for small universes
//!   (the point where Figure 11's u = 2^16 curves "halt": exact
//!   counting beats every sketch once u words are affordable).
//! * [`post`] — the journal version's ordinary-least-squares
//!   post-processing (§3.2): reconcile the per-level estimates with
//!   the tree constraints `x_v = x_left + x_right` via the BLUE,
//!   cutting DCS error by 60–80%.

#![warn(missing_docs)]

pub mod dcm;
pub mod dcs;
pub mod dgm;
pub mod dyadic;
pub mod exact;
pub mod post;
pub mod rss;
pub mod summary;

pub use dcm::{new_dcm, Dcm};
pub use dcs::{new_dcs, Dcs};
pub use dgm::{new_dgm, Dgm};
pub use dyadic::{default_level_cutoff, DyadicQuantiles};
pub use exact::ExactTurnstile;
pub use post::{FrontierMode, PostCache, PostProcessed, VarianceMode};
pub use rss::{new_rss, Rss};
pub use summary::TurnstileSummary;

/// A turnstile quantile summary: insertions, deletions, rank and
/// quantile queries over the *live* multiset.
pub trait TurnstileQuantiles: sqs_util::SpaceUsage {
    /// Inserts one copy of `x`.
    fn insert(&mut self, x: u64);

    /// Deletes one copy of `x` (which must currently exist — the
    /// turnstile model's strictness condition; not checkable by the
    /// sketch, so not checked).
    fn delete(&mut self, x: u64);

    /// Inserts one copy of each element. The default is an
    /// [`insert`](Self::insert) loop; `DyadicQuantiles` overrides it
    /// with the row-major batched update path (see `docs/PERF.md`).
    fn insert_batch(&mut self, xs: &[u64]) {
        for &x in xs {
            self.insert(x);
        }
    }

    /// Number of live elements (insertions − deletions), tracked
    /// exactly.
    fn live(&self) -> u64;

    /// Estimated rank of `x`: approximate number of live elements
    /// smaller than `x`.
    fn rank_estimate(&self, x: u64) -> u64;

    /// An approximate φ-quantile of the live elements (`None` when
    /// empty).
    fn quantile(&self, phi: f64) -> Option<u64>;

    /// A φ-sweep: one quantile per entry of `phis`. The default is a
    /// per-φ [`quantile`](Self::quantile) loop; `DyadicQuantiles`
    /// overrides it with the lockstep bisection sweep that answers a
    /// whole sorted sweep in ~log u *batched* rank rounds instead of
    /// re-bisecting from scratch per φ — bit-identical answers either
    /// way (see `docs/PERF.md` §7).
    fn quantiles(&self, phis: &[f64]) -> Vec<Option<u64>> {
        phis.iter().map(|&phi| self.quantile(phi)).collect()
    }

    /// The algorithm's name as used in the paper's figures.
    fn name(&self) -> &'static str;
}
