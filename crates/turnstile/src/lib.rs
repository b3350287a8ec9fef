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
//!   quantile = a descent of the dyadic tree, one cell per depth (§3).
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
//!
//! Every structure here is a [`sqs_core::QuantileSummary<u64>`] — the
//! interface the cash-register summaries, the engine, the service, the
//! window ring and the experiment runner all speak — and adds only
//! [`TurnstileQuantiles::delete`]. The dyadic structures are also
//! [`sqs_core::MergeableSummary`]s: sharding a *linear* sketch is
//! exact, so shards built from one seed merge by adding counters into
//! the state one structure fed the concatenated stream would hold. DCS
//! has a wire form ([`sqs_core::codec::WireCodec`], kind 6).

#![warn(missing_docs)]

pub mod dcm;
pub mod dcs;
pub mod dgm;
pub mod dyadic;
pub mod exact;
pub mod post;
pub mod rss;

pub use dcm::Dcm;
pub use dcs::Dcs;
pub use dgm::{new_dgm, Dgm};
pub use dyadic::{default_level_cutoff, DyadicQuantiles};
pub use exact::ExactTurnstile;
pub use post::{FrontierMode, PostProcessed, VarianceMode};
pub use rss::{new_rss, Rss};

/// The dyadic structures under the name the service and the benchmark
/// build them by: `TurnstileSummary::dcs(…)` is [`Dcs::dcs`].
pub type TurnstileSummary<S> = DyadicQuantiles<S>;

/// A turnstile quantile summary: a [`QuantileSummary`] whose elements
/// can also be deleted. Ranks, quantiles and `n` describe the *live*
/// multiset (insertions − deletions).
///
/// [`QuantileSummary`]: sqs_core::QuantileSummary
pub trait TurnstileQuantiles: sqs_core::QuantileSummary<u64> {
    /// Deletes one copy of `x` (which must currently exist — the
    /// turnstile model's strictness condition; not checkable by the
    /// sketch, so not checked).
    fn delete(&mut self, x: u64);
}

#[cfg(test)]
mod counts;
