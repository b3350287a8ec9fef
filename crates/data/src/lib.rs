//! Workload generators for the quantile study (§4.1.1 of the paper).
//!
//! The paper evaluates on 2 real and 12 synthetic data sets. The
//! synthetic families (uniform and normal over power-of-two universes,
//! in random or sorted arrival order) are generated directly; the two
//! real data sets are not redistributable, so each is replaced by a
//! *surrogate* that preserves the characteristics the paper identifies
//! as mattering (see DESIGN.md §1.5 for the substitution record):
//!
//! * [`mpcat`] — MPCAT-OBS: 87.7M minor-planet right ascensions,
//!   integers in `[0, 8_639_999]`, non-uniform value distribution
//!   (Fig. 4), arriving as "chunks of ordered data of various lengths"
//!   (observatories track planets in sessions).
//! * [`lidar`] — Neuse River Basin LIDAR: ~100M terrain elevations;
//!   smooth, spatially correlated, heavily duplicated values.
//!
//! [`turnstile`] generates insert/delete workloads that respect the
//! strict turnstile condition (no multiplicity ever goes negative),
//! including the adversarial insert-then-delete patterns of §1.2.2.
//!
//! All generators are deterministic given their seed and implement
//! `Iterator<Item = u64>` so arbitrarily long streams never need to be
//! materialized.

#![warn(missing_docs)]

pub mod lidar;
pub mod mpcat;
pub mod synthetic;
pub mod turnstile;

pub use lidar::Lidar;
pub use mpcat::Mpcat;
pub use synthetic::{Normal, Order, Uniform};
pub use turnstile::Op;

/// Collects the first `n` elements of a generator into a `Vec`
/// (for the error-measuring experiments, which need the ground truth).
pub fn take_n(gen: impl Iterator<Item = u64>, n: usize) -> Vec<u64> {
    gen.take(n).collect()
}
