//! Substrate utilities for the `streaming-quantiles` workspace.
//!
//! This crate provides everything the quantile algorithms of
//! *“Quantiles over Data Streams: An Experimental Study”* depend on but
//! which is not itself a quantile summary:
//!
//! * [`rng`] — small, fast, seedable PRNGs ([`rng::SplitMix64`],
//!   [`rng::Xoshiro256pp`]) so that every randomized algorithm and every
//!   experiment in the study is exactly reproducible from a seed.
//! * [`hash`] — the pairwise- and 4-wise-independent hash families the
//!   turnstile sketches are built on (§3.1 of the paper).
//! * [`ordkey`] — the order-preserving mapping from IEEE-754 floats to
//!   integers in a fixed universe (footnote 1 of the paper).
//! * [`dyadic`] — dyadic-interval arithmetic over a power-of-two
//!   universe: the decomposition of a prefix `[0, x)` into at most
//!   `log u` dyadic intervals that every turnstile algorithm uses (§3).
//! * [`exact`] — exact (sort-based) rank and quantile computation, with
//!   the duplicate-aware *rank interval* rule the paper's error metric
//!   uses (§4.1.2).
//! * [`space`] — the paper's space-accounting convention (4 bytes per
//!   stored element / counter / pointer; §4.1.2).
//! * [`audit`] — the [`audit::CheckInvariants`] trait every summary
//!   implements so its §2/§3 structural invariants are
//!   machine-checkable (see `docs/ANALYSIS.md`).
//! * [`clock`] — the injectable monotonic [`clock::Clock`] the
//!   windowed-quantile layer reads instead of wall time, with the
//!   hand-cranked [`clock::ManualClock`] that makes bucket-rotation
//!   tests deterministic.
//! * [`pad`] — [`pad::CachePadded`], the cache-line-alignment wrapper
//!   the engine uses to keep per-shard hot state (and hot counters)
//!   out of each other's cache lines.
//! * [`sync`] — [`sync::OrderedMutex`], the rank-badged mutex whose
//!   debug builds panic on out-of-order (or re-entrant) acquisition;
//!   it checks the shard-lock order the static lock discipline of
//!   `sqs-analyze` leaves to runtime.
//! * [`tmpdir`] — [`tmpdir::TempDir`], self-cleaning unique temp
//!   directories for tests that write on-disk state (the offline
//!   stand-in for the `tempfile` crate).

#![warn(missing_docs)]

pub mod audit;
pub mod clock;
pub mod dyadic;
pub mod exact;
pub mod hash;
pub mod ordkey;
pub mod pad;
pub mod rng;
pub mod space;
pub mod sync;
pub mod tmpdir;

pub use audit::{CheckInvariants, InvariantViolation};
pub use space::SpaceUsage;
