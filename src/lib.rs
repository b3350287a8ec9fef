//! # streaming-quantiles
//!
//! A complete Rust implementation of the algorithm suite from
//! *“Quantiles over Data Streams: An Experimental Study”* (Wang, Luo,
//! Yi, Cormode; SIGMOD 2013 / The VLDB Journal 2016): every
//! cash-register and turnstile quantile summary the study evaluates,
//! the substrates they depend on, the workload generators, and the
//! measurement harness that regenerates every table and figure of the
//! evaluation section.
//!
//! ## Quick start
//!
//! ```
//! use streaming_quantiles::prelude::*;
//!
//! // Deterministic ε-approximate quantiles over a stream:
//! let mut summary = GkArray::new(0.01);
//! for x in (0..100_000u64).rev() {
//!     summary.insert(x);
//! }
//! let median = summary.quantile(0.5).unwrap();
//! assert!((49_000..=51_000).contains(&median));
//!
//! // Turnstile (insert + delete) quantiles over a fixed universe:
//! let mut sketch = new_dcs(0.01, 20, 42);
//! for x in 0..100_000u64 {
//!     sketch.insert(x % (1 << 20));
//! }
//! for x in 0..50_000u64 {
//!     sketch.delete(x % (1 << 20));
//! }
//! let q = sketch.quantile(0.5).unwrap();
//! assert!(sketch.live() == 50_000);
//! # let _ = q;
//! ```
//!
//! ## Picking an algorithm (the study's conclusions)
//!
//! * Insert-only stream, hard error guarantee → [`GkArray`]
//!   (deterministic, fast, small).
//! * Insert-only stream, hard **space** budget → [`RandomSketch`]
//!   (fixed preallocated footprint, randomized guarantee).
//! * Summaries that must be **merged** arbitrarily → [`QDigest`]
//!   (the only deterministic mergeable option).
//! * Inserts **and deletes** → [`new_dcs`] (Dyadic Count-Sketch), and
//!   run [`PostProcessed`] over it before querying for a further
//!   60–80% error reduction.
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`sqs_util`] | PRNGs, k-wise hash families, order-preserving keys, dyadic intervals, exact baselines, space accounting |
//! | [`sqs_core`] | GK (theory/adaptive/array), Random, MRL99, MRL98, q-digest, reservoir baseline |
//! | [`sqs_sketch`] | Count-Min, Count-Sketch, random subset sum, exact counter levels |
//! | [`sqs_turnstile`] | the dyadic structure, DCM, DCS, RSS, OLS post-processing |
//! | [`sqs_data`] | uniform/normal generators, MPCAT-OBS & LIDAR surrogates, turnstile workloads |
//! | [`sqs_engine`] | sharded concurrent ingestion engine with merge-on-query snapshots |
//! | [`sqs_window`] | time-windowed quantiles: ring of per-bucket partials, sliding/tumbling queries, rollups |
//! | [`sqs_service`] | multi-tenant TCP quantile service: wire codec, backpressure, metrics |
//! | [`sqs_harness`] | the §4 measurement harness and the `sqs-exp` experiment runner |
//!
//! ## Concurrent ingestion
//!
//! The study's summaries are single-threaded; [`ShardedEngine`] runs
//! N of them as shards, folds each incoming batch into one shard
//! (`ingest_batch`), and folds the shards on query via the
//! mergeable-summary property ([`MergeableSummary`]) — same ε
//! guarantee, multi-writer throughput. See `docs/ENGINE.md`.
//!
//! ## Serving over the network
//!
//! [`sqs_service`] puts the engine behind a TCP front end: a versioned,
//! checksummed wire codec ([`sqs_core::codec::WireCodec`]) carries
//! summary snapshots between servers, and mergeability makes the
//! remote `SNAPSHOT` → `MERGE_SNAPSHOT` round-trip exact. See
//! `docs/SERVICE.md`.
//!
//! ## Windowed quantiles
//!
//! [`sqs_window`] answers "p99 over the last five minutes" on top of
//! any [`MergeableSummary`]: a ring of per-bucket partial summaries,
//! sliding/tumbling queries merged on demand, pre-aggregated rollups
//! for long spans, and an explicit late-arrival policy. The service
//! exposes it per tenant via the `WINDOW_*` ops
//! (`sqs-serve --window-bucket-secs`). See `docs/WINDOW.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use sqs_core;
pub use sqs_data;
pub use sqs_engine;
pub use sqs_harness;
pub use sqs_service;
pub use sqs_sketch;
pub use sqs_turnstile;
pub use sqs_util;
pub use sqs_window;

/// The common imports for working with this library.
pub mod prelude {
    pub use sqs_core::biased::Ckms;
    pub use sqs_core::gk::{GkAdaptive, GkArray, GkTheory};
    pub use sqs_core::mrl98::Mrl98;
    pub use sqs_core::mrl99::Mrl99;
    pub use sqs_core::qdigest::QDigest;
    pub use sqs_core::random::RandomSketch;
    pub use sqs_core::sampled::ReservoirQuantiles;
    pub use sqs_core::{MergeableSummary, QuantileSummary};
    pub use sqs_engine::{EngineStats, ShardedEngine};
    pub use sqs_turnstile::{
        new_dcm, new_dcs, new_rss, Dcm, Dcs, PostProcessed, Rss, TurnstileQuantiles,
        TurnstileSummary,
    };
    pub use sqs_util::clock::{Clock, ManualClock, SystemClock};
    pub use sqs_util::exact::ExactQuantiles;
    pub use sqs_util::{CheckInvariants, InvariantViolation, SpaceUsage};
    pub use sqs_window::{
        LatePolicy, WindowConfig, WindowKind, WindowRing, WindowSpec, WindowedEngine,
    };
}

pub use prelude::*;
