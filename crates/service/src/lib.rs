//! `sqs-service`: a multi-tenant TCP quantile service over
//! [`sqs_engine`].
//!
//! The crate turns the in-process sharded quantile engine into a
//! network service, std-only (no async runtime, no serde):
//!
//! * [`proto`] — the framed little-endian wire protocol: one versioned
//!   header (`SQSW` v3), the workspace's one frame checksum
//!   ([`sqs_core::codec::Checksum`], docs/SERVICE.md §1.1) as the one
//!   trailer per hop, a hard payload cap, and panic-free
//!   decoding of untrusted bytes.
//! * [`server`] — `TcpListener` accept loop feeding a bounded
//!   connection queue drained by a fixed worker pool; one registry of
//!   per-tenant records ([`sqs_engine::ShardedEngine`], window ring,
//!   store gate); explicit `BUSY` shedding
//!   under overload; graceful shutdown with nothing acknowledged lost;
//!   optional durability via [`sqs_store`] (write-ahead log + periodic
//!   checkpoints, crash recovery at startup) when
//!   [`server::DurabilityConfig`] is set.
//! * [`client`] — a small blocking client with typed methods per op.
//! * [`metrics`] — lock-free counters and log₂-bucketed per-op latency
//!   histograms behind the `STATS` op.
//!
//! With [`server::WindowOptions`] set (`sqs-serve
//! --window-bucket-secs`), the `WINDOW_INSERT` / `WINDOW_QUERY` /
//! `WINDOW_STATS` ops expose [`sqs_window`]'s time-windowed quantiles
//! per tenant: timestamped ingest, sliding/tumbling φ-sweeps, and ring
//! counters, as plain payloads of the `SQSW` frame like every other op.
//!
//! Summaries travel between servers via the [`sqs_core::codec`]
//! frames: `SNAPSHOT` on one server, `MERGE_SNAPSHOT` on another, and
//! mergeability (Agarwal et al., PODS '12) guarantees the combined
//! summary keeps its ε-rank error.

pub mod client;
pub mod metrics;
pub mod proto;
pub mod server;

pub use client::{Client, ClientError};
pub use metrics::{EngineTotals, LatencyHistogram, Metrics, WindowTotals};
pub use proto::{IngestAck, Op, ProtoError, Request, Response, Status};
pub use server::{
    spawn, DurabilityConfig, RecoverySummary, ServerConfig, ServerHandle, WindowOptions,
};
