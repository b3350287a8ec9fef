//! In-process service metrics: ingest throughput, shed-load counters,
//! and lock-free per-op latency histograms.
//!
//! Latencies land in power-of-two nanosecond buckets (`AtomicU64`
//! each), so the hot path is one `leading_zeros` and one relaxed
//! `fetch_add` — no lock, no allocation, no coordination with the
//! `STATS` reader. Quantiles read from the bucket boundaries, which
//! bounds their relative error by 2× — plenty for p50/p99/p999
//! operational telemetry (exact latencies belong to the load
//! generator, which keeps raw samples).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::proto::Op;

/// Number of power-of-two latency buckets: bucket `i` holds samples
/// with `floor(log2(nanos)) == i`, which spans every representable
/// `u64` nanosecond value.
const BUCKETS: usize = 64;

/// A lock-free log₂-bucketed latency histogram.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Records one sample (relaxed atomics; safe from any thread).
    pub fn record(&self, nanos: u64) {
        // floor(log2(nanos)), with 0 mapped to bucket 0.
        let idx = (63 - (nanos | 1).leading_zeros()) as usize;
        if let Some(b) = self.buckets.get(idx) {
            b.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Total samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The per-mille quantile (e.g. 500 = p50, 999 = p999) as the
    /// upper bound of the bucket holding that rank, in nanoseconds.
    /// Returns 0 while empty.
    #[must_use]
    pub fn quantile_nanos(&self, permille: u64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let target =
            u64::try_from((u128::from(total) * u128::from(permille.clamp(1, 1000))).div_ceil(1000))
                .unwrap_or(u64::MAX)
                .max(1);
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum = cum.saturating_add(b.load(Ordering::Relaxed));
            if cum >= target {
                // Upper bound of bucket i: 2^(i+1) - 1 nanoseconds.
                return u64::try_from((1u128 << (i + 1)) - 1).unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

/// Aggregated ingest-engine counters across every tenant's
/// [`ShardedEngine`](sqs_engine::ShardedEngine) — the engine section
/// of the `STATS` reply. Summed from each engine's
/// [`EngineStats`](sqs_engine::EngineStats) at query time; the server
/// keeps no separate ledger, so these can never drift from the
/// engines' own accounting.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineTotals {
    /// Elements folded into shard summaries across all tenants.
    pub items: u64,
    /// Sum of every tenant engine's epoch (one tick per fold: an
    /// acknowledged `INSERT_BATCH` or `MERGE_SNAPSHOT`).
    pub epoch: u64,
    /// Merged snapshots rebuilt (query-path cache misses).
    pub snapshots: u64,
    /// Query sweeps served from the epoch-keyed snapshot cache.
    pub snapshot_cache_hits: u64,
}

impl EngineTotals {
    /// Folds one engine's stats into the totals. `items` saturates:
    /// each tenant may hold up to `i64::MAX` items, so a few full ones
    /// pass `u64::MAX`.
    pub fn absorb(&mut self, s: &sqs_engine::EngineStats) {
        self.items = self.items.saturating_add(s.items);
        self.epoch += s.epoch;
        self.snapshots += s.snapshots;
        self.snapshot_cache_hits += s.snapshot_cache_hits;
    }
}

/// Aggregated window-ring counters across every tenant's
/// [`WindowedEngine`](sqs_window::WindowedEngine) — the `window`
/// section of the `STATS` reply. Like [`EngineTotals`], summed from
/// the rings' own [`WindowStats`](sqs_window::WindowStats) at query
/// time, so the server keeps no ledger that could drift.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WindowTotals {
    /// Tenants with a materialized window ring.
    pub rings: u64,
    /// Items ever placed in rings (on-time + routed late).
    pub ingested_items: u64,
    /// Buckets currently holding data.
    pub live_buckets: u64,
    /// Items currently inside retained buckets.
    pub live_items: u64,
    /// Items that left with evicted buckets.
    pub evicted_items: u64,
    /// Late values discarded under the drop policy.
    pub late_dropped: u64,
    /// Late values folded into the current bucket under the
    /// route-to-current policy.
    pub late_routed: u64,
    /// Bucket edges crossed by rotation.
    pub buckets_rotated: u64,
    /// Rollup summaries materialized.
    pub rollups_built: u64,
    /// Rollup summaries substituted for fine buckets during queries.
    pub rollup_hits: u64,
    /// Window queries answered.
    pub queries: u64,
    /// Queries that merged no sealed bucket (their spec's cached
    /// sealed merge still covered the same range).
    pub cache_hits: u64,
}

impl WindowTotals {
    /// Folds one ring's stats into the totals.
    pub fn absorb(&mut self, s: &sqs_window::WindowStats) {
        self.rings += 1;
        self.ingested_items += s.ingested_items;
        self.live_buckets += s.live_buckets;
        self.live_items += s.live_items;
        self.evicted_items += s.evicted_items;
        self.late_dropped += s.late_dropped;
        self.late_routed += s.late_routed;
        self.buckets_rotated += s.buckets_rotated;
        self.rollups_built += s.rollups_built;
        self.rollup_hits += s.rollup_hits;
        self.queries += s.queries;
        self.cache_hits += s.cache_hits;
    }
}

/// Counters and histograms for one running server.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    ingest_rows: AtomicU64,
    busy_shed: AtomicU64,
    proto_errors: AtomicU64,
    per_op: [LatencyHistogram; Op::ALL.len()],
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh metrics; the rows/s denominator starts now.
    #[must_use]
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            ingest_rows: AtomicU64::new(0),
            busy_shed: AtomicU64::new(0),
            proto_errors: AtomicU64::new(0),
            per_op: std::array::from_fn(|_| LatencyHistogram::new()),
        }
    }

    /// Adds ingested rows to the throughput counter.
    pub fn add_rows(&self, rows: u64) {
        self.ingest_rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Rows ingested since start.
    #[must_use]
    pub fn rows(&self) -> u64 {
        self.ingest_rows.load(Ordering::Relaxed)
    }

    /// Counts one connection shed with a `BUSY` reply.
    pub fn note_busy(&self) {
        self.busy_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// Connections shed so far.
    #[must_use]
    pub fn busy_count(&self) -> u64 {
        self.busy_shed.load(Ordering::Relaxed)
    }

    /// Counts one malformed/corrupt frame.
    pub fn note_proto_error(&self) {
        self.proto_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed request's service time.
    pub fn record_op(&self, op: Op, nanos: u64) {
        if let Some(h) = self.per_op.get(op.index()) {
            h.record(nanos);
        }
    }

    /// The histogram for one op (for tests and direct inspection).
    #[must_use]
    pub fn op_histogram(&self, op: Op) -> Option<&LatencyHistogram> {
        self.per_op.get(op.index())
    }

    /// Renders everything as one JSON object (hand-rolled — the build
    /// is offline, no serde), the `STATS` reply body. `engine` is the
    /// cross-tenant aggregate of the ingest engines' own counters;
    /// `store` is the durable store's ledger (`None` on in-memory
    /// servers — the section is omitted entirely); `window` is the
    /// cross-tenant window-ring aggregate (`None` when the server runs
    /// without `--window-bucket-secs` — also omitted).
    #[must_use]
    pub fn to_json(
        &self,
        tenants: usize,
        engine: &EngineTotals,
        store: Option<&sqs_store::StoreStats>,
        window: Option<&WindowTotals>,
    ) -> String {
        use std::fmt::Write as _;
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        let rows = self.rows();
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"uptime_secs\": {uptime:.3},");
        let _ = writeln!(out, "  \"tenants\": {tenants},");
        let _ = writeln!(out, "  \"ingest_rows\": {rows},");
        let _ = writeln!(
            out,
            "  \"ingest_rows_per_sec\": {:.1},",
            rows as f64 / uptime
        );
        let _ = writeln!(out, "  \"busy_shed\": {},", self.busy_count());
        let _ = writeln!(
            out,
            "  \"proto_errors\": {},",
            self.proto_errors.load(Ordering::Relaxed)
        );
        out.push_str("  \"engine\": {\n");
        let _ = writeln!(out, "    \"items\": {},", engine.items);
        let _ = writeln!(out, "    \"epoch\": {},", engine.epoch);
        let _ = writeln!(out, "    \"snapshots\": {},", engine.snapshots);
        let _ = writeln!(
            out,
            "    \"snapshot_cache_hits\": {}",
            engine.snapshot_cache_hits
        );
        out.push_str("  },\n");
        if let Some(s) = store {
            out.push_str("  \"store\": {\n");
            let _ = writeln!(out, "    \"records_appended\": {},", s.records_appended);
            let _ = writeln!(out, "    \"items_appended\": {},", s.items_appended);
            let _ = writeln!(out, "    \"bytes_appended\": {},", s.bytes_appended);
            let _ = writeln!(out, "    \"fsyncs\": {},", s.fsyncs);
            let _ = writeln!(out, "    \"segments_rotated\": {},", s.segments_rotated);
            let _ = writeln!(out, "    \"segments_deleted\": {},", s.segments_deleted);
            let _ = writeln!(
                out,
                "    \"checkpoints_written\": {},",
                s.checkpoints_written
            );
            let _ = writeln!(
                out,
                "    \"corrupt_checkpoints_skipped\": {},",
                s.corrupt_checkpoints_skipped
            );
            let _ = writeln!(out, "    \"recoveries\": {},", s.recoveries);
            let _ = writeln!(out, "    \"replayed_records\": {},", s.replayed_records);
            let _ = writeln!(out, "    \"torn_tails_dropped\": {},", s.torn_tails_dropped);
            let _ = writeln!(out, "    \"seq_gaps\": {},", s.seq_gaps);
            let _ = writeln!(out, "    \"last_seq\": {}", s.last_seq);
            out.push_str("  },\n");
        }
        if let Some(w) = window {
            out.push_str("  \"window\": {\n");
            let _ = writeln!(out, "    \"rings\": {},", w.rings);
            let _ = writeln!(out, "    \"ingested_items\": {},", w.ingested_items);
            let _ = writeln!(out, "    \"live_buckets\": {},", w.live_buckets);
            let _ = writeln!(out, "    \"live_items\": {},", w.live_items);
            let _ = writeln!(out, "    \"evicted_items\": {},", w.evicted_items);
            let _ = writeln!(out, "    \"late_dropped\": {},", w.late_dropped);
            let _ = writeln!(out, "    \"late_routed\": {},", w.late_routed);
            let _ = writeln!(out, "    \"buckets_rotated\": {},", w.buckets_rotated);
            let _ = writeln!(out, "    \"rollups_built\": {},", w.rollups_built);
            let _ = writeln!(out, "    \"rollup_hits\": {},", w.rollup_hits);
            let _ = writeln!(out, "    \"queries\": {},", w.queries);
            let _ = writeln!(out, "    \"cache_hits\": {}", w.cache_hits);
            out.push_str("  },\n");
        }
        out.push_str("  \"ops\": {\n");
        for (i, op) in Op::ALL.iter().enumerate() {
            let Some(h) = self.per_op.get(op.index()) else {
                continue;
            };
            let _ = write!(
                out,
                "    \"{}\": {{\"count\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}}}",
                op.name(),
                h.count(),
                h.quantile_nanos(500) as f64 / 1e3,
                h.quantile_nanos(990) as f64 / 1e3,
                h.quantile_nanos(999) as f64 / 1e3,
            );
            out.push_str(if i + 1 < Op::ALL.len() { ",\n" } else { "\n" });
        }
        out.push_str("  }\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_samples() {
        let h = LatencyHistogram::new();
        for _ in 0..900 {
            h.record(1_000); // ~2^10
        }
        for _ in 0..100 {
            h.record(1_000_000); // ~2^20
        }
        assert_eq!(h.count(), 1_000);
        let p50 = h.quantile_nanos(500);
        assert!((1_000..=2_048).contains(&p50), "p50 = {p50}");
        let p999 = h.quantile_nanos(999);
        assert!((1_000_000..=2_097_152).contains(&p999), "p999 = {p999}");
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_nanos(500), 0);
    }

    #[test]
    fn zero_nanos_sample_is_representable() {
        let h = LatencyHistogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert!(h.quantile_nanos(500) >= 1);
    }

    #[test]
    fn json_snapshot_contains_every_op() {
        let m = Metrics::new();
        m.add_rows(5_000);
        m.record_op(Op::InsertBatch, 2_000);
        // The last op's slot exists: the per-op table is indexed by
        // position in `Op::ALL`, not by wire code (which has gaps).
        let last = Op::ALL[Op::ALL.len() - 1];
        m.record_op(last, 40_000);
        assert_eq!(m.op_histogram(last).map(LatencyHistogram::count), Some(1));
        m.note_busy();
        let engine = EngineTotals {
            items: 5_000,
            epoch: 9,
            snapshots: 2,
            snapshot_cache_hits: 7,
        };
        let json = m.to_json(3, &engine, None, None);
        for op in Op::ALL {
            assert!(json.contains(op.name()), "missing {}", op.name());
        }
        let counted = format!("\"{}\": {{\"count\": 1,", last.name());
        assert!(json.contains(&counted), "{json}");
        assert!(json.contains("\"ingest_rows\": 5000"));
        assert!(json.contains("\"busy_shed\": 1"));
        assert!(json.contains("\"tenants\": 3"));
        assert!(json.contains("\"items\": 5000"));
        assert!(json.contains("\"snapshot_cache_hits\": 7"));
        assert!(json.contains("\"epoch\": 9"));
        // In-memory servers omit the store section entirely, and
        // window-less servers omit the window section.
        assert!(!json.contains("\"store\""));
        assert!(!json.contains("\"window\""));
        // Balanced braces (cheap well-formedness check, no serde here).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_snapshot_includes_window_section_when_windowed() {
        let m = Metrics::new();
        let engine = EngineTotals::default();
        let mut window = WindowTotals::default();
        window.absorb(&sqs_window::WindowStats {
            ingested_items: 500,
            late_dropped: 3,
            buckets_rotated: 12,
            rollup_hits: 4,
            ..Default::default()
        });
        let json = m.to_json(1, &engine, None, Some(&window));
        assert!(json.contains("\"window\""));
        assert!(json.contains("\"rings\": 1"));
        assert!(json.contains("\"late_dropped\": 3"));
        assert!(json.contains("\"buckets_rotated\": 12"));
        assert!(json.contains("\"rollup_hits\": 4"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn json_snapshot_includes_store_section_when_durable() {
        let m = Metrics::new();
        let engine = EngineTotals::default();
        let store = sqs_store::StoreStats {
            records_appended: 4,
            items_appended: 100,
            last_seq: 4,
            ..Default::default()
        };
        let json = m.to_json(1, &engine, Some(&store), None);
        assert!(json.contains("\"store\""));
        assert!(json.contains("\"records_appended\": 4"));
        assert!(json.contains("\"items_appended\": 100"));
        assert!(json.contains("\"last_seq\": 4"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
