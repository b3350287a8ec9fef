//! The metric catalogue and what one run of one workload reports.

use std::fmt::Write as _;
use std::path::PathBuf;

use crate::workloads::ClientRun;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// The regression bound of an end-to-end metric: the share of the
/// parent's median by which it may get worse.
pub struct EndToEnd {
    pub def: MetricDef,
    pub bound: f64,
}

/// What a user of the system sees. Every workload reports every one,
/// and a metric has one bound for all of them. The bounds are as wide as
/// the driver allows: the VM's CPU is at times contended by its host
/// (README, "How steady the numbers are").
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        def: lower("setup_s", "s"),
        bound: 0.25,
    },
    EndToEnd {
        def: higher("ingest_rows_per_s", "1/s"),
        bound: 0.25,
    },
    EndToEnd {
        def: lower("insert_ack_mean_us", "us"),
        bound: 0.25,
    },
    EndToEnd {
        def: lower("query_mean_us", "us"),
        bound: 0.25,
    },
];

/// The algorithms of `paper_suite`: the layer they belong to, the name
/// their metrics carry, and their span name in the trace.
pub const SUITE_ALGOS: [(&str, &str, &str); 7] = [
    ("core", "gkadaptive", "core.gkadaptive"),
    ("core", "gkarray", "core.gkarray"),
    ("core", "random", "core.random"),
    ("core", "mrl99", "core.mrl99"),
    ("core", "qdigest", "core.qdigest"),
    ("turnstile", "dcm", "turnstile.dcm"),
    ("turnstile", "dcs", "turnstile.dcs"),
];

const LAYER_METRICS: [MetricDef; 55] = [
    lower("service.encode_req_ns_per_row", "ns"),
    lower("service.decode_req_ns_per_row", "ns"),
    lower("service.reply_codec_us", "us"),
    lower("service.rtt_floor_us", "us"),
    lower("service.unattributed_share", "ratio"),
    lower("service.share_of_rtt", "ratio"),
    lower("service.insert_ack_p50_us", "us"),
    lower("service.query_p50_us", "us"),
    lower("service.insert_ack_p99_us", "us"),
    lower("service.query_p99_us", "us"),
    higher("service.queries_per_s", "1/s"),
    lower("service.busy_sheds", "count"),
    lower("service.proto_errors", "count"),
    lower("engine.ingest_batch_ns_per_row", "ns"),
    lower("engine.self_ns_per_row", "ns"),
    lower("engine.snapshot_us", "us"),
    lower("engine.query_many_cold_us", "us"),
    lower("engine.query_many_warm_us", "us"),
    higher("engine.snapshot_cache_hit_ratio", "ratio"),
    lower("engine.snapshot_retries", "count"),
    lower("engine.snapshots_torn", "count"),
    lower("engine.share_of_rtt", "ratio"),
    lower("core.insert_batch_ns_per_row", "ns"),
    lower("core.clone_us", "us"),
    lower("core.merge_from_us", "us"),
    lower("core.quantiles_us", "us"),
    lower("core.codec_encode_us", "us"),
    lower("core.codec_decode_us", "us"),
    lower("turnstile.insert_batch_ns_per_row", "ns"),
    lower("turnstile.quantiles_us", "us"),
    lower("turnstile.rank_batch_us", "us"),
    lower("sketch.update_batch_ns_per_key", "ns"),
    lower("sketch.estimate_batch_ns_per_key", "ns"),
    lower("util.bucket_hash_ns_per_key", "ns"),
    lower("util.sign_hash_ns_per_key", "ns"),
    lower("store.append_us", "us"),
    lower("store.append_fsync_us", "us"),
    lower("store.fsync_share", "ratio"),
    lower("store.wal_bytes_per_row", "bytes"),
    lower("store.fsyncs_per_record", "count"),
    lower("store.checkpoint_write_us", "us"),
    higher("store.checkpoints_written", "count"),
    higher("store.segments_deleted", "count"),
    higher("store.recovery_rows_per_s", "1/s"),
    lower("store.share_of_rtt", "ratio"),
    lower("window.ingest_ns_per_row", "ns"),
    lower("window.rotate_us", "us"),
    lower("window.query_sliding8_us", "us"),
    lower("window.query_sliding64_us", "us"),
    lower("window.query_tumbling16_us", "us"),
    higher("window.cache_hit_ratio", "ratio"),
    higher("window.rollup_hits_per_query", "count"),
    lower("window.late_dropped", "count"),
    lower("window.share_of_rtt", "ratio"),
    lower("bench.trace_overhead_share", "ratio"),
];

/// The four per-algorithm measurements of `paper_suite`: the paper's
/// axes (update time, query time, space, observed error).
pub const ALGO_METRICS: [(&str, &str); 4] = [
    ("insert_ns", "ns"),
    ("grid_query_us", "us"),
    ("space_bytes", "bytes"),
    ("rank_err_over_eps", "ratio"),
];

/// Every per-layer metric: name, unit, direction. A traced run of any
/// workload reports every one.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<_> = LAYER_METRICS
        .iter()
        .map(|m| (m.name.to_owned(), m.unit, m.better))
        .collect();
    for (_, _, span) in SUITE_ALGOS {
        for (metric, unit) in ALGO_METRICS {
            all.push((format!("{span}.{metric}"), unit, Better::Lower));
        }
    }
    all
}

/// How one run was asked to run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `benchmark/out`: scratch data, traces and result files.
    pub out_dir: PathBuf,
}

/// What one run of one workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<(String, f64)>,
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 16 {
                self.errors.push(e);
            }
        }
    }

    pub fn absorb_client(&mut self, run: &mut ClientRun<'_>) {
        self.attempted += run.attempted;
        self.failed += run.failed;
        self.errors.append(&mut run.errors);
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result object the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the metrics in catalogue
    /// order with their units.
    pub fn to_json(&self, catalogue: &[(String, &'static str, Better)]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit, _)) in catalogue.iter().enumerate() {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " }
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// The metrics a run must report: end-to-end when untraced, per-layer
/// when traced.
pub fn catalogue(trace: bool) -> Vec<(String, &'static str, Better)> {
    if trace {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.def.name.to_owned(), m.def.unit, m.def.better))
            .collect()
    }
}
