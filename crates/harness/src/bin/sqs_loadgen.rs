//! `sqs-loadgen` — the load generator for the quantile service.
//!
//! Drives N client connections over loopback: each thread streams
//! `INSERT_BATCH` frames and periodically samples `QUERY_QUANTILES`
//! latency (raw nanosecond samples, exact quantiles — the server's own
//! histogram is log₂-bucketed). After the timed run it verifies the
//! cross-server merge path end-to-end: `SNAPSHOT` from the loaded
//! server, `MERGE_SNAPSHOT` into a second fresh server, and a
//! rank-identical comparison of both servers' answers over the socket.
//!
//! Results land as hand-rolled JSON in
//! `results/service_baseline.json` (override with `--out`).
//!
//! Flags (all optional):
//!
//! * `--addr HOST:PORT` — attack an already-running server; default is
//!   an in-process server on an ephemeral loopback port. The
//!   cross-server verification spawns a Random-backend destination, so
//!   the target server must use the Random backend too (the `sqs-serve`
//!   default) — a q-digest target fails the merge with a kind
//!   mismatch, by design.
//! * `--clients N` — connection/thread count (default `4`).
//! * `--secs F` — timed run length in seconds (default `5`).
//! * `--batch N` — values per `INSERT_BATCH` frame (default `4096`).
//! * `--eps F` — accuracy of the in-process server (default `0.01`).
//! * `--seed N` — stream seed (default `42`).
//! * `--out PATH` — output JSON path.
//! * `--query-mix N` — interleave one `QUERY_MANY` (a φ-sweep plus a
//!   rank sweep in one frame) per `N` `INSERT_BATCH` frames instead of
//!   the default sparse `QUERY_QUANTILES` sampling, and report the
//!   query path's p50/p99 from the server's own `STATS` histograms
//!   alongside the client-side raw samples. `0` (the default) keeps
//!   the insert-heavy profile.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqs_core::random::RandomSketch;
use sqs_service::server::{spawn, ServerConfig, ServerHandle};
use sqs_service::Client;
use sqs_util::rng::{SplitMix64, Xoshiro256pp};

const QUERY_EVERY: u64 = 64; // one latency-sampled query per this many insert batches
const PROBE_PHIS: [f64; 5] = [0.01, 0.25, 0.5, 0.75, 0.99];
/// Rank probes for the `--query-mix` `QUERY_MANY` frames (spread over
/// the loadgen's `2^24` value universe).
const PROBE_XS: [u64; 3] = [1 << 20, 1 << 22, 1 << 23];

struct Args {
    addr: Option<String>,
    clients: usize,
    secs: f64,
    batch: usize,
    eps: f64,
    seed: u64,
    out: String,
    query_mix: u64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        clients: 4,
        secs: 5.0,
        batch: 4096,
        eps: 0.01,
        seed: 42,
        out: "results/service_baseline.json".to_owned(),
        query_mix: 0,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--addr" => args.addr = Some(val.clone()),
            "--clients" => args.clients = val.parse().map_err(|e| format!("--clients: {e}"))?,
            "--secs" => args.secs = val.parse().map_err(|e| format!("--secs: {e}"))?,
            "--batch" => args.batch = val.parse().map_err(|e| format!("--batch: {e}"))?,
            "--eps" => args.eps = val.parse().map_err(|e| format!("--eps: {e}"))?,
            "--seed" => args.seed = val.parse().map_err(|e| format!("--seed: {e}"))?,
            "--out" => args.out = val.clone(),
            "--query-mix" => {
                args.query_mix = val.parse().map_err(|e| format!("--query-mix: {e}"))?;
            }
            other => {
                return Err(format!(
                    "unknown flag {other:?}\nusage: sqs-loadgen [--addr HOST:PORT] [--clients N] \
                     [--secs F] [--batch N] [--eps F] [--seed N] [--out PATH] [--query-mix N]"
                ))
            }
        }
    }
    if args.clients == 0 || args.batch == 0 || args.secs <= 0.0 || args.secs.is_nan() {
        return Err("--clients, --batch and --secs must be positive".to_owned());
    }
    Ok(args)
}

/// What one client thread measured.
struct ThreadResult {
    rows: u64,
    batches: u64,
    busy: u64,
    query_nanos: Vec<u64>,
}

/// One client thread: stream insert batches, sample query latency.
fn drive(
    addr: &str,
    tenant: u64,
    thread: usize,
    args: &Args,
    stop: &AtomicBool,
) -> Result<ThreadResult, String> {
    let mut client = Client::connect(addr, Duration::from_secs(10))
        .map_err(|e| format!("client {thread}: connect: {e}"))?;
    let mut rng = Xoshiro256pp::new(args.seed ^ (0x10ad + thread as u64));
    let mut batch = vec![0u64; args.batch];
    let mut res = ThreadResult {
        rows: 0,
        batches: 0,
        busy: 0,
        query_nanos: Vec::with_capacity(4096),
    };
    while !stop.load(Ordering::Relaxed) {
        for slot in &mut batch {
            *slot = rng.next_below(1 << 24);
        }
        match client.insert_batch(tenant, &batch) {
            Ok(_) => {
                res.rows += batch.len() as u64;
                res.batches += 1;
            }
            Err(sqs_service::ClientError::Busy(_)) => {
                // Shed under backpressure: reconnect with a tiny backoff.
                res.busy += 1;
                std::thread::sleep(Duration::from_millis(2));
                client = Client::connect(addr, Duration::from_secs(10))
                    .map_err(|e| format!("client {thread}: reconnect: {e}"))?;
            }
            Err(e) => return Err(format!("client {thread}: insert: {e}")),
        }
        // In query-mix mode every N-th frame is a combined QUERY_MANY
        // sweep; otherwise sparse QUERY_QUANTILES latency sampling.
        let period = if args.query_mix > 0 {
            args.query_mix
        } else {
            QUERY_EVERY
        };
        if res.batches.is_multiple_of(period) {
            let started = Instant::now();
            if args.query_mix > 0 {
                client
                    .query_many(tenant, &PROBE_PHIS, &PROBE_XS)
                    .map_err(|e| format!("client {thread}: query many: {e}"))?;
            } else {
                client
                    .query_quantiles(tenant, &PROBE_PHIS)
                    .map_err(|e| format!("client {thread}: query: {e}"))?;
            }
            res.query_nanos
                .push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        }
    }
    Ok(res)
}

/// Exact quantile of raw samples (sorted in place).
fn sample_quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    // ^ audited: q is clamped to [0, 1] first, so the product is a
    // non-negative index within `sorted` (and `.min()` re-caps it).
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted.get(idx.min(sorted.len() - 1)).copied().unwrap_or(0)
}

/// `SNAPSHOT` the loaded tenant from `src_addr`, `MERGE_SNAPSHOT` it
/// into a fresh server, and require both servers to answer a probe
/// sweep rank-identically over the socket.
fn verify_cross_server_merge(src_addr: &str, eps: f64, seed: u64) -> Result<(), String> {
    let tenant = 1u64;
    let mut src = Client::connect(src_addr, Duration::from_secs(10))
        .map_err(|e| format!("verify: connect source: {e}"))?;
    let frame = src
        .snapshot(tenant)
        .map_err(|e| format!("verify: snapshot: {e}"))?;

    let dst_handle = spawn_local(eps, seed).map_err(|e| format!("verify: spawn dest: {e}"))?;
    let dst_addr = dst_handle.addr().to_string();
    let mut dst = Client::connect(&dst_addr, Duration::from_secs(10))
        .map_err(|e| format!("verify: connect dest: {e}"))?;
    let merged_n = dst
        .merge_snapshot(tenant, frame)
        .map_err(|e| format!("verify: merge snapshot: {e}"))?
        .n;
    if merged_n == 0 {
        return Err("verify: merged snapshot carried no mass".to_owned());
    }

    let phis: Vec<f64> = (1..100).map(|i| f64::from(i) / 100.0).collect();
    let a = src
        .query_quantiles(tenant, &phis)
        .map_err(|e| format!("verify: source query: {e}"))?;
    let b = dst
        .query_quantiles(tenant, &phis)
        .map_err(|e| format!("verify: dest query: {e}"))?;
    if a != b {
        return Err(
            "verify: snapshot-merged server answers differ from the source server".to_owned(),
        );
    }
    dst_handle.shutdown();
    dst_handle.join();
    Ok(())
}

/// Extracts an integer field from the STATS JSON by key, wherever it
/// appears (the document is flat enough that keys are unique). Hand
/// parsing, same reason the writer is hand-rolled: no serde offline.
fn json_u64_field(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = json.find(&needle)? + needle.len();
    let rest = json.get(at..)?.trim_start();
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Extracts a float field from one op's object in the STATS `ops`
/// section (e.g. `op = "query_many"`, `key = "p99_us"`). The per-op
/// latency fields are the one place the STATS JSON carries decimals,
/// so [`json_u64_field`] cannot read them.
fn json_op_f64_field(json: &str, op: &str, key: &str) -> Option<f64> {
    let obj_at = json.find(&format!("\"{op}\":"))?;
    let obj = json.get(obj_at..)?;
    let obj = obj.get(..obj.find('}')?)?;
    let needle = format!("\"{key}\":");
    let at = obj.find(&needle)? + needle.len();
    let rest = obj.get(at..)?.trim_start();
    let num: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// Prints the query path's service-time quantiles as the *server*
/// measured them (log₂-bucketed `STATS` histograms — ≤2× relative
/// error, vs. the client's exact-but-RTT-inclusive raw samples).
fn report_query_histogram(addr: &str, op: &str) {
    let Ok(mut client) = Client::connect(addr, Duration::from_secs(10)) else {
        eprintln!("stats: cannot connect for the {op} histogram");
        return;
    };
    let Ok(json) = client.stats() else {
        eprintln!("stats: STATS failed");
        return;
    };
    let field = |k| json_op_f64_field(&json, op, k);
    match (field("count"), field("p50_us"), field("p99_us")) {
        (Some(count), Some(p50), Some(p99)) => {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            // ^ audited: `count` is a non-negative integer printed by
            // the server; the cast only drops the synthetic `.0`.
            let count = count as u64;
            eprintln!("server histogram: {op} count={count} p50={p50:.1}us p99={p99:.1}us");
        }
        _ => eprintln!("stats: no {op} histogram in the STATS reply"),
    }
}

/// Pulls the server's own end-of-run ledger over the `STATS` op and
/// prints the durability and windowing counters a soak run should eye:
/// WAL sequence gaps (forward jumps tolerated during recovery) and the
/// window ring's late/rotation/rollup tallies. Sections absent from
/// the JSON (server not durable / not windowed) are reported as such.
fn report_server_ledger(addr: &str) {
    let mut client = match Client::connect(addr, Duration::from_secs(10)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ledger: cannot connect for STATS: {e}");
            return;
        }
    };
    let json = match client.stats() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("ledger: STATS failed: {e}");
            return;
        }
    };
    match json_u64_field(&json, "seq_gaps") {
        Some(gaps) => eprintln!("server ledger: store seq_gaps={gaps}"),
        None => eprintln!("server ledger: store: not durable (no --data-dir)"),
    }
    if json.contains("\"window\"") {
        let field = |k| json_u64_field(&json, k).unwrap_or(0);
        eprintln!(
            "server ledger: window late_dropped={} buckets_rotated={} rollup_hits={}",
            field("late_dropped"),
            field("buckets_rotated"),
            field("rollup_hits"),
        );
    } else {
        eprintln!("server ledger: window: disabled (no --window-bucket-secs)");
    }
}

/// An in-process server with the Random backend on an ephemeral port.
fn spawn_local(eps: f64, seed: u64) -> std::io::Result<ServerHandle<RandomSketch<u64>>> {
    spawn(ServerConfig::default(), move |tenant, shard| {
        let mut sm =
            SplitMix64::new(seed ^ tenant.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ shard as u64);
        RandomSketch::new(eps, sm.next_u64())
    })
}

#[allow(clippy::too_many_lines)]
// ^ audited: linear CLI dispatch — parse, spawn, drive phases, report;
// splitting it would just scatter the one-shot control flow.
fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    // Attack an external server if given one, else host our own.
    let local = if args.addr.is_none() {
        match spawn_local(args.eps, args.seed) {
            Ok(h) => Some(h),
            Err(e) => {
                eprintln!("cannot start in-process server: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let addr = args
        .addr
        .clone()
        .or_else(|| local.as_ref().map(|h| h.addr().to_string()))
        .unwrap_or_default();

    eprintln!(
        "loadgen: {} clients x {}-value batches against {addr} for {:.1}s",
        args.clients, args.batch, args.secs
    );
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let results: Vec<Result<ThreadResult, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.clients)
            .map(|t| {
                let stop = Arc::clone(&stop);
                let addr = &addr;
                let args = &args;
                scope.spawn(move || drive(addr, 1, t, args, &stop))
            })
            .collect();
        std::thread::sleep(Duration::from_secs_f64(args.secs));
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                Err(_) => Err("client thread panicked".to_owned()),
            })
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    let mut rows = 0u64;
    let mut batches = 0u64;
    let mut busy = 0u64;
    let mut query_nanos: Vec<u64> = Vec::new();
    for r in results {
        match r {
            Ok(t) => {
                rows += t.rows;
                batches += t.batches;
                busy += t.busy;
                query_nanos.extend(t.query_nanos);
            }
            Err(msg) => {
                eprintln!("loadgen failed: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    query_nanos.sort_unstable();
    let inserts_per_sec = rows as f64 / elapsed;

    if let Err(msg) = verify_cross_server_merge(&addr, args.eps, args.seed ^ 0xD157) {
        eprintln!("{msg}");
        return ExitCode::FAILURE;
    }
    eprintln!("cross-server snapshot/merge: rank-identical over the socket");
    report_server_ledger(&addr);
    if args.query_mix > 0 {
        report_query_histogram(&addr, "query_many");
    }

    if let Some(h) = local {
        h.shutdown();
        h.join();
    }

    let mut json = String::with_capacity(1024);
    json.push_str("{\n");
    let _ = writeln!(json, "  \"experiment\": \"service_baseline\",");
    let _ = writeln!(json, "  \"clients\": {},", args.clients);
    let _ = writeln!(json, "  \"batch\": {},", args.batch);
    let _ = writeln!(json, "  \"eps\": {},", args.eps);
    let _ = writeln!(json, "  \"seed\": {},", args.seed);
    let _ = writeln!(json, "  \"elapsed_secs\": {elapsed:.3},");
    let _ = writeln!(json, "  \"insert_rows\": {rows},");
    let _ = writeln!(json, "  \"insert_requests\": {batches},");
    let _ = writeln!(json, "  \"inserts_per_sec\": {inserts_per_sec:.1},");
    let _ = writeln!(json, "  \"busy_sheds\": {busy},");
    let _ = writeln!(json, "  \"query_mix\": {},", args.query_mix);
    let _ = writeln!(
        json,
        "  \"query_op\": \"{}\",",
        if args.query_mix > 0 {
            "query_many"
        } else {
            "query_quantiles"
        }
    );
    let _ = writeln!(json, "  \"query_samples\": {},", query_nanos.len());
    let _ = writeln!(
        json,
        "  \"query_latency_us\": {{\"p50\": {:.1}, \"p99\": {:.1}, \"p999\": {:.1}}},",
        sample_quantile(&query_nanos, 0.50) as f64 / 1e3,
        sample_quantile(&query_nanos, 0.99) as f64 / 1e3,
        sample_quantile(&query_nanos, 0.999) as f64 / 1e3,
    );
    let _ = writeln!(json, "  \"cross_server_merge\": \"rank-identical\"");
    json.push_str("}\n");

    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("cannot write {}: {e}", args.out);
        return ExitCode::FAILURE;
    }
    eprintln!(
        "loadgen: {:.2}M inserts/s, query p99 {:.1}us -> {}",
        inserts_per_sec / 1e6,
        sample_quantile(&query_nanos, 0.99) as f64 / 1e3,
        args.out
    );
    print!("{json}");
    ExitCode::SUCCESS
}
