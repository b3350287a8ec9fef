//! `sqs-serve` — stand up one quantile server from the command line.
//!
//! ```text
//! sqs-serve --addr 127.0.0.1:7171 --backend random --eps 0.01
//! ```
//!
//! Flags (all optional):
//!
//! * `--addr HOST:PORT` — bind address (default `127.0.0.1:7171`,
//!   port 0 for ephemeral).
//! * `--backend random|qdigest|dcs` — shard summary type
//!   (default `random`).
//! * `--eps F` — accuracy parameter ε (default `0.01`).
//! * `--log-u N` — q-digest/DCS universe is `[0, 2^N)` (default `32`;
//!   fixed-universe backends only — the server refuses out-of-universe
//!   inserts).
//! * `--shards N` — engine shards per tenant (default `4`).
//! * `--workers N` — connection worker threads (default `4`).
//! * `--queue N` — backpressure queue depth (default `64`).
//! * `--seed N` — base RNG seed; per-tenant/per-shard seeds are
//!   derived from it (default `42`).
//! * `--data-dir PATH` — durable mode: write-ahead-log every
//!   acknowledged ingest under `PATH` and checkpoint periodically;
//!   on startup, recover state from `PATH` (absent ⇒ in-memory, the
//!   hot path pays nothing).
//! * `--fsync always|interval:MS|never` — WAL sync policy in durable
//!   mode (default `always`).
//! * `--segment-bytes N` — WAL segment rotation threshold (default
//!   `67108864`, i.e. 64 MiB).
//! * `--checkpoint-secs N` — background checkpoint interval (default
//!   `30`).
//! * `--window-bucket-secs N` — enable time-windowed quantiles with
//!   `N`-second buckets (absent ⇒ the `WINDOW_*` ops are refused and
//!   the existing hot path is untouched).
//! * `--window-retention N` — buckets retained per tenant ring
//!   (default `60`; windowed mode only).
//! * `--window-rollup N` — pre-merge sealed buckets in groups of `N`
//!   for long-range queries; `0` disables (default `8`; windowed mode
//!   only).
//! * `--window-late drop|route` — what happens to values stamped
//!   before the current bucket: count-and-drop, or fold into the
//!   current bucket (default `drop`; windowed mode only).
//!
//! The process prints `listening on ADDR` once bound and runs until a
//! client sends `SHUTDOWN` (or the process is killed). In durable mode
//! a recovery summary line (`recovered ...`) is printed before the
//! listening line whenever prior state was found.

use std::process::ExitCode;
use std::time::Duration;

use sqs_core::codec::Kind;
use sqs_core::qdigest::QDigest;
use sqs_core::random::RandomSketch;
use sqs_service::server::{spawn, DurabilityConfig, ServerConfig, WindowOptions};
use sqs_store::FsyncPolicy;
use sqs_turnstile::Dcs;
use sqs_util::rng::SplitMix64;
use sqs_window::{LatePolicy, WindowConfig};

struct Args {
    cfg: ServerConfig,
    backend: Kind,
    eps: f64,
    log_u: u32,
    seed: u64,
}

fn usage() -> &'static str {
    "usage: sqs-serve [--addr HOST:PORT] [--backend random|qdigest|dcs] \
     [--eps F] [--log-u N] [--shards N] [--workers N] [--queue N] [--seed N] \
     [--data-dir PATH] [--fsync always|interval:MS|never] [--segment-bytes N] \
     [--checkpoint-secs N] [--window-bucket-secs N] [--window-retention N] \
     [--window-rollup N] [--window-late drop|route]"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        cfg: ServerConfig {
            addr: "127.0.0.1:7171".to_owned(),
            ..ServerConfig::default()
        },
        backend: Kind::Random,
        eps: 0.01,
        log_u: 32,
        seed: 42,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        fn value<'a>(
            it: &mut std::slice::Iter<'a, String>,
            flag: &str,
        ) -> Result<&'a String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        }
        match flag.as_str() {
            "--addr" => args.cfg.addr = value(&mut it, flag)?.clone(),
            "--backend" => {
                let name = value(&mut it, flag)?;
                args.backend = Kind::ALL
                    .into_iter()
                    .find(|k| k.name() == name)
                    .ok_or_else(|| format!("unknown backend {name:?}"))?;
            }
            "--eps" => {
                args.eps = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--eps: {e}"))?;
                if !(args.eps.is_finite() && args.eps > 0.0 && args.eps < 0.5) {
                    return Err(format!("--eps must be in (0, 0.5), got {}", args.eps));
                }
            }
            "--log-u" => {
                args.log_u = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--log-u: {e}"))?;
                if args.log_u == 0 || args.log_u > 63 {
                    return Err(format!("--log-u must be in 1..=63, got {}", args.log_u));
                }
            }
            "--shards" => {
                args.cfg.shards = parse_nonzero(value(&mut it, flag)?, "--shards")?;
            }
            "--workers" => {
                args.cfg.workers = parse_nonzero(value(&mut it, flag)?, "--workers")?;
            }
            "--queue" => {
                args.cfg.queue_depth = parse_nonzero(value(&mut it, flag)?, "--queue")?;
            }
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--data-dir" => {
                let dir = std::path::PathBuf::from(value(&mut it, flag)?);
                match args.cfg.durability.as_mut() {
                    Some(d) => d.data_dir = dir,
                    None => args.cfg.durability = Some(DurabilityConfig::new(dir)),
                }
            }
            "--fsync" => {
                let policy = parse_fsync(value(&mut it, flag)?)?;
                durability_mut(&mut args)?.fsync = policy;
            }
            "--segment-bytes" => {
                let bytes: u64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--segment-bytes: {e}"))?;
                if bytes < 1024 {
                    return Err(format!("--segment-bytes must be >= 1024, got {bytes}"));
                }
                durability_mut(&mut args)?.segment_bytes = bytes;
            }
            "--checkpoint-secs" => {
                let secs: u64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--checkpoint-secs: {e}"))?;
                if secs == 0 {
                    return Err("--checkpoint-secs must be positive".to_owned());
                }
                durability_mut(&mut args)?.checkpoint_interval = Duration::from_secs(secs);
            }
            "--window-bucket-secs" => {
                let secs: u64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--window-bucket-secs: {e}"))?;
                if secs == 0 {
                    return Err("--window-bucket-secs must be positive".to_owned());
                }
                let bucket_nanos = secs.saturating_mul(1_000_000_000);
                match args.cfg.window.as_mut() {
                    Some(w) => w.config.bucket_nanos = bucket_nanos,
                    None => {
                        args.cfg.window =
                            Some(WindowOptions::new(WindowConfig::new(bucket_nanos, 60)));
                    }
                }
            }
            "--window-retention" => {
                let buckets: u64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--window-retention: {e}"))?;
                if buckets == 0 {
                    return Err("--window-retention must be at least 1 bucket".to_owned());
                }
                window_mut(&mut args)?.config.retention_buckets = buckets;
            }
            "--window-rollup" => {
                let factor: u64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|e| format!("--window-rollup: {e}"))?;
                if factor == 1 {
                    return Err("--window-rollup must be 0 (disabled) or >= 2".to_owned());
                }
                window_mut(&mut args)?.config.rollup_factor = factor;
            }
            "--window-late" => {
                let policy = match value(&mut it, flag)?.as_str() {
                    "drop" => LatePolicy::Drop,
                    "route" => LatePolicy::RouteToCurrent,
                    other => {
                        return Err(format!("--window-late: expected drop|route, got {other:?}"))
                    }
                };
                window_mut(&mut args)?.config.late_policy = policy;
            }
            "--help" | "-h" => return Err(usage().to_owned()),
            other => return Err(format!("unknown flag {other:?}\n{}", usage())),
        }
    }
    Ok(args)
}

fn parse_nonzero(s: &str, flag: &str) -> Result<usize, String> {
    let n: usize = s.parse().map_err(|e| format!("{flag}: {e}"))?;
    if n == 0 {
        return Err(format!("{flag} must be positive"));
    }
    Ok(n)
}

/// `--fsync` grammar: `always`, `never`, or `interval:MS`.
fn parse_fsync(s: &str) -> Result<FsyncPolicy, String> {
    match s {
        "always" => Ok(FsyncPolicy::Always),
        "never" => Ok(FsyncPolicy::Never),
        other => {
            let ms = other
                .strip_prefix("interval:")
                .ok_or_else(|| {
                    format!("--fsync: expected always|interval:MS|never, got {other:?}")
                })?
                .parse::<u64>()
                .map_err(|e| format!("--fsync interval: {e}"))?;
            if ms == 0 {
                return Err("--fsync interval must be positive".to_owned());
            }
            Ok(FsyncPolicy::Interval(Duration::from_millis(ms)))
        }
    }
}

/// The durability knobs only make sense once `--data-dir` picked a home.
fn durability_mut(args: &mut Args) -> Result<&mut DurabilityConfig, String> {
    args.cfg.durability.as_mut().ok_or_else(|| {
        "--fsync/--segment-bytes/--checkpoint-secs require --data-dir first".to_owned()
    })
}

/// The window knobs only make sense once `--window-bucket-secs` set
/// the bucket width.
fn window_mut(args: &mut Args) -> Result<&mut WindowOptions, String> {
    args.cfg.window.as_mut().ok_or_else(|| {
        "--window-retention/--window-rollup/--window-late require --window-bucket-secs first"
            .to_owned()
    })
}

/// Derives an independent seed for one (tenant, shard) pair so that
/// randomized summaries on different shards draw unrelated streams.
fn derive_seed(base: u64, tenant: u64, shard: usize) -> u64 {
    let mut sm = SplitMix64::new(
        base ^ tenant.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (shard as u64).wrapping_mul(0xff51_afd7_ed55_8ccd),
    );
    sm.next_u64()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    let Args {
        mut cfg,
        backend,
        eps,
        log_u,
        seed,
    } = args;
    // Exhaustive over `Kind`: a wire kind this binary does not serve
    // does not compile.
    let spawned = match backend {
        Kind::Random => spawn(cfg, move |tenant, shard| {
            RandomSketch::new(eps, derive_seed(seed, tenant, shard))
        })
        .map(|h| run(h.addr(), h)),
        Kind::QDigest => {
            // q-digest summarises the bounded universe [0, 2^log_u);
            // the server gates inserts so out-of-range values get an
            // error reply instead of panicking a worker.
            cfg.value_bound = Some(1u64 << log_u);
            spawn(cfg, move |_tenant, _shard| QDigest::new(eps, log_u)).map(|h| run(h.addr(), h))
        }
        Kind::Dcs => {
            // Fixed-universe like qdigest: gate out-of-range inserts.
            cfg.value_bound = Some(1u64 << log_u);
            // One seed per *tenant*, shared by all of its shards: the
            // dyadic Count-Sketch is linear, so same-draw shards merge
            // counter-wise and the snapshot is state-identical to a
            // single sketch that saw every update (docs/PERF.md).
            spawn(cfg, move |tenant, _shard| {
                Dcs::dcs(eps, log_u, derive_seed(seed, tenant, 0))
            })
            .map(|h| run(h.addr(), h))
        }
    };
    match spawned {
        Ok(code) => code,
        Err(e) => {
            eprintln!("startup failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run<S>(addr: std::net::SocketAddr, handle: sqs_service::ServerHandle<S>) -> ExitCode
where
    S: sqs_core::MergeableSummary<u64> + sqs_core::codec::WireCodec + Clone + Send + Sync + 'static,
{
    if let Some(r) = handle
        .recovery()
        .filter(|r| r.tenants > 0 || r.torn_tails_dropped > 0 || r.corrupt_checkpoints_skipped > 0)
    {
        println!(
            "recovered {} items across {} tenants ({} checkpoints, {} wal records replayed, \
             {} torn tails dropped, {} corrupt checkpoints skipped)",
            r.total_items,
            r.tenants,
            r.checkpoints_loaded,
            r.records_replayed,
            r.torn_tails_dropped,
            r.corrupt_checkpoints_skipped,
        );
    }
    println!("listening on {addr}");
    // Park until a client's SHUTDOWN op stops the server; the handle's
    // join returns once every worker drained.
    handle.join();
    // Give lingering client sockets a beat to observe the close.
    std::thread::sleep(Duration::from_millis(10));
    ExitCode::SUCCESS
}
