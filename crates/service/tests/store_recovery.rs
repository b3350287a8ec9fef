//! Crash-recovery smoke tests for the durable server (`--data-dir`).
//!
//! Two restart paths:
//!
//! * **graceful** — in-process [`spawn`] with a [`DurabilityConfig`],
//!   shutdown, respawn on the same directory: everything acknowledged
//!   must come back, checkpoints included;
//! * **kill -9** — the real `sqs-serve` binary, SIGKILLed while a
//!   client is mid-ingest, restarted on the same directory: every
//!   *acknowledged* batch must come back, and the recovered answers
//!   must sit within ε rank error of an exact oracle over exactly the
//!   recovered prefix of the stream.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqs_core::random::RandomSketch;
use sqs_service::server::{spawn, DurabilityConfig, ServerConfig};
use sqs_service::Client;
use sqs_store::FsyncPolicy;
use sqs_util::exact::{probe_phis, ExactQuantiles};
use sqs_util::rng::SplitMix64;
use sqs_util::tmpdir::TempDir;

const EPS: f64 = 0.05;
const TENANT: u64 = 3;
/// Uniform batch length: WAL records are whole batches, so the
/// recovered multiset is always the first `k * BATCH` values of the
/// deterministic stream for some `k`.
const BATCH: usize = 512;

/// The `i`-th batch of the deterministic test stream.
fn batch_values(i: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(0xfeed ^ i);
    (0..BATCH).map(|_| rng.next_u64() % (1 << 24)).collect()
}

/// First `n` values of the deterministic test stream.
fn stream_prefix(n: u64) -> Vec<u64> {
    let mut out = Vec::with_capacity(usize::try_from(n).unwrap_or(0));
    let mut i = 0u64;
    while (out.len() as u64) < n {
        out.extend_from_slice(&batch_values(i));
        i += 1;
    }
    out.truncate(usize::try_from(n).unwrap_or(0));
    out
}

fn connect(addr: &str) -> Client {
    Client::connect(addr, Duration::from_secs(10)).expect("connect")
}

/// Recovered answers must sit within ε rank error of the exact oracle
/// over the recovered prefix (plus head-room for unlucky draws — the
/// seeds are fixed, so a pass here is deterministic).
fn assert_within_eps(client: &mut Client, oracle: &ExactQuantiles<u64>) {
    for phi in probe_phis(EPS) {
        let got = client
            .query_quantiles(TENANT, &[phi])
            .expect("query quantiles")
            .first()
            .copied()
            .flatten()
            .expect("recovered stream is non-empty");
        let err = oracle.quantile_error(phi, got);
        assert!(
            err <= 2.0 * EPS,
            "recovered quantile at phi={phi} off by rank error {err} (> 2ε)"
        );
    }
}

#[test]
fn graceful_restart_recovers_checkpoint_plus_wal_tail() {
    let dir = TempDir::new("sqs-recovery-api").expect("tempdir");
    let cfg = |dir: &std::path::Path| ServerConfig {
        durability: Some(DurabilityConfig {
            // Tiny segments + a fast checkpointer so one test exercises
            // rotation, checkpointing, and WAL truncation.
            segment_bytes: 1 << 16,
            fsync: FsyncPolicy::Always,
            checkpoint_interval: Duration::from_millis(100),
            ..DurabilityConfig::new(dir.to_path_buf())
        }),
        ..ServerConfig::default()
    };
    let factory = |tenant: u64, shard: usize| {
        RandomSketch::<u64>::new(EPS, tenant.wrapping_mul(31) ^ (shard as u64 + 1))
    };

    let server = spawn(cfg(dir.path()), factory).expect("spawn durable server");
    let fresh = server.recovery().expect("durable server reports recovery");
    assert_eq!(fresh.tenants, 0, "fresh data dir must recover nothing");
    let addr = server.addr().to_string();
    let mut client = connect(&addr);
    let mut sent = 0u64;
    for i in 0..20u64 {
        let ack = client
            .insert_batch(TENANT, &batch_values(i))
            .expect("insert batch");
        assert!(ack.seq > 0, "durable server must ack a WAL sequence");
        sent += BATCH as u64;
        if i == 9 {
            // Let the checkpointer cover the first half, so recovery
            // exercises checkpoint-absorb *and* WAL-tail replay.
            std::thread::sleep(Duration::from_millis(300));
        }
    }
    server.shutdown();
    server.join();

    let restarted = spawn(cfg(dir.path()), factory).expect("respawn on same dir");
    let recovery = restarted.recovery().expect("recovery summary");
    assert_eq!(recovery.tenants, 1, "one tenant must come back");
    assert_eq!(
        recovery.total_items, sent,
        "graceful restart must recover every acknowledged item"
    );
    let mut client = connect(&restarted.addr().to_string());
    let oracle = ExactQuantiles::new(stream_prefix(sent));
    assert_within_eps(&mut client, &oracle);
    restarted.shutdown();
    restarted.join();
}

/// Starts the real binary in durable mode and returns the child plus
/// its bound address, parsed from the `listening on ADDR` line (any
/// `recovered ...` line printed before it is returned too).
fn spawn_serve(dir: &std::path::Path) -> (Child, String, Option<String>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sqs-serve"))
        .args([
            "--addr",
            "127.0.0.1:0",
            "--backend",
            "random",
            "--eps",
            "0.05",
            "--data-dir",
        ])
        .arg(dir)
        .args(["--fsync", "always", "--checkpoint-secs", "1"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn sqs-serve");
    let stdout = child.stdout.take().expect("child stdout piped");
    let mut lines = BufReader::new(stdout).lines();
    let mut recovered = None;
    loop {
        let line = lines
            .next()
            .expect("sqs-serve exited before binding")
            .expect("read sqs-serve stdout");
        if let Some(addr) = line.strip_prefix("listening on ") {
            return (child, addr.to_owned(), recovered);
        }
        if line.starts_with("recovered ") {
            recovered = Some(line);
        }
    }
}

#[test]
fn sigkill_mid_ingest_recovers_every_acknowledged_batch() {
    let dir = TempDir::new("sqs-recovery-kill").expect("tempdir");
    let (mut child, addr, recovered) = spawn_serve(dir.path());
    assert!(recovered.is_none(), "fresh dir must not print recovery");

    // Ingest continuously from a background thread; the main thread
    // SIGKILLs the server mid-stream, so the last batch may die in
    // flight — but everything *acknowledged* is fsynced and must
    // survive.
    let acked = Arc::new(AtomicU64::new(0));
    let ingest = {
        let acked = Arc::clone(&acked);
        let addr = addr.clone();
        std::thread::spawn(move || {
            let mut client = connect(&addr);
            let mut i = 0u64;
            while client.insert_batch(TENANT, &batch_values(i)).is_ok() {
                acked.fetch_add(1, Ordering::Release);
                i += 1;
            }
        })
    };
    let deadline = Instant::now() + Duration::from_secs(20);
    while acked.load(Ordering::Acquire) < 30 {
        assert!(Instant::now() < deadline, "ingest never reached 30 acks");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL sqs-serve");
    let _ = child.wait();
    ingest.join().expect("ingest thread");
    let acked_batches = acked.load(Ordering::Acquire);

    // Restart on the same directory; recovery must be announced.
    let (mut child, addr, recovered) = spawn_serve(dir.path());
    let recovered = recovered.expect("restart must print a recovery line");
    assert!(
        recovered.contains("1 tenants"),
        "unexpected recovery line: {recovered}"
    );

    // The recovered mass is a whole number of batches, covering at
    // least every acknowledged one (at most one un-acked batch was in
    // flight when the process died).
    let mut client = connect(&addr);
    let stats = client.stats().expect("stats");
    let items = parse_items(&stats);
    assert_eq!(items % BATCH as u64, 0, "partial batch recovered: {items}");
    assert!(
        items >= acked_batches * BATCH as u64,
        "lost acknowledged data: {items} items recovered, {acked_batches} batches acked"
    );
    assert!(
        items <= (acked_batches + 1) * BATCH as u64,
        "recovered more than was ever sent: {items}"
    );

    let oracle = ExactQuantiles::new(stream_prefix(items));
    assert_within_eps(&mut client, &oracle);

    client.shutdown().expect("graceful shutdown");
    let _ = child.wait();
}

/// A data directory written by another format version is not
/// "recovered" into an empty one: the real binary names the file and
/// the versions, exits non-zero, and leaves the file as it was.
#[test]
fn serve_refuses_a_data_dir_of_another_format_version() {
    use sqs_store::wal::{SEGMENT_MAGIC, SEGMENT_VERSION};
    let dir = TempDir::new("sqs-recovery-version").expect("tempdir");
    let wal = dir.path().join("wal");
    std::fs::create_dir_all(&wal).expect("wal dir");
    let segment = wal.join(format!("seg-{:020}.wal", 1));
    let mut header = SEGMENT_MAGIC.to_vec();
    header.push(SEGMENT_VERSION - 1);
    header.extend_from_slice(&[0u8; 3]);
    header.extend_from_slice(&1u64.to_le_bytes());
    header.extend_from_slice(b"records in the older layout");
    std::fs::write(&segment, &header).expect("plant segment");

    let out = Command::new(env!("CARGO_BIN_EXE_sqs-serve"))
        .args(["--addr", "127.0.0.1:0", "--data-dir"])
        .arg(dir.path())
        .output()
        .expect("run sqs-serve");
    assert!(
        !out.status.success(),
        "sqs-serve started on an old data dir"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("format version {}", SEGMENT_VERSION - 1))
            && stderr.contains("seg-00000000000000000001.wal"),
        "unhelpful refusal: {stderr}"
    );
    assert_eq!(std::fs::read(&segment).expect("read back"), header);
}

/// docs/STORE.md §5's retired-kind row: a checkpoint whose frame is a
/// DCS re-tagged with a retired kind — 3 (the reservoir baseline) or 5
/// (a DCS with a sketch at every sketched level, before every other one
/// was derived) — passes the store's structural check (magic, version,
/// checksum; any kind byte) and is refused by the typed decode, so the
/// server does not start on it rather than skipping it for an older
/// checkpoint or an empty tenant, and leaves the file as it was.
#[test]
fn serve_refuses_a_data_dir_whose_checkpoint_holds_a_retired_kind() {
    use sqs_core::codec::{seal, WireCodec};
    use sqs_store::{DurableStore, StoreConfig};
    use sqs_turnstile::Dcs;
    for retired in [3u8, 5] {
        let dir = TempDir::new("sqs-recovery-retired-kind").expect("tempdir");
        let mut frame = Dcs::dcs(0.2, 12, 1).to_bytes();
        frame.truncate(frame.len() - 8);
        frame[5] = retired;
        seal(&mut frame);
        {
            let (store, _) = DurableStore::open(&StoreConfig::new(dir.path())).expect("open");
            store.append_batch(TENANT, &[1, 2, 3]).expect("append");
            store
                .record_checkpoint(TENANT, 1, 3, &frame)
                .expect("checkpoint");
        }
        let ckpt = std::fs::read_dir(dir.path().join("ckpt"))
            .expect("checkpoint dir")
            .next()
            .expect("one checkpoint")
            .expect("dir entry")
            .path();
        let planted = std::fs::read(&ckpt).expect("read checkpoint");

        let out = Command::new(env!("CARGO_BIN_EXE_sqs-serve"))
            .args(["--addr", "127.0.0.1:0", "--backend", "dcs", "--eps", "0.2"])
            .args(["--log-u", "12", "--data-dir"])
            .arg(dir.path())
            .output()
            .expect("run sqs-serve");
        assert!(
            !out.status.success(),
            "sqs-serve started on a kind-{retired} checkpoint"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("does not decode: summary kind mismatch")
                && stderr.contains(&format!("got {retired}")),
            "unhelpful refusal of kind {retired}: {stderr}"
        );
        assert_eq!(std::fs::read(&ckpt).expect("read back"), planted);
    }
}

/// The reservoir baseline left the wire with kind 3: its backend name is
/// as unknown as any other.
#[test]
fn serve_refuses_the_retired_reservoir_backend() {
    let out = Command::new(env!("CARGO_BIN_EXE_sqs-serve"))
        .args(["--addr", "127.0.0.1:0", "--backend", "reservoir"])
        .output()
        .expect("run sqs-serve");
    assert!(!out.status.success(), "sqs-serve served a reservoir");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown backend \"reservoir\""),
        "unhelpful refusal: {stderr}"
    );
}

/// A flag the binary does not know is an error with the usage text, not
/// a silent no-op: `--batch` set an engine knob no request read, and is
/// gone with it.
#[test]
fn serve_refuses_an_unknown_flag_with_the_usage_text() {
    let out = Command::new(env!("CARGO_BIN_EXE_sqs-serve"))
        .args(["--addr", "127.0.0.1:0", "--batch", "1024"])
        .output()
        .expect("run sqs-serve");
    assert!(!out.status.success(), "sqs-serve accepted --batch");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag \"--batch\"") && stderr.contains("usage: sqs-serve"),
        "unhelpful refusal: {stderr}"
    );
}

/// Pulls the engine-totals `"items"` count out of the `STATS` JSON
/// (string search keeps the test serde-free, like the metrics tests).
fn parse_items(stats: &str) -> u64 {
    let key = "\"items\": ";
    let start = stats.find(key).expect("stats JSON has an items field") + key.len();
    let rest = stats.get(start..).unwrap_or_default();
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest.get(..end)
        .unwrap_or_default()
        .parse()
        .expect("items count parses")
}
