//! Loopback integration test for `sqs-service`: a real TCP server on
//! an ephemeral port, four concurrent clients across two tenants,
//! cross-server snapshot/merge, and a final accuracy check against the
//! exact oracle — the end-to-end version of the mergeability story
//! (summaries merged over the socket keep their ε-rank guarantee).

use std::time::Duration;

use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_service::server::{spawn, ServerConfig, ServerHandle};
use streaming_quantiles::sqs_service::{Client, ClientError, Op};
use streaming_quantiles::sqs_util::exact::probe_phis;
use streaming_quantiles::sqs_util::rng::Xoshiro256pp;

const EPS: f64 = 0.05;
const PER_CLIENT: usize = 20_000;
const BATCH: usize = 1_000;

fn test_server(seed: u64) -> ServerHandle<RandomSketch<u64>> {
    spawn(ServerConfig::default(), move |tenant, shard| {
        RandomSketch::new(EPS, seed ^ (tenant << 8) ^ shard as u64)
    })
    .expect("ephemeral loopback bind")
}

/// A server with windowing on (1 s buckets, 8 retained) whose clock
/// stands still at 5 s.
fn windowed_server(seed: u64) -> ServerHandle<RandomSketch<u64>> {
    use streaming_quantiles::sqs_service::server::WindowOptions;
    let clock = ManualClock::at(5_000_000_000);
    spawn(
        ServerConfig {
            window: Some(WindowOptions::with_clock(
                WindowConfig::new(1_000_000_000, 8),
                std::sync::Arc::new(clock),
            )),
            ..ServerConfig::default()
        },
        move |tenant, shard| RandomSketch::new(EPS, seed ^ (tenant << 8) ^ shard as u64),
    )
    .expect("ephemeral loopback bind")
}

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::connect(addr, Duration::from_secs(10)).expect("loopback connect")
}

/// Client `t`'s deterministic stream (tenant baked into the seed).
fn stream(tenant: u64, t: usize) -> Vec<u64> {
    let mut rng = Xoshiro256pp::new(0x5E55 ^ (tenant << 16) ^ t as u64);
    (0..PER_CLIENT).map(|_| rng.next_below(1 << 22)).collect()
}

#[test]
fn concurrent_clients_two_tenants_accurate_quantiles() {
    let server = test_server(11);
    let addr = server.addr();

    // Four concurrent clients, two per tenant; each streams batched
    // inserts and issues interleaved queries along the way.
    std::thread::scope(|scope| {
        for t in 0..4 {
            scope.spawn(move || {
                let tenant = (t % 2) as u64 + 1;
                let mut client = connect(addr);
                let data = stream(tenant, t);
                for chunk in data.chunks(BATCH) {
                    client.insert_batch(tenant, chunk).expect("insert batch");
                }
                // Mid-stream queries must come back well-formed.
                let answers = client
                    .query_quantiles(tenant, &[0.25, 0.5, 0.75])
                    .expect("mid-stream query");
                assert_eq!(answers.len(), 3);
                assert!(answers.iter().all(Option::is_some));
            });
        }
    });

    // Per-tenant accuracy against the exact oracle: each tenant saw
    // exactly the streams of its two clients, and the merged answer
    // must stay within ε of exact at every probe φ.
    let mut client = connect(addr);
    for tenant in [1u64, 2] {
        let mut all: Vec<u64> = Vec::with_capacity(2 * PER_CLIENT);
        for t in 0..4 {
            if (t % 2) as u64 + 1 == tenant {
                all.extend(stream(tenant, t));
            }
        }
        let oracle = ExactQuantiles::new(all);
        assert_eq!(
            client.query_rank(tenant, 0).expect("rank query at 0"),
            0,
            "nothing is below the universe minimum"
        );
        let phis = probe_phis(EPS);
        let answers = client.query_quantiles(tenant, &phis).expect("final sweep");
        for (phi, ans) in phis.iter().zip(answers) {
            let ans = ans.expect("tenant stream is non-empty");
            let err = oracle.quantile_error(*phi, ans);
            assert!(
                err <= EPS,
                "tenant {tenant} phi {phi}: rank error {err} > eps {EPS}"
            );
        }
    }

    server.shutdown();
    server.join();
}

#[test]
fn snapshot_merges_into_second_server_rank_identical() {
    let a = test_server(21);
    let b = test_server(22);
    let tenant = 7u64;

    let mut ca = connect(a.addr());
    let data = stream(tenant, 9);
    for chunk in data.chunks(BATCH) {
        ca.insert_batch(tenant, chunk).expect("insert batch");
    }

    // SNAPSHOT on server A, MERGE_SNAPSHOT into fresh server B.
    let frame = ca.snapshot(tenant).expect("snapshot frame");
    let mut cb = connect(b.addr());
    let ack = cb.merge_snapshot(tenant, frame).expect("merge snapshot");
    assert_eq!(ack.n, data.len() as u64, "merge conserves mass");
    assert_eq!(ack.seq, 0, "in-memory server must ack seq 0");

    // Both servers must now answer every probe identically end-to-end
    // over the socket (B holds exactly A's summary).
    let phis: Vec<f64> = (1..200).map(|i| f64::from(i) / 200.0).collect();
    let from_a = ca.query_quantiles(tenant, &phis).expect("query A");
    let from_b = cb.query_quantiles(tenant, &phis).expect("query B");
    assert_eq!(from_a, from_b, "merged server diverges from source");

    // Corrupt frames must come back as error replies, not hangs/panics.
    let mut evil = ca.snapshot(tenant).expect("second snapshot");
    if let Some(byte) = evil.get_mut(20) {
        *byte ^= 0x40;
    }
    match cb.merge_snapshot(tenant, evil) {
        Err(ClientError::Server(msg)) => {
            assert!(msg.contains("rejected"), "unexpected message: {msg}")
        }
        other => panic!("corrupt frame not refused: {other:?}"),
    }

    a.shutdown();
    a.join();
    b.shutdown();
    b.join();
}

#[test]
fn dcs_backend_end_to_end_over_the_socket() {
    use streaming_quantiles::sqs_core::codec::WireCodec;
    use streaming_quantiles::sqs_sketch::CountSketch;

    const LOG_U: u32 = 20;
    // One seed per tenant shared by every shard: the DCS is a linear
    // sketch, so same-draw shards merge counter-wise and snapshots are
    // state-identical to a single directly-fed structure.
    let mut cfg = ServerConfig::default();
    cfg.value_bound = Some(1u64 << LOG_U);
    let server = spawn(cfg, move |tenant, _shard| {
        TurnstileSummary::dcs(EPS, LOG_U, 0xDC5 ^ tenant)
    })
    .expect("ephemeral loopback bind");
    let tenant = 3u64;

    let mut client = connect(server.addr());
    let data = stream(tenant, 5)
        .into_iter()
        .map(|x| x % (1 << LOG_U))
        .collect::<Vec<_>>();
    for chunk in data.chunks(BATCH) {
        client.insert_batch(tenant, chunk).expect("insert batch");
    }

    // Out-of-universe inserts get an error reply, not a worker panic.
    let err = client
        .insert_batch(tenant, &[1u64 << LOG_U])
        .expect_err("out-of-universe value must be refused");
    assert!(matches!(err, ClientError::Server(_)), "got {err:?}");

    // Accuracy over the socket against the exact oracle.
    let oracle = ExactQuantiles::new(data.clone());
    let phis = probe_phis(EPS);
    let answers = client.query_quantiles(tenant, &phis).expect("sweep");
    for (phi, ans) in phis.iter().zip(answers) {
        let ans = ans.expect("tenant stream is non-empty");
        let err = oracle.quantile_error(*phi, ans);
        assert!(err <= EPS, "phi {phi}: rank error {err} > eps {EPS}");
    }

    // The SNAPSHOT frame decodes into a TurnstileSummary that is
    // state-identical to a single structure fed the whole stream.
    let frame = client.snapshot(tenant).expect("snapshot frame");
    let decoded =
        TurnstileSummary::<CountSketch>::from_bytes(&frame).expect("snapshot frame decodes");
    let mut direct = TurnstileSummary::dcs(EPS, LOG_U, 0xDC5 ^ tenant);
    direct.insert_batch(&data);
    assert_eq!(decoded, direct, "socket snapshot != directly-fed summary");

    server.shutdown();
    server.join();
}

#[test]
fn server_replies_with_errors_not_panics() {
    let server = test_server(31);
    let mut client = connect(server.addr());

    // φ outside (0, 1) → error reply, connection stays usable…
    let err = client
        .query_quantiles(1, &[1.5])
        .expect_err("phi out of range must be refused");
    assert!(matches!(err, ClientError::Server(_)), "got {err:?}");

    // …as proven by a well-formed follow-up on the same connection.
    assert_eq!(client.insert_batch(1, &[1, 2, 3]).expect("insert").n, 3);

    // Raw call with a malformed payload (not a multiple of 8).
    let err = client
        .call(Op::InsertBatch, 1, vec![0u8; 5])
        .expect_err("ragged payload must be refused");
    assert!(matches!(err, ClientError::Server(_)), "got {err:?}");

    server.shutdown();
    server.join();
}

/// A hostile `MERGE_SNAPSHOT` on a q-digest tenant — the sender picks
/// every field of the body and computes the frame checksum itself — gets
/// an error reply, never a worker panic or an allocation of the sender's
/// choosing, and the connection goes on answering.
#[test]
fn hostile_qdigest_snapshots_get_error_replies() {
    use streaming_quantiles::sqs_core::codec::{
        seal, WireCodec, KIND_QDIGEST, WIRE_MAGIC, WIRE_VERSION,
    };

    const LOG_U: u32 = 16;
    let mut cfg = ServerConfig::default();
    cfg.value_bound = Some(1u64 << LOG_U);
    let server =
        spawn(cfg, |_tenant, _shard| QDigest::new(EPS, LOG_U)).expect("ephemeral loopback bind");
    let mut client = connect(server.addr());
    let tenant = 5u64;
    let mut rows = client.insert_batch(tenant, &[1, 2, 3]).expect("insert").n;

    // A sealed kind-2 frame: the 32-byte q-digest header, then nodes.
    let frame = |sigma: u64, n: u64, count: u64, nodes: &[(u64, u64)]| {
        let mut body = 0x5144_4731u32.to_le_bytes().to_vec();
        body.extend_from_slice(&LOG_U.to_le_bytes());
        for word in [sigma, n, count] {
            body.extend_from_slice(&word.to_le_bytes());
        }
        for &(id, c) in nodes {
            body.extend_from_slice(&id.to_le_bytes());
            body.extend_from_slice(&c.to_le_bytes());
        }
        let mut frame = WIRE_MAGIC.to_vec();
        frame.extend_from_slice(&[WIRE_VERSION, KIND_QDIGEST, 0, 0]);
        frame.extend_from_slice(&(body.len() as u64).to_le_bytes());
        frame.extend_from_slice(&body);
        seal(&mut frame);
        frame
    };
    let sigma = QDigest::new(EPS, LOG_U).sigma();
    let leaf = |x: u64| (1u64 << LOG_U) + x;
    let two = [(leaf(3), 1), (leaf(9), 1)];
    let mut coarse = QDigest::new(4.0 * EPS, LOG_U);
    coarse.insert(9);
    let hostile = [
        (
            "count = u64::MAX",
            frame(sigma, 2, u64::MAX, &two),
            "rejected",
        ),
        (
            "count asks for gigabytes",
            frame(sigma, 2, 1 << 30, &two),
            "rejected",
        ),
        (
            "duplicated id",
            frame(sigma, 2, 2, &[(leaf(3), 1), (leaf(3), 1)]),
            "rejected",
        ),
        (
            "descending ids",
            frame(sigma, 2, 2, &[(leaf(9), 1), (leaf(3), 1)]),
            "rejected",
        ),
        ("σ = 0", frame(0, 2, 2, &two), "rejected"),
        ("σ = u64::MAX", frame(u64::MAX, 2, 2, &two), "rejected"),
        (
            // ⌊640/σ⌋ = 2 is all an internal node may count.
            "fat internal node",
            frame(sigma, 640, 2, &[(2, 500), (leaf(40_000), 140)]),
            "rejected",
        ),
        (
            "equal universe, coarser ε",
            WireCodec::to_bytes(&mut coarse),
            "accuracy configuration incompatible",
        ),
    ];
    for (what, payload, expected) in hostile {
        match client.merge_snapshot(tenant, payload) {
            Err(ClientError::Server(msg)) => {
                assert!(msg.contains(expected), "{what}: unexpected message: {msg}")
            }
            other => panic!("{what}: not refused: {other:?}"),
        }
        // The worker is alive and the tenant untouched.
        rows += 1;
        let ack = client.insert_batch(tenant, &[7]).expect("next request");
        assert_eq!(ack.n, rows, "after {what}");
    }

    server.shutdown();
    server.join();
}

/// A `MERGE_SNAPSHOT` whose DCS carries a counter its own live count
/// cannot account for: an honest 6-row `dcs(0.2, 12)` frame whose first
/// sketch counter is raised by 2⁶² (an even delta, so the rows still
/// agree in parity) and re-sealed. It used to decode, pass the audit
/// and report `n = 6`; absorbing it twice overflowed the counter add in
/// `CountSketch::merge_from` (a debug panic, a silent wrap in release).
/// `dyadic.sketch_level_mass` (Σ|C| ≤ live per sketched row) refuses it
/// at decode.
#[test]
fn hostile_dcs_counter_heavier_than_its_count_gets_an_error_reply() {
    use streaming_quantiles::sqs_core::codec::{seal, WireCodec};

    const LOG_U: u32 = 12;
    let mut cfg = ServerConfig::default();
    cfg.value_bound = Some(1u64 << LOG_U);
    let server = spawn(cfg, |_tenant, _shard| TurnstileSummary::dcs(0.2, LOG_U, 77))
        .expect("ephemeral loopback bind");
    let mut client = connect(server.addr());
    let tenant = 4u64;
    assert_eq!(
        client.insert_batch(tenant, &[1, 2, 3]).expect("insert").n,
        3
    );

    let mut honest = TurnstileSummary::dcs(0.2, LOG_U, 77);
    honest.insert_batch(&[5, 600, 1200, 1800, 2400, 3000]);
    let honest = honest.to_bytes();
    // Frame header (16), log_u (4), live (8), level 0's tag (1), width
    // and depth (16), 7 rows × 4 coefficients (224), counter count (8).
    let at = 16 + 4 + 8 + 1 + 16 + 7 * 32 + 8;
    let mut hostile = honest.clone();
    hostile.truncate(hostile.len() - 8);
    let mut word = [0u8; 8];
    word.copy_from_slice(&hostile[at..at + 8]);
    let heavy = i64::from_le_bytes(word) + (1 << 62);
    hostile[at..at + 8].copy_from_slice(&heavy.to_le_bytes());
    seal(&mut hostile);

    for _ in 0..2 {
        match client.merge_snapshot(tenant, hostile.clone()) {
            Err(ClientError::Server(msg)) => {
                assert!(msg.contains("dyadic.sketch_level_mass"), "{msg}")
            }
            other => panic!("not refused: {other:?}"),
        }
    }
    // The worker is alive, the tenant untouched, the honest frame welcome.
    assert_eq!(
        client.insert_batch(tenant, &[7]).expect("next request").n,
        4
    );
    assert_eq!(client.merge_snapshot(tenant, honest).expect("honest").n, 10);

    server.shutdown();
    server.join();
}

/// A `MERGE_SNAPSHOT` carrying an empty `dcs(0.05, 12)` frame whose
/// finest exact level has three counters at `i64::MAX`, re-sealed. The
/// audit's level-mass sum overflowed an `i64` and, in this overflow-
/// checked build, panicked the worker. It gets an error reply naming
/// `dyadic.exact_level_mass`, the tenant's `n` does not move, and the
/// connection goes on answering.
#[test]
fn hostile_dcs_exact_counters_at_i64_max_get_an_error_reply() {
    use streaming_quantiles::sqs_core::codec::{seal, WireCodec};

    const LOG_U: u32 = 12;
    let mut cfg = ServerConfig::default();
    cfg.value_bound = Some(1u64 << LOG_U);
    let server = spawn(cfg, |_tenant, _shard| TurnstileSummary::dcs(0.05, LOG_U, 5))
        .expect("ephemeral loopback bind");
    let mut client = connect(server.addr());
    let tenant = 6u64;
    assert_eq!(
        client.insert_batch(tenant, &[1, 2, 3]).expect("insert").n,
        3
    );

    let mut empty = TurnstileSummary::dcs(0.05, LOG_U, 5);
    let fe = (0..LOG_U)
        .find(|&l| empty.inner().is_exact_level(l))
        .expect("exact run");
    let mut hostile = empty.to_bytes();
    hostile.truncate(hostile.len() - 8);
    // Exact levels close the body: a tag, a count, then the counters.
    let tail: usize = (fe..LOG_U)
        .map(|l| 1 + 8 + 8 * (1usize << (LOG_U - l)))
        .sum();
    let at = hostile.len() - tail + 1 + 8;
    for c in 0..3 {
        hostile[at + 8 * c..at + 8 * c + 8].copy_from_slice(&i64::MAX.to_le_bytes());
    }
    seal(&mut hostile);

    match client.merge_snapshot(tenant, hostile) {
        Err(ClientError::Server(msg)) => assert!(msg.contains("dyadic.exact_level_mass"), "{msg}"),
        other => panic!("not refused: {other:?}"),
    }
    assert_eq!(
        client.insert_batch(tenant, &[7]).expect("next request").n,
        4
    );

    server.shutdown();
    server.join();
}

/// A `MERGE_SNAPSHOT` whose summary lies about its count: an honest
/// `RandomSketch` frame with `n` overwritten and the frame re-sealed
/// decodes and passes the audit (`Σ ≤ n` is all `random.mass_bound`
/// asks), and absorbing it would wrap the tenant's count — 100 rows +
/// (u64::MAX − 5) reads 94. It gets an error reply, the tenant's `n`
/// does not move, and the connection goes on answering.
#[test]
fn snapshot_claiming_a_wrapping_count_gets_an_error_reply() {
    use streaming_quantiles::sqs_core::codec::{seal, WireCodec};

    let server = test_server(23);
    let mut client = connect(server.addr());
    let tenant = 9u64;
    let rows: Vec<u64> = (0..100).collect();
    assert_eq!(client.insert_batch(tenant, &rows).expect("insert").n, 100);

    // Bytes 36..44 are the body's `n`: 16 of frame header, then ε (8),
    // h (4) and s (8).
    let claiming = |n: u64| {
        let mut honest = RandomSketch::new(EPS, 1);
        honest.insert_batch(&[1, 2, 3, 4, 5, 6]);
        let mut frame = WireCodec::to_bytes(&mut honest);
        frame.truncate(frame.len() - 8);
        frame[36..44].copy_from_slice(&n.to_le_bytes());
        seal(&mut frame);
        assert_eq!(
            RandomSketch::<u64>::from_bytes(&frame).map(|s| s.n()),
            Ok(n)
        );
        frame
    };
    for (at, n) in [u64::MAX - 5, i64::MAX as u64].into_iter().enumerate() {
        match client.merge_snapshot(tenant, claiming(n)) {
            Err(ClientError::Server(msg)) => {
                assert!(msg.contains("past i64::MAX"), "n = {n}: {msg}")
            }
            other => panic!("n = {n}: not refused: {other:?}"),
        }
        // The worker is alive and the tenant untouched.
        let ack = client.insert_batch(tenant, &[7]).expect("next request");
        assert_eq!(ack.n, 101 + at as u64, "after n = {n}");
    }
    // The same frame with its honest count is welcome.
    let ack = client.merge_snapshot(tenant, claiming(6)).expect("honest");
    assert_eq!(ack.n, 102 + 6);

    server.shutdown();
    server.join();
}

/// A `MERGE_SNAPSHOT` with the tenant's ε and somebody else's buffer
/// size: an honest frame whose `s` is raised a hundredfold and whose
/// partial buffer then holds 50·s samples decodes and passes the audit
/// (`random.buffer_size` is a lower bound, the buffer is within *its*
/// `s`). Absorbed, the tenant would hold a buffer fifty times its own
/// capacity and every peer would refuse its `SNAPSHOT`
/// (`buffers.buffer_overflow`). Compatibility is the pool's shape, so
/// it gets an error reply, the tenant's `n` does not move, its snapshot
/// still decodes, and the connection goes on answering.
#[test]
fn snapshot_with_the_tenants_eps_and_a_larger_buffer_size_gets_an_error_reply() {
    use streaming_quantiles::sqs_core::codec::{put_u64_slice, seal, WireCodec};

    let server = test_server(29);
    let mut client = connect(server.addr());
    let tenant = 11u64;
    let rows: Vec<u64> = (0..100).collect();
    assert_eq!(client.insert_batch(tenant, &rows).expect("insert").n, 100);

    let mut honest = RandomSketch::new(EPS, 1);
    honest.insert_batch(&[1, 2, 3, 4, 5, 6]);
    let s = honest.buffer_size() as u64;
    let honest = WireCodec::to_bytes(&mut honest);
    // Body length at 8..16; after the 16-byte header ε (8) and h (4),
    // then `s` at 28..36 and `n` at 36..44; fill index, sampler (33),
    // RNG (32) and buffer count end at 125; buffer 0 is level (4), full
    // flag (1) and, from 130, its six length-prefixed samples.
    let (at, old_len) = (130, 8 + 6 * 8);
    assert_eq!(honest[at..at + 8], 6u64.to_le_bytes());
    let samples: Vec<u64> = (0..50 * s).collect();
    let mut hostile = honest[..at].to_vec();
    put_u64_slice(&mut hostile, &samples);
    hostile.extend_from_slice(&honest[at + old_len..honest.len() - 8]);
    let body_len = (hostile.len() - 16) as u64;
    hostile[8..16].copy_from_slice(&body_len.to_le_bytes());
    hostile[28..36].copy_from_slice(&(100 * s).to_le_bytes());
    hostile[36..44].copy_from_slice(&(50 * s).to_le_bytes());
    seal(&mut hostile);
    let decoded = RandomSketch::<u64>::from_bytes(&hostile).expect("a lie the decoder cannot see");
    assert_eq!(
        (decoded.n(), decoded.buffer_size() as u64),
        (50 * s, 100 * s)
    );

    for _ in 0..2 {
        match client.merge_snapshot(tenant, hostile.clone()) {
            Err(ClientError::Server(msg)) => assert!(msg.contains("incompatible"), "{msg}"),
            other => panic!("not refused: {other:?}"),
        }
    }
    // The worker is alive, the tenant untouched and still exportable,
    // the honest frame welcome.
    assert_eq!(
        client.insert_batch(tenant, &[7]).expect("next request").n,
        101
    );
    let snapshot = client.snapshot(tenant).expect("snapshot");
    let exported = RandomSketch::<u64>::from_bytes(&snapshot).expect("the tenant's own frame");
    assert_eq!((exported.n(), exported.buffer_size() as u64), (101, s));
    assert_eq!(
        client.merge_snapshot(tenant, honest).expect("honest").n,
        107
    );

    server.shutdown();
    server.join();
}

#[test]
fn stats_reports_ingest_and_tenants() {
    let server = test_server(41);
    let mut client = connect(server.addr());
    client.insert_batch(3, &[5; 100]).expect("insert");
    client.insert_batch(4, &[6; 50]).expect("insert");
    let json = client.stats().expect("stats");
    assert!(json.contains("\"ingest_rows\": 150"), "stats: {json}");
    assert!(json.contains("\"tenants\": 2"), "stats: {json}");
    assert!(json.contains("\"insert_batch\""), "stats: {json}");
    // The engine aggregate rides along: the request-scoped ingest path
    // folds before replying, so every row is in a shard (items) and
    // each batch was one publication (epoch).
    assert!(json.contains("\"items\": 150"), "stats: {json}");
    assert!(json.contains("\"epoch\": 2"), "stats: {json}");
    let engine = json
        .split_once("\"engine\": {")
        .and_then(|(_, rest)| rest.split_once('}'))
        .map(|(section, _)| section)
        .expect("stats JSON has an engine section");
    let keys: Vec<&str> = engine.split('"').skip(1).step_by(2).collect();
    assert_eq!(
        keys,
        ["items", "epoch", "snapshots", "snapshot_cache_hits"],
        "stats: {json}"
    );
    server.shutdown();
    server.join();
}

/// Reads never create tenants: a client probing fresh ids through every
/// read op gets exactly the reply an empty tenant gives, and the
/// registry (`STATS.tenants`) does not grow.
#[test]
fn reads_on_unknown_tenants_register_nothing() {
    use streaming_quantiles::sqs_service::proto;
    let server = windowed_server(61);
    let mut client = connect(server.addr());
    client.insert_batch(1, &[1, 2, 3]).expect("insert");
    let tenants_before = "\"tenants\": 1,";
    assert!(client.stats().expect("stats").contains(tenants_before));

    let spec = WindowSpec::sliding(2_000_000_000);
    let reads = [
        (Op::QueryMany, proto::encode_query_many(&[0.5], &[7, 9])),
        (Op::Snapshot, Vec::new()),
        (Op::WindowQuery, proto::encode_window_query(spec, &[0.5])),
        (Op::WindowStats, Vec::new()),
    ];
    let mut replies = Vec::new();
    for round in 0..250u64 {
        for (i, (op, payload)) in reads.iter().enumerate() {
            let tenant = 1_000 + round * 4 + i as u64;
            let reply = client
                .call(*op, tenant, payload.clone())
                .expect("a read on an unknown tenant is answered");
            replies.push((*op, payload, tenant, reply));
        }
    }
    let json = client.stats().expect("stats");
    assert!(
        json.contains(tenants_before),
        "reads grew the registry: {json}"
    );

    // Byte for byte what a registered, empty tenant answers: register
    // each probed id with an empty write and ask again.
    for (op, payload, tenant, unregistered) in replies.iter().step_by(97) {
        client.insert_batch(*tenant, &[]).expect("empty insert");
        client
            .window_insert(*tenant, 5_000_000_000, &[])
            .expect("empty window insert");
        let registered = client.call(*op, *tenant, (*payload).clone()).expect("read");
        assert_eq!(&registered, unregistered, "{op:?} on tenant {tenant}");
    }
    server.shutdown();
    server.join();
}

/// A request under the 16 MiB cap whose reply is over it — 1.9 M φ make
/// a 15.2 MB request and a 17.1 MB answers block — is answered with an
/// error naming the size, and the connection goes on answering. (The
/// reply used to fail in `write_response`; the worker dropped the
/// socket and the client read `UnexpectedEof`.)
#[test]
fn reply_over_the_frame_cap_is_an_error_reply_on_a_live_connection() {
    let server = windowed_server(71);
    let mut client = connect(server.addr());
    let phis = vec![0.5; 1_900_000];
    let spec = WindowSpec::sliding(2_000_000_000);
    let wide_sweeps = [
        client.query_many(1, &phis, &[]).map(drop),
        client.window_query(1, spec, &phis).map(drop),
    ];
    for refused in wide_sweeps {
        match refused {
            Err(ClientError::Server(msg)) => {
                assert!(msg.contains("exceeds the 16777216-byte frame cap"), "{msg}")
            }
            other => panic!("oversized reply not refused: {other:?}"),
        }
    }
    assert_eq!(
        client.insert_batch(1, &[1, 2, 3]).expect("next request").n,
        3
    );
    let json = client.stats().expect("stats");
    assert!(json.contains("\"proto_errors\": 0"), "stats: {json}");
    server.shutdown();
    server.join();
}

/// The `SQSW` trailer is the only checksum over a `WINDOW_INSERT`: a
/// bit flipped inside the frame's value words gets an error reply,
/// reaches neither the ring nor the engine, and counts as one protocol
/// error.
#[test]
fn bit_flip_inside_a_window_insert_frame_is_refused_and_ingests_nothing() {
    use std::io::Write;
    use streaming_quantiles::sqs_service::proto::{self, Request, Status};

    let server = windowed_server(81);
    let mut client = connect(server.addr());
    let (tenant, now) = (6u64, 5_000_000_000);
    assert_eq!(
        client
            .window_insert(tenant, now, &[1, 2, 3])
            .expect("insert")
            .n,
        3
    );

    let mut frame = Vec::new();
    let req = Request {
        op: Op::WindowInsert,
        tenant,
        payload: proto::encode_window_insert(now, &[4, 5, 6]),
    };
    proto::write_request(&mut frame, &req).expect("frame fits");
    // Header (20), event time (8), count (8), then the first value.
    frame[proto::REQ_HEADER_LEN + 16] ^= 0x40;
    let mut raw = std::net::TcpStream::connect(server.addr()).expect("raw connect");
    raw.write_all(&frame).expect("send");
    let resp = proto::read_response(&mut raw).expect("an error reply, not a hang-up");
    assert_eq!(resp.status, Status::Err);
    let msg = String::from_utf8_lossy(&resp.payload);
    assert!(msg.contains("checksum"), "{msg}");

    assert_eq!(
        client.window_stats(tenant).expect("stats").ingested_items,
        3
    );
    assert_eq!(client.query_rank(tenant, u64::MAX).expect("rank"), 3);
    let json = client.stats().expect("stats");
    assert!(json.contains("\"proto_errors\": 1"), "stats: {json}");
    server.shutdown();
    server.join();
}

/// Every valid spec of a 256-bucket ring, sliding and tumbling, asked
/// between two rotations: each distinct spec would pin a merged summary
/// if the ring cached one per spec without bound. Every answer covers
/// the right range with the right mass, and the connection goes on
/// answering.
#[test]
fn a_storm_of_distinct_window_specs_is_answered_and_the_connection_lives() {
    use streaming_quantiles::sqs_service::server::WindowOptions;
    const SEC: u64 = 1_000_000_000;
    const RETENTION: u64 = 256;
    let clock = ManualClock::at(0);
    let server = spawn(
        ServerConfig {
            window: Some(WindowOptions::with_clock(
                WindowConfig::new(SEC, RETENTION),
                std::sync::Arc::new(clock.clone()),
            )),
            ..ServerConfig::default()
        },
        move |tenant, shard| RandomSketch::new(EPS, 91 ^ (tenant << 8) ^ shard as u64),
    )
    .expect("ephemeral loopback bind");
    let mut client = connect(server.addr());
    let (tenant, cur) = (4u64, 300u64);
    for idx in 0..=cur {
        clock.set(idx * SEC);
        let xs: Vec<u64> = (0..=idx % 3).map(|k| idx * 10 + k).collect();
        client
            .window_insert(tenant, idx * SEC, &xs)
            .expect("insert");
    }
    let rows_in = |lo: u64, hi: u64| (lo..=hi).map(|i| i % 3 + 1).sum::<u64>();
    let storm = (1..=RETENTION)
        .map(|m| (WindowSpec::sliding(m * SEC), cur + 1 - m, cur))
        .chain((1..=RETENTION / 2).map(|m| {
            let g = cur / m;
            (WindowSpec::tumbling(m * SEC), (g - 1) * m, g * m - 1)
        }));
    for (spec, lo, hi) in storm {
        let a = client
            .window_query(tenant, spec, &[0.5])
            .expect("valid spec");
        assert_eq!(
            (a.start_nanos, a.end_nanos, a.n),
            (lo * SEC, (hi + 1) * SEC, rows_in(lo, hi)),
            "{spec:?}"
        );
    }
    let stats = client.window_stats(tenant).expect("stats after the storm");
    assert_eq!(stats.queries, 384);
    let ack = client.insert_batch(tenant, &[1, 2, 3]).expect("insert");
    assert_eq!(
        ack.n,
        rows_in(0, cur) + 3,
        "the engine saw every window row"
    );
    let json = client.stats().expect("stats");
    assert!(json.contains("\"proto_errors\": 0"), "stats: {json}");
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_op_stops_the_server() {
    let server = test_server(51);
    let addr = server.addr();
    let mut client = connect(addr);
    client.insert_batch(1, &[1, 2, 3]).expect("insert");
    client.shutdown().expect("shutdown acknowledged");
    // join() returning proves every thread exited.
    server.join();
    // New connections must not be served any more.
    let refused = match Client::connect(addr, Duration::from_millis(500)) {
        Err(_) => true,
        Ok(mut c) => c.insert_batch(1, &[4]).is_err(),
    };
    assert!(refused, "server still serving after SHUTDOWN");
}
