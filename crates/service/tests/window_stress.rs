//! Windowed-quantile stress test over a real socket, driven by a
//! shared [`ManualClock`] — the acceptance test of the windowing
//! subsystem.
//!
//! A deterministic schedule of clock advances (including steps that
//! land *exactly* on bucket edges), timestamped batch inserts (with
//! deliberate late arrivals) and sliding/tumbling queries runs against
//! an in-process server. Every answer is checked against an **exact
//! per-window oracle** that replicates the documented placement
//! semantics (`docs/WINDOW.md`): accepted values live in the bucket
//! that was current when they *arrived*; values stamped before the
//! current bucket are dropped or routed per policy. Answers must stay
//! within the backend's ε rank error — the mergeable-summary guarantee
//! carried through bucket partials, rollups and the wire.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use sqs_core::qdigest::QDigest;
use sqs_core::random::RandomSketch;
use sqs_service::server::{spawn, ServerConfig, ServerHandle, WindowOptions};
use sqs_service::Client;
use sqs_util::clock::{Clock, ManualClock};
use sqs_util::exact::ExactQuantiles;
use sqs_util::rng::Xoshiro256pp;
use sqs_window::{LatePolicy, WindowConfig, WindowSpec};

const EPS: f64 = 0.05;
const BUCKET: u64 = 1_000_000_000; // 1 s
const RETENTION: u64 = 16;
const LOG_U: u32 = 20;
const TENANT: u64 = 3;
const PHIS: [f64; 5] = [0.1, 0.25, 0.5, 0.75, 0.9];

/// The oracle's replica of one tenant ring: raw values by the bucket
/// they *landed* in, plus the late-arrival ledger.
struct Oracle {
    buckets: BTreeMap<u64, Vec<u64>>,
    late_policy: LatePolicy,
    late_dropped: u64,
}

impl Oracle {
    fn new(late_policy: LatePolicy) -> Self {
        Self {
            buckets: BTreeMap::new(),
            late_policy,
            late_dropped: 0,
        }
    }

    /// Mirrors the ring's placement rule: everything accepted lands in
    /// the bucket that is current at *arrival*; late values follow the
    /// policy.
    fn ingest(&mut self, now: u64, ts: u64, xs: &[u64]) {
        let cur = now / BUCKET;
        if ts / BUCKET < cur {
            match self.late_policy {
                LatePolicy::Drop => {
                    self.late_dropped += xs.len() as u64;
                    return;
                }
                LatePolicy::RouteToCurrent => {}
            }
        }
        self.buckets.entry(cur).or_default().extend_from_slice(xs);
    }

    /// Exact values inside the spec's covered bucket range at `now`
    /// (replicating the ring's range arithmetic).
    fn window_values(&self, now: u64, spec: WindowSpec) -> Option<Vec<u64>> {
        let cur = now / BUCKET;
        let m = spec.len_nanos / BUCKET;
        let (lo, hi) = match spec.kind {
            sqs_window::WindowKind::Sliding => ((cur + 1).saturating_sub(m), cur),
            sqs_window::WindowKind::Tumbling => {
                let g = cur / m;
                if g == 0 {
                    return None;
                }
                ((g - 1) * m, g * m - 1)
            }
        };
        let mut vals = Vec::new();
        for (_, xs) in self.buckets.range(lo..=hi) {
            vals.extend_from_slice(xs);
        }
        Some(vals)
    }
}

fn windowed_config(clock: &ManualClock, late_policy: LatePolicy) -> ServerConfig {
    ServerConfig {
        window: Some(WindowOptions::with_clock(
            WindowConfig {
                bucket_nanos: BUCKET,
                retention_buckets: RETENTION,
                rollup_factor: 4,
                late_policy,
            },
            Arc::new(clock.clone()),
        )),
        ..ServerConfig::default()
    }
}

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::connect(addr, Duration::from_secs(10)).expect("loopback connect")
}

/// Checks every φ of one server answer against the exact oracle.
fn assert_within_eps(answer: &sqs_window::WindowAnswer, exact: &[u64], ctx: &str) {
    assert_eq!(answer.n, exact.len() as u64, "{ctx}: window mass");
    if exact.is_empty() {
        assert!(
            answer.answers.iter().all(Option::is_none),
            "{ctx}: empty window answered Some"
        );
        return;
    }
    let oracle = ExactQuantiles::new(exact.to_vec());
    for (phi, ans) in PHIS.iter().zip(&answer.answers) {
        let ans = ans.expect("non-empty window answers every phi");
        let err = oracle.quantile_error(*phi, ans);
        assert!(err <= EPS, "{ctx}: phi {phi}: rank error {err} > eps {EPS}");
    }
}

/// The deterministic stress schedule, shared by both backends: returns
/// `(advance_nanos, late_ts_offset)` pairs per step. Steps 3, 7, 11,
/// ... land exactly on bucket edges; every 5th step also sends a late
/// batch stamped two buckets back.
fn drive<S>(server: &ServerHandle<S>, clock: &ManualClock, late_policy: LatePolicy, seed: u64)
where
    S: sqs_core::MergeableSummary<u64> + sqs_core::codec::WireCodec + Clone + Send + Sync + 'static,
{
    let mut client = connect(server.addr());
    let mut oracle = Oracle::new(late_policy);
    let mut rng = Xoshiro256pp::new(seed);
    let sliding_specs = [
        WindowSpec::sliding(BUCKET),
        WindowSpec::sliding(4 * BUCKET),
        WindowSpec::sliding(8 * BUCKET),
    ];
    let tumbling = WindowSpec::tumbling(4 * BUCKET);

    for step in 0..40u64 {
        // Advance: odd steps move mid-bucket, every 4th step lands
        // exactly on the next bucket edge (the boundary case).
        let now = clock.now_nanos();
        let delta = if step % 4 == 3 {
            BUCKET - (now % BUCKET) // exactly onto the edge
        } else {
            (rng.next_below(BUCKET / 2)).max(1)
        };
        clock.advance(delta);
        let now = clock.now_nanos();

        // On-time batch stamped "now".
        let batch: Vec<u64> = (0..200).map(|_| rng.next_below(1 << LOG_U)).collect();
        client
            .window_insert(TENANT, now, &batch)
            .expect("window insert");
        oracle.ingest(now, now, &batch);

        // Every 5th step: a late batch stamped two buckets back.
        if step % 5 == 0 && now >= 2 * BUCKET {
            let late_ts = now - 2 * BUCKET;
            let late: Vec<u64> = (0..50).map(|_| rng.next_below(1 << LOG_U)).collect();
            client
                .window_insert(TENANT, late_ts, &late)
                .expect("late window insert");
            oracle.ingest(now, late_ts, &late);
        }

        // Interleaved queries: every sliding span plus the tumbling
        // window, each checked against the exact oracle.
        for spec in sliding_specs {
            let answer = client
                .window_query(TENANT, spec, &PHIS)
                .expect("sliding query");
            let exact = oracle
                .window_values(now, spec)
                .expect("sliding windows always cover");
            assert_within_eps(&answer, &exact, &format!("step {step} sliding {spec:?}"));
        }
        let answer = client
            .window_query(TENANT, tumbling, &PHIS)
            .expect("tumbling query");
        match oracle.window_values(now, tumbling) {
            Some(exact) => {
                assert_within_eps(&answer, &exact, &format!("step {step} tumbling"));
            }
            None => {
                assert_eq!(answer.n, 0, "step {step}: no completed tumbling window yet");
            }
        }
    }

    // The ring's ledger must agree with the oracle's.
    let stats = client.window_stats(TENANT).expect("window stats");
    match late_policy {
        LatePolicy::Drop => {
            assert_eq!(stats.late_dropped, oracle.late_dropped, "late drop ledger");
            assert_eq!(stats.late_routed, 0);
        }
        LatePolicy::RouteToCurrent => {
            assert_eq!(stats.late_dropped, 0);
            assert!(stats.late_routed > 0, "schedule sent late batches");
        }
    }
    assert!(stats.buckets_rotated > 0, "schedule crossed bucket edges");
    assert!(stats.queries > 0);
    assert!(
        stats.rollup_hits > 0,
        "8-bucket spans over sealed groups must hit rollups"
    );

    // Identical back-to-back queries with no mutation in between are
    // served from the version-keyed merge cache.
    let before = client.window_stats(TENANT).expect("stats").cache_hits;
    let spec = WindowSpec::sliding(8 * BUCKET);
    let a = client.window_query(TENANT, spec, &PHIS).expect("q1");
    let b = client.window_query(TENANT, spec, &PHIS).expect("q2");
    assert_eq!(a.n, b.n);
    let after = client.window_stats(TENANT).expect("stats").cache_hits;
    assert!(after > before, "repeat query must hit the merge cache");

    // The all-time engine saw every value the window layer dropped:
    // under Drop the engine's n exceeds the ring's ingested total by
    // exactly the dropped mass.
    let json = client.stats().expect("stats json");
    assert!(
        json.contains("\"window\""),
        "STATS must gain a window section"
    );
    assert!(json.contains("\"late_dropped\""));
    client.shutdown().expect("shutdown op");
}

#[test]
fn sliding_and_tumbling_match_exact_oracle_random_backend() {
    let clock = ManualClock::new();
    let cfg = windowed_config(&clock, LatePolicy::Drop);
    let server = spawn(cfg, move |tenant, shard| {
        RandomSketch::new(EPS, 0xA11CE ^ (tenant << 8) ^ shard as u64)
    })
    .expect("ephemeral loopback bind");
    drive(&server, &clock, LatePolicy::Drop, 0xDEC0DE);
    server.join();
}

#[test]
fn sliding_and_tumbling_match_exact_oracle_qdigest_backend() {
    let clock = ManualClock::new();
    let mut cfg = windowed_config(&clock, LatePolicy::RouteToCurrent);
    cfg.value_bound = Some(1u64 << LOG_U);
    let server = spawn(cfg, move |_tenant, _shard| QDigest::new(EPS, LOG_U))
        .expect("ephemeral loopback bind");
    drive(&server, &clock, LatePolicy::RouteToCurrent, 0xC0FFEE);
    server.join();
}

/// The cache's hit path over the socket: one connection alternates an
/// insert with the same sliding and tumbling specs, eight rounds per
/// bucket. Inserts land in the open bucket only, so between rotations
/// both specs answer from their cached sealed merge — and every answer
/// still matches the exact oracle.
#[test]
fn repeated_specs_between_inserts_hit_the_sealed_merge() {
    const ROUNDS: u64 = 48;
    const ROUNDS_PER_BUCKET: u64 = 8;
    let clock = ManualClock::new();
    let server = spawn(
        windowed_config(&clock, LatePolicy::Drop),
        move |tenant, shard| RandomSketch::new(EPS, 0x5EA1 ^ (tenant << 8) ^ shard as u64),
    )
    .expect("ephemeral loopback bind");
    let mut client = connect(server.addr());
    let mut oracle = Oracle::new(LatePolicy::Drop);
    let mut rng = Xoshiro256pp::new(0x417);
    let specs = [
        WindowSpec::sliding(8 * BUCKET),
        WindowSpec::tumbling(4 * BUCKET),
    ];
    // Ten buckets of history first, so both specs cover sealed buckets.
    for _ in 0..10 {
        let now = clock.now_nanos();
        let batch: Vec<u64> = (0..200).map(|_| rng.next_below(1 << LOG_U)).collect();
        client.window_insert(TENANT, now, &batch).expect("insert");
        oracle.ingest(now, now, &batch);
        clock.advance(BUCKET);
    }
    let before = client.window_stats(TENANT).expect("stats").cache_hits;
    for round in 0..ROUNDS {
        if round % ROUNDS_PER_BUCKET == ROUNDS_PER_BUCKET - 1 {
            clock.advance(BUCKET);
        }
        let now = clock.now_nanos();
        let batch: Vec<u64> = (0..50).map(|_| rng.next_below(1 << LOG_U)).collect();
        client.window_insert(TENANT, now, &batch).expect("insert");
        oracle.ingest(now, now, &batch);
        for spec in specs {
            let answer = client.window_query(TENANT, spec, &PHIS).expect("query");
            let exact = oracle
                .window_values(now, spec)
                .expect("past the first span");
            assert_within_eps(&answer, &exact, &format!("round {round} {spec:?}"));
        }
    }
    let hits = client.window_stats(TENANT).expect("stats").cache_hits - before;
    let queries = ROUNDS * specs.len() as u64;
    assert!(
        hits >= queries * 3 / 4,
        "{hits} of {queries} queries reused their sealed merge"
    );
    client.shutdown().expect("shutdown op");
    server.join();
}

#[test]
fn window_ops_refused_without_window_config() {
    let server = spawn(ServerConfig::default(), move |tenant, shard| {
        RandomSketch::new(EPS, (tenant << 8) ^ shard as u64)
    })
    .expect("ephemeral loopback bind");
    let mut client = connect(server.addr());
    // The classic path still works...
    client.insert_batch(1, &[1, 2, 3]).expect("plain insert");
    // ...but every WINDOW_* op is refused with a clear error.
    let err = client
        .window_insert(1, 0, &[4])
        .expect_err("window insert must be refused");
    assert!(err.to_string().contains("windowing disabled"), "{err}");
    assert!(client
        .window_query(1, WindowSpec::sliding(1), &[0.5])
        .is_err());
    assert!(client.window_stats(1).is_err());
    // And STATS omits the window section entirely.
    let json = client.stats().expect("stats json");
    assert!(!json.contains("\"window\""));
    server.shutdown();
    server.join();
}
