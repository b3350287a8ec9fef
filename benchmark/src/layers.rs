//! The layer battery: every layer measured from outside, by timing
//! calls into its public functions on twins built for the purpose.
//!
//! A traced run of any workload runs the whole battery, on fixed
//! shapes (the service workloads' ε, universe, frame sizes and φ set),
//! so a change to one layer moves that layer's numbers in every traced
//! run and the end-to-end numbers only of the workloads that use it.

use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqs_core::codec::WireCodec;
use sqs_core::random::RandomSketch;
use sqs_core::QuantileSummary;
use sqs_engine::ShardedEngine;
use sqs_service::proto::{self, IngestAck, Op, Request, Response, Status};
use sqs_service::server::{spawn, ServerConfig};
use sqs_service::Client;
use sqs_sketch::{CountSketch, FrequencySketch};
use sqs_store::{DurableStore, FsyncPolicy, StoreConfig};
use sqs_turnstile::TurnstileSummary;
use sqs_util::clock::ManualClock;
use sqs_util::hash::{fold_to_field, FourwiseHash, PairwiseHash};
use sqs_util::rng::Xoshiro256pp;
use sqs_window::{WindowConfig, WindowSpec, WindowedEngine};

use crate::gen::{derive_seed, Stream};
use crate::report::{Outcome, RunOpts};
use crate::service::{random_factory, recovery_drill};
use crate::suite;
use crate::trace::median;
use crate::workloads::{
    BUCKET_NANOS, EPS, LOG_U, POOL, QUERY_PHIS, QUERY_RANKS, RETENTION_BUCKETS, WINDOW_PHIS,
};

/// Rows per frame of the write-side kernels (an `INSERT_BATCH` frame).
const FRAME: usize = 4096;
/// Rows of the small write that invalidates a cache before a read.
const SMALL_FRAME: usize = 256;
const SHARDS: usize = 4;
const BATCH_CAPACITY: usize = 1024;

/// Median over `reps` calls of `f` of the nanoseconds `f` reports.
fn median_ns(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let ns: Vec<f64> = (0..reps).map(|_| f().as_nanos() as f64).collect();
    median(&ns)
}

fn timed<R>(f: impl FnOnce() -> R) -> Duration {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed()
}

/// Runs the battery. `with_suite` adds one pass of the paper suite for
/// the per-algorithm metrics; the suite workload brings its own.
pub fn run(
    opts: &RunOpts,
    scratch: &Path,
    with_suite: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let pool = Stream::uniform(derive_seed(opts.seed, 0x1a7e2), POOL, 1 << LOG_U);
    service(&pool, out)?;
    engine_and_core(&pool, out);
    turnstile_sketch_util(&pool, out);
    store(&pool, opts, scratch, out)?;
    window(&pool, out);
    if !with_suite {
        return Ok(());
    }
    let stream = Stream::uniform(
        derive_seed(opts.seed, 0x5017e),
        suite::ROWS,
        1 << suite::LOG_U,
    );
    let passes = suite::run_passes(&stream, opts.seed, 0.0, None);
    passes.check(out);
    passes.algo_metrics(out);
    Ok(())
}

/// Frame encode, checksum, read and decode, on `Vec`s; and the floor of
/// a socket round trip.
fn service(pool: &Stream, out: &mut Outcome) -> Result<(), String> {
    let xs = pool.frame(0, FRAME);
    let encode = || {
        let mut wire = Vec::new();
        let req = Request {
            op: Op::InsertBatch,
            tenant: 1,
            payload: proto::encode_u64s(xs),
        };
        proto::write_request(&mut wire, &req).expect("frame fits");
        wire
    };
    let wire = encode();
    out.metric(
        "service.encode_req_ns_per_row",
        median_ns(200, || timed(encode)) / FRAME as f64,
    );
    out.metric(
        "service.decode_req_ns_per_row",
        median_ns(200, || {
            timed(|| {
                let req = proto::read_request(&mut wire.as_slice())
                    .expect("valid")
                    .expect("one frame");
                proto::decode_u64s(&req.payload).expect("valid")
            })
        }) / FRAME as f64,
    );
    let answers: Vec<Option<u64>> = QUERY_RANKS
        .iter()
        .cycle()
        .take(QUERY_PHIS.len())
        .map(|&x| Some(x))
        .collect();
    let reply = |payload: Vec<u8>| {
        let mut wire = Vec::new();
        let resp = Response {
            status: Status::Ok,
            payload,
        };
        proto::write_response(&mut wire, &resp).expect("frame fits");
        proto::read_response(&mut wire.as_slice())
            .expect("valid")
            .payload
    };
    out.metric(
        "service.reply_codec_us",
        median_ns(2000, || {
            timed(|| {
                let ack = reply(proto::encode_ingest_ack(IngestAck { n: 1 << 30, seq: 7 }));
                let many = reply(proto::encode_query_many_reply(&answers, &QUERY_RANKS));
                (
                    proto::decode_ingest_ack(&ack).expect("valid"),
                    proto::decode_query_many_reply(&many).expect("valid"),
                )
            })
        }) / 1e3,
    );

    let factory = random_factory();
    let server = spawn(ServerConfig::default(), move |t, s| factory(t, s))
        .map_err(|e| format!("spawn: {e}"))?;
    let mut client = Client::connect(server.addr(), Duration::from_secs(30))
        .map_err(|e| format!("connect: {e}"))?;
    let floor = client
        .insert_batch(1, &[42])
        .map_err(|e| e.to_string())
        .map(|_| {
            median_ns(4000, || {
                timed(|| client.query_rank(1, 42).expect("rank query"))
            })
        });
    drop(client);
    server.shutdown();
    server.join();
    out.metric("service.rtt_floor_us", floor? / 1e3);
    Ok(())
}

fn random_engine() -> ShardedEngine<u64, RandomSketch<u64>> {
    let factory = random_factory();
    ShardedEngine::new_with(SHARDS, BATCH_CAPACITY, |shard| factory(1, shard))
}

/// The engine's request-scoped ingest and its read path, against the
/// summary calls underneath them on a twin sketch.
fn engine_and_core(pool: &Stream, out: &mut Outcome) {
    let engine = random_engine();
    let mut sketch = random_factory()(1, 0);
    let frames = (POOL / FRAME) as u64;
    for j in 0..frames {
        engine.ingest_batch(pool.frame(j, FRAME));
        if j % SHARDS as u64 == 0 {
            sketch.insert_batch(pool.frame(j, FRAME));
        }
    }
    let mut j = frames;
    let mut next = |rows: usize| {
        j += 1;
        pool.frame(j, rows)
    };
    let ingest = median_ns(512, || {
        let xs = next(FRAME);
        timed(|| engine.ingest_batch(xs))
    }) / FRAME as f64;
    let insert = median_ns(512, || {
        let xs = next(FRAME);
        timed(|| sketch.insert_batch(xs))
    }) / FRAME as f64;
    let clone_ns = median_ns(512, || timed(|| sketch.clone()));
    out.metric("engine.ingest_batch_ns_per_row", ingest);
    out.metric("core.insert_batch_ns_per_row", insert);
    out.metric("core.clone_us", clone_ns / 1e3);
    out.metric(
        "engine.self_ns_per_row",
        ingest - insert - clone_ns / FRAME as f64,
    );

    out.metric(
        "engine.snapshot_us",
        median_ns(200, || {
            engine.ingest_batch(next(SMALL_FRAME));
            timed(|| engine.snapshot())
        }) / 1e3,
    );
    out.metric(
        "engine.query_many_cold_us",
        median_ns(200, || {
            engine.ingest_batch(next(SMALL_FRAME));
            timed(|| engine.query_many(&QUERY_PHIS, &QUERY_RANKS))
        }) / 1e3,
    );
    out.metric(
        "engine.query_many_warm_us",
        median_ns(200, || {
            timed(|| engine.query_many(&QUERY_PHIS, &QUERY_RANKS))
        }) / 1e3,
    );

    // Reads racing a writer: what the seqlock cut pays under contention.
    let before = engine.stats();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut j = 0;
            while !stop.load(Ordering::Relaxed) {
                engine.ingest_batch(pool.frame(j, SMALL_FRAME));
                j += 1;
            }
        });
        for _ in 0..2000 {
            std::hint::black_box(engine.query_many(&QUERY_PHIS, &QUERY_RANKS));
        }
        stop.store(true, Ordering::Relaxed);
    });
    let after = engine.stats();
    out.metric(
        "engine.snapshot_retries",
        (after.snapshot_retries - before.snapshot_retries) as f64,
    );
    out.metric(
        "engine.snapshots_torn",
        (after.snapshots_torn - before.snapshots_torn) as f64,
    );

    let merged = engine.snapshot();
    let shard_a = sketch.clone();
    out.metric(
        "core.merge_from_us",
        median_ns(200, || {
            let (mut a, b) = (shard_a.clone(), sketch.clone());
            timed(move || {
                a.merge_from(b);
                a
            })
        }) / 1e3,
    );
    out.metric(
        "core.quantiles_us",
        median_ns(200, || {
            let mut s = merged.clone();
            timed(move || s.quantiles(&QUERY_PHIS))
        }) / 1e3,
    );
    let mut to_encode = merged.clone();
    let frame = WireCodec::to_bytes(&mut to_encode);
    out.metric(
        "core.codec_encode_us",
        median_ns(200, || timed(|| WireCodec::to_bytes(&mut to_encode))) / 1e3,
    );
    out.metric(
        "core.codec_decode_us",
        median_ns(200, || {
            timed(|| RandomSketch::<u64>::from_bytes(&frame).expect("own frame"))
        }) / 1e3,
    );
}

/// The dyadic Count-Sketch summary of `turnstile_mix`, one of its
/// levels on its own, and the hash kernels under that.
fn turnstile_sketch_util(pool: &Stream, out: &mut Outcome) {
    let mut dcs = TurnstileSummary::dcs(EPS, LOG_U, 0xdc5);
    for j in 0..64 {
        dcs.insert_batch(pool.frame(j, FRAME));
    }
    let mut j = 64;
    out.metric(
        "turnstile.insert_batch_ns_per_row",
        median_ns(64, || {
            j += 1;
            let xs = pool.frame(j, FRAME);
            timed(|| dcs.insert_batch(xs))
        }) / FRAME as f64,
    );
    out.metric(
        "turnstile.quantiles_us",
        median_ns(64, || timed(|| dcs.quantiles(&QUERY_PHIS))) / 1e3,
    );
    out.metric(
        "turnstile.rank_batch_us",
        median_ns(200, || timed(|| QUERY_RANKS.map(|x| dcs.rank_estimate(x)))) / 1e3,
    );

    // One level of that structure: w = √(log u)/ε counters, d = 7 rows.
    let width = (f64::from(LOG_U).sqrt() / EPS).ceil() as usize;
    let mut rng = Xoshiro256pp::new(0x5ce7c4);
    let mut level = CountSketch::new(width, 7, &mut rng);
    let keys = pool.frame(0, FRAME);
    let updates: Vec<(u64, i64)> = keys.iter().map(|&k| (k, 1)).collect();
    out.metric(
        "sketch.update_batch_ns_per_key",
        median_ns(200, || timed(|| level.update_batch(&updates))) / FRAME as f64,
    );
    let mut estimates = vec![0i64; FRAME];
    out.metric(
        "sketch.estimate_batch_ns_per_key",
        median_ns(200, || timed(|| level.estimate_batch(keys, &mut estimates))) / FRAME as f64,
    );

    let folded: Vec<u64> = keys.iter().map(|&k| fold_to_field(k)).collect();
    let bucket = PairwiseHash::new(&mut rng, width as u64);
    let sign = FourwiseHash::new(&mut rng);
    let mut buckets = vec![0u64; FRAME];
    let mut signs = vec![0i64; FRAME];
    out.metric(
        "util.bucket_hash_ns_per_key",
        median_ns(2000, || {
            timed(|| {
                bucket.hash_folded_batch(&folded, &mut buckets);
                buckets[0]
            })
        }) / FRAME as f64,
    );
    out.metric(
        "util.sign_hash_ns_per_key",
        median_ns(2000, || {
            timed(|| {
                sign.sign_folded_batch(&folded, &mut signs);
                signs[0]
            })
        }) / FRAME as f64,
    );
}

/// WAL append with and without the fsync, checkpoint write, and replay
/// speed at restart.
fn store(pool: &Stream, opts: &RunOpts, scratch: &Path, out: &mut Outcome) -> Result<(), String> {
    let open = |name: &str, fsync: FsyncPolicy| {
        let cfg = StoreConfig {
            dir: scratch.join(name),
            segment_bytes: 64 << 20,
            fsync,
        };
        DurableStore::open(&cfg)
            .map(|(store, _)| store)
            .map_err(|e| e.to_string())
    };
    let append_us = |store: &DurableStore| -> Result<f64, String> {
        let handle = store.tenant(1);
        let mut ns = Vec::new();
        for j in 0..96 {
            let xs = pool.frame(j, FRAME);
            let _gate = handle.lock();
            let t = Instant::now();
            store.append_batch(1, xs).map_err(|e| e.to_string())?;
            ns.push(t.elapsed().as_nanos() as f64);
        }
        Ok(median(&ns) / 1e3)
    };
    let plain = append_us(&open("battery-wal-never", FsyncPolicy::Never)?)?;
    let synced_store = open("battery-wal-always", FsyncPolicy::Always)?;
    let synced = append_us(&synced_store)?;
    out.metric("store.append_us", plain);
    out.metric("store.append_fsync_us", synced);
    out.metric("store.fsync_share", 1.0 - plain / synced);
    let s = synced_store.stats();
    out.metric(
        "store.wal_bytes_per_row",
        s.bytes_appended as f64 / s.items_appended as f64,
    );
    out.metric(
        "store.fsyncs_per_record",
        s.fsyncs as f64 / s.records_appended as f64,
    );

    // A checkpoint of a tenant's merged summary, as the background
    // checkpointer writes it.
    let engine = random_engine();
    for j in 0..(POOL / FRAME) as u64 {
        engine.ingest_batch(pool.frame(j, FRAME));
    }
    let mut snapshot = engine.snapshot();
    let frame = WireCodec::to_bytes(&mut snapshot);
    let mut ns = Vec::new();
    for i in 1..=12 {
        let t = Instant::now();
        synced_store
            .record_checkpoint(1, s.last_seq + i, engine.n(), &frame)
            .map_err(|e| e.to_string())?;
        ns.push(t.elapsed().as_nanos() as f64);
    }
    out.metric("store.checkpoint_write_us", median(&ns) / 1e3);

    let drill = recovery_drill(
        &scratch.join("battery-drill"),
        &random_factory(),
        opts.seed,
        FsyncPolicy::Never,
        POOL as u64,
    );
    let drill = drill.map_err(|e| format!("battery recovery drill: {e}"))?;
    out.metric(
        "store.recovery_rows_per_s",
        drill.rows as f64 / drill.respawn_secs,
    );
    Ok(())
}

/// The window ring on a hand-cranked clock, full to its retention.
fn window(pool: &Stream, out: &mut Outcome) {
    const ROWS: usize = 1024;
    const FRAMES_PER_BUCKET: u64 = 16;
    let clock = ManualClock::at(1000 * BUCKET_NANOS);
    let factory = random_factory();
    let bucket_factory = Arc::clone(&factory);
    let ring = WindowedEngine::new(
        Arc::new(random_engine()),
        WindowConfig::new(BUCKET_NANOS, RETENTION_BUCKETS),
        Arc::new(clock.clone()),
        move |bucket| bucket_factory(1, (1 << 20) + (bucket % 1021) as usize),
    );
    let mut j = 0u64;
    let mut ingest = |ring: &WindowedEngine<RandomSketch<u64>>, clock: &ManualClock| {
        j += 1;
        let now = sqs_util::clock::Clock::now_nanos(clock);
        let xs = pool.frame(j, ROWS);
        timed(|| ring.ingest_window_only(now, xs))
    };
    for _ in 0..RETENTION_BUCKETS + 64 {
        for _ in 0..FRAMES_PER_BUCKET {
            ingest(&ring, &clock);
        }
        clock.advance(BUCKET_NANOS);
    }
    out.metric(
        "window.ingest_ns_per_row",
        median_ns(512, || ingest(&ring, &clock)) / ROWS as f64,
    );
    out.metric(
        "window.rotate_us",
        median_ns(64, || {
            for _ in 0..FRAMES_PER_BUCKET {
                ingest(&ring, &clock);
            }
            clock.advance(BUCKET_NANOS);
            timed(|| ring.stats())
        }) / 1e3,
    );
    for (name, spec) in [
        (
            "window.query_sliding8_us",
            WindowSpec::sliding(8 * BUCKET_NANOS),
        ),
        (
            "window.query_sliding64_us",
            WindowSpec::sliding(64 * BUCKET_NANOS),
        ),
        (
            "window.query_tumbling16_us",
            WindowSpec::tumbling(16 * BUCKET_NANOS),
        ),
    ] {
        let ns = median_ns(96, || {
            // A write ticks the ring version: the query rebuilds its merge.
            ingest(&ring, &clock);
            timed(|| ring.query(spec, &WINDOW_PHIS).expect("spec fits the ring"))
        });
        out.metric(name, ns / 1e3);
    }
}
