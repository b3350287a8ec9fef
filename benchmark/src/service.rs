//! Runs one service workload end to end: set-up, warm-up, the timed
//! closed loop, the correctness checks, and — in a traced run — the
//! in-process replay that splits a request's time between the layers.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sqs_core::codec::WireCodec;
use sqs_core::random::RandomSketch;
use sqs_core::MergeableSummary;
use sqs_service::proto::IngestAck;
use sqs_service::server::{spawn, DurabilityConfig, ServerConfig, ServerHandle, WindowOptions};
use sqs_service::Client;
use sqs_store::{DurableStore, FsyncPolicy, StoreConfig};
use sqs_turnstile::TurnstileSummary;
use sqs_util::clock::{Clock, ManualClock};
use sqs_util::rng::SplitMix64;
use sqs_window::{WindowAnswer, WindowConfig, WindowSpec, WindowStats};

use crate::gen::{derive_seed, Oracle, Stream};
use crate::json::Value;
use crate::report::{Outcome, RunOpts};
use crate::target::{ManyAnswer, Target, Twin};
use crate::trace::{self, median, quantile, Recorder, Samples};
use crate::workloads::{
    preload, sweep_tenant, Backend, ClientRun, Inputs, PhaseStats, SliceStats, Spec, BUCKET_NANOS,
    CLIENTS, CLOCK_START_NANOS, EPS, LOG_U, POOL, PRELOAD_ROWS, RETENTION_BUCKETS, SLICE,
};

/// Set-up is repeated and its median reported, so that one slow spawn
/// or page fault does not decide `setup_s`.
const SETUP_REPEATS: usize = 9;
const WARMUP: Duration = Duration::from_secs(2);
/// How often the durable server scans for tenants to checkpoint.
const CHECKPOINT_INTERVAL: Duration = Duration::from_secs(1);
/// Rows and frames of the recovery drill that ends `ingest_durable`.
const DRILL_ROWS: u64 = 1 << 22;
const DRILL_FRAME: usize = 4096;
/// Requests per client the traced replay records spans for.
const REPLAY_REQUESTS: u64 = 1024;
/// The server's own seed: its sketches draw from it, never from `--seed`.
const SERVER_SEED: u64 = 0x5e12_7e12;

type Factory<S> = Arc<dyn Fn(u64, usize) -> S + Send + Sync>;

fn shard_seed(tenant: u64, shard: usize) -> u64 {
    SplitMix64::new(SERVER_SEED ^ tenant.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ shard as u64)
        .next_u64()
}

pub fn random_factory() -> Factory<RandomSketch<u64>> {
    Arc::new(|tenant, shard| RandomSketch::new(EPS, shard_seed(tenant, shard)))
}

/// One seed per tenant, shared by its shards: same-draw dyadic
/// Count-Sketches merge counter-wise (as `sqs-serve --backend dcs`).
pub fn dcs_factory() -> Factory<TurnstileSummary<sqs_sketch::CountSketch>> {
    Arc::new(|tenant, _shard| TurnstileSummary::dcs(EPS, LOG_U, shard_seed(tenant, 0)))
}

pub fn run(spec: &Spec, opts: &RunOpts) -> Result<Outcome, String> {
    match spec.backend {
        Backend::Random => run_with(spec, opts, random_factory()),
        Backend::Dcs => run_with(spec, opts, dcs_factory()),
    }
}

/// Removes the run's scratch directory when the run ends, however it
/// ends.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn create(opts: &RunOpts, name: &str) -> Result<Self, String> {
        let dir = opts
            .out_dir
            .join(format!("run-{name}-{}-{}", opts.seed, std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Product defaults (4 workers, 4 shards, queue 64, batch capacity
/// 1024) plus what the workload turns on.
fn server_config(
    spec: &Spec,
    data_dir: Option<&Path>,
    clock: Option<&ManualClock>,
) -> ServerConfig {
    let mut cfg = ServerConfig {
        // A connection sits idle while the other client's answers are
        // checked; the default 5 s idle cut-off could close it on a
        // slow box.
        read_timeout: Duration::from_secs(60),
        ..ServerConfig::default()
    };
    if spec.backend == Backend::Dcs {
        cfg.value_bound = Some(1 << LOG_U);
    }
    if let Some(dir) = data_dir {
        let mut d = DurabilityConfig::new(dir);
        d.fsync = FsyncPolicy::Always;
        d.checkpoint_interval = CHECKPOINT_INTERVAL;
        cfg.durability = Some(d);
    }
    if let Some(clock) = clock {
        let mut w = WindowConfig::new(BUCKET_NANOS, RETENTION_BUCKETS);
        w.rollup_factor = 8;
        cfg.window = Some(WindowOptions::with_clock(w, Arc::new(clock.clone())));
    }
    cfg
}

/// A running server with one connection per client.
struct Live<S> {
    // Dropped first: a worker leaves a connection only once it closes.
    clients: Vec<Client>,
    server: ServerHandle<S>,
    clock: Option<ManualClock>,
}

impl<S> Live<S>
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    fn start(spec: &Spec, factory: &Factory<S>, data_dir: Option<&Path>) -> Result<Self, String> {
        let clock = spec.window.then(|| ManualClock::at(CLOCK_START_NANOS));
        let cfg = server_config(spec, data_dir, clock.as_ref());
        let f = Arc::clone(factory);
        let server = spawn(cfg, move |t, s| f(t, s)).map_err(|e| format!("spawn server: {e}"))?;
        let clients = (0..CLIENTS)
            .map(|_| connect(&server))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            clients,
            server,
            clock,
        })
    }

    /// Closes the connections, then stops the server and waits for
    /// every one of its threads.
    fn stop(self) {
        drop(self.clients);
        self.server.shutdown();
        self.server.join();
    }
}

fn connect<S>(server: &ServerHandle<S>) -> Result<Client, String>
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    Client::connect(server.addr(), Duration::from_secs(30)).map_err(|e| format!("connect: {e}"))
}

/// A socket client that records one span per request.
struct TracedClient<'a> {
    client: &'a mut Client,
    rec: Recorder,
}

impl TracedClient<'_> {
    fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce(&mut Client) -> R) -> R {
        self.rec.enter(name, request);
        let out = f(self.client);
        self.rec.exit();
        out
    }
}

impl Target for TracedClient<'_> {
    fn insert(&mut self, request: u64, tenant: u64, xs: &[u64]) -> Result<IngestAck, String> {
        self.span("socket.insert", request, |c| c.insert(request, tenant, xs))
    }

    fn query_many(
        &mut self,
        request: u64,
        tenant: u64,
        phis: &[f64],
        xs: &[u64],
    ) -> Result<ManyAnswer, String> {
        self.span("socket.query", request, |c| {
            Target::query_many(c, request, tenant, phis, xs)
        })
    }

    fn window_insert(
        &mut self,
        request: u64,
        tenant: u64,
        ts_nanos: u64,
        xs: &[u64],
    ) -> Result<IngestAck, String> {
        self.span("socket.insert", request, |c| {
            Target::window_insert(c, request, tenant, ts_nanos, xs)
        })
    }

    fn window_query(
        &mut self,
        request: u64,
        tenant: u64,
        spec: WindowSpec,
        phis: &[f64],
    ) -> Result<WindowAnswer, String> {
        self.span("socket.query", request, |c| {
            Target::window_query(c, request, tenant, spec, phis)
        })
    }
}

/// Drives every client on its own thread until `done(elapsed)`; returns
/// what each measured and the spans its connection recorded.
fn run_phase(
    runs: &mut [ClientRun<'_>],
    clients: &mut [Client],
    record_spans: bool,
    slices: usize,
    done: impl Fn(Duration) -> bool,
) -> Vec<(PhaseStats, Recorder)> {
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter_mut()
            .zip(clients.iter_mut())
            .map(|(run, client)| {
                let stop = &stop;
                scope.spawn(move || {
                    let mut target = TracedClient {
                        client,
                        rec: Recorder::new(record_spans),
                    };
                    let stats = run.drive(&mut target, stop, start, slices);
                    (stats, target.rec)
                })
            })
            .collect();
        // Slices bound what is measured, so a coarse poll is enough, and
        // it leaves both cores to the clients and the workers.
        while !done(start.elapsed()) {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

fn merged(parts: &[(PhaseStats, Recorder)]) -> PhaseStats {
    let mut all = PhaseStats::default();
    for (stats, _) in parts {
        all.absorb(stats);
    }
    all
}

/// A phase's end-to-end numbers: each is computed per half-second
/// slice, and its better quartile over the slices is reported.
///
/// The VM shares its host: for seconds at a time the CPU is stolen or
/// the disk stalls, always to the program's cost, never to its gain. So
/// a metric describes the quarter of the run in which it read best; what
/// happened in the other slices stays in the medians and tails
/// (`service.*_p50_us`, `service.*_p99_us`), which are taken over every
/// sample. Latencies are means: a query is fast on a cache hit and slow
/// on a rebuild, and the median of such a mix jumps between the two.
struct Quiet {
    rows_per_s: f64,
    insert_mean_us: f64,
    query_mean_us: f64,
}

fn quiet(stats: &PhaseStats) -> Result<Quiet, String> {
    let per_slice = |f: &dyn Fn(&SliceStats) -> Option<f64>, q: f64, what: &str| {
        let values: Vec<f64> = stats.slices.iter().filter_map(f).collect();
        if values.is_empty() {
            return Err(format!("no {what} in any slice"));
        }
        Ok(quantile(&values, q))
    };
    Ok(Quiet {
        rows_per_s: per_slice(&|s| Some(s.rows as f64 / SLICE.as_secs_f64()), 0.75, "rows")?,
        insert_mean_us: per_slice(&|s| s.insert_ns.mean_us(), 0.25, "insert samples")?,
        query_mean_us: per_slice(&|s| s.query_ns.mean_us(), 0.25, "query samples")?,
    })
}

/// Every sample of a phase, whichever slice it fell in.
fn all_samples(stats: &PhaseStats) -> (Samples, Samples) {
    let (mut inserts, mut queries) = (Samples::default(), Samples::default());
    for s in &stats.slices {
        inserts.extend(&s.insert_ns);
        queries.extend(&s.query_ns);
    }
    (inserts, queries)
}

fn whole_slices(seconds: f64) -> usize {
    ((seconds / SLICE.as_secs_f64()).floor() as usize).max(1)
}

/// Set-up, several times over: inputs, oracle pools, server spawn
/// (store open), connections, preload. Returns the last one and how
/// long each took.
fn set_up<S>(
    spec: &Spec,
    opts: &RunOpts,
    factory: &Factory<S>,
    scratch: &Path,
) -> Result<(Inputs, Live<S>, Vec<f64>), String>
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    let mut setup_secs = Vec::new();
    let mut kept = None;
    for i in 0..SETUP_REPEATS {
        let data_dir = spec.durable.then(|| scratch.join(format!("data-{i}")));
        let began = Instant::now();
        let inputs = Inputs::generate(spec, opts.seed);
        let mut live = Live::start(spec, factory, data_dir.as_deref())?;
        preload(spec, &inputs, &mut live.clients[0])?;
        setup_secs.push(began.elapsed().as_secs_f64());
        if let Some((_, old)) = kept.replace((inputs, live)) {
            Live::stop(old);
        }
    }
    let (inputs, live) = kept.expect("set-up ran at least once");
    Ok((inputs, live, setup_secs))
}

/// The server's own counters at the end of a run.
struct ServerCounters {
    stats: Value,
    window: WindowStats,
}

impl ServerCounters {
    /// A `STATS` counter; -1 when the server does not report it.
    fn get(&self, path: &[&str]) -> f64 {
        self.stats.at(path).and_then(Value::as_f64).unwrap_or(-1.0)
    }
}

/// Reads `STATS` and `WINDOW_STATS` and checks them against what the
/// clients were acknowledged: nothing shed, nothing malformed, every
/// row counted once by the service, the engines, the WAL and the rings.
fn check_server_counters<S>(
    spec: &Spec,
    server: &ServerHandle<S>,
    runs: &[ClientRun<'_>],
    out: &mut Outcome,
) -> Result<ServerCounters, String>
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    let mut client = connect(server)?;
    let stats = client
        .stats()
        .map_err(|e| e.to_string())
        .and_then(|text| Value::parse(&text))?;
    let mut counters = ServerCounters {
        stats,
        window: WindowStats::default(),
    };
    let rows_acked = runs
        .iter()
        .flat_map(|r| r.acked_rows())
        .map(|rows| spec.preload_rows + rows)
        .sum::<u64>() as f64;
    let mut expect = |what: &str, got: f64, want: f64| {
        out.check(if got == want {
            Ok(())
        } else {
            Err(format!("{what} is {got}, expected {want}"))
        });
    };
    expect("STATS busy_shed", counters.get(&["busy_shed"]), 0.0);
    expect("STATS proto_errors", counters.get(&["proto_errors"]), 0.0);
    expect(
        "STATS ingest_rows",
        counters.get(&["ingest_rows"]),
        rows_acked,
    );
    expect(
        "STATS engine.items",
        counters.get(&["engine", "items"]),
        rows_acked,
    );
    if spec.durable {
        let store = |key| counters.get(&["store", key]);
        expect(
            "STATS store.items_appended",
            store("items_appended"),
            rows_acked,
        );
        // fsync=always: one fsync per record (plus shutdown flushes).
        expect(
            "STATS store.fsyncs >= records_appended",
            f64::from(store("fsyncs") >= store("records_appended")),
            1.0,
        );
    }
    if spec.window {
        for run in runs {
            let w = client
                .window_stats(run.tenant_ids()[0])
                .map_err(|e| e.to_string())?;
            let (late, on_time) = run.window_rows();
            expect(
                "WINDOW_STATS late_dropped",
                w.late_dropped as f64,
                late as f64,
            );
            expect(
                "WINDOW_STATS ingested_items",
                w.ingested_items as f64,
                on_time as f64,
            );
            expect(
                "WINDOW_STATS live + evicted",
                (w.live_items + w.evicted_items) as f64,
                w.ingested_items as f64,
            );
            counters.window.late_dropped += w.late_dropped;
            counters.window.queries += w.queries;
            counters.window.cache_hits += w.cache_hits;
            counters.window.rollup_hits += w.rollup_hits;
        }
    }
    Ok(counters)
}

fn run_with<S>(spec: &Spec, opts: &RunOpts, factory: Factory<S>) -> Result<Outcome, String>
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    let scratch = ScratchDir::create(opts, spec.name)?;
    let mut out = Outcome::default();
    let (inputs, mut live, setup_secs) = set_up(spec, opts, &factory, scratch.path())?;
    // Every preload frame was checked as it was acknowledged.
    out.attempted +=
        spec.preload_rows / PRELOAD_ROWS as u64 * (CLIENTS * spec.tenants_per_client) as u64;

    let clock = live.clock.clone();
    let mut runs: Vec<ClientRun> = (0..CLIENTS)
        .map(|c| ClientRun::new(spec, c, &inputs, clock.as_ref()))
        .collect();

    // Warm-up: two seconds of the same loop; a window ring also has to
    // rotate past its retention so that eviction is already under way.
    run_phase(&mut runs, &mut live.clients, false, 0, |elapsed| {
        elapsed >= WARMUP && ring_is_full(clock.as_ref())
    });

    // The timed closed loop. A traced run splits it in two halves, the
    // second with a span per request, to price the tracing itself.
    let timed = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let slices = whole_slices(timed);
    let untraced = run_phase(&mut runs, &mut live.clients, false, slices, |elapsed| {
        elapsed.as_secs_f64() >= timed
    });
    let traced = opts.trace.then(|| {
        run_phase(&mut runs, &mut live.clients, true, slices, |elapsed| {
            elapsed.as_secs_f64() >= timed
        })
    });

    // Checks, with the clock stopped.
    for (run, client) in runs.iter_mut().zip(live.clients.iter_mut()) {
        run.verify(client);
    }
    let counters = check_server_counters(spec, &live.server, &runs, &mut out)?;
    for run in &mut runs {
        out.absorb_client(run);
    }
    drop(runs);
    Live::stop(live);
    if spec.durable {
        let dir = scratch.path().join("drill");
        let drill = recovery_drill(&dir, &factory, opts.seed, FsyncPolicy::Always, DRILL_ROWS);
        out.check(drill.map(|_| ()));
    }

    let untraced = merged(&untraced);
    let quiet_run = quiet(&untraced)?;
    let (mut inserts, mut queries) = all_samples(&untraced);
    if !opts.trace {
        out.metric("setup_s", median(&setup_secs));
        out.metric("ingest_rows_per_s", quiet_run.rows_per_s);
        out.metric("insert_ack_mean_us", quiet_run.insert_mean_us);
        out.metric("query_mean_us", quiet_run.query_mean_us);
        out.note(format!(
            "closed loop, {CLIENTS} clients; {} insert and {} query samples in {} slices of \
             {SLICE:?}, each metric the better quartile over the slices",
            inserts.count(),
            queries.count(),
            untraced.slices.len(),
        ));
        return Ok(out);
    }

    let traced = traced.expect("traced run has a traced half");
    out.metric(
        "bench.trace_overhead_share",
        1.0 - quiet(&merged(&traced))?.rows_per_s / quiet_run.rows_per_s,
    );
    out.metric(
        "service.insert_ack_p50_us",
        inserts.median_us().ok_or("no insert samples")?,
    );
    out.metric(
        "service.query_p50_us",
        queries.median_us().ok_or("no query samples")?,
    );
    let (level, tail) = inserts.tail_us().ok_or("no insert samples")?;
    out.metric("service.insert_ack_p99_us", tail);
    out.note(format!(
        "insert tail is p{} of {} samples",
        level * 100.0,
        inserts.count()
    ));
    let (level, tail) = queries.tail_us().ok_or("no query samples")?;
    out.metric("service.query_p99_us", tail);
    out.note(format!(
        "query tail is p{} of {} samples",
        level * 100.0,
        queries.count()
    ));
    out.metric("service.queries_per_s", queries.count() as f64 / timed);
    out.metric("service.busy_sheds", counters.get(&["busy_shed"]));
    out.metric("service.proto_errors", counters.get(&["proto_errors"]));
    let hits = counters.get(&["engine", "snapshot_cache_hits"]);
    let rebuilds = counters.get(&["engine", "snapshots"]);
    out.metric(
        "engine.snapshot_cache_hit_ratio",
        ratio(hits, hits + rebuilds),
    );
    // An in-memory server has no store section: nothing was written.
    out.metric(
        "store.checkpoints_written",
        counters.get(&["store", "checkpoints_written"]).max(0.0),
    );
    out.metric(
        "store.segments_deleted",
        counters.get(&["store", "segments_deleted"]).max(0.0),
    );
    let w = &counters.window;
    out.metric(
        "window.cache_hit_ratio",
        ratio(w.cache_hits as f64, w.queries as f64),
    );
    out.metric(
        "window.rollup_hits_per_query",
        ratio(w.rollup_hits as f64, w.queries as f64),
    );
    out.metric("window.late_dropped", w.late_dropped as f64);

    replay(
        spec,
        opts,
        &factory,
        &inputs,
        scratch.path(),
        &traced,
        &mut out,
    )?;
    Ok(out)
}

/// Whether a window ring on `clock` has rotated past its retention
/// (trivially so without windowing).
fn ring_is_full(clock: Option<&ManualClock>) -> bool {
    clock.is_none_or(|c| {
        (c.now_nanos() - CLOCK_START_NANOS) / BUCKET_NANOS >= RETENTION_BUCKETS + 64
    })
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// The traced replay: the first requests of the traced half, sent again
/// in-process through the calls `dispatch` makes, one span per call.
/// `Σ layer self times + unattributed = socket round-trip time` of the
/// same requests, by construction.
fn replay<S>(
    spec: &Spec,
    opts: &RunOpts,
    factory: &Factory<S>,
    inputs: &Inputs,
    scratch: &Path,
    socket: &[(PhaseStats, Recorder)],
    out: &mut Outcome,
) -> Result<(), String>
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    let rounds = (REPLAY_REQUESTS / spec.requests_per_round()).max(1);
    let clock = spec.window.then(|| ManualClock::at(CLOCK_START_NANOS));
    let twin_dir = scratch.join("twin");
    let store = match spec.durable {
        true => {
            let cfg = StoreConfig {
                dir: twin_dir,
                segment_bytes: 64 << 20,
                fsync: FsyncPolicy::Always,
            };
            Some(DurableStore::open(&cfg).map_err(|e| e.to_string())?.0)
        }
        false => None,
    };
    let f = Arc::clone(factory);
    let mut twin = Twin::new(
        &server_config(spec, None, clock.as_ref()),
        move |t, s| f(t, s),
        store,
    );
    preload(spec, inputs, &mut twin)?;
    let mut runs: Vec<ClientRun> = (0..CLIENTS)
        .map(|c| ClientRun::new(spec, c, inputs, clock.as_ref()))
        .collect();
    let mut unused = PhaseStats::default();
    // Warm the twin as the server was warmed, scaled down: its sketches
    // past their first compactions, its window ring past retention.
    let warm = Instant::now();
    while warm.elapsed() < Duration::from_millis(300) || !ring_is_full(clock.as_ref()) {
        for run in &mut runs {
            run.round(&mut twin, warm, &mut unused);
        }
    }
    twin.rec = Recorder::new(true);
    for _ in 0..rounds {
        for run in &mut runs {
            run.round(&mut twin, warm, &mut unused);
        }
    }
    let rec = std::mem::replace(&mut twin.rec, Recorder::new(false));
    for run in &mut runs {
        run.verify(&mut twin);
        out.absorb_client(run);
    }

    // The same requests over the socket: the first `rounds` rounds each
    // client sent in the traced half.
    let per_client = (rounds * spec.requests_per_round()) as usize;
    let socket_spans: Vec<&[trace::Span]> = socket
        .iter()
        .map(|(_, r)| &r.spans()[..per_client.min(r.spans().len())])
        .collect();
    let socket_ns: u64 = socket_spans
        .iter()
        .flat_map(|s| s.iter())
        .map(trace::Span::duration_ns)
        .sum();
    let replayed_requests = rec.spans().iter().filter(|s| s.parent.is_none()).count();
    if socket_spans.iter().map(|s| s.len()).sum::<usize>() != replayed_requests {
        return Err(format!(
            "traced half was too short: replayed {replayed_requests} requests, socket has fewer"
        ));
    }
    let mut layer_ns: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, ns) in trace::self_times(rec.spans()) {
        // `request.*` self time is the glue between the calls:
        // registry lookup, bounds check — the service layer's.
        let layer = match name.split('.').next() {
            Some("request") | None => "service",
            Some(layer) => layer,
        };
        *layer_ns.entry(layer).or_insert(0) += ns;
    }
    let share = |layer: &str| layer_ns.get(layer).copied().unwrap_or(0) as f64 / socket_ns as f64;
    out.metric("service.share_of_rtt", share("service"));
    out.metric("store.share_of_rtt", share("store"));
    out.metric("engine.share_of_rtt", share("engine"));
    out.metric("window.share_of_rtt", share("window"));
    let attributed: u64 = layer_ns.values().sum();
    out.metric(
        "service.unattributed_share",
        1.0 - attributed as f64 / socket_ns as f64,
    );
    out.note(format!(
        "replay: {replayed_requests} requests, socket {:.1} us/request, in-process {:.1} us/request",
        socket_ns as f64 / 1e3 / replayed_requests as f64,
        attributed as f64 / 1e3 / replayed_requests as f64
    ));

    let path = opts.out_dir.join(format!("trace-{}.json", spec.name));
    let mut sections: Vec<(String, &[trace::Span])> = vec![("replay".to_owned(), rec.spans())];
    for (c, spans) in socket_spans.iter().enumerate() {
        sections.push((format!("socket_client_{c}"), spans));
    }
    trace::write_json(&path, spec.name, &sections)
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// What the recovery drill measured.
pub struct Drill {
    pub rows: u64,
    pub respawn_secs: f64,
}

/// Fills a fresh data directory through the socket with no checkpoint,
/// stops the server, starts it again on the same directory, and checks
/// that everything acknowledged came back: replay counts, tenant count
/// and the ε sweep.
pub fn recovery_drill<S>(
    dir: &Path,
    factory: &Factory<S>,
    seed: u64,
    fsync: FsyncPolicy,
    rows: u64,
) -> Result<Drill, String>
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    let stream = Stream::uniform(derive_seed(seed, 0xd2111), POOL, 1 << LOG_U);
    let start = |dir: &Path| -> Result<ServerHandle<S>, String> {
        let mut cfg = ServerConfig::default();
        let mut d = DurabilityConfig::new(dir);
        d.fsync = fsync;
        d.checkpoint_interval = Duration::from_secs(3600);
        cfg.durability = Some(d);
        let f = Arc::clone(factory);
        spawn(cfg, move |t, s| f(t, s)).map_err(|e| format!("spawn durable server: {e}"))
    };
    let frames = rows / DRILL_FRAME as u64;
    let server = start(dir)?;
    let mut client = connect(&server)?;
    let mut last_seq = 0;
    for j in 0..frames {
        let ack = client
            .insert_batch(1, stream.frame(j, DRILL_FRAME))
            .map_err(|e| format!("drill insert: {e}"))?;
        if ack.n != (j + 1) * DRILL_FRAME as u64 || ack.seq <= last_seq {
            return Err(format!(
                "drill frame {j}: ack (n {}, seq {}) is wrong",
                ack.n, ack.seq
            ));
        }
        last_seq = ack.seq;
    }
    drop(client);
    server.shutdown();
    server.join();

    let began = Instant::now();
    let server = start(dir)?;
    let respawn_secs = began.elapsed().as_secs_f64();
    let result = (|| {
        let r = server
            .recovery()
            .ok_or("restarted server reports no recovery")?;
        if r.items_replayed != rows
            || r.records_replayed != frames
            || r.total_items != rows
            || r.tenants != 1
        {
            return Err(format!(
                "recovery replayed {r:?}, expected {rows} rows in {frames} records"
            ));
        }
        let mut client = connect(&server)?;
        sweep_tenant(
            &mut client,
            1,
            &Oracle {
                sources: vec![(&stream, rows)],
            },
        )
    })();
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(dir);
    result.map(|()| Drill { rows, respawn_secs })
}
