//! The multi-tenant TCP quantile server.
//!
//! One accept thread feeds a **bounded** connection queue drained by a
//! fixed worker pool — the server's entire backpressure story:
//!
//! * the queue holds at most `queue_depth` waiting connections;
//! * when it is full, the accept thread *sheds* the connection with an
//!   explicit [`Status::Busy`] reply and closes it — nothing is ever
//!   buffered without bound, and clients get a signal they can back
//!   off on rather than a mysterious stall;
//! * workers own one connection at a time and serve its requests
//!   synchronously; ingest goes through the engine's request-scoped
//!   [`ingest_batch`](sqs_engine::ShardedEngine::ingest_batch), so an
//!   `INSERT_BATCH` reply means the data is already merged — there are
//!   no server-side ingest buffers for shutdown to lose.
//!
//! Tenants are lazily materialized [`ShardedEngine`]s keyed by the
//! request's tenant id; a caller-supplied factory builds each shard
//! summary (per-tenant, per-shard seeds for randomized backends).
//!
//! Graceful shutdown (the `SHUTDOWN` op or
//! [`ServerHandle::shutdown`]): set the stop flag, close the queue
//! (workers finish their in-flight request, then exit), and wake the
//! blocked `accept` with a loopback self-connect. Because ingest is
//! request-scoped, everything acknowledged before shutdown is already
//! in the shard summaries.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sqs_core::codec::WireCodec;
use sqs_core::MergeableSummary;
use sqs_engine::ShardedEngine;
use sqs_store::{DurableStore, FsyncPolicy, StoreConfig, WalPayload};
use sqs_util::clock::{Clock, SystemClock};
use sqs_window::{WindowConfig, WindowedEngine};

use crate::metrics::{Metrics, WindowTotals};
use crate::proto::{self, IngestAck, Op, Request, Response, Status};

/// Tuning knobs for [`spawn`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port (tests).
    pub addr: String,
    /// Worker threads serving connections.
    pub workers: usize,
    /// Bounded backpressure queue: connections waiting for a worker
    /// beyond this are shed with [`Status::Busy`].
    pub queue_depth: usize,
    /// Per-connection socket read timeout (idle cut-off).
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// Shards per tenant engine.
    pub shards: usize,
    /// Unused: no request reads it since the engine lost its producer
    /// buffers. The field stays only because `benchmark/` (frozen while
    /// a PR is measured against it) still sets it.
    pub batch_capacity: usize,
    /// Upper bound (exclusive) on ingestable values, for backends with
    /// a bounded universe (q-digest): out-of-range values are refused
    /// with an error reply instead of reaching the summary's panic.
    /// `None` admits any `u64`.
    pub value_bound: Option<u64>,
    /// Durable storage (WAL + checkpoints) under a data directory.
    /// `None` — the default — keeps today's in-memory behavior with
    /// zero hot-path cost.
    pub durability: Option<DurabilityConfig>,
    /// Time-windowed quantiles (`sqs-serve --window-bucket-secs`).
    /// `None` — the default — leaves the existing ops' hot path
    /// untouched and makes the `WINDOW_*` ops reply with an error.
    pub window: Option<WindowOptions>,
}

/// Opt-in windowing settings: the ring configuration plus the clock
/// that drives bucket rotation ([`SystemClock`] in production, a
/// [`ManualClock`](sqs_util::clock::ManualClock) in deterministic
/// tests).
#[derive(Debug, Clone)]
pub struct WindowOptions {
    /// Bucket width, retention, rollup grouping, late policy — shared
    /// by every tenant's ring.
    pub config: WindowConfig,
    /// The clock window rotation reads. Every tenant ring shares it.
    pub clock: Arc<dyn Clock>,
}

impl WindowOptions {
    /// Windowing on the production monotonic clock.
    #[must_use]
    pub fn new(config: WindowConfig) -> Self {
        Self {
            config,
            clock: Arc::new(SystemClock::new()),
        }
    }

    /// Windowing on a caller-supplied clock (deterministic tests).
    #[must_use]
    pub fn with_clock(config: WindowConfig, clock: Arc<dyn Clock>) -> Self {
        Self { config, clock }
    }
}

/// Opt-in durability settings (`sqs-serve --data-dir`).
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root data directory (`wal/` and `ckpt/` live under it).
    pub data_dir: PathBuf,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// When WAL appends reach the platter.
    pub fsync: FsyncPolicy,
    /// How often the background checkpointer scans for tenants with
    /// un-checkpointed records.
    pub checkpoint_interval: Duration,
}

impl DurabilityConfig {
    /// Defaults for `data_dir`: 64 MiB segments, fsync-always,
    /// checkpoint scan every 30 s.
    #[must_use]
    pub fn new(data_dir: impl Into<PathBuf>) -> Self {
        Self {
            data_dir: data_dir.into(),
            segment_bytes: 64 << 20,
            fsync: FsyncPolicy::Always,
            checkpoint_interval: Duration::from_secs(30),
        }
    }
}

/// What recovery found and rebuilt at startup, for operator logs and
/// the recovery smoke test.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoverySummary {
    /// Tenants rebuilt (from a checkpoint, WAL records, or both).
    pub tenants: usize,
    /// Checkpoints decoded and absorbed.
    pub checkpoints_loaded: u64,
    /// WAL records replayed into engines.
    pub records_replayed: u64,
    /// Stream items inside replayed batch records.
    pub items_replayed: u64,
    /// Torn/corrupt WAL tails truncated during replay.
    pub torn_tails_dropped: u64,
    /// Corrupt checkpoint files skipped (older one used instead).
    pub corrupt_checkpoints_skipped: u64,
    /// Replayed records that failed to apply (deterministically
    /// incompatible merge-snapshot frames, also refused pre-crash).
    pub failed_applies: u64,
    /// Total items across all engines after recovery — verified
    /// against the checkpoint counts plus replayed batch items.
    pub total_items: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            shards: 4,
            batch_capacity: 1024,
            value_bound: None,
            durability: None,
            window: None,
        }
    }
}

/// A bounded MPMC queue of accepted connections: `try_push` from the
/// accept thread (never blocks — full means shed), blocking `pop` from
/// the workers, `close` to drain-and-stop.
struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    capacity: usize,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                items: VecDeque::with_capacity(capacity),
                capacity,
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner<T>> {
        // A worker that panicked mid-request poisons nothing of the
        // queue's own state; recover the guard and keep serving.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Enqueues unless full or closed; hands the item back on refusal
    /// so the caller can shed it explicitly.
    fn try_push(&self, item: T) -> Result<(), T> {
        let mut q = self.lock();
        if q.closed || q.items.len() >= q.capacity {
            return Err(item);
        }
        q.items.push_back(item);
        drop(q);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once closed *and* drained
    /// (pending connections still get served during shutdown).
    fn pop(&self) -> Option<T> {
        let mut q = self.lock();
        loop {
            if let Some(item) = q.items.pop_front() {
                return Some(item);
            }
            if q.closed {
                return None;
            }
            q = match self.ready.wait(q) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.ready.notify_all();
    }
}

/// Shard-index offset for window-bucket summaries built through the
/// tenant factory: far above any real shard count, so bucket seeds and
/// shard seeds never coincide. Bucket indices are folded modulo a
/// prime (1021) into the offset range — seeds recycle across very long
/// horizons, which is harmless (only decorrelation matters).
const WINDOW_FACTORY_SHARD_BASE: usize = 1 << 20;

/// State shared by the accept thread and every worker.
struct Shared<S> {
    cfg: ServerConfig,
    addr: SocketAddr,
    tenants: Mutex<HashMap<u64, Arc<ShardedEngine<u64, S>>>>,
    /// Per-tenant window rings, lazily materialized on the first
    /// `WINDOW_*` request; empty forever when `cfg.window` is `None`.
    windows: Mutex<HashMap<u64, Arc<WindowedEngine<S>>>>,
    /// `Arc` (not `Box`) so window rings can hold a handle into the
    /// same factory for their per-bucket summaries.
    factory: Arc<dyn Fn(u64, usize) -> S + Send + Sync>,
    queue: BoundedQueue<TcpStream>,
    stop: AtomicBool,
    metrics: Metrics,
    /// The durable store (`--data-dir`); `None` on in-memory servers.
    store: Option<Arc<DurableStore>>,
    /// What recovery rebuilt at startup (durable servers only).
    recovery: Option<RecoverySummary>,
}

impl<S> Shared<S>
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    /// A fresh, empty engine for tenant `id`, in no registry yet.
    fn new_engine(&self, id: u64) -> Arc<ShardedEngine<u64, S>> {
        Arc::new(ShardedEngine::new_with(
            self.cfg.shards,
            self.cfg.batch_capacity,
            |shard| (self.factory)(id, shard),
        ))
    }

    /// A fresh, empty window ring over `engine` for tenant `id`, in no
    /// registry yet. The ring's per-bucket summaries come from the same
    /// factory as the shard summaries, with shard indices offset by
    /// [`WINDOW_FACTORY_SHARD_BASE`] so bucket seeds never collide
    /// with shard seeds (randomized backends stay merge-compatible —
    /// same accuracy — but independently seeded).
    fn new_window(
        &self,
        id: u64,
        engine: Arc<ShardedEngine<u64, S>>,
        opts: &WindowOptions,
    ) -> Arc<WindowedEngine<S>> {
        let factory = Arc::clone(&self.factory);
        Arc::new(WindowedEngine::new(
            engine,
            opts.config,
            Arc::clone(&opts.clock),
            move |bucket| {
                let slot = usize::try_from(bucket % 1021).unwrap_or(0);
                factory(id, WINDOW_FACTORY_SHARD_BASE + slot)
            },
        ))
    }

    /// The tenant's engine for a **write**, registered on first touch.
    fn tenant(&self, id: u64) -> Arc<ShardedEngine<u64, S>> {
        let mut map = match self.tenants.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        Arc::clone(map.entry(id).or_insert_with(|| self.new_engine(id)))
    }

    /// The tenant's engine for a **read**: the registered one, or, for
    /// an id no write has touched, a throw-away engine from the same
    /// factory. The reply is exactly an empty tenant's, and a client
    /// probing fresh ids cannot grow the registry.
    fn tenant_for_read(&self, id: u64) -> Arc<ShardedEngine<u64, S>> {
        let registered = match self.tenants.lock() {
            Ok(g) => g.get(&id).cloned(),
            Err(poisoned) => poisoned.into_inner().get(&id).cloned(),
        };
        registered.unwrap_or_else(|| self.new_engine(id))
    }

    /// The tenant's windowed engine for a **write**, registered (with
    /// its engine) on first touch; `None` whenever the server runs
    /// without windowing.
    fn window_tenant(&self, id: u64) -> Option<Arc<WindowedEngine<S>>> {
        let opts = self.cfg.window.as_ref()?;
        // The engine lock is taken and released inside `tenant` before
        // the windows lock below — never both at once.
        let engine = self.tenant(id);
        let mut map = match self.windows.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        Some(Arc::clone(
            map.entry(id)
                .or_insert_with(|| self.new_window(id, engine, opts)),
        ))
    }

    /// The tenant's windowed engine for a **read**: the registered
    /// ring, or a throw-away empty one (see
    /// [`tenant_for_read`](Self::tenant_for_read)); `None` whenever
    /// the server runs without windowing.
    fn window_for_read(&self, id: u64) -> Option<Arc<WindowedEngine<S>>> {
        let opts = self.cfg.window.as_ref()?;
        let registered = match self.windows.lock() {
            Ok(g) => g.get(&id).cloned(),
            Err(poisoned) => poisoned.into_inner().get(&id).cloned(),
        };
        Some(registered.unwrap_or_else(|| self.new_window(id, self.tenant_for_read(id), opts)))
    }

    /// Folds one batch into the tenant's all-time engine — after logging
    /// it, on a durable server — and returns the ack, or the error reply
    /// (prefixed with `op`) if the WAL refused the batch.
    fn log_then_ingest(&self, tenant: u64, xs: &[u64], op: &str) -> Result<IngestAck, Response> {
        let engine = self.tenant(tenant);
        let Some(store) = self.store.as_ref() else {
            engine.ingest_batch(xs);
            return Ok(IngestAck {
                n: engine.n(),
                seq: 0,
            });
        };
        // Durable path: log first, ingest second, both under the tenant
        // gate — an ACK means the batch is on disk AND in the engine,
        // and a checkpoint taken under the same gate sees a consistent
        // (seq, engine-state) pair. The ack's count is read under the
        // same gate so (n, seq) describe the same acknowledged prefix
        // even when other connections ingest into this tenant.
        let handle = store.tenant(tenant);
        let _gate = handle.lock();
        let seq = store
            .append_batch(tenant, xs)
            .map_err(|e| err(format!("{op}: wal append failed: {e}")))?;
        engine.ingest_batch(xs);
        Ok(IngestAck { n: engine.n(), seq })
    }

    /// Cross-tenant window aggregate for the `STATS` reply; `None`
    /// when windowing is off (the JSON section is omitted). Ring
    /// `Arc`s are cloned out first so each ring's stat read happens
    /// without the map lock held.
    fn window_totals(&self) -> Option<WindowTotals> {
        self.cfg.window.as_ref()?;
        let rings: Vec<Arc<WindowedEngine<S>>> = match self.windows.lock() {
            Ok(g) => g.values().cloned().collect(),
            Err(poisoned) => poisoned.into_inner().values().cloned().collect(),
        };
        let mut totals = WindowTotals::default();
        for ring in &rings {
            totals.absorb(&ring.stats());
        }
        Some(totals)
    }

    /// Tenant count plus the cross-tenant engine aggregate for the
    /// `STATS` reply, read in one pass over the tenant map. The engine
    /// `Arc`s are cloned out first so each engine's (brief) stat loads
    /// happen without the map lock held.
    fn stats_snapshot(&self) -> (usize, crate::metrics::EngineTotals) {
        let engines: Vec<Arc<ShardedEngine<u64, S>>> = match self.tenants.lock() {
            Ok(g) => g.values().cloned().collect(),
            Err(poisoned) => poisoned.into_inner().values().cloned().collect(),
        };
        let mut totals = crate::metrics::EngineTotals::default();
        for engine in &engines {
            totals.absorb(&engine.stats());
        }
        (engines.len(), totals)
    }

    /// Flips the stop flag, closes the queue, flushes the WAL, and
    /// nudges the blocked `accept` with a throwaway self-connect.
    fn initiate_shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.queue.close();
        if let Some(store) = &self.store {
            // Graceful shutdown makes even `--fsync never`/`interval`
            // state durable; errors are moot (kill -9 recovery covers
            // the same ground).
            let _ = store.flush();
        }
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(200));
    }
}

/// A running server: its bound address plus the thread handles.
///
/// Dropping the handle shuts the server down and joins every thread;
/// call [`shutdown`](Self::shutdown) + [`join`](Self::join) to do it
/// explicitly (or send the `SHUTDOWN` op from any client and `join`).
pub struct ServerHandle<S> {
    shared: Arc<Shared<S>>,
    threads: Vec<JoinHandle<()>>,
}

impl<S> ServerHandle<S>
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    /// The address the server actually bound (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Requests a graceful stop: in-flight requests finish, queued
    /// connections drain, nothing acknowledged is lost.
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// What recovery rebuilt at startup: `Some` whenever the server
    /// runs durably (zeroed counts on a fresh data directory), `None`
    /// on in-memory servers.
    #[must_use]
    pub fn recovery(&self) -> Option<RecoverySummary> {
        self.shared.recovery
    }

    /// Blocks until every server thread has exited (after a local
    /// [`shutdown`](Self::shutdown) or a remote `SHUTDOWN` op).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl<S> Drop for ServerHandle<S> {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.queue.close();
        let _ = TcpStream::connect_timeout(&self.shared.addr, Duration::from_millis(200));
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Binds `cfg.addr` and starts the accept thread plus `cfg.workers`
/// worker threads. `factory(tenant, shard)` builds each shard summary
/// of each lazily-created tenant engine — the place where per-tenant,
/// per-shard seeds diverge for randomized backends.
///
/// # Errors
/// Returns the bind error if the address is unavailable.
pub fn spawn<S, F>(cfg: ServerConfig, factory: F) -> io::Result<ServerHandle<S>>
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
    F: Fn(u64, usize) -> S + Send + Sync + 'static,
{
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let workers = cfg.workers.max(1);
    let queue_depth = cfg.queue_depth.max(1);
    let durability = cfg.durability.clone();
    let (store, recovered) = match &durability {
        Some(d) => {
            let store_cfg = StoreConfig {
                dir: d.data_dir.clone(),
                segment_bytes: d.segment_bytes,
                fsync: d.fsync,
            };
            let (store, recovery) = DurableStore::open(&store_cfg).map_err(io::Error::other)?;
            (Some(Arc::new(store)), Some(recovery))
        }
        None => (None, None),
    };
    let mut shared = Shared {
        cfg,
        addr,
        tenants: Mutex::new(HashMap::new()),
        windows: Mutex::new(HashMap::new()),
        factory: Arc::new(factory),
        queue: BoundedQueue::new(queue_depth),
        stop: AtomicBool::new(false),
        metrics: Metrics::new(),
        store,
        recovery: None,
    };
    if let Some(recovery) = recovered {
        shared.recovery = Some(apply_recovery(&shared, recovery)?);
    }
    let shared = Arc::new(shared);
    let mut threads = Vec::with_capacity(workers + 2);
    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || accept_loop(&shared, &listener)));
    }
    for _ in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || worker_loop(&shared)));
    }
    if let Some(d) = durability {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            checkpoint_loop(&shared, d.checkpoint_interval);
        }));
    }
    Ok(ServerHandle { shared, threads })
}

/// Rebuilds tenant engines from what the store recovered: absorb each
/// tenant's newest checkpoint, replay the WAL records after it, and
/// verify that the rebuilt item counts match the durable accounting.
///
/// Count verification is exact: every absorbed checkpoint and batch
/// record contributes a known mass, and replayed merge-snapshot frames
/// contribute their decoded mass. A mismatch means the store and the
/// engines disagree about what was acknowledged — the server refuses
/// to start rather than serve silently wrong answers.
fn apply_recovery<S>(
    shared: &Shared<S>,
    recovery: sqs_store::Recovery,
) -> io::Result<RecoverySummary>
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    let mut summary = RecoverySummary {
        torn_tails_dropped: recovery.report.torn_tails_dropped,
        corrupt_checkpoints_skipped: recovery.corrupt_checkpoints_skipped,
        ..RecoverySummary::default()
    };
    let mut expected: u64 = 0;
    for ckpt in &recovery.checkpoints {
        let decoded = S::from_bytes(&ckpt.frame).map_err(|e| {
            io::Error::other(format!(
                "recovery: checkpoint frame for tenant {} does not decode: {e}",
                ckpt.tenant
            ))
        })?;
        let mass = decoded.n();
        if mass != ckpt.n {
            return Err(io::Error::other(format!(
                "recovery: checkpoint for tenant {} declares {} items but its frame holds {}",
                ckpt.tenant, ckpt.n, mass
            )));
        }
        let engine = shared.tenant(ckpt.tenant);
        if engine.try_absorb(decoded).is_err() {
            return Err(io::Error::other(format!(
                "recovery: checkpoint for tenant {} is incompatible with the configured \
                 backend — was the server restarted with different accuracy settings?",
                ckpt.tenant
            )));
        }
        expected += mass;
        summary.checkpoints_loaded += 1;
    }
    for record in &recovery.records {
        let engine = shared.tenant(record.tenant);
        match &record.payload {
            WalPayload::Batch(xs) => {
                engine.ingest_batch(xs);
                shared.metrics.add_rows(xs.len() as u64);
                expected += xs.len() as u64;
                summary.items_replayed += xs.len() as u64;
                summary.records_replayed += 1;
            }
            WalPayload::Snapshot(frame) => match S::from_bytes(frame) {
                Ok(decoded) => {
                    let mass = decoded.n();
                    if engine.try_absorb(decoded).is_ok() {
                        expected += mass;
                        summary.records_replayed += 1;
                    } else {
                        // Deterministic dud: the pre-crash server also
                        // refused this frame after logging it.
                        summary.failed_applies += 1;
                    }
                }
                Err(_) => {
                    summary.failed_applies += 1;
                }
            },
        }
    }
    let (tenants, totals) = shared.stats_snapshot();
    summary.tenants = tenants;
    summary.total_items = totals.items;
    if totals.items != expected {
        return Err(io::Error::other(format!(
            "recovery: engines hold {} items but the durable state accounts for {expected} — \
             refusing to serve from inconsistent state",
            totals.items
        )));
    }
    Ok(summary)
}

/// The background checkpointer: every `interval`, snapshot each tenant
/// that has WAL records its checkpoint does not cover, write the
/// checkpoint atomically, and let the store truncate checkpoint-fenced
/// WAL segments. Exits (after a final WAL flush) when the server
/// stops.
fn checkpoint_loop<S>(shared: &Shared<S>, interval: Duration)
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    let Some(store) = shared.store.as_ref() else {
        return;
    };
    loop {
        // Sleep in short steps so shutdown is prompt.
        let deadline = Instant::now() + interval;
        while Instant::now() < deadline {
            if shared.stop.load(Ordering::Acquire) {
                let _ = store.flush();
                return;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        for (tenant, _target_seq) in store.tenants_needing_checkpoint() {
            let engine = shared.tenant(tenant);
            let handle = store.tenant(tenant);
            // Under the tenant gate, `last_append` and the engine
            // snapshot describe the same acknowledged prefix — the
            // consistency invariant recovery relies on.
            let (seq, mut snap, n) = {
                let _gate = handle.lock();
                (store.last_append(tenant), engine.snapshot(), engine.n())
            };
            let frame = WireCodec::to_bytes(&mut snap);
            // Slow file I/O happens after the gate is released. A
            // failed write just means retry next round — the WAL still
            // covers everything, so durability is unaffected.
            let _ = store.record_checkpoint(tenant, seq, n, &frame);
        }
    }
}

fn accept_loop<S>(shared: &Shared<S>, listener: &TcpListener)
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    for conn in listener.incoming() {
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
        let _ = stream.set_write_timeout(Some(shared.cfg.write_timeout));
        if let Err(mut shed) = shared.queue.try_push(stream) {
            // Backpressure: explicit BUSY beats unbounded buffering.
            shared.metrics.note_busy();
            let _ = proto::write_response(
                &mut shed,
                &Response {
                    status: Status::Busy,
                    payload: b"connection queue full, retry with backoff".to_vec(),
                },
            );
        }
    }
}

fn worker_loop<S>(shared: &Shared<S>)
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    while let Some(stream) = shared.queue.pop() {
        serve_connection(shared, stream);
    }
}

/// Serves one connection's request stream until EOF, idle timeout,
/// protocol violation, or server stop.
fn serve_connection<S>(shared: &Shared<S>, mut stream: TcpStream)
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    loop {
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        match proto::read_request(&mut stream) {
            Ok(Some(req)) => {
                let started = Instant::now();
                let resp = dispatch(shared, &req);
                shared.metrics.record_op(
                    req.op,
                    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                );
                if proto::write_response(&mut stream, &resp).is_err() {
                    return;
                }
                if req.op == Op::Shutdown {
                    shared.initiate_shutdown();
                    return;
                }
            }
            Ok(None) => return,                 // client hung up cleanly
            Err(e) if e.is_timeout() => return, // idle connection
            Err(e) => {
                shared.metrics.note_proto_error();
                let _ = proto::write_response(
                    &mut stream,
                    &Response {
                        status: Status::Err,
                        payload: e.to_string().into_bytes(),
                    },
                );
                return;
            }
        }
    }
}

fn ok(payload: Vec<u8>) -> Response {
    Response {
        status: Status::Ok,
        payload,
    }
}

fn err(msg: String) -> Response {
    Response {
        status: Status::Err,
        payload: msg.into_bytes(),
    }
}

/// The reply to a `MERGE_SNAPSHOT` whose frame decoded but which
/// `ShardedEngine::try_absorb` handed back: the engine does not say
/// which of its two reasons applied, so the reply names both.
const MERGE_REFUSED: &str = "merge snapshot: refused — accuracy configuration incompatible \
     with this tenant, or the summary's count would take the tenant's past i64::MAX";

/// Executes one request against the tenant registry. Every failure is
/// an error *reply* — malformed payloads, out-of-universe values, and
/// incompatible snapshots must never panic a worker.
fn dispatch<S>(shared: &Shared<S>, req: &Request) -> Response
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    match req.op {
        Op::InsertBatch => {
            let xs = match proto::decode_u64s(&req.payload) {
                Ok(xs) => xs,
                Err(e) => return err(format!("insert batch: {e}")),
            };
            if let Some(bound) = shared.cfg.value_bound {
                if let Some(&bad) = xs.iter().find(|&&x| x >= bound) {
                    return err(format!(
                        "insert batch: value {bad} outside the backend universe [0, {bound})"
                    ));
                }
            }
            let ack = match shared.log_then_ingest(req.tenant, &xs, "insert batch") {
                Ok(ack) => ack,
                Err(reply) => return reply,
            };
            shared.metrics.add_rows(xs.len() as u64);
            ok(proto::encode_ingest_ack(ack))
        }
        Op::QueryQuantiles => {
            let phis = match proto::decode_f64s(&req.payload) {
                Ok(phis) => phis,
                Err(e) => return err(format!("query quantiles: {e}")),
            };
            if let Some(&bad) = phis
                .iter()
                .find(|p| !(p.is_finite() && **p > 0.0 && **p < 1.0))
            {
                return err(format!("query quantiles: phi {bad} outside (0, 1)"));
            }
            let answers = shared.tenant_for_read(req.tenant).quantiles(&phis);
            ok(proto::encode_answers(&answers))
        }
        Op::QueryMany => {
            let (phis, xs) = match proto::decode_query_many(&req.payload) {
                Ok(parts) => parts,
                Err(e) => return err(format!("query many: {e}")),
            };
            if let Some(&bad) = phis
                .iter()
                .find(|p| !(p.is_finite() && **p > 0.0 && **p < 1.0))
            {
                return err(format!("query many: phi {bad} outside (0, 1)"));
            }
            let (quantiles, ranks) = shared.tenant_for_read(req.tenant).query_many(&phis, &xs);
            ok(proto::encode_query_many_reply(&quantiles, &ranks))
        }
        Op::QueryRank => match proto::decode_u64(&req.payload) {
            Ok(x) => ok(proto::encode_u64(
                shared.tenant_for_read(req.tenant).rank_estimate(x),
            )),
            Err(e) => err(format!("query rank: {e}")),
        },
        Op::Snapshot => {
            let mut snap = shared.tenant_for_read(req.tenant).snapshot();
            let bytes = WireCodec::to_bytes(&mut snap);
            if bytes.len() > proto::MAX_PAYLOAD as usize {
                return err(format!(
                    "snapshot of {} bytes exceeds the {}-byte frame cap",
                    bytes.len(),
                    proto::MAX_PAYLOAD
                ));
            }
            ok(bytes)
        }
        Op::MergeSnapshot => match S::from_bytes(&req.payload) {
            Ok(summary) => {
                let engine = shared.tenant(req.tenant);
                match shared.store.as_ref() {
                    Some(store) => {
                        // Log-then-absorb under the tenant gate, like
                        // ingest. An absorb failure after the append
                        // leaves a harmless dud record: replay hits
                        // the same deterministic incompatibility and
                        // skips it.
                        let handle = store.tenant(req.tenant);
                        let _gate = handle.lock();
                        if let Err(e) = store.append_snapshot(req.tenant, &req.payload) {
                            return err(format!("merge snapshot: wal append failed: {e}"));
                        }
                        match engine.try_absorb(summary) {
                            Ok(()) => ok(proto::encode_ingest_ack(IngestAck {
                                n: engine.n(),
                                seq: store.last_append(req.tenant),
                            })),
                            Err(_) => err(MERGE_REFUSED.to_owned()),
                        }
                    }
                    None => match engine.try_absorb(summary) {
                        Ok(()) => ok(proto::encode_ingest_ack(IngestAck {
                            n: engine.n(),
                            seq: 0,
                        })),
                        Err(_) => err(MERGE_REFUSED.to_owned()),
                    },
                }
            }
            Err(e) => err(format!("merge snapshot rejected: {e}")),
        },
        Op::Stats => {
            let (tenants, engine_totals) = shared.stats_snapshot();
            let store_stats = shared.store.as_ref().map(|s| s.stats());
            let window_totals = shared.window_totals();
            ok(shared
                .metrics
                .to_json(
                    tenants,
                    &engine_totals,
                    store_stats.as_ref(),
                    window_totals.as_ref(),
                )
                .into_bytes())
        }
        Op::Shutdown => ok(Vec::new()),
        Op::WindowInsert => {
            let (ts_nanos, xs) = match proto::decode_window_insert(&req.payload) {
                Ok(parts) => parts,
                Err(e) => return err(format!("window insert: {e}")),
            };
            if let Some(bound) = shared.cfg.value_bound {
                if let Some(&bad) = xs.iter().find(|&&x| x >= bound) {
                    return err(format!(
                        "window insert: value {bad} outside the backend universe [0, {bound})"
                    ));
                }
            }
            let Some(windowed) = shared.window_tenant(req.tenant) else {
                return err("window insert: windowing disabled (start the server with \
                            --window-bucket-secs)"
                    .to_owned());
            };
            // Same durable contract as INSERT_BATCH: the WAL logs the
            // plain batch (the all-time stream is what survives a
            // restart — rings are rebuilt empty and refill as new data
            // arrives, which docs/WINDOW.md spells out). Ring placement
            // happens after the gate: it is volatile state and needs no
            // WAL coverage.
            let ack = match shared.log_then_ingest(req.tenant, &xs, "window insert") {
                Ok(ack) => ack,
                Err(reply) => return reply,
            };
            let _outcome = windowed.ingest_window_only(ts_nanos, &xs);
            shared.metrics.add_rows(xs.len() as u64);
            ok(proto::encode_ingest_ack(ack))
        }
        Op::WindowQuery => {
            let (spec, phis) = match proto::decode_window_query(&req.payload) {
                Ok(parts) => parts,
                Err(e) => return err(format!("window query: {e}")),
            };
            let Some(windowed) = shared.window_for_read(req.tenant) else {
                return err("window query: windowing disabled (start the server with \
                            --window-bucket-secs)"
                    .to_owned());
            };
            match windowed.query(spec, &phis) {
                Ok(answer) => ok(proto::encode_window_answer(&answer)),
                Err(e) => err(format!("window query: {e}")),
            }
        }
        Op::WindowStats => {
            let Some(windowed) = shared.window_for_read(req.tenant) else {
                return err("window stats: windowing disabled (start the server with \
                            --window-bucket-secs)"
                    .to_owned());
            };
            ok(proto::encode_window_stats(&windowed.stats()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_sheds_when_full_and_drains_on_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3), "third item refused");
        q.close();
        assert_eq!(q.try_push(4), Err(4), "closed queue refuses");
        assert_eq!(q.pop(), Some(1), "pending items drain after close");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_blocks_until_push() {
        let q = Arc::new(BoundedQueue::<u32>::new(4));
        let q2 = Arc::clone(&q);
        let popper = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        assert!(q.try_push(7).is_ok());
        assert_eq!(popper.join().expect("no panic"), Some(7));
    }

    #[test]
    fn default_config_is_sane() {
        let cfg = ServerConfig::default();
        assert!(cfg.workers >= 1);
        assert!(cfg.queue_depth >= 1);
        assert!(cfg.shards >= 1);
        assert!(cfg.value_bound.is_none());
        assert!(cfg.addr.ends_with(":0"), "tests want an ephemeral port");
    }
}
