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
//! A tenant is one record — its [`ShardedEngine`], its window ring,
//! its store gate — in one registry keyed by the request's tenant id,
//! looked up once per request and created by the first write; a
//! caller-supplied factory builds each shard summary (per-tenant,
//! per-shard seeds for randomized backends).
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sqs_core::codec::WireCodec;
use sqs_core::MergeableSummary;
use sqs_engine::ShardedEngine;
use sqs_store::{DurableStore, FsyncPolicy, StoreConfig, StoreResult, TenantHandle, WalPayload};
use sqs_util::clock::{Clock, SystemClock};
use sqs_window::{WindowConfig, WindowedEngine};

use crate::metrics::{EngineTotals, Metrics, WindowTotals};
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

/// Why a request was refused; its `Display` form, prefixed with the
/// op's name, is the error reply's payload.
type Refusal = Box<dyn std::error::Error>;

/// Whether a request may create the tenant it names.
#[derive(Clone, Copy)]
enum Access {
    /// The tenant is only looked at: an unregistered id stays so.
    Read,
    /// The tenant is fed: an unregistered id is registered.
    Write,
}

/// Everything the server keeps for one tenant id.
struct Tenant<S> {
    id: u64,
    /// The all-time engine every op reads or feeds.
    engine: Arc<ShardedEngine<u64, S>>,
    /// The window ring, built by the tenant's first `WINDOW_INSERT`;
    /// empty forever when `cfg.window` is `None`.
    window: OnceLock<WindowedEngine<S>>,
    /// The durable store's ingest/checkpoint gate for this tenant,
    /// fetched from the store by the first durable write or checkpoint;
    /// empty forever on an in-memory server.
    gate: OnceLock<TenantHandle>,
}

impl<S> Tenant<S> {
    fn gate(&self, store: &DurableStore) -> &TenantHandle {
        self.gate.get_or_init(|| store.tenant(self.id))
    }
}

/// State shared by the accept thread and every worker.
struct Shared<S> {
    cfg: ServerConfig,
    addr: SocketAddr,
    /// The one tenant registry; see [`Shared::tenant`].
    tenants: Mutex<HashMap<u64, Arc<Tenant<S>>>>,
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
    fn registry(&self) -> MutexGuard<'_, HashMap<u64, Arc<Tenant<S>>>> {
        // Entries are inserted whole, so a worker that panicked with
        // the guard held left the map valid; recover it.
        match self.tenants.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// A fresh, empty record for tenant `id`, in no registry yet.
    fn new_tenant(&self, id: u64) -> Arc<Tenant<S>> {
        Arc::new(Tenant {
            id,
            engine: Arc::new(ShardedEngine::new_with(
                self.cfg.shards,
                self.cfg.batch_capacity,
                |shard| (self.factory)(id, shard),
            )),
            window: OnceLock::new(),
            gate: OnceLock::new(),
        })
    }

    /// A fresh, empty window ring over `tenant`'s engine. The ring's
    /// per-bucket summaries come from the same factory as the shard
    /// summaries, with shard indices offset by
    /// [`WINDOW_FACTORY_SHARD_BASE`] so bucket seeds never collide
    /// with shard seeds (randomized backends stay merge-compatible —
    /// same accuracy — but independently seeded).
    fn new_window(&self, tenant: &Tenant<S>, opts: &WindowOptions) -> WindowedEngine<S> {
        let (id, factory) = (tenant.id, Arc::clone(&self.factory));
        WindowedEngine::new(
            Arc::clone(&tenant.engine),
            opts.config,
            Arc::clone(&opts.clock),
            move |bucket| {
                let slot = usize::try_from(bucket % 1021).unwrap_or(0);
                factory(id, WINDOW_FACTORY_SHARD_BASE + slot)
            },
        )
    }

    /// Resolves the tenant a request names — the one registry lookup a
    /// request makes. A **write** registers the id on first touch. A
    /// **read** of an id no write has touched gets a throw-away record
    /// from the same factory: the reply is exactly an empty tenant's,
    /// and a client probing fresh ids cannot grow the registry.
    fn tenant(&self, id: u64, access: Access) -> Arc<Tenant<S>> {
        let mut map = self.registry();
        match access {
            Access::Write => Arc::clone(map.entry(id).or_insert_with(|| self.new_tenant(id))),
            Access::Read => {
                let registered = map.get(&id).cloned();
                drop(map);
                registered.unwrap_or_else(|| self.new_tenant(id))
            }
        }
    }

    /// Refuses a batch holding a value outside a bounded backend's
    /// universe, before it can reach the summary's panic.
    fn check_values(&self, xs: &[u64]) -> Result<(), Refusal> {
        if let Some(bound) = self.cfg.value_bound {
            if let Some(bad) = xs.iter().find(|&&x| x >= bound) {
                let msg = format!("value {bad} outside the backend universe [0, {bound})");
                return Err(msg.into());
            }
        }
        Ok(())
    }

    /// The ring settings, or the refusal every `WINDOW_*` op gives on a
    /// server that runs without windowing.
    fn windowing(&self) -> Result<&WindowOptions, Refusal> {
        let opts = self.cfg.window.as_ref();
        opts.ok_or_else(|| "windowing disabled (start the server with --window-bucket-secs)".into())
    }

    /// Runs a window **read** on tenant `id`'s ring: its own, or — for
    /// a tenant no `WINDOW_INSERT` has touched — a throw-away empty
    /// one, so the reply is an empty ring's and `STATS` `window.rings`
    /// counts only rings a write created.
    fn read_ring<R>(
        &self,
        id: u64,
        read: impl FnOnce(&WindowedEngine<S>) -> R,
    ) -> Result<R, Refusal> {
        let opts = self.windowing()?;
        let tenant = self.tenant(id, Access::Read);
        Ok(match tenant.window.get() {
            Some(ring) => read(ring),
            None => read(&self.new_window(&tenant, opts)),
        })
    }

    /// Applies one write to the tenant's all-time engine — after
    /// logging it, on a durable server — and returns the ack (`seq` 0
    /// from an in-memory server, which has no log and takes no gate).
    fn log_then_apply(
        &self,
        tenant: &Tenant<S>,
        log: impl FnOnce(&DurableStore) -> StoreResult<u64>,
        apply: impl FnOnce(&ShardedEngine<u64, S>) -> Result<(), Refusal>,
    ) -> Result<IngestAck, Refusal> {
        // Durable path: log first, apply second, both under the tenant
        // gate — an ACK means the write is on disk AND in the engine,
        // and a checkpoint taken under the same gate sees a consistent
        // (seq, engine-state) pair. The ack's count is read under the
        // same gate so (n, seq) describe the same acknowledged prefix
        // even when other connections write to this tenant.
        let store = self.store.as_deref();
        let _gate = store.map(|store| tenant.gate(store).lock());
        let seq = match store {
            Some(store) => log(store).map_err(|e| format!("wal append failed: {e}"))?,
            None => 0,
        };
        apply(&tenant.engine)?;
        let n = tenant.engine.n();
        Ok(IngestAck { n, seq })
    }

    /// Folds one value batch into the tenant's all-time engine through
    /// [`log_then_apply`](Self::log_then_apply) and counts its rows.
    fn ingest(&self, tenant: &Tenant<S>, xs: &[u64]) -> Result<IngestAck, Refusal> {
        let ack = self.log_then_apply(
            tenant,
            |store| store.append_batch(tenant.id, xs),
            |engine| {
                engine.ingest_batch(xs);
                Ok(())
            },
        )?;
        self.metrics.add_rows(xs.len() as u64);
        Ok(ack)
    }

    /// Tenant count plus the cross-tenant engine and window-ring
    /// aggregates for the `STATS` reply, read in one pass over the
    /// registry; the ring aggregate is `None` when windowing is off
    /// (the JSON section is omitted). The records are cloned out first
    /// so each engine's and ring's stat read happens without the
    /// registry lock held.
    fn stats_snapshot(&self) -> (usize, EngineTotals, Option<WindowTotals>) {
        let tenants: Vec<Arc<Tenant<S>>> = self.registry().values().cloned().collect();
        let mut engines = EngineTotals::default();
        let mut rings = self.cfg.window.as_ref().map(|_| WindowTotals::default());
        for tenant in &tenants {
            engines.absorb(&tenant.engine.stats());
            if let (Some(rings), Some(ring)) = (rings.as_mut(), tenant.window.get()) {
                rings.absorb(&ring.stats());
            }
        }
        (tenants.len(), engines, rings)
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
        let tenant = shared.tenant(ckpt.tenant, Access::Write);
        if tenant.engine.try_absorb(decoded).is_err() {
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
        let engine = &shared.tenant(record.tenant, Access::Write).engine;
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
    let (tenants, totals, _) = shared.stats_snapshot();
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
            let record = shared.tenant(tenant, Access::Write);
            let engine = &record.engine;
            // Under the tenant gate, `last_append` and the engine
            // snapshot describe the same acknowledged prefix — the
            // consistency invariant recovery relies on.
            let (seq, mut snap, n) = {
                let _gate = record.gate(store).lock();
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
                let resp = reply(req.op, dispatch(shared, &req));
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

/// Frames what [`dispatch`] returned. The payload cap is checked here,
/// once for every op: a reply too large to frame becomes an error reply
/// naming its size — the client is answered and the connection lives —
/// where `write_response` could only refuse and drop the socket.
fn reply(op: Op, outcome: Result<Vec<u8>, Refusal>) -> Response {
    let (name, cap) = (op.name(), proto::MAX_PAYLOAD as usize);
    let (status, payload) = match outcome {
        Ok(payload) if payload.len() <= cap => (Status::Ok, payload),
        Ok(payload) => {
            let len = payload.len();
            let msg = format!("{name}: reply of {len} bytes exceeds the {cap}-byte frame cap");
            (Status::Err, msg.into_bytes())
        }
        Err(e) => (Status::Err, format!("{name}: {e}").into_bytes()),
    };
    Response { status, payload }
}

/// The reply to a `MERGE_SNAPSHOT` whose frame decoded but which
/// `ShardedEngine::try_absorb` handed back: the engine does not say
/// which of its two reasons applied, so the reply names both.
const MERGE_REFUSED: &str = "refused — accuracy configuration incompatible with this tenant, \
     or the summary's count would take the tenant's past i64::MAX";

/// Executes one request against the tenant registry. Every failure is
/// a [`Refusal`] that [`reply`] turns into an error *reply* — malformed
/// payloads, out-of-universe values, and incompatible snapshots must
/// never panic a worker. A refused write registers no tenant: the
/// payload is vetted before the registry is touched.
fn dispatch<S>(shared: &Shared<S>, req: &Request) -> Result<Vec<u8>, Refusal>
where
    S: MergeableSummary<u64> + WireCodec + Clone + Send + Sync + 'static,
{
    match req.op {
        Op::InsertBatch => {
            let xs = proto::decode_u64s(&req.payload)?;
            shared.check_values(&xs)?;
            let tenant = shared.tenant(req.tenant, Access::Write);
            Ok(proto::encode_ingest_ack(shared.ingest(&tenant, &xs)?))
        }
        Op::QueryMany => {
            let (phis, xs) = proto::decode_query_many(&req.payload)?;
            let tenant = shared.tenant(req.tenant, Access::Read);
            let (quantiles, ranks) = tenant.engine.query_many(&phis, &xs);
            Ok(proto::encode_query_many_reply(&quantiles, &ranks))
        }
        Op::Snapshot => {
            let mut snap = shared.tenant(req.tenant, Access::Read).engine.snapshot();
            Ok(WireCodec::to_bytes(&mut snap))
        }
        Op::MergeSnapshot => {
            let summary =
                S::from_bytes(&req.payload).map_err(|e| format!("frame rejected: {e}"))?;
            let tenant = shared.tenant(req.tenant, Access::Write);
            // Log-then-absorb under the tenant gate, like ingest. An
            // absorb failure after the append leaves a harmless dud
            // record: replay hits the same deterministic
            // incompatibility and skips it.
            let ack = shared.log_then_apply(
                &tenant,
                |store| store.append_snapshot(tenant.id, &req.payload),
                |engine| engine.try_absorb(summary).map_err(|_| MERGE_REFUSED.into()),
            )?;
            Ok(proto::encode_ingest_ack(ack))
        }
        Op::Stats => {
            let (tenants, engines, rings) = shared.stats_snapshot();
            let store = shared.store.as_ref().map(|s| s.stats());
            let json = shared
                .metrics
                .to_json(tenants, &engines, store.as_ref(), rings.as_ref());
            Ok(json.into_bytes())
        }
        Op::Shutdown => Ok(Vec::new()),
        Op::WindowInsert => {
            let (ts_nanos, xs) = proto::decode_window_insert(&req.payload)?;
            shared.check_values(&xs)?;
            let opts = shared.windowing()?;
            let tenant = shared.tenant(req.tenant, Access::Write);
            let ring = tenant
                .window
                .get_or_init(|| shared.new_window(&tenant, opts));
            // Same durable contract as INSERT_BATCH: the WAL logs the
            // plain batch (the all-time stream is what survives a
            // restart — rings are rebuilt empty and refill as new data
            // arrives, which docs/WINDOW.md spells out). Ring placement
            // happens after the gate: it is volatile state and needs no
            // WAL coverage.
            let ack = shared.ingest(&tenant, &xs)?;
            let _outcome = ring.ingest_window_only(ts_nanos, &xs);
            Ok(proto::encode_ingest_ack(ack))
        }
        Op::WindowQuery => {
            let (spec, phis) = proto::decode_window_query(&req.payload)?;
            let answer = shared.read_ring(req.tenant, |ring| ring.query(spec, &phis))??;
            Ok(proto::encode_window_answer(&answer))
        }
        Op::WindowStats => {
            let stats = shared.read_ring(req.tenant, WindowedEngine::stats)?;
            Ok(proto::encode_window_stats(&stats))
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
