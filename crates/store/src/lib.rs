//! `sqs-store` — the durable storage layer under the quantile service.
//!
//! The paper's summaries are mergeable, serializable state machines,
//! and the workspace's wire codec already round-trips them exactly
//! (RNG state included). This crate turns that property into
//! durability for `sqs-serve`: a tenant's engine state survives
//! `kill -9` because everything the server *acknowledged* is either
//! inside a checkpoint or replayable from a write-ahead log.
//!
//! Two cooperating pieces (each with its own module):
//!
//! * [`wal`] — a segmented, length-prefixed, per-record-checksummed
//!   log of acknowledged ingest operations. Appends happen *before*
//!   the engine sees the data and before the client sees the ACK;
//!   replay tolerates torn writes by truncating at the first corrupt
//!   byte.
//! * [`checkpoint`] — periodic atomic snapshots of each tenant's
//!   merged summary (the existing `WireCodec` frame), tagged with the
//!   WAL sequence number they cover. Checkpoints bound replay time
//!   and **fence** WAL truncation: a segment is deleted only when
//!   every tenant's checkpoint covers it.
//!
//! [`DurableStore`] composes them and owns the consistency protocol.
//! The invariant that makes recovery exact: for every tenant, *the
//! set of that tenant's operations with sequence number ≤ its
//! checkpoint's sequence number is exactly the set inside the
//! checkpoint*. The service guarantees it by holding the tenant's
//! [`TenantHandle`] lock across (WAL append + engine ingest) on the
//! write path, and across (read last-appended seq + engine snapshot)
//! on the checkpoint path. Recovery is then mechanical: decode the
//! newest valid checkpoint per tenant, replay the WAL records with
//! higher sequence numbers, verify counts.
//!
//! The crate is deliberately engine-agnostic: it stores bytes and
//! `u64` batches, never decoding summary frames itself (beyond a
//! structural [`sqs_core::codec::frame_kind`] sanity check), so the
//! service keeps the monopoly on summary types. See `docs/STORE.md`
//! for the byte layouts and the crash matrix.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

pub mod checkpoint;
pub mod wal;

pub use checkpoint::{CheckpointLoad, TenantCheckpoint};
pub use wal::{FsyncPolicy, ReplayReport, WalPayload, WalRecord};

use wal::WalWriter;

/// Result alias for store operations.
pub type StoreResult<T> = Result<T, StoreError>;

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level I/O failure, with the operation and path attached.
    Io {
        /// What the store was doing (e.g. `"wal append"`).
        context: &'static str,
        /// The file or directory involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A record body exceeds [`wal::MAX_RECORD_BODY`]; the caller's
    /// payload cap should make this unreachable in the service.
    RecordTooLarge {
        /// The offending body size in bytes.
        bytes: usize,
    },
    /// A failed append left stale bytes the writer could not roll
    /// back; all further appends fail fast so no acknowledgement can
    /// ever depend on a record written after them. Restarting the
    /// process repairs the tail via replay.
    WalPoisoned,
    /// A WAL segment or checkpoint carries the right magic but another
    /// format version. Nothing was repaired, truncated, pruned or
    /// deleted: the directory is exactly as it was found.
    UnsupportedVersion {
        /// The file that carries the other version.
        path: PathBuf,
        /// The version byte found in its header.
        found: u8,
        /// The only version this build reads and writes.
        supported: u8,
    },
}

impl StoreError {
    /// Wraps an [`io::Error`] with its operation and path.
    pub(crate) fn io(context: &'static str, path: &Path, source: io::Error) -> Self {
        StoreError::Io {
            context,
            path: path.to_path_buf(),
            source,
        }
    }
}

/// Refuses `path` if it starts with `magic` but carries a version
/// other than `supported`. Anything else — a short or foreign header —
/// is left for replay's corruption handling to judge.
pub(crate) fn refuse_other_version(path: &Path, magic: [u8; 4], supported: u8) -> StoreResult<()> {
    let mut head = Vec::with_capacity(5);
    fs::File::open(path)
        .and_then(|f| f.take(5).read_to_end(&mut head))
        .map_err(|e| StoreError::io("format version check", path, e))?;
    match head.split_last() {
        Some((&found, m)) if m == magic && found != supported => {
            Err(StoreError::UnsupportedVersion {
                path: path.to_path_buf(),
                found,
                supported,
            })
        }
        _ => Ok(()),
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io {
                context,
                path,
                source,
            } => write!(f, "{context} ({}): {source}", path.display()),
            StoreError::RecordTooLarge { bytes } => {
                write!(
                    f,
                    "record body of {bytes} bytes exceeds the {} byte cap",
                    wal::MAX_RECORD_BODY
                )
            }
            StoreError::WalPoisoned => write!(
                f,
                "wal writer poisoned by an earlier failed append; restart to repair the tail"
            ),
            StoreError::UnsupportedVersion {
                path,
                found,
                supported,
            } => write!(
                f,
                "{} is format version {found}; this build reads only version {supported} \
                 (data directory left untouched)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::RecordTooLarge { .. }
            | StoreError::WalPoisoned
            | StoreError::UnsupportedVersion { .. } => None,
        }
    }
}

/// Configuration for [`DurableStore::open`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Root data directory; `wal/` and `ckpt/` are created under it.
    pub dir: PathBuf,
    /// WAL segment rotation threshold in bytes.
    pub segment_bytes: u64,
    /// When appends reach the platter.
    pub fsync: FsyncPolicy,
}

impl StoreConfig {
    /// Defaults for `dir`: 64 MiB segments, [`FsyncPolicy::Always`]
    /// (an ACK means the bytes survive power loss).
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            segment_bytes: 64 << 20,
            fsync: FsyncPolicy::Always,
        }
    }
}

/// A point-in-time snapshot of the store's counters, surfaced by the
/// service's `STATS` op next to `EngineTotals`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// WAL records appended since open.
    pub records_appended: u64,
    /// Stream items inside appended batch records.
    pub items_appended: u64,
    /// WAL bytes appended (framing included).
    pub bytes_appended: u64,
    /// Explicit `fdatasync`/`fsync` calls on WAL segments.
    pub fsyncs: u64,
    /// WAL segment rotations.
    pub segments_rotated: u64,
    /// WAL segments deleted by checkpoint-fenced truncation.
    pub segments_deleted: u64,
    /// Checkpoints written successfully.
    pub checkpoints_written: u64,
    /// Checkpoint files skipped as corrupt during recovery.
    pub corrupt_checkpoints_skipped: u64,
    /// Recoveries performed at open (1 if prior state was found).
    pub recoveries: u64,
    /// WAL records replayed during the recovery.
    pub replayed_records: u64,
    /// Torn/corrupt WAL tails truncated during the recovery.
    pub torn_tails_dropped: u64,
    /// Forward sequence gaps accepted at segment boundaries during the
    /// recovery (resume points of earlier recoveries, not new loss).
    pub seq_gaps: u64,
    /// Highest sequence number assigned so far (0 = none).
    pub last_seq: u64,
}

/// Everything [`DurableStore::open`] recovered from disk, for the
/// service to rebuild engines from. Frames are *not* decoded here —
/// the service knows the summary type.
#[derive(Debug)]
pub struct Recovery {
    /// Newest valid checkpoint per tenant.
    pub checkpoints: Vec<TenantCheckpoint>,
    /// WAL records to replay, in sequence order, already filtered to
    /// those *not* covered by their tenant's checkpoint.
    pub records: Vec<WalRecord>,
    /// The raw WAL replay report (includes covered records too).
    pub report: ReplayReport,
    /// Corrupt checkpoint files skipped (newest-but-corrupt falls back
    /// to the previous one).
    pub corrupt_checkpoints_skipped: u64,
}

impl Recovery {
    /// Whether any durable state was found at all.
    #[must_use]
    pub fn found_state(&self) -> bool {
        !self.checkpoints.is_empty()
            || self.report.records > 0
            || self.report.torn_tails_dropped > 0
    }
}

/// Per-tenant bookkeeping: the ingest/checkpoint mutual-exclusion
/// lock plus the two sequence-number high-water marks.
#[derive(Debug, Default)]
struct TenantMeta {
    /// Held across (WAL append + engine ingest) and across (seq read +
    /// engine snapshot) — the consistency protocol's only lock.
    gate: Mutex<()>,
    /// Sequence number of this tenant's most recent WAL record.
    last_append: AtomicU64,
    /// Sequence number the tenant's newest checkpoint covers.
    ckpt_seq: AtomicU64,
    /// Sequence number the tenant's *second*-newest checkpoint covers
    /// — the WAL truncation fence. Trailing `ckpt_seq` by one
    /// checkpoint keeps records in `(fence_seq, ckpt_seq]` replayable,
    /// so the retained fallback checkpoint file is actually usable if
    /// the newest one bit-rots.
    fence_seq: AtomicU64,
}

/// A cloneable handle to one tenant's ingest/checkpoint gate.
#[derive(Debug, Clone)]
pub struct TenantHandle {
    meta: Arc<TenantMeta>,
}

impl TenantHandle {
    /// Acquires the tenant gate. Hold the guard across the paired
    /// store + engine operations (see the crate docs); a poisoned gate
    /// is recovered, since the store's own state is append-only and a
    /// panicked holder cannot have left it half-updated.
    pub fn lock(&self) -> MutexGuard<'_, ()> {
        self.meta
            .gate
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// Monotonic counters behind [`StoreStats`].
#[derive(Debug, Default)]
struct Counters {
    records_appended: AtomicU64,
    items_appended: AtomicU64,
    bytes_appended: AtomicU64,
    fsyncs: AtomicU64,
    segments_rotated: AtomicU64,
    segments_deleted: AtomicU64,
    checkpoints_written: AtomicU64,
    corrupt_checkpoints_skipped: AtomicU64,
    recoveries: AtomicU64,
    replayed_records: AtomicU64,
    torn_tails_dropped: AtomicU64,
    seq_gaps: AtomicU64,
}

/// The durable storage facade: WAL + checkpoints + the consistency
/// protocol. One instance per `--data-dir`; shared by worker threads
/// and the background checkpointer via `Arc`.
#[derive(Debug)]
pub struct DurableStore {
    ckpt_dir: PathBuf,
    wal: Mutex<WalWriter>,
    tenants: Mutex<HashMap<u64, Arc<TenantMeta>>>,
    counters: Counters,
}

impl DurableStore {
    /// Opens (creating directories as needed) the store under
    /// `cfg.dir`, performing recovery: load the newest valid
    /// checkpoint per tenant, replay the WAL (repairing torn tails in
    /// place), and return both the ready store and the [`Recovery`]
    /// the service must feed into its engines before serving.
    ///
    /// # Errors
    /// I/O failures creating directories or reading/repairing state,
    /// and [`StoreError::UnsupportedVersion`] — raised before anything
    /// on disk is touched — when a segment or checkpoint was written in
    /// another format version.
    pub fn open(cfg: &StoreConfig) -> StoreResult<(Self, Recovery)> {
        let wal_dir = cfg.dir.join("wal");
        let ckpt_dir = cfg.dir.join("ckpt");
        fs::create_dir_all(&wal_dir).map_err(|e| StoreError::io("create wal dir", &wal_dir, e))?;
        fs::create_dir_all(&ckpt_dir)
            .map_err(|e| StoreError::io("create ckpt dir", &ckpt_dir, e))?;

        // Loading checkpoints sweeps stray `.tmp` files, so the WAL's
        // format versions are vetted first: a refusal must leave every
        // file as it was found. (Both loaders vet their own directory
        // again before they change anything in it.)
        wal::vetted_segments(&wal_dir)?;
        let load = checkpoint::load_checkpoints(&ckpt_dir)?;
        let ckpt_seq_of: HashMap<u64, u64> =
            load.checkpoints.iter().map(|c| (c.tenant, c.seq)).collect();

        let mut records = Vec::new();
        let mut last_append: HashMap<u64, u64> = HashMap::new();
        let report = wal::replay(&wal_dir, |record| {
            last_append.insert(record.tenant, record.seq);
            let covered = ckpt_seq_of
                .get(&record.tenant)
                .is_some_and(|&c| record.seq <= c);
            if !covered {
                records.push(record);
            }
        })?;

        let max_ckpt_seq = ckpt_seq_of.values().copied().max().unwrap_or(0);
        // When a checkpoint covers records the WAL lost, next_seq jumps
        // past the durable tail; the next segment then legitimately
        // starts beyond where the previous one ended, which replay
        // accepts as a seq gap (see `wal::ReplayReport::seq_gaps`).
        let next_seq = report.last_seq.max(max_ckpt_seq) + 1;

        let fallback_seq_of: HashMap<u64, u64> = load.fallback_seqs.iter().copied().collect();
        let mut tenants = HashMap::new();
        for ckpt in &load.checkpoints {
            last_append.entry(ckpt.tenant).or_insert(ckpt.seq);
        }
        for (&tenant, &last) in &last_append {
            let meta = TenantMeta::default();
            meta.last_append.store(last, Ordering::Relaxed);
            meta.ckpt_seq.store(
                ckpt_seq_of.get(&tenant).copied().unwrap_or(0),
                Ordering::Relaxed,
            );
            meta.fence_seq.store(
                fallback_seq_of.get(&tenant).copied().unwrap_or(0),
                Ordering::Relaxed,
            );
            tenants.insert(tenant, Arc::new(meta));
        }

        let recovery = Recovery {
            checkpoints: load.checkpoints,
            records,
            report,
            corrupt_checkpoints_skipped: load.corrupt_skipped,
        };
        let store = Self {
            ckpt_dir,
            wal: Mutex::new(WalWriter::new(
                &wal_dir,
                cfg.segment_bytes,
                cfg.fsync,
                next_seq,
            )),
            tenants: Mutex::new(tenants),
            counters: Counters::default(),
        };
        store
            .counters
            .torn_tails_dropped
            .store(report.torn_tails_dropped, Ordering::Relaxed);
        store
            .counters
            .seq_gaps
            .store(report.seq_gaps, Ordering::Relaxed);
        store
            .counters
            .corrupt_checkpoints_skipped
            .store(recovery.corrupt_checkpoints_skipped, Ordering::Relaxed);
        store
            .counters
            .replayed_records
            .store(recovery.records.len() as u64, Ordering::Relaxed);
        if recovery.found_state() {
            store.counters.recoveries.store(1, Ordering::Relaxed);
        }
        Ok((store, recovery))
    }

    /// The tenant's handle (created on first touch). Lock it around
    /// the paired store + engine operations.
    pub fn tenant(&self, id: u64) -> TenantHandle {
        TenantHandle {
            meta: self.tenant_meta(id),
        }
    }

    /// Appends an acknowledged value batch to the WAL and returns its
    /// sequence number. **Contract:** the caller holds `tenant`'s
    /// [`TenantHandle`] lock and ingests the same batch into the
    /// engine before releasing it.
    ///
    /// # Errors
    /// WAL append failures; nothing was acknowledged-but-lost, since
    /// the caller must not ACK on error.
    pub fn append_batch(&self, tenant: u64, xs: &[u64]) -> StoreResult<u64> {
        self.append(tenant, &WalPayload::Batch(xs.to_vec()))
    }

    /// Appends an acknowledged merge-snapshot frame to the WAL. Same
    /// contract as [`append_batch`](Self::append_batch).
    ///
    /// # Errors
    /// WAL append failures.
    pub fn append_snapshot(&self, tenant: u64, frame: &[u8]) -> StoreResult<u64> {
        self.append(tenant, &WalPayload::Snapshot(frame.to_vec()))
    }

    /// Sequence number of `tenant`'s most recent WAL record (0 =
    /// none). Read under the tenant lock when pairing with an engine
    /// snapshot.
    pub fn last_append(&self, tenant: u64) -> u64 {
        self.tenant_meta(tenant).last_append.load(Ordering::Acquire)
    }

    /// Records a checkpoint of `tenant` covering WAL records with
    /// sequence numbers ≤ `seq`: writes the checkpoint file
    /// atomically, advances the tenant's fence to its *previous*
    /// checkpoint (keeping the retained fallback file replayable), and
    /// truncates WAL segments every tenant's fence now covers. `frame`
    /// is the tenant's summary as a `WireCodec` frame; `n` its item
    /// count.
    ///
    /// Call *without* the tenant lock held — the snapshot pair
    /// (`last_append` + engine snapshot) happens under the lock, the
    /// slow file write afterwards.
    ///
    /// # Errors
    /// Checkpoint write or WAL truncation failures.
    pub fn record_checkpoint(
        &self,
        tenant: u64,
        seq: u64,
        n: u64,
        frame: &[u8],
    ) -> StoreResult<()> {
        checkpoint::write_checkpoint(&self.ckpt_dir, tenant, seq, n, frame)?;
        let meta = self.tenant_meta(tenant);
        let prev = meta.ckpt_seq.swap(seq, Ordering::AcqRel);
        // Fence on the *previous* checkpoint: records in (prev, seq]
        // exist only inside the file just written until the next
        // checkpoint supersedes it, so they must stay in the WAL for
        // the corrupt-newest fallback to be replayable.
        meta.fence_seq.store(prev, Ordering::Release);
        self.counters
            .checkpoints_written
            .fetch_add(1, Ordering::Relaxed);
        let fence = self.fence();
        let deleted = {
            let mut w = self.wal_guard();
            w.truncate_below(fence)?
        };
        self.counters
            .segments_deleted
            .fetch_add(deleted, Ordering::Relaxed);
        Ok(())
    }

    /// Forces the WAL to the platter (graceful-shutdown flush; also
    /// useful before a planned restart under `FsyncPolicy::Never`).
    ///
    /// # Errors
    /// The underlying sync failure.
    pub fn flush(&self) -> StoreResult<()> {
        {
            let mut w = self.wal_guard();
            w.sync()?;
        }
        self.counters.fsyncs.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// A consistent snapshot of the store counters.
    pub fn stats(&self) -> StoreStats {
        let last_seq = {
            let w = self.wal_guard();
            w.next_seq().saturating_sub(1)
        };
        let c = &self.counters;
        StoreStats {
            records_appended: c.records_appended.load(Ordering::Relaxed),
            items_appended: c.items_appended.load(Ordering::Relaxed),
            bytes_appended: c.bytes_appended.load(Ordering::Relaxed),
            fsyncs: c.fsyncs.load(Ordering::Relaxed),
            segments_rotated: c.segments_rotated.load(Ordering::Relaxed),
            segments_deleted: c.segments_deleted.load(Ordering::Relaxed),
            checkpoints_written: c.checkpoints_written.load(Ordering::Relaxed),
            corrupt_checkpoints_skipped: c.corrupt_checkpoints_skipped.load(Ordering::Relaxed),
            recoveries: c.recoveries.load(Ordering::Relaxed),
            replayed_records: c.replayed_records.load(Ordering::Relaxed),
            torn_tails_dropped: c.torn_tails_dropped.load(Ordering::Relaxed),
            seq_gaps: c.seq_gaps.load(Ordering::Relaxed),
            last_seq,
        }
    }

    /// Tenants that have appended records not yet covered by their
    /// checkpoint, with the covering sequence number a checkpoint
    /// would need — the background checkpointer's work list.
    pub fn tenants_needing_checkpoint(&self) -> Vec<(u64, u64)> {
        self.metas()
            .into_iter()
            .filter_map(|(tenant, meta)| {
                let last = meta.last_append.load(Ordering::Acquire);
                let ckpt = meta.ckpt_seq.load(Ordering::Acquire);
                (last > ckpt).then_some((tenant, last))
            })
            .collect()
    }

    /// The shared append path: assign a sequence number, write + sync
    /// per policy, bump counters, advance the tenant high-water mark.
    fn append(&self, tenant: u64, payload: &WalPayload) -> StoreResult<u64> {
        let meta = self.tenant_meta(tenant);
        let outcome = {
            let mut w = self.wal_guard();
            w.append(tenant, payload)?
        };
        let c = &self.counters;
        c.records_appended.fetch_add(1, Ordering::Relaxed);
        c.items_appended
            .fetch_add(payload.batch_len(), Ordering::Relaxed);
        c.bytes_appended.fetch_add(outcome.bytes, Ordering::Relaxed);
        if outcome.synced {
            c.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        if outcome.rotated {
            c.segments_rotated.fetch_add(1, Ordering::Relaxed);
        }
        meta.last_append.store(outcome.seq, Ordering::Release);
        Ok(outcome.seq)
    }

    /// The WAL-truncation fence: the highest sequence number such that
    /// every tenant's records at or below it are covered by that
    /// tenant's *second*-newest checkpoint (or would not be needed by
    /// it). Fencing one checkpoint behind keeps the retained fallback
    /// file replayable if the newest one turns out corrupt.
    fn fence(&self) -> u64 {
        let mut fence = {
            let w = self.wal_guard();
            w.next_seq().saturating_sub(1)
        };
        for (_, meta) in self.metas() {
            let last = meta.last_append.load(Ordering::Acquire);
            let fallback = meta.fence_seq.load(Ordering::Acquire);
            if fallback < last {
                fence = fence.min(fallback);
            }
        }
        fence
    }

    /// The tenant's metadata `Arc`, created on first touch. (Sole
    /// `tenants` lock site; the guard never outlives this function.)
    fn tenant_meta(&self, id: u64) -> Arc<TenantMeta> {
        let mut map = match self.tenants.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        Arc::clone(map.entry(id).or_default())
    }

    /// Snapshot of all tenant metadata `Arc`s. (Sole other `tenants`
    /// lock site, same single-function discipline.)
    fn metas(&self) -> Vec<(u64, Arc<TenantMeta>)> {
        match self.tenants.lock() {
            Ok(g) => g.iter().map(|(&t, m)| (t, Arc::clone(m))).collect(),
            Err(poisoned) => poisoned
                .into_inner()
                .iter()
                .map(|(&t, m)| (t, Arc::clone(m)))
                .collect(),
        }
    }

    /// The WAL writer guard, poison-recovered: the writer's state is
    /// advanced only after successful writes, so a panicked holder
    /// leaves it consistent.
    fn wal_guard(&self) -> MutexGuard<'_, WalWriter> {
        match self.wal.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(dir: &Path) -> StoreConfig {
        let mut c = StoreConfig::new(dir);
        c.fsync = FsyncPolicy::Never;
        c.segment_bytes = 4096;
        c
    }

    fn tmp() -> sqs_util::tmpdir::TempDir {
        sqs_util::tmpdir::TempDir::new("sqs-store-test").expect("test invariant: tmpdir creatable")
    }

    fn frame() -> Vec<u8> {
        use sqs_core::codec::WireCodec;
        sqs_core::sampled::ReservoirQuantiles::<u64>::new(0.1, 1).to_bytes()
    }

    /// The store's WAL segment files under `root`, in sequence order.
    fn wal_segments(root: &Path) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = fs::read_dir(root.join("wal"))
            .expect("read wal dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "wal"))
            .collect();
        v.sort();
        v
    }

    #[test]
    fn fresh_open_has_no_recovery() {
        let dir = tmp();
        let (store, rec) = DurableStore::open(&cfg(dir.path())).expect("open");
        assert!(!rec.found_state());
        assert_eq!(store.stats().recoveries, 0);
        assert_eq!(store.stats().last_seq, 0);
    }

    #[test]
    fn appended_batches_come_back_on_reopen() {
        let dir = tmp();
        {
            let (store, _) = DurableStore::open(&cfg(dir.path())).expect("open");
            let t = store.tenant(5);
            let _g = t.lock();
            store.append_batch(5, &[1, 2, 3]).expect("append");
            store.append_batch(5, &[4, 5]).expect("append");
        }
        let (store, rec) = DurableStore::open(&cfg(dir.path())).expect("reopen");
        assert!(rec.found_state());
        assert_eq!(rec.records.len(), 2);
        assert_eq!(
            rec.records.first().map(|r| r.payload.clone()),
            Some(WalPayload::Batch(vec![1, 2, 3]))
        );
        assert_eq!(store.stats().recoveries, 1);
        assert_eq!(store.stats().replayed_records, 2);
        assert_eq!(store.last_append(5), 2);
    }

    #[test]
    fn checkpoint_filters_replay_and_truncates_wal() {
        let dir = tmp();
        let f = frame();
        {
            let (store, _) = DurableStore::open(&cfg(dir.path())).expect("open");
            for i in 0..40u64 {
                store.append_batch(9, &[i; 64]).expect("append");
            }
            let first = store.last_append(9);
            store
                .record_checkpoint(9, first, 40 * 64, &f)
                .expect("checkpoint");
            // The first checkpoint has no predecessor to fence on:
            // every record must stay replayable for its fallback
            // (pure WAL replay), so nothing is truncated yet.
            assert_eq!(
                store.stats().segments_deleted,
                0,
                "first checkpoint fences at 0"
            );
            for i in 0..40u64 {
                store.append_batch(9, &[i; 64]).expect("append");
            }
            let second = store.last_append(9);
            store
                .record_checkpoint(9, second, 80 * 64, &f)
                .expect("checkpoint");
            store.append_batch(9, &[777]).expect("append after ckpt");
            assert!(
                store.stats().segments_deleted > 0,
                "second checkpoint advances the fence to the first"
            );
        }
        let (_store, rec) = DurableStore::open(&cfg(dir.path())).expect("reopen");
        assert_eq!(rec.checkpoints.len(), 1);
        assert_eq!(rec.checkpoints.first().map(|c| c.n), Some(80 * 64));
        assert_eq!(
            rec.records.len(),
            1,
            "only the post-checkpoint record replays"
        );
        assert_eq!(
            rec.records.first().map(|r| r.payload.clone()),
            Some(WalPayload::Batch(vec![777]))
        );
    }

    #[test]
    fn fence_respects_the_laggiest_tenant() {
        let dir = tmp();
        let f = frame();
        let (store, _) = DurableStore::open(&cfg(dir.path())).expect("open");
        // Tenant 1 writes, checkpoints; tenant 2 writes, never does.
        store.append_batch(2, &[42]).expect("append");
        for i in 0..40u64 {
            store.append_batch(1, &[i; 64]).expect("append");
        }
        store
            .record_checkpoint(1, store.last_append(1), 40 * 64, &f)
            .expect("checkpoint");
        // Tenant 2's record (seq 1) fences everything: no deletions.
        assert_eq!(store.stats().segments_deleted, 0);
        let needs = store.tenants_needing_checkpoint();
        assert_eq!(needs, vec![(2, 1)]);
    }

    /// The REVIEW.md high-severity repro: a checkpoint covering seqs
    /// beyond the durable WAL tail (crash under `--fsync
    /// interval|never`) makes the first recovery resume numbering past
    /// the tail; the second restart must treat the resulting
    /// between-segment gap as a resume point, not corruption — the
    /// batch acked after the first recovery has to survive.
    #[test]
    fn checkpoint_ahead_of_wal_tail_survives_two_restarts() {
        let dir = tmp();
        let f = frame();
        {
            let (store, _) = DurableStore::open(&cfg(dir.path())).expect("open");
            let t = store.tenant(1);
            let _g = t.lock();
            for i in 0..3u64 {
                store.append_batch(1, &[i]).expect("append");
            }
            drop(_g);
            store.record_checkpoint(1, 3, 3, &f).expect("checkpoint");
        }
        // Crash simulation: the checkpoint reached the disk but the
        // last WAL record did not. One-value batch records are
        // RECORD_OVERHEAD + 8 (count) + 8 (value) bytes each.
        let rec_len = (wal::RECORD_OVERHEAD + 16) as u64;
        let seg = wal_segments(dir.path()).pop().expect("one segment on disk");
        let file = fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .expect("open segment");
        file.set_len(wal::SEGMENT_HEADER_LEN as u64 + 2 * rec_len)
            .expect("drop record 3");
        drop(file);
        {
            // First recovery: WAL ends at seq 2, checkpoint covers 3,
            // so the writer resumes at 4 — in a new segment that
            // starts past where the old one ends.
            let (store, rec) = DurableStore::open(&cfg(dir.path())).expect("first reopen");
            assert!(rec.records.is_empty(), "seqs 1-2 are checkpoint-covered");
            let t = store.tenant(1);
            let _g = t.lock();
            let seq = store.append_batch(1, &[99]).expect("append");
            assert_eq!(seq, 4);
        }
        // Second recovery: the acked seq-4 record must come back.
        let (store, rec) = DurableStore::open(&cfg(dir.path())).expect("second reopen");
        assert_eq!(
            rec.records
                .iter()
                .map(|r| (r.seq, r.payload.clone()))
                .collect::<Vec<_>>(),
            vec![(4, WalPayload::Batch(vec![99]))],
            "the batch acked after the first recovery survives the seq gap"
        );
        assert_eq!(rec.report.seq_gaps, 1);
        assert_eq!(rec.report.torn_tails_dropped, 0);
        assert_eq!(store.stats().seq_gaps, 1);
        assert_eq!(store.last_append(1), 4);
    }

    /// The keep-2 "bit-rot fallback" must be replayable: with the
    /// fence trailing one checkpoint behind, a corrupt newest file
    /// falls back to the previous one and finds every record after it
    /// still in the WAL — no silent loss of `(prev, newest]`.
    #[test]
    fn corrupt_newest_checkpoint_fallback_is_fully_replayable() {
        let dir = tmp();
        let f = frame();
        let (first, second) = {
            let (store, _) = DurableStore::open(&cfg(dir.path())).expect("open");
            for i in 0..40u64 {
                store.append_batch(1, &[i; 64]).expect("append");
            }
            let first = store.last_append(1);
            store
                .record_checkpoint(1, first, 40 * 64, &f)
                .expect("checkpoint");
            for i in 0..40u64 {
                store.append_batch(1, &[i; 64]).expect("append");
            }
            let second = store.last_append(1);
            store
                .record_checkpoint(1, second, 80 * 64, &f)
                .expect("checkpoint");
            assert!(
                store.stats().segments_deleted > 0,
                "the WAL did get truncated (below the first checkpoint)"
            );
            store.append_batch(1, &[5]).expect("append after ckpt");
            (first, second)
        };
        // Bit-rot the newest checkpoint file (zero-padded names sort
        // in (tenant, seq) order, so the lexicographic max is newest).
        let mut ckpts: Vec<PathBuf> = fs::read_dir(dir.path().join("ckpt"))
            .expect("read ckpt dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
            .collect();
        ckpts.sort();
        assert_eq!(ckpts.len(), 2, "keep-2 retention");
        let newest = ckpts.last().expect("newest checkpoint");
        let mut bytes = fs::read(newest).expect("read");
        if let Some(b) = bytes.get_mut(25) {
            *b ^= 0x10;
        }
        fs::write(newest, &bytes).expect("write back");

        let (_store, rec) = DurableStore::open(&cfg(dir.path())).expect("reopen");
        assert_eq!(rec.corrupt_checkpoints_skipped, 1);
        assert_eq!(
            rec.checkpoints.first().map(|c| c.seq),
            Some(first),
            "fell back to the previous checkpoint"
        );
        let seqs: Vec<u64> = rec.records.iter().map(|r| r.seq).collect();
        assert_eq!(
            seqs,
            (first + 1..=second + 1).collect::<Vec<_>>(),
            "every record past the fallback checkpoint is still replayable"
        );
    }

    /// Every file under `root` with its bytes, in path order.
    fn dir_image(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut image = Vec::new();
        for sub in ["wal", "ckpt"] {
            for entry in fs::read_dir(root.join(sub)).expect("read dir") {
                let path = entry.expect("dir entry").path();
                let bytes = fs::read(&path).expect("read file");
                image.push((path, bytes));
            }
        }
        image.sort();
        image
    }

    /// A segment or checkpoint headed with another format version is
    /// not a torn file: the open fails before recovery repairs, sweeps
    /// or deletes anything, so the directory stays byte-identical.
    #[test]
    fn other_format_version_is_refused_and_nothing_is_touched() {
        let dir = tmp();
        {
            let (store, _) = DurableStore::open(&cfg(dir.path())).expect("open");
            for i in 0..40u64 {
                store.append_batch(1, &[i; 64]).expect("append");
            }
            store
                .record_checkpoint(1, store.last_append(1), 40 * 64, &frame())
                .expect("checkpoint");
        }
        // Work recovery would otherwise do: a torn tail to truncate, a
        // stray `.tmp` to sweep.
        let segments = wal_segments(dir.path());
        assert!(segments.len() >= 3, "need later segments to delete");
        let last = segments.last().expect("last segment");
        let torn = fs::read(last).expect("read");
        fs::write(last, &torn[..torn.len() - 5]).expect("tear the tail");
        fs::write(dir.path().join("ckpt").join("stray.tmp"), b"half").expect("plant tmp");
        let ckpt = fs::read_dir(dir.path().join("ckpt"))
            .expect("read ckpt dir")
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|x| x == "ckpt"))
            .expect("one checkpoint");

        let cases = [
            (
                segments.first().expect("first segment"),
                wal::SEGMENT_VERSION,
            ),
            (&ckpt, checkpoint::CHECKPOINT_VERSION),
        ];
        for (victim, current) in cases {
            let good = fs::read(victim).expect("read");
            let mut old = good.clone();
            old[4] = current - 1;
            fs::write(victim, &old).expect("plant the older version");
            let before = dir_image(dir.path());
            match DurableStore::open(&cfg(dir.path())) {
                Err(StoreError::UnsupportedVersion {
                    path,
                    found,
                    supported,
                }) => {
                    assert_eq!(&path, victim);
                    assert_eq!((found, supported), (current - 1, current));
                }
                other => panic!("expected a version refusal, got {other:?}"),
            }
            assert_eq!(dir_image(dir.path()), before, "open changed the directory");
            fs::write(victim, &good).expect("restore");
        }
        // With both files back at the current version the same
        // directory opens, and only now is the torn tail repaired.
        let (_store, rec) = DurableStore::open(&cfg(dir.path())).expect("reopen");
        assert_eq!(rec.report.torn_tails_dropped, 1);
    }

    #[test]
    fn snapshot_records_replay_too() {
        let dir = tmp();
        let f = frame();
        {
            let (store, _) = DurableStore::open(&cfg(dir.path())).expect("open");
            store.append_snapshot(3, &f).expect("append snapshot");
        }
        let (_store, rec) = DurableStore::open(&cfg(dir.path())).expect("reopen");
        assert_eq!(
            rec.records.first().map(|r| r.payload.clone()),
            Some(WalPayload::Snapshot(f))
        );
    }

    #[test]
    fn stats_ledger_adds_up() {
        let dir = tmp();
        let (store, _) = DurableStore::open(&cfg(dir.path())).expect("open");
        store.append_batch(1, &[1, 2, 3, 4]).expect("append");
        store.append_batch(1, &[5]).expect("append");
        let s = store.stats();
        assert_eq!(s.records_appended, 2);
        assert_eq!(s.items_appended, 5);
        assert!(s.bytes_appended > 0);
        assert_eq!(s.last_seq, 2);
        store.flush().expect("flush");
        assert!(store.stats().fsyncs >= 1);
    }
}
