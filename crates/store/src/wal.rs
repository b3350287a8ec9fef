//! The segmented write-ahead log of acknowledged ingest traffic.
//!
//! One logical log, stored as a sequence of **segment** files under
//! `<data-dir>/wal/`, named `seg-<first_seq>.wal` by the sequence
//! number of the first record they hold. Each segment starts with a
//! fixed header and is followed by length-prefixed, individually
//! checksummed records ([`sqs_core::codec::Checksum`]):
//!
//! ```text
//! segment: "SQWL" | ver u8 | rsvd u8×3 | first_seq u64 | record*
//! record:  body_len u32 | body | sum64(body_len ‖ body)
//! body:    seq u64 | tenant u64 | kind u8 | payload
//! ```
//!
//! `kind` is [`KIND_BATCH`] (payload: count-prefixed `u64` values, the
//! service's `INSERT_BATCH`) or [`KIND_SNAPSHOT`] (payload: one
//! `sqs_core::codec` frame, the service's `MERGE_SNAPSHOT`). Sequence
//! numbers are global across tenants and increase by exactly one per
//! record *within a segment*, which replay exploits: any in-segment
//! gap, checksum mismatch, short read, or impossible length is
//! **corruption**, and replay stops at the first corrupt byte,
//! truncates the log there (dropping the torn tail), and reports what
//! it dropped — a record is either wholly replayed or wholly gone,
//! never half-applied.
//!
//! *Between* segments, a forward gap is legal and replay accepts it
//! (counted in [`ReplayReport::seq_gaps`]): recovery resumes sequence
//! numbering one past `max(wal tail, newest checkpoint seq)`, so when
//! a checkpoint covers records the WAL lost (a crash under
//! `FsyncPolicy::Interval`/`Never`, or a mid-log repair), the next
//! segment legitimately starts beyond where the previous one ended.
//! The gate is the segment *header*: its `first_seq` must match the
//! file name, which only the writer produces — a segment that starts
//! late is a resume point, not bit rot. Backward overlap is still
//! corruption.
//!
//! Durability is governed by [`FsyncPolicy`]: `Always` fsyncs after
//! every append (an acknowledged record survives `kill -9`),
//! `Interval` bounds the unsynced window, `Never` leaves flushing to
//! the OS. Rotation always syncs the finished segment and the
//! directory entry of the new one. See `docs/STORE.md` for the crash
//! matrix.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sqs_core::codec::{open_sealed, seal, Reader};

use crate::{StoreError, StoreResult};

/// Segment-header magic: the four bytes `SQWL` (Streaming Quantile
/// Write-ahead Log).
pub const SEGMENT_MAGIC: [u8; 4] = *b"SQWL";

/// Current segment-format version; replay refuses others untouched.
pub const SEGMENT_VERSION: u8 = 2;

/// Segment header length: magic(4) + version(1) + reserved(3) +
/// first_seq(8).
pub const SEGMENT_HEADER_LEN: usize = 16;

/// Record kind: a count-prefixed `u64` value batch.
pub const KIND_BATCH: u8 = 1;

/// Record kind: a `sqs_core::codec` summary frame merged into the
/// tenant (the durable form of `MERGE_SNAPSHOT`).
pub const KIND_SNAPSHOT: u8 = 2;

/// Hard cap on one record body (64 MiB) — far above the service's
/// 16 MiB payload cap, low enough that a corrupt length field can
/// never balloon replay memory. Checked by both writer and replayer.
pub const MAX_RECORD_BODY: u32 = 1 << 26;

/// Fixed per-record framing overhead: length prefix (4) + seq (8) +
/// tenant (8) + kind (1) + trailing checksum (8).
pub const RECORD_OVERHEAD: usize = 29;

/// When (if ever) appends reach the disk platter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every append: an acknowledged record survives
    /// power loss. The default for durable serving.
    Always,
    /// `fdatasync` at most once per the given window: bounds data loss
    /// to the window while amortizing the sync cost across appends.
    Interval(Duration),
    /// Never sync explicitly; the OS page cache decides. Fastest, and
    /// exactly as durable as the machine's power supply.
    Never,
}

/// One record recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Global, gapless sequence number.
    pub seq: u64,
    /// Tenant whose engine the record belongs to.
    pub tenant: u64,
    /// The logged operation.
    pub payload: WalPayload,
}

/// The operation a [`WalRecord`] carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalPayload {
    /// An acknowledged `INSERT_BATCH`: the raw values.
    Batch(Vec<u64>),
    /// An acknowledged `MERGE_SNAPSHOT`: the summary frame to
    /// re-absorb on replay.
    Snapshot(Vec<u8>),
}

impl WalPayload {
    /// Number of stream items this record contributes on replay
    /// (snapshot frames answer 0 here — their mass is inside the
    /// frame and only known after decoding).
    #[must_use]
    pub fn batch_len(&self) -> u64 {
        match self {
            WalPayload::Batch(xs) => xs.len() as u64,
            WalPayload::Snapshot(_) => 0,
        }
    }
}

/// What replay found (and repaired) in the log directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Segment files scanned.
    pub segments: u64,
    /// Records successfully replayed.
    pub records: u64,
    /// Stream items inside replayed batch records.
    pub items: u64,
    /// Torn/corrupt tails truncated away (0 or 1 per recovery: replay
    /// stops at the first corrupt byte).
    pub torn_tails_dropped: u64,
    /// Forward sequence gaps accepted at segment boundaries — each one
    /// marks a spot where an earlier recovery resumed numbering past a
    /// lost WAL tail (the missing range was checkpoint-covered or
    /// reported dropped back then; it is not new loss).
    pub seq_gaps: u64,
    /// Bytes discarded by tail truncation (including whole later
    /// segments removed after a mid-log corruption).
    pub bytes_dropped: u64,
    /// Highest sequence number replayed (0 when the log was empty).
    pub last_seq: u64,
}

/// The append half of the log. Owned by `DurableStore` behind a mutex;
/// all methods take `&mut self`.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    segment_bytes: u64,
    fsync: FsyncPolicy,
    /// Open segment, `None` until the first append after open/rotate
    /// (so restarting a quiet server never litters empty segments).
    file: Option<File>,
    seg_bytes: u64,
    next_seq: u64,
    last_sync: Instant,
    /// Set when a failed append could not be rolled back off the disk:
    /// the segment may hold stale bytes at its tail, so every further
    /// append fails fast rather than writing a reused sequence number
    /// after them (replay would stop at the stale bytes and drop the
    /// later, acknowledged records).
    poisoned: bool,
    /// Test-only fault injection: each unit makes the next append
    /// write half its record and then fail, exercising the rollback.
    #[cfg(test)]
    torn_appends: u32,
}

/// What one append did, for the caller's stats ledger.
#[derive(Debug, Clone, Copy)]
pub struct AppendOutcome {
    /// The sequence number assigned to the record.
    pub seq: u64,
    /// Bytes written (record framing included).
    pub bytes: u64,
    /// Whether this append rotated into a fresh segment.
    pub rotated: bool,
    /// Whether this append reached the platter (`fdatasync`).
    pub synced: bool,
}

impl WalWriter {
    /// A writer over `dir`, resuming sequence numbers at `next_seq`
    /// (one past the highest durable record). Does not touch the disk
    /// until the first append.
    #[must_use]
    pub fn new(dir: &Path, segment_bytes: u64, fsync: FsyncPolicy, next_seq: u64) -> Self {
        Self {
            dir: dir.to_path_buf(),
            segment_bytes: segment_bytes.max(SEGMENT_HEADER_LEN as u64 + 1),
            fsync,
            file: None,
            seg_bytes: 0,
            next_seq,
            last_sync: Instant::now(),
            poisoned: false,
            #[cfg(test)]
            torn_appends: 0,
        }
    }

    /// The next sequence number an append will be assigned.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Appends one record and applies the fsync policy. The returned
    /// outcome carries the assigned sequence number.
    ///
    /// # Errors
    /// I/O failures and oversized payloads; the sequence number is not
    /// consumed on failure.
    pub fn append(&mut self, tenant: u64, payload: &WalPayload) -> StoreResult<AppendOutcome> {
        if self.poisoned {
            return Err(StoreError::WalPoisoned);
        }
        let seq = self.next_seq;
        let record = encode_record(seq, tenant, payload)?;
        let mut rotated = false;
        if self
            .file
            .as_ref()
            .is_some_and(|_| self.seg_bytes + record.len() as u64 > self.segment_bytes)
        {
            self.finish_segment()?;
            rotated = true;
        }
        if self.file.is_none() {
            self.open_segment()?;
        }
        // Everything from here on must leave the segment exactly at
        // `start` on failure: the sequence number is not consumed, so
        // the next append reuses it, and stale bytes before it would
        // make replay stop there and drop later acknowledged records.
        let start = self.seg_bytes;
        #[cfg(test)]
        if self.torn_appends > 0 {
            self.torn_appends -= 1;
            let half = record.len() / 2;
            let file = self
                .file
                .as_mut()
                .expect("wal invariant: open_segment leaves an open file");
            let _ = file.write_all(record.get(..half).unwrap_or_default());
            self.rollback(start);
            return Err(StoreError::io(
                "wal append",
                &self.dir,
                std::io::Error::other("injected torn append"),
            ));
        }
        let file = self
            .file
            .as_mut()
            .expect("wal invariant: open_segment leaves an open file");
        if let Err(e) = file.write_all(&record) {
            self.rollback(start);
            return Err(StoreError::io("wal append", &self.dir, e));
        }
        self.seg_bytes += record.len() as u64;
        let synced = match self.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Interval(window) => self.last_sync.elapsed() >= window,
            FsyncPolicy::Never => false,
        };
        if synced {
            if let Err(e) = self.sync() {
                self.rollback(start);
                return Err(e);
            }
        }
        self.next_seq += 1;
        Ok(AppendOutcome {
            seq,
            bytes: record.len() as u64,
            rotated,
            synced,
        })
    }

    /// Restores the open segment to `len` bytes after a failed append,
    /// so no stale partial record can precede a future append's reuse
    /// of the same sequence number. If the restore itself fails the
    /// writer poisons itself — appends fail fast from then on, which
    /// keeps "acknowledged" and "replayable" identical at the cost of
    /// requiring a restart (whose replay repairs the tail).
    fn rollback(&mut self, len: u64) {
        let restored = self
            .file
            .as_mut()
            .is_some_and(|f| f.set_len(len).is_ok() && f.seek(SeekFrom::Start(len)).is_ok());
        if restored {
            self.seg_bytes = len;
        } else {
            self.poisoned = true;
            self.file = None;
        }
    }

    /// Whether a failed, un-rollbackable append has poisoned the
    /// writer (all appends now fail with [`StoreError::WalPoisoned`]).
    #[must_use]
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// `fdatasync` on the open segment (no-op when nothing is open).
    ///
    /// # Errors
    /// The underlying sync failure.
    pub fn sync(&mut self) -> StoreResult<()> {
        if let Some(file) = self.file.as_mut() {
            file.sync_data()
                .map_err(|e| StoreError::io("wal fsync", &self.dir, e))?;
        }
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Deletes every segment whose records all have `seq ≤ fence`
    /// (checkpoint-covered history). The open segment is never
    /// deleted. Returns how many segments were removed.
    ///
    /// # Errors
    /// Directory listing or unlink failures.
    pub fn truncate_below(&mut self, fence: u64) -> StoreResult<u64> {
        let segments = list_segments(&self.dir)?;
        let mut deleted = 0u64;
        // Segment i spans [first_i, first_{i+1} - 1]; it is fully
        // checkpoint-covered iff first_{i+1} ≤ fence + 1. The last
        // segment's span is open-ended (it is or may become the active
        // one), so it always stays.
        for pair in segments.windows(2) {
            let [(_, path), (next_first, _)] = pair else {
                continue;
            };
            if *next_first <= fence.saturating_add(1) {
                fs::remove_file(path).map_err(|e| StoreError::io("wal truncate", path, e))?;
                deleted += 1;
            }
        }
        if deleted > 0 {
            sync_dir(&self.dir)?;
        }
        Ok(deleted)
    }

    /// Syncs and closes the open segment; the next append starts a
    /// fresh one.
    fn finish_segment(&mut self) -> StoreResult<()> {
        self.sync()?;
        self.file = None;
        self.seg_bytes = 0;
        Ok(())
    }

    /// Creates `seg-<next_seq>.wal` with its header and syncs the
    /// directory entry so the segment itself survives a crash.
    fn open_segment(&mut self) -> StoreResult<()> {
        let path = segment_path(&self.dir, self.next_seq);
        let mut file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)
            .map_err(|e| StoreError::io("wal segment create", &path, e))?;
        let mut header = Vec::with_capacity(SEGMENT_HEADER_LEN);
        header.extend_from_slice(&SEGMENT_MAGIC);
        header.push(SEGMENT_VERSION);
        header.extend_from_slice(&[0u8; 3]);
        header.extend_from_slice(&self.next_seq.to_le_bytes());
        file.write_all(&header)
            .map_err(|e| StoreError::io("wal segment header", &path, e))?;
        file.sync_data()
            .map_err(|e| StoreError::io("wal segment header sync", &path, e))?;
        sync_dir(&self.dir)?;
        self.file = Some(file);
        self.seg_bytes = SEGMENT_HEADER_LEN as u64;
        Ok(())
    }
}

/// Encodes one record (framing + checksum).
fn encode_record(seq: u64, tenant: u64, payload: &WalPayload) -> StoreResult<Vec<u8>> {
    let payload_len = match payload {
        WalPayload::Batch(xs) => 8 + xs.len() * 8,
        WalPayload::Snapshot(frame) => frame.len(),
    };
    let body_len = 8 + 8 + 1 + payload_len;
    let declared = u32::try_from(body_len)
        .ok()
        .filter(|&l| l <= MAX_RECORD_BODY)
        .ok_or(StoreError::RecordTooLarge { bytes: body_len })?;
    let mut out = Vec::with_capacity(4 + body_len + 8);
    out.extend_from_slice(&declared.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&tenant.to_le_bytes());
    match payload {
        WalPayload::Batch(xs) => {
            out.push(KIND_BATCH);
            sqs_core::codec::put_u64_slice(&mut out, xs);
        }
        WalPayload::Snapshot(frame) => {
            out.push(KIND_SNAPSHOT);
            out.extend_from_slice(frame);
        }
    }
    seal(&mut out);
    Ok(out)
}

/// `seg-<first_seq>.wal`, zero-padded so lexicographic order is
/// sequence order.
fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("seg-{first_seq:020}.wal"))
}

/// All segments in `dir` as `(first_seq, path)`, ordered by sequence.
fn list_segments(dir: &Path) -> StoreResult<Vec<(u64, PathBuf)>> {
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("wal read_dir", dir, e))?;
    let mut out = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|e| StoreError::io("wal read_dir entry", dir, e))?
            .path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let Some(first_seq) = name
            .strip_prefix("seg-")
            .and_then(|rest| rest.strip_suffix(".wal"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        out.push((first_seq, path));
    }
    out.sort_unstable_by_key(|(first, _)| *first);
    Ok(out)
}

/// [`list_segments`], failing if any of them was written in another
/// [`SEGMENT_VERSION`]; reads headers only, changes nothing.
pub(crate) fn vetted_segments(dir: &Path) -> StoreResult<Vec<(u64, PathBuf)>> {
    let segments = list_segments(dir)?;
    for (_, path) in &segments {
        crate::refuse_other_version(path, SEGMENT_MAGIC, SEGMENT_VERSION)?;
    }
    Ok(segments)
}

/// Fsyncs the directory itself so entry creations/unlinks are durable
/// (POSIX: a renamed/created file is only crash-safe once its parent
/// directory is synced). Best-effort on platforms where directories
/// cannot be opened for sync.
fn sync_dir(dir: &Path) -> StoreResult<()> {
    match File::open(dir) {
        Ok(handle) => handle
            .sync_all()
            .map_err(|e| StoreError::io("dir fsync", dir, e)),
        Err(_) => Ok(()),
    }
}

/// Replays every valid record in `dir` in sequence order into
/// `apply`, then **repairs** the log: the file holding the first
/// corrupt byte is truncated to its last valid record, and any later
/// segments are deleted, so what remains on disk is exactly what was
/// replayed.
///
/// # Errors
/// I/O failures reading or repairing the log, and
/// [`StoreError::UnsupportedVersion`] — before any record is applied or
/// any file changed — if a segment was written in another
/// [`SEGMENT_VERSION`]. Corruption itself is not an error — it is the
/// condition this function exists to handle.
pub fn replay(dir: &Path, mut apply: impl FnMut(WalRecord)) -> StoreResult<ReplayReport> {
    let segments = vetted_segments(dir)?;
    let mut report = ReplayReport::default();
    let mut expected_seq: Option<u64> = None;
    let mut last_applied: u64 = 0;
    let mut corrupt_at: Option<(usize, u64)> = None; // (segment idx, keep-bytes)
    let mut apply = |record: WalRecord| {
        last_applied = record.seq;
        apply(record);
    };
    for (idx, (name_seq, path)) in segments.iter().enumerate() {
        report.segments += 1;
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| StoreError::io("wal segment read", path, e))?;
        match scan_segment(&bytes, *name_seq, expected_seq, &mut apply, &mut report) {
            SegmentScan::Clean { next_seq } => expected_seq = Some(next_seq),
            SegmentScan::Corrupt { keep_bytes } => {
                corrupt_at = Some((idx, keep_bytes));
                report.bytes_dropped += bytes.len() as u64 - keep_bytes;
                break;
            }
        }
    }
    if let Some((idx, keep_bytes)) = corrupt_at {
        report.torn_tails_dropped += 1;
        if let Some((_, path)) = segments.get(idx) {
            if keep_bytes > SEGMENT_HEADER_LEN as u64 {
                let file = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| StoreError::io("wal repair open", path, e))?;
                file.set_len(keep_bytes)
                    .map_err(|e| StoreError::io("wal repair truncate", path, e))?;
                file.sync_all()
                    .map_err(|e| StoreError::io("wal repair sync", path, e))?;
            } else {
                // Nothing valid in this segment (even the header may be
                // torn): remove it entirely.
                fs::remove_file(path).map_err(|e| StoreError::io("wal repair unlink", path, e))?;
            }
        }
        for (_, path) in segments.iter().skip(idx + 1) {
            let len = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            report.bytes_dropped += len;
            fs::remove_file(path).map_err(|e| StoreError::io("wal repair unlink", path, e))?;
        }
        sync_dir(dir)?;
    }
    report.last_seq = expected_seq
        .map_or(0, |next| next.saturating_sub(1))
        .max(last_applied);
    Ok(report)
}

/// Outcome of scanning one segment's bytes.
enum SegmentScan {
    /// Every byte parsed; the next record anywhere in the log must
    /// carry `next_seq`.
    Clean { next_seq: u64 },
    /// Corruption found; the first `keep_bytes` bytes are valid.
    Corrupt { keep_bytes: u64 },
}

/// Walks one segment's records, calling `apply` for each valid one.
/// Any structural problem — bad header, bad checksum, short read, an
/// in-segment sequence gap, a backward overlap between segments, an
/// impossible length — stops the scan at the last valid byte. A
/// forward gap between segments is accepted (see the module docs).
fn scan_segment(
    bytes: &[u8],
    name_seq: u64,
    expected: Option<u64>,
    apply: &mut impl FnMut(WalRecord),
    report: &mut ReplayReport,
) -> SegmentScan {
    let Some(header) = bytes.get(..SEGMENT_HEADER_LEN) else {
        return SegmentScan::Corrupt { keep_bytes: 0 };
    };
    let mut r = Reader::new(header);
    let magic_ok = r.bytes(4).is_ok_and(|m| m == SEGMENT_MAGIC);
    // The version byte was vetted for every segment before the scan.
    let _version_and_reserved = r.bytes(4);
    let first_seq = r.u64().unwrap_or(u64::MAX);
    // The header's first_seq must agree with the file name, and must
    // not overlap the running sequence; a fresh log (expected == None)
    // adopts it. A *forward* gap is a prior recovery's resume point
    // (next_seq jumped past a lost tail to the checkpoint fence), so
    // it is accepted and counted, never treated as corruption — else a
    // restart after such a recovery would delete the whole segment and
    // every acknowledged record in it.
    let seq_ok = first_seq == name_seq && expected.is_none_or(|e| first_seq >= e);
    if !(magic_ok && seq_ok) {
        return SegmentScan::Corrupt { keep_bytes: 0 };
    }
    if expected.is_some_and(|e| first_seq > e) {
        report.seq_gaps += 1;
    }
    let mut next_seq = first_seq;
    let mut offset = SEGMENT_HEADER_LEN;
    while offset < bytes.len() {
        match parse_record(bytes.get(offset..).unwrap_or_default(), next_seq) {
            Some((record, consumed)) => {
                report.records += 1;
                report.items += record.payload.batch_len();
                apply(record);
                next_seq += 1;
                offset += consumed;
            }
            None => {
                return SegmentScan::Corrupt {
                    keep_bytes: offset as u64,
                };
            }
        }
    }
    SegmentScan::Clean { next_seq }
}

/// Parses one record expecting sequence number `want_seq`; `None` on
/// any corruption. Returns the record and the bytes consumed.
fn parse_record(bytes: &[u8], want_seq: u64) -> Option<(WalRecord, usize)> {
    let mut r = Reader::new(bytes);
    let body_len = r.u32().ok()?;
    if body_len > MAX_RECORD_BODY || (body_len as usize) < 17 {
        return None;
    }
    let framed_len = 4 + body_len as usize;
    let framed = open_sealed(bytes.get(..framed_len + 8)?).ok()?;
    let mut body = Reader::new(framed.get(4..)?);
    let seq = body.u64().ok()?;
    if seq != want_seq {
        return None;
    }
    let tenant = body.u64().ok()?;
    let payload = match body.u8().ok()? {
        KIND_BATCH => {
            let xs = body.u64_vec().ok()?;
            body.done().ok()?;
            WalPayload::Batch(xs)
        }
        KIND_SNAPSHOT => WalPayload::Snapshot(body.bytes(body.remaining()).ok()?.to_vec()),
        _ => return None,
    };
    Some((
        WalRecord {
            seq,
            tenant,
            payload,
        },
        framed_len + 8,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> sqs_util::tmpdir::TempDir {
        sqs_util::tmpdir::TempDir::new("sqs-wal-test").expect("test invariant: tmpdir creatable")
    }

    fn collect(dir: &Path) -> (Vec<WalRecord>, ReplayReport) {
        let mut records = Vec::new();
        let report = replay(dir, |r| records.push(r)).expect("replay io ok");
        (records, report)
    }

    #[test]
    fn append_replay_roundtrip() {
        let dir = tmp();
        let mut w = WalWriter::new(dir.path(), 1 << 20, FsyncPolicy::Never, 1);
        for i in 0..10u64 {
            let out = w
                .append(7, &WalPayload::Batch(vec![i, i + 1, i + 2]))
                .expect("append");
            assert_eq!(out.seq, i + 1);
        }
        w.append(9, &WalPayload::Snapshot(vec![0xAB; 100]))
            .expect("append snapshot");
        let (records, report) = collect(dir.path());
        assert_eq!(records.len(), 11);
        assert_eq!(report.records, 11);
        assert_eq!(report.items, 30);
        assert_eq!(report.last_seq, 11);
        assert_eq!(report.torn_tails_dropped, 0);
        assert_eq!(records.first().map(|r| r.seq), Some(1));
        assert_eq!(
            records.last().map(|r| r.payload.clone()),
            Some(WalPayload::Snapshot(vec![0xAB; 100]))
        );
    }

    #[test]
    fn rotation_produces_multiple_segments_and_replays_across_them() {
        let dir = tmp();
        // Tiny segments: every record rotates.
        let mut w = WalWriter::new(dir.path(), 64, FsyncPolicy::Never, 1);
        for i in 0..20u64 {
            w.append(i % 3, &WalPayload::Batch(vec![i; 4]))
                .expect("append");
        }
        let (records, report) = collect(dir.path());
        assert_eq!(records.len(), 20);
        assert!(report.segments > 1, "expected rotation: {report:?}");
        let seqs: Vec<u64> = records.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, (1..=20).collect::<Vec<_>>());
    }

    #[test]
    fn torn_tail_is_truncated_and_prefix_survives() {
        let dir = tmp();
        let mut w = WalWriter::new(dir.path(), 1 << 20, FsyncPolicy::Never, 1);
        for i in 0..8u64 {
            w.append(1, &WalPayload::Batch(vec![i])).expect("append");
        }
        drop(w);
        // Chop the single segment mid-record.
        let (_, path) = list_segments(dir.path())
            .expect("list")
            .pop()
            .expect("one segment");
        let len = fs::metadata(&path).expect("meta").len();
        let file = OpenOptions::new().write(true).open(&path).expect("open");
        file.set_len(len - 5).expect("truncate");
        drop(file);
        let (records, report) = collect(dir.path());
        assert_eq!(records.len(), 7, "one torn record dropped");
        assert_eq!(report.torn_tails_dropped, 1);
        assert_eq!(report.last_seq, 7);
        // The repair is idempotent: a second replay sees a clean log.
        let (records2, report2) = collect(dir.path());
        assert_eq!(records2.len(), 7);
        assert_eq!(report2.torn_tails_dropped, 0);
    }

    #[test]
    fn bit_flip_stops_replay_at_the_flip_and_repairs() {
        let dir = tmp();
        let mut w = WalWriter::new(dir.path(), 1 << 20, FsyncPolicy::Never, 1);
        for i in 0..6u64 {
            w.append(1, &WalPayload::Batch(vec![i, i])).expect("append");
        }
        drop(w);
        let (_, path) = list_segments(dir.path())
            .expect("list")
            .pop()
            .expect("one segment");
        let mut bytes = fs::read(&path).expect("read");
        // Flip a bit inside the 4th record's body.
        let record_len = RECORD_OVERHEAD + 8 + 16;
        let target = SEGMENT_HEADER_LEN + 3 * record_len + 10;
        if let Some(b) = bytes.get_mut(target) {
            *b ^= 0x40;
        }
        fs::write(&path, &bytes).expect("write back");
        let (records, report) = collect(dir.path());
        assert_eq!(records.len(), 3, "replay stops at the flipped record");
        assert_eq!(report.torn_tails_dropped, 1);
        assert!(report.bytes_dropped >= record_len as u64 * 3);
    }

    #[test]
    fn corruption_in_earlier_segment_drops_later_segments_too() {
        let dir = tmp();
        let mut w = WalWriter::new(dir.path(), 64, FsyncPolicy::Never, 1);
        for i in 0..10u64 {
            w.append(1, &WalPayload::Batch(vec![i; 4])).expect("append");
        }
        drop(w);
        let segments = list_segments(dir.path()).expect("list");
        assert!(segments.len() >= 3, "need several segments");
        // Corrupt the second segment's first record checksum.
        let (_, path) = segments.get(1).expect("second segment").clone();
        let mut bytes = fs::read(&path).expect("read");
        let target = bytes.len() - 1;
        if let Some(b) = bytes.get_mut(target) {
            *b ^= 0xFF;
        }
        fs::write(&path, &bytes).expect("write back");
        let (records, report) = collect(dir.path());
        assert!(records.len() < 10);
        assert_eq!(report.torn_tails_dropped, 1);
        // Everything after the corruption is gone from disk.
        let remaining = list_segments(dir.path()).expect("list");
        assert!(remaining.len() < segments.len());
        let (records2, _) = collect(dir.path());
        assert_eq!(records2, records, "repair left a clean, stable log");
    }

    #[test]
    fn truncate_below_deletes_only_fully_covered_segments() {
        let dir = tmp();
        let mut w = WalWriter::new(dir.path(), 64, FsyncPolicy::Never, 1);
        let mut last_seq = 0;
        for i in 0..12u64 {
            last_seq = w
                .append(1, &WalPayload::Batch(vec![i; 4]))
                .expect("append")
                .seq;
        }
        let before = list_segments(dir.path()).expect("list").len();
        assert!(before > 2);
        let deleted = w.truncate_below(last_seq).expect("truncate");
        assert!(deleted > 0);
        let after = list_segments(dir.path()).expect("list").len();
        assert_eq!(after, before - deleted as usize);
        // The surviving log still replays cleanly and keeps its tail.
        let (records, report) = collect(dir.path());
        assert_eq!(report.torn_tails_dropped, 0);
        assert_eq!(records.last().map(|r| r.seq), Some(last_seq));
        // fence 0 deletes nothing.
        assert_eq!(w.truncate_below(0).expect("truncate"), 0);
    }

    #[test]
    fn writer_resumes_after_replay_without_gaps() {
        let dir = tmp();
        let mut w = WalWriter::new(dir.path(), 1 << 20, FsyncPolicy::Always, 1);
        for i in 0..5u64 {
            w.append(2, &WalPayload::Batch(vec![i])).expect("append");
        }
        drop(w);
        let (_, report) = collect(dir.path());
        let mut w2 = WalWriter::new(dir.path(), 1 << 20, FsyncPolicy::Never, report.last_seq + 1);
        w2.append(2, &WalPayload::Batch(vec![99])).expect("append");
        let (records, report2) = collect(dir.path());
        assert_eq!(records.len(), 6);
        assert_eq!(report2.last_seq, 6);
        assert_eq!(report2.torn_tails_dropped, 0);
    }

    #[test]
    fn forward_gap_between_segments_is_a_resume_point_not_corruption() {
        let dir = tmp();
        let mut w = WalWriter::new(dir.path(), 1 << 20, FsyncPolicy::Never, 1);
        for i in 0..4u64 {
            w.append(1, &WalPayload::Batch(vec![i])).expect("append");
        }
        drop(w);
        // A recovery that trusted a checkpoint past the durable tail
        // resumes numbering at 9 — in a fresh segment.
        let mut w2 = WalWriter::new(dir.path(), 1 << 20, FsyncPolicy::Never, 9);
        w2.append(1, &WalPayload::Batch(vec![42])).expect("append");
        drop(w2);
        let (records, report) = collect(dir.path());
        assert_eq!(records.len(), 5, "both segments replay");
        assert_eq!(records.last().map(|r| r.seq), Some(9));
        assert_eq!(report.seq_gaps, 1);
        assert_eq!(report.torn_tails_dropped, 0, "a gap is not corruption");
        assert_eq!(report.last_seq, 9);
        // No repair happened, so a second replay is identical.
        let (records2, report2) = collect(dir.path());
        assert_eq!(records2, records);
        assert_eq!(report2.seq_gaps, 1);
    }

    #[test]
    fn backward_overlap_between_segments_is_still_corruption() {
        let dir = tmp();
        let mut w = WalWriter::new(dir.path(), 1 << 20, FsyncPolicy::Never, 1);
        for i in 0..4u64 {
            w.append(1, &WalPayload::Batch(vec![i])).expect("append");
        }
        drop(w);
        // A segment claiming to restart inside already-replayed
        // history can only be stale or forged bytes.
        let mut w2 = WalWriter::new(dir.path(), 1 << 20, FsyncPolicy::Never, 3);
        w2.append(1, &WalPayload::Batch(vec![42])).expect("append");
        drop(w2);
        let (records, report) = collect(dir.path());
        assert_eq!(records.len(), 4, "the overlapping segment is dropped");
        assert_eq!(report.torn_tails_dropped, 1);
        assert_eq!(report.seq_gaps, 0);
    }

    #[test]
    fn failed_append_rolls_back_and_reuses_the_sequence_number() {
        let dir = tmp();
        let mut w = WalWriter::new(dir.path(), 1 << 20, FsyncPolicy::Never, 1);
        w.append(1, &WalPayload::Batch(vec![7])).expect("append");
        w.torn_appends = 1;
        let err = w
            .append(1, &WalPayload::Batch(vec![8]))
            .expect_err("injected torn append");
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
        assert!(!w.is_poisoned(), "rollback succeeded, writer stays usable");
        assert_eq!(w.next_seq(), 2, "sequence number not consumed");
        let out = w
            .append(1, &WalPayload::Batch(vec![9]))
            .expect("append after rollback");
        assert_eq!(out.seq, 2);
        drop(w);
        // No stale half-record precedes the reused sequence number:
        // replay sees a clean log holding exactly the acked records.
        let (records, report) = collect(dir.path());
        assert_eq!(report.torn_tails_dropped, 0, "no stale bytes on disk");
        assert_eq!(
            records
                .iter()
                .map(|r| (r.seq, r.payload.clone()))
                .collect::<Vec<_>>(),
            vec![
                (1, WalPayload::Batch(vec![7])),
                (2, WalPayload::Batch(vec![9])),
            ]
        );
    }

    #[test]
    fn oversized_record_is_refused_before_touching_disk() {
        let dir = tmp();
        let mut w = WalWriter::new(dir.path(), 1 << 20, FsyncPolicy::Never, 1);
        let huge = vec![0u64; (MAX_RECORD_BODY as usize) / 8 + 8];
        let err = w
            .append(1, &WalPayload::Batch(huge))
            .expect_err("must refuse");
        assert!(matches!(err, StoreError::RecordTooLarge { .. }), "{err}");
        assert_eq!(w.next_seq(), 1, "sequence number not consumed");
    }
}
