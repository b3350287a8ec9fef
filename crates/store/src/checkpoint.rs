//! Atomic per-tenant checkpoints of engine state.
//!
//! A checkpoint is one file under `<data-dir>/ckpt/` holding a
//! tenant's merged summary as a `sqs_core::codec` wire frame, plus the
//! metadata recovery needs: the WAL sequence number the snapshot
//! covers and the engine's item count at that moment.
//!
//! ```text
//! file:  "SQCK" | ver u8 | rsvd u8×3 | tenant u64 | seq u64 |
//!        n u64 | frame_len u64 | frame | sum64(everything before)
//! name:  t<tenant>-s<seq>.ckpt
//! ```
//!
//! Writes are atomic in the crash sense: the bytes go to a `.tmp`
//! sibling, are fsynced, and only then renamed into place (rename is
//! atomic on POSIX), followed by a directory fsync. A crash at any
//! point leaves either the old complete file set or the new one —
//! never a half-written checkpoint with a valid name. Loading takes
//! the newest checkpoint per tenant that passes its checksum; corrupt
//! files are skipped (counted), falling back to the next-newest, and
//! ultimately to pure WAL replay. The two newest checkpoints per
//! tenant are retained for exactly that fallback; older ones are
//! pruned after each successful write.
//!
//! For the fallback to be *sound*, the WAL must still hold every
//! record the fallback checkpoint does not cover — which is why the
//! store fences WAL truncation on each tenant's **second-newest**
//! checkpoint (reported here as [`CheckpointLoad::fallback_seqs`] and
//! threaded back by `record_checkpoint`), not its newest: records in
//! `(prev.seq, newest.seq]` stay replayable until a *younger* pair
//! exists, so a bit-rotted newest file degrades recovery to
//! "fallback + longer replay" instead of silent data loss.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use sqs_core::codec::{open_sealed, seal, Reader};

use crate::{StoreError, StoreResult};

/// Checkpoint-file magic: the four bytes `SQCK` (Streaming Quantile
/// ChecKpoint).
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"SQCK";

/// Current checkpoint-format version; loading refuses others untouched.
pub const CHECKPOINT_VERSION: u8 = 2;

/// How many checkpoints per tenant survive pruning (newest first).
/// Two: the current one, plus one predecessor as a bit-rot fallback.
/// The WAL truncation fence tracks the predecessor (see the module
/// docs), so the fallback always has its replay tail available.
pub const KEEP_PER_TENANT: usize = 2;

/// One tenant's newest valid checkpoint, as loaded at recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantCheckpoint {
    /// The tenant the snapshot belongs to.
    pub tenant: u64,
    /// WAL records with sequence numbers ≤ this are inside the
    /// snapshot; replay starts after it.
    pub seq: u64,
    /// The engine's total item count when the snapshot was taken —
    /// recovery's count-verification anchor.
    pub n: u64,
    /// The summary as a `sqs_core::codec` wire frame (decoded by the
    /// service, which knows the concrete summary type).
    pub frame: Vec<u8>,
}

/// What loading the checkpoint directory found.
#[derive(Debug, Clone, Default)]
pub struct CheckpointLoad {
    /// Newest valid checkpoint per tenant.
    pub checkpoints: Vec<TenantCheckpoint>,
    /// Files whose checksum or structure failed — skipped, and the
    /// next-newest file (if any) used instead.
    pub corrupt_skipped: u64,
    /// Per tenant, the sequence number of the *second*-newest valid
    /// checkpoint (tenants with only one valid file are absent). This
    /// seeds the WAL truncation fence after recovery: records above it
    /// must stay replayable so the retained fallback file is usable.
    pub fallback_seqs: Vec<(u64, u64)>,
}

/// Writes tenant `tenant`'s checkpoint atomically and prunes that
/// tenant's older files down to [`KEEP_PER_TENANT`].
///
/// # Errors
/// I/O failures at any step; a failure before the rename leaves the
/// previous checkpoint set untouched.
pub fn write_checkpoint(
    dir: &Path,
    tenant: u64,
    seq: u64,
    n: u64,
    frame: &[u8],
) -> StoreResult<()> {
    let bytes = encode_checkpoint(tenant, seq, n, frame);
    let final_path = checkpoint_path(dir, tenant, seq);
    let tmp_path = final_path.with_extension("tmp");
    {
        let mut tmp = OpenOptions::new()
            .create(true)
            .truncate(true)
            .write(true)
            .open(&tmp_path)
            .map_err(|e| StoreError::io("checkpoint tmp create", &tmp_path, e))?;
        tmp.write_all(&bytes)
            .map_err(|e| StoreError::io("checkpoint tmp write", &tmp_path, e))?;
        tmp.sync_all()
            .map_err(|e| StoreError::io("checkpoint tmp sync", &tmp_path, e))?;
    }
    fs::rename(&tmp_path, &final_path)
        .map_err(|e| StoreError::io("checkpoint rename", &final_path, e))?;
    sync_dir(dir)?;
    prune(dir, tenant)?;
    Ok(())
}

/// Loads the newest valid checkpoint for every tenant present in
/// `dir`, skipping (and counting) corrupt files, and removing stray
/// `.tmp` files left by a crash mid-write.
///
/// # Errors
/// Directory listing/read failures, and
/// [`StoreError::UnsupportedVersion`] — before anything is swept — if a
/// file was written in another [`CHECKPOINT_VERSION`]. Corrupt
/// checkpoint *contents* are not errors — they are skipped.
pub fn load_checkpoints(dir: &Path) -> StoreResult<CheckpointLoad> {
    refuse_other_versions(dir)?;
    let mut load = CheckpointLoad::default();
    let mut newest: std::collections::HashMap<u64, TenantCheckpoint> =
        std::collections::HashMap::new();
    let mut valid_seqs: std::collections::HashMap<u64, Vec<u64>> = std::collections::HashMap::new();
    for (path, is_tmp) in list_files(dir)? {
        if is_tmp {
            // A crash between tmp-write and rename: the file was never
            // valid, delete it.
            let _ = fs::remove_file(&path);
            continue;
        }
        let mut bytes = Vec::new();
        File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| StoreError::io("checkpoint read", &path, e))?;
        match decode_checkpoint(&bytes) {
            Some(ckpt) => {
                valid_seqs.entry(ckpt.tenant).or_default().push(ckpt.seq);
                let replace = newest
                    .get(&ckpt.tenant)
                    .is_none_or(|have| ckpt.seq > have.seq);
                if replace {
                    newest.insert(ckpt.tenant, ckpt);
                }
            }
            None => load.corrupt_skipped += 1,
        }
    }
    for (tenant, mut seqs) in valid_seqs {
        seqs.sort_unstable_by_key(|&s| std::cmp::Reverse(s));
        if let Some(&prev) = seqs.get(1) {
            load.fallback_seqs.push((tenant, prev));
        }
    }
    load.fallback_seqs.sort_unstable();
    load.checkpoints = newest.into_values().collect();
    load.checkpoints.sort_unstable_by_key(|c| c.tenant);
    Ok(load)
}

/// Fails if any checkpoint in `dir` was written in another
/// [`CHECKPOINT_VERSION`]; reads headers only, changes nothing.
fn refuse_other_versions(dir: &Path) -> StoreResult<()> {
    list_files(dir)?.iter().try_for_each(|(path, _)| {
        crate::refuse_other_version(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    })
}

/// Serializes one checkpoint file (header + frame + checksum).
fn encode_checkpoint(tenant: u64, seq: u64, n: u64, frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(40 + frame.len() + 8);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.push(CHECKPOINT_VERSION);
    out.extend_from_slice(&[0u8; 3]);
    out.extend_from_slice(&tenant.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&n.to_le_bytes());
    out.extend_from_slice(&(frame.len() as u64).to_le_bytes());
    out.extend_from_slice(frame);
    seal(&mut out);
    out
}

/// Parses and validates one checkpoint file; `None` on any corruption.
fn decode_checkpoint(bytes: &[u8]) -> Option<TenantCheckpoint> {
    let mut r = Reader::new(open_sealed(bytes).ok()?);
    if r.bytes(4).ok()? != CHECKPOINT_MAGIC {
        return None;
    }
    // The version byte was vetted for every file before any decode.
    let _version_and_reserved = r.bytes(4).ok()?;
    let tenant = r.u64().ok()?;
    let seq = r.u64().ok()?;
    let n = r.u64().ok()?;
    let frame_len = r.read_len().ok()?;
    if frame_len != r.remaining() {
        return None;
    }
    let frame = r.bytes(frame_len).ok()?.to_vec();
    // Cheap structural sanity on the inner frame before handing it to
    // the service's typed decode: it must at least carry the codec
    // magic and a kind tag.
    sqs_core::codec::frame_kind(&frame).ok()?;
    Some(TenantCheckpoint {
        tenant,
        seq,
        n,
        frame,
    })
}

/// `t<tenant>-s<seq>.ckpt`, zero-padded so lexicographic order is
/// (tenant, seq) order.
fn checkpoint_path(dir: &Path, tenant: u64, seq: u64) -> PathBuf {
    dir.join(format!("t{tenant:020}-s{seq:020}.ckpt"))
}

/// Parses a checkpoint file name back into `(tenant, seq)`.
fn parse_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix('t')?.strip_suffix(".ckpt")?;
    let (tenant_digits, seq_part) = rest.split_once("-s")?;
    Some((tenant_digits.parse().ok()?, seq_part.parse().ok()?))
}

/// All files in `dir` that look checkpoint-related, as
/// `(path, is_tmp)`.
fn list_files(dir: &Path) -> StoreResult<Vec<(PathBuf, bool)>> {
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("checkpoint read_dir", dir, e))?;
    let mut out = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|e| StoreError::io("checkpoint read_dir entry", dir, e))?
            .path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.ends_with(".tmp") {
            out.push((path, true));
        } else if parse_name(name).is_some() {
            out.push((path, false));
        }
    }
    Ok(out)
}

/// Deletes `tenant`'s checkpoints beyond the newest
/// [`KEEP_PER_TENANT`].
fn prune(dir: &Path, tenant: u64) -> StoreResult<()> {
    let mut seqs: Vec<(u64, PathBuf)> = Vec::new();
    for (path, is_tmp) in list_files(dir)? {
        if is_tmp {
            continue;
        }
        if let Some((t, s)) = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(parse_name)
        {
            if t == tenant {
                seqs.push((s, path));
            }
        }
    }
    seqs.sort_unstable_by_key(|&(s, _)| std::cmp::Reverse(s)); // newest first
    for (_, path) in seqs.iter().skip(KEEP_PER_TENANT) {
        fs::remove_file(path).map_err(|e| StoreError::io("checkpoint prune", path, e))?;
    }
    if seqs.len() > KEEP_PER_TENANT {
        sync_dir(dir)?;
    }
    Ok(())
}

/// Directory fsync so renames/unlinks are durable; best-effort where
/// directories cannot be opened.
fn sync_dir(dir: &Path) -> StoreResult<()> {
    match File::open(dir) {
        Ok(handle) => handle
            .sync_all()
            .map_err(|e| StoreError::io("dir fsync", dir, e)),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> sqs_util::tmpdir::TempDir {
        sqs_util::tmpdir::TempDir::new("sqs-ckpt-test").expect("test invariant: tmpdir creatable")
    }

    /// A minimal valid `sqs_core` frame to ride inside checkpoints.
    fn frame() -> Vec<u8> {
        use sqs_core::codec::WireCodec;
        sqs_core::sampled::ReservoirQuantiles::<u64>::new(0.1, 1).to_bytes()
    }

    #[test]
    fn write_load_roundtrip_newest_wins() {
        let dir = tmp();
        let f = frame();
        write_checkpoint(dir.path(), 7, 100, 5000, &f).expect("write");
        write_checkpoint(dir.path(), 7, 250, 9000, &f).expect("write");
        write_checkpoint(dir.path(), 8, 10, 40, &f).expect("write");
        let load = load_checkpoints(dir.path()).expect("load");
        assert_eq!(load.corrupt_skipped, 0);
        assert_eq!(load.checkpoints.len(), 2);
        let t7 = load
            .checkpoints
            .iter()
            .find(|c| c.tenant == 7)
            .expect("tenant 7");
        assert_eq!((t7.seq, t7.n), (250, 9000));
        assert_eq!(t7.frame, f);
        assert_eq!(
            load.fallback_seqs,
            vec![(7, 100)],
            "tenant 7 has a fallback; tenant 8 (one file) has none"
        );
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = tmp();
        let f = frame();
        write_checkpoint(dir.path(), 3, 50, 100, &f).expect("write");
        write_checkpoint(dir.path(), 3, 90, 200, &f).expect("write");
        // Flip a byte in the newest file.
        let newest = checkpoint_path(dir.path(), 3, 90);
        let mut bytes = fs::read(&newest).expect("read");
        if let Some(b) = bytes.get_mut(20) {
            *b ^= 0x01;
        }
        fs::write(&newest, &bytes).expect("write back");
        let load = load_checkpoints(dir.path()).expect("load");
        assert_eq!(load.corrupt_skipped, 1);
        let t3 = load
            .checkpoints
            .iter()
            .find(|c| c.tenant == 3)
            .expect("tenant 3 falls back");
        assert_eq!(t3.seq, 50, "previous checkpoint used");
        assert!(
            load.fallback_seqs.is_empty(),
            "the corrupt file does not count as a fallback"
        );
    }

    #[test]
    fn prune_keeps_two_newest_per_tenant() {
        let dir = tmp();
        let f = frame();
        for seq in [10u64, 20, 30, 40] {
            write_checkpoint(dir.path(), 1, seq, seq * 2, &f).expect("write");
        }
        let files = list_files(dir.path()).expect("list");
        assert_eq!(files.len(), KEEP_PER_TENANT, "pruned to the newest two");
        let load = load_checkpoints(dir.path()).expect("load");
        assert_eq!(
            load.checkpoints.first().map(|c| c.seq),
            Some(40),
            "newest survives pruning"
        );
    }

    #[test]
    fn stray_tmp_file_is_swept_and_ignored() {
        let dir = tmp();
        let f = frame();
        write_checkpoint(dir.path(), 2, 5, 9, &f).expect("write");
        let stray = checkpoint_path(dir.path(), 2, 6).with_extension("tmp");
        fs::write(&stray, b"half-written garbage").expect("plant stray");
        let load = load_checkpoints(dir.path()).expect("load");
        assert_eq!(load.checkpoints.len(), 1);
        assert_eq!(load.checkpoints.first().map(|c| c.seq), Some(5));
        assert!(!stray.exists(), "stray tmp swept");
    }

    #[test]
    fn truncated_file_is_skipped_not_fatal() {
        let dir = tmp();
        let f = frame();
        write_checkpoint(dir.path(), 4, 77, 1, &f).expect("write");
        let path = checkpoint_path(dir.path(), 4, 77);
        let bytes = fs::read(&path).expect("read");
        for keep in [0usize, 7, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&path, bytes.get(..keep).unwrap_or_default()).expect("truncate");
            let load = load_checkpoints(dir.path()).expect("load must not error");
            assert_eq!(load.corrupt_skipped, 1, "keep={keep}");
            assert!(load.checkpoints.is_empty(), "keep={keep}");
        }
    }
}
