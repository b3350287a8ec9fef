//! The wire codec (`sqs_core::codec`) beyond the per-kind contract:
//! the window frames' every-byte sweep, version refusal across every
//! frame family, retired kind bytes, and regressions on hand-built
//! frames.
//!
//! The per-kind codec contract (a decoded copy continues as the encoded
//! original; every truncation, bit flip, trailing byte and foreign kind
//! byte is refused) is checks 2 and 3 of `tests/contract/mod.rs`, which
//! `tests/conformance.rs` runs on every served kind. The first tests
//! here call them one kind at a time under their earlier names.

mod contract;

use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_core::codec::WireCodec;
use streaming_quantiles::sqs_sketch::CountSketch;

#[test]
fn random_sketch_roundtrips_rank_identical() {
    contract::decode_continues(&contract::random());
}

#[test]
fn qdigest_roundtrips_rank_identical() {
    contract::decode_continues(&contract::qdigest());
}

#[test]
fn reservoir_roundtrips_rank_identical() {
    contract::decode_continues(&contract::reservoir());
}

#[test]
fn turnstile_dcs_roundtrips_rank_identical() {
    contract::decode_continues(&contract::dcs());
}

#[test]
fn random_sketch_rejects_corruption() {
    contract::corruption_refused(&contract::random());
}

#[test]
fn qdigest_rejects_corruption() {
    contract::corruption_refused(&contract::qdigest());
}

#[test]
fn reservoir_rejects_corruption() {
    contract::corruption_refused(&contract::reservoir());
}

#[test]
fn turnstile_dcs_rejects_corruption() {
    contract::corruption_refused(&contract::dcs());
}

/// Check 3 sweeps every byte of a small frame of each kind.
#[test]
fn every_truncation_and_bit_flip_rejected_across_backends() {
    contract::corruption_refused(&contract::random());
    contract::corruption_refused(&contract::qdigest());
    contract::corruption_refused(&contract::reservoir());
    contract::corruption_refused(&contract::dcs());
}

/// Check 2 encodes every stream at n = 0 too.
#[test]
fn empty_summaries_roundtrip() {
    contract::decode_continues(&contract::random());
    contract::decode_continues(&contract::qdigest());
    contract::decode_continues(&contract::reservoir());
    contract::decode_continues(&contract::dcs());
}

/// Check 3 re-tags a frame with every other byte.
#[test]
fn wrong_kind_is_rejected_not_misparsed() {
    contract::corruption_refused(&contract::qdigest());
}

/// The same every-byte sweep for the `WINDOW_*` ops, at the level their
/// one checksum lives: `wire` is a sealed `SQSW` frame that `unseal`
/// (`read_request` or `read_response`) opens and `decode` then parses,
/// so surviving means "checksummed AND semantically possible" (the
/// decoders end in `CheckInvariants`). What the checksum cannot vouch
/// for, `decode` must refuse on the bare payload: every truncation, a
/// trailing byte, and a count field (eight bytes at `count_at`)
/// claiming more than the payload holds.
fn exhaustive_window_frame_sweep<T>(
    wire: &[u8],
    unseal: impl Fn(&[u8]) -> Result<Vec<u8>, streaming_quantiles::sqs_service::ProtoError>,
    count_at: usize,
    decode: impl Fn(&[u8]) -> Result<T, streaming_quantiles::sqs_service::ProtoError>,
    label: &str,
) {
    let read = |wire: &[u8]| decode(&unseal(wire)?);
    assert!(read(wire).is_ok(), "{label}: pristine frame rejected");
    for cut in 0..wire.len() {
        assert!(
            read(&wire[..cut]).is_err(),
            "{label}: truncation at {cut}/{} accepted",
            wire.len()
        );
    }
    for pos in 0..wire.len() {
        for bit in 0..8u8 {
            let mut evil = wire.to_vec();
            evil[pos] ^= 1 << bit;
            assert!(
                read(&evil).is_err(),
                "{label}: bit flip at byte {pos} bit {bit} accepted"
            );
        }
    }

    let payload = unseal(wire).expect("pristine frame");
    for cut in 0..payload.len() {
        assert!(
            decode(&payload[..cut]).is_err(),
            "{label}: payload truncation at {cut}/{} accepted",
            payload.len()
        );
    }
    assert!(
        decode(&[&payload[..], &[0]].concat()).is_err(),
        "{label}: trailing byte accepted"
    );
    let honest = u64::from_le_bytes(payload[count_at..count_at + 8].try_into().expect("8"));
    for forged in [honest + 1, 1 << 40, u64::MAX] {
        let mut evil = payload.clone();
        evil[count_at..count_at + 8].copy_from_slice(&forged.to_le_bytes());
        assert!(
            decode(&evil).is_err(),
            "{label}: forged count {forged} accepted"
        );
    }
}

#[test]
fn every_truncation_and_bit_flip_rejected_on_window_frames() {
    use streaming_quantiles::sqs_service::proto::{
        self, decode_window_answer, decode_window_insert, decode_window_query, decode_window_stats,
        encode_window_answer, encode_window_insert, encode_window_query, encode_window_stats, Op,
        ProtoError, Request, Response, Status,
    };
    use streaming_quantiles::sqs_window::{WindowAnswer, WindowSpec, WindowStats};

    let request = |op: Op, payload: Vec<u8>| {
        let (mut wire, tenant) = (Vec::new(), 9);
        proto::write_request(
            &mut wire,
            &Request {
                op,
                tenant,
                payload,
            },
        )
        .expect("frame fits");
        wire
    };
    let response = |payload: Vec<u8>| {
        let (mut wire, status) = (Vec::new(), Status::Ok);
        proto::write_response(&mut wire, &Response { status, payload }).expect("frame fits");
        wire
    };
    let req = |mut wire: &[u8]| {
        let req = proto::read_request(&mut wire)?;
        Ok(req.ok_or(ProtoError::Malformed("empty stream"))?.payload)
    };
    let resp = |mut wire: &[u8]| Ok(proto::read_response(&mut wire)?.payload);

    // Count fields: after ts (8) in an insert, after kind + span (9) in
    // a query, after start, end and n (24) in an answer, first in stats.
    let insert = encode_window_insert(123_456_789, &(0..48u64).collect::<Vec<_>>());
    let insert = request(Op::WindowInsert, insert);
    exhaustive_window_frame_sweep(&insert, req, 8, decode_window_insert, "insert");

    let query = encode_window_query(WindowSpec::sliding(5_000_000_000), &[0.1, 0.5, 0.99]);
    let query = request(Op::WindowQuery, query);
    exhaustive_window_frame_sweep(&query, req, 9, decode_window_query, "sliding");
    let query = encode_window_query(WindowSpec::tumbling(60_000_000_000), &[0.5]);
    let query = request(Op::WindowQuery, query);
    exhaustive_window_frame_sweep(&query, req, 9, decode_window_query, "tumbling");

    let answer = response(encode_window_answer(&WindowAnswer {
        start_nanos: 10_000,
        end_nanos: 20_000,
        n: 7,
        answers: vec![Some(3), None, Some(u64::MAX)],
    }));
    exhaustive_window_frame_sweep(&answer, resp, 24, decode_window_answer, "answer");

    let stats = response(encode_window_stats(&WindowStats {
        bucket_nanos: 1_000_000_000,
        retention_buckets: 60,
        rollup_factor: 8,
        ingested_items: 12_345,
        late_dropped: 67,
        buckets_rotated: 89,
        rollup_hits: 4,
        ..WindowStats::default()
    }));
    exhaustive_window_frame_sweep(&stats, resp, 0, decode_window_stats, "stats");
}

/// `frame` with the version byte at offset 4 set to `current − 1` and
/// the trailer re-sealed, so only the version check can refuse it.
fn downgraded(frame: &[u8], current: u8) -> Vec<u8> {
    let mut old = frame[..frame.len() - 8].to_vec();
    old[4] = current - 1;
    streaming_quantiles::sqs_core::codec::seal(&mut old);
    old
}

/// The checksum change bumped every family's version byte and left no
/// reader for the one before: a frame carrying `version − 1` gets the
/// family's bad-version error — not a checksum error, not a panic.
#[test]
fn previous_version_is_refused_by_every_frame_family() {
    use sqs_store::{DurableStore, StoreConfig, StoreError};
    use streaming_quantiles::sqs_core::codec::{frame_kind, CodecError, WIRE_VERSION};
    use streaming_quantiles::sqs_service::proto::{self, Op, Request, Response, Status, VERSION};
    use streaming_quantiles::sqs_service::ProtoError;

    // SQSC, from both crates that implement it.
    let old = downgraded(&RandomSketch::<u64>::new(0.05, 1).to_bytes(), WIRE_VERSION);
    let refused = CodecError::BadVersion(WIRE_VERSION - 1);
    assert_eq!(
        RandomSketch::<u64>::from_bytes(&old).err(),
        Some(refused.clone())
    );
    assert_eq!(frame_kind(&old), Err(refused.clone()));
    let old = downgraded(&TurnstileSummary::dcs(0.2, 12, 1).to_bytes(), WIRE_VERSION);
    assert_eq!(
        TurnstileSummary::<CountSketch>::from_bytes(&old).err(),
        Some(refused)
    );

    // SQSW, both directions.
    let mut wire = Vec::new();
    let req = Request {
        op: Op::InsertBatch,
        tenant: 9,
        payload: proto::encode_u64s(&[1, 2, 3]),
    };
    proto::write_request(&mut wire, &req).expect("frame fits");
    let old = downgraded(&wire, VERSION);
    let err = proto::read_request(&mut old.as_slice()).expect_err("old request");
    assert!(matches!(err, ProtoError::BadVersion(2)), "{err}");
    // Version 3 retired op codes 2 and 3 (QUERY_QUANTILES, QUERY_RANK):
    // a current frame carrying one is refused by op.
    for retired in [2u8, 3] {
        let mut frame = wire[..wire.len() - 8].to_vec();
        frame[5] = retired;
        streaming_quantiles::sqs_core::codec::seal(&mut frame);
        let err = proto::read_request(&mut frame.as_slice()).expect_err("retired op");
        assert!(
            matches!(err, ProtoError::BadOp(op) if op == retired),
            "{err}"
        );
    }
    let mut wire = Vec::new();
    let resp = Response {
        status: Status::Ok,
        payload: vec![7; 16],
    };
    proto::write_response(&mut wire, &resp).expect("frame fits");
    let old = downgraded(&wire, VERSION);
    let err = proto::read_response(&mut old.as_slice()).expect_err("old response");
    assert!(matches!(err, ProtoError::BadVersion(2)), "{err}");

    // SQWL and SQCK: the store refuses the whole directory.
    let dir =
        streaming_quantiles::sqs_util::tmpdir::TempDir::new("sqs-codec-props").expect("tempdir");
    {
        let (store, _) = DurableStore::open(&StoreConfig::new(dir.path())).expect("open");
        store.append_batch(1, &[1, 2, 3]).expect("append");
        let frame = RandomSketch::<u64>::new(0.05, 1).to_bytes();
        store
            .record_checkpoint(1, 1, 3, &frame)
            .expect("checkpoint");
    }
    for (sub, current) in [
        ("wal", sqs_store::wal::SEGMENT_VERSION),
        ("ckpt", sqs_store::checkpoint::CHECKPOINT_VERSION),
    ] {
        let path = std::fs::read_dir(dir.path().join(sub))
            .expect("read dir")
            .next()
            .expect("one file")
            .expect("dir entry")
            .path();
        let good = std::fs::read(&path).expect("read");
        let mut old = good.clone();
        old[4] = current - 1;
        std::fs::write(&path, &old).expect("plant the older version");
        let err = DurableStore::open(&StoreConfig::new(dir.path())).expect_err("old file");
        assert!(
            matches!(err, StoreError::UnsupportedVersion { found, supported, .. }
                if found == current - 1 && supported == current),
            "{sub}: {err}"
        );
        std::fs::write(&path, &good).expect("restore");
    }
}

/// Kind 4 was the DCS body with two hash families per row (48 bytes a
/// row), kind 5 the body with a sketch at every sketched level; the
/// every-other-level body (level tag 3 for a derived level) is kind 6.
/// Bytes 4 and 5 name no [`Kind`], so a frame still tagged with one is
/// refused by kind before its body is looked at.
#[test]
fn retired_dcs_kinds_4_and_5_are_refused_and_kind_6_roundtrips() {
    use streaming_quantiles::sqs_core::codec::{seal, CodecError, Kind};
    let mut s = TurnstileSummary::dcs(0.2, 12, 3);
    [5, 9, 9, 4000].into_iter().for_each(|x| s.insert(x));
    let frame = s.to_bytes();
    assert_eq!((Kind::Dcs as u8, frame.get(5)), (6, Some(&6)));
    let mut back = TurnstileSummary::<CountSketch>::from_bytes(&frame).expect("kind 6 decodes");
    assert_eq!(back.to_bytes(), frame);

    for retired in [4u8, 5] {
        assert_eq!(Kind::from_byte(retired), None);
        let mut old = frame.clone();
        old.truncate(old.len() - 8);
        old[5] = retired;
        seal(&mut old);
        assert_eq!(
            TurnstileSummary::<CountSketch>::from_bytes(&old).err(),
            Some(CodecError::BadKind {
                expected: Kind::Dcs,
                got: retired
            })
        );
    }
}

/// An empty `dcs(0.05, 12)` frame with three counters of its finest
/// exact level set to `i64::MAX`, re-sealed: the audit's level-mass sum
/// overflowed an `i64` (a panic in every overflow-checked build, a
/// wrapped total in release). It is summed wide now and the frame is
/// refused as an invariant violation.
#[test]
fn forged_exact_counters_are_refused_without_a_panic() {
    use streaming_quantiles::sqs_core::codec::{seal, CodecError};
    let mut s = TurnstileSummary::dcs(0.05, 12, 1);
    let fe = (0..12)
        .find(|&l| s.inner().is_exact_level(l))
        .expect("exact run");
    let mut frame = s.to_bytes();
    frame.truncate(frame.len() - 8);
    // Exact levels close the body: a tag, a count, then the counters.
    let tail: usize = (fe..12).map(|l| 1 + 8 + 8 * (1usize << (12 - l))).sum();
    let at = frame.len() - tail + 1 + 8;
    for c in 0..3 {
        frame[at + 8 * c..at + 8 * c + 8].copy_from_slice(&i64::MAX.to_le_bytes());
    }
    seal(&mut frame);
    match TurnstileSummary::<CountSketch>::from_bytes(&frame) {
        Err(CodecError::Invariant(v)) => assert_eq!(v.invariant, "dyadic.exact_level_mass"),
        other => panic!("forged frame not refused by the audit: {other:?}"),
    }
}

#[test]
fn roundtrip_at_buffer_fill_boundary() {
    // Regression: encoding exactly when the Random sketch's bottom
    // buffer is full used to hit the sampler hand-off mid-frame.
    let mut s = RandomSketch::<u64>::new(0.05, 42);
    let sz = s.buffer_size();
    for x in 0..sz as u64 {
        s.insert(x);
    }
    let frame = s.to_bytes();
    let decoded = RandomSketch::<u64>::from_bytes(&frame);
    assert!(
        decoded.is_ok(),
        "boundary round-trip failed: {:?}",
        decoded.err()
    );
}
