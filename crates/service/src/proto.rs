//! The request/response wire protocol of the quantile service.
//!
//! One request frame, one response frame per round trip, both
//! little-endian, length-prefixed and sealed with the workspace's one
//! frame checksum ([`sqs_core::codec::Checksum`], the same trailer the
//! summary codec uses). Byte-layout tables live in `docs/SERVICE.md`.
//!
//! ```text
//! request:  "SQSW" | ver u8 | op u8     | rsvd u16 | tenant u64 | len u32 | payload | sum64
//! response: "SQSW" | ver u8 | status u8 | rsvd u16 |              len u32 | payload | sum64
//! ```
//!
//! The checksum covers every byte before it, and it is the only one on
//! a hop: every op's payload — the `WINDOW_*` ones included — is a plain
//! body of this frame, sealed once by the writer and verified once by
//! the reader. What the checksum cannot vouch for, the payload decoders
//! refuse: trailing bytes, counts larger than the bytes present, φ
//! outside (0, 1), and window specs or answers that fail their
//! `CheckInvariants`. Payload size is capped at [`MAX_PAYLOAD`]; the cap
//! is validated *before* the payload is allocated, so a forged length
//! field cannot balloon server memory — it bounds both what a reader
//! will accept and what a writer will send (the server turns an
//! over-cap reply into an error reply, never a truncated frame).

use std::fmt;
use std::io::{self, Read, Write};

use sqs_core::codec::{put_u64_slice, seal, Checksum, CodecError, Reader};
use sqs_util::audit::CheckInvariants;
use sqs_window::{WindowAnswer, WindowKind, WindowSpec, WindowStats, WINDOW_STATS_WORDS};

/// Protocol magic: the four bytes `SQSW` (Streaming Quantile Service
/// Wire).
pub const MAGIC: [u8; 4] = *b"SQSW";

/// Current protocol version; both sides reject anything else. Version 3
/// retired op codes 2 and 3 and the `WINDOW_*` payloads' inner `SQWF`
/// envelope.
pub const VERSION: u8 = 3;

/// Upper bound on a frame payload (16 MiB) — comfortably above any
/// honest snapshot or batch, far below anything that could pressure
/// server memory.
pub const MAX_PAYLOAD: u32 = 1 << 24;

/// Request header length: magic(4) + version(1) + op(1) + reserved(2)
/// + tenant(8) + payload length(4).
pub const REQ_HEADER_LEN: usize = 20;

/// Response header length: magic(4) + version(1) + status(1) +
/// reserved(2) + payload length(4).
pub const RESP_HEADER_LEN: usize = 12;

/// Declares [`Op`] from one table of `Variant = code, "name";` rows in
/// wire-code order. The enum, [`Op::ALL`], [`Op::code`] and
/// [`Op::name`] all expand from the same rows, so none can miss an op
/// the others have, and a variant's position in `ALL` is its
/// declaration order (what [`Op::index`] returns).
macro_rules! ops {
    ($($(#[$doc:meta])* $op:ident = $code:literal, $name:literal;)+) => {
        /// A request operation code.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Op {
            $($(#[$doc])* $op,)+
        }

        impl Op {
            /// All operations, in wire-code order.
            pub const ALL: [Op; [$($code),+].len()] = [$(Op::$op),+];

            /// The wire byte for this op.
            #[must_use]
            pub fn code(self) -> u8 {
                match self {
                    $(Op::$op => $code,)+
                }
            }

            /// The op's name as it appears in metrics JSON.
            #[must_use]
            pub fn name(self) -> &'static str {
                match self {
                    $(Op::$op => $name,)+
                }
            }
        }
    };
}

// Codes 2 and 3 were `QUERY_QUANTILES` and `QUERY_RANK` — `QUERY_MANY`
// with one side empty. They are retired, not reused: `from_code`
// refuses them like any unknown byte.
ops! {
    /// Ingest a batch of values into the tenant's engine.
    InsertBatch = 1, "insert_batch";
    /// Return the tenant's merged summary as a codec frame.
    Snapshot = 4, "snapshot";
    /// Merge a codec frame (from this or another server) into the
    /// tenant's engine.
    MergeSnapshot = 5, "merge_snapshot";
    /// Return server metrics as JSON.
    Stats = 6, "stats";
    /// Gracefully stop the server.
    Shutdown = 7, "shutdown";
    /// Ingest a timestamped batch into the tenant's window ring *and*
    /// all-time engine (payload: event time + value vector).
    WindowInsert = 8, "window_insert";
    /// Answer a sliding/tumbling window φ-sweep (payload: window spec +
    /// φ bits vector; reply: covered range, mass, answers block).
    WindowQuery = 9, "window_query";
    /// Return the tenant's window-ring counters (reply: a fixed word
    /// vector).
    WindowStats = 10, "window_stats";
    /// The one all-time read: a φ-sweep *and* a rank sweep from one
    /// merged snapshot in one round trip (payload: φ bits vector +
    /// value vector; reply: answers block + rank vector). Either side
    /// may be empty.
    QueryMany = 11, "query_many";
}

impl Op {
    /// Parses a wire byte.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Op> {
        Op::ALL.iter().copied().find(|op| op.code() == code)
    }

    /// Dense index for per-op tables: the op's position in
    /// [`Op::ALL`], whatever gaps the wire codes have.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// A response status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The operation succeeded; the payload is its result.
    Ok,
    /// The server shed this connection (backpressure queue full); the
    /// client should back off and retry.
    Busy,
    /// The operation failed; the payload is a UTF-8 error message.
    Err,
}

impl Status {
    /// The wire byte for this status.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Busy => 1,
            Status::Err => 2,
        }
    }

    /// Parses a wire byte.
    #[must_use]
    pub fn from_code(code: u8) -> Option<Status> {
        match code {
            0 => Some(Status::Ok),
            1 => Some(Status::Busy),
            2 => Some(Status::Err),
            _ => None,
        }
    }
}

/// Why a frame could not be read or written.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed (including timeouts).
    Io(io::Error),
    /// The frame does not start with [`MAGIC`].
    BadMagic,
    /// The frame declares an unsupported protocol version.
    BadVersion(u8),
    /// Unknown op code.
    BadOp(u8),
    /// Unknown status code.
    BadStatus(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u64),
    /// The trailing checksum does not match the frame bytes.
    ChecksumMismatch,
    /// A payload failed structural decoding.
    Codec(CodecError),
    /// A payload field is semantically impossible.
    Malformed(&'static str),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "socket error: {e}"),
            ProtoError::BadMagic => write!(f, "bad frame magic"),
            ProtoError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            ProtoError::BadOp(c) => write!(f, "unknown op code {c}"),
            ProtoError::BadStatus(c) => write!(f, "unknown status code {c}"),
            ProtoError::Oversized(len) => {
                write!(
                    f,
                    "payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap"
                )
            }
            ProtoError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            ProtoError::Codec(e) => write!(f, "payload decode failed: {e}"),
            ProtoError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> Self {
        ProtoError::Io(e)
    }
}

impl From<CodecError> for ProtoError {
    fn from(e: CodecError) -> Self {
        ProtoError::Codec(e)
    }
}

impl ProtoError {
    /// Whether this error is a socket read/write timing out — the
    /// server treats a timed-out idle connection as a normal close,
    /// not a protocol violation.
    #[must_use]
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            ProtoError::Io(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut
        )
    }
}

/// One client request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The operation to perform.
    pub op: Op,
    /// The tenant whose engine the op targets (ignored by
    /// [`Op::Stats`] / [`Op::Shutdown`]).
    pub tenant: u64,
    /// Op-specific payload bytes.
    pub payload: Vec<u8>,
}

/// One server response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Outcome of the request.
    pub status: Status,
    /// Status-specific payload bytes.
    pub payload: Vec<u8>,
}

/// Writes one `SQSW` frame with a single `write_all`, so it hits the
/// socket in one piece: magic, version, the code byte (op or status),
/// the reserved `u16`, a request's tenant id, then length, payload and
/// the trailer — the one place a hop's checksum is computed.
fn write_frame(
    w: &mut impl Write,
    code: u8,
    tenant: Option<u64>,
    payload: &[u8],
) -> Result<(), ProtoError> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|len| *len <= MAX_PAYLOAD);
    let len = len.ok_or(ProtoError::Oversized(payload.len() as u64))?;
    let mut frame = Vec::with_capacity(REQ_HEADER_LEN + payload.len() + 8);
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&[VERSION, code, 0, 0]);
    if let Some(tenant) = tenant {
        frame.extend_from_slice(&tenant.to_le_bytes());
    }
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(payload);
    seal(&mut frame);
    w.write_all(&frame)?;
    Ok(())
}

/// Writes one request frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), ProtoError> {
    write_frame(w, req.op.code(), Some(req.tenant), &req.payload)
}

/// Reads one request frame. Returns `Ok(None)` on a clean end of
/// stream *before* the first header byte (the client hung up between
/// requests); any mid-frame end of stream is an error.
pub fn read_request(r: &mut impl Read) -> Result<Option<Request>, ProtoError> {
    let mut head = [0u8; REQ_HEADER_LEN];
    if !read_exact_or_eof(r, &mut head)? {
        return Ok(None);
    }
    let mut cur = Reader::new(&head);
    check_magic_version(&mut cur)?;
    let op_code = cur.u8()?;
    let op = Op::from_code(op_code).ok_or(ProtoError::BadOp(op_code))?;
    let _reserved = cur.bytes(2)?;
    let tenant = cur.u64()?;
    let len = cur.u32()?;
    let payload = read_payload_and_verify(r, &head, len)?;
    Ok(Some(Request {
        op,
        tenant,
        payload,
    }))
}

/// Writes one response frame.
pub fn write_response(w: &mut impl Write, resp: &Response) -> Result<(), ProtoError> {
    write_frame(w, resp.status.code(), None, &resp.payload)
}

/// Reads one response frame.
pub fn read_response(r: &mut impl Read) -> Result<Response, ProtoError> {
    let mut head = [0u8; RESP_HEADER_LEN];
    r.read_exact(&mut head)?;
    let mut cur = Reader::new(&head);
    check_magic_version(&mut cur)?;
    let status_code = cur.u8()?;
    let status = Status::from_code(status_code).ok_or(ProtoError::BadStatus(status_code))?;
    let _reserved = cur.bytes(2)?;
    let len = cur.u32()?;
    let payload = read_payload_and_verify(r, &head, len)?;
    Ok(Response { status, payload })
}

fn check_magic_version(cur: &mut Reader<'_>) -> Result<(), ProtoError> {
    if cur.bytes(4)? != MAGIC {
        return Err(ProtoError::BadMagic);
    }
    let version = cur.u8()?;
    if version != VERSION {
        return Err(ProtoError::BadVersion(version));
    }
    Ok(())
}

/// Reads `len` payload bytes and the trailing checksum with one
/// `read_exact` into one buffer, and verifies the checksum over
/// `head + payload`. The length cap is enforced before the allocation.
fn read_payload_and_verify(
    r: &mut impl Read,
    head: &[u8],
    len: u32,
) -> Result<Vec<u8>, ProtoError> {
    if len > MAX_PAYLOAD {
        return Err(ProtoError::Oversized(u64::from(len)));
    }
    let mut buf = vec![0u8; len as usize + 8];
    r.read_exact(&mut buf)?;
    let (payload, trailer) = buf.split_at(len as usize);
    let mut sum = Checksum::new();
    sum.update(head);
    sum.update(payload);
    if sum.finish().to_le_bytes() != *trailer {
        return Err(ProtoError::ChecksumMismatch);
    }
    buf.truncate(len as usize);
    Ok(buf)
}

/// `read_exact` that distinguishes "stream cleanly ended before byte
/// one" (`Ok(false)`) from "stream ended mid-buffer" (error).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, ProtoError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        let Some(slot) = buf.get_mut(filled..) else {
            break;
        };
        match r.read(slot) {
            Ok(0) => {
                if filled == 0 {
                    return Ok(false);
                }
                return Err(ProtoError::Io(io::ErrorKind::UnexpectedEof.into()));
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(true)
}

// ---- payload helpers (shared by server, client, benchmark, tests) ----

/// Encodes a `u64` slice as a length-prefixed vector.
#[must_use]
pub fn encode_u64s(xs: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + xs.len() * 8);
    put_u64_slice(&mut out, xs);
    out
}

/// Decodes a length-prefixed `u64` vector, rejecting trailing bytes.
pub fn decode_u64s(payload: &[u8]) -> Result<Vec<u64>, ProtoError> {
    let mut r = Reader::new(payload);
    let xs = r.u64_vec()?;
    r.done()?;
    Ok(xs)
}

/// The `INSERT_BATCH` / `MERGE_SNAPSHOT` acknowledgement: the
/// tenant's item count after the operation, plus the WAL sequence
/// number the operation was logged under when the server runs with
/// `--data-dir` (`seq == 0` on an in-memory server — WAL sequence
/// numbers start at 1, so 0 unambiguously means "not durable").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestAck {
    /// The tenant's total item count after the ingest.
    pub n: u64,
    /// WAL sequence number of the logged operation (0 = in-memory).
    pub seq: u64,
}

/// Encodes an [`IngestAck`] (two `u64` words).
#[must_use]
pub fn encode_ingest_ack(ack: IngestAck) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&ack.n.to_le_bytes());
    out.extend_from_slice(&ack.seq.to_le_bytes());
    out
}

/// Decodes an [`IngestAck`].
pub fn decode_ingest_ack(payload: &[u8]) -> Result<IngestAck, ProtoError> {
    let mut r = Reader::new(payload);
    let n = r.u64()?;
    let seq = r.u64()?;
    r.done()?;
    Ok(IngestAck { n, seq })
}

/// Appends a φ-sweep as a length-prefixed vector of IEEE-754 bits.
fn put_phis(out: &mut Vec<u8>, phis: &[f64]) {
    let bits: Vec<u64> = phis.iter().map(|p| p.to_bits()).collect();
    put_u64_slice(out, &bits);
}

/// Reads a φ-sweep, refusing any φ that is not finite and in (0, 1) —
/// the one place a quantile request's ranks are vetted, so no summary's
/// `quantile` ever sees a φ it would panic on.
fn read_phis(r: &mut Reader<'_>) -> Result<Vec<f64>, ProtoError> {
    let phis: Vec<f64> = r.u64_vec()?.into_iter().map(f64::from_bits).collect();
    if !phis.iter().all(|p| p.is_finite() && *p > 0.0 && *p < 1.0) {
        return Err(ProtoError::Malformed("phi outside (0, 1)"));
    }
    Ok(phis)
}

/// Appends an answers block: count, then a presence flag byte and a
/// value word per answer (`None` answers an empty stream or window).
fn put_answers(out: &mut Vec<u8>, answers: &[Option<u64>]) {
    out.extend_from_slice(&(answers.len() as u64).to_le_bytes());
    for a in answers {
        out.push(u8::from(a.is_some()));
        out.extend_from_slice(&a.unwrap_or(0).to_le_bytes());
    }
}

/// Reads an answers block. The count is checked against the bytes
/// actually present before anything is allocated for it.
fn read_answers(r: &mut Reader<'_>) -> Result<Vec<Option<u64>>, ProtoError> {
    let count = r.read_len()?;
    if count > r.remaining() / 9 {
        return Err(ProtoError::Codec(CodecError::Truncated));
    }
    let mut answers = Vec::with_capacity(count);
    for _ in 0..count {
        let present = match r.u8()? {
            0 => false,
            1 => true,
            _ => return Err(ProtoError::Malformed("answer flag not 0/1")),
        };
        let value = r.u64()?;
        answers.push(present.then_some(value));
    }
    Ok(answers)
}

/// Encodes a `QUERY_MANY` request payload: the φ-sweep (IEEE-754
/// bits) followed by the rank probe values, both length-prefixed.
#[must_use]
pub fn encode_query_many(phis: &[f64], xs: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + (phis.len() + xs.len()) * 8);
    put_phis(&mut out, phis);
    put_u64_slice(&mut out, xs);
    out
}

/// Decodes a `QUERY_MANY` request payload into `(phis, xs)`, every φ
/// finite and in (0, 1).
pub fn decode_query_many(payload: &[u8]) -> Result<(Vec<f64>, Vec<u64>), ProtoError> {
    let mut r = Reader::new(payload);
    let phis = read_phis(&mut r)?;
    let xs = r.u64_vec()?;
    r.done()?;
    Ok((phis, xs))
}

/// Encodes a `QUERY_MANY` response: the φ answers block followed by
/// the length-prefixed rank vector.
#[must_use]
pub fn encode_query_many_reply(quantiles: &[Option<u64>], ranks: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + quantiles.len() * 9 + ranks.len() * 8);
    put_answers(&mut out, quantiles);
    put_u64_slice(&mut out, ranks);
    out
}

/// Decodes a `QUERY_MANY` response into `(quantiles, ranks)`.
pub fn decode_query_many_reply(payload: &[u8]) -> Result<(Vec<Option<u64>>, Vec<u64>), ProtoError> {
    let mut r = Reader::new(payload);
    let quantiles = read_answers(&mut r)?;
    let ranks = r.u64_vec()?;
    r.done()?;
    Ok((quantiles, ranks))
}

/// Wire codes for [`WindowKind`] (`0` is reserved as invalid).
fn window_kind_code(kind: WindowKind) -> u8 {
    match kind {
        WindowKind::Sliding => 1,
        WindowKind::Tumbling => 2,
    }
}

fn window_kind_from_code(code: u8) -> Option<WindowKind> {
    match code {
        1 => Some(WindowKind::Sliding),
        2 => Some(WindowKind::Tumbling),
        _ => None,
    }
}

fn invariant_to_proto(v: sqs_util::audit::InvariantViolation) -> ProtoError {
    ProtoError::Malformed(v.invariant)
}

/// Encodes a `WINDOW_INSERT` payload: event timestamp plus the value
/// batch.
#[must_use]
pub fn encode_window_insert(ts_nanos: u64, xs: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 8 + xs.len() * 8);
    out.extend_from_slice(&ts_nanos.to_le_bytes());
    put_u64_slice(&mut out, xs);
    out
}

/// Decodes a `WINDOW_INSERT` payload into `(ts_nanos, values)`.
pub fn decode_window_insert(payload: &[u8]) -> Result<(u64, Vec<u64>), ProtoError> {
    let mut r = Reader::new(payload);
    let ts_nanos = r.u64()?;
    let xs = r.u64_vec()?;
    r.done()?;
    Ok((ts_nanos, xs))
}

/// Encodes a `WINDOW_QUERY` payload: the window descriptor plus the
/// φ-sweep (as IEEE-754 bits).
#[must_use]
pub fn encode_window_query(spec: WindowSpec, phis: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + 8 + 8 + phis.len() * 8);
    out.push(window_kind_code(spec.kind));
    out.extend_from_slice(&spec.len_nanos.to_le_bytes());
    put_phis(&mut out, phis);
    out
}

/// Decodes a `WINDOW_QUERY` payload into `(spec, phis)`, enforcing the
/// descriptor's invariants and that every φ is finite and in (0, 1).
pub fn decode_window_query(payload: &[u8]) -> Result<(WindowSpec, Vec<f64>), ProtoError> {
    let mut r = Reader::new(payload);
    let kind_code = r.u8()?;
    let kind =
        window_kind_from_code(kind_code).ok_or(ProtoError::Malformed("unknown window kind"))?;
    let len_nanos = r.u64()?;
    let phis = read_phis(&mut r)?;
    r.done()?;
    let spec = WindowSpec { kind, len_nanos };
    spec.check_invariants().map_err(invariant_to_proto)?;
    Ok((spec, phis))
}

/// Encodes a `WINDOW_QUERY` response: the covered range, mass, and
/// the per-φ answers block.
#[must_use]
pub fn encode_window_answer(answer: &WindowAnswer) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 * 3 + 8 + answer.answers.len() * 9);
    out.extend_from_slice(&answer.start_nanos.to_le_bytes());
    out.extend_from_slice(&answer.end_nanos.to_le_bytes());
    out.extend_from_slice(&answer.n.to_le_bytes());
    put_answers(&mut out, &answer.answers);
    out
}

/// Decodes a `WINDOW_QUERY` response, ending in the answer's
/// `CheckInvariants` (range ordered, empty windows answer `None`).
pub fn decode_window_answer(payload: &[u8]) -> Result<WindowAnswer, ProtoError> {
    let mut r = Reader::new(payload);
    let start_nanos = r.u64()?;
    let end_nanos = r.u64()?;
    let n = r.u64()?;
    let answers = read_answers(&mut r)?;
    r.done()?;
    let answer = WindowAnswer {
        start_nanos,
        end_nanos,
        n,
        answers,
    };
    answer.check_invariants().map_err(invariant_to_proto)?;
    Ok(answer)
}

/// Encodes a `WINDOW_STATS` response: the ring's counters as a fixed
/// word vector.
#[must_use]
pub fn encode_window_stats(stats: &WindowStats) -> Vec<u8> {
    encode_u64s(&stats.as_words())
}

/// Decodes a `WINDOW_STATS` response.
pub fn decode_window_stats(payload: &[u8]) -> Result<WindowStats, ProtoError> {
    let arr: [u64; WINDOW_STATS_WORDS] = decode_u64s(payload)?
        .try_into()
        .map_err(|_| ProtoError::Malformed("window stats word count"))?;
    Ok(WindowStats::from_words(&arr))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        write_request(&mut buf, req).expect("write");
        read_request(&mut Cursor::new(buf))
            .expect("read")
            .expect("not eof")
    }

    #[test]
    fn request_roundtrip() {
        let req = Request {
            op: Op::InsertBatch,
            tenant: 42,
            payload: encode_u64s(&[1, 2, 3]),
        };
        let back = roundtrip_request(&req);
        assert_eq!(back.op, Op::InsertBatch);
        assert_eq!(back.tenant, 42);
        assert_eq!(decode_u64s(&back.payload).expect("payload"), vec![1, 2, 3]);
    }

    #[test]
    fn response_roundtrip() {
        let mut buf = Vec::new();
        write_response(
            &mut buf,
            &Response {
                status: Status::Busy,
                payload: b"queue full".to_vec(),
            },
        )
        .expect("write");
        let back = read_response(&mut Cursor::new(buf)).expect("read");
        assert_eq!(back.status, Status::Busy);
        assert_eq!(back.payload, b"queue full");
    }

    #[test]
    fn clean_eof_is_none_mid_frame_is_error() {
        assert!(read_request(&mut Cursor::new(Vec::new()))
            .expect("clean eof")
            .is_none());
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request {
                op: Op::Stats,
                tenant: 0,
                payload: Vec::new(),
            },
        )
        .expect("write");
        buf.truncate(buf.len() - 3);
        assert!(read_request(&mut Cursor::new(buf)).is_err());
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let mut buf = Vec::new();
        write_request(
            &mut buf,
            &Request {
                op: Op::QueryMany,
                tenant: 7,
                payload: encode_query_many(&[], &[12345]),
            },
        )
        .expect("write");
        // Flip one bit somewhere past the header fields that have their
        // own structural checks (magic/version/op).
        for at in [8usize, 14, 21, buf.len() - 1] {
            let mut bad = buf.clone();
            if let Some(b) = bad.get_mut(at) {
                *b ^= 0x10;
            }
            assert!(
                read_request(&mut Cursor::new(bad)).is_err(),
                "flip at {at} accepted"
            );
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut head = Vec::new();
        head.extend_from_slice(&MAGIC);
        head.push(VERSION);
        head.push(Op::InsertBatch.code());
        head.extend_from_slice(&[0u8; 2]);
        head.extend_from_slice(&0u64.to_le_bytes());
        head.extend_from_slice(&u32::MAX.to_le_bytes()); // forged length
        let err = read_request(&mut Cursor::new(head)).expect_err("must reject");
        assert!(matches!(err, ProtoError::Oversized(_)), "{err}");
    }

    #[test]
    fn query_many_payloads_roundtrip() {
        let phis = [0.01, 0.5, 0.999];
        let xs = [0u64, 42, u64::MAX];
        let (p2, x2) = decode_query_many(&encode_query_many(&phis, &xs)).expect("roundtrip");
        assert_eq!(p2, phis);
        assert_eq!(x2, xs);

        let quantiles = [Some(7u64), None, Some(u64::MAX)];
        let ranks = [0u64, 123_456];
        let (q2, r2) = decode_query_many_reply(&encode_query_many_reply(&quantiles, &ranks))
            .expect("reply roundtrip");
        assert_eq!(q2, quantiles);
        assert_eq!(r2, ranks);

        // Empty sweeps are legal frames.
        let (q3, r3) =
            decode_query_many_reply(&encode_query_many_reply(&[], &[])).expect("empty reply");
        assert!(q3.is_empty() && r3.is_empty());

        // Trailing garbage is rejected, as for every other frame.
        let mut bad = encode_query_many(&phis, &xs);
        bad.push(0);
        assert!(decode_query_many(&bad).is_err());
    }

    #[test]
    fn op_and_status_codes_are_stable() {
        assert_eq!(Op::ALL.len(), 9);
        for (at, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(Op::from_code(op.code()), Some(op));
            assert_eq!(op.index(), at, "{op:?} indexes its row of ALL");
        }
        assert_eq!(Op::from_code(0), None);
        // QUERY_QUANTILES and QUERY_RANK: retired, never reused.
        assert_eq!(Op::from_code(2), None);
        assert_eq!(Op::from_code(3), None);
        assert_eq!(Op::from_code(8), Some(Op::WindowInsert));
        assert_eq!(Op::from_code(10), Some(Op::WindowStats));
        assert_eq!(Op::from_code(11), Some(Op::QueryMany));
        assert_eq!(Op::from_code(12), None);
        for s in [Status::Ok, Status::Busy, Status::Err] {
            assert_eq!(Status::from_code(s.code()), Some(s));
        }
        assert_eq!(Status::from_code(3), None);
    }

    #[test]
    fn answers_block_rejects_truncation_bad_flags_and_forged_counts() {
        let bytes = encode_query_many_reply(&[Some(5u64), None, Some(u64::MAX)], &[]);
        assert!(decode_query_many_reply(&bytes).is_ok());
        assert!(decode_query_many_reply(&bytes[..bytes.len() - 1]).is_err());
        // Byte 8 is the first answer's presence flag.
        let mut bad = bytes.clone();
        bad[8] = 2;
        assert!(matches!(
            decode_query_many_reply(&bad),
            Err(ProtoError::Malformed(_))
        ));
        // A count the bytes cannot hold is refused before allocating.
        let mut bad = bytes;
        bad[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_query_many_reply(&bad).is_err());
    }

    #[test]
    fn ingest_ack_roundtrip() {
        let ack = IngestAck { n: 12345, seq: 67 };
        let bytes = encode_ingest_ack(ack);
        assert_eq!(bytes.len(), 16);
        assert_eq!(decode_ingest_ack(&bytes).expect("roundtrip"), ack);
        assert!(decode_ingest_ack(&bytes[..15]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_ingest_ack(&extra).is_err(), "trailing byte rejected");
    }

    #[test]
    fn window_insert_frame_roundtrip() {
        let bytes = encode_window_insert(12_345, &[1, 2, 3, u64::MAX]);
        let (ts, xs) = decode_window_insert(&bytes).expect("roundtrip");
        assert_eq!(ts, 12_345);
        assert_eq!(xs, vec![1, 2, 3, u64::MAX]);
    }

    #[test]
    fn window_query_frame_roundtrip_and_validation() {
        let spec = WindowSpec::sliding(5_000);
        let bytes = encode_window_query(spec, &[0.25, 0.5, 0.99]);
        let (back, phis) = decode_window_query(&bytes).expect("roundtrip");
        assert_eq!(back, spec);
        assert_eq!(phis, vec![0.25, 0.5, 0.99]);
        // A zero span violates the descriptor's invariant.
        let bad = encode_window_query(WindowSpec::tumbling(0), &[0.5]);
        assert!(matches!(
            decode_window_query(&bad),
            Err(ProtoError::Malformed(_))
        ));
        // φ outside (0, 1) is refused at the boundary.
        for phi in [0.0, 1.0, -0.5, f64::NAN, f64::INFINITY] {
            let bad = encode_window_query(spec, &[phi]);
            assert!(decode_window_query(&bad).is_err(), "phi {phi} accepted");
        }
    }

    #[test]
    fn window_answer_frame_roundtrip_and_invariants() {
        let answer = WindowAnswer {
            start_nanos: 1_000,
            end_nanos: 3_000,
            n: 42,
            answers: vec![Some(7), None, Some(u64::MAX)],
        };
        let bytes = encode_window_answer(&answer);
        assert_eq!(decode_window_answer(&bytes).expect("roundtrip"), answer);
        // A semantically-impossible answer (empty window with a Some
        // quantile) is rejected by the decoder's invariant check.
        let lying = WindowAnswer {
            start_nanos: 0,
            end_nanos: 1_000,
            n: 0,
            answers: vec![Some(5)],
        };
        assert!(matches!(
            decode_window_answer(&encode_window_answer(&lying)),
            Err(ProtoError::Malformed(_))
        ));
    }

    #[test]
    fn window_stats_frame_roundtrip() {
        let mut stats = WindowStats::default();
        stats.bucket_nanos = 1_000_000_000;
        stats.late_dropped = 17;
        stats.rollup_hits = 5;
        let bytes = encode_window_stats(&stats);
        assert_eq!(decode_window_stats(&bytes).expect("roundtrip"), stats);
    }
}
