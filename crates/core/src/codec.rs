//! The portable wire codec for mergeable summaries.
//!
//! The mergeable-summary property (Agarwal et al., PODS'12) is only
//! useful across process boundaries if a summary can be shipped as
//! bytes and reconstructed remotely — the deployment model of both the
//! sensor-network q-digest (Shrivastava et al.) and DataSketches-style
//! serving systems. This module defines that byte form once, for every
//! mergeable summary in the crate:
//!
//! * a common **frame**: magic, version (`2`), a summary-kind tag, a
//!   little-endian length-prefixed body, and a trailing [`checksum`]
//!   over everything before it;
//! * the [`WireCodec`] trait: each summary contributes only its
//!   `encode_body`/`decode_body`, and inherits framed
//!   [`to_bytes`](WireCodec::to_bytes) /
//!   [`from_bytes`](WireCodec::from_bytes);
//! * a **validating decode path**: `from_bytes` verifies the checksum,
//!   bounds every length it reads against the actual byte count, and
//!   finally runs the summary's own
//!   [`CheckInvariants`](sqs_util::audit::CheckInvariants) audit — a
//!   corrupt or adversarial frame yields a [`CodecError`], never a
//!   panic and never a structurally-invalid summary.
//!
//! Implementors: [`RandomSketch<u64>`](crate::random::RandomSketch),
//! [`QDigest`](crate::qdigest::QDigest) (the frame body is its
//! pre-existing compact byte form), and
//! [`ReservoirQuantiles<u64>`](crate::sampled::ReservoirQuantiles).
//! Randomized summaries serialize their PRNG state
//! ([`Xoshiro256pp::state`](sqs_util::rng::Xoshiro256pp::state)), so a
//! decoded summary continues the sender's random choices exactly —
//! encode→decode→insert behaves identically to never serializing.
//!
//! Byte-layout tables for the frame and each body live in
//! `docs/SERVICE.md`.

use std::fmt;

use sqs_util::audit::{CheckInvariants, InvariantViolation};

/// Frame magic: the four bytes `SQSC` (Streaming Quantile Summary
/// Codec).
pub const WIRE_MAGIC: [u8; 4] = *b"SQSC";

/// Current frame version. Bumped on any layout change; decoders reject
/// other versions rather than guessing.
pub const WIRE_VERSION: u8 = 2;

/// Kind tag of [`RandomSketch<u64>`](crate::random::RandomSketch).
pub const KIND_RANDOM: u8 = 1;
/// Kind tag of [`QDigest`](crate::qdigest::QDigest).
pub const KIND_QDIGEST: u8 = 2;
/// Kind tag of
/// [`ReservoirQuantiles<u64>`](crate::sampled::ReservoirQuantiles).
pub const KIND_RESERVOIR: u8 = 3;
/// Kind tag of the Dyadic Count-Sketch turnstile summary
/// (`sqs_turnstile::TurnstileSummary<CountSketch>` — implemented in
/// `sqs-turnstile` to keep this crate free of the sketch dependency).
/// Tags 4 and 5 are retired and refused with [`CodecError::BadKind`]:
/// 4 carried the two-hash-family row form (a pairwise `(a, b)` beside
/// the 4-wise coefficients), 5 a sketch at every sketched level (before
/// every other one became derived, level tag 3).
pub const KIND_DCS: u8 = 6;

/// Fixed frame header length: magic(4) + version(1) + kind(1) +
/// reserved(2) + body length(8).
pub const FRAME_HEADER_LEN: usize = 16;

/// Independent accumulator lanes of the frame checksum. Eight is the
/// smallest count within 10 % of the fastest measured (docs/PERF.md §9):
/// a lane step is a dependent rotate → xor → multiply chain, and eight
/// chains keep the multiplier busy where one leaves it idle. Part of
/// the wire format, not a knob.
const LANES: usize = 8;

/// Bytes one stripe feeds to the lanes: one little-endian word each.
const STRIPE: usize = LANES * 8;

/// The odd 64-bit multiplier of every step (2⁶⁴ / φ).
const SUM_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Left rotation applied to the state before each word is mixed in, so
/// the high bits a multiply never carries downwards re-enter it low.
const SUM_ROT: u32 = 31;

/// Where the lanes start: lane `i` at `(i + 1) · SUM_MUL mod 2⁶⁴`.
const LANE_SEEDS: [u64; LANES] = [
    SUM_MUL,
    SUM_MUL.wrapping_mul(2),
    SUM_MUL.wrapping_mul(3),
    SUM_MUL.wrapping_mul(4),
    SUM_MUL.wrapping_mul(5),
    SUM_MUL.wrapping_mul(6),
    SUM_MUL.wrapping_mul(7),
    SUM_MUL.wrapping_mul(8),
];

/// Mixes one word into an accumulator. A bijection of `acc` for a
/// fixed `word` and of `word` for a fixed `acc` — which is why a
/// change confined to one word can never cancel.
#[inline]
fn sum_step(acc: u64, word: u64) -> u64 {
    (acc.rotate_left(SUM_ROT) ^ word).wrapping_mul(SUM_MUL)
}

/// The frame checksum every frame family carries as its trailer
/// (`SQSC`, `SQSW`, `SQWL`, `SQCK`), as a streaming hasher: the
/// value depends only on the concatenated bytes, never on how they were
/// split across [`update`](Checksum::update) calls.
///
/// Little-endian `u64` words are striped over eight independent
/// rotate-xor-multiply lanes, so the multiplies pipeline instead of
/// chaining; [`finish`](Checksum::finish) folds the total length, the
/// lanes in order, and the words of the sub-stripe tail (the last one
/// zero-padded) into one word and finalizes it. `docs/SERVICE.md` §1.1
/// is the normative description. Not cryptographic: it catches
/// truncation, bit rot and framing bugs at memory speed, in safe code
/// and without a dependency (hardware CRC32C would need `unsafe`
/// intrinsics or a crate, and this workspace forbids the one and cannot
/// fetch the other).
#[derive(Debug, Clone)]
pub struct Checksum {
    lanes: [u64; LANES],
    /// Bytes received since the last whole stripe (`carried` of them).
    carry: [u8; STRIPE],
    carried: usize,
    len: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum {
    /// A hasher that has seen no bytes.
    #[must_use]
    pub fn new() -> Self {
        Self {
            lanes: LANE_SEEDS,
            carry: [0; STRIPE],
            carried: 0,
            len: 0,
        }
    }

    /// Feeds the next bytes of the frame.
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.carried > 0 {
            let room = self.carry.get_mut(self.carried..).unwrap_or_default();
            let (head, rest) = bytes.split_at(room.len().min(bytes.len()));
            if let Some(slot) = room.get_mut(..head.len()) {
                slot.copy_from_slice(head);
            }
            self.carried += head.len();
            bytes = rest;
            if self.carried < STRIPE {
                return;
            }
            absorb(&mut self.lanes, &self.carry);
            self.carried = 0;
        }
        let mut stripes = bytes.chunks_exact(STRIPE);
        for stripe in &mut stripes {
            absorb(&mut self.lanes, stripe);
        }
        let tail = stripes.remainder();
        if let Some(slot) = self.carry.get_mut(..tail.len()) {
            slot.copy_from_slice(tail);
        }
        self.carried = tail.len();
    }

    /// The checksum of everything fed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        let tail = self.carry.get(..self.carried).unwrap_or_default();
        fold(self.len, &self.lanes, tail)
    }
}

/// Folds the total length, then the lanes in order, then the words of
/// the sub-stripe `tail` (the last one zero-padded) into one word, and
/// finalizes it.
#[inline]
fn fold(len: u64, lanes: &[u64; LANES], tail: &[u8]) -> u64 {
    // Seeded, so that eight zero bytes are not a sealed empty frame.
    let mut acc = len ^ SUM_MUL;
    // A frame shorter than one stripe never touched the lanes and does
    // not pay for folding them.
    if len >= STRIPE as u64 {
        for &lane in lanes {
            acc = sum_step(acc, lane);
        }
    }
    let mut words = tail.chunks_exact(8);
    for word in &mut words {
        acc = sum_step(acc, le_word(word));
    }
    let ragged = words.remainder();
    if !ragged.is_empty() {
        let padded = ragged.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b));
        acc = sum_step(acc, padded);
    }
    // A last word's top bits have not been through a rotation yet: mix
    // them down, so that no damage near the end of a frame can be
    // matched by one flipped bit of the trailer.
    acc ^= acc >> 32;
    acc = acc.wrapping_mul(SUM_MUL);
    acc ^ (acc >> 29)
}

/// The little-endian word in an 8-byte slice.
#[inline]
fn le_word(word: &[u8]) -> u64 {
    let mut le = [0u8; 8];
    le.copy_from_slice(word);
    u64::from_le_bytes(le)
}

/// Steps every lane once with its word of `stripe` (`STRIPE` bytes).
#[inline]
fn absorb(lanes: &mut [u64; LANES], stripe: &[u8]) {
    for (lane, word) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
        *lane = sum_step(*lane, le_word(word));
    }
}

/// The [`Checksum`] of one contiguous byte string, without the
/// hasher's carry buffer in between.
#[must_use]
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let mut stripes = bytes.chunks_exact(STRIPE);
    for stripe in &mut stripes {
        absorb(&mut lanes, stripe);
    }
    fold(bytes.len() as u64, &lanes, stripes.remainder())
}

/// Appends the little-endian [`checksum`] of everything in `frame` —
/// the trailer of every frame family.
pub fn seal(frame: &mut Vec<u8>) {
    let sum = checksum(frame);
    frame.extend_from_slice(&sum.to_le_bytes());
}

/// Verifies the trailer [`seal`] wrote and returns the bytes it covers.
///
/// # Errors
/// [`CodecError::Truncated`] when `frame` is shorter than a trailer,
/// [`CodecError::ChecksumMismatch`] when the sum does not match.
pub fn open_sealed(frame: &[u8]) -> Result<&[u8], CodecError> {
    let (framed, trailer) = frame.split_last_chunk::<8>().ok_or(CodecError::Truncated)?;
    if checksum(framed) != u64::from_le_bytes(*trailer) {
        return Err(CodecError::ChecksumMismatch);
    }
    Ok(framed)
}

/// Why a byte frame failed to decode into a summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The byte stream ends before a declared field or length.
    Truncated,
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// The frame declares an unsupported version.
    BadVersion(u8),
    /// The frame carries a different summary kind than requested.
    BadKind {
        /// The kind tag the decoder was asked to produce.
        expected: u8,
        /// The kind tag found in the frame.
        got: u8,
    },
    /// The trailing checksum does not match the frame bytes.
    ChecksumMismatch,
    /// Bytes remain after the declared body — a framing bug or splice.
    TrailingBytes,
    /// A field value is structurally impossible (described by the
    /// static message).
    Malformed(&'static str),
    /// The decoded summary failed its own structural-invariant audit
    /// (`CheckInvariants`) — bytes that parse but describe an invalid
    /// state are rejected the same way corrupt ones are.
    Invariant(InvariantViolation),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "byte stream truncated"),
            CodecError::BadMagic => write!(f, "bad frame magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            CodecError::BadKind { expected, got } => {
                write!(f, "summary kind mismatch: expected {expected}, got {got}")
            }
            CodecError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after frame body"),
            CodecError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            CodecError::Invariant(v) => write!(f, "decoded summary fails audit: {v}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<InvariantViolation> for CodecError {
    fn from(v: InvariantViolation) -> Self {
        CodecError::Invariant(v)
    }
}

/// A bounds-checked little-endian cursor over a byte slice. Every read
/// returns [`CodecError::Truncated`] instead of panicking, which keeps
/// the whole decode path index-free.
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { rest: bytes }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Takes the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or(CodecError::Truncated)?;
        self.rest = tail;
        Ok(head)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        self.bytes(1)?.first().copied().ok_or(CodecError::Truncated)
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b: [u8; 4] = self
            .bytes(4)?
            .try_into()
            .map_err(|_| CodecError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b: [u8; 8] = self
            .bytes(8)?
            .try_into()
            .map_err(|_| CodecError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a little-endian `u64` and converts it to `usize`, failing
    /// with `Malformed` if it does not fit the platform.
    pub fn read_len(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?)
            .map_err(|_| CodecError::Malformed("length field exceeds the address space"))
    }

    /// Reads a length-prefixed `u64` vector: count, then that many
    /// little-endian words. The count is validated against the bytes
    /// actually present *before* any allocation, so a forged length
    /// cannot request an absurd buffer.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, CodecError> {
        let count = self.read_len()?;
        let byte_len = count.checked_mul(8).ok_or(CodecError::Truncated)?;
        let raw = self.bytes(byte_len)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                u64::from_le_bytes(
                    c.try_into()
                        .expect("Reader invariant: chunks_exact(8) yields 8-byte slices"),
                )
            })
            .collect())
    }

    /// Asserts the cursor consumed everything.
    pub fn done(&self) -> Result<(), CodecError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes)
        }
    }
}

/// Reads the summary-kind tag out of a frame without decoding it:
/// validates the magic, version and trailing checksum, then returns
/// the `KIND_*` byte. This is how kind-generic layers (the durable
/// store, routing code) sanity-check a frame they cannot yet decode —
/// the typed [`WireCodec::from_bytes`] still re-validates everything
/// when the frame is finally consumed.
///
/// # Errors
/// The same structural errors `from_bytes` would report: truncation,
/// bad magic, unsupported version, checksum mismatch.
pub fn frame_kind(bytes: &[u8]) -> Result<u8, CodecError> {
    let mut r = Reader::new(open_sealed(bytes)?);
    if r.bytes(4)? != WIRE_MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = r.u8()?;
    if version != WIRE_VERSION {
        return Err(CodecError::BadVersion(version));
    }
    r.u8()
}

/// Appends a length-prefixed `u64` vector (count, then the words) —
/// the encoder dual of [`Reader::u64_vec`]. The words go in as one
/// exact-size `extend`, which compiles to a bulk copy rather than a
/// capacity check per element.
pub fn put_u64_slice(out: &mut Vec<u8>, xs: &[u64]) {
    out.extend_from_slice(&(xs.len() as u64).to_le_bytes());
    out.extend(xs.iter().flat_map(|x| x.to_le_bytes()));
}

/// A summary with a portable, versioned byte form.
///
/// Implementors provide only the body codec; the framing (magic,
/// version, kind tag, length prefix, checksum) and the post-decode
/// invariant audit are shared. `encode_body` takes `&mut self` because
/// several summaries flush internal buffers so that equal summaries
/// serialize equally.
pub trait WireCodec: CheckInvariants + Sized {
    /// This summary's kind tag in the frame header (one of the
    /// `KIND_*` constants).
    const WIRE_KIND: u8;

    /// Appends the summary's body bytes (everything inside the frame).
    fn encode_body(&mut self, out: &mut Vec<u8>);

    /// Parses a body produced by
    /// [`encode_body`](WireCodec::encode_body). Implementations must
    /// bounds-check every read (use [`Reader`]) and reject values that
    /// would make later operations panic; structural soundness of the
    /// result is additionally audited by
    /// [`from_bytes`](WireCodec::from_bytes).
    fn decode_body(body: &[u8]) -> Result<Self, CodecError>;

    /// Serializes the summary as one framed, checksummed byte string.
    fn to_bytes(&mut self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN + 64);
        out.extend_from_slice(&WIRE_MAGIC);
        out.push(WIRE_VERSION);
        out.push(Self::WIRE_KIND);
        out.extend_from_slice(&[0u8; 2]); // reserved
        out.extend_from_slice(&0u64.to_le_bytes()); // body length placeholder
        self.encode_body(&mut out);
        let body_len = (out.len() - FRAME_HEADER_LEN) as u64;
        if let Some(slot) = out.get_mut(8..FRAME_HEADER_LEN) {
            slot.copy_from_slice(&body_len.to_le_bytes());
        }
        seal(&mut out);
        out
    }

    /// Reconstructs a summary from [`to_bytes`](WireCodec::to_bytes)
    /// output, rejecting corrupt, truncated, mis-typed or
    /// invariant-violating frames with an error — this path never
    /// panics on untrusted input.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(open_sealed(bytes)?);
        if r.bytes(4)? != WIRE_MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let kind = r.u8()?;
        if kind != Self::WIRE_KIND {
            return Err(CodecError::BadKind {
                expected: Self::WIRE_KIND,
                got: kind,
            });
        }
        let _reserved = r.bytes(2)?;
        let body_len = r.read_len()?;
        if body_len != r.remaining() {
            // The length prefix must account for exactly the rest of
            // the frame; anything else is a splice or truncation.
            return Err(if body_len > r.remaining() {
                CodecError::Truncated
            } else {
                CodecError::TrailingBytes
            });
        }
        let body = r.bytes(body_len)?;
        let decoded = Self::decode_body(body)?;
        decoded.check_invariants()?;
        Ok(decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_util::rng::Xoshiro256pp;

    /// FNV-1a-64, the byte-serial trailer this module carried before
    /// [`Checksum`]: the reference the speed floor is measured against.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A reproducible non-repeating byte pattern.
    fn pattern(len: usize) -> Vec<u8> {
        let mut rng = Xoshiro256pp::new(0x5153_4331);
        (0..len).map(|_| rng.next_u64().to_le_bytes()[0]).collect()
    }

    fn sum_of_parts(parts: &[&[u8]]) -> u64 {
        let mut sum = Checksum::new();
        for part in parts {
            sum.update(part);
        }
        sum.finish()
    }

    #[test]
    fn fnv_reference_values() {
        // Public FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// The wire format, pinned — the vectors docs/SERVICE.md §1.1 gives
    /// a client in another language: byte `i` of the input is
    /// `(31·i + 7) mod 256`. A change to a constant, the lane order,
    /// the tail rule, the length fold or the finalizer moves them.
    #[test]
    fn checksum_golden_vectors() {
        let bytes: Vec<u8> = (0..4096usize).map(|i| (i * 31 + 7) as u8).collect();
        let golden: [(usize, u64); 8] = [
            (0, 0xab16_9ebd_5d0c_32dc),
            (1, 0x3325_a53e_c5a7_2e83),
            (7, 0x1282_8a17_c596_4ca0),
            (8, 0x53fa_f571_f34f_bec3),
            (STRIPE - 1, 0x65f2_ac0d_7346_f0e2),
            (STRIPE, 0x2aeb_a377_c7db_3656),
            (STRIPE + 1, 0xaa6e_3951_6af8_cf55),
            (4096, 0xf9e3_e5b9_a3b2_08f4),
        ];
        for (len, want) in golden {
            let got = checksum(&bytes[..len]);
            assert_eq!(got, want, "len {len}: got {got:#018x}");
        }
        assert_eq!(STRIPE, 64, "the stripe width is part of the wire format");
    }

    #[test]
    fn checksum_ignores_how_the_bytes_were_split() {
        let bytes = pattern(100);
        let whole = checksum(&bytes);
        for i in 0..=bytes.len() {
            let (a, rest) = bytes.split_at(i);
            assert_eq!(sum_of_parts(&[a, rest]), whole, "split at {i}");
            for j in 0..=rest.len() {
                let (b, c) = rest.split_at(j);
                assert_eq!(sum_of_parts(&[a, b, c]), whole, "split at {i}, {}", i + j);
            }
        }
        let big = pattern(40 << 10);
        let whole = checksum(&big);
        let mut rng = Xoshiro256pp::new(7);
        for round in 0..64 {
            // Mostly small parts (sub-stripe, straddling), some large.
            let cap = if round % 2 == 0 { 200 } else { 9000 };
            let mut sum = Checksum::new();
            let mut rest = big.as_slice();
            while !rest.is_empty() {
                let take = (rng.next_below(cap) as usize).min(rest.len());
                let (part, tail) = rest.split_at(take);
                sum.update(part);
                rest = tail;
            }
            assert_eq!(sum.finish(), whole, "round {round}");
        }
    }

    /// A change confined to one aligned 8-byte word — so every
    /// single-bit and single-byte error — always moves the sum: each
    /// step is a bijection, nothing downstream can cancel it.
    #[test]
    fn any_change_within_one_word_changes_the_sum() {
        let mut rng = Xoshiro256pp::new(11);
        // 4 KiB of whole stripes, and a length with a ragged tail.
        for len in [4096usize, 4096 + 29] {
            let clean = pattern(len);
            let want = checksum(&clean);
            let mut bad = clean.clone();
            for start in (0..len).step_by(8) {
                let end = (start + 8).min(len);
                for bit in 0..(end - start) * 8 {
                    bad[start + bit / 8] ^= 1 << (bit % 8);
                    assert_ne!(checksum(&bad), want, "bit {bit} of word at {start}");
                    bad[start + bit / 8] ^= 1 << (bit % 8);
                }
                for at in start..end {
                    bad[at] ^= 0xFF;
                    assert_ne!(checksum(&bad), want, "byte {at}");
                    bad[at] = clean[at];
                }
                for _ in 0..4 {
                    let noise = rng.next_u64().to_le_bytes();
                    bad[start..end].copy_from_slice(&noise[..end - start]);
                    if bad[start..end] != clean[start..end] {
                        assert_ne!(checksum(&bad), want, "word at {start} replaced");
                    }
                }
                bad[start..end].copy_from_slice(&clean[start..end]);
            }
        }
    }

    /// Why each lane step rotates: a multiply only carries upwards, so
    /// without it a flipped top bit would stay a lone top bit and the
    /// same flip one stripe later, in the same lane, would cancel it.
    #[test]
    fn same_bit_flipped_twice_in_one_lane_does_not_cancel() {
        let clean = pattern(4 * STRIPE);
        let want = checksum(&clean);
        for bit in 0..STRIPE * 8 {
            let mut bad = clean.clone();
            for stripe in [1, 2] {
                bad[stripe * STRIPE + bit / 8] ^= 1 << (bit % 8);
            }
            assert_ne!(checksum(&bad), want, "bit {bit} of stripes 1 and 2");
        }
    }

    /// Why `fold` finalizes: damage to the last word must not be
    /// undone by one flipped bit of the trailer that follows it.
    #[test]
    fn damage_to_the_last_word_and_one_trailer_bit_is_still_caught() {
        let mut frame = pattern(96);
        seal(&mut frame);
        for word_bit in 0..64 {
            for trailer_bit in 0..64 {
                let mut bad = frame.clone();
                bad[88 + word_bit / 8] ^= 1 << (word_bit % 8);
                bad[96 + trailer_bit / 8] ^= 1 << (trailer_bit % 8);
                assert_eq!(
                    open_sealed(&bad),
                    Err(CodecError::ChecksumMismatch),
                    "word bit {word_bit}, trailer bit {trailer_bit}"
                );
            }
        }
        assert_eq!(open_sealed(&frame), Ok(&frame[..96]));
        assert_eq!(open_sealed(&frame[..7]), Err(CodecError::Truncated));
    }

    #[test]
    fn truncation_and_zero_extension_change_the_sum() {
        let bytes = pattern(4096);
        let want = checksum(&bytes);
        for cut in 0..bytes.len() {
            assert_ne!(checksum(&bytes[..cut]), want, "truncated to {cut}");
        }
        // Zero padding leaves the padded tail word unchanged, so only
        // the length fold can tell these apart.
        for len in [0usize, 5, 64, 100, 4096] {
            let mut longer = bytes[..len].to_vec();
            let want = checksum(&longer);
            for extra in 1..=64 {
                longer.push(0);
                assert_ne!(checksum(&longer), want, "{len} bytes + {extra} zeros");
            }
        }
    }

    /// The speed floor, as a ratio so it holds on any machine: the
    /// lanes must pay off on a batch frame and must not cost a reply
    /// frame more than the byte-serial sum they replaced.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing floor: run with --release")]
    fn checksum_beats_the_byte_serial_reference() {
        use std::hint::black_box;
        use std::time::Instant;
        fn best_ns(bytes: &[u8], f: fn(&[u8]) -> u64) -> f64 {
            let reps = (1 << 22) / bytes.len().max(64);
            (0..9)
                .map(|_| {
                    let start = Instant::now();
                    for _ in 0..reps {
                        black_box(f(black_box(bytes)));
                    }
                    start.elapsed().as_secs_f64() * 1e9 / reps as f64
                })
                .fold(f64::INFINITY, f64::min)
        }
        let batch = pattern(32 << 10);
        let speedup = best_ns(&batch, fnv1a64) / best_ns(&batch, checksum);
        assert!(speedup >= 8.0, "32 KiB: only {speedup:.1}x the reference");
        let reply = pattern(28);
        let cost = best_ns(&reply, checksum) / best_ns(&reply, fnv1a64);
        assert!(cost <= 1.5, "28 bytes: {cost:.2}x the reference's time");
    }

    #[test]
    fn reader_is_bounds_checked() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u32(), Err(CodecError::Truncated));
        assert_eq!(r.remaining(), 2);
        assert_eq!(r.bytes(2), Ok(&[2u8, 3][..]));
        assert!(r.done().is_ok());
        assert_eq!(r.u64(), Err(CodecError::Truncated));
    }

    #[test]
    fn u64_vec_rejects_forged_count_before_allocating() {
        // Declares u64::MAX elements with only 4 bytes behind it.
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        let mut r = Reader::new(&bytes);
        assert!(r.u64_vec().is_err());
    }

    #[test]
    fn u64_slice_roundtrip() {
        let xs = [7u64, 0, u64::MAX, 42];
        let mut out = Vec::new();
        put_u64_slice(&mut out, &xs);
        let mut r = Reader::new(&out);
        assert_eq!(r.u64_vec().expect("roundtrip"), xs.to_vec());
        assert!(r.done().is_ok());
    }
}
