//! The served-summary contract, stated once. `tests/conformance.rs`
//! runs it on every summary; `codec_props.rs`, `mergeability.rs` and
//! `invariant_audit.rs` call single checks of it under the test names
//! they carried before the contract was one suite.
//!
//! A [`Spec`] says how to build and feed one summary type. Each check is
//! a generic function over the traits it needs, so a type runs every
//! check its traits admit:
//!
//! 1. [`state_identity`]: any chunking of `insert_batch` leaves the
//!    state the scalar `insert` loop leaves;
//! 2. [`decode_continues`]: encode → decode → continue leaves the bytes
//!    of the encoded original continued the same way, and those of a
//!    never-encoded copy unless encoding flushes
//!    ([`Spec::encode_flushes`]: the q-digest);
//! 3. [`corruption_refused`]: every truncation and bit flip of a small
//!    frame, a trailing byte and every foreign kind byte, and strided
//!    cuts and flips of a large frame, decode to an `Err`, never a panic;
//! 4. [`merge_trees`]: chain, one-sided, balanced and random merge trees
//!    conserve `n`, pass the audit and answer within ε of an exact
//!    oracle, and merging an empty summary moves no answer;
//! 5. [`mismatches_refused`]: a summary differing in any one field
//!    `merge_compatible` compares is refused by `merge_compatible`, by
//!    `ShardedEngine::try_absorb`, and with a panic by `merge_from`;
//! 6. [`audits_hold`]: `CheckInvariants` holds at prime-strided
//!    checkpoints of seven streams, and after queries;
//! 7. [`sweeps_match`]: `quantiles` answers as the per-φ loop, and
//!    `quantile_grid` as `quantiles(probe_phis)`.
//!
//! [`run`] is all seven: what a served kind must keep.

// Each test crate that includes this module runs a part of it.
#![allow(dead_code)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_core::codec::{seal, CodecError, WireCodec};
use streaming_quantiles::sqs_data::synthetic::{Normal, Order, Uniform};
use streaming_quantiles::sqs_data::Mpcat;
use streaming_quantiles::sqs_sketch::{CountMin, CountSketch};
use streaming_quantiles::sqs_util::exact::probe_phis;
use streaming_quantiles::sqs_util::rng::Xoshiro256pp;

/// The seed of every summary a check builds.
const SEED: u64 = 42;
/// Rows per stream of the audit matrix (check 6).
const AUDIT_ROWS: usize = 30_000;
/// Rows per stream everywhere else.
const ROWS: usize = 8_000;
/// Prime checkpoint stride: never aligned with the power-of-two
/// schedule of the hot-path audits.
const CHECK_EVERY: usize = 1_871;
/// The q-digest's universe is `[0, 2^20)`.
const QDIGEST_LOG_U: u32 = 20;
/// The dyadic structures' universe is `[0, 2^16)`.
const DYADIC_LOG_U: u32 = 16;

/// How to build and feed one summary type.
pub struct Spec<S> {
    /// A fresh summary at ε, drawing from the seed where it draws.
    pub make: fn(f64, u64) -> S,
    /// The ε every check builds at, finest first; check 3's small frame
    /// is built at the last.
    pub eps: &'static [f64],
    /// Folds a raw stream value into the summary's universe.
    pub value: fn(u64) -> u64,
    /// Whether two summaries hold the same state: equal frames where
    /// there is a frame, else equal `Debug` forms (or `==`, where the
    /// `Debug` form shows more than the state).
    pub same_state: fn(&mut S, &mut S) -> bool,
    /// Summaries that differ from `make(ε, seed)` in one field that
    /// `merge_compatible` compares, each named by its field.
    pub mismatches: fn(f64, u64) -> Vec<(&'static str, S)>,
    /// Whether an encode flushes state that a never-encoded copy keeps
    /// buffered, so that the two continue differently (check 2).
    pub encode_flushes: bool,
}

impl<S: QuantileSummary<u64> + std::fmt::Debug> Spec<S> {
    /// A spec with the defaults: ε 0.01 and 0.05, any `u64`, equal
    /// `Debug` forms as the same state, no mismatch.
    pub fn new(make: fn(f64, u64) -> S) -> Self {
        Self {
            make,
            eps: &[0.01, 0.05],
            value: |x| x,
            same_state: |a, b| format!("{a:?}") == format!("{b:?}"),
            mismatches: |_, _| Vec::new(),
            encode_flushes: false,
        }
    }
}

impl<S: WireCodec> Spec<S> {
    /// The same spec with the frame as the state.
    fn framed(self) -> Self {
        Self {
            same_state: |a, b| a.to_bytes() == b.to_bytes(),
            ..self
        }
    }
}

impl<S: QuantileSummary<u64>> Spec<S> {
    /// The summary's name and ε, for failure messages.
    fn label(&self, eps: f64) -> String {
        format!("{} at ε {eps}", (self.make)(eps, SEED).name())
    }

    /// The input matrix, folded into the universe.
    fn streams(&self, rows: usize) -> Vec<(&'static str, Vec<u64>)> {
        let mut streams = streams(rows);
        for (_, xs) in &mut streams {
            *xs = self.fold(xs);
        }
        streams
    }

    fn fold(&self, xs: &[u64]) -> Vec<u64> {
        xs.iter().map(|&x| (self.value)(x)).collect()
    }

    fn fed(&self, eps: f64, xs: &[u64]) -> S {
        let mut s = (self.make)(eps, SEED);
        s.insert_batch(xs);
        s
    }
}

/// The input matrix: every value distribution and arrival order the
/// contract must survive, `rows` values each, in `[0, 2^20)`.
pub fn streams(rows: usize) -> Vec<(&'static str, Vec<u64>)> {
    let mut sorted: Vec<u64> = Uniform::new(20, 11).take(rows).collect();
    Order::Sorted.apply(&mut sorted, 0);
    let mut reversed = sorted.clone();
    Order::Reversed.apply(&mut reversed, 0);
    let mut runs: Vec<u64> = Uniform::new(20, 12).take(rows).collect();
    Order::SortedRuns { min: 50, max: 500 }.apply(&mut runs, 13);
    vec![
        ("random", Uniform::new(20, 10).take(rows).collect()),
        ("sorted", sorted),
        ("reversed", reversed),
        ("sorted_runs", runs),
        // Heavy concentration: the skew knob of §4.2.4.
        ("skewed", Normal::new(20, 0.01, 14).take(rows).collect()),
        // Few distinct values: duplicate-heavy merging.
        ("duplicates", (0..rows as u64).map(|i| i % 37).collect()),
        // Alternating extremes: new min, new max, new min, ...
        (
            "extremes",
            (0..rows as u64)
                .map(|i| if i % 2 == 0 { i } else { u64::MAX >> 44 })
                .collect(),
        ),
    ]
}

/// Random, whose merge compares ε and the pool's shape. A pool of
/// another shape at the same ε only comes off the wire, so the
/// mismatches are edited frames.
pub fn random() -> Spec<RandomSketch<u64>> {
    Spec {
        mismatches: |eps, seed| {
            let mut s = RandomSketch::new(eps, seed);
            let b = s.buffer_count();
            // Body: ε bits, h u32, s u64, …, the buffer count, then b
            // empty buffers of 13 bytes each.
            vec![
                (
                    "eps",
                    reframed(&mut s, |body| put(body, 0, (eps * (1.0 + 1e-6)).to_bits())),
                ),
                (
                    "buffer size",
                    reframed(&mut s, |body| {
                        let size = word(body, 12);
                        put(body, 12, size + 1);
                    }),
                ),
                (
                    "buffer count",
                    reframed(&mut s, |body| {
                        let h = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes"));
                        body[8..12].copy_from_slice(&(h + 1).to_le_bytes());
                        let at = body.len() - 13 * b - 8;
                        put(body, at, b as u64 + 1);
                        body.extend_from_slice(&[0; 13]);
                    }),
                ),
            ]
        },
        ..Spec::new(RandomSketch::new).framed()
    }
}

pub fn qdigest() -> Spec<QDigest> {
    Spec {
        value: |x| x % (1 << QDIGEST_LOG_U),
        mismatches: |eps, _| {
            vec![
                ("log_u", QDigest::new(eps, QDIGEST_LOG_U + 1)),
                ("sigma", QDigest::new(eps * 2.0, QDIGEST_LOG_U)),
            ]
        },
        encode_flushes: true,
        ..Spec::new(|eps, _| QDigest::new(eps, QDIGEST_LOG_U)).framed()
    }
}

pub fn reservoir() -> Spec<ReservoirQuantiles<u64>> {
    Spec {
        eps: &[0.05, 0.2],
        mismatches: |eps, seed| {
            let capacity = ReservoirQuantiles::<u64>::new(eps, seed).capacity();
            let other = ReservoirQuantiles::with_capacity(capacity + 1, seed);
            vec![("capacity", other)]
        },
        ..Spec::new(ReservoirQuantiles::new).framed()
    }
}

pub fn dcs() -> Spec<TurnstileSummary<CountSketch>> {
    Spec {
        eps: &[0.02, 0.1],
        value: |x| x % (1 << DYADIC_LOG_U),
        mismatches: |eps, seed| dyadic_mismatches(TurnstileSummary::dcs, eps, seed),
        ..Spec::new(|eps, seed| TurnstileSummary::dcs(eps, DYADIC_LOG_U, seed)).framed()
    }
}

/// Mergeable, not served: no wire form. Its equality is the sketch
/// state without the audit-only update counter.
pub fn dcm() -> Spec<TurnstileSummary<CountMin>> {
    Spec {
        same_state: |a, b| a == b,
        eps: &[0.02, 0.1],
        value: |x| x % (1 << DYADIC_LOG_U),
        mismatches: |eps, seed| dyadic_mismatches(TurnstileSummary::dcm, eps, seed),
        ..Spec::new(|eps, seed| TurnstileSummary::dcm(eps, DYADIC_LOG_U, seed))
    }
}

/// A dyadic structure merges counter-wise: same universe, same ε, same
/// hash draws.
fn dyadic_mismatches<K>(
    make: fn(f64, u32, u64) -> TurnstileSummary<K>,
    eps: f64,
    seed: u64,
) -> Vec<(&'static str, TurnstileSummary<K>)> {
    vec![
        ("log_u", make(eps, DYADIC_LOG_U + 1, seed)),
        ("eps", make(eps * 2.0, DYADIC_LOG_U, seed)),
        ("hash draws", make(eps, DYADIC_LOG_U, seed + 1)),
    ]
}

pub fn gk_adaptive() -> Spec<GkAdaptive<u64>> {
    Spec::new(|eps, _| GkAdaptive::new(eps))
}

pub fn gk_array() -> Spec<GkArray<u64>> {
    Spec::new(|eps, _| GkArray::new(eps))
}

pub fn gk_theory() -> Spec<GkTheory<u64>> {
    Spec::new(|eps, _| GkTheory::new(eps))
}

pub fn mrl99() -> Spec<Mrl99<u64>> {
    Spec::new(Mrl99::new)
}

/// MRL98 is sized for a known `n`: every check stays below it.
pub fn mrl98() -> Spec<Mrl98<u64>> {
    Spec::new(|eps, _| Mrl98::new(eps, 130_000))
}

/// Low- and high-biased at the check's ε, and targeted at two
/// quantiles whatever the ε.
pub fn ckms() -> [Spec<Ckms<u64>>; 3] {
    [
        Spec::new(|eps, _| Ckms::low_biased(eps)),
        Spec::new(|eps, _| Ckms::high_biased(eps)),
        Spec::new(|_, _| Ckms::targeted(&[(0.5, 0.02), (0.99, 0.005)])),
    ]
}

/// The little-endian word at `at`.
fn word(body: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"))
}

/// Overwrites the little-endian word at `at`.
fn put(body: &mut [u8], at: usize, value: u64) {
    body[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

/// `s`'s frame with `edit` applied to its body, re-framed, re-sealed
/// and decoded: the edit must leave a state that passes the audit.
fn reframed<S: WireCodec>(s: &mut S, edit: impl FnOnce(&mut Vec<u8>)) -> S {
    let frame = s.to_bytes();
    let mut body = frame[16..frame.len() - 8].to_vec();
    edit(&mut body);
    let mut edited = frame[..8].to_vec();
    edited.extend_from_slice(&(body.len() as u64).to_le_bytes());
    edited.extend_from_slice(&body);
    seal(&mut edited);
    S::from_bytes(&edited).expect("an edited frame that decodes")
}

/// Feeds `xs` through `insert_batch` in chunks of the lengths `len`
/// yields.
fn feed_in_chunks<S: QuantileSummary<u64>>(s: &mut S, xs: &[u64], mut len: impl FnMut() -> usize) {
    let mut rest = xs;
    while !rest.is_empty() {
        let (head, tail) = rest.split_at(len().clamp(1, rest.len()));
        s.insert_batch(head);
        rest = tail;
    }
}

/// All seven checks: the contract of a served kind.
pub fn run<S: MergeableSummary<u64> + WireCodec + Clone>(spec: &Spec<S>) {
    state_identity(spec);
    decode_continues(spec);
    corruption_refused(spec);
    merge_trees(spec);
    mismatches_refused(spec);
    audits_hold(spec);
    sweeps_match(spec);
}

/// Check 1: fixed and ragged chunkings of `insert_batch` leave the
/// state of the scalar `insert` loop.
pub fn state_identity<S: QuantileSummary<u64>>(spec: &Spec<S>) {
    for &eps in spec.eps {
        for (stream, xs) in spec.streams(ROWS) {
            let at = format!("{} / {stream}", spec.label(eps));
            let mut scalar = (spec.make)(eps, SEED);
            xs.iter().for_each(|&x| scalar.insert(x));
            for chunk in [1, 255, 256, 1013, xs.len()] {
                let mut batched = (spec.make)(eps, SEED);
                feed_in_chunks(&mut batched, &xs, || chunk);
                assert!(
                    (spec.same_state)(&mut batched, &mut scalar),
                    "{at}: chunks of {chunk} leave another state than the insert loop"
                );
            }
            let mut rng = Xoshiro256pp::new(eps.to_bits());
            let mut batched = (spec.make)(eps, SEED);
            feed_in_chunks(&mut batched, &xs, || rng.next_below(600) as usize);
            assert!(
                (spec.same_state)(&mut batched, &mut scalar),
                "{at}: ragged chunks leave another state than the insert loop"
            );
        }
    }
}

/// Check 2: a decoded copy continues exactly as the encoded original,
/// from empty and from a third of each stream.
pub fn decode_continues<S: QuantileSummary<u64> + WireCodec + Clone>(spec: &Spec<S>) {
    for &eps in spec.eps {
        for (stream, xs) in spec.streams(ROWS) {
            for cut in [0, xs.len() / 3] {
                let at = format!("{} / {stream}, encoded at n = {cut}", spec.label(eps));
                let (head, tail) = xs.split_at(cut);
                let mut original = spec.fed(eps, head);
                let mut never = original.clone();
                let frame = original.to_bytes();
                let mut decoded =
                    S::from_bytes(&frame).unwrap_or_else(|e| panic!("{at}: own frame: {e}"));
                assert!(
                    decoded.clone().to_bytes() == frame,
                    "{at}: the decoded copy re-encodes to other bytes"
                );
                for s in [&mut original, &mut decoded, &mut never] {
                    let (batch, single) = tail.split_at(tail.len() / 2);
                    s.insert_batch(batch);
                    single.iter().for_each(|&x| s.insert(x));
                }
                let want = original.to_bytes();
                assert!(
                    decoded.to_bytes() == want,
                    "{at}: the decoded copy continued unlike the encoded original"
                );
                assert!(
                    spec.encode_flushes || never.to_bytes() == want,
                    "{at}: a never-encoded copy continued unlike the encoded one"
                );
            }
        }
    }
}

/// Check 3: no damaged frame decodes, and none panics the decoder.
pub fn corruption_refused<S: QuantileSummary<u64> + WireCodec>(spec: &Spec<S>) {
    let coarse = spec.eps[spec.eps.len() - 1];
    let at = spec.label(coarse);
    let frame = spec.fed(coarse, &spec.streams(64)[0].1).to_bytes();
    assert!(S::from_bytes(&frame).is_ok(), "{at}: own frame refused");
    for cut in 0..frame.len() {
        assert!(
            S::from_bytes(&frame[..cut]).is_err(),
            "{at}: truncation at {cut}/{} accepted",
            frame.len()
        );
    }
    for pos in 0..frame.len() {
        for bit in 0..8 {
            let mut evil = frame.clone();
            evil[pos] ^= 1 << bit;
            assert!(
                S::from_bytes(&evil).is_err(),
                "{at}: bit flip at byte {pos} bit {bit} accepted"
            );
        }
    }
    // Re-sealed, so that only the body length or the kind byte can
    // refuse them.
    let sealed = |edit: &dyn Fn(&mut Vec<u8>)| {
        let mut edited = frame[..frame.len() - 8].to_vec();
        edit(&mut edited);
        seal(&mut edited);
        S::from_bytes(&edited).err()
    };
    assert_eq!(
        sealed(&|f| f.push(0)),
        Some(CodecError::TrailingBytes),
        "{at}: trailing byte"
    );
    for got in (0..=u8::MAX).filter(|&b| b != S::KIND as u8) {
        let expected = S::KIND;
        assert_eq!(
            sealed(&|f| f[5] = got),
            Some(CodecError::BadKind { expected, got }),
            "{at}: kind byte {got}"
        );
    }

    let fine = spec.eps[0];
    let at = spec.label(fine);
    let frame = spec.fed(fine, &spec.streams(ROWS)[0].1).to_bytes();
    for pos in (0..frame.len()).step_by((frame.len() / 97).max(1)) {
        assert!(
            S::from_bytes(&frame[..pos]).is_err(),
            "{at}: truncation at {pos}/{} accepted",
            frame.len()
        );
        for bit in [0, 3, 7] {
            let mut evil = frame.clone();
            evil[pos] ^= 1 << bit;
            assert!(
                S::from_bytes(&evil).is_err(),
                "{at}: bit flip at byte {pos} bit {bit} accepted"
            );
        }
    }
}

/// The shapes of check 4's merge trees.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// The merge so far absorbs each part in turn.
    Chain,
    /// Each part absorbs the merge so far.
    OneSided,
    /// Pairwise rounds: the sensor-network topology.
    Balanced,
    /// Two summaries drawn at random merge, until one is left.
    Random,
}

/// Check 4: every shape, then the empty summary as a merge identity.
pub fn merge_trees<S: MergeableSummary<u64> + Clone>(spec: &Spec<S>) {
    for shape in [
        Shape::Chain,
        Shape::OneSided,
        Shape::Balanced,
        Shape::Random,
    ] {
        merge_tree(spec, shape);
    }
    merge_with_empty(spec);
}

/// Twelve parts from three distributions, and an empty one among them.
fn merge_parts<S: QuantileSummary<u64>>(spec: &Spec<S>) -> Vec<Vec<u64>> {
    let mut parts: Vec<Vec<u64>> = (0..12u64)
        .map(|i| match i % 3 {
            0 => Uniform::new(20, i).take(4_000).collect::<Vec<_>>(),
            1 => Normal::new(20, 0.1 + 0.02 * i as f64, 100 + i)
                .take(4_000)
                .collect(),
            _ => Mpcat::new(i).take(4_000).collect(),
        })
        .map(|xs| spec.fold(&xs))
        .collect();
    parts.insert(5, Vec::new());
    parts
}

/// Check 4 for one shape: `n` conserved, the audit clean, every probe
/// φ within ε of the exact answer.
pub fn merge_tree<S: MergeableSummary<u64>>(spec: &Spec<S>, shape: Shape) {
    let parts = merge_parts(spec);
    let all = parts.concat();
    let oracle = ExactQuantiles::new(all.clone());
    for &eps in spec.eps {
        let at = format!("{} / {shape:?} merge", spec.label(eps));
        let mut summaries: Vec<S> = parts.iter().map(|xs| spec.fed(eps, xs)).collect();
        let merge = |mut into: S, from: S| {
            into.merge_from(from);
            into
        };
        let mut merged = match shape {
            Shape::Chain => summaries.into_iter().reduce(merge),
            Shape::OneSided => summaries.into_iter().reduce(|acc, part| merge(part, acc)),
            Shape::Balanced => {
                while summaries.len() > 1 {
                    let mut round = summaries.into_iter();
                    summaries = Vec::new();
                    while let Some(a) = round.next() {
                        summaries.push(match round.next() {
                            Some(b) => merge(a, b),
                            None => a,
                        });
                    }
                }
                summaries.pop()
            }
            Shape::Random => {
                let mut rng = Xoshiro256pp::new(77);
                while summaries.len() > 1 {
                    let a = summaries.swap_remove(rng.next_below(summaries.len() as u64) as usize);
                    let b = summaries.swap_remove(rng.next_below(summaries.len() as u64) as usize);
                    summaries.push(merge(a, b));
                }
                summaries.pop()
            }
        }
        .expect("parts");
        assert_eq!(merged.n(), all.len() as u64, "{at}: n not conserved");
        if let Err(v) = merged.check_invariants() {
            panic!("{at}: {v}");
        }
        for phi in probe_phis(0.1) {
            let q = merged.quantile(phi).expect("a non-empty merge answers");
            let err = oracle.quantile_error(phi, q);
            assert!(err <= eps, "{at}: φ {phi} is {err:.5} off, over ε");
        }
    }
}

/// Merging an empty summary, either way round, moves no answer.
pub fn merge_with_empty<S: MergeableSummary<u64> + Clone>(spec: &Spec<S>) {
    let phis = probe_phis(0.1);
    for &eps in spec.eps {
        let at = spec.label(eps);
        let xs = &spec.streams(ROWS)[0].1;
        let fed = spec.fed(eps, xs);
        let want = fed.clone().quantiles(&phis);
        let mut absorbed = fed.clone();
        absorbed.merge_from((spec.make)(eps, SEED));
        let mut absorbing = (spec.make)(eps, SEED);
        absorbing.merge_from(fed);
        for (way, mut s) in [("absorbing", absorbed), ("absorbed by", absorbing)] {
            assert_eq!(s.n(), xs.len() as u64, "{at}: {way} an empty summary");
            assert_eq!(s.quantiles(&phis), want, "{at}: {way} an empty summary");
        }
    }
}

/// Check 5: no way in for a summary of another configuration.
pub fn mismatches_refused<S: MergeableSummary<u64> + Clone>(spec: &Spec<S>) {
    let xs = &spec.streams(ROWS)[0].1;
    for &eps in spec.eps {
        let at = spec.label(eps);
        let base = spec.fed(eps, xs);
        let engine = ShardedEngine::new_with(2, 0, |_| (spec.make)(eps, SEED));
        engine.ingest_batch(xs);
        let mismatches = (spec.mismatches)(eps, SEED);
        assert!(!mismatches.is_empty(), "{at}: no mismatch to refuse");
        for (field, other) in mismatches {
            assert!(
                !base.merge_compatible(&other) && !other.merge_compatible(&base),
                "{at}: another {field} is merge-compatible"
            );
            assert!(
                engine.try_absorb(other.clone()).is_err(),
                "{at}: try_absorb took another {field}"
            );
            let mut into = base.clone();
            let merged = catch_unwind(AssertUnwindSafe(|| into.merge_from(other)));
            assert!(merged.is_err(), "{at}: merge_from took another {field}");
        }
        assert_eq!(engine.n(), xs.len() as u64, "{at}: a refusal moved n");
        assert!(base.merge_compatible(&(spec.make)(eps, SEED)));
        assert!(
            engine.try_absorb(base).is_ok(),
            "{at}: its own kind refused"
        );
        assert_eq!(engine.n(), 2 * xs.len() as u64, "{at}");
    }
}

/// Check 6: the audit holds mid-stream, through both write paths, and
/// after queries.
pub fn audits_hold<S: QuantileSummary<u64> + CheckInvariants>(spec: &Spec<S>) {
    for &eps in spec.eps {
        for (stream, xs) in spec.streams(AUDIT_ROWS) {
            let at = format!("{} / {stream}", spec.label(eps));
            let mut s = (spec.make)(eps, SEED);
            for (i, segment) in xs.chunks(CHECK_EVERY).enumerate() {
                if i % 2 == 0 {
                    segment.iter().for_each(|&x| s.insert(x));
                } else {
                    segment.chunks(67).for_each(|batch| s.insert_batch(batch));
                }
                if let Err(v) = s.check_invariants() {
                    panic!("{at} after {} rows: {v}", s.n());
                }
            }
            let _ = s.quantile(0.5);
            let _ = s.rank_estimate(xs[0]);
            if let Err(v) = s.check_invariants() {
                panic!("{at} after queries: {v}");
            }
        }
    }
}

/// φ in no order, repeated, and within 10⁻⁹ of either end.
fn awkward_phis(rng: &mut Xoshiro256pp) -> Vec<f64> {
    let mut phis = vec![0.5, 1e-9, 1.0 - 1e-9, 0.5, 0.999, 1e-3, 0.25, 0.75, 0.5];
    phis.extend((0..40).map(|_| (1 + rng.next_below(9_999)) as f64 / 10_000.0));
    phis.extend(probe_phis(0.05).into_iter().rev());
    phis
}

/// Check 7: `quantiles` answers as the per-φ loop and `quantile_grid`
/// as `quantiles(probe_phis)`, empty and after each of a growing series
/// of feeds: a few rows, ties from a small universe, a long uniform
/// tail. Each side answers on its own clone, so a flush or index build
/// that one path triggers cannot serve the other.
pub fn sweeps_match<S: QuantileSummary<u64> + Clone>(spec: &Spec<S>) {
    let eps = spec.eps[0];
    let mut s = (spec.make)(eps, SEED);
    let mut rng = Xoshiro256pp::new(7);
    let phis = awkward_phis(&mut rng);
    let check = |s: &S, at: &str| {
        let batched = s.clone().quantiles(&phis);
        let mut single = s.clone();
        let looped: Vec<Option<u64>> = phis.iter().map(|&phi| single.quantile(phi)).collect();
        assert_eq!(batched, looped, "{at}: quantiles ≠ the per-φ loop");
        for eps in [0.1, 0.01, 0.001] {
            let grid = probe_phis(eps);
            let answers = s.clone().quantiles(&grid);
            let want: Vec<(f64, u64)> = grid
                .into_iter()
                .zip(answers)
                .filter_map(|(phi, q)| q.map(|q| (phi, q)))
                .collect();
            let got = s.clone().quantile_grid(eps);
            assert_eq!(got, want, "{at}: quantile_grid({eps}) ≠ quantiles");
        }
    };
    let at = spec.label(eps);
    check(&s, &format!("{at}, empty"));
    assert!(s.clone().quantiles(&phis).iter().all(Option::is_none));
    let feeds: [(usize, u64); 4] = [(1, 1 << 32), (40, 1 << 32), (5_000, 17), (120_000, 1 << 32)];
    for (rows, universe) in feeds {
        let xs: Vec<u64> = (0..rows)
            .map(|_| (spec.value)(rng.next_below(universe)))
            .collect();
        let (scalar, batched) = xs.split_at(rows / 2);
        scalar.iter().for_each(|&x| s.insert(x));
        s.insert_batch(batched);
        check(&s, &format!("{at}, at n = {}", s.n()));
    }
}
