//! [`TurnstileSummary`] — the adapter that lets the dyadic turnstile
//! structures ride the cash-register infrastructure: the
//! [`QuantileSummary`]/[`MergeableSummary`] traits (so `sqs-engine`'s
//! sharded ingestion and merge-on-query snapshots apply unchanged) and
//! the [`WireCodec`] frame (so `sqs-service` can ship a DCS over the
//! wire).
//!
//! Sharding a *linear* sketch is exact, not approximate: when every
//! shard is built from the same seed, the per-level hash draws agree
//! and [`MergeableSummary::merge_from`] adds counters — the merged
//! structure is state-identical to one fed the concatenated stream.
//! That is a strictly stronger guarantee than the ε-mergeability the
//! engine needs.

use crate::dyadic::{DyadicQuantiles, Level};
use crate::{new_dcm, new_dcs, TurnstileQuantiles};
use sqs_core::codec::{put_u64_slice, CodecError, Reader, WireCodec, KIND_DCS};
use sqs_core::{MergeableSummary, QuantileSummary};
use sqs_sketch::{CountMin, CountSketch, ExactCounts, FrequencySketch, MergeableSketch};
use sqs_util::audit::{CheckInvariants, InvariantViolation};
use sqs_util::hash::FourwiseHash;
use sqs_util::SpaceUsage;

/// A dyadic turnstile structure wearing the cash-register
/// [`QuantileSummary`] interface (insert-only callers never exercise
/// deletions, so the turnstile structure is simply more general).
#[derive(Debug, Clone, PartialEq)]
pub struct TurnstileSummary<S> {
    dq: DyadicQuantiles<S>,
}

impl<S> TurnstileSummary<S> {
    /// Wraps an existing dyadic structure.
    pub fn from_inner(dq: DyadicQuantiles<S>) -> Self {
        Self { dq }
    }

    /// The wrapped dyadic structure.
    pub fn inner(&self) -> &DyadicQuantiles<S> {
        &self.dq
    }

    /// Unwraps into the dyadic structure.
    pub fn into_inner(self) -> DyadicQuantiles<S> {
        self.dq
    }
}

impl TurnstileSummary<CountSketch> {
    /// A DCS summary tuned as [`new_dcs`] (`w = √(2·log₂u)/ε`,
    /// `d = 7`) over the universe `[0, 2^log_u)`.
    pub fn dcs(eps: f64, log_u: u32, seed: u64) -> Self {
        Self::from_inner(new_dcs(eps, log_u, seed))
    }
}

impl TurnstileSummary<CountMin> {
    /// A DCM summary with the paper's tuning (`w = log₂u/ε`, `d = 7`)
    /// over the universe `[0, 2^log_u)`.
    pub fn dcm(eps: f64, log_u: u32, seed: u64) -> Self {
        Self::from_inner(new_dcm(eps, log_u, seed))
    }
}

impl<S: FrequencySketch> QuantileSummary<u64> for TurnstileSummary<S> {
    fn insert(&mut self, x: u64) {
        TurnstileQuantiles::insert(&mut self.dq, x);
    }

    fn insert_batch(&mut self, xs: &[u64]) {
        TurnstileQuantiles::insert_batch(&mut self.dq, xs);
    }

    fn n(&self) -> u64 {
        self.dq.live()
    }

    fn rank_estimate(&mut self, x: u64) -> u64 {
        TurnstileQuantiles::rank_estimate(&self.dq, x)
    }

    fn quantile(&mut self, phi: f64) -> Option<u64> {
        TurnstileQuantiles::quantile(&self.dq, phi)
    }

    // The dyadic lockstep sweep: one shared bisection tree for the
    // whole φ-vector, bit-identical to the per-φ loop.
    fn quantiles(&mut self, phis: &[f64]) -> Vec<Option<u64>> {
        TurnstileQuantiles::quantiles(&self.dq, phis)
    }

    fn name(&self) -> &'static str {
        TurnstileQuantiles::name(&self.dq)
    }
}

impl<S: MergeableSketch> MergeableSummary<u64> for TurnstileSummary<S> {
    fn merge_from(&mut self, other: Self) {
        self.dq.merge_from(&other.dq);
    }

    fn merge_compatible(&self, other: &Self) -> bool {
        self.dq.merge_compatible(&other.dq)
    }
}

impl<S: SpaceUsage> SpaceUsage for TurnstileSummary<S>
where
    DyadicQuantiles<S>: SpaceUsage,
{
    fn space_bytes(&self) -> usize {
        self.dq.space_bytes()
    }
}

impl<S> CheckInvariants for TurnstileSummary<S>
where
    DyadicQuantiles<S>: CheckInvariants,
{
    fn check_invariants(&self) -> Result<(), InvariantViolation> {
        self.dq.check_invariants()
    }
}

// ---- Wire form of the DCS summary (body layout in docs/SERVICE.md) --
//
//   u32  log_u
//   u64  live (i64 bits)
//   then log_u levels, bottom first, each:
//     u8 tag — 0 = exact, 1 = sketch, 2 = truncated, 3 = derived
//     exact:     u64-vec of counts (i64 bits)
//     sketch:    u64 width, u64 depth,
//                depth × 4×u64 polynomial coeffs (c0..c3),
//                u64-vec of logical d×w counters (i64 bits)
//     truncated, derived: nothing — the tag is the whole level. The
//                level cutoff thus travels implicitly as the leading
//                run of truncated tags, and decode refuses any layout
//                `DyadicQuantiles::new` would not have laid out.

const TAG_EXACT: u8 = 0;
const TAG_SKETCH: u8 = 1;
const TAG_TRUNCATED: u8 = 2;
const TAG_DERIVED: u8 = 3;

/// Appends one level's wire form.
fn put_level(out: &mut Vec<u8>, level: &Level<CountSketch>) {
    match level {
        Level::Exact(e) => {
            out.push(TAG_EXACT);
            let bits: Vec<u64> = e.counts().iter().map(|&c| c as u64).collect();
            put_u64_slice(out, &bits);
        }
        Level::Sketch(s) => {
            out.push(TAG_SKETCH);
            out.extend_from_slice(&(s.width() as u64).to_le_bytes());
            out.extend_from_slice(&(s.depth() as u64).to_le_bytes());
            for h in s.rows() {
                for c in h.coeffs() {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
            let bits: Vec<u64> = s.logical_counters().iter().map(|&c| c as u64).collect();
            put_u64_slice(out, &bits);
        }
        Level::Truncated => out.push(TAG_TRUNCATED),
        Level::Derived => out.push(TAG_DERIVED),
    }
}

impl WireCodec for TurnstileSummary<CountSketch> {
    const WIRE_KIND: u8 = KIND_DCS;

    fn encode_body(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.dq.universe().log_u().to_le_bytes());
        out.extend_from_slice(&(self.dq.live_signed() as u64).to_le_bytes());
        for level in self.dq.levels() {
            put_level(out, level);
        }
    }

    fn decode_body(body: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(body);
        let log_u = r.u32()?;
        if !(1..=63).contains(&log_u) {
            return Err(CodecError::Malformed("log_u outside 1..=63"));
        }
        let live = r.u64()? as i64;
        let mut levels = Vec::new();
        for level in 0..log_u {
            let cells = (1u64 << log_u) >> level;
            match r.u8()? {
                TAG_EXACT => {
                    let counts: Vec<i64> = r.u64_vec()?.into_iter().map(|v| v as i64).collect();
                    let e = ExactCounts::from_counts(counts).map_err(CodecError::Malformed)?;
                    levels.push(Level::Exact(e));
                }
                TAG_SKETCH => {
                    let width = usize::try_from(r.u64()?)
                        .map_err(|_| CodecError::Malformed("sketch width exceeds address space"))?;
                    let depth = usize::try_from(r.u64()?)
                        .map_err(|_| CodecError::Malformed("sketch depth exceeds address space"))?;
                    let mut rows = Vec::new();
                    for _ in 0..depth {
                        let mut coeffs = [0u64; 4];
                        for c in &mut coeffs {
                            *c = r.u64()?;
                        }
                        rows.push(
                            FourwiseHash::from_coeffs(coeffs).map_err(CodecError::Malformed)?,
                        );
                    }
                    let counters: Vec<i64> = r.u64_vec()?.into_iter().map(|v| v as i64).collect();
                    let s = CountSketch::from_parts(cells, width, rows, &counters)
                        .map_err(CodecError::Malformed)?;
                    levels.push(Level::Sketch(s));
                }
                TAG_TRUNCATED => levels.push(Level::Truncated),
                TAG_DERIVED => levels.push(Level::Derived),
                _ => return Err(CodecError::Malformed("unknown level tag")),
            }
        }
        r.done()?;
        let dq =
            DyadicQuantiles::from_raw(log_u, levels, live, "DCS").map_err(CodecError::Malformed)?;
        Ok(Self::from_inner(dq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_util::rng::Xoshiro256pp;

    fn fed_dcs(n: u64, seed: u64) -> TurnstileSummary<CountSketch> {
        let mut s = TurnstileSummary::dcs(0.05, 20, seed);
        let mut rng = Xoshiro256pp::new(seed ^ 0xABCD);
        let xs: Vec<u64> = (0..n).map(|_| rng.next_below(1 << 20)).collect();
        s.insert_batch(&xs);
        s
    }

    #[test]
    fn summary_interface_answers_queries() {
        let mut s = fed_dcs(20_000, 1);
        assert_eq!(s.n(), 20_000);
        let q = s.quantile(0.5).expect("nonempty");
        let rel = q as f64 / (1u64 << 20) as f64;
        assert!((rel - 0.5).abs() < 0.05, "median at {rel}");
        assert_eq!(s.name(), "DCS");
    }

    #[test]
    fn same_seed_shards_merge_to_identical_state() {
        let whole = TurnstileSummary::dcs(0.05, 16, 9);
        let mut left = whole.clone();
        let mut right = whole.clone();
        let mut whole = whole;
        let mut rng = Xoshiro256pp::new(10);
        for i in 0..5_000u64 {
            let x = rng.next_below(1 << 16);
            QuantileSummary::insert(&mut whole, x);
            if i % 2 == 0 {
                QuantileSummary::insert(&mut left, x);
            } else {
                QuantileSummary::insert(&mut right, x);
            }
        }
        assert!(left.merge_compatible(&right));
        MergeableSummary::merge_from(&mut left, right);
        assert_eq!(left, whole);
    }

    #[test]
    fn different_seeds_are_merge_incompatible() {
        let a = TurnstileSummary::dcs(0.05, 16, 1);
        let b = TurnstileSummary::dcs(0.05, 16, 2);
        assert!(!a.merge_compatible(&b));
    }

    #[test]
    fn wire_roundtrip_preserves_answers_and_state() {
        let mut s = fed_dcs(10_000, 3);
        let frame = s.to_bytes();
        let mut d = TurnstileSummary::<CountSketch>::from_bytes(&frame)
            .expect("roundtrip of a live summary");
        assert_eq!(d.n(), s.n());
        for phi in [0.1, 0.25, 0.5, 0.75, 0.9] {
            assert_eq!(d.quantile(phi), s.quantile(phi), "phi={phi}");
        }
        // A decoded summary keeps merging exactly with the original's
        // lineage: the hash draws survived the wire.
        assert!(d.merge_compatible(&s));
    }

    #[test]
    fn corrupt_frames_are_rejected_not_panics() {
        let mut s = fed_dcs(2_000, 4);
        let frame = s.to_bytes();
        // Flip one byte everywhere; every mutation must error cleanly.
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            let _ = TurnstileSummary::<CountSketch>::from_bytes(&bad);
        }
        // Truncations too.
        for cut in [0, 1, 7, 16, frame.len() - 1] {
            assert!(TurnstileSummary::<CountSketch>::from_bytes(&frame[..cut]).is_err());
        }
    }

    /// Decode rebuilds only what `DyadicQuantiles::new` lays out: a
    /// sketch in a derived slot, a derived level in a stored slot and
    /// one directly above the truncated run are refused.
    #[test]
    fn decode_refuses_a_foreign_layout() {
        let s = fed_dcs(2_000, 6);
        let dq = s.inner();
        let c = dq.level_cutoff() as usize;
        let Level::Sketch(stored) = &dq.levels()[c] else {
            panic!("level {c} is stored");
        };
        let decode = |at: usize, level: Level<CountSketch>| {
            let mut out = Vec::new();
            out.extend_from_slice(&20u32.to_le_bytes());
            out.extend_from_slice(&(dq.live_signed() as u64).to_le_bytes());
            for (i, l) in dq.levels().iter().enumerate() {
                put_level(&mut out, if i == at { &level } else { l });
            }
            TurnstileSummary::<CountSketch>::decode_body(&out).map(|_| ())
        };
        let refused = |msg| Err(CodecError::Malformed(msg));
        assert_eq!(decode(c, dq.levels()[c].clone()), Ok(()));
        let mut rng = Xoshiro256pp::new(1);
        let scoped = CountSketch::for_universe(1 << (19 - c), stored.width(), 7, &mut rng);
        assert_eq!(
            decode(c + 1, Level::Sketch(scoped)),
            refused("Dyadic: sketch level in a derived slot")
        );
        assert_eq!(
            decode(c + 2, Level::Derived),
            refused("Dyadic: derived level in a stored slot")
        );
        assert_eq!(
            decode(c, Level::Derived),
            refused("Dyadic: derived level directly above the truncated run")
        );
    }

    #[test]
    fn negative_live_count_is_rejected_by_audit() {
        let mut s = fed_dcs(100, 5);
        let mut frame = s.to_bytes();
        // live sits at body offset 4 → frame offset 20; forge -1 and
        // re-checksum so only the audit can catch it.
        let live_at = 20;
        frame[live_at..live_at + 8].copy_from_slice(&(-1i64 as u64).to_le_bytes());
        frame.truncate(frame.len() - 8);
        sqs_core::codec::seal(&mut frame);
        let err = TurnstileSummary::<CountSketch>::from_bytes(&frame).unwrap_err();
        assert!(matches!(err, CodecError::Invariant(_)), "{err}");
    }
}
