//! `DCS` — Dyadic Count-Sketch, the paper's new turnstile variant
//! (§3.1).
//!
//! Identical scaffold to DCM, but the per-level estimator is the
//! *unbiased* Count-Sketch: summing `log u` unbiased level estimates
//! lets positive and negative errors cancel, growing the total error
//! only ∝ `√(log u)` instead of `log u` — the
//! `O((1/ε)·log^1.5 u·log^1.5(log u/ε))` bound of §3.1, the best known
//! for the problem. The paper's tuning (§4.3.1) sets the per-level
//! width to `w = √(log₂u)/ε` and depth `d = 7`, which is about 1/10th
//! of DCM's space at equal error (Figure 10c). This reproduction keeps
//! a sketch at every other sketched level only (the 4-adic layout of
//! [`crate::dyadic`]), so a derived cell sums two sketched ones; the
//! width becomes `w = √(2·log₂u)/ε` to cover the worst case, a derived
//! term with twice one cell's variance (DESIGN.md §3).

#![expect(
    clippy::cast_possible_truncation,
    reason = "sketch shapes computed from eps and log u are small positive numbers, so the float-to-integer casts cannot truncate"
)]

use crate::dyadic::{DyadicQuantiles, Level};
use sqs_core::codec::{put_u64_slice, CodecError, Kind, Reader, WireCodec};
use sqs_sketch::{CountSketch, ExactCounts};
use sqs_util::hash::FourwiseHash;
use sqs_util::rng::{SplitMix64, Xoshiro256pp};

/// The Dyadic Count-Sketch turnstile quantile summary.
pub type Dcs = DyadicQuantiles<CountSketch>;

impl Dcs {
    /// Builds a DCS for error target ε over the universe
    /// `[0, 2^log_u)`: `w = √(2·log₂u)/ε` (the paper's `√(log₂u)/ε`,
    /// widened for derived levels), `d = 7`.
    pub fn dcs(eps: f64, log_u: u32, seed: u64) -> Self {
        new_dcs_with(eps, log_u, 7, seed)
    }
}

/// [`Dcs::dcs`] with an explicit depth `d` (Table 3/4 tuning). The ε
/// target also sets the default dyadic level cutoff
/// ([`crate::default_level_cutoff`]): levels far below the ε
/// resolution keep no counters, shortening every update and query walk
/// while staying inside the error budget.
pub fn new_dcs_with(eps: f64, log_u: u32, depth: usize, seed: u64) -> Dcs {
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
    let width = ((2.0 * log_u as f64).sqrt() / eps).ceil().max(8.0) as usize;
    build(
        width,
        depth,
        log_u,
        crate::default_level_cutoff(eps, log_u),
        seed,
    )
}

/// Builds a DCS with an explicit per-level `width × depth` geometry
/// and no level cutoff (total-sketch-size sweeps, Tables 3–4).
pub fn from_width_depth(width: usize, depth: usize, log_u: u32, seed: u64) -> Dcs {
    build(width, depth, log_u, 0, seed)
}

fn build(width: usize, depth: usize, log_u: u32, cutoff: u32, seed: u64) -> Dcs {
    let mut seeds = SplitMix64::new(seed);
    DyadicQuantiles::new(
        log_u,
        cutoff,
        (width * depth) as u64,
        move |cells, _| {
            let mut rng = Xoshiro256pp::new(seeds.next_u64());
            CountSketch::for_universe(cells, width, depth, &mut rng)
        },
        "DCS",
    )
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

impl WireCodec for Dcs {
    const KIND: Kind = Kind::Dcs;

    fn encode_body(&mut self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.universe().log_u().to_le_bytes());
        out.extend_from_slice(&(self.live_signed() as u64).to_le_bytes());
        for level in self.levels() {
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
        DyadicQuantiles::from_raw(log_u, levels, live, "DCS").map_err(CodecError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TurnstileQuantiles;
    use sqs_core::{MergeableSummary, QuantileSummary};
    use sqs_util::exact::{observed_errors, probe_phis, ExactQuantiles};
    use sqs_util::rng::Xoshiro256pp;
    use sqs_util::SpaceUsage;

    fn max_avg_err(eps: f64, log_u: u32, data: &[u64], seed: u64) -> (f64, f64) {
        let mut dcs = Dcs::dcs(eps, log_u, seed);
        for &x in data {
            dcs.insert(x);
        }
        let oracle = ExactQuantiles::new(data.to_vec());
        let answers: Vec<(f64, u64)> = probe_phis(eps)
            .into_iter()
            .map(|p| (p, dcs.quantile(p).unwrap()))
            .collect();
        observed_errors(&oracle, &answers)
    }

    #[test]
    fn errors_within_eps_uniform() {
        let mut rng = Xoshiro256pp::new(10);
        let data: Vec<u64> = (0..50_000).map(|_| rng.next_below(1 << 20)).collect();
        let (max_err, _) = max_avg_err(0.02, 20, &data, 1);
        assert!(max_err <= 0.02, "max {max_err}");
    }

    #[test]
    fn errors_within_eps_skewed() {
        let mut rng = Xoshiro256pp::new(11);
        // Normal-ish pile in a narrow band.
        let data: Vec<u64> = (0..50_000)
            .map(|_| 500_000 + rng.next_below(2_000) + rng.next_below(2_000))
            .collect();
        let (max_err, _) = max_avg_err(0.02, 20, &data, 2);
        assert!(max_err <= 0.02, "max {max_err}");
    }

    #[test]
    fn uses_less_space_than_dcm_at_equal_eps() {
        let eps = 0.01;
        let dcs = Dcs::dcs(eps, 32, 1);
        let dcm = crate::Dcm::dcm(eps, 32, 1);
        let ratio = dcm.space_bytes() as f64 / dcs.space_bytes() as f64;
        // Paper: DCS needs about 1/10 of DCM's space at equal error; at
        // equal ε parameter the width ratio is log u/√log u = √log u.
        assert!(ratio > 3.0, "ratio = {ratio}");
    }

    #[test]
    fn delete_everything_returns_none() {
        let mut dcs = Dcs::dcs(0.05, 16, 3);
        for x in 0..1000u64 {
            dcs.insert(x);
        }
        for x in 0..1000u64 {
            dcs.delete(x);
        }
        assert_eq!(dcs.n(), 0);
        assert_eq!(dcs.quantile(0.5), None);
    }

    #[test]
    fn insert_then_delete_prefix_adversary() {
        // The adversarial pattern of §1.2.2: insert n, delete all but
        // one; the survivor must be found.
        let mut dcs = Dcs::dcs(0.05, 16, 4);
        for x in 0..5_000u64 {
            dcs.insert(x);
        }
        for x in 0..5_000u64 {
            if x != 3_333 {
                dcs.delete(x);
            }
        }
        assert_eq!(dcs.n(), 1);
        let q = dcs.quantile(0.5).unwrap();
        // One survivor in a 2^16 universe: the estimate must land on
        // (or immediately next to) it.
        assert!((3_330..=3_336).contains(&q), "q = {q}");
    }

    fn fed_dcs(n: u64, seed: u64) -> Dcs {
        let mut s = Dcs::dcs(0.05, 20, seed);
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
        let mut whole = Dcs::dcs(0.05, 16, 9);
        let mut left = whole.clone();
        let mut right = whole.clone();
        let mut rng = Xoshiro256pp::new(10);
        for i in 0..5_000u64 {
            let x = rng.next_below(1 << 16);
            whole.insert(x);
            if i % 2 == 0 {
                left.insert(x);
            } else {
                right.insert(x);
            }
        }
        assert!(left.merge_compatible(&right));
        left.merge_from(right);
        assert_eq!(left, whole);
    }

    /// Decode rebuilds only what `DyadicQuantiles::new` lays out: a
    /// sketch in a derived slot, a derived level in a stored slot and
    /// one directly above the truncated run are refused.
    #[test]
    fn decode_refuses_a_foreign_layout() {
        let dq = fed_dcs(2_000, 6);
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
            Dcs::decode_body(&out).map(|_| ())
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
        let err = Dcs::from_bytes(&frame).unwrap_err();
        assert!(matches!(err, CodecError::Invariant(_)), "{err}");
    }
}
