//! The Count-Min sketch (Cormode & Muthukrishnan, 2005) — the
//! frequency estimator behind the paper's `DCM` baseline (§1.2.2).

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "cell indices are reduced into [0, width) before use, and `check_invariants` audits the counter layout they index"
)]

use crate::{batch_scratch::CHUNK, FrequencySketch, MergeableSketch};
use sqs_util::hash::PairwiseHash;
use sqs_util::rng::Xoshiro256pp;
use sqs_util::space::{words, SpaceUsage};

/// A `w × d` Count-Min sketch: row `i` adds every update to counter
/// `h_i(x)`; the estimate is the **minimum** over rows, which never
/// underestimates (for insert-only mass) and overshoots by at most
/// `2n/w` with probability `1 − 2^{−d}` per query.
///
/// Counters are stored row-contiguous with each row's width rounded up
/// to a whole cache line (`stride`), so the batched update path can
/// sweep one row across an entire batch without rows sharing lines.
/// The padding slots always hold zero and are *layout*, not space: the
/// paper's 4-byte-word accounting reports `w·d` counters (see
/// `docs/PERF.md`).
#[derive(Debug, Clone)]
pub struct CountMin {
    width: usize,
    stride: usize,      // width rounded up to a cache line of i64s
    counters: Vec<i64>, // d rows × stride, row-contiguous
    hashes: Vec<PairwiseHash>,
    universe: u64,
    #[cfg(any(test, feature = "audit"))]
    updates: u64,
}

// Equality is summary state only — the audit-only `updates` diagnostic
// is excluded, since it legitimately differs between paths that reach
// the same state (wire decode starts it at zero, shard merges sum it).
impl PartialEq for CountMin {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width
            && self.stride == other.stride
            && self.counters == other.counters
            && self.hashes == other.hashes
            && self.universe == other.universe
    }
}

impl Eq for CountMin {}

impl CountMin {
    /// Creates a sketch with `width` counters per row and `depth` rows.
    ///
    /// # Panics
    /// Panics if `width == 0` or `depth == 0`.
    pub fn new(width: usize, depth: usize, rng: &mut Xoshiro256pp) -> Self {
        assert!(
            width > 0 && depth > 0,
            "CountMin: width and depth must be positive"
        );
        let stride = crate::row_stride(width);
        Self {
            width,
            stride,
            counters: vec![0; stride * depth],
            hashes: (0..depth)
                .map(|_| PairwiseHash::new(rng, width as u64))
                .collect(),
            universe: u64::MAX,
            #[cfg(any(test, feature = "audit"))]
            updates: 0,
        }
    }

    /// Creates a sketch scoped to a (reduced) universe size, for
    /// bookkeeping in the dyadic structure.
    pub fn for_universe(universe: u64, width: usize, depth: usize, rng: &mut Xoshiro256pp) -> Self {
        let mut s = Self::new(width, depth, rng);
        s.universe = universe;
        s
    }

    /// Counters per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.hashes.len()
    }
}

impl sqs_util::audit::CheckInvariants for CountMin {
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "CountMin";
        ensure(
            self.width > 0 && !self.hashes.is_empty(),
            ALG,
            "countmin.shape_positive",
            || format!("width = {}, depth = {}", self.width, self.hashes.len()),
        )?;
        ensure(
            self.stride == crate::row_stride(self.width)
                && self.counters.len() == self.stride * self.hashes.len(),
            ALG,
            "countmin.counter_layout",
            || {
                format!(
                    "{} counters, stride {} for {}×{} layout",
                    self.counters.len(),
                    self.stride,
                    self.width,
                    self.hashes.len()
                )
            },
        )?;
        ensure(self.universe > 0, ALG, "countmin.universe_positive", || {
            "universe is zero".to_string()
        })?;
        // Cache-line padding slots are never addressed by any hash.
        for (i, row) in self.counters.chunks_exact(self.stride).enumerate() {
            ensure(
                row[self.width..].iter().all(|&c| c == 0),
                ALG,
                "countmin.padding_zero",
                || format!("row {i} has nonzero cache-line padding"),
            )?;
        }
        // Every update adds its delta to exactly one counter per row,
        // so all row sums equal the total update mass.
        let first: i64 = self.counters[..self.width].iter().sum();
        for i in 1..self.hashes.len() {
            let row: i64 = self.counters[i * self.stride..i * self.stride + self.width]
                .iter()
                .sum();
            ensure(row == first, ALG, "countmin.row_mass_equal", || {
                format!("row {i} sums to {row}, row 0 sums to {first}")
            })?;
        }
        Ok(())
    }
}

impl FrequencySketch for CountMin {
    fn update(&mut self, x: u64, delta: i64) {
        for (i, h) in self.hashes.iter().enumerate() {
            let j = h.hash(x) as usize;
            self.counters[i * self.stride + j] += delta;
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += 1;
            if sqs_util::audit::audit_point(self.updates) {
                sqs_util::audit::CheckInvariants::assert_invariants(self);
            }
        }
    }

    // Row-major batch walk: each chunk folds its keys into the field
    // once — shared by all d rows — and the row loop then walks the
    // chunk row-major, hash coefficients in registers, every store
    // landing in one `stride`-wide window instead of striding the
    // full `d × stride` table per item. `CHUNK` matches the ingest
    // batch, so a batch is normally a single chunk and each row is
    // touched in exactly one pass. State-identical to the scalar loop
    // (counter addition commutes within a row).
    fn update_batch(&mut self, batch: &[(u64, i64)]) {
        let mut keys = [0u64; CHUNK];
        for chunk in batch.chunks(CHUNK) {
            let m = chunk.len();
            for (k, &(x, _)) in keys.iter_mut().zip(chunk) {
                *k = sqs_util::hash::fold_to_field(x);
            }
            for (i, h) in self.hashes.iter().enumerate() {
                let row = &mut self.counters[i * self.stride..i * self.stride + self.width];
                h.buckets_folded_for_each(&keys[..m], |k, j| {
                    row[j as usize] += chunk[k].1;
                });
            }
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += batch.len() as u64;
            if sqs_util::audit::audit_point(self.updates) {
                sqs_util::audit::CheckInvariants::assert_invariants(self);
            }
        }
    }

    fn estimate(&self, x: u64) -> i64 {
        self.hashes
            .iter()
            .enumerate()
            .map(|(i, h)| self.counters[i * self.stride + h.hash(x) as usize])
            .min()
            .expect("CountMin invariant: depth > 0")
    }

    // Read-side dual of `update_batch`: small query sets (point reads,
    // the per-level cells of one dyadic rank) gather one key across
    // all d rows with the hash coefficients walked once; larger sweeps
    // fold the chunk's keys once and take the min row-major, each
    // row's counters read in one L1-resident pass. Min over rows
    // commutes, so both orders are bit-identical to the scalar
    // estimate.
    fn estimate_batch(&self, xs: &[u64], out: &mut [i64]) {
        assert_eq!(xs.len(), out.len(), "estimate_batch: slice length mismatch");
        let d = self.hashes.len();
        if xs.len() <= 16 && d <= 64 {
            let mut jb = [0u64; 64];
            for (&x, o) in xs.iter().zip(out) {
                sqs_util::hash::buckets_folded_gather(
                    &self.hashes,
                    sqs_util::hash::fold_to_field(x),
                    &mut jb[..d],
                );
                *o = jb[..d]
                    .iter()
                    .enumerate()
                    .map(|(i, &j)| self.counters[i * self.stride + j as usize])
                    .min()
                    .expect("CountMin invariant: depth > 0");
            }
            return;
        }
        let mut keys = [0u64; CHUNK];
        let mut jbuf = [0u64; CHUNK];
        for (chunk, out_c) in xs.chunks(CHUNK).zip(out.chunks_mut(CHUNK)) {
            let m = chunk.len();
            for (k, &x) in keys.iter_mut().zip(chunk) {
                *k = sqs_util::hash::fold_to_field(x);
            }
            out_c.fill(i64::MAX);
            for (i, h) in self.hashes.iter().enumerate() {
                let row = &self.counters[i * self.stride..i * self.stride + self.width];
                h.hash_folded_batch(&keys[..m], &mut jbuf[..m]);
                for (o, &j) in out_c.iter_mut().zip(&jbuf[..m]) {
                    *o = (*o).min(row[j as usize]);
                }
            }
        }
    }

    fn universe(&self) -> u64 {
        self.universe
    }

    // Each live copy adds 1 to exactly one counter per row.
    fn check_live_mass(&self, live: u64) -> Result<(), String> {
        for (i, row) in self.counters.chunks_exact(self.stride).enumerate() {
            if let Some(j) = row.iter().position(|&c| c < 0) {
                return Err(format!("Count-Min row {i} counter {j} is {}", row[j]));
            }
            let mass: u128 = row.iter().map(|c| u128::from(c.unsigned_abs())).sum();
            if mass != u128::from(live) {
                return Err(format!(
                    "Count-Min row {i} sums to {mass}, live count is {live}"
                ));
            }
        }
        Ok(())
    }
}

impl MergeableSketch for CountMin {
    fn merge_compatible(&self, other: &Self) -> bool {
        self.width == other.width && self.universe == other.universe && self.hashes == other.hashes
    }

    fn merge_from(&mut self, other: &Self) {
        assert!(
            self.merge_compatible(other),
            "CountMin invariant: merge requires identical hashes and shape"
        );
        for (c, o) in self.counters.iter_mut().zip(&other.counters) {
            *c += o;
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += other.updates;
        }
    }
}

impl SpaceUsage for CountMin {
    fn space_bytes(&self) -> usize {
        // w·d counters + 2 hash coefficients per row. Logical size:
        // cache-line padding is a layout artifact, not sketch state.
        words(self.width * self.hashes.len() + 2 * self.hashes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_underestimates_insert_only() {
        let mut rng = Xoshiro256pp::new(10);
        let mut cm = CountMin::new(64, 4, &mut rng);
        let mut stream_rng = Xoshiro256pp::new(11);
        let mut truth = vec![0i64; 1000];
        for _ in 0..20_000 {
            let x = stream_rng.next_below(1000);
            cm.update(x, 1);
            truth[x as usize] += 1;
        }
        for x in 0..1000u64 {
            assert!(cm.estimate(x) >= truth[x as usize], "x={x}");
        }
    }

    #[test]
    fn error_bounded_by_2n_over_w() {
        let mut rng = Xoshiro256pp::new(12);
        let w = 512;
        let mut cm = CountMin::new(w, 5, &mut rng);
        let n = 100_000u64;
        let mut stream_rng = Xoshiro256pp::new(13);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..n {
            let x = stream_rng.next_below(1 << 20);
            cm.update(x, 1);
            *truth.entry(x).or_insert(0i64) += 1;
        }
        let bound = (2 * n as usize / w) as i64 + 1;
        let mut violations = 0;
        for (&x, &t) in truth.iter().take(2000) {
            if cm.estimate(x) - t > bound {
                violations += 1;
            }
        }
        // Per-query failure probability ~2^-5; allow a small tail.
        assert!(violations < 2000 / 10, "violations = {violations}");
    }

    #[test]
    fn deletions_cancel_exactly() {
        let mut rng = Xoshiro256pp::new(14);
        let mut cm = CountMin::new(32, 3, &mut rng);
        for x in 0..100u64 {
            cm.update(x, 5);
        }
        for x in 0..100u64 {
            cm.update(x, -5);
        }
        // All counters are back to zero, so every estimate is 0.
        for x in 0..100u64 {
            assert_eq!(cm.estimate(x), 0);
        }
    }

    #[test]
    fn space_accounting() {
        let mut rng = Xoshiro256pp::new(15);
        let cm = CountMin::new(100, 7, &mut rng);
        assert_eq!(cm.space_bytes(), (700 + 14) * 4);
    }

    #[test]
    #[should_panic(expected = "width and depth must be positive")]
    fn rejects_zero_width() {
        CountMin::new(0, 3, &mut Xoshiro256pp::new(1));
    }

    #[test]
    fn batch_is_state_identical_to_scalar() {
        // Unpadded width (100 → stride 104) exercises the padding lanes.
        let mut rng = Xoshiro256pp::new(16);
        let mut scalar = CountMin::new(100, 7, &mut rng);
        let mut batched = scalar.clone();
        let mut stream_rng = Xoshiro256pp::new(17);
        let batch: Vec<(u64, i64)> = (0..1000)
            .map(|i| {
                let x = stream_rng.next_below(1 << 30);
                (x, if i % 3 == 2 { -1 } else { 1 })
            })
            .collect();
        for &(x, d) in &batch {
            scalar.update(x, d);
        }
        batched.update_batch(&batch);
        assert_eq!(scalar, batched);
    }

    #[test]
    fn estimate_batch_is_bit_identical_to_scalar() {
        // Exercises both the gather path (≤16 queries) and the
        // row-major chunked path, plus the chunk-boundary tail.
        let mut rng = Xoshiro256pp::new(40);
        let mut cm = CountMin::new(100, 7, &mut rng);
        let mut stream_rng = Xoshiro256pp::new(41);
        for _ in 0..20_000 {
            cm.update(stream_rng.next_below(1 << 20), 1);
        }
        for n in [1usize, 3, 16, 17, 100, 1024, 1025, 2500] {
            let xs: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9) % (1 << 20))
                .collect();
            let mut out = vec![0i64; n];
            cm.estimate_batch(&xs, &mut out);
            for (&x, &o) in xs.iter().zip(&out) {
                assert_eq!(o, cm.estimate(x), "n={n} x={x}");
            }
        }
    }

    #[test]
    fn merge_matches_single_sketch() {
        let mut rng = Xoshiro256pp::new(18);
        let whole = CountMin::new(64, 4, &mut rng);
        let mut left = whole.clone();
        let mut right = whole.clone();
        let mut whole = whole;
        for x in 0..500u64 {
            whole.update(x, 1);
            if x % 2 == 0 {
                left.update(x, 1);
            } else {
                right.update(x, 1);
            }
        }
        assert!(left.merge_compatible(&right));
        left.merge_from(&right);
        assert_eq!(left, whole);
    }

    #[test]
    #[should_panic(expected = "identical hashes")]
    fn merge_rejects_different_draws() {
        let mut rng = Xoshiro256pp::new(19);
        let mut a = CountMin::new(64, 4, &mut rng);
        let b = CountMin::new(64, 4, &mut rng);
        a.merge_from(&b);
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    #[test]
    fn auditor_catches_row_mass_drift() {
        let mut rng = Xoshiro256pp::new(50);
        let mut cm = CountMin::new(32, 4, &mut rng);
        for x in 0..1_000u64 {
            cm.update(x % 200, 1);
        }
        cm.counters[0] += 1; // row 0 no longer matches the others
        let err = cm.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "CountMin");
        assert_eq!(err.invariant, "countmin.row_mass_equal");
    }

    #[test]
    fn auditor_catches_truncated_counters() {
        let mut rng = Xoshiro256pp::new(51);
        let mut cm = CountMin::new(32, 4, &mut rng);
        cm.counters.pop();
        assert_eq!(
            cm.check_invariants().unwrap_err().invariant,
            "countmin.counter_layout"
        );
    }

    #[test]
    fn auditor_catches_dirty_padding() {
        let mut rng = Xoshiro256pp::new(52);
        let mut cm = CountMin::new(100, 2, &mut rng); // stride 104
        let stride = cm.stride;
        cm.counters[stride - 1] = 7;
        assert_eq!(
            cm.check_invariants().unwrap_err().invariant,
            "countmin.padding_zero"
        );
    }
}
