//! The Count-Sketch (Charikar, Chen & Farach-Colton, 2002) — the
//! frequency estimator behind the paper's new `DCS` algorithm (§3.1).
//!
//! Per row `i`, item `x` is hashed to counter `h_i(x)` with sign
//! `g_i(x) ∈ {−1,+1}`, both read off **one** 4-wise independent value
//! (see [`FourwiseHash::cell`]; DESIGN.md §3, "One hash per
//! Count-Sketch row", states what the proof rests on); the estimator
//! `g_i(x)·C[i, h_i(x)]` is **unbiased** with variance `F₂/w`, and the
//! median over `d` rows concentrates it. Unbiasedness with a symmetric
//! error distribution is exactly what lets §3.1 sum `log u` level
//! estimates with only `√(log u)` error growth — the asymptotic win of
//! DCS over DCM.

#![expect(
    clippy::indexing_slicing,
    reason = "cell indices are reduced into [0, width) before use, and `check_invariants` audits the counter layout they index"
)]

use crate::{batch_scratch::CHUNK, FrequencySketch, MergeableSketch};
use sqs_util::hash::{fold_to_field, key_powers, FourwiseHash};
use sqs_util::rng::Xoshiro256pp;
use sqs_util::space::{words, SpaceUsage};

/// A `w × d` Count-Sketch (use odd `d` so the median is a single row).
///
/// # Example
///
/// ```
/// use sqs_sketch::{CountSketch, FrequencySketch};
/// use sqs_util::rng::Xoshiro256pp;
///
/// let mut rng = Xoshiro256pp::new(1);
/// let mut cs = CountSketch::new(1024, 5, &mut rng);
/// for _ in 0..1_000 {
///     cs.update(7, 1);
/// }
/// cs.update(7, -400); // turnstile deletion
/// let est = cs.estimate(7);
/// assert!((est - 600).abs() < 50);
/// ```

#[derive(Debug, Clone)]
pub struct CountSketch {
    width: usize,
    stride: usize,             // width rounded up to a cache line of i64s
    counters: Vec<i64>,        // d rows × stride, row-contiguous
    hashes: Vec<FourwiseHash>, // one 4-wise draw per row: bucket and sign
    universe: u64,
    #[cfg(any(test, feature = "audit"))]
    updates: u64,
}

// Equality is summary state only — the audit-only `updates` diagnostic
// is excluded, since it legitimately differs between paths that reach
// the same state (wire decode starts it at zero, shard merges sum it).
impl PartialEq for CountSketch {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width
            && self.stride == other.stride
            && self.counters == other.counters
            && self.hashes == other.hashes
            && self.universe == other.universe
    }
}

impl Eq for CountSketch {}

impl CountSketch {
    /// Creates a sketch with `width` counters per row and `depth` rows.
    ///
    /// # Panics
    /// Panics if `width == 0` or `depth == 0`.
    pub fn new(width: usize, depth: usize, rng: &mut Xoshiro256pp) -> Self {
        assert!(
            width > 0 && depth > 0,
            "CountSketch: width and depth must be positive"
        );
        let stride = crate::row_stride(width);
        Self {
            width,
            stride,
            counters: vec![0; stride * depth],
            hashes: (0..depth).map(|_| FourwiseHash::new(rng)).collect(),
            universe: u64::MAX,
            #[cfg(any(test, feature = "audit"))]
            updates: 0,
        }
    }

    /// Creates a sketch scoped to a (reduced) universe size.
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

    /// The AMS F₂ estimate: mean over rows of the summed squared
    /// counters (each row's sum is an unbiased F₂ estimator).
    pub fn f2_estimate(&self) -> f64 {
        let d = self.hashes.len();
        self.counters
            .iter()
            .map(|&c| (c as f64) * (c as f64))
            .sum::<f64>()
            / d as f64
    }

    /// The per-row estimates `g_i(x)·C[i, h_i(x)]` (tests, diagnostics).
    pub fn row_estimates(&self, x: u64) -> Vec<i64> {
        let mut ests = vec![0; self.depth()];
        self.fill_row_estimates(key_powers(fold_to_field(x)), &mut ests);
        ests
    }

    /// Writes one key's `d` row estimates, in ascending row order.
    #[inline]
    fn fill_row_estimates(&self, powers: [u64; 3], ests: &mut [i64]) {
        let rows = self.counters.chunks_exact(self.stride);
        for ((h, row), e) in self.hashes.iter().zip(rows).zip(ests) {
            let (j, sign) = h.cell(powers, self.width as u64);
            *e = sign * row[j];
        }
    }

    /// The per-row hash draws, for serialization.
    pub fn rows(&self) -> impl Iterator<Item = &FourwiseHash> {
        self.hashes.iter()
    }

    /// The **logical** counters, row-major `d × w` with cache-line
    /// padding stripped — the canonical wire form.
    pub fn logical_counters(&self) -> Vec<i64> {
        self.counters
            .chunks_exact(self.stride)
            .flat_map(|row| row[..self.width].iter().copied())
            .collect()
    }

    /// Rebuilds a sketch from decoded parts (the inverse of
    /// [`rows`](Self::rows) + [`logical_counters`](Self::logical_counters)).
    /// `counters` is logical `d × w` row-major. Returns `Err` on any
    /// shape mismatch; the caller is expected to follow up with an
    /// invariant audit.
    pub fn from_parts(
        universe: u64,
        width: usize,
        rows: Vec<FourwiseHash>,
        counters: &[i64],
    ) -> Result<Self, &'static str> {
        if width == 0 || rows.is_empty() {
            return Err("CountSketch: width and depth must be positive");
        }
        if counters.len() != width * rows.len() {
            return Err("CountSketch: counter count does not match w×d");
        }
        if universe == 0 {
            return Err("CountSketch: universe must be positive");
        }
        let stride = crate::row_stride(width);
        let mut padded = vec![0i64; stride * rows.len()];
        for (dst, src) in padded
            .chunks_exact_mut(stride)
            .zip(counters.chunks_exact(width))
        {
            dst[..width].copy_from_slice(src);
        }
        Ok(Self {
            width,
            stride,
            counters: padded,
            hashes: rows,
            universe,
            #[cfg(any(test, feature = "audit"))]
            updates: 0,
        })
    }
}

impl sqs_util::audit::CheckInvariants for CountSketch {
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "CountSketch";
        ensure(
            self.width > 0 && !self.hashes.is_empty(),
            ALG,
            "countsketch.shape_positive",
            || format!("width = {}, depth = {}", self.width, self.hashes.len()),
        )?;
        ensure(
            self.stride == crate::row_stride(self.width)
                && self.counters.len() == self.stride * self.hashes.len(),
            ALG,
            "countsketch.counter_layout",
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
        // Cache-line padding slots are never addressed by any hash.
        for (i, row) in self.counters.chunks_exact(self.stride).enumerate() {
            ensure(
                row[self.width..].iter().all(|&c| c == 0),
                ALG,
                "countsketch.padding_zero",
                || format!("row {i} has nonzero cache-line padding"),
            )?;
        }
        // Signs are ±1, so each row's sum has the parity of the total
        // update mass — every row must agree on it. (XOR of low bits:
        // a decoded frame's counters may not be summable in an i64.)
        let parity = |row: &[i64]| row.iter().fold(0, |acc, &c| acc ^ (c & 1));
        let mut rows = self.counters.chunks_exact(self.stride);
        let first = rows.next().map_or(0, parity);
        for (i, row) in rows.enumerate() {
            ensure(
                parity(row) == first,
                ALG,
                "countsketch.row_mass_parity",
                || format!("row {} disagrees in sum parity with row 0", i + 1),
            )?;
        }
        Ok(())
    }
}

impl FrequencySketch for CountSketch {
    fn update(&mut self, x: u64, delta: i64) {
        let powers = key_powers(fold_to_field(x));
        let rows = self.counters.chunks_exact_mut(self.stride);
        for (h, row) in self.hashes.iter().zip(rows) {
            let (j, sign) = h.cell(powers, self.width as u64);
            row[j] += sign * delta;
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += 1;
            if sqs_util::audit::audit_point(self.updates) {
                sqs_util::audit::CheckInvariants::assert_invariants(self);
            }
        }
    }

    // Row-major batch walk: each chunk folds its keys and takes their
    // powers once — shared by all d rows — and every row then makes one
    // fused hash-and-scatter pass over the chunk, all stores landing in
    // one row window. State-identical to the scalar loop (additions
    // commute in a row).
    fn update_batch(&mut self, batch: &[(u64, i64)]) {
        let mut powers = [[0u64; 3]; CHUNK];
        let width = self.width as u64;
        for chunk in batch.chunks(CHUNK) {
            for (p, &(x, _)) in powers.iter_mut().zip(chunk) {
                *p = key_powers(fold_to_field(x));
            }
            let rows = self.counters.chunks_exact_mut(self.stride);
            for (h, row) in self.hashes.iter().zip(rows) {
                for (&p, &(_, delta)) in powers.iter().zip(chunk) {
                    let (j, sign) = h.cell(p, width);
                    row[j] += sign * delta;
                }
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
        let mut ests = self.row_estimates(x);
        let mid = ests.len() / 2;
        *ests.select_nth_unstable(mid).1
    }

    fn estimate_batch(&self, xs: &[u64], out: &mut [i64]) {
        Self::estimate_parts(&[self], xs, out);
    }

    fn universe(&self) -> u64 {
        self.universe
    }

    // Each live copy adds ±1 to one counter per row, so a row's
    // absolute mass is at most the live count (collisions only cancel).
    fn check_live_mass(&self, live: u64) -> Result<(), String> {
        for (i, row) in self.counters.chunks_exact(self.stride).enumerate() {
            let mass: u128 = row.iter().map(|c| u128::from(c.unsigned_abs())).sum();
            if mass > u128::from(live) {
                return Err(format!(
                    "Count-Sketch row {i} holds absolute mass {mass}, live count is {live}"
                ));
            }
        }
        Ok(())
    }

    /// §3.2.4: the variance of a single-row estimate is `F₂/w`, and a
    /// row's sum of squared counters is itself an estimator of `F₂`
    /// (Alon–Matias–Szegedy). The paper uses "the variance of one row
    /// of the sketch as a good empirical approximation"; we average
    /// the AMS estimate over rows for stability.
    fn variance_estimate(&self) -> Option<f64> {
        Some(self.f2_estimate() / self.width as f64)
    }

    /// Per-item variance from the empirical dispersion of the `d` row
    /// estimates: each row is an independent unbiased estimator of
    /// `f_x`, so the sample variance `s²` of the rows estimates the
    /// single-row variance *actually realized for this item* (its own
    /// collisions, not the worst case `F₂/w`), and the returned
    /// `Var(median) ≈ (π/2)·s²/d` is the asymptotic variance of the
    /// median of `d` such estimators. Floored by a small fraction of
    /// the generic `F₂/(w·d)` so an accidental all-rows-agree does not
    /// claim exactness.
    fn variance_estimate_for(&self, x: u64) -> Option<f64> {
        let rows = self.row_estimates(x);
        let d = rows.len() as f64;
        if rows.len() < 2 {
            return self.variance_estimate();
        }
        let mean = rows.iter().map(|&r| r as f64).sum::<f64>() / d;
        let s2 = rows.iter().map(|&r| (r as f64 - mean).powi(2)).sum::<f64>() / (d - 1.0);
        let var_median = std::f64::consts::FRAC_PI_2 * s2 / d;
        let floor = self.f2_estimate() / (self.width as f64 * d) * 1e-3;
        Some(var_median.max(floor).max(1e-9))
    }
}

impl MergeableSketch for CountSketch {
    fn merge_compatible(&self, other: &Self) -> bool {
        self.width == other.width && self.universe == other.universe && self.hashes == other.hashes
    }

    fn merge_from(&mut self, other: &Self) {
        assert!(
            self.merge_compatible(other),
            "CountSketch invariant: merge requires identical hashes and shape"
        );
        for (c, o) in self.counters.iter_mut().zip(&other.counters) {
            *c += o;
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += other.updates;
        }
    }

    // Key-major: a key's powers are taken once and its d row estimates
    // land in ascending row order — the exact slice `row_estimates`
    // builds — before the same `select_nth_unstable` median. With more
    // than one part, each row's cell is found once and its counters
    // summed over the parts (a sign times a sum is the sum of the signed
    // counters): answers are bit-identical to the merged sketch's
    // scalar estimate. One part reads its rows in one fused pass, the
    // single-sketch read's speed.
    fn estimate_parts(parts: &[&Self], xs: &[u64], out: &mut [i64]) {
        assert_eq!(xs.len(), out.len(), "estimate_parts: slice length mismatch");
        let Some((first, rest)) = parts.split_first() else {
            out.fill(0);
            return;
        };
        let depth = first.hashes.len();
        if rest.is_empty() {
            return median_of_rows(xs, out, depth, |powers, ests| {
                first.fill_row_estimates(powers, ests);
            });
        }
        let (width, stride) = (first.width as u64, first.stride);
        median_of_rows(xs, out, depth, |powers, ests| {
            for (r, (h, e)) in first.hashes.iter().zip(ests).enumerate() {
                let (j, sign) = h.cell(powers, width);
                let at = r * stride + j;
                *e = sign * parts.iter().map(|p| p.counters[at]).sum::<i64>();
            }
        });
    }
}

/// `out[k]` = the median of the `depth` row estimates `fill` writes for
/// the powers of `xs[k]`, taken by `select_nth_unstable` as
/// [`CountSketch::estimate`] takes it.
#[inline]
fn median_of_rows(xs: &[u64], out: &mut [i64], depth: usize, fill: impl Fn([u64; 3], &mut [i64])) {
    let mut ests = vec![0i64; depth];
    let mid = depth / 2;
    for (&x, o) in xs.iter().zip(out) {
        fill(key_powers(fold_to_field(x)), &mut ests);
        *o = *ests.select_nth_unstable(mid).1;
    }
}

impl SpaceUsage for CountSketch {
    fn space_bytes(&self) -> usize {
        // w·d counters + 4 polynomial coefficients per row.
        // Logical size: cache-line padding is layout, not sketch state.
        words(self.width * self.hashes.len() + 4 * self.hashes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_is_unbiased_over_draws() {
        // Fix a workload; average the estimate for one item over many
        // independently drawn sketches; it must approach the truth.
        let mut seed_rng = Xoshiro256pp::new(30);
        let trials = 300;
        let mut sum = 0f64;
        for _ in 0..trials {
            let mut cs = CountSketch::new(16, 1, &mut seed_rng);
            for x in 0..200u64 {
                cs.update(x, 1 + (x % 5) as i64);
            }
            sum += cs.estimate(7) as f64;
        }
        let mean = sum / trials as f64;
        let truth = 1.0 + (7 % 5) as f64;
        // Single row, tiny width → large variance; the mean over 300
        // draws should still be within a few standard errors.
        assert!((mean - truth).abs() < 8.0, "mean = {mean}, truth = {truth}");
    }

    #[test]
    fn median_tracks_truth_with_decent_width() {
        let mut rng = Xoshiro256pp::new(31);
        let mut cs = CountSketch::new(1024, 5, &mut rng);
        let mut stream_rng = Xoshiro256pp::new(32);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..100_000 {
            let x = stream_rng.next_below(1 << 16);
            cs.update(x, 1);
            *truth.entry(x).or_insert(0i64) += 1;
        }
        let mut bad = 0;
        for (&x, &t) in truth.iter().take(1000) {
            if (cs.estimate(x) - t).abs() > 40 {
                bad += 1;
            }
        }
        assert!(bad < 100, "bad = {bad}");
    }

    #[test]
    fn deletions_cancel_exactly() {
        let mut rng = Xoshiro256pp::new(33);
        let mut cs = CountSketch::new(64, 3, &mut rng);
        for x in 0..500u64 {
            cs.update(x, 3);
        }
        for x in 0..500u64 {
            cs.update(x, -3);
        }
        for x in 0..500u64 {
            assert_eq!(cs.estimate(x), 0);
        }
    }

    #[test]
    fn variance_estimate_tracks_f2_over_w() {
        let mut rng = Xoshiro256pp::new(34);
        let w = 256;
        let mut cs = CountSketch::new(w, 5, &mut rng);
        // 1000 items with frequency 10 → F2 = 1000·100 = 100_000.
        for x in 0..1000u64 {
            cs.update(x, 10);
        }
        let var = cs.variance_estimate().unwrap();
        let expect = 100_000.0 / w as f64;
        assert!(
            var > 0.3 * expect && var < 3.0 * expect,
            "var = {var}, expect ≈ {expect}"
        );
    }

    #[test]
    fn row_estimates_len_matches_depth() {
        let mut rng = Xoshiro256pp::new(35);
        let cs = CountSketch::new(8, 7, &mut rng);
        assert_eq!(cs.row_estimates(42).len(), 7);
    }

    #[test]
    fn batch_is_state_identical_to_scalar() {
        // Unpadded width (100 → stride 104) exercises the padding lanes;
        // 2500 keys over all of `u64` (most ≥ p) leave a chunk tail.
        let mut rng = Xoshiro256pp::new(36);
        let mut scalar = CountSketch::new(100, 7, &mut rng);
        let mut batched = scalar.clone();
        let mut stream_rng = Xoshiro256pp::new(37);
        let batch: Vec<(u64, i64)> = (0..2500)
            .map(|i| (stream_rng.next_u64(), if i % 3 == 2 { -1 } else { 1 }))
            .collect();
        for &(x, d) in &batch {
            scalar.update(x, d);
        }
        batched.update_batch(&batch);
        assert_eq!(scalar, batched);
    }

    #[test]
    fn estimate_batch_is_bit_identical_to_scalar() {
        let mut rng = Xoshiro256pp::new(42);
        let mut cs = CountSketch::new(100, 7, &mut rng);
        let mut stream_rng = Xoshiro256pp::new(43);
        for _ in 0..20_000 {
            cs.update(stream_rng.next_below(1 << 20), 1);
        }
        for n in [1usize, 3, 17, 1003] {
            // Every other query is a fed key, the rest span all of u64.
            let xs: Vec<u64> = (0..n as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (44 * (i % 2)))
                .collect();
            let mut out = vec![0i64; n];
            cs.estimate_batch(&xs, &mut out);
            for (&x, &o) in xs.iter().zip(&out) {
                assert_eq!(o, cs.estimate(x), "n={n} x={x}");
            }
        }
    }

    #[test]
    fn merge_matches_single_sketch() {
        let mut rng = Xoshiro256pp::new(38);
        let whole = CountSketch::new(64, 5, &mut rng);
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
    fn parts_roundtrip_preserves_estimates() {
        let mut rng = Xoshiro256pp::new(39);
        let mut cs = CountSketch::for_universe(1 << 20, 100, 5, &mut rng);
        for x in 0..2000u64 {
            cs.update(x % 300, 1);
        }
        let rows: Vec<_> = cs.rows().cloned().collect();
        let rebuilt =
            CountSketch::from_parts(cs.universe(), cs.width(), rows, &cs.logical_counters())
                .expect("invariant: parts round-trip from a live sketch");
        for x in [0u64, 7, 150, 299, 5000] {
            assert_eq!(rebuilt.estimate(x), cs.estimate(x), "x={x}");
        }
    }

    #[test]
    fn from_parts_rejects_shape_mismatch() {
        let mut rng = Xoshiro256pp::new(40);
        let cs = CountSketch::new(16, 3, &mut rng);
        let rows: Vec<_> = cs.rows().cloned().collect();
        assert!(CountSketch::from_parts(1, 16, rows.clone(), &[0; 47]).is_err());
        assert!(CountSketch::from_parts(0, 16, rows.clone(), &[0; 48]).is_err());
        assert!(CountSketch::from_parts(1, 0, rows, &[]).is_err());
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    #[test]
    fn auditor_catches_single_counter_flip() {
        let mut rng = Xoshiro256pp::new(60);
        let mut cs = CountSketch::new(32, 4, &mut rng);
        for x in 0..1_000u64 {
            cs.update(x % 200, 1);
        }
        cs.counters[0] += 1; // breaks the shared row-sum parity
        let err = cs.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "CountSketch");
        assert_eq!(err.invariant, "countsketch.row_mass_parity");
    }

    #[test]
    fn auditor_catches_dropped_row_hash() {
        let mut rng = Xoshiro256pp::new(61);
        let mut cs = CountSketch::new(32, 4, &mut rng);
        cs.hashes.pop();
        assert_eq!(
            cs.check_invariants().unwrap_err().invariant,
            "countsketch.counter_layout"
        );
    }
}
