//! k-wise independent hash families over the Mersenne prime 2^61 − 1.
//!
//! The turnstile sketches of the paper (§3) require
//!
//! * a **pairwise-independent** family `h_i : [u] → [w]` to spread
//!   elements over the `w` counters of a Count-Min / subset-sum row
//!   ([`PairwiseHash`]), and
//! * for the Count-Sketch a bucket `h_i(x)` *and* a sign
//!   `g_i(x) ∈ {−1, +1}` whose 4-wise independence across keys is what
//!   makes the variance analysis of §3.1 / Appendix A.3 go through.
//!   Both are read off **one** 4-wise independent value per (key, row)
//!   ([`FourwiseHash::cell`]), so the pair is 4-wise independent too.
//!
//! Both are realized as random polynomials over GF(p) with
//! p = 2^61 − 1: a degree-(k−1) polynomial with uniform coefficients is
//! a k-wise independent function (Wegman & Carter). The Mersenne
//! structure lets the `mod p` reduction be two shifts and an add.

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
// ^ audited: indices and casts here are bounded by structural
// invariants (see `check_invariants` impls and docs/ANALYSIS.md);
// this module is on the `cargo xtask check` allowlist.

use crate::rng::Xoshiro256pp;

/// The Mersenne prime 2^61 − 1 used as the field size.
pub const MERSENNE_P: u64 = (1u64 << 61) - 1;

/// Reduces a 128-bit product modulo 2^61 − 1.
///
/// Because p = 2^61 − 1, `x mod p` can be computed by summing the
/// 61-bit limbs of `x` (each limb shift of 61 corresponds to a factor
/// of 2^61 ≡ 1 mod p), followed by one conditional subtraction.
#[inline]
fn mod_mersenne(x: u128) -> u64 {
    let lo = (x & MERSENNE_P as u128) as u64;
    let mid = ((x >> 61) & MERSENNE_P as u128) as u64;
    let hi = (x >> 122) as u64;
    let mut r = lo + mid + hi; // < 3p, fits in u64 (3p < 2^63)
    if r >= MERSENNE_P {
        r -= MERSENNE_P;
    }
    if r >= MERSENNE_P {
        r -= MERSENNE_P;
    }
    r
}

/// Multiplies two field elements modulo 2^61 − 1.
#[inline]
pub fn mul_mod(a: u64, b: u64) -> u64 {
    mod_mersenne((a as u128) * (b as u128))
}

/// Folds an arbitrary `u64` into the field `[0, p)`, bit-identical to
/// `x % MERSENNE_P` but via the Mersenne limb identity
/// `2^61 ≡ 1 (mod p)`: two shifts, an add and one conditional
/// subtraction instead of the compiler's multiply-based division.
#[inline]
fn fold_p(x: u64) -> u64 {
    // x = hi·2^61 + lo with hi < 8, so x ≡ hi + lo and the sum is
    // ≤ p + 7 — a single conditional subtraction finishes the job.
    let mut r = (x & MERSENNE_P) + (x >> 61);
    if r >= MERSENNE_P {
        r -= MERSENNE_P;
    }
    r
}

/// Folds an arbitrary key into the field `[0, p)`, bit-identical to
/// `x % MERSENNE_P` — the shared prepass for the `*_folded_batch`
/// kernels: a sketch folds a chunk's keys once and reuses them across
/// all `d` of its rows instead of re-folding inside every row's hash.
#[inline]
#[must_use]
pub fn fold_to_field(x: u64) -> u64 {
    fold_p(x)
}

/// Partially reduces a `< 2^125` product: splits the `u128` into its
/// 64-bit halves and merges the limbs with `2^64 ≡ 2^3 (mod p)`. The
/// result is congruent mod p and fits a `u64` (not fully reduced) —
/// the batch kernels keep values in this *lazy* range between Horner
/// steps (a lazy value times a field element stays `< 2^125`) and only
/// pay the final fold + subtraction once per key.
#[inline]
fn lazy_reduce(m: u128) -> u64 {
    let lo = m as u64;
    let hi = (m >> 64) as u64;
    // `hi << 3` has zero low bits and `lo >> 61 < 8`, so OR is an add.
    (lo & MERSENNE_P) + ((hi << 3) | (lo >> 61))
}

/// Maps a field element `v ∈ [0, p)` onto `[0, buckets)` by the
/// multiply-shift range reduction `⌊v·buckets / 2^61⌋` (Lemire's
/// fastrange). Compared to `v % buckets` this replaces a 64-bit
/// division — the sketch hot loops pay the mapping `d·log u` times per
/// update, and hardware dividers neither pipeline nor vectorize — with
/// one widening multiply, while introducing the same ≤ `buckets/p`
/// deviation from uniformity as the modulo mapping.
#[inline]
fn bucket_of(v: u64, buckets: u64) -> u64 {
    (((v as u128) * (buckets as u128)) >> 61) as u64
}

/// A pairwise-independent hash function `[2^64] → [buckets]`.
///
/// `h(x) = ⌊((a·x + b) mod p) · buckets / 2^61⌋` with `a` uniform in
/// `[1, p)`, `b` uniform in `[0, p)`. Pairwise independence over the
/// field is exact; the final multiply-shift range reduction (see
/// [`bucket_of`]) introduces the usual ≤ `buckets/p` deviation,
/// negligible for sketch widths ≪ 2^61.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairwiseHash {
    a: u64,
    b: u64,
    buckets: u64,
}

impl PairwiseHash {
    /// Draws a function from the family with the given number of
    /// buckets.
    ///
    /// # Panics
    /// Panics if `buckets == 0`.
    pub fn new(rng: &mut Xoshiro256pp, buckets: u64) -> Self {
        assert!(buckets > 0, "PairwiseHash: buckets must be positive");
        Self {
            a: 1 + rng.next_below(MERSENNE_P - 1),
            b: rng.next_below(MERSENNE_P),
            buckets,
        }
    }

    /// Evaluates the function at `x`.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        let x = x % MERSENNE_P; // inputs ≥ p are folded into the field
        let v = mod_mersenne((self.a as u128) * (x as u128) + self.b as u128);
        bucket_of(v, self.buckets)
    }

    /// Evaluates the function over a batch: `out[i] = hash(xs[i])`,
    /// bit-identical to calling [`hash`](Self::hash) per key.
    ///
    /// Convenience wrapper: folds the keys into the field chunk-wise
    /// and defers to [`hash_folded_batch`](Self::hash_folded_batch).
    /// Hot paths that evaluate several rows over the same keys (the
    /// sketches' `update_batch`) should fold once with
    /// [`fold_to_field`] and call the folded kernel per row instead.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn hash_batch(&self, xs: &[u64], out: &mut [u64]) {
        assert_eq!(xs.len(), out.len(), "hash_batch: slice length mismatch");
        let mut xm = [0u64; 64];
        for (xs_c, out_c) in xs.chunks(64).zip(out.chunks_mut(64)) {
            let m = xs_c.len();
            for (t, &x) in xm.iter_mut().zip(xs_c) {
                *t = fold_p(x);
            }
            self.hash_folded_batch(&xm[..m], out_c);
        }
    }

    /// [`hash_batch`](Self::hash_batch) over keys already folded into
    /// `[0, p)` (see [`fold_to_field`]) — the row-major hot-path
    /// kernel. The `(a, b)` coefficients stay in registers for the
    /// whole batch, the per-key reduction is the two-limb
    /// [`lazy_reduce`] (one widening multiply instead of the generic
    /// three-limb chain), and the loop is unrolled 4-wide so the
    /// independent multiply chains pipeline. Bit-identical to
    /// [`hash`](Self::hash) on the unfolded keys.
    ///
    /// # Panics
    /// Panics if the slices differ in length. Folding is only checked
    /// by `debug_assert`: a non-folded key gives a well-defined but
    /// *different* bucket than `hash`.
    pub fn hash_folded_batch(&self, xs: &[u64], out: &mut [u64]) {
        assert_eq!(xs.len(), out.len(), "hash_batch: slice length mismatch");
        debug_assert!(
            xs.iter().all(|&x| x < MERSENNE_P),
            "hash_folded_batch: keys must be pre-folded into the field"
        );
        let (a, b, w) = (self.a as u128, self.b as u128, self.buckets);
        let mut xs4 = xs.chunks_exact(4);
        let mut out4 = out.chunks_exact_mut(4);
        for (x, o) in (&mut xs4).zip(&mut out4) {
            let v0 = fold_p(lazy_reduce(a * (x[0] as u128) + b));
            let v1 = fold_p(lazy_reduce(a * (x[1] as u128) + b));
            let v2 = fold_p(lazy_reduce(a * (x[2] as u128) + b));
            let v3 = fold_p(lazy_reduce(a * (x[3] as u128) + b));
            o[0] = bucket_of(v0, w);
            o[1] = bucket_of(v1, w);
            o[2] = bucket_of(v2, w);
            o[3] = bucket_of(v3, w);
        }
        for (&x, o) in xs4.remainder().iter().zip(out4.into_remainder()) {
            *o = bucket_of(fold_p(lazy_reduce(a * (x as u128) + b)), w);
        }
    }

    /// Fused bucket walk over pre-folded keys: calls `f(k, bucket)`
    /// for each key index `k`, computing buckets exactly as
    /// [`hash_folded_batch`](Self::hash_folded_batch) does but handing
    /// each one straight to the caller instead of round-tripping
    /// through an index buffer — the Count-Min scatter inlines into
    /// the unrolled hash loop and the chunk makes a single pass.
    pub fn buckets_folded_for_each(&self, xs: &[u64], mut f: impl FnMut(usize, u64)) {
        debug_assert!(
            xs.iter().all(|&x| x < MERSENNE_P),
            "buckets_folded_for_each: keys must be pre-folded into the field"
        );
        let (a, b, w) = (self.a as u128, self.b as u128, self.buckets);
        let mut k = 0usize;
        let mut xs8 = xs.chunks_exact(8);
        for x in &mut xs8 {
            let j0 = bucket_of(fold_p(lazy_reduce(a * (x[0] as u128) + b)), w);
            let j1 = bucket_of(fold_p(lazy_reduce(a * (x[1] as u128) + b)), w);
            let j2 = bucket_of(fold_p(lazy_reduce(a * (x[2] as u128) + b)), w);
            let j3 = bucket_of(fold_p(lazy_reduce(a * (x[3] as u128) + b)), w);
            let j4 = bucket_of(fold_p(lazy_reduce(a * (x[4] as u128) + b)), w);
            let j5 = bucket_of(fold_p(lazy_reduce(a * (x[5] as u128) + b)), w);
            let j6 = bucket_of(fold_p(lazy_reduce(a * (x[6] as u128) + b)), w);
            let j7 = bucket_of(fold_p(lazy_reduce(a * (x[7] as u128) + b)), w);
            f(k, j0);
            f(k + 1, j1);
            f(k + 2, j2);
            f(k + 3, j3);
            f(k + 4, j4);
            f(k + 5, j5);
            f(k + 6, j6);
            f(k + 7, j7);
            k += 8;
        }
        for &x in xs8.remainder() {
            f(k, bucket_of(fold_p(lazy_reduce(a * (x as u128) + b)), w));
            k += 1;
        }
    }

    /// The number of buckets this function maps into.
    #[inline]
    pub fn buckets(&self) -> u64 {
        self.buckets
    }

    /// The `(a, b)` polynomial coefficients (wire-codec support).
    #[must_use]
    pub fn params(&self) -> (u64, u64) {
        (self.a, self.b)
    }

    /// Reconstructs a function from serialized parameters, validating
    /// the family's ranges: `a ∈ [1, p)`, `b ∈ [0, p)`, `buckets > 0`.
    pub fn from_params(a: u64, b: u64, buckets: u64) -> Result<Self, &'static str> {
        if a == 0 || a >= MERSENNE_P {
            return Err("PairwiseHash: coefficient a outside [1, p)");
        }
        if b >= MERSENNE_P {
            return Err("PairwiseHash: coefficient b outside [0, p)");
        }
        if buckets == 0 {
            return Err("PairwiseHash: zero buckets");
        }
        Ok(Self { a, b, buckets })
    }
}

/// The powers `[x, x², x³]` of a key already folded into `[0, p)` (see
/// [`fold_to_field`]), each fully reduced. A key pays these two
/// products once; every [`FourwiseHash`] row then evaluates its
/// polynomial over them with independent products (see
/// [`FourwiseHash::cell`]).
#[inline]
#[must_use]
pub fn key_powers(xf: u64) -> [u64; 3] {
    debug_assert!(xf < MERSENNE_P, "key_powers: key must be pre-folded");
    let x2 = fold_p(lazy_reduce((xf as u128) * (xf as u128)));
    let x3 = fold_p(lazy_reduce((x2 as u128) * (xf as u128)));
    [xf, x2, x3]
}

/// A 4-wise independent hash function `[2^64] → [0, p)` realized as a
/// uniform degree-3 polynomial over GF(2^61 − 1) — the **one** hash a
/// Count-Sketch row draws: sign and bucket are both read off its value
/// (see [`cell`](Self::cell)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FourwiseHash {
    /// Coefficients `c3 x^3 + c2 x^2 + c1 x + c0`, each in `[0, p)`.
    coeffs: [u64; 4],
}

impl FourwiseHash {
    /// Draws a function from the family.
    pub fn new(rng: &mut Xoshiro256pp) -> Self {
        Self {
            coeffs: [
                rng.next_below(MERSENNE_P),
                rng.next_below(MERSENNE_P),
                rng.next_below(MERSENNE_P),
                rng.next_below(MERSENNE_P),
            ],
        }
    }

    /// Evaluates the polynomial over a key's [`key_powers`], result in
    /// `[0, p)`. The three products are independent (no Horner chain):
    /// each is `< 2^122`, so their `u128` sum is `< 2^124`, its
    /// [`lazy_reduce`] `< 2^63`, and `c0` rides in as a plain `u64` add
    /// (`< 5·2^61`) before the one exact [`fold_p`].
    #[inline]
    fn eval(&self, [x1, x2, x3]: [u64; 3]) -> u64 {
        let [c0, c1, c2, c3] = self.coeffs;
        let sum =
            (c3 as u128) * (x3 as u128) + (c2 as u128) * (x2 as u128) + (c1 as u128) * (x1 as u128);
        fold_p(lazy_reduce(sum) + c0)
    }

    /// Evaluates the polynomial at `x`, result in `[0, p)`.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        self.eval(key_powers(fold_p(x)))
    }

    /// The Count-Sketch cell of a key in a row of `width` counters,
    /// both read off the one 4-wise value `v`: the **sign** is `+1` if
    /// the low bit of `v` is set, else `−1`; the **bucket** is
    /// `⌊(v ≫ 1)·width / 2^60⌋` (the multiply-shift range reduction of
    /// [`bucket_of`] on the remaining 60 bits). `v` is uniform on
    /// `[0, p)`, so `(v ≫ 1, v & 1)` is uniform on `[0, 2^60) × {0, 1}`
    /// short of the single missing point `v = p`: sign and bucket are
    /// independent up to that `≤ width/p` imbalance (DESIGN.md §3).
    #[inline]
    #[must_use]
    pub fn cell(&self, powers: [u64; 3], width: u64) -> (usize, i64) {
        debug_assert!(width < 1 << 60, "cell: width must fit 60 bits");
        let v = self.eval(powers);
        // ⌊(v ≫ 1)·w / 2^60⌋ as the high word of one product.
        let bucket = (((v >> 1) as u128 * (width << 4) as u128) >> 64) as usize;
        (bucket, ((v & 1) << 1) as i64 - 1)
    }

    /// Evaluates the ±1 sign of [`cell`](Self::cell) over keys already
    /// folded into `[0, p)` — the one-row form of the evaluation, each
    /// key paying its own [`key_powers`].
    ///
    /// # Panics
    /// Panics if the slices differ in length. Folding is only checked
    /// by `debug_assert`.
    pub fn sign_folded_batch(&self, xs: &[u64], out: &mut [i64]) {
        assert_eq!(
            xs.len(),
            out.len(),
            "sign_folded_batch: slice length mismatch"
        );
        for (&x, o) in xs.iter().zip(out) {
            *o = self.cell(key_powers(x), 1).1;
        }
    }

    /// The polynomial coefficients `[c0, c1, c2, c3]` (wire-codec
    /// support).
    #[must_use]
    pub fn coeffs(&self) -> [u64; 4] {
        self.coeffs
    }

    /// Reconstructs a function from serialized coefficients, validating
    /// that each lies in the field `[0, p)`.
    pub fn from_coeffs(coeffs: [u64; 4]) -> Result<Self, &'static str> {
        if coeffs.iter().any(|&c| c >= MERSENNE_P) {
            return Err("FourwiseHash: coefficient outside [0, p)");
        }
        Ok(Self { coeffs })
    }
}

/// Read-side gather kernel: hashes **one** pre-folded key across all
/// `d` rows' pairwise functions in a single pass, writing
/// `out[i] = hashes[i].hash(x)` for the unfolded key `x` with
/// `xf = fold_to_field(x)`. The query-path dual of the update kernels:
/// an update amortizes the fold across one row's many keys, a point
/// read amortizes it across one key's many rows. Each row's `(a, b)`
/// pair is loaded once and the `d` multiply chains are independent, so
/// they pipeline exactly like the 4-wide unroll in
/// [`PairwiseHash::hash_folded_batch`]. Bit-identical to per-row
/// [`PairwiseHash::hash`] calls.
///
/// # Panics
/// Panics if the slices differ in length. Folding is only checked by
/// `debug_assert`: a non-folded key gives a well-defined but
/// *different* bucket than `hash`.
pub fn buckets_folded_gather(hashes: &[PairwiseHash], xf: u64, out: &mut [u64]) {
    assert_eq!(
        hashes.len(),
        out.len(),
        "buckets_folded_gather: slice length mismatch"
    );
    debug_assert!(
        xf < MERSENNE_P,
        "buckets_folded_gather: key must be pre-folded into the field"
    );
    let x = xf as u128;
    for (h, o) in hashes.iter().zip(out) {
        *o = bucket_of(
            fold_p(lazy_reduce((h.a as u128) * x + h.b as u128)),
            h.buckets,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mersenne_reduction_agrees_with_modulo() {
        let cases: [u128; 6] = [
            0,
            1,
            MERSENNE_P as u128,
            (MERSENNE_P as u128) * 2 + 5,
            u64::MAX as u128,
            u128::MAX,
        ];
        for &x in &cases {
            assert_eq!(mod_mersenne(x) as u128, x % MERSENNE_P as u128, "x = {x}");
        }
    }

    #[test]
    fn mul_mod_small_cases() {
        assert_eq!(mul_mod(0, 12345), 0);
        assert_eq!(mul_mod(1, 12345), 12345);
        assert_eq!(mul_mod(MERSENNE_P - 1, 2), MERSENNE_P - 2);
    }

    #[test]
    fn pairwise_in_range() {
        let mut rng = Xoshiro256pp::new(1);
        let h = PairwiseHash::new(&mut rng, 97);
        for x in 0..10_000u64 {
            assert!(h.hash(x) < 97);
        }
    }

    #[test]
    fn pairwise_is_deterministic_and_spreads() {
        let mut rng = Xoshiro256pp::new(2);
        let h = PairwiseHash::new(&mut rng, 64);
        let mut counts = [0usize; 64];
        for x in 0..64_000u64 {
            counts[h.hash(x) as usize] += 1;
        }
        // Each bucket should receive roughly 1000; allow wide slack.
        for (i, &c) in counts.iter().enumerate() {
            assert!((600..1400).contains(&c), "bucket {i} got {c}");
        }
        // Determinism.
        assert_eq!(h.hash(12345), h.hash(12345));
    }

    #[test]
    fn pairwise_collision_rate_near_uniform() {
        // Pairwise independence is a property over *function draws*:
        // Pr_h[h(x) = h(y)] ≈ 1/buckets for any fixed x ≠ y. Averaging
        // within a single draw over correlated pairs would be a
        // different (false) claim, so we redraw the function each trial.
        let mut rng = Xoshiro256pp::new(3);
        let buckets = 64u64;
        let trials = 20_000;
        let mut collisions = 0;
        for _ in 0..trials {
            let h = PairwiseHash::new(&mut rng, buckets);
            if h.hash(123_456) == h.hash(987_654_321) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        let expect = 1.0 / buckets as f64;
        assert!(
            (rate - expect).abs() < 0.6 * expect,
            "rate = {rate}, expect = {expect}"
        );
    }

    /// The textbook spelling the production evaluation is checked
    /// against: Horner's rule with a full reduction per step, then
    /// sign and bucket by their definitions.
    fn reference_cell(g: &FourwiseHash, x: u64, width: u64) -> (usize, i64) {
        let x = x % MERSENNE_P;
        let [c0, c1, c2, c3] = g.coeffs();
        let mut v = c3;
        for c in [c2, c1, c0] {
            v = mod_mersenne((v as u128) * (x as u128) + c as u128);
        }
        assert_eq!(v, g.hash(x), "value mismatch at x={x}");
        let bucket = ((v >> 1) as u128 * width as u128) >> 60;
        (bucket as usize, if v & 1 == 1 { 1 } else { -1 })
    }

    /// 1003 keys spread over all of `u64` (seven in eight are ≥ p),
    /// plus the field's edges.
    fn probe_keys() -> Vec<u64> {
        let mut xs: Vec<u64> = (0..1003u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        xs.extend([MERSENNE_P - 1, MERSENNE_P, MERSENNE_P + 1, u64::MAX]);
        xs
    }

    #[test]
    fn fourwise_cell_matches_the_horner_reference() {
        let mut rng = Xoshiro256pp::new(4);
        let xs = probe_keys();
        let folded: Vec<u64> = xs.iter().map(|&x| fold_to_field(x)).collect();
        let mut signs = vec![0i64; xs.len()];
        for width in [1u64, 7, 490, 977, (1 << 60) - 1] {
            let g = FourwiseHash::new(&mut rng);
            g.sign_folded_batch(&folded, &mut signs);
            for ((&x, &xf), &s) in xs.iter().zip(&folded).zip(&signs) {
                let want = reference_cell(&g, x, width);
                assert_eq!(g.cell(key_powers(xf), width), want, "x={x} w={width}");
                assert!(want.0 < width as usize);
                assert_eq!(s, want.1, "sign_folded_batch at x={x}");
            }
        }
        // Extreme coefficients keep the lazy sum inside its bounds.
        let top = FourwiseHash::from_coeffs([MERSENNE_P - 1; 4]).unwrap();
        for &x in &xs {
            reference_cell(&top, x, 490);
        }
    }

    /// Draws `draws` functions and tallies, over a fixed key set, each
    /// bucket's occupancy and signed sum. 4-wise independence is a
    /// property over draws, so every statistic below redraws.
    fn tally(width: u64, draws: usize, seed: u64) -> (Vec<u64>, Vec<i64>) {
        let mut rng = Xoshiro256pp::new(seed);
        let powers: Vec<[u64; 3]> = (0..64u64)
            .map(|i| key_powers(fold_to_field(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))))
            .collect();
        let mut occupancy = vec![0u64; width as usize];
        let mut signed = vec![0i64; width as usize];
        for _ in 0..draws {
            let g = FourwiseHash::new(&mut rng);
            for &p in &powers {
                let (j, s) = g.cell(p, width);
                occupancy[j] += 1;
                signed[j] += s;
            }
        }
        (occupancy, signed)
    }

    #[test]
    fn fourwise_buckets_near_uniform_and_signs_independent_of_them() {
        for (width, draws) in [(490u64, 8_000usize), (7, 2_000)] {
            let (occupancy, signed) = tally(width, draws, 5 + width);
            let mean = (draws * 64) as f64 / width as f64;
            let sd = mean.sqrt();
            for (j, (&n, &s)) in occupancy.iter().zip(&signed).enumerate() {
                // Occupancy: binomial around `mean`; 6σ over ≤ 490 cells.
                assert!(
                    (n as f64 - mean).abs() < 6.0 * sd,
                    "w={width} bucket {j}: {n} keys, mean {mean:.0}"
                );
                // Sign ⟂ bucket: a bucket's signs sum like a ±1 walk.
                assert!(
                    (s as f64).abs() < 6.0 * sd,
                    "w={width} bucket {j}: sign sum {s} over {n} keys"
                );
            }
            let total: i64 = signed.iter().sum();
            assert!(
                (total as f64).abs() < 6.0 * ((draws * 64) as f64).sqrt(),
                "w={width}: overall sign sum {total}"
            );
        }
    }

    #[test]
    fn fourwise_pair_collides_at_rate_one_over_w_with_uncorrelated_signs() {
        let mut rng = Xoshiro256pp::new(6);
        let width = 64u64;
        let trials = 20_000;
        let (px, py) = (
            key_powers(fold_to_field(123_456)),
            key_powers(fold_to_field(987_654_321)),
        );
        let (mut collisions, mut sign_products) = (0i64, 0i64);
        for _ in 0..trials {
            let g = FourwiseHash::new(&mut rng);
            let ((jx, sx), (jy, sy)) = (g.cell(px, width), g.cell(py, width));
            collisions += i64::from(jx == jy);
            sign_products += sx * sy;
        }
        let rate = collisions as f64 / trials as f64;
        let expect = 1.0 / width as f64;
        assert!(
            (rate - expect).abs() < 0.3 * expect,
            "rate = {rate}, expect = {expect}"
        );
        let corr = sign_products as f64 / trials as f64;
        assert!(corr.abs() < 0.03, "E[g(x)g(y)] = {corr}");
    }

    #[test]
    fn pairwise_batch_matches_scalar() {
        // The batched evaluator must be bit-identical to per-key calls
        // — Count-Min's state-identity guarantee rests on it.
        let mut rng = Xoshiro256pp::new(8);
        let h = PairwiseHash::new(&mut rng, 977);
        // 1003 keys: exercises the 4-wide unroll and the remainder tail.
        let xs = probe_keys();
        let mut jb = vec![0u64; xs.len()];
        h.hash_batch(&xs, &mut jb);
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(jb[i], h.hash(x), "bucket mismatch at i={i}");
        }
    }

    #[test]
    fn pairwise_gather_matches_scalar() {
        // The read-side gather kernel must be bit-identical to per-row
        // scalar calls — the batched-query identity guarantee rests on
        // it.
        let mut rng = Xoshiro256pp::new(10);
        let hs: Vec<PairwiseHash> = (0..7).map(|_| PairwiseHash::new(&mut rng, 977)).collect();
        let mut jb = vec![0u64; hs.len()];
        for x in probe_keys() {
            buckets_folded_gather(&hs, fold_to_field(x), &mut jb);
            for (r, h) in hs.iter().enumerate() {
                assert_eq!(jb[r], h.hash(x), "bucket mismatch at x={x} row={r}");
            }
        }
    }

    #[test]
    fn params_roundtrip_and_validation() {
        let mut rng = Xoshiro256pp::new(9);
        let h = PairwiseHash::new(&mut rng, 128);
        let (a, b) = h.params();
        let h2 = PairwiseHash::from_params(a, b, h.buckets()).unwrap();
        assert_eq!(h, h2);
        assert!(PairwiseHash::from_params(0, b, 128).is_err());
        assert!(PairwiseHash::from_params(MERSENNE_P, b, 128).is_err());
        assert!(PairwiseHash::from_params(a, MERSENNE_P, 128).is_err());
        assert!(PairwiseHash::from_params(a, b, 0).is_err());

        let g = FourwiseHash::new(&mut rng);
        let g2 = FourwiseHash::from_coeffs(g.coeffs()).unwrap();
        assert_eq!(g, g2);
        assert!(FourwiseHash::from_coeffs([0, 0, 0, MERSENNE_P]).is_err());
    }

    #[test]
    fn bucket_mapping_stays_in_range_and_spreads() {
        // The multiply-shift range reduction must cover every bucket
        // roughly uniformly (it partitions [0, p) into equal spans).
        let mut rng = Xoshiro256pp::new(12);
        let h = PairwiseHash::new(&mut rng, 7);
        let mut counts = [0usize; 7];
        for x in 0..70_000u64 {
            counts[h.hash(x) as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!((7_000..13_000).contains(&c), "bucket {i} got {c}");
        }
    }

    #[test]
    fn distinct_draws_differ() {
        let mut rng = Xoshiro256pp::new(7);
        let h1 = PairwiseHash::new(&mut rng, 1024);
        let h2 = PairwiseHash::new(&mut rng, 1024);
        let differs = (0..1000u64).any(|x| h1.hash(x) != h2.hash(x));
        assert!(differs);
    }
}
