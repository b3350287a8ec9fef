//! Order-preserving mappings from richer key types to a fixed integer
//! universe.
//!
//! The comparison-model algorithms (GK family, `Random`, `MRL99`) work
//! on any `Ord` type, but the fixed-universe algorithms (q-digest and
//! everything in the turnstile model) need keys in `[u] = {0, …, u−1}`.
//! Footnote 1 of the paper observes that IEEE-754 floating-point
//! numbers can be mapped to integers in an order-preserving fashion;
//! this module provides that mapping (both directions) plus helpers
//! for bounded integer universes.

#![expect(
    clippy::cast_possible_truncation,
    reason = "the order-preserving maps reinterpret 64-bit patterns between signed, float and unsigned on purpose"
)]

/// Maps an `f64` to a `u64` such that `a < b ⇔ encode(a) < encode(b)`
/// (total order; NaNs sort above +∞ with the sign bit deciding among
/// them, matching `f64::total_cmp`).
///
/// The trick: positive floats already compare correctly as sign-
/// magnitude integers, so flip only the sign bit; negative floats
/// compare in reverse, so flip all bits.
/// # Example
///
/// ```
/// use sqs_util::ordkey::{f64_to_ordered_u64, ordered_u64_to_f64};
///
/// let keys: Vec<u64> = [-1.5f64, 0.0, 3.25].iter().map(|&x| f64_to_ordered_u64(x)).collect();
/// assert!(keys[0] < keys[1] && keys[1] < keys[2]);
/// assert_eq!(ordered_u64_to_f64(keys[2]), 3.25);
/// ```
#[inline]
pub fn f64_to_ordered_u64(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits ^ (1u64 << 63)
    }
}

/// Inverse of [`f64_to_ordered_u64`].
#[inline]
pub fn ordered_u64_to_f64(k: u64) -> f64 {
    let bits = if k >> 63 == 1 { k ^ (1u64 << 63) } else { !k };
    f64::from_bits(bits)
}

/// Maps an `i64` to a `u64` order-preservingly (offset by 2^63).
#[inline]
pub fn i64_to_ordered_u64(x: i64) -> u64 {
    (x as u64) ^ (1u64 << 63)
}

/// Inverse of [`i64_to_ordered_u64`].
#[inline]
pub fn ordered_u64_to_i64(k: u64) -> i64 {
    (k ^ (1u64 << 63)) as i64
}

/// Quantizes an `f64` known to lie in `[lo, hi]` onto the integer
/// universe `[0, 2^log_u)`, order-preservingly (up to quantization).
///
/// This is how the experiments feed real-valued data (e.g. the LIDAR
/// elevations) to fixed-universe algorithms while controlling `log u`.
///
/// # Panics
/// Panics if `hi <= lo` or `log_u == 0 || log_u > 63`.
#[inline]
pub fn quantize(x: f64, lo: f64, hi: f64, log_u: u32) -> u64 {
    assert!(hi > lo, "quantize: empty range");
    assert!((1..=63).contains(&log_u), "quantize: log_u out of range");
    let u = 1u64 << log_u;
    let t = ((x - lo) / (hi - lo)).clamp(0.0, 1.0);
    // Scale into [0, u); the clamp below guards t == 1.0.
    ((t * u as f64) as u64).min(u - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_mapping_preserves_order() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            0.5,
            1.0,
            2.5,
            1e300,
            f64::INFINITY,
        ];
        for w in vals.windows(2) {
            assert!(
                f64_to_ordered_u64(w[0]) <= f64_to_ordered_u64(w[1]),
                "{} vs {}",
                w[0],
                w[1]
            );
        }
        // Strict where the floats are strictly ordered.
        assert!(f64_to_ordered_u64(-1.0) < f64_to_ordered_u64(1.0));
        assert!(f64_to_ordered_u64(1.0) < f64_to_ordered_u64(1.0000001));
    }

    #[test]
    fn f64_mapping_roundtrips() {
        for &x in &[-123.456, -0.0, 0.0, 0.25, 7.0, 1e-308, -1e308] {
            let k = f64_to_ordered_u64(x);
            let back = ordered_u64_to_f64(k);
            assert_eq!(back.to_bits(), x.to_bits(), "x = {x}");
        }
    }

    #[test]
    fn i64_mapping_preserves_order_and_roundtrips() {
        let vals = [i64::MIN, -5, -1, 0, 1, 5, i64::MAX];
        for w in vals.windows(2) {
            assert!(i64_to_ordered_u64(w[0]) < i64_to_ordered_u64(w[1]));
        }
        for &x in &vals {
            assert_eq!(ordered_u64_to_i64(i64_to_ordered_u64(x)), x);
        }
    }

    #[test]
    fn quantize_endpoints_and_monotone() {
        assert_eq!(quantize(0.0, 0.0, 1.0, 16), 0);
        assert_eq!(quantize(1.0, 0.0, 1.0, 16), (1 << 16) - 1);
        let a = quantize(0.3, 0.0, 1.0, 16);
        let b = quantize(0.6, 0.0, 1.0, 16);
        assert!(a < b);
        // Out-of-range values clamp.
        assert_eq!(quantize(-5.0, 0.0, 1.0, 8), 0);
        assert_eq!(quantize(9.0, 0.0, 1.0, 8), 255);
    }
}
