//! Sliding-window quantiles — the extension the study's §1 cites as
//! Arasu & Manku [3]: answer φ-quantiles over (approximately) the most
//! recent `W` stream elements, with old elements aging out implicitly.
//!
//! This is the classic *block* scheme: the window is covered by a ring
//! of `b` blocks of `W/b` elements each. The active block holds raw
//! elements; a block that fills is *sealed* — sorted and sparsified to
//! every `k`-th element carrying weight `k` — and the oldest block is
//! dropped whole when the ring wraps. Queries run the weighted-sample
//! machinery over the sealed blocks plus the raw active block.
//!
//! Guarantees (simple and honest rather than optimal): answers cover a
//! *jumping* window of between `W` and `W + W/b` elements; rank error
//! from sparsification is at most `b·k ≤ εW`. With `b = k = ⌈√(1/ε)·…⌉`
//! chosen below, total space is `O(W/b + b·(W/b)/k) = O(√(W/ε))`-ish —
//! far from Arasu–Manku's `(1/ε)·polylog` optimum but linear-scan
//! simple and allocation-stable. (A production engine would layer
//! GKArray per block; the study's own scope ends at whole-stream
//! summaries, so this stays deliberately minimal.)

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
// ^ audited: indices and casts here are bounded by structural
// invariants (see `check_invariants` impls and docs/ANALYSIS.md);
// this module is on the `cargo xtask check` allowlist.

use crate::buffers::{CachedView, RankIndex};
use crate::QuantileSummary;
use sqs_util::space::{words, SpaceUsage};

/// A sealed, sparsified block: every `stride`-th element of the sorted
/// block, each representing `stride` originals.
#[derive(Debug, Clone)]
struct Sealed<T> {
    samples: Vec<T>,
    stride: u64,
}

/// Quantiles over (approximately) the last `W` elements.
///
/// # Example
///
/// ```
/// use sqs_core::{sliding::SlidingWindowQuantiles, QuantileSummary};
///
/// let mut s = SlidingWindowQuantiles::new(0.05, 10_000);
/// for x in 0..100_000u64 {
///     s.insert(x);
/// }
/// // Only (roughly) the last 10k elements are represented.
/// let median = s.quantile(0.5).unwrap();
/// assert!(median > 90_000);
/// ```

#[derive(Debug, Clone)]
pub struct SlidingWindowQuantiles<T> {
    window: usize,
    block_size: usize,
    stride: usize,
    blocks: std::collections::VecDeque<Sealed<T>>,
    active: Vec<T>,
    n: u64,
    /// The queries' sorted union of the sealed blocks and the active
    /// block; `insert` drops it.
    view: CachedView<RankIndex<T>>,
}

impl<T: Ord + Copy> SlidingWindowQuantiles<T> {
    /// Creates a summary over windows of `window` elements with rank
    /// error about `ε·window`.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1` and `window ≥ 16`.
    pub fn new(eps: f64, window: usize) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        assert!(window >= 16, "window too small: {window}");
        // Split the ε budget: half to the block-granularity boundary
        // (b ≥ 2/ε blocks), half to sparsification (b·stride ≤ εW/2).
        let b = ((2.0 / eps).ceil() as usize).clamp(2, window / 2);
        let block_size = window.div_ceil(b);
        let stride = ((eps * window as f64 / (2.0 * b as f64)).floor() as usize).max(1);
        Self {
            window,
            block_size,
            stride,
            blocks: std::collections::VecDeque::with_capacity(b + 1),
            active: Vec::with_capacity(block_size),
            n: 0,
            view: CachedView::default(),
        }
    }

    /// The configured window size.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of elements currently covered (≤ window + one block).
    pub fn covered(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.samples.len() * b.stride as usize)
            .sum::<usize>()
            + self.active.len()
    }

    fn seal_active(&mut self) {
        self.active.sort_unstable();
        let samples: Vec<T> = self
            .active
            .iter()
            .copied()
            .skip(self.stride / 2)
            .step_by(self.stride)
            .collect();
        self.blocks.push_back(Sealed {
            samples,
            stride: self.stride as u64,
        });
        self.active.clear();
        // Expire whole blocks beyond the window.
        let max_blocks = self.window.div_ceil(self.block_size);
        while self.blocks.len() > max_blocks {
            self.blocks.pop_front();
        }
    }

    fn live_buffers<'a>(
        blocks: &'a std::collections::VecDeque<Sealed<T>>,
        active: &'a [T],
    ) -> Vec<(&'a [T], u64)> {
        let mut bufs: Vec<(&[T], u64)> = blocks
            .iter()
            .map(|b| (b.samples.as_slice(), b.stride))
            .collect();
        if !active.is_empty() {
            bufs.push((active, 1));
        }
        bufs
    }

    /// The rank index over the sealed blocks plus the raw active block
    /// (sorted in place first, as sealing would), built on the first
    /// query after an insert.
    fn view(&mut self) -> &RankIndex<T> {
        self.view.get_or_build(|| {
            self.active.sort_unstable();
            RankIndex::build(&Self::live_buffers(&self.blocks, &self.active))
        })
    }
}

impl<T: Ord + Copy> sqs_util::audit::CheckInvariants for SlidingWindowQuantiles<T> {
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "SlidingWindow";
        ensure(
            self.block_size >= 1 && self.stride >= 1,
            ALG,
            "sliding.config_positive",
            || format!("block_size = {}, stride = {}", self.block_size, self.stride),
        )?;
        ensure(
            self.active.len() < self.block_size,
            ALG,
            "sliding.active_bound",
            || {
                format!(
                    "active block holds {} elements, seals at {}",
                    self.active.len(),
                    self.block_size
                )
            },
        )?;
        let max_blocks = self.window.div_ceil(self.block_size);
        ensure(
            self.blocks.len() <= max_blocks,
            ALG,
            "sliding.ring_bound",
            || {
                format!(
                    "{} sealed blocks exceed ring capacity {max_blocks}",
                    self.blocks.len()
                )
            },
        )?;
        // Every block seals at exactly `block_size` raw elements, so
        // sparsification yields a fixed sample count per block.
        let expect = (self.block_size - self.stride / 2).div_ceil(self.stride);
        for (i, b) in self.blocks.iter().enumerate() {
            ensure(
                b.stride == self.stride as u64,
                ALG,
                "sliding.block_stride",
                || {
                    format!(
                        "block {i} carries stride {}, configured {}",
                        b.stride, self.stride
                    )
                },
            )?;
            ensure(
                b.samples.len() == expect,
                ALG,
                "sliding.block_sample_count",
                || {
                    format!(
                        "block {i} holds {} samples, sparsification yields {expect}",
                        b.samples.len()
                    )
                },
            )?;
            ensure(
                b.samples.windows(2).all(|w| w[0] <= w[1]),
                ALG,
                "sliding.block_sorted",
                || format!("block {i} samples are out of order"),
            )?;
        }
        // Sparsification rounding can credit each block up to `stride`
        // extra elements, so the coverage bounds carry that slack.
        let slack = self.blocks.len() * self.stride;
        ensure(
            self.covered() <= self.window + 2 * self.block_size + slack,
            ALG,
            "sliding.coverage_bound",
            || {
                format!(
                    "covers {} elements, window {} + block {} + rounding slack {slack}",
                    self.covered(),
                    self.window,
                    self.block_size
                )
            },
        )?;
        ensure(
            self.covered() as u64 <= self.n + slack as u64,
            ALG,
            "sliding.coverage_le_n",
            || {
                format!(
                    "covers {} elements but only {} were ever inserted",
                    self.covered(),
                    self.n
                )
            },
        )?;
        self.view.ensure_fresh(
            &Self::live_buffers(&self.blocks, &self.active),
            ALG,
            "sliding.view_fresh",
        )
    }
}

impl<T: Ord + Copy> QuantileSummary<T> for SlidingWindowQuantiles<T> {
    fn insert(&mut self, x: T) {
        self.view.invalidate();
        self.n += 1;
        self.active.push(x);
        if self.active.len() >= self.block_size {
            self.seal_active();
        }
        #[cfg(any(test, feature = "audit"))]
        if sqs_util::audit::audit_point(self.n) {
            sqs_util::audit::CheckInvariants::assert_invariants(self);
        }
    }

    /// Total elements *ever seen* (window coverage is [`covered`]).
    ///
    /// [`covered`]: SlidingWindowQuantiles::covered
    fn n(&self) -> u64 {
        self.n
    }

    fn rank_estimate(&mut self, x: T) -> u64 {
        self.view().rank(x)
    }

    fn quantile(&mut self, phi: f64) -> Option<T> {
        crate::traits::check_phi(phi);
        self.view().quantile(phi)
    }

    fn name(&self) -> &'static str {
        "SlidingWindow"
    }
}

impl<T> SpaceUsage for SlidingWindowQuantiles<T> {
    fn space_bytes(&self) -> usize {
        let sealed: usize = self.blocks.iter().map(|b| b.samples.len() + 1).sum();
        words(sealed + self.active.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_util::exact::ExactQuantiles;
    use sqs_util::rng::Xoshiro256pp;

    #[test]
    fn tracks_recent_window_only() {
        let w = 10_000;
        let mut s = SlidingWindowQuantiles::new(0.05, w);
        // First half small values, second half large: the window must
        // forget the small ones.
        for x in 0..50_000u64 {
            s.insert(x);
        }
        let med = s.quantile(0.5).unwrap();
        assert!(med >= 40_000, "median {med} should reflect only the tail");
        assert!(s.covered() <= w + s.block_size);
    }

    #[test]
    fn error_within_eps_of_covered_window() {
        let eps = 0.05;
        let w = 20_000;
        let mut rng = Xoshiro256pp::new(1);
        let data: Vec<u64> = (0..100_000).map(|_| rng.next_below(1 << 20)).collect();
        let mut s = SlidingWindowQuantiles::new(eps, w);
        for &x in &data {
            s.insert(x);
        }
        // Ground truth over the covered suffix (jumping-window
        // semantics: covered() tells us exactly which suffix).
        let covered = s.covered();
        let oracle = ExactQuantiles::new(data[data.len() - covered..].to_vec());
        for phi in [0.1, 0.5, 0.9] {
            let q = s.quantile(phi).unwrap();
            let err = oracle.quantile_error(phi, q);
            assert!(err <= eps, "phi={phi}: err {err}");
        }
    }

    #[test]
    fn space_is_sublinear_in_window() {
        // The block scheme's footprint is Θ(b/ε) = Θ(1/ε²) samples, so
        // it only wins when 1/ε² ≪ W; check a representative setting.
        let w = 100_000;
        let mut s = SlidingWindowQuantiles::new(0.03, w);
        for x in 0..300_000u64 {
            s.insert(x);
        }
        assert!(
            s.space_bytes() < w * 4 / 4,
            "space {} not sublinear in window bytes {}",
            s.space_bytes(),
            w * 4
        );
    }

    #[test]
    fn small_stream_is_exact() {
        let mut s = SlidingWindowQuantiles::new(0.1, 1_000);
        for x in [5u64, 1, 9, 3, 7] {
            s.insert(x);
        }
        assert_eq!(s.quantile(0.5), Some(5));
        assert_eq!(s.covered(), 5);
    }

    #[test]
    fn empty_returns_none() {
        let mut s = SlidingWindowQuantiles::<u64>::new(0.1, 100);
        assert_eq!(s.quantile(0.5), None);
    }

    #[test]
    fn view_is_never_stale_under_any_interleaving() {
        use crate::buffers::oracle::{check_view_never_stale, sweep};
        type S = SlidingWindowQuantiles<u64>;
        fn expect(s: &mut S, phis: &[f64], xs: &[u64]) -> (Vec<Option<u64>>, Vec<u64>) {
            // The per-call sweep sorted the active block in place
            // before flattening.
            s.active.sort_unstable();
            sweep(&S::live_buffers(&s.blocks, &s.active), phis, xs)
        }
        for (universe, seed) in [(48, 1), (1 << 20, 2)] {
            check_view_never_stale(S::new(0.2, 400), universe, seed, expect, &[]);
        }
    }

    #[test]
    fn grid_matches_pointwise() {
        let mut s = SlidingWindowQuantiles::new(0.05, 5_000);
        let mut rng = Xoshiro256pp::new(2);
        for _ in 0..20_000 {
            s.insert(rng.next_below(1000));
        }
        for (phi, v) in s.quantile_grid(0.05) {
            assert_eq!(Some(v), s.quantile(phi), "phi={phi}");
        }
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    fn filled() -> SlidingWindowQuantiles<u64> {
        let mut s = SlidingWindowQuantiles::new(0.05, 10_000);
        for x in 0..30_000u64 {
            s.insert(x);
        }
        s
    }

    #[test]
    fn auditor_catches_unsorted_block() {
        let mut s = filled();
        let b = s.blocks.front_mut().expect("a sealed block");
        b.samples.reverse();
        let err = s.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "SlidingWindow");
        assert_eq!(err.invariant, "sliding.block_sorted");
    }

    #[test]
    fn auditor_catches_stride_mismatch() {
        let mut s = filled();
        s.blocks.front_mut().expect("a sealed block").stride += 1;
        assert_eq!(
            s.check_invariants().unwrap_err().invariant,
            "sliding.block_stride"
        );
    }
}
