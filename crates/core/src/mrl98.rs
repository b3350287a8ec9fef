//! `MRL98` — Manku, Rajagopalan & Lindsay's *deterministic*
//! one-pass summary (SIGMOD'98), the pre-GK state of the art the study
//! cites as "previously demonstrated to be outperformed by the GK
//! algorithm" (§1.2.1). Implemented so that claim is checkable.
//!
//! The framework is NEW/COLLAPSE over `b` buffers of `k` elements,
//! each buffer carrying a *level* (its height in the collapse tree)
//! and a *weight* (how many stream elements each of its samples
//! represents):
//!
//! * **NEW** fills an empty buffer with `k` raw elements (weight 1).
//!   While at least two buffers are empty the new buffer takes level
//!   0; when exactly one is empty it takes the current minimum level —
//!   this is the MRL98 trick that keeps the collapse tree shallow.
//! * **COLLAPSE** (when nothing is empty) merges *all* buffers at the
//!   minimum level into one buffer at that level + 1, weight summed,
//!   selecting elements at the deterministic *midpoint* positions of
//!   the weight-expanded sequence. Determinism is what makes MRL98
//!   deterministic — and what costs it the extra log factor in space
//!   relative to MRL99's randomized offsets.
//!
//! MRL98 needs the stream length in advance to size `(b, k)`: the
//! collapse-tree height `h` it will reach on `n` elements determines
//! the error `≈ (h−2)/(2k)`. Rather than transcribe the paper's
//! binomial capacity lemma, [`tree_height_for`] *simulates* the
//! NEW/COLLAPSE schedule (levels only — O(#fills) time) to find the
//! exact height, and the constructor searches the smallest `b·k` whose
//! height keeps the error within ε. Streams longer than `n_hint` keep
//! working but the guarantee degrades (documented; this awkwardness is
//! why the paper's lineage moved on to MRL99 and GK).

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
// ^ audited: indices and casts here are bounded by structural
// invariants (see `check_invariants` impls and docs/ANALYSIS.md);
// this module is on the `cargo xtask check` allowlist.

use crate::buffers::{weighted_collapse, CachedView, RankIndex};
use crate::QuantileSummary;
use sqs_util::space::{words, SpaceUsage};

#[derive(Debug, Clone)]
struct Buffer<T> {
    level: u32,
    weight: u64,
    data: Vec<T>,
    full: bool,
}

/// The deterministic MRL98 summary (comparison-based; requires an
/// a-priori stream-length hint).
#[derive(Debug, Clone)]
pub struct Mrl98<T> {
    eps: f64,
    k: usize,
    buffers: Vec<Buffer<T>>,
    fill: Option<usize>,
    n: u64,
    /// The queries' sorted union of `buffers`; every mutator drops it.
    view: CachedView<RankIndex<T>>,
}

/// Simulates the NEW/COLLAPSE level schedule for `fills` leaf-buffer
/// fills with `b` buffers and returns the maximum level any buffer
/// reaches (the collapse-tree height).
fn tree_height_for(b: usize, fills: u64) -> u32 {
    let mut levels: Vec<u32> = Vec::with_capacity(b); // levels of full buffers
    let mut max_level = 0u32;
    let mut remaining = fills;
    while remaining > 0 {
        let empties = b - levels.len();
        if empties >= 2 {
            levels.push(0);
            remaining -= 1;
        } else if empties == 1 {
            let lmin = levels.iter().copied().min().unwrap_or(0);
            levels.push(lmin);
            remaining -= 1;
        } else {
            let lmin = *levels
                .iter()
                .min()
                .expect("MRL98 invariant: collapse sees at least one full buffer");
            levels.retain(|&l| l != lmin);
            levels.push(lmin + 1);
            max_level = max_level.max(lmin + 1);
        }
    }
    max_level
}

/// Searches the smallest-memory `(b, k)` such that the simulated
/// collapse-tree height `h` on `⌈n_hint/k⌉` fills keeps the collapse
/// error within ε. MRL98's analysis bounds the error of their exact
/// policy by `(h−2)/(2k)`; our level-scheduled variant's weights
/// differ slightly, so we budget the conservative `h/(2k)` (verified
/// empirically by the test matrix).
fn size_parameters(eps: f64, n_hint: u64) -> (usize, usize) {
    let mut best: Option<(usize, usize)> = None;
    for b in 3..=30usize {
        // Binary-search the smallest k that satisfies the error bound.
        let (mut lo, mut hi) = (2usize, (n_hint as usize).max(4));
        // Feasibility at hi: 2 fills max → height ≤ 1 → always fine.
        while lo < hi {
            let k = (lo + hi) / 2;
            let fills = n_hint.div_ceil(k as u64);
            let h = tree_height_for(b, fills);
            let err = if h == 0 {
                0.0
            } else {
                h as f64 / (2.0 * k as f64)
            };
            if err <= eps {
                hi = k;
            } else {
                lo = k + 1;
            }
        }
        let k = hi;
        match best {
            Some((bb, bk)) if bb * bk <= b * k => {}
            _ => best = Some((b, k)),
        }
    }
    best.expect("MRL98 invariant: (b, k) sizing search covers every n_hint")
}

impl<T: Ord + Copy> Mrl98<T> {
    /// Creates a summary for error target ε over streams of roughly
    /// `n_hint` elements.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1` and `n_hint > 0`.
    pub fn new(eps: f64, n_hint: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        assert!(n_hint > 0, "n_hint must be positive");
        let (b, k) = size_parameters(eps, n_hint);
        Self {
            eps,
            k,
            buffers: (0..b)
                .map(|_| Buffer {
                    level: 0,
                    weight: 1,
                    data: Vec::with_capacity(k),
                    full: false,
                })
                .collect(),
            fill: None,
            n: 0,
            view: CachedView::default(),
        }
    }

    /// The configured ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Number of buffers `b`.
    pub fn buffer_count(&self) -> usize {
        self.buffers.len()
    }

    /// Buffer capacity `k`.
    pub fn buffer_size(&self) -> usize {
        self.k
    }

    /// Deterministic COLLAPSE of all minimum-level buffers at the
    /// midpoint offset; the output moves to that level + 1.
    fn collapse(&mut self) {
        let lmin = self
            .buffers
            .iter()
            .filter(|b| b.full)
            .map(|b| b.level)
            .min()
            .expect("MRL98 invariant: collapse requires \u{2265} 2 full buffers");
        let chosen: Vec<usize> = self
            .buffers
            .iter()
            .enumerate()
            .filter(|(_, b)| b.full && b.level == lmin)
            .map(|(i, _)| i)
            .collect();
        debug_assert!(
            chosen.len() >= 2,
            "the NEW policy guarantees ≥ 2 at the min level"
        );
        let inputs: Vec<(&[T], u64)> = chosen
            .iter()
            .map(|&i| (self.buffers[i].data.as_slice(), self.buffers[i].weight))
            .collect();
        let total_w: u64 = inputs.iter().map(|(d, w)| d.len() as u64 * w).sum();
        let stride = (total_w / self.k as u64).max(1);
        let (merged, _) = weighted_collapse(&inputs, self.k, stride / 2);
        let new_weight: u64 = chosen.iter().map(|&i| self.buffers[i].weight).sum();
        let target = chosen[0];
        self.buffers[target].data = merged;
        self.buffers[target].weight = new_weight;
        self.buffers[target].level = lmin + 1;
        for &i in &chosen[1..] {
            self.buffers[i].data.clear();
            self.buffers[i].full = false;
            self.buffers[i].weight = 1;
            self.buffers[i].level = 0;
        }
    }

    fn live_buffers(buffers: &[Buffer<T>]) -> Vec<(&[T], u64)> {
        buffers
            .iter()
            .filter(|b| !b.data.is_empty())
            .map(|b| (b.data.as_slice(), b.weight))
            .collect()
    }

    /// The rank index over the live buffers, sorted on the first query
    /// after a mutation. The partial fill buffer participates with
    /// weight 1 and is sorted in place first, as it would be on
    /// filling up.
    fn view(&mut self) -> &RankIndex<T> {
        self.view.get_or_build(|| {
            if let Some(idx) = self.fill {
                self.buffers[idx].data.sort_unstable();
            }
            RankIndex::build(&Self::live_buffers(&self.buffers))
        })
    }
}

impl<T: Ord + Copy> sqs_util::audit::CheckInvariants for Mrl98<T> {
    /// MRL98 invariants (Manku et al. '98): positive buffer weights,
    /// the `full ⇔ |data| = k` fill discipline, and — because NEW
    /// stores raw elements at weight 1 and the deterministic COLLAPSE
    /// of full buffers conserves `k·Σw` exactly — the represented mass
    /// `Σ weight·|data|` equals the stream length `n` at all times;
    /// a cached rank index equals a rebuild from the buffers.
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "MRL98";
        ensure(
            self.eps > 0.0 && self.eps < 1.0,
            ALG,
            "mrl98.eps_range",
            || format!("eps = {} outside (0,1)", self.eps),
        )?;
        ensure(self.buffers.len() >= 3, ALG, "mrl98.buffer_count", || {
            format!(
                "{} buffers — the NEW/COLLAPSE schedule needs ≥ 3",
                self.buffers.len()
            )
        })?;
        ensure(self.k >= 2, ALG, "mrl98.buffer_size", || {
            format!("k = {} below the minimum of 2", self.k)
        })?;
        let mut mass = 0u64;
        for (i, b) in self.buffers.iter().enumerate() {
            ensure(b.weight >= 1, ALG, "mrl98.weight_positive", || {
                format!("buffer {i} has weight 0")
            })?;
            ensure(b.data.len() <= self.k, ALG, "mrl98.buffer_overflow", || {
                format!("buffer {i} holds {} > k = {}", b.data.len(), self.k)
            })?;
            ensure(
                b.full == (b.data.len() == self.k),
                ALG,
                "mrl98.fill_flag",
                || {
                    format!(
                        "buffer {i}: full = {} but |data| = {} (k = {})",
                        b.full,
                        b.data.len(),
                        self.k
                    )
                },
            )?;
            if Some(i) != self.fill && !b.data.is_empty() {
                ensure(
                    b.weight == 1 || b.level >= 1,
                    ALG,
                    "mrl98.collapse_level",
                    || format!("buffer {i}: weight {} > 1 at leaf level 0", b.weight),
                )?;
            }
            mass += b.data.len() as u64 * b.weight;
        }
        ensure(mass == self.n, ALG, "mrl98.mass_conservation", || {
            format!(
                "represented mass {mass} ≠ n = {} — COLLAPSE lost or invented mass",
                self.n
            )
        })?;
        if let Some(idx) = self.fill {
            ensure(idx < self.buffers.len(), ALG, "mrl98.fill_index", || {
                format!("fill index {idx} out of range")
            })?;
            ensure(!self.buffers[idx].full, ALG, "mrl98.fill_not_full", || {
                format!("fill buffer {idx} is already marked full")
            })?;
            ensure(
                self.buffers[idx].weight == 1,
                ALG,
                "mrl98.fill_weight",
                || {
                    format!(
                        "fill buffer {idx} has weight {} ≠ 1 (NEW stores raw elements)",
                        self.buffers[idx].weight
                    )
                },
            )?;
        }
        self.view
            .ensure_fresh(&Self::live_buffers(&self.buffers), ALG, "mrl98.view_fresh")
    }
}

impl<T: Ord + Copy> QuantileSummary<T> for Mrl98<T> {
    fn insert(&mut self, x: T) {
        self.view.invalidate();
        if self.fill.is_none() {
            let empties: Vec<usize> = self
                .buffers
                .iter()
                .enumerate()
                .filter(|(_, b)| !b.full && b.data.is_empty())
                .map(|(i, _)| i)
                .collect();
            let idx = match empties.len() {
                0 => {
                    self.collapse();
                    self.buffers
                        .iter()
                        .position(|b| !b.full && b.data.is_empty())
                        .expect("MRL98 invariant: collapse always frees a buffer")
                }
                _ => empties[0],
            };
            // NEW policy: level 0 while ≥ 2 empties, else the min level.
            let level = if empties.len() >= 2 {
                0
            } else {
                self.buffers
                    .iter()
                    .filter(|b| b.full)
                    .map(|b| b.level)
                    .min()
                    .unwrap_or(0)
            };
            self.buffers[idx].level = level;
            self.buffers[idx].weight = 1;
            self.fill = Some(idx);
        }
        self.n += 1;
        let idx = self
            .fill
            .expect("MRL98 invariant: fill buffer selected before append");
        self.buffers[idx].data.push(x);
        if self.buffers[idx].data.len() == self.k {
            self.buffers[idx].data.sort_unstable();
            self.buffers[idx].full = true;
            self.fill = None;
        }
        #[cfg(any(test, feature = "audit"))]
        if sqs_util::audit::audit_point(self.n) {
            sqs_util::audit::CheckInvariants::assert_invariants(self);
        }
    }

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
        "MRL98"
    }
}

impl<T> SpaceUsage for Mrl98<T> {
    fn space_bytes(&self) -> usize {
        words(self.buffers.len() * (self.k + 2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_util::exact::{observed_errors, probe_phis, ExactQuantiles};

    #[test]
    fn height_simulation_sane() {
        // Collapse is lazy (triggered by needing an empty buffer), so
        // after exactly b fills the height is still 0; the (b+1)-th
        // fill forces the first collapse.
        assert_eq!(tree_height_for(5, 5), 0);
        assert_eq!(tree_height_for(5, 6), 1);
        // Heights grow slowly (logarithmically-ish) with fills.
        let h1 = tree_height_for(10, 100);
        let h2 = tree_height_for(10, 10_000);
        assert!(h1 < h2);
        assert!(h2 < 25, "h2 = {h2}");
        assert_eq!(tree_height_for(5, 3), 0); // never fills all buffers
    }

    #[test]
    fn sizing_respects_error_bound() {
        for (eps, n) in [(0.1, 50_000u64), (0.05, 200_000), (0.01, 1_000_000)] {
            let (b, k) = size_parameters(eps, n);
            let h = tree_height_for(b, n.div_ceil(k as u64));
            let err = if h == 0 {
                0.0
            } else {
                h as f64 / (2.0 * k as f64)
            };
            assert!(err <= eps, "eps={eps} n={n} b={b} k={k} h={h} err={err}");
        }
    }

    fn max_err(eps: f64, data: Vec<u64>, n_hint: u64) -> f64 {
        let mut s = Mrl98::new(eps, n_hint);
        for &x in &data {
            s.insert(x);
        }
        let oracle = ExactQuantiles::new(data);
        let answers: Vec<(f64, u64)> = probe_phis(eps)
            .into_iter()
            .map(|p| (p, s.quantile(p).unwrap()))
            .collect();
        observed_errors(&oracle, &answers).0
    }

    #[test]
    fn error_within_eps_random_order() {
        let eps = 0.05;
        let n = 100_000u64;
        let mut rng = sqs_util::rng::Xoshiro256pp::new(8);
        let data: Vec<u64> = (0..n).map(|_| rng.next_below(1 << 26)).collect();
        let e = max_err(eps, data, n);
        assert!(e <= eps, "max err {e} > {eps}");
    }

    #[test]
    fn error_within_eps_sorted_order() {
        let eps = 0.1;
        let data: Vec<u64> = (0..50_000).collect();
        let e = max_err(eps, data, 50_000);
        assert!(e <= eps, "max err {e} > {eps}");
    }

    #[test]
    fn error_within_eps_small_eps() {
        let eps = 0.02;
        let data: Vec<u64> = (0..200_000u64).map(|i| (i * 48271) % 1_000_003).collect();
        let e = max_err(eps, data, 200_000);
        assert!(e <= eps, "max err {e} > {eps}");
    }

    #[test]
    fn deterministic_end_to_end() {
        let data: Vec<u64> = (0..50_000).map(|i| (i * 7919) % 10_007).collect();
        let mut a = Mrl98::new(0.05, 50_000);
        let mut b = Mrl98::new(0.05, 50_000);
        for &x in &data {
            a.insert(x);
            b.insert(x);
        }
        for phi in [0.1, 0.5, 0.9] {
            assert_eq!(a.quantile(phi), b.quantile(phi));
        }
    }

    #[test]
    fn survives_stream_beyond_hint() {
        // Beyond its sized capacity the guarantee lapses; the contract
        // is graceful degradation: no panic, exact counts, in-range
        // answers.
        let mut s = Mrl98::new(0.1, 1_000);
        for x in 0..50_000u64 {
            s.insert(x);
        }
        assert_eq!(s.n(), 50_000);
        assert!(s.quantile(0.5).unwrap() < 50_000);
    }

    #[test]
    fn partial_buffer_participates() {
        let mut s = Mrl98::new(0.1, 1_000);
        for x in 0..10u64 {
            s.insert(x);
        }
        assert_eq!(s.quantile(0.5), Some(5));
    }

    #[test]
    fn view_is_never_stale_under_any_interleaving() {
        use crate::buffers::oracle::{check_view_never_stale, sweep};
        type S = Mrl98<u64>;
        fn expect(s: &mut S, phis: &[f64], xs: &[u64]) -> (Vec<Option<u64>>, Vec<u64>) {
            // The per-call sweep sorted the partial fill buffer in
            // place before flattening.
            if let Some(idx) = s.fill {
                s.buffers[idx].data.sort_unstable();
            }
            sweep(&S::live_buffers(&s.buffers), phis, xs)
        }
        for (universe, seed) in [(48, 1), (1 << 20, 2)] {
            check_view_never_stale(S::new(0.2, 5_000), universe, seed, expect, &[]);
        }
    }

    #[test]
    fn empty_is_none() {
        let mut s = Mrl98::<u64>::new(0.1, 100);
        assert_eq!(s.quantile(0.5), None);
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    #[test]
    fn auditor_catches_weight_tampering() {
        let mut s = Mrl98::<u64>::new(0.05, 20_000);
        for x in 0..20_000u64 {
            s.insert(x);
        }
        let b = s
            .buffers
            .iter_mut()
            .find(|b| b.full && b.weight >= 1)
            .expect("a full buffer");
        b.weight += 1;
        let err = s.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "MRL98");
        assert_eq!(err.invariant, "mrl98.mass_conservation");
    }

    #[test]
    fn auditor_catches_fill_flag_lie() {
        let mut s = Mrl98::<u64>::new(0.05, 20_000);
        for x in 0..20_000u64 {
            s.insert(x);
        }
        let b = s
            .buffers
            .iter_mut()
            .find(|b| b.full)
            .expect("a full buffer");
        b.full = false;
        assert_eq!(
            s.check_invariants().unwrap_err().invariant,
            "mrl98.fill_flag"
        );
    }
}
