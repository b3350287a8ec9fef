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

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "indices and narrowing casts stay within the bounds `check_invariants` audits"
)]

use crate::buffers::Pool;
use crate::QuantileSummary;
use sqs_util::space::SpaceUsage;

/// The deterministic MRL98 summary (comparison-based; requires an
/// a-priori stream-length hint).
#[derive(Debug, Clone)]
pub struct Mrl98<T> {
    eps: f64,
    /// `b` buffers of `k` samples, sized by [`size_parameters`].
    pub(crate) pool: Pool<T>,
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
            pool: Pool::new(b, k),
        }
    }

    /// The configured ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Number of buffers `b`.
    pub fn buffer_count(&self) -> usize {
        self.pool.buffers.len()
    }

    /// Buffer capacity `k`.
    pub fn buffer_size(&self) -> usize {
        self.pool.cap
    }

    /// The lowest level among the full buffers.
    fn min_level(&self) -> Option<u32> {
        let full = self.pool.buffers.iter().filter(|b| b.full);
        full.map(|b| b.level).min()
    }

    /// NEW: starts a raw (weight 1) fill in an empty buffer, after a
    /// COLLAPSE if none is empty. The fill takes level 0 while at
    /// least two buffers are empty, else the current minimum level.
    fn start_buffer(&mut self) {
        let empties = self.pool.empty_slots().count();
        if empties == 0 {
            self.collapse();
        }
        let level = if empties >= 2 {
            0
        } else {
            self.min_level().unwrap_or(0)
        };
        let idx = (self.pool.empty_slots().next())
            .expect("MRL98 invariant: collapse always frees a buffer");
        self.pool.start_fill(idx, level, 1);
    }

    /// Deterministic COLLAPSE of all minimum-level buffers at the
    /// midpoint offset; the output moves to that level + 1.
    fn collapse(&mut self) {
        let lmin = self
            .min_level()
            .expect("MRL98 invariant: collapse requires \u{2265} 2 full buffers");
        let bufs = &self.pool.buffers;
        let chosen: Vec<usize> = (0..bufs.len())
            .filter(|&i| bufs[i].full && bufs[i].level == lmin)
            .collect();
        debug_assert!(
            chosen.len() >= 2,
            "the NEW policy guarantees ≥ 2 at the min level"
        );
        self.pool.collapse(&chosen, |stride| stride / 2);
    }
}

impl<T: Ord + Copy> sqs_util::audit::CheckInvariants for Mrl98<T> {
    /// MRL98 invariants (Manku et al. '98): the pool's own rules
    /// (`buffers.*`: positive buffer weights, the `full ⇔ |data| = k`
    /// fill discipline), and — because NEW stores raw elements at
    /// weight 1 and the deterministic COLLAPSE of full buffers conserves
    /// `k·Σw` exactly — the represented mass `Σ weight·|data|` equals
    /// the stream length `n` at all times.
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "MRL98";
        let pool = &self.pool;
        ensure(
            self.eps > 0.0 && self.eps < 1.0,
            ALG,
            "mrl98.eps_range",
            || format!("eps = {} outside (0,1)", self.eps),
        )?;
        ensure(pool.buffers.len() >= 3, ALG, "mrl98.buffer_count", || {
            format!(
                "{} buffers — the NEW/COLLAPSE schedule needs ≥ 3",
                pool.buffers.len()
            )
        })?;
        ensure(pool.cap >= 2, ALG, "mrl98.buffer_size", || {
            format!("k = {} below the minimum of 2", pool.cap)
        })?;
        let mass = pool.audit(ALG)?;
        for (i, b) in pool.buffers.iter().enumerate() {
            if Some(i) != pool.fill && !b.data.is_empty() {
                ensure(
                    b.weight == 1 || b.level >= 1,
                    ALG,
                    "mrl98.collapse_level",
                    || format!("buffer {i}: weight {} > 1 at leaf level 0", b.weight),
                )?;
            }
        }
        ensure(mass == pool.n, ALG, "mrl98.mass_conservation", || {
            format!(
                "represented mass {mass} ≠ n = {} — COLLAPSE lost or invented mass",
                pool.n
            )
        })?;
        let Some(idx) = pool.fill else {
            return Ok(());
        };
        ensure(
            pool.buffers[idx].weight == 1,
            ALG,
            "mrl98.fill_weight",
            || {
                format!(
                    "fill buffer {idx} has weight {} ≠ 1 (NEW stores raw elements)",
                    pool.buffers[idx].weight
                )
            },
        )
    }
}

impl<T: Ord + Copy> QuantileSummary<T> for Mrl98<T> {
    fn insert(&mut self, x: T) {
        if self.pool.fill.is_none() {
            self.start_buffer();
        }
        self.pool.n += 1;
        self.pool.push(x);
        #[cfg(any(test, feature = "audit"))]
        if sqs_util::audit::audit_point(self.pool.n) {
            sqs_util::audit::CheckInvariants::assert_invariants(self);
        }
    }

    fn n(&self) -> u64 {
        self.pool.n
    }

    fn rank_estimate(&mut self, x: T) -> u64 {
        self.pool.rank(x)
    }

    fn quantile(&mut self, phi: f64) -> Option<T> {
        self.pool.quantiles(&[phi]).pop().flatten()
    }

    fn quantiles(&mut self, phis: &[f64]) -> Vec<Option<T>> {
        self.pool.quantiles(phis)
    }

    fn name(&self) -> &'static str {
        "MRL98"
    }
}

impl<T> SpaceUsage for Mrl98<T> {
    fn space_bytes(&self) -> usize {
        self.pool.space_bytes()
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
    fn a_query_leaves_the_fill_in_arrival_order() {
        let mut s = Mrl98::new(0.1, 1_000);
        let rows = [9u64, 2, 7, 2, 0];
        rows.iter().for_each(|&x| s.insert(x));
        assert_eq!(s.quantiles(&[0.3, 0.9]), [Some(2), Some(9)]);
        assert_eq!(s.rank_estimate(7), 3);
        let fill = s.pool.fill.expect("a partial fill");
        assert_eq!(s.pool.buffers[fill].data, rows);
    }

    #[test]
    fn stable_runs_follow_the_generation() {
        use crate::buffers::oracle::check_runs_follow_the_generation;
        use crate::buffers::Runs;
        for (universe, seed) in [(48, 1), (1 << 20, 2)] {
            let s = Mrl98::new(0.1, 50_000);
            let cap = s.buffer_size() as u64;
            let runs: for<'a> fn(&'a Mrl98<u64>) -> Runs<'a, u64> = |s| s.pool.runs();
            check_runs_follow_the_generation(s, universe, seed, runs, cap, &[]);
        }
    }

    #[test]
    fn answers_match_the_sweep_under_any_interleaving() {
        use crate::buffers::live_buffers;
        use crate::buffers::oracle::{check_answers_under_interleavings, sweep};
        type S = Mrl98<u64>;
        fn expect(s: &mut S, phis: &[f64], xs: &[u64]) -> (Vec<Option<u64>>, Vec<u64>) {
            sweep(&live_buffers(&s.pool.buffers), phis, xs)
        }
        for (universe, seed) in [(48, 1), (1 << 20, 2)] {
            check_answers_under_interleavings(S::new(0.2, 5_000), universe, seed, expect, &[]);
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
            .pool
            .buffers
            .iter_mut()
            .find(|b| b.full && b.weight >= 1)
            .expect("a full buffer");
        b.weight += 1;
        let err = s.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "MRL98");
        assert_eq!(err.invariant, "mrl98.mass_conservation");
    }
}
