//! The generic dyadic quantile scaffold shared by every turnstile
//! algorithm (§3).
//!
//! Level `i` partitions the universe into cells of width `2^i`;
//! updating element `x` touches its ancestor cell `x >> i` at every
//! level that keeps counters; the rank of `x` is the summed estimate
//! over the cells of the prefix decomposition of `[0, x)`; a
//! φ-quantile is found by binary search on the universe. Levels whose
//! reduced universe is no larger than the sketch's counter budget store
//! exact frequencies instead (§3), which also anchors the OLS
//! post-processing.
//!
//! **Every other sketched level.** In the run of sketched levels
//! between the truncation cutoff and the exact levels, a level at an
//! odd offset from the cutoff keeps no counters: its cell `(ℓ, i)` is
//! answered as `(ℓ−1, 2i) + (ℓ−1, 2i+1)`. That embeds a 4-adic tree in
//! the dyadic one — an update touches half the sketches, a rank sums
//! ≤ 3 cells of each stored level of a pair — while cells,
//! `prefix_decomposition` and Post's binary tree keep their meaning
//! (DESIGN.md §3 prices the variance).

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "level and node indices stay within the dyadic layout `check_invariants` audits"
)]

use crate::TurnstileQuantiles;
use sqs_sketch::{ExactCounts, FrequencySketch, MergeableSketch};
use sqs_util::dyadic::{Cell, DyadicUniverse};
use sqs_util::space::{words, SpaceUsage};

/// Per-level storage: exact counters for small reduced universes, a
/// sketch otherwise — or nothing at all for levels below the
/// truncation cutoff and for every other sketched level (see
/// [`slot`]).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Level<S> {
    Exact(ExactCounts),
    Sketch(S),
    /// A sketched level at an odd offset from the cutoff: no counters
    /// are kept. Its cell `(ℓ, i)` is the sum of `(ℓ−1, 2i)` and
    /// `(ℓ−1, 2i+1)`, which the stored level below holds.
    Derived,
    /// A level below the truncation cutoff: no counters are kept. Its
    /// mass is recorded by the coarser levels above (every update
    /// still touches them), and queries round to multiples of
    /// `2^cutoff`, never addressing a truncated cell.
    Truncated,
}

/// What the layout puts at one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Truncated,
    Sketch,
    Derived,
    Exact,
}

/// The layout rule, written once: nothing below the cutoff, exact
/// counters from `exact_from` up, and in the sketched run between them
/// a sketch at every even offset from the cutoff and a derived level at
/// every odd one.
fn slot(level: u32, cutoff: u32, exact_from: u32) -> Slot {
    if level < cutoff {
        Slot::Truncated
    } else if level >= exact_from {
        Slot::Exact
    } else if (level - cutoff) % 2 == 1 {
        Slot::Derived
    } else {
        Slot::Sketch
    }
}

impl<S> Level<S> {
    fn slot(&self) -> Slot {
        match self {
            Level::Exact(_) => Slot::Exact,
            Level::Sketch(_) => Slot::Sketch,
            Level::Derived => Slot::Derived,
            Level::Truncated => Slot::Truncated,
        }
    }
}

/// The default truncation cutoff for an ε-accuracy structure over a
/// `2^log_u` universe: truncate the levels whose cells are more than
/// ~2^10 times finer than the ε·n error budget's natural resolution.
///
/// The error argument (docs/PERF.md §7): a quantile query answered at
/// granularity `2^cutoff` can misplace at most the mass of one
/// width-`2^cutoff` cell relative to the untruncated answer. With
/// `cutoff = ⌊log₂(ε·u)⌋ − 10`, a *uniform-ish* stream puts about
/// `ε·n/2^10` mass in such a cell — three orders of magnitude inside
/// the budget — and the property tests in `tests/batch_props.rs`
/// enforce the cell-straddle rank bound on adversarial (skewed,
/// deletion-heavy) streams too. Meanwhile the update/query level walk
/// drops `cutoff` of its `log u` levels — at the paper's experiment
/// scale (ε = 0.01, log u = 32) that is 15 of the 18 sketch levels.
#[must_use]
pub fn default_level_cutoff(eps: f64, log_u: u32) -> u32 {
    if eps.is_nan() || eps <= 0.0 || log_u < 2 {
        return 0;
    }
    let raw = (eps * (f64::from(log_u)).exp2()).log2().floor() - 10.0;
    if raw <= 0.0 {
        return 0;
    }
    (raw as u32).min(log_u - 1)
}

/// The dyadic quantile structure over sketches of type `S`.
#[derive(Debug, Clone)]
pub struct DyadicQuantiles<S> {
    universe: DyadicUniverse,
    /// `levels[i]` summarizes the reduced universe at level `i`
    /// (`i = 0` is the singletons; the root level `log_u` is implied by
    /// the exact live count and never stored), laid out by [`slot`].
    levels: Vec<Level<S>>,
    /// Leading truncated-level count; updates and queries start their
    /// level walk here and queries align to multiples of `2^cutoff`.
    cutoff: u32,
    /// The finest exact level (`log_u` when none is stored).
    exact_from: u32,
    live: i64,
    name: &'static str,
    /// Bumped on every state change (updates, merges) — the cheap
    /// staleness key for caches layered on top of the structure (the
    /// Post OLS factorization cache keys on it). Not summary state:
    /// excluded from equality, reset by wire decode.
    version: u64,
    #[cfg(any(test, feature = "audit"))]
    updates: u64,
}

// Equality is summary state only — the audit-only `updates` diagnostic
// and the `version` cache key are excluded, since they legitimately
// differ between paths that reach the same state (wire decode starts
// them at zero, shard merges sum `updates`).
impl<S: PartialEq> PartialEq for DyadicQuantiles<S> {
    fn eq(&self, other: &Self) -> bool {
        self.universe == other.universe
            && self.levels == other.levels
            && self.live == other.live
            && self.name == other.name
    }
}

impl<S: FrequencySketch> DyadicQuantiles<S> {
    /// Builds the structure. The bottom `cutoff` levels (clamped to
    /// `log_u − 1`) are truncated — see [`default_level_cutoff`] for
    /// the error argument; a level above them is exact when its reduced
    /// universe has at most `sketch_counters` cells; the sketched run
    /// between keeps a sketch at every other level, built by
    /// `make_sketch(reduced_universe, level)` — the only levels it is
    /// called for.
    pub fn new(
        log_u: u32,
        cutoff: u32,
        sketch_counters: u64,
        mut make_sketch: impl FnMut(u64, u32) -> S,
        name: &'static str,
    ) -> Self {
        let universe = DyadicUniverse::new(log_u);
        let cutoff = cutoff.min(log_u - 1);
        // Reduced universes shrink as levels rise, so once a level
        // qualifies for exact counters every higher one does too.
        let exact_from = (cutoff..log_u)
            .find(|&level| universe.cells_at_level(level) <= sketch_counters)
            .unwrap_or(log_u);
        let levels = (0..log_u)
            .map(|level| {
                let cells = universe.cells_at_level(level);
                match slot(level, cutoff, exact_from) {
                    Slot::Truncated => Level::Truncated,
                    Slot::Derived => Level::Derived,
                    Slot::Sketch => Level::Sketch(make_sketch(cells, level)),
                    Slot::Exact => Level::Exact(ExactCounts::new(cells)),
                }
            })
            .collect();
        Self {
            universe,
            levels,
            cutoff,
            exact_from,
            live: 0,
            name,
            version: 0,
            #[cfg(any(test, feature = "audit"))]
            updates: 0,
        }
    }

    /// The truncation cutoff: the number of bottom levels that keep no
    /// counters (0 when truncation is off).
    #[must_use]
    pub fn level_cutoff(&self) -> u32 {
        self.cutoff
    }

    /// The state-change counter: bumped by every update and merge.
    /// Caches layered on the structure (Post's OLS factorization) key
    /// on it to detect staleness without hashing counters.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The universe descriptor.
    pub fn universe(&self) -> DyadicUniverse {
        self.universe
    }

    /// Whether `level` stores exact frequencies.
    ///
    /// Level `log_u` (the root) is always exact: its only cell is the
    /// live count.
    pub fn is_exact_level(&self, level: u32) -> bool {
        level >= self.exact_from
    }

    /// Whether `level` is derived: answered from the stored level below
    /// it, with no counters of its own.
    pub fn is_derived_level(&self, level: u32) -> bool {
        slot(level, self.cutoff, self.exact_from) == Slot::Derived
    }

    /// The levels that keep counters, bottom first, as `(level, span)`:
    /// a sketched level answers for itself and the derived level above
    /// it (`span` 2) unless the exact run starts right above it; an
    /// exact level answers for itself (`span` 1). `update`, `fold`,
    /// `rank_signed` and `rank_signed_batch` all walk this, so the
    /// derived-level rule is read in one place.
    fn stored(&self) -> impl Iterator<Item = (u32, u32)> {
        let (cutoff, exact_from) = (self.cutoff, self.exact_from);
        let keeps = move |level| slot(level, cutoff, exact_from) != Slot::Derived;
        (cutoff..self.universe.log_u())
            .filter(move |&level| keeps(level))
            .map(move |level| (level, if keeps(level + 1) { 1 } else { 2 }))
    }

    /// Estimated number of live elements in a dyadic cell (may be
    /// negative for unbiased sketches). A derived cell is the sum of
    /// its two children.
    ///
    /// # Panics
    /// Panics on a cell below the truncation cutoff — truncated levels
    /// keep no counters, and every internal query path aligns to
    /// `2^cutoff` before decomposing, so reaching one is a caller bug.
    pub fn cell_estimate(&self, cell: Cell) -> i64 {
        if cell.level == self.universe.log_u() {
            debug_assert_eq!(cell.index, 0);
            return self.live;
        }
        match &self.levels[cell.level as usize] {
            Level::Exact(e) => e.estimate(cell.index),
            Level::Sketch(s) => s.estimate(cell.index),
            Level::Derived => {
                let (l, r) = cell.children();
                self.cell_estimate(l) + self.cell_estimate(r)
            }
            Level::Truncated => panic!(
                "Dyadic: cell estimate at level {} is below the truncation cutoff {}",
                cell.level, self.cutoff
            ),
        }
    }

    /// The sketch's own variance estimate for cells at `level` (0 for
    /// exact levels, ∞ for derived ones: a derived value carries no
    /// observation of its own); used by the OLS post-processing.
    pub fn level_variance(&self, level: u32) -> f64 {
        if level >= self.levels.len() as u32 {
            return 0.0;
        }
        match &self.levels[level as usize] {
            Level::Exact(_) | Level::Truncated => 0.0,
            Level::Sketch(s) => s.variance_estimate().unwrap_or(0.0),
            Level::Derived => f64::INFINITY,
        }
    }

    /// Per-cell variance estimate (0 for exact levels, ∞ for derived
    /// ones) — the Count-Sketch's `(F₂ − f̂²)/w` refinement; used by the
    /// OLS post-processing's default variance mode.
    pub fn cell_variance(&self, cell: Cell) -> f64 {
        if cell.level >= self.levels.len() as u32 {
            return 0.0;
        }
        match &self.levels[cell.level as usize] {
            Level::Exact(_) | Level::Truncated => 0.0,
            Level::Sketch(s) => s.variance_estimate_for(cell.index).unwrap_or(0.0),
            Level::Derived => f64::INFINITY,
        }
    }

    fn update(&mut self, x: u64, delta: i64) {
        assert!(x < self.universe.size(), "element {x} outside universe");
        self.live += delta;
        self.version += 1;
        for (level, _) in self.stored() {
            let idx = x >> level;
            match &mut self.levels[level as usize] {
                Level::Exact(e) => e.update(idx, delta),
                Level::Sketch(s) => s.update(idx, delta),
                Level::Derived | Level::Truncated => {
                    unreachable!("the walk yields stored levels only")
                }
            }
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += 1;
            if sqs_util::audit::audit_point(self.updates) {
                sqs_util::audit::CheckInvariants::assert_invariants(self);
            }
        }
    }

    /// Applies a batch of `(element, delta)` updates, restructured
    /// level-major → row-major: the reduced keys for each stored level
    /// are materialized once (one extra right-shift per level) and
    /// handed to the level store's own batched path, so every sketch
    /// row's hash coefficients are evaluated over the whole batch with
    /// the coefficients held in registers (see `docs/PERF.md`).
    ///
    /// State-identical to the element-wise [`update`](Self::update)
    /// loop — counter for counter — which the property tests in
    /// `tests/batch_props.rs` enforce.
    ///
    /// # Panics
    /// Panics if any element lies outside the universe.
    pub fn update_batch(&mut self, batch: &[(u64, i64)]) {
        let reduced = batch
            .iter()
            .map(|&(x, delta)| (self.reduce(x), delta))
            .collect();
        self.fold(reduced);
    }

    /// An element as the lowest stored level keys it: the level walk
    /// starts at the cutoff, so one shift here replaces the truncated
    /// levels' per-level passes.
    fn reduce(&self, x: u64) -> u64 {
        assert!(x < self.universe.size(), "element {x} outside universe");
        x >> self.cutoff
    }

    /// The one batched fold behind [`update_batch`](Self::update_batch)
    /// and `insert_batch`: `reduced` holds `(reduce(x), delta)` and is
    /// shifted in place as the walk climbs from one stored level to the
    /// next.
    fn fold(&mut self, mut reduced: Vec<(u64, i64)>) {
        self.live += reduced.iter().map(|&(_, d)| d).sum::<i64>();
        self.version += 1;
        for (level, span) in self.stored() {
            match &mut self.levels[level as usize] {
                Level::Exact(e) => e.update_batch(&reduced),
                Level::Sketch(s) => s.update_batch(&reduced),
                Level::Derived | Level::Truncated => {
                    unreachable!("the walk yields stored levels only")
                }
            }
            for (x, _) in reduced.iter_mut() {
                *x >>= span;
            }
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += reduced.len() as u64;
            if sqs_util::audit::audit_point(self.updates) {
                sqs_util::audit::CheckInvariants::assert_invariants(self);
            }
        }
    }

    /// Rounds a query point down to the structure's granularity: a
    /// multiple of `2^cutoff` has no set bits below the cutoff, so its
    /// prefix decomposition only uses surviving levels. A no-op when
    /// truncation is off.
    #[inline]
    fn align(&self, x: u64) -> u64 {
        x.min(self.universe.size()) & !((1u64 << self.cutoff) - 1)
    }

    /// Signed rank estimate (before clamping): the summed cell
    /// estimates over the prefix decomposition of `[0, x)`, with `x`
    /// rounded down to the truncation granularity.
    ///
    /// Walked per stored level: the prefix's cells at a stored level and
    /// the derived level above it are the run of stored cells from the
    /// start of the enclosing `2^span`-cell group up to the prefix end —
    /// ≤ 3 cells for a pair, the derived cell's two children included.
    pub fn rank_signed(&self, x: u64) -> i64 {
        let ax = self.align(x);
        if ax == self.universe.size() {
            // The root cell: its count is the implied live total.
            return self.live;
        }
        self.stored()
            .map(|(level, span)| {
                let first = (ax >> (level + span)) << span;
                (first..ax >> level)
                    .map(|index| self.cell_estimate(Cell { level, index }))
                    .sum::<i64>()
            })
            .sum()
    }

    /// Batched [`rank_signed`](Self::rank_signed): `out[q] =
    /// rank_signed(xs[q])`, bit-identical to the scalar loop.
    ///
    /// Two structural facts make the batch walk cheaper than repeating
    /// the scalar one (docs/PERF.md §7):
    ///
    /// * **Exact-prefix collapse.** Let `fe` be the finest exact
    ///   level. A query's decomposition cells at levels ≥ `fe`
    ///   partition the aligned prefix `[0, (x >> fe) << fe)`, and
    ///   exact levels are sum-consistent — a parent counter holds
    ///   exactly its children's mass (the audited
    ///   `dyadic.parent_child_mass` invariant) — so their summed
    ///   estimates equal one prefix sum of the level-`fe` counters.
    ///   A wide sweep builds that prefix-sum table once and answers
    ///   every query's whole exact region (root included: the last
    ///   entry is the live count) with a single lookup. Narrow sweeps
    ///   skip the table and peel the exact cells directly, computing
    ///   the same sums.
    /// * **Level-major sketch reads.** Each stored sketch level's cells
    ///   (the run below each query's digit, as in the scalar walk) are
    ///   collected in the same pass and answered in one
    ///   [`estimate_batch`](FrequencySketch::estimate_batch) call —
    ///   the read-side analogue of `update_batch`'s row-major walk,
    ///   and what makes a `quantiles` sweep's ~log u ranks per φ
    ///   affordable. When a coarse sketch level's reduced universe is
    ///   smaller than its query list, queries share cells by
    ///   pigeonhole; the level then estimates each distinct cell once
    ///   through a direct-address map and scatters the result.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn rank_signed_batch(&self, xs: &[u64], out: &mut [i64]) {
        assert_eq!(
            xs.len(),
            out.len(),
            "rank_signed_batch: slice length mismatch"
        );
        if xs.is_empty() {
            return;
        }
        out.fill(0);
        let log_u = self.universe.log_u();
        let size = self.universe.size();
        let fe = self.exact_from;
        let exacts: Vec<&ExactCounts> = self.levels[fe as usize..]
            .iter()
            .map(|store| match store {
                Level::Exact(e) => e,
                _ => unreachable!("levels from exact_from up are exact"),
            })
            .collect();
        let sketches: Vec<(u32, u32, &S)> = self
            .stored()
            .take_while(|&(level, _)| level < fe)
            .map(|(level, span)| match &self.levels[level as usize] {
                Level::Sketch(s) => (level, span, s),
                _ => unreachable!("stored levels below exact_from are sketches"),
            })
            .collect();
        // Build the exact-prefix table only when the sweep is wide
        // enough to amortize its single sequential pass against the
        // per-query exact-cell loads it replaces.
        let plen = if fe == log_u {
            1usize
        } else {
            usize::try_from(self.universe.cells_at_level(fe)).unwrap_or(usize::MAX)
        };
        let use_prefix = plen <= xs.len().saturating_mul((log_u - fe) as usize + 1);
        let prefix: Vec<i64> = if use_prefix {
            let mut p = Vec::with_capacity(plen + 1);
            p.push(0i64);
            if fe == log_u {
                p.push(self.live);
            } else {
                let mut acc = 0i64;
                for &c in exacts[0].counts() {
                    acc += c;
                    p.push(acc);
                }
            }
            p
        } else {
            Vec::new()
        };
        // One pass over the queries: the exact region is settled
        // inline (table lookup or direct peel), sketch-level cells are
        // deferred into per-level lists — a digit in 0..2^span puts
        // that many cells on its level, (2^span − 1)/2 on average.
        let below = |b: u32| -> u64 { (1u64 << b) - 1 };
        let emask = below(log_u) & !below(fe);
        let cap = |span: u32| xs.len() * below(span) as usize / 2 + 1;
        let mut scells: Vec<Vec<u64>> = sketches
            .iter()
            .map(|&(_, span, _)| Vec::with_capacity(cap(span)))
            .collect();
        let mut sqidx: Vec<Vec<u32>> = sketches
            .iter()
            .map(|&(_, span, _)| Vec::with_capacity(cap(span)))
            .collect();
        for (q, (&x, o)) in xs.iter().zip(out.iter_mut()).enumerate() {
            let ax = self.align(x);
            if use_prefix {
                *o += prefix[(ax >> fe) as usize];
            } else if ax == size {
                // The root cell: its count is the implied live total.
                *o += self.live;
            } else {
                let mut eb = ax & emask;
                while eb != 0 {
                    let level = eb.trailing_zeros();
                    eb &= eb - 1;
                    // The level-`level` cover cell of the prefix
                    // [0, ax): the aligned block just below the
                    // higher-bit prefix (see `prefix_decomposition`).
                    *o += exacts[(level - fe) as usize].estimate((ax >> level) - 1);
                }
            }
            for (k, &(level, span, _)) in sketches.iter().enumerate() {
                let first = (ax >> (level + span)) << span;
                for c in first..ax >> level {
                    scells[k].push(c);
                    sqidx[k].push(q as u32);
                }
            }
        }
        let mut uniq: Vec<u64> = Vec::new();
        let mut pos: Vec<u32> = Vec::new();
        let mut slots: Vec<u32> = Vec::new();
        let mut ests: Vec<i64> = Vec::new();
        for (k, &(level, _, s)) in sketches.iter().enumerate() {
            let cells = &scells[k];
            if cells.is_empty() {
                continue;
            }
            let reduced = self.universe.cells_at_level(level);
            if reduced <= cells.len() as u64 {
                // Coarse level: more queries than cells, so estimate
                // each distinct cell once and scatter. The map is
                // direct-address — `reduced` slots cost no more than
                // the query list they are replacing.
                slots.clear();
                slots.resize(usize::try_from(reduced).unwrap_or(usize::MAX), u32::MAX);
                uniq.clear();
                pos.clear();
                for &c in cells {
                    let t = &mut slots[c as usize];
                    if *t == u32::MAX {
                        *t = uniq.len() as u32;
                        uniq.push(c);
                    }
                    pos.push(*t);
                }
                ests.clear();
                ests.resize(uniq.len(), 0i64);
                s.estimate_batch(&uniq, &mut ests);
                for (&q, &p) in sqidx[k].iter().zip(&pos) {
                    out[q as usize] += ests[p as usize];
                }
            } else {
                ests.clear();
                ests.resize(cells.len(), 0i64);
                s.estimate_batch(cells, &mut ests);
                for (&q, &e) in sqidx[k].iter().zip(&ests) {
                    out[q as usize] += e;
                }
            }
        }
    }

    /// The per-level stores, bottom (singletons) first — serialization.
    pub(crate) fn levels(&self) -> &[Level<S>] {
        &self.levels
    }

    /// The signed live count (serialization; `live()` clamps).
    pub(crate) fn live_signed(&self) -> i64 {
        self.live
    }

    /// Rebuilds a structure from decoded parts. Shape errors (wrong
    /// level count, a level scoped to the wrong reduced universe, or a
    /// level kind the layout does not put there) are reported as `Err`;
    /// the caller follows up with a full invariant audit.
    pub(crate) fn from_raw(
        log_u: u32,
        levels: Vec<Level<S>>,
        live: i64,
        name: &'static str,
    ) -> Result<Self, &'static str> {
        if log_u == 0 || log_u > 63 {
            return Err("Dyadic: log_u must be in 1..=63");
        }
        let universe = DyadicUniverse::new(log_u);
        if levels.len() != log_u as usize {
            return Err("Dyadic: level count does not match log_u");
        }
        // The cutoff travels implicitly as the leading truncated run,
        // the exact run as its first level; the layout rule then fixes
        // every other level's kind.
        let cutoff = levels
            .iter()
            .take_while(|l| matches!(l, Level::Truncated))
            .count() as u32;
        if cutoff == log_u {
            return Err("Dyadic: every level truncated");
        }
        let exact_from = levels
            .iter()
            .position(|l| matches!(l, Level::Exact(_)))
            .map_or(log_u, |i| i as u32);
        for (i, store) in levels.iter().enumerate() {
            let level = i as u32;
            let (got, want) = (store.slot(), slot(level, cutoff, exact_from));
            if got != want {
                return Err(match (got, want) {
                    (Slot::Truncated, _) => "Dyadic: truncated level above a stored level",
                    (_, Slot::Exact) => "Dyadic: non-exact level above an exact level",
                    (Slot::Derived, _) if level == cutoff => {
                        "Dyadic: derived level directly above the truncated run"
                    }
                    (Slot::Derived, _) => "Dyadic: derived level in a stored slot",
                    _ => "Dyadic: sketch level in a derived slot",
                });
            }
            let scope = match store {
                Level::Exact(e) => e.universe(),
                Level::Sketch(s) => s.universe(),
                Level::Derived | Level::Truncated => continue,
            };
            if scope != universe.cells_at_level(level) {
                return Err("Dyadic: level scoped to wrong reduced universe");
            }
        }
        Ok(Self {
            universe,
            levels,
            cutoff,
            exact_from,
            live,
            name,
            version: 0,
            #[cfg(any(test, feature = "audit"))]
            updates: 0,
        })
    }
}

impl<S: MergeableSketch> DyadicQuantiles<S> {
    /// Whether `other` was built from the same universe and per-level
    /// hash draws, so [`merge_from`](Self::merge_from) is exact.
    pub fn merge_compatible(&self, other: &Self) -> bool {
        self.universe == other.universe
            && self.levels.len() == other.levels.len()
            && self
                .levels
                .iter()
                .zip(&other.levels)
                .all(|(a, b)| match (a, b) {
                    (Level::Exact(x), Level::Exact(y)) => x.merge_compatible(y),
                    (Level::Sketch(x), Level::Sketch(y)) => x.merge_compatible(y),
                    (Level::Derived, Level::Derived) | (Level::Truncated, Level::Truncated) => true,
                    _ => false,
                })
    }

    /// Adds `other`'s state into `self`, level by level. Because every
    /// level store is a linear sketch, the merged structure is
    /// state-identical to one that saw both update streams.
    ///
    /// # Panics
    /// Panics if the structures are not
    /// [`merge_compatible`](Self::merge_compatible).
    pub fn merge_from(&mut self, other: &Self) {
        assert!(
            self.merge_compatible(other),
            "Dyadic invariant: merge requires identical universe and hash draws"
        );
        self.live += other.live;
        self.version += 1;
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            match (a, b) {
                (Level::Exact(x), Level::Exact(y)) => x.merge_from(y),
                (Level::Sketch(x), Level::Sketch(y)) => x.merge_from(y),
                (Level::Derived, Level::Derived) | (Level::Truncated, Level::Truncated) => {}
                _ => unreachable!("merge_compatible checked the level kinds"),
            }
        }
        #[cfg(any(test, feature = "audit"))]
        {
            self.updates += other.updates;
        }
    }
}

impl<S: FrequencySketch> sqs_util::audit::CheckInvariants for DyadicQuantiles<S> {
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "Dyadic";
        ensure(
            self.levels.len() == self.universe.log_u() as usize,
            ALG,
            "dyadic.level_count",
            || {
                format!(
                    "{} stored levels for log u = {}",
                    self.levels.len(),
                    self.universe.log_u()
                )
            },
        )?;
        // Strict turnstile model: deletions never outrun insertions.
        ensure(self.live >= 0, ALG, "dyadic.live_nonnegative", || {
            format!("live count is {}", self.live)
        })?;
        // Every level holds what the layout rule puts there.
        let log_u = self.universe.log_u();
        ensure(
            self.cutoff < log_u && self.cutoff <= self.exact_from && self.exact_from <= log_u,
            ALG,
            "dyadic.layout",
            || {
                format!(
                    "cutoff {} and exact run from level {} in a {log_u}-level tree",
                    self.cutoff, self.exact_from
                )
            },
        )?;
        for (i, store) in self.levels.iter().enumerate() {
            let want = slot(i as u32, self.cutoff, self.exact_from);
            ensure(store.slot() == want, ALG, "dyadic.layout", || {
                format!(
                    "level {i} is {:?}, the layout puts {want:?} there",
                    store.slot()
                )
            })?;
            let cells = self.universe.cells_at_level(i as u32);
            let scope = match store {
                Level::Exact(e) => e.universe(),
                Level::Sketch(s) => s.universe(),
                Level::Derived | Level::Truncated => continue,
            };
            ensure(scope == cells, ALG, "dyadic.level_universe", || {
                format!("level {i} summarizes {scope} cells, the dyadic tree has {cells}")
            })?;
            // Recurse into the per-level store's own invariants.
            match store {
                Level::Exact(e) => {
                    e.check_invariants()?;
                    // Sum-consistency: each exact level partitions the
                    // live multiset, so its counters must total `live`.
                    // Summed wide: a hostile frame's counters must not
                    // overflow the audit that refuses them.
                    let sum: i128 = e.counts().iter().map(|&c| i128::from(c)).sum();
                    ensure(
                        sum == i128::from(self.live),
                        ALG,
                        "dyadic.exact_level_mass",
                        || {
                            format!(
                                "level {i} counters total {sum}, live count is {}",
                                self.live
                            )
                        },
                    )?;
                }
                Level::Sketch(s) => {
                    s.check_invariants()?;
                    // A sketched level summarizes the same live multiset
                    // (strict turnstile model), which bounds its rows.
                    if let Err(row) = s.check_live_mass(self.live.unsigned_abs()) {
                        return Err(sqs_util::audit::InvariantViolation::new(
                            ALG,
                            "dyadic.sketch_level_mass",
                            format!("level {i}: {row}"),
                        ));
                    }
                }
                Level::Derived | Level::Truncated => {}
            }
        }
        // Parent/child consistency across adjacent exact levels: a
        // parent cell holds exactly its two children's mass.
        for i in 0..self.levels.len().saturating_sub(1) {
            if let (Level::Exact(child), Level::Exact(parent)) =
                (&self.levels[i], &self.levels[i + 1])
            {
                let (parent, child) = (parent.counts(), child.counts());
                for (j, (&p, pair)) in parent.iter().zip(child.chunks_exact(2)).enumerate() {
                    ensure(
                        i128::from(p) == i128::from(pair[0]) + i128::from(pair[1]),
                        ALG,
                        "dyadic.parent_child_mass",
                        || {
                            format!(
                                "level {} cell {j} holds {p}, children hold {} + {}",
                                i + 1,
                                pair[0],
                                pair[1]
                            )
                        },
                    )?;
                }
            }
        }
        // Space accounting: the reported footprint must equal the sum
        // of the per-level stores plus the live counter word.
        let expect: usize = self
            .levels
            .iter()
            .map(|l| match l {
                Level::Exact(e) => e.space_bytes(),
                Level::Sketch(s) => s.space_bytes(),
                Level::Derived | Level::Truncated => 0,
            })
            .sum::<usize>()
            + words(1);
        ensure(
            self.space_bytes() == expect,
            ALG,
            "dyadic.space_accounting",
            || {
                format!(
                    "space_bytes() reports {}, levels total {expect}",
                    self.space_bytes()
                )
            },
        )
    }
}

impl<S: FrequencySketch> TurnstileQuantiles for DyadicQuantiles<S> {
    fn insert(&mut self, x: u64) {
        self.update(x, 1);
    }

    fn delete(&mut self, x: u64) {
        self.update(x, -1);
    }

    fn insert_batch(&mut self, xs: &[u64]) {
        let reduced = xs.iter().map(|&x| (self.reduce(x), 1)).collect();
        self.fold(reduced);
    }

    fn live(&self) -> u64 {
        self.live.max(0) as u64
    }

    fn rank_estimate(&self, x: u64) -> u64 {
        self.rank_signed(x).max(0) as u64
    }

    /// Binary search for the largest element whose estimated rank does
    /// not exceed `⌊φ·live⌋` (§3's extraction rule). Sketch noise makes
    /// the rank function only approximately monotone; the binary search
    /// is the paper's own choice and inherits its guarantee from the
    /// all-prefixes error bound. Under truncation the search runs in
    /// cell units at the cutoff level — with cutoff 0 that *is* the
    /// value space, bit-identical to the untruncated search.
    fn quantile(&self, phi: f64) -> Option<u64> {
        assert!(phi > 0.0 && phi < 1.0, "phi must be in (0,1), got {phi}");
        if self.live <= 0 {
            return None;
        }
        let target = (phi * self.live as f64).floor() as i64;
        let (mut lo, mut hi) = (0u64, self.universe.cells_at_level(self.cutoff) - 1);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if self.rank_signed(mid << self.cutoff) <= target {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some(lo << self.cutoff)
    }

    /// Lockstep bisection over a sorted-φ sweep, **bit-identical** to
    /// per-φ [`quantile`](Self::quantile) calls.
    ///
    /// Although sketch noise makes the rank function only
    /// approximately monotone, the *comparison outcome* at any fixed
    /// bisection node — `rank(mid) ≤ ⌊φ·live⌋` — is monotone in φ, so
    /// every φ's scalar search walks the same binary tree and sorted
    /// targets occupy contiguous runs of nodes at every depth. The
    /// sweep exploits that: per depth it collects each live node's
    /// single midpoint, answers **all** of them in one
    /// [`rank_signed_batch`](Self::rank_signed_batch) call, and
    /// partitions each node's targets around its rank. One φ costs
    /// ~log u ranks; k sorted φs cost ~log u *batched* rank rounds
    /// with ≤ min(k, 2^depth) ranks each — the per-φ re-bisection
    /// rework is gone.
    fn quantiles(&self, phis: &[f64]) -> Vec<Option<u64>> {
        for &phi in phis {
            assert!(phi > 0.0 && phi < 1.0, "phi must be in (0,1), got {phi}");
        }
        if self.live <= 0 || phis.is_empty() {
            return vec![None; phis.len()];
        }
        // Sort targets via an index permutation; answers un-permute.
        let mut order: Vec<usize> = (0..phis.len()).collect();
        order.sort_by(|&a, &b| phis[a].total_cmp(&phis[b]));
        let targets: Vec<i64> = order
            .iter()
            .map(|&i| (phis[i] * self.live as f64).floor() as i64)
            .collect();
        let mut answers = vec![0u64; targets.len()];
        // A node is a bracket [lo, hi] in cell units plus the
        // contiguous run targets[s..e] still inside it.
        let mut nodes = vec![(
            0u64,
            self.universe.cells_at_level(self.cutoff) - 1,
            0usize,
            targets.len(),
        )];
        let mut mids = Vec::new();
        let mut ranks = Vec::new();
        let mut next = Vec::new();
        while !nodes.is_empty() {
            mids.clear();
            mids.extend(
                nodes
                    .iter()
                    .map(|&(lo, hi, _, _)| (lo + (hi - lo).div_ceil(2)) << self.cutoff),
            );
            ranks.clear();
            ranks.resize(mids.len(), 0i64);
            self.rank_signed_batch(&mids, &mut ranks);
            next.clear();
            for (&(lo, hi, s, e), &r) in nodes.iter().zip(&ranks) {
                let mid = lo + (hi - lo).div_ceil(2);
                // rank(mid) ≤ target → the scalar search takes lo = mid;
                // sorted targets split at the first t ≥ r.
                let split = s + targets[s..e].partition_point(|&t| t < r);
                for &(nlo, nhi, ns, ne) in &[(lo, mid - 1, s, split), (mid, hi, split, e)] {
                    if ns == ne {
                        continue;
                    }
                    if nlo == nhi {
                        for a in &mut answers[ns..ne] {
                            *a = nlo << self.cutoff;
                        }
                    } else {
                        next.push((nlo, nhi, ns, ne));
                    }
                }
            }
            std::mem::swap(&mut nodes, &mut next);
        }
        let mut out = vec![None; phis.len()];
        for (pos, &orig) in order.iter().enumerate() {
            out[orig] = Some(answers[pos]);
        }
        out
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

impl<S: FrequencySketch> SpaceUsage for DyadicQuantiles<S> {
    fn space_bytes(&self) -> usize {
        let levels: usize = self
            .levels
            .iter()
            .map(|l| match l {
                Level::Exact(e) => e.space_bytes(),
                Level::Sketch(s) => s.space_bytes(),
                Level::Derived | Level::Truncated => 0,
            })
            .sum();
        levels + words(1) // + the live counter
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqs_sketch::CountSketch;
    use sqs_util::rng::{SplitMix64, Xoshiro256pp};

    fn make(log_u: u32, w: usize, d: usize, seed: u64) -> DyadicQuantiles<CountSketch> {
        let mut seeds = SplitMix64::new(seed);
        DyadicQuantiles::new(
            log_u,
            0,
            (w * d) as u64,
            move |cells, _| {
                let mut rng = Xoshiro256pp::new(seeds.next_u64());
                CountSketch::for_universe(cells, w, d, &mut rng)
            },
            "test-dyadic",
        )
    }

    #[test]
    fn top_levels_are_exact() {
        let dq = make(16, 64, 5, 1);
        assert!(dq.is_exact_level(16)); // root (implied)
        assert!(dq.is_exact_level(10)); // 64 cells ≤ 320 counters
        assert!(!dq.is_exact_level(0)); // 65536 cells
    }

    #[test]
    fn live_count_is_exact_through_churn() {
        let mut dq = make(12, 32, 3, 2);
        for x in 0..1000u64 {
            dq.insert(x % 4096);
        }
        for x in 0..400u64 {
            dq.delete(x % 4096);
        }
        assert_eq!(dq.live(), 600);
    }

    #[test]
    fn rank_exactish_on_small_universe() {
        // With a tiny universe everything lands in exact levels → exact
        // ranks.
        let mut dq = make(8, 128, 5, 3);
        for x in 0..256u64 {
            dq.insert(x);
        }
        for x in [0u64, 1, 100, 255] {
            assert_eq!(dq.rank_estimate(x), x);
        }
        assert_eq!(dq.rank_estimate(256), 256);
        assert_eq!(dq.quantile(0.5), Some(128));
    }

    #[test]
    fn quantiles_approximate_on_large_universe() {
        let mut dq = make(20, 1024, 5, 4);
        let mut rng = Xoshiro256pp::new(5);
        let mut data = Vec::new();
        for _ in 0..50_000 {
            let x = rng.next_below(1 << 20);
            data.push(x);
            dq.insert(x);
        }
        let oracle = sqs_util::exact::ExactQuantiles::new(data);
        for phi in [0.1, 0.5, 0.9] {
            let q = dq.quantile(phi).unwrap();
            let err = oracle.quantile_error(phi, q);
            assert!(err < 0.05, "phi={phi}, err={err}");
        }
    }

    #[test]
    fn deletions_remove_their_influence() {
        // §4.3: "Deleting a previously inserted element completely
        // removes its impact on the data structure."
        let mut with_churn = make(16, 256, 5, 6);
        let mut clean = make(16, 256, 5, 6); // same seed → same hashes
        let mut rng = Xoshiro256pp::new(7);
        for _ in 0..10_000 {
            let keep = rng.next_below(1 << 16);
            with_churn.insert(keep);
            clean.insert(keep);
            let churn = rng.next_below(1 << 16);
            with_churn.insert(churn);
            with_churn.delete(churn);
        }
        for x in [100u64, 30_000, 65_000] {
            assert_eq!(with_churn.rank_signed(x), clean.rank_signed(x), "x={x}");
        }
        assert_eq!(with_churn.live(), clean.live());
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn rejects_out_of_universe() {
        let mut dq = make(8, 16, 3, 8);
        dq.insert(256);
    }

    #[test]
    fn empty_quantile_is_none() {
        let dq = make(8, 16, 3, 9);
        assert_eq!(dq.quantile(0.5), None);
    }

    /// `dcs(0.01, 24)` — the benchmark's tenant shape: levels 0..7 are
    /// cut off, 7, 9 and 11 keep a sketch, 8 and 10 are derived, 12 up
    /// are exact, and a sketch is built for the three stored levels only.
    #[test]
    fn make_sketch_runs_for_stored_sketched_levels_only() {
        let mut built = Vec::new();
        let dq = DyadicQuantiles::new(
            24,
            default_level_cutoff(0.01, 24),
            693 * 7,
            |cells, level| {
                built.push(level);
                CountSketch::for_universe(cells, 693, 7, &mut Xoshiro256pp::new(level.into()))
            },
            "count-the-calls",
        );
        assert_eq!(built, [7, 9, 11]);
        let mut want = vec![Slot::Truncated; 7];
        want.extend([
            Slot::Sketch,
            Slot::Derived,
            Slot::Sketch,
            Slot::Derived,
            Slot::Sketch,
        ]);
        want.extend([Slot::Exact; 12]);
        let layout = |dq: &DyadicQuantiles<CountSketch>| -> Vec<Slot> {
            dq.levels.iter().map(Level::slot).collect()
        };
        assert_eq!(layout(&dq), want);
        assert_eq!(layout(&crate::new_dcs(0.01, 24, 5)), want);
        assert_eq!(
            dq.stored().collect::<Vec<_>>()[..3],
            [(7, 2), (9, 2), (11, 1)]
        );
    }

    fn loaded<S: FrequencySketch>(mut dq: DyadicQuantiles<S>) -> DyadicQuantiles<S> {
        let mut rng = Xoshiro256pp::new(31);
        let xs: Vec<u64> = (0..20_000)
            .map(|_| rng.next_below(1 << 12) * rng.next_below(1 << 8))
            .collect();
        dq.insert_batch(&xs);
        dq
    }

    /// A derived cell is its children's sum, and the per-stored-level
    /// rank walk sums exactly the prefix decomposition's cells.
    fn derived_cells_add_up<S: FrequencySketch>(dq: &DyadicQuantiles<S>) {
        let u = dq.universe();
        let derived: Vec<u32> = (0..u.log_u()).filter(|&l| dq.is_derived_level(l)).collect();
        assert!(derived.len() >= 2, "test premise: derived levels");
        for &level in &derived {
            assert!(!dq.is_derived_level(level - 1) && !dq.is_exact_level(level - 1));
            let cells = u.cells_at_level(level);
            for index in [0, 1, cells / 3, cells / 2, cells - 1] {
                let cell = Cell { level, index };
                let (l, r) = cell.children();
                assert_eq!(
                    dq.cell_estimate(cell),
                    dq.cell_estimate(l) + dq.cell_estimate(r),
                    "cell {cell:?}"
                );
            }
        }
        let grain = 1u64 << dq.level_cutoff();
        for x in (0..u.size())
            .step_by(9_973)
            .chain([u.size() - grain, u.size()])
        {
            let ax = x & !(grain - 1);
            let cells: i64 = u
                .prefix_decomposition(ax)
                .into_iter()
                .map(|c| dq.cell_estimate(c))
                .sum();
            assert_eq!(dq.rank_signed(x), cells, "x = {x}");
        }
    }

    #[test]
    fn derived_cells_are_the_sum_of_their_children() {
        derived_cells_add_up(&loaded(crate::new_dcm(0.05, 20, 3)));
        derived_cells_add_up(&loaded(crate::new_dcs(0.05, 20, 3)));
    }

    /// `from_raw` rebuilds only the layout `new` lays out.
    fn refuses_a_foreign_layout<S: FrequencySketch + Clone>(dq: &DyadicQuantiles<S>) {
        let c = dq.level_cutoff() as usize;
        let rebuild = |levels: Vec<Level<S>>| {
            DyadicQuantiles::from_raw(dq.universe().log_u(), levels, dq.live, "x").map(|_| ())
        };
        assert_eq!(rebuild(dq.levels.clone()), Ok(()));
        let with = |at: usize, level: Level<S>| {
            let mut levels = dq.levels.clone();
            levels[at] = level;
            rebuild(levels)
        };
        assert_eq!(
            with(c + 1, dq.levels[c].clone()),
            Err("Dyadic: sketch level in a derived slot")
        );
        assert_eq!(
            with(c + 2, Level::Derived),
            Err("Dyadic: derived level in a stored slot")
        );
        assert_eq!(
            with(c, Level::Derived),
            Err("Dyadic: derived level directly above the truncated run")
        );
    }

    #[test]
    fn from_raw_refuses_kinds_the_layout_does_not_put_there() {
        refuses_a_foreign_layout(&loaded(crate::new_dcm(0.05, 20, 4)));
        refuses_a_foreign_layout(&loaded(crate::new_dcs(0.05, 20, 4)));
    }
}

#[cfg(test)]
mod corruption {
    use crate::new_dgm;
    use crate::TurnstileQuantiles;
    use sqs_util::audit::CheckInvariants;

    #[test]
    fn auditor_catches_live_mass_drift() {
        // Small universe → every level is exact, so the exact-level
        // mass check sees the full picture.
        let mut d = new_dgm(0.1, 8);
        for x in 0..200u64 {
            d.insert(x % 37);
        }
        d.live += 1; // claim one more live item than the levels hold
        let err = d.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "Dyadic");
        assert_eq!(err.invariant, "dyadic.exact_level_mass");
    }

    #[test]
    fn auditor_catches_a_sketch_counter_heavier_than_live() {
        use sqs_sketch::FrequencySketch;
        // An even delta keeps the rows' parity agreement, so only the
        // live-mass bound can see it.
        let mut d = crate::new_dcs(0.2, 12, 1);
        for x in 0..6u64 {
            d.insert(x * 600);
        }
        let Some(super::Level::Sketch(s)) = d.levels.first_mut() else {
            panic!("level 0 of dcs(0.2, 12) is sketched");
        };
        s.update(0, 1 << 62);
        let err = d.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "Dyadic");
        assert_eq!(err.invariant, "dyadic.sketch_level_mass");

        // Count-Min rows must total the live count exactly.
        let mut d = crate::new_dcm(0.2, 12, 1);
        for x in 0..6u64 {
            d.insert(x * 600);
        }
        let Some(super::Level::Sketch(s)) = d.levels.first_mut() else {
            panic!("level 0 of dcm(0.2, 12) is sketched");
        };
        s.update(0, 2);
        assert_eq!(
            d.check_invariants().unwrap_err().invariant,
            "dyadic.sketch_level_mass"
        );
    }

    #[test]
    fn exact_level_mass_is_summed_without_overflow() {
        // Three counters at i64::MAX wrap an i64 sum (a debug panic,
        // and in release a total that may happen to equal `live`).
        let mut d = crate::new_dcs(0.05, 12, 1);
        let fe = (0..12).find(|&l| d.is_exact_level(l)).expect("exact run");
        let Some(super::Level::Exact(e)) = d.levels.get_mut(fe as usize) else {
            panic!("level {fe} is exact");
        };
        for x in 0..3 {
            sqs_sketch::FrequencySketch::update(e, x, i64::MAX);
        }
        assert_eq!(
            d.check_invariants().unwrap_err().invariant,
            "dyadic.exact_level_mass"
        );
    }

    #[test]
    fn auditor_catches_dropped_level() {
        let mut d = new_dgm(0.1, 8);
        for x in 0..50u64 {
            d.insert(x);
        }
        d.levels.pop();
        assert_eq!(
            d.check_invariants().unwrap_err().invariant,
            "dyadic.level_count"
        );
    }
}
