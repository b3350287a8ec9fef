//! `Post` — ordinary-least-squares post-processing for dyadic
//! turnstile sketches (§3.2 of the journal version).
//!
//! The per-level sketch estimates are independent, but the true
//! frequencies are not: every internal dyadic cell satisfies
//! `x_v = x_left + x_right`. Reconciling the estimates against these
//! constraints — computing the *best linear unbiased estimator*
//! (BLUE) — provably reduces variance (Gauss–Markov), and empirically
//! cuts DCS error by 60–80% (Figure 9, §4.3.3).
//!
//! The pipeline follows §3.2.2–3.2.3:
//!
//! 1. **Truncate.** Walk the dyadic tree top-down from the root; a
//!    node whose estimate exceeds `η·ε·n` has both children added, and
//!    recursion continues into qualifying children. The truncated tree
//!    `T̂` has expected size `O((1/ηε)·log u)` (Lemma 1) and is *full*
//!    (every internal node has both children), which the solver needs.
//! 2. **Decompose.** Exact nodes (the top levels stored as plain
//!    counters) shield their subtrees; each maximal subtree whose root
//!    is exact and whose other nodes are sketched is solved
//!    independently. A node on a derived level (no counters; its value
//!    is its children's sum) is *unobserved*: σ² = ∞, zero precision in
//!    the BLUE, and truncation always expands it.
//! 3. **Solve.** Three linear-time traversals per subtree compute the
//!    node weights `λ`, the path sums `π`, the auxiliary `Z`/`Δ`/`F`
//!    quantities, and finally the BLUE `x*` for every node — the
//!    algorithm of §3.2.3, validated against the paper's own worked
//!    example (Fig. 3 / Table 2) in this module's tests.
//!
//! **Erratum (recorded in DESIGN.md):** the paper defines
//! `Z_v = Σ_{w≺v} λ_w Z_w` for internal `v`, but reproducing Table 2
//! requires `Z_v = Σ_{w≺v} Z_w` (the `λ_w` factor is already inside
//! the leaf values `Z_w = λ_w Σ_{z∈anc(w)∖r} y_z/σ_z²`); we implement
//! the corrected recurrence.
//!
//! Rank queries walk `T̂` using the corrected estimates; the remainder
//! below the truncation frontier (< `η·ε·n` mass by Lemma 1) is
//! handled per [`FrontierMode`] — by default *interpolated* from the
//! reconciled frontier leaf, which adds no fresh sketch noise and
//! measurably beats the raw-sketch fallback (see the frontier
//! ablation).

#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]
// ^ audited: indices and casts here are bounded by structural
// invariants (see `check_invariants` impls and docs/ANALYSIS.md);
// this module is on the `cargo xtask check` allowlist.

use std::collections::HashMap;
use std::sync::Arc;

use crate::dyadic::DyadicQuantiles;
use sqs_sketch::FrequencySketch;
use sqs_util::dyadic::Cell;

/// How rank queries treat the mass below the truncation frontier.
///
/// A rank query walking `T̂` stops at a frontier leaf containing `x`
/// and must account for the leaf's sub-interval `[leaf.start, x)`.
/// Lemma 1 guarantees the whole leaf holds < `η·ε·n` mass, so the
/// options trade a small bias against extra sketch noise:
///
/// * [`FrontierMode::Interpolate`] (default) — distribute the leaf's
///   *reconciled* mass `x*` uniformly over its interval: zero extra
///   sketch noise, bias < leaf mass.
/// * [`FrontierMode::Raw`] — estimate `[leaf.start, x)` from the raw
///   per-level sketches: unbiased, but adds up to `level` fresh noisy
///   terms per query.
/// * [`FrontierMode::Discard`] — count nothing: bias < leaf mass,
///   one-sided.
///
/// The ablation experiment compares all three.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrontierMode {
    /// Uniform interpolation of the reconciled leaf mass (default).
    #[default]
    Interpolate,
    /// Raw dyadic sub-decomposition from the sketches.
    Raw,
    /// Drop the sub-frontier remainder entirely.
    Discard,
}

/// How the solver obtains the per-node variances σ_v².
///
/// The paper (§3.2.4) uses one variance per *level* — "the variance of
/// one row of the sketch as a good empirical approximation". That is a
/// severe overestimate for heavy cells (the Count-Sketch error for
/// item x has variance `(F₂ − f_x²)/w`, not `F₂/w`), and on skewed
/// data the per-level mode can make the BLUE *worse* than the raw
/// sketch by "correcting" near-exact heavy cells toward noisy
/// siblings. [`VarianceMode::PerCell`] (the default) subtracts the
/// cell's own estimated mass; the ablation experiment compares the
/// two (see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarianceMode {
    /// `(F₂ − f̂_v²)/w` per node (this library's refinement; default).
    #[default]
    PerCell,
    /// `F₂/w` shared by every node of a level (the paper's choice).
    PerLevel,
}

/// Variance floor so exact-zero sketch variances (empty sketches)
/// cannot divide by zero; relative weighting is unaffected when all
/// variances are floored together.
const SIGMA2_FLOOR: f64 = 1e-9;

/// One node of a BLUE subtree. `left`/`right` index into the arena;
/// leaves have `None`.
#[derive(Debug, Clone)]
struct BlueNode {
    y: f64,
    sigma2: f64,
    left: Option<usize>,
    right: Option<usize>,
    parent: Option<usize>,
    // Solver state:
    beta: f64,
    lambda: f64,
    pi: f64,
    zprime: f64,
    z: f64,
    xstar: f64,
}

impl BlueNode {
    fn new(y: f64, sigma2: f64) -> Self {
        Self {
            y,
            sigma2,
            left: None,
            right: None,
            parent: None,
            beta: 0.0,
            lambda: 0.0,
            pi: 0.0,
            zprime: 0.0,
            z: 0.0,
            xstar: 0.0,
        }
    }
}

/// Solves one subtree (arena with root at index 0, root exact) and
/// returns `x*` per node. Exposed within the crate for the Table 2
/// test.
fn solve_blue(nodes: &mut [BlueNode]) {
    debug_assert!(!nodes.is_empty());
    if nodes[0].left.is_none() {
        nodes[0].xstar = nodes[0].y;
        return; // single exact node: nothing to reconcile
    }
    // Children lists in bottom-up (reverse BFS) order.
    let order: Vec<usize> = {
        let mut bfs = vec![0usize];
        let mut i = 0;
        while i < bfs.len() {
            let v = bfs[i];
            if let Some(l) = nodes[v].left {
                bfs.push(l);
            }
            if let Some(r) = nodes[v].right {
                bfs.push(r);
            }
            i += 1;
        }
        bfs
    };

    // ---- Pass 1 (bottom-up): β_v. Leaves: β = 1/σ²; internal:
    // β = β_l·β_r/(β_l+β_r) + 1/σ². The root needs no β (its σ is 0).
    for &v in order.iter().rev() {
        let s2 = nodes[v].sigma2.max(SIGMA2_FLOOR);
        nodes[v].beta = match (nodes[v].left, nodes[v].right) {
            (None, None) => 1.0 / s2,
            (Some(l), Some(r)) => {
                let (bl, br) = (nodes[l].beta, nodes[r].beta);
                bl * br / (bl + br) + if v == 0 { 0.0 } else { 1.0 / s2 }
            }
            _ => unreachable!("truncated tree is full"),
        };
    }

    // ---- Pass 2 (top-down): λ and π from the sibling-balance
    // equations π_left = π_right, λ_v = λ_l + λ_r, anchored at λ_r = 1.
    nodes[0].lambda = 1.0;
    for &v in &order {
        if let (Some(l), Some(r)) = (nodes[v].left, nodes[v].right) {
            let (bl, br) = (nodes[l].beta, nodes[r].beta);
            let lam = nodes[v].lambda;
            nodes[l].lambda = lam * br / (bl + br);
            nodes[r].lambda = lam * bl / (bl + br);
            nodes[l].pi = nodes[l].beta * nodes[l].lambda;
            nodes[r].pi = nodes[r].beta * nodes[r].lambda;
        }
    }

    // ---- Pass 3 (top-down): Z′_v = Z′_parent + y_v/σ_v² (root
    // contributes nothing).
    nodes[0].zprime = 0.0;
    for &v in &order {
        if v != 0 {
            let p = nodes[v]
                .parent
                .expect("Dyadic invariant: non-root node has a parent");
            nodes[v].zprime = nodes[p].zprime + nodes[v].y / nodes[v].sigma2.max(SIGMA2_FLOOR);
        }
    }

    // ---- Pass 4 (bottom-up): Z. Leaves: Z_w = λ_w·Z′_w; internal
    // (corrected recurrence): Z_v = Z_left + Z_right.
    for &v in order.iter().rev() {
        nodes[v].z = match (nodes[v].left, nodes[v].right) {
            (None, None) => nodes[v].lambda * nodes[v].zprime,
            (Some(l), Some(r)) => nodes[l].z + nodes[r].z,
            _ => unreachable!(),
        };
    }

    // ---- Pass 5 (top-down): Δ, then F and x*.
    let left_of_root = nodes[0]
        .left
        .expect("Dyadic invariant: root has children when log_u > 0");
    let delta = (nodes[0].z - nodes[0].y * nodes[left_of_root].pi) / nodes[0].lambda;
    nodes[0].xstar = nodes[0].y;
    let mut f = vec![0.0f64; nodes.len()];
    for &v in &order {
        if v == 0 {
            f[0] = 0.0;
            continue;
        }
        let p = nodes[v]
            .parent
            .expect("Dyadic invariant: non-root node has a parent");
        nodes[v].xstar =
            (nodes[v].z - nodes[v].lambda * f[p] - nodes[v].lambda * delta) / nodes[v].pi;
        f[v] = f[p] + nodes[v].xstar / nodes[v].sigma2.max(SIGMA2_FLOOR);
    }
}

/// The post-processed view of a dyadic turnstile summary.
///
/// Borrow the finished sketch, post-process once (end of stream —
/// §4.3.4 notes the cost is negligible against stream processing), and
/// query. The underlying sketch is untouched; `Post` is a pure
/// refinement.
#[derive(Debug)]
pub struct PostProcessed<'a, S> {
    dq: &'a DyadicQuantiles<S>,
    /// BLUE estimate per truncated-tree cell. Shared (`Arc`) so a
    /// [`PostCache`] hit hands out the solved tree without recomputing
    /// or deep-copying it.
    xstar: Arc<HashMap<Cell, f64>>,
    eta: f64,
    eps: f64,
    frontier_mode: FrontierMode,
    variance_mode: VarianceMode,
}

/// A memo for [`PostProcessed`] construction.
///
/// The §3.2 pipeline (truncate, decompose, solve) costs
/// `O((1/ηε)·log u)` per run — negligible against stream ingestion,
/// but wasteful when a query burst rebuilds it for an *unchanged*
/// structure. The cache keys the solved tree on the structure's cheap
/// [`version`](DyadicQuantiles::version) counter plus the pipeline
/// parameters; [`PostProcessed::cached`] returns a clone of the shared
/// solution when nothing changed and re-solves (updating the cache)
/// otherwise.
///
/// A cache belongs to *one* structure: the version counter is
/// per-instance (wire decode resets it), so reusing a cache across
/// structures can alias distinct states. Keep it next to the sketch it
/// memoizes, as `sqs-engine`'s query snapshots do.
#[derive(Debug, Default)]
pub struct PostCache {
    key: Option<(u64, u64, u64, FrontierMode, VarianceMode)>,
    xstar: Arc<HashMap<Cell, f64>>,
}

impl PostCache {
    /// An empty cache (every first lookup misses).
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether the cache currently holds a solved tree.
    pub fn is_primed(&self) -> bool {
        self.key.is_some()
    }
}

impl<'a, S: FrequencySketch> PostProcessed<'a, S> {
    /// Runs the §3.2 pipeline over `dq` with error parameter ε and
    /// truncation constant η (the paper tunes η = 0.1 as the sweet
    /// spot, Figure 9).
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1` and `η > 0`.
    pub fn new(dq: &'a DyadicQuantiles<S>, eps: f64, eta: f64) -> Self {
        Self::with_options(
            dq,
            eps,
            eta,
            FrontierMode::Interpolate,
            VarianceMode::PerCell,
        )
    }

    /// [`PostProcessed::new`] with the frontier and variance modes made
    /// explicit (the ablation experiments sweep both).
    pub fn with_options(
        dq: &'a DyadicQuantiles<S>,
        eps: f64,
        eta: f64,
        frontier_mode: FrontierMode,
        variance_mode: VarianceMode,
    ) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        assert!(eta > 0.0, "eta must be positive, got {eta}");
        use crate::TurnstileQuantiles;

        let mut this = Self {
            dq,
            xstar: Arc::new(HashMap::new()),
            eta,
            eps,
            frontier_mode,
            variance_mode,
        };
        let n = dq.live();
        if n == 0 {
            return this;
        }
        let threshold = eta * eps * n as f64;

        // ---- Truncation (§3.2.2): include both children of every
        // node whose estimate clears the threshold; recurse into
        // children that clear it themselves. The descent floor is the
        // structure's level cutoff — below it no counters exist, so
        // frontier leaves bottom out at 2^cutoff-wide cells. A derived
        // node is always expanded: it carries no observation of its
        // own, so a frontier leaf never sits on a derived level.
        let floor = dq.level_cutoff();
        let root = Cell {
            level: dq.universe().log_u(),
            index: 0,
        };
        this.xstar_mut().insert(root, n as f64);
        let mut stack = vec![root];
        while let Some(cell) = stack.pop() {
            if cell.level <= floor {
                continue;
            }
            let est = this.raw(cell);
            if est > threshold || dq.is_derived_level(cell.level) {
                let (l, r) = cell.children();
                let (rl, rr) = (this.raw(l), this.raw(r));
                this.xstar_mut().insert(l, rl);
                this.xstar_mut().insert(r, rr);
                stack.push(l);
                stack.push(r);
            }
        }

        // ---- Decompose at exact nodes and solve each subtree.
        let cells: Vec<Cell> = this.xstar.keys().copied().collect();
        for cell in cells {
            // A subtree root: exact node with (necessarily sketched)
            // children present in T̂.
            if dq.is_exact_level(cell.level)
                && cell.level > 0
                && !dq.is_exact_level(cell.level - 1)
                && this.has_children(cell)
            {
                this.solve_subtree(cell);
            }
        }
        this
    }

    /// Runs [`PostProcessed::new`] through `cache`: when the
    /// structure's version and the parameters match the cached run,
    /// the solved tree is reused; otherwise the pipeline runs and the
    /// cache is refreshed.
    pub fn cached(dq: &'a DyadicQuantiles<S>, eps: f64, eta: f64, cache: &mut PostCache) -> Self {
        Self::cached_with_options(
            dq,
            eps,
            eta,
            FrontierMode::Interpolate,
            VarianceMode::PerCell,
            cache,
        )
    }

    /// [`PostProcessed::cached`] with the frontier and variance modes
    /// made explicit (they are part of the cache key).
    pub fn cached_with_options(
        dq: &'a DyadicQuantiles<S>,
        eps: f64,
        eta: f64,
        frontier_mode: FrontierMode,
        variance_mode: VarianceMode,
        cache: &mut PostCache,
    ) -> Self {
        let key = (
            dq.version(),
            eps.to_bits(),
            eta.to_bits(),
            frontier_mode,
            variance_mode,
        );
        if cache.key == Some(key) {
            return Self {
                dq,
                xstar: Arc::clone(&cache.xstar),
                eta,
                eps,
                frontier_mode,
                variance_mode,
            };
        }
        let this = Self::with_options(dq, eps, eta, frontier_mode, variance_mode);
        cache.key = Some(key);
        cache.xstar = Arc::clone(&this.xstar);
        this
    }

    /// Raw (pre-BLUE) estimate of a cell.
    fn raw(&self, cell: Cell) -> f64 {
        self.dq.cell_estimate(cell) as f64
    }

    /// The solved tree, writable. Only called during construction,
    /// while the `Arc` is still unique — `make_mut` never clones.
    fn xstar_mut(&mut self) -> &mut HashMap<Cell, f64> {
        Arc::make_mut(&mut self.xstar)
    }

    fn has_children(&self, cell: Cell) -> bool {
        if cell.level == 0 {
            return false;
        }
        let (l, r) = cell.children();
        self.xstar.contains_key(&l) && self.xstar.contains_key(&r)
    }

    /// Builds the arena for the subtree under `root` and writes the
    /// solved `x*` values back into the map.
    fn solve_subtree(&mut self, root: Cell) {
        let mut nodes: Vec<BlueNode> = Vec::new();
        let mut cells: Vec<Cell> = Vec::new();
        let mut build = vec![(root, None::<usize>)];
        while let Some((cell, parent)) = build.pop() {
            let idx = nodes.len();
            let sigma2 = match self.variance_mode {
                VarianceMode::PerCell => self.dq.cell_variance(cell),
                VarianceMode::PerLevel => self.dq.level_variance(cell.level),
            };
            let mut node = BlueNode::new(self.xstar[&cell], sigma2);
            node.parent = parent;
            nodes.push(node);
            cells.push(cell);
            if let Some(p) = parent {
                // Fill the parent's first empty child slot; build order
                // pushes left before right, pops right first — slots
                // are interchangeable as long as links are consistent,
                // but we keep left=left for the Δ formula's
                // "left child of root".
                let (l, _) = cells[p].children();
                if cell == l {
                    nodes[p].left = Some(idx);
                } else {
                    nodes[p].right = Some(idx);
                }
            }
            if self.has_children(cell) {
                let (l, r) = cell.children();
                build.push((l, Some(idx)));
                build.push((r, Some(idx)));
            }
        }
        solve_blue(&mut nodes);
        let map = self.xstar_mut();
        for (node, cell) in nodes.iter().zip(&cells) {
            map.insert(*cell, node.xstar);
        }
    }

    /// Number of nodes in the truncated tree `T̂` (Figure 9's size
    /// metric).
    pub fn tree_size(&self) -> usize {
        self.xstar.len()
    }

    /// The truncation constant η in force.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// Raw dyadic estimate of `[lo, x)` entirely below a frontier node
    /// (greedy aligned-cell decomposition against the sketch levels).
    ///
    /// Both endpoints are rounded down to the structure's level-cutoff
    /// granularity: below the cutoff no counters exist, so the finest
    /// decomposition cell is 2^cutoff wide. `lo` (a frontier-cell
    /// start) is already aligned; rounding `x` drops < one cutoff
    /// cell's mass, within the frontier budget of Lemma 1.
    fn raw_range(&self, lo: u64, x: u64) -> f64 {
        let grain = !((1u64 << self.dq.level_cutoff()) - 1);
        let (lo, x) = (lo & grain, x & grain);
        let mut acc = 0.0;
        let mut cur = lo;
        while cur < x {
            // Largest aligned cell starting at cur that fits in [cur, x).
            let align = if cur == 0 { 63 } else { cur.trailing_zeros() };
            let mut level = align.min(63 - ((x - cur).leading_zeros()));
            // (x−cur) ≥ 2^level must hold; shrink if alignment overshot.
            while (1u64 << level) > x - cur {
                level -= 1;
            }
            let cell = Cell {
                level,
                index: cur >> level,
            };
            acc += self.raw(cell);
            cur = cell.end();
        }
        acc
    }

    /// Post-processed rank estimate of `x` (signed).
    pub fn rank_signed(&self, x: u64) -> f64 {
        let u = self.dq.universe();
        let x = x.min(u.size());
        let mut cell = Cell {
            level: u.log_u(),
            index: 0,
        };
        let mut acc = 0.0;
        loop {
            if x <= cell.start() {
                break;
            }
            if x >= cell.end() {
                acc += self
                    .xstar
                    .get(&cell)
                    .copied()
                    .unwrap_or_else(|| self.raw(cell));
                break;
            }
            if !self.has_children(cell) {
                // Frontier: the remainder [start, x) holds < ηεn mass.
                match self.frontier_mode {
                    FrontierMode::Interpolate => {
                        let frac = (x - cell.start()) as f64 / cell.len() as f64;
                        acc += self
                            .xstar
                            .get(&cell)
                            .copied()
                            .unwrap_or_else(|| self.raw(cell))
                            * frac;
                    }
                    FrontierMode::Raw => acc += self.raw_range(cell.start(), x),
                    FrontierMode::Discard => {}
                }
                break;
            }
            let (l, r) = cell.children();
            if x >= r.start() {
                acc += self.xstar[&l];
                cell = r;
            } else {
                cell = l;
            }
        }
        acc
    }

    /// Post-processed rank estimate (clamped to `[0, live]`).
    pub fn rank_estimate(&self, x: u64) -> u64 {
        use crate::TurnstileQuantiles;
        (self.rank_signed(x).max(0.0) as u64).min(self.dq.live())
    }

    /// Post-processed φ-quantile (binary search, as in the raw
    /// structure).
    pub fn quantile(&self, phi: f64) -> Option<u64> {
        assert!(phi > 0.0 && phi < 1.0, "phi must be in (0,1), got {phi}");
        use crate::TurnstileQuantiles;
        let n = self.dq.live();
        if n == 0 {
            return None;
        }
        let target = (phi * n as f64).floor();
        let (mut lo, mut hi) = (0u64, self.dq.universe().size() - 1);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if self.rank_signed(mid) <= target {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        Some(lo)
    }

    /// The configured ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dcs::new_dcs;
    use crate::TurnstileQuantiles;
    use sqs_util::exact::{observed_errors, probe_phis, ExactQuantiles};
    use sqs_util::rng::Xoshiro256pp;

    /// The paper's worked example (Fig. 3 / Table 2): 9 nodes, all
    /// σ² = 2 except the exact root; y values consistent with the
    /// table's path sums. Every λ, π, Z, Δ and x* must match the
    /// table's exact rationals.
    #[test]
    fn reproduces_paper_table_2() {
        // Arena indices: 0 ↔ paper node 1 (root), then 2..9 ↔ 1..8.
        let mut nodes: Vec<BlueNode> = vec![
            BlueNode::new(15.0, 0.0), // 1 (root, exact)
            BlueNode::new(7.0, 2.0),  // 2
            BlueNode::new(4.0, 2.0),  // 3
            BlueNode::new(5.0, 2.0),  // 4 (leaf)
            BlueNode::new(3.0, 2.0),  // 5
            BlueNode::new(8.0, 2.0),  // 6 (leaf)
            BlueNode::new(6.0, 2.0),  // 7 (leaf)
            BlueNode::new(13.0, 2.0), // 8 (leaf)
            BlueNode::new(12.0, 2.0), // 9 (leaf)
        ];
        let link = |nodes: &mut Vec<BlueNode>, p: usize, l: usize, r: usize| {
            nodes[p].left = Some(l);
            nodes[p].right = Some(r);
            nodes[l].parent = Some(p);
            nodes[r].parent = Some(p);
        };
        link(&mut nodes, 0, 1, 2);
        link(&mut nodes, 1, 3, 4);
        link(&mut nodes, 2, 5, 6);
        link(&mut nodes, 4, 7, 8);

        solve_blue(&mut nodes);

        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        // λ (Table 2).
        assert!(close(nodes[0].lambda, 1.0));
        assert!(close(nodes[1].lambda, 15.0 / 31.0));
        assert!(close(nodes[2].lambda, 16.0 / 31.0));
        assert!(close(nodes[3].lambda, 9.0 / 31.0));
        assert!(close(nodes[4].lambda, 6.0 / 31.0));
        assert!(close(nodes[5].lambda, 8.0 / 31.0));
        assert!(close(nodes[6].lambda, 8.0 / 31.0));
        assert!(close(nodes[7].lambda, 3.0 / 31.0));
        assert!(close(nodes[8].lambda, 3.0 / 31.0));
        // π.
        assert!(close(nodes[1].pi, 12.0 / 31.0));
        assert!(close(nodes[2].pi, 12.0 / 31.0));
        assert!(close(nodes[3].pi, 9.0 / 62.0));
        assert!(close(nodes[4].pi, 9.0 / 62.0));
        assert!(close(nodes[5].pi, 4.0 / 31.0));
        assert!(close(nodes[6].pi, 4.0 / 31.0));
        assert!(close(nodes[7].pi, 3.0 / 62.0));
        assert!(close(nodes[8].pi, 3.0 / 62.0));
        // Z.
        assert!(close(nodes[0].z, 419.0 / 62.0));
        assert!(close(nodes[1].z, 243.0 / 62.0));
        assert!(close(nodes[2].z, 88.0 / 31.0));
        assert!(close(nodes[3].z, 54.0 / 31.0));
        assert!(close(nodes[4].z, 135.0 / 62.0));
        assert!(close(nodes[5].z, 48.0 / 31.0));
        assert!(close(nodes[6].z, 40.0 / 31.0));
        assert!(close(nodes[7].z, 69.0 / 62.0));
        assert!(close(nodes[8].z, 33.0 / 31.0));
        // x* (Table 2 prints 2 decimals).
        let close2 = |a: f64, b: f64| (a - b).abs() < 0.01;
        assert!(close2(nodes[0].xstar, 15.0));
        assert!(close2(nodes[1].xstar, 8.94));
        assert!(close2(nodes[2].xstar, 6.06));
        assert!(close2(nodes[3].xstar, 1.16));
        assert!(close2(nodes[4].xstar, 7.77));
        assert!(close2(nodes[5].xstar, 4.04));
        assert!(close2(nodes[6].xstar, 2.03));
        assert!(close2(nodes[7].xstar, 4.38));
        assert!(close2(nodes[8].xstar, 3.38));
    }

    /// The BLUE must satisfy the exact constraint and tree additivity:
    /// children sum to parents.
    #[test]
    fn blue_is_tree_consistent() {
        let mut nodes: Vec<BlueNode> = vec![
            BlueNode::new(100.0, 0.0),
            BlueNode::new(55.0, 3.0),
            BlueNode::new(48.0, 3.0),
            BlueNode::new(20.0, 5.0),
            BlueNode::new(33.0, 5.0),
        ];
        nodes[0].left = Some(1);
        nodes[0].right = Some(2);
        nodes[1].parent = Some(0);
        nodes[2].parent = Some(0);
        nodes[1].left = Some(3);
        nodes[1].right = Some(4);
        nodes[3].parent = Some(1);
        nodes[4].parent = Some(1);
        solve_blue(&mut nodes);
        assert!((nodes[1].xstar + nodes[2].xstar - 100.0).abs() < 1e-9);
        assert!((nodes[3].xstar + nodes[4].xstar - nodes[1].xstar).abs() < 1e-9);
        assert_eq!(nodes[0].xstar, 100.0);
    }

    fn run_errors(eps: f64, eta: f64, seed: u64) -> ((f64, f64), (f64, f64), usize) {
        let mut dcs = new_dcs(eps, 20, seed);
        let mut rng = Xoshiro256pp::new(seed ^ 0xABCD);
        let data: Vec<u64> = (0..60_000)
            .map(|_| 400_000 + rng.next_below(1 << 17) + rng.next_below(1 << 17))
            .collect();
        for &x in &data {
            dcs.insert(x);
        }
        let oracle = ExactQuantiles::new(data);
        let raw: Vec<(f64, u64)> = probe_phis(eps)
            .into_iter()
            .map(|p| (p, dcs.quantile(p).unwrap()))
            .collect();
        let raw_err = observed_errors(&oracle, &raw);
        let post = PostProcessed::new(&dcs, eps, eta);
        let cooked: Vec<(f64, u64)> = probe_phis(eps)
            .into_iter()
            .map(|p| (p, post.quantile(p).unwrap()))
            .collect();
        let post_err = observed_errors(&oracle, &cooked);
        (raw_err, post_err, post.tree_size())
    }

    #[test]
    fn post_reduces_average_error() {
        // §4.3.3: Post cuts DCS error by 60–80%. Demand a solid
        // improvement on average over seeds (individual seeds vary).
        let mut raw_sum = 0.0;
        let mut post_sum = 0.0;
        for seed in 0..3 {
            let ((_, raw_avg), (_, post_avg), _) = run_errors(0.01, 0.1, seed);
            raw_sum += raw_avg;
            post_sum += post_avg;
        }
        assert!(
            post_sum < 0.8 * raw_sum,
            "post {post_sum} not sufficiently below raw {raw_sum}"
        );
    }

    #[test]
    fn tree_size_grows_as_eta_shrinks() {
        let (_, _, big_eta) = run_errors(0.01, 1.0, 7);
        let (_, _, small_eta) = run_errors(0.01, 0.05, 7);
        assert!(small_eta > big_eta, "{small_eta} vs {big_eta}");
    }

    #[test]
    fn post_keeps_error_within_eps() {
        let ((raw_max, _), (post_max, _), _) = run_errors(0.02, 0.1, 9);
        assert!(raw_max <= 0.02, "raw {raw_max}");
        assert!(post_max <= 0.02, "post {post_max}");
    }

    #[test]
    fn interpolation_beats_raw_fallback_on_average() {
        // The default frontier mode must not be worse than the raw
        // fallback (averaged over seeds; per-seed noise is real).
        let mut interp_sum = 0.0;
        let mut raw_sum = 0.0;
        for seed in 0..3u64 {
            let mut dcs = new_dcs(0.02, 20, seed);
            let mut rng = Xoshiro256pp::new(seed ^ 0x5EED);
            let data: Vec<u64> = (0..50_000).map(|_| rng.next_below(1 << 20)).collect();
            for &x in &data {
                dcs.insert(x);
            }
            let oracle = ExactQuantiles::new(data);
            let phis = probe_phis(0.02);
            let score = |post: &PostProcessed<_>| {
                let answers: Vec<(f64, u64)> = phis
                    .iter()
                    .map(|&p| (p, post.quantile(p).unwrap()))
                    .collect();
                observed_errors(&oracle, &answers).1
            };
            let interp = PostProcessed::with_options(
                &dcs,
                0.02,
                0.1,
                FrontierMode::Interpolate,
                VarianceMode::PerCell,
            );
            let raw = PostProcessed::with_options(
                &dcs,
                0.02,
                0.1,
                FrontierMode::Raw,
                VarianceMode::PerCell,
            );
            interp_sum += score(&interp);
            raw_sum += score(&raw);
        }
        assert!(
            interp_sum <= raw_sum * 1.05,
            "interpolation {interp_sum} worse than raw {raw_sum}"
        );
    }

    #[test]
    fn cache_reuses_solution_until_the_structure_changes() {
        let mut dcs = new_dcs(0.02, 16, 6);
        let mut rng = Xoshiro256pp::new(66);
        for _ in 0..20_000 {
            dcs.insert(rng.next_below(1 << 16));
        }
        let mut cache = PostCache::new();
        assert!(!cache.is_primed());

        let first = PostProcessed::cached(&dcs, 0.02, 0.1, &mut cache);
        assert!(cache.is_primed());
        let again = PostProcessed::cached(&dcs, 0.02, 0.1, &mut cache);
        // A hit hands out the *same* solved tree, not a recomputation.
        assert!(Arc::ptr_eq(&first.xstar, &again.xstar));
        assert_eq!(first.quantile(0.5), again.quantile(0.5));

        // Different parameters miss (they are part of the key).
        let other = PostProcessed::cached(&dcs, 0.02, 0.2, &mut cache);
        assert!(!Arc::ptr_eq(&first.xstar, &other.xstar));

        // Any update bumps the version and invalidates the cache.
        drop((first, again, other));
        dcs.insert(123);
        let fresh = PostProcessed::cached(&dcs, 0.02, 0.1, &mut cache);
        assert_eq!(
            fresh.tree_size(),
            PostProcessed::new(&dcs, 0.02, 0.1).tree_size()
        );
        assert_eq!(
            fresh.quantile(0.5),
            PostProcessed::new(&dcs, 0.02, 0.1).quantile(0.5)
        );
    }

    #[test]
    fn truncated_structure_posts_within_eps() {
        // new_dcs(0.02, 20, …) carries a level cutoff of 4: the
        // pipeline's descent floor, frontier handling, and raw_range
        // alignment must all respect it while staying inside ε.
        let eps = 0.02;
        let dcs = new_dcs(eps, 20, 12);
        assert!(dcs.level_cutoff() > 0, "test premise: truncation on");
        let mut dcs = dcs;
        let mut rng = Xoshiro256pp::new(77);
        let data: Vec<u64> = (0..50_000).map(|_| rng.next_below(1 << 20)).collect();
        for &x in &data {
            dcs.insert(x);
        }
        let oracle = ExactQuantiles::new(data);
        for mode in [
            FrontierMode::Interpolate,
            FrontierMode::Raw,
            FrontierMode::Discard,
        ] {
            let post = PostProcessed::with_options(&dcs, eps, 0.1, mode, VarianceMode::PerCell);
            let answers: Vec<(f64, u64)> = probe_phis(eps)
                .into_iter()
                .map(|p| (p, post.quantile(p).unwrap()))
                .collect();
            let (max_err, _) = observed_errors(&oracle, &answers);
            assert!(max_err <= eps, "mode {mode:?}: max {max_err}");
        }
    }

    /// A tree with an unobserved (σ² = ∞) internal node solves as the
    /// limit of ever-noisier observations of it, ignores that node's
    /// own value, and stays additive.
    #[test]
    fn unobserved_node_is_the_infinite_variance_limit() {
        let solve = |y: f64, s2: f64| {
            let mut nodes: Vec<BlueNode> = vec![
                BlueNode::new(100.0, 0.0),
                BlueNode::new(y, s2), // the derived node
                BlueNode::new(42.0, 3.0),
                BlueNode::new(20.0, 5.0),
                BlueNode::new(33.0, 4.0),
            ];
            nodes[0].left = Some(1);
            nodes[0].right = Some(2);
            nodes[1].parent = Some(0);
            nodes[2].parent = Some(0);
            nodes[1].left = Some(3);
            nodes[1].right = Some(4);
            nodes[3].parent = Some(1);
            nodes[4].parent = Some(1);
            solve_blue(&mut nodes);
            nodes.iter().map(|n| n.xstar).collect::<Vec<f64>>()
        };
        let at_inf = solve(61.0, f64::INFINITY);
        let near = solve(61.0, 1e15);
        for (a, b) in at_inf.iter().zip(&near) {
            assert!((a - b).abs() < 1e-6, "{at_inf:?} vs {near:?}");
        }
        assert_eq!(solve(500.0, f64::INFINITY), at_inf);
        assert!((at_inf[1] + at_inf[2] - 100.0).abs() < 1e-9);
        assert!((at_inf[3] + at_inf[4] - at_inf[1]).abs() < 1e-9);
    }

    /// T̂ crossing derived levels: no frontier leaf sits on one, and the
    /// solution satisfies every children-sum constraint of T̂.
    fn frontier_avoids_derived_levels<S: FrequencySketch>(dq: &DyadicQuantiles<S>) {
        let n = dq.live() as f64;
        let post = PostProcessed::new(dq, 0.02, 0.1);
        let mut derived_inside = 0;
        for (&cell, &x) in post.xstar.iter() {
            if !post.has_children(cell) {
                assert!(
                    !dq.is_derived_level(cell.level),
                    "frontier leaf {cell:?} on a derived level"
                );
                continue;
            }
            derived_inside += usize::from(dq.is_derived_level(cell.level));
            let (l, r) = cell.children();
            let sum = post.xstar[&l] + post.xstar[&r];
            assert!((sum - x).abs() <= 1e-9 * n, "{cell:?}: {x} vs {sum}");
        }
        assert!(derived_inside > 0, "test premise: T̂ crosses derived levels");
    }

    #[test]
    fn post_expands_every_derived_node_and_stays_additive() {
        let mut rng = Xoshiro256pp::new(23);
        let data: Vec<u64> = (0..40_000)
            .map(|_| rng.next_below(1 << 10) * rng.next_below(1 << 10))
            .collect();
        let mut dcs = new_dcs(0.02, 20, 5);
        let mut dcm = crate::new_dcm(0.02, 20, 5);
        dcs.insert_batch(&data);
        dcm.insert_batch(&data);
        frontier_avoids_derived_levels(&dcs);
        frontier_avoids_derived_levels(&dcm);
    }

    #[test]
    fn empty_structure_is_handled() {
        let dcs = new_dcs(0.05, 12, 1);
        let post = PostProcessed::new(&dcs, 0.05, 0.1);
        assert_eq!(post.quantile(0.5), None);
        assert_eq!(post.tree_size(), 0);
    }

    #[test]
    fn raw_range_decomposition_is_exact_on_exact_levels() {
        // Small universe and fine ε → every level has fewer cells than
        // the sketch budget → all levels exact → raw_range is exact.
        let mut dcs = new_dcs(0.05, 8, 2);
        assert!(dcs.is_exact_level(0), "test premise: level 0 exact");
        for x in 0..256u64 {
            dcs.insert(x);
        }
        let post = PostProcessed::new(&dcs, 0.05, 0.1);
        assert_eq!(post.raw_range(0, 256), 256.0);
        assert_eq!(post.raw_range(10, 20), 10.0);
        assert_eq!(post.raw_range(0, 0), 0.0);
        assert_eq!(post.raw_range(255, 256), 1.0);
    }
}
