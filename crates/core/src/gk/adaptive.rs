//! `GKAdaptive` — the variant of GK its authors actually implemented
//! (§2.1.1): insert `(v, 1, g_i + Δ_i − 1)` before the successor, then
//! try to remove *one* removable tuple, located with a min-heap keyed
//! by `g_i + g_{i+1} + Δ_{i+1}`.
//!
//! The heap key of a tuple depends on its successor, so insertions and
//! removals invalidate neighbours' keys. We use the classic *lazy
//! versioned heap*: every key change bumps the tuple's version and
//! pushes a fresh entry; stale entries are discarded when popped.
//! Tuples live in a slab arena threaded as a doubly-linked list, with
//! a `BTreeMap` ordered index for successor search — the pointer-
//! chasing structure whose cache behaviour §4.2.3 of the paper
//! dissects (the "big speed loss when space exceeds the CPU cache").

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "indices and narrowing casts stay within the bounds `check_invariants` audits"
)]

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use super::{query_quantiles, query_rank, threshold, Tuple};
use crate::QuantileSummary;
use sqs_util::space::{words, SpaceUsage};

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Slot<T> {
    v: T,
    g: u64,
    delta: u64,
    prev: u32,
    next: u32,
    /// Bumped whenever this tuple's heap key changes; stale heap
    /// entries carry an old version and are dropped at pop time.
    version: u32,
    /// Never-reused insertion sequence number: the ordered-index
    /// tie-breaker among equal element values. Slot ids are recycled
    /// through the free list, so they cannot serve as the tie-breaker —
    /// among equal values, BTreeMap order must equal list order, which
    /// insertion order provides (new duplicates always append after
    /// their equals).
    seq: u64,
    alive: bool,
}

/// The heap-based adaptive Greenwald–Khanna summary (deterministic,
/// comparison-based; heuristic space, empirically excellent).
#[derive(Debug, Clone)]
pub struct GkAdaptive<T: Ord + Copy> {
    eps: f64,
    n: u64,
    arena: Vec<Slot<T>>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    len: usize,
    next_seq: u64,
    /// Ordered index for successor search, keyed by (value, insertion
    /// seq) so that equal values sort in list order.
    index: BTreeMap<(T, u64), u32>,
    /// Min-heap of (key, slot, version); key = g_i + g_{i+1} + Δ_{i+1}.
    heap: BinaryHeap<Reverse<(u64, u32, u32)>>,
}

impl<T: Ord + Copy> GkAdaptive<T> {
    /// Creates a summary with error guarantee ε.
    ///
    /// # Panics
    /// Panics unless `0 < ε < 1`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1), got {eps}");
        Self {
            eps,
            n: 0,
            arena: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            next_seq: 0,
            index: BTreeMap::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Number of tuples currently held.
    pub fn tuple_count(&self) -> usize {
        self.len
    }

    /// The configured ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Materializes the tuples in sorted order (queries, tests).
    pub fn tuples(&self) -> Vec<Tuple<T>> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.head;
        while cur != NIL {
            let s = &self.arena[cur as usize];
            out.push(Tuple {
                v: s.v,
                g: s.g,
                delta: s.delta,
            });
            cur = s.next;
        }
        out
    }

    fn alloc(&mut self, v: T, g: u64, delta: u64) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        if let Some(id) = self.free.pop() {
            let s = &mut self.arena[id as usize];
            s.v = v;
            s.g = g;
            s.delta = delta;
            s.prev = NIL;
            s.next = NIL;
            s.version = s.version.wrapping_add(1);
            s.seq = seq;
            s.alive = true;
            id
        } else {
            let id = self.arena.len() as u32;
            self.arena.push(Slot {
                v,
                g,
                delta,
                prev: NIL,
                next: NIL,
                version: 0,
                seq,
                alive: true,
            });
            id
        }
    }

    /// Pushes a fresh heap entry for `id` (must have a successor).
    fn push_key(&mut self, id: u32) {
        let s = &self.arena[id as usize];
        debug_assert!(s.alive);
        if s.next == NIL {
            return; // the max tuple has no key and is never removed
        }
        let succ = &self.arena[s.next as usize];
        let key = s.g + succ.g + succ.delta;
        self.heap.push(Reverse((key, id, s.version)));
    }

    /// Bumps a slot's version (invalidating old heap entries) and
    /// pushes its recomputed key.
    fn refresh_key(&mut self, id: u32) {
        if id == NIL {
            return;
        }
        let s = &mut self.arena[id as usize];
        if !s.alive {
            return;
        }
        s.version = s.version.wrapping_add(1);
        self.push_key(id);
    }

    /// Unlinks `id`, folding its `g` into the successor, and refreshes
    /// the affected neighbour keys.
    fn remove(&mut self, id: u32) {
        let (prev, next, g) = {
            let s = &self.arena[id as usize];
            (s.prev, s.next, s.g)
        };
        debug_assert!(next != NIL, "only tuples with a successor are removable");
        let (v, seq) = {
            let s = &self.arena[id as usize];
            (s.v, s.seq)
        };
        self.index.remove(&(v, seq));
        self.arena[next as usize].g += g;
        self.arena[next as usize].prev = prev;
        if prev == NIL {
            self.head = next;
        } else {
            self.arena[prev as usize].next = next;
        }
        self.arena[id as usize].alive = false;
        self.arena[id as usize].version = self.arena[id as usize].version.wrapping_add(1);
        self.free.push(id);
        self.len -= 1;
        // Keys depending on the changed g/links: predecessor (new
        // successor & its g) and the successor itself (its own g grew).
        self.refresh_key(prev);
        self.refresh_key(next);
    }

    /// Pops stale heap entries and removes the top tuple if its key is
    /// within the capacity threshold. Returns whether a removal
    /// happened.
    fn try_remove_one(&mut self, cap: u64) -> bool {
        while let Some(&Reverse((key, id, version))) = self.heap.peek() {
            let s = &self.arena[id as usize];
            // Head and tail are never removed: the summary keeps the
            // exact minimum and maximum, which the query guarantee needs.
            if !s.alive || s.version != version || s.next == NIL || id == self.head {
                self.heap.pop();
                continue;
            }
            if key <= cap {
                self.heap.pop();
                self.remove(id);
                self.maybe_shrink_heap();
                return true;
            }
            return false;
        }
        false
    }

    /// Rebuilds the heap when stale entries dominate (keeps the heap
    /// O(|L|) so space accounting stays honest).
    fn maybe_shrink_heap(&mut self) {
        if self.heap.len() > 4 * self.len.max(16) {
            let mut fresh = BinaryHeap::with_capacity(self.len);
            for e in self.heap.drain() {
                let Reverse((_, id, version)) = e;
                let s = &self.arena[id as usize];
                if s.alive && s.version == version && s.next != NIL {
                    fresh.push(e);
                }
            }
            self.heap = fresh;
        }
    }
}

impl<T: Ord + Copy> sqs_util::audit::CheckInvariants for GkAdaptive<T> {
    /// GKAdaptive invariants (§2.1.1): the GK tuple invariants over the
    /// materialized list, plus the arena bookkeeping — doubly-linked
    /// list consistency (prev/next symmetry, head/tail sentinels, live
    /// count), the ordered index mirroring the list one-to-one, and the
    /// lazy heap staying within its rebuild bound.
    fn check_invariants(&self) -> Result<(), sqs_util::audit::InvariantViolation> {
        use sqs_util::audit::ensure;
        const ALG: &str = "GKAdaptive";
        ensure(
            self.eps > 0.0 && self.eps < 1.0,
            ALG,
            "gk.eps_range",
            || format!("eps = {} outside (0,1)", self.eps),
        )?;
        // Walk the list, checking link symmetry and liveness.
        let mut count = 0usize;
        let mut prev = NIL;
        let mut cur = self.head;
        while cur != NIL {
            ensure(count <= self.len, ALG, "gkadaptive.list_cycle", || {
                format!("list walk exceeded len {} — cycle suspected", self.len)
            })?;
            let s = &self.arena[cur as usize];
            ensure(s.alive, ALG, "gkadaptive.dead_slot_linked", || {
                format!("slot {cur} is linked but not alive")
            })?;
            ensure(s.prev == prev, ALG, "gkadaptive.link_symmetry", || {
                format!("slot {cur}: prev = {} but walked from {prev}", s.prev)
            })?;
            ensure(
                self.index.get(&(s.v, s.seq)) == Some(&cur),
                ALG,
                "gkadaptive.index_mirror",
                || format!("slot {cur} missing from (or misfiled in) the ordered index"),
            )?;
            count += 1;
            prev = cur;
            cur = s.next;
        }
        ensure(prev == self.tail, ALG, "gkadaptive.tail_sentinel", || {
            format!("list ends at slot {prev}, but tail = {}", self.tail)
        })?;
        ensure(count == self.len, ALG, "gkadaptive.len_count", || {
            format!("walked {count} live slots, len says {}", self.len)
        })?;
        ensure(
            count == self.index.len(),
            ALG,
            "gkadaptive.index_size",
            || {
                format!(
                    "index holds {} entries for {count} live slots",
                    self.index.len()
                )
            },
        )?;
        ensure(
            self.heap.len() <= 4 * self.len.max(16) + self.len + 1,
            ALG,
            "gkadaptive.heap_bound",
            || {
                format!(
                    "lazy heap holds {} entries for {} tuples — rebuild bound breached",
                    self.heap.len(),
                    self.len
                )
            },
        )?;
        super::audit_tuples(&self.tuples(), self.eps, self.n, ALG)
    }
}

impl<T: Ord + Copy> QuantileSummary<T> for GkAdaptive<T> {
    /// Bulk insert with a sort-then-insert fast path: the batch is
    /// sorted once, so each element's successor search hits the
    /// ordered index in a warm, nearby position and the one-removal
    /// heuristic prunes along a single left-to-right sweep. The
    /// summary differs structurally from itemwise arrival order (GK
    /// summaries are order-sensitive) but carries the identical
    /// `g+Δ ≤ ⌊2εn⌋` guarantee, so rank answers agree within `ε·n`.
    fn insert_batch(&mut self, xs: &[T]) {
        let mut sorted = xs.to_vec();
        sorted.sort_unstable();
        for &x in &sorted {
            self.insert(x);
        }
    }

    fn insert(&mut self, x: T) {
        self.n += 1;
        let cap = threshold(self.eps, self.n);

        // Successor: smallest v_i with v_i > x (duplicates insert after
        // their equals, matching §2.1's "find its successor" rule).
        let succ = self
            .index
            .range((x, u64::MAX)..)
            .next()
            .map(|(_, &id)| id)
            .unwrap_or(NIL);

        let delta = if succ == NIL || self.len == 0 || succ == self.head {
            // New maximum, first element, or new minimum: its true rank
            // is known exactly, so pin it (Δ = 0). Pinning the extremes
            // is what makes a two-sided-valid tuple exist for every
            // target rank (see `query_quantiles`).
            0
        } else {
            let sc = &self.arena[succ as usize];
            (sc.g + sc.delta).saturating_sub(1)
        };
        let id = self.alloc(x, 1, delta);
        // Link before succ (or at tail).
        if succ == NIL {
            let old_tail = self.tail;
            self.arena[id as usize].prev = old_tail;
            if old_tail != NIL {
                self.arena[old_tail as usize].next = id;
            } else {
                self.head = id;
            }
            self.tail = id;
        } else {
            let prev = self.arena[succ as usize].prev;
            self.arena[id as usize].prev = prev;
            self.arena[id as usize].next = succ;
            self.arena[succ as usize].prev = id;
            if prev == NIL {
                self.head = id;
            } else {
                self.arena[prev as usize].next = id;
            }
        }
        let seq = self.arena[id as usize].seq;
        self.index.insert((x, seq), id);
        self.len += 1;

        // New tuple's key, and the predecessor's (its successor changed).
        self.push_key(id);
        let prev = self.arena[id as usize].prev;
        self.refresh_key(prev);
        // The old tail gained a successor when appending at the end.
        if succ == NIL && prev != NIL {
            // refresh_key(prev) above already covered it.
        }

        // §2.1.1 step 2: first check the new tuple itself, then the
        // heap top; remove at most one tuple.
        let removable_self = id != self.head && {
            let s = &self.arena[id as usize];
            s.next != NIL && {
                let sc = &self.arena[s.next as usize];
                s.g + sc.g + sc.delta <= cap
            }
        };
        if removable_self {
            self.remove(id);
        } else {
            self.try_remove_one(cap);
        }
        self.maybe_shrink_heap();
        #[cfg(any(test, feature = "audit"))]
        if sqs_util::audit::audit_point(self.n) {
            sqs_util::audit::CheckInvariants::assert_invariants(self);
        }
    }

    fn n(&self) -> u64 {
        self.n
    }

    fn rank_estimate(&mut self, x: T) -> u64 {
        query_rank(&self.tuples(), x)
    }

    fn quantile(&mut self, phi: f64) -> Option<T> {
        self.quantiles(&[phi]).pop().flatten()
    }

    /// One walk of the list for the whole sweep.
    fn quantiles(&mut self, phis: &[f64]) -> Vec<Option<T>> {
        query_quantiles(&self.tuples(), self.n, self.eps, phis)
    }

    fn name(&self) -> &'static str {
        "GKAdaptive"
    }
}

impl<T: Ord + Copy> SpaceUsage for GkAdaptive<T> {
    fn space_bytes(&self) -> usize {
        // Per live tuple: v,g,Δ (3 words) + prev/next pointers (2) +
        // index entry (key word + 2 tree pointers = 3). The lazy heap
        // adds 2 words (key + slot ref) per entry.
        words(self.len * (3 + 2 + 3) + self.heap.len() * 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gk::check_invariants;
    use sqs_util::exact::{observed_errors, probe_phis, ExactQuantiles};
    use sqs_util::rng::Xoshiro256pp;

    fn check_errors(eps: f64, data: Vec<u64>) {
        let mut s = GkAdaptive::new(eps);
        for &x in &data {
            s.insert(x);
        }
        check_invariants(&s.tuples(), eps, s.n()).unwrap();
        let oracle = ExactQuantiles::new(data);
        let answers: Vec<(f64, u64)> = probe_phis(eps)
            .into_iter()
            .map(|p| (p, s.quantile(p).unwrap()))
            .collect();
        let (max_err, _) = observed_errors(&oracle, &answers);
        assert!(max_err <= eps, "max error {max_err} > eps {eps}");
    }

    #[test]
    fn errors_within_eps_random_order() {
        let mut rng = Xoshiro256pp::new(2);
        let data: Vec<u64> = (0..20_000).map(|_| rng.next_below(1 << 24)).collect();
        check_errors(0.02, data);
    }

    #[test]
    fn insert_batch_is_rank_equivalent_to_itemwise() {
        // The sort-then-insert path produces a structurally different
        // summary (GK is arrival-order-sensitive) under the same
        // `g+Δ ≤ ⌊2εn⌋` invariant, so both sides must rank every probe
        // within ε·n of the truth — and hence within 2ε·n of each other.
        let eps = 0.02;
        let mut rng = Xoshiro256pp::new(92);
        let data: Vec<u64> = (0..30_000).map(|_| rng.next_below(1 << 24)).collect();
        let mut itemwise = GkAdaptive::new(eps);
        for &x in &data {
            itemwise.insert(x);
        }
        let mut batched = GkAdaptive::new(eps);
        for chunk in data.chunks(1511) {
            batched.insert_batch(chunk);
        }
        assert_eq!(itemwise.n(), batched.n());
        check_invariants(&batched.tuples(), eps, batched.n()).unwrap();
        let slack = (2.0 * eps * data.len() as f64) as u64;
        let oracle = ExactQuantiles::new(data);
        let answers: Vec<(f64, u64)> = probe_phis(eps)
            .into_iter()
            .map(|p| (p, batched.quantile(p).unwrap()))
            .collect();
        let (max_err, _) = observed_errors(&oracle, &answers);
        assert!(max_err <= eps, "batched max error {max_err} > eps {eps}");
        for x in [1u64 << 20, 1 << 22, 1 << 23] {
            let (ri, rb) = (itemwise.rank_estimate(x), batched.rank_estimate(x));
            assert!(ri.abs_diff(rb) <= slack, "x={x}: {ri} vs {rb}");
        }
    }

    #[test]
    fn errors_within_eps_sorted() {
        check_errors(0.05, (0..10_000u64).collect());
    }

    #[test]
    fn errors_within_eps_reverse_sorted() {
        check_errors(0.05, (0..10_000u64).rev().collect());
    }

    #[test]
    fn errors_within_eps_duplicates() {
        check_errors(0.05, (0..10_000u64).map(|i| i % 13).collect());
    }

    #[test]
    fn linked_list_stays_consistent() {
        let mut rng = Xoshiro256pp::new(3);
        let mut s = GkAdaptive::new(0.1);
        for _ in 0..5_000 {
            s.insert(rng.next_below(1000));
        }
        let tuples = s.tuples();
        assert_eq!(tuples.len(), s.tuple_count());
        // Sorted and g-sums match n.
        for w in tuples.windows(2) {
            assert!(w[0].v <= w[1].v);
        }
        assert_eq!(tuples.iter().map(|t| t.g).sum::<u64>(), 5_000);
    }

    #[test]
    fn space_is_sublinear_and_bounded_heap() {
        let mut rng = Xoshiro256pp::new(4);
        let mut s = GkAdaptive::new(0.01);
        for _ in 0..100_000u64 {
            s.insert(rng.next_below(1 << 30));
        }
        assert!(s.tuple_count() < 10_000, "tuples = {}", s.tuple_count());
        // Lazy heap must stay within its rebuild bound.
        assert!(s.heap.len() <= 4 * s.tuple_count().max(16) + s.tuple_count());
    }

    #[test]
    fn singleton_and_empty() {
        let mut s = GkAdaptive::<u64>::new(0.1);
        assert_eq!(s.quantile(0.5), None);
        s.insert(7);
        assert_eq!(s.quantile(0.5), Some(7));
        assert_eq!(s.rank_estimate(100), 0);
    }

    /// The query-time ceiling, as a ratio so it holds on any machine: a
    /// 99-φ `quantiles` walks the list once, so it may cost at most 5×
    /// one `quantile` (best of nine each) on the `paper_suite` shape
    /// (ε = 10⁻³, 2^18 uniform rows). The per-φ loop it replaced walked
    /// the list 99 times.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "timing ceiling: run with --release")]
    fn gk_sweep_is_one_walk() {
        use std::hint::black_box;
        use std::time::Instant;
        let mut rng = Xoshiro256pp::new(0x5017e);
        let mut s = GkAdaptive::new(1e-3);
        (0..1 << 18).for_each(|_| s.insert(rng.next_below(1 << 32)));
        let phis = probe_phis(0.01);
        let best = |s: &mut GkAdaptive<u64>, query: &dyn Fn(&mut GkAdaptive<u64>)| {
            (0..9)
                .map(|_| {
                    let start = Instant::now();
                    query(s);
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let sweep = best(&mut s, &|s| {
            black_box(s.quantiles(black_box(&phis)));
        });
        let one = best(&mut s, &|s| {
            black_box(s.quantile(black_box(0.5)));
        });
        let ratio = sweep / one;
        println!("a 99-phi sweep costs {ratio:.2}x one quantile");
        assert!(
            ratio <= 5.0,
            "a 99-phi sweep costs {ratio:.1}x one quantile"
        );
    }

    #[test]
    fn all_equal_stream_collapses() {
        let mut s = GkAdaptive::new(0.01);
        for _ in 0..10_000 {
            s.insert(5u64);
        }
        assert_eq!(s.quantile(0.5), Some(5));
        assert!(s.tuple_count() < 200, "tuples = {}", s.tuple_count());
    }
}

#[cfg(test)]
mod corruption {
    use super::*;
    use sqs_util::audit::CheckInvariants;

    fn filled() -> GkAdaptive<u64> {
        let mut s = GkAdaptive::new(0.02);
        for x in 0..10_000u64 {
            s.insert(x % 1_009);
        }
        s
    }

    #[test]
    fn auditor_catches_len_drift() {
        let mut s = filled();
        s.len += 1;
        let err = s.check_invariants().unwrap_err();
        assert_eq!(err.algorithm, "GKAdaptive");
        assert_eq!(err.invariant, "gkadaptive.len_count");
    }

    #[test]
    fn auditor_catches_index_desync() {
        let mut s = filled();
        let key = *s.index.keys().next().expect("nonempty index");
        s.index.remove(&key);
        let err = s.check_invariants().unwrap_err();
        assert!(
            err.invariant == "gkadaptive.index_mirror" || err.invariant == "gkadaptive.index_size",
            "unexpected invariant {}",
            err.invariant
        );
    }
}
