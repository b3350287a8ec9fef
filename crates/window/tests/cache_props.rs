//! A window answer cannot be stale. A seeded schedule interleaves
//! on-time, late and future-stamped ingests, rotations by 0–3 buckets
//! (now and then a jump of up to a tenth of the retention), and queries
//! over sliding 1/8/64/80 and tumbling 4/16 — with the open bucket empty
//! or not, and tumbling before its first span completes. Every answer
//! must equal, range, mass and quantiles, what the backend's oracle
//! computes from a mirror of the ring's buckets, and the ring's
//! invariants (mass conservation and the part indexes' coherence among
//! them) must hold after every step.
//!
//! Two backends, one per read path. `Random` has runs, so the ring
//! reads a window as one union of its parts' rank indexes: its oracle is
//! one `RankIndex::build` over the runs of the covered parts, in the
//! ring's part order (the whole rollups, then the sealed fine buckets of
//! the ragged edges, then the open bucket). The q-digest has none, so
//! the ring merges: its oracle is a fresh build of the merge shape. Half
//! the schedules draw values from 64, so that equal values of different
//! weight meet across parts and the part order shows in the answers.

use std::collections::BTreeMap;

use sqs_core::buffers::RankIndex;
use sqs_core::qdigest::QDigest;
use sqs_core::random::RandomSketch;
use sqs_core::{MergeableSummary, QuantileSummary};
use sqs_engine::merge_tree;
use sqs_util::audit::CheckInvariants;
use sqs_util::rng::Xoshiro256pp;
use sqs_window::{LatePolicy, WindowAnswer, WindowConfig, WindowKind, WindowRing, WindowSpec};

const BUCKET: u64 = 1_000;
/// Holds sliding 80 and tumbling 16 (which needs 32), and evicts within
/// a schedule.
const RETENTION: u64 = 80;
const STEPS: usize = 600;
const PHIS: [f64; 5] = [0.05, 0.25, 0.5, 0.75, 0.95];
const SPECS: [(WindowKind, u64); 6] = [
    (WindowKind::Sliding, 1),
    (WindowKind::Sliding, 8),
    (WindowKind::Sliding, 64),
    (WindowKind::Sliding, RETENTION),
    (WindowKind::Tumbling, 4),
    (WindowKind::Tumbling, 16),
];

/// A summary the ring is checked over, and how the ring must read the
/// parts a window covers.
trait Backend: MergeableSummary<u64> + Clone + Send + Sync + 'static {
    fn make(idx: u64) -> Self;

    /// The quantiles of [`PHIS`] over `sealed` (the rollups, then the
    /// fine buckets of the edges, each ascending) and the open bucket.
    fn oracle(sealed: Vec<Self>, open: Option<&Self>) -> Vec<Option<u64>>;
}

impl Backend for RandomSketch<u64> {
    fn make(idx: u64) -> Self {
        RandomSketch::new(0.05, 0x5EA1 ^ idx)
    }

    /// One index over every part's runs, concatenated in part order: the
    /// union the ring reads without merging.
    fn oracle(sealed: Vec<Self>, open: Option<&Self>) -> Vec<Option<u64>> {
        let parts: Vec<&Self> = sealed.iter().chain(open).collect();
        let mut runs = Vec::new();
        for part in parts {
            let part = part.runs().expect("Random has runs");
            runs.extend(part.stable);
            runs.extend(part.fresh);
        }
        let index = RankIndex::build(&runs);
        PHIS.iter().map(|&phi| index.quantile(phi)).collect()
    }
}

impl Backend for QDigest {
    /// Over `[0, 2^16)`, the wider of the schedules' two value domains.
    fn make(_idx: u64) -> Self {
        QDigest::new(0.05, 16)
    }

    /// The merge shape: `merge_tree` of the sealed parts, then a clone of
    /// the open bucket, when in range, with that merge merged in.
    fn oracle(sealed: Vec<Self>, open: Option<&Self>) -> Vec<Option<u64>> {
        let sealed = (!sealed.is_empty()).then(|| merge_tree(sealed).0);
        let root = match open {
            Some(open) => {
                let mut root = open.clone();
                if let Some(sealed) = sealed {
                    root.merge_from(sealed);
                }
                Some(root)
            }
            None => sealed,
        };
        match root {
            Some(mut s) => s.quantiles(&PHIS),
            None => vec![None; PHIS.len()],
        }
    }
}

/// Each bucket's summary, fed the batches the ring accepted in the order
/// it accepted them, so every mirror bucket is the ring's bit for bit.
struct Mirror<S> {
    buckets: BTreeMap<u64, S>,
    cur: u64,
    late: LatePolicy,
    rollup_factor: u64,
}

impl<S: Backend> Mirror<S> {
    fn advance(&mut self, now: u64) {
        self.cur = self.cur.max(now / BUCKET);
        let min_retained = (self.cur + 1).saturating_sub(RETENTION);
        self.buckets = self.buckets.split_off(&min_retained);
    }

    fn ingest(&mut self, ts: u64, xs: &[u64]) {
        if xs.is_empty() || (ts / BUCKET < self.cur && self.late == LatePolicy::Drop) {
            return;
        }
        let cur = self.cur;
        self.buckets
            .entry(cur)
            .or_insert_with(|| S::make(cur))
            .insert_batch(xs);
    }

    fn live_items(&self) -> u64 {
        self.buckets.values().map(QuantileSummary::n).sum()
    }

    /// The window `spec` covers, its mass, and the oracle's answers
    /// over its parts: one rollup per aligned group lying inside the
    /// sealed part (each `merge_tree` of the group's buckets), then the
    /// sealed fine buckets of its edges, then the open bucket if in
    /// range.
    fn answer(&self, spec: WindowSpec) -> WindowAnswer {
        let m = spec.len_nanos / BUCKET;
        let (lo, hi) = match spec.kind {
            WindowKind::Sliding => ((self.cur + 1).saturating_sub(m), self.cur),
            WindowKind::Tumbling => match self.cur / m {
                0 => {
                    return WindowAnswer {
                        start_nanos: 0,
                        end_nanos: 0,
                        n: 0,
                        answers: vec![None; PHIS.len()],
                    }
                }
                g => ((g - 1) * m, g * m - 1),
            },
        };
        let mut parts = Vec::new();
        if lo < self.cur {
            let sealed_hi = hi.min(self.cur - 1);
            let f = self.rollup_factor;
            let groups = if f >= 2 {
                lo.div_ceil(f)..(sealed_hi + 1) / f
            } else {
                0..0
            };
            for g in groups.clone() {
                let group = self.buckets.range(g * f..=g * f + f - 1);
                let group: Vec<_> = group.map(|(_, s)| s.clone()).collect();
                if !group.is_empty() {
                    parts.push(merge_tree(group).0);
                }
            }
            let fine = self.buckets.range(lo..=sealed_hi);
            let fine = fine.filter(|(&i, _)| !(f >= 2 && groups.contains(&(i / f))));
            parts.extend(fine.map(|(_, s)| s.clone()));
        }
        let open = (hi == self.cur).then(|| self.buckets.get(&hi)).flatten();
        WindowAnswer {
            start_nanos: lo * BUCKET,
            end_nanos: (hi + 1) * BUCKET,
            n: self.buckets.range(lo..=hi).map(|(_, s)| s.n()).sum(),
            answers: S::oracle(parts, open),
        }
    }
}

/// What one schedule went through, so the test can insist on coverage.
#[derive(Default)]
struct Seen {
    queries: u64,
    empty_open: u64,
    before_first_tumbling: u64,
}

fn run<S: Backend>(seed: u64, rollup_factor: u64, late: LatePolicy, domain: u64) -> (Seen, u64) {
    let cfg = WindowConfig {
        bucket_nanos: BUCKET,
        retention_buckets: RETENTION,
        rollup_factor,
        late_policy: late,
    };
    let mut ring = WindowRing::new(cfg, S::make);
    let mut mirror = Mirror::<S> {
        buckets: BTreeMap::new(),
        cur: 0,
        late,
        rollup_factor,
    };
    let mut rng = Xoshiro256pp::new(seed);
    let mut seen = Seen::default();
    let mut now = 0u64;
    for step in 0..STEPS {
        match rng.next_below(10) {
            // On time, late by 1–3 buckets, or stamped 1–3 ahead.
            0..=3 => {
                let xs: Vec<u64> = (0..1 + rng.next_below(48))
                    .map(|_| rng.next_below(domain))
                    .collect();
                let shift = (1 + rng.next_below(3)) * BUCKET;
                let ts = match rng.next_below(4) {
                    0 => now.saturating_sub(shift),
                    1 => now + shift,
                    _ => now,
                };
                ring.ingest(ts, &xs, now);
                mirror.ingest(ts, &xs);
            }
            // Rotate by 0–3 buckets, one time in eight by up to a tenth
            // of the retention (past a whole rollup group read at the
            // horizon), to a random point of the bucket.
            4..=5 => {
                let by = match rng.next_below(8) {
                    0 => rng.next_below(RETENTION / 10 + 1),
                    _ => rng.next_below(4),
                };
                let idx = now / BUCKET + by;
                now = now.max(idx * BUCKET + rng.next_below(BUCKET));
                ring.advance_to(now);
                mirror.advance(now);
            }
            _ => {
                let (kind, m) = SPECS[rng.next_below(SPECS.len() as u64) as usize];
                let spec = WindowSpec {
                    kind,
                    len_nanos: m * BUCKET,
                };
                let got = ring.query(spec, &PHIS, now).expect("every spec fits");
                let want = mirror.answer(spec);
                assert_eq!(got, want, "seed {seed:#x} step {step} {spec:?}");
                seen.queries += 1;
                seen.empty_open += u64::from(
                    kind == WindowKind::Sliding && !mirror.buckets.contains_key(&mirror.cur),
                );
                seen.before_first_tumbling += u64::from(want.end_nanos == 0);
            }
        }
        if let Err(v) = ring.check_invariants() {
            panic!("seed {seed:#x} step {step}: {v}");
        }
        assert_eq!(ring.stats().live_items, mirror.live_items(), "step {step}");
    }
    (seen, ring.stats().cache_hits)
}

/// Twelve schedules over every rollup factor, late policy and value
/// domain; the schedules must reach the cases they exist for, and both
/// the queries that build something and those that build nothing.
fn every_answer_equals_the_oracle<S: Backend>() {
    let mut total = Seen::default();
    let mut hits = 0;
    for (i, seed) in (0xCAC0_0000u64..0xCAC0_0000 + 12).enumerate() {
        let rollup_factor = [0, 4, 8][i % 3];
        let late = [LatePolicy::Drop, LatePolicy::RouteToCurrent][i % 2];
        let domain = [1 << 16, 64][i / 6];
        let (seen, seed_hits) = run::<S>(seed, rollup_factor, late, domain);
        total.queries += seen.queries;
        total.empty_open += seen.empty_open;
        total.before_first_tumbling += seen.before_first_tumbling;
        hits += seed_hits;
    }
    assert!(total.empty_open > 0, "no query saw an empty open bucket");
    assert!(
        total.before_first_tumbling > 0,
        "no tumbling query came early"
    );
    assert!(
        hits > total.queries / 4 && hits < total.queries,
        "{hits} hits over {} queries: both paths must run",
        total.queries
    );
}

#[test]
fn random_answers_equal_one_index_over_the_covered_parts() {
    every_answer_equals_the_oracle::<RandomSketch<u64>>();
}

#[test]
fn qdigest_answers_equal_a_fresh_build_of_its_merge_shape() {
    every_answer_equals_the_oracle::<QDigest>();
}
