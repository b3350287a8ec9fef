//! The sealed-merge cache's speed floor, as a ratio so it holds on any
//! machine: a sliding-64 query right after an insert, with its sealed
//! merge cached, against the same query right after a rotation, which
//! moves the range and rebuilds the merge. The ring has `window_mix`'s
//! shape: rollups of 8, 256 buckets retained, 16 frames of 1 024 rows
//! per bucket.
//!
//! That both paths give the same answers as a fresh merge is
//! `cache_props.rs`'s job; absolute query latency is the benchmark's
//! (`window_mix` against the parent).

use std::hint::black_box;
use std::time::Instant;

use sqs_core::random::RandomSketch;
use sqs_util::rng::Xoshiro256pp;
use sqs_window::{WindowConfig, WindowRing, WindowSpec};

const BUCKET: u64 = 1_000;
const RETENTION: u64 = 256;
const FRAMES_PER_BUCKET: usize = 16;
const ROWS: usize = 1024;
/// Timed queries per pass.
const QUERIES: usize = 16;
const PHIS: [f64; 5] = [0.05, 0.25, 0.5, 0.75, 0.95];

struct Feed {
    ring: WindowRing<RandomSketch<u64>>,
    rng: Xoshiro256pp,
    bucket: u64,
}

impl Feed {
    fn now(&self) -> u64 {
        self.bucket * BUCKET + BUCKET / 2
    }

    fn insert(&mut self) {
        let xs: Vec<u64> = (0..ROWS).map(|_| self.rng.next_below(1 << 32)).collect();
        let now = self.now();
        self.ring.ingest(now, &xs, now);
    }

    fn fill_next_bucket(&mut self) {
        self.bucket += 1;
        for _ in 0..FRAMES_PER_BUCKET {
            self.insert();
        }
    }

    /// Seconds of [`QUERIES`] sliding-64 queries, each right after
    /// `before`.
    fn pass(&mut self, before: fn(&mut Self)) -> f64 {
        let spec = WindowSpec::sliding(64 * BUCKET);
        (0..QUERIES)
            .map(|_| {
                before(self);
                let now = self.now();
                let start = Instant::now();
                black_box(self.ring.query(spec, &PHIS, now).expect("the span fits"));
                start.elapsed().as_secs_f64()
            })
            .sum()
    }
}

/// After an insert the query pays one clone of the open bucket, one of
/// the cached sealed merge, one merge and the rank index; after a
/// rotation it first merges ≈ 7 rollups and up to 14 fine buckets again
/// (0.16–0.17 on the 2-core box that recorded docs/PERF.md §17).
#[test]
#[cfg_attr(debug_assertions, ignore = "timing floor: run with --release")]
fn a_query_after_an_insert_costs_at_most_a_third_of_one_after_a_rotation() {
    let cfg = WindowConfig::new(BUCKET, RETENTION);
    let mut feed = Feed {
        ring: WindowRing::new(cfg, |idx| RandomSketch::new(0.01, 0xF100 ^ idx)),
        rng: Xoshiro256pp::new(0x28),
        bucket: 0,
    };
    for _ in 0..RETENTION {
        feed.fill_next_bucket();
    }
    // Best of five passes each, alternated: a busy spell on a shared
    // host then slows both sides of the ratio, not one.
    let (mut after_insert, mut after_rotation) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        after_insert = after_insert.min(feed.pass(Feed::insert));
        after_rotation = after_rotation.min(feed.pass(Feed::fill_next_bucket));
    }
    let ratio = after_insert / after_rotation;
    println!(
        "sliding-64 query: {:.1} us after an insert, {:.1} us after a rotation ({ratio:.3})",
        after_insert / QUERIES as f64 * 1e6,
        after_rotation / QUERIES as f64 * 1e6
    );
    assert!(
        ratio <= 1.0 / 3.0,
        "a query with its sealed merge cached costs {ratio:.3} of a rebuild, over the 1/3 floor"
    );
}
