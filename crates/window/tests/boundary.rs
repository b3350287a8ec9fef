//! Deterministic bucket-boundary tests for the window ring, driven by
//! an explicit [`ManualClock`] — no sleeps, no wall time, every edge
//! crossing is exact to the nanosecond.
//!
//! Covered (the ISSUE 9 satellite checklist):
//! * rotation exactly **on** a bucket edge (the first nanosecond of a
//!   bucket belongs to that bucket, not the previous one),
//! * fully-empty windows (no data at all, and data that has entirely
//!   rotated out),
//! * retention eviction (mass conservation across the horizon),
//! * the tumbling retention rule (`2m ≤ retention`),
//! * late arrivals under both [`LatePolicy`] variants.

use std::sync::Arc;

use sqs_core::random::RandomSketch;
use sqs_engine::ShardedEngine;
use sqs_util::audit::CheckInvariants;
use sqs_util::clock::ManualClock;
use sqs_window::{LatePolicy, WindowConfig, WindowRing, WindowSpec, WindowedEngine};

const BUCKET: u64 = 1_000; // 1µs buckets keep the arithmetic readable

fn ring(retention: u64, late: LatePolicy) -> WindowRing<RandomSketch<u64>> {
    let cfg = WindowConfig {
        bucket_nanos: BUCKET,
        retention_buckets: retention,
        rollup_factor: 0,
        late_policy: late,
    };
    WindowRing::new(cfg, |idx| RandomSketch::new(0.05, 0xB0DA ^ idx))
}

#[test]
fn rotation_exactly_on_a_bucket_edge() {
    let mut r = ring(8, LatePolicy::Drop);
    // The last nanosecond of bucket 0...
    r.ingest(BUCKET - 1, &[1], BUCKET - 1);
    assert_eq!(r.stats().current_bucket, 0);
    assert_eq!(r.stats().buckets_rotated, 0);
    // ...and the very first nanosecond of bucket 1: exactly one edge
    // crossed, and the new value lands in the new bucket.
    r.ingest(BUCKET, &[2], BUCKET);
    let s = r.stats();
    assert_eq!(s.current_bucket, 1);
    assert_eq!(s.buckets_rotated, 1);
    assert_eq!(s.live_buckets, 2);
    // A one-bucket sliding window at the edge sees only the new value.
    let a = r
        .query(WindowSpec::sliding(BUCKET), &[0.5], BUCKET)
        .expect("aligned spec");
    assert_eq!(a.n, 1);
    assert_eq!((a.start_nanos, a.end_nanos), (BUCKET, 2 * BUCKET));
    r.assert_invariants();
}

#[test]
fn fully_empty_windows_answer_none() {
    let mut r = ring(8, LatePolicy::Drop);
    // No data at all: a valid range with n == 0 and all-None answers.
    let a = r
        .query(WindowSpec::sliding(4 * BUCKET), &[0.1, 0.5, 0.9], 0)
        .expect("aligned spec");
    assert_eq!(a.n, 0);
    assert_eq!(a.answers, vec![None, None, None]);
    a.assert_invariants();

    // Data exists, but the queried window is past it: ingest into
    // bucket 0, then jump far ahead so the sliding window is empty.
    r.ingest(10, &[7, 8, 9], 10);
    let far = 6 * BUCKET; // bucket 6; window covers buckets 5..=6
    let a = r
        .query(WindowSpec::sliding(2 * BUCKET), &[0.5], far)
        .expect("aligned spec");
    assert_eq!(a.n, 0, "window past the data is empty");
    assert_eq!(a.answers, vec![None]);

    // Tumbling before the first span completes: explicitly empty.
    let mut t = ring(8, LatePolicy::Drop);
    t.ingest(10, &[1], 10);
    let a = t
        .query(WindowSpec::tumbling(4 * BUCKET), &[0.5], 10)
        .expect("aligned spec");
    assert_eq!((a.start_nanos, a.end_nanos, a.n), (0, 0, 0));
}

#[test]
fn retention_evicts_and_conserves_mass() {
    let mut r = ring(3, LatePolicy::Drop);
    // One value per bucket in buckets 0..=5; retention 3 keeps 3..=5.
    for i in 0..6u64 {
        r.ingest(i * BUCKET + 1, &[i], i * BUCKET + 1);
    }
    let s = r.stats();
    assert_eq!(s.current_bucket, 5);
    assert_eq!(s.live_buckets, 3);
    assert_eq!(s.live_items, 3);
    assert_eq!(s.evicted_buckets, 3);
    assert_eq!(s.evicted_items, 3);
    assert_eq!(s.ingested_items, 6);
    r.assert_invariants(); // live + evicted == ingested

    // The full-retention sliding window sees exactly the survivors.
    let a = r
        .query(WindowSpec::sliding(3 * BUCKET), &[0.5], 5 * BUCKET + 1)
        .expect("aligned spec");
    assert_eq!(a.n, 3);
    // A span longer than retention is refused, not silently clipped.
    assert!(r
        .query(WindowSpec::sliding(4 * BUCKET), &[0.5], 5 * BUCKET + 1)
        .is_err());
}

/// A tumbling span is whole only if the ring retains two of it: the
/// newest completed group starts `2m − 1` buckets behind the open one
/// in the worst case. With less, the answer used to claim the full
/// range while half its buckets were already evicted.
#[test]
fn tumbling_span_needs_twice_its_buckets_retained() {
    use sqs_window::WindowError;
    let spec = WindowSpec::tumbling(4 * BUCKET);
    let at = 7 * BUCKET + 1; // bucket 7: the last of group [4, 7]
    for retention in [4, 7] {
        let mut r = ring(retention, LatePolicy::Drop);
        for i in 0..8u64 {
            r.ingest(i * BUCKET + 1, &[i], i * BUCKET + 1);
        }
        assert_eq!(
            r.query(spec, &[0.5], at),
            Err(WindowError::SpanExceedsRetention {
                span_buckets: 4,
                needed_buckets: 8,
                retention_buckets: retention,
            })
        );
        // The same span, sliding, reaches back only m − 1 buckets.
        assert!(r.query(WindowSpec::sliding(4 * BUCKET), &[0.5], at).is_ok());
    }
    // Retention 2m: the worst case — group [0, 3] seen from bucket 7 —
    // is still held in full.
    let mut r = ring(8, LatePolicy::Drop);
    for i in 0..8u64 {
        r.ingest(i * BUCKET + 1, &[i], i * BUCKET + 1);
    }
    let a = r.query(spec, &[0.5], at).expect("2m <= retention");
    assert_eq!((a.start_nanos, a.end_nanos, a.n), (0, 4 * BUCKET, 4));
}

#[test]
fn late_arrivals_drop_policy_counts_and_discards() {
    let mut r = ring(8, LatePolicy::Drop);
    r.ingest(2 * BUCKET, &[10, 20], 2 * BUCKET); // bucket 2, on time
    let out = r.ingest(5, &[1, 2, 3], 2 * BUCKET); // bucket 0: late
    assert_eq!(out.dropped, 3);
    assert_eq!(out.accepted, 0);
    let s = r.stats();
    assert_eq!(s.late_dropped, 3);
    assert_eq!(s.late_routed, 0);
    assert_eq!(s.ingested_items, 2, "dropped values never enter the ring");
    let a = r
        .query(WindowSpec::sliding(8 * BUCKET), &[0.5], 2 * BUCKET)
        .expect("aligned spec");
    assert_eq!(a.n, 2);
    r.assert_invariants();
}

#[test]
fn late_arrivals_route_policy_folds_into_current() {
    let mut r = ring(8, LatePolicy::RouteToCurrent);
    r.ingest(2 * BUCKET, &[10, 20], 2 * BUCKET);
    let out = r.ingest(5, &[1, 2, 3], 2 * BUCKET); // late → current bucket
    assert_eq!(out.accepted, 3);
    assert_eq!(out.dropped, 0);
    let s = r.stats();
    assert_eq!(s.late_routed, 3);
    assert_eq!(s.late_dropped, 0);
    assert_eq!(s.ingested_items, 5);
    // The routed values are visible in a window covering the current
    // bucket only — that is where they physically live now.
    let a = r
        .query(WindowSpec::sliding(BUCKET), &[0.5], 2 * BUCKET)
        .expect("aligned spec");
    assert_eq!(a.n, 5);
    r.assert_invariants();
}

#[test]
fn timestamp_exactly_on_the_current_edge_is_on_time() {
    // A value stamped at the first nanosecond of the current bucket is
    // on time under either policy — "late" strictly means an older
    // bucket.
    for late in [LatePolicy::Drop, LatePolicy::RouteToCurrent] {
        let mut r = ring(8, late);
        r.advance_to(3 * BUCKET);
        let out = r.ingest(3 * BUCKET, &[42], 3 * BUCKET);
        assert_eq!(out.accepted, 1);
        let s = r.stats();
        assert_eq!(s.late_dropped + s.late_routed, 0);
    }
}

#[test]
fn windowed_engine_rotates_on_manual_clock_edges() {
    let clock = ManualClock::new();
    let engine = Arc::new(ShardedEngine::new_with(2, 32, |i| {
        RandomSketch::new(0.05, 0xE11 + i as u64)
    }));
    let w = WindowedEngine::new(
        Arc::clone(&engine),
        WindowConfig {
            bucket_nanos: BUCKET,
            retention_buckets: 4,
            rollup_factor: 0,
            late_policy: LatePolicy::Drop,
        },
        Arc::new(clock.clone()),
        |idx| RandomSketch::new(0.05, 0xF00D ^ idx),
    );
    w.ingest(0, &[1, 2, 3, 4]);
    // Advance to one nanosecond *before* the edge: nothing rotates.
    clock.set(BUCKET - 1);
    assert_eq!(w.stats().buckets_rotated, 0);
    // The edge itself rotates exactly once.
    clock.set(BUCKET);
    let s = w.stats();
    assert_eq!(s.buckets_rotated, 1);
    assert_eq!(s.current_bucket, 1);
    // Jump past retention: bucket 0 (and its 4 items) evicts; the
    // all-time engine keeps everything.
    clock.set(10 * BUCKET);
    let s = w.stats();
    assert_eq!(s.evicted_items, 4);
    assert_eq!(engine.n(), 4);
    let a = w
        .query(WindowSpec::sliding(4 * BUCKET), &[0.5])
        .expect("aligned spec");
    assert_eq!(a.n, 0, "everything rotated out of the window");
    w.check_ring_invariants().expect("ring invariants hold");
}
