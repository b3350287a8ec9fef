//! `window_mix`'s request mix at library level, the loop behind
//! docs/PERF.md's window numbers, at the workload's shape: ε 0.01,
//! rollups of 8, 256 buckets retained, 16 frames of 1 024 rows per
//! bucket. It runs in debug builds too, for its ε and index-bytes
//! checks; its timings mean something only with `--release --
//! --nocapture`.
//!
//! That the union read answers exactly what one index over the covered
//! parts' runs answers is `cache_props.rs`'s job, and that it indexes
//! each part once is the lib test `union_reads_index_each_part_once`'s;
//! absolute latency end to end is the benchmark's (`window_mix` against
//! the parent).

use std::collections::VecDeque;
use std::time::Instant;

use sqs_core::random::RandomSketch;
use sqs_core::QuantileSummary;
use sqs_util::audit::CheckInvariants;
use sqs_util::exact::ExactQuantiles;
use sqs_util::rng::Xoshiro256pp;
use sqs_window::{WindowAnswer, WindowConfig, WindowRing, WindowSpec};

const EPS: f64 = 0.01;
const BUCKET: u64 = 1_000;
const RETENTION: u64 = 256;
const FRAMES_PER_BUCKET: usize = 16;
const ROWS: usize = 1024;
const PHIS: [f64; 5] = [0.05, 0.25, 0.5, 0.75, 0.95];

fn ring() -> WindowRing<RandomSketch<u64>> {
    WindowRing::new(WindowConfig::new(BUCKET, RETENTION), |idx| {
        RandomSketch::new(EPS, 0xF100 ^ idx)
    })
}

/// Buckets of `window_mix`'s request mix timed after the ring is full.
const MIX_BUCKETS: u64 = 96;

/// `window_mix`'s per-tenant request mix at library level: 4 inserts of
/// 1 024 rows, then one query cycling sliding-8, sliding-64 and
/// tumbling-16. Prints each spec's mean query time and the most the
/// part indexes held; the last answer of each spec must lie within ε of
/// an exact mirror, and the part indexes may never hold more than ¼ of
/// the summaries' bytes.
#[test]
fn the_window_mix_loop_answers_within_eps() {
    let specs = [
        ("sliding-8", WindowSpec::sliding(8 * BUCKET)),
        ("sliding-64", WindowSpec::sliding(64 * BUCKET)),
        ("tumbling-16", WindowSpec::tumbling(16 * BUCKET)),
    ];
    let mut ring = ring();
    let mut rng = Xoshiro256pp::new(0x37);
    // The rows of the newest buckets, enough for every spec's span.
    let mut exact: VecDeque<(u64, Vec<u64>)> = VecDeque::new();
    let mut insert = |ring: &mut WindowRing<RandomSketch<u64>>,
                      exact: &mut VecDeque<(u64, Vec<u64>)>,
                      bucket: u64| {
        let xs: Vec<u64> = (0..ROWS).map(|_| rng.next_below(1 << 32)).collect();
        let now = bucket * BUCKET + BUCKET / 2;
        ring.ingest(now, &xs, now);
        if exact.back().is_none_or(|(b, _)| *b != bucket) {
            exact.push_back((bucket, Vec::new()));
            if exact.len() > 96 {
                exact.pop_front();
            }
        }
        if let Some((_, rows)) = exact.back_mut() {
            rows.extend_from_slice(&xs);
        }
    };
    for bucket in 0..RETENTION {
        (0..FRAMES_PER_BUCKET).for_each(|_| insert(&mut ring, &mut exact, bucket));
    }
    let mut spent = [0.0f64; 3];
    let mut queries = 0;
    // The most part indexes, and index bytes, held after any query.
    let mut most = (0, 0);
    let rounds = MIX_BUCKETS as usize * FRAMES_PER_BUCKET / 4;
    for round in 0..rounds {
        let bucket = RETENTION + (round * 4 / FRAMES_PER_BUCKET) as u64;
        (0..4).for_each(|_| insert(&mut ring, &mut exact, bucket));
        let (name, spec) = specs[round % 3];
        let now = bucket * BUCKET + BUCKET / 2;
        let start = Instant::now();
        let answer = ring.query(spec, &PHIS, now).expect("the span fits");
        spent[round % 3] += start.elapsed().as_secs_f64();
        queries += 1;
        let side = ring.read_side();
        most = (most.0.max(side.part_indexes), most.1.max(side.index_bytes));
        if round + 3 >= rounds {
            within_eps(name, &answer, &exact);
        }
    }
    let per_spec = queries as f64 / 3.0;
    for ((name, _), secs) in specs.iter().zip(spent) {
        println!("{name}: {:.1} us", secs / per_spec * 1e6);
    }
    let summaries = ring.read_side().summary_bytes;
    println!(
        "mean {:.1} us; at most {} part indexes, {} B, beside {summaries} B of summaries",
        spent.iter().sum::<f64>() / f64::from(queries) * 1e6,
        most.0,
        most.1,
    );
    assert!(
        most.1 * 4 <= summaries,
        "the part indexes held {} B, over a quarter of {summaries} B",
        most.1,
    );
    ring.assert_invariants();
}

/// Every φ of `answer` lies within ε of the exact rank over its range.
fn within_eps(name: &str, answer: &WindowAnswer, exact: &VecDeque<(u64, Vec<u64>)>) {
    let (lo, hi) = (answer.start_nanos / BUCKET, answer.end_nanos / BUCKET);
    let rows = exact.iter().filter(|(b, _)| (lo..hi).contains(b));
    let rows = ExactQuantiles::new(rows.flat_map(|(_, r)| r.iter().copied()).collect());
    assert_eq!(answer.n, rows.len() as u64, "{name}");
    for (&phi, x) in PHIS.iter().zip(&answer.answers) {
        let err = rows.quantile_error(phi, x.expect("the window holds rows"));
        assert!(err <= EPS, "{name} phi {phi}: rank error {err}");
    }
}
