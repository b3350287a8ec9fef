//! Integration tests for the extension features (the study's §1
//! pointers beyond whole-stream summaries): biased/targeted quantiles,
//! sliding windows (served by `sqs-window`'s ring), and q-digest
//! persistence.

use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_data::{Lidar, Mpcat, Uniform};
use streaming_quantiles::sqs_util::exact::probe_phis;

#[test]
fn targeted_ckms_meets_budgets_on_real_like_data() {
    let targets = [(0.5, 0.02), (0.95, 0.005), (0.999, 0.0005)];
    let data: Vec<u64> = Mpcat::new(1).take(300_000).collect();
    let oracle = ExactQuantiles::new(data.clone());
    let mut s = Ckms::targeted(&targets);
    for &x in &data {
        s.insert(x);
    }
    for &(phi, eps) in &targets {
        let q = s.quantile(phi).unwrap();
        let err = oracle.quantile_error(phi, q);
        assert!(err <= 2.0 * eps, "phi={phi}: err {err} > {}", 2.0 * eps);
    }
}

#[test]
fn high_biased_relative_error_across_the_tail() {
    let eps = 0.1;
    let data: Vec<u64> = Lidar::new(2).take(200_000).collect();
    let oracle = ExactQuantiles::new(data.clone());
    let mut s = Ckms::high_biased(eps);
    for &x in &data {
        s.insert(x);
    }
    for phi in [0.5, 0.9, 0.99, 0.999] {
        let q = s.quantile(phi).unwrap();
        let err = oracle.quantile_error(phi, q);
        let budget = 2.0 * eps * (1.0 - phi) + 2.0 / data.len() as f64;
        assert!(err <= budget, "phi={phi}: err {err} > {budget}");
    }
}

/// A count-based window is a time-based one on a counting clock: row
/// `i` arrives at time `i`, so a span of `w` "nanoseconds" is the last
/// `w` rows. Feeds `rows` from row `first` on, one bucket's worth per
/// call, and returns the time of the last row.
fn feed_by_row(ring: &mut WindowRing<RandomSketch<u64>>, first: u64, rows: &[u64]) -> u64 {
    let bucket = ring.config().bucket_nanos;
    assert_eq!(first % bucket, 0, "chunks must not straddle a bucket");
    for (i, chunk) in rows.chunks(bucket as usize).enumerate() {
        let at = first + i as u64 * bucket;
        let last = at + chunk.len() as u64 - 1;
        assert_eq!(ring.ingest(at, chunk, last).accepted, chunk.len() as u64);
    }
    first + rows.len() as u64 - 1
}

fn ring_over_last_rows(eps: f64, w: u64) -> WindowRing<RandomSketch<u64>> {
    WindowRing::new(WindowConfig::new(w / 10, 10), move |bucket| {
        RandomSketch::new(eps, bucket)
    })
}

#[test]
fn sliding_window_follows_distribution_shift() {
    let w = 50_000;
    let mut ring = ring_over_last_rows(0.05, w);
    // Regime A then regime B; after 2 windows of B, A must be gone.
    let a: Vec<u64> = Uniform::new(16, 3).take(200_000).collect();
    let b: Vec<u64> = Uniform::new(16, 4)
        .take(2 * w as usize)
        .map(|x| x + (1 << 20)) // shifted far above regime A
        .collect();
    feed_by_row(&mut ring, 0, &a);
    let now = feed_by_row(&mut ring, a.len() as u64, &b);
    let answer = ring
        .query(WindowSpec::sliding(w), &[0.01], now)
        .expect("the span fits the ring");
    assert_eq!(answer.n, w, "exactly the last w rows");
    let q = answer.answers[0].expect("a non-empty window");
    assert!(q >= 1 << 20, "stale regime leaked into the window: {q}");
}

#[test]
fn sliding_window_full_grid_within_eps() {
    let eps = 0.05;
    let w = 30_000;
    let data: Vec<u64> = Mpcat::new(5).take(140_000).collect();
    let mut ring = ring_over_last_rows(eps, w);
    let now = feed_by_row(&mut ring, 0, &data);
    let phis = probe_phis(eps);
    let answer = ring
        .query(WindowSpec::sliding(w), &phis, now)
        .expect("the span fits the ring");
    // The open bucket is part-full: the window is the nine sealed
    // buckets before it plus the rows it holds so far.
    let covered = &data[answer.start_nanos as usize..];
    assert_eq!(answer.n, covered.len() as u64);
    assert!((w - w / 10..=w).contains(&answer.n), "{}", answer.n);
    let oracle = ExactQuantiles::new(covered.to_vec());
    for (phi, q) in phis.into_iter().zip(answer.answers) {
        let err = oracle.quantile_error(phi, q.expect("a non-empty window"));
        assert!(err <= eps, "phi={phi}: err={err}");
    }
}

#[test]
fn qdigest_survives_network_roundtrip_and_merge() {
    // Sensor scenario end to end: build remotely, serialize, ship,
    // deserialize, merge, query.
    let mut shards = Vec::new();
    let mut all = Vec::new();
    for i in 0..4u64 {
        let data: Vec<u64> = Uniform::new(16, 10 + i).take(25_000).collect();
        let mut d = QDigest::new(0.02, 16);
        for &x in &data {
            d.insert(x);
        }
        all.extend(data);
        shards.push(d.to_bytes());
    }
    let mut acc: Option<QDigest> = None;
    for bytes in &shards {
        let mut d = QDigest::from_bytes(bytes).expect("valid bytes");
        match &mut acc {
            None => acc = Some(d),
            Some(a) => a.merge(&mut d),
        }
    }
    let mut merged = acc.unwrap();
    assert_eq!(merged.n() as usize, all.len());
    let oracle = ExactQuantiles::new(all);
    for phi in [0.25, 0.5, 0.75, 0.95] {
        let q = merged.quantile(phi).unwrap();
        assert!(oracle.quantile_error(phi, q) <= 0.05, "phi={phi}");
    }
}

#[test]
fn float_keys_through_ordkey_roundtrip() {
    use streaming_quantiles::sqs_util::ordkey::{f64_to_ordered_u64, ordered_u64_to_f64};
    // A latency-like f64 stream through a u64 summary, answers mapped
    // back, compared against an f64 oracle via total order.
    let mut rng = streaming_quantiles::sqs_util::rng::Xoshiro256pp::new(6);
    let data: Vec<f64> = (0..100_000)
        .map(|_| 1.0 + 500.0 * (-rng.next_f64().ln()))
        .collect();
    let mut s = GkArray::new(0.01);
    for &x in &data {
        s.insert(f64_to_ordered_u64(x));
    }
    let mut sorted = data.clone();
    sorted.sort_by(f64::total_cmp);
    for phi in [0.1, 0.5, 0.9, 0.99] {
        let ans = ordered_u64_to_f64(s.quantile(phi).unwrap());
        let truth = sorted[(phi * sorted.len() as f64) as usize];
        // Rank-based check: position of the answer within sorted data.
        let pos = sorted.partition_point(|&v| v < ans);
        let target = (phi * sorted.len() as f64) as usize;
        assert!(
            pos.abs_diff(target) <= (0.01 * sorted.len() as f64) as usize + 1,
            "phi={phi}: ans {ans} (pos {pos}) vs truth {truth} (pos {target})"
        );
    }
}
