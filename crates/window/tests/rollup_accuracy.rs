//! Long sliding spans against an exact mirror of the covered buckets,
//! rollups off and on. A 256-bucket window answered through sealed
//! 16-bucket groups is a deeper merge tree than any other test builds
//! (`window_stress` stops at 8-bucket spans with factor 4), and it must
//! still hold the per-bucket ε.

use sqs_core::random::RandomSketch;
use sqs_util::audit::CheckInvariants;
use sqs_util::exact::{probe_phis, ExactQuantiles};
use sqs_util::rng::Xoshiro256pp;
use sqs_window::{LatePolicy, WindowConfig, WindowRing, WindowSpec};

const EPS: f64 = 0.05;
const BUCKET: u64 = 1_000;
/// The longest span plus headroom for the open bucket.
const RETENTION: u64 = 320;
const PER_BUCKET: usize = 200;

#[test]
fn long_spans_stay_within_eps_with_and_without_rollups() {
    let phis = probe_phis(EPS);
    for rollup_factor in [0, 16] {
        let cfg = WindowConfig {
            bucket_nanos: BUCKET,
            retention_buckets: RETENTION,
            rollup_factor,
            late_policy: LatePolicy::Drop,
        };
        let mut ring = WindowRing::new(cfg, |idx| RandomSketch::new(EPS, 7 ^ idx));
        let mut rng = Xoshiro256pp::new(0x31D0);
        let mut mirror: Vec<Vec<u64>> = Vec::new();
        let mut now = 0;
        for idx in 0..RETENTION {
            // Mid-bucket, so the newest bucket is open like a live ring's.
            now = idx * BUCKET + BUCKET / 2;
            let batch: Vec<u64> = (0..PER_BUCKET).map(|_| rng.next_below(1 << 20)).collect();
            ring.ingest(now, &batch, now);
            mirror.push(batch);
        }
        for span in [64usize, 256] {
            let hits_before = ring.stats().rollup_hits;
            let answer = ring
                .query(WindowSpec::sliding(span as u64 * BUCKET), &phis, now)
                .expect("span fits the retention");
            let oracle = ExactQuantiles::new(mirror[mirror.len() - span..].concat());
            assert_eq!(answer.n, oracle.len() as u64, "window mass vs exact mirror");
            for (&phi, ans) in phis.iter().zip(&answer.answers) {
                let err = oracle.quantile_error(phi, ans.expect("window is not empty"));
                assert!(
                    err <= EPS,
                    "rollup {rollup_factor}, span {span}, phi {phi}: rank error {err} > {EPS}"
                );
            }
            if rollup_factor != 0 {
                assert!(
                    ring.stats().rollup_hits > hits_before,
                    "a {span}-bucket span must be served from rollups"
                );
            }
        }
        ring.assert_invariants();
    }
}
