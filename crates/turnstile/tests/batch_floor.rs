//! The batched turnstile kernels' speed floors, as ratios so they hold
//! on any machine: `insert_batch` against the scalar `insert` loop and
//! `rank_signed_batch` against the `rank_signed` loop, for DCM and DCS
//! at the paper's tuned shape (ε = 0.01, u = 2³², d = 7 — §4.3.1).
//!
//! That the two sides of each ratio leave the same state and give the
//! same answers is `batch_props.rs`'s job; absolute throughput is the
//! benchmark's (`turnstile_mix`, `paper_suite` against the parent).
//!
//! One test, not four: the harness runs tests of a file on parallel
//! threads, and a timing taken beside another timing measures the
//! neighbour.

use sqs_core::QuantileSummary;
use sqs_sketch::FrequencySketch;
use sqs_turnstile::{Dcm, Dcs, DyadicQuantiles};
use sqs_util::rng::Xoshiro256pp;
use sqs_util::timing::{alternate, Alternated, Bound};
use std::hint::black_box;

const EPS: f64 = 0.01;
const LOG_U: u32 = 32;
const KEYS: usize = 150_000;
const BATCH: usize = 1024;
const PROBES: usize = 4096;

fn uniform_keys(n: usize, seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256pp::new(seed);
    (0..n).map(|_| rng.next_below(1 << LOG_U)).collect()
}

/// The scalar loop against the batched call, best of five each with
/// the two alternated: `insert` into a fresh structure per round
/// against `insert_batch`, then the `rank_signed` loop against
/// `rank_signed_batch` on one loaded with every key.
fn insert_and_rank<S: FrequencySketch>(make: impl Fn() -> DyadicQuantiles<S>) -> [Alternated; 2] {
    let keys = uniform_keys(KEYS, 0x7e2f);
    let probes = uniform_keys(PROBES, 0xbeef);
    // A fresh structure, off the clock, then every key.
    let fills = |fill: fn(&mut DyadicQuantiles<S>, &[u64])| {
        let (mut dq, keys) = (make(), &keys);
        move || {
            fill(&mut dq, black_box(keys));
            dq
        }
    };
    let insert = alternate(
        5,
        || fills(|dq, keys| keys.iter().for_each(|&x| dq.insert(x))),
        || fills(|dq, keys| keys.chunks(BATCH).for_each(|b| dq.insert_batch(b))),
    );
    let mut loaded = make();
    loaded.insert_batch(&keys);
    let (loaded, probes) = (&loaded, &probes);
    let rank = alternate(
        5,
        || {
            move || {
                for &x in black_box(probes) {
                    black_box(loaded.rank_signed(x));
                }
            }
        },
        || {
            let mut ranks = vec![0i64; PROBES];
            move || {
                loaded.rank_signed_batch(black_box(probes), &mut ranks);
                ranks
            }
        },
    );
    [insert, rank]
}

/// The update floors sit under the hash-bound ceiling of a batched
/// write path that must stay bit-identical to the scalar one (≈ 1.5×
/// measured); the rank floors under the level-major sketch reads, which
/// hold them alone (2.56–2.73× DCM, 1.58–1.72× DCS on a 2-core box,
/// exact levels peeled per query) — docs/PERF.md §4.
#[test]
#[cfg_attr(debug_assertions, ignore = "timing floor: run with --release")]
fn batched_kernels_keep_their_speedup_over_the_scalar_loops() {
    let [dcm_insert, dcm_rank] = insert_and_rank(|| Dcm::dcm(EPS, LOG_U, 0x7e2f));
    let [dcs_insert, dcs_rank] = insert_and_rank(|| Dcs::dcs(EPS, LOG_U, 0x7e2f));
    dcm_insert.gate("DCM insert_batch over the insert loop", Bound::AtLeast(1.2));
    dcs_insert.gate("DCS insert_batch over the insert loop", Bound::AtLeast(1.2));
    dcm_rank.gate(
        "DCM rank_signed_batch over the rank_signed loop",
        Bound::AtLeast(1.7),
    );
    dcs_rank.gate(
        "DCS rank_signed_batch over the rank_signed loop",
        Bound::AtLeast(1.3),
    );
}
