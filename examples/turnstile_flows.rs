//! Turnstile quantiles over a live flow table — the §1.2.2 setting
//! where comparison-based summaries are impossible: elements (flow
//! sizes) are *removed* when flows terminate, and queries must reflect
//! only the currently-active flows.
//!
//! A router tracks active-flow byte counts with a DCS; flows start and
//! finish continuously (sliding-window churn), and at checkpoints we
//! ask for size percentiles of the *live* flows — first raw, then with
//! the OLS post-processing refinement (§3.2).
//!
//! ```text
//! cargo run --release --example turnstile_flows
//! ```

use std::collections::VecDeque;

use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_util::rng::Xoshiro256pp;

const LOG_U: u32 = 24; // flow sizes up to 16 MB
const EPS: f64 = 0.005;
const WINDOW: usize = 200_000; // concurrently active flows
const TOTAL: usize = 1_000_000;

/// Flow sizes: mice and elephants (log-ish mixture).
fn flow_size(rng: &mut Xoshiro256pp) -> u64 {
    let mice = 40.0 + rng.next_f64() * 1460.0; // a few packets
    if rng.next_f64() < 0.05 {
        // Elephant: megabyte scale.
        (mice * 500.0 + rng.next_f64() * 8_000_000.0) as u64 % (1 << LOG_U)
    } else {
        mice as u64
    }
}

fn main() {
    let mut rng = Xoshiro256pp::new(99);
    let mut dcs = Dcs::dcs(EPS, LOG_U, 7);
    let mut live: VecDeque<u64> = VecDeque::with_capacity(WINDOW);

    println!("flow table: {TOTAL} flows total, ~{WINDOW} concurrently active, eps = {EPS}\n");
    println!(
        "{:>9} {:>9}  {:>20}  {:>20}  {:>20}",
        "flows", "active", "p50 raw/post/exact", "p90 raw/post/exact", "p99 raw/post/exact"
    );

    for i in 0..TOTAL {
        let size = flow_size(&mut rng);
        dcs.insert(size);
        live.push_back(size);
        if live.len() > WINDOW {
            // Oldest flow terminates: delete its size from the sketch.
            let done = live.pop_front().expect("window nonempty");
            dcs.delete(done);
        }

        if (i + 1) % (TOTAL / 4) == 0 {
            let raw = dcs.quantiles(&[0.5, 0.9, 0.99]);
            let post = PostProcessed::new(&dcs, EPS, 0.1);
            let oracle = ExactQuantiles::new(live.iter().copied().collect());
            let row = |k: usize, phi: f64| {
                format!(
                    "{}/{}/{}",
                    raw[k].expect("non-empty stream"),
                    post.quantile(phi).expect("non-empty stream"),
                    oracle.quantile(phi)
                )
            };
            println!(
                "{:>9} {:>9}  {:>20}  {:>20}  {:>20}",
                i + 1,
                live.len(),
                row(0, 0.5),
                row(1, 0.9),
                row(2, 0.99)
            );
        }
    }

    // Final accuracy audit.
    let phis: Vec<f64> = (1..100).map(|i| i as f64 / 100.0).collect();
    let raw = dcs.quantiles(&phis);
    let post = PostProcessed::new(&dcs, EPS, 0.1);
    let oracle = ExactQuantiles::new(live.iter().copied().collect());
    let mut raw_avg = 0.0;
    let mut post_avg = 0.0;
    for (&phi, q) in phis.iter().zip(raw) {
        raw_avg += oracle.quantile_error(phi, q.expect("non-empty stream"));
        post_avg += oracle.quantile_error(phi, post.quantile(phi).expect("non-empty stream"));
    }
    raw_avg /= phis.len() as f64;
    post_avg /= phis.len() as f64;
    println!(
        "\nlive flows at end: {} (tracked exactly: {})",
        live.len(),
        dcs.n()
    );
    println!("avg rank error over the percentile grid: raw DCS {raw_avg:.6}, post-processed {post_avg:.6}");
    println!(
        "(sketch: {:.0} KB; both errors are a few ranks out of {} — this distribution is so\n\
         concentrated that raw DCS is already near its noise floor. On broader distributions\n\
         post-processing cuts the error substantially; run `sqs-exp fig9` to see the sweep.)",
        dcs.space_bytes() as f64 / 1024.0,
        live.len()
    );
}
