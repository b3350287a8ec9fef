//! Figure 9: tuning the post-processing truncation constant η — the
//! tradeoff between the truncated tree's size (relative to the DCS
//! sketch) and the error reduction (relative to raw DCS), for
//! ε ∈ {0.1, 0.01, 0.001} on the real data set (§4.3.1).
//!
//! Paper finding: η = 0.1 is the sweet spot — Post reduces error to
//! 20–40% of raw DCS, with diminishing returns (and growing |T̂|)
//! below that.

#![expect(
    clippy::indexing_slicing,
    reason = "indices are bounded by the result rows this module builds or has just checked the length of"
)]

use super::ExpConfig;
use crate::report::{fnum, Table};
use sqs_data::mpcat::{Mpcat, MPCAT_LOG_U};
use sqs_turnstile::{new_dcs, PostProcessed, TurnstileQuantiles};
use sqs_util::exact::{observed_errors, probe_phis, ExactQuantiles};
use sqs_util::rng::SplitMix64;
use sqs_util::SpaceUsage;

const ETAS: [f64; 6] = [1.0, 0.5, 0.2, 0.1, 0.05, 0.02];

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let data: Vec<u64> = Mpcat::new(cfg.seed).take(cfg.n).collect();
    let oracle = ExactQuantiles::new(data.clone());
    let mut t = Table::new(
        "fig9",
        "Post: eta vs relative tree size and relative error (MPCAT-OBS surrogate)",
        &[
            "eps",
            "eta",
            "tree_nodes",
            "rel_size",
            "raw_avg_err",
            "post_avg_err",
            "rel_err",
        ],
    );

    let mut seeds = SplitMix64::new(cfg.seed ^ 0xF169);
    for eps in [0.1, 0.01, 0.001] {
        if eps * (cfg.n as f64) < 50.0 {
            continue;
        }
        let phis = probe_phis(eps);
        let mut rows: Vec<(f64, f64, f64, f64, f64)> = vec![(0.0, 0.0, 0.0, 0.0, 0.0); ETAS.len()];
        for _ in 0..cfg.trials.max(1) {
            let mut dcs = new_dcs(eps, MPCAT_LOG_U, seeds.next_u64());
            for &x in &data {
                dcs.insert(x);
            }
            let raw_answers: Vec<(f64, u64)> = phis
                .iter()
                .map(|&p| {
                    (
                        p,
                        dcs.quantile(p)
                            .expect("harness invariant: summary nonempty after feeding the stream"),
                    )
                })
                .collect();
            let (_, raw_avg) = observed_errors(&oracle, &raw_answers);
            let sketch_words = dcs.space_bytes() / 4;
            for (i, &eta) in ETAS.iter().enumerate() {
                let post = PostProcessed::new(&dcs, eps, eta);
                let answers: Vec<(f64, u64)> = phis
                    .iter()
                    .map(|&p| {
                        (
                            p,
                            post.quantile(p).expect(
                                "harness invariant: summary nonempty after feeding the stream",
                            ),
                        )
                    })
                    .collect();
                let (_, post_avg) = observed_errors(&oracle, &answers);
                // Tree node = (cell id + estimate) ≈ 2 words.
                let rel_size = (post.tree_size() * 2) as f64 / sketch_words as f64;
                rows[i].0 += post.tree_size() as f64;
                rows[i].1 += rel_size;
                rows[i].2 += raw_avg;
                rows[i].3 += post_avg;
                rows[i].4 += if raw_avg > 0.0 {
                    post_avg / raw_avg
                } else {
                    1.0
                };
            }
        }
        let k = cfg.trials.max(1) as f64;
        for (i, &eta) in ETAS.iter().enumerate() {
            t.push_row(vec![
                fnum(eps),
                fnum(eta),
                format!("{:.0}", rows[i].0 / k),
                fnum(rows[i].1 / k),
                fnum(rows[i].2 / k),
                fnum(rows[i].3 / k),
                fnum(rows[i].4 / k),
            ]);
        }
    }
    vec![t]
}
