//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **GKArray buffer sizing** — §2.1.2 sizes the buffer Θ(|L|);
//!    sweep the factor to show both the amortization win and its
//!    diminishing returns.
//! 2. **Post frontier fallback** — our rank walk estimates the
//!    sub-frontier remainder from the raw sketches; the alternative
//!    (discard it, leaning on Lemma 1) is measurably worse, which
//!    justifies the choice.
//! 3. **RSS vs DCM vs DCS** — why the paper dropped the random
//!    subset-sum sketch: quadratic space at equal error.

use super::ExpConfig;
use crate::report::{fkb, fnum, Table};
use crate::runner::{post_grid, run_turnstile_cell, TurnstileAlgo};
use sqs_core::{gk::GkArray, QuantileSummary};
use sqs_data::Uniform;
use sqs_turnstile::{
    post::{FrontierMode, VarianceMode},
    Dcs, PostProcessed,
};
use sqs_util::exact::{observed_errors, ExactQuantiles};
use sqs_util::SpaceUsage;
use std::time::Instant;

/// Runs all four ablations.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    vec![
        buffer_factor(cfg),
        frontier(cfg),
        variance_mode(cfg),
        rss(cfg),
    ]
}

/// Post variance-mode ablation: per-cell `(F₂ − f̂²)/w` (ours) vs the
/// paper's per-level `F₂/w`, on mildly and heavily skewed data. On
/// heavy skew the per-level mode can be *worse than raw DCS*; the
/// per-cell mode is safe in both regimes.
fn variance_mode(cfg: &ExpConfig) -> Table {
    use sqs_util::rng::Xoshiro256pp;
    let eps = 0.01;
    let mut t = Table::new(
        "ablation_post_variance",
        "Post variance mode: per-cell (ours) vs per-level (paper)",
        &[
            "dataset",
            "raw_avg_err",
            "per_cell_avg_err",
            "per_level_avg_err",
        ],
    );
    let mut rng = Xoshiro256pp::new(cfg.seed ^ 0xAB3);
    let mild: Vec<u64> = (0..cfg.n)
        .map(|_| 4_000_000 + rng.next_below(1 << 21) + rng.next_below(1 << 21))
        .collect();
    // Mice/elephants: 95% of mass in a tiny band, 5% spread wide.
    let skewed: Vec<u64> = (0..cfg.n)
        .map(|_| {
            if rng.next_f64() < 0.95 {
                40 + rng.next_below(1_500)
            } else {
                rng.next_below(1 << 24)
            }
        })
        .collect();
    for (name, data) in [("mild-normal", mild), ("mice-elephants", skewed)] {
        let oracle = ExactQuantiles::new(data.clone());
        let mut dcs = Dcs::dcs(eps, 24, cfg.seed ^ 0xAB4);
        for &x in &data {
            dcs.insert(x);
        }
        let score = |answers: Vec<(f64, u64)>| observed_errors(&oracle, &answers).1;
        let raw = score(dcs.quantile_grid(eps));
        let post = |mode| {
            let post = PostProcessed::with_options(&dcs, eps, 0.1, FrontierMode::Interpolate, mode);
            score(post_grid(&post, eps))
        };
        let (per_cell, per_level) = (post(VarianceMode::PerCell), post(VarianceMode::PerLevel));
        t.push_row(vec![
            name.into(),
            fnum(raw),
            fnum(per_cell),
            fnum(per_level),
        ]);
    }
    t
}

fn buffer_factor(cfg: &ExpConfig) -> Table {
    let eps = if cfg.n >= 100_000 { 0.001 } else { 0.01 };
    let data: Vec<u64> = Uniform::new(32, cfg.seed).take(cfg.n).collect();
    let oracle = ExactQuantiles::new(data.clone());
    let mut t = Table::new(
        "ablation_gkarray_buffer",
        "GKArray buffer factor ablation (Uniform u=2^32)",
        &["buffer_factor", "update_ns", "space_kb", "max_err"],
    );
    for factor in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let mut s = GkArray::with_buffer_factor(eps, factor);
        let t0 = Instant::now();
        for &x in &data {
            s.insert(x);
        }
        let ns = t0.elapsed().as_nanos() as f64 / data.len() as f64;
        let (max_err, _) = observed_errors(&oracle, &s.quantile_grid(eps));
        t.push_row(vec![
            fnum(factor),
            fnum(ns),
            fkb(s.space_bytes()),
            fnum(max_err),
        ]);
    }
    t
}

fn frontier(cfg: &ExpConfig) -> Table {
    let eps = 0.01;
    let data: Vec<u64> = Uniform::new(24, cfg.seed).take(cfg.n).collect();
    let oracle = ExactQuantiles::new(data.clone());
    let mut t = Table::new(
        "ablation_post_frontier",
        "Post sub-frontier mode ablation (Uniform u=2^24)",
        &["eta", "mode", "avg_err"],
    );
    let mut dcs = Dcs::dcs(eps, 24, cfg.seed ^ 0xAB1);
    for &x in &data {
        dcs.insert(x);
    }
    for eta in [0.5, 0.1, 0.02] {
        for (name, mode) in [
            ("interpolate", FrontierMode::Interpolate),
            ("raw", FrontierMode::Raw),
            ("discard", FrontierMode::Discard),
        ] {
            let post = PostProcessed::with_options(&dcs, eps, eta, mode, VarianceMode::PerCell);
            let (_, avg_err) = observed_errors(&oracle, &post_grid(&post, eps));
            t.push_row(vec![fnum(eta), name.to_string(), fnum(avg_err)]);
        }
    }
    t
}

fn rss(cfg: &ExpConfig) -> Table {
    // RSS and DGM only fit in memory at coarse ε and a small universe —
    // which is itself the result.
    let eps = 0.05;
    let n = cfg.n.min(200_000);
    let data: Vec<u64> = Uniform::new(16, cfg.seed).take(n).collect();
    let mut t = Table::new(
        "ablation_rss",
        "RSS/DGM vs DCM vs DCS at eps=0.05, u=2^16 (why the paper dropped them)",
        &["algo", "space_kb", "avg_err", "update_ns"],
    );
    // DGM (deterministic CR-precis) only exists to be dismissed with
    // numbers; it runs once.
    for algo in [
        TurnstileAlgo::Rss,
        TurnstileAlgo::Dcm,
        TurnstileAlgo::Dcs,
        TurnstileAlgo::Dgm,
    ] {
        let c = run_turnstile_cell(algo, &data, eps, 16, 1, cfg.seed ^ 0xAB2);
        t.push_row(vec![
            c.algo.into(),
            fkb(c.space_bytes),
            fnum(c.avg_err),
            fnum(c.update_ns),
        ]);
    }
    t
}
