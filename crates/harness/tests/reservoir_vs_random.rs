//! The rematch that took the reservoir off the wire (ROADMAP item 17).
//!
//! On each of the harness's streams, at every ε of the sweep, the
//! reservoir's observed max error and space against the smallest
//! `Random` (over the same sweep) whose observed max error is no worse.
//! The rule was fixed before the run: the reservoir leaves the service
//! if that `Random` takes at most the reservoir's space in every cell
//! where the reservoir holds less than the whole stream. Cells where its
//! capacity is ≥ n (an exact sort of the stream) are printed, not judged.
//!
//! Ignored by default (about ten seconds optimized on two cores). It
//! writes `results/reservoir_vs_random.csv`, the table of EXPERIMENTS.md:
//!
//! ```text
//! cargo test --release -p sqs-harness --test reservoir_vs_random -- --ignored --nocapture
//! ```

use std::path::Path;

use sqs_core::sampled::ReservoirQuantiles;
use sqs_data::{Lidar, Mpcat, Normal, Order, Uniform};
use sqs_harness::experiments::ExpConfig;
use sqs_harness::report::{fkb, fnum, Table};
use sqs_harness::runner::{run_cash_cell, CashAlgo, Cell};

const N: usize = 1_000_000;
const TRIALS: usize = 3;

/// The harness's generators: the two real-data surrogates, uniform over
/// 2^32 in random and in sorted order, and normal.
fn streams(seed: u64) -> Vec<(&'static str, Vec<u64>)> {
    let uniform: Vec<u64> = Uniform::new(32, seed).take(N).collect();
    let ordered = |order: Order| {
        let mut xs = uniform.clone();
        order.apply(&mut xs, seed);
        xs
    };
    vec![
        ("mpcat", Mpcat::new(seed).take(N).collect()),
        ("lidar", Lidar::new(seed).take(N).collect()),
        ("uniform_random", ordered(Order::Random)),
        ("uniform_sorted", ordered(Order::Sorted)),
        ("normal", Normal::new(32, 0.15, seed).take(N).collect()),
    ]
}

#[test]
#[ignore = "about ten seconds optimized: regenerates results/reservoir_vs_random.csv"]
fn random_takes_no_more_space_than_the_reservoir_at_equal_error() {
    let cfg = ExpConfig {
        n: N,
        ..ExpConfig::default()
    };
    let mut table = Table::new(
        "reservoir_vs_random",
        "Reservoir vs the smallest Random with no larger observed max error",
        &[
            "stream",
            "eps",
            "capacity",
            "reservoir_max_err",
            "reservoir_kb",
            "random_eps",
            "random_max_err",
            "random_kb",
            "kb_ratio",
            "judged",
        ],
    );
    let mut failed = Vec::new();
    for (stream, data) in streams(cfg.seed) {
        // Neither summary reads the universe size.
        let cells = |algo| -> Vec<Cell> {
            cfg.eps_sweep()
                .into_iter()
                .map(|eps| run_cash_cell(algo, &data, eps, 32, TRIALS, cfg.seed ^ 0x17))
                .collect()
        };
        let randoms = cells(CashAlgo::Random);
        for reservoir in cells(CashAlgo::Reservoir) {
            let capacity = ReservoirQuantiles::<u64>::new(reservoir.eps, 0).capacity();
            let judged = capacity < N;
            let rival = randoms
                .iter()
                .filter(|r| r.max_err <= reservoir.max_err)
                .min_by_key(|r| r.space_bytes);
            let [random_eps, random_err, random_kb, ratio] = rival.map_or_else(
                || ["-".to_string(), "-".into(), "-".into(), "-".into()],
                |r| {
                    [
                        fnum(r.eps),
                        fnum(r.max_err),
                        fkb(r.space_bytes),
                        fnum(reservoir.space_bytes as f64 / r.space_bytes as f64),
                    ]
                },
            );
            if judged && rival.is_none_or(|r| r.space_bytes > reservoir.space_bytes) {
                failed.push(format!("{stream} at eps {}", reservoir.eps));
            }
            table.push_row(vec![
                stream.to_string(),
                fnum(reservoir.eps),
                capacity.to_string(),
                fnum(reservoir.max_err),
                fkb(reservoir.space_bytes),
                random_eps,
                random_err,
                random_kb,
                ratio,
                if judged { "yes" } else { "no" }.to_string(),
            ]);
        }
    }
    table
        .emit(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"))
        .expect("write results/reservoir_vs_random.csv");
    assert!(
        failed.is_empty(),
        "the reservoir is smaller at equal error in: {failed:?}"
    );
}
