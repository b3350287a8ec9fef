//! End-to-end reproducibility: the harness's promise that every
//! experiment is a pure function of its configuration. Two runs with
//! the same seed must agree *exactly* — errors, space, everything but
//! wall-clock — across algorithm classes and workload generators.

use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_data::{Lidar, Mpcat, Normal, Uniform};
use streaming_quantiles::sqs_harness::runner::{
    run_cash_cell, run_turnstile_cell, CashAlgo, TurnstileAlgo,
};

#[test]
fn generators_are_pure_functions_of_seed() {
    macro_rules! check {
        ($g:expr) => {{
            let a: Vec<u64> = $g.take(5_000).collect();
            let b: Vec<u64> = $g.take(5_000).collect();
            assert_eq!(a, b);
        }};
    }
    check!(Uniform::new(24, 7));
    check!(Normal::new(24, 0.15, 7));
    check!(Mpcat::new(7));
    check!(Lidar::new(7));
}

#[test]
fn cash_cells_reproduce_exactly() {
    let data: Vec<u64> = Mpcat::new(3).take(30_000).collect();
    for algo in [
        CashAlgo::GkArray,
        CashAlgo::Random,
        CashAlgo::Mrl99,
        CashAlgo::FastQDigest,
    ] {
        let a = run_cash_cell(algo, &data, 0.02, 24, 2, 99);
        let b = run_cash_cell(algo, &data, 0.02, 24, 2, 99);
        assert_eq!(a.max_err, b.max_err, "{}", algo.name());
        assert_eq!(a.avg_err, b.avg_err, "{}", algo.name());
        assert_eq!(a.space_bytes, b.space_bytes, "{}", algo.name());
    }
}

#[test]
fn turnstile_cells_reproduce_exactly() {
    let data: Vec<u64> = Uniform::new(16, 5).take(20_000).collect();
    for algo in [
        TurnstileAlgo::Dcm,
        TurnstileAlgo::Dcs,
        TurnstileAlgo::Post(0.1),
    ] {
        let a = run_turnstile_cell(algo, &data, 0.05, 16, 1, 13);
        let b = run_turnstile_cell(algo, &data, 0.05, 16, 1, 13);
        assert_eq!(a.max_err, b.max_err, "{}", algo.name());
        assert_eq!(a.avg_err, b.avg_err, "{}", algo.name());
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Guard against a silently-ignored seed: randomized cells must
    // move when the seed moves.
    let data: Vec<u64> = Uniform::new(24, 8).take(50_000).collect();
    let a = run_cash_cell(CashAlgo::Random, &data, 0.01, 24, 1, 1);
    let b = run_cash_cell(CashAlgo::Random, &data, 0.01, 24, 1, 2);
    assert_ne!(
        (a.max_err, a.avg_err),
        (b.max_err, b.avg_err),
        "seed change must perturb a randomized cell"
    );
}

#[test]
fn randomized_summaries_replay_identically() {
    // Beyond cells: the summaries themselves replay insert-by-insert.
    let data: Vec<u64> = Lidar::new(9).take(40_000).collect();
    let mut a = RandomSketch::new(0.02, 4242);
    let mut b = RandomSketch::new(0.02, 4242);
    for &x in &data {
        a.insert(x);
        b.insert(x);
        debug_assert_eq!(a.n(), b.n());
    }
    for i in 1..100 {
        let phi = i as f64 / 100.0;
        assert_eq!(a.quantile(phi), b.quantile(phi), "phi={phi}");
    }
    let mut c = Dcs::dcs(0.05, 14, 77);
    let mut d = Dcs::dcs(0.05, 14, 77);
    for &x in &data {
        let x = x % (1 << 14);
        c.insert(x);
        d.insert(x);
    }
    for i in 1..50 {
        let phi = i as f64 / 50.0;
        assert_eq!(c.quantile(phi), d.quantile(phi), "phi={phi}");
    }
}
