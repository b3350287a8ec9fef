//! Turnstile integration: the dyadic algorithms under real
//! insert/delete workloads, checked against exact quantiles of the
//! *live* multiset — including the §1.2.2 adversarial pattern that
//! rules out comparison-based summaries.

use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_data::turnstile::{
    insert_then_delete_all_but, random_churn, replay_live, sliding_window, Op,
};
use streaming_quantiles::sqs_data::{Mpcat, Uniform};
use streaming_quantiles::sqs_util::exact::{observed_errors, probe_phis};

const EPS: f64 = 0.02;
const LOG_U: u32 = 20;

fn apply(ops: &[Op], s: &mut impl TurnstileQuantiles) {
    for op in ops {
        match *op {
            Op::Insert(x) => s.insert(x),
            Op::Delete(x) => s.delete(x),
        }
    }
}

fn check_against_live(ops: &[Op], seed: u64) {
    let live = replay_live(ops);
    let oracle = ExactQuantiles::new(live.clone());
    let mut dcm = Dcm::dcm(EPS, LOG_U, seed);
    let mut dcs = Dcs::dcs(EPS, LOG_U, seed);
    apply(ops, &mut dcm);
    apply(ops, &mut dcs);
    assert_eq!(dcm.n() as usize, live.len());
    assert_eq!(dcs.n() as usize, live.len());

    for (name, answers) in [
        (
            "DCM",
            probe_phis(EPS)
                .into_iter()
                .map(|p| (p, dcm.quantile(p).expect("non-empty stream")))
                .collect::<Vec<_>>(),
        ),
        (
            "DCS",
            probe_phis(EPS)
                .into_iter()
                .map(|p| (p, dcs.quantile(p).expect("non-empty stream")))
                .collect::<Vec<_>>(),
        ),
    ] {
        let (max_err, _) = observed_errors(&oracle, &answers);
        assert!(max_err <= EPS, "{name}: max err {max_err} > {EPS}");
    }

    // Post must also respect ε on the live set.
    let post = PostProcessed::new(&dcs, EPS, 0.1);
    let answers: Vec<(f64, u64)> = probe_phis(EPS)
        .into_iter()
        .map(|p| (p, post.quantile(p).expect("non-empty stream")))
        .collect();
    let (max_err, _) = observed_errors(&oracle, &answers);
    assert!(max_err <= EPS, "Post: max err {max_err} > {EPS}");
}

#[test]
fn sliding_window_churn() {
    let data: Vec<u64> = Mpcat::new(1)
        .take(60_000)
        .map(|v| v % (1 << LOG_U))
        .collect();
    check_against_live(&sliding_window(&data, 20_000), 10);
}

#[test]
fn random_churn_workload() {
    let ops = random_churn(Uniform::new(LOG_U, 2).take(60_000), 0.5, 3);
    check_against_live(&ops, 11);
}

#[test]
fn adversarial_insert_then_mass_delete() {
    // Insert 40k, keep a random 1k scattered survivors.
    let data: Vec<u64> = Uniform::new(LOG_U, 4).take(40_000).collect();
    let survivors: Vec<usize> = (0..1_000).map(|i| i * 40).collect();
    check_against_live(&insert_then_delete_all_but(&data, &survivors), 12);
}

#[test]
fn deletion_is_exactly_invertible() {
    // §4.3: a delete removes an element's influence entirely; inserting
    // then deleting a batch leaves the sketch byte-equivalent in
    // behaviour to never having seen it.
    let mut touched = Dcs::dcs(EPS, LOG_U, 42);
    let mut untouched = Dcs::dcs(EPS, LOG_U, 42);
    let keep: Vec<u64> = Uniform::new(LOG_U, 5).take(20_000).collect();
    let churn: Vec<u64> = Uniform::new(LOG_U, 6).take(20_000).collect();
    for &x in &keep {
        touched.insert(x);
        untouched.insert(x);
    }
    for &x in &churn {
        touched.insert(x);
    }
    for &x in &churn {
        touched.delete(x);
    }
    for probe in (0..(1u64 << LOG_U)).step_by(1 << 14) {
        assert_eq!(
            touched.rank_signed(probe),
            untouched.rank_signed(probe),
            "probe {probe}"
        );
    }
    for phi in [0.1, 0.5, 0.9] {
        assert_eq!(touched.quantile(phi), untouched.quantile(phi));
    }
}

#[test]
fn post_never_worse_than_twice_raw_under_churn() {
    // The refined variance mode keeps Post safe even when raw DCS is
    // already near its noise floor (see DESIGN.md).
    let ops = random_churn(Mpcat::new(7).take(80_000).map(|v| v % (1 << LOG_U)), 0.4, 8);
    let live = replay_live(&ops);
    let oracle = ExactQuantiles::new(live);
    let mut dcs = Dcs::dcs(EPS, LOG_U, 13);
    apply(&ops, &mut dcs);
    let raw = dcs.quantile_grid(EPS);
    let post = PostProcessed::new(&dcs, EPS, 0.1);
    let phis = probe_phis(EPS);
    let cooked: Vec<(f64, u64)> = phis
        .iter()
        .map(|&p| (p, post.quantile(p).expect("non-empty stream")))
        .collect();
    let (_, raw_avg) = observed_errors(&oracle, &raw);
    let (_, post_avg) = observed_errors(&oracle, &cooked);
    assert!(
        post_avg <= (2.0 * raw_avg).max(EPS / 10.0),
        "post {post_avg} vs raw {raw_avg}"
    );
}

#[test]
fn empty_after_full_drain() {
    let mut dcs = Dcs::dcs(0.05, 16, 9);
    let data: Vec<u64> = Uniform::new(16, 10).take(5_000).collect();
    for &x in &data {
        dcs.insert(x);
    }
    for &x in &data {
        dcs.delete(x);
    }
    assert_eq!(dcs.n(), 0);
    assert_eq!(dcs.quantile(0.5), None);
    let post = PostProcessed::new(&dcs, 0.05, 0.1);
    assert_eq!(post.quantile(0.5), None);
}
