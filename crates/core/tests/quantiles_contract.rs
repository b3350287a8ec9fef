//! The contract of `QuantileSummary::quantiles`: an override answers
//! exactly what the per-φ `quantile` loop would, answer for answer, and
//! `quantile_grid(ε)` is `quantiles(probe_phis(ε))` paired with its φs.
//!
//! One generic check, run over every cash-register summary of the
//! crate, the empty summary included, with φ unsorted, repeated and
//! next to 0 and 1. Each side answers on its own clone, so a flush or
//! index build that one query path triggers cannot serve the other.

use sqs_core::biased::Ckms;
use sqs_core::gk::{GkAdaptive, GkArray, GkTheory};
use sqs_core::mrl98::Mrl98;
use sqs_core::mrl99::Mrl99;
use sqs_core::qdigest::QDigest;
use sqs_core::random::RandomSketch;
use sqs_core::sampled::ReservoirQuantiles;
use sqs_core::QuantileSummary;
use sqs_util::exact::probe_phis;
use sqs_util::rng::Xoshiro256pp;

/// φ in no order, repeated, and within 10⁻⁹ of either end.
fn awkward_phis(rng: &mut Xoshiro256pp) -> Vec<f64> {
    let mut phis = vec![0.5, 1e-9, 1.0 - 1e-9, 0.5, 0.999, 1e-3, 0.25, 0.75, 0.5];
    phis.extend((0..40).map(|_| (1 + rng.next_below(9_999)) as f64 / 10_000.0));
    phis.extend(probe_phis(0.05).into_iter().rev());
    phis
}

fn assert_contract<S: QuantileSummary<u64> + Clone>(s: &S, phis: &[f64], at: &str) {
    let name = s.name();
    let batched = s.clone().quantiles(phis);
    let mut single = s.clone();
    let looped: Vec<Option<u64>> = phis.iter().map(|&phi| single.quantile(phi)).collect();
    assert_eq!(batched, looped, "{name} {at}: quantiles ≠ the per-φ loop");
    for eps in [0.1, 0.01, 0.001] {
        let grid = probe_phis(eps);
        let answers = s.clone().quantiles(&grid);
        let want: Vec<(f64, u64)> = grid
            .into_iter()
            .zip(answers)
            .filter_map(|(phi, q)| q.map(|q| (phi, q)))
            .collect();
        let got = s.clone().quantile_grid(eps);
        assert_eq!(got, want, "{name} {at}: quantile_grid({eps}) ≠ quantiles");
    }
}

/// Empty, then after each of a growing series of feeds: a few rows,
/// values from a small universe (ties), and a long uniform tail.
fn check<S: QuantileSummary<u64> + Clone>(mut s: S, seed: u64) {
    let mut rng = Xoshiro256pp::new(seed);
    let phis = awkward_phis(&mut rng);
    assert_contract(&s, &phis, "empty");
    assert!(s.clone().quantiles(&phis).iter().all(Option::is_none));
    assert!(s.clone().quantile_grid(0.01).is_empty());
    let feeds: [(usize, u64); 4] = [(1, 1 << 32), (40, 1 << 32), (5_000, 17), (120_000, 1 << 32)];
    for (rows, universe) in feeds {
        let xs: Vec<u64> = (0..rows).map(|_| rng.next_below(universe)).collect();
        let (scalar, batched) = xs.split_at(rows / 2);
        scalar.iter().for_each(|&x| s.insert(x));
        s.insert_batch(batched);
        assert_contract(&s, &phis, &format!("at n = {}", s.n()));
    }
}

#[test]
fn gk_family_sweeps_answer_as_the_per_phi_loop() {
    check(GkAdaptive::new(0.01), 1);
    check(GkArray::new(0.01), 2);
    check(GkTheory::new(0.01), 3);
}

#[test]
fn buffer_summaries_sweeps_answer_as_the_per_phi_loop() {
    check(RandomSketch::new(0.01, 7), 4);
    check(Mrl99::new(0.01, 8), 5);
    check(Mrl98::new(0.01, 130_000), 6);
}

#[test]
fn other_summaries_sweeps_answer_as_the_per_phi_loop() {
    check(QDigest::new(0.01, 32), 7);
    check(ReservoirQuantiles::new(0.05, 9), 8);
    check(Ckms::high_biased(0.01), 9);
}
