//! Adversarial-stream matrix: every cash-register summary against the
//! classic hostile arrival patterns (the kind of inputs the GK
//! COMPRESS analysis and the Random/MRL99 merge trees were designed to
//! survive). Deterministic summaries must hold ε everywhere; the
//! randomized ones must stay within a small multiple averaged over
//! seeds.

use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_util::exact::{observed_errors, probe_phis};
use streaming_quantiles::sqs_util::rng::Xoshiro256pp;

const N: usize = 40_000;
const EPS: f64 = 0.05;

/// The hostile arrival patterns.
fn adversaries() -> Vec<(&'static str, Vec<u64>)> {
    let n = N as u64;
    let mut rng = Xoshiro256pp::new(99);
    vec![
        ("sorted", (0..n).collect()),
        ("reversed", (0..n).rev().collect()),
        // Sawtooth: repeated ascending ramps.
        ("sawtooth", (0..n).map(|i| i % 1_000).collect()),
        // Organ pipe: up then down.
        (
            "organ_pipe",
            (0..n).map(|i| if i < n / 2 { i } else { n - i }).collect(),
        ),
        // Alternating extremes: new min, new max, new min, ...
        (
            "alternating_extremes",
            (0..n)
                .map(|i| if i % 2 == 0 { n + i } else { n - i })
                .collect(),
        ),
        // Two-value stream (maximally duplicated).
        ("two_values", (0..n).map(|i| (i % 2) * 1_000_000).collect()),
        // All equal.
        ("constant", vec![42; N]),
        // Exponentially growing magnitudes.
        (
            "exponential",
            (0..n).map(|i| 1u64 << (i % 60).min(59)).collect(),
        ),
        // Middle-out: median first, then alternating outward.
        (
            "middle_out",
            (0..n)
                .map(|i| {
                    if i % 2 == 0 {
                        n / 2 + i / 2
                    } else {
                        n / 2 - i / 2
                    }
                })
                .collect(),
        ),
        // Random with adversarial duplicates: 90% one value, 10% spread.
        (
            "heavy_hitter",
            (0..n)
                .map(|_| {
                    if rng.next_f64() < 0.9 {
                        12_345
                    } else {
                        rng.next_below(1 << 30)
                    }
                })
                .collect(),
        ),
    ]
}

fn max_err<S: QuantileSummary<u64> + ?Sized>(s: &mut S, data: &[u64]) -> f64 {
    for &x in data {
        s.insert(x);
    }
    let oracle = ExactQuantiles::new(data.to_vec());
    let answers: Vec<(f64, u64)> = probe_phis(EPS)
        .into_iter()
        .map(|p| (p, s.quantile(p).expect("nonempty")))
        .collect();
    observed_errors(&oracle, &answers).0
}

#[test]
fn deterministic_summaries_survive_every_adversary() {
    for (name, data) in adversaries() {
        let cells: Vec<(&str, f64)> = vec![
            ("GKTheory", max_err(&mut GkTheory::new(EPS), &data)),
            ("GKAdaptive", max_err(&mut GkAdaptive::new(EPS), &data)),
            ("GKArray", max_err(&mut GkArray::new(EPS), &data)),
            (
                "MRL98",
                max_err(&mut Mrl98::new(EPS, data.len() as u64), &data),
            ),
        ];
        for (algo, err) in cells {
            assert!(err <= EPS, "{algo} on {name}: {err} > {EPS}");
        }
    }
}

#[test]
fn qdigest_survives_every_in_universe_adversary() {
    for (name, data) in adversaries() {
        // q-digest needs a fixed universe; map values in.
        let log_u = 20;
        let mapped: Vec<u64> = data.iter().map(|&x| x % (1 << log_u)).collect();
        let err = max_err(&mut QDigest::new(EPS, log_u), &mapped);
        assert!(err <= EPS, "FastQDigest on {name}: {err} > {EPS}");
    }
}

#[test]
fn randomized_summaries_survive_on_average() {
    for (name, data) in adversaries() {
        for algo in ["Random", "MRL99"] {
            let errs: Vec<f64> = (0..5)
                .map(|seed| match algo {
                    "Random" => max_err(&mut RandomSketch::new(EPS, seed), &data),
                    _ => max_err(&mut Mrl99::new(EPS, seed), &data),
                })
                .collect();
            let avg = errs.iter().sum::<f64>() / errs.len() as f64;
            assert!(avg <= EPS, "{algo} on {name}: avg {avg} ({errs:?})");
            assert!(
                errs.iter().all(|&e| e <= 3.0 * EPS),
                "{algo} on {name}: outlier ({errs:?})"
            );
        }
    }
}

#[test]
fn ckms_tail_holds_under_adversaries() {
    for (name, data) in adversaries() {
        let mut s = Ckms::high_biased(EPS);
        for &x in &data {
            s.insert(x);
        }
        let oracle = ExactQuantiles::new(data.clone());
        for phi in [0.9, 0.99] {
            let q = s.quantile(phi).unwrap();
            let err = oracle.quantile_error(phi, q);
            let budget = 2.0 * EPS * (1.0 - phi) + 2.0 / data.len() as f64;
            assert!(err <= budget, "CKMS on {name} phi={phi}: {err} > {budget}");
        }
    }
}

// The ε constructors truncate dyadic levels below `level_cutoff`, so
// answers carry 2^cutoff granularity: a point mass inside a grain cell
// (e.g. the "constant" stream) cannot be located more precisely, and
// plain rank error is unbounded for such inputs. The honest guarantee
// is the grain-cell straddle bound (same claim as
// crates/turnstile/tests/batch_props.rs): the answer's grain cell must
// straddle the target rank to within εn on each side.
#[test]
fn turnstile_survives_adversarial_value_patterns() {
    for (name, data) in adversaries() {
        let log_u = 20;
        let mapped: Vec<u64> = data.iter().map(|&x| x % (1 << log_u)).collect();
        let mut dcs = Dcs::dcs(EPS, log_u, 31);
        for &x in &mapped {
            dcs.insert(x);
        }
        let grain = 1u64 << dcs.level_cutoff();
        let n = mapped.len() as f64;
        let oracle = ExactQuantiles::new(mapped);
        for phi in [0.25, 0.5, 0.75] {
            let q = dcs.quantile(phi).unwrap();
            assert_eq!(q % grain, 0, "DCS on {name} phi={phi}: q={q} off-grain");
            let t = (phi * n).floor();
            let c = q & !(grain - 1);
            let lo_rank = oracle.rank(c) as f64;
            let hi_rank = oracle.rank(c.saturating_add(grain)) as f64;
            assert!(
                lo_rank <= t + EPS * n,
                "DCS on {name} phi={phi}: q={q} rank(cell lo)={lo_rank} > target {t} + eps*n"
            );
            assert!(
                hi_rank > t - EPS * n,
                "DCS on {name} phi={phi}: q={q} rank(cell hi)={hi_rank} <= target {t} - eps*n"
            );
        }
    }
}
