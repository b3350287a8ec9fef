//! The asymptotic space formulas of the paper's Table 1, checked
//! against measured structures (constants are generous — the point is
//! the *growth shape*, which is what Table 1 asserts).

use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_util::rng::Xoshiro256pp;

fn feed<S: QuantileSummary<u64> + ?Sized>(s: &mut S, n: usize, seed: u64) {
    let mut rng = Xoshiro256pp::new(seed);
    for _ in 0..n {
        s.insert(rng.next_below(1 << 40));
    }
}

#[test]
fn gktheory_space_tracks_inv_eps_log_eps_n() {
    // O((1/ε)·log(εn)) tuples, constant 11/2 from GK01.
    let n = 200_000;
    for eps in [0.02, 0.005, 0.001] {
        let mut s = GkTheory::new(eps);
        feed(&mut s, n, 1);
        let tuples = s.tuple_count() as f64;
        let bound = (11.0 / (2.0 * eps)) * (2.0 * eps * n as f64).log2().max(1.0);
        assert!(tuples <= bound, "eps={eps}: {tuples} > {bound}");
        // And it actually uses a decent fraction of the budget shape
        // (i.e. it's Θ, not accidentally O(1)).
        assert!(
            tuples >= 0.2 / eps,
            "eps={eps}: {tuples} suspiciously small"
        );
    }
}

#[test]
fn random_space_is_exactly_b_times_s() {
    // O((1/ε)·log^1.5(1/ε)), realized as the preallocated b·s.
    for eps in [0.05, 0.01, 0.001] {
        let s = RandomSketch::<u64>::new(eps, 1);
        let h = (1.0 / eps).log2().ceil().max(1.0);
        let expect_s = ((1.0 / eps) * h.sqrt()).ceil() as usize;
        assert_eq!(s.buffer_size(), expect_s.max(2), "eps={eps}");
        assert_eq!(s.buffer_count(), h as usize + 1, "eps={eps}");
        assert_eq!(
            s.space_bytes(),
            s.buffer_count() * (s.buffer_size() + 2) * 4,
            "eps={eps}"
        );
    }
}

#[test]
fn qdigest_space_tracks_inv_eps_log_u() {
    // O((1/ε)·log u): node count ≤ 3σ with σ = ⌈log u/ε⌉.
    for (eps, log_u) in [(0.05, 16u32), (0.01, 16), (0.01, 32)] {
        let mut s = QDigest::new(eps, log_u);
        let mut rng = Xoshiro256pp::new(2);
        for _ in 0..300_000 {
            s.insert(rng.next_below(1 << log_u.min(30)));
        }
        let sigma = ((log_u as f64) / eps).ceil() as usize;
        assert!(
            s.node_count() <= 3 * sigma + 512,
            "eps={eps}, log_u={log_u}: {} nodes vs 3σ = {}",
            s.node_count(),
            3 * sigma
        );
    }
}

#[test]
fn dcs_space_tracks_sqrt_log_u_over_eps() {
    // Per level: w·d with w = √(log u)/ε; levels ≈ log u.
    for (eps, log_u) in [(0.01, 16u32), (0.01, 32), (0.001, 32)] {
        let s = Dcs::dcs(eps, log_u, 1);
        let w = ((log_u as f64).sqrt() / eps).ceil();
        let upper = (w * 7.0 * log_u as f64) * 1.5 * 4.0; // generous
        assert!(
            (s.space_bytes() as f64) < upper,
            "eps={eps}, log_u={log_u}: {} > {upper}",
            s.space_bytes()
        );
    }
    // Doubling log u costs ~2·√2 in theory; at log u = 16 many levels
    // are exact (cheap), inflating the measured ratio — allow < 8.
    let a = Dcs::dcs(0.01, 16, 1).space_bytes() as f64;
    let b = Dcs::dcs(0.01, 32, 1).space_bytes() as f64;
    assert!(b / a < 8.0, "log u scaling {b}/{a}");
}

#[test]
fn dcm_vs_dcs_width_ratio_is_sqrt_log_u() {
    // Table 1: DCM is log u per level where DCS is √(log u).
    for log_u in [16u32, 32] {
        let dcm = Dcm::dcm(0.01, log_u, 1).space_bytes() as f64;
        let dcs = Dcs::dcs(0.01, log_u, 1).space_bytes() as f64;
        let expect = (log_u as f64).sqrt();
        let ratio = dcm / dcs;
        assert!(
            ratio > 0.5 * expect && ratio < 2.0 * expect,
            "log_u={log_u}: ratio {ratio} vs √log u = {expect}"
        );
    }
}

#[test]
fn reservoir_space_is_quadratic_in_inv_eps() {
    let a = ReservoirQuantiles::<u64>::new(0.1, 1).capacity() as f64;
    let b = ReservoirQuantiles::<u64>::new(0.01, 1).capacity() as f64;
    // 10× tighter ε → ~100× (within log factors) more samples.
    assert!(b / a > 30.0, "ratio {b}/{a}");
}

#[test]
fn mrl99_matches_its_log_squared_shape_loosely() {
    // b·k with b ≈ log(1/ε), k ≈ (1/ε)·√log(1/ε): total within
    // O((1/ε)·log^1.5) — check the measured growth from ε to ε/10 is
    // far below quadratic.
    let a = {
        let s = Mrl99::<u64>::new(0.05, 1);
        s.buffer_count() * s.buffer_size()
    } as f64;
    let b = {
        let s = Mrl99::<u64>::new(0.005, 1);
        s.buffer_count() * s.buffer_size()
    } as f64;
    assert!(b / a < 40.0, "10× tighter ε grew space {}×", b / a);
    assert!(b / a > 8.0, "space must still grow ~linearly in 1/ε");
}
