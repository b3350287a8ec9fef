//! Space-accounting integration: the paper's 4-byte-word convention
//! (§4.1.2) and the qualitative space relationships its figures rest
//! on — space grows as ε shrinks, stays sublinear in n, and ranks the
//! algorithms the way Figure 5c / 10c do.

use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_data::Uniform;

fn feed<S: QuantileSummary<u64> + ?Sized>(s: &mut S, n: usize, seed: u64) {
    for x in Uniform::new(24, seed).take(n) {
        s.insert(x);
    }
}

type Builder = Box<dyn Fn(f64) -> Box<dyn QuantileSummary<u64>>>;

#[test]
fn space_shrinks_with_eps_for_every_cash_algo() {
    let builders: Vec<(&str, Builder)> = vec![
        ("GKTheory", Box::new(|e| Box::new(GkTheory::new(e)))),
        ("GKAdaptive", Box::new(|e| Box::new(GkAdaptive::new(e)))),
        ("GKArray", Box::new(|e| Box::new(GkArray::new(e)))),
        ("Random", Box::new(|e| Box::new(RandomSketch::new(e, 1)))),
        ("MRL99", Box::new(|e| Box::new(Mrl99::new(e, 1)))),
        ("FastQDigest", Box::new(|e| Box::new(QDigest::new(e, 24)))),
    ];
    for (name, build) in builders {
        let mut coarse = build(0.05);
        let mut fine = build(0.002);
        feed(coarse.as_mut(), 100_000, 1);
        feed(fine.as_mut(), 100_000, 1);
        assert!(
            fine.space_bytes() > coarse.space_bytes(),
            "{name}: fine {} !> coarse {}",
            fine.space_bytes(),
            coarse.space_bytes()
        );
        // And both are far below storing the stream.
        assert!(fine.space_bytes() < 100_000 * 4, "{name} is not sublinear");
    }
}

#[test]
fn space_is_stable_in_n_on_random_order() {
    // Figure 7b: flat space curves on randomly ordered data.
    for (name, mut a, mut b) in [
        (
            "GKArray",
            Box::new(GkArray::new(0.01)) as Box<dyn QuantileSummary<u64>>,
            Box::new(GkArray::new(0.01)) as Box<dyn QuantileSummary<u64>>,
        ),
        (
            "Random",
            Box::new(RandomSketch::new(0.01, 2)),
            Box::new(RandomSketch::new(0.01, 2)),
        ),
    ] {
        feed(a.as_mut(), 50_000, 3);
        feed(b.as_mut(), 400_000, 3);
        let ratio = b.space_bytes() as f64 / a.space_bytes() as f64;
        assert!(
            ratio < 2.5,
            "{name}: 8x stream grew space {ratio}x — should be near-flat"
        );
    }
}

#[test]
fn random_footprint_is_constant_by_construction() {
    // §4.2.5: "The space used by Random is constant, because the
    // buffers are pre-allocated according to ε."
    let mut s = RandomSketch::new(0.01, 4);
    let initial = s.space_bytes();
    feed(&mut s, 300_000, 5);
    assert_eq!(s.space_bytes(), initial);
}

#[test]
fn dcs_is_much_smaller_than_dcm_and_rss_dwarfs_both() {
    // Figure 10c (DCS ≈ DCM/10 at equal ε parameterization) and the
    // §1.2.2 reason RSS was dropped.
    let eps = 0.01;
    let dcm = Dcm::dcm(eps, 32, 1);
    let dcs = Dcs::dcs(eps, 32, 1);
    let rss = new_rss(0.05, 16, 1); // RSS only fits at coarse settings
    let dcm_dcs = dcm.space_bytes() as f64 / dcs.space_bytes() as f64;
    assert!(dcm_dcs > 3.0, "DCM/DCS = {dcm_dcs}");
    let rss_dcs = rss.space_bytes() as f64 / Dcs::dcs(0.05, 16, 1).space_bytes() as f64;
    assert!(rss_dcs > 10.0, "RSS/DCS = {rss_dcs}");
}

#[test]
fn cash_beats_turnstile_on_space_at_equal_eps() {
    // §4.3.4: the turnstile model costs roughly an order of magnitude.
    let eps = 0.01;
    let mut gk = GkArray::new(eps);
    feed(&mut gk, 200_000, 6);
    let dcs = Dcs::dcs(eps, 24, 2);
    let ratio = dcs.space_bytes() as f64 / gk.space_bytes() as f64;
    assert!(ratio > 5.0, "turnstile/cash space ratio = {ratio}");
}
