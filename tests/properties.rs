//! Property-based tests (proptest) on the core invariants:
//! GK tuple invariants, the ε guarantee under arbitrary inputs, dyadic
//! decomposition algebra, order-preserving key maps, buffer-collapse
//! mass conservation, and q-digest's one-sided rank estimate.

use proptest::collection::vec;
use proptest::prelude::*;
use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_core::buffers::weighted_collapse;
use streaming_quantiles::sqs_core::gk::check_invariants;
use streaming_quantiles::sqs_util::dyadic::DyadicUniverse;
use streaming_quantiles::sqs_util::exact::probe_phis;
use streaming_quantiles::sqs_util::ordkey::{f64_to_ordered_u64, ordered_u64_to_f64};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gk_theory_invariants_hold(data in vec(0u64..10_000, 1..3_000), eps in 0.01f64..0.3) {
        let mut s = GkTheory::new(eps);
        for &x in &data {
            s.insert(x);
        }
        let n = s.n();
        prop_assert!(check_invariants(s.tuples(), eps, n).is_ok());
    }

    #[test]
    fn gk_array_invariants_hold(data in vec(0u64..10_000, 1..3_000), eps in 0.01f64..0.3) {
        let mut s = GkArray::new(eps);
        for &x in &data {
            s.insert(x);
        }
        let n = s.n();
        prop_assert!(check_invariants(s.tuples(), eps, n).is_ok());
    }

    #[test]
    fn gk_adaptive_invariants_hold(data in vec(0u64..10_000, 1..3_000), eps in 0.01f64..0.3) {
        let mut s = GkAdaptive::new(eps);
        for &x in &data {
            s.insert(x);
        }
        prop_assert!(check_invariants(&s.tuples(), eps, s.n()).is_ok());
    }

    #[test]
    fn gk_array_eps_guarantee_any_input(data in vec(0u64..100_000, 10..2_000)) {
        let eps = 0.05;
        let mut s = GkArray::new(eps);
        for &x in &data {
            s.insert(x);
        }
        let oracle = ExactQuantiles::new(data);
        for phi in [0.1, 0.3, 0.5, 0.7, 0.9] {
            let q = s.quantile(phi).unwrap();
            prop_assert!(oracle.quantile_error(phi, q) <= eps, "phi={phi}");
        }
    }

    #[test]
    fn qdigest_rank_is_lower_bound_and_close(
        data in vec(0u64..(1 << 12), 10..3_000),
        probe in 0u64..(1 << 12),
    ) {
        let eps = 0.05;
        let mut s = QDigest::new(eps, 12);
        for &x in &data {
            s.insert(x);
        }
        let oracle = ExactQuantiles::new(data.clone());
        let est = s.rank_estimate(probe);
        let truth = oracle.rank(probe);
        prop_assert!(est <= truth, "overestimate: {est} > {truth}");
        let slack = (eps * data.len() as f64).ceil() as u64 + 1;
        prop_assert!(truth - est <= slack, "too loose: {truth} - {est} > {slack}");
    }

    #[test]
    fn dyadic_prefix_decomposition_tiles(x in 0u64..=(1 << 20)) {
        let u = DyadicUniverse::new(20);
        let cells = u.prefix_decomposition(x);
        let mut cursor = 0;
        for c in &cells {
            prop_assert_eq!(c.start(), cursor);
            cursor = c.end();
        }
        prop_assert_eq!(cursor, x);
        prop_assert!(cells.len() as u32 <= 20);
    }

    #[test]
    fn ordkey_f64_roundtrip_and_order(a in any::<f64>(), b in any::<f64>()) {
        prop_assume!(!a.is_nan() && !b.is_nan());
        let (ka, kb) = (f64_to_ordered_u64(a), f64_to_ordered_u64(b));
        // Total order agrees with float order (modulo -0.0 == 0.0,
        // which total_cmp splits).
        if a < b {
            prop_assert!(ka < kb);
        }
        if a > b {
            prop_assert!(ka > kb);
        }
        prop_assert_eq!(ordered_u64_to_f64(ka).to_bits(), a.to_bits());
    }

    #[test]
    fn weighted_collapse_conserves_mass_and_order(
        sizes in vec(1usize..30, 2..5),
        weights in vec(1u64..50, 2..5),
        out_size in 1usize..40,
    ) {
        let k = sizes.len().min(weights.len());
        let bufs_data: Vec<Vec<u64>> = (0..k)
            .map(|i| {
                let mut v: Vec<u64> = (0..sizes[i] as u64).map(|j| j * 7 + i as u64).collect();
                v.sort_unstable();
                v
            })
            .collect();
        let bufs: Vec<(&[u64], u64)> =
            bufs_data.iter().zip(&weights).map(|(d, &w)| (d.as_slice(), w)).collect();
        let total: u64 = bufs.iter().map(|(d, w)| d.len() as u64 * w).sum();
        let stride = (total / out_size as u64).max(1);
        let (out, w) = weighted_collapse(&bufs, out_size, stride / 2);
        prop_assert_eq!(w, total);
        prop_assert_eq!(out.len(), out_size);
        prop_assert!(out.windows(2).all(|p| p[0] <= p[1]));
        // Every output element came from some input buffer.
        for v in &out {
            prop_assert!(bufs_data.iter().any(|d| d.contains(v)));
        }
    }

    #[test]
    fn exact_oracle_rank_interval_is_consistent(data in vec(0u64..100, 1..500), x in 0u64..100) {
        let oracle = ExactQuantiles::new(data.clone());
        let iv = oracle.rank_interval(x);
        let less = data.iter().filter(|&&v| v < x).count() as u64;
        let eq = data.iter().filter(|&&v| v == x).count() as u64;
        prop_assert_eq!(iv.lo, less);
        prop_assert_eq!(iv.hi, less + eq.saturating_sub(1));
    }

    #[test]
    fn random_sketch_never_panics_and_counts(data in vec(any::<u64>(), 0..2_000), seed in any::<u64>()) {
        let mut s = RandomSketch::new(0.1, seed);
        for &x in &data {
            s.insert(x);
        }
        prop_assert_eq!(s.n(), data.len() as u64);
        if data.is_empty() {
            prop_assert_eq!(s.quantile(0.5), None);
        } else {
            prop_assert!(s.quantile(0.5).is_some());
        }
    }

    #[test]
    fn dcs_live_count_is_exact(inserts in vec(0u64..(1 << 16), 1..500), deletes in 0usize..400) {
        let mut s = Dcs::dcs(0.1, 16, 1);
        for &x in &inserts {
            s.insert(x);
        }
        let deletes = deletes.min(inserts.len());
        for &x in inserts.iter().take(deletes) {
            s.delete(x);
        }
        prop_assert_eq!(s.n(), (inserts.len() - deletes) as u64);
    }

    #[test]
    fn probe_grid_always_in_open_interval(eps in 0.001f64..0.5) {
        for phi in probe_phis(eps) {
            prop_assert!(phi > 0.0 && phi < 1.0);
        }
    }
}
