//! Property tests for the batched turnstile update *and read* paths.
//!
//! `DyadicQuantiles::update_batch` (and the sketch `update_batch`
//! overrides underneath it) promise to be **state-identical** to the
//! element-wise scalar loop — counter for counter, hash draws
//! untouched — so the batched path can never change a query answer.
//! These tests enforce that contract for all three dyadic algorithms
//! over random insert/delete batches, including batches that span the
//! internal chunking boundary and leave ragged unroll tails.
//!
//! The read-side kernels make the same promise one layer up:
//! `rank_signed_batch` must return **answer-identical** results to the
//! scalar `rank_signed` loop, and the tree descent behind `quantile`
//! and `quantiles` — of one structure, or summed over same-seed parts
//! by `answer_sum` — to a per-φ binary search over `rank_signed` (kept
//! here as the reference) — with or without level truncation, since
//! both paths align queries the same way, and across every shape of
//! the every-other-level layout. Truncation itself is gated
//! by the ε-oracle suite: answers of truncated structures stay within
//! ε rank error of the exact oracle on adversarial streams.

use proptest::collection::vec;
use proptest::prelude::*;
use sqs_core::{MergeableSummary, QuantileSummary};
use sqs_turnstile::dyadic::DyadicQuantiles;
use sqs_turnstile::rss::new_rss_with;
use sqs_turnstile::{Dcm, Dcs, TurnstileQuantiles};

const LOG_U: u32 = 20;

/// Interleaves deletions of earlier items into an insert stream,
/// keeping every prefix valid under the strict turnstile model (no
/// multiplicity ever goes negative when applied left to right).
fn mixed_batch(data: &[u64]) -> Vec<(u64, i64)> {
    let mut batch = Vec::with_capacity(data.len() + data.len() / 3);
    for (i, &x) in data.iter().enumerate() {
        batch.push((x, 1));
        if i % 3 == 2 {
            // i/2 < i and strictly increases between hits, so each
            // deletion targets a distinct, already-inserted item.
            batch.push((data[i / 2], -1));
        }
    }
    batch
}

fn assert_batch_identical<S>(mut scalar: DyadicQuantiles<S>, batch: &[(u64, i64)])
where
    S: sqs_sketch::FrequencySketch + Clone + PartialEq + std::fmt::Debug,
{
    let mut batched = scalar.clone();
    for &(x, d) in batch {
        // `mixed_batch` only emits unit deltas; the scalar reference
        // path is the public insert/delete API.
        if d > 0 {
            scalar.insert(x);
        } else {
            scalar.delete(x);
        }
    }
    batched.update_batch(batch);
    assert_eq!(
        scalar, batched,
        "update_batch diverged from the scalar update loop"
    );
}

proptest! {
    #[test]
    fn dcm_batch_is_state_identical(
        data in vec(0u64..(1 << LOG_U), 1..2_500),
        seed in 0u64..1_000,
    ) {
        assert_batch_identical(Dcm::dcm(0.05, LOG_U, seed), &mixed_batch(&data));
    }

    #[test]
    fn dcs_batch_is_state_identical(
        data in vec(0u64..(1 << LOG_U), 1..2_500),
        seed in 0u64..1_000,
    ) {
        assert_batch_identical(Dcs::dcs(0.05, LOG_U, seed), &mixed_batch(&data));
    }

    #[test]
    fn rss_batch_is_state_identical(
        data in vec(0u64..(1 << LOG_U), 1..2_500),
        seed in 0u64..1_000,
    ) {
        assert_batch_identical(new_rss_with(64, LOG_U, seed), &mixed_batch(&data));
    }
}

/// A batch exactly at, one under, and one over the internal chunk
/// size, plus ragged 8-wide unroll tails — the deterministic edges the
/// random sizes above may miss.
#[test]
fn chunk_boundary_sizes_are_identical() {
    for n in [1usize, 7, 8, 9, 255, 256, 1023, 1024, 1025, 2048, 2049] {
        let data: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - LOG_U))
            .collect();
        let batch = mixed_batch(&data);
        assert_batch_identical(Dcm::dcm(0.05, LOG_U, n as u64), &batch);
        assert_batch_identical(Dcs::dcs(0.05, LOG_U, n as u64), &batch);
        assert_batch_identical(new_rss_with(64, LOG_U, n as u64), &batch);
    }
}

// ---------------------------------------------------------------- reads

/// The per-φ binary search on the universe for the largest element
/// whose estimated rank does not exceed `⌊φ·live⌋` (§3's extraction
/// rule), over the public rank walk: the reference the tree descent of
/// `quantile` / `quantiles` must answer bit for bit. Under truncation it
/// searches in cells of `2^cutoff` values.
fn bisect<S: sqs_sketch::FrequencySketch>(dq: &DyadicQuantiles<S>, phi: f64) -> Option<u64> {
    let live = dq.rank_signed(dq.universe().size());
    if live <= 0 {
        return None;
    }
    let target = (phi * live as f64).floor() as i64;
    let cutoff = dq.level_cutoff();
    let (mut lo, mut hi) = (0u64, dq.universe().cells_at_level(cutoff) - 1);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if dq.rank_signed(mid << cutoff) <= target {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some(lo << cutoff)
}

/// Batched reads vs the scalar references, answer for answer: every
/// rank in one `rank_signed_batch` call must equal its `rank_signed`,
/// and both the `quantiles` sweep and each single `quantile` must equal
/// the per-φ bisection — including duplicate and unsorted φs, and
/// queries at/past the universe edge.
fn assert_reads_identical<S>(dq: &mut DyadicQuantiles<S>, xs: &[u64], phis: &[f64])
where
    S: sqs_sketch::FrequencySketch,
{
    let mut batched = vec![0i64; xs.len()];
    dq.rank_signed_batch(xs, &mut batched);
    for (&x, &b) in xs.iter().zip(&batched) {
        assert_eq!(dq.rank_signed(x), b, "rank_signed_batch diverged at x={x}");
    }
    let swept = dq.quantiles(phis);
    for (&phi, got) in phis.iter().zip(&swept) {
        let want = bisect(dq, phi);
        assert_eq!(want, *got, "the quantiles sweep diverged at phi={phi}");
        assert_eq!(want, dq.quantile(phi), "quantile diverged at phi={phi}");
    }
}

/// The read summed over `k` same-seed parts ([`MergeableSummary::answer_sum`],
/// the engine's read over its shards) against the references on the
/// merged clone, for k = 2 and 4: `batch` is split by value, so every
/// part sees whole insert/delete histories.
fn assert_summed_reads_identical<S>(
    empty: &DyadicQuantiles<S>,
    batch: &[(u64, i64)],
    xs: &[u64],
    phis: &[f64],
) where
    S: sqs_sketch::MergeableSketch + Clone,
{
    for k in [2u64, 4] {
        let parts: Vec<DyadicQuantiles<S>> = (0..k)
            .map(|p| {
                let mut part = empty.clone();
                let mine: Vec<(u64, i64)> =
                    batch.iter().copied().filter(|&(x, _)| x % k == p).collect();
                part.update_batch(&mine);
                part
            })
            .collect();
        let refs: Vec<&DyadicQuantiles<S>> = parts.iter().collect();
        let (quantiles, ranks) =
            DyadicQuantiles::answer_sum(&refs, phis, xs).expect("same-seed parts sum");
        let merged = parts
            .into_iter()
            .reduce(|mut a, b| {
                a.merge_from(b);
                a
            })
            .expect("k parts");
        for (&phi, got) in phis.iter().zip(&quantiles) {
            assert_eq!(
                bisect(&merged, phi),
                *got,
                "{k} parts diverged at phi={phi}"
            );
        }
        for (&x, &got) in xs.iter().zip(&ranks) {
            let want = merged.rank_signed(x).max(0) as u64;
            assert_eq!(want, got, "{k} parts' rank diverged at x={x}");
        }
    }
}

/// Query probes covering universe edges and cell boundaries.
fn probe_xs(n: usize, seed: u64) -> Vec<u64> {
    let mut xs = vec![0u64, 1, (1 << LOG_U) - 1, 1 << LOG_U, u64::MAX];
    xs.extend(
        (0..n as u64).map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - LOG_U)),
    );
    xs
}

/// An unsorted φ grid with duplicates — the sweep must handle both.
fn probe_phi_grid() -> Vec<f64> {
    let mut phis: Vec<f64> = (1..40).map(|i| i as f64 / 40.0).collect();
    phis.push(0.5);
    phis.push(0.013);
    phis.reverse();
    phis
}

proptest! {
    // Truncation *off* (explicit geometry constructors never set a
    // cutoff): the pure batched-kernel contract.
    #[test]
    fn dcm_batched_reads_are_answer_identical(
        data in vec(0u64..(1 << LOG_U), 1..2_000),
        seed in 0u64..500,
    ) {
        let mut dq = sqs_turnstile::dcm::from_width_depth(160, 5, LOG_U, seed);
        assert_eq!(dq.level_cutoff(), 0);
        dq.update_batch(&mixed_batch(&data));
        assert_reads_identical(&mut dq, &probe_xs(64, seed), &probe_phi_grid());
    }

    #[test]
    fn dcs_batched_reads_are_answer_identical(
        data in vec(0u64..(1 << LOG_U), 1..2_000),
        seed in 0u64..500,
    ) {
        let mut dq = sqs_turnstile::dcs::from_width_depth(48, 5, LOG_U, seed);
        assert_eq!(dq.level_cutoff(), 0);
        let batch = mixed_batch(&data);
        assert_summed_reads_identical(&dq, &batch, &probe_xs(64, seed), &probe_phi_grid());
        dq.update_batch(&batch);
        assert_reads_identical(&mut dq, &probe_xs(64, seed), &probe_phi_grid());
    }

    // Truncation *on* (ε constructors): batched and scalar reads align
    // queries identically, so the contract holds across the cutoff too.
    #[test]
    fn truncated_batched_reads_are_answer_identical(
        data in vec(0u64..(1 << LOG_U), 1..2_000),
        seed in 0u64..500,
    ) {
        let mut dcm = Dcm::dcm(0.02, LOG_U, seed);
        let mut dcs = Dcs::dcs(0.02, LOG_U, seed);
        assert!(dcm.level_cutoff() > 0 && dcs.level_cutoff() > 0);
        let batch = mixed_batch(&data);
        assert_summed_reads_identical(&dcm, &batch, &probe_xs(64, seed), &probe_phi_grid());
        assert_summed_reads_identical(&dcs, &batch, &probe_xs(64, seed), &probe_phi_grid());
        dcm.update_batch(&batch);
        dcs.update_batch(&batch);
        assert_reads_identical(&mut dcm, &probe_xs(64, seed), &probe_phi_grid());
        assert_reads_identical(&mut dcs, &probe_xs(64, seed), &probe_phi_grid());
    }
}

/// One structure, a wide and a narrow rank sweep: both must match the
/// scalar walk (and therefore each other).
#[test]
fn wide_and_narrow_rank_sweeps_are_answer_identical() {
    for seed in [3u64, 17, 99] {
        let mut dcm = Dcm::dcm(0.02, LOG_U, seed);
        let mut dcs = Dcs::dcs(0.02, LOG_U, seed);
        let data: Vec<u64> = (0..30_000u64)
            .map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - LOG_U))
            .collect();
        let batch = mixed_batch(&data);
        dcm.update_batch(&batch);
        dcs.update_batch(&batch);
        for probes in [probe_xs(4096, seed), probe_xs(3, seed)] {
            assert_reads_identical(&mut dcm, &probes, &probe_phi_grid());
            assert_reads_identical(&mut dcs, &probes, &probe_phi_grid());
        }
    }
}

/// Whether some sketch level is asked for more cells by the sweep `xs`
/// than its reduced universe holds, so that probes share cells.
fn sweep_shares_cells<S: sqs_sketch::FrequencySketch>(dq: &DyadicQuantiles<S>, xs: &[u64]) -> bool {
    let u = dq.universe();
    let sketched = |l: u32| !dq.is_exact_level(l) && !dq.is_derived_level(l);
    (0..u.log_u()).filter(|&l| sketched(l)).any(|level| {
        let span = if dq.is_derived_level(level + 1) { 2 } else { 1 };
        let digit = |x: u64| (x.min(u.size()) >> level) & ((1 << span) - 1);
        u.cells_at_level(level) < xs.iter().map(|&x| digit(x)).sum::<u64>()
    })
}

/// A wide sweep over a small universe: the exact levels are few cells
/// wide against 4 096 probes, and a coarse sketch level has fewer cells
/// than the sweep puts on it. The one batched walk must still answer
/// what the scalar one does.
#[test]
fn wide_sweeps_over_a_small_universe_are_answer_identical() {
    const SMALL: u32 = 14;
    let spread = |i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SMALL);
    let batch = mixed_batch(&(0..20_000u64).map(spread).collect::<Vec<_>>());
    let mut probes: Vec<u64> = (0..4_096u64).map(|i| spread(i ^ 0x77)).collect();
    probes.extend([0, 1, (1 << SMALL) - 1, 1 << SMALL, u64::MAX]);
    let mut dcm = sqs_turnstile::dcm::from_width_depth(160, 5, SMALL, 11);
    let mut dcs = sqs_turnstile::dcs::from_width_depth(48, 5, SMALL, 11);
    dcm.update_batch(&batch);
    dcs.update_batch(&batch);
    assert!(sweep_shares_cells(&dcm, &probes) && sweep_shares_cells(&dcs, &probes));
    assert_reads_identical(&mut dcm, &probes, &probe_phi_grid());
    assert_reads_identical(&mut dcs, &probes, &probe_phi_grid());
}

/// ε values whose DCM and DCS layouts at u = 2²⁰ cover the four shapes
/// of the every-other-level rule: cutoff parity 0 and 1, and a sketched
/// run of odd length (a lone stored level under the exact run) and of
/// even length (a derived level under it).
const LAYOUT_EPS: [f64; 6] = [0.01, 0.01675, 0.02, 0.0335, 0.05, 0.1];

/// `(cutoff parity, sketched-run parity)`.
fn layout_shape<S: sqs_sketch::FrequencySketch>(dq: &DyadicQuantiles<S>) -> (u32, usize) {
    let c = dq.level_cutoff();
    let run = (c..LOG_U).take_while(|&l| !dq.is_exact_level(l)).count();
    assert!(run >= 1, "test premise: a sketched run");
    (c % 2, run % 2)
}

fn assert_layout_identical<S>(dq: DyadicQuantiles<S>, batch: &[(u64, i64)], seed: u64)
where
    S: sqs_sketch::FrequencySketch + Clone + PartialEq + std::fmt::Debug,
{
    assert_batch_identical(dq.clone(), batch);
    let mut dq = dq;
    dq.update_batch(batch);
    for probes in [probe_xs(4096, seed), probe_xs(3, seed)] {
        assert_reads_identical(&mut dq, &probes, &probe_phi_grid());
    }
}

#[test]
fn every_layout_shape_is_state_and_answer_identical() {
    let data: Vec<u64> = (0..3_000u64)
        .map(|i| (i ^ 0x5eed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - LOG_U))
        .collect();
    let batch = mixed_batch(&data);
    let mut shapes = (Vec::new(), Vec::new());
    for (seed, eps) in (0u64..).zip(LAYOUT_EPS) {
        let (dcm, dcs) = (Dcm::dcm(eps, LOG_U, seed), Dcs::dcs(eps, LOG_U, seed));
        shapes.0.push(layout_shape(&dcm));
        shapes.1.push(layout_shape(&dcs));
        assert_layout_identical(dcm, &batch, seed);
        assert_layout_identical(dcs, &batch, seed);
    }
    for (alg, mut seen) in [("DCM", shapes.0), ("DCS", shapes.1)] {
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(
            seen,
            [(0, 0), (0, 1), (1, 0), (1, 1)],
            "{alg} layout shapes"
        );
    }
}

/// The paper's tuned shape (ε = 0.01, u = 2³² — §4.3.1), the one
/// `batch_floor.rs` times: the same state and the same answers there
/// too, not only in the 2²⁰ universe of the tests above.
#[test]
fn paper_shape_is_state_and_answer_identical() {
    let data: Vec<u64> = (0..30_000u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32)
        .collect();
    let batch = mixed_batch(&data);
    assert_batch_identical(Dcm::dcm(0.01, 32, 7), &batch);
    assert_batch_identical(Dcs::dcs(0.01, 32, 7), &batch);

    let mut dcm = Dcm::dcm(0.01, 32, 7);
    let mut dcs = Dcs::dcs(0.01, 32, 7);
    dcm.update_batch(&batch);
    dcs.update_batch(&batch);
    let mut probes = vec![0u64, 1, (1 << 32) - 1, 1 << 32, u64::MAX];
    probes.extend(data.iter().step_by(8).map(|&x| x ^ 0x5a5a));
    assert_reads_identical(&mut dcm, &probes, &probe_phi_grid());
    assert_reads_identical(&mut dcs, &probes, &probe_phi_grid());
}

// ---------------------------------------------------- truncation ε-oracle

/// Adversarial streams for the truncation accuracy gate: mass piled
/// where rounding to 2^cutoff granularity hurts the most.
fn oracle_streams(seed: u64) -> Vec<(&'static str, Vec<u64>)> {
    let mix = |a: u64, b: u64| {
        (0..40_000u64)
            .map(|i| {
                let h = (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                a + (h >> (64 - LOG_U)) % b
            })
            .collect::<Vec<u64>>()
    };
    vec![
        ("uniform", mix(0, 1 << LOG_U)),
        // A narrow pile: quantiles land inside a handful of truncated
        // cells, so rounding error concentrates.
        ("clustered", mix(500_000, 4_096)),
        // All mass on one repeated value straddling a cutoff boundary.
        ("point-mass", vec![(1 << 14) + 1; 40_000]),
    ]
}

/// Truncated ε-constructors satisfy the *cell-straddle* property
/// against the exact oracle: for every answer `q` at probe φ with
/// target rank `t = ⌊φ·n⌋`,
///
///   `exact_rank(c) ≤ t + εn`            (the cell starts not too
///                                        high), and
///   `exact_rank(c + 2^cutoff) > t − εn` (the next cell overshoots),
///
/// where `[c, c + 2^cutoff)` is the grain cell holding `q`. This is
/// the honest claim under truncation: answers carry 2^cutoff
/// granularity, so a point mass *inside* one grain cell makes the
/// plain rank-error metric meaningless while the straddle still pins
/// the answer to the correct cell. (Post interpolates sub-grain
/// positions inside the cell; raw answers sit exactly on `c` and must
/// be cutoff-aligned.)
#[test]
fn truncated_structures_straddle_oracle_targets() {
    use sqs_util::exact::{probe_phis, ExactQuantiles};
    let eps = 0.02;
    for seed in [3u64, 17] {
        for (name, data) in oracle_streams(seed) {
            let mut dcm = Dcm::dcm(eps, LOG_U, seed);
            let mut dcs = Dcs::dcs(eps, LOG_U, seed);
            assert!(dcm.level_cutoff() > 0 && dcs.level_cutoff() > 0);
            let batch: Vec<(u64, i64)> = data.iter().map(|&x| (x, 1)).collect();
            dcm.update_batch(&batch);
            dcs.update_batch(&batch);
            let n = data.len() as f64;
            let oracle = ExactQuantiles::new(data);
            let phis = probe_phis(eps);
            let post = sqs_turnstile::PostProcessed::new(&dcs, eps, 0.1);
            let post_answers: Vec<Option<u64>> = phis.iter().map(|&p| post.quantile(p)).collect();
            for (alg, grain, answers) in [
                ("DCM", 1u64 << dcm.level_cutoff(), dcm.quantiles(&phis)),
                ("DCS", 1u64 << dcs.level_cutoff(), dcs.quantiles(&phis)),
                ("DCS+Post", 1u64 << dcs.level_cutoff(), post_answers),
            ] {
                for (&phi, a) in phis.iter().zip(answers) {
                    let q = a.expect("nonempty stream");
                    let t = (phi * n).floor();
                    let c = q & !(grain - 1);
                    let lo_rank = oracle.rank(c) as f64;
                    let hi_rank = oracle.rank(c.saturating_add(grain)) as f64;
                    assert!(
                        lo_rank <= t + eps * n,
                        "{alg} on {name} (seed {seed}): φ={phi} q={q} rank {lo_rank} > {t}+εn"
                    );
                    assert!(
                        hi_rank > t - eps * n,
                        "{alg} on {name} (seed {seed}): φ={phi} q={q} rank(c+{grain}) {hi_rank} ≤ {t}−εn"
                    );
                    if alg != "DCS+Post" {
                        assert_eq!(
                            q % grain,
                            0,
                            "{alg} on {name}: φ={phi} answer {q} unaligned"
                        );
                    }
                }
            }
        }
    }
}

/// Deletion-heavy truncation gate: insert everything, delete all but a
/// narrow band, and demand the truncated structures still track the
/// survivors (§1.2.2's motivating scenario, now under a cutoff).
#[test]
fn truncated_structures_survive_heavy_deletion() {
    use sqs_util::exact::ExactQuantiles;
    let eps = 0.05;
    let mut dcm = Dcm::dcm(eps, 16, 21);
    let mut dcs = Dcs::dcs(eps, 16, 21);
    assert!(dcm.level_cutoff() > 0 && dcs.level_cutoff() > 0);
    let mut batch: Vec<(u64, i64)> = (0..50_000u64).map(|x| (x % 65_536, 1)).collect();
    batch.extend(
        (0..50_000u64)
            .map(|x| x % 65_536)
            .filter(|v| !(20_000..21_000).contains(v))
            .map(|v| (v, -1)),
    );
    dcm.update_batch(&batch);
    dcs.update_batch(&batch);
    let survivors: Vec<u64> = (0..50_000u64)
        .map(|x| x % 65_536)
        .filter(|v| (20_000..21_000).contains(v))
        .collect();
    let oracle = ExactQuantiles::new(survivors);
    let phis = [0.25, 0.5, 0.75];
    for (alg, answers) in [("DCM", dcm.quantiles(&phis)), ("DCS", dcs.quantiles(&phis))] {
        for (&phi, a) in phis.iter().zip(answers) {
            let q = a.expect("survivors remain");
            let err = oracle.quantile_error(phi, q);
            assert!(err <= eps, "{alg}: phi={phi}, err={err}, q={q}");
        }
    }
}
