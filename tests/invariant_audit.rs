//! Deterministic audit driver: streams seeded sorted / random / skewed
//! / adversarial inputs through every summary and verifies the full
//! structural-invariant set ([`CheckInvariants`]) at fixed checkpoints.
//!
//! The hot paths already self-audit at powers of two under `cfg(test)`
//! and the `audit` feature; this driver additionally checks at
//! prime-strided checkpoints so "odd" mid-stream states (half-filled
//! buffers, pre-compress tuple lists) are covered too, and it does so
//! through the public API only.

use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_data::synthetic::{Normal, Order, Uniform};
use streaming_quantiles::sqs_data::turnstile::Op;
use streaming_quantiles::sqs_turnstile::{new_dgm, ExactTurnstile};

const N: usize = 30_000;
const EPS: f64 = 0.05;
/// Prime checkpoint stride — never aligns with the power-of-two
/// hot-path audit schedule.
const CHECK_EVERY: usize = 1_871;

/// The input matrix: every value distribution and arrival order the
/// invariants must survive.
fn streams() -> Vec<(&'static str, Vec<u64>)> {
    let mut sorted: Vec<u64> = Uniform::new(20, 11).take(N).collect();
    Order::Sorted.apply(&mut sorted, 0);
    let mut reversed = sorted.clone();
    Order::Reversed.apply(&mut reversed, 0);
    let mut runs: Vec<u64> = Uniform::new(20, 12).take(N).collect();
    Order::SortedRuns { min: 50, max: 500 }.apply(&mut runs, 13);
    vec![
        ("random", Uniform::new(20, 10).take(N).collect()),
        ("sorted", sorted),
        ("reversed", reversed),
        ("sorted_runs", runs),
        // Heavy concentration — the skew knob of §4.2.4.
        ("skewed", Normal::new(20, 0.01, 14).take(N).collect()),
        // Few distinct values: exercises duplicate-heavy tuple merging.
        ("duplicates", (0..N as u64).map(|i| i % 37).collect()),
        // Alternating extremes: new min, new max, new min, ...
        (
            "extremes",
            (0..N as u64)
                .map(|i| if i % 2 == 0 { i } else { u64::MAX >> 44 })
                .collect(),
        ),
    ]
}

/// Streams `data` into `summary`, auditing at every checkpoint.
fn drive<S>(mut summary: S, data: &[u64], label: &str)
where
    S: QuantileSummary<u64> + CheckInvariants,
{
    for (i, &x) in data.iter().enumerate() {
        summary.insert(x);
        if (i + 1) % CHECK_EVERY == 0 {
            if let Err(v) = summary.check_invariants() {
                panic!("{label} after {} inserts: {v}", i + 1);
            }
        }
    }
    // Query, then re-audit: queries must not corrupt state either.
    let _ = summary.quantile(0.5);
    let _ = summary.rank_estimate(data[0]);
    if let Err(v) = summary.check_invariants() {
        panic!("{label} after queries: {v}");
    }
}

#[test]
fn gk_family_holds_invariants_on_all_streams() {
    for (name, data) in streams() {
        drive(GkTheory::new(EPS), &data, &format!("GKTheory/{name}"));
        drive(GkArray::new(EPS), &data, &format!("GKArray/{name}"));
        drive(GkAdaptive::new(EPS), &data, &format!("GKAdaptive/{name}"));
    }
}

#[test]
fn sampling_family_holds_invariants_on_all_streams() {
    for (name, data) in streams() {
        drive(RandomSketch::new(EPS, 42), &data, &format!("Random/{name}"));
        drive(Mrl99::new(EPS, 43), &data, &format!("MRL99/{name}"));
        drive(Mrl98::new(EPS, N as u64), &data, &format!("MRL98/{name}"));
        drive(
            ReservoirQuantiles::new(EPS, 44),
            &data,
            &format!("Reservoir/{name}"),
        );
    }
}

#[test]
fn qdigest_holds_invariants_on_all_streams() {
    for (name, data) in streams() {
        drive(QDigest::new(EPS, 20), &data, &format!("QDigest/{name}"));
    }
}

#[test]
fn extension_summaries_hold_invariants_on_all_streams() {
    for (name, data) in streams() {
        drive(Ckms::low_biased(EPS), &data, &format!("CKMS-low/{name}"));
        drive(Ckms::high_biased(EPS), &data, &format!("CKMS-high/{name}"));
        drive(
            Ckms::targeted(&[(0.5, 0.02), (0.99, 0.005)]),
            &data,
            &format!("CKMS-targeted/{name}"),
        );
    }
}

/// The turnstile adapter on the insert-only interface: the DCS / DCM
/// structures behind [`TurnstileSummary`] ride the cash-register
/// engine, so they must survive the same stream matrix as the native
/// cash-register summaries.
#[test]
fn turnstile_summaries_hold_invariants_on_all_streams() {
    for (name, data) in streams() {
        drive(
            TurnstileSummary::dcs(EPS, 20, 45),
            &data,
            &format!("TurnstileDCS/{name}"),
        );
        drive(
            TurnstileSummary::dcm(EPS, 20, 46),
            &data,
            &format!("TurnstileDCM/{name}"),
        );
    }
}

/// The engine pass: every stream of the matrix, raced into a sharded
/// engine by four writers between prime-strided checkpoints. Which
/// shard a batch lands in is the round-robin router's choice and
/// depends on the schedule; the engine's own invariants (mass
/// conservation, cache coherence) must hold for
/// any of them once the writers have joined, and each post-merge
/// snapshot is audited too — a merge tree must hand back a structurally
/// sound summary, not just an accurate one.
fn drive_engine<S, F>(label: &str, make: F)
where
    S: MergeableSummary<u64> + CheckInvariants + Clone + Send + Sync,
    F: Fn(usize) -> S,
{
    for (name, data) in streams() {
        let engine = ShardedEngine::new_with(4, 0, &make);
        let mut fed = 0usize;
        for segment in data.chunks(CHECK_EVERY) {
            std::thread::scope(|scope| {
                for part in segment.chunks(segment.len().div_ceil(4)) {
                    let engine = &engine;
                    scope.spawn(move || {
                        for batch in part.chunks(67) {
                            engine.ingest_batch(batch);
                        }
                    });
                }
            });
            fed += segment.len();
            // The scope joined every writer: nothing is mid-publication,
            // so the whole invariant set is due.
            if let Err(v) = engine.check_invariants() {
                panic!("{label}/{name} after {fed} inserts: {v}");
            }
            assert_eq!(engine.n(), fed as u64, "{label}/{name}: mass at {fed}");
            let snap = engine.snapshot();
            if let Err(v) = snap.check_invariants() {
                panic!("{label}/{name} post-merge snapshot at {fed}: {v}");
            }
            // Exercise the epoch-keyed cache (a second read at the
            // same epoch must hit), then re-audit: the cached
            // summary is engine state now — `engine.cache_coherence`
            // checks it carries exactly the ingested mass.
            let _ = engine.quantile(0.5);
            if let Err(v) = engine.check_invariants() {
                panic!("{label}/{name} after cached query at {fed}: {v}");
            }
        }
        assert_eq!(engine.n(), data.len() as u64, "{label}/{name}: lost mass");
        let mut snap = engine.snapshot();
        if let Err(v) = snap.check_invariants() {
            panic!("{label}/{name} final post-merge snapshot: {v}");
        }
        let _ = snap.quantile(0.5);
        let _ = snap.rank_estimate(data[0]);
        if let Err(v) = snap.check_invariants() {
            panic!("{label}/{name} snapshot after queries: {v}");
        }
    }
}

#[test]
fn engine_holds_invariants_on_all_streams() {
    drive_engine("Engine-Random", |i| RandomSketch::new(EPS, 90 + i as u64));
    drive_engine("Engine-QDigest", |_| QDigest::new(EPS, 20));
    drive_engine("Engine-Reservoir", |i| {
        ReservoirQuantiles::new(EPS, 91 + i as u64)
    });
}

/// Turnstile workloads: random churn plus the §1.2.2 adversary
/// (insert everything, delete all but a few survivors).
fn turnstile_workloads(log_u: u32) -> Vec<(&'static str, Vec<Op>)> {
    let data: Vec<u64> = Uniform::new(log_u, 21).take(8_000).collect();
    let churn = streaming_quantiles::sqs_data::turnstile::random_churn(
        Uniform::new(log_u, 22).take(8_000),
        0.4,
        23,
    );
    let survivors: Vec<usize> = (0..data.len()).step_by(997).collect();
    let adversary =
        streaming_quantiles::sqs_data::turnstile::insert_then_delete_all_but(&data, &survivors);
    vec![("churn", churn), ("adversary", adversary)]
}

/// Applies `ops` to `summary`, auditing at every checkpoint.
fn drive_turnstile<S>(mut summary: S, ops: &[Op], label: &str)
where
    S: TurnstileQuantiles + CheckInvariants,
{
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(x) => summary.insert(x),
            Op::Delete(x) => summary.delete(x),
        }
        if (i + 1) % CHECK_EVERY == 0 {
            if let Err(v) = summary.check_invariants() {
                panic!("{label} after {} ops: {v}", i + 1);
            }
        }
    }
    let _ = summary.quantile(0.5);
    if let Err(v) = summary.check_invariants() {
        panic!("{label} after queries: {v}");
    }
}

#[test]
fn dyadic_structures_hold_invariants_under_churn() {
    const LOG_U: u32 = 12;
    for (name, ops) in turnstile_workloads(LOG_U) {
        drive_turnstile(new_dcm(EPS, LOG_U, 1), &ops, &format!("DCM/{name}"));
        drive_turnstile(new_dcs(EPS, LOG_U, 2), &ops, &format!("DCS/{name}"));
        drive_turnstile(new_dgm(0.1, LOG_U), &ops, &format!("DGM/{name}"));
        drive_turnstile(new_rss(0.1, LOG_U, 3), &ops, &format!("RSS/{name}"));
        drive_turnstile(
            ExactTurnstile::for_log_u(LOG_U),
            &ops,
            &format!("Exact/{name}"),
        );
    }
}
