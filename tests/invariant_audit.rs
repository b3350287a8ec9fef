//! Deterministic audit drivers: seeded sorted / random / skewed /
//! adversarial inputs through the sharded engine and the turnstile
//! structures, verifying the full structural-invariant set
//! ([`CheckInvariants`]) at prime-strided checkpoints, so "odd"
//! mid-stream states (half-filled buffers, pre-compress tuple lists)
//! are covered as well as the power-of-two ones the hot paths audit.
//!
//! The same audit on each summary by itself is check 6 of
//! `tests/contract/mod.rs` (run by `tests/conformance.rs`); the first
//! tests here call it family by family under their earlier names.

mod contract;

use contract::streams;
use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_data::synthetic::Uniform;
use streaming_quantiles::sqs_data::turnstile::Op;
use streaming_quantiles::sqs_turnstile::{new_dgm, ExactTurnstile};

const N: usize = 30_000;
const EPS: f64 = 0.05;
/// Prime checkpoint stride — never aligns with the power-of-two
/// hot-path audit schedule.
const CHECK_EVERY: usize = 1_871;

#[test]
fn gk_family_holds_invariants_on_all_streams() {
    contract::audits_hold(&contract::gk_theory());
    contract::audits_hold(&contract::gk_array());
    contract::audits_hold(&contract::gk_adaptive());
}

#[test]
fn sampling_family_holds_invariants_on_all_streams() {
    contract::audits_hold(&contract::random());
    contract::audits_hold(&contract::mrl99());
    contract::audits_hold(&contract::mrl98());
    contract::audits_hold(&contract::reservoir());
}

#[test]
fn qdigest_holds_invariants_on_all_streams() {
    contract::audits_hold(&contract::qdigest());
}

#[test]
fn extension_summaries_hold_invariants_on_all_streams() {
    contract::ckms().iter().for_each(contract::audits_hold);
}

/// The DCS / DCM structures ride the cash-register engine on the one
/// summary interface, so they must survive the same stream matrix as
/// the native cash-register summaries.
#[test]
fn turnstile_summaries_hold_invariants_on_all_streams() {
    contract::audits_hold(&contract::dcs());
    contract::audits_hold(&contract::dcm());
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
    S: MergeableSummary<u64> + Clone + Send + Sync,
    F: Fn(usize) -> S,
{
    for (name, data) in streams(N) {
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
        drive_turnstile(Dcm::dcm(EPS, LOG_U, 1), &ops, &format!("DCM/{name}"));
        drive_turnstile(Dcs::dcs(EPS, LOG_U, 2), &ops, &format!("DCS/{name}"));
        drive_turnstile(new_dgm(0.1, LOG_U), &ops, &format!("DGM/{name}"));
        drive_turnstile(new_rss(0.1, LOG_U, 3), &ops, &format!("RSS/{name}"));
        drive_turnstile(
            ExactTurnstile::for_log_u(LOG_U),
            &ops,
            &format!("Exact/{name}"),
        );
    }
}
