//! The served-summary contract (`tests/contract/mod.rs`: state
//! identity, decode-and-continue, corruption refusal, merge trees,
//! config mismatches, invariant audits, φ-sweeps) on every summary, each
//! running the checks its traits admit.
//!
//! The served kinds run all of it from one exhaustive `match` on
//! [`Kind`]: a kind added to the wire without a row here does not
//! compile, and a mergeable type without a `CheckInvariants` impl does
//! not compile anywhere (`MergeableSummary` requires it).

mod contract;

use contract::Spec;
use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_core::codec::Kind;

/// The whole contract for one served kind.
fn served(kind: Kind) {
    match kind {
        Kind::Random => contract::run(&contract::random()),
        Kind::QDigest => contract::run(&contract::qdigest()),
        Kind::Reservoir => contract::run(&contract::reservoir()),
        Kind::Dcs => contract::run(&contract::dcs()),
    }
}

#[test]
fn every_served_kind_keeps_the_whole_contract() {
    std::thread::scope(|scope| {
        for kind in Kind::ALL {
            scope.spawn(move || served(kind));
        }
    });
}

/// Mergeable but not served: everything but the wire.
#[test]
fn dcm_keeps_the_contract_but_the_codec() {
    let spec = contract::dcm();
    contract::state_identity(&spec);
    contract::merge_trees(&spec);
    contract::mismatches_refused(&spec);
    audits_and_sweeps(&spec);
}

/// Checks 6 and 7, which every summary keeps.
fn audits_and_sweeps<S: QuantileSummary<u64> + CheckInvariants + Clone>(spec: &Spec<S>) {
    contract::audits_hold(spec);
    contract::sweeps_match(spec);
}

/// GKAdaptive's batch path sorts before it inserts, and GK is
/// arrival-order-sensitive, so its state is not the insert loop's
/// (check 1); GKArray's and GKTheory's are.
#[test]
fn gk_family_keeps_what_it_can() {
    let (adaptive, array, theory) = (
        contract::gk_adaptive(),
        contract::gk_array(),
        contract::gk_theory(),
    );
    contract::state_identity(&array);
    contract::state_identity(&theory);
    audits_and_sweeps(&adaptive);
    audits_and_sweeps(&array);
    audits_and_sweeps(&theory);
}

#[test]
fn mrl_and_ckms_keep_state_identity_audits_and_sweeps() {
    let (mrl99, mrl98) = (contract::mrl99(), contract::mrl98());
    contract::state_identity(&mrl99);
    contract::state_identity(&mrl98);
    audits_and_sweeps(&mrl99);
    audits_and_sweeps(&mrl98);
    for spec in contract::ckms() {
        contract::state_identity(&spec);
        audits_and_sweeps(&spec);
    }
}
