//! Mergeability: §4.2.4 keeps the q-digest relevant as "the only
//! deterministic mergeable summary for quantiles, needed when summaries
//! are merged in an arbitrary fashion".
//!
//! Merge trees of every shape, on every mergeable summary, are check 4
//! of `tests/contract/mod.rs` (run by `tests/conformance.rs`); the first
//! tests here call it on the q-digest under their earlier names.

mod contract;

use contract::Shape;
use streaming_quantiles::prelude::*;
use streaming_quantiles::sqs_data::Uniform;

#[test]
fn balanced_binary_merge_tree() {
    contract::merge_tree(&contract::qdigest(), Shape::Balanced);
}

#[test]
fn skewed_chain_merge() {
    contract::merge_tree(&contract::qdigest(), Shape::Chain);
}

#[test]
fn random_merge_order() {
    contract::merge_tree(&contract::qdigest(), Shape::Random);
}

#[test]
fn merge_with_empty_is_identity() {
    contract::merge_with_empty(&contract::qdigest());
}

#[test]
fn merged_size_stays_bounded() {
    // Merging must not blow up the digest: size stays O(σ) after
    // compression regardless of how many shards went in.
    let mut acc = QDigest::new(0.02, 20);
    for i in 0..20u64 {
        let mut d = QDigest::new(0.02, 20);
        d.insert_batch(&Uniform::new(20, i).take(5_000).collect::<Vec<_>>());
        acc.merge_from(d);
    }
    let bound = 3 * acc.sigma() as usize + 512;
    assert!(acc.node_count() <= bound, "{} > {bound}", acc.node_count());
}

#[test]
#[should_panic(expected = "universe mismatch")]
fn merge_rejects_mismatched_universes() {
    let mut a = QDigest::new(0.1, 10);
    a.merge_from(QDigest::new(0.1, 12));
}
