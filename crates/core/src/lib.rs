//! Cash-register streaming quantile summaries.
//!
//! This crate implements every cash-register algorithm evaluated in
//! *“Quantiles over Data Streams: An Experimental Study”* (§2 of the
//! journal version), plus the baselines the paper compares against:
//!
//! | Type | Paper name | Guarantee | Model |
//! |---|---|---|---|
//! | [`gk::GkTheory`] | GKTheory | deterministic, O((1/ε)·log εn) space | comparison |
//! | [`gk::GkAdaptive`] | GKAdaptive | deterministic, heuristic space | comparison |
//! | [`gk::GkArray`] | GKArray | deterministic, heuristic space, batched | comparison |
//! | [`random::RandomSketch`] | Random | randomized, O((1/ε)·log^1.5(1/ε)) | comparison |
//! | [`mrl99::Mrl99`] | MRL99 | randomized, O((1/ε)·log²(1/ε)) | comparison |
//! | [`mrl98::Mrl98`] | MRL(98) | deterministic, needs n hint | comparison |
//! | [`qdigest::QDigest`] | FastQDigest | deterministic, O((1/ε)·log u), mergeable | fixed universe |
//! | [`sampled::ReservoirQuantiles`] | sampling baseline | randomized, O(1/ε²·log(1/ε)) | comparison |
//! | [`biased::Ckms`] | (extension, [10]) | deterministic biased/targeted quantiles | comparison |
//!
//! `Random`, `MRL99` and `MRL(98)` are one compactor hierarchy over the
//! buffer pool of [`buffers`], each keeping its own collapse rule; the
//! first two are the two settings of one type, [`random::Sampled`].
//!
//! All comparison-model summaries are generic over `T: Ord + Copy`;
//! the q-digest works over `u64` keys in a power-of-two universe (use
//! [`sqs_util::ordkey`] to map floats/signed integers in).
//!
//! Every summary implements [`QuantileSummary`] (streaming insert +
//! rank/quantile queries) and [`sqs_util::SpaceUsage`] (the paper's
//! 4-bytes-per-word accounting). The mergeable summaries (`Random`,
//! `FastQDigest`, the reservoir baseline) additionally implement
//! [`codec::WireCodec`] — a versioned, checksummed byte form so they
//! can be shipped across process boundaries and merged remotely
//! (`sqs-service`).

#![warn(missing_docs)]

pub mod biased;
pub mod buffers;
pub mod codec;
pub mod gk;
pub mod mrl98;
pub mod mrl99;
pub mod qdigest;
pub mod random;
pub mod sampled;
mod traits;

pub use traits::{MergeableSummary, QuantileSummary};
