//! Measurement harness for the quantile study.
//!
//! Implements §4.1.2 of the paper: for each (algorithm × data set × ε)
//! cell, five measurements — the ε parameter, observed **max** error
//! (Kolmogorov–Smirnov divergence), observed **average** error
//! (total-variation-related), maximum **space** over time (4 bytes per
//! word), and amortized per-element **update time** — averaged over
//! trials for randomized algorithms.
//!
//! [`experiments`] contains one module per figure/table of the
//! evaluation section; the `sqs-exp` binary regenerates any of them
//! from the command line (see DESIGN.md §2 for the index, and
//! EXPERIMENTS.md for paper-vs-measured records).

#![warn(missing_docs)]

pub mod experiments;
pub mod plot;
pub mod report;
pub mod runner;

pub use report::Table;
pub use runner::{CashAlgo, CashCell, TurnstileAlgo, TurnstileCell};
