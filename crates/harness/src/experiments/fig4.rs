//! Figure 4: the value distribution of the MPCAT-OBS stream — here, a
//! sanity histogram of the surrogate, to be compared by eye against
//! the paper's figure (non-uniform, with pronounced bumps).

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "indices and casts are bounded by the grids and rows this module builds itself"
)]

use super::ExpConfig;
use crate::report::Table;
use sqs_data::mpcat::{Mpcat, MPCAT_UNIVERSE};

/// Histogram bins (the paper plots right ascension in hours; we bin at
/// half-hour resolution).
const BINS: usize = 48;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let mut hist = vec![0u64; BINS];
    for v in Mpcat::new(cfg.seed).take(cfg.n) {
        hist[(v as u128 * BINS as u128 / MPCAT_UNIVERSE as u128) as usize] += 1;
    }
    let mut t = Table::new(
        "fig4",
        "MPCAT-OBS surrogate value distribution (cf. paper Fig. 4)",
        &["bin_start_hours", "count", "fraction", "bar"],
    );
    let max = *hist
        .iter()
        .max()
        .expect("harness invariant: histogram nonempty");
    for (i, &c) in hist.iter().enumerate() {
        let frac = c as f64 / cfg.n as f64;
        let bar = "#".repeat((c * 40 / max.max(1)) as usize);
        t.push_row(vec![
            format!("{:.1}", i as f64 * 24.0 / BINS as f64),
            c.to_string(),
            format!("{frac:.4}"),
            bar,
        ]);
    }
    vec![t]
}
