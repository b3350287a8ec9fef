//! Tables 3 & 4: tuning the Count-Sketch depth `d` for DCS — average
//! (Table 3) and maximum (Table 4) error across per-level sketch sizes
//! from 64 KB to 4096 KB, on uniform data over u = 2^32 (§4.3.1).
//!
//! Paper finding: `d = 7` is the sweet spot for both metrics (max
//! error prefers slightly deeper), which the paper then fixes for all
//! turnstile experiments. Errors are reported ×10⁻⁴ as in the paper.
//!
//! "Sketch size" is interpreted as the size of one level's `w × d`
//! counter array (4 bytes per counter), the natural unit the tuning
//! trades `w` against `d` within.

use super::ExpConfig;
use crate::report::Table;
use crate::runner::measure;
use sqs_core::QuantileSummary;
use sqs_data::Uniform;
use sqs_turnstile::dcs;
use sqs_util::rng::SplitMix64;

const DEPTHS: [usize; 6] = [3, 5, 7, 9, 11, 13];
const SIZES_KB: [usize; 7] = [64, 128, 256, 512, 1024, 2048, 4096];
const LOG_U: u32 = 32;
/// The ε the error probe grid uses (the sketch geometry is set by
/// (size, d) directly, so ε only sets the φ grid density).
const PROBE_EPS: f64 = 0.01;

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    // The full grid is 42 cells × trials at up to d=13 × 32 levels of
    // counter updates per insert; cap n so the sweep stays in minutes.
    let n = cfg.n.min(300_000);
    let data: Vec<u64> = Uniform::new(LOG_U, cfg.seed).take(n).collect();

    let headers: Vec<String> = std::iter::once("d".to_string())
        .chain(SIZES_KB.iter().map(|kb| format!("{kb}KB")))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t3 = Table::new(
        "tab3",
        "DCS avg error (x1e-4) by depth d and per-level sketch size",
        &headers_ref,
    );
    let mut t4 = Table::new(
        "tab4",
        "DCS max error (x1e-4) by depth d and per-level sketch size",
        &headers_ref,
    );

    let mut seeds = SplitMix64::new(cfg.seed ^ 0x7AB34);
    for d in DEPTHS {
        let mut row3 = vec![d.to_string()];
        let mut row4 = vec![d.to_string()];
        for kb in SIZES_KB {
            let width = (kb * 1024 / 4) / d;
            let cell = measure(
                "DCS",
                &data,
                PROBE_EPS,
                cfg.trials,
                &mut seeds,
                |seed| Box::new(dcs::from_width_depth(width, d, LOG_U, seed)),
                |s| s.quantile_grid(PROBE_EPS),
            );
            row3.push(format!("{:.3}", cell.avg_err * 1e4));
            row4.push(format!("{:.3}", cell.max_err * 1e4));
        }
        t3.push_row(row3);
        t4.push_row(row4);
    }
    vec![t3, t4]
}
