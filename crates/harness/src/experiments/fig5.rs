//! Figure 5: the headline cash-register comparison on MPCAT-OBS —
//! ε vs observed errors (5a/5b), error–space tradeoffs (5c/5d),
//! error–time (5e) and space–time (5f).
//!
//! Paper findings to reproduce: deterministic algorithms never exceed
//! ε and average ¼ε–⅔ε; the randomized two are far below ε; MRL99 and
//! Random are the best on space with GK variants close; FastQDigest is
//! the largest; GKAdaptive hits a speed cliff once its structures
//! outgrow cache, which GKArray/Random/MRL99 avoid. (The paper's
//! pointer-based FastQDigest hits it too; our array-based one does not
//! — the deviation recorded in EXPERIMENTS.md.)

use super::ExpConfig;
use crate::report::{fkb, fnum, Table};
use crate::runner::{run_cash_cell, CashAlgo, Cell};
use sqs_data::mpcat::{Mpcat, MPCAT_LOG_U};

/// Algorithms in Figure 5's legend, plus GKTheory (§1.2.1: "we have
/// also implemented GKTheory, and found out that it does not perform
/// as well as GKAdaptive" — reproduced here).
fn algos() -> Vec<CashAlgo> {
    let mut v = vec![CashAlgo::GkTheory];
    v.extend(CashAlgo::HEADLINE);
    v
}

/// Runs all cells and derives the six panels.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let data: Vec<u64> = Mpcat::new(cfg.seed).take(cfg.n).collect();
    let mut cells: Vec<Cell> = Vec::new();
    for algo in algos() {
        for &eps in &cfg.eps_sweep() {
            cells.push(run_cash_cell(
                algo,
                &data,
                eps,
                MPCAT_LOG_U,
                cfg.trials,
                cfg.seed ^ 0xF165,
            ));
        }
    }
    panels(&cells, "fig5", "MPCAT-OBS surrogate")
}

/// One column of a panel: the `Cell` field it shows.
#[derive(Debug, Clone, Copy)]
pub enum Col {
    /// The ε parameter.
    Eps,
    /// Observed maximum error.
    MaxErr,
    /// Observed average error.
    AvgErr,
    /// Maximum space, KB.
    Space,
    /// Update time, ns per element.
    UpdateNs,
}

impl Col {
    fn header(self) -> &'static str {
        match self {
            Col::Eps => "eps",
            Col::MaxErr => "max_err",
            Col::AvgErr => "avg_err",
            Col::Space => "space_kb",
            Col::UpdateNs => "update_ns",
        }
    }

    fn value(self, cell: &Cell) -> String {
        match self {
            Col::Eps => fnum(cell.eps),
            Col::MaxErr => fnum(cell.max_err),
            Col::AvgErr => fnum(cell.avg_err),
            Col::Space => fkb(cell.space_bytes),
            Col::UpdateNs => fnum(cell.update_ns),
        }
    }
}

/// One panel: its title and the two columns it plots, per algorithm.
pub type Panel = (&'static str, Col, Col);

/// ε vs observed max error.
pub const EPS_MAX: Panel = ("eps vs observed max error", Col::Eps, Col::MaxErr);
/// ε vs observed average error.
pub const EPS_AVG: Panel = ("eps vs observed avg error", Col::Eps, Col::AvgErr);
/// Space vs max error.
pub const SPACE_MAX: Panel = ("space vs max error", Col::Space, Col::MaxErr);
/// Space vs average error.
pub const SPACE_AVG: Panel = ("space vs avg error", Col::Space, Col::AvgErr);
/// Update time vs average error.
pub const TIME_AVG: Panel = ("update time vs avg error", Col::UpdateNs, Col::AvgErr);
/// Space vs update time.
pub const SPACE_TIME: Panel = ("space vs update time", Col::Space, Col::UpdateNs);

/// Renders the standard six-panel set from a batch of cells (shared
/// with Figure 8's per-order runs).
pub fn panels(cells: &[Cell], prefix: &str, dataset: &str) -> Vec<Table> {
    panels_of(
        &[EPS_MAX, EPS_AVG, SPACE_MAX, SPACE_AVG, TIME_AVG, SPACE_TIME],
        cells,
        prefix,
        dataset,
    )
}

/// Renders `which` from a batch of cells, as tables `<prefix>a`,
/// `<prefix>b`, … in order.
pub fn panels_of(which: &[Panel], cells: &[Cell], prefix: &str, dataset: &str) -> Vec<Table> {
    which
        .iter()
        .zip('a'..)
        .map(|(&(title, x, y), suffix)| {
            let mut t = Table::new(
                &format!("{prefix}{suffix}"),
                &format!("{title} ({dataset})"),
                &["algo", x.header(), y.header()],
            );
            for cell in cells {
                t.push_row(vec![cell.algo.to_string(), x.value(cell), y.value(cell)]);
            }
            t
        })
        .collect()
}
