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
use crate::runner::{run_cash_cell, CashAlgo, CashCell};
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
    let mut cells: Vec<CashCell> = Vec::new();
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

/// Renders the standard six-panel set from a batch of cells (shared
/// with Figure 8's per-order runs).
pub fn panels(cells: &[CashCell], prefix: &str, dataset: &str) -> Vec<Table> {
    let mk = |suffix: &str, title: &str, headers: &[&str]| {
        Table::new(
            &format!("{prefix}{suffix}"),
            &format!("{title} ({dataset})"),
            headers,
        )
    };
    let mut a = mk(
        "a",
        "eps vs observed max error",
        &["algo", "eps", "max_err"],
    );
    let mut b = mk(
        "b",
        "eps vs observed avg error",
        &["algo", "eps", "avg_err"],
    );
    let mut c = mk("c", "space vs max error", &["algo", "space_kb", "max_err"]);
    let mut d = mk("d", "space vs avg error", &["algo", "space_kb", "avg_err"]);
    let mut e = mk(
        "e",
        "update time vs avg error",
        &["algo", "update_ns", "avg_err"],
    );
    let mut f = mk(
        "f",
        "space vs update time",
        &["algo", "space_kb", "update_ns"],
    );
    for cell in cells {
        let algo = cell.algo.to_string();
        a.push_row(vec![algo.clone(), fnum(cell.eps), fnum(cell.max_err)]);
        b.push_row(vec![algo.clone(), fnum(cell.eps), fnum(cell.avg_err)]);
        c.push_row(vec![
            algo.clone(),
            fkb(cell.space_bytes),
            fnum(cell.max_err),
        ]);
        d.push_row(vec![
            algo.clone(),
            fkb(cell.space_bytes),
            fnum(cell.avg_err),
        ]);
        e.push_row(vec![algo.clone(), fnum(cell.update_ns), fnum(cell.avg_err)]);
        f.push_row(vec![algo, fkb(cell.space_bytes), fnum(cell.update_ns)]);
    }
    vec![a, b, c, d, e, f]
}
