//! Figure 8: random vs sorted arrival order (uniform values, u = 2^32;
//! §4.2.5's companion comparison).
//!
//! Sorted order is the classic stress for GK-family summaries (every
//! insert lands at the end; removals concentrate); the paper shows the
//! algorithms hold up. We run the full panel set in both orders.

use super::{fig5::panels, ExpConfig};
use crate::report::Table;
use crate::runner::{run_cash_cell, CashAlgo, Cell};
use sqs_data::{Order, Uniform};

/// Runs the experiment.
pub fn run(cfg: &ExpConfig) -> Vec<Table> {
    let base: Vec<u64> = Uniform::new(32, cfg.seed).take(cfg.n).collect();
    let mut out = Vec::new();
    for (tag, order) in [("random", Order::Random), ("sorted", Order::Sorted)] {
        let mut data = base.clone();
        order.apply(&mut data, cfg.seed);
        let mut cells: Vec<Cell> = Vec::new();
        for algo in CashAlgo::HEADLINE {
            for &eps in &cfg.eps_sweep() {
                cells.push(run_cash_cell(
                    algo,
                    &data,
                    eps,
                    32,
                    cfg.trials,
                    cfg.seed ^ 0xF168,
                ));
            }
        }
        out.extend(panels(
            &cells,
            &format!("fig8_{tag}_"),
            &format!("Uniform u=2^32, {tag} order"),
        ));
    }
    out
}
