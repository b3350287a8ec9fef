//! One module per table/figure of the paper's evaluation section
//! (§4; see DESIGN.md §2 for the experiment index).
//!
//! Every experiment is a pure function of an [`ExpConfig`], returns
//! [`Table`]s, and is regenerable from the `sqs-exp` binary. Default
//! sizes are laptop-scale (the paper ran 10⁷–10¹⁰-element streams on
//! a 2013 server for weeks); `--n`, `--trials` and `--scale` let any
//! experiment run at paper scale. Shapes — who wins, by what factor,
//! where crossovers fall — are what the defaults preserve.

use std::path::PathBuf;

use crate::report::Table;

pub mod ablation;
pub mod claims;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod tab34;
pub mod xcompare;

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Base stream length for error-measuring experiments.
    pub n: usize,
    /// Trials for randomized algorithms (paper: 100).
    pub trials: usize,
    /// Output directory for CSVs.
    pub out_dir: PathBuf,
    /// Master seed; every cell derives its own.
    pub seed: u64,
    /// Cap for the Figure 7 stream-length sweep.
    pub max_stream_len: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            n: 1_000_000,
            trials: 5,
            out_dir: PathBuf::from("results"),
            seed: 0x5195_2013,
            max_stream_len: 10_000_000,
        }
    }
}

impl ExpConfig {
    /// The ε sweep used by the error/space/time tradeoff figures,
    /// restricted to values meaningful at the configured `n`
    /// (`ε·n ≥ 50`, so the probe grid and the guarantees make sense).
    pub fn eps_sweep(&self) -> Vec<f64> {
        [
            0.05, 0.02, 0.01, 0.005, 0.002, 0.001, 0.0005, 0.0002, 0.0001,
        ]
        .into_iter()
        .filter(|e| e * self.n as f64 >= 50.0)
        .collect()
    }

    /// A shorter sweep for the expensive turnstile cells.
    pub fn eps_sweep_turnstile(&self) -> Vec<f64> {
        [0.05, 0.02, 0.01, 0.005, 0.002, 0.001]
            .into_iter()
            .filter(|e| e * self.n as f64 >= 50.0)
            .collect()
    }
}

/// Every experiment id, in DESIGN.md order.
pub const ALL_EXPERIMENTS: [&str; 13] = [
    "fig4", "fig5", "fig6", "fig7", "fig8", "tab34", "fig9", "fig10", "fig11", "fig12", "xcompare",
    "ablation", "claims",
];

/// Runs one experiment by id.
///
/// # Panics
/// Panics on an unknown id (the CLI validates first).
pub fn run(id: &str, cfg: &ExpConfig) -> Vec<Table> {
    match id {
        "fig4" => fig4::run(cfg),
        "fig5" => fig5::run(cfg),
        "fig6" => fig6::run(cfg),
        "fig7" => fig7::run(cfg),
        "fig8" => fig8::run(cfg),
        "tab34" => tab34::run(cfg),
        "fig9" => fig9::run(cfg),
        "fig10" => fig10::run(cfg),
        "fig11" => fig11::run(cfg),
        "fig12" => fig12::run(cfg),
        "xcompare" => xcompare::run(cfg),
        "ablation" => ablation::run(cfg),
        "claims" => claims::run(cfg),
        other => panic!("unknown experiment id: {other}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eps_sweep_respects_n() {
        let mut cfg = ExpConfig {
            n: 10_000,
            ..ExpConfig::default()
        };
        assert!(cfg.eps_sweep().iter().all(|&e| e * 10_000.0 >= 50.0));
        cfg.n = 100_000_000;
        assert!(cfg.eps_sweep().contains(&0.0001));
    }

    #[test]
    fn all_ids_dispatch() {
        // Smoke: tiny config, every experiment must run end to end.
        let cfg = ExpConfig {
            n: 20_000,
            trials: 1,
            out_dir: std::env::temp_dir().join("sqs_exp_smoke"),
            seed: 1,
            max_stream_len: 50_000,
        };
        for id in ALL_EXPERIMENTS {
            let tables = run(id, &cfg);
            assert!(!tables.is_empty(), "{id} produced no tables");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{id}/{} has no rows", t.id);
            }
        }
    }
}
