//! `sqs-exp` — regenerate any table or figure of the paper's
//! evaluation section.
//!
//! ```text
//! sqs-exp <experiment|all> [--n N] [--trials T] [--seed S]
//!         [--out DIR] [--max-stream-len N]
//! ```
//!
//! Experiments: fig4 fig5 fig6 fig7 fig8 tab34 fig9 fig10 fig11 fig12
//! xcompare ablation claims (see DESIGN.md §2 for what each
//! reproduces). `claims` exits non-zero unless every verdict is PASS.
//! `sqs-exp plot <figure>` renders a previously-written CSV as an
//! ASCII chart.
//! Defaults are laptop-scale; raise `--n`/`--trials` toward paper
//! scale (n = 10⁷–10¹⁰, 100 trials) as time permits.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Instant;

use sqs_harness::experiments::{self, ExpConfig, ALL_EXPERIMENTS};

fn usage() -> String {
    format!(
        "usage: sqs-exp <experiment|all> [--n N] [--trials T] [--seed S] [--out DIR] [--max-stream-len N]\n\
         experiments: {} all",
        ALL_EXPERIMENTS.join(" ")
    )
}

fn parse_args() -> Result<(Vec<String>, ExpConfig), String> {
    let mut cfg = ExpConfig::default();
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--n" => {
                cfg.n = args
                    .next()
                    .ok_or("--n needs a value")?
                    .parse()
                    .map_err(|e| format!("--n: {e}"))?;
            }
            "--trials" => {
                cfg.trials = args
                    .next()
                    .ok_or("--trials needs a value")?
                    .parse()
                    .map_err(|e| format!("--trials: {e}"))?;
            }
            "--seed" => {
                cfg.seed = args
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => {
                cfg.out_dir = args.next().ok_or("--out needs a value")?.into();
            }
            "--max-stream-len" => {
                cfg.max_stream_len = args
                    .next()
                    .ok_or("--max-stream-len needs a value")?
                    .parse()
                    .map_err(|e| format!("--max-stream-len: {e}"))?;
            }
            "--help" | "-h" => return Err(usage()),
            id if !id.starts_with('-') => ids.push(id.to_string()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if ids.is_empty() {
        return Err(usage());
    }
    if ids.iter().any(|i| i == "all") {
        ids = ALL_EXPERIMENTS.iter().map(|s| s.to_string()).collect();
    }
    for id in &ids {
        if !ALL_EXPERIMENTS.contains(&id.as_str()) {
            return Err(format!("unknown experiment {id}\n{}", usage()));
        }
    }
    Ok((ids, cfg))
}

fn main() -> ExitCode {
    // Plot mode: `sqs-exp plot <figure> [--out DIR]`.
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some("plot") {
        let Some(fig) = argv.get(2) else {
            eprintln!("usage: sqs-exp plot <figure> [--out DIR]");
            return ExitCode::FAILURE;
        };
        let dir = argv
            .iter()
            .position(|a| a == "--out")
            .and_then(|i| argv.get(i + 1))
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| "results".into());
        return match sqs_harness::plot::plot_by_id(&dir, fig, 100, 28) {
            Ok(rendered) => {
                println!("{rendered}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }

    let (ids, cfg) = match parse_args() {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# streaming-quantiles experiment runner — n={}, trials={}, seed={}, out={}",
        cfg.n,
        cfg.trials,
        cfg.seed,
        cfg.out_dir.display()
    );
    for id in &ids {
        let t0 = Instant::now();
        println!("\n### running {id} ...");
        let tables = experiments::run(id, &cfg);
        for table in &tables {
            if let Err(e) = table.emit(&cfg.out_dir) {
                eprintln!("failed writing {}: {e}", table.id);
                return ExitCode::FAILURE;
            }
        }
        println!("### {id} done in {:.1}s", t0.elapsed().as_secs_f64());
        // `claims` is a gate (scripts/check.sh, CI): anything but PASS
        // on every row — a FAIL, or a SKIP for a missing CSV — fails it.
        let open = tables
            .iter()
            .filter(|t| t.id == "claims")
            .flat_map(|t| &t.rows)
            .filter(|row| row.last().map(String::as_str) != Some("PASS"))
            .count();
        if open > 0 {
            eprintln!("claims: {open} verdict(s) not PASS");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
