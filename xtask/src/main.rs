//! `cargo xtask check` — the workspace's offline quality gate.
//!
//! Three steps, all hermetic (no network, no extra tooling beyond the
//! pinned Rust toolchain):
//!
//! 1. `cargo fmt --all -- --check` — formatting drift fails the build.
//! 2. `cargo clippy` over the first-party packages (derived from the
//!    workspace manifest, shims excluded) with the curated deny-list
//!    below.
//! 3. `cargo xtask analyze` — the `sqs-analyze` static-analysis
//!    engine: a token-level scan of the whole workspace enforcing
//!    panic discipline, the no-unsafe guarantee, lock discipline in
//!    the engine/service layers, the `#[allow]` audit, and the
//!    codec/invariant coverage proofs. Rule catalog and justification
//!    codes are documented in `docs/ANALYSIS.md`.
//!
//! Run it as `cargo xtask check` (alias in `.cargo/config.toml`) or
//! `scripts/check.sh`. Steps run in order and the process exits
//! non-zero on the first failure, printing `file:line:col: RULE:`
//! diagnostics for analyzer findings.
//!
//! `cargo xtask bench-check` is the companion perf gate: it re-runs
//! the `turnstile-perf` experiment at CI scale (`--quick`, release
//! build) and fails if any cell's throughput drops more than
//! `BENCH_CHECK_TOLERANCE` (default 20%) below the checked-in
//! `results/turnstile_perf_baseline.json` (recorded at the same
//! `--quick` scale so the comparison is apples-to-apples), or if a
//! batched hot path — update or query side — loses its speedup over
//! scalar (see `SPEEDUP_FLOORS` and docs/PERF.md).

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Lints denied on every first-party lib/bin target. `-D warnings`
/// promotes the default warning set; the named lints are allow-by-
/// default pedantic/restriction lints we opt into.
const DENY: &[&str] = &[
    "warnings",
    "clippy::cast_possible_truncation",
    "clippy::indexing_slicing",
    "clippy::unwrap_used",
    "clippy::dbg_macro",
    "clippy::todo",
    "clippy::unimplemented",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("check");
    match cmd {
        "check" => check(),
        "analyze" => analyze(),
        "bench-check" => bench_check(),
        other => {
            eprintln!("unknown xtask `{other}`; available: check, analyze, bench-check");
            ExitCode::FAILURE
        }
    }
}

type Step = fn(&Path) -> Result<(), String>;

fn check() -> ExitCode {
    let root = workspace_root();
    let steps: &[(&str, Step)] = &[
        ("fmt", step_fmt),
        ("clippy", step_clippy),
        ("analyze", step_analyze),
    ];
    for (name, step) in steps {
        println!("xtask check: {name} ...");
        match step(&root) {
            Ok(()) => println!("xtask check: {name} ok"),
            Err(msg) => {
                println!("xtask check: {name} FAILED");
                eprintln!("{msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("xtask check: all gates passed");
    ExitCode::SUCCESS
}

/// Throughput floors the perf gate enforces: a fresh run may not fall
/// more than `BENCH_CHECK_TOLERANCE` (default 0.20) below the recorded
/// baseline cell-for-cell, the baseline itself must show a real
/// batched-over-scalar speedup per gated entry, and the fresh run must
/// keep most of it (slack for CI noise and cross-machine variance —
/// the ratio is machine-independent, the absolute items/s are not).
///
/// Rows are `(entry, baseline floor, fresh floor)`, matched against
/// the baseline's speedup entries by exact name. The update entries
/// (`DCM`, `DCS`) reflect the hash-bound ceiling of the bit-identical
/// batched write path (~2.0× DCM, ~1.6× DCS on the reference box; see
/// docs/PERF.md §4 for why the kernels cannot go much further without
/// changing the hash family or leaving safe Rust). The `-rank` entries
/// gate the batched query side, where the exact-prefix collapse plus
/// level-major sketch reads measure ~2.6× (DCM) and ~1.6× (DCS) on
/// the reference box (docs/PERF.md §7); floors sit with enough
/// headroom to catch a real regression rather than noise.
const SPEEDUP_FLOORS: &[(&str, f64, f64)] = &[
    ("DCM", 1.4, 1.2),
    ("DCS", 1.4, 1.2),
    ("DCM-rank", 2.0, 1.7),
    ("DCS-rank", 1.5, 1.3),
];

fn bench_check() -> ExitCode {
    let root = workspace_root();
    match run_bench_check(&root) {
        Ok(()) => {
            println!("xtask bench-check: ok");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            println!("xtask bench-check: FAILED");
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn run_bench_check(root: &Path) -> Result<(), String> {
    let baseline_path = root.join("results").join("turnstile_perf_baseline.json");
    let baseline = read(&baseline_path).map_err(|e| {
        format!(
            "{e}\nno recorded baseline — run `cargo run --release -p sqs-harness \
             --bin sqs-exp -- turnstile-perf --quick --out results` once (the gate \
             compares quick-scale cells, so record the baseline at quick scale) and \
             commit the JSON"
        )
    })?;
    let base_cells = parse_cells(&baseline);
    if base_cells.is_empty() {
        return Err(format!(
            "{}: no cells parsed — regenerate the baseline",
            baseline_path.display()
        ));
    }
    // The committed baseline must itself prove the batched win, on
    // the update path and the query path alike.
    let base_speedups = parse_speedups(&baseline);
    for &(entry, floor, _) in SPEEDUP_FLOORS {
        let Some((_, speedup)) = base_speedups.iter().find(|(a, _)| a == entry) else {
            return Err(format!(
                "baseline has no `{entry}` speedup entry — regenerate the baseline"
            ));
        };
        if *speedup < floor {
            return Err(format!(
                "baseline speedup for {entry} is {speedup:.2}x, below the {floor}x \
                 floor — fix the batched path, then re-baseline"
            ));
        }
    }

    // Fresh CI-scale measurement (release build, same cells).
    let out_dir = root.join("target").join("bench-check");
    let out_str = out_dir.display().to_string();
    run_cargo(
        root,
        &[
            "run",
            "--release",
            "--quiet",
            "--offline",
            "-p",
            "sqs-harness",
            "--bin",
            "sqs-exp",
            "--",
            "turnstile-perf",
            "--quick",
            "--out",
            &out_str,
        ],
    )?;
    let fresh = read(&out_dir.join("turnstile_perf_baseline.json"))?;
    let fresh_cells = parse_cells(&fresh);

    let tolerance: f64 = std::env::var("BENCH_CHECK_TOLERANCE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.20);
    let mut problems = Vec::new();
    for (algo, mode, base_ips) in &base_cells {
        let Some((_, _, fresh_ips)) = fresh_cells.iter().find(|(a, m, _)| a == algo && m == mode)
        else {
            problems.push(format!("{algo}/{mode}: cell missing from the fresh run"));
            continue;
        };
        let delta = 100.0 * (fresh_ips / base_ips - 1.0);
        println!(
            "xtask bench-check: {algo}/{mode}: {fresh_ips:.0} items/s \
             (baseline {base_ips:.0}, {delta:+.1}%)"
        );
        if *fresh_ips < base_ips * (1.0 - tolerance) {
            problems.push(format!(
                "{algo}/{mode}: {fresh_ips:.0} items/s is more than {:.0}% below the \
                 baseline {base_ips:.0} (set BENCH_CHECK_TOLERANCE to widen, or \
                 re-baseline after an intentional change)",
                tolerance * 100.0
            ));
        }
    }
    for (algo, speedup) in parse_speedups(&fresh) {
        println!("xtask bench-check: {algo}: batched/scalar speedup {speedup:.2}x");
        let gated = SPEEDUP_FLOORS.iter().find(|(entry, _, _)| *entry == algo);
        if let Some(&(_, _, fresh_floor)) = gated {
            if speedup < fresh_floor {
                problems.push(format!(
                    "{algo}: fresh batched/scalar speedup {speedup:.2}x fell below the \
                     {fresh_floor}x floor — the batched hot path regressed"
                ));
            }
        }
    }

    if problems.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "throughput regressions:\n  {}",
            problems.join("\n  ")
        ))
    }
}

/// Extracts `(algo, mode, items_per_s)` from the one-cell-per-line
/// JSON the harness writes (hand-rolled on both ends — no serde in the
/// offline workspace).
fn parse_cells(json: &str) -> Vec<(String, String, f64)> {
    json.lines()
        .filter_map(|line| {
            Some((
                json_str_field(line, "algo")?,
                json_str_field(line, "mode")?,
                json_num_field(line, "items_per_s")?,
            ))
        })
        .collect()
}

/// Extracts `(algo, speedup)` rows from the baseline JSON.
fn parse_speedups(json: &str) -> Vec<(String, f64)> {
    json.lines()
        .filter_map(|line| {
            Some((
                json_str_field(line, "algo")?,
                json_num_field(line, "speedup")?,
            ))
        })
        .collect()
}

fn json_str_field(line: &str, key: &str) -> Option<String> {
    let tag = format!("\"{key}\": \"");
    let rest = line.get(line.find(&tag)? + tag.len()..)?;
    rest.get(..rest.find('"')?).map(str::to_string)
}

fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\": ");
    let rest = line.get(line.find(&tag)? + tag.len()..)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest.get(..end)?.trim().parse().ok()
}

/// The workspace root: this binary lives in `<root>/xtask`.
fn workspace_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .expect("xtask invariant: cargo sets CARGO_MANIFEST_DIR");
    Path::new(&manifest)
        .parent()
        .expect("xtask invariant: xtask sits one level below the workspace root")
        .to_path_buf()
}

fn run_cargo(root: &Path, args: &[&str]) -> Result<(), String> {
    let status = Command::new(env_cargo())
        .current_dir(root)
        .args(args)
        .status()
        .map_err(|e| format!("failed to spawn cargo: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("`cargo {}` failed", args.join(" ")))
    }
}

fn env_cargo() -> String {
    std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string())
}

fn step_fmt(root: &Path) -> Result<(), String> {
    run_cargo(root, &["fmt", "--all", "--", "--check"])
}

/// Clippy over every first-party package. The package list is derived
/// from the workspace manifest's `members` globs (shims excluded), so
/// a newly added crate is gated from its first commit without editing
/// a hand-maintained list.
fn step_clippy(root: &Path) -> Result<(), String> {
    let first_party: Vec<String> = sqs_analyze::workspace::workspace_members(root)?
        .into_iter()
        .filter(|m| !m.is_shim)
        .map(|m| m.name)
        .collect();
    let mut args: Vec<&str> = vec!["clippy", "--offline"];
    for p in &first_party {
        args.push("-p");
        args.push(p);
    }
    args.extend(["--lib", "--bins", "--quiet", "--"]);
    let denies: Vec<String> = DENY.iter().map(|l| format!("-D{l}")).collect();
    args.extend(denies.iter().map(String::as_str));
    run_cargo(root, &args)
}

/// The `analyze` step of `cargo xtask check`: runs the `sqs-analyze`
/// pass roster in-process and reports findings as
/// `file:line:col: RULE: message` lines.
fn step_analyze(root: &Path) -> Result<(), String> {
    let diags = sqs_analyze::analyze_workspace(root)?;
    if diags.is_empty() {
        return Ok(());
    }
    let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
    Err(format!(
        "{} finding(s):\n  {}\nrule catalog: docs/ANALYSIS.md; false positives are silenced \
         at the site with `// analyze:allow(SQS-XXX): reason`",
        diags.len(),
        rendered.join("\n  ")
    ))
}

/// `cargo xtask analyze` — the standalone entry point: prints the pass
/// roster and every finding, exits non-zero if any.
fn analyze() -> ExitCode {
    let root = workspace_root();
    for pass in sqs_analyze::default_passes() {
        println!("xtask analyze: {:<20} {}", pass.name(), pass.description());
    }
    match step_analyze(&root) {
        Ok(()) => {
            println!("xtask analyze: no findings");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}
