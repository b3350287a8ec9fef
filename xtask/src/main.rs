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
        other => {
            eprintln!("unknown xtask `{other}`; available: check, analyze");
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
