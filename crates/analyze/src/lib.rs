//! `sqs-analyze` — the workspace's in-repo static-analysis engine.
//!
//! `cargo xtask check` used to enforce the repo's source discipline
//! (no `.unwrap()`, `forbid(unsafe_code)` everywhere, the pedantic
//! allowlist) with line-oriented greps. Greps cannot tell a call from
//! a comment. This crate replaces them with a real, dependency-free
//! analysis pipeline:
//!
//! * [`lexer`] — a lossless Rust token scanner (raw strings, nested
//!   block comments, char-vs-lifetime, structural `#[cfg(test)]`
//!   regions);
//! * [`workspace`] — member discovery from the root manifest's
//!   `members` globs and pre-lexed file loading;
//! * [`passes`] — the [`passes::Pass`] framework and the production
//!   rules: panic discipline (`SQS-P*`), the no-unsafe guarantee
//!   (`SQS-U*`), lock discipline (`SQS-L*`) and the allow audit
//!   (`SQS-A*`);
//! * [`diag`] — `file:line:col` diagnostics plus per-site
//!   justification codes (`// analyze:allow(SQS-XXX): reason`), where
//!   malformed or unused justifications are findings too (`SQS-J*`).
//!
//! The rule catalog lives in `docs/ANALYSIS.md`. Run the analyzer as
//! `cargo xtask analyze` (or as the `analyze` step of `cargo xtask
//! check`).

#![forbid(unsafe_code)]

pub mod diag;
pub mod lexer;
pub mod passes;
pub mod workspace;

use std::path::Path;

pub use diag::Diagnostic;
pub use passes::{default_passes, Pass};
pub use workspace::{AnalysisInput, SourceFile};

/// Runs a pass roster over `input`, applies the per-file justification
/// comments, and returns the surviving findings sorted by
/// file/line/col/rule. Fixture tests use this with custom rosters;
/// production callers use [`run`].
pub fn run_passes(roster: &[Box<dyn Pass>], input: &AnalysisInput) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for pass in roster {
        pass.run(input, &mut diags);
    }
    for file in &input.files {
        diag::apply_justifications(&file.rel_path, &file.text, &file.tokens, &mut diags);
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    diags
}

/// Runs the production roster ([`default_passes`]) over `input`.
#[must_use]
pub fn run(input: &AnalysisInput) -> Vec<Diagnostic> {
    run_passes(&default_passes(), input)
}

/// Loads the workspace rooted at `root` and analyzes it with the
/// production roster. This is what `cargo xtask analyze` calls.
pub fn analyze_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    Ok(run(&workspace::load_workspace(root)?))
}
