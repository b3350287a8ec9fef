//! `sqs-analyze` — the workspace's in-repo static-analysis engine.
//!
//! It checks the source rules rustc and clippy cannot state — an
//! `.expect()` names the invariant it relies on, and no lock is taken
//! or I/O done under a live guard — over real tokens, since a grep
//! cannot tell a call from a comment. The pipeline is dependency-free:
//!
//! * [`lexer`] — a lossless Rust token scanner (raw strings, nested
//!   block comments, char-vs-lifetime, structural `#[cfg(test)]`
//!   regions);
//! * [`workspace`] — member discovery from the root manifest's
//!   `members` globs and pre-lexed file loading;
//! * [`passes`] — the [`passes::Pass`] framework and the production
//!   rules: panic discipline (`SQS-P02`) and lock discipline
//!   (`SQS-L01`, `SQS-L03`);
//! * [`diag`] — `file:line:col` diagnostics plus per-site
//!   justification codes (`// analyze:allow(SQS-XXX): reason`), where
//!   malformed or unused justifications are findings too (`SQS-J*`).
//!
//! The rule catalog lives in `docs/ANALYSIS.md`. Run the analyzer as
//! `cargo xtask analyze` (or as the `analyze` step of `cargo xtask
//! check`).

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
