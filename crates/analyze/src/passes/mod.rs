//! The pass framework: a [`Pass`] trait, the production roster, and
//! the shared token-scanning helpers passes build on.
//!
//! Passes are deliberately dumb: each one scans the pre-lexed token
//! streams in [`AnalysisInput`] and appends [`Diagnostic`]s. There is
//! no AST — the rules this repo needs (invariant-naming `expect`s, lock
//! discipline) are expressible over tokens plus [`Code`]'s
//! comment-free view, and staying at token level keeps the analyzer
//! dependency-free and fast enough to run on every `cargo xtask check`.
//! A rule rustc or clippy can state belongs there instead
//! (`docs/ANALYSIS.md` §4.1 lists the rules that moved).

pub mod lock;
pub mod panic;

use crate::diag::Diagnostic;
use crate::lexer::{Token, TokenKind};
use crate::workspace::{AnalysisInput, SourceFile};

/// One analysis pass over the whole workspace.
pub trait Pass {
    /// Short stable name (`"panic-discipline"`), used in reports.
    fn name(&self) -> &'static str;
    /// One-line description of what the pass proves.
    fn description(&self) -> &'static str;
    /// Scans `input` and appends findings to `diags`.
    fn run(&self, input: &AnalysisInput, diags: &mut Vec<Diagnostic>);
}

/// The production roster, in report order. Fixture tests build custom
/// rosters instead.
#[must_use]
pub fn default_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(panic::PanicDiscipline),
        Box::new(lock::LockDiscipline),
    ]
}

/// A comment-free, bounds-checked view over one file's token stream —
/// the scanning surface the passes share. Indices into a `Code` are
/// *code indices* (comments skipped); out-of-range access yields
/// `None`/`""` rather than panicking, so passes can look ahead freely.
pub struct Code<'a> {
    file: &'a SourceFile,
    idx: Vec<usize>,
}

impl<'a> Code<'a> {
    /// Builds the view for `file`.
    #[must_use]
    pub fn new(file: &'a SourceFile) -> Self {
        let idx = file
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        Self { file, idx }
    }

    /// Number of code (non-comment) tokens.
    #[must_use]
    pub fn len(&self) -> usize {
        self.idx.len()
    }

    /// Whether the file has no code tokens at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// The token at code index `ci`, if in range.
    #[must_use]
    pub fn tok(&self, ci: usize) -> Option<&'a Token> {
        self.idx.get(ci).and_then(|&i| self.file.tokens.get(i))
    }

    /// The token's text at code index `ci` (empty when out of range).
    #[must_use]
    pub fn text(&self, ci: usize) -> &'a str {
        self.tok(ci).map_or("", |t| t.text(&self.file.text))
    }

    /// The token's kind at code index `ci`.
    #[must_use]
    pub fn kind(&self, ci: usize) -> Option<TokenKind> {
        self.tok(ci).map(|t| t.kind)
    }

    /// Whether the token at code index `ci` is inside a test-only
    /// region (`#[test]`, `#[cfg(test)]`, …).
    #[must_use]
    pub fn is_test(&self, ci: usize) -> bool {
        self.idx
            .get(ci)
            .and_then(|&i| self.file.test_mask.get(i))
            .copied()
            .unwrap_or(false)
    }

    /// Builds a diagnostic anchored at code index `ci` (clamped to the
    /// last token when out of range; line 1 on an empty file).
    #[must_use]
    pub fn diag(&self, rule: &'static str, ci: usize, message: String) -> Diagnostic {
        let anchor = self
            .tok(ci)
            .or_else(|| self.len().checked_sub(1).and_then(|last| self.tok(last)));
        match anchor {
            Some(t) => Diagnostic::at(rule, &self.file.rel_path, t, message),
            None => Diagnostic {
                rule,
                file: self.file.rel_path.clone(),
                line: 1,
                col: 1,
                message,
            },
        }
    }
}
