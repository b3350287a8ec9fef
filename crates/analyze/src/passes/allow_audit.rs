//! SQS-A01/SQS-A02/SQS-A03 — the `#[allow(…)]` audit.
//!
//! Silencing a lint is a reviewable decision, so every `allow`
//! attribute in first-party library code must carry an adjacent
//! justification comment (`// ^ audited: …` below the attribute is the
//! house style; any neighboring comment containing `audited:` or
//! `justification:` counts). On top of that, the *module-level*
//! pedantic exemption `#![allow(clippy::cast_possible_truncation,
//! clippy::indexing_slicing)]` is restricted to a curated allowlist of
//! modules whose index arithmetic is bounded by structural invariants
//! (each has a `CheckInvariants` impl enforcing them dynamically) —
//! adding a module means editing the list *and* annotating the file,
//! so the exemption shows up in review twice. Stale allowlist entries
//! are themselves findings, so the list cannot rot.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::passes::{Code, Pass};
use crate::workspace::{AnalysisInput, FileRole};

/// Rule ID: `allow` attribute without a justification comment.
pub const RULE_UNJUSTIFIED_ALLOW: &str = "SQS-A01";
/// Rule ID: module-level pedantic allow not on the curated allowlist.
pub const RULE_UNLISTED_MODULE_ALLOW: &str = "SQS-A02";
/// Rule ID: allowlist entry whose module no longer carries the allow.
pub const RULE_STALE_ALLOWLIST_ENTRY: &str = "SQS-A03";

/// Modules permitted the module-level pedantic allow. Kept here (not
/// in xtask) so the analyzer is the single owner of the policy.
pub const MODULE_ALLOWLIST: &[&str] = &[
    "crates/analyze/src/lexer.rs",
    "crates/core/src/biased.rs",
    "crates/core/src/buffers.rs",
    "crates/core/src/gk/adaptive.rs",
    "crates/core/src/gk/array.rs",
    "crates/core/src/gk/mod.rs",
    "crates/core/src/gk/theory.rs",
    "crates/core/src/mrl98.rs",
    "crates/core/src/qdigest.rs",
    "crates/core/src/random.rs",
    "crates/core/src/sampled.rs",
    "crates/data/src/lidar.rs",
    "crates/data/src/mpcat.rs",
    "crates/data/src/synthetic.rs",
    "crates/data/src/turnstile.rs",
    "crates/harness/src/experiments/claims.rs",
    "crates/harness/src/experiments/fig4.rs",
    "crates/harness/src/experiments/fig9.rs",
    "crates/harness/src/plot.rs",
    "crates/sketch/src/countmin.rs",
    "crates/sketch/src/countsketch.rs",
    "crates/sketch/src/crprecis.rs",
    "crates/sketch/src/exactlevel.rs",
    "crates/sketch/src/subsetsum.rs",
    "crates/turnstile/src/dcm.rs",
    "crates/turnstile/src/dcs.rs",
    "crates/turnstile/src/dgm.rs",
    "crates/turnstile/src/dyadic.rs",
    "crates/turnstile/src/exact.rs",
    "crates/turnstile/src/post.rs",
    "crates/turnstile/src/rss.rs",
    "crates/util/src/exact.rs",
    "crates/util/src/hash.rs",
    "crates/util/src/ordkey.rs",
    "crates/util/src/rng.rs",
];

/// The lints whose module-level allow is allowlist-gated.
const PEDANTIC_LINTS: &[&str] = &["cast_possible_truncation", "indexing_slicing"];

/// The allow-audit pass. See the module docs.
pub struct AllowAudit {
    /// The curated module allowlist (overridable for fixture tests).
    pub allowlist: Vec<String>,
}

impl Default for AllowAudit {
    fn default() -> Self {
        Self {
            allowlist: MODULE_ALLOWLIST.iter().map(|s| (*s).to_string()).collect(),
        }
    }
}

impl Pass for AllowAudit {
    fn name(&self) -> &'static str {
        "allow-audit"
    }

    fn description(&self) -> &'static str {
        "every #[allow] carries a justification; module-level pedantic allows are allowlisted"
    }

    fn run(&self, input: &AnalysisInput, diags: &mut Vec<Diagnostic>) {
        let mut seen_module_allow: Vec<&str> = Vec::new();
        for file in &input.files {
            if file.role != FileRole::Library || file.is_shim {
                continue;
            }
            let code = Code::new(file);
            for ci in 0..code.len() {
                if code.text(ci) != "#" || code.is_test(ci) {
                    continue;
                }
                let inner = code.text(ci + 1) == "!";
                let open = ci + if inner { 2 } else { 1 };
                if code.text(open) != "[" || code.text(open + 1) != "allow" {
                    continue;
                }
                // Collect the lint names inside the attribute.
                let mut close = open;
                let mut depth = 0usize;
                let mut lints: Vec<&str> = Vec::new();
                while close < code.len() {
                    match code.text(close) {
                        "[" => depth += 1,
                        "]" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        t => {
                            if code.kind(close) == Some(TokenKind::Ident) && t != "allow" {
                                lints.push(code.text(close));
                            }
                        }
                    }
                    close += 1;
                }
                if !has_justification(&code, ci, close) {
                    diags.push(
                        code.diag(
                            RULE_UNJUSTIFIED_ALLOW,
                            open + 1,
                            "`#[allow(…)]` without a justification — add an adjacent \
                         `// ^ audited: <why this is sound>` comment"
                                .to_string(),
                        ),
                    );
                }
                if inner && lints.iter().any(|l| PEDANTIC_LINTS.contains(l)) {
                    match self.allowlist.iter().find(|e| **e == file.rel_path) {
                        Some(entry) => seen_module_allow.push(entry),
                        None => diags.push(
                            code.diag(
                                RULE_UNLISTED_MODULE_ALLOW,
                                open + 1,
                                "module-level pedantic allow, but the file is not on the \
                             analyzer's MODULE_ALLOWLIST — add it there too, so the \
                             exemption shows up in review twice"
                                    .to_string(),
                            ),
                        ),
                    }
                }
            }
        }
        for entry in &self.allowlist {
            if !seen_module_allow.iter().any(|s| s == entry) {
                let exists = input.files.iter().any(|f| f.rel_path == *entry);
                diags.push(Diagnostic {
                    rule: RULE_STALE_ALLOWLIST_ENTRY,
                    file: entry.clone(),
                    line: 1,
                    col: 1,
                    message: if exists {
                        "on the MODULE_ALLOWLIST but no longer carries the pedantic \
                         allow — remove the stale entry"
                            .to_string()
                    } else {
                        "on the MODULE_ALLOWLIST but the file does not exist — remove \
                         the stale entry"
                            .to_string()
                    },
                });
            }
        }
    }
}

/// Whether a comment containing `audited:` or `justification:` sits
/// adjacent to the attribute spanning code indices `ci..=close`: on
/// the attribute's first line, the line above it, or the line directly
/// below its last line.
fn has_justification(code: &Code<'_>, ci: usize, close: usize) -> bool {
    let file = code.file();
    let Some(first) = code.tok(ci) else {
        return false;
    };
    let last_line = code.tok(close).map_or(first.line, |t| t.line);
    file.tokens.iter().any(|t| {
        t.is_comment()
            && (t.line + 1 == first.line || t.line == first.line || t.line == last_line + 1)
            && {
                let text = t.text(&file.text);
                text.contains("audited:") || text.contains("justification:")
            }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn run_with(src: &str, allowlist: &[&str]) -> Vec<Diagnostic> {
        let f = SourceFile::new(
            "x/src/a.rs",
            src.to_string(),
            FileRole::Library,
            "x",
            false,
            false,
        );
        let input = AnalysisInput::from_files(vec![f]);
        let pass = AllowAudit {
            allowlist: allowlist.iter().map(|s| (*s).to_string()).collect(),
        };
        let mut diags = Vec::new();
        pass.run(&input, &mut diags);
        diags
    }

    #[test]
    fn unjustified_allow_fires() {
        let diags = run_with("#[allow(dead_code)]\nfn f() {}\n", &[]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_UNJUSTIFIED_ALLOW);
    }

    #[test]
    fn audited_comment_below_satisfies() {
        let src =
            "#[allow(dead_code)]\n// ^ audited: used via reflection in the harness\nfn f() {}\n";
        assert!(run_with(src, &[]).is_empty());
    }

    #[test]
    fn module_pedantic_allow_requires_listing() {
        let src = "#![allow(clippy::cast_possible_truncation, clippy::indexing_slicing)]\n// ^ audited: bounded by invariants\nfn f() {}\n";
        let unlisted = run_with(src, &[]);
        assert_eq!(unlisted.len(), 1, "{unlisted:?}");
        assert_eq!(unlisted[0].rule, RULE_UNLISTED_MODULE_ALLOW);
        assert!(run_with(src, &["x/src/a.rs"]).is_empty());
    }

    #[test]
    fn stale_allowlist_entry_fires() {
        let diags = run_with("fn f() {}\n", &["x/src/a.rs"]);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_STALE_ALLOWLIST_ENTRY);
    }

    #[test]
    fn non_pedantic_module_allow_needs_no_listing() {
        let src = "#![allow(missing_docs)]\n// ^ audited: generated module\nfn f() {}\n";
        assert!(run_with(src, &[]).is_empty(), "{:?}", run_with(src, &[]));
    }
}
