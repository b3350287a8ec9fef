//! Diagnostics and per-site justification codes.
//!
//! Every pass reports findings as [`Diagnostic`]s carrying a stable
//! rule ID (`SQS-…`, see `docs/ANALYSIS.md` for the catalog) and a
//! `file:line:col` anchor. A finding at a site that is genuinely fine
//! is silenced *in the source*, next to the code it excuses, with a
//! justification code:
//!
//! ```text
//! let cache = self.cache.lock();
//! // analyze:allow(SQS-L01): one lock order — cache, then shards ascending
//! let held: Vec<_> = (0..k).map(|i| self.lock_shard(i)).collect();
//! ```
//!
//! The comment must name the exact rule and carry a non-empty reason;
//! it applies to findings on its own line or the line directly below
//! it. A malformed justification ([`RULE_BAD_JUSTIFICATION`]) or one
//! that silences nothing ([`RULE_UNUSED_JUSTIFICATION`]) is itself a
//! finding, so stale excuses cannot accumulate.

use std::fmt;

use crate::lexer::Token;

/// Rule ID: a justification comment that does not parse as
/// `analyze:allow(SQS-XXX): reason`.
pub const RULE_BAD_JUSTIFICATION: &str = "SQS-J01";
/// Rule ID: a justification comment that suppressed no finding.
pub const RULE_UNUSED_JUSTIFICATION: &str = "SQS-J02";

/// One static-analysis finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule ID (`"SQS-P02"`, …).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic anchored at `token` in `file`.
    #[must_use]
    pub fn at(rule: &'static str, file: &str, token: &Token, message: String) -> Self {
        Self {
            rule,
            file: file.to_string(),
            line: token.line,
            col: token.col,
            message,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// A parsed `analyze:allow(...)` justification comment.
struct Justification {
    line: u32,
    col: u32,
    rule: Option<String>,
    has_reason: bool,
    used: bool,
}

const MARKER: &str = "analyze:allow(";

/// Applies the file's justification comments to its diagnostics:
/// removes suppressed findings, and appends findings for malformed or
/// unused justifications. `tokens` must be the lexed form of the file
/// the diagnostics refer to.
pub fn apply_justifications(file: &str, src: &str, tokens: &[Token], diags: &mut Vec<Diagnostic>) {
    let mut justs: Vec<Justification> = Vec::new();
    for t in tokens.iter().filter(|t| t.is_comment()) {
        let text = t.text(src);
        // Doc comments are rendered documentation, not suppression
        // sites — a rule explained (or exemplified) in a doc comment
        // must not silence anything. Justifications are plain `//` or
        // `/* */` comments only.
        if text.starts_with("///") || text.starts_with("//!") || text.starts_with("/**") {
            continue;
        }
        let Some(pos) = text.find(MARKER) else {
            continue;
        };
        let after = text.get(pos + MARKER.len()..).unwrap_or("");
        let rule = after
            .find(')')
            .map(|end| after.get(..end).unwrap_or("").trim().to_string());
        let has_reason = match (&rule, after.find(')')) {
            (Some(_), Some(end)) => {
                let tail = after.get(end + 1..).unwrap_or("").trim_start();
                tail.starts_with(':') && tail.get(1..).unwrap_or("").trim().len() >= 3
            }
            _ => false,
        };
        justs.push(Justification {
            line: t.line,
            col: t.col,
            rule: rule.filter(|r| r.starts_with("SQS-")),
            has_reason,
            used: false,
        });
    }
    if justs.is_empty() {
        return;
    }

    diags.retain(|d| {
        if d.file != file {
            return true;
        }
        for j in &mut justs {
            let (Some(rule), true) = (&j.rule, j.has_reason) else {
                continue;
            };
            // A justification covers its own line and the line below.
            if rule == d.rule && (j.line == d.line || j.line + 1 == d.line) {
                j.used = true;
                return false;
            }
        }
        true
    });

    for j in &justs {
        if j.rule.is_none() || !j.has_reason {
            diags.push(Diagnostic {
                rule: RULE_BAD_JUSTIFICATION,
                file: file.to_string(),
                line: j.line,
                col: j.col,
                message: format!(
                    "malformed justification — write `// {MARKER}SQS-XXX): reason` \
                     with the exact rule ID and a real reason"
                ),
            });
        } else if !j.used {
            diags.push(Diagnostic {
                rule: RULE_UNUSED_JUSTIFICATION,
                file: file.to_string(),
                line: j.line,
                col: j.col,
                message: format!(
                    "justification for {} suppresses nothing — the finding moved or was \
                     fixed; delete the comment",
                    j.rule.as_deref().unwrap_or("?")
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn diag(rule: &'static str, line: u32) -> Diagnostic {
        Diagnostic {
            rule,
            file: "f.rs".into(),
            line,
            col: 5,
            message: "m".into(),
        }
    }

    #[test]
    fn same_line_and_next_line_suppression() {
        let src = "// analyze:allow(SQS-P02): fixture needs it\nx.expect(\"m\");\ny.expect(\"m\"); // analyze:allow(SQS-P02): also fine here\n";
        let toks = lex(src);
        let mut diags = vec![diag("SQS-P02", 2), diag("SQS-P02", 3)];
        apply_justifications("f.rs", src, &toks, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn wrong_rule_does_not_suppress() {
        let src = "// analyze:allow(SQS-L01): wrong rule\nx.expect(\"m\");\n";
        let toks = lex(src);
        let mut diags = vec![diag("SQS-P02", 2)];
        apply_justifications("f.rs", src, &toks, &mut diags);
        // The P02 survives, and the L01 justification is now unused.
        assert!(diags.iter().any(|d| d.rule == "SQS-P02"));
        assert!(diags.iter().any(|d| d.rule == RULE_UNUSED_JUSTIFICATION));
    }

    #[test]
    fn missing_reason_is_malformed() {
        let src = "// analyze:allow(SQS-P02)\nx.expect(\"m\");\n";
        let toks = lex(src);
        let mut diags = vec![diag("SQS-P02", 2)];
        apply_justifications("f.rs", src, &toks, &mut diags);
        assert!(diags.iter().any(|d| d.rule == "SQS-P02"), "not suppressed");
        assert!(diags.iter().any(|d| d.rule == RULE_BAD_JUSTIFICATION));
    }

    #[test]
    fn doc_comments_are_not_justifications() {
        let src = "/// like `// analyze:allow(SQS-P02): example in docs`\nfn f() {}\n";
        let toks = lex(src);
        let mut diags = vec![];
        apply_justifications("f.rs", src, &toks, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn display_is_clickable() {
        let d = diag("SQS-P02", 2);
        assert_eq!(d.to_string(), "f.rs:2:5: SQS-P02: m");
    }
}
