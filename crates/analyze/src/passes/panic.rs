//! SQS-P02 — every `.expect(…)` in library code names an invariant.
//!
//! `.unwrap()` is clippy's `unwrap_used`, denied workspace-wide. What
//! clippy cannot say is that the message of an `.expect("…")` in
//! non-test, first-party library code has to contain the word
//! `invariant`, mirroring the `sqs_util::audit::InvariantViolation`
//! discipline: a panic is only acceptable when it reports a *broken
//! structural invariant*, never an "I didn't feel like handling this"
//! shortcut. The pass works on real tokens, so the same characters in
//! a string, comment or doc example do not count, and structural test
//! regions are exempt.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::passes::{Code, Pass};
use crate::workspace::AnalysisInput;

/// Rule ID: `.expect(…)` whose message does not name an invariant.
pub const RULE_EXPECT: &str = "SQS-P02";

/// The panic-discipline pass. See the module docs.
pub struct PanicDiscipline;

impl Pass for PanicDiscipline {
    fn name(&self) -> &'static str {
        "panic-discipline"
    }

    fn description(&self) -> &'static str {
        ".expect() messages in library code must name an invariant"
    }

    fn run(&self, input: &AnalysisInput, diags: &mut Vec<Diagnostic>) {
        for file in &input.files {
            let code = Code::new(file);
            for ci in 0..code.len() {
                if code.is_test(ci)
                    || code.text(ci) != "."
                    || code.text(ci + 1) != "expect"
                    || code.text(ci + 2) != "("
                    || expect_message_names_invariant(&code, ci + 2)
                {
                    continue;
                }
                diags.push(
                    code.diag(
                        RULE_EXPECT,
                        ci + 1,
                        "`.expect()` message must name the broken invariant \
                     (contain the word \"invariant\"), e.g. \
                     `expect(\"QDigest invariant: root covers universe\")`"
                            .to_string(),
                    ),
                );
            }
        }
    }
}

/// Whether the argument list opening at code index `open` (the `(`)
/// contains a string literal naming an invariant.
fn expect_message_names_invariant(code: &Code<'_>, open: usize) -> bool {
    let mut depth = 0usize;
    let mut ci = open;
    while ci < code.len() {
        match code.text(ci) {
            "(" => depth += 1,
            ")" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return false;
                }
            }
            _ => {
                if code.kind(ci) == Some(TokenKind::StrLit) && code.text(ci).contains("invariant") {
                    return true;
                }
            }
        }
        ci += 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn run_on(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new("x/src/a.rs", src.to_string());
        let input = AnalysisInput::from_files(vec![f]);
        let mut diags = Vec::new();
        PanicDiscipline.run(&input, &mut diags);
        diags
    }

    #[test]
    fn expect_in_string_and_comment_does_not_fire() {
        let src = r#"
fn f(x: Option<u32>) -> u32 {
    let msg = "docs say .expect(\"m\") is fine"; // .expect("m") in a comment
    let _ = msg;
    x.expect("m")
}
"#;
        let diags = run_on(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_EXPECT);
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn unwrap_is_left_to_clippy() {
        assert!(run_on("fn f(x: Option<u32>) -> u32 { x.unwrap() }").is_empty());
    }

    #[test]
    fn expect_requires_invariant_wording() {
        let bad = run_on(r#"fn f(x: Option<u32>) -> u32 { x.expect("should work") }"#);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, RULE_EXPECT);
        let good =
            run_on(r#"fn f(x: Option<u32>) -> u32 { x.expect("engine invariant: set in new()") }"#);
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn expect_message_via_format_is_scanned() {
        let good = run_on(
            r#"fn f(x: Option<u32>, i: usize) -> u32 { x.expect(&format!("shard {i} invariant: non-empty")) }"#,
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1).unwrap();
        Some(1).expect("anything goes in tests");
    }
}
"#;
        assert!(run_on(src).is_empty());
    }
}
