//! Golden-diagnostic fixture tests: each pass runs over a known-bad
//! fixture source (under `tests/fixtures/`, which the workspace loader
//! deliberately skips) and must report exactly the expected
//! `(rule, line)` set — no more, no fewer. A final self-test analyzes
//! the production tree and requires it clean, so the fixtures are the
//! only place violations live.

use std::path::Path;

use sqs_analyze::diag::{RULE_BAD_JUSTIFICATION, RULE_UNUSED_JUSTIFICATION};
use sqs_analyze::passes::allow_audit::{
    AllowAudit, RULE_STALE_ALLOWLIST_ENTRY, RULE_UNJUSTIFIED_ALLOW, RULE_UNLISTED_MODULE_ALLOW,
};
use sqs_analyze::passes::forbid_unsafe::{ForbidUnsafe, RULE_MISSING_FORBID, RULE_UNSAFE_TOKEN};
use sqs_analyze::passes::lock::{
    LockDiscipline, RULE_IO_UNDER_LOCK, RULE_NESTED_LOCK, RULE_SHARD_ORDER,
};
use sqs_analyze::passes::panic::{PanicDiscipline, RULE_EXPECT, RULE_UNWRAP};
use sqs_analyze::workspace::FileRole;
use sqs_analyze::{run_passes, AnalysisInput, Diagnostic, Pass, SourceFile};

/// Wraps one fixture source as a library file of a synthetic crate.
fn lib_file(rel_path: &str, src: &str, is_crate_root: bool) -> SourceFile {
    SourceFile::new(
        rel_path,
        src.to_string(),
        FileRole::Library,
        "fx",
        false,
        is_crate_root,
    )
}

/// Runs `pass` (plus justification processing) over `files` and
/// returns the findings as `(rule, line)` pairs in report order.
fn findings(pass: Box<dyn Pass>, files: Vec<SourceFile>) -> Vec<(&'static str, u32)> {
    let input = AnalysisInput::from_files(files);
    run_passes(&[pass], &input)
        .iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn panic_fixture_yields_the_golden_diagnostics() {
    let fx = lib_file(
        "fx/src/panic_bad.rs",
        include_str!("fixtures/panic_bad.rs"),
        false,
    );
    assert_eq!(
        findings(Box::new(PanicDiscipline), vec![fx]),
        vec![(RULE_UNWRAP, 4), (RULE_EXPECT, 8)],
        "bad_unwrap and bad_expect only; good_expect, unwrap_or and \
         test code are exempt"
    );
}

#[test]
fn io_panic_fixture_yields_the_golden_diagnostics() {
    let fx = lib_file(
        "fx/src/io_panic_bad.rs",
        include_str!("fixtures/io_panic_bad.rs"),
        false,
    );
    assert_eq!(
        findings(Box::new(PanicDiscipline), vec![fx]),
        vec![(RULE_UNWRAP, 9), (RULE_EXPECT, 13)],
        "I/O results must propagate as errors (the sqs-store rule): \
         only the unwrap and the non-invariant expect are findings"
    );
}

#[test]
fn unsafe_fixture_yields_the_golden_diagnostics() {
    let fx = lib_file(
        "fx/src/lib.rs",
        include_str!("fixtures/unsafe_bad.rs"),
        true,
    );
    let got = findings(Box::new(ForbidUnsafe), vec![fx]);
    let rules: Vec<&str> = got.iter().map(|(r, _)| *r).collect();
    assert_eq!(rules, vec![RULE_MISSING_FORBID, RULE_UNSAFE_TOKEN]);
    assert!(
        got.iter().any(|&(r, l)| r == RULE_UNSAFE_TOKEN && l == 5),
        "the unsafe block is on line 5: {got:?}"
    );
}

#[test]
fn lock_fixture_yields_the_golden_diagnostics() {
    let fx = lib_file(
        "fx/src/lock_bad.rs",
        include_str!("fixtures/lock_bad.rs"),
        false,
    );
    assert_eq!(
        findings(Box::new(LockDiscipline), vec![fx]),
        vec![
            (RULE_NESTED_LOCK, 7),
            (RULE_SHARD_ORDER, 13),
            (RULE_IO_UNDER_LOCK, 25),
        ],
        "nested guard, descending shards, I/O under guard; the \
         ascending pair is legal"
    );
}

#[test]
fn allow_fixture_yields_the_golden_diagnostics() {
    let src = include_str!("fixtures/allow_bad.rs");
    let fx = lib_file("fx/src/allow_bad.rs", src, false);
    // Empty allowlist: the default one names production modules, which
    // would all be "stale" against a one-file fixture input.
    let pass = AllowAudit {
        allowlist: Vec::new(),
    };
    assert_eq!(
        findings(Box::new(pass), vec![fx]),
        vec![(RULE_UNLISTED_MODULE_ALLOW, 4), (RULE_UNJUSTIFIED_ALLOW, 7),],
        "the module allow is justified but unlisted; the item allow is \
         unjustified"
    );
}

#[test]
fn stale_allowlist_entry_is_reported() {
    let src = include_str!("fixtures/allow_bad.rs");
    let fx = lib_file("fx/src/allow_bad.rs", src, false);
    let pass = AllowAudit {
        allowlist: vec![
            "fx/src/allow_bad.rs".to_string(),
            "fx/src/ghost.rs".to_string(),
        ],
    };
    let got = findings(Box::new(pass), vec![fx]);
    assert!(
        got.iter().any(|&(r, _)| r == RULE_STALE_ALLOWLIST_ENTRY),
        "ghost.rs carries no allow and must be flagged stale: {got:?}"
    );
    assert!(
        !got.iter().any(|&(r, _)| r == RULE_UNLISTED_MODULE_ALLOW),
        "allow_bad.rs is on this allowlist: {got:?}"
    );
}

#[test]
fn justification_fixture_suppresses_and_reports() {
    let fx = lib_file(
        "fx/src/justified.rs",
        include_str!("fixtures/justified.rs"),
        false,
    );
    assert_eq!(
        findings(Box::new(PanicDiscipline), vec![fx]),
        vec![
            (RULE_UNUSED_JUSTIFICATION, 9),
            (RULE_BAD_JUSTIFICATION, 13),
            (RULE_UNWRAP, 14),
        ],
        "line 5's unwrap is suppressed; the unused and malformed \
         justifications are findings, and the malformed one suppresses \
         nothing"
    );
}

/// The production tree must be clean — every deliberate violation
/// lives in `tests/fixtures/`, which the loader skips.
#[test]
fn production_tree_analyzes_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("test invariant: crate lives two levels below the workspace root");
    let diags = sqs_analyze::analyze_workspace(root).expect("workspace loads");
    let rendered: Vec<String> = diags.iter().map(Diagnostic::to_string).collect();
    assert!(
        diags.is_empty(),
        "production tree has findings:\n{}",
        rendered.join("\n")
    );
}
