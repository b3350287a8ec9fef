//! Golden-diagnostic fixture tests: each pass runs over a known-bad
//! fixture source (under `tests/fixtures/`, which the workspace loader
//! never reads) and must report exactly the expected
//! `(rule, line)` set — no more, no fewer. A final self-test analyzes
//! the production tree and requires it clean, so the fixtures are the
//! only place violations live.

use std::path::Path;

use sqs_analyze::diag::{RULE_BAD_JUSTIFICATION, RULE_UNUSED_JUSTIFICATION};
use sqs_analyze::passes::lock::{LockDiscipline, RULE_IO_UNDER_LOCK, RULE_NESTED_LOCK};
use sqs_analyze::passes::panic::{PanicDiscipline, RULE_EXPECT};
use sqs_analyze::{run_passes, AnalysisInput, Diagnostic, Pass, SourceFile};

/// Runs `pass` (plus justification processing) over one fixture file
/// and returns the findings as `(rule, line)` pairs in report order.
fn findings(pass: Box<dyn Pass>, rel_path: &str, src: &str) -> Vec<(&'static str, u32)> {
    let input = AnalysisInput::from_files(vec![SourceFile::new(rel_path, src.to_string())]);
    run_passes(&[pass], &input)
        .iter()
        .map(|d| (d.rule, d.line))
        .collect()
}

#[test]
fn panic_fixture_yields_the_golden_diagnostics() {
    assert_eq!(
        findings(
            Box::new(PanicDiscipline),
            "fx/src/panic_bad.rs",
            include_str!("fixtures/panic_bad.rs"),
        ),
        vec![(RULE_EXPECT, 8)],
        "bad_expect only; good_expect, unwrap_or, test code and the \
         unwrap (clippy's unwrap_used) are not findings"
    );
}

#[test]
fn io_panic_fixture_yields_the_golden_diagnostics() {
    assert_eq!(
        findings(
            Box::new(PanicDiscipline),
            "fx/src/io_panic_bad.rs",
            include_str!("fixtures/io_panic_bad.rs"),
        ),
        vec![(RULE_EXPECT, 13)],
        "I/O results must propagate as errors (the sqs-store rule): \
         only the non-invariant expect is a finding"
    );
}

#[test]
fn lock_fixture_yields_the_golden_diagnostics() {
    assert_eq!(
        findings(
            Box::new(LockDiscipline),
            "fx/src/lock_bad.rs",
            include_str!("fixtures/lock_bad.rs"),
        ),
        vec![(RULE_NESTED_LOCK, 7), (RULE_IO_UNDER_LOCK, 25)],
        "nested guard and I/O under guard; shard-over-shard in either \
         order is OrderedMutex's to check"
    );
}

#[test]
fn justification_fixture_suppresses_and_reports() {
    assert_eq!(
        findings(
            Box::new(PanicDiscipline),
            "fx/src/justified.rs",
            include_str!("fixtures/justified.rs"),
        ),
        vec![
            (RULE_UNUSED_JUSTIFICATION, 9),
            (RULE_BAD_JUSTIFICATION, 13),
            (RULE_EXPECT, 14),
        ],
        "line 5's expect is suppressed; the unused and malformed \
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
