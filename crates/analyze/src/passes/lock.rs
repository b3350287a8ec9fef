//! SQS-L01/SQS-L03 — lock discipline in the engine and service
//! layers.
//!
//! The concurrency design of `sqs-engine`/`sqs-service` rests on two
//! rules that nothing else states:
//!
//! 1. **No nested acquisition** (`SQS-L01`): a `MutexGuard` must not
//!    be live when another `lock()`/`lock_shard()` is made — the
//!    engine's shard mutexes and the service's queue/tenant mutexes
//!    are leaves of the lock graph. Shard-over-shard is the one
//!    exception the pass leaves alone: the engine takes all its shard
//!    locks in one ascending loop, and `sqs_util::sync::OrderedMutex`
//!    panics in debug builds on any other order.
//! 2. **No I/O under a guard** (`SQS-L03`): socket/file calls
//!    (`write_all`, `read_exact`, `accept`, …) while a guard is live
//!    stall every thread contending for that mutex behind a peer's
//!    network latency.
//!
//! The pass runs a single forward scan per file, tracking brace depth,
//! `let`-bound guard names (live to end of scope or `drop(name)`), and
//! temporary guards (live to end of statement). It deliberately
//! over-approximates liveness — a false positive is silenced at the
//! site with a justification code, which is exactly the reviewable
//! artifact we want for every nested-lock site.

use crate::diag::Diagnostic;
use crate::lexer::TokenKind;
use crate::passes::{Code, Pass};
use crate::workspace::AnalysisInput;

/// Rule ID: acquisition while another guard is live.
pub const RULE_NESTED_LOCK: &str = "SQS-L01";
/// Rule ID: I/O call while a guard is live.
pub const RULE_IO_UNDER_LOCK: &str = "SQS-L03";

/// Methods that reach the network or disk. Deliberately the explicit
/// blocking socket/file verbs used in this workspace, not every
/// `write`/`flush` (which are also Vec/fmt methods).
const IO_FNS: &[&str] = &[
    "write_all",
    "read_exact",
    "read_to_end",
    "write_response",
    "read_request",
    "accept",
    "connect",
    "connect_timeout",
];

/// A live guard being tracked by the scan.
struct Guard {
    /// Binding name (`Some` for `let g = ….lock()`), `None` for a
    /// temporary that dies at the end of its statement.
    name: Option<String>,
    /// Brace depth at the acquisition site; the guard dies when the
    /// scan leaves this depth.
    depth: usize,
    /// Whether this came from `lock_shard` (shard mutex) rather than a
    /// generic `lock`.
    is_shard: bool,
    /// Source line of the acquisition, for diagnostics.
    line: u32,
}

/// The lock-discipline pass. See the module docs.
pub struct LockDiscipline;

impl Pass for LockDiscipline {
    fn name(&self) -> &'static str {
        "lock-discipline"
    }

    fn description(&self) -> &'static str {
        "no nested lock acquisition, no I/O under a guard"
    }

    fn run(&self, input: &AnalysisInput, diags: &mut Vec<Diagnostic>) {
        for file in &input.files {
            scan_file(&Code::new(file), diags);
        }
    }
}

/// Whether the ident at `ci` is a lock acquisition call: `lock(` or
/// `lock_shard(` preceded by `.` (a method call, not a definition).
fn is_acquisition(code: &Code<'_>, ci: usize) -> bool {
    if code.kind(ci) != Some(TokenKind::Ident) {
        return false;
    }
    let name = code.text(ci);
    (name == "lock" || name == "lock_shard")
        && code.text(ci + 1) == "("
        && ci > 0
        && code.text(ci - 1) == "."
}

/// Code index of the `)` matching the `(` at `open` (the code length
/// when unbalanced — callers treat that as "end of file").
fn matching_paren(code: &Code<'_>, open: usize) -> usize {
    let mut depth = 0usize;
    let mut j = open;
    while j < code.len() {
        match code.text(j) {
            "(" => depth += 1,
            ")" => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    code.len()
}

/// Chained methods after `lock()` whose result still owns the guard
/// (`lock().expect(…)`, `lock().ok()`, `lock().unwrap_or_else(…)`).
const GUARD_PRESERVING: &[&str] = &[
    "expect",
    "unwrap",
    "unwrap_or_else",
    "ok",
    "map_err",
    "and_then",
];

/// Whether the method chain following the lock call (whose argument
/// list opens at `open`) consumes the guard — e.g. `.clone()`,
/// `.len()` — so the guard is a temporary dying at the end of the
/// statement, and the `let` binding (if any) does not hold it.
fn chain_consumes_guard(code: &Code<'_>, open: usize) -> bool {
    let mut j = matching_paren(code, open) + 1;
    while code.text(j) == "." && code.kind(j + 1) == Some(TokenKind::Ident) {
        if !GUARD_PRESERVING.contains(&code.text(j + 1)) {
            return true;
        }
        if code.text(j + 2) == "(" {
            j = matching_paren(code, j + 2) + 1;
        } else {
            j += 2;
        }
    }
    false
}

/// Single forward scan of one file.
fn scan_file(code: &Code<'_>, diags: &mut Vec<Diagnostic>) {
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();
    // The binding name of the innermost `let` whose initializer the
    // scan is currently inside, with the depth of the `let` itself.
    let mut pending_let: Option<(String, usize)> = None;

    for ci in 0..code.len() {
        if code.is_test(ci) {
            continue;
        }
        match code.text(ci) {
            "{" => depth += 1,
            "}" => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            ";" => {
                // End of statement: temporaries at this depth die, and
                // a pending `let` at this depth is fully bound.
                guards.retain(|g| g.name.is_some() || g.depth != depth);
                if pending_let.as_ref().is_some_and(|(_, d)| *d == depth) {
                    pending_let = None;
                }
            }
            "let" => {
                let name_ci = if code.text(ci + 1) == "mut" {
                    ci + 2
                } else {
                    ci + 1
                };
                if code.kind(name_ci) == Some(TokenKind::Ident) {
                    pending_let = Some((code.text(name_ci).to_string(), depth));
                }
            }
            "drop" if code.text(ci + 1) == "(" => {
                let dropped = code.text(ci + 2);
                if code.text(ci + 3) == ")" {
                    guards.retain(|g| g.name.as_deref() != Some(dropped));
                }
            }
            _ => {
                if is_acquisition(code, ci) {
                    let is_shard = code.text(ci) == "lock_shard";
                    report_nested(code, ci, &guards, is_shard, diags);
                    let name = if chain_consumes_guard(code, ci + 1) {
                        None // `lock().clone()` etc: the binding is not a guard
                    } else {
                        pending_let
                            .as_ref()
                            .filter(|(_, d)| *d == depth)
                            .map(|(n, _)| n.clone())
                    };
                    guards.push(Guard {
                        name,
                        depth,
                        is_shard,
                        line: code.tok(ci).map_or(0, |t| t.line),
                    });
                } else if code.kind(ci) == Some(TokenKind::Ident)
                    && IO_FNS.contains(&code.text(ci))
                    && code.text(ci + 1) == "("
                    && !guards.is_empty()
                {
                    let held: Vec<String> = guards.iter().map(describe).collect();
                    diags.push(code.diag(
                        RULE_IO_UNDER_LOCK,
                        ci,
                        format!(
                            "I/O call `{}` while holding {} — copy the data out, drop \
                             the guard, then do I/O",
                            code.text(ci),
                            held.join(", "),
                        ),
                    ));
                }
            }
        }
    }
}

/// Reports SQS-L01 for an acquisition at `ci` given the currently
/// live guards. A shard lock taken under another shard guard is
/// `OrderedMutex`'s to check, not this pass's.
fn report_nested(
    code: &Code<'_>,
    ci: usize,
    guards: &[Guard],
    new_is_shard: bool,
    diags: &mut Vec<Diagnostic>,
) {
    for g in guards.iter().filter(|g| !(g.is_shard && new_is_shard)) {
        diags.push(code.diag(
            RULE_NESTED_LOCK,
            ci,
            format!(
                "lock acquisition while {} is live — engine/service mutexes are \
                 lock-graph leaves; drop the guard first",
                describe(g)
            ),
        ));
    }
}

/// Human description of a live guard for messages.
fn describe(g: &Guard) -> String {
    let what = if g.is_shard { "shard guard" } else { "guard" };
    match &g.name {
        Some(n) => format!("{what} `{n}` (line {})", g.line),
        None => format!("a temporary {what} (line {})", g.line),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::SourceFile;

    fn run_on(src: &str) -> Vec<Diagnostic> {
        let f = SourceFile::new("x/src/a.rs", src.to_string());
        let input = AnalysisInput::from_files(vec![f]);
        let mut diags = Vec::new();
        LockDiscipline.run(&input, &mut diags);
        diags
    }

    #[test]
    fn nested_lock_fires() {
        let src = "fn f(&self) { let a = self.q.lock(); let b = self.tenants.lock(); }";
        let diags = run_on(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_NESTED_LOCK);
    }

    #[test]
    fn sequential_scopes_are_fine() {
        let src = "fn f(&self) { { let a = self.q.lock(); use_it(a); } let b = self.t.lock(); }";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn drop_releases_a_named_guard() {
        let src = "fn f(&self) { let a = self.q.lock(); drop(a); let b = self.t.lock(); }";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn temporary_dies_at_end_of_statement() {
        let src = "fn f(&self) { let n = self.q.lock().len(); let b = self.t.lock(); }";
        assert!(run_on(src).is_empty());
    }

    #[test]
    fn shard_over_shard_is_left_to_the_ordered_mutex() {
        let asc = "fn m(&self) { let lo = self.lock_shard(0); let hi = self.lock_shard(1); }";
        assert!(run_on(asc).is_empty(), "{:?}", run_on(asc));
        let desc = "fn m(&self) { let hi = self.lock_shard(1); let lo = self.lock_shard(0); }";
        assert!(run_on(desc).is_empty(), "{:?}", run_on(desc));
    }

    #[test]
    fn shard_then_generic_lock_is_nested() {
        let src = "fn m(&self) { let g = self.lock_shard(0); let q = self.queue.lock(); }";
        let diags = run_on(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_NESTED_LOCK);
    }

    #[test]
    fn guard_preserving_chain_keeps_the_binding_a_guard() {
        let src = "fn f(&self) { let g = self.q.lock().unwrap_or_else(PoisonError::into_inner); let b = self.t.lock(); }";
        let diags = run_on(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_NESTED_LOCK);
    }

    #[test]
    fn consumed_chain_inside_closure_is_a_statement_temporary() {
        let src = "fn snap(&self) { let parts: Vec<S> = (0..n).map(|i| self.lock_shard(i).clone()).collect(); let g = self.t.lock(); }";
        assert!(run_on(src).is_empty(), "{:?}", run_on(src));
    }

    #[test]
    fn io_under_guard_fires() {
        let src = "fn f(&self, s: &mut TcpStream) { let g = self.q.lock(); s.write_all(&g); }";
        let diags = run_on(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, RULE_IO_UNDER_LOCK);
    }

    #[test]
    fn io_after_scope_close_is_fine() {
        let src = "fn f(&self, s: &mut S) { let d = { let g = self.q.lock(); g.clone() }; s.write_all(&d); }";
        assert!(run_on(src).is_empty(), "{:?}", run_on(src));
    }

    #[test]
    fn condvar_wait_is_not_an_acquisition() {
        let src = "fn pop(&self) { let mut q = self.m.lock(); q = self.cv.wait(q); finish(q); }";
        assert!(run_on(src).is_empty(), "{:?}", run_on(src));
    }

    #[test]
    fn fn_named_lock_definition_is_not_an_acquisition() {
        let src = "impl Q { fn lock(&self) -> Guard { self.inner.lock() } }";
        assert!(run_on(src).is_empty(), "{:?}", run_on(src));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "#[cfg(test)] mod t { fn f(e: &E) { let a = e.lock_shard(1); let b = e.lock_shard(0); } }";
        assert!(run_on(src).is_empty());
    }
}
