//! Structural-invariant auditing for every summary in the workspace.
//!
//! The paper's conclusions (§4) are only as trustworthy as the
//! summaries' internal state: a GK tuple list whose `g + Δ` exceeds
//! `⌊2εn⌋`, a q-digest with more than `3σ` nodes, or a dyadic level
//! whose counts stop summing to the live mass would silently corrupt
//! every downstream accuracy and space measurement. Each summary
//! therefore implements [`CheckInvariants`], a machine-checkable
//! statement of its §2/§3 structural invariants.
//!
//! Audits run in three places:
//!
//! 1. **Hot paths** — summaries self-audit every time their element
//!    count passes a power of two, gated behind
//!    `#[cfg(any(test, feature = "audit"))]` so release benchmarks are
//!    untouched (see [`audit_point`]).
//! 2. **The audit drivers** — `tests/conformance.rs` streams seeded
//!    sorted / random / skewed / adversarial inputs through every
//!    summary and checks invariants at a schedule of checkpoints;
//!    `tests/invariant_audit.rs` does the same for the sharded engine
//!    and the turnstile structures under churn.
//! 3. **Corruption tests** — each crate deliberately corrupts a
//!    summary and asserts the auditor names the violated invariant.

use std::fmt;

/// A structural invariant that failed to hold, with enough context to
/// identify the algorithm, the invariant (by stable name), and the
/// concrete state that broke it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    /// The paper's name for the algorithm (`"GKTheory"`, `"DCS"`, ...).
    pub algorithm: &'static str,
    /// A stable, grep-able invariant identifier (`"gk.g_delta_bound"`).
    pub invariant: &'static str,
    /// Human-readable description of the violating state.
    pub message: String,
}

impl InvariantViolation {
    /// Creates a violation record.
    pub fn new(
        algorithm: &'static str,
        invariant: &'static str,
        message: impl Into<String>,
    ) -> Self {
        Self {
            algorithm,
            invariant,
            message: message.into(),
        }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] invariant `{}` violated: {}",
            self.algorithm, self.invariant, self.message
        )
    }
}

impl std::error::Error for InvariantViolation {}

/// Checks one structural condition, producing an [`InvariantViolation`]
/// with a lazily-built message when it fails.
#[inline]
pub fn ensure(
    cond: bool,
    algorithm: &'static str,
    invariant: &'static str,
    message: impl FnOnce() -> String,
) -> Result<(), InvariantViolation> {
    if cond {
        Ok(())
    } else {
        Err(InvariantViolation::new(algorithm, invariant, message()))
    }
}

/// A summary whose structural invariants can be audited.
///
/// Implementations must perform *real* checks against the paper's
/// stated invariants — a blanket `Ok(())` defeats the audit layer.
pub trait CheckInvariants {
    /// Verifies every structural invariant, returning the first
    /// violation found.
    fn check_invariants(&self) -> Result<(), InvariantViolation>;

    /// Panics with the violation if any invariant fails — the form
    /// used by the periodic hot-path audits.
    fn assert_invariants(&self) {
        if let Err(v) = self.check_invariants() {
            panic!("{v}");
        }
    }
}

/// The periodic audit schedule: audits fire when the element count
/// reaches a power of two, so a stream of length `n` triggers
/// `O(log n)` audits regardless of length.
#[inline]
pub fn audit_point(n: u64) -> bool {
    n.is_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;

    struct AlwaysBroken;
    impl CheckInvariants for AlwaysBroken {
        fn check_invariants(&self) -> Result<(), InvariantViolation> {
            ensure(false, "Toy", "toy.broken", || "state is bad".into())
        }
    }

    struct AlwaysFine;
    impl CheckInvariants for AlwaysFine {
        fn check_invariants(&self) -> Result<(), InvariantViolation> {
            ensure(true, "Toy", "toy.fine", || unreachable!())
        }
    }

    #[test]
    fn violation_formats_with_all_fields() {
        let v = InvariantViolation::new("GKTheory", "gk.g_delta_bound", "g+Δ = 9 > 8");
        let s = v.to_string();
        assert!(s.contains("GKTheory"));
        assert!(s.contains("gk.g_delta_bound"));
        assert!(s.contains("g+Δ = 9 > 8"));
    }

    #[test]
    fn ensure_passes_and_fails() {
        assert!(ensure(true, "A", "i", || unreachable!()).is_ok());
        let err = ensure(false, "A", "i", || "msg".into()).unwrap_err();
        assert_eq!(err.algorithm, "A");
        assert_eq!(err.invariant, "i");
        assert_eq!(err.message, "msg");
    }

    #[test]
    #[should_panic(expected = "toy.broken")]
    fn assert_invariants_panics_on_violation() {
        AlwaysBroken.assert_invariants();
    }

    #[test]
    fn assert_invariants_silent_on_success() {
        AlwaysFine.assert_invariants();
    }

    #[test]
    fn audit_schedule_is_logarithmic() {
        let fired = (1u64..=1 << 20).filter(|&n| audit_point(n)).count();
        assert_eq!(fired, 21); // 2^0 ..= 2^20
        assert!(!audit_point(0));
        assert!(!audit_point(3));
        assert!(audit_point(4096));
    }
}
