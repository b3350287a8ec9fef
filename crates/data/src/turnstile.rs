//! Turnstile (insert/delete) workload generators (§1.1, §4.3).
//!
//! The strict turnstile model requires that a deletion never removes
//! an element that is not currently present; every generator here
//! maintains that invariant by construction, which the tests verify
//! with a full multiset replay.
//!
//! §4.3 notes that deletions have no effect on a (linear) sketch's
//! final accuracy — "what matters is only those elements that remain" —
//! so the accuracy experiments feed insert-only streams; these
//! workloads exist to *verify* that property, to exercise the deletion
//! code paths, and to measure update throughput under churn.

#![expect(
    clippy::cast_possible_truncation,
    clippy::indexing_slicing,
    reason = "every draw is bounded by the value universe or the length of the table it indexes before it is narrowed"
)]

use sqs_util::rng::Xoshiro256pp;

/// One turnstile update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Insert one copy of the element.
    Insert(u64),
    /// Delete one copy of the (currently live) element.
    Delete(u64),
}

/// The adversarial pattern of §1.2.2: insert every element of `data`,
/// then delete all but the `survivors` at the given indices.
///
/// # Panics
/// Panics if any survivor index is out of range or duplicated.
pub fn insert_then_delete_all_but(data: &[u64], survivors: &[usize]) -> Vec<Op> {
    let mut keep = vec![false; data.len()];
    for &i in survivors {
        assert!(i < data.len(), "survivor index {i} out of range");
        assert!(!keep[i], "survivor index {i} duplicated");
        keep[i] = true;
    }
    let mut ops = Vec::with_capacity(2 * data.len() - survivors.len());
    ops.extend(data.iter().map(|&x| Op::Insert(x)));
    ops.extend(
        data.iter()
            .zip(&keep)
            .filter(|(_, &k)| !k)
            .map(|(&x, _)| Op::Delete(x)),
    );
    ops
}

/// Sliding-window churn: insert `data[i]` and, once `i ≥ window`,
/// delete `data[i − window]` — at any moment exactly the last `window`
/// elements are live (the §1 sliding-window motivation, expressed as
/// explicit turnstile updates).
pub fn sliding_window(data: &[u64], window: usize) -> Vec<Op> {
    assert!(window > 0, "window must be positive");
    let mut ops = Vec::with_capacity(2 * data.len());
    for (i, &x) in data.iter().enumerate() {
        ops.push(Op::Insert(x));
        if i >= window {
            ops.push(Op::Delete(data[i - window]));
        }
    }
    ops
}

/// Random churn: feeds `base` as insertions, interleaving a deletion
/// of a uniformly random *live* element with probability
/// `churn` per step. Live tracking makes the strictness invariant
/// hold by construction.
///
/// # Panics
/// Panics unless `0 ≤ churn < 1`.
pub fn random_churn(base: impl Iterator<Item = u64>, churn: f64, seed: u64) -> Vec<Op> {
    assert!((0.0..1.0).contains(&churn), "churn must be in [0,1)");
    let mut rng = Xoshiro256pp::new(seed);
    let mut live: Vec<u64> = Vec::new();
    let mut ops = Vec::new();
    for x in base {
        ops.push(Op::Insert(x));
        live.push(x);
        if !live.is_empty() && rng.next_f64() < churn {
            let j = rng.next_below(live.len() as u64) as usize;
            let victim = live.swap_remove(j);
            ops.push(Op::Delete(victim));
        }
    }
    ops
}

/// Replays a workload against a reference multiset, returning the live
/// elements at the end — the ground truth for turnstile accuracy
/// measurements.
///
/// # Panics
/// Panics if the workload violates the strict turnstile condition.
pub fn replay_live(ops: &[Op]) -> Vec<u64> {
    let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    for op in ops {
        match *op {
            Op::Insert(x) => *counts.entry(x).or_insert(0) += 1,
            Op::Delete(x) => {
                let c = counts
                    .get_mut(&x)
                    .unwrap_or_else(|| panic!("delete of absent element {x}"));
                assert!(*c > 0, "multiplicity of {x} went negative");
                *c -= 1;
            }
        }
    }
    let mut live = Vec::new();
    for (x, c) in counts {
        live.extend(std::iter::repeat_n(x, c as usize));
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::Uniform;

    #[test]
    fn insert_delete_all_but_leaves_survivors() {
        let data: Vec<u64> = (0..100).collect();
        let ops = insert_then_delete_all_but(&data, &[7, 42]);
        let mut live = replay_live(&ops);
        live.sort_unstable();
        assert_eq!(live, vec![7, 42]);
    }

    #[test]
    fn sliding_window_keeps_window_live() {
        let data: Vec<u64> = (0..1000).collect();
        let ops = sliding_window(&data, 100);
        let mut live = replay_live(&ops);
        live.sort_unstable();
        assert_eq!(live, (900..1000).collect::<Vec<u64>>());
    }

    #[test]
    fn random_churn_is_strict() {
        let ops = random_churn(Uniform::new(10, 1).take(10_000), 0.6, 2);
        // replay_live panics on any strictness violation.
        let live = replay_live(&ops);
        assert!(!live.is_empty());
        let deletes = ops.iter().filter(|o| matches!(o, Op::Delete(_))).count();
        assert_eq!(live.len(), 10_000 - deletes);
    }

    #[test]
    fn zero_churn_is_insert_only() {
        let ops = random_churn(Uniform::new(8, 3).take(100), 0.0, 4);
        assert_eq!(ops.len(), 100);
        assert!(ops.iter().all(|o| matches!(o, Op::Insert(_))));
    }

    #[test]
    #[should_panic(expected = "delete of absent element")]
    fn replay_catches_violations() {
        replay_live(&[Op::Insert(1), Op::Delete(2)]);
    }

    #[test]
    #[should_panic(expected = "survivor index 5 out of range")]
    fn survivor_bounds_checked() {
        insert_then_delete_all_but(&[1, 2, 3], &[5]);
    }
}
