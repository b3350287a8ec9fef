//! Work counters for the crate's own tests: the sketch cells a dyadic
//! read hands to `estimate` and the exact counters it reads. A read
//! gate counts the work its mechanism saves instead of timing it, so it
//! fails the same way on every machine and in a debug build. Compiled
//! only under `cfg(test)`; the counts are per thread, so tests running
//! side by side count only their own work.

use std::cell::Cell;

/// What a counted site did.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Work {
    /// One cell handed to a sketch level's `estimate`.
    SketchCell,
    /// One exact-level counter read (summed over the parts).
    ExactCounter,
}

/// How often each [`Work`] was done.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Counts([u64; 2]);

impl std::ops::Index<Work> for Counts {
    type Output = u64;

    fn index(&self, work: Work) -> &u64 {
        &self.0[work as usize]
    }
}

thread_local! {
    static COUNTS: Cell<[u64; 2]> = const { Cell::new([0; 2]) };
}

/// Counts `times` of `work` on this thread.
pub(crate) fn tick(work: Work, times: usize) {
    COUNTS.with(|c| {
        let mut counts = c.get();
        counts[work as usize] += times as u64;
        c.set(counts);
    });
}

/// What `f` returns, and the work it did on this thread.
pub(crate) fn during<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    let before = COUNTS.with(Cell::get);
    let out = f();
    let after = COUNTS.with(Cell::get);
    (out, Counts(std::array::from_fn(|i| after[i] - before[i])))
}
