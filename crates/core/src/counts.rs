//! Work counters for the crate's own tests: the rank indexes, q-digest
//! node sorts and flushes, and search probes a call makes. A read gate
//! counts the work its mechanism saves instead of timing it, so it
//! fails the same way on every machine and in a debug build. Compiled
//! only under `cfg(test)`; the counts are per thread, so tests running
//! side by side count only their own work.

use std::cell::Cell;

/// What a counted site did.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Work {
    /// A [`RankIndex`](crate::buffers::RankIndex) built.
    IndexBuild,
    /// A q-digest node array sorted into post-order.
    NodeSort,
    /// A q-digest buffer flushed into its nodes, of the digest or a clone.
    Flush,
    /// One sample a union read placed among the other parts, or one GK
    /// tuple a read copied or examined.
    Probe,
}

/// How often each [`Work`] was done.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Counts([u64; 4]);

impl std::ops::Index<Work> for Counts {
    type Output = u64;

    fn index(&self, work: Work) -> &u64 {
        &self.0[work as usize]
    }
}

thread_local! {
    static COUNTS: Cell<[u64; 4]> = const { Cell::new([0; 4]) };
}

/// Counts one `work` on this thread.
pub(crate) fn tick(work: Work) {
    COUNTS.with(|c| {
        let mut counts = c.get();
        counts[work as usize] += 1;
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
