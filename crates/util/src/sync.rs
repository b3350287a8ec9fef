//! [`OrderedMutex`] — a mutex that enforces a lock order at runtime in
//! debug builds.
//!
//! The static lock-discipline pass (`sqs-analyze`, rule `SQS-L01` — see
//! `docs/ANALYSIS.md`) forbids taking a lock under another guard, but
//! leaves shard-over-shard to this type: the engine's read path — every
//! snapshot-cache miss, and the invariant audit — holds *all* its shard
//! locks at once, taken by a runtime loop. `OrderedMutex` checks that
//! order dynamically: every mutex carries a
//! `(domain, rank)` pair, a thread-local stack records which pairs the
//! current thread holds, and a debug-build acquisition whose rank is
//! not **strictly above** every held rank in the same domain panics on
//! the spot. An ordering bug therefore fails deterministically in any
//! single-threaded test that exercises the path, instead of deadlocking
//! probabilistically once two threads race.
//!
//! * **Domains** partition the lock universe: each [`ShardedEngine`]
//!   allocates one via [`next_domain`], so locks of unrelated engines
//!   (or engine locks vs. service locks) never constrain each other.
//! * **Ranks** order locks within a domain: the engine uses the shard
//!   index, making "shard locks only in ascending order" a machine-
//!   checked rule rather than a comment — checked on every cut a
//!   debug-build test takes.
//! * Re-entrant acquisition is a rank-not-above-itself violation, so
//!   self-deadlock panics too.
//!
//! Release builds skip the bookkeeping entirely — [`OrderedMutex::lock`]
//! compiles down to a plain [`Mutex::lock`], so the checker costs
//! nothing on the ingest hot path.
//!
//! [`ShardedEngine`]: https://docs.rs/sqs-engine

#[cfg(debug_assertions)]
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{LockResult, Mutex, MutexGuard, PoisonError};

static NEXT_DOMAIN: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh lock-ordering domain. Locks in different domains
/// never constrain each other; locks sharing a domain must be acquired
/// in strictly ascending [`rank`](OrderedMutex::rank) order.
pub fn next_domain() -> u64 {
    NEXT_DOMAIN.fetch_add(1, Ordering::Relaxed)
}

#[cfg(debug_assertions)]
thread_local! {
    /// `(domain, rank)` pairs currently held by this thread, in
    /// acquisition order.
    static HELD: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// RAII registration of one held `(domain, rank)` pair on the current
/// thread; dropping it (when the guard drops) unregisters the pair.
#[cfg(debug_assertions)]
#[derive(Debug)]
struct HeldEntry {
    domain: u64,
    rank: usize,
}

#[cfg(debug_assertions)]
impl Drop for HeldEntry {
    fn drop(&mut self) {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            // Guards usually die LIFO but nothing forces it; remove the
            // most recent matching entry rather than assuming the top.
            if let Some(i) = held
                .iter()
                .rposition(|&(d, r)| d == self.domain && r == self.rank)
            {
                held.remove(i);
            }
        });
    }
}

/// A [`Mutex`] wearing a `(domain, rank)` badge that debug builds use
/// to detect lock-order violations at the moment of acquisition.
///
/// See the [module docs](self) for the ordering rule. Poisoning works
/// exactly like [`Mutex`]: [`lock`](Self::lock) returns the guard
/// inside [`PoisonError`] when a holder panicked, and
/// [`clear_poison`](Self::clear_poison) re-arms the mutex once the
/// caller has validated (or repaired) the protected state.
#[derive(Debug)]
pub struct OrderedMutex<T> {
    domain: u64,
    rank: usize,
    inner: Mutex<T>,
}

impl<T> OrderedMutex<T> {
    /// Wraps `value` in a mutex badged with `(domain, rank)`.
    pub fn new(domain: u64, rank: usize, value: T) -> Self {
        Self {
            domain,
            rank,
            inner: Mutex::new(value),
        }
    }

    /// The ordering domain this mutex belongs to.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// This mutex's rank within its domain.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Registers the acquisition with the thread-local held-lock stack,
    /// panicking on an ordering violation. Returns the RAII entry that
    /// unregisters on drop.
    #[cfg(debug_assertions)]
    fn register(&self) -> HeldEntry {
        HELD.with(|h| {
            let mut held = h.borrow_mut();
            if let Some(&(_, r)) = held
                .iter()
                .find(|&&(d, r)| d == self.domain && r >= self.rank)
            {
                panic!(
                    "lock order violation: acquiring rank {} in domain {} while rank {r} \
                     is held — same-domain locks must be taken in strictly ascending \
                     rank order",
                    self.rank, self.domain
                );
            }
            held.push((self.domain, self.rank));
        });
        HeldEntry {
            domain: self.domain,
            rank: self.rank,
        }
    }

    /// Acquires the mutex, blocking the current thread.
    ///
    /// # Panics
    /// In debug builds, panics (message contains `lock order`) if this
    /// thread already holds a same-domain lock of rank `>=` this one —
    /// including this very mutex (re-entrant self-deadlock).
    pub fn lock(&self) -> LockResult<OrderedMutexGuard<'_, T>> {
        #[cfg(debug_assertions)]
        let held = self.register();
        match self.inner.lock() {
            Ok(inner) => Ok(OrderedMutexGuard {
                inner,
                #[cfg(debug_assertions)]
                _held: held,
            }),
            Err(poisoned) => Err(PoisonError::new(OrderedMutexGuard {
                inner: poisoned.into_inner(),
                #[cfg(debug_assertions)]
                _held: held,
            })),
        }
    }

    /// Whether a previous holder panicked with the lock held.
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }

    /// Clears the poison flag, so subsequent [`lock`](Self::lock) calls
    /// succeed again. Call only after validating the protected state.
    pub fn clear_poison(&self) {
        self.inner.clear_poison();
    }
}

/// The guard returned by [`OrderedMutex::lock`]; releases the mutex —
/// and, in debug builds, the thread-local order registration — on drop.
#[derive(Debug)]
pub struct OrderedMutexGuard<'a, T> {
    inner: MutexGuard<'a, T>,
    #[cfg(debug_assertions)]
    _held: HeldEntry,
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guards_read_and_write_the_value() {
        let d = next_domain();
        let m = OrderedMutex::new(d, 0, 41u64);
        assert_eq!(m.domain(), d);
        assert_eq!(m.rank(), 0);
        *m.lock().expect("unpoisoned") += 1;
        assert_eq!(*m.lock().expect("unpoisoned"), 42);
    }

    #[test]
    fn ascending_ranks_nest_freely() {
        let d = next_domain();
        let a = OrderedMutex::new(d, 0, 1u64);
        let b = OrderedMutex::new(d, 1, 2u64);
        let c = OrderedMutex::new(d, 7, 3u64);
        let ga = a.lock().expect("unpoisoned");
        let gb = b.lock().expect("unpoisoned");
        let gc = c.lock().expect("unpoisoned");
        assert_eq!(*ga + *gb + *gc, 6);
    }

    #[test]
    fn different_domains_do_not_constrain_each_other() {
        let a = OrderedMutex::new(next_domain(), 9, ());
        let b = OrderedMutex::new(next_domain(), 0, ());
        let _ga = a.lock().expect("unpoisoned");
        // Lower rank, but a different domain — legal.
        let _gb = b.lock().expect("unpoisoned");
    }

    #[test]
    fn dropping_a_guard_unregisters_it() {
        let d = next_domain();
        let hi = OrderedMutex::new(d, 5, ());
        let lo = OrderedMutex::new(d, 1, ());
        drop(hi.lock().expect("unpoisoned"));
        // Rank 5 released → rank 1 is not an ordering violation.
        drop(lo.lock().expect("unpoisoned"));
        // And re-acquiring after release is not re-entrancy.
        assert!(lo.lock().is_ok());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock order")]
    fn descending_ranks_panic() {
        let d = next_domain();
        let hi = OrderedMutex::new(d, 3, ());
        let lo = OrderedMutex::new(d, 2, ());
        let _ghi = hi.lock().expect("unpoisoned");
        let _glo = lo.lock();
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "lock order")]
    fn reentrant_acquisition_panics() {
        let m = OrderedMutex::new(next_domain(), 0, ());
        let _g1 = m.lock().expect("unpoisoned");
        let _g2 = m.lock(); // would self-deadlock on a plain Mutex
    }

    #[test]
    fn poison_is_recoverable() {
        let m = OrderedMutex::new(next_domain(), 0, 7u64);
        let caught = std::thread::scope(|s| {
            s.spawn(|| {
                let _g = m.lock().expect("not yet poisoned");
                panic!("holder dies");
            })
            .join()
        });
        assert!(caught.is_err(), "holder panic must propagate to join");
        assert!(m.is_poisoned());
        let g = m.lock().unwrap_or_else(PoisonError::into_inner);
        assert_eq!(*g, 7, "state survives the holder's panic");
        drop(g);
        m.clear_poison();
        assert!(!m.is_poisoned());
        assert!(m.lock().is_ok(), "cleared mutex locks cleanly again");
    }
}
