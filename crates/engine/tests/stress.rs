//! Multi-thread stress tests for the sharded engine.
//!
//! Each configuration runs `threads == shards` writers, every thread
//! pushing a seeded, reproducible stream through `ingest_batch` in
//! chunks. The round-robin router decides which shard a chunk lands
//! in, so shard contents depend on the schedule; the tests therefore
//! assert only what mergeability guarantees for *any* partition of the
//! stream (see `docs/ENGINE.md`): exact mass, a clean invariant audit
//! of the engine and of every merged snapshot, and answers at every
//! probe quantile within the *single-summary* ε bound of the truth,
//! computed single-threaded from the same streams with
//! `ExactQuantiles`.

use sqs_core::qdigest::QDigest;
use sqs_core::random::RandomSketch;
use sqs_core::sampled::ReservoirQuantiles;
use sqs_core::{MergeableSummary, QuantileSummary};
use sqs_engine::ShardedEngine;
use sqs_util::audit::CheckInvariants;
use sqs_util::exact::{probe_phis, ExactQuantiles};
use sqs_util::rng::Xoshiro256pp;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const PER_THREAD: usize = 50_000;
const BATCH: usize = 512;

/// The seeded stream thread `t` of a `shards`-way run produces.
/// Skewed on purpose: each thread draws from a different-width range so
/// a broken merge (lost shard, double-counted mass) shifts ranks
/// detectably.
fn stream(shards: usize, t: usize) -> Vec<u64> {
    let mut rng = Xoshiro256pp::new(0xE46_1000 + (shards * 100 + t) as u64);
    let width = 1u64 << (20 + (t % 4));
    (0..PER_THREAD).map(|_| rng.next_below(width)).collect()
}

/// Thread `t`'s whole stream, one `ingest_batch` per `batch` rows.
fn write_stream<S>(engine: &ShardedEngine<u64, S>, shards: usize, t: usize, batch: usize)
where
    S: MergeableSummary<u64> + CheckInvariants + Clone,
{
    for chunk in stream(shards, t).chunks(batch) {
        engine.ingest_batch(chunk);
    }
}

/// Largest rank error of `snap` over the probe grid φ = ε, 2ε, …, 1−ε
/// against the exact answer for `all`.
fn max_rank_error<S: QuantileSummary<u64>>(snap: &mut S, all: Vec<u64>, eps: f64) -> f64 {
    let oracle = ExactQuantiles::new(all);
    let mut max_err = 0.0f64;
    for phi in probe_phis(eps) {
        let ans = snap
            .quantile(phi)
            .expect("stress invariant: nonempty snapshot answers");
        max_err = max_err.max(oracle.quantile_error(phi, ans));
    }
    max_err
}

/// Runs the engine concurrently, then checks the merged snapshot
/// against the exact oracle.
fn drive<S, F>(eps: f64, label: &str, make: F)
where
    S: MergeableSummary<u64> + CheckInvariants + Clone + Send + Sync,
    F: Fn(usize) -> S,
{
    for &shards in &SHARD_COUNTS {
        let engine = ShardedEngine::new_with(shards, 0, &make);
        std::thread::scope(|scope| {
            for t in 0..shards {
                let engine = &engine;
                scope.spawn(move || write_stream(engine, shards, t, BATCH));
            }
        });
        let expected_n = (shards * PER_THREAD) as u64;
        assert_eq!(engine.n(), expected_n, "{label}/{shards}: ingested mass");
        engine.assert_invariants();

        let mut snap = engine.snapshot();
        snap.assert_invariants();
        assert_eq!(snap.n(), expected_n, "{label}/{shards}: snapshot mass");

        let all: Vec<u64> = (0..shards).flat_map(|t| stream(shards, t)).collect();
        let max_err = max_rank_error(&mut snap, all, eps);
        assert!(
            max_err <= eps,
            "{label}/{shards} shards: observed max rank error {max_err} > eps {eps}"
        );

        let stats = engine.stats();
        assert_eq!(stats.items, expected_n);
        assert_eq!(
            stats.epoch,
            (shards * PER_THREAD.div_ceil(BATCH)) as u64,
            "{label}/{shards}: one tick per batch"
        );
        assert!(stats.snapshots >= 1);
    }
}

#[test]
fn random_sketch_engine_holds_eps_across_shard_counts() {
    drive(0.05, "Random", |i| {
        RandomSketch::new(0.05, 0xA11CE + i as u64)
    });
}

#[test]
fn qdigest_engine_holds_eps_across_shard_counts() {
    // Universe 2^24 covers the widest per-thread range (2^23).
    drive(0.01, "QDigest", |_| QDigest::new(0.01, 24));
}

#[test]
fn reservoir_engine_stays_near_eps_across_shard_counts() {
    // Reservoir sampling is probabilistic (VC bound, not worst-case):
    // capacity 16/ε² gives failure probability well under 1% per
    // configuration, whichever shard each batch lands in.
    let eps = 0.05;
    drive(eps, "Reservoir", |i| {
        ReservoirQuantiles::with_capacity(6_400, 0xB0B + i as u64)
    });
}

/// More writers than shards, small batches: every fold contends for a
/// shard lock. Checks mass conservation exactly (accuracy is covered
/// above) — at the end, and from an auditor *while the writers run*:
/// `check_invariants` takes the read path's locks, so it sees one state
/// of the engine and has no "mid-fold" excuse. The writers cycle their
/// rows until the auditor has seen them move `AUDITS` times. (Red if a
/// fold's count or tick moves outside the shard guard.)
#[test]
fn contended_round_robin_conserves_mass() {
    const THREADS: u64 = 8;
    const AUDITS: usize = 1_000;
    let engine = ShardedEngine::new_with(2, 0, |i| RandomSketch::new(0.05, 7 + i as u64));
    let audited = AtomicBool::new(false);
    let (written, violation) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (engine, audited) = (&engine, &audited);
                scope.spawn(move || {
                    let mut rng = Xoshiro256pp::new(t);
                    let rows: Vec<u64> = (0..10_000).map(|_| rng.next_below(1 << 16)).collect();
                    let mut written = 0u64;
                    for chunk in rows.chunks(64).cycle() {
                        if written >= 10_000 && audited.load(Ordering::Acquire) {
                            break;
                        }
                        engine.ingest_batch(chunk);
                        written += chunk.len() as u64;
                    }
                    written
                })
            })
            .collect();
        // An audit counts once the writers have moved since the last
        // (and dead writers end the wait: the joins below report them).
        let (mut violation, mut raced, mut last_n) = (None, 0, 0);
        while raced < AUDITS && !writers.iter().all(|w| w.is_finished()) {
            violation = violation.or(engine.check_invariants().err());
            // Keep a cached merge around for `engine.cache_coherence`.
            let _ = engine.quantile(0.5);
            let n = engine.n();
            raced += usize::from(n != last_n);
            last_n = n;
        }
        audited.store(true, Ordering::Release);
        let written = writers
            .into_iter()
            .map(|w| w.join().expect("stress invariant: writers do not panic"));
        (written.sum::<u64>(), violation)
    });
    if let Some(v) = violation {
        panic!("audit racing the writers: {v}");
    }
    assert_eq!(engine.n(), written);
    engine.assert_invariants();
    let snap = engine.snapshot();
    snap.assert_invariants();
    assert_eq!(snap.n(), engine.n());
}

/// Adversarial batch sizes: chosen to never divide the stream lengths
/// (primes, 1, larger than the stream), so single-row folds, ragged
/// last batches and one-batch streams all hit. Mass conservation must
/// be exact and `CheckInvariants` clean.
#[test]
fn adversarial_batch_sizes_conserve_mass() {
    for &batch in &[1usize, 3, 127, 257, 1023, 60_001] {
        let engine = ShardedEngine::new_with(3, 0, |i| RandomSketch::new(0.05, 31 + i as u64));
        for t in 0..3usize {
            write_stream(&engine, 3, t, batch);
        }
        let expected = 3 * PER_THREAD as u64;
        assert_eq!(engine.n(), expected, "batch {batch}: mass conserved");
        assert_eq!(engine.snapshot().n(), expected, "batch {batch}");
        engine.assert_invariants();
    }
}

/// Readers snapshotting *while* writers fold: every mid-flight snapshot
/// must be internally sound (audited), carry a plausible prefix mass,
/// and answer ranks; after the writers join, the final answers must
/// match the oracle within ε.
#[test]
fn snapshots_mid_propagation_are_sound() {
    let eps = 0.05;
    let engine = ShardedEngine::new_with(4, 0, |i| RandomSketch::new(eps, 0x51A9 + i as u64));
    let total: u64 = 4 * PER_THREAD as u64;
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let engine = &engine;
            scope.spawn(move || write_stream(engine, 4, t, 257));
        }
        // Reader thread: hammer snapshots while ingestion runs.
        let engine = &engine;
        scope.spawn(move || {
            let mut last_n = 0u64;
            while engine.n() < total {
                let mut snap = engine.snapshot();
                snap.assert_invariants();
                let n = snap.n();
                assert!(n >= last_n, "snapshot mass went backwards: {last_n} → {n}");
                assert!(n <= total, "snapshot mass {n} exceeds stream total {total}");
                if n > 0 {
                    let med = snap
                        .quantile(0.5)
                        .expect("stress invariant: nonempty snapshot answers");
                    let _ = snap.rank_estimate(med);
                }
                last_n = n;
            }
        });
    });
    engine.assert_invariants();
    let all: Vec<u64> = (0..4).flat_map(|t| stream(4, t)).collect();
    let mut snap = engine.snapshot();
    let max_err = max_rank_error(&mut snap, all, eps);
    assert!(max_err <= eps, "mid-flight run drifted: {max_err} > {eps}");
    assert!(engine.stats().snapshots >= 1);
}

/// Four writers on a **one-shard** engine, all contending for one
/// lock. A racing reader sees the mass only grow, always by whole
/// batches, and once the writers are done a snapshot holds every row.
#[test]
fn same_shard_writers_never_publish_backwards() {
    const WRITERS: u64 = 4;
    const BATCHES: u64 = 100_000;
    const ROWS: u64 = 8;
    let engine = ShardedEngine::new_with(1, 0, |_| RandomSketch::new(0.05, 0x5EED));
    let total = WRITERS * BATCHES * ROWS;
    std::thread::scope(|scope| {
        for t in 0..WRITERS {
            let engine = &engine;
            scope.spawn(move || {
                for b in 0..BATCHES {
                    let lo = (t * BATCHES + b) * ROWS;
                    engine.ingest_batch(&(lo..lo + ROWS).collect::<Vec<_>>());
                }
            });
        }
        let engine = &engine;
        scope.spawn(move || {
            let mut last_n = 0u64;
            while engine.n() < total {
                let n = engine.snapshot().n();
                assert!(n >= last_n, "snapshot mass went backwards: {last_n} → {n}");
                assert_eq!(n % ROWS, 0, "snapshot mass {n} splits a batch");
                last_n = n;
            }
        });
    });
    assert_eq!(engine.n(), total);
    assert_eq!(engine.snapshot().n(), total, "the run ended on a stale cut");
    engine.assert_invariants();
}

/// Cuts are prefixes **across** shards. One writer deals batch `j` —
/// eight copies of `j` — round-robin over four shards whose reservoirs
/// are large enough to keep every row, so a snapshot's sample is the
/// exact multiset it cut. The writer finishes fold `j` before it starts
/// `j + 1`, so a state the engine was in holds the batches `0..m` for
/// some `m` and nothing else; a cut assembled shard by shard could hold
/// batch `j + 1` without batch `j`. The reader hands the writer a
/// budget of `BURST` more folds just before each cut and the writer
/// spins at the end of it, so every cut has folds racing it — on one
/// time-sliced core too. (Red if the read path clones each shard under
/// its own lock in turn instead of under all of them.)
#[test]
fn racing_cuts_are_prefixes_of_the_write_order() {
    const BATCHES: u64 = 2_000;
    const ROWS: u64 = 8;
    const BURST: u64 = 16;
    /// Lifts the writer's budget when the reader is done — or dead: a
    /// failed assertion must not leave the writer spinning.
    struct Unleash<'a>(&'a AtomicU64);
    impl Drop for Unleash<'_> {
        fn drop(&mut self) {
            self.0.store(u64::MAX, Ordering::Release);
        }
    }
    let total = BATCHES * ROWS;
    let engine = ShardedEngine::new_with(4, 0, |i| {
        ReservoirQuantiles::with_capacity(total as usize, 0xC07 + i as u64)
    });
    let assert_prefix = |snap: &mut ReservoirQuantiles<u64>| {
        let len = snap.sample_len() as u64;
        assert_eq!(len, snap.n(), "the reservoir dropped a row");
        assert_eq!(len % ROWS, 0, "cut of {len} rows splits a batch");
        // The i-th smallest sample, for every i: batch i / ROWS.
        let phis: Vec<f64> = (0..len).map(|i| (i as f64 + 0.5) / len as f64).collect();
        for (i, got) in snap.quantiles(&phis).into_iter().enumerate() {
            let want = i as u64 / ROWS;
            assert_eq!(got, Some(want), "{len} rows, but not the first batches");
        }
    };
    let budget = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            for j in 0..BATCHES {
                while j >= budget.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                engine.ingest_batch(&[j; ROWS as usize]);
            }
        });
        let _unleash = Unleash(&budget);
        while engine.n() < total && !writer.is_finished() {
            // One writer: the epoch is the number of batches folded.
            budget.store(engine.stats().epoch + BURST, Ordering::Release);
            assert_prefix(&mut engine.snapshot());
        }
    });
    let mut last = engine.snapshot();
    assert_eq!(last.n(), total);
    assert_prefix(&mut last);
    engine.assert_invariants();
}
