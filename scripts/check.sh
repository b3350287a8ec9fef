#!/usr/bin/env bash
# The full pre-merge gate: static analysis first (cheap, catches
# drift), then the tier-1 test suite. CI's test job runs this script
# (.github/workflows/ci.yml), so this is the one list of gates;
# everything is offline.
set -euo pipefail
cd "$(dirname "$0")/.."

# fmt, the clippy deny-list (unwrap_used, allow_attributes_without_reason,
# and -D warnings, which fails a module's stale #![expect]) and the
# analyzer's rules rustc and clippy cannot state (SQS-P02, SQS-L01,
# SQS-L03). unsafe_code needs no step: every manifest forbids it, so the
# builds below refuse it in every target.
echo "== cargo xtask check =="
cargo xtask check

# --workspace matters: a bare `cargo build --release` at the root only
# builds the facade crate's dependency closure and never relinks the
# crates/* binaries (sqs-serve, sqs-exp), so a stale bin can mask a
# broken build. The workspace flag forces every member.
echo "== cargo build --release --workspace =="
cargo build --release --workspace

# The root package's suite, tests/service_smoke.rs included (real TCP
# server on loopback, concurrent clients, cross-server snapshot merge,
# hostile frames) and tests/conformance.rs (the served-summary
# contract).
echo "== cargo test -q =="
cargo test -q

# Every member's own tests in debug: the analyzer's fixtures (every kept
# rule still recognizes its violations), its clean-tree self-test and the
# check that every manifest forbids unsafe_code, sqs-core's
# and the turnstile's suites, the durable store (WAL + checkpoints), the
# crash-recovery smoke (the real sqs-serve binary SIGKILLed mid-ingest
# and restarted on the same data directory; every acknowledged batch
# must come back rank-consistent with an exact oracle, docs/STORE.md),
# the window ring and the socket-level window stress test against an
# exact per-window oracle on a ManualClock schedule (docs/WINDOW.md).
# The engine has its own single-threaded step below.
echo "== workspace tests (cargo test --workspace --exclude sqs-engine) =="
cargo test -q --workspace --exclude sqs-engine

# The same suite with the hot-path audits compiled into the library
# crates (they are cfg(test) only inside each crate's own unit tests):
# every power-of-two update re-checks the structure, so an invariant
# such as dyadic.sketch_level_mass fires on the integration tests'
# streams, not just on a decoded frame.
echo "== cargo test -q --features audit =="
cargo test -q --features audit

# The paper's 16 qualitative claims against the committed results/
# CSVs; exits non-zero unless every verdict is PASS. (The CSVs' space
# columns are held to this tree by a harness unit test,
# committed_fig10c_space_is_this_trees.)
echo "== sqs-exp claims (16 PASS against results/) =="
cargo run --release --quiet -p sqs-harness --bin sqs-exp -- claims

# The frame checksum's speed floor is a ratio against the byte-serial
# sum it replaced (>= 8x on a 32 KiB batch frame, <= 1.5x its time on a
# 28-byte reply), so it holds on any machine — but only optimized code
# means anything, and the debug run above reports it as ignored.
echo "== frame checksum speed floor (cargo test --release -p sqs-core checksum_beats) =="
cargo test -q --release -p sqs-core --lib checksum_beats_the_byte_serial_reference -- --nocapture

# The q-digest's update-time ceiling, a ratio for the same reason: its
# scalar insert against RandomSketch's at the benchmark's `paper_suite`
# shape (<= 5x; ~3x with the nodes stored in post-order, docs/PERF.md
# section 22, as with the post-order COMPRESS of section 18 that sorted
# them per pass; ~6x with the level walk before it, 99x with the
# hash-map node store before that). And its read ceiling: a cold 99-phi
# grid right after a flush at the same shape against that flush (<= 0.5x;
# ~0.05-0.07x reading the stored order, ~1.4x when every cold read
# sorted the nodes into post-order). And the unflushed read's ceiling:
# a cold 99-phi grid on the digest as inserts left it, buffer and all,
# against a flush by node_count() and the same grid (<= 0.4x; ~0.2-0.3x
# counting the buffer by bucket, ~1.0x when the read flushed).
echo "== q-digest insert and read ceilings (cargo test --release -p sqs-core) =="
cargo test -q --release -p sqs-core --lib scalar_insert_stays_within_5x_of_random_sketch -- --nocapture
cargo test -q --release -p sqs-core --lib cold_grid_costs_at_most_half_a_flush -- --nocapture
cargo test -q --release -p sqs-core --lib unflushed_cold_grid_costs_at_most_0_4x_a_flushed_one -- --nocapture

# Two more ratios of the same kind (docs/PERF.md section 19): MRL99's
# scalar insert against RandomSketch's at the paper_suite shape (<= 1.6x;
# ~1.2-1.4x now that a COLLAPSE merges its sorted buffers, ~2.1x when it
# sorted their union), and a 99-phi GKAdaptive sweep against one
# quantile (<= 5x; one list walk for the sweep, where the per-phi loop
# walked it 99 times).
echo "== MRL99 insert ceiling and GK sweep ceiling (cargo test --release -p sqs-core) =="
cargo test -q --release -p sqs-core --lib mrl99_insert_stays_within_1_6x_of_random_sketch -- --nocapture
cargo test -q --release -p sqs-core --lib gk_sweep_is_one_walk -- --nocapture

# The pool read's two ceilings, ratios printed (docs/PERF.md section 25):
# at paper_suite's shape (eps 1e-3, 2^19 uniform rows) a cold 99-phi
# Random or MRL99 sweep, which searches the buffers in place, against one
# rank index over them and a lookup per phi, the read it replaced (<= 0.5x;
# ~0.35x, ~1.0x building the index per sweep); and a 999-phi sweep, past
# the crossover where the pool builds that index again (<= 1.1x; ~1.0x,
# ~1.3-2x if it searched every phi in place). One process each: the two
# timings would measure each other.
echo "== pool read ceilings (cargo test --release -p sqs-core sweep_costs) =="
cargo test -q --release -p sqs-core --lib searched_sweep_costs_at_most_half_one_index -- --nocapture
cargo test -q --release -p sqs-core --lib dense_sweep_costs_at_most_1_1x_one_index -- --nocapture

# The post-order COMPRESS against the hash-map walk it replaced, node for
# node (~2 s optimized; the workspace step above also ran it
# unoptimized, ~30 s).
echo "== q-digest COMPRESS oracle (cargo test --release -p sqs-core compress_matches) =="
cargo test -q --release -p sqs-core --lib compress_matches_the_hash_map_oracle

# The sampled fold's floor, a ratio again: once Random keeps one row in
# 2^l, insert_batch steps over the rows it was never going to keep, so
# at eps 0.01 past 2^22 rows a 4096-row batch must cost at most 1/8 of
# the scalar loop per row (~60x on the box that recorded docs/PERF.md
# section 11, ~1x before). An integration test: the lib's own cfg(test)
# build audits every batch.
echo "== sampled fold floor (cargo test --release -p sqs-core --test batch_fold_floor) =="
cargo test -q --release -p sqs-core --test batch_fold_floor -- --nocapture

# The batched turnstile kernels' floors, ratios too: insert_batch over
# the scalar insert loop (>= 1.2x, DCM and DCS) and rank_signed_batch
# over the rank_signed loop (>= 1.7x DCM, >= 1.3x DCS) at eps 0.01,
# u = 2^32 (docs/PERF.md section 4). Absolute turnstile throughput is
# the benchmark's, compared against the parent commit.
echo "== turnstile batch floors (cargo test --release -p sqs-turnstile --test batch_floor) =="
cargo test -q --release -p sqs-turnstile --test batch_floor -- --nocapture

# The window read's floor, a ratio too: at window_mix's shape a
# sliding-64 query right after a rotation, read as one union of its
# parts' rank indexes, costs at most 1/3 of clone + merge_tree + sweep
# of the same parts from a state-identical mirror (docs/PERF.md section
# 21; ~0.23-0.29 measured, ~1.0 on the merging ring before it). The same
# file's library loop of window_mix's request mix prints the per-spec
# query means and holds its last answers within eps of an exact mirror.
echo "== window query floor (cargo test --release -p sqs-window --test query_floor) =="
cargo test -q --release -p sqs-window --test query_floor -- --nocapture

# The engine's cold-read floors, ratios too, printed: at ingest_mem's
# shape (4 shards, eps 0.01, 2^24 rows per shard, 64 batches of 4096
# rows between reads) a cold query_many, which indexes the shards' fills
# and now and then their stable runs, costs at most 1/2 of clone +
# merge_tree + sweep of the same shards, the read it replaced
# (docs/PERF.md section 20; ~0.34 measured); at turnstile_mix's shape
# (dcs(0.01, 24), one seed, 8 batches between reads) a cold DCS
# query_many, which sums the shards' cells under their locks, costs at
# most 0.7 of it (section 23; ~0.44 measured, ~1.35 on the merging read).
echo "== engine read floors (cargo test --release -p sqs-engine --test read_floor) =="
cargo test -q --release -p sqs-engine --test read_floor -- --nocapture

# The engine's stress tests spawn up to 8 writer threads per test (plus
# a racing reader or auditor); a single-threaded test runner keeps them
# from oversubscribing the host. Which shard a batch lands in depends on
# the schedule, so the tests assert only what holds for any partition —
# and, since every cut is taken under all shard locks, that a racing
# snapshot is always a state the engine was in (whole batches, prefixes
# of the write order, invariants clean mid-run). A debug build on
# purpose: OrderedMutex then checks the ascending acquisition on every
# cut. RUSTFLAGS promotes warnings so the crate stays warning-clean even
# where clippy's --lib/--bins gate can't see (integration tests).
echo "== engine stress (cargo test -p sqs-engine, single-threaded runner) =="
RUSTFLAGS="${RUSTFLAGS:--D warnings}" cargo test -q -p sqs-engine -- --test-threads=1

# The benchmark (benchmark/README.md, BENCHMARK.json) is a package of
# its own that the workspace commands above never build: run its unit
# tests (oracle, trace, JSON, catalogue == BENCHMARK.json) and two
# seconds of every catalogued workload — `query_mix`, `ingest_mem` (the
# write path: every frame sealed and verified on both hops),
# `turnstile_mix` (the DCS backend), `window_mix` (the ring on a virtual
# clock) and `paper_suite` (the only workload that runs GK, MRL99, the
# q-digest and the scalar entry points) — each of which exits non-zero
# if a single operation fails its exact-oracle check, so a change under
# crates/ cannot reach the benchmark driver with a workload that does
# not build or answers wrongly. CARGO_TARGET_DIR keeps the build under
# the root target/ so no benchmark/target/ appears.
echo "== benchmark self-tests + a 2 s smoke of all five workloads =="
CARGO_TARGET_DIR="$PWD/target/benchmark" \
    cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
for workload in query_mix ingest_mem turnstile_mix window_mix paper_suite; do
    CARGO_TARGET_DIR="$PWD/target/benchmark" \
        cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 >/dev/null
done

echo "== all checks passed =="
