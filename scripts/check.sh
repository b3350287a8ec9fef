#!/usr/bin/env bash
# Local wrapper for the full pre-merge gate: static analysis first
# (cheap, catches drift), then the tier-1 test suite. Mirrors what CI
# runs (.github/workflows/ci.yml); everything is offline.
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
cargo test -q --release -p sqs-core --lib checksum_beats_the_byte_serial_reference

# The q-digest's update-time ceiling, a ratio for the same reason: its
# scalar insert against RandomSketch's at the benchmark's `paper_suite`
# shape (<= 5x; ~3x with the post-order COMPRESS of docs/PERF.md
# section 18, ~6x with the level walk before it, 99x with the hash-map
# node store before that).
echo "== q-digest insert ceiling (cargo test --release -p sqs-core scalar_insert_stays) =="
cargo test -q --release -p sqs-core --lib scalar_insert_stays_within_5x_of_random_sketch

# Two more ratios of the same kind (docs/PERF.md section 19): MRL99's
# scalar insert against RandomSketch's at the paper_suite shape (<= 1.6x;
# ~1.2-1.4x now that a COLLAPSE merges its sorted buffers, ~2.1x when it
# sorted their union), and a 99-phi GKAdaptive sweep against one
# quantile (<= 5x; one list walk for the sweep, where the per-phi loop
# walked it 99 times).
echo "== MRL99 insert ceiling and GK sweep ceiling (cargo test --release -p sqs-core) =="
cargo test -q --release -p sqs-core --lib mrl99_insert_stays_within_1_6x_of_random_sketch
cargo test -q --release -p sqs-core --lib gk_sweep_is_one_walk

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
cargo test -q --release -p sqs-core --test batch_fold_floor

# The batched turnstile kernels' floors, ratios too: insert_batch over
# the scalar insert loop (>= 1.2x, DCM and DCS) and rank_signed_batch
# over the rank_signed loop (>= 1.7x DCM, >= 1.3x DCS) at eps 0.01,
# u = 2^32 (docs/PERF.md section 4). Absolute turnstile throughput is
# the benchmark's, compared against the parent commit.
echo "== turnstile batch floors (cargo test --release -p sqs-turnstile --test batch_floor) =="
cargo test -q --release -p sqs-turnstile --test batch_floor

# The window query cache's floor, a ratio too: a sliding-64 query right
# after an insert, its sealed merge cached, costs at most 1/3 of the
# same query right after a rotation, which rebuilds the merge
# (docs/PERF.md section 17; ~0.17 measured, ~0.92 before the cache
# outlived an ingest).
echo "== window query floor (cargo test --release -p sqs-window --test query_floor) =="
cargo test -q --release -p sqs-window --test query_floor

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
