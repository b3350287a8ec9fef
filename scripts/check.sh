#!/usr/bin/env bash
# Local wrapper for the full pre-merge gate: static analysis first
# (cheap, catches drift), then the tier-1 test suite. Mirrors what CI
# runs (.github/workflows/ci.yml); everything is offline.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo xtask check =="
cargo xtask check

# --workspace matters: a bare `cargo build --release` at the root only
# builds the facade crate's dependency closure and never relinks the
# crates/* binaries (sqs-serve, sqs-exp), so a stale bin can mask a
# broken build. The workspace flag forces every member.
echo "== cargo build --release --workspace =="
cargo build --release --workspace

# `xtask check` above ended with `cargo xtask analyze` on this tree;
# the fixture suite proves every pass still recognizes its violations
# (golden diagnostics + clean-tree self-test).
echo "== analyzer fixture tests (cargo test -p sqs-analyze) =="
cargo test -q -p sqs-analyze

# The root package's suite, tests/service_smoke.rs included (real TCP
# server on loopback, concurrent clients, cross-server snapshot merge,
# hostile frames).
echo "== cargo test -q =="
cargo test -q

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

# The post-order COMPRESS against the hash-map walk it replaced, node for
# node (the root suite above does not run sqs-core's unit tests; ~2 s
# optimized, ~30 s unoptimized).
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

# Durable store: WAL/checkpoint unit suite, then the crash-recovery
# smoke test — the real sqs-serve binary is SIGKILLed mid-ingest and
# restarted on the same data directory; every acknowledged batch must
# come back rank-consistent with an exact oracle (docs/STORE.md).
echo "== durable store tests (cargo test -p sqs-store) =="
cargo test -q -p sqs-store

echo "== crash-recovery smoke (cargo test -p sqs-service --test store_recovery) =="
cargo test -q -p sqs-service --test store_recovery

# Windowed quantiles: the ring/rollup unit + boundary suites, then the
# socket-level stress test that checks every sliding/tumbling answer
# against an exact per-window oracle on a ManualClock schedule
# (docs/WINDOW.md).
echo "== window unit + boundary tests (cargo test -p sqs-window) =="
cargo test -q -p sqs-window

echo "== window stress vs exact oracle (cargo test -p sqs-service --test window_stress) =="
cargo test -q -p sqs-service --test window_stress

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
