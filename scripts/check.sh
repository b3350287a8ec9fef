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
# Here too run the read paths' work counts, which stand where timing
# floors stood: a sparse pool sweep builds no rank index and probes
# each side of its cuts, a dense one builds one; a cold q-digest read
# sorts no nodes and flushes nothing; a 99-phi GK sweep visits each
# tuple at most once; a dyadic phi-sweep reads one cell per node per
# depth (sqs-turnstile's a_sweep_reads_one_cell_per_node_per_depth, at
# paper_suite's DCS grid and turnstile_mix's 4-shard summed read); a
# window union read clones nothing and indexes
# each part once; and window_mix's request mix at library level stays
# within eps. The engine has its own single-threaded step below (its
# clone counts among them).
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

# The five kernel speed gates, ratios so they hold on any machine, on
# one shared timer (sqs_util::timing::alternate: the two sides of each
# ratio alternated, the ratio of their best rounds gated): the frame
# checksum against the byte-serial sum it replaced (>= 8x on a 32 KiB
# batch frame, <= 1.5x its time on a 28-byte reply); the q-digest's and
# MRL99's scalar insert against RandomSketch's at the paper_suite shape
# (<= 5x, <= 1.6x); Random's sampled batch fold against its scalar loop
# at eps 0.01 past 2^22 rows (>= 8x; an integration test, since the
# lib's cfg(test) build audits every batch); and the turnstile batch
# kernels against their scalar loops at eps 0.01, u = 2^32 (insert
# >= 1.2x DCM and DCS, rank >= 1.7x DCM, >= 1.3x DCS). Only optimized
# code means anything, so the debug runs above report them as ignored.
# One test at a time: a timing beside another measures both. Each gate
# prints `name ratio bound margin` and its median ratio. The read paths'
# gates count work instead of timing it (sqs-core's cfg(test) counters,
# the engine's and the window's clone and index counts) and ran in the
# debug workspace step above; docs/PERF.md names them.
echo "== kernel speed gates (cargo test --release, one test at a time) =="
cargo test -q --release -p sqs-core -p sqs-turnstile --lib \
    --test batch_fold_floor --test batch_floor -- --nocapture --test-threads=1 \
    checksum_beats_the_byte_serial_reference scalar_insert_stays_within_5x_of_random_sketch \
    mrl99_insert_stays_within_1_6x_of_random_sketch insert_batch_is_8x_faster \
    batched_kernels_keep_their_speedup

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
