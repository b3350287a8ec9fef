#!/usr/bin/env bash
# Full reproduction pipeline for the quantile study.
#
#   scripts/reproduce.sh            # laptop scale (~30 min)
#   SCALE=paper scripts/reproduce.sh  # n=1e7, 20 trials (hours)
set -euo pipefail
cd "$(dirname "$0")/.."

N=1000000
TRIALS=3
MAXLEN=10000000
if [ "${SCALE:-laptop}" = "paper" ]; then
    N=10000000
    TRIALS=20
    MAXLEN=1000000000
fi

echo "== building =="
cargo build --workspace --release

echo "== tests =="
cargo test --workspace 2>&1 | tee test_output.txt

echo "== experiments (n=$N, trials=$TRIALS) =="
cargo run --release -p sqs-harness --bin sqs-exp -- all \
    --n "$N" --trials "$TRIALS" --max-stream-len "$MAXLEN" --out results

echo "== claim verdicts =="
cargo run --release -p sqs-harness --bin sqs-exp -- claims --out results

# The command BENCHMARK.json declares, run without a workload: every
# workload end to end, result in benchmark/out/ (benchmark/README.md).
# CARGO_TARGET_DIR keeps the build under the root target/.
echo "== benchmark =="
CARGO_TARGET_DIR="$PWD/target/benchmark" \
    cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml --

echo "== examples =="
for e in quickstart network_monitoring sensor_aggregation turnstile_flows sla_tracking; do
    echo "--- $e"
    cargo run --release --example "$e"
done

echo "done; see results/, benchmark/out/, test_output.txt, EXPERIMENTS.md"
