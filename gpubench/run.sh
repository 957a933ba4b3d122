#!/usr/bin/env bash
# Build the gpufreq CLI and the benchmark from this checkout, then run
# one benchmark invocation:
#   bash gpubench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash gpubench/run.sh compare BENCHMARK.json <base results> <new results>
# Build output goes to $CARGO_TARGET_DIR (default: target/).
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-target}"
mkdir -p "$target"
export CARGO_TARGET_DIR="$(cd "$target" && pwd)"
cargo build --release --offline --quiet -p gpufreq-cli --bin gpufreq >&2
cargo build --release --offline --quiet --manifest-path gpubench/Cargo.toml >&2
bench="$CARGO_TARGET_DIR/release/gpubench"
if [ "${1:-}" = compare ]; then
    exec "$bench" "$@"
fi
exec "$bench" --gpufreq "$CARGO_TARGET_DIR/release/gpufreq" \
    --work "$CARGO_TARGET_DIR/gpubench-work/$$" "$@"
