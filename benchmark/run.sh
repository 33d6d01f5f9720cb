#!/usr/bin/env bash
# Builds the benchmark in release mode and runs it.
#
#   run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1]
#       one workload, one pass, in this process: `name value unit` lines,
#       then one JSON object as the last line of standard output
#   run.sh --all [--runs K] [--seed N] [--out FILE]
#       every workload, each run in a process of its own, merged into one
#       results file stamped with commit, nproc, workers, rustc and seeds
#   run.sh --compare A.json B.json
#       one row per workload x end-to-end metric: ok / worse / unresolved
#
# Everything it writes stays inside the checkout: the build goes to
# $CARGO_TARGET_DIR (default .bench_build) and spill files to a tmp
# directory beneath it.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
target="$(cd "$CARGO_TARGET_DIR" && pwd)"
# ehj-storage spills under std::env::temp_dir().
export TMPDIR="$target/tmp"
mkdir -p "$TMPDIR"
export BENCHMARK_BIN="$target/release/benchmark"
# Span files and suite results.
export BENCHMARK_OUT="$target/benchmark"
case "${1:-}" in
    --all | --compare) exec python3 benchmark/suite.py "$@" ;;
    *) exec "$BENCHMARK_BIN" --out-dir "$BENCHMARK_OUT" "$@" ;;
esac
