#!/usr/bin/env bash
# Byte-identity gate for the simulated backend: `ehjoin compare --format
# csv` at five fixed settings must reproduce the CSVs beside this script
# exactly. Every simulated figure a change could move (phase times,
# matches, node counts, extra chunks, network bytes, trace events) is a
# column there, so a change that moves one must re-record the goldens
# with `--record` and say in its description which columns moved and why.
# The `figures` binary beside the given `ehjoin` must likewise reproduce
# `figures-scale-100.txt` (`figures all --scale 100`: every simulated
# figure table and shape check, each figure's out-of-core column included),
# and `ehjoin service --scale 2000 --format csv` must reproduce
# `service-scale-2000.csv` (eight queries, each alone in its own engine).
#
# Usage: tests/golden/check.sh [--record] [path/to/ehjoin]
# (default binary: target/release/ehjoin; build it and `figures` with
# `cargo build --release` first).
set -euo pipefail

dir=$(cd "$(dirname "$0")" && pwd)
record=0
if [[ "${1:-}" == "--record" ]]; then
    record=1
    shift
fi
bin=${1:-target/release/ehjoin}
figures="$(dirname "$bin")/figures"

# name|arguments
settings=(
    "scale-1000|--scale 1000"
    "scale-100|--scale 100"
    "scale-100-zipf-0.9-hot-keys|--scale 100 --zipf 0.9 --hot-keys"
    "sigma-0.0001|--sigma 0.0001"
    "scale-2000|--scale 2000"
)

status=0
for setting in "${settings[@]}"; do
    name=${setting%%|*}
    read -ra args <<< "${setting#*|}"
    golden="$dir/compare-$name.csv"
    if (( record )); then
        "$bin" compare "${args[@]}" --format csv > "$golden"
        echo "recorded $golden"
    elif diff -u "$golden" <("$bin" compare "${args[@]}" --format csv); then
        echo "ok: compare ${args[*]}"
    else
        echo "MISMATCH: compare ${args[*]} differs from $golden" >&2
        status=1
    fi
done

golden="$dir/service-scale-2000.csv"
if (( record )); then
    "$bin" service --scale 2000 --format csv > "$golden"
    echo "recorded $golden"
elif diff -u "$golden" <("$bin" service --scale 2000 --format csv); then
    echo "ok: service --scale 2000"
else
    echo "MISMATCH: service --scale 2000 differs from $golden" >&2
    status=1
fi

golden="$dir/figures-scale-100.txt"
if (( record )); then
    "$figures" all --scale 100 > "$golden"
    echo "recorded $golden"
elif diff -u "$golden" <("$figures" all --scale 100); then
    echo "ok: figures all --scale 100"
else
    echo "MISMATCH: figures all --scale 100 differs from $golden" >&2
    status=1
fi
exit "$status"
