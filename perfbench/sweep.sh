#!/usr/bin/env bash
# Runs the benchmark once per seed on each workload and keeps each run's
# standard output as <out-dir>/<workload>.<seed>.json, the layout that
# `perfbench compare` reads.
#
# usage (from the repository root):
#   perfbench/sweep.sh <out-dir> <seconds> <trace 0|1> <first-seed> <count> [workload...]
set -euo pipefail
if [ $# -lt 5 ]; then
    sed -n '2,7p' "$0" >&2
    exit 2
fi
out=$1 seconds=$2 trace=$3 first=$4 count=$5
shift 5
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
    workloads=(tall wide governed)
fi
mkdir -p "$out"
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml
for w in "${workloads[@]}"; do
    for ((seed = first; seed < first + count; seed++)); do
        cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" \
            >"$out/$w.$seed.json"
        tail -n 1 "$out/$w.$seed.json" | cut -c 1-80
    done
done
