#!/usr/bin/env bash
# perfbench — build once, then measure.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload (the form BENCHMARK.json's `command` uses);
#       the last line of standard output is the result object.
#
#   benchmark/run.sh [--seed <n>] [--seconds <s>] [--repeat <k>]
#       every workload, one process each: the end-to-end run, then the
#       traced run. With --repeat k the whole set runs k times and the last
#       two sets are compared against the bounds in BENCHMARK.json
#       (non-zero exit if a metric falls outside its bound or an exact
#       counter differs).
#
# Run it from the repository root. Building needs the repository's crates:
# in a directory that holds only BENCHMARK.json and benchmark/, cargo fails
# and so does this script.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Build output goes to stderr so standard output stays the run's own.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/perfbench"

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$bin" "$@"
    fi
done

seed=1
seconds=20
repeat=1
while [[ $# -gt 0 ]]; do
    case "$1" in
        --seed) seed="$2" ;;
        --seconds) seconds="$2" ;;
        --repeat) repeat="$2" ;;
        *) echo "run.sh: unknown option $1" >&2; exit 2 ;;
    esac
    shift 2
done

workloads=(spmm_tc_exec irregular_exec coldstart_tune serve_small_mix)
out=benchmark/out
for ((set = 1; set <= repeat; set++)); do
    mkdir -p "$out/set-$set"
    for w in "${workloads[@]}"; do
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
            | tee "$out/set-$set/$w-e2e.json"
        "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 1 \
            | tee "$out/set-$set/$w-layers.json"
    done
done

if ((repeat >= 2)); then
    "$bin" compare BENCHMARK.json "$out/set-$((repeat - 1))" "$out/set-$repeat"
fi
