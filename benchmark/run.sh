#!/usr/bin/env bash
# Builds the benchmark (release) and runs every workload, each in its own
# process, untraced (end-to-end metrics) and then traced (per-layer metrics).
#
#   benchmark/run.sh [--quick] [--seed N] [--seconds S]
#   benchmark/run.sh --agree [...]      run both passes twice with the same
#                                       seed; fail if an end-to-end metric
#                                       differs by more than its bound or an
#                                       exact count differs at all
#   benchmark/run.sh --spread N [...]   N untraced runs per workload, seeds
#                                       1..N; print each metric's run-to-run
#                                       spread against its bound
#
# Results land in benchmark/out/<set>/<workload>.<pass>[.<seed>].json.
set -euo pipefail
cd "$(dirname "$0")/.."

mode=run
runs=0
pass_through=()
seed=1
while (($#)); do
    case "$1" in
        --agree) mode=agree ;;
        --spread) mode=spread; runs="$2"; shift ;;
        --seed) seed="$2"; shift ;;
        *) pass_through+=("$1") ;;
    esac
    shift
done

bench=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
cargo build --release --offline --manifest-path benchmark/Cargo.toml
mapfile -t workloads < <("${bench[@]}" workloads)
out=benchmark/out

# run_set <set> <seed> <passes...>: every workload, the given passes.
run_set() {
    local set="$1" seed="$2"
    shift 2
    mkdir -p "$out/$set"
    for w in "${workloads[@]}"; do
        for trace in "$@"; do
            local pass=untraced
            ((trace)) && pass=traced
            "${bench[@]}" --workload "$w" --seed "$seed" --trace "$trace" \
                --json "$out/$set/$w.$pass.$seed.json" "${pass_through[@]}" | grep -v '^{"correct"'
            echo
        done
    done
}

case "$mode" in
    run) run_set latest "$seed" 0 1 ;;
    agree)
        rm -rf "$out/agree-a" "$out/agree-b"
        run_set agree-a "$seed" 0 1
        run_set agree-b "$seed" 0 1
        "${bench[@]}" compare "$out/agree-a" "$out/agree-b"
        ;;
    spread)
        rm -rf "$out/spread"
        for s in $(seq 1 "$runs"); do run_set spread "$s" 0 >/dev/null; done
        "${bench[@]}" spread "$out/spread"
        ;;
esac
