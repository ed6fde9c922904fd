#!/usr/bin/env bash
# The benchmark's one entry point, run from anywhere:
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#       one run; the last stdout line is the result (the BENCHMARK.json command)
#   benchmark/run.sh --seed <n> --repeat <n> [--sets <k>] [--quick] [--workload <name>] [--trace-check]
#       spread report over repeated runs (see spread.py)
#
# Builds --release once per invocation (a no-op when fresh) into
# $CARGO_TARGET_DIR, or benchmark/target when that is unset. Each run keeps
# its WAL directories under benchmark/out/ and removes them when it ends.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin_dir="${CARGO_TARGET_DIR:-benchmark/target}/release"

trace=0
single=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" ]]; then
        single=1
        trace="${args[i + 1]:-0}"
    fi
done

if ((single)); then
    if [[ "$trace" == "1" ]]; then
        exec "$bin_dir/tetrabft-benchmark-trace" "$@"
    fi
    exec "$bin_dir/tetrabft-benchmark" "$@"
fi
exec python3 benchmark/spread.py --bin-dir "$bin_dir" "$@"
