#!/usr/bin/env bash
# End-to-end benchmark entry point (see bench/e2e/README.md). Builds the
# benchmark into .bench_build/e2e at the repository root, then:
#
#   run.sh --workload <name> --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is the JSON result
#   run.sh [--repeat N] [--seed N]
#       every workload, N interleaved untraced sets plus one traced run each;
#       prints each metric's median and quartiles and writes BENCH_e2e.json
#   run.sh --smoke
#       every workload for 3 steps, traced and untraced; checks that each run
#       emits exactly the metrics BENCHMARK.json names
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build/e2e"
log="$build/build.log"

mkdir -p "$build"
if [[ ! -f "$build/CMakeCache.txt" ]]; then
  generator=()
  if command -v ninja > /dev/null; then generator=(-G Ninja); fi
  if ! cmake -S "$here" -B "$build" "${generator[@]}" -DCMAKE_BUILD_TYPE=Release \
      > "$log" 2>&1; then
    tail -n 20 "$log" >&2
    rm -f "$build/CMakeCache.txt"
    echo "run.sh: configuring the benchmark failed (log: $log)" >&2
    exit 1
  fi
fi
if ! cmake --build "$build" --target e2e_bench -j "$(nproc)" >> "$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "run.sh: building the benchmark failed (log: $log)" >&2
  exit 1
fi

case "${1:-}" in
  --workload | --hardware) exec "$build/e2e_bench" "$@" ;;
  *) exec python3 "$here/suite.py" --binary "$build/e2e_bench" \
       --benchmark "$root/BENCHMARK.json" "$@" ;;
esac
