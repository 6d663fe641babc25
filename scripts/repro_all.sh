#!/usr/bin/env bash
# One-shot reproduction: build, test, and regenerate every paper figure/table.
#
#   scripts/repro_all.sh [output_dir]
#
# Environment:
#   BENCH_SEEDS  repetitions per data point (default 2; the paper uses 3)
#   REPRO_FULL   1 = paper-scale populations and CNN models (hours on a laptop)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
out_dir="${1:-$repo_root/repro_out}"
mkdir -p "$out_dir"
cd "$repo_root"

# No generator is forced: an existing build/ keeps the one it was configured
# with (a different -G would make CMake refuse to reconfigure it).
cmake -B build -S .
cmake --build build
ctest --test-dir build --output-on-failure | tee "$out_dir/tests.log"

cd "$out_dir"
"$repo_root/build/bench/fig3_time_to_accuracy" | tee fig3.log
"$repo_root/build/bench/fig4_edge_count"       | tee fig4.log
"$repo_root/build/bench/fig5_participation"    | tee fig5.log
"$repo_root/build/bench/table1_local_epochs"   | tee table1.log
"$repo_root/build/bench/ablation_mach" --task fmnist | tee ablation_mach.log
"$repo_root/build/bench/ablation_mobility" --task mnist | tee ablation_mobility.log

echo "All outputs in $out_dir"
