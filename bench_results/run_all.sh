#!/bin/bash
set -x
export BENCH_SEEDS=5
../build/bench/fig3_time_to_accuracy > fig3.log 2>&1
../build/bench/fig4_edge_count > fig4.log 2>&1
../build/bench/fig5_participation > fig5.log 2>&1
../build/bench/table1_local_epochs > table1.log 2>&1
../build/bench/ablation_mach --task fmnist > ablation.log 2>&1
echo DONE
