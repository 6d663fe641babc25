#!/usr/bin/env bash
# One-command verification pipeline: configure, build, run the tier-1 test
# suite, then smoke-check the telemetry tooling. Usable locally and from any
# CI runner:
#
#   ./scripts/ci.sh              # build into ./build (default)
#   BUILD_DIR=ci-build ./scripts/ci.sh
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

echo "== configure =="
# compile_commands.json lists every object's flags for the ISA object guard.
# -Werror: every repository file must compile without a warning under the
# default -Wall -Wextra (CMakeLists.txt keeps those flags warning-only).
cmake -B "$BUILD_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DCMAKE_CXX_FLAGS=-Werror

echo "== build (-j$JOBS, warnings are errors) =="
cmake --build "$BUILD_DIR" -j "$JOBS"

# The AVX2/AVX-512 kernel variants are compiled with wider -m flags than the
# rest of the program (DESIGN.md §9). A weak (W/V) or unique (u) symbol in
# one of those objects — an inline function or template instantiation the
# linker may pick for every caller — would run AVX-512 code on any CPU and
# die with SIGILL where the ISA is missing. They may define only local
# symbols and their variant table. The objects are every one whose compile
# command (compile_commands.json) carries an instruction-set flag past the
# x86-64 baseline, so a kernel in a new translation unit is covered too.
isa_objects() {
  python3 - "$1/compile_commands.json" <<'PY'
import json, os, re, shlex, sys
wider = re.compile(r"-m(avx|sse[34]|ssse3|fma|f16c|bmi|lzcnt|popcnt|arch=)")
for entry in json.load(open(sys.argv[1])):
    args = entry.get("arguments") or shlex.split(entry["command"])
    if any(wider.match(arg) for arg in args):
        print(os.path.join(entry["directory"], args[args.index("-o") + 1]))
PY
}

check_isa_objects() {
  local dir="$1" objects
  objects="$(isa_objects "$dir" | sort)"
  if [ -z "$objects" ]; then
    if [ "$(uname -m)" = x86_64 ]; then
      echo "no ISA-specific kernel objects under $dir"; exit 1
    fi
    return 0
  fi
  local obj leaked
  for obj in $objects; do
    leaked="$(nm -C "$obj" | awk '$2 ~ /^[WVu]$/')"
    if [ -n "$leaked" ]; then
      echo "ISA object $obj defines weak/unique symbols:"
      echo "$leaked"
      exit 1
    fi
  done
}

echo "== ISA object guard =="
check_isa_objects "$BUILD_DIR"

echo "== tier-1 tests =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS"

echo "== telemetry smoke =="
# Only run_end carries wall time (its phase totals): a trace recorded at one
# thread and one at four must match byte for byte once that line is dropped.
# The --phase_times table must name all six phases.
"$BUILD_DIR/tools/trace_summary" --help > /dev/null
trace="$(mktemp -t hfl_trace_XXXXXX.jsonl)"
trace4="$(mktemp -t hfl_trace4_XXXXXX.jsonl)"
trap 'rm -f "$trace" "$trace4"' EXIT
phase_table="$("$BUILD_DIR/examples/experiment_runner" \
  --devices 8 --edges 2 --steps 10 --local_epochs 2 --threads 1 \
  --trace "$trace" --phase_times)"
for phase in sampler_decision device_training edge_aggregation \
  cloud_aggregation evaluation checkpoint; do
  grep -q "| $phase " <<< "$phase_table"
done
"$BUILD_DIR/examples/experiment_runner" \
  --devices 8 --edges 2 --steps 10 --local_epochs 2 --threads 4 \
  --trace "$trace4" > /dev/null
cmp <(grep -v '^{"event":"run_end"' "$trace") \
  <(grep -v '^{"event":"run_end"' "$trace4")
"$BUILD_DIR/tools/trace_summary" "$trace" > /dev/null
# A faulted int8 world with ~160 arrivals per step: the 4-worker run trains
# and reduces several times per step (16 arrivals per worker), the
# one-worker run after every edge; the traces must still match.
flush_args=(--devices 400 --edges 8 --steps 10 --local_epochs 1 --codec int8
  --faults 'dropout:p=0.1;straggler:p=0.2,timeout=1.5;edge_outage:edge=0,from=2,to=4')
"$BUILD_DIR/examples/experiment_runner" "${flush_args[@]}" --threads 1 \
  --trace "$trace" > /dev/null
"$BUILD_DIR/examples/experiment_runner" "${flush_args[@]}" --threads 4 \
  --trace "$trace4" > /dev/null
cmp <(grep -v '^{"event":"run_end"' "$trace") \
  <(grep -v '^{"event":"run_end"' "$trace4")

echo "== kernels microbench =="
# Every row's production kernel must agree with its reference bit for bit:
# the bench exits nonzero on a mismatch. Three runs at 20 ms per timing point
# (~15 s each on the 4-core Xeon) feed the perf gate below; the committed
# BENCH_kernels.json comes from one full-budget run (default --min_ms).
kernels_dir="$(mktemp -d -t hfl_kernels_XXXXXX)"
trap 'rm -f "$trace" "$trace4"; rm -rf "$kernels_dir"' EXIT
for run in 1 2 3; do
  "$BUILD_DIR/bench/kernels" --min_ms 20 --out "$kernels_dir/run$run.json" \
    > /dev/null
done

echo "== span profiler smoke =="
# Deep-profiling path end to end: a profiled run must emit a Chrome trace
# and a status heartbeat, and trace_summary must classify and render both.
prof_json="$(mktemp -t hfl_prof_XXXXXX.json)"
status_json="$(mktemp -t hfl_status_XXXXXX.json)"
trap 'rm -f "$trace" "$trace4" "$prof_json" "$status_json"; rm -rf "$kernels_dir"' EXIT
"$BUILD_DIR/examples/experiment_runner" \
  --devices 8 --edges 2 --steps 10 --local_epochs 2 \
  --profile "$prof_json" --status "$status_json" \
  | grep -q '^span profile written'
"$BUILD_DIR/tools/trace_summary" "$prof_json" | grep -q 'span profile summary'
"$BUILD_DIR/tools/trace_summary" "$prof_json" | grep -q 'round latency'
"$BUILD_DIR/tools/trace_summary" "$status_json" | grep -q 'status heartbeat'

echo "== bench perf gate (bench_diff) =="
# Self-comparison must always be clean (exit 0, zero deltas).
"$BUILD_DIR/tools/bench_diff" \
  --baseline BENCH_kernels.json --current BENCH_kernels.json > /dev/null
# The fresh runs against the committed baseline, on what a shared host can
# resolve. Absolute times and GFLOP/s follow the machine, whose speed (on
# the 4-vCPU AVX-512 Xeon the committed file comes from) drifts between
# states up to 2x apart for minutes at a time, so they are not gated. A row's `speedup` (its production kernel against its retained
# reference, or the fused block against the chain, timed in alternating
# batches) cancels most of that, but single rows still moved up to 2.5x
# between runs minutes apart. So the gate compares kernel families: the
# rows at the simulator's own shapes (group "bench") grouped by op and
# variant, each row at its best speedup of the three runs, summarised by
# the family's geometric mean. Against a baseline from a single run (the
# committed file's kind), 280 such comparisons drawn from eight runs saw no
# family fall by more than 32%, while a kernel made 2x slower halves its
# families (conv_backward run twice: -36% to -61% over three runs). On
# single-core containers (too noisy to gate) it only warns.
python3 - BENCH_kernels.json "$kernels_dir" <<'PY'
import json, math, os, sys
from collections import defaultdict

baseline, out_dir = sys.argv[1], sys.argv[2]
runs = [os.path.join(out_dir, f"run{i}.json") for i in (1, 2, 3)]

def speedups(path):
    doc = json.load(open(path))
    return {(r["case"], r["op"], r["variant"], r["m"], r["k"], r["n"]): r["speedup"]
            for r in doc["results"] if r["group"] == "bench"}

def families(rows):
    logs = defaultdict(list)
    for (case, op, variant, *_), speedup in rows.items():
        logs[(op, variant)].append(math.log(speedup))
    return {"bench": "kernels", "results": [
        {"case": f"{op}/{variant}", "rows": len(v),
         "speedup": math.exp(sum(v) / len(v))}
        for (op, variant), v in sorted(logs.items())]}

base = speedups(baseline)
fresh = [speedups(path) for path in runs]
best = {key: max(run[key] for run in fresh)
        for key in base if all(key in run for run in fresh)}
base = {key: base[key] for key in best}
for name, rows in (("families_base", base), ("families_now", best)):
    json.dump(families(rows), open(os.path.join(out_dir, name + ".json"), "w"))
PY
if [ "$(nproc 2>/dev/null || echo 1)" -le 1 ]; then
  "$BUILD_DIR/tools/bench_diff" \
    --baseline "$kernels_dir/families_base.json" \
    --current "$kernels_dir/families_now.json" --threshold_pct 35 \
    || echo "WARN: kernels regressed vs the committed baseline" \
            "(single-core container: warn-only, not gating)"
else
  "$BUILD_DIR/tools/bench_diff" \
    --baseline "$kernels_dir/families_base.json" \
    --current "$kernels_dir/families_now.json" --threshold_pct 35
fi

echo "== faults smoke =="
# End-to-end fault injection: a faulted run must complete, carry its fault
# history in the trace, and the summary tool must render it.
fault_trace="$(mktemp -t hfl_faults_XXXXXX.jsonl)"
trap 'rm -f "$trace" "$trace4" "$prof_json" "$status_json" "$fault_trace"; rm -rf "$kernels_dir"' EXIT
"$BUILD_DIR/examples/experiment_runner" \
  --devices 8 --edges 2 --steps 10 --local_epochs 2 --trace "$fault_trace" \
  --faults 'dropout:p=0.2;straggler:p=0.3,delay=1.5,timeout=1;edge_outage:edge=0,from=2,to=4;cloud_loss:p=0.2;seed=5' \
  | grep -q '^faults:'
grep -q '"faults"' "$fault_trace"
"$BUILD_DIR/tools/trace_summary" "$fault_trace" | grep -q 'fault injection'

echo "== codec smoke + round-trip fuzz =="
# End-to-end transfer codecs: a lossy per-link run must complete, report its
# encoded-byte breakdown, record the codec spec and per-link ledger in the
# trace, and trace_summary must render the bytes-by-link table. Then the
# randomized round-trip suite re-runs with a raised iteration budget (fp32
# exact; bf16/int8/topk within their documented bounds).
codec_trace="$(mktemp -t hfl_codec_XXXXXX.jsonl)"
trap 'rm -f "$trace" "$trace4" "$prof_json" "$status_json" "$fault_trace" "$codec_trace"; rm -rf "$kernels_dir"' EXIT
"$BUILD_DIR/examples/experiment_runner" \
  --devices 8 --edges 2 --steps 10 --local_epochs 2 --trace "$codec_trace" \
  --codec 'up=topk:k=0.05,down=bf16,probe=int8,edge_up=int8,cloud_down=bf16' \
  | grep -q '^encoded bytes:'
grep -q '"codec"' "$codec_trace"
grep -q '"comm"' "$codec_trace"
"$BUILD_DIR/tools/trace_summary" "$codec_trace" | grep -q 'communication bytes by link'
MACH_CODEC_FUZZ_ITERS=400 "$BUILD_DIR/tests/test_comm" --gtest_filter='CodecFuzz.*'

echo "== comm bench smoke =="
# Accuracy-vs-bytes bench end to end on a tiny horizon: must produce a JSON
# the perf gate can self-compare cleanly, and the int8 device-upload
# reduction assertion (>= 3.9x) must hold. The committed BENCH_comm.json is
# produced by a full default-horizon run.
comm_json="$(mktemp -t hfl_comm_XXXXXX.json)"
trap 'rm -f "$trace" "$trace4" "$prof_json" "$status_json" "$fault_trace" "$codec_trace" "$comm_json"; rm -rf "$kernels_dir"' EXIT
"$BUILD_DIR/bench/comm" --task mnist --horizon 20 --out "$comm_json" > /dev/null
"$BUILD_DIR/tools/bench_diff" \
  --baseline "$comm_json" --current "$comm_json" > /dev/null

echo "== algorithm zoo smoke =="
# Sampler-x-scenario comparison end to end on a tiny grid: the bench must
# produce a ranked report trace_summary can render, and the perf gate must
# self-compare it cleanly (final_accuracy/reach_rate gate higher-is-better,
# steps_to_target/total_bytes lower-is-better). The committed BENCH_zoo.json
# is produced by a full default run (all zoo samplers x all four presets).
zoo_json="$(mktemp -t hfl_zoo_XXXXXX.json)"
trap 'rm -f "$trace" "$trace4" "$prof_json" "$status_json" "$fault_trace" "$codec_trace" "$comm_json" "$zoo_json"; rm -rf "$kernels_dir"' EXIT
"$BUILD_DIR/bench/zoo" --task mnist --samplers mach,uniform \
  --scenarios metro,vehicular --horizon 20 --out "$zoo_json" > /dev/null
"$BUILD_DIR/tools/trace_summary" "$zoo_json" | grep -q 'algorithm ranking'
"$BUILD_DIR/tools/bench_diff" \
  --baseline "$zoo_json" --current "$zoo_json" > /dev/null
# The committed full-grid report must stay parseable and gateable.
"$BUILD_DIR/tools/bench_diff" \
  --baseline BENCH_zoo.json --current BENCH_zoo.json > /dev/null

echo "== scenario flag smoke =="
# --scenario composes with the rest of the CLI. A bad --scenario, --task or
# --aggregation value is a configuration error: exit 2 exactly, which
# tools/sweep_runner quarantines at once instead of retrying.
"$BUILD_DIR/examples/experiment_runner" \
  --devices 8 --edges 2 --steps 6 --local_epochs 1 \
  --sampler churn_aware --scenario 'vehicular:stations=16' \
  | grep -q 'scenario=vehicular:stations=16'
for bad_flag in --scenario --task --aggregation; do
  bad_status=0
  "$BUILD_DIR/examples/experiment_runner" "$bad_flag" bogus --steps 2 \
    > /dev/null 2>&1 || bad_status=$?
  if [ "$bad_status" -ne 2 ]; then
    echo "$bad_flag bogus exited $bad_status, expected 2"; exit 1
  fi
done

echo "== crash-resume smoke =="
# Kill-and-resume end-to-end: a fixed-seed run SIGKILLs itself right after a
# mid-run snapshot becomes durable, then a resumed run (at a different thread
# count) must reproduce the uninterrupted reference CSV byte for byte and
# leave checkpoint markers in the trace.
ckpt_dir="$(mktemp -d -t hfl_ckpt_XXXXXX)"
trap 'rm -f "$trace" "$trace4" "$prof_json" "$status_json" "$fault_trace" "$codec_trace" "$comm_json" "$zoo_json"; rm -rf "$kernels_dir" "$ckpt_dir"' EXIT
resume_args=(--task mnist --devices 8 --edges 2 --steps 12 --local_epochs 2 --seed 11)
"$BUILD_DIR/examples/experiment_runner" "${resume_args[@]}" --threads 1 \
  --csv "$ckpt_dir/ref.csv" --trace "$ckpt_dir/ref.jsonl" > /dev/null
if "$BUILD_DIR/examples/experiment_runner" "${resume_args[@]}" --threads 1 \
  --csv "$ckpt_dir/run.csv" --trace "$ckpt_dir/run.jsonl" \
  --checkpoint_every 3 --checkpoint_dir "$ckpt_dir/snaps" \
  --kill_at_step 6 > /dev/null 2>&1; then
  echo "kill_at_step run was expected to SIGKILL itself"; exit 1
fi
"$BUILD_DIR/examples/experiment_runner" "${resume_args[@]}" --threads 2 \
  --csv "$ckpt_dir/run.csv" --trace "$ckpt_dir/run.jsonl" \
  --checkpoint_every 3 --checkpoint_dir "$ckpt_dir/snaps" --resume \
  | grep -q '^resuming from'
cmp "$ckpt_dir/ref.csv" "$ckpt_dir/run.csv"
grep -q '"event":"checkpoint"' "$ckpt_dir/run.jsonl"
"$BUILD_DIR/tools/trace_summary" "$ckpt_dir/run.jsonl" | grep -q 'checkpointed run'
# The same snapshots under another data world (here the long-tail ratio,
# which changes the label marginal and partition but no engine option) must
# be rejected by the fingerprint, not resumed, with exit 2: a configuration
# error that no retry can fix (tools/sweep_runner quarantines it at once).
# The rejected resume must leave the trace it was pointed at untouched.
cp "$ckpt_dir/run.jsonl" "$ckpt_dir/run.before.jsonl"
foreign_status=0
"$BUILD_DIR/examples/experiment_runner" "${resume_args[@]}" --long_tail 0.3 \
  --checkpoint_every 3 --checkpoint_dir "$ckpt_dir/snaps" --resume \
  --trace "$ckpt_dir/run.jsonl" > "$ckpt_dir/foreign.log" 2>&1 || foreign_status=$?
if [[ "$foreign_status" -ne 2 ]]; then
  echo "resuming into another data world exited $foreign_status, expected 2"
  exit 1
fi
grep -q 'fingerprint mismatch' "$ckpt_dir/foreign.log"
cmp "$ckpt_dir/run.before.jsonl" "$ckpt_dir/run.jsonl"

echo "== sweep orchestrator smoke =="
# Self-healing sweep end to end: a 6-point sweep where one injected config
# hangs forever must finish with the five healthy points done and the hung
# config watchdog-killed twice then quarantined — reported via exit code 1
# and a journaled failure history the report renderer surfaces.
sweep_dir="$(mktemp -d -t hfl_sweep_XXXXXX)"
trap 'rm -f "$trace" "$trace4" "$prof_json" "$status_json" "$fault_trace" "$codec_trace" "$comm_json" "$zoo_json"; rm -rf "$kernels_dir" "$ckpt_dir" "$sweep_dir"' EXIT
cat > "$sweep_dir/spec.json" <<'SPEC'
{
  "name": "ci_smoke",
  "defaults": {"task": "mnist", "devices": 8, "edges": 2, "steps": 6,
               "local_epochs": 1, "participation": 0.5},
  "grid": {"seed": [1, 2, 3, 4, 5]},
  "points": [{"seed": 6, "steps": 40, "hang_at_step": 1}]
}
SPEC
sweep_status=0
"$BUILD_DIR/tools/sweep_runner" --spec "$sweep_dir/spec.json" \
  --out "$sweep_dir/out" --parallel 2 --watchdog 2 --max_attempts 2 \
  --backoff_base 0.1 > /dev/null || sweep_status=$?
if [ "$sweep_status" -ne 1 ]; then
  echo "sweep with a hanging config must exit 1 (quarantined), got $sweep_status"
  exit 1
fi
grep -q '"outcome":"quarantined"' "$sweep_dir/out/report.json"
grep -q 'watchdog: heartbeat made no progress' "$sweep_dir/out/report.json"
"$BUILD_DIR/tools/trace_summary" "$sweep_dir/out/report.json" \
  | grep -q 'sweep report'
# Rerunning a finished sweep relaunches nothing and reproduces the report
# byte for byte (the exactly-once property CI can check cheaply).
cp "$sweep_dir/out/report.json" "$sweep_dir/report.before"
"$BUILD_DIR/tools/sweep_runner" --spec "$sweep_dir/spec.json" \
  --out "$sweep_dir/out" --watchdog 2 --max_attempts 2 > /dev/null \
  || true  # still exits 1: the quarantined point stays quarantined
cmp "$sweep_dir/report.before" "$sweep_dir/out/report.json"

echo "== mobility trace smoke =="
# The record -> replay -> schedule path outside the engine (generate_trace,
# TraceReplay, MobilitySchedule::from_trace): a small world must report its
# churn and write a trace CSV that starts with the header of the schema
# Trace::write_csv writes, the dataset's (device, station, t_start, t_end)
# columns.
mobility_csv="$(mktemp -t hfl_mobility_XXXXXX.csv)"
trap 'rm -f "$trace" "$trace4" "$prof_json" "$status_json" "$fault_trace" "$codec_trace" "$comm_json" "$zoo_json" "$mobility_csv"; rm -rf "$kernels_dir" "$ckpt_dir" "$sweep_dir"' EXIT
"$BUILD_DIR/examples/mobility_trace_demo" --devices 20 --stations 12 \
  --edges 3 --horizon 30 --csv "$mobility_csv" | grep -q 'Station-level churn'
[ "$(head -n 1 "$mobility_csv")" = "device,station,t_start,t_end" ]
# A count of zero and a stay probability of one are rejected with a message
# and exit 1 (they used to end in std::terminate).
for bad_flag in --devices=0 --stay=1.0; do
  demo_status=0
  demo_err="$("$BUILD_DIR/examples/mobility_trace_demo" "$bad_flag" 2>&1 >/dev/null)" \
    || demo_status=$?
  if [ "$demo_status" -ne 1 ] || [ -z "$demo_err" ]; then
    echo "mobility_trace_demo $bad_flag must exit 1 with a message, got $demo_status"
    exit 1
  fi
done

# Out-of-bounds check over the kernel layer. The conv kernels carve the
# scratch span their caller sizes (conv_backward_scratch and friends); a
# formula that comes up short makes them write past it, which corrupts the
# heap with no report and fails far from the kernel. The tensor suite
# hands every kernel exactly-sized buffers on every variant, so ASan's
# redzones catch a write past any of them; the nn suite runs the layers
# over their ScratchArena spans.
# Built at Release's -O2, like the other sanitizer stages: CMAKE_CXX_FLAGS
# precede the build type's flags, so an -O level given here is overridden.
# Every sanitizer build is -Werror too: instrumented code changes what GCC's
# flow warnings see, and each stage's targets build warning-free.
echo "== address sanitizer (kernels + nn) =="
ASAN_DIR="${ASAN_DIR:-${BUILD_DIR}-asan}"
cmake -B "$ASAN_DIR" -S . \
  -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer -g -Werror" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
cmake --build "$ASAN_DIR" -j "$JOBS" --target test_tensor test_nn
"$ASAN_DIR/tests/test_tensor"
"$ASAN_DIR/tests/test_nn"

# Undefined-behaviour check over the kernel layer: a separate UBSan build
# running the blocked-vs-reference equivalence suite for every GEMM
# variant the CPU runs (pointer arithmetic, masked edge tiles, the packed
# and image-panel indexing, the unpacked path's masked and zero-padded
# fringe accesses and the lane-norm kernels' transposed row loads are the
# risky parts) plus the ISA-selection
# unit test, with the ISA-object guard re-run on the instrumented objects,
# plus the nn suite (the backward_params hook, the skipped first-layer
# input gradient and every layer's backward feed the minibatch
# conv_backward's scratch carving and lane transposes; GradNormBatch's
# staging lanes feed the lane-norm kernels),
# plus the checkpoint suite (byte-codec casts, CRC table indexing and the
# raw-byte RNG state round-trips are the risky parts), plus the comm suite
# with a raised fuzz budget (float<->bits bit_casts, wire byte packing,
# int8 narrowing and the int8 codec's SSE2 casts, saturating packs and
# tail loops, checked against its scalar reference over many random
# lengths, are the risky parts), plus the sampling suite (it carries the
# whole-registry conformance suite, so every zoo sampler's probability
# arithmetic runs sanitized), plus the mobility suite (the scenario spec
# parser's from_chars walking and its fuzz sweep are the risky parts),
# plus the sweep suite with a raised fuzz budget (the spec parser's strict
# validation layers, the journal's CRC framing / torn-tail byte walking,
# and the orchestrator's waitpid status decoding are the risky parts; the
# e2e tests fork UBSan-built child binaries, so the engine's drain/hang
# harness paths run sanitized too). Built at Release's -O2.
echo "== undefined behaviour sanitizer (kernels + ISA selection + nn + faults + ckpt + comm + sampling + mobility + sweep) =="
UBSAN_DIR="${UBSAN_DIR:-${BUILD_DIR}-ubsan}"
cmake -B "$UBSAN_DIR" -S . -DCMAKE_EXPORT_COMPILE_COMMANDS=ON \
  -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all -g -Werror" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined"
cmake --build "$UBSAN_DIR" -j "$JOBS" --target test_tensor test_common test_nn test_fault test_ckpt test_comm test_sampling test_mobility test_sweep
check_isa_objects "$UBSAN_DIR"
"$UBSAN_DIR/tests/test_tensor"
"$UBSAN_DIR/tests/test_common" --gtest_filter='GemmIsaSelection.*'
"$UBSAN_DIR/tests/test_nn"
"$UBSAN_DIR/tests/test_fault"
"$UBSAN_DIR/tests/test_ckpt"
MACH_CODEC_FUZZ_ITERS=2000 "$UBSAN_DIR/tests/test_comm"
"$UBSAN_DIR/tests/test_sampling"
"$UBSAN_DIR/tests/test_mobility"
MACH_SWEEP_FUZZ_ITERS=1500 "$UBSAN_DIR/tests/test_sweep"

# Data-race check over the runtime subsystem: a separate TSan build of the
# whole thread-pool unit suite plus the parallel-determinism integration test
# (the only paths that run pool threads; both race the calling thread's
# slice 0 against the pool's threads). Filtered rather than the full suite
# because TSan's ~10x slowdown would dominate CI otherwise. Built at
# Release's -O2.
echo "== thread sanitizer =="
TSAN_DIR="${TSAN_DIR:-${BUILD_DIR}-tsan}"
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -g -Werror" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$TSAN_DIR" -j "$JOBS" --target test_runtime test_hfl test_fault test_obs test_comm test_sampling
"$TSAN_DIR/tests/test_runtime"
# ParallelDeterminism includes a MACH-P run: probes batch their gradient
# norms in slot 0's batch on the coordinator between sections, and each slot
# batches its own training norms inside them. It and
# the call-order test also run a world whose steps train several
# sections, workers claiming jobs from one shared counter.
"$TSAN_DIR/tests/test_hfl" --gtest_filter='ParallelDeterminism.*:ProfilerIntegration.*:Simulator.SamplersObserveEachStepAfterItsLastDecision'
# Every registered sampler driven through real 2- and 4-worker simulator
# runs: samplers are coordinator-only by contract; TSan proves none of the
# zoo's per-device state is touched from worker threads.
"$TSAN_DIR/tests/test_sampling" --gtest_filter='*RunsBitwiseIdenticalAcrossThreadCounts*'
# The fault replay/determinism suites drive 2- and 4-worker runs with the
# injector active — the only new code reachable from worker threads.
"$TSAN_DIR/tests/test_fault" --gtest_filter='FaultDeterminism.*:FailureReplay.*'
# Span profiler: per-track rings written from worker threads, merged at the
# barrier — the thread_local binding and merge must be race-free; phase-
# tagged guards charge only their own thread's accumulators.
"$TSAN_DIR/tests/test_obs" --gtest_filter='SpanProfiler.*:PhaseSpanGuard.*'
# Lossy-codec runs at 2 and 4 workers: transcodes are coordinator-only by
# design; TSan proves no codec state is touched from worker threads.
"$TSAN_DIR/tests/test_comm" --gtest_filter='CommIntegration.*'

echo "CI OK"
