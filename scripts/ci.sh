#!/usr/bin/env bash
# One-command verification pipeline: configure, build, run the tier-1 test
# suite, then smoke-check the telemetry tooling. Usable locally and from any
# CI runner:
#
#   ./scripts/ci.sh              # build into ./build (default)
#   BUILD_DIR=ci-build ./scripts/ci.sh
#   TSAN=0 ./scripts/ci.sh       # skip the ThreadSanitizer stage
#   UBSAN=0 ./scripts/ci.sh      # skip the UBSan kernels-equivalence stage
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

echo "== configure =="
cmake -B "$BUILD_DIR" -S .

echo "== build (-j$JOBS) =="
cmake --build "$BUILD_DIR" -j "$JOBS"

# The AVX2/AVX-512 GEMM variants are compiled with wider -m flags than the
# rest of the program (DESIGN.md §9). A weak (W/V) or unique (u) symbol in
# one of those objects — an inline function or template instantiation the
# linker may pick for every caller — would run AVX-512 code on any CPU and
# die with SIGILL where the ISA is missing. They may define only local
# symbols and their variant table.
check_isa_objects() {
  local dir="$1" objects
  objects="$(find "$dir" -name 'gemm_avx*.cpp.o' | sort)"
  if [ -z "$objects" ]; then
    if [ "$(uname -m)" = x86_64 ]; then
      echo "no ISA-specific GEMM objects under $dir"; exit 1
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
"$BUILD_DIR/tools/trace_summary" --help > /dev/null
trace="$(mktemp -t hfl_trace_XXXXXX.jsonl)"
trap 'rm -f "$trace"' EXIT
"$BUILD_DIR/examples/experiment_runner" \
  --devices 8 --edges 2 --steps 10 --local_epochs 2 --trace "$trace" > /dev/null
"$BUILD_DIR/tools/trace_summary" "$trace" > /dev/null

echo "== kernels microbench smoke =="
# Tiny time budget: checks the bench runs end-to-end and that blocked and
# reference kernels agree exactly (nonzero exit on mismatch). The committed
# BENCH_kernels.json is produced by a full run (default --min_ms).
kernels_json="$(mktemp -t hfl_kernels_XXXXXX.json)"
trap 'rm -f "$trace" "$kernels_json"' EXIT
"$BUILD_DIR/bench/kernels" --min_ms 2 --out "$kernels_json" > /dev/null

echo "== span profiler smoke =="
# Deep-profiling path end to end: a profiled run must emit a Chrome trace
# and a status heartbeat, and trace_summary must classify and render both.
prof_json="$(mktemp -t hfl_prof_XXXXXX.json)"
status_json="$(mktemp -t hfl_status_XXXXXX.json)"
trap 'rm -f "$trace" "$kernels_json" "$prof_json" "$status_json"' EXIT
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
# Fresh microbench vs the committed baseline. The smoke run uses a tiny time
# budget and CI machines differ from the baseline's, so the threshold is
# generous — and on single-core containers (too noisy to gate) it only warns.
if [ "$(nproc 2>/dev/null || echo 1)" -le 1 ]; then
  "$BUILD_DIR/tools/bench_diff" \
    --baseline BENCH_kernels.json --current "$kernels_json" \
    --threshold_pct 30 \
    || echo "WARN: kernels regressed vs the committed baseline" \
            "(single-core container: warn-only, not gating)"
else
  "$BUILD_DIR/tools/bench_diff" \
    --baseline BENCH_kernels.json --current "$kernels_json" \
    --threshold_pct 30
fi

echo "== faults smoke =="
# End-to-end fault injection: a faulted run must complete, carry its fault
# history in the trace, and the summary tool must render it.
fault_trace="$(mktemp -t hfl_faults_XXXXXX.jsonl)"
trap 'rm -f "$trace" "$kernels_json" "$prof_json" "$status_json" "$fault_trace"' EXIT
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
trap 'rm -f "$trace" "$kernels_json" "$prof_json" "$status_json" "$fault_trace" "$codec_trace"' EXIT
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
trap 'rm -f "$trace" "$kernels_json" "$prof_json" "$status_json" "$fault_trace" "$codec_trace" "$comm_json"' EXIT
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
trap 'rm -f "$trace" "$kernels_json" "$prof_json" "$status_json" "$fault_trace" "$codec_trace" "$comm_json" "$zoo_json"' EXIT
"$BUILD_DIR/bench/zoo" --task mnist --samplers mach,uniform \
  --scenarios metro,vehicular --horizon 20 --out "$zoo_json" > /dev/null
"$BUILD_DIR/tools/trace_summary" "$zoo_json" | grep -q 'algorithm ranking'
"$BUILD_DIR/tools/bench_diff" \
  --baseline "$zoo_json" --current "$zoo_json" > /dev/null
# The committed full-grid report must stay parseable and gateable.
"$BUILD_DIR/tools/bench_diff" \
  --baseline BENCH_zoo.json --current BENCH_zoo.json > /dev/null

echo "== scenario flag smoke =="
# --scenario composes with the rest of the CLI and rejects bad specs.
"$BUILD_DIR/examples/experiment_runner" \
  --devices 8 --edges 2 --steps 6 --local_epochs 1 \
  --sampler churn_aware --scenario 'vehicular:stations=16' \
  | grep -q 'scenario=vehicular:stations=16'
if "$BUILD_DIR/examples/experiment_runner" --scenario bogus --steps 2 \
  > /dev/null 2>&1; then
  echo "unknown scenario preset was expected to fail"; exit 1
fi

echo "== scale smoke (10k devices, RSS ceiling) =="
# Million-device engine end to end at CI scale: a 10k-device sweep must run
# sub-second rounds inside the fixed per-device memory budget and a 512 MiB
# process RSS ceiling, and trace_summary must render the result. The
# committed BENCH_scale.json is produced by the full default sweep (to 1M).
scale_json="$(mktemp -t hfl_scale_XXXXXX.json)"
trap 'rm -f "$trace" "$kernels_json" "$prof_json" "$status_json" "$fault_trace" "$codec_trace" "$comm_json" "$zoo_json" "$scale_json"' EXIT
"$BUILD_DIR/bench/scale" --devices 10000 --edges 100 --rounds 2 \
  --rss_ceiling_mb 512 --out "$scale_json" > /dev/null
"$BUILD_DIR/tools/trace_summary" "$scale_json" | grep -q 'worst round p95'
"$BUILD_DIR/tools/bench_diff" \
  --baseline "$scale_json" --current "$scale_json" > /dev/null
# Fresh smoke vs the committed full-sweep baseline: only the shared 10k x 100
# case matches; wall-time/RSS gate with generous slack for machine variance,
# warn-only on single-core containers (too noisy to gate).
if [ "$(nproc 2>/dev/null || echo 1)" -le 1 ]; then
  "$BUILD_DIR/tools/bench_diff" \
    --baseline BENCH_scale.json --current "$scale_json" \
    --threshold_pct 50 \
    || echo "WARN: scale bench regressed vs the committed baseline" \
            "(single-core container: warn-only, not gating)"
else
  "$BUILD_DIR/tools/bench_diff" \
    --baseline BENCH_scale.json --current "$scale_json" \
    --threshold_pct 50
fi

echo "== crash-resume smoke =="
# Kill-and-resume end-to-end: a fixed-seed run SIGKILLs itself right after a
# mid-run snapshot becomes durable, then a resumed run (at a different thread
# count) must reproduce the uninterrupted reference CSV byte for byte and
# leave checkpoint markers in the trace.
ckpt_dir="$(mktemp -d -t hfl_ckpt_XXXXXX)"
trap 'rm -f "$trace" "$kernels_json" "$prof_json" "$status_json" "$fault_trace" "$codec_trace" "$comm_json" "$zoo_json" "$scale_json"; rm -rf "$ckpt_dir"' EXIT
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

echo "== sweep orchestrator smoke =="
# Self-healing sweep end to end: a 6-point sweep where one injected config
# hangs forever must finish with the five healthy points done and the hung
# config watchdog-killed twice then quarantined — reported via exit code 1
# and a journaled failure history the report renderer surfaces.
sweep_dir="$(mktemp -d -t hfl_sweep_XXXXXX)"
trap 'rm -f "$trace" "$kernels_json" "$prof_json" "$status_json" "$fault_trace" "$codec_trace" "$comm_json" "$zoo_json" "$scale_json"; rm -rf "$ckpt_dir" "$sweep_dir"' EXIT
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

if [ "${UBSAN:-1}" != "0" ]; then
  # Undefined-behaviour check over the kernel layer: a separate UBSan build
  # running the blocked-vs-reference equivalence suite for every GEMM
  # variant the CPU runs (pointer arithmetic, masked edge tiles, the packed
  # and image-panel indexing are the risky parts) plus the ISA-selection
  # unit test, with the ISA-object guard re-run on the instrumented objects,
  # plus the nn suite (the backward_params hook, the skipped first-layer
  # input gradient and every layer's backward feed the minibatch
  # conv_backward's scratch carving and fused col2im),
  # plus the checkpoint suite (byte-codec casts, CRC table indexing and the
  # raw-byte RNG state round-trips are the risky parts), plus the comm suite
  # with a raised fuzz budget (float<->bits bit_casts, wire byte packing,
  # int8 narrowing and the int8 codec's SSE2 casts, saturating packs and
  # tail loops, checked against its scalar reference over many random
  # lengths, are the risky parts), plus the sampling + scale suites (Fenwick node index
  # arithmetic, alias-bucket uniform splitting and the hash-based synthetic
  # gradient mixing are the risky parts; test_sampling now also carries the
  # whole-registry conformance suite, so every zoo sampler's probability
  # arithmetic runs sanitized), plus the mobility suite (the scenario spec
  # parser's from_chars walking and its fuzz sweep are the risky parts),
  # plus the sweep suite with a raised fuzz budget (the spec parser's strict
  # validation layers, the journal's CRC framing / torn-tail byte walking,
  # and the orchestrator's waitpid status decoding are the risky parts; the
  # e2e tests fork UBSan-built child binaries, so the engine's drain/hang
  # harness paths run sanitized too).
  echo "== undefined behaviour sanitizer (kernels + ISA selection + nn + faults + ckpt + comm + sampling + mobility + scale + sweep) =="
  UBSAN_DIR="${UBSAN_DIR:-${BUILD_DIR}-ubsan}"
  cmake -B "$UBSAN_DIR" -S . \
    -DCMAKE_CXX_FLAGS="-fsanitize=undefined -fno-sanitize-recover=all -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=undefined"
  cmake --build "$UBSAN_DIR" -j "$JOBS" --target test_tensor test_common test_nn test_fault test_ckpt test_comm test_sampling test_mobility test_scale test_sweep
  check_isa_objects "$UBSAN_DIR"
  "$UBSAN_DIR/tests/test_tensor"
  "$UBSAN_DIR/tests/test_common" --gtest_filter='GemmIsaSelection.*'
  "$UBSAN_DIR/tests/test_nn"
  "$UBSAN_DIR/tests/test_fault"
  "$UBSAN_DIR/tests/test_ckpt"
  MACH_CODEC_FUZZ_ITERS=2000 "$UBSAN_DIR/tests/test_comm"
  "$UBSAN_DIR/tests/test_sampling"
  "$UBSAN_DIR/tests/test_mobility"
  "$UBSAN_DIR/tests/test_scale"
  MACH_SWEEP_FUZZ_ITERS=1500 "$UBSAN_DIR/tests/test_sweep"
fi

if [ "${TSAN:-1}" != "0" ]; then
  # Data-race check over the runtime subsystem: a separate TSan build of the
  # thread-pool unit suite plus the parallel-determinism integration test
  # (the only paths that run worker threads). Filtered rather than the full
  # suite because TSan's ~10x slowdown would dominate CI otherwise.
  echo "== thread sanitizer =="
  TSAN_DIR="${TSAN_DIR:-${BUILD_DIR}-tsan}"
  cmake -B "$TSAN_DIR" -S . \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build "$TSAN_DIR" -j "$JOBS" --target test_runtime test_hfl test_fault test_obs test_comm test_sampling test_scale
  "$TSAN_DIR/tests/test_runtime"
  "$TSAN_DIR/tests/test_hfl" --gtest_filter='ParallelDeterminism.*:ProfilerIntegration.*'
  # Every registered sampler driven through real 2- and 4-worker simulator
  # runs: samplers are coordinator-only by contract; TSan proves none of the
  # zoo's per-device state is touched from worker threads.
  "$TSAN_DIR/tests/test_sampling" --gtest_filter='*RunsBitwiseIdenticalAcrossThreadCounts*'
  # The fault replay/determinism suites drive 2- and 4-worker runs with the
  # injector active — the only new code reachable from worker threads.
  "$TSAN_DIR/tests/test_fault" --gtest_filter='FaultDeterminism.*:FailureReplay.*'
  # Span profiler: per-track rings written from worker threads, merged at the
  # barrier — the thread_local binding and merge must be race-free.
  "$TSAN_DIR/tests/test_obs" --gtest_filter='SpanProfiler.*'
  # Lossy-codec runs at 2 and 4 workers: transcodes are coordinator-only by
  # design; TSan proves no codec state is touched from worker threads.
  "$TSAN_DIR/tests/test_comm" --gtest_filter='CommIntegration.*'
  # Scale engine determinism/resume suite: single-threaded by design — TSan
  # proves nothing in the million-device round loop spawns hidden threads.
  "$TSAN_DIR/tests/test_scale"
fi

echo "CI OK"
