#!/usr/bin/env python3
"""Runs every workload of the end-to-end benchmark and summarises them.

Invoked by run.sh after it has built the benchmark binary:

  suite.py --binary B --benchmark BENCHMARK.json --smoke
      every workload for 3 steps, untraced and traced; each run must pass its
      checks and emit exactly the metrics BENCHMARK.json names, with its units
  suite.py --binary B --benchmark BENCHMARK.json [--repeat N] [--seed S] [--out F]
      N interleaved sets of untraced runs (set i uses seed S + i), then one
      traced run per workload at seed S; prints each metric's median and
      quartiles with its unit and writes F (default bench/e2e/BENCH_e2e.json)

Exits non-zero when any run fails: a non-zero exit, a failed check or a
missing/unnamed metric.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# BENCH_e2e.json column for each end-to-end metric, named so that
# tools/bench_diff infers the metric's direction.
COLUMNS = {"setup_s": "setup_seconds"}


def run(binary, workload, seed, seconds, trace, smoke=False):
    """One process of one workload; returns (problems, result, layers)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    layers = next((json.loads(line[len("layers "):]) for line in lines
                   if line.startswith("layers ")), [])
    if proc.returncode != 0 or not lines:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"], None, layers
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return ["last stdout line is not JSON"], None, layers
    problems = [line for line in lines if line.startswith("CHECK FAILED")]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    elif result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    return problems, result, layers


def check_metrics(result, declared):
    """Problems when the run's metrics differ from the declared ones."""
    if result is None:
        return []
    metrics = result.get("metrics", {})
    problems = [f"missing metric {name}" for name in declared if name not in metrics]
    problems += [f"unnamed metric {name}" for name in metrics if name not in declared]
    for name, metric in metrics.items():
        if name in declared and metric.get("unit") != declared[name]["unit"]:
            problems.append(f"{name}: unit {metric.get('unit')} != {declared[name]['unit']}")
        value = metric.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def smoke(args, bench):
    workloads = [w["name"] for w in bench["workloads"]]
    declared = [{m["name"]: m for m in bench["end_to_end"]},
                {m["name"]: m for m in bench["per_layer"]}]
    failures = 0
    start = time.monotonic()
    for workload in workloads:
        for trace in (0, 1):
            problems, result, _ = run(args.binary, workload, args.seed, 0, trace, smoke=True)
            problems += check_metrics(result, declared[trace])
            failures += bool(problems)
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print(f"smoke {workload:14s} trace {trace}: {status}", flush=True)
    print(f"smoke: {2 * len(workloads)} runs, {failures} failed, "
          f"{time.monotonic() - start:.1f} s")
    return 1 if failures else 0


def repeat(args, bench):
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end = {m["name"]: m for m in bench["end_to_end"]}
    per_layer = {m["name"]: m for m in bench["per_layer"]}
    seconds = bench["run_seconds"]
    seeds = [args.seed + i for i in range(args.repeat)]
    values = {w: {name: [] for name in end_to_end} for w in workloads}
    attempted = failed = 0

    def record(workload, problems):
        nonlocal attempted, failed
        attempted += 1
        if problems:
            failed += 1
            print(f"  {workload}: FAILED: {'; '.join(problems)}", flush=True)

    for i, seed in enumerate(seeds):
        for workload in workloads:
            problems, result, _ = run(args.binary, workload, seed, seconds, 0)
            problems += check_metrics(result, end_to_end)
            record(workload, problems)
            if result is not None:
                for name, metric in result["metrics"].items():
                    if name in end_to_end:
                        values[workload][name].append(metric["value"])
            print(f"set {i + 1}/{len(seeds)} seed {seed} {workload}: done", flush=True)
    traces = {}
    for workload in workloads:
        problems, result, layers = run(args.binary, workload, args.seed, seconds, 1)
        problems += check_metrics(result, per_layer)
        record(workload, problems)
        if result is not None:
            traces[workload] = {"metrics": {k: v["value"] for k, v in result["metrics"].items()},
                                "layers": layers}

    rows, spread = [], {}
    for workload in workloads:
        print(f"\n{workload} ({len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]})")
        print(f"  {'metric':18s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'unit':8s} spread/bound")
        row = {"workload": workload}
        spread[workload] = {}
        for name, spec in end_to_end.items():
            samples = values[workload][name]
            if not samples:
                continue
            q1, med, q3 = quartiles(samples)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if share <= spec["bound"] / 3 else "  (over a third of the bound)"
            print(f"  {name:18s} {med:14.6g} {q1:14.6g} {q3:14.6g} {spec['unit']:8s} "
                  f"{share:.4f}/{spec['bound']}{flag}")
            row[COLUMNS.get(name, name)] = med
            spread[workload][name] = {"q1": q1, "median": med, "q3": q3, "iqr_share": share,
                                      "values": samples}
        rows.append(row)
        if workload in traces:
            print("  traced:")
            for name, value in traces[workload]["metrics"].items():
                print(f"    {name:28s} {value:14.6g} {per_layer[name]['unit']}")
    print(f"\nruns_attempted {attempted} runs_failed {failed}")

    hardware = json.loads(subprocess.run([args.binary, "--hardware"], capture_output=True,
                                         text=True, check=True).stdout)
    document = {"bench": "e2e", "hardware": hardware, "run_seconds": seconds,
                "seeds": seeds, "runs_attempted": attempted, "runs_failed": failed,
                "results": rows, "spread": spread, "trace": traces}
    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(document, out, indent=1)
        out.write("\n")
    print(f"wrote {args.out}")
    return 1 if failed else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--binary", required=True)
    parser.add_argument("--benchmark", required=True, help="path of BENCHMARK.json")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=os.path.join(HERE, "BENCH_e2e.json"))
    args = parser.parse_args()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    sys.exit(smoke(args, bench) if args.smoke else repeat(args, bench))


if __name__ == "__main__":
    main()
