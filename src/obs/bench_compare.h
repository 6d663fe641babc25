// Comparison engine for BENCH_*.json files (the library behind
// tools/bench_diff and the CI perf gate). Two documents produced by the same
// bench are matched case-by-case on their identity fields, per-metric deltas
// are computed with a direction convention inferred from the metric name
// (gflops/speedup/*_per_second are higher-is-better, *_us/*_ms/*_seconds are
// lower-is-better), and the worst regression is surfaced so a single
// threshold can gate CI.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"

namespace mach::obs {

enum class MetricDirection {
  HigherIsBetter,
  LowerIsBetter,
  Informational,  // numeric outcome that should not gate (e.g. counts)
  Identity,       // part of the case key (dims, flags, labels)
};

/// Classifies a results[] field by name. The convention matches every
/// emitter in bench/: throughput metrics contain "per_second"/"gflops"/
/// "speedup", latencies end in "_us"/"_ms"/"_seconds", counts contain
/// "trained"/"count", and everything else identifies the case.
MetricDirection metric_direction(std::string_view name);

struct MetricDelta {
  std::string metric;
  double baseline = 0.0;
  double current = 0.0;
  /// Signed percentage, positive = improvement regardless of direction
  /// (a lower-is-better metric that shrinks reports a positive change).
  double change_pct = 0.0;
  MetricDirection direction = MetricDirection::Informational;
};

struct CaseDelta {
  std::string key;  // identity fields joined as "name=value ..."
  std::vector<MetricDelta> metrics;
};

struct BenchComparison {
  std::string bench;            // from the baseline document
  bool bench_mismatch = false;  // documents came from different benches
  std::vector<CaseDelta> cases;
  std::vector<std::string> only_in_baseline;
  std::vector<std::string> only_in_current;
  /// Largest gated regression across all cases (0 when nothing regressed).
  double worst_regression_pct = 0.0;
  std::string worst_case;
  std::string worst_metric;

  bool regression_beyond(double threshold_pct) const noexcept {
    return worst_regression_pct > threshold_pct;
  }
};

/// Compares two parsed BENCH_*.json documents. Cases present in only one
/// document are listed, not gated; a "bench" field mismatch sets
/// bench_mismatch (callers should treat that as an error).
BenchComparison compare_benchmarks(const JsonValue& baseline,
                                   const JsonValue& current);

/// Reads and parses one BENCH_*.json file; nullopt with a message in
/// `error` on I/O or parse failure.
std::optional<JsonValue> load_bench_file(const std::string& path,
                                         std::string* error);

/// Human-readable report (one line per metric, aligned-ish columns), used
/// verbatim by tools/bench_diff and the CI gate log.
std::string format_comparison(const BenchComparison& comparison,
                              double threshold_pct);

}  // namespace mach::obs
