// bench_compare suite (the library behind tools/bench_diff and the CI perf
// gate): metric-direction inference, case matching on identity fields,
// signed-delta conventions and the regression gate, including the injected
// synthetic-regression scenario the gate exists for.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "obs/bench_compare.h"
#include "obs/json.h"

namespace mach::obs {
namespace {

JsonValue parse(const std::string& text) {
  std::string error;
  const auto parsed = parse_json(text, &error);
  EXPECT_TRUE(parsed.has_value()) << error << " in: " << text;
  return parsed ? *parsed : JsonValue();
}

// A two-case kernels-style document; gflops/speedup gate, dims identify.
const char* kBaseline = R"({
  "bench": "kernels",
  "results": [
    {"case": "a", "m": 64, "k": 32, "n": 10, "blocked_gflops": 10.0,
     "speedup": 2.0, "wall_seconds": 1.0, "devices_trained": 100},
    {"case": "b", "m": 128, "k": 64, "n": 10, "blocked_gflops": 5.0,
     "speedup": 1.5, "wall_seconds": 2.0, "devices_trained": 100}
  ]
})";

TEST(MetricDirection, NameConventionMatchesTheEmitters) {
  EXPECT_EQ(metric_direction("devices_per_second"),
            MetricDirection::HigherIsBetter);
  EXPECT_EQ(metric_direction("blocked_gflops"), MetricDirection::HigherIsBetter);
  EXPECT_EQ(metric_direction("speedup_vs_serial"),
            MetricDirection::HigherIsBetter);
  EXPECT_EQ(metric_direction("wall_seconds"), MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("seconds"), MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("mean_ms"), MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("blocked_us"), MetricDirection::LowerIsBetter);
  // Communication volume (BENCH_comm.json): more bytes is a regression.
  EXPECT_EQ(metric_direction("device_upload_bytes"),
            MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("total_bytes"), MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("bytes_per_round"),
            MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("final_accuracy"),
            MetricDirection::HigherIsBetter);
  // Memory envelope (BENCH_scale.json): a fatter RSS is a regression.
  EXPECT_EQ(metric_direction("peak_rss_kb"), MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("current_rss_kb"), MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("per_device_bytes"),
            MetricDirection::LowerIsBetter);
  EXPECT_EQ(metric_direction("devices_trained"),
            MetricDirection::Informational);
  EXPECT_EQ(metric_direction("count"), MetricDirection::Informational);
  EXPECT_EQ(metric_direction("case"), MetricDirection::Identity);
  EXPECT_EQ(metric_direction("m"), MetricDirection::Identity);
  EXPECT_EQ(metric_direction("threads"), MetricDirection::Identity);
}

TEST(BenchCompare, SelfComparisonReportsNoRegression) {
  const JsonValue doc = parse(kBaseline);
  const BenchComparison comparison = compare_benchmarks(doc, doc);
  EXPECT_EQ(comparison.bench, "kernels");
  EXPECT_FALSE(comparison.bench_mismatch);
  ASSERT_EQ(comparison.cases.size(), 2u);
  EXPECT_TRUE(comparison.only_in_baseline.empty());
  EXPECT_TRUE(comparison.only_in_current.empty());
  EXPECT_EQ(comparison.worst_regression_pct, 0.0);
  EXPECT_FALSE(comparison.regression_beyond(0.0));
  for (const CaseDelta& case_delta : comparison.cases) {
    for (const MetricDelta& metric : case_delta.metrics) {
      EXPECT_EQ(metric.change_pct, 0.0) << metric.metric;
      EXPECT_EQ(metric.baseline, metric.current) << metric.metric;
    }
  }
}

TEST(BenchCompare, InjectedTwentyPercentRegressionTripsTheGate) {
  const JsonValue baseline = parse(kBaseline);
  // Case "a" loses 20% of its gflops; everything else is unchanged.
  JsonValue current = parse(R"({
    "bench": "kernels",
    "results": [
      {"case": "a", "m": 64, "k": 32, "n": 10, "blocked_gflops": 8.0,
       "speedup": 2.0, "wall_seconds": 1.0, "devices_trained": 100},
      {"case": "b", "m": 128, "k": 64, "n": 10, "blocked_gflops": 5.0,
       "speedup": 1.5, "wall_seconds": 2.0, "devices_trained": 100}
    ]
  })");
  const BenchComparison comparison = compare_benchmarks(baseline, current);
  EXPECT_NEAR(comparison.worst_regression_pct, 20.0, 1e-9);
  EXPECT_EQ(comparison.worst_metric, "blocked_gflops");
  EXPECT_TRUE(comparison.regression_beyond(10.0));
  EXPECT_FALSE(comparison.regression_beyond(25.0));
  EXPECT_NE(format_comparison(comparison, 10.0).find("REGRESSION"),
            std::string::npos);
}

TEST(BenchCompare, LowerIsBetterMetricsRegressWhenTheyGrow) {
  const JsonValue baseline =
      parse(R"({"bench": "b", "results": [{"case": "x", "wall_seconds": 1.0}]})");
  const JsonValue current =
      parse(R"({"bench": "b", "results": [{"case": "x", "wall_seconds": 1.5}]})");
  const BenchComparison comparison = compare_benchmarks(baseline, current);
  ASSERT_EQ(comparison.cases.size(), 1u);
  ASSERT_EQ(comparison.cases[0].metrics.size(), 1u);
  // +50% wall time = -50% change (positive change_pct always = improvement).
  EXPECT_NEAR(comparison.cases[0].metrics[0].change_pct, -50.0, 1e-9);
  EXPECT_NEAR(comparison.worst_regression_pct, 50.0, 1e-9);
}

TEST(BenchCompare, InformationalMetricsNeverGate) {
  const JsonValue baseline = parse(
      R"({"bench": "b", "results": [{"case": "x", "devices_trained": 100}]})");
  const JsonValue current = parse(
      R"({"bench": "b", "results": [{"case": "x", "devices_trained": 50}]})");
  const BenchComparison comparison = compare_benchmarks(baseline, current);
  EXPECT_EQ(comparison.worst_regression_pct, 0.0);
  EXPECT_FALSE(comparison.regression_beyond(0.0));
}

TEST(BenchCompare, UnmatchedCasesAreListedNotGated) {
  const JsonValue baseline = parse(
      R"({"bench": "b", "results": [{"case": "old", "speedup": 2.0}]})");
  const JsonValue current = parse(
      R"({"bench": "b", "results": [{"case": "new", "speedup": 1.0}]})");
  const BenchComparison comparison = compare_benchmarks(baseline, current);
  ASSERT_EQ(comparison.only_in_baseline.size(), 1u);
  EXPECT_EQ(comparison.only_in_baseline[0], "case=old");
  ASSERT_EQ(comparison.only_in_current.size(), 1u);
  EXPECT_EQ(comparison.only_in_current[0], "case=new");
  EXPECT_EQ(comparison.worst_regression_pct, 0.0);
  const std::string report = format_comparison(comparison, 10.0);
  EXPECT_NE(report.find("missing from current"), std::string::npos);
  EXPECT_NE(report.find("new in current"), std::string::npos);
}

TEST(BenchCompare, DifferentBenchNamesFlagAMismatch) {
  const JsonValue kernels = parse(R"({"bench": "kernels", "results": []})");
  const JsonValue runtime = parse(R"({"bench": "runtime", "results": []})");
  const BenchComparison comparison = compare_benchmarks(kernels, runtime);
  EXPECT_TRUE(comparison.bench_mismatch);
  EXPECT_NE(format_comparison(comparison, 10.0).find("MISMATCH"),
            std::string::npos);
}

TEST(BenchCompare, LoadBenchFileReportsMissingAndMalformed) {
  std::string error;
  EXPECT_FALSE(load_bench_file("/nonexistent_dir_zz/BENCH.json", &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);

  const std::string path = ::testing::TempDir() + "malformed_bench.json";
  {
    std::ofstream out(path);
    out << "{not json";
  }
  error.clear();
  EXPECT_FALSE(load_bench_file(path, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());

  {
    std::ofstream out(path);
    out << R"({"bench": "kernels", "results": []})";
  }
  const auto doc = load_bench_file(path, &error);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->string_or("bench", ""), "kernels");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mach::obs
