// Resource telemetry + status heartbeat suite: getrusage/statm snapshots,
// the decimating periodic sampler, hardware context for BENCH_*.json, and
// the atomic-rename status.json writer parsed back through obs/json.h.
#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "common/cpu_isa.h"
#include "obs/json.h"
#include "obs/resource.h"
#include "obs/status_writer.h"

namespace mach::obs {
namespace {

TEST(ResourceUsage, SnapshotIsPlausible) {
  const ResourceUsage usage = sample_resource_usage();
  EXPECT_GT(usage.peak_rss_kb, 0);
  EXPECT_GE(usage.user_cpu_seconds, 0.0);
  EXPECT_GE(usage.system_cpu_seconds, 0.0);
  EXPECT_GE(usage.minor_faults, 0);
  // statm and ru_maxrss account pages slightly differently, so only sanity:
  // both are positive for a running binary.
  EXPECT_GT(usage.current_rss_kb, 0);
}

TEST(ResourceSampler, NonPositiveIntervalFallsBackToTheDefault) {
  ResourceSampler sampler(/*interval_seconds=*/0.0, /*max_samples=*/64);
  EXPECT_EQ(sampler.interval_seconds(), 0.25);
  EXPECT_TRUE(sampler.maybe_sample());   // first call always captures
  EXPECT_FALSE(sampler.maybe_sample());  // gated by the default interval
  sampler.force_sample();
  EXPECT_EQ(sampler.samples().size(), 2u);
  for (std::size_t i = 1; i < sampler.samples().size(); ++i) {
    EXPECT_GE(sampler.samples()[i].elapsed_seconds,
              sampler.samples()[i - 1].elapsed_seconds);
  }
}

TEST(ResourceSampler, LargeIntervalSuppressesRepeatSamples) {
  ResourceSampler sampler(/*interval_seconds=*/3600.0);
  EXPECT_TRUE(sampler.maybe_sample());   // first call always captures
  EXPECT_FALSE(sampler.maybe_sample());  // inside the hour: suppressed
  sampler.force_sample();                // final snapshot bypasses the gate
  EXPECT_EQ(sampler.samples().size(), 2u);
}

TEST(ResourceSampler, DecimatesInsteadOfGrowingPastTheCap) {
  const std::size_t cap = 8;
  ResourceSampler sampler(/*interval_seconds=*/0.0, cap);
  const double initial_interval = sampler.interval_seconds();
  for (int i = 0; i < 40; ++i) sampler.force_sample();
  EXPECT_LE(sampler.samples().size(), cap);
  EXPECT_GE(sampler.samples().size(), cap / 2);
  // Each decimation doubles the interval so the thinned history stays even.
  EXPECT_GT(sampler.interval_seconds(), initial_interval);
  for (std::size_t i = 1; i < sampler.samples().size(); ++i) {
    EXPECT_GE(sampler.samples()[i].elapsed_seconds,
              sampler.samples()[i - 1].elapsed_seconds);
  }
}

TEST(ResourceSampler, LatestFallsBackToAFreshCapture) {
  const ResourceSampler sampler(/*interval_seconds=*/60.0);
  EXPECT_TRUE(sampler.samples().empty());
  EXPECT_GT(sampler.latest().usage.peak_rss_kb, 0);
}

TEST(HardwareInfo, ReportsThreadsAndEmbeddableJson) {
  const HardwareInfo info = read_hardware_info();
  EXPECT_GE(info.hardware_threads, 1u);
  EXPECT_FALSE(info.cpu_model.empty());
  EXPECT_GT(info.peak_rss_kb, 0);

  std::string error;
  const auto parsed = parse_json(hardware_json(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ((*parsed).string_or("cpu_model", ""), info.cpu_model);
  EXPECT_EQ((*parsed).number_or("hardware_threads", 0),
            static_cast<double>(info.hardware_threads));
  EXPECT_GT((*parsed).number_or("peak_rss_kb", 0), 0.0);
  // Names the GEMM micro-kernel the process dispatches to.
  EXPECT_EQ((*parsed).string_or("gemm_isa", ""),
            common::gemm_isa_name(common::host_gemm_isa()));
  EXPECT_EQ(info.gemm_isa, (*parsed).string_or("gemm_isa", ""));
}

TEST(StatusWriter, WritesParseableDocumentAndCleansUpTheTemp) {
  const std::string path = ::testing::TempDir() + "status_writer_test.json";
  StatusWriter writer(path, /*interval_seconds=*/3600.0);

  StatusSnapshot snapshot;
  snapshot.sampler = "mach";
  snapshot.step = 7;
  snapshot.total_steps = 20;
  snapshot.cloud_rounds = 1;
  snapshot.devices_trained = 42;
  snapshot.faults_lost = 3;
  snapshot.spans_dropped = 1;
  snapshot.current_rss_kb = 1000;
  snapshot.peak_rss_kb = 1200;
  ASSERT_TRUE(writer.write_now(snapshot));
  EXPECT_EQ(writer.writes(), 1u);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string error;
  const auto parsed = parse_json(body, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const JsonValue& doc = *parsed;
  EXPECT_EQ(doc.string_or("kind", ""), "mach_status");
  EXPECT_EQ(doc.number_or("sequence", 0), 1.0);
  EXPECT_EQ(doc.string_or("sampler", ""), "mach");
  EXPECT_EQ(doc.number_or("step", 0), 7.0);
  EXPECT_EQ(doc.number_or("total_steps", 0), 20.0);
  EXPECT_EQ(doc.number_or("devices_trained", 0), 42.0);
  EXPECT_EQ(doc.number_or("faults_lost", 0), 3.0);
  EXPECT_EQ(doc.number_or("spans_dropped", 0), 1.0);
  EXPECT_GT(doc.number_or("updated_unix", 0), 0.0);
  EXPECT_FALSE(doc["finished"].as_bool());

  // The rename consumed the temp file: only the final document remains.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(StatusWriter, IntervalGatesWritesButFinishedForcesOne) {
  const std::string path = ::testing::TempDir() + "status_writer_gate.json";
  StatusWriter writer(path, /*interval_seconds=*/3600.0);

  StatusSnapshot snapshot;
  snapshot.sampler = "uniform";
  EXPECT_TRUE(writer.maybe_write(snapshot));   // first write always lands
  EXPECT_FALSE(writer.maybe_write(snapshot));  // inside the hour: gated
  snapshot.finished = true;
  EXPECT_TRUE(writer.maybe_write(snapshot));   // final snapshot bypasses it
  EXPECT_EQ(writer.writes(), 2u);

  // The sequence number survives across writes (monotonic watcher signal).
  std::ifstream in(path);
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::string error;
  const auto parsed = parse_json(body, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ((*parsed).number_or("sequence", 0), 2.0);
  EXPECT_TRUE((*parsed)["finished"].as_bool());
  std::remove(path.c_str());
}

TEST(StatusWriter, DerivesElapsedRateAndEtaFromItsOwnClock) {
  const std::string path = ::testing::TempDir() + "status_writer_clock_" +
                           std::to_string(::getpid()) + ".json";
  StatusWriter writer(path, /*interval_seconds=*/0.5);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  StatusSnapshot snapshot;
  snapshot.step = 6;        // a resumed run: steps 4 and 5 ran here
  snapshot.start_step = 4;
  snapshot.total_steps = 10;
  snapshot.devices_trained = 30;
  const auto read_back = [&] {
    std::ifstream in(path);
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::string error;
    auto parsed = parse_json(body, &error);
    EXPECT_TRUE(parsed.has_value()) << error;
    return parsed.value_or(JsonValue{});
  };

  ASSERT_TRUE(writer.write_now(snapshot));
  JsonValue doc = read_back();
  const double elapsed = doc.number_or("elapsed_seconds", 0);
  EXPECT_GE(elapsed, 0.002 * 0.5);
  EXPECT_NEAR(doc.number_or("uptime_ms", 0), elapsed * 1000.0, 1.0);
  EXPECT_NEAR(doc.number_or("devices_per_second", 0) * elapsed, 30.0, 1e-6);
  // Two steps took `elapsed`; four remain.
  EXPECT_NEAR(doc.number_or("eta_seconds", 0), elapsed * 2.0, elapsed * 1e-9);

  snapshot.step = 10;
  snapshot.finished = true;
  ASSERT_TRUE(writer.write_now(snapshot));
  doc = read_back();
  EXPECT_EQ(doc.number_or("eta_seconds", -1), 0.0);
  EXPECT_GE(doc.number_or("elapsed_seconds", 0), elapsed);
  std::remove(path.c_str());
}

TEST(StatusWriter, UnwritableDirectoryReportsFailure) {
  StatusWriter writer("/nonexistent_dir_zz/status.json", 0.5);
  EXPECT_FALSE(writer.write_now(StatusSnapshot{}));
}

}  // namespace
}  // namespace mach::obs
