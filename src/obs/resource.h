// Process resource telemetry: point-in-time usage snapshots (RSS, CPU time,
// page faults) via getrusage + /proc/self/statm, a rate-limited periodic
// sampler feeding the Chrome-trace counter track and status.json, and
// machine context (CPU model, hardware threads) for BENCH_*.json emitters.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace mach::obs {

/// One point-in-time snapshot of the process's resource consumption.
struct ResourceUsage {
  double user_cpu_seconds = 0.0;
  double system_cpu_seconds = 0.0;
  long peak_rss_kb = 0;     // ru_maxrss: high-water mark since process start
  long current_rss_kb = 0;  // /proc/self/statm resident pages (0 off-Linux)
  long minor_faults = 0;
  long major_faults = 0;
};

/// Captures the current usage (getrusage(RUSAGE_SELF) + /proc/self/statm).
ResourceUsage sample_resource_usage();

struct ResourceSample {
  double elapsed_seconds = 0.0;  // since the sampler's construction
  ResourceUsage usage;
};

/// Periodic sampler: maybe_sample() is cheap when called inside the interval
/// (one steady_clock read). When the sample buffer fills it decimates —
/// keeps every other sample and doubles the interval — so long runs keep a
/// bounded, evenly-thinned history instead of losing the tail.
class ResourceSampler {
 public:
  explicit ResourceSampler(double interval_seconds,
                           std::size_t max_samples = 4096);

  /// Captures a sample when at least the interval has elapsed since the
  /// last one. Returns true when a sample was taken.
  bool maybe_sample();

  /// Captures a sample unconditionally (used for the final snapshot).
  void force_sample();

  const std::vector<ResourceSample>& samples() const noexcept {
    return samples_;
  }
  /// Latest captured sample; a fresh capture when none exists yet.
  ResourceSample latest() const;
  double interval_seconds() const noexcept { return interval_seconds_; }

 private:
  void capture();

  double interval_seconds_;
  std::size_t max_samples_;
  double start_seconds_;  // steady_clock at construction
  double last_sample_seconds_ = -1.0;
  std::vector<ResourceSample> samples_;
};

/// Machine context recorded into BENCH_*.json so results are interpretable
/// across machines.
struct HardwareInfo {
  std::string cpu_model;        // "unknown" when /proc/cpuinfo is unreadable
  std::size_t hardware_threads = 0;
  long peak_rss_kb = 0;         // process high-water mark at capture time
  std::string gemm_isa;         // GEMM micro-kernel this CPU runs
};

HardwareInfo read_hardware_info();

/// JSON object string {"cpu_model":...,"hardware_threads":...,"peak_rss_kb":...,
/// "gemm_isa":...} for embedding via JsonObjectWriter::raw_field.
std::string hardware_json();

}  // namespace mach::obs
