#include "obs/resource.h"

#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/cpu_isa.h"
#include "obs/json.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#define MACH_HAVE_GETRUSAGE 1
#else
#define MACH_HAVE_GETRUSAGE 0
#endif

namespace mach::obs {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

long read_statm_resident_kb() {
  // /proc/self/statm: size resident shared text lib data dt (in pages).
  std::ifstream statm("/proc/self/statm");
  if (!statm) return 0;
  long size_pages = 0;
  long resident_pages = 0;
  statm >> size_pages >> resident_pages;
  if (!statm) return 0;
#if MACH_HAVE_GETRUSAGE
  const long page_kb = sysconf(_SC_PAGESIZE) / 1024;
#else
  const long page_kb = 4;
#endif
  return resident_pages * (page_kb > 0 ? page_kb : 4);
}

}  // namespace

ResourceUsage sample_resource_usage() {
  ResourceUsage usage;
#if MACH_HAVE_GETRUSAGE
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    usage.user_cpu_seconds = static_cast<double>(ru.ru_utime.tv_sec) +
                             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    usage.system_cpu_seconds = static_cast<double>(ru.ru_stime.tv_sec) +
                               static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
#if defined(__APPLE__)
    usage.peak_rss_kb = ru.ru_maxrss / 1024;  // macOS reports bytes
#else
    usage.peak_rss_kb = ru.ru_maxrss;  // Linux reports kilobytes
#endif
    usage.minor_faults = ru.ru_minflt;
    usage.major_faults = ru.ru_majflt;
  }
#endif
  usage.current_rss_kb = read_statm_resident_kb();
  if (usage.current_rss_kb == 0) usage.current_rss_kb = usage.peak_rss_kb;
  return usage;
}

ResourceSampler::ResourceSampler(double interval_seconds,
                                 std::size_t max_samples)
    : interval_seconds_(interval_seconds > 0.0 ? interval_seconds : 0.25),
      max_samples_(max_samples < 2 ? 2 : max_samples),
      start_seconds_(steady_seconds()) {
  samples_.reserve(max_samples_);
}

bool ResourceSampler::maybe_sample() {
  const double now = steady_seconds() - start_seconds_;
  if (last_sample_seconds_ >= 0.0 &&
      now - last_sample_seconds_ < interval_seconds_) {
    return false;
  }
  capture();
  return true;
}

void ResourceSampler::force_sample() { capture(); }

ResourceSample ResourceSampler::latest() const {
  if (!samples_.empty()) return samples_.back();
  ResourceSample sample;
  sample.elapsed_seconds = steady_seconds() - start_seconds_;
  sample.usage = sample_resource_usage();
  return sample;
}

void ResourceSampler::capture() {
  if (samples_.size() >= max_samples_) {
    // Decimate: keep every other sample and double the interval, so the
    // history stays bounded but spans the whole run evenly.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < samples_.size(); i += 2) {
      samples_[kept++] = samples_[i];
    }
    samples_.resize(kept);
    interval_seconds_ *= 2.0;
  }
  ResourceSample sample;
  sample.elapsed_seconds = steady_seconds() - start_seconds_;
  sample.usage = sample_resource_usage();
  last_sample_seconds_ = sample.elapsed_seconds;
  samples_.push_back(sample);
}

HardwareInfo read_hardware_info() {
  HardwareInfo info;
  info.cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") == 0) {
      std::size_t begin = colon + 1;
      while (begin < line.size() && line[begin] == ' ') ++begin;
      if (begin < line.size()) info.cpu_model = line.substr(begin);
      break;
    }
  }
  info.hardware_threads = std::thread::hardware_concurrency();
  info.peak_rss_kb = sample_resource_usage().peak_rss_kb;
  info.gemm_isa = common::gemm_isa_name(common::host_gemm_isa());
  return info;
}

std::string hardware_json() {
  const HardwareInfo info = read_hardware_info();
  JsonObjectWriter out;
  out.begin();
  out.field("cpu_model", info.cpu_model);
  out.field("hardware_threads",
            static_cast<std::uint64_t>(info.hardware_threads));
  out.field("peak_rss_kb", static_cast<std::int64_t>(info.peak_rss_kb));
  out.field("gemm_isa", info.gemm_isa);
  return out.end();
}

}  // namespace mach::obs
