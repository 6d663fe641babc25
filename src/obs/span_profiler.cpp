#include "obs/span_profiler.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/table.h"
#include "obs/json.h"
#include "obs/resource.h"

namespace mach::obs {

namespace {

// Thread → (profiler, track) binding. Plain thread_locals: each is written
// only by its own thread (via ThreadScope) and read only by that thread (via
// SpanGuard), so there is no sharing to synchronise.
thread_local SpanProfiler* tls_profiler = nullptr;
thread_local std::uint32_t tls_track = 0;

void append_u64(std::string& out, std::uint64_t value) {
  char digits[20];
  int count = 0;
  do {
    digits[count++] = static_cast<char>('0' + value % 10);
    value /= 10;
  } while (value != 0);
  while (count > 0) out.push_back(digits[--count]);
}

// Nanoseconds rendered as microseconds with three decimals ("1234.567") —
// exact, and far cheaper than snprintf("%.3f").
void append_us(std::string& out, std::uint64_t ns) {
  append_u64(out, ns / 1000);
  const auto frac = static_cast<unsigned>(ns % 1000);
  out.push_back('.');
  out.push_back(static_cast<char>('0' + frac / 100));
  out.push_back(static_cast<char>('0' + (frac / 10) % 10));
  out.push_back(static_cast<char>('0' + frac % 10));
}

}  // namespace

std::string_view phase_name(Phase phase) noexcept {
  switch (phase) {
    case Phase::SamplerDecision: return "sampler_decision";
    case Phase::DeviceTraining: return "device_training";
    case Phase::EdgeAggregation: return "edge_aggregation";
    case Phase::CloudAggregation: return "cloud_aggregation";
    case Phase::Evaluation: return "evaluation";
    case Phase::Checkpoint: return "checkpoint";
    case Phase::kCount: break;
  }
  return "unknown";
}

void print_phase_times(const PhaseTimerSet& timers, std::ostream& out) {
  common::Table table({"phase", "scopes", "total s", "share %"});
  const double total = timers.total_seconds();
  for (std::size_t i = 0; i < kNumPhases; ++i) {
    const auto phase = static_cast<Phase>(i);
    const PhaseAccumulator& acc = timers[phase];
    table.row()
        .cell(std::string(phase_name(phase)))
        .cell(acc.count)
        .cell(acc.total_seconds, 3)
        .cell(total > 0.0 ? acc.total_seconds / total * 100.0 : 0.0, 1);
  }
  out << '\n';
  table.print(out);
}

SpanProfiler::SpanProfiler(std::size_t tracks, std::size_t ring_capacity)
    : epoch_(std::chrono::steady_clock::now()),
      ring_capacity_(ring_capacity == 0 ? 1 : ring_capacity),
      tracks_(tracks == 0 ? 1 : tracks) {
  for (Track& track : tracks_) track.ring.resize(ring_capacity_);
}

SpanProfiler::ThreadScope::ThreadScope(SpanProfiler* profiler,
                                       std::uint32_t track) noexcept
    : previous_profiler_(tls_profiler), previous_track_(tls_track) {
  tls_profiler = profiler;
  tls_track = track;
}

SpanProfiler::ThreadScope::~ThreadScope() {
  tls_profiler = previous_profiler_;
  tls_track = previous_track_;
}

std::uint64_t SpanProfiler::to_ns(
    std::chrono::steady_clock::time_point time) const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(time - epoch_)
          .count());
}

std::uint16_t SpanProfiler::begin_span(std::uint32_t track) noexcept {
  return tracks_[track].open_depth++;
}

void SpanProfiler::end_span(std::uint32_t track, const Span& span) noexcept {
  Track& ring = tracks_[track];
  --ring.open_depth;
  if (ring.size < ring_capacity_) {
    ring.ring[(ring.start + ring.size) % ring_capacity_] = span;
    ++ring.size;
  } else {
    // Full: the new span overwrites the oldest slot (drop-oldest), counted.
    ring.ring[ring.start] = span;
    ring.start = (ring.start + 1) % ring_capacity_;
    ++ring.dropped;
  }
}

void SpanProfiler::merge_thread_rings() {
  for (Track& track : tracks_) {
    for (std::size_t i = 0; i < track.size; ++i) {
      merged_.push_back(track.ring[(track.start + i) % ring_capacity_]);
    }
    track.start = 0;
    track.size = 0;
    dropped_merged_ += track.dropped;
    track.dropped = 0;
  }
}

std::vector<Span> SpanProfiler::drain() {
  merge_thread_rings();
  std::stable_sort(merged_.begin(), merged_.end(),
                   [](const Span& a, const Span& b) {
                     if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
                     if (a.track != b.track) return a.track < b.track;
                     return a.depth < b.depth;
                   });
  std::vector<Span> out = std::move(merged_);
  merged_.clear();
  return out;
}

std::uint64_t SpanProfiler::spans_dropped() const noexcept {
  std::uint64_t total = dropped_merged_;
  for (const Track& track : tracks_) total += track.dropped;
  return total;
}

bool SpanProfiler::write_chrome_trace(const std::string& path,
                                      const ResourceSampler* resources) {
  const std::vector<Span> spans = drain();
  const std::uint64_t dropped = spans_dropped();

  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;

  out << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&]() -> std::ofstream& {
    if (!first) out << ",\n";
    first = false;
    return out;
  };

  // Thread-name metadata: tid == track index, coordinator first.
  for (std::size_t track = 0; track < tracks_.size(); ++track) {
    JsonObjectWriter event;
    event.begin();
    event.field("ph", "M");
    event.field("pid", std::uint64_t{1});
    event.field("tid", static_cast<std::uint64_t>(track));
    event.field("name", "thread_name");
    const std::string label =
        track == 0 ? std::string("coordinator")
                   : "worker_slot_" + std::to_string(track - 1);
    event.raw_field("args", "{\"name\":\"" + json_escape(label) + "\"}");
    sep() << event.end();
  }

  // Duration events, timestamps in microseconds as Chrome expects. This
  // array dominates export cost (tens of thousands of events), so it skips
  // JsonObjectWriter's per-field string building entirely: events are
  // appended into one batched buffer with integer formatting (the ns→µs
  // conversion is rendered exactly as "<µs>.<3 digits>"). Span names are
  // engine-internal literals with no characters needing escape.
  std::string buffer;
  constexpr std::size_t kFlushAt = (1u << 20) - 512;
  buffer.reserve(1u << 20);
  for (const Span& span : spans) {
    if (!first) buffer += ",\n";
    first = false;
    buffer += R"({"ph":"X","pid":1,"tid":)";
    append_u64(buffer, span.track);
    buffer += R"(,"name":")";
    buffer += span.name != nullptr ? span.name : "span";
    buffer += R"(","ts":)";
    append_us(buffer, span.start_ns);
    buffer += R"(,"dur":)";
    append_us(buffer, span.end_ns - span.start_ns);
    buffer += R"(,"args":{)";
    if (span.id >= 0) {
      buffer += R"("id":)";
      append_u64(buffer, static_cast<std::uint64_t>(span.id));
    }
    if (span.t >= 0) {
      if (span.id >= 0) buffer += ',';
      buffer += R"("t":)";
      append_u64(buffer, static_cast<std::uint64_t>(span.t));
    }
    buffer += "}}";
    if (buffer.size() > kFlushAt) {
      out << buffer;
      buffer.clear();
    }
  }
  out << buffer;

  // Resource counters as Chrome counter events on the coordinator track.
  if (resources != nullptr) {
    for (const ResourceSample& sample : resources->samples()) {
      JsonObjectWriter event;
      event.begin();
      event.field("ph", "C");
      event.field("pid", std::uint64_t{1});
      event.field("tid", std::uint64_t{0});
      event.field("name", "rss_mb");
      event.field("ts", sample.elapsed_seconds * 1e6);
      JsonObjectWriter args;
      args.begin();
      args.field("value",
                 static_cast<double>(sample.usage.current_rss_kb) / 1024.0);
      event.raw_field("args", args.end());
      sep() << event.end();
    }
  }

  out << "],\"displayTimeUnit\":\"ms\",\"otherData\":{";
  out << "\"spans_dropped\":" << dropped;
  out << ",\"tracks\":" << tracks_.size();
  out << ",\"ring_capacity\":" << ring_capacity_;
  out << "}}";
  out << '\n';
  out.flush();
  return static_cast<bool>(out);
}

SpanGuard::SpanGuard(const char* name, std::int64_t t,
                     std::int64_t id) noexcept
    : profiler_(tls_profiler) {
  if (profiler_ != nullptr) open(name, t, id);
}

SpanGuard::SpanGuard(PhaseAccumulator& phase, const char* name, std::int64_t t,
                     std::int64_t id) noexcept
    : profiler_(tls_profiler), phase_(&phase) {
  open(name, t, id);
}

void SpanGuard::open(const char* name, std::int64_t t,
                     std::int64_t id) noexcept {
  if (profiler_ != nullptr) {
    span_.name = name;
    span_.t = t;
    span_.id = id;
    span_.track = tls_track;
    span_.depth = profiler_->begin_span(span_.track);
  }
  start_ = std::chrono::steady_clock::now();
}

SpanGuard::~SpanGuard() {
  if (profiler_ == nullptr && phase_ == nullptr) return;
  // One interval for both records: the span lasts exactly what the phase is
  // charged.
  const auto elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
  if (phase_ != nullptr) phase_->add(static_cast<double>(elapsed_ns) * 1e-9);
  if (profiler_ != nullptr) {
    span_.start_ns = profiler_->to_ns(start_);
    span_.end_ns = span_.start_ns + elapsed_ns;
    profiler_->end_span(span_.track, span_);
  }
}

}  // namespace mach::obs
