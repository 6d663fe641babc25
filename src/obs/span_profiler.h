// Hierarchical span profiler and the engine's phase clock.
//
// A SpanGuard marks one timed scope (round → edge aggregate → device train →
// kernel group). Guards write into per-track fixed-capacity ring buffers —
// one track for the coordinator thread plus one per runtime worker slot — so
// the hot path costs two steady_clock reads and zero heap allocations.
// Threads are bound to tracks with a ThreadScope (RAII over a thread_local
// binding); an unbound thread's plain guards are no-ops, which is what makes
// span call sites safe to leave permanently compiled into deep layers
// (sampling water-filling, fault fates, kernels) — they only ever record
// when the engine has bound the thread to an active profiler.
//
// A guard given a PhaseAccumulator is the engine's wall clock for one phase
// of Algorithm 1: it always reads the clock on entry and exit and charges
// the interval to the phase when it closes, bound or not; when the thread is
// bound, the same interval is also recorded as a span. So the always-on
// phase totals (--phase_times, run_end.phases) and the opt-in span profile
// measure every phase scope with the same two clock reads.
//
// Rings overflow by dropping the oldest span and counting it (spans_dropped);
// the engine merges rings into a master list at round barriers (no worker is
// running then, so the merge needs no locks and is deterministic: track
// order, then completion order within a track). export via
// write_chrome_trace() produces Chrome trace-event JSON loadable in Perfetto
// or chrome://tracing.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mach::obs {

class ResourceSampler;

/// The phases of Algorithm 1 the engine charges wall time to.
enum class Phase : std::size_t {
  SamplerDecision = 0,  // edge_probabilities (+ oracle probes) per edge
  DeviceTraining,       // local updating, Eq. 4
  EdgeAggregation,      // Horvitz-Thompson edge aggregation, Eq. 5
  CloudAggregation,     // edge -> cloud fold + broadcast, Eq. 6
  Evaluation,           // global-model evaluation passes
  Checkpoint,           // run-state snapshot encode + durable write
  kCount,
};

constexpr std::size_t kNumPhases = static_cast<std::size_t>(Phase::kCount);

/// Stable machine-readable phase name ("device_training", ...).
std::string_view phase_name(Phase phase) noexcept;

/// Accumulated wall-clock statistics of one phase.
struct PhaseAccumulator {
  std::uint64_t count = 0;   // number of timed scopes
  double total_seconds = 0.0;
  double min_seconds = 0.0;  // 0 until the first observation
  double max_seconds = 0.0;

  void add(double seconds) noexcept {
    if (count == 0 || seconds < min_seconds) min_seconds = seconds;
    if (seconds > max_seconds) max_seconds = seconds;
    total_seconds += seconds;
    ++count;
  }
  double mean_seconds() const noexcept {
    return count == 0 ? 0.0 : total_seconds / static_cast<double>(count);
  }

  /// Folds another accumulator in (cross-run aggregation for bench sweeps).
  void merge(const PhaseAccumulator& other) noexcept {
    if (other.count == 0) return;
    if (count == 0 || other.min_seconds < min_seconds) {
      min_seconds = other.min_seconds;
    }
    if (other.max_seconds > max_seconds) max_seconds = other.max_seconds;
    total_seconds += other.total_seconds;
    count += other.count;
  }
};

/// One accumulator per Phase. Value-semantic; reset() between runs.
class PhaseTimerSet {
 public:
  PhaseAccumulator& operator[](Phase phase) noexcept {
    return accumulators_[static_cast<std::size_t>(phase)];
  }
  const PhaseAccumulator& operator[](Phase phase) const noexcept {
    return accumulators_[static_cast<std::size_t>(phase)];
  }

  double total_seconds() const noexcept {
    double total = 0.0;
    for (const auto& acc : accumulators_) total += acc.total_seconds;
    return total;
  }

  void reset() noexcept { accumulators_ = {}; }

  /// Folds another set in phase-by-phase (bench sweeps sum per-seed runs).
  void merge(const PhaseTimerSet& other) noexcept {
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      accumulators_[i].merge(other.accumulators_[i]);
    }
  }

 private:
  std::array<PhaseAccumulator, kNumPhases> accumulators_{};
};

/// Prints the phase breakdown as one table (phase, scopes, total s,
/// share %), preceded by a blank line: the --phase_times output of
/// experiment_runner and the benches.
void print_phase_times(const PhaseTimerSet& timers, std::ostream& out);

/// Profiling knobs carried in HflOptions. Everything is off by default, and
/// the spans-off run is bitwise identical to a build without the profiler.
struct ProfileOptions {
  /// Chrome trace-event JSON output path ("" = span recording off).
  std::string trace_path;
  /// Live status.json heartbeat path ("" = off). Independent of spans.
  std::string status_path;
};

/// One completed timed scope. `name` must point at a string literal (or any
/// storage outliving the profiler) — spans never copy it.
struct Span {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;  // since the profiler's construction
  std::uint64_t end_ns = 0;
  std::int64_t t = -1;         // simulation step, -1 when not applicable
  std::int64_t id = -1;        // device/edge id, -1 when not applicable
  std::uint32_t track = 0;
  std::uint16_t depth = 0;     // nesting level within the track

  double duration_seconds() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class SpanProfiler {
 public:
  /// `tracks` >= 1 (track 0 = coordinator, 1..N = worker slots). Every ring
  /// is allocated up front; recording never allocates.
  SpanProfiler(std::size_t tracks, std::size_t ring_capacity);

  /// Binds the calling thread to (profiler, track) for the scope's lifetime,
  /// restoring the previous binding on destruction. Exactly one thread may
  /// be bound to a given track at a time (the engine guarantees this: the
  /// coordinator owns track 0 outside parallel sections, and slice k of a
  /// section owns track k+1).
  class ThreadScope {
   public:
    ThreadScope(SpanProfiler* profiler, std::uint32_t track) noexcept;
    ~ThreadScope();
    ThreadScope(const ThreadScope&) = delete;
    ThreadScope& operator=(const ThreadScope&) = delete;

   private:
    SpanProfiler* previous_profiler_;
    std::uint32_t previous_track_;
  };

  std::size_t num_tracks() const noexcept { return tracks_.size(); }
  std::size_t ring_capacity() const noexcept { return ring_capacity_; }

  /// `time` in the span time base: nanoseconds since profiler construction.
  std::uint64_t to_ns(std::chrono::steady_clock::time_point time) const noexcept;

  /// Drains every track's ring into the master span list. Call only at a
  /// barrier (no bound thread mid-span-write, e.g. the simulator's cloud
  /// round). Deterministic: tracks in index order, completion order within.
  void merge_thread_rings();

  /// merge_thread_rings() + returns the master list sorted by
  /// (start_ns, track, depth) and clears it. Spans still open stay unrecorded.
  std::vector<Span> drain();

  /// Spans lost to ring overflow so far (across merges and drains).
  std::uint64_t spans_dropped() const noexcept;

  /// Merges, drains and writes Chrome trace-event JSON ("X" duration events,
  /// one tid per track, plus optional "C" counter events from `resources`
  /// and a spans_dropped record in otherData). Returns false when the file
  /// cannot be written. Loadable in Perfetto / chrome://tracing.
  bool write_chrome_trace(const std::string& path,
                          const ResourceSampler* resources = nullptr);

  // -- internals used by SpanGuard (public for the guard, not for callers) --
  std::uint16_t begin_span(std::uint32_t track) noexcept;  // returns depth
  void end_span(std::uint32_t track, const Span& span) noexcept;

 private:
  struct Track {
    std::vector<Span> ring;      // fixed capacity, pre-allocated
    std::size_t start = 0;       // index of the oldest span
    std::size_t size = 0;
    std::uint64_t dropped = 0;
    std::uint16_t open_depth = 0;
  };

  std::chrono::steady_clock::time_point epoch_;
  std::size_t ring_capacity_;
  std::vector<Track> tracks_;
  std::vector<Span> merged_;
  std::uint64_t dropped_merged_ = 0;
};

/// RAII timed scope. Reads the calling thread's binding once. A plain guard
/// on an unbound thread is a complete no-op (one thread_local read and a
/// branch); a phase-tagged guard always reads the clock twice and charges
/// its phase on destruction, recording a span of the same interval only
/// when the thread is bound.
class SpanGuard {
 public:
  explicit SpanGuard(const char* name, std::int64_t t = -1,
                     std::int64_t id = -1) noexcept;
  SpanGuard(PhaseAccumulator& phase, const char* name, std::int64_t t = -1,
            std::int64_t id = -1) noexcept;
  ~SpanGuard();
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  void open(const char* name, std::int64_t t, std::int64_t id) noexcept;

  SpanProfiler* profiler_;             // nullptr = no span is recorded
  PhaseAccumulator* phase_ = nullptr;  // nullptr = no phase is charged
  std::chrono::steady_clock::time_point start_{};
  Span span_;
};

}  // namespace mach::obs
