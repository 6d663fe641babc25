#include "obs/status_writer.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <fstream>

#include "obs/json.h"

namespace mach::obs {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

StatusWriter::StatusWriter(std::string path, double interval_seconds)
    : path_(std::move(path)),
      tmp_path_(path_ + ".tmp"),
      interval_seconds_(interval_seconds > 0.0 ? interval_seconds : 0.5),
      start_seconds_(steady_seconds()),
      pid_(static_cast<long>(::getpid())) {}

bool StatusWriter::maybe_write(const StatusSnapshot& snapshot) {
  const double now = steady_seconds();
  if (!snapshot.finished && last_write_seconds_ >= 0.0 &&
      now - last_write_seconds_ < interval_seconds_) {
    return false;
  }
  last_write_seconds_ = now;
  return write_now(snapshot);
}

bool StatusWriter::write_now(const StatusSnapshot& snapshot) {
  return write_document(snapshot, /*aborted=*/false);
}

bool StatusWriter::write_aborted() {
  if (!have_snapshot_ || last_snapshot_.finished) return false;
  const StatusSnapshot snap = last_snapshot_;  // copy: write_document aliases
  const bool ok = write_document(snap, /*aborted=*/true);
  last_snapshot_.finished = true;  // fire once per run, even if called twice
  return ok;
}

bool StatusWriter::write_document(const StatusSnapshot& snapshot, bool aborted) {
  last_snapshot_ = snapshot;
  have_snapshot_ = true;

  JsonObjectWriter out;
  out.begin();
  out.field("kind", "mach_status");
  out.field("sequence", ++sequence_);
  out.field("updated_unix",
            std::chrono::duration<double>(
                std::chrono::system_clock::now().time_since_epoch())
                .count());
  // elapsed_seconds, the rate and the ETA all derive from the writer's
  // monotonic clock: elapsed time of this process, so a resumed run's ETA
  // divides by the steps it ran itself (step - start_step).
  const double elapsed = steady_seconds() - start_seconds_;
  double devices_per_second = 0.0;
  double eta_seconds = 0.0;
  if (elapsed > 0.0) {
    devices_per_second = static_cast<double>(snapshot.devices_trained) / elapsed;
  }
  if (!snapshot.finished && !aborted && snapshot.step > snapshot.start_step) {
    eta_seconds = elapsed /
                  static_cast<double>(snapshot.step - snapshot.start_step) *
                  static_cast<double>(snapshot.total_steps - snapshot.step);
  }
  out.field("pid", static_cast<std::int64_t>(pid_));
  out.field("uptime_ms", static_cast<std::uint64_t>(elapsed * 1000.0));
  out.field("sampler", snapshot.sampler);
  out.field("step", static_cast<std::uint64_t>(snapshot.step));
  out.field("total_steps", static_cast<std::uint64_t>(snapshot.total_steps));
  out.field("cloud_rounds", static_cast<std::uint64_t>(snapshot.cloud_rounds));
  out.field("devices_trained", snapshot.devices_trained);
  out.field("devices_per_second", devices_per_second);
  out.field("elapsed_seconds", elapsed);
  out.field("eta_seconds", eta_seconds);
  out.field("faults_lost", snapshot.faults_lost);
  out.field("spans_dropped", snapshot.spans_dropped);
  out.field("current_rss_kb", static_cast<std::int64_t>(snapshot.current_rss_kb));
  out.field("peak_rss_kb", static_cast<std::int64_t>(snapshot.peak_rss_kb));
  out.field("finished", snapshot.finished);
  out.field("aborted", aborted);
  const std::string body = out.end();

  {
    std::ofstream tmp(tmp_path_, std::ios::trunc);
    if (!tmp) return false;
    tmp << body << '\n';
    tmp.flush();
    if (!tmp) return false;
  }
  // Atomic replace: readers see either the previous document or this one.
  return std::rename(tmp_path_.c_str(), path_.c_str()) == 0;
}

}  // namespace mach::obs
