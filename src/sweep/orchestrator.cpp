#include "sweep/orchestrator.h"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>
#ifdef __linux__
#include <sys/prctl.h>
#endif

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ckpt/file.h"
#include "common/log.h"
#include "obs/heartbeat.h"
#include "obs/json.h"
#include "sweep/backoff.h"

namespace mach::sweep {

namespace fs = std::filesystem;

namespace {

// experiment_runner's exit-code contract (see its file comment).
constexpr int kRunnerOk = 0;
constexpr int kRunnerConfigError = 2;
constexpr int kRunnerDrained = 75;

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Accuracy metrics recovered from a completed run's curve.csv (header:
/// t,test_accuracy,test_loss,train_loss,participants,...).
struct CurveMetrics {
  bool valid = false;
  std::uint64_t last_step = 0;
  double final_accuracy = 0.0;
  double best_accuracy = 0.0;
};

CurveMetrics read_curve(const std::string& csv_path) {
  CurveMetrics metrics;
  std::ifstream in(csv_path);
  if (!in) return metrics;
  std::string line;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      header = false;
      continue;
    }
    const std::size_t first_comma = line.find(',');
    if (first_comma == std::string::npos) continue;
    const std::size_t second_comma = line.find(',', first_comma + 1);
    const std::string t_text = line.substr(0, first_comma);
    const std::string acc_text =
        line.substr(first_comma + 1, second_comma == std::string::npos
                                         ? std::string::npos
                                         : second_comma - first_comma - 1);
    char* end = nullptr;
    const double accuracy = std::strtod(acc_text.c_str(), &end);
    if (end == acc_text.c_str()) continue;
    metrics.last_step =
        static_cast<std::uint64_t>(std::strtoull(t_text.c_str(), nullptr, 10));
    metrics.final_accuracy = accuracy;
    if (!metrics.valid || accuracy > metrics.best_accuracy) {
      metrics.best_accuracy = accuracy;
    }
    metrics.valid = true;
  }
  return metrics;
}

struct RunPaths {
  std::string dir;
  std::string status;
  std::string csv;
  std::string trace;
  std::string snaps;
  std::string log;
};

RunPaths run_paths(const std::string& runs_dir, const std::string& fingerprint) {
  RunPaths paths;
  paths.dir = (fs::path(runs_dir) / fingerprint).string();
  paths.status = (fs::path(paths.dir) / "status.json").string();
  paths.csv = (fs::path(paths.dir) / "curve.csv").string();
  paths.trace = (fs::path(paths.dir) / "trace.jsonl").string();
  paths.snaps = (fs::path(paths.dir) / "snaps").string();
  paths.log = (fs::path(paths.dir) / "log.txt").string();
  return paths;
}

/// One queued attempt; `ready_at` implements backoff without ever blocking
/// the supervision loop.
struct PendingRun {
  std::size_t index = 0;
  double ready_at = 0.0;
};

struct RunningChild {
  pid_t pid = -1;
  std::size_t index = 0;
  std::uint32_t attempt = 1;
  obs::HeartbeatMonitor monitor{0.0};
  bool watchdog_killed = false;
  bool term_sent = false;
};

class Supervisor {
 public:
  Supervisor(const SweepSpec& spec, const OrchestratorOptions& options)
      : spec_(spec),
        options_(options),
        runs_dir_((fs::path(options.out_dir) / "runs").string()),
        journal_((fs::path(options.out_dir) / "journal.machswj").string()) {
    // Degenerate knobs would wedge the supervision loop, not fail it.
    if (options_.parallel == 0) options_.parallel = 1;
    if (options_.max_attempts == 0) options_.max_attempts = 1;
    if (options_.poll_seconds < 0.001) options_.poll_seconds = 0.001;
  }

  SweepResult run();

 private:
  void reconcile_journal();
  void spawn(std::size_t index, std::uint32_t attempt);
  void reap_and_classify();
  void run_watchdog(double now);
  void handle_exit(const RunningChild& child, int status);
  void record_failure(const RunningChild& child, int exit_code, int signal,
                      std::string reason);
  void record_done(const SweepPoint& point);
  std::uint32_t failures_of(const std::string& fingerprint) const;

  const SweepSpec& spec_;
  OrchestratorOptions options_;  // by value: ctor sanitises the knobs
  std::string runs_dir_;
  SweepJournal journal_;
  std::deque<PendingRun> queue_;
  std::vector<RunningChild> running_;
  bool draining_ = false;
  std::size_t ran_here_ = 0;
  std::size_t done_appends_ = 0;
};

std::uint32_t Supervisor::failures_of(const std::string& fingerprint) const {
  const auto it = journal_.states().find(fingerprint);
  return it == journal_.states().end()
             ? 0
             : static_cast<std::uint32_t>(it->second.failures.size());
}

void Supervisor::reconcile_journal() {
  if (journal_.repaired_bytes() > 0) {
    common::log_warn("sweep: journal tail repaired (",
                     journal_.repaired_bytes(), " byte(s) dropped)");
  }
  std::size_t resumed = 0;
  for (std::size_t i = 0; i < spec_.points.size(); ++i) {
    const SweepPoint& point = spec_.points[i];
    const auto it = journal_.states().find(point.fingerprint);
    if (it == journal_.states().end()) {
      queue_.push_back({i, 0.0});
      continue;
    }
    const PointState& state = it->second;
    if (state.canonical != point.canonical) {
      throw std::runtime_error(
          "sweep: fingerprint collision for " + point.fingerprint +
          " — journal has a different config under the same hash; use a "
          "fresh --out directory");
    }
    if (state.done || state.quarantined) continue;
    if (state.failures.size() >= options_.max_attempts) {
      // Crashed between the final AttemptFailed append and its Quarantined
      // record; finish the transition instead of granting bonus attempts.
      journal_.append({RecordKind::Quarantined, point.fingerprint,
                       point.canonical, 0, 0, 0, ""});
      continue;
    }
    ++resumed;
    queue_.push_back({i, 0.0});
  }
  if (resumed > 0) {
    common::log_info("sweep: resuming ", resumed,
                     " interrupted point(s) from the journal");
  }
}

void Supervisor::spawn(std::size_t index, std::uint32_t attempt) {
  const SweepPoint& point = spec_.points[index];
  const RunPaths paths = run_paths(runs_dir_, point.fingerprint);
  std::error_code ec;
  fs::create_directories(paths.snaps, ec);
  if (ec) {
    throw std::runtime_error("sweep: cannot create " + paths.snaps + ": " +
                             ec.message());
  }

  std::vector<std::string> argv_store;
  argv_store.push_back(options_.runner_binary);
  for (const auto& [key, value] : point.config) {
    argv_store.push_back("--" + key + "=" + value);
  }
  argv_store.push_back("--status=" + paths.status);
  argv_store.push_back("--csv=" + paths.csv);
  argv_store.push_back("--trace=" + paths.trace);
  argv_store.push_back("--checkpoint_dir=" + paths.snaps);
  argv_store.push_back("--checkpoint_every=" +
                       std::to_string(options_.checkpoint_every));
  argv_store.push_back("--checkpoint_keep=" +
                       std::to_string(options_.checkpoint_keep));
  // Always --resume: on attempt 1 the snaps dir is empty and this is a
  // no-op; on a retry it is exactly the self-healing property — continue
  // from the newest durable snapshot instead of redoing the run.
  argv_store.push_back("--resume");
  std::vector<char*> argv;
  for (auto& arg : argv_store) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(paths.log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  const pid_t parent = ::getpid();
  const double now = steady_seconds();
  const pid_t pid = ::fork();
  if (pid < 0) {
    if (log_fd >= 0) ::close(log_fd);
    RunningChild phantom;
    phantom.index = index;
    phantom.attempt = attempt;
    record_failure(phantom, -1, 0,
                   std::string("fork failed: ") + std::strerror(errno));
    return;
  }
  if (pid == 0) {
    // Child. Die with the orchestrator: a SIGKILLed supervisor must not
    // leave orphans mutating run directories that a restarted sweep then
    // races against.
#ifdef __linux__
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) _exit(125);  // parent died before prctl took
#else
    (void)parent;
#endif
    if (log_fd >= 0) {
      ::dup2(log_fd, STDOUT_FILENO);
      ::dup2(log_fd, STDERR_FILENO);
      ::close(log_fd);
    }
    ::execv(argv[0], argv.data());
    _exit(127);  // exec failed; the parent classifies 127 as a failure
  }
  if (log_fd >= 0) ::close(log_fd);

  RunningChild child;
  child.pid = pid;
  child.index = index;
  child.attempt = attempt;
  child.monitor = obs::HeartbeatMonitor(now);
  running_.push_back(child);
  common::log_info("sweep: [", point.fingerprint, "] attempt ", attempt,
                   " started (pid ", static_cast<std::int64_t>(pid), ")");
}

void Supervisor::record_done(const SweepPoint& point) {
  journal_.append(
      {RecordKind::Done, point.fingerprint, point.canonical, 0, 0, 0, ""});
  ++ran_here_;
  ++done_appends_;
  common::log_info("sweep: [", point.fingerprint, "] done");
  if (options_.kill_after_points > 0 &&
      done_appends_ >= options_.kill_after_points) {
    // Crash harness: the Done record above is already durable, so a rerun
    // must treat this point as finished. SIGKILL skips every destructor —
    // exactly the failure the journal is designed to survive.
    common::log_warn("sweep: harness SIGKILL after ", done_appends_,
                     " completed point(s)");
    ::raise(SIGKILL);
  }
}

void Supervisor::record_failure(const RunningChild& child, int exit_code,
                                int signal, std::string reason) {
  const SweepPoint& point = spec_.points[child.index];
  journal_.append({RecordKind::AttemptFailed, point.fingerprint,
                   point.canonical, child.attempt,
                   static_cast<std::int32_t>(exit_code),
                   static_cast<std::int32_t>(signal), reason});
  const std::uint32_t failures = failures_of(point.fingerprint);
  const bool non_retryable = exit_code == kRunnerConfigError;
  common::log_warn("sweep: [", point.fingerprint, "] attempt ", child.attempt,
                   " failed — ", reason);
  if (non_retryable || failures >= options_.max_attempts) {
    journal_.append({RecordKind::Quarantined, point.fingerprint,
                     point.canonical, 0, 0, 0, ""});
    common::log_warn("sweep: [", point.fingerprint, "] quarantined after ",
                     failures, " failure(s)");
    return;
  }
  if (draining_) {
    // The retry belongs to the next invocation; the journal already has
    // everything it needs.
    return;
  }
  const double delay = backoff_delay_seconds(
      options_.backoff_base_seconds, options_.backoff_cap_seconds, failures,
      point.fingerprint);
  queue_.push_back({child.index, steady_seconds() + delay});
}

void Supervisor::handle_exit(const RunningChild& child, int status) {
  const SweepPoint& point = spec_.points[child.index];
  if (WIFEXITED(status)) {
    const int code = WEXITSTATUS(status);
    if (code == kRunnerOk) {
      record_done(point);
      return;
    }
    if (code == kRunnerDrained) {
      if (draining_) {
        // The child checkpointed and bowed out on our SIGTERM; the point
        // stays pending for the next invocation. Not a failure.
        common::log_info("sweep: [", point.fingerprint,
                         "] drained with a resumable snapshot");
        return;
      }
      record_failure(child, code, 0, "drained by an external signal");
      return;
    }
    if (code == kRunnerConfigError) {
      record_failure(child, code, 0, "non-retryable configuration error");
      return;
    }
    record_failure(child, code, 0, "exit code " + std::to_string(code));
    return;
  }
  const int signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
  if (child.watchdog_killed) {
    record_failure(child, -1, signal, "watchdog: heartbeat made no progress");
    return;
  }
  record_failure(child, -1, signal,
                 "killed by signal " + std::to_string(signal));
}

void Supervisor::reap_and_classify() {
  for (auto it = running_.begin(); it != running_.end();) {
    int status = 0;
    const pid_t reaped = ::waitpid(it->pid, &status, WNOHANG);
    if (reaped == it->pid) {
      const RunningChild child = *it;
      it = running_.erase(it);
      handle_exit(child, status);
    } else {
      ++it;
    }
  }
}

void Supervisor::run_watchdog(double now) {
  for (auto& child : running_) {
    if (child.watchdog_killed) continue;
    const RunPaths paths =
        run_paths(runs_dir_, spec_.points[child.index].fingerprint);
    const auto heartbeat = obs::read_heartbeat(paths.status);
    const double stale = child.monitor.observe(heartbeat, now);
    if (stale >= options_.watchdog_seconds) {
      common::log_warn("sweep: [", spec_.points[child.index].fingerprint,
                       "] watchdog: no heartbeat progress, killing pid ",
                       static_cast<std::int64_t>(child.pid));
      ::kill(child.pid, SIGKILL);
      child.watchdog_killed = true;
    }
  }
}

SweepResult Supervisor::run() {
  reconcile_journal();

  while (!queue_.empty() || !running_.empty()) {
    if (!draining_ && options_.drain_flag != nullptr &&
        *options_.drain_flag != 0) {
      draining_ = true;
      common::log_warn("sweep: drain requested — no new launches, asking ",
                       running_.size(), " child(ren) to checkpoint and exit");
      for (auto& child : running_) {
        if (!child.term_sent) {
          ::kill(child.pid, SIGTERM);
          child.term_sent = true;
        }
      }
    }

    if (draining_ && running_.empty()) break;

    const double now = steady_seconds();
    while (!draining_ && running_.size() < options_.parallel) {
      auto ready = queue_.end();
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->ready_at <= now) {
          ready = it;
          break;
        }
      }
      if (ready == queue_.end()) break;
      const std::size_t index = ready->index;
      queue_.erase(ready);
      spawn(index, failures_of(spec_.points[index].fingerprint) + 1);
    }

    reap_and_classify();
    run_watchdog(steady_seconds());

    if (!queue_.empty() || !running_.empty()) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(options_.poll_seconds));
    }
  }

  SweepResult result;
  result.total = spec_.points.size();
  result.ran_here = ran_here_;
  result.drained = draining_;
  for (const SweepPoint& point : spec_.points) {
    const auto it = journal_.states().find(point.fingerprint);
    if (it != journal_.states().end() && it->second.done) {
      ++result.done;
    } else if (it != journal_.states().end() && it->second.quarantined) {
      ++result.quarantined;
    } else {
      ++result.pending;
    }
  }

  if (result.pending == 0) {
    const std::string report = render_report(spec_, journal_, runs_dir_);
    result.report_path = (fs::path(options_.out_dir) / "report.json").string();
    ckpt::write_durable_file(
        result.report_path,
        {std::span(reinterpret_cast<const std::uint8_t*>(report.data()),
                   report.size())});
  }
  return result;
}

}  // namespace

std::string render_report(const SweepSpec& spec, const SweepJournal& journal,
                          const std::string& runs_dir) {
  std::string results = "[";
  bool first = true;
  std::size_t done = 0;
  std::size_t quarantined = 0;
  for (const SweepPoint& point : spec.points) {
    const auto it = journal.states().find(point.fingerprint);
    if (it == journal.states().end()) continue;  // unresolved: not reported
    const PointState& state = it->second;
    if (!state.done && !state.quarantined) continue;

    obs::JsonObjectWriter entry;
    entry.begin();
    entry.field("fingerprint", point.fingerprint);
    obs::JsonObjectWriter config;
    config.begin();
    for (const auto& [key, value] : point.config) config.field(key, value);
    entry.raw_field("config", config.end());
    if (state.done) {
      ++done;
      entry.field("outcome", "done");
      const CurveMetrics metrics =
          read_curve(run_paths(runs_dir, point.fingerprint).csv);
      if (metrics.valid) {
        entry.field("last_step", metrics.last_step);
        entry.field("final_accuracy", metrics.final_accuracy);
        entry.field("best_accuracy", metrics.best_accuracy);
      }
    } else {
      ++quarantined;
      entry.field("outcome", "quarantined");
      std::string failures = "[";
      bool first_failure = true;
      for (const FailureEvent& failure : state.failures) {
        obs::JsonObjectWriter event;
        event.begin();
        event.field("attempt", static_cast<std::uint64_t>(failure.attempt));
        event.field("exit_code", static_cast<std::int64_t>(failure.exit_code));
        event.field("signal", static_cast<std::int64_t>(failure.term_signal));
        event.field("reason", failure.reason);
        if (!first_failure) failures += ",";
        first_failure = false;
        failures += event.end();
      }
      entry.raw_field("failures", failures + "]");
    }
    if (!first) results += ",";
    first = false;
    results += entry.end();
  }
  results += "]";

  obs::JsonObjectWriter root;
  root.begin();
  root.field("kind", "mach_sweep_report");
  root.field("schema", static_cast<std::uint64_t>(1));
  root.field("name", spec.name);
  root.field("points", static_cast<std::uint64_t>(spec.points.size()));
  root.field("done", static_cast<std::uint64_t>(done));
  root.field("quarantined", static_cast<std::uint64_t>(quarantined));
  root.raw_field("results", results);
  return root.end() + "\n";
}

SweepResult run_sweep(const SweepSpec& spec, const OrchestratorOptions& options) {
  if (options.runner_binary.empty()) {
    throw std::runtime_error("sweep: runner_binary is required");
  }
  if (options.out_dir.empty()) {
    throw std::runtime_error("sweep: out_dir is required");
  }
  std::error_code ec;
  fs::create_directories(fs::path(options.out_dir) / "runs", ec);
  if (ec) {
    throw std::runtime_error("sweep: cannot create " + options.out_dir + ": " +
                             ec.message());
  }
  Supervisor supervisor(spec, options);
  return supervisor.run();
}

}  // namespace mach::sweep
