// Offline trace analyser. Sniffs its input and summarises any of the three
// telemetry artefacts the engine writes:
//
//   * a JSONL run trace (obs::JsonlTraceWriter; experiment_runner --trace or
//     any bench --trace): run inventory, wall-clock phase breakdown,
//     per-edge sampling health (realised vs expected participation against
//     the channel budget K_n, q-vector spread, probability-floor clamping,
//     Horvitz-Thompson diagnostics), evaluation trajectory endpoints and
//     MACH's latest Eq. 15 experience state;
//   * a Chrome trace-event span profile (experiment_runner --profile): the
//     per-span-name time breakdown, span-derived per-round p50/p95/max round
//     latency, the top-N slowest devices and edges, and the profiler's
//     spans_dropped counter;
//   * a status.json heartbeat (experiment_runner --status): the live-run
//     snapshot plus its staleness relative to the current wall clock.
//
//   ./trace_summary run.jsonl
//   ./trace_summary --devices 8 run.jsonl   # top-N G~^2 device listing
//   ./trace_summary profile.json            # span profile breakdown
//   ./trace_summary status.json             # heartbeat + staleness
#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/table.h"
#include "obs/json.h"

namespace {

using mach::obs::JsonValue;

struct EdgeStats {
  std::size_t rounds = 0;
  double devices_sum = 0.0;
  double capacity_sum = 0.0;
  double sampled_sum = 0.0;
  double expected_sum = 0.0;  // sum of q.sum (expected participants)
  std::size_t over_budget_rounds = 0;  // q.sum > capacity (infeasible strategy)
  double q_min = 1.0;
  double q_max = 0.0;
  double q_mean_sum = 0.0;
  std::uint64_t q_entries = 0;
  std::uint64_t q_floor_clamped = 0;
  double ht_sum_total = 0.0;
  double ht_var_total = 0.0;
};

struct PhaseStats {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double max_s = 0.0;
};

/// Realised fault tallies (edge_agg "faults" payloads + cloud_round
/// "uploads_lost"); the section only prints when a trace carries them.
struct FaultStats {
  bool seen = false;
  std::uint64_t outage_rounds = 0;
  std::uint64_t dropped = 0;
  std::uint64_t straggler_arrivals = 0;
  std::uint64_t straggler_timeouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t survivors = 0;
  std::uint64_t lost = 0;
  std::uint64_t cloud_uploads_lost = 0;
  std::uint64_t cloud_rounds_with_loss = 0;
};

/// Encoded-byte ledger tallies (run_end "comm" payloads, summed across
/// runs). `seen` gates the section so pre-codec traces print unchanged.
struct CommStats {
  bool seen = false;
  bool mixed_model_sizes = false;
  std::uint64_t total_bytes = 0;
  std::uint64_t assumed_fp32_bytes = 0;
  // Link order matches the ByteLedger layout (retry_upload is the redundant
  // share of device_upload, excluded from totals).
  static constexpr const char* kLinks[6] = {
      "device_download", "device_upload", "retry_upload",
      "probe_download",  "edge_upload",   "cloud_broadcast"};
  std::uint64_t messages[6] = {};
  std::uint64_t bytes[6] = {};
};

void print_usage() {
  std::cout
      << "usage: trace_summary [--devices N] "
         "<trace.jsonl|profile.json|status.json|BENCH_*.json>\n\n"
         "Summarises one of the engine's telemetry artefacts (auto-detected):\n"
         "  * JSONL run trace (--trace): phase-time breakdown, per-edge\n"
         "    sampling health, evaluation trajectory, sampler experience;\n"
         "  * Chrome span profile (--profile): per-span breakdown, round\n"
         "    latency percentiles, slowest devices/edges, dropped spans;\n"
         "  * status heartbeat (--status): live-run snapshot + staleness;\n"
         "  * BENCH_*.json results: hardware, gates and the zoo ranking.\n\n"
         "Flags:\n"
         "  --devices N   rows in the top-device/edge tables (default 5, 0 off)\n"
         "  --help        this message\n";
}

/// Aggregate over one span name (or one device/edge id) in a span profile.
struct SpanAgg {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;

  void add(double ms) {
    ++count;
    total_ms += ms;
    max_ms = std::max(max_ms, ms);
  }
};

/// Nearest-rank percentile over an ascending-sorted vector (p in [0,1]).
double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

void print_span_agg_table(const std::string& heading,
                          const std::string& key_header,
                          const std::map<std::int64_t, SpanAgg>& by_id,
                          std::size_t top_n) {
  if (by_id.empty() || top_n == 0) return;
  std::vector<std::pair<std::int64_t, SpanAgg>> sorted(by_id.begin(), by_id.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.total_ms > b.second.total_ms;
  });
  const std::size_t rows = std::min(top_n, sorted.size());
  std::cout << heading << " (" << rows << " of " << sorted.size() << "):\n";
  mach::common::Table table({key_header, "spans", "total ms", "mean ms", "max ms"});
  for (std::size_t i = 0; i < rows; ++i) {
    const auto& [id, agg] = sorted[i];
    table.row()
        .cell(id)
        .cell(agg.count)
        .cell(agg.total_ms, 3)
        .cell(agg.total_ms / static_cast<double>(agg.count), 3)
        .cell(agg.max_ms, 3);
  }
  table.print(std::cout);
  std::cout << '\n';
}

/// Summary of a Chrome trace-event span profile (experiment_runner --profile).
int summarize_profile(const JsonValue& doc, const std::string& path,
                      std::size_t top_n) {
  const auto& events = doc["traceEvents"].as_array();
  std::map<std::string, SpanAgg> by_name;
  std::map<std::int64_t, SpanAgg> by_device, by_edge;
  std::vector<double> round_ms;
  std::size_t span_events = 0, counter_samples = 0;
  double peak_rss_mb = 0.0;

  for (const JsonValue& event : events) {
    const std::string ph = event.string_or("ph", "");
    if (ph == "C") {
      ++counter_samples;
      peak_rss_mb = std::max(peak_rss_mb, event["args"].number_or("value", 0));
      continue;
    }
    if (ph != "X") continue;
    ++span_events;
    const std::string name = event.string_or("name", "span");
    const double dur_ms = event.number_or("dur", 0) * 1e-3;  // ts/dur are µs
    by_name[name].add(dur_ms);
    const double id = event["args"].number_or("id", -1);
    if (name == "round") {
      round_ms.push_back(dur_ms);
    } else if (name == "device_train" && id >= 0) {
      by_device[static_cast<std::int64_t>(id)].add(dur_ms);
    } else if (name == "edge_round" && id >= 0) {
      by_edge[static_cast<std::int64_t>(id)].add(dur_ms);
    }
  }

  const JsonValue& other = doc["otherData"];
  const auto dropped =
      static_cast<std::uint64_t>(other.number_or("spans_dropped", 0));

  std::cout << "=== span profile summary: " << path << " ===\n"
            << span_events << " spans across "
            << static_cast<std::size_t>(other.number_or("tracks", 0))
            << " track(s), ring capacity "
            << static_cast<std::size_t>(other.number_or("ring_capacity", 0))
            << '\n';
  if (dropped > 0) {
    std::cout << "WARNING: " << dropped
              << " span(s) dropped at ring-buffer overflow — totals below "
                 "undercount; raise the ring capacity for complete coverage\n";
  }
  std::cout << '\n';

  if (!by_name.empty()) {
    double grand_total = 0.0;
    for (const auto& [name, agg] : by_name) grand_total += agg.total_ms;
    std::vector<std::pair<std::string, SpanAgg>> sorted(by_name.begin(),
                                                        by_name.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second.total_ms > b.second.total_ms;
    });
    std::cout << "span time breakdown ("
              << mach::common::format_double(grand_total, 3)
              << " ms total; nested spans double-count their parents):\n";
    mach::common::Table table(
        {"span", "count", "total ms", "share %", "mean ms", "max ms"});
    for (const auto& [name, agg] : sorted) {
      table.row()
          .cell(name)
          .cell(agg.count)
          .cell(agg.total_ms, 3)
          .cell(grand_total > 0.0 ? agg.total_ms / grand_total * 100.0 : 0.0, 1)
          .cell(agg.total_ms / static_cast<double>(agg.count), 3)
          .cell(agg.max_ms, 3);
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  if (!round_ms.empty()) {
    std::sort(round_ms.begin(), round_ms.end());
    std::cout << "round latency over " << round_ms.size()
              << " round span(s): p50 "
              << mach::common::format_double(percentile(round_ms, 0.5), 3)
              << " ms, p95 "
              << mach::common::format_double(percentile(round_ms, 0.95), 3)
              << " ms, max "
              << mach::common::format_double(round_ms.back(), 3) << " ms\n\n";
  }

  print_span_agg_table("slowest devices by training time", "device", by_device,
                       top_n);
  print_span_agg_table("slowest edges by plan time", "edge", by_edge, top_n);

  if (counter_samples > 0) {
    std::cout << "resource counters: " << counter_samples
              << " RSS sample(s), peak "
              << mach::common::format_double(peak_rss_mb, 1) << " MB\n";
  }
  return 0;
}

/// Summary of a status.json heartbeat (experiment_runner --status).
int summarize_status(const JsonValue& doc, const std::string& path) {
  const double step = doc.number_or("step", 0);
  const double total = doc.number_or("total_steps", 0);
  const bool finished = doc["finished"].is_bool() && doc["finished"].as_bool();
  const double updated_unix = doc.number_or("updated_unix", 0);

  std::cout << "=== status heartbeat: " << path << " ===\n"
            << "progress: step " << static_cast<std::size_t>(step) << " / "
            << static_cast<std::size_t>(total);
  if (total > 0) {
    std::cout << " (" << mach::common::format_double(step / total * 100.0, 1)
              << "%)";
  }
  std::cout << (finished ? ", finished" : ", running");
  if (doc["aborted"].is_bool() && doc["aborted"].as_bool()) {
    std::cout << " (ABORTED: the writer unwound without finishing)";
  }
  const auto pid = static_cast<std::int64_t>(doc.number_or("pid", 0));
  if (pid > 0) {
    std::cout << "\nwriter: pid " << pid << ", up "
              << mach::common::format_double(
                     doc.number_or("uptime_ms", 0) / 1000.0, 1)
              << " s at last write";
  }
  std::cout << '\n'
            << "cloud rounds: "
            << static_cast<std::size_t>(doc.number_or("cloud_rounds", 0))
            << ", devices trained: "
            << static_cast<std::size_t>(doc.number_or("devices_trained", 0))
            << " ("
            << mach::common::format_double(doc.number_or("devices_per_second", 0), 1)
            << "/s)\n"
            << "elapsed: "
            << mach::common::format_double(doc.number_or("elapsed_seconds", 0), 1)
            << " s, ETA: "
            << mach::common::format_double(doc.number_or("eta_seconds", 0), 1)
            << " s\n"
            << "memory: current "
            << static_cast<std::size_t>(doc.number_or("current_rss_kb", 0))
            << " KB, peak "
            << static_cast<std::size_t>(doc.number_or("peak_rss_kb", 0))
            << " KB\n";
  const auto faults = static_cast<std::uint64_t>(doc.number_or("faults_lost", 0));
  if (faults > 0) std::cout << "fault updates lost: " << faults << '\n';
  const auto dropped =
      static_cast<std::uint64_t>(doc.number_or("spans_dropped", 0));
  if (dropped > 0) std::cout << "profiler spans dropped: " << dropped << '\n';

  if (updated_unix > 0) {
    const double now_unix =
        std::chrono::duration<double>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    const double age = now_unix - updated_unix;
    std::cout << "last heartbeat: " << mach::common::format_double(age, 1)
              << " s ago (sequence "
              << static_cast<std::uint64_t>(doc.number_or("sequence", 0)) << ")\n";
    if (!finished && age > 30.0) {
      std::cout << "WARNING: heartbeat is stale for an unfinished run — the "
                   "process crashed, hung, or stopped without a final write\n";
    }
  }
  return 0;
}

/// Summary of a sweep_runner report.json: one line per point in expansion
/// order, with accuracy metrics for completed points and the journaled
/// failure history for quarantined ones.
int summarize_sweep_report(const JsonValue& doc, const std::string& path) {
  std::cout << "=== sweep report: " << path << " (sweep \""
            << doc.string_or("name", "?") << "\") ===\n"
            << "points: " << static_cast<std::size_t>(doc.number_or("points", 0))
            << ", done: " << static_cast<std::size_t>(doc.number_or("done", 0))
            << ", quarantined: "
            << static_cast<std::size_t>(doc.number_or("quarantined", 0))
            << '\n';
  if (!doc["results"].is_array()) return 0;
  for (const auto& entry : doc["results"].as_array()) {
    const std::string outcome = entry.string_or("outcome", "?");
    std::cout << entry.string_or("fingerprint", "????????????????") << "  "
              << outcome;
    if (outcome == "done" && entry["final_accuracy"].is_number()) {
      std::cout << "  acc " << mach::common::format_double(
                       entry.number_or("final_accuracy", 0) * 100.0, 2)
                << "% (best " << mach::common::format_double(
                       entry.number_or("best_accuracy", 0) * 100.0, 2)
                << "%, " << static_cast<std::size_t>(entry.number_or("last_step", 0))
                << " steps)";
    }
    // A compact config echo: the interesting axes are whatever varies, so
    // print everything — sweep configs are small by construction.
    if (entry["config"].is_object()) {
      std::cout << "  [";
      bool first = true;
      for (const auto& [key, value] : entry["config"].as_object()) {
        if (!value.is_string()) continue;
        std::cout << (first ? "" : " ") << key << '=' << value.as_string();
        first = false;
      }
      std::cout << ']';
    }
    std::cout << '\n';
    if (outcome == "quarantined" && entry["failures"].is_array()) {
      for (const auto& failure : entry["failures"].as_array()) {
        std::cout << "    attempt "
                  << static_cast<std::size_t>(failure.number_or("attempt", 0))
                  << ": " << failure.string_or("reason", "?");
        const auto signal =
            static_cast<std::int64_t>(failure.number_or("signal", 0));
        if (signal > 0) std::cout << " (signal " << signal << ')';
        const auto code =
            static_cast<std::int64_t>(failure.number_or("exit_code", -1));
        if (code >= 0) std::cout << " (exit " << code << ')';
        std::cout << '\n';
      }
    }
  }
  return 0;
}

/// Summary of a BENCH_*.json document (any bench/ emitter): the embedded
/// hardware context, the top-level pass/fail gates and, for BENCH_zoo.json,
/// the sampler ranking.
int summarize_bench(const JsonValue& doc, const std::string& path) {
  std::cout << "=== bench results: " << path << " (bench \""
            << doc.string_or("bench", "?") << "\") ===\n";
  const JsonValue& hardware = doc["hardware"];
  if (hardware.is_object()) {
    std::cout << "hardware: " << hardware.string_or("cpu_model", "unknown")
              << ", "
              << static_cast<std::size_t>(
                     hardware.number_or("hardware_threads", 0))
              << " thread(s), process peak RSS "
              << mach::common::format_double(
                     hardware.number_or("peak_rss_kb", 0) / 1024.0, 1)
              << " MiB\n";
  }
  for (const auto& [name, value] : doc.as_object()) {
    if (!value.is_bool()) continue;
    // Pass/fail gates follow the bench/ naming convention; other booleans
    // are printed as flags.
    const bool is_gate = name.find("_met") != std::string::npos ||
                         name.find("_ok") != std::string::npos ||
                         name.find("passed") != std::string::npos;
    if (is_gate) {
      std::cout << "gate " << name << ": "
                << (value.as_bool() ? "pass" : "FAIL") << '\n';
    } else {
      std::cout << "flag " << name << ": "
                << (value.as_bool() ? "true" : "false") << '\n';
    }
  }

  // The zoo bench ships its ranked comparison in a separate "ranking" key
  // (one row per scenario x rank) plus a cross-scenario "leaderboard".
  const JsonValue& ranking = doc["ranking"];
  if (ranking.is_array() && !ranking.as_array().empty()) {
    std::cout << "algorithm ranking (per scenario, by final accuracy):\n";
    mach::common::Table ranks({"scenario", "rank", "sampler", "final acc"});
    for (const JsonValue& entry : ranking.as_array()) {
      if (!entry.is_object()) continue;
      ranks.row()
          .cell(entry.string_or("scenario", "?"))
          .cell(static_cast<std::size_t>(entry.number_or("rank", 0)))
          .cell(entry.string_or("display", entry.string_or("sampler", "?")))
          .cell(entry.number_or("final_accuracy", 0.0), 4);
    }
    ranks.print(std::cout);
    const JsonValue& leaderboard = doc["leaderboard"];
    if (leaderboard.is_array() && !leaderboard.as_array().empty()) {
      std::cout << "overall leaderboard (mean per-scenario rank):\n";
      mach::common::Table overall({"rank", "sampler", "mean rank"});
      for (const JsonValue& entry : leaderboard.as_array()) {
        if (!entry.is_object()) continue;
        overall.row()
            .cell(static_cast<std::size_t>(entry.number_or("rank", 0)))
            .cell(entry.string_or("display", entry.string_or("sampler", "?")))
            .cell(entry.number_or("mean_rank", 0.0), 2);
      }
      overall.print(std::cout);
    }
  }

  const JsonValue& results = doc["results"];
  if (!results.is_array() || results.as_array().empty()) {
    std::cout << "no results[] cases\n";
    return 0;
  }

  std::cout << results.as_array().size()
            << " case(s) — use tools/bench_diff for metric-level comparison\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::size_t top_devices = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    }
    if (arg == "--devices") {
      if (i + 1 >= argc) {
        std::cerr << "--devices expects a value\n";
        return 1;
      }
      try {
        top_devices = static_cast<std::size_t>(std::stoul(argv[++i]));
      } catch (const std::exception&) {
        std::cerr << "--devices expects a non-negative integer, got '" << argv[i]
                  << "'\n";
        return 1;
      }
      continue;
    }
    if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown flag: " << arg << "\n\n";
      print_usage();
      return 1;
    }
    if (!path.empty()) {
      std::cerr << "expected exactly one trace path\n";
      return 1;
    }
    path = arg;
  }
  if (path.empty()) {
    print_usage();
    return 1;
  }

  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << '\n';
    return 1;
  }

  // Sniff the artefact kind: a JSONL engine trace carries one "event" object
  // per line, while the span profile and the status heartbeat are a single
  // JSON document spanning the whole file.
  {
    std::string first_line;
    std::getline(in, first_line);
    std::string error;
    const auto first = mach::obs::parse_json(first_line, &error);
    const bool jsonl =
        first && first->is_object() && (*first)["event"].is_string();
    if (!jsonl) {
      std::stringstream whole;
      whole << first_line << '\n' << in.rdbuf();
      const auto doc = mach::obs::parse_json(whole.str(), &error);
      if (doc && doc->is_object()) {
        if ((*doc)["traceEvents"].is_array()) {
          return summarize_profile(*doc, path, top_devices);
        }
        if (doc->string_or("kind", "") == "mach_status") {
          return summarize_status(*doc, path);
        }
        if (doc->string_or("kind", "") == "mach_sweep_report") {
          return summarize_sweep_report(*doc, path);
        }
        if (!doc->string_or("bench", "").empty() &&
            (*doc)["results"].is_array()) {
          return summarize_bench(*doc, path);
        }
      }
      // Neither artefact parsed: fall through to the JSONL reader so its
      // per-line malformed diagnostics name the problem.
    }
    in.clear();
    in.seekg(0);
  }

  // Pass 1: parse and *key* every aggregatable record instead of folding it
  // immediately. A trace holding a crashed run's tail next to its resumed
  // re-execution (e.g. concatenated pre/post-crash files) carries the same
  // (t, edge) coordinates twice; keyed last-wins dedup keeps the resumed
  // record and reports the overlap instead of silently double-counting.
  std::map<std::string, std::uint64_t> event_counts;
  std::vector<JsonValue> run_begins;
  std::uint64_t checkpoint_markers = 0;
  std::uint64_t superseded_records = 0;
  // Keys: run index (0 = before any run_begin; resumed traces keep the
  // original run_begin, so 0 only appears for raw crash tails), time step,
  // and the edge id where one step emits one record per edge.
  std::uint64_t run_index = 0;
  std::map<std::tuple<std::uint64_t, double, std::size_t>, JsonValue> edge_events;
  std::map<std::pair<std::uint64_t, double>, JsonValue> eval_events;
  std::map<std::pair<std::uint64_t, double>, JsonValue> cloud_events;
  std::map<std::uint64_t, JsonValue> run_ends;
  std::size_t parse_errors = 0;
  std::uint64_t lines = 0;

  const auto keyed_insert = [&superseded_records](auto& map, auto key,
                                                  const JsonValue& event) {
    auto [it, inserted] = map.emplace(std::move(key), event);
    if (!inserted) {
      it->second = event;  // last occurrence wins (the resumed re-execution)
      ++superseded_records;
    }
  };

  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++lines;
    std::string error;
    const auto parsed = mach::obs::parse_json(line, &error);
    if (!parsed || !parsed->is_object()) {
      if (++parse_errors <= 3) {
        std::cerr << "skipping malformed line " << lines << ": " << error << '\n';
      }
      continue;
    }
    const JsonValue& event = *parsed;
    const std::string kind = event.string_or("event", "?");
    ++event_counts[kind];
    const double t = event.number_or("t", -1);

    if (kind == "run_begin") {
      run_begins.push_back(event);
      ++run_index;
    } else if (kind == "checkpoint") {
      ++checkpoint_markers;
    } else if (kind == "edge_agg") {
      const auto edge = static_cast<std::size_t>(event.number_or("edge", 0));
      keyed_insert(edge_events, std::make_tuple(run_index, t, edge), event);
    } else if (kind == "eval") {
      keyed_insert(eval_events, std::make_pair(run_index, t), event);
    } else if (kind == "cloud_round") {
      keyed_insert(cloud_events, std::make_pair(run_index, t), event);
    } else if (kind == "run_end") {
      keyed_insert(run_ends, run_index, event);
    }
  }

  // Pass 2: fold the deduplicated records into the report aggregates.
  std::map<std::size_t, EdgeStats> edges;
  std::map<std::string, PhaseStats> phases;
  JsonValue first_eval, last_eval;
  double best_accuracy = 0.0;
  std::uint64_t evals = 0;
  JsonValue last_introspection;  // last cloud_round carrying sampler state
  FaultStats faults;
  CommStats comm;

  for (const auto& [key, event] : edge_events) {
    EdgeStats& stats = edges[std::get<2>(key)];
    ++stats.rounds;
    stats.devices_sum += event.number_or("num_devices", 0);
    const double capacity = event.number_or("capacity", 0);
    stats.capacity_sum += capacity;
    stats.sampled_sum += event.number_or("num_sampled", 0);
    const JsonValue& q = event["q"];
    const double expected = q.number_or("sum", 0);
    stats.expected_sum += expected;
    // Feasibility check (Eq. 3): the clamped strategy may exceed K_n only
    // through the probability floor; count how often it does.
    if (expected > capacity + 1e-9) ++stats.over_budget_rounds;
    stats.q_min = std::min(stats.q_min, q.number_or("min", 1.0));
    stats.q_max = std::max(stats.q_max, q.number_or("max", 0.0));
    stats.q_mean_sum += q.number_or("mean", 0);
    stats.q_entries += static_cast<std::uint64_t>(q.number_or("count", 0));
    stats.q_floor_clamped +=
        static_cast<std::uint64_t>(q.number_or("clamped_to_floor", 0));
    stats.ht_sum_total += event.number_or("ht_weight_sum", 0);
    stats.ht_var_total += event.number_or("ht_weight_variance", 0);
    const JsonValue& fault = event["faults"];
    if (fault.is_object()) {
      faults.seen = true;
      if (fault["outage"].is_bool() && fault["outage"].as_bool()) {
        ++faults.outage_rounds;
      }
      faults.dropped += static_cast<std::uint64_t>(fault.number_or("dropped", 0));
      faults.straggler_arrivals +=
          static_cast<std::uint64_t>(fault.number_or("straggler_arrivals", 0));
      faults.straggler_timeouts +=
          static_cast<std::uint64_t>(fault.number_or("straggler_timeouts", 0));
      faults.retries += static_cast<std::uint64_t>(fault.number_or("retries", 0));
      if (fault["survivors"].is_array()) {
        faults.survivors += fault["survivors"].as_array().size();
      }
      if (fault["lost"].is_array()) {
        faults.lost += fault["lost"].as_array().size();
      }
    }
  }
  for (const auto& [key, event] : eval_events) {
    if (evals == 0) first_eval = event;
    last_eval = event;
    best_accuracy = std::max(best_accuracy, event.number_or("test_accuracy", 0));
    ++evals;
  }
  for (const auto& [key, event] : cloud_events) {
    if (event["g_squared_summary"].is_object()) last_introspection = event;
    const JsonValue& lost = event["uploads_lost"];
    if (lost.is_array()) {
      faults.seen = true;
      faults.cloud_uploads_lost += lost.as_array().size();
      if (!lost.as_array().empty()) ++faults.cloud_rounds_with_loss;
    }
  }
  for (const auto& [key, event] : run_ends) {
    const JsonValue& phase_map = event["phases"];
    if (phase_map.is_object()) {
      for (const auto& [name, acc] : phase_map.as_object()) {
        PhaseStats& stats = phases[name];
        stats.count += static_cast<std::uint64_t>(acc.number_or("count", 0));
        stats.total_s += acc.number_or("total_s", 0);
        stats.max_s = std::max(stats.max_s, acc.number_or("max_s", 0));
      }
    }
    const JsonValue& comm_map = event["comm"];
    if (comm_map.is_object()) {
      comm.seen = true;
      comm.total_bytes +=
          static_cast<std::uint64_t>(comm_map.number_or("total_bytes", 0));
      comm.assumed_fp32_bytes += static_cast<std::uint64_t>(
          comm_map.number_or("assumed_fp32_bytes", 0));
      if (comm_map["mixed_model_sizes"].is_bool() &&
          comm_map["mixed_model_sizes"].as_bool()) {
        comm.mixed_model_sizes = true;
      }
      for (std::size_t i = 0; i < 6; ++i) {
        const JsonValue& link = comm_map[CommStats::kLinks[i]];
        if (!link.is_object()) continue;
        comm.messages[i] +=
            static_cast<std::uint64_t>(link.number_or("messages", 0));
        comm.bytes[i] += static_cast<std::uint64_t>(link.number_or("bytes", 0));
      }
    }
  }

  if (lines == 0) {
    std::cerr << path << ": empty trace\n";
    return 1;
  }

  std::cout << "=== trace summary: " << path << " ===\n"
            << lines << " events";
  if (parse_errors > 0) std::cout << " (" << parse_errors << " malformed)";
  std::cout << ", " << run_begins.size() << " run(s)\n";
  if (checkpoint_markers > 0) {
    std::cout << "checkpointed run: " << checkpoint_markers
              << " snapshot marker(s)";
    if (superseded_records > 0) std::cout << " — resumed";
    std::cout << '\n';
  }
  if (superseded_records > 0) {
    std::cout << "overlap from a crashed run's tail detected: "
              << superseded_records
              << " superseded record(s) deduplicated (last occurrence wins)\n";
  }
  if (run_begins.size() > run_ends.size()) {
    std::cout << "WARNING: " << (run_begins.size() - run_ends.size())
              << " run(s) missing a run_end — telemetry is truncated (the "
                 "run crashed, was killed, or is still in flight)\n";
  }
  std::cout << '\n';

  if (!run_begins.empty()) {
    mach::common::Table runs({"run", "sampler", "seed", "steps", "devices",
                              "edges", "T_g", "codec"});
    for (std::size_t i = 0; i < run_begins.size(); ++i) {
      const JsonValue& r = run_begins[i];
      runs.row()
          .cell(i + 1)
          .cell(r.string_or("sampler", "?"))
          .cell(static_cast<std::size_t>(r.number_or("seed", 0)))
          .cell(static_cast<std::size_t>(r.number_or("steps", 0)))
          .cell(static_cast<std::size_t>(r.number_or("num_devices", 0)))
          .cell(static_cast<std::size_t>(r.number_or("num_edges", 0)))
          .cell(static_cast<std::size_t>(r.number_or("cloud_interval", 0)))
          .cell(r.string_or("codec", "fp32"));
    }
    runs.print(std::cout);
    std::cout << '\n';
  }

  if (!phases.empty()) {
    double grand_total = 0.0;
    for (const auto& [name, stats] : phases) grand_total += stats.total_s;
    std::cout << "phase time breakdown (" << mach::common::format_double(grand_total, 3)
              << " s total across runs):\n";
    mach::common::Table table({"phase", "scopes", "total s", "share %",
                               "mean ms", "max ms"});
    // Sort by descending total so the hottest phase leads the report.
    std::vector<std::pair<std::string, PhaseStats>> sorted(phases.begin(),
                                                           phases.end());
    std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
      return a.second.total_s > b.second.total_s;
    });
    for (const auto& [name, stats] : sorted) {
      const double share =
          grand_total > 0.0 ? stats.total_s / grand_total * 100.0 : 0.0;
      const double mean_ms =
          stats.count > 0 ? stats.total_s / static_cast<double>(stats.count) * 1e3
                          : 0.0;
      table.row()
          .cell(name)
          .cell(stats.count)
          .cell(stats.total_s, 3)
          .cell(share, 1)
          .cell(mean_ms, 3)
          .cell(stats.max_s * 1e3, 3);
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  if (!edges.empty()) {
    std::cout << "sampling health per edge (edge_agg events):\n";
    mach::common::Table table({"edge", "rounds", "avg |M|", "avg K_n",
                               "E[sampled]", "avg sampled", "q min", "q mean",
                               "q max", "floor %", "over-budget", "HT sum",
                               "HT var"});
    for (const auto& [edge, stats] : edges) {
      const double rounds = static_cast<double>(stats.rounds);
      const double floor_pct =
          stats.q_entries > 0
              ? static_cast<double>(stats.q_floor_clamped) /
                    static_cast<double>(stats.q_entries) * 100.0
              : 0.0;
      table.row()
          .cell(edge)
          .cell(stats.rounds)
          .cell(stats.devices_sum / rounds, 1)
          .cell(stats.capacity_sum / rounds, 2)
          .cell(stats.expected_sum / rounds, 2)
          .cell(stats.sampled_sum / rounds, 2)
          .cell(stats.q_min, 4)
          .cell(stats.q_mean_sum / rounds, 4)
          .cell(stats.q_max, 4)
          .cell(floor_pct, 1)
          .cell(stats.over_budget_rounds)
          .cell(stats.ht_sum_total / rounds, 3)
          .cell(stats.ht_var_total / rounds, 4);
    }
    table.print(std::cout);
    std::cout << '\n';
  }

  if (faults.seen) {
    const std::uint64_t reporting = faults.survivors + faults.lost;
    const double lost_pct =
        reporting > 0
            ? static_cast<double>(faults.lost) / static_cast<double>(reporting) * 100.0
            : 0.0;
    std::cout << "fault injection (realised):\n"
              << "  device updates lost: " << faults.lost << " of " << reporting
              << " sampled (" << mach::common::format_double(lost_pct, 1)
              << "%) — " << faults.dropped << " dropouts, "
              << faults.straggler_timeouts << " straggler timeouts\n"
              << "  stragglers recovered: " << faults.straggler_arrivals
              << " arrivals using " << faults.retries << " retransmissions\n"
              << "  edge outage rounds: " << faults.outage_rounds << "\n"
              << "  cloud uploads lost: " << faults.cloud_uploads_lost << " across "
              << faults.cloud_rounds_with_loss << " cloud round(s)\n\n";
  }

  if (comm.seen) {
    std::cout << "communication bytes by link (encoded sizes, run_end ledger):\n";
    mach::common::Table table({"link", "messages", "bytes", "KiB", "avg B/msg"});
    for (std::size_t i = 0; i < 6; ++i) {
      table.row()
          .cell(CommStats::kLinks[i])
          .cell(comm.messages[i])
          .cell(comm.bytes[i])
          .cell(static_cast<double>(comm.bytes[i]) / 1024.0, 1)
          .cell(comm.messages[i] > 0
                    ? static_cast<double>(comm.bytes[i]) /
                          static_cast<double>(comm.messages[i])
                    : 0.0,
                1);
    }
    table.print(std::cout);
    std::cout << "  total " << comm.total_bytes
              << " bytes on the wire (retry_upload already counted inside "
                 "device_upload); uncompressed fp32 would be "
              << comm.assumed_fp32_bytes << " bytes";
    if (comm.total_bytes > 0 && comm.assumed_fp32_bytes > 0) {
      std::cout << " ("
                << mach::common::format_double(
                       static_cast<double>(comm.assumed_fp32_bytes) /
                           static_cast<double>(comm.total_bytes),
                       2)
                << "x)";
    }
    std::cout << '\n';
    if (comm.mixed_model_sizes) {
      std::cout << "  WARNING: mixed model sizes were folded into one cost "
                   "accumulator — fp32-equivalent totals are a lower bound "
                   "(the encoded ledger above stays exact)\n";
    }
    std::cout << '\n';
  }

  if (evals > 0) {
    std::cout << "evaluation trajectory: " << evals << " points, accuracy "
              << mach::common::format_double(
                     first_eval.number_or("test_accuracy", 0), 4)
              << " (t=" << static_cast<std::size_t>(first_eval.number_or("t", 0))
              << ") -> "
              << mach::common::format_double(last_eval.number_or("test_accuracy", 0),
                                             4)
              << " (t=" << static_cast<std::size_t>(last_eval.number_or("t", 0))
              << "), best "
              << mach::common::format_double(best_accuracy, 4) << "\n\n";
  }

  if (last_introspection.is_object()) {
    const JsonValue& summary = last_introspection["g_squared_summary"];
    std::cout << "sampler experience at cloud round "
              << static_cast<std::size_t>(last_introspection.number_or("round", 0))
              << " (t=" << static_cast<std::size_t>(last_introspection.number_or("t", 0))
              << "): G~^2 min/mean/max = "
              << mach::common::format_double(summary.number_or("min", 0), 4) << " / "
              << mach::common::format_double(summary.number_or("mean", 0), 4) << " / "
              << mach::common::format_double(summary.number_or("max", 0), 4) << '\n';
    const JsonValue& g = last_introspection["g_squared"];
    const JsonValue& buffers = last_introspection["buffer_sizes"];
    const JsonValue& participations = last_introspection["participations"];
    if (g.is_array() && top_devices > 0) {
      const auto& values = g.as_array();
      std::vector<std::size_t> order(values.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return values[a].as_number() > values[b].as_number();
      });
      mach::common::Table table({"device", "G~^2", "buffered", "participations"});
      const std::size_t rows = std::min(top_devices, order.size());
      for (std::size_t i = 0; i < rows; ++i) {
        const std::size_t device = order[i];
        const auto at = [device](const JsonValue& array) {
          return array.is_array() && device < array.as_array().size()
                     ? array.as_array()[device].as_number()
                     : 0.0;
        };
        table.row()
            .cell(device)
            .cell(values[device].as_number(), 4)
            .cell(static_cast<std::size_t>(at(buffers)))
            .cell(static_cast<std::size_t>(at(participations)));
      }
      std::cout << "top " << rows << " devices by experience:\n";
      table.print(std::cout);
    }
    std::cout << '\n';
  }

  if (!event_counts.empty()) {
    std::cout << "event counts:";
    for (const auto& [kind, count] : event_counts) {
      std::cout << ' ' << kind << '=' << count;
    }
    std::cout << '\n';
  }
  return 0;
}
