// Full-featured experiment CLI: run any HFL configuration from flags, with
// any registered sampler, and report the accuracy trajectory, time-to-target,
// per-class recalls and communication cost. The kitchen-sink entry point for
// exploring the library beyond the paper's fixed experiment grid.
//
//   ./experiment_runner --task fmnist --sampler oort --devices 60 --edges 8
//       --participation 0.4 --steps 150 --aggregation self_normalized
//
// Exit-code contract (what tools/sweep_runner and scripts key on):
//   0   run completed
//   2   configuration/usage error (bad flag, unknown preset, unusable path,
//       a --resume snapshot of another configuration or data world)
//       — retrying the same argv cannot succeed
//   3   runtime failure (exception out of the engine) — retryable
//   75  drained: SIGTERM/SIGINT arrived, the run checkpointed at the next
//       step barrier and exited; rerun with --resume to continue (75 =
//       EX_TEMPFAIL, "temporary failure, retry later")
#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>

#include "common/cli.h"
#include "common/table.h"
#include "comm/config.h"
#include "core/registry.h"
#include "fault/schedule.h"
#include "hfl/experiment.h"
#include "obs/jsonl_writer.h"

namespace {

using namespace mach;

data::TaskKind parse_task(const std::string& name) {
  if (name == "mnist") return data::TaskKind::MnistLike;
  if (name == "fmnist") return data::TaskKind::FmnistLike;
  if (name == "cifar10") return data::TaskKind::CifarLike;
  throw std::invalid_argument("unknown task: " + name);
}

hfl::AggregationForm parse_aggregation(const std::string& name) {
  if (name == "literal") return hfl::AggregationForm::Literal;
  if (name == "self_normalized") return hfl::AggregationForm::SelfNormalized;
  if (name == "update") return hfl::AggregationForm::UpdateForm;
  throw std::invalid_argument("unknown aggregation form: " + name);
}

// Exit-code contract (documented in the file comment and DESIGN.md §15).
constexpr int kExitOk = 0;
constexpr int kExitConfig = 2;
constexpr int kExitRuntime = 3;
constexpr int kExitDrained = 75;

// SIGTERM/SIGINT request a checkpoint-and-exit drain via the engine's
// cooperative stop flag; the handler only stores (async-signal-safe).
volatile std::sig_atomic_t g_stop_requested = 0;
extern "C" void request_stop(int) { g_stop_requested = 1; }

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli("Run one hierarchical FL experiment with full control.");
  cli.add_flag("task", std::string("mnist"), "mnist|fmnist|cifar10");
  cli.add_flag("sampler", std::string("mach"), mach::core::sampler_flag_help());
  cli.add_flag("scenario", std::string(""),
               "mobility scenario preset with optional overrides, e.g. "
               "'vehicular' or 'metro:stay=0.6,stations=80' "
               "(presets: metro|campus|vehicular|flash_crowd; empty = the "
               "task preset's default mobility). Composes freely with "
               "--faults and --codec");
  cli.add_flag("devices", static_cast<std::int64_t>(0), "devices (0 = preset)");
  cli.add_flag("edges", static_cast<std::int64_t>(0), "edges (0 = preset)");
  cli.add_flag("steps", static_cast<std::int64_t>(0), "time steps (0 = preset)");
  cli.add_flag("participation", 0.0, "participation proportion (0 = preset)");
  cli.add_flag("local_epochs", static_cast<std::int64_t>(0), "I (0 = preset)");
  cli.add_flag("cloud_interval", static_cast<std::int64_t>(0), "T_g (0 = preset)");
  cli.add_flag("batch", static_cast<std::int64_t>(0), "batch size (0 = preset)");
  cli.add_flag("lr", 0.0, "learning rate (0 = preset)");
  cli.add_flag("target", 0.0, "target accuracy (0 = preset)");
  cli.add_flag("long_tail", 0.0, "long-tail ratio (0 = preset)");
  cli.add_flag("stay_prob", -1.0, "mobility stay probability (-1 = preset)");
  cli.add_flag("aggregation", std::string("literal"),
               "literal|self_normalized|update");
  cli.add_flag("cnn", false, "use the paper CNN instead of the smoke MLP");
  cli.add_flag("threads", static_cast<std::int64_t>(1),
               "worker threads for device training/evaluation "
               "(1 = one worker, the calling thread; 0 = all hardware "
               "threads; results are bitwise identical at any value)");
  cli.add_flag("faults", std::string(""),
               "fault-injection spec, e.g. "
               "'dropout:p=0.1;straggler:p=0.2,timeout=1.5;cloud_loss:p=0.05' "
               "(empty = fault-free; runs stay deterministic and replayable)");
  cli.add_flag("codec", std::string("fp32"),
               "transfer codec per link: fp32|bf16|int8|topk:k=<density>, "
               "uniform ('int8') or per-link "
               "('up=topk:k=0.05,down=bf16,probe=int8,edge_up=int8,"
               "cloud_down=bf16'); unlisted links stay fp32. The byte ledger "
               "charges every message at its encoded size");
  cli.add_flag("seed", static_cast<std::int64_t>(7), "run seed");
  cli.add_flag("data_seed", static_cast<std::int64_t>(42), "data/world seed");
  cli.add_flag("csv", std::string(""), "optional accuracy-curve CSV path");
  cli.add_flag("confusion", false, "print the final per-class recalls");
  cli.add_flag("trace", std::string(""),
               "write a JSONL telemetry trace of the run to this path "
               "(inspect with tools/trace_summary)");
  cli.add_flag("trace_devices", true,
               "include per-device training events in the trace");
  cli.add_flag("checkpoint_every", static_cast<std::int64_t>(0),
               "snapshot the full run state every N steps (0 = off); "
               "requires --checkpoint_dir");
  cli.add_flag("checkpoint_dir", std::string(""),
               "directory for run-state snapshots (created on demand)");
  cli.add_flag("checkpoint_keep", static_cast<std::int64_t>(2),
               "snapshots retained per run (older ones are deleted)");
  cli.add_flag("resume", false,
               "continue from the newest valid snapshot in --checkpoint_dir; "
               "the resumed run is bitwise identical to an uninterrupted one");
  cli.add_flag("kill_at_step", static_cast<std::int64_t>(0),
               "crash-test harness: SIGKILL this process right after the "
               "snapshot covering step N is durable (0 = off)");
  cli.add_flag("hang_at_step", static_cast<std::int64_t>(0),
               "hang-test harness: freeze the process forever once step N "
               "completed, heartbeat included — a supervisor watchdog must "
               "SIGKILL it (0 = off)");
  cli.add_flag("phase_times", false,
               "print the wall-clock phase breakdown after the run");
  cli.add_flag("profile", std::string(""),
               "write a Chrome trace-event JSON span profile to this path "
               "(open in Perfetto / chrome://tracing, or summarise with "
               "tools/trace_summary)");
  cli.add_flag("status", std::string(""),
               "rewrite a live status.json heartbeat at this path during the "
               "run (atomic rename; safe to poll)");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? kExitOk : kExitConfig;

  // A typo in --task or --aggregation is a configuration error like any other
  // bad flag value: exit 2, which a sweep quarantines instead of retrying.
  data::TaskKind task{};
  hfl::AggregationForm aggregation{};
  try {
    task = parse_task(cli.get_string("task"));
    aggregation = parse_aggregation(cli.get_string("aggregation"));
  } catch (const std::invalid_argument& error) {
    std::cerr << "configuration error: " << error.what() << "\n";
    return kExitConfig;
  }
  auto config = mach::hfl::ExperimentConfig::preset(task);
  // Scenario first, explicit flags after: --stay_prob etc. override the preset.
  const std::string scenario_spec = cli.get_string("scenario");
  if (!scenario_spec.empty()) {
    try {
      mach::hfl::apply_scenario(mach::mobility::Scenario::parse(scenario_spec),
                                config);
    } catch (const std::invalid_argument& error) {
      std::cerr << "--scenario: " << error.what() << "\n";
      return kExitConfig;
    }
  }
  if (cli.get_int("devices") > 0) {
    config.num_devices = static_cast<std::size_t>(cli.get_int("devices"));
  }
  if (cli.get_int("edges") > 0) {
    config.num_edges = static_cast<std::size_t>(cli.get_int("edges"));
  }
  if (cli.get_int("steps") > 0) {
    config.horizon = static_cast<std::size_t>(cli.get_int("steps"));
  }
  if (cli.get_double("participation") > 0.0) {
    config.hfl.participation = cli.get_double("participation");
  }
  if (cli.get_int("local_epochs") > 0) {
    config.hfl.local_epochs = static_cast<std::size_t>(cli.get_int("local_epochs"));
  }
  if (cli.get_int("cloud_interval") > 0) {
    config.hfl.cloud_interval =
        static_cast<std::size_t>(cli.get_int("cloud_interval"));
  }
  if (cli.get_int("batch") > 0) {
    config.hfl.batch_size = static_cast<std::size_t>(cli.get_int("batch"));
  }
  if (cli.get_double("lr") > 0.0) config.hfl.learning_rate = cli.get_double("lr");
  if (cli.get_double("target") > 0.0) {
    config.target_accuracy = cli.get_double("target");
  }
  if (cli.get_double("long_tail") > 0.0) {
    config.long_tail_ratio = cli.get_double("long_tail");
  }
  if (cli.get_double("stay_prob") >= 0.0) {
    config.stay_prob = cli.get_double("stay_prob");
  }
  if (cli.get_bool("cnn")) {
    config.model = mach::hfl::ModelKind::PaperCnn;
    config.data_spec = mach::data::SyntheticSpec::preset(config.task);
  }
  config.hfl.aggregation = aggregation;
  if (cli.get_int("threads") >= 0) {
    config.hfl.parallel.threads = static_cast<std::size_t>(cli.get_int("threads"));
  }
  const std::string fault_spec = cli.get_string("faults");
  if (!fault_spec.empty()) {
    try {
      config.hfl.faults = mach::fault::FaultSchedule::parse(fault_spec);
      config.hfl.faults.validate_topology(config.num_devices, config.num_edges);
    } catch (const std::invalid_argument& error) {
      std::cerr << "--faults: " << error.what() << "\n";
      return kExitConfig;
    }
  }
  try {
    config.hfl.comm = mach::comm::CommConfig::parse(cli.get_string("codec"));
  } catch (const std::invalid_argument& error) {
    std::cerr << "--codec: " << error.what() << "\n";
    return kExitConfig;
  }
  config.data_seed = static_cast<std::uint64_t>(cli.get_int("data_seed"));
  config = config.with_seed(static_cast<std::uint64_t>(cli.get_int("seed")));

  mach::ckpt::CheckpointOptions& checkpoint = config.hfl.checkpoint;
  checkpoint.dir = cli.get_string("checkpoint_dir");
  if (cli.get_int("checkpoint_every") > 0) {
    checkpoint.every = static_cast<std::size_t>(cli.get_int("checkpoint_every"));
  }
  if (cli.get_int("checkpoint_keep") > 0) {
    checkpoint.keep = static_cast<std::size_t>(cli.get_int("checkpoint_keep"));
  }
  checkpoint.resume = cli.get_bool("resume");
  if (cli.get_int("kill_at_step") > 0) {
    checkpoint.kill_at = static_cast<std::size_t>(cli.get_int("kill_at_step"));
  }
  if (checkpoint.enabled() && checkpoint.dir.empty()) {
    std::cerr << "--checkpoint_every/--resume require --checkpoint_dir\n";
    return kExitConfig;
  }
  if (cli.get_int("hang_at_step") > 0) {
    config.hfl.hang_at = static_cast<std::size_t>(cli.get_int("hang_at_step"));
  }

  // Drain contract: SIGTERM/SIGINT set the engine's cooperative stop flag;
  // the run checkpoints at the next step barrier and exits kExitDrained. A
  // second signal falls back to the default disposition (terminate), so a
  // hung drain stays killable.
  std::signal(SIGTERM, request_stop);
  std::signal(SIGINT, request_stop);
  config.hfl.stop_flag = &g_stop_requested;

  config.hfl.profile.trace_path = cli.get_string("profile");
  config.hfl.profile.status_path = cli.get_string("status");

  // Everything below can throw; translate to the exit-code contract at the
  // bottom instead of letting std::terminate eat the diagnostic.
  const auto run_configured = [&]() -> int {
  auto sampler = mach::core::make_sampler(cli.get_string("sampler"));

  // Build by hand (instead of run_experiment) so we can query cost/confusion.
  auto artifacts = mach::hfl::build_experiment(config);
  mach::hfl::HflOptions options = config.hfl;
  options.seed = config.seed;
  mach::hfl::HflSimulator simulator(artifacts.train, artifacts.test,
                                    artifacts.partition, artifacts.schedule,
                                    mach::hfl::make_model_factory(config), options);

  // The engine read the --resume snapshot; its header carries the trace
  // cursor the writer must truncate back to.
  const auto resume_header = simulator.resume_header();
  if (resume_header.has_value()) {
    std::cout << "resuming from " << checkpoint.dir << " at step "
              << resume_header->next_t << "\n";
  }

  // Fail fast on unwritable profiling paths, matching --trace: the exports
  // happen at run end, far too late to discover a bad path. Append-mode so
  // an existing file is probed without being clobbered.
  for (const std::string& path :
       {cli.get_string("profile"), cli.get_string("status")}) {
    if (path.empty()) continue;
    if (!std::ofstream(path, std::ios::app)) {
      std::cerr << "cannot open " << path << " for writing\n";
      return kExitConfig;
    }
  }

  std::unique_ptr<mach::obs::JsonlTraceWriter> trace;
  const std::string trace_path = cli.get_string("trace");
  if (!trace_path.empty()) {
    mach::obs::JsonlTraceOptions trace_options;
    trace_options.device_events = cli.get_bool("trace_devices");
    try {
      if (resume_header.has_value() && resume_header->has_trace_cursor) {
        const mach::obs::TraceCursor cursor{resume_header->trace_bytes,
                                            resume_header->trace_lines};
        trace = std::make_unique<mach::obs::JsonlTraceWriter>(trace_path, cursor,
                                                              trace_options);
      } else {
        trace = std::make_unique<mach::obs::JsonlTraceWriter>(trace_path,
                                                              trace_options);
      }
    } catch (const std::runtime_error& error) {
      std::cerr << error.what() << "\n";
      return kExitConfig;
    }
    simulator.set_observer(trace.get());
  }

  std::cout << "task=" << mach::data::task_name(config.task)
            << " sampler=" << sampler->name() << " devices=" << config.num_devices
            << " edges=" << config.num_edges << " steps=" << config.horizon
            << " participation=" << config.hfl.participation
            << " aggregation=" << cli.get_string("aggregation")
            << " threads=" << mach::runtime::resolve_threads(config.hfl.parallel);
  if (!config.scenario_name.empty()) {
    std::cout << " scenario=" << config.scenario_name;
  }
  if (!config.hfl.faults.empty()) {
    std::cout << " faults=" << config.hfl.faults.to_string();
  }
  if (!config.hfl.comm.all_fp32()) {
    std::cout << " codec=" << config.hfl.comm.to_string();
  }
  std::cout << "\n\n";

  const auto metrics = simulator.run(*sampler, config.horizon);

  mach::common::Table curve({"t", "test_acc", "test_loss", "participants"});
  for (const auto& p : metrics.points()) {
    curve.row().cell(p.t).cell(p.test_accuracy, 4).cell(p.test_loss, 4).cell(
        p.participants);
  }
  curve.print(std::cout);

  if (const auto cut = simulator.interrupted_at()) {
    const std::string drained_csv = cli.get_string("csv");
    if (!drained_csv.empty()) metrics.write_csv(drained_csv);
    std::cout << "\ndrained: stop signal honoured at step " << *cut << " / "
              << config.horizon;
    if (config.hfl.checkpoint.every > 0) {
      std::cout << " (snapshot durable in " << config.hfl.checkpoint.dir
                << "; rerun with --resume to continue)";
    }
    std::cout << "\n";
    return kExitDrained;
  }

  const auto target_t = metrics.time_to_accuracy(config.target_accuracy);
  std::cout << "\nbest accuracy:  " << metrics.best_accuracy() << '\n'
            << "time to target " << config.target_accuracy << ": "
            << (target_t ? std::to_string(*target_t)
                         : ">" + std::to_string(config.horizon))
            << " steps\n";

  const auto& cost = simulator.last_run_cost();
  const auto& ledger = cost.ledger;
  std::cout << "communication:  " << ledger.device_upload.messages
            << " device uploads, " << ledger.device_download.messages
            << " downloads, " << ledger.probe_download.messages << " probes, "
            << ledger.edge_upload.messages + ledger.cloud_broadcast.messages
            << " edge-cloud messages (" << ledger.total_bytes() / 1024 << " KiB)\n";
  if (!config.hfl.comm.all_fp32()) {
    std::cout << "encoded bytes:  device up " << ledger.device_upload.bytes / 1024
              << " KiB (retries " << ledger.retry_upload.bytes / 1024
              << " KiB), down " << ledger.device_download.bytes / 1024
              << " KiB, probes " << ledger.probe_download.bytes / 1024
              << " KiB, edge-cloud "
              << (ledger.edge_upload.bytes + ledger.cloud_broadcast.bytes) / 1024
              << " KiB; fp32 would be " << cost.assumed_fp32_bytes() / 1024
              << " KiB\n";
  }
  if (!config.hfl.faults.empty()) {
    const auto& reg = simulator.metrics_registry().snapshot();
    std::cout << "faults:         ";
    bool first = true;
    for (const auto& entry : reg.counters) {
      if (entry.name.rfind("fault_", 0) != 0) continue;
      if (!first) std::cout << ", ";
      first = false;
      std::cout << entry.name.substr(6) << "=" << entry.value;
    }
    std::cout << " (" << ledger.retry_upload.messages << " retry uploads)\n";
  }

  if (cli.get_bool("confusion")) {
    const auto confusion = simulator.evaluate_confusion();
    mach::common::Table recalls({"class", "recall", "precision"});
    for (std::size_t c = 0; c < confusion.num_classes(); ++c) {
      recalls.row().cell(c).cell(confusion.recall(c), 3).cell(
          confusion.precision(c), 3);
    }
    std::cout << "\nbalanced accuracy: " << confusion.balanced_accuracy() << "\n";
    recalls.print(std::cout);
  }

  if (cli.get_bool("phase_times")) {
    mach::obs::print_phase_times(simulator.phase_timers(), std::cout);
  }

  const std::string csv = cli.get_string("csv");
  if (!csv.empty() && metrics.write_csv(csv)) {
    std::cout << "\ncurve written to " << csv << '\n';
  }
  if (trace) {
    std::cout << "\ntrace written to " << trace_path << " (" << trace->lines_written()
              << " events; summarise with tools/trace_summary)\n";
  }
  if (const auto* profiler = simulator.span_profiler();
      profiler != nullptr && simulator.profile_export_ok()) {
    std::cout << "\nspan profile written to " << cli.get_string("profile")
              << " (open in https://ui.perfetto.dev or chrome://tracing";
    if (profiler->spans_dropped() > 0) {
      std::cout << "; " << profiler->spans_dropped()
                << " spans dropped to ring overflow -- raise ring capacity "
                   "for full coverage";
    }
    std::cout << ")\n";
  }
  return kExitOk;
  };

  try {
    return run_configured();
  } catch (const std::invalid_argument& error) {
    std::cerr << "configuration error: " << error.what() << "\n";
    return kExitConfig;
  } catch (const std::exception& error) {
    std::cerr << "runtime failure: " << error.what() << "\n";
    return kExitRuntime;
  }
}
