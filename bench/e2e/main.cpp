// End-to-end benchmark of the hierarchical FL simulator (see README.md).
//
//   e2e_bench --workload <name> [--seed N] [--data_seed N] [--seconds S]
//             [--trace 0|1] [--smoke]
//   e2e_bench --hardware
//
// A run sets the workload's world up seven times (setup_s is the median),
// then runs closed-loop episodes — each a full HflSimulator::run() of the
// workload's Algorithm 1 loop from a fresh model, seeded from --seed — until
// --seconds have been spent. --trace 0 reports the end-to-end metrics of
// untraced episodes; --trace 1 alternates untraced and traced episodes of
// the same seed and reports the per-layer split of the traced ones. Every
// episode's outputs are checked; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"} where attempted/failed count
// simulated steps.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "comm/codec.h"
#include "common/rng.h"
#include "core/registry.h"
#include "hfl/experiment.h"
#include "obs/resource.h"
#include "probes.h"
#include "runtime/parallel_config.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
using e2e::Clock;
using e2e::Mode;
using e2e::Tracer;
using e2e::Workload;
namespace hfl = mach::hfl;

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  std::uint64_t data_seed = 42;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // 3-step episodes, one setup, one episode (pair)
  bool hardware = false;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "e2e_bench: " << message
            << "\nusage: e2e_bench --workload <name> [--seed N] [--data_seed N]"
               " [--seconds S] [--trace 0|1] [--smoke]\n       e2e_bench --hardware\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  std::size_t used = 0;
  try {
    const unsigned long long parsed = std::stoull(value, &used);
    if (used == value.size() && value.front() != '-') return parsed;
  } catch (const std::exception&) {
  }
  usage_error(flag + " expects a non-negative integer, got '" + value + "'");
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (flag == "--hardware") {
      args.hardware = true;
      continue;
    }
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = parse_u64(flag, value);
    } else if (flag == "--data_seed") {
      args.data_seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_u64(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace expects 0 or 1");
      args.trace = value == "1";
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  if (!args.hardware && args.workload.empty()) usage_error("--workload is required");
  return args;
}

double seconds_since(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return 0.5 * (*std::max_element(values.begin(),
                                  values.begin() + static_cast<std::ptrdiff_t>(mid)) +
                upper);
}

std::uint64_t episode_seed(std::uint64_t seed, std::size_t episode) {
  if (episode == 0) return seed;  // episode 0 is the plain --seed run
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (episode + 1);  // splitmix64
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t fnv1a(const std::vector<float>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(values.data());
  for (std::size_t i = 0; i < values.size() * sizeof(float); ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t counter(const mach::obs::MetricsSnapshot& snap, const std::string& name) {
  for (const auto& entry : snap.counters) {
    if (entry.name == name) return entry.value;
  }
  return 0;
}

struct Episode {
  std::size_t steps = 0;
  double run_seconds = 0.0;
  std::vector<double> step_ms;
  double accuracy = 0.0;  // mean test accuracy of the evaluations after step 0
  std::uint64_t hash = 0;
  mach::comm::ByteLedger ledger;
  std::size_t evals = 0;
  std::size_t checkpoints = 0;
  std::uint64_t encodes = 0;
  std::uint64_t decodes = 0;
  std::uint64_t dropouts = 0;
  std::uint64_t retries = 0;
  std::uint64_t updates_lost = 0;
  std::vector<std::string> problems;
};

/// Checks the byte ledger against the codecs' wire sizes and the message
/// counts implied by the engine's own events.
void check_ledger(const Workload& w, const e2e::StepObserver& clock, bool oracle,
                  std::size_t params, std::size_t edges, Episode& ep) {
  const auto& comm = w.config.hfl.comm;
  const auto& ledger = ep.ledger;
  const auto sized = [&](const mach::comm::LinkTraffic& link,
                         const mach::comm::CodecSpec& spec) {
    return link.bytes == link.messages * mach::comm::make_codec(spec)->encoded_bytes(params);
  };
  if (!sized(ledger.device_download, comm.device_down) ||
      !sized(ledger.device_upload, comm.device_up) ||
      !sized(ledger.retry_upload, comm.device_up) ||
      !sized(ledger.probe_download, comm.probe) ||
      !sized(ledger.edge_upload, comm.edge_up) ||
      !sized(ledger.cloud_broadcast, comm.cloud_down)) {
    ep.problems.push_back("ledger bytes differ from messages x encoded size");
  }
  if (ledger.device_download.messages != clock.sampled ||
      ledger.device_upload.messages != clock.sampled - clock.dropped + clock.retries ||
      ledger.retry_upload.messages != clock.retries ||
      ledger.probe_download.messages != (oracle ? clock.devices_in_rounds : 0) ||
      ledger.edge_upload.messages != clock.cloud_rounds * edges ||
      ledger.cloud_broadcast.messages != clock.cloud_rounds * edges) {
    ep.problems.push_back("ledger message counts differ from the run's events");
  }
}

Episode run_episode(const Workload& w, const hfl::ExperimentArtifacts& world,
                    std::uint64_t seed, std::size_t steps, Tracer* tracer) {
  hfl::HflOptions options = w.config.hfl;
  options.seed = seed;
  hfl::HflSimulator sim(world.train, world.test, world.partition, world.schedule,
                        tracer != nullptr ? e2e::traced_model_factory(w.config, *tracer)
                                          : hfl::make_model_factory(w.config),
                        options);
  hfl::SamplerPtr sampler = mach::core::make_sampler(w.sampler);
  if (tracer != nullptr) {
    sampler = std::make_unique<e2e::TimedSampler>(std::move(sampler), *tracer);
  }
  e2e::StepObserver clock(tracer);
  sim.set_observer(&clock);

  Episode ep;
  ep.steps = steps;
  const auto begin = Clock::now();
  const hfl::MetricsRecorder metrics = sim.run(*sampler, steps);
  ep.run_seconds = seconds_since(begin);

  ep.step_ms = std::move(clock.step_ms);
  ep.evals = clock.evals;
  ep.checkpoints = clock.checkpoints;
  ep.ledger = sim.last_run_cost().ledger;
  const mach::obs::MetricsSnapshot snap = sim.metrics_registry().snapshot();
  ep.encodes = counter(snap, "comm_encodes");
  ep.decodes = counter(snap, "comm_decodes");
  ep.dropouts = counter(snap, "fault_dropouts");
  ep.retries = counter(snap, "fault_retries");
  ep.updates_lost = counter(snap, "fault_updates_lost");
  const std::vector<float>& params = sim.global_parameters();
  ep.hash = fnv1a(params);

  if (ep.step_ms.size() != steps) ep.problems.push_back("step events != steps");
  const auto& points = metrics.points();
  if (points.size() != clock.cloud_rounds + 1 || clock.evals != points.size()) {
    ep.problems.push_back("evaluations != cloud rounds + baseline");
  }
  for (const hfl::EvalPoint& p : points) {
    if (!std::isfinite(p.test_loss) || !std::isfinite(p.train_loss) ||
        !(p.test_accuracy >= 0.0 && p.test_accuracy <= 1.0)) {
      ep.problems.push_back("non-finite loss or accuracy at t=" + std::to_string(p.t));
      break;
    }
  }
  if (!std::all_of(params.begin(), params.end(), [](float v) { return std::isfinite(v); })) {
    ep.problems.push_back("non-finite global parameters");
  }
  std::size_t trained_evals = 0;
  for (const hfl::EvalPoint& p : points) {
    if (p.t == 0) continue;  // the untrained baseline
    ep.accuracy += p.test_accuracy;
    ++trained_evals;
  }
  ep.accuracy /= static_cast<double>(std::max<std::size_t>(trained_evals, 1));
  check_ledger(w, clock, sampler->needs_oracle(), params.size(), sim.num_edges(), ep);
  return ep;
}

/// Median wall time of one call of `fn`, in microseconds, over >= 5 calls
/// and >= 30 ms.
template <typename Fn>
double median_call_us(Fn&& fn) {
  std::vector<double> samples;
  const auto begin = Clock::now();
  while (samples.size() < 5 || seconds_since(begin) < 0.03) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(e2e::ns_between(t0, Clock::now()) * 1e-3);
  }
  return median(std::move(samples));
}

/// encode/decode cost of the workload's device-upload codec at its
/// parameter count, timed directly.
std::pair<double, double> codec_call_us(const Workload& w) {
  const std::size_t count = hfl::make_model_factory(w.config)().num_parameters();
  mach::common::Rng rng(w.config.seed);
  std::vector<float> values(count);
  std::vector<float> reference(count);
  for (std::size_t i = 0; i < count; ++i) {
    reference[i] = static_cast<float>(rng.normal(0.0, 0.1));
    values[i] = reference[i] + static_cast<float>(rng.normal(0.0, 0.01));
  }
  const auto codec = mach::comm::make_codec(w.config.hfl.comm.device_up);
  std::vector<float> residual(codec->stateful() ? count : 0, 0.0f);
  mach::comm::Encoded wire;
  std::vector<float> decoded;
  const double encode_us =
      median_call_us([&] { codec->encode(values, reference, residual, wire); });
  const double decode_us =
      median_call_us([&] { codec->decode(wire, count, reference, decoded); });
  return {encode_us, decode_us};
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

template <typename T>
T sum_of(const std::vector<Episode>& episodes, T Episode::*field) {
  T total{};
  for (const Episode& ep : episodes) total += ep.*field;
  return total;
}

/// The per-layer split of the traced episodes; appends its metrics and any
/// failed self-check to `problems`.
void report_trace(const Workload& w, const Tracer& tracer,
                  const std::vector<Episode>& untraced, const std::vector<Episode>& traced,
                  std::vector<Metric>& metrics, std::vector<std::string>& problems) {
  const double steps = static_cast<double>(sum_of(traced, &Episode::steps));
  const double per_step_ms = 1e-6 / steps;
  double step_wall_ns = 0.0;
  for (const Episode& ep : traced) {
    for (const double ms : ep.step_ms) step_wall_ns += ms * 1e6;
  }

  // Per-layer rows, summed over model instances (threads) and episodes.
  struct Row {
    std::string label;
    bool weighted = false;
    double fwd_ns = 0.0, bwd_ns = 0.0, flops = 0.0;
  };
  std::map<std::size_t, Row> rows;
  double train_ns = 0.0, probe_ns = 0.0, eval_fwd_ns = 0.0;
  double local_steps = 0.0;
  double weighted[2] = {0.0, 0.0}, unweighted[2] = {0.0, 0.0}, weighted_flops = 0.0;
  for (const auto& model : tracer.models()) {
    for (const e2e::LayerStats& layer : model->layers) {
      const auto& train = layer.by_mode[static_cast<std::size_t>(Mode::Train)];
      const auto& probe = layer.by_mode[static_cast<std::size_t>(Mode::Probe)];
      const auto& eval = layer.by_mode[static_cast<std::size_t>(Mode::Eval)];
      Row& row = rows[layer.index];
      char label[64];
      std::snprintf(label, sizeof(label), "nn.L%02zu.%s", layer.index, layer.kind.c_str());
      row.label = label;
      row.weighted = layer.weighted;
      row.fwd_ns += train.fwd_ns;
      row.bwd_ns += train.bwd_ns;
      row.flops += 3.0 * train.fwd_flops;
      train_ns += train.fwd_ns + train.bwd_ns;
      probe_ns += probe.fwd_ns + probe.bwd_ns;
      eval_fwd_ns += eval.fwd_ns;
      double* group = layer.weighted ? weighted : unweighted;
      group[0] += train.fwd_ns;
      group[1] += train.bwd_ns;
      if (layer.weighted) weighted_flops += 3.0 * train.fwd_flops;
      if (layer.index == 0) local_steps += static_cast<double>(train.fwd_calls);
    }
  }

  const e2e::WindowTotals& t = tracer.totals();
  const double windows = t.probe + t.decide + t.edge_round + t.cloud + t.tail;
  const double coord_self = step_wall_ns - t.critical_train - probe_ns - t.decide -
                            t.observe - t.cloud_round_sampler - t.tail;
  const std::size_t threads = mach::runtime::resolve_threads(w.config.hfl.parallel);

  std::printf("\ntraced split, per step over %.0f steps (threads %zu)\n", steps, threads);
  std::printf("  %-30s %12s %10s\n", "layer (training, all threads)", "fwd+bwd ms", "GFLOP/s");
  for (const auto& [index, row] : rows) {
    const double ns = row.fwd_ns + row.bwd_ns;
    std::printf("  %-30s %5.3f+%-6.3f", row.label.c_str(), row.fwd_ns * per_step_ms,
                row.bwd_ns * per_step_ms);
    if (row.weighted && ns > 0.0) std::printf(" %10.2f", row.flops / ns);
    std::printf("\n");
  }
  const std::vector<std::pair<const char*, double>> parts = {
      {"nn training (critical path)", t.critical_train},
      {"nn probing", probe_ns},
      {"sampler.decide", t.decide},
      {"sampler.observe", t.observe},
      {"sampler.cloud_round", t.cloud_round_sampler},
      {"hfl.step_tail (checkpoints)", t.tail},
      {"hfl.coord_self", coord_self}};
  std::printf("  %-30s %12s %10s\n", "part", "ms", "share %");
  double parts_ns = 0.0;
  for (const auto& [name, ns] : parts) {
    std::printf("  %-30s %12.3f %10.2f\n", name, ns * per_step_ms, 100.0 * ns / step_wall_ns);
    parts_ns += ns;
  }
  std::printf("  %-30s %12.3f %10.2f\n", "= step wall (eval excluded)",
              parts_ns * per_step_ms, 100.0 * parts_ns / step_wall_ns);
  std::printf("layers [");
  bool first = true;
  for (const auto& [index, row] : rows) {
    const double ns = row.fwd_ns + row.bwd_ns;
    std::printf("%s{\"layer\": \"%s\", \"fwd_ms\": %s, \"bwd_ms\": %s, \"gflops\": %s}",
                first ? "" : ", ", row.label.c_str(),
                json_number(row.fwd_ns * per_step_ms).c_str(),
                json_number(row.bwd_ns * per_step_ms).c_str(),
                json_number(row.weighted && ns > 0.0 ? row.flops / ns : 0.0).c_str());
    first = false;
  }
  std::printf("]\n");

  // Self-checks: the windows tile the step, every nested part fits inside its
  // window, and nothing is left negative.
  const double slack = 0.01 * step_wall_ns;
  if (std::abs(windows - step_wall_ns) > slack) {
    problems.push_back("windows do not add up to the step wall");
  }
  if (probe_ns > t.probe + slack || t.critical_train + t.observe > t.edge_round + slack ||
      t.cloud_round_sampler > t.cloud + slack || coord_self < -slack) {
    problems.push_back("a traced part exceeds its window (coord_self < 0)");
  }
  if (w.name == "cifar_cnn" && train_ns < 0.9 * step_wall_ns) {
    problems.push_back("cifar_cnn: layer time < 90% of step wall (missing wrapper?)");
  }

  const double untraced_s_per_step = sum_of(untraced, &Episode::run_seconds) /
                                     static_cast<double>(sum_of(untraced, &Episode::steps));
  const double traced_s_per_step = sum_of(traced, &Episode::run_seconds) / steps;
  const auto [encode_us, decode_us] = codec_call_us(w);
  std::uint64_t snapshot_bytes = 0;
  const fs::path ckpt_dir = w.config.hfl.checkpoint.dir;
  if (!ckpt_dir.empty() && fs::exists(ckpt_dir)) {
    for (const auto& entry : fs::directory_iterator(ckpt_dir)) {
      if (entry.is_regular_file()) snapshot_bytes = std::max(snapshot_bytes, entry.file_size());
    }
  }
  mach::comm::ByteLedger ledger;
  for (const Episode& ep : traced) ledger += ep.ledger;
  const double evals = static_cast<double>(sum_of(traced, &Episode::evals));
  const double per_step = 1.0 / steps;

  metrics.insert(metrics.end(), {
      {"nn.weighted.fwd_ms", weighted[0] * per_step_ms, "ms"},
      {"nn.weighted.bwd_ms", weighted[1] * per_step_ms, "ms"},
      {"nn.weighted.gflops", weighted_flops / (weighted[0] + weighted[1]), "GFLOP/s"},
      {"nn.unweighted.fwd_ms", unweighted[0] * per_step_ms, "ms"},
      {"nn.unweighted.bwd_ms", unweighted[1] * per_step_ms, "ms"},
      {"nn.train_busy_ms", train_ns * per_step_ms, "ms"},
      {"nn.local_step_us", train_ns * 1e-3 / local_steps, "us"},
      {"nn.eval_fwd_ms", eval_fwd_ns * 1e-6 / evals, "ms"},
      {"hfl.probe_ms", t.probe * per_step_ms, "ms"},
      {"hfl.edge_round_ms", t.edge_round * per_step_ms, "ms"},
      {"hfl.cloud_ms", t.cloud * per_step_ms, "ms"},
      {"hfl.eval_ms", t.eval * per_step_ms, "ms"},
      {"hfl.step_tail_ms", t.tail * per_step_ms, "ms"},
      {"hfl.coord_self_ms", coord_self * per_step_ms, "ms"},
      {"sampler.decide_us_p50", median(tracer.decide_ns()) * 1e-3, "us"},
      {"sampler.decide_ms", t.decide * per_step_ms, "ms"},
      {"sampler.observe_ms", t.observe * per_step_ms, "ms"},
      {"sampler.cloud_round_ms", t.cloud_round_sampler * per_step_ms, "ms"},
      {"runtime.worker_busy_share",
       train_ns / (static_cast<double>(threads) * t.edge_round), "ratio"},
      {"comm.encodes_per_step", static_cast<double>(sum_of(traced, &Episode::encodes)) * per_step, "count"},
      {"comm.decodes_per_step", static_cast<double>(sum_of(traced, &Episode::decodes)) * per_step, "count"},
      {"comm.encode_us", encode_us, "us"},
      {"comm.decode_us", decode_us, "us"},
      {"comm.up_bytes", static_cast<double>(ledger.device_upload.bytes) * per_step, "B"},
      {"comm.down_bytes",
       static_cast<double>(ledger.device_download.bytes + ledger.probe_download.bytes) * per_step, "B"},
      {"comm.edge_cloud_bytes",
       static_cast<double>(ledger.edge_upload.bytes + ledger.cloud_broadcast.bytes) * per_step, "B"},
      {"fault.dropouts_per_step", static_cast<double>(sum_of(traced, &Episode::dropouts)) * per_step, "count"},
      {"fault.retries_per_step", static_cast<double>(sum_of(traced, &Episode::retries)) * per_step, "count"},
      {"fault.updates_lost_per_step",
       static_cast<double>(sum_of(traced, &Episode::updates_lost)) * per_step, "count"},
      {"ckpt.saves_per_step", static_cast<double>(sum_of(traced, &Episode::checkpoints)) * per_step, "count"},
      {"ckpt.snapshot_kib", static_cast<double>(snapshot_bytes) / 1024.0, "KiB"},
      {"obs.trace_overhead_pct", 100.0 * (traced_s_per_step / untraced_s_per_step - 1.0), "%"},
  });
}

int run(const Args& args) {
  const fs::path exe_dir = fs::read_symlink("/proc/self/exe").parent_path();
  const fs::path ckpt_dir = exe_dir / ("ckpt-" + std::to_string(::getpid()));
  fs::remove_all(ckpt_dir);
  const Workload w = e2e::make_workload(args.workload, args.seed, args.data_seed,
                                        ckpt_dir.string());
  const std::size_t steps = args.smoke ? 3 : w.episode_steps;
  const std::size_t setups = args.smoke ? 1 : 7;
  std::vector<std::string> problems;
  if (!e2e::check_mirror(w.config)) {
    problems.push_back("traced model mirror differs from hfl::make_model_factory");
  }

  // Set-up: world synthesis (data, partition, mobility) + engine construction.
  std::vector<double> world_ms, engine_ms, setup_s;
  std::optional<hfl::ExperimentArtifacts> world;
  for (std::size_t i = 0; i < setups; ++i) {
    world.reset();
    const auto t0 = Clock::now();
    world.emplace(hfl::build_experiment(w.config));
    const auto t1 = Clock::now();
    {
      const hfl::HflSimulator sim(world->train, world->test, world->partition,
                                  world->schedule, hfl::make_model_factory(w.config),
                                  w.config.hfl);
    }
    const auto t2 = Clock::now();
    world_ms.push_back(e2e::ns_between(t0, t1) * 1e-6);
    engine_ms.push_back(e2e::ns_between(t1, t2) * 1e-6);
    setup_s.push_back(e2e::ns_between(t0, t2) * 1e-9);
  }

  // Closed-loop episodes until the time budget is spent (at least one; one
  // more only when it is expected to end inside the budget).
  Tracer tracer;
  std::vector<Episode> untraced, traced;
  const auto start = Clock::now();
  for (std::size_t e = 0;; ++e) {
    const std::uint64_t seed = episode_seed(args.seed, e);
    // Traced pairs alternate which side runs first, so warm-up cost does not
    // land on one side of the overhead estimate.
    if (args.trace && e % 2 == 1) {
      traced.push_back(run_episode(w, *world, seed, steps, &tracer));
    }
    untraced.push_back(run_episode(w, *world, seed, steps, nullptr));
    if (args.trace) {
      if (e % 2 == 0) traced.push_back(run_episode(w, *world, seed, steps, &tracer));
      if (traced.back().hash != untraced.back().hash) {
        traced.back().problems.push_back("traced run drifted from the untraced run");
      }
    }
    const double elapsed = seconds_since(start);
    if (args.smoke || elapsed * (1.0 + 0.5 / static_cast<double>(e + 1)) > args.seconds) break;
  }

  std::vector<Metric> metrics;
  std::vector<double> step_ms;
  for (const Episode& ep : untraced) step_ms.insert(step_ms.end(), ep.step_ms.begin(), ep.step_ms.end());
  const double untraced_steps = static_cast<double>(sum_of(untraced, &Episode::steps));
  double wire_bytes = 0.0, accuracy = 0.0;
  std::vector<double> episode_rates;
  for (const Episode& ep : untraced) {
    episode_rates.push_back(static_cast<double>(ep.steps) / ep.run_seconds);
    wire_bytes += static_cast<double>(ep.ledger.total_bytes());
    accuracy += ep.accuracy / static_cast<double>(untraced.size());
  }
  std::printf("workload %s seed %llu data_seed %llu threads %zu trace %d\n", w.name.c_str(),
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.data_seed),
              mach::runtime::resolve_threads(w.config.hfl.parallel), args.trace ? 1 : 0);
  std::printf("untraced: %zu episodes x %zu steps, %zu step samples, %.1f s in run()\n",
              untraced.size(), steps, step_ms.size(),
              sum_of(untraced, &Episode::run_seconds));
  if (args.trace) {
    report_trace(w, tracer, untraced, traced, metrics, problems);
    metrics.insert(metrics.begin(),
                   {{"setup.world_ms", median(world_ms), "ms"},
                    {"setup.engine_ms", median(engine_ms), "ms"}});
  } else {
    metrics = {
        {"setup_s", median(setup_s), "s"},
        {"steps_per_second", median(episode_rates), "1/s"},
        {"step_p50_ms", median(step_ms), "ms"},
        {"peak_rss_mb",
         static_cast<double>(mach::obs::sample_resource_usage().peak_rss_kb) / 1024.0, "MiB"},
        {"mean_accuracy", accuracy, "fraction"},
        {"step_wire_bytes", wire_bytes / untraced_steps, "B"},
    };
  }
  fs::remove_all(ckpt_dir);

  std::uint64_t attempted = 0, failed = 0;
  for (const auto* episodes : {&untraced, &traced}) {
    for (const Episode& ep : *episodes) {
      attempted += ep.steps;
      if (!ep.problems.empty()) failed += ep.steps;
      for (const std::string& p : ep.problems) problems.push_back(p);
    }
  }
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      problems.push_back("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  if (!problems.empty() && failed == 0) failed = attempted;
  for (const std::string& p : problems) std::printf("CHECK FAILED: %s\n", p.c_str());
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::string line = "{\"correct\": ";
  line += problems.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (args.hardware) {
    std::printf("%s\n", mach::obs::hardware_json().c_str());
    return 0;
  }
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::cerr << "e2e_bench: " << error.what() << "\n";
    return 1;
  }
}
