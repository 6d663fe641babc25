// Algorithm zoo: every registered sampler raced across mobility scenarios.
//
// Sweeps sampler x scenario on one task, averaging accuracy curves over
// BENCH_SEEDS runs per cell, and ranks the algorithms per scenario by final
// accuracy at the byte budget the horizon implies (ties broken by fewer
// steps-to-target, then name). Written as BENCH_zoo.json for the CI
// regression gate: results[] holds one flat scalar row per (sampler,
// scenario) keyed by those two fields — tools/bench_diff treats *accuracy*
// and reach_rate as higher-is-better, steps_to_* and *_bytes as
// lower-is-better. The ranked tables live in separate top-level "ranking"
// and "leaderboard" keys the gate ignores (rendered by tools/trace_summary).
//
//   ./zoo [--task mnist] [--samplers mach,uniform,...]
//         [--scenarios metro,campus,vehicular,flash_crowd] [--horizon N]
//         [--faults SPEC] [--codec SPEC] [--out BENCH_zoo.json]
//   env: REPRO_FULL=1 (paper scale), BENCH_SEEDS (default 2)
#include "bench_util.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "mobility/scenario.h"
#include "obs/json.h"
#include "obs/resource.h"

namespace {

using namespace mach;

std::vector<std::string> split_list(const std::string& flag) {
  std::vector<std::string> out;
  std::stringstream stream(flag);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

std::string join_list(const std::vector<std::string>& items) {
  std::string out;
  for (const auto& item : items) {
    if (!out.empty()) out += ',';
    out += item;
  }
  return out;
}

struct CaseResult {
  std::string sampler;
  std::string scenario;
  double final_accuracy = 0.0;
  /// From the seed-averaged curve; the horizon when the target is unreached,
  /// so the metric stays a finite lower-is-better number for bench_diff.
  double steps_to_target = 0.0;
  bool reached = false;
  double reach_rate = 0.0;
  double total_bytes = 0.0;  // mean encoded bytes per run
};

/// Rank order within one scenario: accuracy desc, then fewer steps, then name
/// (total and deterministic, so reruns rank ties identically).
bool rank_less(const CaseResult& a, const CaseResult& b) {
  if (a.final_accuracy != b.final_accuracy) {
    return a.final_accuracy > b.final_accuracy;
  }
  if (a.steps_to_target != b.steps_to_target) {
    return a.steps_to_target < b.steps_to_target;
  }
  return a.sampler < b.sampler;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliParser cli(
      "Algorithm zoo: rank every registered sampler across mobility scenarios.");
  cli.add_flag("task", std::string("mnist"), "mnist|fmnist|cifar10");
  cli.add_flag("samplers", join_list(core::zoo_algorithms()),
               "comma-separated sampler names to race");
  cli.add_flag("scenarios", std::string("metro,campus,vehicular,flash_crowd"),
               "comma-separated scenario specs (mobility/scenario.h grammar)");
  cli.add_flag("horizon", static_cast<std::int64_t>(0),
               "override the preset horizon (0 = preset; smaller = smoke CI)");
  cli.add_flag("out", std::string("BENCH_zoo.json"), "JSON output path");
  bench::add_threads_flag(cli);
  bench::add_faults_flag(cli);
  bench::add_codec_flag(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  bench::print_mode_banner("Algorithm zoo: sampler x scenario ranking");

  const auto task = bench::parse_tasks(cli.get_string("task")).front();
  const auto samplers = split_list(cli.get_string("samplers"));
  const auto scenario_specs = split_list(cli.get_string("scenarios"));
  if (samplers.empty() || scenario_specs.empty()) {
    std::cerr << "--samplers/--scenarios must name at least one entry each\n";
    return 1;
  }
  // Fail fast on unknown names/specs before the first (slow) run.
  std::vector<mobility::Scenario> scenarios;
  try {
    for (const auto& name : samplers) core::make_sampler(name);
    for (const auto& spec : scenario_specs) {
      scenarios.push_back(mobility::Scenario::parse(spec));
    }
  } catch (const std::invalid_argument& error) {
    std::cerr << error.what() << "\n";
    return 1;
  }
  const auto seeds = bench::bench_seeds();

  std::vector<CaseResult> results;
  common::Table table({"scenario", "rank", "sampler", "final acc", "steps",
                       "reach", "KiB"});
  // Per-scenario rank accumulated for the cross-scenario leaderboard.
  std::map<std::string, double> rank_sum;
  for (const auto& scenario : scenarios) {
    auto config = hfl::ExperimentConfig::preset(task);
    hfl::apply_scenario(scenario, config);
    bench::apply_threads_flag(cli, config);
    bench::apply_faults_flag(cli, config);
    bench::apply_codec_flag(cli, config);
    if (cli.get_int("horizon") > 0) {
      config.horizon = static_cast<std::size_t>(cli.get_int("horizon"));
    }
    // The world (data + stations + trace) depends only on the data seed and
    // the scenario, so one build serves every sampler and run seed of the cell.
    const hfl::ExperimentArtifacts built = hfl::build_experiment(config);

    std::vector<CaseResult> cell;
    for (const auto& sampler_name : samplers) {
      std::vector<hfl::MetricsRecorder> runs;
      double reached = 0.0;
      std::uint64_t bytes = 0;
      for (const auto seed : seeds) {
        hfl::HflOptions options = config.hfl;
        options.seed = seed;
        hfl::HflSimulator sim(built.train, built.test, built.partition,
                              built.schedule, hfl::make_model_factory(config),
                              options);
        auto sampler = core::make_sampler(sampler_name);
        const hfl::MetricsRecorder metrics = sim.run(*sampler, config.horizon);
        if (metrics.time_to_accuracy(config.target_accuracy)) reached += 1.0;
        bytes += sim.last_run_cost().ledger.total_bytes();
        runs.push_back(metrics);
      }
      const auto curve = hfl::average_curves(runs);
      const auto steps = hfl::curve_time_to_target(curve, config.target_accuracy);

      CaseResult r;
      r.sampler = sampler_name;
      r.scenario = scenario.to_string();
      r.final_accuracy = curve.empty() ? 0.0 : curve.back().test_accuracy;
      r.reached = steps.has_value();
      r.steps_to_target = static_cast<double>(steps.value_or(config.horizon));
      r.reach_rate = reached / static_cast<double>(seeds.size());
      r.total_bytes =
          static_cast<double>(bytes) / static_cast<double>(seeds.size());
      cell.push_back(std::move(r));
      std::cout << "  " << scenario.to_string() << " "
                << core::display_name(sampler_name) << " done\n";
    }

    std::sort(cell.begin(), cell.end(), rank_less);
    for (std::size_t rank = 0; rank < cell.size(); ++rank) {
      const auto& r = cell[rank];
      rank_sum[r.sampler] += static_cast<double>(rank + 1);
      table.row()
          .cell(r.scenario)
          .cell(rank + 1)
          .cell(core::display_name(r.sampler))
          .cell(r.final_accuracy, 4)
          .cell(r.reached ? common::format_double(r.steps_to_target, 0)
                          : ">" + common::format_double(r.steps_to_target, 0))
          .cell(r.reach_rate, 2)
          .cell(r.total_bytes / 1024.0, 1);
    }
    results.insert(results.end(), cell.begin(), cell.end());
  }

  std::cout << '\n';
  table.print(std::cout);

  // Cross-scenario leaderboard: mean per-scenario rank, ascending.
  std::vector<std::pair<std::string, double>> leaderboard;
  for (const auto& sampler_name : samplers) {
    leaderboard.emplace_back(
        sampler_name,
        rank_sum[sampler_name] / static_cast<double>(scenarios.size()));
  }
  std::sort(leaderboard.begin(), leaderboard.end(),
            [](const auto& a, const auto& b) {
              return a.second != b.second ? a.second < b.second
                                          : a.first < b.first;
            });
  common::Table overall({"overall", "sampler", "mean rank"});
  for (std::size_t i = 0; i < leaderboard.size(); ++i) {
    overall.row()
        .cell(i + 1)
        .cell(core::display_name(leaderboard[i].first))
        .cell(leaderboard[i].second, 2);
  }
  std::cout << '\n';
  overall.print(std::cout);

  // results: one flat scalar row per (sampler, scenario) for tools/bench_diff.
  std::string json_results = "[";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    obs::JsonObjectWriter w;
    w.begin();
    w.field("sampler", r.sampler);
    w.field("scenario", r.scenario);
    w.field("final_accuracy", r.final_accuracy);
    w.field("steps_to_target", r.steps_to_target);
    w.field("reach_rate", r.reach_rate);
    w.field("total_bytes", r.total_bytes);
    if (i != 0) json_results += ',';
    json_results += w.end();
  }
  json_results += ']';

  // ranking: the per-scenario ranked rows (bench_diff ignores this key).
  std::string json_ranking = "[";
  {
    std::size_t emitted = 0;
    for (const auto& scenario : scenarios) {
      std::vector<const CaseResult*> cell;
      for (const auto& r : results) {
        if (r.scenario == scenario.to_string()) cell.push_back(&r);
      }
      for (std::size_t rank = 0; rank < cell.size(); ++rank) {
        obs::JsonObjectWriter w;
        w.begin();
        w.field("scenario", cell[rank]->scenario);
        w.field("rank", static_cast<std::uint64_t>(rank + 1));
        w.field("sampler", cell[rank]->sampler);
        w.field("display", core::display_name(cell[rank]->sampler));
        w.field("final_accuracy", cell[rank]->final_accuracy);
        if (emitted++ != 0) json_ranking += ',';
        json_ranking += w.end();
      }
    }
  }
  json_ranking += ']';

  std::string json_leaderboard = "[";
  for (std::size_t i = 0; i < leaderboard.size(); ++i) {
    obs::JsonObjectWriter w;
    w.begin();
    w.field("rank", static_cast<std::uint64_t>(i + 1));
    w.field("sampler", leaderboard[i].first);
    w.field("display", core::display_name(leaderboard[i].first));
    w.field("mean_rank", leaderboard[i].second);
    if (i != 0) json_leaderboard += ',';
    json_leaderboard += w.end();
  }
  json_leaderboard += ']';

  obs::JsonObjectWriter w;
  w.begin();
  w.field("bench", "zoo");
  w.field("task", data::task_name(task));
  w.field("seed", seeds.front());
  w.field("seeds", static_cast<std::uint64_t>(seeds.size()));
  w.raw_field("hardware", obs::hardware_json());
  w.raw_field("results", json_results);
  w.raw_field("ranking", json_ranking);
  w.raw_field("leaderboard", json_leaderboard);

  const std::string out_path = cli.get_string("out");
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::cerr << "cannot open " << out_path << "\n";
    return 1;
  }
  out << w.end() << "\n";
  std::cout << "\nresults written to " << out_path << "\n";
  return 0;
}
