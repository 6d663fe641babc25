// Mobility-sensitivity ablation: how does device churn (controlled by the
// Markov model's stay probability) affect each sampling strategy?
//
// This probes the paper's central premise — that device mobility is what
// breaks traditional fixed-probability sampling. At stay_prob -> 1 devices
// never move (a static HFL system); lower values mean more cross-edge churn.
//
//   ./ablation_mobility [--task mnist|fmnist|cifar10] [--stay 0.95,0.8,0.5]
//   env: REPRO_FULL=1, BENCH_SEEDS=N
#include "bench_util.h"

#include <sstream>

#include "common/table.h"
#include "mobility/mobility_model.h"
#include "mobility/stations.h"

namespace {

std::vector<double> parse_doubles(const std::string& flag) {
  std::vector<double> out;
  std::stringstream ss(flag);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(std::stod(item));
  return out;
}

/// Edge-level churn of the schedule a config would generate.
double config_churn(const mach::hfl::ExperimentConfig& config) {
  const auto artifacts = mach::hfl::build_experiment(config);
  return artifacts.schedule.churn_rate();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mach;

  common::CliParser cli("Mobility-churn sensitivity of the sampling strategies.");
  cli.add_flag("task", std::string("mnist"), "task: mnist|fmnist|cifar10");
  cli.add_flag("stay", std::string("0.95,0.8,0.5"),
               "comma-separated Markov stay probabilities");
  cli.add_flag("csv", std::string("ablation_mobility.csv"), "CSV output path");
  bench::add_threads_flag(cli);
  bench::add_trace_flag(cli);
  bench::add_phase_times_flag(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  bench::print_mode_banner("Mobility ablation: churn sensitivity");
  const auto seeds = bench::bench_seeds();
  const auto stay_probs = parse_doubles(cli.get_string("stay"));
  const auto tasks = bench::parse_tasks(cli.get_string("task"));

  const auto trace = bench::open_bench_trace(cli.get_string("trace"));
  obs::PhaseTimerSet sweep_phases;
  common::Table table({"task", "stay prob", "edge churn", "MACH", "MACH-P", "US",
                       "CS", "SS"});
  for (const auto task : tasks) {
    for (const double stay : stay_probs) {
      auto config = hfl::ExperimentConfig::preset(task);
      bench::apply_threads_flag(cli, config);
      config.stay_prob = stay;
      auto& row = table.row()
                      .cell(data::task_name(task))
                      .cell(stay, 2)
                      .cell(config_churn(config), 3);
      for (const auto& name : core::paper_algorithms()) {
        const auto result =
            bench::run_algo_curve(config, name, seeds, trace.get());
        sweep_phases.merge(result.phases);
        row.cell(bench::steps_cell(result, config.horizon));
      }
      std::cout << data::task_name(task) << " stay=" << stay << " done\n";
    }
  }
  std::cout << '\n';
  table.print(std::cout);
  if (cli.get_bool("phase_times")) {
    bench::print_phase_times(sweep_phases, std::cout);
  }
  if (table.write_csv(cli.get_string("csv"))) {
    std::cout << "\nwritten to " << cli.get_string("csv") << '\n';
  }
  if (trace != nullptr) {
    std::cout << "\ntrace written to " << cli.get_string("trace") << " ("
              << trace->lines_written() << " events)\n";
  }
  return 0;
}
