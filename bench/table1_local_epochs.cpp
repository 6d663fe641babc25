// Table I reproduction: time steps consumed under different local updating
// epochs I (0.8I, I, 1.2I) to reach 70% of the target accuracy and the full
// target accuracy, for MACH vs the US/CS/SS baselines, plus the
// saved-time-step percentage of MACH over the best baseline.
//
//   ./table1_local_epochs [--task all|mnist|fmnist|cifar10]
//   env: REPRO_FULL=1, BENCH_SEEDS=N
#include "bench_util.h"

#include <cmath>

#include "common/table.h"

namespace {

using mach::hfl::EvalPoint;

struct AlgoCurve {
  std::string name;
  std::vector<EvalPoint> curve;
};

std::string steps_str(const std::optional<std::size_t>& steps, std::size_t horizon) {
  return steps ? std::to_string(*steps) : ">" + std::to_string(horizon);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mach;

  common::CliParser cli("Table I: time steps under different local updating epochs.");
  cli.add_flag("task", std::string("all"), "task filter: all|mnist|fmnist|cifar10");
  cli.add_flag("csv", std::string("table1_local_epochs.csv"), "CSV output path");
  bench::add_threads_flag(cli);
  bench::add_trace_flag(cli);
  bench::add_phase_times_flag(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  bench::print_mode_banner("Table I: varying local updating epochs");
  const auto seeds = bench::bench_seeds();
  // Table I compares MACH against the three basic baselines (no MACH-P).
  const std::vector<std::string> algorithms = {"mach", "uniform", "class_balance",
                                               "statistical"};
  const std::vector<double> epoch_scales = {0.8, 1.0, 1.2};

  const auto trace = bench::open_bench_trace(cli.get_string("trace"));
  obs::PhaseTimerSet sweep_phases;
  common::Table table({"dataset", "target", "local epochs", "MACH", "US", "CS",
                       "SS", "saved %"});
  for (const auto task : bench::parse_tasks(cli.get_string("task"))) {
    auto base = hfl::ExperimentConfig::preset(task);
    bench::apply_threads_flag(cli, base);
    const auto base_epochs = static_cast<double>(base.hfl.local_epochs);
    for (const double scale : epoch_scales) {
      auto config = base;
      config.hfl.local_epochs = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(base_epochs * scale)));

      // One set of runs per algorithm serves both accuracy thresholds.
      std::vector<AlgoCurve> curves;
      for (const auto& name : algorithms) {
        std::vector<hfl::MetricsRecorder> runs;
        for (const auto seed : seeds) {
          auto sampler = core::make_sampler(name);
          auto run =
              hfl::run_experiment(config.with_seed(seed), *sampler, trace.get());
          sweep_phases.merge(run.phases);
          runs.push_back(std::move(run.metrics));
        }
        curves.push_back({name, hfl::average_curves(runs)});
      }

      const std::string epochs_label =
          (scale == 1.0 ? "I=" : common::format_double(scale, 1) + "I=") +
          std::to_string(config.hfl.local_epochs);
      for (const auto& [label, threshold] :
           {std::pair<std::string, double>{"70% target",
                                           0.7 * config.target_accuracy},
            std::pair<std::string, double>{"target", config.target_accuracy}}) {
        auto& row = table.row()
                        .cell(data::task_name(task))
                        .cell(label)
                        .cell(epochs_label);
        double mach_steps = 0.0;
        double best_baseline = 1e300;
        for (const auto& algo : curves) {
          const auto steps = hfl::curve_time_to_target(algo.curve, threshold);
          row.cell(steps_str(steps, config.horizon));
          const double value = steps ? static_cast<double>(*steps)
                                     : static_cast<double>(config.horizon);
          if (algo.name == "mach") {
            mach_steps = value;
          } else {
            best_baseline = std::min(best_baseline, value);
          }
        }
        const double saved =
            best_baseline > 0.0 ? (best_baseline - mach_steps) / best_baseline * 100.0
                                : 0.0;
        row.cell(common::format_double(saved, 2) + "%");
      }
      std::cout << data::task_name(task) << " scale=" << scale << " done\n";
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
