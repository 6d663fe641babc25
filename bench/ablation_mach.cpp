// Ablation bench for the design choices called out in DESIGN.md §5:
//   1. transfer smoothing S(.) (Eq. 17)  — off: raw Eq. 16 water-filled;
//   2. UCB exploration term (Eq. 15 B)   — off: pure greedy exploitation;
//   3. buffer clearing at cloud rounds   — off: stale persistent buffer;
//   4. optimistic initialisation          — off: unexplored devices score 0;
//   5. aggregation form                   — literal Eq. (5) parameter HT
//      weighting instead of the update form (gradient-explosion risk).
//
//   ./ablation_mach [--task mnist|fmnist|cifar10]
//   env: REPRO_FULL=1, BENCH_SEEDS=N
#include "bench_util.h"

#include "common/table.h"
#include "core/mach.h"

namespace {

using mach::core::MachOptions;

struct Variant {
  std::string name;
  MachOptions options;
  // Baseline variants run under the engine default (literal Eq. 5); the two
  // aggregation variants override it.
  mach::hfl::AggregationForm aggregation = mach::hfl::AggregationForm::Literal;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  out.push_back({"MACH (full)", MachOptions{}});

  MachOptions no_transfer;
  no_transfer.use_transfer = false;
  out.push_back({"no transfer S(.)", no_transfer});

  MachOptions no_explore;
  no_explore.ucb.use_exploration = false;
  out.push_back({"no UCB exploration", no_explore});

  MachOptions keep_buffer;
  keep_buffer.ucb.clear_buffer_on_cloud_round = false;
  out.push_back({"persistent buffer", keep_buffer});

  MachOptions pessimistic;
  pessimistic.ucb.optimistic_init = false;
  out.push_back({"pessimistic init", pessimistic});

  out.push_back({"self-normalised aggregation", MachOptions{},
                 mach::hfl::AggregationForm::SelfNormalized});
  out.push_back({"update-form aggregation", MachOptions{},
                 mach::hfl::AggregationForm::UpdateForm});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mach;

  common::CliParser cli("MACH design-choice ablations.");
  cli.add_flag("task", std::string("mnist"), "task: mnist|fmnist|cifar10");
  cli.add_flag("csv", std::string("ablation_mach.csv"), "CSV output path");
  bench::add_threads_flag(cli);
  bench::add_trace_flag(cli);
  bench::add_phase_times_flag(cli);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  bench::print_mode_banner("MACH ablations");
  const auto seeds = bench::bench_seeds();
  const auto tasks = bench::parse_tasks(cli.get_string("task"));
  auto config = hfl::ExperimentConfig::preset(tasks.front());
  bench::apply_threads_flag(cli, config);

  std::cout << "task " << data::task_name(config.task) << ", target "
            << config.target_accuracy << ", horizon " << config.horizon << "\n\n";

  const auto trace = bench::open_bench_trace(cli.get_string("trace"));
  obs::PhaseTimerSet sweep_phases;
  common::Table table({"variant", "steps to target", "reach rate", "final acc"});
  for (const auto& variant : variants()) {
    auto run_config = config;
    run_config.hfl.aggregation = variant.aggregation;
    std::vector<hfl::MetricsRecorder> runs;
    for (const auto seed : seeds) {
      core::MachSampler sampler(variant.options);
      auto run =
          hfl::run_experiment(run_config.with_seed(seed), sampler, trace.get());
      sweep_phases.merge(run.phases);
      runs.push_back(std::move(run.metrics));
    }
    const auto curve = hfl::average_curves(runs);
    const auto steps = hfl::curve_time_to_target(curve, config.target_accuracy);
    double reached = 0.0;
    for (const auto& run : runs) {
      if (run.time_to_accuracy(config.target_accuracy)) reached += 1.0;
    }
    table.row()
        .cell(variant.name)
        .cell(steps ? std::to_string(*steps) : ">" + std::to_string(config.horizon))
        .cell(reached / static_cast<double>(runs.size()), 2)
        .cell(curve.empty() ? 0.0 : curve.back().test_accuracy, 4);
    std::cout << variant.name << " done\n";
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
