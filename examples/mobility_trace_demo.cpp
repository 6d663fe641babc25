// Mobility substrate walkthrough: synthesise a telecom-style metro area,
// cluster base stations into main edges, generate a Markov mobility trace
// for a device population, and report the statistics the HFL simulator
// cares about (dwell time, churn, edge occupancy).
//
//   ./mobility_trace_demo [--devices N] [--stations N] [--edges N]
//                         [--horizon T] [--stay P] [--csv path]
//
// A bad flag value prints `error: ...` on stderr and exits 1.
#include <iostream>
#include <stdexcept>

#include "common/cli.h"
#include "common/table.h"
#include "mobility/mobility_model.h"
#include "mobility/schedule.h"
#include "mobility/stations.h"

namespace {

using namespace mach;

int run(const common::CliParser& cli) {
  const auto devices = static_cast<std::size_t>(cli.get_int("devices"));
  const auto horizon = static_cast<std::size_t>(cli.get_int("horizon"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  mobility::StationLayoutSpec layout;
  layout.num_stations = static_cast<std::size_t>(cli.get_int("stations"));
  auto stations = mobility::generate_stations(layout, seed);
  std::cout << "Generated " << stations.size() << " base stations in a "
            << layout.area_size << "x" << layout.area_size << " area ("
            << layout.num_hotspots << " hotspots)\n";

  const auto clustering = mobility::cluster_stations(
      stations, static_cast<std::size_t>(cli.get_int("edges")), seed);
  std::cout << "Clustered into " << clustering.num_clusters() << " main edges\n";

  mobility::MarkovMobilityModel model(stations, cli.get_double("stay"), 25.0);
  const mobility::Trace trace = mobility::generate_trace(model, devices, horizon, seed);
  std::cout << "Trace: " << trace.records().size() << " access records, mean dwell "
            << trace.mean_dwell() << " steps\n";

  const mobility::TraceReplay replay(trace);
  const auto schedule = mobility::MobilitySchedule::from_trace(replay, clustering);
  std::cout << "Station-level churn: " << replay.churn_rate()
            << " | edge-level churn: " << schedule.churn_rate() << "\n\n";

  common::Table table({"edge", "stations", "mean occupancy", "devices @t=0",
                       "devices @t=mid"});
  const auto occupancy = schedule.mean_edge_occupancy();
  const auto at_start = schedule.devices_per_edge(0);
  const auto at_mid = schedule.devices_per_edge(horizon / 2);
  std::vector<std::size_t> station_counts(clustering.num_clusters(), 0);
  for (auto a : clustering.assignment) ++station_counts[a];
  for (std::size_t n = 0; n < clustering.num_clusters(); ++n) {
    table.row()
        .cell(n)
        .cell(station_counts[n])
        .cell(occupancy[n], 4)
        .cell(at_start[n].size())
        .cell(at_mid[n].size());
  }
  table.print(std::cout);

  const std::string csv = cli.get_string("csv");
  if (!csv.empty()) {
    if (trace.write_csv(csv)) {
      std::cout << "\nRaw trace written to " << csv << '\n';
    } else {
      std::cerr << "failed to write " << csv << '\n';
      return 1;
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  mach::common::CliParser cli("Generate and inspect a synthetic telecom mobility trace.");
  cli.add_flag("devices", static_cast<std::int64_t>(100), "number of mobile devices");
  cli.add_flag("stations", static_cast<std::int64_t>(60), "number of base stations");
  cli.add_flag("edges", static_cast<std::int64_t>(10), "number of main edges (clusters)");
  cli.add_flag("horizon", static_cast<std::int64_t>(200), "trace length in time steps");
  cli.add_flag("stay", 0.8, "per-step probability of staying at the current station");
  cli.add_flag("seed", static_cast<std::int64_t>(42), "random seed");
  cli.add_flag("csv", std::string(""), "optional path for the raw trace CSV");
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;
  // Counts are checked before run() casts them to size_t, where a negative
  // one would become a count near 2^64.
  for (const char* flag : {"devices", "stations", "edges", "horizon"}) {
    if (cli.get_int(flag) <= 0) {
      std::cerr << "error: --" << flag << " must be positive\n";
      return 1;
    }
  }
  try {
    return run(cli);
  } catch (const std::invalid_argument& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
