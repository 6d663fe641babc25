// The world the simulator suites use to drive several training sections per
// time step (DESIGN §8): pending edges flush once they hold 16 arrivals per
// pool worker, so a 2-worker engine trains and reduces every ~32 arrivals,
// a serial one after every edge.
#pragma once

#include <cstdint>

#include "comm/config.h"
#include "fault/schedule.h"
#include "hfl/experiment.h"

namespace mach::test {

/// 200 devices under 4 edges, participation 0.5 and one local step each,
/// with dropout, stragglers against a timeout, an outage of edge 0 at steps
/// 2-3 and int8 codecs on every link: about 90 arrivals per step.
inline hfl::ExperimentConfig multi_flush_world(std::uint64_t seed) {
  hfl::ExperimentConfig config =
      hfl::ExperimentConfig::smoke(data::TaskKind::MnistLike);
  config.num_devices = 200;
  config.num_edges = 4;
  config.train_per_device = 20;
  config.test_examples = 300;
  config.mlp_hidden = 16;
  config.hfl.local_epochs = 1;
  config.hfl.participation = 0.5;
  config.hfl.faults = fault::FaultSchedule::parse(
      "dropout:p=0.1;straggler:p=0.2,timeout=1.5;"
      "edge_outage:edge=0,from=2,to=4");
  config.hfl.comm = comm::CommConfig::parse("int8");
  config.horizon = 12;
  return config.with_seed(seed);
}

}  // namespace mach::test
