// FaultInjector: decisions are pure functions of (seed, coordinates), the
// analytic arrival probability matches the realised fate frequencies, the
// straggler retry ladder respects the per-edge timeout budget, and the
// per-round call tallies exactly what the per-device fates say.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.h"
#include "fault/schedule.h"
#include "obs/registry.h"

namespace mach::fault {
namespace {

TEST(FaultInjector, DefaultConstructedIsDisabled) {
  const FaultInjector injector;
  EXPECT_FALSE(injector.enabled());
}

TEST(FaultInjector, EmptyScheduleIsDisabled) {
  const FaultInjector injector(FaultSchedule{}, 7);
  EXPECT_FALSE(injector.enabled());
}

TEST(FaultInjector, DecisionsArePureFunctionsOfCoordinates) {
  const FaultSchedule schedule =
      FaultSchedule::parse("dropout:p=0.4;straggler:p=0.4,delay=2,timeout=1;"
                           "cloud_loss:p=0.3;seed=11");
  const FaultInjector a(schedule, 1);
  const FaultInjector b(schedule, 1);
  for (std::size_t t = 0; t < 20; ++t) {
    for (std::size_t edge = 0; edge < 3; ++edge) {
      for (std::uint32_t device = 0; device < 10; ++device) {
        const DeviceFaultDecision first = a.device_fate(t, edge, device);
        const DeviceFaultDecision second = b.device_fate(t, edge, device);
        EXPECT_EQ(first.fate, second.fate);
        EXPECT_EQ(first.arrived, second.arrived);
        EXPECT_EQ(first.retries, second.retries);
        EXPECT_EQ(first.delay_seconds, second.delay_seconds);
      }
      EXPECT_EQ(a.cloud_upload_lost(t, edge), b.cloud_upload_lost(t, edge));
    }
  }
}

TEST(FaultInjector, PinnedScheduleSeedOverridesRunSeed) {
  const FaultSchedule pinned = FaultSchedule::parse("dropout:p=0.5;seed=123");
  const FaultInjector run_a(pinned, 1);
  const FaultInjector run_b(pinned, 999);
  std::size_t agree = 0, total = 0;
  for (std::size_t t = 0; t < 50; ++t) {
    for (std::uint32_t device = 0; device < 8; ++device) {
      ++total;
      if (run_a.device_fate(t, 0, device).arrived ==
          run_b.device_fate(t, 0, device).arrived) {
        ++agree;
      }
    }
  }
  EXPECT_EQ(agree, total);  // run seed is irrelevant once the schedule pins one

  // Without a pinned seed, different run seeds give different histories.
  const FaultSchedule derived = FaultSchedule::parse("dropout:p=0.5");
  const FaultInjector derived_a(derived, 1);
  const FaultInjector derived_b(derived, 999);
  agree = 0;
  for (std::size_t t = 0; t < 50; ++t) {
    for (std::uint32_t device = 0; device < 8; ++device) {
      if (derived_a.device_fate(t, 0, device).arrived ==
          derived_b.device_fate(t, 0, device).arrived) {
        ++agree;
      }
    }
  }
  EXPECT_LT(agree, total);
}

TEST(FaultInjector, DropoutTargetsOnlyListedDevices) {
  const FaultSchedule schedule =
      FaultSchedule::parse("dropout:p=1.0,devices=2/5;seed=3");
  const FaultInjector injector(schedule, 1);
  for (std::size_t t = 0; t < 10; ++t) {
    for (std::uint32_t device = 0; device < 8; ++device) {
      const bool targeted = device == 2 || device == 5;
      const DeviceFaultDecision decision = injector.device_fate(t, 0, device);
      EXPECT_EQ(decision.fate == DeviceFate::Dropped, targeted)
          << "t=" << t << " device=" << device;
      EXPECT_DOUBLE_EQ(injector.arrival_probability(0, device),
                       targeted ? 0.0 : 1.0);
    }
  }
}

TEST(FaultInjector, EdgeOutageWindowsAreHalfOpen) {
  const FaultSchedule schedule =
      FaultSchedule::parse("edge_outage:edge=1,from=3,to=6");
  const FaultInjector injector(schedule, 1);
  EXPECT_TRUE(injector.enabled());
  for (std::size_t t = 0; t < 10; ++t) {
    EXPECT_EQ(injector.edge_out(t, 1), t >= 3 && t < 6) << "t=" << t;
    EXPECT_FALSE(injector.edge_out(t, 0));
  }
}

TEST(FaultInjector, StragglerRetriesRespectTheTimeoutBudget) {
  // One retry halves the delay once: arrival iff initial <= 2, so direct
  // arrivals (~39%), retried arrivals (~24%) and timeouts (~37%) all occur
  // comfortably within 200 trials.
  const FaultSchedule schedule = FaultSchedule::parse(
      "straggler:p=1,delay=2,timeout=1,backoff=0.5,retries=1;seed=21");
  const FaultInjector injector(schedule, 1);
  std::size_t arrivals = 0, timeouts = 0, retried_arrivals = 0;
  for (std::size_t t = 0; t < 200; ++t) {
    const DeviceFaultDecision decision = injector.device_fate(t, 0, 0);
    if (decision.arrived) {
      ASSERT_EQ(decision.fate, DeviceFate::StragglerArrived);
      // The accepted attempt fits the budget...
      EXPECT_LE(decision.delay_seconds, 1.0);
      if (decision.retries > 0) {
        ++retried_arrivals;
        // ...and every earlier attempt missed it (backoff halves the delay,
        // so the previous attempt was delay * 2 > timeout).
        EXPECT_GT(decision.delay_seconds * 2.0, 1.0);
      }
      // Total virtual time is the whole ladder, not just the last rung.
      EXPECT_GE(decision.virtual_seconds, decision.delay_seconds);
      ++arrivals;
    } else {
      ASSERT_EQ(decision.fate, DeviceFate::StragglerTimedOut);
      EXPECT_EQ(decision.retries, 1u);
      EXPECT_GT(decision.delay_seconds, 1.0);  // final attempt still late
      ++timeouts;
    }
  }
  EXPECT_GT(arrivals, 0u);
  EXPECT_GT(timeouts, 0u);
  EXPECT_GT(retried_arrivals, 0u);
}

TEST(FaultInjector, PerEdgeTimeoutOverrides) {
  const FaultSchedule schedule = FaultSchedule::parse(
      "straggler:p=1,delay=1,timeout=2,backoff=0.5,retries=0;"
      "edge_timeout:edge=1,timeout=0.01;seed=5");
  const FaultInjector injector(schedule, 1);
  EXPECT_DOUBLE_EQ(injector.edge_timeout(0), 2.0);
  EXPECT_DOUBLE_EQ(injector.edge_timeout(1), 0.01);
  // A tight budget makes arrival much rarer on the overridden edge.
  EXPECT_GT(injector.arrival_probability(0, 0),
            injector.arrival_probability(1, 0));
  std::size_t arrive_default = 0, arrive_tight = 0;
  for (std::size_t t = 0; t < 300; ++t) {
    arrive_default += injector.device_fate(t, 0, 0).arrived ? 1 : 0;
    arrive_tight += injector.device_fate(t, 1, 0).arrived ? 1 : 0;
  }
  EXPECT_GT(arrive_default, arrive_tight);
}

TEST(FaultInjector, ArrivalProbabilityMatchesRealisedFrequency) {
  // The HT correction divides by arrival_probability, so it must equal the
  // true per-event survival rate of device_fate. Monte Carlo over many
  // (t, device) coordinates; 3-sigma binomial tolerance.
  const FaultSchedule schedule = FaultSchedule::parse(
      "dropout:p=0.2;straggler:p=0.5,delay=1.5,timeout=1,backoff=0.5,"
      "retries=2;seed=17");
  const FaultInjector injector(schedule, 1);
  const double expected = injector.arrival_probability(0, 0);
  EXPECT_GT(expected, 0.0);
  EXPECT_LT(expected, 1.0);
  std::size_t arrived = 0;
  const std::size_t trials = 40000;
  for (std::size_t i = 0; i < trials; ++i) {
    // Spread over t so each trial uses a fresh hashed stream.
    if (injector.device_fate(i, 0, static_cast<std::uint32_t>(i % 64)).arrived) {
      ++arrived;
    }
  }
  const double realised = static_cast<double>(arrived) / static_cast<double>(trials);
  const double sigma =
      std::sqrt(expected * (1.0 - expected) / static_cast<double>(trials));
  EXPECT_NEAR(realised, expected, 3.0 * sigma)
      << "analytic " << expected << " vs realised " << realised;
}

TEST(FaultInjector, CloudLossMatchesItsProbability) {
  const FaultSchedule schedule = FaultSchedule::parse("cloud_loss:p=0.3;seed=29");
  const FaultInjector injector(schedule, 1);
  std::size_t lost = 0;
  const std::size_t trials = 20000;
  for (std::size_t t = 0; t < trials; ++t) {
    if (injector.cloud_upload_lost(t, t % 8)) ++lost;
  }
  const double realised = static_cast<double>(lost) / static_cast<double>(trials);
  const double sigma = std::sqrt(0.3 * 0.7 / static_cast<double>(trials));
  EXPECT_NEAR(realised, 0.3, 3.0 * sigma);

  // Probability zero never loses and never needs randomness.
  const FaultInjector quiet(FaultSchedule::parse("dropout:p=0.1"), 1);
  for (std::size_t t = 0; t < 50; ++t) {
    EXPECT_FALSE(quiet.cloud_upload_lost(t, 0));
  }
}

TEST(FaultInjector, DeviceAndCloudStreamsAreDisjoint) {
  // Same coordinates, different domains: histories must not correlate
  // perfectly (a shared stream would make them identical for p=0.5 rules).
  const FaultSchedule schedule =
      FaultSchedule::parse("dropout:p=0.5;cloud_loss:p=0.5;seed=31");
  const FaultInjector injector(schedule, 1);
  std::size_t agree = 0;
  const std::size_t trials = 400;
  for (std::size_t t = 0; t < trials; ++t) {
    const bool dropped = !injector.device_fate(t, 0, 0).arrived;
    if (dropped == injector.cloud_upload_lost(t, 0)) ++agree;
  }
  EXPECT_GT(agree, 0u);
  EXPECT_LT(agree, trials);
}

std::uint64_t counter_value(const obs::MetricsRegistry& registry,
                            const std::string& name) {
  for (const auto& entry : registry.snapshot().counters) {
    if (entry.name == name) return entry.value;
  }
  ADD_FAILURE() << "counter " << name << " not registered";
  return 0;
}

TEST(FaultInjector, RoundTallyMatchesPerDeviceFates) {
  // The round call must equal a fold over device_fate in sampled order:
  // arrivals (device-list indices), survivors, lost devices, fate counts,
  // retries and the upload attempts the engine charges from them.
  const FaultSchedule schedule = FaultSchedule::parse(
      "dropout:p=0.3;straggler:p=0.5,delay=1.5,timeout=1,backoff=0.5,"
      "retries=2;seed=13");
  FaultInjector injector(schedule, 1);
  obs::MetricsRegistry registry;
  injector.begin_run(registry);
  const std::vector<std::uint32_t> devices = {40, 3, 17, 8, 25, 11, 2, 33, 19, 6};
  const std::vector<std::uint32_t> sampled = {0, 2, 3, 5, 6, 8, 9};
  const std::size_t edge = 1;
  std::vector<std::uint32_t> arrivals;
  obs::FaultSummary summary;
  std::size_t dropped = 0, straggler_arrivals = 0, timeouts = 0, retries = 0,
              lost = 0;
  for (std::size_t t = 0; t < 40; ++t) {
    SCOPED_TRACE("t=" + std::to_string(t));
    ASSERT_FALSE(injector.begin_round(t, edge, summary));
    injector.decide_round(t, edge, devices, sampled, arrivals, summary);

    obs::FaultSummary expected;
    std::vector<std::uint32_t> expected_arrivals;
    std::size_t attempts = 0;
    for (const std::uint32_t i : sampled) {
      const DeviceFaultDecision fate = injector.device_fate(t, edge, devices[i]);
      expected.num_retries += fate.retries;
      if (fate.fate != DeviceFate::Dropped) attempts += 1 + fate.retries;
      if (fate.fate == DeviceFate::Dropped) ++expected.num_dropped;
      if (fate.fate == DeviceFate::StragglerArrived) ++expected.num_straggler_arrivals;
      if (fate.fate == DeviceFate::StragglerTimedOut) ++expected.num_straggler_timeouts;
      if (fate.arrived) {
        expected_arrivals.push_back(i);
        expected.survivors.push_back(devices[i]);
      } else {
        expected.lost.push_back(devices[i]);
      }
    }
    EXPECT_TRUE(summary.active);
    EXPECT_FALSE(summary.edge_outage);
    EXPECT_EQ(arrivals, expected_arrivals);
    EXPECT_EQ(summary.survivors, expected.survivors);
    EXPECT_EQ(summary.lost, expected.lost);
    EXPECT_EQ(summary.num_dropped, expected.num_dropped);
    EXPECT_EQ(summary.num_straggler_arrivals, expected.num_straggler_arrivals);
    EXPECT_EQ(summary.num_straggler_timeouts, expected.num_straggler_timeouts);
    EXPECT_EQ(summary.num_retries, expected.num_retries);
    EXPECT_EQ(sampled.size() - summary.num_dropped + summary.num_retries, attempts);
    dropped += expected.num_dropped;
    straggler_arrivals += expected.num_straggler_arrivals;
    timeouts += expected.num_straggler_timeouts;
    retries += expected.num_retries;
    lost += expected.lost.size();
  }
  // Every fate kind fired, and the counters hold the rounds' sums.
  EXPECT_GT(dropped, 0u);
  EXPECT_GT(straggler_arrivals, 0u);
  EXPECT_GT(timeouts, 0u);
  EXPECT_GT(retries, 0u);
  EXPECT_EQ(counter_value(registry, "fault_dropouts"), dropped);
  EXPECT_EQ(counter_value(registry, "fault_straggler_arrivals"), straggler_arrivals);
  EXPECT_EQ(counter_value(registry, "fault_straggler_timeouts"), timeouts);
  EXPECT_EQ(counter_value(registry, "fault_retries"), retries);
  EXPECT_EQ(counter_value(registry, "fault_updates_lost"), lost);
  EXPECT_EQ(injector.updates_lost(), lost);

  // Disabled: every sampled device arrives, nothing is tallied and no
  // counter is registered.
  FaultInjector disabled;
  obs::MetricsRegistry quiet;
  disabled.begin_run(quiet);
  EXPECT_TRUE(quiet.snapshot().counters.empty());
  EXPECT_FALSE(disabled.begin_round(0, edge, summary));
  disabled.decide_round(0, edge, devices, sampled, arrivals, summary);
  EXPECT_EQ(arrivals, sampled);
  for (const std::uint32_t i : sampled) {
    EXPECT_EQ(disabled.arrival_probability(edge, devices[i]), 1.0);
  }
  EXPECT_FALSE(summary.active);
  EXPECT_EQ(summary.num_dropped + summary.num_straggler_arrivals +
                summary.num_straggler_timeouts + summary.num_retries,
            0u);
  EXPECT_TRUE(summary.survivors.empty());
  EXPECT_TRUE(summary.lost.empty());
  EXPECT_EQ(disabled.updates_lost(), 0u);
}

}  // namespace
}  // namespace mach::fault
