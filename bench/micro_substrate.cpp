// Google-benchmark microbenchmarks for the compute substrates: tensor
// kernels, model forward/backward, sampling-strategy construction and the
// mobility pipeline. These guard the per-step cost of the simulator.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/mach.h"
#include "data/synthetic.h"
#include "mobility/mobility_model.h"
#include "mobility/schedule.h"
#include "mobility/stations.h"
#include "nn/factory.h"
#include "sampling/budget.h"
#include "tensor/ops.h"

namespace {

using namespace mach;

tensor::Tensor random_tensor(std::vector<std::size_t> shape, common::Rng& rng) {
  tensor::Tensor t(std::move(shape));
  for (auto& v : t.flat()) v = static_cast<float>(rng.normal());
  return t;
}

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(1);
  const auto a = random_tensor({n, n}, rng);
  const auto b = random_tensor({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

void BM_Conv2dForward(benchmark::State& state) {
  common::Rng rng(2);
  tensor::ConvSpec spec{.in_channels = 8, .out_channels = 16, .kernel = 3,
                        .pad = 1, .stride = 1};
  const auto input = random_tensor({8, 8, 12, 12}, rng);
  const auto weight = random_tensor({16, 8, 3, 3}, rng);
  const auto bias = random_tensor({16}, rng);
  tensor::Tensor output({8, 16, 12, 12});
  for (auto _ : state) {
    tensor::conv2d_forward(input, weight, bias, spec, output);
    benchmark::DoNotOptimize(output.data());
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_MlpTrainStep(benchmark::State& state) {
  common::Rng rng(3);
  auto model = nn::make_mlp(64, 32, 10);
  model.init_params(rng);
  const auto x = random_tensor({8, 64}, rng);
  std::vector<int> labels(8);
  for (auto& l : labels) l = static_cast<int>(rng.uniform_index(10));
  for (auto _ : state) {
    const auto stats = model.forward_backward(x, labels);
    benchmark::DoNotOptimize(stats.loss);
  }
}
BENCHMARK(BM_MlpTrainStep);

void BM_Cnn2TrainStep(benchmark::State& state) {
  common::Rng rng(4);
  auto model = nn::make_cnn2(1, 12, 12, 10);
  model.init_params(rng);
  const auto x = random_tensor({8, 1, 12, 12}, rng);
  std::vector<int> labels(8);
  for (auto& l : labels) l = static_cast<int>(rng.uniform_index(10));
  for (auto _ : state) {
    const auto stats = model.forward_backward(x, labels);
    benchmark::DoNotOptimize(stats.loss);
  }
}
BENCHMARK(BM_Cnn2TrainStep);

void BM_BudgetedProbabilities(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(5);
  std::vector<double> weights(n);
  for (auto& w : weights) w = rng.exponential(1.0);
  for (auto _ : state) {
    auto q = sampling::budgeted_probabilities(weights, static_cast<double>(n) / 2);
    benchmark::DoNotOptimize(q.data());
  }
}
BENCHMARK(BM_BudgetedProbabilities)->Arg(10)->Arg(100)->Arg(1000);

void BM_MachEdgeSampling(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  common::Rng rng(6);
  std::vector<double> g2(n);
  for (auto& g : g2) g = rng.exponential(1.0);
  core::TransferFunction transfer({.alpha = 1.0, .beta = 3.0, .warmup_rounds = 0});
  for (auto _ : state) {
    auto q = core::edge_sampling_probabilities(g2, static_cast<double>(n) / 2,
                                               &transfer);
    benchmark::DoNotOptimize(q.data());
  }
}
BENCHMARK(BM_MachEdgeSampling)->Arg(10)->Arg(100);

void BM_SyntheticGeneration(benchmark::State& state) {
  data::SyntheticGenerator gen(data::SyntheticSpec::mnist_like(), 7);
  common::Rng rng(7);
  for (auto _ : state) {
    auto d = gen.generate_uniform(64, rng);
    benchmark::DoNotOptimize(d.size());
  }
}
BENCHMARK(BM_SyntheticGeneration);

void BM_MobilityPipeline(benchmark::State& state) {
  mobility::StationLayoutSpec layout;
  layout.num_stations = 60;
  for (auto _ : state) {
    auto stations = mobility::generate_stations(layout, 8);
    const auto clustering = mobility::cluster_stations(stations, 10, 8);
    mobility::MarkovMobilityModel model(std::move(stations), 0.8, 25.0);
    const auto trace = mobility::generate_trace(model, 100, 100, 8);
    const mobility::TraceReplay replay(trace);
    const auto schedule = mobility::MobilitySchedule::from_trace(replay, clustering);
    benchmark::DoNotOptimize(schedule.churn_rate());
  }
}
BENCHMARK(BM_MobilityPipeline);

}  // namespace

BENCHMARK_MAIN();
