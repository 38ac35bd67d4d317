// Section V-D online latency: per-round engine cost (PostPrice + Observe)
// for the three applications, via google-benchmark. The paper's Python
// prototype measured 0.115 ms/query (n=100 linear), 0.019 ms (n=55
// log-linear), 3.509/0.024 ms (n=1024 sparse / dense logistic); the shape to
// verify is millisecond-or-below latency with O(n²) growth.

#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>

#include "market/avazu_market.h"
#include "market/linear_market.h"
#include "market/simulator.h"
#include "pricing/ellipsoid_engine.h"
#include "pricing/generalized_engine.h"
#include "pricing/interval_engine.h"

namespace {

/// One pricing round on a noisy-linear-query market of dimension n.
void BM_LinearQueryRound(benchmark::State& state) {
  int dim = static_cast<int>(state.range(0));
  pdm::Rng rng(1);
  pdm::NoisyLinearMarketConfig market_config;
  market_config.feature_dim = dim;
  market_config.num_owners = 400;
  pdm::NoisyLinearQueryStream stream(market_config, &rng);
  // Pre-generate rounds so the loop times only the engine.
  std::vector<pdm::MarketRound> rounds;
  for (int i = 0; i < 512; ++i) rounds.push_back(stream.Next(&rng));

  pdm::EllipsoidEngineConfig config;
  config.dim = dim;
  config.horizon = 100000;
  config.initial_radius = stream.RecommendedRadius();
  pdm::EllipsoidPricingEngine engine(config);

  size_t cursor = 0;
  for (auto _ : state) {
    const pdm::MarketRound& round = rounds[cursor];
    cursor = (cursor + 1) % rounds.size();
    pdm::PostedPrice posted = engine.PostPrice(round.features, round.reserve);
    engine.Observe(!posted.certain_no_sale && posted.price <= round.value);
    benchmark::DoNotOptimize(posted.price);
  }
  state.SetLabel("paper: 0.115 ms/round at n=100 (Python)");
}
BENCHMARK(BM_LinearQueryRound)->Arg(20)->Arg(55)->Arg(100)->Unit(benchmark::kMicrosecond);

/// One pricing round on the hashed logistic impression market.
void BM_ImpressionRound(benchmark::State& state) {
  int dim = static_cast<int>(state.range(0));
  bool dense = state.range(1) != 0;
  pdm::Rng rng(2);
  pdm::AvazuLikeConfig data_config;
  pdm::AvazuLikeClickLog log(data_config, &rng);
  pdm::AvazuMarketConfig market_config;
  market_config.hashed_dim = dim;
  market_config.train_samples = 20000;
  market_config.eval_samples = 1000;
  pdm::AvazuMarket market = pdm::BuildAvazuMarket(market_config, log, &rng);
  pdm::AvazuQueryStream stream(&log, &market, dim, dense);
  std::vector<pdm::MarketRound> rounds;
  for (int i = 0; i < 256; ++i) rounds.push_back(stream.Next(&rng));

  pdm::EllipsoidEngineConfig base_config;
  base_config.dim = stream.feature_dim();
  base_config.horizon = 100000;
  base_config.initial_radius = market.recommended_radius;
  base_config.use_reserve = false;
  pdm::GeneralizedPricingEngine engine(
      std::make_unique<pdm::EllipsoidPricingEngine>(base_config),
      std::make_shared<pdm::LogisticLink>(market.bias), std::make_shared<pdm::IdentityFeatureMap>());

  size_t cursor = 0;
  for (auto _ : state) {
    const pdm::MarketRound& round = rounds[cursor];
    cursor = (cursor + 1) % rounds.size();
    pdm::PostedPrice posted = engine.PostPrice(round.features, round.reserve);
    engine.Observe(!posted.certain_no_sale && posted.price <= round.value);
    benchmark::DoNotOptimize(posted.price);
  }
  state.SetLabel(dense ? "dense encoding" : "sparse encoding; paper: 3.509 ms (Python)");
}
BENCHMARK(BM_ImpressionRound)
    ->Args({128, 0})
    ->Args({128, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Unit(benchmark::kMicrosecond);

/// One-dimensional interval engine round (Theorem 3 regime).
void BM_OneDimensionalRound(benchmark::State& state) {
  pdm::IntervalEngineConfig config;
  config.theta_min = 0.0;
  config.theta_max = 2.0;
  config.horizon = 100000;
  pdm::IntervalPricingEngine engine(config);
  pdm::Vector x{1.0};
  for (auto _ : state) {
    pdm::PostedPrice posted = engine.PostPrice(x, 1.0);
    engine.Observe(posted.price <= std::sqrt(2.0));
    benchmark::DoNotOptimize(posted.price);
  }
}
BENCHMARK(BM_OneDimensionalRound)->Unit(benchmark::kNanosecond);

/// Raw ellipsoid cut (the O(n²) kernels inside Observe): each CutKeep* runs
/// one packed mat-vec for the support direction and one packed rank-1
/// update over the n(n+1)/2 stored shape entries (DESIGN.md §11/§12).
void BM_EllipsoidCut(benchmark::State& state) {
  int dim = static_cast<int>(state.range(0));
  pdm::Rng rng(3);
  pdm::Ellipsoid ellipsoid = pdm::Ellipsoid::Ball(dim, 2.0);
  pdm::Vector x = rng.GaussianVector(dim);
  pdm::RescaleToNorm(&x, 1.0);
  for (auto _ : state) {
    // Alternate keep-below/keep-above central cuts so the ellipsoid neither
    // collapses nor diverges over the benchmark's many iterations.
    ellipsoid.CutKeepBelow(x, 0.0);
    ellipsoid.CutKeepAbove(x, 0.0);
    benchmark::DoNotOptimize(ellipsoid.shape().data());
  }
}
BENCHMARK(BM_EllipsoidCut)->Arg(20)->Arg(100)->Arg(1024)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
