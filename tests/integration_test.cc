#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "features/pca.h"
#include "features/scaler.h"
#include "market/airbnb_market.h"
#include "market/avazu_market.h"
#include "market/linear_market.h"
#include "market/simulator.h"
#include "pricing/baselines.h"
#include "pricing/ellipsoid_engine.h"
#include "pricing/generalized_engine.h"
#include "pricing/interval_engine.h"
#include "privacy/compensation.h"

namespace pdm {
namespace {

// ---------------------------------------------------------------- app 1

TEST(Integration, NoisyLinearQueryEndToEnd) {
  // Small-scale Fig. 4-style run: all four variants end with a low regret
  // ratio and the reserve variants never price below the reserve.
  int64_t rounds = 5000;
  int dim = 10;
  for (bool use_reserve : {false, true}) {
    Rng rng(1);
    NoisyLinearMarketConfig market_config;
    market_config.feature_dim = dim;
    market_config.num_owners = 300;
    NoisyLinearQueryStream stream(market_config, &rng);
    EllipsoidEngineConfig engine_config;
    engine_config.dim = dim;
    engine_config.horizon = rounds;
    engine_config.initial_radius = stream.RecommendedRadius();
    engine_config.use_reserve = use_reserve;
    EllipsoidPricingEngine engine(engine_config);
    SimulationOptions options;
    options.rounds = rounds;
    SimulationResult result = RunMarket(&stream, &engine, options, &rng);
    EXPECT_LT(result.tracker.regret_ratio(), 0.30) << "reserve=" << use_reserve;
    EXPECT_GT(result.tracker.sales(), rounds / 2);
  }
}

TEST(Integration, ReserveMitigatesColdStart) {
  // The cold-start claim (Section V-A at n = 20, t = 1e4: −13.16%): with the
  // reserve constraint the engine accumulates less cumulative regret than
  // the pure version on the identical workload. Paired over seeds; the
  // horizon must be long enough for the effect to dominate per-seed noise
  // (at a few hundred rounds the two are statistically tied).
  int64_t rounds = 3000;
  int dim = 20;
  double pure_total = 0.0, reserve_total = 0.0;
  int reserve_wins = 0;
  for (uint64_t seed = 0; seed < 4; ++seed) {
    double regret[2] = {0.0, 0.0};
    for (bool use_reserve : {false, true}) {
      Rng rng(42 + seed);
      NoisyLinearMarketConfig market_config;
      market_config.feature_dim = dim;
      market_config.num_owners = 300;
      NoisyLinearQueryStream stream(market_config, &rng);
      EllipsoidEngineConfig engine_config;
      engine_config.dim = dim;
      engine_config.horizon = rounds;
      engine_config.initial_radius = stream.RecommendedRadius();
      engine_config.use_reserve = use_reserve;
      EllipsoidPricingEngine engine(engine_config);
      SimulationOptions options;
      options.rounds = rounds;
      SimulationResult result = RunMarket(&stream, &engine, options, &rng);
      regret[use_reserve ? 1 : 0] = result.tracker.cumulative_regret();
    }
    pure_total += regret[0];
    reserve_total += regret[1];
    if (regret[1] < regret[0]) ++reserve_wins;
  }
  EXPECT_LT(reserve_total, pure_total);
  EXPECT_GE(reserve_wins, 3) << "reserve should win on nearly every paired seed";
}

TEST(Integration, OneDimensionalMatchesPaperNarrative) {
  // Fig. 4(a): with n = 1 the reserve is 1, the market value √2, and after
  // the first exploratory price the reserve never binds again.
  int64_t rounds = 100;
  Rng rng(2);
  NoisyLinearMarketConfig market_config;
  market_config.feature_dim = 1;
  market_config.num_owners = 50;
  NoisyLinearQueryStream stream(market_config, &rng);
  IntervalEngineConfig config;
  config.theta_min = 0.0;
  config.theta_max = 2.0;  // knowledge interval [0, 2] as in Section V-A
  config.horizon = rounds;
  config.use_reserve = true;
  IntervalPricingEngine engine(config);
  SimulationOptions options;
  options.rounds = rounds;
  SimulationResult result = RunMarket(&stream, &engine, options, &rng);
  // Bisection quickly brackets √2; nearly every round sells. The steady
  // ratio floor is ε = log₂(T)/T ≈ 0.066 under-pricing per round (≈4.7% of
  // v = √2) plus the early bisection losses.
  EXPECT_GT(result.tracker.sales(), 90);
  EXPECT_LT(result.tracker.regret_ratio(), 0.08);
  EXPECT_LE(engine.theta_upper() - engine.theta_lower(), 0.2);
  EXPECT_LE(engine.theta_lower(), std::sqrt(2.0) + 1e-9);
  EXPECT_GE(engine.theta_upper(), std::sqrt(2.0) - 1e-9);
}

// ---------------------------------------------------------------- app 2

TEST(Integration, AccommodationRentalEndToEnd) {
  // n = 55 needs ≈2n(n+1)·ln(width/ε) ≈ 25k rounds of bisection under the
  // honest ball prior (see pdm_run's fig5b view), so a short smoke run is
  // assessed on sanity plus a tight-prior run that reaches the converged
  // regime.
  AirbnbMarketConfig market_config;
  market_config.num_listings = 8000;
  market_config.log_reserve_ratio = 0.6;
  Rng rng(3);
  AirbnbMarket market = BuildAirbnbMarket(market_config, &rng);

  for (bool tight_prior : {false, true}) {
    EllipsoidEngineConfig base_config;
    base_config.dim = AirbnbFeatureSpace::kDim;
    base_config.horizon = market_config.num_listings;
    // The paper's full-scale threshold (n²/74111); the short-horizon default
    // n²/8000 ≈ 0.38 would allow ±46% conservative under-pricing.
    base_config.epsilon = 0.04;
    if (tight_prior) {
      // Paper-final regime: the broker's prior is the offline fit itself
      // with a small uncertainty ball. The radius must put the initial width
      // along x (2R‖x‖ ≈ 0.04) within ~e of ε, else bisection's ~50%
      // rejection losses dominate regardless of how small the accepted-round
      // losses are (see the fig5b view's note in bench/pdm_run.cc).
      base_config.initial_center = market.theta;
      base_config.initial_radius = 0.003;
    } else {
      base_config.initial_center = market.recommended_center;
      base_config.initial_radius = market.recommended_radius;
    }
    base_config.use_reserve = true;
    GeneralizedPricingEngine engine(std::make_unique<EllipsoidPricingEngine>(base_config),
                                    std::make_shared<ExpLink>(),
                                    std::make_shared<IdentityFeatureMap>());
    ReplayQueryStream stream(&market.rounds);
    SimulationOptions options;
    options.rounds = market_config.num_listings;
    options.series_stride = market_config.num_listings / 4;
    SimulationResult result = RunMarket(&stream, &engine, options, &rng);
    if (tight_prior) {
      // Operates at/near the ε-floor (paper-final regime) and beats the
      // risk-averse baseline.
      EXPECT_LT(result.tracker.regret_ratio(), 0.12);
      EXPECT_LT(result.tracker.regret_ratio(), result.tracker.baseline_regret_ratio());
    } else {
      // Honest prior: mid-exploration, ratio below the ~55% bisection level
      // and improving (tail below the first-quarter level).
      EXPECT_LT(result.tracker.regret_ratio(), 0.60);
      const auto& series = result.tracker.series();
      ASSERT_GE(series.size(), 4u);
      double tail = TailRegretRatio(series[series.size() - 2], series.back());
      EXPECT_LT(tail, series.front().regret_ratio + 1e-9);
    }
  }
}

// ---------------------------------------------------------------- app 3

TEST(Integration, ImpressionPricingEndToEnd) {
  AvazuLikeConfig data_config;
  Rng rng(4);
  AvazuLikeClickLog log(data_config, &rng);
  AvazuMarketConfig market_config;
  market_config.hashed_dim = 64;
  market_config.train_samples = 40000;
  market_config.eval_samples = 4000;
  AvazuMarket market = BuildAvazuMarket(market_config, log, &rng);
  ASSERT_GT(market.nonzero_weights, 2);

  for (bool dense : {false, true}) {
    int64_t rounds = dense ? 12000 : 6000;  // dense dims are tiny, so cheap
    AvazuQueryStream stream(&log, &market, market_config.hashed_dim, dense);
    EllipsoidEngineConfig base_config;
    base_config.dim = stream.feature_dim();
    base_config.horizon = rounds;
    base_config.initial_radius = market.recommended_radius;
    base_config.use_reserve = false;  // pure version, as in Fig. 5(c)
    GeneralizedPricingEngine engine(std::make_unique<EllipsoidPricingEngine>(base_config),
                                    std::make_shared<LogisticLink>(market.bias),
                                    std::make_shared<IdentityFeatureMap>());
    SimulationOptions options;
    options.rounds = rounds;
    options.series_stride = rounds / 4;
    SimulationResult result = RunMarket(&stream, &engine, options, &rng);
    // Dense converges within the horizon; sparse is still eliminating
    // zero-weight coordinates (the Fig. 5(c) sparse-vs-dense gap).
    EXPECT_LT(result.tracker.regret_ratio(), dense ? 0.45 : 0.80) << "dense=" << dense;
    EXPECT_GT(result.tracker.sales(), 0);
    if (dense) {
      const auto& series = result.tracker.series();
      ASSERT_GE(series.size(), 4u);
      double tail = TailRegretRatio(series[series.size() - 2], series.back());
      EXPECT_LT(tail, result.tracker.regret_ratio() + 1e-9);
      EXPECT_LT(tail, 0.15);
    }
  }
}

// ------------------------------------------------------- PCA features §II-B

TEST(Integration, PcaCompensationFeaturesPriceComparably) {
  // Section II-B offers PCA over the raw per-owner compensations as the
  // alternative to sorted-partition aggregation when the owner count is
  // prohibitively high. Build both pipelines over the same query stream and
  // verify PCA features support low-regret pricing too.
  const int kOwners = 60;
  const int kDim = 8;
  const int64_t kRounds = 4000;

  Rng rng(31);
  CompensationLedger ledger = CompensationLedger::Random(kOwners, 1.0, 1.0, &rng);
  QueryGeneratorConfig query_config;
  query_config.num_owners = kOwners;
  NoisyLinearQueryGenerator queries(query_config);

  // Fit PCA on a calibration batch of compensation profiles.
  Matrix calibration(200, kOwners);
  for (int r = 0; r < 200; ++r) {
    Vector comp = ledger.Compensations(queries.Next(&rng));
    for (int c = 0; c < kOwners; ++c) calibration(r, c) = comp[static_cast<size_t>(c)];
  }
  Pca pca;
  pca.Fit(calibration, kDim);
  EXPECT_GT(pca.explained_variance()[0], pca.explained_variance()[kDim - 1]);

  // Market value is linear in [bias, PCA features] — PCA projections are
  // centered (signed), so a bias coordinate carries the positive price level.
  const int kEngineDim = kDim + 1;
  Vector theta = rng.GaussianVector(kEngineDim);
  RescaleToNorm(&theta, 1.0);
  theta[0] = 3.0;  // price level on the bias coordinate

  EllipsoidEngineConfig engine_config;
  engine_config.dim = kEngineDim;
  engine_config.horizon = kRounds;
  engine_config.initial_radius = 2.0 * Norm2(theta);
  engine_config.use_reserve = true;
  EllipsoidPricingEngine engine(engine_config);

  RegretTracker tracker;
  for (int64_t t = 0; t < kRounds; ++t) {
    Vector comp = ledger.Compensations(queries.Next(&rng));
    Vector projected = pca.Transform(comp);
    L2NormalizeInPlace(&projected);
    MarketRound round;
    round.features = Zeros(kEngineDim);
    round.features[0] = 1.0;
    for (int c = 0; c < kDim; ++c) {
      round.features[static_cast<size_t>(c + 1)] = projected[static_cast<size_t>(c)];
    }
    round.value = Dot(round.features, theta);
    round.reserve = 0.6 * round.value;
    PostedPrice posted = engine.PostPrice(round.features, round.reserve);
    bool accepted = !posted.certain_no_sale && posted.price <= round.value;
    engine.Observe(accepted);
    tracker.Observe(round, posted, accepted);
  }
  EXPECT_LT(tracker.regret_ratio(), 0.30);
  EXPECT_LT(tracker.regret_ratio(), tracker.baseline_regret_ratio() + 0.25);
  EXPECT_TRUE(engine.knowledge_set().Contains(theta, 1e-6));
}

// ---------------------------------------------------------------- baseline

TEST(Integration, RiskAverseBaselineMatchesCompanionAccounting) {
  // Running the explicit ReservePriceBaseline engine must reproduce the
  // tracker's built-in companion-baseline numbers exactly.
  int64_t rounds = 2000;
  Rng rng(5);
  NoisyLinearMarketConfig market_config;
  market_config.feature_dim = 5;
  market_config.num_owners = 100;
  NoisyLinearQueryStream stream(market_config, &rng);
  ReservePriceBaseline baseline(5);
  SimulationOptions options;
  options.rounds = rounds;
  SimulationResult result = RunMarket(&stream, &baseline, options, &rng);
  EXPECT_NEAR(result.tracker.cumulative_regret(),
              result.tracker.baseline_cumulative_regret(), 1e-9);
}

}  // namespace
}  // namespace pdm
