#include <gtest/gtest.h>

#include <cmath>

#include "pricing/ellipsoid_engine.h"
#include "pricing/engine_state.h"
#include "rng/rng.h"

namespace pdm {
namespace {

EllipsoidEngineConfig BaseConfig(int dim, int64_t horizon) {
  EllipsoidEngineConfig config;
  config.dim = dim;
  config.horizon = horizon;
  config.initial_radius = 2.0 * std::sqrt(static_cast<double>(dim));
  config.use_reserve = true;
  return config;
}

Vector UnitFeature(int dim, Rng* rng) {
  Vector x = rng->GaussianVector(dim);
  RescaleToNorm(&x, 1.0);
  return x;
}

TEST(EllipsoidEngine, DefaultEpsilonTheorem1) {
  EXPECT_DOUBLE_EQ(DefaultEllipsoidEpsilon(10, 1000, 0.0), 0.1);   // n²/T
  EXPECT_DOUBLE_EQ(DefaultEllipsoidEpsilon(10, 1000, 1.0), 40.0);  // 4nδ clamp
}

TEST(EllipsoidEngine, FirstExploratoryPriceIsMidpoint) {
  EllipsoidPricingEngine engine(BaseConfig(4, 1000));
  Rng rng(1);
  Vector x = UnitFeature(4, &rng);
  // Initial ellipsoid centered at origin: midpoint 0, so with a positive
  // reserve the posted price equals the reserve.
  PostedPrice posted = engine.PostPrice(x, 0.5);
  EXPECT_TRUE(posted.exploratory);
  EXPECT_DOUBLE_EQ(posted.price, 0.5);
  engine.Observe(true);
}

TEST(EllipsoidEngine, PureVersionIgnoresReserve) {
  EllipsoidEngineConfig config = BaseConfig(4, 1000);
  config.use_reserve = false;
  EllipsoidPricingEngine engine(config);
  Rng rng(2);
  Vector x = UnitFeature(4, &rng);
  PostedPrice posted = engine.PostPrice(x, 100.0);  // enormous reserve, ignored
  EXPECT_FALSE(posted.certain_no_sale);
  EXPECT_DOUBLE_EQ(posted.price, 0.0);  // midpoint of the origin-centered ball
  engine.Observe(false);
}

TEST(EllipsoidEngine, SkipsWhenReserveProvablyAboveValue) {
  EllipsoidPricingEngine engine(BaseConfig(3, 1000));
  Rng rng(3);
  Vector x = UnitFeature(3, &rng);
  double upper = engine.EstimateValueInterval(x).upper;
  PostedPrice posted = engine.PostPrice(x, upper + 1.0);
  EXPECT_TRUE(posted.certain_no_sale);
  EXPECT_DOUBLE_EQ(posted.price, upper + 1.0);
  engine.Observe(false);
  EXPECT_EQ(engine.counters().skipped_rounds, 1);
  EXPECT_EQ(engine.counters().cuts_applied, 0);
}

TEST(EllipsoidEngine, RejectionCutsKnowledgeSet) {
  EllipsoidPricingEngine engine(BaseConfig(3, 1000));
  Rng rng(4);
  Vector x = UnitFeature(3, &rng);
  ValueInterval before = engine.EstimateValueInterval(x);
  engine.PostPrice(x, 0.0);
  engine.Observe(false);
  ValueInterval after = engine.EstimateValueInterval(x);
  EXPECT_LT(after.width(), before.width());
  EXPECT_EQ(engine.counters().cuts_applied, 1);
}

TEST(EllipsoidEngine, AcceptanceCutsKnowledgeSet) {
  EllipsoidPricingEngine engine(BaseConfig(3, 1000));
  Rng rng(5);
  Vector x = UnitFeature(3, &rng);
  ValueInterval before = engine.EstimateValueInterval(x);
  engine.PostPrice(x, 0.0);
  engine.Observe(true);
  ValueInterval after = engine.EstimateValueInterval(x);
  EXPECT_LT(after.width(), before.width());
}

TEST(EllipsoidEngine, ConservativePriceNeverCuts) {
  EllipsoidEngineConfig config = BaseConfig(3, 1000);
  config.epsilon = 1e9;  // everything conservative
  EllipsoidPricingEngine engine(config);
  Rng rng(6);
  Vector x = UnitFeature(3, &rng);
  double log_volume_before = engine.knowledge_set().LogVolumeUnnormalized();
  PostedPrice posted = engine.PostPrice(x, 0.0);
  EXPECT_FALSE(posted.exploratory);
  engine.Observe(false);
  EXPECT_DOUBLE_EQ(engine.knowledge_set().LogVolumeUnnormalized(), log_volume_before);
  EXPECT_EQ(engine.counters().cuts_applied, 0);
  EXPECT_EQ(engine.counters().conservative_rounds, 1);
}

TEST(EllipsoidEngine, ConservativeCutAblationSwitchEnablesCuts) {
  EllipsoidEngineConfig config = BaseConfig(3, 1000);
  config.epsilon = 1e9;
  config.allow_conservative_cuts = true;
  EllipsoidPricingEngine engine(config);
  Rng rng(7);
  Vector x = UnitFeature(3, &rng);
  // Post a conservative price above the midpoint via the reserve so the cut
  // position is valid, then reject.
  engine.PostPrice(x, 0.5);
  engine.Observe(false);
  EXPECT_EQ(engine.counters().cuts_applied, 1);
}

TEST(EllipsoidEngine, ThetaNeverExcludedUnderConsistentFeedback) {
  // The central invariant behind the regret analysis: with noiseless
  // consistent feedback, θ* remains in every E_t.
  int dim = 5;
  EllipsoidEngineConfig config = BaseConfig(dim, 10000);
  EllipsoidPricingEngine engine(config);
  Rng rng(8);
  Vector theta = rng.GaussianVector(dim);
  RescaleToNorm(&theta, std::sqrt(2.0 * dim));  // within R = 2√n
  for (int t = 0; t < 300; ++t) {
    Vector x = UnitFeature(dim, &rng);
    double value = Dot(x, theta);
    double reserve = 0.7 * value;  // reserve below value
    PostedPrice posted = engine.PostPrice(x, reserve);
    bool accepted = !posted.certain_no_sale && posted.price <= value;
    engine.Observe(accepted);
    ASSERT_TRUE(engine.knowledge_set().Contains(theta, 1e-6)) << "round " << t;
  }
}

TEST(EllipsoidEngine, PriceAlwaysAtLeastReserve) {
  EllipsoidPricingEngine engine(BaseConfig(4, 1000));
  Rng rng(9);
  Vector theta = rng.GaussianVector(4);
  RescaleToNorm(&theta, 2.0);
  for (int t = 0; t < 200; ++t) {
    Vector x = UnitFeature(4, &rng);
    double reserve = rng.NextUniform(0.0, 3.0);
    PostedPrice posted = engine.PostPrice(x, reserve);
    EXPECT_GE(posted.price, reserve - 1e-12);
    engine.Observe(!posted.certain_no_sale && posted.price <= Dot(x, theta));
  }
}

TEST(EllipsoidEngine, ExploratoryRoundsRespectLemma6Bound) {
  // Lemma 6/7: Te ≤ 20·n²·log(20·R·S²·(n+1)/ε).
  int dim = 4;
  int64_t horizon = 20000;
  EllipsoidEngineConfig config = BaseConfig(dim, horizon);
  EllipsoidPricingEngine engine(config);
  Rng rng(10);
  Vector theta = rng.GaussianVector(dim);
  RescaleToNorm(&theta, std::sqrt(2.0 * dim));
  for (int64_t t = 0; t < horizon; ++t) {
    Vector x = UnitFeature(dim, &rng);
    double value = Dot(x, theta);
    PostedPrice posted = engine.PostPrice(x, 0.5 * value);
    engine.Observe(!posted.certain_no_sale && posted.price <= value);
  }
  double n = dim;
  double bound =
      20.0 * n * n *
      std::log(20.0 * config.initial_radius * 1.0 * (n + 1.0) / engine.epsilon());
  EXPECT_LE(static_cast<double>(engine.counters().exploratory_rounds), bound);
}

TEST(EllipsoidEngine, UncertaintyBufferLowersConservativePrice) {
  EllipsoidEngineConfig config = BaseConfig(3, 1000);
  config.epsilon = 1e9;  // force conservative
  config.delta = 0.25;
  EllipsoidPricingEngine engine(config);
  Rng rng(11);
  Vector x = UnitFeature(3, &rng);
  double lower = engine.EstimateValueInterval(x).lower;
  PostedPrice posted = engine.PostPrice(x, -1e9);
  EXPECT_DOUBLE_EQ(posted.price, lower - 0.25);
  engine.Observe(true);
}

TEST(EllipsoidEngine, UncertaintySkipThresholdIncludesDelta) {
  EllipsoidEngineConfig config = BaseConfig(3, 1000);
  config.delta = 0.5;
  EllipsoidPricingEngine engine(config);
  Rng rng(12);
  Vector x = UnitFeature(3, &rng);
  double upper = engine.EstimateValueInterval(x).upper;
  // q between p̄ and p̄+δ: not yet provably unsellable.
  PostedPrice posted = engine.PostPrice(x, upper + 0.25);
  EXPECT_FALSE(posted.certain_no_sale);
  engine.Observe(false);
  // q above p̄+δ: skip.
  PostedPrice posted2 = engine.PostPrice(x, upper + 1.0);
  EXPECT_TRUE(posted2.certain_no_sale);
  engine.Observe(false);
}

TEST(EllipsoidEngine, CountersPartitionRounds) {
  EllipsoidPricingEngine engine(BaseConfig(3, 100));
  Rng rng(13);
  for (int t = 0; t < 50; ++t) {
    Vector x = UnitFeature(3, &rng);
    PostedPrice posted = engine.PostPrice(x, rng.NextUniform(0.0, 1.0));
    engine.Observe(!posted.certain_no_sale && rng.NextBernoulli(0.5));
  }
  const EngineCounters& c = engine.counters();
  EXPECT_EQ(c.rounds, 50);
  EXPECT_EQ(c.rounds, c.exploratory_rounds + c.conservative_rounds + c.skipped_rounds);
  EXPECT_LE(c.cuts_applied + c.cuts_discarded, c.exploratory_rounds);
}

TEST(EllipsoidEngine, KnowledgeSetStaysHealthyOverLongRun) {
  int dim = 8;
  EllipsoidEngineConfig config = BaseConfig(dim, 100000);
  EllipsoidPricingEngine engine(config);
  Rng rng(14);
  Vector theta = rng.GaussianVector(dim);
  RescaleToNorm(&theta, std::sqrt(2.0 * dim));
  for (int t = 0; t < 2000; ++t) {
    Vector x = UnitFeature(dim, &rng);
    double value = Dot(x, theta);
    PostedPrice posted = engine.PostPrice(x, 0.6 * value);
    engine.Observe(!posted.certain_no_sale && posted.price <= value);
  }
  EXPECT_TRUE(engine.knowledge_set().LooksHealthy());
}

TEST(EllipsoidEngine, NamesMatchPaperVariants) {
  EllipsoidEngineConfig config = BaseConfig(2, 100);
  EXPECT_EQ(EllipsoidPricingEngine(config).name(), "reserve");
  config.delta = 0.1;
  EXPECT_EQ(EllipsoidPricingEngine(config).name(), "reserve+uncertainty");
  config.use_reserve = false;
  EXPECT_EQ(EllipsoidPricingEngine(config).name(), "pure+uncertainty");
  config.delta = 0.0;
  EXPECT_EQ(EllipsoidPricingEngine(config).name(), "pure");
}

TEST(EllipsoidEngine, SnapshotResumesBitIdentically) {
  // The packed shape serializes as its dense mirror and must re-encode
  // byte-exactly after a restore, with the restored engine posting
  // bit-identical prices forever after — the cold-tier eviction contract
  // (DESIGN.md §12).
  int dim = 8;
  EllipsoidEngineConfig config = BaseConfig(dim, 100000);
  config.delta = 0.01;
  EllipsoidPricingEngine engine(config);
  Rng rng(15);
  Vector theta = rng.GaussianVector(dim);
  RescaleToNorm(&theta, std::sqrt(2.0 * dim));
  for (int t = 0; t < 200; ++t) {
    Vector x = UnitFeature(dim, &rng);
    double value = Dot(x, theta);
    PostedPrice posted = engine.PostPrice(x, 0.6 * value);
    engine.Observe(!posted.certain_no_sale && posted.price <= value);
  }
  EngineSnapshot snap;
  ASSERT_TRUE(engine.SaveSnapshot(&snap));
  EllipsoidPricingEngine restored(config);
  ASSERT_TRUE(restored.LoadSnapshot(snap));
  EngineSnapshot again;
  ASSERT_TRUE(restored.SaveSnapshot(&again));
  ASSERT_EQ(again.center, snap.center);
  for (int r = 0; r < dim; ++r) {
    for (int c = 0; c < dim; ++c) {
      ASSERT_EQ(again.shape(r, c), snap.shape(r, c)) << r << "," << c;
    }
  }
  for (int t = 0; t < 200; ++t) {
    Vector x = UnitFeature(dim, &rng);
    double value = Dot(x, theta);
    PostedPrice a = engine.PostPrice(x, 0.6 * value);
    PostedPrice b = restored.PostPrice(x, 0.6 * value);
    ASSERT_EQ(a.price, b.price) << "t=" << t;
    ASSERT_EQ(a.certain_no_sale, b.certain_no_sale) << "t=" << t;
    bool accepted = !a.certain_no_sale && a.price <= value;
    engine.Observe(accepted);
    restored.Observe(accepted);
  }
}

TEST(EllipsoidEngine, LongRunKeepsThetaInsideAndShapeHealthy) {
  // 1000 rounds of consistent feedback: the packed shape stays finite and
  // positive on the diagonal, and θ* stays inside the knowledge set every
  // round.
  int dim = 6;
  EllipsoidEngineConfig config = BaseConfig(dim, 100000);
  EllipsoidPricingEngine engine(config);
  Rng rng(16);
  Vector theta = rng.GaussianVector(dim);
  RescaleToNorm(&theta, std::sqrt(2.0 * dim));
  for (int t = 0; t < 1000; ++t) {
    Vector x = UnitFeature(dim, &rng);
    double value = Dot(x, theta);
    PostedPrice posted = engine.PostPrice(x, 0.6 * value);
    engine.Observe(!posted.certain_no_sale && posted.price <= value);
    ASSERT_TRUE(engine.knowledge_set().LooksHealthy()) << "t=" << t;
    ASSERT_TRUE(engine.knowledge_set().Contains(theta, 1e-6)) << "t=" << t;
  }
  EXPECT_GT(engine.counters().exploratory_rounds, 0);
}

}  // namespace
}  // namespace pdm
