// Accommodation rental (Section IV-B / V-B): a booking platform posts
// nightly prices for differentiated listings under a log-linear market value
// model, with each host's minimum price acting as the reserve.
//
// The platform first fits an offline hedonic regression on historical
// bookings (the learned coefficients play the role of θ*), then prices the
// incoming booking requests online with the ellipsoid engine lifted through
// the exp link.
//
// Build & run:  ./build/examples/accommodation_rental

#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>

#include "common/string_util.h"
#include "common/table_printer.h"
#include "market/airbnb_market.h"
#include "market/simulator.h"
#include "pricing/ellipsoid_engine.h"
#include "pricing/generalized_engine.h"

int main() {
  pdm::AirbnbMarketConfig market_config;
  market_config.num_listings = 20000;  // scaled-down stream for the example
  market_config.log_reserve_ratio = 0.6;

  pdm::Rng rng(21);
  pdm::AirbnbMarket market = pdm::BuildAirbnbMarket(market_config, &rng);
  std::printf("offline hedonic model: train MSE %.3f, test MSE %.3f (paper: 0.226)\n\n",
              market.train_mse, market.test_mse);

  pdm::TablePrinter table({"log-ratio", "regret ratio", "risk-averse baseline", "sold"});
  for (double ratio : {0.4, 0.6, 0.8}) {
    pdm::AirbnbMarketConfig config = market_config;
    config.log_reserve_ratio = ratio;
    pdm::Rng build_rng(21);  // same listings for every ratio
    pdm::AirbnbMarket m = pdm::BuildAirbnbMarket(config, &build_rng);

    pdm::EllipsoidEngineConfig base_config;
    base_config.dim = pdm::AirbnbFeatureSpace::kDim;
    base_config.horizon = config.num_listings;
    // Production stance: the platform just fit the hedonic model itself, so
    // its prior is the fit plus a small uncertainty ball; the online engine
    // hedges residual error and drift. (`pdm_run --scenarios=fig5b` explores
    // the cold-start regime where the prior is only coarse market knowledge.)
    base_config.initial_center = m.theta;
    base_config.initial_radius = 0.01;
    base_config.epsilon = 0.04;
    base_config.use_reserve = true;
    pdm::GeneralizedPricingEngine engine(
        std::make_unique<pdm::EllipsoidPricingEngine>(base_config),
        std::make_shared<pdm::ExpLink>(), std::make_shared<pdm::IdentityFeatureMap>());

    pdm::ReplayQueryStream stream(&m.rounds);
    pdm::SimulationOptions options;
    options.rounds = config.num_listings;
    pdm::Rng sim_rng(5);
    pdm::SimulationResult result = pdm::RunMarket(&stream, &engine, options, &sim_rng);

    table.AddRow({pdm::FormatDouble(ratio, 1),
                  pdm::FormatDouble(100.0 * result.tracker.regret_ratio(), 2) + "%",
                  pdm::FormatDouble(100.0 * result.tracker.baseline_regret_ratio(), 2) + "%",
                  std::to_string(result.tracker.sales())});
  }
  table.Print(std::cout);
  std::printf(
      "\nWith the fitted prior the engine runs at the epsilon-floor and beats\n"
      "posting the host minimum outright at every reserve level; the closer\n"
      "the reserve is to the market value, the less there is to gain.\n");
  return 0;
}
