#include "scenario/mechanism_registry.h"

#include <utility>

#include "common/check.h"
#include "pricing/baselines.h"
#include "pricing/ellipsoid_engine.h"
#include "pricing/feature_maps.h"
#include "pricing/generalized_engine.h"
#include "pricing/interval_engine.h"
#include "pricing/link_functions.h"

namespace pdm::scenario {

MechanismRegistry::MechanismRegistry() {
  // The four published variants, in the paper's order (the labels the
  // evaluation section uses throughout).
  Register("pure", {/*use_reserve=*/false, /*uncertainty=*/false});
  Register("uncertainty", {/*use_reserve=*/false, /*uncertainty=*/true});
  Register("reserve", {/*use_reserve=*/true, /*uncertainty=*/false});
  Register("reserve+uncertainty", {/*use_reserve=*/true, /*uncertainty=*/true});
  // Lemma 8's forbidden configuration, kept to demonstrate the Ω(T) failure.
  MechanismTraits unsafe;
  unsafe.use_reserve = true;
  unsafe.allow_conservative_cuts = true;
  Register("reserve-unsafe", unsafe);
  // Section V-A's risk-averse baseline.
  MechanismTraits baseline;
  baseline.use_reserve = true;
  baseline.risk_averse_baseline = true;
  Register("risk-averse", baseline);
}

void MechanismRegistry::Register(const std::string& name, const MechanismTraits& traits) {
  PDM_CHECK(!name.empty());
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.traits = traits;
      return;
    }
  }
  entries_.push_back({name, traits});
}

const MechanismTraits* MechanismRegistry::Find(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return &entry.traits;
  }
  return nullptr;
}

bool MechanismRegistry::Contains(std::string_view name) const {
  return Find(name) != nullptr;
}

std::vector<std::string> MechanismRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const Entry& entry : entries_) names.push_back(entry.name);
  return names;
}

std::unique_ptr<PricingEngine> MechanismRegistry::Build(const ScenarioSpec& spec,
                                                        const WorkloadInfo& info) const {
  const MechanismTraits* traits = Find(spec.mechanism);
  PDM_CHECK(traits != nullptr);
  PDM_CHECK(info.engine_dim >= 1);

  if (traits->risk_averse_baseline) {
    // Posts the (value-space) reserve every round; link-independent, so it
    // never needs the generalized wrapper.
    return std::make_unique<ReservePriceBaseline>(info.engine_dim);
  }

  double delta = traits->uncertainty ? spec.delta : 0.0;
  std::unique_ptr<PricingEngine> base;
  if (info.engine_dim == 1) {
    // The evaluation's 1-d knowledge interval K₁ = [0, 2].
    IntervalEngineConfig config;
    config.theta_min = 0.0;
    config.theta_max = 2.0;
    config.horizon = spec.rounds;
    config.epsilon = spec.epsilon;
    config.delta = delta;
    config.use_reserve = traits->use_reserve;
    base = std::make_unique<IntervalPricingEngine>(config);
  } else {
    EllipsoidEngineConfig config;
    config.dim = info.engine_dim;
    config.horizon = spec.rounds;
    config.initial_radius = info.initial_radius;
    config.initial_center = info.initial_center;
    config.epsilon = spec.epsilon;
    config.delta = delta;
    config.use_reserve = traits->use_reserve;
    config.allow_conservative_cuts = traits->allow_conservative_cuts;
    base = std::make_unique<EllipsoidPricingEngine>(config);
  }

  bool needs_map = info.kernel_map != nullptr;
  if (spec.link == LinkKind::kIdentity && !needs_map) return base;

  std::shared_ptr<const LinkFunction> link;
  switch (spec.link) {
    case LinkKind::kIdentity:
      link = std::make_shared<IdentityLink>();
      break;
    case LinkKind::kExp:
      link = std::make_shared<ExpLink>();
      break;
    case LinkKind::kLogistic:
      link = std::make_shared<LogisticLink>(info.logistic_shift);
      break;
  }
  std::shared_ptr<const FeatureMap> map;
  if (needs_map) {
    map = std::make_shared<KernelFeatureMap>(info.kernel_map);
  } else {
    map = std::make_shared<IdentityFeatureMap>();
  }
  return std::make_unique<GeneralizedPricingEngine>(std::move(base), std::move(link),
                                                    std::move(map));
}

const MechanismRegistry& MechanismRegistry::Builtin() {
  static const MechanismRegistry* registry = new MechanismRegistry();
  return *registry;
}

}  // namespace pdm::scenario
