#ifndef PDM_SCENARIO_SCENARIO_REGISTRY_H_
#define PDM_SCENARIO_SCENARIO_REGISTRY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/scenario_spec.h"

/// \file
/// Name-keyed catalogue of declarative scenarios.
///
/// `ScenarioRegistry::PaperExhibits()` holds one spec per run of every paper
/// exhibit the repo reproduces by simulation — Fig. 4(a)–(f), Fig. 5(a)–(c),
/// Table I, Theorem 3, the Lemma 8 adversary, the kernelized model, the
/// cold-start study, and the δ/ε ablations, plus the throughput sweep — each
/// with the exact dimensions, horizons, and seeds of the original hand-wired
/// exhibits, so `pdm_run --scenarios=fig4/*` reproduces them bit for bit and
/// renders the paper's view of them. The per-exhibit builder functions are
/// public so tests can rebuild a grid at small scale; the registry is those
/// builders evaluated at the paper's defaults.
///
/// `Sweep` is the grid-expansion helper: it turns one base spec plus one
/// axis into a family of named specs (`Sweep(base, "n", {2, 5, 10, 20, 50})`),
/// which is how new parameter studies are meant to be added — declare, don't
/// hand-roll another main().

namespace pdm::scenario {

class ScenarioRegistry {
 public:
  /// Registers a spec; the name must be non-empty and unique.
  void Add(ScenarioSpec spec);
  void AddAll(std::vector<ScenarioSpec> specs);

  /// nullptr when no spec has that exact name.
  const ScenarioSpec* Find(std::string_view name) const;

  /// Registration order.
  const std::vector<ScenarioSpec>& specs() const { return specs_; }
  std::vector<std::string> Names() const;
  size_t size() const { return specs_.size(); }

  /// Selects specs by a comma-separated list of glob patterns (`*`/`?`,
  /// see common/string_util). A pattern matches a spec when it matches the
  /// full name or the family ("fig4" alone selects all fig4 runs).
  /// Registration order, each spec at most once.
  std::vector<ScenarioSpec> Match(std::string_view patterns) const;

  /// Every paper exhibit at the paper's scale and seeds.
  static const ScenarioRegistry& PaperExhibits();

 private:
  std::vector<ScenarioSpec> specs_;
};

/// Grid expansion: one spec per value with "/<field>=<value>" appended to
/// the name. Fields: "n", "rounds", "delta", "epsilon", "owners",
/// "workload_seed", "sim_seed". Unknown fields abort.
std::vector<ScenarioSpec> Sweep(const ScenarioSpec& base, const std::string& field,
                                const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Exhibit builders (defaults = the paper's scale). The registry is the union
// of these at their defaults; tests call them at small scale.
// ---------------------------------------------------------------------------

/// Fig. 4(a)–(f): four variants × six (n, T) panels; `full=false` divides
/// the horizons by 10 for smoke runs.
std::vector<ScenarioSpec> Fig4Scenarios(int64_t num_owners = 2000, double delta = 0.01,
                                        uint64_t seed = 1, bool full = true);

/// Fig. 5(a): regret ratios of the four variants at n = 100.
std::vector<ScenarioSpec> Fig5aScenarios(int dim = 100, int64_t rounds = 100000,
                                         int64_t num_owners = 2000, double delta = 0.01,
                                         uint64_t seed = 1);

/// Fig. 5(b): accommodation rental, pure + log-ratio ∈ {0.4, 0.6, 0.8}.
std::vector<ScenarioSpec> Fig5bScenarios(int64_t listings = 74111, uint64_t seed = 21,
                                         double oracle_prior_radius = 0.0);

/// Fig. 5(c): impressions, n ∈ {128, 1024} × {sparse honest, sparse oracle,
/// dense}.
std::vector<ScenarioSpec> Fig5cScenarios(int64_t rounds = 100000,
                                         int64_t rounds_sparse_1024 = 20000,
                                         int64_t train_samples = 200000,
                                         uint64_t seed = 31);

/// Table I: per-round statistics of the reserve variant over six (n, T).
std::vector<ScenarioSpec> Table1Scenarios(int64_t num_owners = 2000, bool full = true,
                                          uint64_t seed = 1);

/// Throughput sweep: n ∈ {2, 5, 10, 20, 50} × four variants over the
/// precomputed replay workload (the perf-trajectory bench).
std::vector<ScenarioSpec> ThroughputScenarios(int64_t rounds = 200000,
                                              int64_t workload_rounds = 2048,
                                              int64_t num_owners = 512,
                                              double delta = 0.01, uint64_t seed = 1);

/// Theorem 3: 1-d pure mechanism, T over four decades.
std::vector<ScenarioSpec> Theorem3Scenarios(int64_t max_rounds = 1000000,
                                            int64_t num_owners = 100);

/// Cold-start study: four variants × `seeds` workload draws at (n, T).
std::vector<ScenarioSpec> ColdstartScenarios(int dim = 20, int64_t rounds = 10000,
                                             int64_t num_owners = 2000,
                                             double delta = 0.01, int64_t seeds = 5);

/// δ-buffer ablation: engine δ ∈ {0, δ*/2, δ*, 2δ*, 4δ*} under fixed market
/// noise calibrated to δ*.
std::vector<ScenarioSpec> AblationDeltaScenarios(int dim = 20, int64_t rounds = 10000,
                                                 int64_t num_owners = 2000,
                                                 double delta_star = 0.01);

/// ε-threshold ablation: Theorem 1's default × {0.1, 0.3, 1, 3, 10, 30}.
std::vector<ScenarioSpec> AblationEpsilonScenarios(int dim = 20, int64_t rounds = 10000,
                                                   int64_t num_owners = 2000);

/// Kernelized model: landmark budget m ∈ {5, 10, 20, 40} plus the
/// misspecified linear-on-raw-x run.
std::vector<ScenarioSpec> KernelScenarios(int64_t rounds = 20000, uint64_t seed = 9);

/// Lemma 8 adversary: safe vs unsafe engine over doubling horizons.
std::vector<ScenarioSpec> Lemma8Scenarios(int64_t max_horizon = 3200);

}  // namespace pdm::scenario

#endif  // PDM_SCENARIO_SCENARIO_REGISTRY_H_
