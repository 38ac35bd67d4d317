// Unified experiment driver and the repo's one exhibit surface: selects
// declarative scenarios from the paper-exhibit registry by name/glob,
// executes them on the thread-pooled SimulationRunner, renders the paper
// view of every exhibit in the selection, and emits one machine-readable
// pdm.run.v1 JSON document (DESIGN.md §7-§8). New grids are added by
// declaring specs (scenario/scenario_registry.h), not by writing a main().
//
//   pdm_run --list
//   pdm_run --scenarios='fig4/*'                 # one whole figure
//   pdm_run --scenarios='fig5a,table1'           # families compose
//   pdm_run --scenarios='throughput/*/n=2?'      # glob on any name part
//   pdm_run --scenarios='fig4,table1' --max_rounds=2000   # CI smoke grid
//   pdm_run --scenarios=fig5b --table=false --out=        # just the view
//
// Views render any subset of their grid at any --max_rounds cap (they group
// runs by spec fields, never by position) and print no wall-clock time.
// Under --through_broker no view is rendered: views read offline artifacts
// through the direct driver's StreamFactory.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "broker/driver.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "pricing/ellipsoid_engine.h"
#include "pricing/interval_engine.h"
#include "rng/subgaussian.h"
#include "scenario/experiment.h"
#include "scenario/scenario_registry.h"

namespace {

using pdm::RegretSeriesPoint;
using pdm::RegretTracker;
using pdm::scenario::ScenarioOutcome;
using pdm::scenario::ScenarioSpec;
using pdm::scenario::StreamFactory;
using Outcomes = std::vector<const ScenarioOutcome*>;

std::string Percent(double ratio) { return pdm::FormatDouble(100.0 * ratio, 2) + "%"; }

std::string Regret(double regret) { return pdm::FormatDouble(regret, 1); }

/// Component `index` of the '/'-separated scenario name ("fig4/b/pure", 1 ->
/// "b").
std::string NamePart(const ScenarioSpec& spec, size_t index) {
  return pdm::Split(spec.name, '/').at(index);
}

/// The name below the family: "fig5b/ratio=0.4" -> "ratio=0.4".
std::string Label(const ScenarioSpec& spec) {
  return spec.name.substr(spec.name.find('/') + 1);
}

/// (key, runs) groups of `outcomes`, groups and runs in selection order.
std::vector<std::pair<std::string, Outcomes>> GroupBy(
    const Outcomes& outcomes, const std::function<std::string(const ScenarioSpec&)>& key) {
  std::vector<std::pair<std::string, Outcomes>> groups;
  for (const ScenarioOutcome* outcome : outcomes) {
    std::string k = key(outcome->spec);
    auto it = std::find_if(groups.begin(), groups.end(),
                           [&k](const auto& group) { return group.first == k; });
    if (it == groups.end()) it = groups.insert(groups.end(), {k, {}});
    it->second.push_back(outcome);
  }
  return groups;
}

const ScenarioOutcome* FindMechanism(const Outcomes& outcomes, const std::string& mechanism) {
  for (const ScenarioOutcome* outcome : outcomes) {
    if (outcome->spec.mechanism == mechanism) return outcome;
  }
  return nullptr;
}

/// Regret ratio over the last 20% of the recorded series: the
/// post-convergence level, free of cold-start losses.
double TailRatio(const RegretTracker& tracker) {
  const std::vector<RegretSeriesPoint>& s = tracker.series();
  return s.size() >= 5 ? pdm::TailRegretRatio(s[s.size() - 1 - s.size() / 5], s.back())
                       : tracker.regret_ratio();
}

struct SeriesColumn {
  std::string header;
  const ScenarioOutcome* outcome;
  double RegretSeriesPoint::*field;
};

/// One row per LogCheckpoints(rounds) round, one column per series; a cell
/// is the series' last recorded point at or before the checkpoint, "-"
/// before its first one.
void PrintSeriesTable(const std::vector<SeriesColumn>& columns, int64_t rounds,
                      std::string (*format)(double)) {
  std::vector<std::string> headers = {"round"};
  for (const SeriesColumn& column : columns) headers.push_back(column.header);
  pdm::TablePrinter table(headers);
  for (int64_t checkpoint : pdm::scenario::LogCheckpoints(rounds)) {
    std::vector<std::string> row = {std::to_string(checkpoint)};
    for (const SeriesColumn& column : columns) {
      const RegretSeriesPoint* point = pdm::scenario::SeriesPointAt(
          column.outcome->result.tracker.series(), checkpoint);
      row.push_back(point != nullptr ? format(point->*column.field) : "-");
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
}

// Fig. 4(a)-(f): cumulative regret of the four mechanism variants in the
// pricing of noisy linear queries, for n ∈ {1, 20, 40, 60, 80, 100} with
// T ∈ {1e2, 1e4, 1e4, 1e5, 1e5, 1e5} and δ = 0.01 (Section V-A). One block
// per panel; within a block, one series column per variant at log-spaced
// checkpoints.
void RenderFig4(const Outcomes& outcomes, const StreamFactory&) {
  for (const auto& [name, panel] :
       GroupBy(outcomes, [](const ScenarioSpec& spec) { return NamePart(spec, 1); })) {
    const ScenarioSpec& first = panel.front()->spec;
    std::printf("=== Fig. 4(%s): n = %d, T = %ld, delta = %.3g ===\n", name.c_str(),
                first.n, static_cast<long>(first.rounds), first.delta);
    std::vector<SeriesColumn> columns;
    for (const ScenarioOutcome* outcome : panel) {
      columns.push_back(
          {outcome->spec.mechanism, outcome, &RegretSeriesPoint::cumulative_regret});
    }
    PrintSeriesTable(columns, first.rounds, Regret);
    std::printf("\n");
  }
  std::printf(
      "Shape checks (paper): regret grows with n; the reserve variants sit\n"
      "below their no-reserve counterparts; uncertainty adds regret, most\n"
      "visibly at large t; the n = 1 panel shows reserve making no difference\n"
      "after the first round.\n");
}

// Fig. 5(a): regret ratio (cumulative regret / cumulative market value) at
// n = 100 for the four variants plus the risk-averse baseline that posts the
// reserve each round. Paper end-of-run ratios (T = 1e5): pure 8.48%,
// uncertainty 11.19%, reserve 7.77%, reserve+uncertainty 9.87%, baseline
// 18.16%. Early rounds show the reserve variants far below the pure ones —
// the cold-start mitigation the paper highlights.
void RenderFig5a(const Outcomes& outcomes, const StreamFactory&) {
  const ScenarioSpec& first = outcomes.front()->spec;
  std::printf("=== Fig. 5(a): regret ratios, noisy linear query, n = %d, T = %ld ===\n\n",
              first.n, static_cast<long>(first.rounds));
  // The baseline column is read off the last selected variant's run.
  const ScenarioOutcome& last = *outcomes.back();
  std::vector<SeriesColumn> columns;
  for (const ScenarioOutcome* outcome : outcomes) {
    columns.push_back({outcome->spec.mechanism, outcome, &RegretSeriesPoint::regret_ratio});
  }
  columns.push_back({"risk-averse", &last, &RegretSeriesPoint::baseline_regret_ratio});
  PrintSeriesTable(columns, first.rounds, Percent);

  double baseline_final = last.result.tracker.baseline_regret_ratio();
  std::printf("\nfinal ratios (paper: pure 8.48%%, uncertainty 11.19%%, reserve 7.77%%, "
              "reserve+uncertainty 9.87%%, baseline 18.16%%):\n");
  for (const ScenarioOutcome* outcome : outcomes) {
    std::printf("  %-22s %6.2f%%\n", outcome->spec.mechanism.c_str(),
                100.0 * outcome->result.tracker.regret_ratio());
  }
  std::printf("  %-22s %6.2f%%\n", "risk-averse baseline", 100.0 * baseline_final);
  if (baseline_final <= 0.0) return;
  std::printf("\nreduction vs baseline (paper: reserve 57.19%%, reserve+uncertainty "
              "45.64%%):\n");
  for (const char* mechanism : {"reserve", "reserve+uncertainty"}) {
    if (const ScenarioOutcome* outcome = FindMechanism(outcomes, mechanism)) {
      std::printf("  %-22s %6.2f%%\n", mechanism,
                  100.0 * (1.0 - outcome->result.tracker.regret_ratio() / baseline_final));
    }
  }
}

// Fig. 5(b): regret ratios in the pricing of accommodation rentals under the
// log-linear market value model (n = 55, T = 74,111), for the pure version
// and the reserve versions with log-ratio log(q)/log(v) ∈ {0.4, 0.6, 0.8},
// each against the risk-averse baseline. Paper end-of-run ratios: pure
// 4.57%, ratio 0.4 4.01%, 0.6 3.83%, 0.8 3.79%; baselines 23.40%, 17.00%,
// 9.33%; reductions 82.88%, 77.46%, 59.39%.
//
// Reconciliation note (see DESIGN.md §3): with the honest ball prior
// R = √2·‖θ* − c₁‖, n = 55 needs ≈n(n+1)·ln(width/ε) ≈ 25k bisection rounds
// before the ε-floor, and each bisection round rejects ~half the time at the
// cost of the full market value, so the *cumulative* ratio at 74k rounds
// stays well above the paper's finals while the *tail* ratio (last 20% of
// rounds) matches them. The paper's finals sit exactly at the ε = n²/T
// floor, which implies an effectively tight prior around the offline fit;
// Fig5bScenarios' `oracle_prior_radius = 0.005` reproduces that regime.
void RenderFig5b(const Outcomes& outcomes, const StreamFactory& factory) {
  const ScenarioSpec& first = outcomes.front()->spec;
  std::printf("=== Fig. 5(b): accommodation rental, log-linear model, n = %d, T = %ld ===\n\n",
              first.n, static_cast<long>(first.rounds));
  std::vector<SeriesColumn> columns;
  for (const ScenarioOutcome* outcome : outcomes) {
    columns.push_back({Label(outcome->spec), outcome, &RegretSeriesPoint::regret_ratio});
  }
  PrintSeriesTable(columns, first.rounds, Percent);

  std::printf("\noffline OLS test MSE: %.3f (paper: 0.226)\n\n",
              factory.FindAirbnbMarket(first)->test_mse);
  std::printf("final ratios (paper: pure 4.57%%, 0.4 4.01%%, 0.6 3.83%%, 0.8 3.79%%):\n");
  for (const ScenarioOutcome* outcome : outcomes) {
    const RegretTracker& tracker = outcome->result.tracker;
    std::printf("  %-10s cumulative %6.2f%%  tail(last 20%%) %6.2f%%",
                Label(outcome->spec).c_str(), 100.0 * tracker.regret_ratio(),
                100.0 * TailRatio(tracker));
    if (outcome->spec.airbnb.log_reserve_ratio > 0.0) {
      std::printf("   risk-averse baseline %6.2f%%", 100.0 * tracker.baseline_regret_ratio());
    }
    std::printf("\n");
  }
  std::printf(
      "(paper baselines: 23.40%%, 17.00%%, 9.33%%. The tail ratio is the\n"
      "post-convergence level and is the number comparable to the paper's\n"
      "finals under an honest ball prior; see DESIGN.md §3.)\n");
}

// Fig. 5(c): regret ratios in the pricing of ad impressions under the
// logistic market value model (pure version), for hashed dimensions
// n ∈ {128, 1024} in the sparse encoding (all hashed coordinates) and the
// dense encoding (only non-zero-weight coordinates). Paper end-of-run ratios
// (T = 1e5): n=128 sparse 2.02%, dense 0.41%; n=1024 sparse 8.04%, dense
// 0.89%. The n=1024 sparse horizon is reduced (O(n²) per round). As in
// Fig. 5(b), the honest prior (R = 2‖θ*‖) needs more bisection rounds than
// the horizon at n ≥ 128, so the grid adds an oracle-prior sparse run
// (center = θ̂, R = 0.005); dense encodings converge honestly.
void RenderFig5c(const Outcomes& outcomes, const StreamFactory& factory) {
  std::printf("=== Fig. 5(c): impression pricing, logistic model, pure version ===\n\n");
  int last_dim = 0;
  for (const ScenarioOutcome* outcome : outcomes) {
    const ScenarioSpec& spec = outcome->spec;
    const pdm::AvazuMarket* market = factory.FindAvazuMarket(spec);
    if (spec.n != last_dim) {
      last_dim = spec.n;
      std::printf("n = %d: offline FTRL log-loss %.3f, non-zero weights %d "
                  "(paper: %.3f / %d)\n",
                  spec.n, market->logloss, market->nonzero_weights,
                  spec.n == 128 ? 0.420 : 0.406, spec.n == 128 ? 21 : 23);
    }
    std::string label =
        "n=" + std::to_string(spec.n) +
        (spec.avazu.dense
             ? " dense(d=" + std::to_string(market->support.size()) + ")"
             : (spec.avazu.oracle_prior_radius > 0.0 ? " sparse, oracle prior"
                                                     : " sparse, honest prior"));
    std::printf("\n--- %s (T = %ld) ---\n", label.c_str(), static_cast<long>(spec.rounds));
    PrintSeriesTable({{"regret ratio", outcome, &RegretSeriesPoint::regret_ratio}},
                     spec.rounds, Percent);
    std::printf("final regret ratio: %.2f%% (tail over last 20%%: %.2f%%)\n",
                100.0 * outcome->result.tracker.regret_ratio(),
                100.0 * TailRatio(outcome->result.tracker));
  }
  std::printf(
      "\nShape checks (paper): dense ratios far below sparse at equal rounds;\n"
      "sparse n=1024 falls more slowly than sparse n=128 (zero-weight\n"
      "elimination dominates early rounds). Paper finals: 2.02%%/0.41%%\n"
      "(n=128 sparse/dense), 8.04%%/0.89%% (n=1024).\n");
}

std::string MeanStd(const pdm::RunningStats& stats) {
  return pdm::FormatDouble(stats.mean(), 3) + " (" + pdm::FormatDouble(stats.stddev(), 3) +
         ")";
}

// Table I: per-round statistics of the version with reserve price — mean
// (standard deviation) of the market value, reserve price, posted price, and
// regret, for each (n, T). Paper means: n=20: value 3.874, reserve 3.388,
// posted 3.685, regret 0.166; n=100: value 8.824, reserve 7.221, posted
// 8.820, regret 0.686. Exact values depend on the (proprietary) dataset.
void RenderTable1(const Outcomes& outcomes, const StreamFactory&) {
  std::printf("=== Table I: per-round statistics, version with reserve price ===\n\n");
  pdm::TablePrinter table(
      {"n", "T", "market value", "reserve price", "posted price", "regret"});
  for (const ScenarioOutcome* outcome : outcomes) {
    const RegretTracker& tracker = outcome->result.tracker;
    table.AddRow({std::to_string(outcome->spec.n), std::to_string(outcome->spec.rounds),
                  MeanStd(tracker.value_stats()), MeanStd(tracker.reserve_stats()),
                  MeanStd(tracker.price_stats()), MeanStd(tracker.regret_stats())});
  }
  table.Print(std::cout);
  std::printf(
      "\nShape checks (paper's Table I): mean value ≥ mean posted > mean\n"
      "reserve; per-round regret is a small fraction of the market value and\n"
      "grows with n.\n");
}

// Theorem 3: the one-dimensional pure mechanism has O(log T) worst-case
// regret with ε = log₂(T)/T; regret/log₂(T) should stay bounded over the
// sweep of T.
void RenderTheorem3(const Outcomes& outcomes, const StreamFactory&) {
  std::printf("=== Theorem 3: one-dimensional pure version, regret ~ O(log T) ===\n\n");
  pdm::TablePrinter table(
      {"T", "epsilon", "cumulative regret", "regret / log2(T)", "exploratory rounds"});
  for (const ScenarioOutcome* outcome : outcomes) {
    int64_t rounds = outcome->spec.rounds;
    double regret = outcome->result.tracker.cumulative_regret();
    table.AddRow({std::to_string(rounds),
                  pdm::FormatDouble(pdm::DefaultIntervalEpsilon(rounds, 0.0), 6),
                  pdm::FormatDouble(regret, 3),
                  pdm::FormatDouble(regret / std::log2(static_cast<double>(rounds)), 4),
                  std::to_string(outcome->result.engine_counters.exploratory_rounds)});
  }
  table.Print(std::cout);
  std::printf(
      "\nShape check: cumulative regret grows ~logarithmically in T —\n"
      "regret/log2(T) stays bounded while T spans four decades, and the\n"
      "number of exploratory (bisection) rounds grows only logarithmically.\n");
}

// Cold-start study (Sections I and V-A): the reserve price mitigates the
// cold-start problem of a posted-price mechanism. Paper numbers at n = 20,
// t = 1e4: the reserve variant cuts 13.16% of the pure variant's cumulative
// regret (10.92% under uncertainty), and the early-round regret-ratio gap is
// much larger than the final gap. Each variant is averaged over the seeds
// selected for it; the early ratio is the first series point (t = T/100).
void RenderColdstart(const Outcomes& outcomes, const StreamFactory&) {
  const ScenarioSpec& first = outcomes.front()->spec;
  std::set<uint64_t> seeds;
  for (const ScenarioOutcome* outcome : outcomes) seeds.insert(outcome->spec.workload_seed);
  std::printf("=== Cold start: reserve on/off at n = %d, T = %ld (%zu seeds) ===\n\n",
              first.n, static_cast<long>(first.rounds), seeds.size());

  struct VariantMean {
    double regret = 0.0;
    double early_ratio = 0.0;
    bool has_early = false;
  };
  auto mean_of = [](const Outcomes& runs) {
    VariantMean mean;
    int early_runs = 0;
    for (const ScenarioOutcome* run : runs) {
      mean.regret += run->result.tracker.cumulative_regret();
      if (!run->result.tracker.series().empty()) {
        mean.early_ratio += run->result.tracker.series().front().regret_ratio;
        ++early_runs;
      }
    }
    mean.regret /= static_cast<double>(runs.size());
    mean.has_early = early_runs > 0;
    if (mean.has_early) mean.early_ratio /= early_runs;
    return mean;
  };
  std::vector<std::pair<std::string, Outcomes>> variants =
      GroupBy(outcomes, [](const ScenarioSpec& spec) { return spec.mechanism; });
  auto find = [&](const char* mechanism) -> std::optional<VariantMean> {
    for (const auto& [name, runs] : variants) {
      if (name == mechanism) return mean_of(runs);
    }
    return std::nullopt;
  };

  pdm::TablePrinter table({"variant", "cumulative regret", "early regret ratio"});
  for (const auto& [name, runs] : variants) {
    VariantMean mean = mean_of(runs);
    table.AddRow({name, Regret(mean.regret),
                  mean.has_early ? Percent(mean.early_ratio) : "-"});
  }
  table.Print(std::cout);

  std::printf("\n");
  std::optional<VariantMean> pure = find("pure");
  std::optional<VariantMean> reserve = find("reserve");
  std::optional<VariantMean> uncertainty = find("uncertainty");
  std::optional<VariantMean> reserve_uncertainty = find("reserve+uncertainty");
  if (pure && reserve) {
    std::printf("reserve reduces cumulative regret by %.2f%% (paper: 13.16%%)\n",
                100.0 * (1.0 - reserve->regret / pure->regret));
  }
  if (uncertainty && reserve_uncertainty) {
    std::printf("under uncertainty by %.2f%% (paper: 10.92%%)\n",
                100.0 * (1.0 - reserve_uncertainty->regret / uncertainty->regret));
  }
  if (pure && reserve && pure->has_early && reserve->has_early) {
    std::printf("early-round ratio gap (pure vs reserve): %.2f%% -> %.2f%%\n",
                100.0 * pure->early_ratio, 100.0 * reserve->early_ratio);
  }
}

// Ablation of the uncertainty buffer δ (Algorithm 2): the market noise is
// fixed at the level a buffer target δ* calls for, σ = δ*/(√(2 log 2)·log T),
// and the engine's configured δ sweeps {0, δ*/2, δ*, 2δ*, 4δ*}. Buffers
// δ ≥ δ* keep θ* inside the knowledge set (Eq. 6; asserted by
// tests/scenario_test.cc); larger ones pay extra regret through shallower
// cuts and lower conservative prices.
void RenderAblationDelta(const Outcomes& outcomes, const StreamFactory&) {
  const ScenarioSpec& first = outcomes.front()->spec;
  // δ* is Eq. 5's buffer for the market's σ over the run's (capped) horizon.
  pdm::SubGaussianSpec noise;
  noise.sigma = first.linear.noise_sigma;
  std::printf("=== Ablation: buffer delta under fixed market noise "
              "(delta* = %.3g, sigma = %.5f) ===\n\n",
              pdm::BufferDelta(noise, first.rounds), noise.sigma);
  pdm::TablePrinter table({"engine delta", "regret ratio", "cuts applied", "cuts discarded"});
  for (const ScenarioOutcome* outcome : outcomes) {
    table.AddRow({pdm::FormatDouble(outcome->spec.delta, 4),
                  Percent(outcome->result.tracker.regret_ratio()),
                  std::to_string(outcome->result.engine_counters.cuts_applied),
                  std::to_string(outcome->result.engine_counters.cuts_discarded)});
  }
  table.Print(std::cout);
  std::printf(
      "\nShape check: delta >= delta* keeps theta* inside the knowledge set\n"
      "(Eq. 6's union bound); larger buffers trade that safety for extra\n"
      "regret. delta = 0 under noise may cut theta* out entirely.\n");
}

// Ablation of the exploration threshold ε (Theorem 1 sets ε = n²/T): too
// small and conservative prices under-shoot; too large and exploration stops
// while the knowledge set is still coarse. The sweep multiplies the default
// by {0.1, 0.3, 1, 3, 10, 30}.
void RenderAblationEpsilon(const Outcomes& outcomes, const StreamFactory& factory) {
  const ScenarioSpec& first = outcomes.front()->spec;
  double default_epsilon = pdm::DefaultEllipsoidEpsilon(first.n, first.rounds, 0.0);
  std::printf("=== Ablation: threshold epsilon (default n^2/T = %.4f) at n = %d, "
              "T = %ld ===\n\n",
              default_epsilon, first.n, static_cast<long>(first.rounds));
  pdm::TablePrinter table({"epsilon multiplier", "epsilon", "regret ratio",
                           "exploratory rounds", "lemma 6 cap"});
  for (const ScenarioOutcome* outcome : outcomes) {
    double n = static_cast<double>(outcome->spec.n);
    double epsilon = outcome->spec.epsilon;
    double radius = factory.FindLinearWorkload(outcome->spec)->recommended_radius;
    double cap = 20.0 * n * n * std::log(20.0 * radius * (n + 1.0) / epsilon);
    table.AddRow({pdm::FormatDouble(epsilon / default_epsilon, 1),
                  pdm::FormatDouble(epsilon, 5),
                  Percent(outcome->result.tracker.regret_ratio()),
                  std::to_string(outcome->result.engine_counters.exploratory_rounds),
                  pdm::FormatDouble(cap, 0)});
  }
  table.Print(std::cout);
  std::printf(
      "\nShape check: exploratory rounds always respect the Lemma 6 cap and\n"
      "shrink as epsilon grows; the regret ratio is U-shaped around the\n"
      "Theorem 1 choice.\n");
}

// Kernelized market value model (the fourth non-linear model of
// Section IV-A): v = Σ_j θ*_j·K(x, l_j) with a public RBF kernel and
// landmarks. The paper lists the model but does not evaluate it; the view
// doubles as a misspecification study (the kernelized engine prices over
// φ(x), the linear one over raw x) plus a landmark-budget sweep.
void RenderKernel(const Outcomes& outcomes, const StreamFactory&) {
  std::printf("=== Kernelized model (Section IV-A): correct vs misspecified ===\n\n");
  auto add = [](pdm::TablePrinter* table, std::string label, const ScenarioOutcome& run) {
    table->AddRow({std::move(label), Percent(run.result.tracker.regret_ratio()),
                   std::to_string(run.result.tracker.sales()),
                   std::to_string(run.result.engine_counters.exploratory_rounds)});
  };
  // Each misspecified run is paired with the kernelized run over the same
  // landmark count.
  pdm::TablePrinter table({"engine", "regret ratio", "sold", "exploratory"});
  for (const ScenarioOutcome* misspecified : outcomes) {
    if (!misspecified->spec.kernel.misspecified_linear) continue;
    for (const ScenarioOutcome* kernelized : outcomes) {
      if (!kernelized->spec.kernel.misspecified_linear &&
          kernelized->spec.n == misspecified->spec.n) {
        add(&table, "kernelized (m=" + std::to_string(kernelized->spec.n) + ")",
            *kernelized);
      }
    }
    add(&table, "linear on raw x (misspecified)", *misspecified);
  }
  table.Print(std::cout);

  std::printf("\n--- landmark budget sweep (fixed-budget substitution knob) ---\n");
  pdm::TablePrinter sweep({"landmarks m", "regret ratio", "exploratory"});
  for (const ScenarioOutcome* outcome : outcomes) {
    if (outcome->spec.kernel.misspecified_linear) continue;
    sweep.AddRow({std::to_string(outcome->spec.n),
                  Percent(outcome->result.tracker.regret_ratio()),
                  std::to_string(outcome->result.engine_counters.exploratory_rounds)});
  }
  sweep.Print(std::cout);
  std::printf(
      "\nShape checks: the kernelized engine beats the misspecified linear\n"
      "one decisively; more landmarks cost more exploration (Theorem 2's m in\n"
      "place of n) for the same converged floor.\n");
}

// Lemma 8 / Fig. 6 (Appendix): if the broker refines the knowledge set on
// conservative-price feedback, an adversary forces Ω(T) regret; the safe
// engine (which never cuts on conservative prices) stays polylogarithmic on
// the same sequence. The adversary pins the reserve to the engine's
// mid-price along e₁ for the first half, then switches to e₂ with no reserve.
void RenderLemma8(const Outcomes& outcomes, const StreamFactory&) {
  std::printf("=== Lemma 8: conservative cuts admit an O(T)-regret adversary ===\n\n");
  pdm::TablePrinter table({"T", "safe regret", "unsafe regret", "unsafe/T"});
  for (const auto& [name, runs] : GroupBy(outcomes, [](const ScenarioSpec& spec) {
         return std::to_string(spec.rounds);
       })) {
    int64_t horizon = runs.front()->spec.rounds;
    const ScenarioOutcome* safe = FindMechanism(runs, "reserve");
    const ScenarioOutcome* unsafe = FindMechanism(runs, "reserve-unsafe");
    auto regret = [](const ScenarioOutcome* run, double scale, int precision) {
      return run != nullptr
                 ? pdm::FormatDouble(run->result.tracker.cumulative_regret() / scale,
                                     precision)
                 : std::string("-");
    };
    table.AddRow({std::to_string(horizon), regret(safe, 1.0, 2), regret(unsafe, 1.0, 2),
                  regret(unsafe, static_cast<double>(horizon), 4)});
  }
  table.Print(std::cout);
  std::printf(
      "\nShape checks (Lemma 8): the unsafe engine's regret grows linearly in\n"
      "T (unsafe/T roughly constant over 50..200) while the safe engine's\n"
      "stays flat; this is exactly why Algorithm 1 Line 24 forbids\n"
      "conservative-price cuts. Beyond T ≈ 200 the idealized real-arithmetic\n"
      "blow-up saturates in double precision (the e1 shape entry underflows\n"
      "after ~95 unsafe cuts), so the unsafe regret plateaus instead of\n"
      "growing without bound — the separation from the safe engine remains.\n");
}

/// Scenario-name prefix -> exhibit view, in rendering order. Keyed on the
/// prefix, not the family: the `ablation` family holds two grids.
struct View {
  const char* prefix;
  void (*render)(const Outcomes&, const StreamFactory&);
};
constexpr View kViews[] = {
    {"fig4/", RenderFig4},
    {"fig5a/", RenderFig5a},
    {"fig5b/", RenderFig5b},
    {"fig5c/", RenderFig5c},
    {"table1/", RenderTable1},
    {"theorem3/", RenderTheorem3},
    {"coldstart/", RenderColdstart},
    {"ablation/delta/", RenderAblationDelta},
    {"ablation/epsilon/", RenderAblationEpsilon},
    {"kernel/", RenderKernel},
    {"lemma8/", RenderLemma8},
};

void RenderViews(const std::vector<ScenarioOutcome>& outcomes, const StreamFactory& factory) {
  for (const View& view : kViews) {
    Outcomes selected;
    for (const ScenarioOutcome& outcome : outcomes) {
      if (pdm::StartsWith(outcome.spec.name, view.prefix)) selected.push_back(&outcome);
    }
    if (selected.empty()) continue;
    std::printf("\n");
    view.render(selected, factory);
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenarios = "fig4,fig5a,table1,throughput";
  std::string out_path = "RUN_pdm.json";
  int64_t max_rounds = 0;
  int64_t threads = 0;
  bool list = false;
  bool series = false;
  bool table = true;
  bool through_broker = false;
  pdm::FlagSet flags("pdm_run");
  flags.AddString("scenarios", &scenarios,
                  "comma-separated glob patterns over scenario names/families");
  flags.AddString("out", &out_path, "pdm.run.v1 JSON output path ('' disables)");
  flags.AddInt64("max_rounds", &max_rounds,
                 "cap every scenario's horizon (0 = the registered scale)");
  flags.AddInt64("threads", &threads,
                 "worker threads (0 = hardware default, 1 = serial)");
  flags.AddBool("list", &list, "list the registered scenarios and exit");
  flags.AddBool("series", &series, "include regret series in the JSON");
  flags.AddBool("table", &table, "print the comparison table");
  flags.AddBool("through_broker", &through_broker,
                "execute through the Broker serving surface (handle fast "
                "path; bit-identical to the direct path)");
  // --help exits cleanly: asking for the flag list is not an error.
  if (!flags.Parse(argc, argv)) return flags.help_requested() ? 0 : 1;

  const pdm::scenario::ScenarioRegistry& registry =
      pdm::scenario::ScenarioRegistry::PaperExhibits();
  if (list) {
    std::vector<ScenarioSpec> sorted = registry.specs();
    std::sort(sorted.begin(), sorted.end(),
              [](const ScenarioSpec& a, const ScenarioSpec& b) { return a.name < b.name; });
    pdm::TablePrinter table({"scenario", "stream", "mechanism", "n", "T"});
    for (const auto& spec : sorted) {
      table.AddRow({spec.name, pdm::scenario::StreamKindName(spec.stream),
                    spec.mechanism, std::to_string(spec.n),
                    std::to_string(spec.rounds)});
    }
    table.Print(std::cout);
    std::printf("\n%zu scenarios registered\n", registry.size());
    return 0;
  }

  std::vector<ScenarioSpec> selected = registry.Match(scenarios);
  if (selected.empty()) {
    std::fprintf(stderr,
                 "pdm_run: no scenario matches '%s'\n"
                 "run with --list to see the registered names\n",
                 scenarios.c_str());
    return 1;
  }
  std::printf("=== pdm_run: %zu scenarios matching '%s'%s ===\n\n", selected.size(),
              scenarios.c_str(), max_rounds > 0 ? " (capped)" : "");

  pdm::scenario::RunOptions options;
  options.num_threads = static_cast<int>(threads);
  options.max_rounds = max_rounds;
  pdm::scenario::ExperimentDriver driver(options);
  std::vector<ScenarioOutcome> outcomes =
      through_broker ? pdm::broker::RunScenariosThroughBroker(selected, options)
                     : driver.Run(selected);

  if (table) pdm::scenario::PrintOutcomeTable(outcomes, std::cout);
  if (!through_broker) RenderViews(outcomes, driver.factory());

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    pdm::scenario::RunMetadata meta;
    meta.generator = through_broker ? "pdm_run --through_broker" : "pdm_run";
    meta.selection = scenarios;
    meta.max_rounds = max_rounds;
    meta.num_threads = options.num_threads;
    meta.include_series = series;
    pdm::scenario::WriteRunJson(out, meta, outcomes);
    std::printf("\nwrote %s (%zu results, schema pdm.run.v1)\n", out_path.c_str(),
                outcomes.size());
  }
  return 0;
}
