#ifndef PDM_SCENARIO_EXPERIMENT_H_
#define PDM_SCENARIO_EXPERIMENT_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "market/runner.h"
#include "market/simulator.h"
#include "scenario/scenario_spec.h"
#include "scenario/stream_factory.h"

/// \file
/// The experiment driver: lowers declarative `ScenarioSpec`s onto
/// `SimulationJob`s, executes them on the thread-pooled `SimulationRunner`,
/// and serializes the batch as one machine-readable `pdm.run.v1` JSON
/// document. This is the engine behind `bench/pdm_run` and its exhibit
/// views; outcomes are bit-identical to hand-wiring the same (stream, engine,
/// seed) by hand (DESIGN.md §4).

namespace pdm::scenario {

struct RunOptions {
  /// Worker threads; 0 picks the hardware default, 1 forces serial execution
  /// (what timing-sensitive benches use so scenarios don't contend).
  int num_threads = 0;
  /// > 0 caps every spec's horizon (and, for streams whose dataset size
  /// tracks the horizon, the dataset) — the CI smoke-grid knob.
  int64_t max_rounds = 0;
};

/// One executed scenario: the spec it came from plus the simulation outcome.
struct ScenarioOutcome {
  ScenarioSpec spec;
  /// Name reported by the constructed engine ("ellipsoid[reserve]"-style).
  std::string engine_name;
  SimulationResult result;
  /// Process VmRSS after the batch completed (process-level, not
  /// per-scenario: concurrent scenarios share the address space).
  int64_t rss_bytes = 0;
};

class ExperimentDriver {
 public:
  explicit ExperimentDriver(const RunOptions& options = {});

  /// Runs every spec (after applying the `max_rounds` cap) and returns
  /// outcomes index-aligned with `specs`. Shared workloads are prepared
  /// serially once per distinct (workload, seed) key, then scenarios execute
  /// concurrently. Invalid specs abort with a diagnostic.
  std::vector<ScenarioOutcome> Run(const std::vector<ScenarioSpec>& specs);

  /// The factory holding the prepared workloads of every Run so far —
  /// `pdm_run`'s exhibit views read offline-phase artifacts (test MSE, FTRL
  /// log-loss, θ*) through it.
  const StreamFactory& factory() const { return factory_; }

  /// The spec actually executed for `spec` once the cap is applied.
  ScenarioSpec Capped(const ScenarioSpec& spec) const;

 private:
  RunOptions options_;
  StreamFactory factory_;
};

/// Metadata header of a pdm.run.v1 document.
struct RunMetadata {
  /// Emitting binary ("pdm_run" or "pdm_run --through_broker").
  std::string generator;
  /// The scenario selection that produced the batch (CLI globs).
  std::string selection;
  int64_t max_rounds = 0;
  int num_threads = 0;
  /// Also emit each outcome's regret series (round, cumulative regret,
  /// regret ratio) — only series the specs recorded are available.
  bool include_series = false;
};

/// Writes the batch as one `pdm.run.v1` JSON document. The per-result rows
/// are a superset of `pdm.bench_throughput.v1`'s (scenario/variant/dim/
/// rounds/wall_seconds/rounds_per_sec/ns_per_round/rss_bytes), adding the
/// spec coordinates (stream, mechanism, link, seeds, δ), the regret
/// accounting (cumulative regret/value, ratios, sales, Table-I stats), and
/// the engine counters. Schema documented in DESIGN.md §8.
void WriteRunJson(std::ostream& os, const RunMetadata& meta,
                  const std::vector<ScenarioOutcome>& outcomes);

/// Renders outcomes through the runner's fixed-width comparison table.
void PrintOutcomeTable(const std::vector<ScenarioOutcome>& outcomes, std::ostream& os);

/// Checkpoint rounds for figure-style series: `per_decade` log-spaced points
/// per decade from 10 up to `max_round`, always including `max_round`. Point
/// k is round(10^(1 + k/per_decade)), so decades land exactly on 10^j.
std::vector<int64_t> LogCheckpoints(int64_t max_round, int per_decade = 4);

/// The last point of `series` (sorted by round) at or before `round`;
/// nullptr when the series records nothing that early.
const RegretSeriesPoint* SeriesPointAt(const std::vector<RegretSeriesPoint>& series,
                                       int64_t round);

}  // namespace pdm::scenario

#endif  // PDM_SCENARIO_EXPERIMENT_H_
