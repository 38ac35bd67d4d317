// Thread-scaling sweep over the Broker serving path (DESIGN.md §9): the
// regression harness behind the contention-free routing redesign. Sweeps
// client thread counts (default 1,2,4,8,16) under two regimes:
//
//   own-product     one product per thread — the embarrassingly parallel
//                   regime; a contention-free broker should scale it
//                   near-linearly (parallel efficiency → 1.0 up to the
//                   core count)
//   shared-product  every thread hammers ONE product — the fully serialized
//                   regime; its aggregate is bounded by one session's rate
//                   and measures lock hand-off overhead
//
// Emits BENCH_broker_scaling.json (schema pdm.bench_broker.v2): one series
// row per (regime, threads, batch) cell — `--batch` is a sweep list, so the
// grid also measures how PostPrices batch size trades against thread-level
// contention (the batched matrix–panel quote path, DESIGN.md §11) — with the
// aggregate rate, the per-thread min/median (the aggregate can hide a starved
// client), and the parallel efficiency relative to the same (regime, batch)
// single-thread cell. The repository commits a baseline at the repo root; CI
// re-runs the sweep in smoke mode and `tools/compare_bench.py` applies the
// pdm.bench_broker.v2 rows of its rule table: it fails the build when any
// series' aggregate rate falls more than 25%, the series sets diverge, or
// (on >= 4 hardware threads) own-product/t=4/b=1 efficiency is below 0.5
// (README "Performance").
//
// `--metrics=live` wires a MetricRegistry into every cell's broker and
// `--faults=armed-but-idle` arms the fault injector with zero sites; each
// against its `none` default is the manual "< 3 %" hot-path overhead check
// of DESIGN.md §13 / §14.
//
//   bench_broker_scaling                       # full sweep
//   bench_broker_scaling --smoke               # CI mode (caps rounds at 50000)
//   bench_broker_scaling --threads_list=1,4 --regime=own-product --batch=1,32
//   bench_broker_scaling --regime=own-product --threads_list=1,8 --batch=64 \
//       --metrics=live                         # vs --metrics=none

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "broker_bench_util.h"
#include "common/fault.h"
#include "common/flags.h"
#include "common/json_writer.h"
#include "common/memory.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "metrics/metrics.h"

namespace {

struct Cell {
  std::string series;
  std::string regime;
  int64_t threads = 0;
  int64_t batch = 0;
  int64_t products = 0;
  int64_t total_rounds = 0;
  double wall_seconds = 0.0;
  double aggregate = 0.0;
  double per_thread_min = 0.0;
  double per_thread_median = 0.0;
  double efficiency = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  std::string threads_csv = "1,2,4,8,16";
  std::string regime_filter = "";
  int64_t rounds = 200000;
  std::string batch_csv = "1,8,64";
  pdm::broker_bench::ProductSetup setup;
  bool smoke = false;
  std::string out_path = "BENCH_broker_scaling.json";
  std::string metrics_mode = "none";
  std::string faults_mode = "none";
  pdm::FlagSet flags("bench_broker_scaling");
  flags.AddString("metrics", &metrics_mode,
                  "metric gateway on the hot path: none (sink cells) or live "
                  "(a wired MetricRegistry) — the <3%% regression check "
                  "compares the two");
  flags.AddString("faults", &faults_mode,
                  "fault injector on the hot path: none (disarmed) or "
                  "armed-but-idle (armed, zero sites) — the <3%% §14 check "
                  "compares the two");
  flags.AddString("threads_list", &threads_csv, "comma-separated thread counts");
  flags.AddString("regime", &regime_filter,
                  "run only one regime ('own-product' or 'shared-product'; "
                  "'' = both)");
  flags.AddInt64("rounds", &rounds, "timed round trips per client");
  flags.AddString("batch", &batch_csv,
                  "comma-separated requests-per-PostPrices batch sizes "
                  "(sweep dimension)");
  flags.AddInt64("dim", &setup.dim, "feature dimension n of every product");
  flags.AddInt64("workload_rounds", &setup.workload_rounds,
                 "distinct precomputed queries per product");
  flags.AddInt64("owners", &setup.num_owners, "data owners behind each workload");
  flags.AddDouble("delta", &setup.delta,
                  "uncertainty buffer for the *+uncertainty variants");
  flags.AddUint64("seed", &setup.seed, "base workload seed");
  flags.AddBool("smoke", &smoke, "short CI mode (caps rounds at 50000)");
  flags.AddString("out", &out_path, "machine-readable JSON output path ('' disables)");
  if (!flags.Parse(argc, argv)) return flags.help_requested() ? 0 : 1;
  if (smoke && rounds > 50000) rounds = 50000;
  std::vector<int64_t> thread_counts;
  if (!pdm::broker_bench::ParseCsvInt64s(threads_csv, &thread_counts)) {
    std::fprintf(stderr, "bad --threads_list '%s'\n", threads_csv.c_str());
    return 1;
  }
  std::vector<int64_t> batches;
  if (!pdm::broker_bench::ParseCsvInt64s(batch_csv, &batches)) {
    std::fprintf(stderr, "bad --batch '%s'\n", batch_csv.c_str());
    return 1;
  }
  if (rounds < 1 || setup.dim < 1 || setup.workload_rounds < 1) {
    std::fprintf(stderr, "rounds/dim/workload_rounds must be positive\n");
    return 1;
  }
  if (metrics_mode != "none" && metrics_mode != "live") {
    std::fprintf(stderr, "--metrics must be 'none' or 'live'\n");
    return 1;
  }
  if (faults_mode != "none" && faults_mode != "armed-but-idle") {
    std::fprintf(stderr, "--faults must be 'none' or 'armed-but-idle'\n");
    return 1;
  }
  // armed-but-idle: the injector is armed with no sites configured, so every
  // ShouldFail() pays the full armed-path lookup and always misses — the
  // worst case for the disabled-fault hot path the <3% check bounds.
  if (faults_mode == "armed-but-idle") pdm::fault::FaultInjector::Global().Arm();
  setup.rounds = rounds;

  struct Regime {
    const char* name;
    bool shared_product;
  };
  const Regime kRegimes[] = {{"own-product", false}, {"shared-product", true}};

  std::printf("=== broker scaling sweep: threads {%s} x batch {%s} x regimes, "
              "%ld rounds/client, n=%ld, metrics=%s, faults=%s ===\n\n",
              threads_csv.c_str(), batch_csv.c_str(), static_cast<long>(rounds),
              static_cast<long>(setup.dim), metrics_mode.c_str(),
              faults_mode.c_str());

  std::vector<Cell> cells;
  for (const Regime& regime : kRegimes) {
    if (!regime_filter.empty() && regime_filter != regime.name) continue;
    for (int64_t batch : batches) {
      size_t group_first_cell = cells.size();
      for (int64_t threads : thread_counts) {
        // Fresh broker + fresh engines per cell: cells must not inherit each
        // other's knowledge-set refinement (cut cadence changes the rate).
        pdm::scenario::StreamFactory factory;
        pdm::metrics::MetricRegistry registry;
        pdm::broker::BrokerConfig broker_config;
        if (metrics_mode == "live") broker_config.metrics = &registry;
        pdm::broker::Broker broker(broker_config);
        int64_t products = regime.shared_product ? 1 : threads;
        std::vector<pdm::broker_bench::ProductWorkload> workloads =
            pdm::broker_bench::OpenProducts(&factory, &broker, products, setup,
                                            std::string(regime.name) + "/client");
        pdm::broker_bench::RegionResult region =
            pdm::broker_bench::RunClients(&broker, workloads, threads, rounds,
                                          batch);
        pdm::broker_bench::ThreadRateStats rates =
            pdm::broker_bench::RateStats(region.clients);

        Cell cell;
        cell.regime = regime.name;
        cell.series = std::string(regime.name) + "/t=" + std::to_string(threads) +
                      "/b=" + std::to_string(batch);
        cell.threads = threads;
        cell.batch = batch;
        cell.products = products;
        cell.total_rounds = region.total_rounds;
        cell.wall_seconds = region.region_seconds;
        cell.aggregate = region.aggregate_rounds_per_sec();
        cell.per_thread_min = rates.min;
        cell.per_thread_median = rates.median;
        cells.push_back(cell);
      }
      // Efficiency is relative to this (regime, batch) group's t=1 cell
      // wherever it appears in --threads_list; without one there is no
      // reference, and the field is NaN (JSON null) rather than silently
      // wrong.
      double single_thread_aggregate = 0.0;
      for (size_t i = group_first_cell; i < cells.size(); ++i) {
        if (cells[i].threads == 1) single_thread_aggregate = cells[i].aggregate;
      }
      for (size_t i = group_first_cell; i < cells.size(); ++i) {
        cells[i].efficiency =
            single_thread_aggregate > 0.0
                ? cells[i].aggregate / (static_cast<double>(cells[i].threads) *
                                        single_thread_aggregate)
                : std::numeric_limits<double>::quiet_NaN();
      }
    }
  }

  int64_t rss_bytes = pdm::CurrentRssBytes();
  pdm::TablePrinter table(
      {"series", "threads", "batch", "aggregate/s", "thread-min/s",
       "thread-median/s", "efficiency"});
  for (const Cell& cell : cells) {
    table.AddRow({cell.series, std::to_string(cell.threads),
                  std::to_string(cell.batch),
                  pdm::FormatDouble(cell.aggregate, 0),
                  pdm::FormatDouble(cell.per_thread_min, 0),
                  pdm::FormatDouble(cell.per_thread_median, 0),
                  pdm::FormatDouble(cell.efficiency, 3)});
  }
  table.Print(std::cout);
  std::printf("\n(efficiency = aggregate / (threads x same-(regime,batch) t=1 "
              "aggregate); hardware concurrency %u, rss %.1f MiB)\n",
              std::thread::hardware_concurrency(),
              static_cast<double>(rss_bytes) / (1024.0 * 1024.0));

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    pdm::JsonWriter json(&out);
    json.BeginObject();
    json.Field("schema", "pdm.bench_broker.v2");
    json.Field("rounds_per_thread", rounds);
    json.Field("batch_list", batch_csv);
    json.Field("dim", setup.dim);
    json.Field("workload_rounds", setup.workload_rounds);
    json.Field("delta", setup.delta);
    json.Field("metrics", metrics_mode);
    json.Field("faults", faults_mode);
    json.Field("hardware_concurrency",
               static_cast<int64_t>(std::thread::hardware_concurrency()));
    json.Field("rss_bytes", rss_bytes);
    json.Key("series");
    json.BeginArray();
    for (const Cell& cell : cells) {
      json.BeginObject();
      json.Field("series", cell.series);
      json.Field("regime", cell.regime);
      json.Field("threads", cell.threads);
      json.Field("batch", cell.batch);
      json.Field("products", cell.products);
      json.Field("rounds", cell.total_rounds);
      json.Field("wall_seconds", cell.wall_seconds);
      json.Field("aggregate_rounds_per_sec", cell.aggregate);
      json.Field("per_thread_min_rounds_per_sec", cell.per_thread_min);
      json.Field("per_thread_median_rounds_per_sec", cell.per_thread_median);
      json.Field("parallel_efficiency", cell.efficiency);
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    out << "\n";
    std::printf("wrote %s (%zu series, schema pdm.bench_broker.v2)\n",
                out_path.c_str(), cells.size());
  }
  return 0;
}
