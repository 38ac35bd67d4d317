// Million-product memory soak (DESIGN.md §12): opens a large product fleet
// through the broker's batched control plane and drives a Zipf-distributed
// touch pattern over resolved handles, measuring what serving at scale
// actually costs — steady-state RSS per product, open/resolve latency, and
// the fault-in tail when the LRU cold tier spills idle sessions to disk.
//
// Two series per run, both with the one (packed) shape layout:
//
//   cold      spill_dir + residency cap: the §12 memory engine. Runs FIRST
//             so its RSS delta is measured against a clean heap (the
//             resident series then reuses whatever the teardown could not
//             return to the OS, which only *understates* the resident
//             footprint — the conservative direction for the savings gate).
//   resident  every session resident: the savings-gate denominator.
//
// Emits BENCH_memory.json (schema pdm.bench_memory.v1). The repository
// commits a baseline at the repo root; CI re-runs in smoke mode and
// `tools/compare_bench.py` applies its pdm.bench_memory.v1 rule-table rows:
// it fails the build when bytes/product or a latency quantile regresses
// beyond tolerance, a fault-in histogram stops recording, touches error, or
// the cold-vs-resident savings fall below 35% (README "Memory & scale").
//
//   bench_memory_soak                       # full run (100k products)
//   bench_memory_soak --smoke               # CI mode (100k products, short touch phase)
//   bench_memory_soak --products=1000000 --resident_pct=10

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "broker/broker.h"
#include "common/flags.h"
#include "common/histogram.h"
#include "common/json_writer.h"
#include "common/memory.h"
#include "common/timer.h"
#include "market/round.h"
#include "rng/rng.h"
#include "scenario/scenario_spec.h"
#include "scenario/stream_factory.h"

namespace {

using pdm::LatencyHistogram;

struct SoakConfig {
  int64_t products = 100000;
  int64_t dim = 32;
  int64_t touches = 150000;
  int64_t resident_pct = 25;  ///< cold-tier residency cap, % of products
  int64_t open_batch = 65536;
  double zipf_s = 1.05;
  uint64_t seed = 1;
};

struct SeriesResult {
  std::string name;
  size_t resident_cap = 0;  ///< 0 = no cold tier
  int64_t rss_base = 0;
  int64_t rss_after_open = 0;
  int64_t rss_steady = 0;
  double open_seconds = 0.0;
  int64_t touch_errors = 0;
  LatencyHistogram resolve_ns;
  LatencyHistogram touch_ns;     ///< warm touches (no fault-in)
  LatencyHistogram fault_in_ns;  ///< touches that faulted a session back in
  pdm::broker::BrokerStats stats;
  /// The background writer's backlog when the touch phase ended.
  size_t spill_backlog_bytes = 0;

  double bytes_per_product(int64_t products) const {
    return static_cast<double>(rss_steady - rss_base) /
           static_cast<double>(products);
  }
};

/// Best-effort: hand freed heap back to the OS so CurrentRssBytes reflects
/// live state rather than allocator high-water marks.
void TrimHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

int64_t TrimmedRss() {
  TrimHeap();
  return pdm::CurrentRssBytes();
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// One shared workload spec for the whole fleet: every product prices the
/// same query distribution, so the fleet's memory is session state, not
/// duplicated workloads.
pdm::scenario::ScenarioSpec FleetSpec(const SoakConfig& config) {
  pdm::scenario::ScenarioSpec spec;
  spec.name = "soak/base";
  spec.family = "memory-soak";
  spec.stream = pdm::scenario::StreamKind::kLinear;
  spec.mechanism = "reserve+uncertainty";
  spec.n = static_cast<int>(config.dim);
  spec.rounds = 200000;
  spec.delta = 0.01;
  spec.linear.num_owners = 256;
  spec.linear.workload_rounds = 1024;
  spec.workload_seed = config.seed;
  spec.sim_seed = config.seed + 7;
  return spec;
}

/// Zipf(s) sampler over [0, n): rank r is drawn with weight 1/(r+1)^s via a
/// precomputed CDF + binary search. Rank maps to product index directly, so
/// low-index products are the hot set.
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s) : cdf_(static_cast<size_t>(n)) {
    double sum = 0.0;
    for (size_t i = 0; i < cdf_.size(); ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    total_ = sum;
  }

  size_t Next(pdm::Rng* rng) const {
    double u = rng->NextDouble() * total_;
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
  double total_ = 0.0;
};

SeriesResult RunSeries(const SoakConfig& config, const std::string& name,
                       size_t resident_cap,
                       const std::string& spill_dir,
                       const std::vector<pdm::MarketRound>& ring,
                       const ZipfSampler& zipf) {
  SeriesResult result;
  result.name = name;
  result.resident_cap = resident_cap;

  pdm::scenario::StreamFactory factory;
  pdm::scenario::ScenarioSpec spec = FleetSpec(config);
  pdm::scenario::WorkloadInfo info = factory.Prepare(spec);

  pdm::broker::BrokerConfig broker_config;
  if (resident_cap > 0) {
    broker_config.spill_dir = spill_dir;
    broker_config.max_resident_sessions = resident_cap;
    std::filesystem::remove_all(spill_dir);
  }
  pdm::broker::Broker broker(broker_config);

  result.rss_base = TrimmedRss();

  // Batched opens: one directory republication per batch, not per product
  // (the directory retains every published map for the broker's lifetime,
  // so per-product publishes would cost O(N²) retained entries). With a
  // cold tier, each batch is swept down to the cap right away so peak
  // residency stays near cap + open_batch.
  pdm::WallTimer open_timer;
  std::vector<std::string> names;
  for (int64_t base = 0; base < config.products; base += config.open_batch) {
    int64_t count = std::min(config.open_batch, config.products - base);
    names.clear();
    names.reserve(static_cast<size_t>(count));
    for (int64_t i = 0; i < count; ++i) {
      names.push_back("soak/p" + std::to_string(base + i));
    }
    pdm::Status opened = broker.OpenSessions(names, spec, info);
    if (!opened.ok()) {
      std::fprintf(stderr, "OpenSessions: %s\n", opened.ToString().c_str());
      std::exit(1);
    }
    if (resident_cap > 0) broker.EvictIdleSessions(resident_cap);
  }
  result.open_seconds = open_timer.ElapsedSeconds();
  result.rss_after_open = TrimmedRss();

  // Resolve every product once (timed): the name → handle control-plane hop
  // clients pay before entering the fast path.
  std::vector<pdm::broker::ProductHandle> handles(
      static_cast<size_t>(config.products));
  for (int64_t i = 0; i < config.products; ++i) {
    std::string product = "soak/p" + std::to_string(i);
    uint64_t t0 = NowNanos();
    pdm::Status resolved = broker.Resolve(product, &handles[static_cast<size_t>(i)]);
    result.resolve_ns.Record(NowNanos() - t0);
    if (!resolved.ok()) {
      std::fprintf(stderr, "Resolve: %s\n", resolved.ToString().c_str());
      std::exit(1);
    }
  }

  // Zipf touch phase: PostPrice + Observe round trips against the resolved
  // handles. A touch that moves the broker's fault-in counter paid a cold
  // read (snapshot decode + engine rebuild) and lands in the fault-in
  // histogram; everything else is a warm touch.
  pdm::Rng rng(config.seed + 11);
  for (int64_t t = 0; t < config.touches; ++t) {
    size_t idx = zipf.Next(&rng);
    const pdm::MarketRound& round = ring[static_cast<size_t>(t) % ring.size()];
    pdm::broker::Quote quote;
    uint64_t faults_before = broker.fault_in_count();
    uint64_t t0 = NowNanos();
    pdm::Status status =
        broker.PostPrice(handles[idx], round.features, round.reserve, &quote);
    if (status.ok()) {
      status = broker.Observe(
          quote.ticket, !quote.certain_no_sale && quote.price <= round.value);
    }
    uint64_t elapsed = NowNanos() - t0;
    if (!status.ok()) {
      ++result.touch_errors;
      continue;
    }
    if (broker.fault_in_count() != faults_before) {
      result.fault_in_ns.Record(elapsed);
    } else {
      result.touch_ns.Record(elapsed);
    }
  }

  // Request-path evictions are written behind; let the writer drain before
  // sampling steady-state RSS, and report what it still held.
  result.spill_backlog_bytes = broker.Stats().spill_backlog_bytes;
  if (resident_cap > 0) broker.EvictIdleSessions(resident_cap);
  result.rss_steady = TrimmedRss();
  result.stats = broker.Stats();
  return result;
}

void PrintSeries(const SoakConfig& config, const SeriesResult& series) {
  std::printf("--- %s ---\n", series.name.c_str());
  std::printf("open    %lld products in %.2fs (%.1f us/product, batch %lld)\n",
              static_cast<long long>(config.products), series.open_seconds,
              1e6 * series.open_seconds / static_cast<double>(config.products),
              static_cast<long long>(config.open_batch));
  std::printf("rss     base %.1f MiB -> open %.1f MiB -> steady %.1f MiB "
              "(%.0f bytes/product)\n",
              static_cast<double>(series.rss_base) / (1 << 20),
              static_cast<double>(series.rss_after_open) / (1 << 20),
              static_cast<double>(series.rss_steady) / (1 << 20),
              series.bytes_per_product(config.products));
  std::printf("resolve p50 %.0fns  p99 %.0fns\n",
              static_cast<double>(series.resolve_ns.Quantile(0.50)),
              static_cast<double>(series.resolve_ns.Quantile(0.99)));
  std::printf("touch   p50 %.1fus  p99 %.1fus  (%lld warm)\n",
              static_cast<double>(series.touch_ns.Quantile(0.50)) / 1e3,
              static_cast<double>(series.touch_ns.Quantile(0.99)) / 1e3,
              static_cast<long long>(series.touch_ns.count()));
  if (series.fault_in_ns.count() > 0) {
    std::printf("fault   p50 %.1fus  p99 %.1fus  (%lld fault-ins, "
                "%lld evictions, %.1f MiB spilled, %.1f MiB write-behind "
                "backlog after touches)\n",
                static_cast<double>(series.fault_in_ns.Quantile(0.50)) / 1e3,
                static_cast<double>(series.fault_in_ns.Quantile(0.99)) / 1e3,
                static_cast<long long>(series.fault_in_ns.count()),
                static_cast<long long>(series.stats.evictions),
                static_cast<double>(series.stats.spill_bytes) / (1 << 20),
                static_cast<double>(series.spill_backlog_bytes) / (1 << 20));
  }
  std::printf("slots   %zu live, %zu resident, %zu evicted\n\n",
              series.stats.slab_live_slots, series.stats.resident_sessions,
              series.stats.evicted_sessions);
}

void WriteSeriesJson(pdm::JsonWriter* json, const SoakConfig& config,
                     const SeriesResult& series) {
  json->BeginObject();
  json->Field("series", series.name);
  json->Field("resident_cap", static_cast<int64_t>(series.resident_cap));
  json->Field("open_seconds", series.open_seconds);
  json->Field("touch_errors", series.touch_errors);
  json->Key("rss_bytes");
  json->BeginObject();
  json->Field("base", series.rss_base);
  json->Field("after_open", series.rss_after_open);
  json->Field("steady", series.rss_steady);
  json->EndObject();
  json->Field("bytes_per_product", series.bytes_per_product(config.products));
  json->Key("resolve_ns");
  json->BeginObject();
  json->Field("p50", series.resolve_ns.Quantile(0.50));
  json->Field("p99", series.resolve_ns.Quantile(0.99));
  json->EndObject();
  json->Key("touch_ns");
  json->BeginObject();
  json->Field("p50", series.touch_ns.Quantile(0.50));
  json->Field("p99", series.touch_ns.Quantile(0.99));
  json->Field("count", series.touch_ns.count());
  json->EndObject();
  json->Key("fault_in_ns");
  json->BeginObject();
  json->Field("p50", series.fault_in_ns.Quantile(0.50));
  json->Field("p99", series.fault_in_ns.Quantile(0.99));
  json->Field("count", series.fault_in_ns.count());
  json->EndObject();
  json->Field("evictions", static_cast<int64_t>(series.stats.evictions));
  json->Field("fault_ins", static_cast<int64_t>(series.stats.fault_ins));
  json->Field("spill_bytes", static_cast<int64_t>(series.stats.spill_bytes));
  json->Field("spill_backlog_bytes", static_cast<int64_t>(series.spill_backlog_bytes));
  json->Field("resident_sessions",
              static_cast<int64_t>(series.stats.resident_sessions));
  json->Field("evicted_sessions",
              static_cast<int64_t>(series.stats.evicted_sessions));
  json->EndObject();
}

bool WriteSoakJson(const std::string& path, const SoakConfig& config, bool smoke,
                   const std::vector<SeriesResult>& series) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  pdm::JsonWriter json(&out);
  json.BeginObject();
  json.Field("schema", "pdm.bench_memory.v1");
  json.Field("hardware_concurrency",
             static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Field("products", config.products);
  json.Field("dim", config.dim);
  json.Field("touches", config.touches);
  json.Field("resident_pct", config.resident_pct);
  json.Field("open_batch", config.open_batch);
  json.Field("zipf_s", config.zipf_s);
  json.Field("smoke", smoke);
  json.Key("series");
  json.BeginArray();
  for (const SeriesResult& s : series) WriteSeriesJson(&json, config, s);
  json.EndArray();
  json.EndObject();
  out << "\n";
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  SoakConfig config;
  bool smoke = false;
  std::string out_path = "BENCH_memory.json";
  std::string spill_dir =
      (std::filesystem::temp_directory_path() / "pdm_soak_spill").string();
  pdm::FlagSet flags("bench_memory_soak");
  flags.AddInt64("products", &config.products, "products to open per series");
  flags.AddInt64("dim", &config.dim, "feature dimension n of every product");
  flags.AddInt64("touches", &config.touches, "Zipf touches per series");
  flags.AddInt64("resident_pct", &config.resident_pct,
                 "cold-tier residency cap as a percentage of products");
  flags.AddInt64("open_batch", &config.open_batch, "products per OpenSessions call");
  flags.AddDouble("zipf_s", &config.zipf_s, "Zipf exponent of the touch pattern");
  flags.AddUint64("seed", &config.seed, "workload seed");
  flags.AddBool("smoke", &smoke,
                "short CI mode (caps products at 100k, touches at 30k)");
  flags.AddString("out", &out_path, "machine-readable JSON output path ('' disables)");
  flags.AddString("spill_dir", &spill_dir, "cold-tier spill directory");
  if (!flags.Parse(argc, argv)) return flags.help_requested() ? 0 : 1;
  if (config.products < 1 || config.dim < 2 || config.touches < 0 ||
      config.resident_pct < 1 || config.resident_pct > 100 ||
      config.open_batch < 1 || config.zipf_s <= 0.0) {
    std::fprintf(stderr,
                 "products/dim/open_batch must be positive, touches >= 0, "
                 "resident_pct in [1,100], zipf_s > 0\n");
    return 1;
  }
  if (smoke) {
    // Keep the full product count: bytes/product is only comparable between
    // documents opened at the same scale (fixed overheads amortize
    // differently), and the committed baseline is recorded at the default
    // 100k. The touch phase is what smoke trims — RSS at matched scale is
    // insensitive to it (within 1% between 30k and 150k touches).
    config.products = std::min<int64_t>(config.products, 100000);
    config.touches = std::min<int64_t>(config.touches, 30000);
  }
  size_t resident_cap = static_cast<size_t>(
      std::max<int64_t>(1, config.products * config.resident_pct / 100));

  std::printf("=== memory soak: %lld products, n=%lld, %lld Zipf(%.2f) touches, "
              "cold-tier cap %zu ===\n\n",
              static_cast<long long>(config.products),
              static_cast<long long>(config.dim),
              static_cast<long long>(config.touches), config.zipf_s,
              resident_cap);

  // Shared query ring + Zipf CDF, built before any RSS base is taken so
  // neither pollutes a series' delta.
  std::vector<pdm::MarketRound> ring;
  {
    pdm::scenario::StreamFactory factory;
    pdm::scenario::ScenarioSpec spec = FleetSpec(config);
    (void)factory.Prepare(spec);
    pdm::Rng rng(spec.sim_seed);
    std::unique_ptr<pdm::QueryStream> stream = factory.CreateStream(spec, &rng);
    ring.resize(1024);
    for (pdm::MarketRound& round : ring) stream->Next(&rng, &round);
  }
  ZipfSampler zipf(config.products, config.zipf_s);

  std::vector<SeriesResult> series;
  series.push_back(RunSeries(config, "cold", resident_cap, spill_dir, ring, zipf));
  PrintSeries(config, series.back());
  series.push_back(
      RunSeries(config, "resident", /*resident_cap=*/0, spill_dir, ring, zipf));
  PrintSeries(config, series.back());
  std::filesystem::remove_all(spill_dir);

  double resident = series[1].bytes_per_product(config.products);
  double cold = series[0].bytes_per_product(config.products);
  if (resident > 0.0) {
    std::printf("steady-state bytes/product: resident %.0f -> cold %.0f "
                "(%.1f%% lower)\n",
                resident, cold, 100.0 * (1.0 - cold / resident));
  }

  for (const SeriesResult& s : series) {
    if (s.touch_errors > 0) {
      std::fprintf(stderr, "bench_memory_soak: %lld touch errors in %s\n",
                   static_cast<long long>(s.touch_errors), s.name.c_str());
      return 1;
    }
  }
  if (!out_path.empty()) {
    if (!WriteSoakJson(out_path, config, smoke, series)) return 1;
    std::printf("wrote %s (schema pdm.bench_memory.v1)\n", out_path.c_str());
  }
  return 0;
}
