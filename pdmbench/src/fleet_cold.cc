// fleet-cold: the broker's cold tier. About 20k n=32 reserve+uncertainty
// products in the dense layout pdm_serve serves, a spill directory inside
// the benchmark's output directory, and a resident cap of 25%. One thread
// makes Zipf(1.05) touches (scalar PostPrice + Observe over resolved
// handles); about a fifth of them fault an evicted session back in, and
// each fault-in evicts another session to disk. Spill writes with fsync,
// the snapshot codec and resident bytes per product dominate here; the
// wire and the kernel barely register.

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>

#include "broker/broker.h"
#include "broker/session.h"
#include "broker/snapshot.h"
#include "harness.h"
#include "metrics/metrics.h"
#include "rng/rng.h"

namespace pdmbench {

namespace {

constexpr int kDim = 32;
constexpr int64_t kProducts = 20000;
constexpr int64_t kResidentCap = kProducts / 4;
constexpr int64_t kOpenBatch = 4096;
constexpr double kZipfS = 1.05;
constexpr size_t kRingRounds = 1024;
constexpr int kSetupReps = 7;
/// Touches per second of --seconds (a fixed count, so a run's inputs and
/// regret depend only on the seed and the budget).
constexpr double kTouchesPerSecond = 10000.0;
/// Untimed touches before the measured ones: right after set-up the resident
/// quarter is the last-opened products, not the Zipf-hot ones.
constexpr int64_t kWarmupTouches = 10000;
/// Touches per CPU sample of proc.cpu_us_per_op.
constexpr int64_t kTouchesPerChunk = 1000;

enum SpanName : uint8_t { kTouch = 0, kPost = 1, kObserve = 2 };

pdm::scenario::ScenarioSpec FleetSpec(uint64_t seed) {
  pdm::scenario::ScenarioSpec spec = ProductSpec(3, kDim, seed);  // reserve+uncertainty
  spec.name = "fleet/base";
  spec.linear.num_owners = 256;
  spec.linear.workload_rounds = static_cast<int64_t>(kRingRounds);
  return spec;
}

/// Zipf(s) over [0, n) by inverse CDF; rank r is product r, so low indices
/// are the hot set.
class Zipf {
 public:
  Zipf(int64_t n, double s) : cdf_(static_cast<size_t>(n)) {
    double sum = 0.0;
    for (size_t i = 0; i < cdf_.size(); ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
  }
  uint32_t Next(pdm::Rng* rng) const {
    double u = rng->NextDouble() * cdf_.back();
    return static_cast<uint32_t>(std::lower_bound(cdf_.begin(), cdf_.end(), u) -
                                 cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

struct Fleet {
  pdm::metrics::MetricRegistry registry;
  std::unique_ptr<pdm::broker::Broker> broker;
  std::vector<pdm::broker::ProductHandle> handles;
  /// Set-up spans: OpenSessions, Resolve, and the EvictIdleSessions sweeps.
  double open_s = 0.0;
  double resolve_s = 0.0;
  double evict_s = 0.0;
};

std::string ProductName(int64_t i) { return "fleet/p" + std::to_string(i); }

/// Opens the fleet in batches and resolves every handle. With `cold`, the
/// broker gets the spill directory and the resident cap, and each batch is
/// swept down to the cap before the next opens, so peak residency stays
/// near cap + batch and OpenSessions itself never evicts.
std::unique_ptr<Fleet> SetUp(const pdm::scenario::ScenarioSpec& spec,
                             const pdm::scenario::WorkloadInfo& info,
                             const std::string& spill_dir, bool cold, Result* result) {
  std::filesystem::remove_all(spill_dir);
  auto fleet = std::make_unique<Fleet>();
  pdm::broker::BrokerConfig config;
  if (cold) {
    config.spill_dir = spill_dir;
    config.max_resident_sessions = kResidentCap;
  }
  config.metrics = &fleet->registry;
  fleet->broker = std::make_unique<pdm::broker::Broker>(config);
  std::vector<std::string> names;
  for (int64_t base = 0; base < kProducts; base += kOpenBatch) {
    names.clear();
    for (int64_t i = base; i < std::min(kProducts, base + kOpenBatch); ++i) {
      names.push_back(ProductName(i));
    }
    const uint64_t t0 = NowNs();
    pdm::Status status = fleet->broker->OpenSessions(names, spec, info);
    const uint64_t t1 = NowNs();
    if (cold) fleet->broker->EvictIdleSessions(kResidentCap);
    fleet->open_s += 1e-9 * static_cast<double>(t1 - t0);
    fleet->evict_s += 1e-9 * static_cast<double>(NowNs() - t1);
    if (!status.ok()) {
      result->Check(false, "setup: " + status.ToString());
      return nullptr;
    }
  }
  fleet->handles.resize(kProducts);
  const uint64_t t0 = NowNs();
  for (int64_t i = 0; i < kProducts; ++i) {
    pdm::Status status = fleet->broker->Resolve(ProductName(i), &fleet->handles[i]);
    if (!status.ok()) {
      result->Check(false, "setup: " + status.ToString());
      return nullptr;
    }
  }
  fleet->resolve_s = 1e-9 * static_cast<double>(NowNs() - t0);
  return fleet;
}

/// What the touches recorded, in touch order, for the twin check.
struct TouchLog {
  std::vector<uint32_t> product;
  std::vector<uint64_t> price_bits;
  Tally tally;
};

struct Pass {
  Samples touch_ns, warm_ns, fault_ns;
  double touch_ns_sum = 0.0, fault_ns_sum = 0.0;
  double wall_s = 0.0, thread_cpu_s = 0.0;
  /// Process CPU per touch of each kTouchesPerChunk consecutive touches.
  std::vector<double> chunk_cpu_us;
  int64_t touches = 0;
  uint64_t evictions = 0, fault_ins = 0;
  ProcCounters begin, end;
};

Pass RunTouches(Fleet* fleet, const std::vector<pdm::MarketRound>& ring, const Zipf& zipf,
                pdm::Rng* rng, int64_t touches, TouchLog* log, Tracer* tracer) {
  Pass pass;
  pass.touches = touches;
  pass.touch_ns.Reserve(static_cast<size_t>(touches));
  pass.warm_ns.Reserve(static_cast<size_t>(touches));
  pdm::broker::Broker& broker = *fleet->broker;
  const uint64_t evictions0 = broker.eviction_count();
  const uint64_t fault_ins0 = broker.fault_in_count();
  pdm::broker::Quote quote;
  pass.begin = ProcCounters::Read();
  const double cpu0 = ThreadCpuSeconds();
  const uint64_t start = NowNs();
  double chunk_cpu0 = ProcessCpuSeconds();
  for (int64_t t = 0; t < touches; ++t) {
    if (t % kTouchesPerChunk == 0 && t > 0) {
      const double now = ProcessCpuSeconds();
      pass.chunk_cpu_us.push_back(1e6 * (now - chunk_cpu0) / kTouchesPerChunk);
      chunk_cpu0 = now;
    }
    const uint32_t id = static_cast<uint32_t>(log->product.size());
    const uint32_t product = zipf.Next(rng);
    const pdm::MarketRound& round = ring[id % ring.size()];
    const uint64_t faults_before = broker.fault_in_count();
    const uint64_t t0 = NowNs();
    pdm::Status status =
        broker.PostPrice(fleet->handles[product], round.features, round.reserve, &quote);
    const uint64_t t1 = NowNs();
    log->product.push_back(product);
    log->price_bits.push_back(std::bit_cast<uint64_t>(quote.price));
    if (!status.ok()) {
      ++log->tally.failed;
      continue;
    }
    log->tally.Quoted(round, quote.price, /*enforces_reserve=*/true);
    const bool accepted = Accepts(quote.price, quote.certain_no_sale, round);
    status = broker.Observe(quote.ticket, accepted);
    const uint64_t t2 = NowNs();
    const double elapsed = static_cast<double>(t2 - t0);
    pass.touch_ns.Add(elapsed);
    pass.touch_ns_sum += elapsed;
    if (broker.fault_in_count() != faults_before) {
      pass.fault_ns.Add(elapsed);
      pass.fault_ns_sum += elapsed;
    } else {
      pass.warm_ns.Add(elapsed);
    }
    if (!status.ok()) {
      ++log->tally.failed;
      continue;
    }
    log->tally.Observed(round, quote.price, accepted);
    if (tracer->enabled()) {
      tracer->Record(id, kPost, kTouch, t0, t1);
      tracer->Record(id, kObserve, kTouch, t1, t2);
      tracer->Record(id, kTouch, Tracer::kRoot, t0, NowNs());
    }
  }
  pass.wall_s = 1e-9 * static_cast<double>(NowNs() - start);
  pass.thread_cpu_s = ThreadCpuSeconds() - cpu0;
  pass.end = ProcCounters::Read();
  pass.evictions = broker.eviction_count() - evictions0;
  pass.fault_ins = broker.fault_in_count() - fault_ins0;
  return pass;
}

/// The all-resident twin: every touched product replayed through its own
/// never-evicted session, product by product, in touch order within each
/// product. Returns the first touch whose price differs, or -1; fills the
/// twin's regret ratio summed in touch order.
int64_t ReplayTwin(const pdm::scenario::ScenarioSpec& spec,
                   const pdm::scenario::WorkloadInfo& info,
                   const std::vector<pdm::MarketRound>& ring, const TouchLog& log,
                   double* twin_ratio) {
  const size_t touches = log.product.size();
  std::vector<std::vector<uint32_t>> by_product(kProducts);
  for (size_t t = 0; t < touches; ++t) by_product[log.product[t]].push_back(static_cast<uint32_t>(t));
  std::vector<double> regret(touches, 0.0);
  std::vector<char> sold(touches, 0);
  pdm::broker::Quote quote;
  for (int64_t p = 0; p < kProducts; ++p) {
    if (by_product[p].empty()) continue;
    pdm::broker::PricingSession session(
        ProductName(p), pdm::scenario::MechanismRegistry::Builtin().Build(spec, info));
    for (uint32_t t : by_product[p]) {
      const pdm::MarketRound& round = ring[t % ring.size()];
      if (!session.PostPrice(round.features, round.reserve, &quote).ok() ||
          std::bit_cast<uint64_t>(quote.price) != log.price_bits[t]) {
        return t;
      }
      const bool accepted = Accepts(quote.price, quote.certain_no_sale, round);
      if (!session.Observe(quote.ticket, accepted).ok()) return t;
      regret[t] = RoundRegret(round, quote.price, accepted);
    }
  }
  double regret_sum = 0.0, value_sum = 0.0;
  for (size_t t = 0; t < touches; ++t) {
    regret_sum += regret[t];
    value_sum += ring[t % ring.size()].value;
  }
  *twin_ratio = regret_sum / value_sum;
  return -1;
}

}  // namespace

void RunFleetCold(const Options& options, Result* result) {
  const std::string spill_dir = options.out_dir + "/fleet-spill";
  const pdm::scenario::ScenarioSpec spec = FleetSpec(options.seed);
  std::vector<pdm::MarketRound> ring;
  {
    pdm::scenario::StreamFactory factory;
    ring = RecordRing(&factory, spec, kRingRounds);
  }
  const Zipf zipf(kProducts, kZipfS);

  // setup_s is workload preparation + OpenSessions + Resolve. The
  // EvictIdleSessions sweeps are fsync-bound, and fsync latency on a shared
  // disk drifts by tens of percent from minute to minute, so they are
  // reported as setup.evict_s instead. Set-up 1 is the measured (cold)
  // fleet; later set-ups keep every session resident and only repeat the
  // timing of the same spans.
  std::vector<double> setup_s, scenario_s, broker_s;
  pdm::scenario::StreamFactory factory;
  uint64_t t0 = NowNs();
  const pdm::scenario::WorkloadInfo info = factory.Prepare(spec);
  const double prepare_s = 1e-9 * static_cast<double>(NowNs() - t0);
  const int64_t rss_base = TrimmedRssBytes();
  std::unique_ptr<Fleet> fleet = SetUp(spec, info, spill_dir, /*cold=*/true, result);
  if (!fleet) return;
  const int64_t rss_fleet = TrimmedRssBytes();
  setup_s.push_back(prepare_s + fleet->open_s + fleet->resolve_s);
  scenario_s.push_back(prepare_s);
  broker_s.push_back(fleet->open_s + fleet->resolve_s);

  const int64_t touches = static_cast<int64_t>(options.seconds * kTouchesPerSecond);
  const int64_t untraced_touches = options.trace ? touches / 2 : touches;
  TouchLog log;
  log.product.reserve(static_cast<size_t>(kWarmupTouches + touches));
  log.price_bits.reserve(static_cast<size_t>(kWarmupTouches + touches));
  Tracer off(false, 0, 0), on(options.trace, 0, static_cast<size_t>(3 * touches));
  pdm::Rng rng(options.seed * 7919 + 11);
  // The touches run on one fixed CPU, as every load thread of the other
  // workloads does: a migration mid-run costs the hot sessions' cache.
  PinThisThread(0);
  RunTouches(fleet.get(), ring, zipf, &rng, kWarmupTouches, &log, &off);
  Pass untraced = RunTouches(fleet.get(), ring, zipf, &rng, untraced_touches, &log, &off);
  Pass traced;
  if (options.trace) {
    traced = RunTouches(fleet.get(), ring, zipf, &rng, touches - untraced_touches, &log, &on);
  }
  PinThisThread(-1);
  PrintHost(untraced.begin, options.trace ? traced.end : untraced.end);
  const pdm::broker::BrokerStats stats = fleet->broker->Stats();

  // Output checks.
  result->Attempt(kWarmupTouches + touches);
  result->Fail(log.tally.failed);
  CheckTally(options, log.tally, Scrape(fleet->registry), result);
  if (options.perturb == "twin") log.price_bits[0] ^= 1;
  result->Check(untraced.fault_ins > 0, "no touch faulted a session in");
  pdm::broker::SessionSnapshot snapshot;
  const pdm::Status snapshotted = fleet->broker->Snapshot(ProductName(0), &snapshot);
  result->Check(snapshotted.ok(), "snapshot: " + snapshotted.ToString());
  const double regret_ratio = log.tally.regret / log.tally.value;
  double twin_ratio = 0.0;
  const int64_t mismatch = ReplayTwin(spec, info, ring, log, &twin_ratio);
  result->Check(mismatch < 0, "touch " + std::to_string(mismatch) +
                                  ": cold-tier price differs from the all-resident twin");
  result->Check(mismatch >= 0 || twin_ratio == regret_ratio,
                "regret ratio differs from the all-resident twin");
  if (options.trace) {
    ProbeLayers(*fleet->broker, ProductName(0), fleet->registry, {spec}, {ring},
                0.2 * options.seconds, result);
  }
  const double open_s = fleet->open_s, evict_s = fleet->evict_s;
  fleet.reset();
  std::filesystem::remove_all(spill_dir);

  for (int rep = 1; rep < kSetupReps; ++rep) {
    pdm::scenario::StreamFactory fresh;
    t0 = NowNs();
    const pdm::scenario::WorkloadInfo again = fresh.Prepare(spec);
    const double prepared_s = 1e-9 * static_cast<double>(NowNs() - t0);
    std::unique_ptr<Fleet> extra = SetUp(spec, again, spill_dir, /*cold=*/false, result);
    if (!extra) return;
    setup_s.push_back(prepared_s + extra->open_s + extra->resolve_s);
    scenario_s.push_back(prepared_s);
    broker_s.push_back(extra->open_s + extra->resolve_s);
  }

  const double p50_us = 1e-3 * untraced.touch_ns.Quantile(0.50);
  if (!options.trace) {
    Report(EndToEnd{Median(setup_s), p50_us,
                    static_cast<double>(rss_fleet - rss_base) / kProducts},
           result);
    return;
  }

  std::vector<const Tracer*> views = {&on};
  WriteSpans(options.out_dir + "/fleet-cold.spans.tsv", views,
             {"touch", "broker.post", "broker.observe"});
  Samples post = SpanDurations(views, kPost);
  Samples observe = SpanDurations(views, kObserve);
  const double touch_rps = static_cast<double>(untraced.touches) / untraced.wall_s;
  const double untraced_cpu_s = untraced.end.cpu_s - untraced.begin.cpu_s;
  Layers layers;
  layers.op_p50_us = p50_us;
  layers.op_p99_us = 1e-3 * untraced.touch_ns.Quantile(0.99);
  layers.op_per_s = touch_rps;
  layers.self_us_p50 = 1e-3 * SpanSelfTimes(views, kTouch).Quantile(0.50);
  // No server: the touches run on this thread.
  layers.server_cpu_share = 1.0 - untraced.thread_cpu_s / std::max(1e-9, untraced_cpu_s);
  layers.post_us_p50 = 1e-3 * post.Quantile(0.50);
  layers.post_us_p99 = 1e-3 * post.Quantile(0.99);
  layers.observe_us_p50 = 1e-3 * observe.Quantile(0.50);
  layers.observe_us_p99 = 1e-3 * observe.Quantile(0.99);
  layers.arena_bytes_per_product =
      static_cast<double>(stats.arena_bytes_used) / static_cast<double>(stats.open_sessions);
  layers.regret_ratio = regret_ratio;
  layers.fault_in_share =
      static_cast<double>(untraced.fault_ins) / static_cast<double>(untraced.touches);
  layers.fault_time_share = untraced.fault_ns_sum / untraced.touch_ns_sum;
  layers.SetProcPerOp(untraced.begin, untraced.end, static_cast<double>(untraced.touches));
  layers.setup_scenario_s = Median(scenario_s);
  layers.setup_broker_s = Median(broker_s);
  layers.cpu_us_per_op = Median(untraced.chunk_cpu_us);
  layers.trace_ratio_cost = 1e-3 * traced.touch_ns.Quantile(0.50) / p50_us;
  layers.trace_ratio_per_s = static_cast<double>(traced.touches) / traced.wall_s / touch_rps;
  Report(layers, result);

  result->Detail("fleet.hit_ratio",
                 static_cast<double>(traced.warm_ns.size()) / static_cast<double>(traced.touches),
                 "ratio");
  result->Detail("fleet.evictions", static_cast<double>(traced.evictions), "count");
  result->Detail("fleet.fault_ins", static_cast<double>(traced.fault_ins), "count");
  result->Detail("fleet.warm_us.p50", traced.warm_ns.Quantile(0.50) * 1e-3, "us");
  result->Detail("fleet.warm_us.p99", traced.warm_ns.Quantile(0.99) * 1e-3, "us");
  result->Detail("fleet.fault_in_us.p50", traced.fault_ns.Quantile(0.50) * 1e-3, "us");
  result->Detail("fleet.fault_in_us.p99", traced.fault_ns.Quantile(0.99) * 1e-3, "us");
  result->Detail("spill.bytes_per_eviction",
                 static_cast<double>(stats.spill_bytes) /
                     static_cast<double>(std::max<size_t>(1, stats.evicted_sessions)),
                 "bytes");
  result->Detail("disk.write_bytes_per_eviction",
                 static_cast<double>(traced.end.write_bytes - traced.begin.write_bytes) /
                     static_cast<double>(std::max<uint64_t>(1, traced.evictions)),
                 "bytes");
  result->Detail("setup.open_s", open_s, "s");
  result->Detail("setup.evict_s", evict_s, "s");
}

}  // namespace pdmbench
