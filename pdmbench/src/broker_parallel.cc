// broker-parallel: the resident hot path under contention. One in-process
// Broker with a live metric registry; one closed-loop thread per available
// CPU, each owning one n=20 product (the four mechanism variants
// round-robin) and issuing scalar PostPrice + Observe calls. With no network
// in the way, per-call routing, the shared metric cells and the pricing
// kernel are what this workload measures.

#include <atomic>
#include <memory>
#include <thread>

#include "broker/broker.h"
#include "harness.h"
#include "metrics/metrics.h"

namespace pdmbench {

namespace {

constexpr int kDim = 20;
constexpr size_t kRingRounds = 2048;
/// Rounds per thread in one measured repetition (about half a second).
constexpr int64_t kRoundsPerRep = 400000;
constexpr int kSetupReps = 9;
/// The traced run keeps one round in kSampleEvery as a span tree.
constexpr uint32_t kSampleEvery = 256;

enum SpanName : uint8_t { kRound = 0, kPost = 1, kObserve = 2 };

struct Fleet {
  pdm::metrics::MetricRegistry registry;
  std::unique_ptr<pdm::broker::Broker> broker;
  std::vector<pdm::scenario::ScenarioSpec> specs;
  std::vector<std::vector<pdm::MarketRound>> rings;
  std::vector<pdm::broker::ProductHandle> handles;
  /// Set-up spans: scenario (Prepare, rings) and broker (open, resolve).
  double scenario_s = 0.0;
  double broker_s = 0.0;
  /// RSS growth over the broker part of set-up.
  int64_t rss_bytes = 0;
};

/// Builds the fleet. The scenario layer's work (Prepare, the query rings)
/// comes first, so the RSS growth over the rest is what the broker holds
/// for these products.
std::unique_ptr<Fleet> SetUp(int products, uint64_t seed, Result* result) {
  const uint64_t start = NowNs();
  auto fleet = std::make_unique<Fleet>();
  pdm::scenario::StreamFactory factory;
  std::vector<pdm::scenario::WorkloadInfo> infos;
  for (int i = 0; i < products; ++i) {
    pdm::scenario::ScenarioSpec spec = ProductSpec(i, kDim, seed);
    infos.push_back(factory.Prepare(spec));
    fleet->rings.push_back(RecordRing(&factory, spec, kRingRounds));
    fleet->specs.push_back(spec);
  }
  fleet->scenario_s = 1e-9 * static_cast<double>(NowNs() - start);
  const int64_t rss0 = TrimmedRssBytes();

  const uint64_t t0 = NowNs();
  pdm::broker::BrokerConfig config;
  config.metrics = &fleet->registry;
  fleet->broker = std::make_unique<pdm::broker::Broker>(config);
  for (int i = 0; i < products; ++i) {
    const pdm::scenario::ScenarioSpec& spec = fleet->specs[static_cast<size_t>(i)];
    pdm::broker::ProductHandle handle;
    pdm::Status status =
        fleet->broker->OpenSession(spec.name, spec, infos[static_cast<size_t>(i)]);
    if (status.ok()) status = fleet->broker->Resolve(spec.name, &handle);
    if (!status.ok()) {
      result->Check(false, "setup: " + status.ToString());
      return nullptr;
    }
    fleet->handles.push_back(handle);
  }
  fleet->broker_s = 1e-9 * static_cast<double>(NowNs() - t0);
  fleet->rss_bytes = TrimmedRssBytes() - rss0;
  return fleet;
}

/// One thread's client: its tally and its place in the product's ring.
struct Client {
  Tally tally;
  size_t cursor = 0;
  uint32_t next_id = 0;
  double cpu_s = 0.0;  ///< thread CPU of this client's worker, all repetitions
};

void RunRounds(pdm::broker::Broker* broker, pdm::broker::ProductHandle handle,
               const std::vector<pdm::MarketRound>& ring, bool reserve_variant,
               int64_t rounds, Client* client, Tracer* tracer) {
  Tally* tally = &client->tally;
  pdm::broker::Quote quote;
  for (int64_t r = 0; r < rounds; ++r) {
    const pdm::MarketRound& round = ring[client->cursor];
    client->cursor = client->cursor + 1 == ring.size() ? 0 : client->cursor + 1;
    const uint32_t id = client->next_id++;
    const bool traced = tracer->enabled() && id % kSampleEvery == 0;
    const uint64_t t0 = traced ? NowNs() : 0;
    pdm::Status status = broker->PostPrice(handle, round.features, round.reserve, &quote);
    const uint64_t t1 = traced ? NowNs() : 0;
    if (!status.ok()) {
      ++tally->failed;
      continue;
    }
    tally->Quoted(round, quote.price, reserve_variant);
    const bool accepted = Accepts(quote.price, quote.certain_no_sale, round);
    status = broker->Observe(quote.ticket, accepted);
    const uint64_t t2 = traced ? NowNs() : 0;
    if (!status.ok()) {
      ++tally->failed;
      continue;
    }
    tally->Observed(round, quote.price, accepted);
    if (traced) {
      tracer->Record(id, kPost, kRound, t0, t1);
      tracer->Record(id, kObserve, kRound, t1, t2);
      tracer->Record(id, kRound, Tracer::kRoot, t0, NowNs());
    }
  }
}

/// One repetition's aggregate rounds/s and process CPU per round.
struct Rep {
  double rounds_per_s = 0.0;
  double cpu_us_per_round = 0.0;
};

/// One repetition: every thread runs kRoundsPerRep rounds on its own
/// product, released together.
Rep RunRep(Fleet* fleet, std::vector<Client>* clients,
           std::vector<std::unique_ptr<Tracer>>* tracers) {
  const size_t threads = clients->size();
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  for (size_t i = 0; i < threads; ++i) {
    workers.emplace_back([&, i] {
      const double cpu0 = ThreadCpuSeconds();
      PinThisThread(static_cast<int>(i));
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      RunRounds(fleet->broker.get(), fleet->handles[i], fleet->rings[i],
                EnforcesReserve(fleet->specs[i].mechanism), kRoundsPerRep,
                &(*clients)[i], (*tracers)[i].get());
      (*clients)[i].cpu_s += ThreadCpuSeconds() - cpu0;
    });
  }
  while (ready.load() < threads) {
  }
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t t0 = NowNs();
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  const double seconds = 1e-9 * static_cast<double>(NowNs() - t0);
  const double rounds = static_cast<double>(threads) * static_cast<double>(kRoundsPerRep);
  return {rounds / seconds, 1e6 * (ProcessCpuSeconds() - cpu0) / rounds};
}

}  // namespace

void RunBrokerParallel(const Options& options, Result* result) {
  const int threads = AvailableCpus();

  std::vector<double> setup_s, scenario_s, broker_s, rss_bytes;
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    fleet = SetUp(threads, options.seed, result);
    if (!fleet) return;
    setup_s.push_back(fleet->scenario_s + fleet->broker_s);
    scenario_s.push_back(fleet->scenario_s);
    broker_s.push_back(fleet->broker_s);
    rss_bytes.push_back(static_cast<double>(fleet->rss_bytes));
  }

  // The untraced repetitions give the end-to-end numbers; a traced run
  // spends half its repetitions untraced as the overhead reference.
  const int reps = std::max(4, static_cast<int>(options.seconds * 2.0 + 0.5));
  const int traced_reps = options.trace ? reps / 2 : 0;
  std::vector<Client> clients(static_cast<size_t>(threads));
  std::vector<std::unique_ptr<Tracer>> off, on;
  for (int i = 0; i < threads; ++i) {
    off.push_back(std::make_unique<Tracer>(false, i, 0));
    on.push_back(std::make_unique<Tracer>(options.trace, i, size_t{1} << 18));
  }
  auto worker_cpu_s = [&] {
    double sum = 0.0;
    for (const Client& client : clients) sum += client.cpu_s;
    return sum;
  };
  std::vector<double> untraced_rps, traced_rps, untraced_cpu_us, traced_cpu_us;
  const ProcCounters begin = ProcCounters::Read();
  for (int rep = 0; rep < reps - traced_reps; ++rep) {
    const Rep measured = RunRep(fleet.get(), &clients, &off);
    untraced_rps.push_back(measured.rounds_per_s);
    untraced_cpu_us.push_back(measured.cpu_us_per_round);
  }
  const ProcCounters middle = ProcCounters::Read();
  const double untraced_worker_cpu_s = worker_cpu_s();
  for (int rep = 0; rep < traced_reps; ++rep) {
    const Rep measured = RunRep(fleet.get(), &clients, &on);
    traced_rps.push_back(measured.rounds_per_s);
    traced_cpu_us.push_back(measured.cpu_us_per_round);
  }
  const ProcCounters end = ProcCounters::Read();
  PrintHost(begin, end);
  const double untraced_ops =
      static_cast<double>(threads) * kRoundsPerRep * (reps - traced_reps);
  const double cpu_us = Median(untraced_cpu_us);

  // The traced run adds the single-thread rate over the first (up to four)
  // products, one variant each.
  const size_t solo = std::min<size_t>(4, fleet->handles.size());
  constexpr int kSoloReps = 5;
  std::vector<double> t1_rps;
  PinThisThread(0);
  for (int rep = 0; options.trace && rep < kSoloReps; ++rep) {
    const uint64_t t0 = NowNs();
    for (size_t i = 0; i < solo; ++i) {
      RunRounds(fleet->broker.get(), fleet->handles[i], fleet->rings[i],
                EnforcesReserve(fleet->specs[i].mechanism), kRoundsPerRep / 4,
                &clients[i], off[i].get());
    }
    t1_rps.push_back(static_cast<double>(solo) * static_cast<double>(kRoundsPerRep / 4) /
                     (1e-9 * static_cast<double>(NowNs() - t0)));
  }
  PinThisThread(-1);

  Tally total;
  for (const Client& client : clients) total.Merge(client.tally);
  result->Attempt(static_cast<int64_t>(threads) * kRoundsPerRep * reps +
                  static_cast<int64_t>(t1_rps.size() * solo) * (kRoundsPerRep / 4));
  result->Fail(total.failed);
  CheckTally(options, total, Scrape(fleet->registry), result);

  const double untraced = Median(untraced_rps);
  if (!options.trace) {
    Report(EndToEnd{Median(setup_s), cpu_us, Median(rss_bytes) / threads}, result);
    return;
  }

  std::vector<const Tracer*> views;
  for (const auto& tracer : on) views.push_back(tracer.get());
  WriteSpans(options.out_dir + "/broker-parallel.spans.tsv", views,
             {"round", "broker.post", "broker.observe"});
  Samples rounds = SpanDurations(views, kRound);
  Samples post = SpanDurations(views, kPost);
  Samples observe = SpanDurations(views, kObserve);
  const pdm::broker::BrokerStats stats = fleet->broker->Stats();
  Layers layers;
  layers.op_p50_us = 1e-3 * rounds.Quantile(0.50);
  layers.op_p99_us = 1e-3 * rounds.Quantile(0.99);
  layers.op_per_s = untraced;
  layers.self_us_p50 = 1e-3 * SpanSelfTimes(views, kRound).Quantile(0.50);
  // No server: the share left outside the workers is the main thread's
  // release and join.
  layers.server_cpu_share =
      1.0 - untraced_worker_cpu_s / std::max(1e-9, middle.cpu_s - begin.cpu_s);
  layers.post_us_p50 = 1e-3 * post.Quantile(0.50);
  layers.post_us_p99 = 1e-3 * post.Quantile(0.99);
  layers.observe_us_p50 = 1e-3 * observe.Quantile(0.50);
  layers.observe_us_p99 = 1e-3 * observe.Quantile(0.99);
  layers.arena_bytes_per_product =
      static_cast<double>(stats.arena_bytes_used) / static_cast<double>(stats.open_sessions);
  layers.regret_ratio = total.regret / total.value;
  // No spill directory, so no session is ever evicted or faulted in.
  layers.fault_in_share = static_cast<double>(stats.fault_ins) / untraced_ops;
  layers.fault_time_share = 0.0;
  layers.SetProcPerOp(begin, middle, untraced_ops);
  layers.setup_scenario_s = Median(scenario_s);
  layers.setup_broker_s = Median(broker_s);
  layers.cpu_us_per_op = cpu_us;
  layers.trace_ratio_cost = Median(traced_cpu_us) / cpu_us;
  layers.trace_ratio_per_s = Median(traced_rps) / untraced;
  Report(layers, result);

  const EngineTimes engine = ProbeLayers(*fleet->broker, fleet->specs[0].name, fleet->registry,
                                         fleet->specs, fleet->rings, 0.2 * options.seconds,
                                         result);
  const double t1 = Median(t1_rps);
  result->Detail("broker.t1_rounds_per_s", t1, "1/s");
  result->Detail("broker.efficiency", untraced / (threads * t1), "ratio");
  result->Detail("broker.routing_ns", 1e9 / t1 - engine.round_ns, "ns");
}

}  // namespace pdmbench
