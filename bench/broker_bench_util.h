#ifndef PDM_BENCH_BROKER_BENCH_UTIL_H_
#define PDM_BENCH_BROKER_BENCH_UTIL_H_

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "broker/broker.h"
#include "common/string_util.h"
#include "common/timer.h"
#include "market/round.h"
#include "rng/rng.h"
#include "scenario/scenario_spec.h"
#include "scenario/stream_factory.h"

/// \file
/// Shared client harness for the broker benches (`bench_broker_scaling`, the
/// serving binaries): product setup over precomputed linear workloads, and
/// the timed client loop — batched handle-keyed `PostPrices` + batched
/// ticketed `Observes`, the steady-state fast path real clients should use
/// (DESIGN.md §9).

namespace pdm::broker_bench {

/// The four published mechanism variants, assigned to products round-robin.
inline const char* const kVariants[] = {"pure", "uncertainty", "reserve",
                                        "reserve+uncertainty"};

/// Parses a comma-separated list of positive integers (the shape of the
/// `--batch` / `--threads_list` sweep flags). Returns false on any malformed
/// or non-positive entry, or an empty list.
inline bool ParseCsvInt64s(const std::string& csv, std::vector<int64_t>* out) {
  out->clear();
  for (const std::string& part : Split(csv, ',')) {
    std::optional<int64_t> value = ParseInt64(Trim(part));
    if (!value.has_value() || *value < 1) return false;
    out->push_back(*value);
  }
  return !out->empty();
}

struct ProductSetup {
  int64_t dim = 20;
  int64_t workload_rounds = 2048;
  int64_t num_owners = 512;
  int64_t rounds = 200000;  ///< spec horizon (engine ε schedule input)
  double delta = 0.01;
  uint64_t seed = 1;
};

struct ProductWorkload {
  std::string name;
  std::string variant;
  /// Precomputed query ring; the timed region replays it so it measures
  /// broker round trips only.
  std::vector<MarketRound> recorded;
};

/// The spec of the i-th bench product — the single source of truth for the
/// product name, seeds, and engine variant. The TCP server binary and the
/// load generator both build products from this, which is what lets a
/// loadgen reconstruct the server's product names and query rings from the
/// shared (setup, prefix) parameters without any control-plane wire API.
inline scenario::ScenarioSpec ProductSpec(int64_t i, const ProductSetup& setup,
                                          const std::string& name_prefix) {
  scenario::ScenarioSpec spec;
  spec.mechanism = kVariants[i % 4];
  spec.name = name_prefix + std::to_string(i) + "/" + spec.mechanism +
              "/n=" + std::to_string(setup.dim);
  spec.family = "broker-bench";
  spec.stream = scenario::StreamKind::kLinear;
  spec.n = static_cast<int>(setup.dim);
  spec.rounds = setup.rounds;
  spec.delta = setup.delta;
  spec.linear.num_owners = static_cast<int>(setup.num_owners);
  spec.linear.workload_rounds = setup.workload_rounds;
  spec.workload_seed = setup.seed + static_cast<uint64_t>(i);
  spec.sim_seed = 99 + static_cast<uint64_t>(i);
  return spec;
}

/// Records the i-th product's precomputed query ring (no broker involved).
inline ProductWorkload RecordWorkload(scenario::StreamFactory* factory, int64_t i,
                                      const ProductSetup& setup,
                                      const std::string& name_prefix) {
  scenario::ScenarioSpec spec = ProductSpec(i, setup, name_prefix);
  ProductWorkload product;
  product.name = spec.name;
  product.variant = spec.mechanism;
  (void)factory->Prepare(spec);  // ensure the shared workload exists (cached)
  Rng rng(spec.sim_seed);
  std::unique_ptr<QueryStream> stream = factory->CreateStream(spec, &rng);
  product.recorded.resize(static_cast<size_t>(setup.workload_rounds));
  for (MarketRound& round : product.recorded) stream->Next(&rng, &round);
  return product;
}

/// Client-side view: the query rings alone, for a loadgen talking to a
/// remote broker that opened the same (setup, prefix) products.
inline std::vector<ProductWorkload> BuildWorkloads(scenario::StreamFactory* factory,
                                                   int64_t count,
                                                   const ProductSetup& setup,
                                                   const std::string& name_prefix) {
  std::vector<ProductWorkload> products;
  products.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    products.push_back(RecordWorkload(factory, i, setup, name_prefix));
  }
  return products;
}

/// Opens `count` products on `broker` (each with its own precomputed linear
/// workload and registry-built engine) and records their query sequences.
/// Exits the process on setup failure — this is bench scaffolding.
inline std::vector<ProductWorkload> OpenProducts(scenario::StreamFactory* factory,
                                                 broker::Broker* broker,
                                                 int64_t count,
                                                 const ProductSetup& setup,
                                                 const std::string& name_prefix) {
  std::vector<ProductWorkload> products(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    scenario::ScenarioSpec spec = ProductSpec(i, setup, name_prefix);
    scenario::WorkloadInfo info = factory->Prepare(spec);
    Status opened = broker->OpenSession(spec.name, spec, info);
    if (!opened.ok()) {
      std::fprintf(stderr, "OpenSession: %s\n", opened.ToString().c_str());
      std::exit(1);
    }
    products[static_cast<size_t>(i)] =
        RecordWorkload(factory, i, setup, name_prefix);
  }
  return products;
}

struct ClientResult {
  std::string product;
  std::string variant;
  int64_t rounds = 0;
  double wall_seconds = 0.0;

  double rounds_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(rounds) / wall_seconds : 0.0;
  }
};

/// One client thread's timed loop: resolve the handle once, then batched
/// handle-keyed PostPrices + batched Observes until `rounds` round trips
/// complete. `cursor` staggers clients that share a product ring.
inline ClientResult RunClient(broker::Broker* broker, const ProductWorkload& product,
                              int64_t rounds, int64_t batch, size_t cursor) {
  broker::ProductHandle handle;
  Status resolved = broker->Resolve(product.name, &handle);
  if (!resolved.ok()) {
    std::fprintf(stderr, "Resolve: %s\n", resolved.ToString().c_str());
    std::abort();
  }
  const std::vector<MarketRound>& ring = product.recorded;
  std::vector<broker::HandleRequest> requests(static_cast<size_t>(batch));
  std::vector<broker::Quote> quotes(static_cast<size_t>(batch));
  std::vector<broker::FeedbackRequest> feedback(static_cast<size_t>(batch));
  std::vector<const MarketRound*> batch_rounds(static_cast<size_t>(batch));
  cursor %= ring.size();

  WallTimer timer;
  int64_t done = 0;
  while (done < rounds) {
    int64_t this_batch = std::min<int64_t>(batch, rounds - done);
    for (int64_t k = 0; k < this_batch; ++k) {
      const MarketRound& round = ring[cursor];
      cursor = cursor + 1 == ring.size() ? 0 : cursor + 1;
      batch_rounds[k] = &round;
      requests[k] = {handle, round.features, round.reserve};
    }
    Status status =
        broker->PostPrices({requests.data(), static_cast<size_t>(this_batch)},
                           {quotes.data(), static_cast<size_t>(this_batch)});
    if (!status.ok()) {
      std::fprintf(stderr, "PostPrices: %s\n", status.ToString().c_str());
      std::abort();
    }
    for (int64_t k = 0; k < this_batch; ++k) {
      feedback[k].ticket = quotes[k].ticket;
      feedback[k].accepted =
          !quotes[k].certain_no_sale && quotes[k].price <= batch_rounds[k]->value;
    }
    status = broker->Observes({feedback.data(), static_cast<size_t>(this_batch)});
    if (!status.ok()) {
      std::fprintf(stderr, "Observes: %s\n", status.ToString().c_str());
      std::abort();
    }
    done += this_batch;
  }
  ClientResult result;
  result.product = product.name;
  result.variant = product.variant;
  result.rounds = rounds;
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

struct RegionResult {
  std::vector<ClientResult> clients;
  double region_seconds = 0.0;
  int64_t total_rounds = 0;

  double aggregate_rounds_per_sec() const {
    return region_seconds > 0.0 ? static_cast<double>(total_rounds) / region_seconds
                                : 0.0;
  }
};

/// Pins the calling thread to the `slot`-th CPU (modulo the count) of the
/// process's allowed set. Left to the scheduler, client threads of a short
/// cell can share a CPU for the whole cell: on a 4-vCPU VM, four unpinned
/// 15 ms spin threads ran at a median 0.26 of linear speedup against 0.8
/// pinned, which would make the efficiency floor measure the scheduler
/// rather than the broker.
inline void PinToAllowedCpu(int64_t slot) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  int64_t want = slot % CPU_COUNT(&allowed);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || want-- != 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

/// Launches `threads` clients (thread i drives `products[i % products.size()]`,
/// with cursors staggered so ring-sharing clients do not march in lockstep,
/// and runs on the i-th allowed CPU), releases them together, and times the
/// whole region (first start to last finish — the honest serving view for
/// the aggregate rate).
inline RegionResult RunClients(broker::Broker* broker,
                               const std::vector<ProductWorkload>& products,
                               int64_t threads, int64_t rounds, int64_t batch) {
  std::atomic<int64_t> ready{0};
  std::atomic<bool> go{false};
  RegionResult region;
  region.clients.resize(static_cast<size_t>(threads));
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int64_t i = 0; i < threads; ++i) {
    workers.emplace_back([&, i] {
      PinToAllowedCpu(i);
      const ProductWorkload& product = products[i % products.size()];
      size_t cursor = static_cast<size_t>(i) * 97;
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      region.clients[static_cast<size_t>(i)] =
          RunClient(broker, product, rounds, batch, cursor);
    });
  }
  while (ready.load() < threads) {
  }
  WallTimer region_timer;
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();
  region.region_seconds = region_timer.ElapsedSeconds();
  region.total_rounds = threads * rounds;
  return region;
}

/// Per-thread distribution of client rates: the aggregate alone hides
/// stragglers (a contended client can collapse while the sum looks fine).
struct ThreadRateStats {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
};

inline ThreadRateStats RateStats(const std::vector<ClientResult>& clients) {
  ThreadRateStats stats;
  if (clients.empty()) return stats;
  std::vector<double> rates;
  rates.reserve(clients.size());
  for (const ClientResult& client : clients) rates.push_back(client.rounds_per_sec());
  std::sort(rates.begin(), rates.end());
  stats.min = rates.front();
  stats.max = rates.back();
  size_t mid = rates.size() / 2;
  stats.median = rates.size() % 2 == 1 ? rates[mid]
                                       : 0.5 * (rates[mid - 1] + rates[mid]);
  return stats;
}

}  // namespace pdm::broker_bench

#endif  // PDM_BENCH_BROKER_BENCH_UTIL_H_
