#ifndef PDM_BENCH_SERVING_BENCH_UTIL_H_
#define PDM_BENCH_SERVING_BENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "broker_bench_util.h"
#include "common/histogram.h"
#include "common/json_writer.h"
#include "common/status.h"
#include "server/client.h"

/// \file
/// Open-loop load-generation core of `loadgen`, the TCP serving bench —
/// DESIGN.md §10.
///
/// Each connection thread replays its product's precomputed query ring
/// against a `pdm.wire.v1` server: per tick it pipelines `batch` PostPrice
/// frames in one flush (a coalescable run server-side), reads the
/// responses, then pipelines the matching Observe feedback. Ticks are
/// scheduled on an open-loop clock — tick i is *due* at `start + i·batch/rate`
/// — and every response's latency is measured from its tick's scheduled
/// time, not from when the thread actually got around to sending. A slow
/// server therefore inflates the recorded tail instead of silently slowing
/// the load (the coordinated-omission correction).

namespace pdm::serving_bench {

struct LoadConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  int64_t connections = 2;
  /// Target PostPrice rate per connection (requests/second, open loop).
  double rate = 4000.0;
  /// PostPrice round trips per connection.
  int64_t rounds = 20000;
  /// Pipelined requests per tick (>= 2 exercises server-side coalescing).
  int64_t batch = 8;
  /// Connect retries (the server may still be starting in CI).
  int connect_attempts = 100;
  /// Per-response deadline forwarded to the client (0: wait forever).
  int deadline_ms = 0;
  /// Transport-failure recovery attempts per tick (reconnect + re-resolve).
  /// 0 keeps the pre-§14 behavior: any transport failure is fatal.
  int max_retries = 0;
};

struct ConnectionResult {
  LatencyHistogram latency;
  int64_t rounds = 0;
  /// Requests answered with a non-OK op status (these never enter the
  /// latency histogram — an error response is not a served quote).
  int64_t errors = 0;
  /// Client-side tally mirroring the server's metric registry: OK PostPrice
  /// responses, and OK Observe responses split by the accept decision. The
  /// CI smoke reconciles these against the scraped pdm_broker_* counters
  /// (tools/check_metrics.py) — they must match exactly when this load is
  /// the server's only traffic.
  int64_t quotes = 0;
  int64_t accepts = 0;
  int64_t rejects = 0;
  /// Requests lost to *retryable* conditions and absorbed by the load loop:
  /// Unavailable / ResourceExhausted op responses (server shedding, fault
  /// injection) and ticks dropped across a successful reconnect. These are
  /// expected under chaos drills; `errors` stays the fatal-class tally.
  int64_t errors_retried = 0;
  double wall_seconds = 0.0;
  /// Transport/protocol failure that aborted the connection (OK = clean).
  Status fatal;
};

struct LoadResult {
  LatencyHistogram latency;
  int64_t rounds = 0;
  int64_t errors = 0;
  int64_t quotes = 0;
  int64_t accepts = 0;
  int64_t rejects = 0;
  int64_t errors_retried = 0;
  double wall_seconds = 0.0;
  bool ok = true;

  double achieved_rounds_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(rounds) / wall_seconds : 0.0;
  }
};

inline Status ConnectWithRetry(server::Client* client, const std::string& host,
                               uint16_t port, int attempts) {
  Status s;
  for (int i = 0; i < attempts; ++i) {
    s = client->Connect(host, port);
    if (s.ok()) return s;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return s;
}

/// One connection's open-loop tick loop over an already-connected client;
/// `start` is the shared load epoch (connect/resolve happen before it so
/// TCP setup is never charged to tick 0).
inline ConnectionResult RunConnection(server::Client* client_ptr,
                                      broker::ProductHandle handle,
                                      const LoadConfig& config,
                                      const broker_bench::ProductWorkload& product,
                                      size_t cursor,
                                      std::chrono::steady_clock::time_point start) {
  using Clock = std::chrono::steady_clock;
  ConnectionResult result;
  server::Client& client = *client_ptr;

  const std::vector<MarketRound>& ring = product.recorded;
  cursor %= ring.size();
  const double nanos_per_tick =
      1e9 * static_cast<double>(config.batch) / config.rate;
  std::vector<const MarketRound*> tick_rounds(static_cast<size_t>(config.batch));
  std::vector<uint64_t> tickets(static_cast<size_t>(config.batch));
  std::vector<bool> accepted(static_cast<size_t>(config.batch));
  std::vector<bool> queued_accepted(static_cast<size_t>(config.batch));

  // Retryable op statuses: the server answered, but with a transient
  // condition (overload shedding, an injected fault surfacing as
  // Unavailable). These are absorbed into `errors_retried`; anything else
  // non-OK is a real error.
  auto retryable_status = [](StatusCode code) {
    return code == StatusCode::kUnavailable ||
           code == StatusCode::kResourceExhausted;
  };
  // Transport-failure recovery (§14): reconnect, re-resolve the product
  // (handles survive restarts only by name), and resume the open-loop
  // schedule. Only transient classes qualify — a protocol/corruption
  // failure (FailedPrecondition, DataLoss) stays fatal.
  auto recover = [&](const Status& failure) {
    if (config.max_retries <= 0) return false;
    StatusCode code = failure.code();
    if (code != StatusCode::kUnavailable && code != StatusCode::kDeadlineExceeded &&
        code != StatusCode::kResourceExhausted) {
      return false;
    }
    for (int attempt = 0; attempt < config.max_retries; ++attempt) {
      if (client.Reconnect().ok() &&
          client.Resolve(product.name, &handle).ok()) {
        return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return false;
  };

  WallTimer timer;
  int64_t done = 0;
  for (int64_t tick = 0; done < config.rounds; ++tick) {
    const int64_t this_batch = std::min<int64_t>(config.batch, config.rounds - done);
    const Clock::time_point due =
        start + std::chrono::nanoseconds(static_cast<int64_t>(
                    nanos_per_tick * static_cast<double>(tick)));
    std::this_thread::sleep_until(due);

    bool tick_lost = false;
    int64_t pricing_tallied = 0;
    for (int64_t k = 0; k < this_batch; ++k) {
      const MarketRound& round = ring[cursor];
      cursor = cursor + 1 == ring.size() ? 0 : cursor + 1;
      tick_rounds[static_cast<size_t>(k)] = &round;
      client.QueuePostPrice(handle, round.features, round.reserve);
    }
    result.fatal = client.Flush();
    if (!result.fatal.ok()) tick_lost = true;

    for (int64_t k = 0; !tick_lost && k < this_batch; ++k) {
      server::Response resp;
      result.fatal = client.ReadResponse(&resp);
      if (!result.fatal.ok()) {
        tick_lost = true;
        break;
      }
      // Latency from the tick's *scheduled* time: the open-loop view.
      const uint64_t nanos = static_cast<uint64_t>(std::max<int64_t>(
          1, std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - due)
                 .count()));
      if (resp.status.ok()) {
        result.latency.Record(nanos);
        ++result.quotes;
        tickets[static_cast<size_t>(k)] = resp.quote.ticket;
        accepted[static_cast<size_t>(k)] =
            !resp.quote.certain_no_sale &&
            resp.quote.price <= tick_rounds[static_cast<size_t>(k)]->value;
      } else {
        if (retryable_status(resp.status.code())) {
          ++result.errors_retried;
        } else {
          ++result.errors;
        }
        tickets[static_cast<size_t>(k)] = 0;
      }
      ++pricing_tallied;
    }

    // Responses arrive in request order, so the decision queued at position
    // i is the one resolved by feedback response i.
    int64_t queued = 0;
    for (int64_t k = 0; !tick_lost && k < this_batch; ++k) {
      if (tickets[static_cast<size_t>(k)] == 0) continue;
      client.QueueObserve(tickets[static_cast<size_t>(k)],
                          accepted[static_cast<size_t>(k)]);
      queued_accepted[static_cast<size_t>(queued)] = accepted[static_cast<size_t>(k)];
      ++queued;
    }
    if (!tick_lost && queued > 0) {
      result.fatal = client.Flush();
      if (!result.fatal.ok()) tick_lost = true;
      for (int64_t k = 0; !tick_lost && k < queued; ++k) {
        server::Response resp;
        result.fatal = client.ReadResponse(&resp);
        if (!result.fatal.ok()) {
          tick_lost = true;
          break;
        }
        if (!resp.status.ok()) {
          if (retryable_status(resp.status.code())) {
            ++result.errors_retried;
          } else {
            ++result.errors;
          }
        } else if (queued_accepted[static_cast<size_t>(k)]) {
          ++result.accepts;
        } else {
          ++result.rejects;
        }
      }
    }

    if (tick_lost) {
      if (!recover(result.fatal)) return result;
      // The tick's still-unaccounted rounds (those whose pricing response
      // never arrived before the connection died) are charged as retried and
      // abandoned — at-most-once means they are never replayed. Rounds whose
      // responses were already tallied this tick are not re-charged.
      result.fatal = Status::Ok();
      result.errors_retried += this_batch - pricing_tallied;
    }
    done += this_batch;
  }
  result.rounds = done;
  result.wall_seconds = timer.ElapsedSeconds();
  return result;
}

/// Launches `config.connections` client threads against the server (thread i
/// drives `products[i % products.size()]` with a staggered ring cursor),
/// releases them on one shared epoch, and merges their histograms.
inline LoadResult RunLoad(const LoadConfig& config,
                          const std::vector<broker_bench::ProductWorkload>& products) {
  std::vector<ConnectionResult> results(static_cast<size_t>(config.connections));
  std::atomic<int64_t> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(config.connections));

  // The epoch is stamped by the main thread right before `go` flips, so
  // every connection schedules tick 0 at the same instant (the store is
  // ordered before the release store to `go`).
  std::chrono::steady_clock::time_point epoch{};
  for (int64_t i = 0; i < config.connections; ++i) {
    workers.emplace_back([&, i] {
      const broker_bench::ProductWorkload& product =
          products[static_cast<size_t>(i) % products.size()];
      server::ClientConfig client_config;
      client_config.deadline_ms = config.deadline_ms;
      client_config.max_retries = config.max_retries;
      client_config.jitter_seed = 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(i);
      server::Client client(client_config);
      broker::ProductHandle handle;
      Status setup = ConnectWithRetry(&client, config.host, config.port,
                                      config.connect_attempts);
      if (setup.ok()) setup = client.Resolve(product.name, &handle);
      // The barrier must be reached even on failure or RunLoad deadlocks.
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      if (!setup.ok()) {
        results[static_cast<size_t>(i)].fatal = setup;
        return;
      }
      results[static_cast<size_t>(i)] =
          RunConnection(&client, handle, config, product,
                        static_cast<size_t>(i) * 97, epoch);
    });
  }
  while (ready.load() < config.connections) {
  }
  epoch = std::chrono::steady_clock::now();
  WallTimer region_timer;
  go.store(true, std::memory_order_release);
  for (std::thread& worker : workers) worker.join();

  LoadResult load;
  load.wall_seconds = region_timer.ElapsedSeconds();
  for (const ConnectionResult& r : results) {
    if (!r.fatal.ok()) {
      std::fprintf(stderr, "loadgen connection failed: %s\n",
                   r.fatal.ToString().c_str());
      load.ok = false;
    }
    load.latency.Merge(r.latency);
    load.rounds += r.rounds;
    load.errors += r.errors;
    load.quotes += r.quotes;
    load.accepts += r.accepts;
    load.rejects += r.rejects;
    load.errors_retried += r.errors_retried;
  }
  return load;
}

/// Emits the `pdm.bench_serving.v1` document: run configuration plus one
/// latency series (quantiles in nanoseconds). `tools/compare_bench.py`
/// gates CI on this schema's rule-table rows against the committed
/// BENCH_serving.json.
inline bool WriteServingJson(const std::string& path, const LoadConfig& config,
                             const broker_bench::ProductSetup& setup,
                             int64_t products, bool smoke, const LoadResult& load) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  JsonWriter json(&out);
  json.BeginObject();
  json.Field("schema", "pdm.bench_serving.v1");
  json.Field("hardware_concurrency",
             static_cast<int64_t>(std::thread::hardware_concurrency()));
  json.Field("connections", config.connections);
  json.Field("rate_per_connection", config.rate);
  json.Field("rounds_per_connection", config.rounds);
  json.Field("batch", config.batch);
  json.Field("products", products);
  json.Field("dim", setup.dim);
  json.Field("workload_rounds", setup.workload_rounds);
  json.Field("smoke", smoke);
  json.Key("series");
  json.BeginArray();
  json.BeginObject();
  json.Field("series", "round-trip");
  json.Field("rounds", load.rounds);
  json.Field("errors", load.errors);
  json.Field("errors_retried", load.errors_retried);
  json.Field("quotes", load.quotes);
  json.Field("accepts", load.accepts);
  json.Field("rejects", load.rejects);
  json.Field("wall_seconds", load.wall_seconds);
  json.Field("achieved_rounds_per_sec", load.achieved_rounds_per_sec());
  json.Key("latency_ns");
  json.BeginObject();
  json.Field("p50", static_cast<uint64_t>(load.latency.Quantile(0.50)));
  json.Field("p90", static_cast<uint64_t>(load.latency.Quantile(0.90)));
  json.Field("p99", static_cast<uint64_t>(load.latency.Quantile(0.99)));
  json.Field("p999", static_cast<uint64_t>(load.latency.Quantile(0.999)));
  json.Field("min", static_cast<uint64_t>(load.latency.min()));
  json.Field("max", static_cast<uint64_t>(load.latency.max()));
  json.Field("mean", load.latency.mean());
  json.EndObject();
  json.EndObject();
  json.EndArray();
  json.EndObject();
  out << "\n";
  return true;
}

/// Console summary of one load run.
inline void PrintLoadSummary(const LoadResult& load) {
  std::printf("rounds %lld  errors %lld  retried %lld  wall %.3fs  achieved %.0f/s\n",
              static_cast<long long>(load.rounds),
              static_cast<long long>(load.errors),
              static_cast<long long>(load.errors_retried), load.wall_seconds,
              load.achieved_rounds_per_sec());
  std::printf("latency  p50 %.1fus  p90 %.1fus  p99 %.1fus  p999 %.1fus  "
              "max %.1fus  (open-loop, from scheduled send)\n",
              static_cast<double>(load.latency.Quantile(0.50)) / 1e3,
              static_cast<double>(load.latency.Quantile(0.90)) / 1e3,
              static_cast<double>(load.latency.Quantile(0.99)) / 1e3,
              static_cast<double>(load.latency.Quantile(0.999)) / 1e3,
              static_cast<double>(load.latency.max()) / 1e3);
}

}  // namespace pdm::serving_bench

#endif  // PDM_BENCH_SERVING_BENCH_UTIL_H_
