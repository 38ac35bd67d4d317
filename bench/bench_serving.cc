// Serving-latency bench (DESIGN.md §10): starts a Broker + TcpServer on
// loopback in-process, drives the open-loop loadgen core against it, and
// reports round-trip latency quantiles (p50/p99/p999, nanoseconds, measured
// from each request's *scheduled* send time — a slow server inflates the
// recorded tail instead of silently slowing the load).
//
// Emits BENCH_serving.json (schema pdm.bench_serving.v1). The repository
// commits a baseline at the repo root; CI produces the same document with
// `pdm_serve` + `loadgen --smoke`, and `tools/compare_bench.py` applies its
// pdm.bench_serving.v1 rule-table rows: it fails the build when latency or
// throughput regresses beyond tolerance or a request errored — the baseline
// rules only arm when the baseline's hardware_concurrency matches the
// runner's (README "Serving over TCP").
//
//   bench_serving                      # full run
//   bench_serving --smoke              # CI mode (caps rounds at 2000/conn)
//   bench_serving --connections=4 --rate=8000 --batch=16

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/flags.h"
#include "server/server.h"
#include "serving_bench_util.h"

int main(int argc, char** argv) {
  pdm::serving_bench::LoadConfig load_config;
  int64_t products = 2;
  bool smoke = false;
  std::string out_path = "BENCH_serving.json";
  pdm::broker_bench::ProductSetup setup;
  pdm::FlagSet flags("bench_serving");
  flags.AddInt64("connections", &load_config.connections, "client connections");
  flags.AddDouble("rate", &load_config.rate,
                  "target PostPrice rate per connection (req/s, open loop)");
  flags.AddInt64("rounds", &load_config.rounds,
                 "PostPrice round trips per connection");
  flags.AddInt64("batch", &load_config.batch,
                 "pipelined requests per tick (>= 2 exercises coalescing)");
  flags.AddInt64("products", &products, "bench products to open");
  flags.AddInt64("dim", &setup.dim, "feature dimension n of every product");
  flags.AddInt64("workload_rounds", &setup.workload_rounds,
                 "distinct precomputed queries per product");
  flags.AddInt64("owners", &setup.num_owners, "data owners behind each workload");
  flags.AddUint64("seed", &setup.seed, "base workload seed");
  flags.AddBool("smoke", &smoke, "short CI mode (caps rounds at 2000/connection)");
  flags.AddString("out", &out_path, "machine-readable JSON output path ('' disables)");
  if (!flags.Parse(argc, argv)) return flags.help_requested() ? 0 : 1;
  if (load_config.connections < 1 || load_config.rounds < 1 ||
      load_config.batch < 1 || load_config.rate <= 0.0 || products < 1) {
    std::fprintf(stderr, "connections/rounds/batch/rate/products must be positive\n");
    return 1;
  }
  if (smoke && load_config.rounds > 2000) load_config.rounds = 2000;

  // Server side: broker + product fleet + TCP front end on an ephemeral
  // loopback port. Same (setup, prefix) as the loadgen below, so the rings
  // and product names line up by construction.
  pdm::scenario::StreamFactory factory;
  pdm::broker::Broker broker;
  std::vector<pdm::broker_bench::ProductWorkload> workloads =
      pdm::broker_bench::OpenProducts(&factory, &broker, products, setup, "serve/");
  pdm::server::TcpServer server(&broker);
  pdm::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "Start: %s\n", started.ToString().c_str());
    return 1;
  }
  load_config.host = "127.0.0.1";
  load_config.port = server.port();

  std::printf("=== serving latency: %lld connections x %lld rounds @ %.0f/s, "
              "batch %lld, %lld products, n=%lld (port %u) ===\n",
              static_cast<long long>(load_config.connections),
              static_cast<long long>(load_config.rounds), load_config.rate,
              static_cast<long long>(load_config.batch),
              static_cast<long long>(products),
              static_cast<long long>(setup.dim), server.port());

  pdm::serving_bench::LoadResult load =
      pdm::serving_bench::RunLoad(load_config, workloads);
  server.Stop();
  pdm::server::ServerStats stats = server.stats();

  pdm::serving_bench::PrintLoadSummary(load);
  std::printf("server: %lld frames served, %lld coalesced in %lld runs\n",
              static_cast<long long>(stats.frames_served),
              static_cast<long long>(stats.frames_coalesced),
              static_cast<long long>(stats.coalesced_runs));

  if (!load.ok || load.errors > 0) {
    std::fprintf(stderr, "bench_serving: %lld request errors, ok=%d\n",
                 static_cast<long long>(load.errors), load.ok ? 1 : 0);
    return 1;
  }
  if (!out_path.empty()) {
    if (!pdm::serving_bench::WriteServingJson(out_path, load_config, setup,
                                              products, smoke, load)) {
      return 1;
    }
    std::printf("wrote %s (schema pdm.bench_serving.v1)\n", out_path.c_str());
  }
  return 0;
}
