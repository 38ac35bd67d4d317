// Open-loop load generator for a running `pdm_serve` (DESIGN.md §10):
// reconstructs the server's deterministic product fleet from the shared
// (setup, prefix) flags, drives pipelined PostPrice/Observe traffic at a
// scheduled rate over N connections, and reports round-trip latency
// quantiles measured from the *scheduled* send time (coordinated-omission
// corrected). Emits the `pdm.bench_serving.v1` document that
// `tools/compare_bench.py` gates against the committed BENCH_serving.json.
//
//   pdm_serve --port=7411 &            # must use the same product flags
//   loadgen --port=7411 --connections=4 --rate=2000 --rounds=20000
//
// Exit status: non-zero when any connection failed or any request was
// answered with an error — CI treats loadgen as a smoke assertion, not just
// a meter.

#include <cstdint>
#include <cstdio>
#include <string>

#include "common/flags.h"
#include "serving_bench_util.h"

int main(int argc, char** argv) {
  pdm::serving_bench::LoadConfig load_config;
  int64_t port = 0;
  int64_t products = 2;
  bool smoke = false;
  std::string out_path = "";
  pdm::broker_bench::ProductSetup setup;
  pdm::FlagSet flags("loadgen");
  flags.AddString("host", &load_config.host, "server IPv4 literal");
  flags.AddInt64("port", &port, "server TCP port (required)");
  flags.AddInt64("connections", &load_config.connections, "client connections");
  flags.AddDouble("rate", &load_config.rate,
                  "target PostPrice rate per connection (req/s, open loop)");
  flags.AddInt64("rounds", &load_config.rounds,
                 "PostPrice round trips per connection");
  flags.AddInt64("batch", &load_config.batch,
                 "pipelined requests per tick (>= 2 exercises coalescing)");
  flags.AddInt64("products", &products, "product fleet size (match the server)");
  flags.AddInt64("dim", &setup.dim, "feature dimension n (match the server)");
  flags.AddInt64("workload_rounds", &setup.workload_rounds,
                 "precomputed queries per product (match the server)");
  flags.AddInt64("owners", &setup.num_owners, "data owners (match the server)");
  flags.AddUint64("seed", &setup.seed, "base workload seed (match the server)");
  flags.AddBool("smoke", &smoke, "short CI mode (caps rounds at 2000/connection)");
  flags.AddString("out", &out_path, "pdm.bench_serving.v1 JSON path ('' disables)");
  int64_t deadline_ms = 0;
  int64_t retries = 0;
  flags.AddInt64("deadline_ms", &deadline_ms,
                 "per-response deadline (0 waits forever)");
  flags.AddInt64("retries", &retries,
                 "reconnect+resume attempts after a transient transport "
                 "failure (0: any transport failure is fatal)");
  if (!flags.Parse(argc, argv)) return flags.help_requested() ? 0 : 1;
  if (port < 1 || port > 65535) {
    std::fprintf(stderr, "--port is required (1..65535)\n");
    return 1;
  }
  if (load_config.connections < 1 || load_config.rounds < 1 ||
      load_config.batch < 1 || load_config.rate <= 0.0 || products < 1) {
    std::fprintf(stderr, "connections/rounds/batch/rate/products must be positive\n");
    return 1;
  }
  if (smoke && load_config.rounds > 2000) load_config.rounds = 2000;
  load_config.port = static_cast<uint16_t>(port);
  load_config.deadline_ms = static_cast<int>(deadline_ms);
  load_config.max_retries = static_cast<int>(retries);

  pdm::scenario::StreamFactory factory;
  std::vector<pdm::broker_bench::ProductWorkload> workloads =
      pdm::broker_bench::BuildWorkloads(&factory, products, setup, "serve/");

  pdm::serving_bench::LoadResult load =
      pdm::serving_bench::RunLoad(load_config, workloads);
  pdm::serving_bench::PrintLoadSummary(load);

  if (!out_path.empty() &&
      !pdm::serving_bench::WriteServingJson(out_path, load_config, setup, products,
                                            smoke, load)) {
    return 1;
  }
  // Retried/shed requests (load.errors_retried) are expected under chaos
  // drills and do not fail the run; only fatal-class failures do.
  if (!load.ok || load.errors > 0) {
    std::fprintf(stderr, "loadgen: %lld request errors, ok=%d\n",
                 static_cast<long long>(load.errors), load.ok ? 1 : 0);
    return 1;
  }
  return 0;
}
