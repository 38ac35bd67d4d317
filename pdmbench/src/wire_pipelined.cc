// wire-pipelined: the serving front end. An in-process Broker and TcpServer
// share one live MetricRegistry, as pdm_serve wires them; four n=20 products
// (one per mechanism variant) are driven over loopback by two client
// connections, each owning two products. Every tick pipelines 8 PostPrice
// frames (4 per product), reads the 8 quotes, then pipelines and reads the 8
// matching Observe frames.
//
//   phase 1  open loop at a fixed 50k PostPrice requests/s aggregate;
//            latency is timed from each tick's scheduled send, so a stall
//            inflates the tail instead of slowing the load.
//   phase 2  closed loop, same tick shape, a fixed tick count per repetition;
//            its requests/s stands in for the highest sustainable rate, and
//            the process CPU it burns per request is the gated cost.
//
// The broker does about 1% of a wire round trip, so the server layer does
// almost all the work here. The generator sets 1 ns timer slack and spins
// the last stretch before each send: with the default 50 µs slack, a timed
// sleep oversleeps by tens of µs, and the p50 committed in
// BENCH_serving.json (bench/serving_bench_util.h sleeps that way) includes
// about 40-50 µs of such generator oversleep.

#include <algorithm>
#include <atomic>
#include <bit>
#include <map>
#include <memory>
#include <thread>

#include "broker/broker.h"
#include "common/histogram.h"
#include "harness.h"
#include "metrics/metrics.h"
#include "server/client.h"
#include "server/server.h"

namespace pdmbench {

namespace {

constexpr int kDim = 20;
constexpr int kProducts = 4;
constexpr int kConnections = 2;
constexpr int kPerProduct = 4;                   ///< frames per product per tick
constexpr int kBatch = 2 * kPerProduct;          ///< frames per tick
/// PostPrice requests/s, aggregate. Each connection waits for a tick's
/// replies before its next tick, so the schedule holds only while a tick's
/// two round trips fit in its period. At 100k/s (160 µs per connection) they
/// did not during host contention on a 4-vCPU Xeon VM: in 2 of 10 runs the
/// loop fell behind for good and p50 read about 10 ms. 50k/s leaves a
/// 320 µs period for a ~65 µs tick.
constexpr double kOpenLoopRate = 50000.0;
constexpr size_t kRingRounds = 2048;
constexpr int kSetupReps = 9;
/// Closed-loop ticks per connection in one phase-2 repetition.
constexpr int64_t kClosedTicksPerRep = 4000;
/// The generator sleeps until this long before a tick is due, then spins.
constexpr uint64_t kSpinNs = 30000;
/// The traced run keeps every open-loop tick and one closed-loop tick in
/// this many as a span tree.
constexpr int64_t kClosedSampleEvery = 8;

enum SpanName : uint8_t { kTick = 0, kSleep = 1, kFlush = 2, kRead = 3 };

/// Everything setup builds. Declaration order is teardown order reversed:
/// clients disconnect, then the server drains, then the broker goes.
struct Stack {
  pdm::metrics::MetricRegistry registry;
  std::unique_ptr<pdm::broker::Broker> broker;
  std::unique_ptr<pdm::server::TcpServer> server;
  std::vector<pdm::scenario::ScenarioSpec> specs;
  std::vector<std::vector<pdm::MarketRound>> rings;
  std::vector<bool> enforces_reserve;
  std::vector<std::unique_ptr<pdm::server::Client>> clients;
  /// Wire-resolved handle per product.
  std::vector<pdm::broker::ProductHandle> handles;
  /// Set-up spans: scenario (Prepare, rings), broker (OpenSession), and
  /// everything after the scenario (broker, server start, connections).
  double scenario_s = 0.0;
  double broker_s = 0.0;
  double serving_s = 0.0;
  /// RSS growth over the serving part of set-up.
  int64_t rss_bytes = 0;
};

/// Builds the stack. The scenario layer's work (Prepare, the query rings)
/// comes first, so the RSS growth over the rest is what the broker, the
/// server and the clients hold for these products.
std::unique_ptr<Stack> SetUp(uint64_t seed, Result* result) {
  const uint64_t start = NowNs();
  auto stack = std::make_unique<Stack>();
  pdm::scenario::StreamFactory factory;
  std::vector<pdm::scenario::WorkloadInfo> infos;
  for (int i = 0; i < kProducts; ++i) {
    pdm::scenario::ScenarioSpec spec = ProductSpec(i, kDim, seed);
    infos.push_back(factory.Prepare(spec));
    stack->rings.push_back(RecordRing(&factory, spec, kRingRounds));
    stack->specs.push_back(spec);
    stack->enforces_reserve.push_back(EnforcesReserve(spec.mechanism));
  }
  stack->scenario_s = 1e-9 * static_cast<double>(NowNs() - start);
  const int64_t rss0 = TrimmedRssBytes();

  const uint64_t t0 = NowNs();
  pdm::broker::BrokerConfig broker_config;
  broker_config.metrics = &stack->registry;
  stack->broker = std::make_unique<pdm::broker::Broker>(broker_config);
  for (int i = 0; i < kProducts; ++i) {
    const pdm::scenario::ScenarioSpec& spec = stack->specs[static_cast<size_t>(i)];
    pdm::Status status =
        stack->broker->OpenSession(spec.name, spec, infos[static_cast<size_t>(i)]);
    if (!status.ok()) {
      result->Check(false, "setup: " + status.ToString());
      return nullptr;
    }
  }
  stack->broker_s = 1e-9 * static_cast<double>(NowNs() - t0);
  pdm::server::ServerConfig server_config;
  server_config.metrics = &stack->registry;
  stack->server = std::make_unique<pdm::server::TcpServer>(stack->broker.get(), server_config);
  // The event-loop thread inherits the starting thread's placement: CPU
  // slot 0 for the server, slots 1 and 2 for the two connections.
  PinThisThread(0);
  pdm::Status status = stack->server->Start();
  PinThisThread(-1);
  stack->handles.resize(kProducts);
  for (int c = 0; status.ok() && c < kConnections; ++c) {
    stack->clients.push_back(std::make_unique<pdm::server::Client>());
    status = stack->clients.back()->Connect("127.0.0.1", stack->server->port());
    for (int p = 0; status.ok() && p < 2; ++p) {
      const int product = 2 * c + p;
      status = stack->clients.back()->Resolve(stack->specs[product].name,
                                              &stack->handles[product]);
    }
  }
  if (!status.ok()) {
    result->Check(false, "setup: " + status.ToString());
    return nullptr;
  }
  stack->serving_s = 1e-9 * static_cast<double>(NowNs() - t0);
  stack->rss_bytes = TrimmedRssBytes() - rss0;
  return stack;
}

/// The quotes one product was served, in order, for the replay check.
struct ServedStream {
  std::vector<uint64_t> price_bits;
  std::vector<uint8_t> flags;
};

uint8_t QuoteFlags(const pdm::broker::Quote& quote) {
  return static_cast<uint8_t>((quote.exploratory ? 1 : 0) | (quote.certain_no_sale ? 2 : 0));
}

/// One connection's generator state, shared by both phases.
struct Connection {
  int index = 0;
  size_t cursor[2] = {0, 0};
  uint32_t ticks = 0;  ///< ticks sent so far (also the span id)
  Tally tally;
  ServedStream served[2];
  // Open-loop samples of the current pass.
  Samples latency_ns, send_lag_ns, flush_ns, first_byte_ns;
  double cpu_s = 0.0;
};

/// Sends one tick; `due` is the scheduled send time (0: closed loop, send
/// now). Returns false on a transport failure.
bool RunTick(Stack* stack, Connection* conn, uint64_t due, Tracer* tracer) {
  pdm::server::Client& client = *stack->clients[static_cast<size_t>(conn->index)];
  const uint32_t id = conn->ticks++;
  const uint64_t tick_start = NowNs();
  uint64_t sent = tick_start;
  if (due != 0) {
    if (due > tick_start + kSpinNs) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - kSpinNs - tick_start));
    }
    while ((sent = NowNs()) < due) {
    }
    conn->send_lag_ns.Add(static_cast<double>(sent - due));
    tracer->Record(id, kSleep, kTick, tick_start, sent);
  }

  const pdm::MarketRound* rounds[kBatch];
  for (int k = 0; k < kBatch; ++k) {
    const int p = k / kPerProduct;
    const int product = 2 * conn->index + p;
    const std::vector<pdm::MarketRound>& ring = stack->rings[static_cast<size_t>(product)];
    rounds[k] = &ring[conn->cursor[p]];
    conn->cursor[p] = conn->cursor[p] + 1 == ring.size() ? 0 : conn->cursor[p] + 1;
    client.QueuePostPrice(stack->handles[static_cast<size_t>(product)], rounds[k]->features,
                          rounds[k]->reserve);
  }
  const uint64_t flush_start = NowNs();
  if (!client.Flush().ok()) return false;
  const uint64_t flushed = NowNs();
  if (due != 0) conn->flush_ns.Add(static_cast<double>(flushed - flush_start));

  uint64_t tickets[kBatch];
  double prices[kBatch];
  bool accepted[kBatch];
  int answered = 0;
  pdm::server::Response resp;
  for (int k = 0; k < kBatch; ++k) {
    if (!client.ReadResponse(&resp).ok()) return false;
    const uint64_t now = NowNs();
    if (due != 0) {
      if (k == 0) conn->first_byte_ns.Add(static_cast<double>(now - flushed));
      conn->latency_ns.Add(static_cast<double>(now - due));
    }
    tickets[k] = 0;
    if (!resp.status.ok()) {
      ++conn->tally.failed;
      continue;
    }
    const int p = k / kPerProduct;
    prices[k] = resp.quote.price;
    conn->tally.Quoted(*rounds[k], prices[k],
                       stack->enforces_reserve[static_cast<size_t>(2 * conn->index + p)]);
    conn->served[p].price_bits.push_back(std::bit_cast<uint64_t>(prices[k]));
    conn->served[p].flags.push_back(QuoteFlags(resp.quote));
    accepted[k] = Accepts(prices[k], resp.quote.certain_no_sale, *rounds[k]);
    tickets[k] = resp.quote.ticket;
    client.QueueObserve(tickets[k], accepted[k]);
    ++answered;
  }
  const uint64_t quotes_read = NowNs();
  tracer->Record(id, kFlush, kTick, flush_start, flushed);
  tracer->Record(id, kRead, kTick, flushed, quotes_read);

  if (answered > 0) {
    const uint64_t observe_flush_start = NowNs();
    if (!client.Flush().ok()) return false;
    const uint64_t observe_flushed = NowNs();
    for (int k = 0; k < kBatch; ++k) {
      if (tickets[k] == 0) continue;
      if (!client.ReadResponse(&resp).ok()) return false;
      if (!resp.status.ok()) {
        ++conn->tally.failed;
      } else {
        conn->tally.Observed(*rounds[k], prices[k], accepted[k]);
      }
    }
    const uint64_t observes_read = NowNs();
    tracer->Record(id, kFlush, kTick, observe_flush_start, observe_flushed);
    tracer->Record(id, kRead, kTick, observe_flushed, observes_read);
  }
  tracer->Record(id, kTick, Tracer::kRoot, tick_start, NowNs());
  return true;
}

/// Runs `ticks` ticks on every connection concurrently. Open loop when
/// `period_ns` > 0: connection c's tick i is due at
/// epoch + (i + c / kConnections) * period_ns. Returns the region's wall
/// seconds (first release to last finish).
double RunPhase(Stack* stack, std::vector<Connection>* conns, int64_t ticks,
                uint64_t period_ns, std::vector<std::unique_ptr<Tracer>>* tracers,
                bool* transport_ok) {
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> ok{true};
  uint64_t epoch = 0;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      SetPreciseTimerSlack();
      PinThisThread(1 + c);
      Connection* conn = &(*conns)[static_cast<size_t>(c)];
      Tracer* tracer = (*tracers)[static_cast<size_t>(c)].get();
      Tracer unsampled(false, static_cast<uint16_t>(c), 0);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      const double cpu0 = ThreadCpuSeconds();
      const uint64_t offset = period_ns * static_cast<uint64_t>(c) / kConnections;
      for (int64_t i = 0; i < ticks; ++i) {
        const uint64_t due =
            period_ns > 0 ? epoch + offset + static_cast<uint64_t>(i) * period_ns : 0;
        const bool sampled = period_ns > 0 || i % kClosedSampleEvery == 0;
        if (!RunTick(stack, conn, due, sampled ? tracer : &unsampled)) {
          ok.store(false);
          break;
        }
      }
      conn->cpu_s += ThreadCpuSeconds() - cpu0;
    });
  }
  while (ready.load() < kConnections) {
  }
  const uint64_t start = NowNs();
  epoch = start + 200000;  // first tick due shortly after release
  go.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();
  *transport_ok = *transport_ok && ok.load();
  return 1e-9 * static_cast<double>(NowNs() - start);
}

/// Interpolated quantile of the difference between two dumps of one
/// registry histogram (samples recorded between the dumps).
double HistogramDeltaQuantile(const pdm::metrics::DumpInstrument* before,
                              const pdm::metrics::DumpInstrument* after, double q) {
  if (after == nullptr) return 0.0;
  std::map<uint32_t, int64_t> counts;
  for (const auto& [bucket, count] : after->hist_buckets) counts[bucket] += count;
  if (before != nullptr) {
    for (const auto& [bucket, count] : before->hist_buckets) counts[bucket] -= count;
  }
  int64_t total = 0;
  for (const auto& entry : counts) total += entry.second;
  if (total <= 0) return 0.0;
  const double rank = q * static_cast<double>(total - 1);
  double below = 0.0;
  for (const auto& [bucket, count] : counts) {
    if (count <= 0) continue;
    if (rank < below + static_cast<double>(count)) {
      const double lo = static_cast<double>(pdm::LatencyHistogram::BucketFloor(bucket));
      const double hi = static_cast<double>(pdm::LatencyHistogram::BucketFloor(bucket + 1));
      return lo + (hi - lo) * (rank - below + 0.5) / static_cast<double>(count);
    }
    below += static_cast<double>(count);
  }
  return 0.0;
}

/// Phase-1 ticks per connection and phase-2 repetitions of a pass.
int64_t OpenTicks(double seconds) {
  return static_cast<int64_t>(0.5 * seconds * kOpenLoopRate / (kBatch * kConnections));
}
int ClosedReps(double seconds) { return std::max(2, static_cast<int>(2.0 * seconds + 0.5)); }

/// One pass: phase 1 then phase 2 over the same stack and connections.
struct Pass {
  Samples latency_ns, send_lag_ns, flush_ns, first_byte_ns;
  std::vector<double> closed_rps;
  /// Process CPU (server loop and client library together) per PostPrice
  /// request of each phase-2 repetition. Closed-loop threads never spin, so
  /// this is work, not waiting.
  std::vector<double> closed_cpu_us;
  ProcCounters open_begin, open_end, closed_begin, closed_end;
  int64_t open_requests = 0, closed_requests = 0;
  double closed_wall_s = 0.0, closed_generator_cpu_s = 0.0;
  double run_len_mean = 0.0;
  double broker_us_p50 = 0.0;
};

Pass RunPass(Stack* stack, std::vector<Connection>* conns, double seconds,
             std::vector<std::unique_ptr<Tracer>>* tracers, bool* transport_ok) {
  Pass pass;
  const uint64_t period_ns =
      static_cast<uint64_t>(1e9 * kBatch * kConnections / kOpenLoopRate);
  const int64_t open_ticks = OpenTicks(seconds);
  for (Connection& conn : *conns) {
    conn.latency_ns = Samples();
    conn.latency_ns.Reserve(static_cast<size_t>(open_ticks * kBatch));
    for (Samples* per_tick : {&conn.send_lag_ns, &conn.flush_ns, &conn.first_byte_ns}) {
      *per_tick = Samples();
      per_tick->Reserve(static_cast<size_t>(open_ticks));
    }
    conn.cpu_s = 0.0;
  }
  pdm::metrics::MetricsDump before = Scrape(stack->registry);
  pass.open_begin = ProcCounters::Read();
  RunPhase(stack, conns, open_ticks, period_ns, tracers, transport_ok);
  pass.open_end = ProcCounters::Read();
  pdm::metrics::MetricsDump after = Scrape(stack->registry);
  pass.broker_us_p50 =
      1e-3 * HistogramDeltaQuantile(before.Find("pdm_server_request_ns"),
                                    after.Find("pdm_server_request_ns"), 0.5);
  pass.open_requests = open_ticks * kBatch * kConnections;
  for (Connection& conn : *conns) {
    pass.latency_ns.Merge(conn.latency_ns);
    pass.send_lag_ns.Merge(conn.send_lag_ns);
    pass.flush_ns.Merge(conn.flush_ns);
    pass.first_byte_ns.Merge(conn.first_byte_ns);
    conn.cpu_s = 0.0;
  }

  // Phase 2: repetitions of a fixed tick count; about 0.25 s each today.
  const int reps = ClosedReps(seconds);
  const pdm::server::ServerStats stats0 = stack->server->stats();
  pass.closed_begin = ProcCounters::Read();
  constexpr double kRequestsPerRep = kConnections * kClosedTicksPerRep * kBatch;
  for (int rep = 0; rep < reps; ++rep) {
    const double cpu0 = ProcessCpuSeconds();
    const double wall = RunPhase(stack, conns, kClosedTicksPerRep, 0, tracers, transport_ok);
    pass.closed_cpu_us.push_back(1e6 * (ProcessCpuSeconds() - cpu0) / kRequestsPerRep);
    pass.closed_wall_s += wall;
    pass.closed_rps.push_back(kRequestsPerRep / wall);
  }
  pass.closed_end = ProcCounters::Read();
  const pdm::server::ServerStats stats1 = stack->server->stats();
  pass.closed_requests = reps * kConnections * kClosedTicksPerRep * kBatch;
  for (const Connection& conn : *conns) pass.closed_generator_cpu_s += conn.cpu_s;
  const int64_t runs = stats1.coalesced_runs - stats0.coalesced_runs;
  pass.run_len_mean =
      runs > 0 ? static_cast<double>(stats1.frames_coalesced - stats0.frames_coalesced) /
                     static_cast<double>(runs)
               : 0.0;
  return pass;
}

/// Replays one connection's ticks against an in-process broker opened with
/// the same products and compares every quote with the one served over the
/// wire. Returns the index of the first mismatch, or -1. The batched
/// PostPrices and Observes calls the server's coalescer makes for a tick are
/// timed here too: each adds its time per request to `post_ns` /
/// `observe_ns`, the broker layer's cost of the wire's traffic.
int64_t ReplayConnection(const Stack& stack, const Connection& conn, Samples* post_ns,
                         Samples* observe_ns) {
  pdm::broker::Broker broker;
  pdm::scenario::StreamFactory factory;
  pdm::broker::ProductHandle handles[2];
  for (int p = 0; p < 2; ++p) {
    const pdm::scenario::ScenarioSpec& spec = stack.specs[static_cast<size_t>(2 * conn.index + p)];
    if (!broker.OpenSession(spec.name, spec, factory.Prepare(spec)).ok() ||
        !broker.Resolve(spec.name, &handles[p]).ok()) {
      return 0;
    }
  }
  size_t cursor[2] = {0, 0};
  size_t position[2] = {0, 0};
  pdm::broker::HandleRequest requests[kBatch];
  pdm::broker::Quote quotes[kBatch];
  pdm::broker::FeedbackRequest feedback[kBatch];
  const pdm::MarketRound* rounds[kBatch];
  for (uint32_t tick = 0; tick < conn.ticks; ++tick) {
    for (int k = 0; k < kBatch; ++k) {
      const int p = k / kPerProduct;
      const std::vector<pdm::MarketRound>& ring =
          stack.rings[static_cast<size_t>(2 * conn.index + p)];
      rounds[k] = &ring[cursor[p]];
      cursor[p] = cursor[p] + 1 == ring.size() ? 0 : cursor[p] + 1;
      requests[k] = {handles[p], rounds[k]->features, rounds[k]->reserve};
    }
    const uint64_t t0 = NowNs();
    if (!broker.PostPrices(requests, quotes).ok()) return static_cast<int64_t>(tick);
    post_ns->Add(static_cast<double>(NowNs() - t0) / kBatch);
    for (int k = 0; k < kBatch; ++k) {
      const int p = k / kPerProduct;
      const ServedStream& served = conn.served[p];
      const size_t at = position[p]++;
      if (at >= served.price_bits.size() ||
          served.price_bits[at] != std::bit_cast<uint64_t>(quotes[k].price) ||
          served.flags[at] != QuoteFlags(quotes[k])) {
        return static_cast<int64_t>(tick);
      }
      feedback[k] = {quotes[k].ticket,
                     Accepts(quotes[k].price, quotes[k].certain_no_sale, *rounds[k])};
    }
    const uint64_t t1 = NowNs();
    if (!broker.Observes(feedback).ok()) return static_cast<int64_t>(tick);
    observe_ns->Add(static_cast<double>(NowNs() - t1) / kBatch);
  }
  for (int p = 0; p < 2; ++p) {
    if (position[p] != conn.served[p].price_bits.size()) return static_cast<int64_t>(conn.ticks);
  }
  return -1;
}

}  // namespace

void RunWirePipelined(const Options& options, Result* result) {
  std::vector<double> setup_s, scenario_s, broker_s, rss_bytes;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    stack = SetUp(options.seed, result);
    if (!stack) return;
    setup_s.push_back(stack->scenario_s + stack->serving_s);
    scenario_s.push_back(stack->scenario_s);
    broker_s.push_back(stack->broker_s);
    rss_bytes.push_back(static_cast<double>(stack->rss_bytes));
  }

  // A traced run splits its time between an untraced reference pass and
  // the traced pass; their difference is the tracing overhead.
  const int passes = options.trace ? 2 : 1;
  const double pass_seconds = options.seconds / passes;
  const size_t ticks_per_connection = static_cast<size_t>(
      passes * (OpenTicks(pass_seconds) + ClosedReps(pass_seconds) * kClosedTicksPerRep));
  std::vector<Connection> conns(kConnections);
  std::vector<std::unique_ptr<Tracer>> off, on;
  for (int c = 0; c < kConnections; ++c) {
    Connection& conn = conns[static_cast<size_t>(c)];
    conn.index = c;
    for (ServedStream& served : conn.served) {
      served.price_bits.reserve(ticks_per_connection * kPerProduct);
      served.flags.reserve(ticks_per_connection * kPerProduct);
    }
    off.push_back(std::make_unique<Tracer>(false, c, 0));
    on.push_back(std::make_unique<Tracer>(options.trace, c, size_t{1} << 19));
  }
  bool transport_ok = true;
  const ProcCounters region_begin = ProcCounters::Read();
  Pass untraced = RunPass(stack.get(), &conns, pass_seconds, &off, &transport_ok);
  Pass traced;
  if (options.trace) traced = RunPass(stack.get(), &conns, pass_seconds, &on, &transport_ok);
  const ProcCounters region_end = ProcCounters::Read();
  PrintHost(region_begin, region_end);

  // Output checks: tallies against the server's own counters, then the
  // replay of every served quote stream.
  Tally tally;
  int64_t ticks = 0;
  for (const Connection& conn : conns) {
    tally.Merge(conn.tally);
    ticks += conn.ticks;
  }
  result->Attempt(ticks * kBatch);
  result->Fail(ticks * kBatch - (tally.accepts + tally.rejects));
  const pdm::metrics::MetricsDump dump = Scrape(stack->registry);
  auto frames = [&](const char* opcode) {
    const pdm::metrics::DumpInstrument* found =
        dump.Find("pdm_server_frames_total", "opcode", opcode);
    return found ? static_cast<int64_t>(found->counter) : -1;
  };
  stack->clients.clear();
  stack->server->Stop();
  const pdm::server::ServerStats stats = stack->server->stats();

  CheckTally(options, tally, dump, result);
  result->Check(transport_ok, "a connection failed mid-run");
  result->Check(frames("post_price") == tally.quotes &&
                    frames("observe") == tally.accepts + tally.rejects &&
                    stats.frames_served == tally.quotes + tally.accepts + tally.rejects +
                                               kProducts,
                "client tally != TcpServer frame counters");
  result->Check(stats.shed_frames == 0 && stats.protocol_errors == 0,
                "server shed frames or dropped a connection");
  if (options.perturb == "price" && !conns[0].served[0].price_bits.empty()) {
    conns[0].served[0].price_bits.back() ^= 1;
  }
  int64_t mismatch[kConnections];
  Samples post_ns[kConnections], observe_ns[kConnections];
  {
    std::vector<std::thread> replays;
    for (int c = 0; c < kConnections; ++c) {
      replays.emplace_back([&, c] {
        mismatch[c] = ReplayConnection(*stack, conns[static_cast<size_t>(c)], &post_ns[c],
                                       &observe_ns[c]);
      });
    }
    for (std::thread& replay : replays) replay.join();
  }
  for (int c = 0; c < kConnections; ++c) {
    result->Check(mismatch[c] < 0, "connection " + std::to_string(c) +
                                       ": served quotes differ from the in-process "
                                       "replay at tick " + std::to_string(mismatch[c]));
  }

  const double max_rps = Median(untraced.closed_rps);
  const double cpu_us = Median(untraced.closed_cpu_us);
  if (!options.trace) {
    Report(EndToEnd{Median(setup_s), cpu_us, Median(rss_bytes) / kProducts}, result);
    return;
  }

  std::vector<const Tracer*> views;
  for (const auto& tracer : on) views.push_back(tracer.get());
  WriteSpans(options.out_dir + "/wire-pipelined.spans.tsv", views,
             {"tick", "gen.sleep", "client.flush", "client.read"});
  for (int c = 1; c < kConnections; ++c) {
    post_ns[0].Merge(post_ns[c]);
    observe_ns[0].Merge(observe_ns[c]);
  }
  const pdm::broker::BrokerStats broker_stats = stack->broker->Stats();
  const double untraced_cpu_s = untraced.closed_end.cpu_s - untraced.closed_begin.cpu_s;
  Layers layers;
  // Latency and rate are set by how fast the host wakes an idle vCPU more
  // than by the program: on a 4-vCPU Xeon VM they moved by 20-30% between
  // consecutive runs, so they are reported here rather than gated.
  layers.op_p50_us = 1e-3 * untraced.latency_ns.Quantile(0.50);
  layers.op_p99_us = 1e-3 * untraced.latency_ns.Quantile(0.99);
  layers.op_per_s = max_rps;
  layers.self_us_p50 = 1e-3 * SpanSelfTimes(views, kTick).Quantile(0.50);
  layers.server_cpu_share =
      (untraced_cpu_s - untraced.closed_generator_cpu_s) / std::max(1e-9, untraced_cpu_s);
  layers.post_us_p50 = 1e-3 * post_ns[0].Quantile(0.50);
  layers.post_us_p99 = 1e-3 * post_ns[0].Quantile(0.99);
  layers.observe_us_p50 = 1e-3 * observe_ns[0].Quantile(0.50);
  layers.observe_us_p99 = 1e-3 * observe_ns[0].Quantile(0.99);
  layers.arena_bytes_per_product = static_cast<double>(broker_stats.arena_bytes_used) /
                                   static_cast<double>(broker_stats.open_sessions);
  layers.regret_ratio = tally.regret / tally.value;
  // No spill directory, so no session is ever evicted or faulted in.
  layers.fault_in_share =
      static_cast<double>(broker_stats.fault_ins) / static_cast<double>(ticks * kBatch);
  layers.fault_time_share = 0.0;
  layers.SetProcPerOp(untraced.open_begin, untraced.open_end,
                      static_cast<double>(untraced.open_requests));
  layers.setup_scenario_s = Median(scenario_s);
  layers.setup_broker_s = Median(broker_s);
  layers.cpu_us_per_op = cpu_us;
  layers.trace_ratio_cost = Median(traced.closed_cpu_us) / cpu_us;
  layers.trace_ratio_per_s = Median(traced.closed_rps) / max_rps;
  Report(layers, result);
  ProbeLayers(*stack->broker, stack->specs[0].name, stack->registry, stack->specs, stack->rings,
              0.2 * options.seconds, result);

  result->Detail("gen.send_lag_us.p50", traced.send_lag_ns.Quantile(0.50) * 1e-3, "us");
  result->Detail("gen.send_lag_us.p99", traced.send_lag_ns.Quantile(0.99) * 1e-3, "us");
  result->Detail("client.flush_us.p50", traced.flush_ns.Quantile(0.50) * 1e-3, "us");
  result->Detail("client.first_byte_us.p50", traced.first_byte_ns.Quantile(0.50) * 1e-3, "us");
  result->Detail("client.first_byte_us.p99", traced.first_byte_ns.Quantile(0.99) * 1e-3, "us");
  const double server_cpu_s = (traced.closed_end.cpu_s - traced.closed_begin.cpu_s) -
                              traced.closed_generator_cpu_s;
  result->Detail("server.cpu_us_per_req",
                 1e6 * server_cpu_s / static_cast<double>(traced.closed_requests), "us");
  result->Detail("server.busy_share", server_cpu_s / traced.closed_wall_s, "ratio");
  result->Detail("server.run_len_mean", traced.run_len_mean, "frames");
  result->Detail("server.broker_us.p50", traced.broker_us_p50, "us");
  result->Detail("server.shed_frames", static_cast<double>(stats.shed_frames), "count");
  result->Detail("server.protocol_errors", static_cast<double>(stats.protocol_errors), "count");
  result->Detail("trace.ratio.op.p50_us",
                 traced.latency_ns.Quantile(0.50) / untraced.latency_ns.Quantile(0.50), "ratio");
  result->Detail("trace.ratio.op.p99_us",
                 traced.latency_ns.Quantile(0.99) / untraced.latency_ns.Quantile(0.99), "ratio");
}

}  // namespace pdmbench
