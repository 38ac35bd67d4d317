#include "harness.h"

#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/memory.h"
#include "market/regret_tracker.h"
#include "rng/rng.h"

namespace pdmbench {

// ---------------------------------------------------------------------------
// Samples

void Samples::Merge(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Quantile(double q) {
  if (values_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values_.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, values_.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values_[lo] + frac * (values_[hi] - values_[lo]);
}

double Median(std::vector<double> values) {
  Samples samples;
  for (double v : values) samples.Add(v);
  return samples.Quantile(0.5);
}

// ---------------------------------------------------------------------------
// Result

void Result::Metric(const std::string& name, double value, const std::string& unit) {
  if (!std::isfinite(value)) {
    Check(false, "metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back({name, value, unit});
}

void Result::Detail(const std::string& name, double value, const std::string& unit) {
  details_.push_back({name, value, unit});
}

void Result::Check(bool ok, const std::string& what) {
  if (!ok) check_failures_.push_back(what);
}

void Result::Print() const {
  for (const std::string& failure : check_failures_) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  }
  if (!details_.empty()) {
    std::printf("detail {");
    for (size_t i = 0; i < details_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  details_[i].name.c_str(), details_[i].value, details_[i].unit.c_str());
    }
    std::printf("}\n");
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              correct() ? "true" : "false", static_cast<long long>(attempted_),
              static_cast<long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// The metrics every workload prints

void Report(const EndToEnd& e2e, Result* result) {
  result->Metric("setup_s", e2e.setup_s, "s");
  result->Metric("op_cost_us", e2e.op_cost_us, "us");
  result->Metric("rss_bytes_per_product", e2e.rss_bytes_per_product, "bytes");
}

void Layers::SetProcPerOp(const ProcCounters& begin, const ProcCounters& end, double ops) {
  syscalls_per_op = static_cast<double>(end.syscalls - begin.syscalls) / ops;
  ctx_switches_per_op = static_cast<double>(end.ctx_switches - begin.ctx_switches) / ops;
  write_bytes_per_op = static_cast<double>(end.write_bytes - begin.write_bytes) / ops;
}

void Report(const Layers& layers, Result* result) {
  result->Metric("op.p50_us", layers.op_p50_us, "us");
  result->Metric("op.p99_us", layers.op_p99_us, "us");
  result->Metric("op.per_s", layers.op_per_s, "1/s");
  result->Metric("harness.self_us.p50", layers.self_us_p50, "us");
  result->Metric("server.cpu_share", layers.server_cpu_share, "ratio");
  result->Metric("broker.post_us.p50", layers.post_us_p50, "us");
  result->Metric("broker.post_us.p99", layers.post_us_p99, "us");
  result->Metric("broker.observe_us.p50", layers.observe_us_p50, "us");
  result->Metric("broker.observe_us.p99", layers.observe_us_p99, "us");
  result->Metric("broker.arena_bytes_per_product", layers.arena_bytes_per_product, "bytes");
  result->Metric("pricing.regret_ratio", layers.regret_ratio, "ratio");
  result->Metric("cold.fault_in_share", layers.fault_in_share, "ratio");
  result->Metric("cold.fault_time_share", layers.fault_time_share, "ratio");
  result->Metric("proc.cpu_us_per_op", layers.cpu_us_per_op, "us");
  result->Metric("proc.syscalls_per_op", layers.syscalls_per_op, "count");
  result->Metric("proc.ctx_switches_per_op", layers.ctx_switches_per_op, "count");
  result->Metric("proc.write_bytes_per_op", layers.write_bytes_per_op, "bytes");
  result->Metric("setup.scenario_s", layers.setup_scenario_s, "s");
  result->Metric("setup.broker_s", layers.setup_broker_s, "s");
  result->Metric("trace.ratio.op_cost_us", layers.trace_ratio_cost, "ratio");
  result->Metric("trace.ratio.op.per_s", layers.trace_ratio_per_s, "ratio");
}

// ---------------------------------------------------------------------------
// Tracing

Tracer::Tracer(bool enabled, uint16_t thread, size_t capacity)
    : enabled_(enabled), thread_(thread) {
  if (enabled_) spans_.reserve(capacity);
}

Samples SpanDurations(const std::vector<const Tracer*>& tracers, uint8_t name) {
  Samples out;
  for (const Tracer* tracer : tracers) {
    for (const Tracer::Span& span : tracer->spans()) {
      if (span.name == name) out.Add(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

Samples SpanSelfTimes(const std::vector<const Tracer*>& tracers, uint8_t root) {
  // Spans are recorded children-first within one id, so accumulate child
  // time per (thread, id) and settle it when the root closes.
  Samples out;
  for (const Tracer* tracer : tracers) {
    std::map<uint32_t, uint64_t> child_ns;
    for (const Tracer::Span& span : tracer->spans()) {
      uint64_t duration = span.end_ns - span.start_ns;
      if (span.parent == root) {
        child_ns[span.id] += duration;
      } else if (span.name == root && span.parent == Tracer::kRoot) {
        uint64_t children = 0;
        auto it = child_ns.find(span.id);
        if (it != child_ns.end()) {
          children = it->second;
          child_ns.erase(it);
        }
        out.Add(static_cast<double>(duration) - static_cast<double>(children));
      }
    }
  }
  return out;
}

void WriteSpans(const std::string& path, const std::vector<const Tracer*>& tracers,
                const std::vector<std::string>& names) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  out << "id\tthread\tname\tparent\tstart_ns\tend_ns\n";
  for (const Tracer* tracer : tracers) {
    for (const Tracer::Span& span : tracer->spans()) {
      out << span.id << '\t' << span.thread << '\t' << names[span.name] << '\t'
          << (span.parent == Tracer::kRoot ? std::string("-") : names[span.parent])
          << '\t' << span.start_ns << '\t' << span.end_ns << '\n';
    }
  }
}

// ---------------------------------------------------------------------------
// Process and host counters

namespace {

int64_t ReadProcIoField(const std::string& text, const std::string& key) {
  size_t at = text.find(key + ": ");
  if (at == std::string::npos) return 0;
  return std::stoll(text.substr(at + key.size() + 2));
}

std::string ReadFile(const char* path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

ProcCounters ProcCounters::Read() {
  ProcCounters c;
  c.cpu_s = ProcessCpuSeconds();
  std::string io = ReadFile("/proc/self/io");
  c.syscalls =
      ReadProcIoField(io, "syscr") + ReadProcIoField(io, "syscw") + SocketSyscalls();
  c.write_bytes = ReadProcIoField(io, "write_bytes");
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  c.ctx_switches = usage.ru_nvcsw + usage.ru_nivcsw;
  c.involuntary = usage.ru_nivcsw;
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::istringstream stat(ReadFile("/proc/stat"));
  std::string label;
  int64_t field = 0;
  stat >> label;
  for (int i = 0; i < 8 && (stat >> field); ++i) {
    if (i == 7) c.steal_ticks = field;
  }
  return c;
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void SetPreciseTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL); }

namespace {

/// The process's CPU set as it was at start-up, in ascending order.
const std::vector<int>& ProcessCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

int AvailableCpus() { return std::max<int>(1, static_cast<int>(ProcessCpus().size())); }

void PinThisThread(int slot) {
  const std::vector<int>& cpus = ProcessCpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (slot < 0) {
    for (int cpu : cpus) CPU_SET(cpu, &set);
  } else {
    CPU_SET(cpus[static_cast<size_t>(slot) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

void PrintHost(const ProcCounters& region_begin, const ProcCounters& region_end) {
  std::string model = "unknown";
  std::istringstream cpuinfo(ReadFile("/proc/cpuinfo"));
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  std::replace(model.begin(), model.end(), '"', '\'');
  std::printf("host {\"nproc\": %d, \"hardware_concurrency\": %u, \"cpu_model\": \"%s\", "
              "\"steal_ticks\": %lld, \"involuntary_ctx_switches\": %lld}\n",
              AvailableCpus(), std::thread::hardware_concurrency(), model.c_str(),
              static_cast<long long>(region_end.steal_ticks - region_begin.steal_ticks),
              static_cast<long long>(region_end.involuntary - region_begin.involuntary));
}

int64_t TrimmedRssBytes() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  return pdm::CurrentRssBytes();
}

// ---------------------------------------------------------------------------
// Products

namespace {

const char* const kVariants[4] = {"pure", "uncertainty", "reserve",
                                  "reserve+uncertainty"};

}  // namespace

bool EnforcesReserve(const std::string& mechanism) {
  const pdm::scenario::MechanismTraits* traits =
      pdm::scenario::MechanismRegistry::Builtin().Find(mechanism);
  return traits != nullptr && traits->use_reserve;
}

pdm::scenario::ScenarioSpec ProductSpec(int64_t i, int n, uint64_t seed) {
  pdm::scenario::ScenarioSpec spec;
  spec.mechanism = kVariants[i % 4];
  spec.name = "bench/p" + std::to_string(i) + "/" + spec.mechanism;
  spec.family = "pdmbench";
  spec.stream = pdm::scenario::StreamKind::kLinear;
  spec.n = n;
  spec.rounds = 200000;
  spec.delta = 0.01;
  spec.linear.num_owners = 512;
  spec.linear.workload_rounds = 2048;
  spec.workload_seed = seed * 1000003 + static_cast<uint64_t>(i);
  spec.sim_seed = seed * 7919 + 99 + static_cast<uint64_t>(i);
  return spec;
}

std::vector<pdm::MarketRound> RecordRing(pdm::scenario::StreamFactory* factory,
                                         const pdm::scenario::ScenarioSpec& spec,
                                         size_t count) {
  (void)factory->Prepare(spec);
  pdm::Rng rng(spec.sim_seed);
  std::unique_ptr<pdm::QueryStream> stream = factory->CreateStream(spec, &rng);
  std::vector<pdm::MarketRound> ring(count);
  for (pdm::MarketRound& round : ring) stream->Next(&rng, &round);
  return ring;
}

double RoundRegret(const pdm::MarketRound& round, double price, bool accepted) {
  return pdm::RegretTracker::SingleRoundRegret(round.value, round.reserve, price,
                                              accepted);
}

void Tally::Merge(const Tally& other) {
  quotes += other.quotes;
  accepts += other.accepts;
  rejects += other.rejects;
  failed += other.failed;
  below_reserve += other.below_reserve;
  regret += other.regret;
  value += other.value;
}

pdm::metrics::MetricsDump Scrape(const pdm::metrics::MetricRegistry& registry) {
  pdm::metrics::MetricsDump dump;
  (void)pdm::metrics::DecodeMetricsDump(registry.EncodeDump(), &dump);
  return dump;
}

void CheckTally(const Options& options, Tally tally, const pdm::metrics::MetricsDump& scraped,
                Result* result) {
  if (options.perturb == "reserve") ++tally.below_reserve;
  if (options.perturb == "tally") ++tally.quotes;
  result->Check(tally.failed == 0, "calls failed");
  result->Check(tally.below_reserve == 0, "a reserve variant posted below the reserve");
  result->Check(tally.accepts + tally.rejects == tally.quotes,
                "client accepts + rejects != quotes");
  result->Check(
      static_cast<int64_t>(scraped.CounterValue("pdm_broker_quotes_total")) == tally.quotes &&
          static_cast<int64_t>(scraped.CounterValue("pdm_broker_accepts_total")) ==
              tally.accepts &&
          static_cast<int64_t>(scraped.CounterValue("pdm_broker_rejects_total")) ==
              tally.rejects,
      "client tally != scraped pdm_broker_* counters");
}

}  // namespace pdmbench
