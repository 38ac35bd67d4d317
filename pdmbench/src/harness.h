#ifndef PDMBENCH_HARNESS_H_
#define PDMBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "broker/broker.h"
#include "market/round.h"
#include "metrics/metrics.h"
#include "scenario/mechanism_registry.h"
#include "scenario/scenario_spec.h"
#include "scenario/stream_factory.h"

/// \file
/// Shared pieces of the benchmark harness: run options, exact-quantile
/// sample sets, the result document, the in-memory span recorder, process
/// and host counters, and the product fleet every workload builds on.

namespace pdmbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  /// Measured time budget; work counts are derived from it up front, so a
  /// run's inputs (and its regret ratios) depend only on (seed, seconds).
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hook: corrupts one input of one output check ("price",
  /// "reserve", "tally", "twin") so the run must fail.
  std::string perturb;
  /// Where traced runs write their spans and fleet-cold keeps its spill
  /// directory.
  std::string out_dir = ".";
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

/// Exact order statistics over every recorded sample (linear interpolation
/// between ranks), so quantiles carry full resolution rather than the
/// library histogram's bucket edges.
class Samples {
 public:
  void Reserve(size_t n) { values_.reserve(n); }
  void Add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void Merge(const Samples& other);
  size_t size() const { return values_.size(); }
  double Quantile(double q);

 private:
  std::vector<double> values_;
  bool sorted_ = true;
};

/// Median of a small set of repeated measurements.
double Median(std::vector<double> values);

/// The run's result: metrics by name plus the output-check verdicts. Printed
/// as the single JSON object that ends the benchmark's standard output.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A workload-specific reading of a traced run, printed on the `detail`
  /// line before the result rather than among the metrics.
  void Detail(const std::string& name, double value, const std::string& unit);
  /// Records an output check; a false `ok` fails the run.
  void Check(bool ok, const std::string& what);
  void Attempt(int64_t n) { attempted_ += n; }
  void Fail(int64_t n) { failed_ += n; }

  bool correct() const { return check_failures_.empty(); }
  /// Prints the failed checks to stderr and the result line to stdout.
  void Print() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<Entry> details_;
  std::vector<std::string> check_failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// In-memory span recorder for the traced run. One recorder per thread (no
/// locking); spans of one tick/round/touch share `id`, and `parent` names
/// the enclosing span kind, so self time is a span's duration minus the
/// durations of the same-id spans whose parent it is. Spans past the
/// preallocated capacity are not kept, so recording never allocates.
class Tracer {
 public:
  struct Span {
    uint32_t id;
    uint8_t name;
    uint8_t parent;  ///< kRoot for a root span
    uint16_t thread;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  static constexpr uint8_t kRoot = 0xFF;

  Tracer(bool enabled, uint16_t thread, size_t capacity);

  bool enabled() const { return enabled_; }
  void Record(uint32_t id, uint8_t name, uint8_t parent, uint64_t start_ns,
              uint64_t end_ns) {
    if (!enabled_) return;
    if (spans_.size() < spans_.capacity()) {
      spans_.push_back({id, name, parent, thread_, start_ns, end_ns});
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  uint16_t thread_;
  std::vector<Span> spans_;
};

/// Durations (ns) of every span named `name`.
Samples SpanDurations(const std::vector<const Tracer*>& tracers, uint8_t name);
/// Self time (ns) of every root span named `root`: its duration minus the
/// durations of its children (same thread, same id, parent == root).
Samples SpanSelfTimes(const std::vector<const Tracer*>& tracers, uint8_t root);
/// Writes every span as TSV (id, thread, name, parent, start, end) to
/// `path`; `names` maps span-kind indices to names.
void WriteSpans(const std::string& path, const std::vector<const Tracer*>& tracers,
                const std::vector<std::string>& names);

/// Process-wide counters sampled around a timed region.
struct ProcCounters {
  double cpu_s = 0.0;         ///< CLOCK_PROCESS_CPUTIME_ID
  /// /proc/self/io syscr + syscw, plus the send/recv/poll calls those
  /// fields miss (SocketSyscalls).
  int64_t syscalls = 0;
  int64_t write_bytes = 0;    ///< /proc/self/io write_bytes
  int64_t ctx_switches = 0;   ///< getrusage voluntary + involuntary
  int64_t involuntary = 0;    ///< getrusage involuntary only
  int64_t steal_ticks = 0;    ///< /proc/stat aggregate steal
  static ProcCounters Read();
};

double ThreadCpuSeconds();
double ProcessCpuSeconds();

/// send/recv/poll calls made so far by any thread (syscalls.cc).
int64_t SocketSyscalls();

/// Makes the calling thread's timed sleeps precise: the default 50 µs timer
/// slack would otherwise be added to every generator wakeup.
void SetPreciseTimerSlack();

/// CPUs this process may run on (sched_getaffinity), at least 1.
int AvailableCpus();

/// Pins the calling thread to the `slot`-th CPU (mod the count) of the
/// process's CPU set, or back to the whole set when `slot` < 0. Thread
/// placement otherwise varies from run to run, and with it the cost of
/// every cross-thread wakeup: fixed placement keeps runs comparable.
void PinThisThread(int slot);

/// Prints the host line (nproc, hardware_concurrency, CPU model, steal ticks
/// and involuntary context switches over the timed region) to stdout.
void PrintHost(const ProcCounters& region_begin, const ProcCounters& region_end);

/// RSS after handing freed heap back to the OS.
int64_t TrimmedRssBytes();

// ---------------------------------------------------------------------------
// Products

/// True for the variants that enforce the reserve constraint.
bool EnforcesReserve(const std::string& mechanism);

/// The i-th product of a workload: a linear stream of dimension `n` priced
/// by the (i % 4)-th published mechanism variant (pure, uncertainty,
/// reserve, reserve+uncertainty), with seeds derived from the run seed.
pdm::scenario::ScenarioSpec ProductSpec(int64_t i, int n, uint64_t seed);

/// Records `count` rounds of the spec's query stream (setup only).
std::vector<pdm::MarketRound> RecordRing(pdm::scenario::StreamFactory* factory,
                                         const pdm::scenario::ScenarioSpec& spec,
                                         size_t count);

/// Accept decision the harness feeds back for a quote.
inline bool Accepts(double price, bool certain_no_sale, const pdm::MarketRound& round) {
  return !certain_no_sale && price <= round.value;
}

/// Per-round regret R_t per Eq. (1) of the paper.
double RoundRegret(const pdm::MarketRound& round, double price, bool accepted);

/// Client-side record of what a workload sent and got back.
struct Tally {
  int64_t quotes = 0, accepts = 0, rejects = 0, failed = 0, below_reserve = 0;
  /// Σ R_t and Σ v_t over the rounds whose feedback was delivered.
  double regret = 0.0, value = 0.0;

  /// A quote came back for `round`.
  void Quoted(const pdm::MarketRound& round, double price, bool enforces_reserve) {
    ++quotes;
    if (enforces_reserve && price < round.reserve) ++below_reserve;
  }
  /// The round's accept/reject feedback was delivered.
  void Observed(const pdm::MarketRound& round, double price, bool accepted) {
    ++(accepted ? accepts : rejects);
    regret += RoundRegret(round, price, accepted);
    value += round.value;
  }
  void Merge(const Tally& other);
};

/// The registry's instruments as a scrape decodes them (`GetMetrics`
/// payload format).
pdm::metrics::MetricsDump Scrape(const pdm::metrics::MetricRegistry& registry);

/// The output checks every workload shares: no call failed, no reserve
/// variant posted below the reserve, accepts + rejects == quotes, and the
/// tally equals the scraped pdm_broker_* counters. Applies the "reserve"
/// and "tally" self-test perturbations first.
void CheckTally(const Options& options, Tally tally, const pdm::metrics::MetricsDump& scraped,
                Result* result);

// ---------------------------------------------------------------------------
// The metrics every workload prints. An op is one PostPrice with its Observe:
// a wire request, a broker round, a fleet touch. Each workload fills every
// field; README.md says what each reads in each workload.

/// End-to-end metrics (--trace 0).
struct EndToEnd {
  double setup_s = 0.0;  ///< median of the run's set-ups
  /// The cost of one op: process CPU per op, median over repetitions, on
  /// the wire and in broker-parallel; the touch latency p50 in fleet-cold,
  /// whose CPU time follows host steal through its fsync-bound fault-ins.
  double op_cost_us = 0.0;
  double rss_bytes_per_product = 0.0;  ///< RSS growth over the broker part of set-up
};
void Report(const EndToEnd& e2e, Result* result);

/// Per-layer metrics of a traced run (--trace 1), apart from the layer
/// probes that ProbeLayers reports.
struct Layers {
  // generator: the ops as the harness sees them.
  double op_p50_us = 0.0, op_p99_us = 0.0, op_per_s = 0.0;
  double self_us_p50 = 0.0;  ///< harness time of an op outside its layer calls
  // server: process CPU outside the load threads, as a share of all of it.
  double server_cpu_share = 0.0;
  // broker: one call, per request.
  double post_us_p50 = 0.0, post_us_p99 = 0.0, observe_us_p50 = 0.0, observe_us_p99 = 0.0;
  double arena_bytes_per_product = 0.0;
  // pricing: sum R / sum v per paper Eq. (1) over every op of the run.
  double regret_ratio = 0.0;
  // cold tier: ops that faulted a session in, by count and by time.
  double fault_in_share = 0.0, fault_time_share = 0.0;
  // process counters per op.
  double cpu_us_per_op = 0.0;  ///< median over repetitions
  double syscalls_per_op = 0.0, ctx_switches_per_op = 0.0, write_bytes_per_op = 0.0;
  // set-up split: scenario (Prepare, query rings) and broker (open, resolve).
  double setup_scenario_s = 0.0, setup_broker_s = 0.0;
  // tracing overhead: traced pass over untraced pass.
  double trace_ratio_cost = 0.0, trace_ratio_per_s = 0.0;

  /// Fills the process-counter rows from a region of `ops` ops.
  void SetProcPerOp(const ProcCounters& begin, const ProcCounters& end, double ops);
};
void Report(const Layers& layers, Result* result);

// ---------------------------------------------------------------------------
// Layer probes (layers.cc): the kernel and engine rows of the traced run.

struct KernelTimes {
  double support_ns = 0.0;
  double support_batch8_ns = 0.0;  ///< per query
  double cut_ns = 0.0;
};
/// Times the public Ellipsoid calls over `ring`'s feature vectors on a ball
/// of the workload's initial radius.
KernelTimes TimeKernels(const std::vector<pdm::MarketRound>& ring, int n,
                        double radius, double budget_s);

struct EngineTimes {
  double round_ns = 0.0;
  double cuts_per_round = 0.0;
};
/// Engine PostPrice + Observe with no broker, over each spec's ring.
EngineTimes TimeEngines(pdm::scenario::StreamFactory* factory,
                        const std::vector<pdm::scenario::ScenarioSpec>& specs,
                        const std::vector<std::vector<pdm::MarketRound>>& rings,
                        double budget_s);

/// The probes every traced run ends with, over the workload's own products:
/// the snapshot codec on `product`'s session, engines and kernels over
/// `rings` (kernels on the first), and a render of `registry`. Reports
/// snapshot.*, engine.round_ns, kernel.* and metrics.render_us, and returns
/// the engine times.
EngineTimes ProbeLayers(const pdm::broker::Broker& broker, const std::string& product,
                        const pdm::metrics::MetricRegistry& registry,
                        const std::vector<pdm::scenario::ScenarioSpec>& specs,
                        const std::vector<std::vector<pdm::MarketRound>>& rings, double budget_s,
                        Result* result);

// ---------------------------------------------------------------------------
// Workloads

void RunWirePipelined(const Options& options, Result* result);
void RunBrokerParallel(const Options& options, Result* result);
void RunFleetCold(const Options& options, Result* result);

}  // namespace pdmbench

#endif  // PDMBENCH_HARNESS_H_
