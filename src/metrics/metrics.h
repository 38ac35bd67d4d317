#ifndef PDM_METRICS_METRICS_H_
#define PDM_METRICS_METRICS_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/concurrency.h"
#include "common/histogram.h"
#include "common/status.h"

/// \file
/// Allocation-free serving metrics (DESIGN.md §13).
///
/// The layer splits into three pieces:
///
///   * **Cells** — `CounterCell`, `GaugeCell` and `HistogramCell` hold the
///     state, striped `kStripes` ways: each stripe sits on its own cache
///     line, and each thread writes only the stripe it was assigned
///     (round-robin, on its first write). Writers on different threads thus
///     touch different lines, and readers (`value()`, `count()`, `sum()`,
///     `Quantile()`, the Prometheus render and the binary dump) sum the
///     stripes. `Gauge::Set` stores into stripe 0 and zeroes the others, so
///     it reads back exactly on a gauge no other thread is adding to. A
///     histogram cell reuses `LatencyHistogram`'s log-linear bucket
///     geometry so scraped quantiles line up with the bench JSON quantiles
///     bit for bit.
///   * **Handles** — `Counter` / `Gauge` / `Histogram` are one-pointer
///     wrappers resolved once at wiring time. `Increment`/`Add`/`Record` on
///     the hot path are relaxed atomic RMWs on the caller's own stripe: no
///     allocation, no lock, no contended line. A default-constructed handle
///     points at a process-wide *sink* cell, so unwired code pays the same
///     (tiny) cost as wired code instead of branching on null.
///   * **Gateway** — `MetricGateway` is the abstract wiring surface
///     (coincenter-style abstract/void/live split). `NoopMetricGateway`
///     hands out sink-backed handles; `MetricRegistry` is the live
///     implementation that names instruments, renders Prometheus text
///     exposition format, and encodes the `pdm.metrics.v1` binary dump the
///     wire protocol's `GetMetrics` opcode returns.
///
/// Memory: a counter or gauge cell is `kStripes` cache lines (1 KiB). A
/// histogram cell is ~313 KiB of address space, but the registry maps it as
/// untouched zero pages, so it costs resident memory only for the pages its
/// writers touch.
///
/// Instruments are identified by (family name, label set). Lookups are
/// idempotent: asking twice for the same instrument returns handles on the
/// same cell, which is how readers (shutdown stats, tests) observe what the
/// hot path wrote without side plumbing.

namespace pdm::metrics {

// ---------------------------------------------------------------------------
// Cells

/// Stripes per cell. Up to `kStripes` writing threads get a stripe each;
/// further threads share stripes round-robin (still exact — every stripe op
/// is atomic — just contended again).
inline constexpr size_t kStripes = 16;

namespace internal {
/// Assigns the calling thread its stripe and returns it plus one.
uint32_t AssignThreadStripe();
/// The calling thread's stripe plus one; 0 until its first write.
inline thread_local uint32_t thread_stripe_plus_one = 0;

inline size_t ThreadStripe() {
  uint32_t stripe = thread_stripe_plus_one;
  if (stripe == 0) [[unlikely]] stripe = AssignThreadStripe();
  return stripe - 1;
}
}  // namespace internal

struct CounterCell {
  struct alignas(kCacheLineSize) Stripe {
    std::atomic<uint64_t> value{0};
  };
  Stripe stripes[kStripes];

  void Add(uint64_t n) {
    stripes[internal::ThreadStripe()].value.fetch_add(
        n, std::memory_order_relaxed);
  }
  uint64_t Sum() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }
};

struct GaugeCell {
  struct alignas(kCacheLineSize) Stripe {
    std::atomic<double> value{0.0};
  };
  Stripe stripes[kStripes];

  void Add(double delta) {
    stripes[internal::ThreadStripe()].value.fetch_add(
        delta, std::memory_order_relaxed);
  }
  /// Stripe 0 takes `v`, the rest are zeroed. Exact only when no other
  /// thread is adding concurrently.
  void Set(double v) {
    for (size_t s = 1; s < kStripes; ++s) {
      stripes[s].value.store(0.0, std::memory_order_relaxed);
    }
    stripes[0].value.store(v, std::memory_order_relaxed);
  }
  double Sum() const {
    double total = stripes[0].value.load(std::memory_order_relaxed);
    for (size_t s = 1; s < kStripes; ++s) {
      // Skipping zero stripes keeps a Set value bit-exact (-0.0 + 0.0
      // would read back as +0.0).
      double v = stripes[s].value.load(std::memory_order_relaxed);
      if (v != 0.0) total += v;
    }
    return total;
  }
};

/// Striped atomic counterpart of `LatencyHistogram`: per stripe, the same
/// log-linear bucket grid plus an exact count and nanosecond sum. Record is
/// three relaxed fetch_adds (bucket, count, sum) on the caller's stripe.
///
/// The fields are plain integers, accessed only through `std::atomic_ref`,
/// so the cell is trivially constructible: the registry hands out fresh
/// zero pages and no constructor writes them (a `std::atomic` member would
/// value-initialise all `kStripes` × 2496 buckets).
struct HistogramCell {
  struct alignas(kCacheLineSize) Stripe {
    int64_t count;
    uint64_t sum;
    uint64_t buckets[LatencyHistogram::kBucketCount];
  };
  Stripe stripes[kStripes];

  void Record(uint64_t nanos) {
    Stripe& s = stripes[internal::ThreadStripe()];
    std::atomic_ref(s.buckets[LatencyHistogram::BucketIndex(nanos)])
        .fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref(s.count).fetch_add(1, std::memory_order_relaxed);
    std::atomic_ref(s.sum).fetch_add(nanos, std::memory_order_relaxed);
  }
  int64_t Count() const;
  uint64_t Sum() const;
  /// Writes the per-bucket totals over all stripes into `out` and returns
  /// their sum. Stripes that never counted a sample are not read, so a
  /// scrape faults in no page of an unwritten stripe.
  uint64_t SumBuckets(
      std::array<uint64_t, LatencyHistogram::kBucketCount>* out) const;
};

namespace internal {
/// Process-wide sink cells backing default-constructed handles. Writing to
/// a sink is defined and cheap; reading one is meaningless.
CounterCell* SinkCounterCell();
GaugeCell* SinkGaugeCell();
HistogramCell* SinkHistogramCell();
}  // namespace internal

// ---------------------------------------------------------------------------
// Handles

/// Monotonic counter. Copyable, trivially destructible, default = no-op sink.
class Counter {
 public:
  Counter() : cell_(internal::SinkCounterCell()) {}
  explicit Counter(CounterCell* cell) : cell_(cell) {}

  void Increment() { cell_->Add(1); }
  void Add(uint64_t n) { cell_->Add(n); }
  uint64_t value() const { return cell_->Sum(); }

 private:
  CounterCell* cell_;
};

/// Double gauge. Add/Sub deltas from any thread merge exactly when they are
/// integral (sums of stripes are otherwise exact only up to rounding); Set
/// is last-write-wins for a gauge no other thread is adding to.
class Gauge {
 public:
  Gauge() : cell_(internal::SinkGaugeCell()) {}
  explicit Gauge(GaugeCell* cell) : cell_(cell) {}

  void Set(double v) { cell_->Set(v); }
  void Add(double delta) { cell_->Add(delta); }
  void Sub(double delta) { cell_->Add(-delta); }
  double value() const { return cell_->Sum(); }

 private:
  GaugeCell* cell_;
};

/// Log-linear histogram handle (`HistogramMetric` in the DESIGN.md naming:
/// the instrument type wrapping `common/histogram`'s bucket geometry).
class Histogram {
 public:
  Histogram() : cell_(internal::SinkHistogramCell()) {}
  explicit Histogram(HistogramCell* cell) : cell_(cell) {}

  void Record(uint64_t nanos) { cell_->Record(nanos); }
  int64_t count() const { return cell_->Count(); }
  uint64_t sum() const { return cell_->Sum(); }
  /// Conservative q-quantile over the relaxed bucket snapshot (same contract
  /// as LatencyHistogram::Quantile). 0 when empty.
  uint64_t Quantile(double q) const;

 private:
  HistogramCell* cell_;
};

using HistogramMetric = Histogram;

// ---------------------------------------------------------------------------
// Gateway

struct Label {
  std::string name;
  std::string value;

  friend bool operator==(const Label& a, const Label& b) {
    return a.name == b.name && a.value == b.value;
  }
};

/// Abstract wiring surface. Layers take a `MetricGateway*` (null treated as
/// no-op) and resolve their instrument handles once at construction; after
/// that the gateway is never consulted again, so the hot path is identical
/// whether the process wired a live registry or nothing at all.
class MetricGateway {
 public:
  virtual ~MetricGateway() = default;

  virtual Counter GetCounter(std::string_view name, std::string_view help,
                             std::vector<Label> labels) = 0;
  virtual Gauge GetGauge(std::string_view name, std::string_view help,
                         std::vector<Label> labels) = 0;
  virtual Histogram GetHistogram(std::string_view name, std::string_view help,
                                 std::vector<Label> labels) = 0;

  Counter GetCounter(std::string_view name, std::string_view help) {
    return GetCounter(name, help, {});
  }
  Gauge GetGauge(std::string_view name, std::string_view help) {
    return GetGauge(name, help, {});
  }
  Histogram GetHistogram(std::string_view name, std::string_view help) {
    return GetHistogram(name, help, {});
  }

  /// Process-wide no-op gateway; the conventional default for a null
  /// `MetricGateway*` config field.
  static MetricGateway* Noop();
};

/// Hands out sink-backed handles: every instrument aliases the same sink
/// cell per type, so wiring against it costs nothing and records nothing.
class NoopMetricGateway : public MetricGateway {
 public:
  Counter GetCounter(std::string_view, std::string_view,
                     std::vector<Label>) override {
    return Counter();
  }
  Gauge GetGauge(std::string_view, std::string_view,
                 std::vector<Label>) override {
    return Gauge();
  }
  Histogram GetHistogram(std::string_view, std::string_view,
                         std::vector<Label>) override {
    return Histogram();
  }
};

enum class InstrumentType : uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

/// Live registry. Registration (GetCounter/...) takes a mutex and may
/// allocate; it happens once at wiring time. Reads for rendering/encoding
/// take the same mutex for the *structure* only — cell values are read with
/// relaxed atomics, so concurrent hot-path writers are never blocked.
/// Histogram cells are anonymous mappings, unmapped by the destructor.
class MetricRegistry : public MetricGateway {
 public:
  MetricRegistry() = default;
  ~MetricRegistry() override;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  Counter GetCounter(std::string_view name, std::string_view help,
                     std::vector<Label> labels) override;
  Gauge GetGauge(std::string_view name, std::string_view help,
                 std::vector<Label> labels) override;
  Histogram GetHistogram(std::string_view name, std::string_view help,
                         std::vector<Label> labels) override;
  using MetricGateway::GetCounter;
  using MetricGateway::GetGauge;
  using MetricGateway::GetHistogram;

  /// Appends the registry in Prometheus text exposition format 0.0.4
  /// (`# HELP`/`# TYPE` headers, escaped help/label text, histograms as
  /// cumulative `_bucket{le=...}`/`_sum`/`_count` series rendered at the
  /// log-linear grid's occupied octave edges).
  void RenderPrometheus(std::string* out) const;
  std::string RenderPrometheus() const;

  /// Encodes the `pdm.metrics.v1` binary dump (the `GetMetrics` opcode
  /// payload). Self-describing: magic, version, then every instrument with
  /// name/labels/type and its current value(s).
  std::string EncodeDump() const;

 private:
  struct Instrument {
    std::vector<Label> labels;
    CounterCell* counter = nullptr;
    GaugeCell* gauge = nullptr;
    HistogramCell* histogram = nullptr;
  };
  struct Family {
    std::string name;
    std::string help;
    InstrumentType type;
    std::vector<Instrument> instruments;
  };

  Family* FindOrCreateFamily(std::string_view name, std::string_view help,
                             InstrumentType type);
  Instrument* FindOrCreateInstrument(Family* family, std::vector<Label> labels);

  mutable std::mutex mu_;
  std::vector<Family> families_;  // registration order = render order
  // Deques: grow without moving, so handed-out cell pointers stay stable.
  std::deque<CounterCell> counter_cells_;
  std::deque<GaugeCell> gauge_cells_;
  std::vector<HistogramCell*> histogram_cells_;  // one mapping each
};

// ---------------------------------------------------------------------------
// pdm.metrics.v1 dump decoding (client side of the GetMetrics opcode)

struct DumpInstrument {
  std::string name;
  std::vector<Label> labels;
  InstrumentType type = InstrumentType::kCounter;
  uint64_t counter = 0;
  double gauge = 0.0;
  int64_t hist_count = 0;
  uint64_t hist_sum = 0;
  /// Sparse (bucket index, count) pairs on the LatencyHistogram grid.
  std::vector<std::pair<uint32_t, uint64_t>> hist_buckets;

  /// Conservative quantile over hist_buckets (histogram instruments only).
  uint64_t HistogramQuantile(double q) const;
};

struct MetricsDump {
  std::vector<DumpInstrument> instruments;

  /// First instrument of `name` with no labels, or nullptr.
  const DumpInstrument* Find(std::string_view name) const;
  /// First instrument of `name` carrying `label == value`, or nullptr.
  const DumpInstrument* Find(std::string_view name, std::string_view label,
                             std::string_view value) const;
  /// Counter value of the unlabeled instrument `name` (0 when absent).
  uint64_t CounterValue(std::string_view name) const;
};

Status DecodeMetricsDump(std::string_view bytes, MetricsDump* out);

}  // namespace pdm::metrics

#endif  // PDM_METRICS_METRICS_H_
