#include "metrics/metrics.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace pdm::metrics {

namespace internal {

uint32_t AssignThreadStripe() {
  static std::atomic<uint32_t> next{0};
  thread_stripe_plus_one =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes + 1;
  return thread_stripe_plus_one;
}

CounterCell* SinkCounterCell() {
  static CounterCell cell;
  return &cell;
}

GaugeCell* SinkGaugeCell() {
  static GaugeCell cell;
  return &cell;
}

HistogramCell* SinkHistogramCell() {
  static HistogramCell cell;  // zero-initialised .bss: no page is written
  return &cell;
}

}  // namespace internal

namespace {
// atomic_ref needs a mutable referent; the loads below never write.
template <typename T>
T LoadRelaxed(const T& v) {
  return std::atomic_ref<T>(const_cast<T&>(v)).load(std::memory_order_relaxed);
}
}  // namespace

int64_t HistogramCell::Count() const {
  int64_t total = 0;
  for (const Stripe& s : stripes) total += LoadRelaxed(s.count);
  return total;
}

uint64_t HistogramCell::Sum() const {
  uint64_t total = 0;
  for (const Stripe& s : stripes) total += LoadRelaxed(s.sum);
  return total;
}

uint64_t HistogramCell::SumBuckets(
    std::array<uint64_t, LatencyHistogram::kBucketCount>* out) const {
  out->fill(0);
  uint64_t total = 0;
  for (const Stripe& s : stripes) {
    if (LoadRelaxed(s.count) == 0) continue;
    for (size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
      uint64_t b = LoadRelaxed(s.buckets[i]);
      (*out)[i] += b;
      total += b;
    }
  }
  return total;
}

uint64_t Histogram::Quantile(double q) const {
  std::array<uint64_t, LatencyHistogram::kBucketCount> buckets;
  int64_t count = static_cast<int64_t>(cell_->SumBuckets(&buckets));
  if (count <= 0) return 0;
  int64_t rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(count)));
  rank = std::clamp<int64_t>(rank, 1, count);
  int64_t cumulative = 0;
  uint64_t floor = 0;
  for (size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    uint64_t b = buckets[i];
    if (b == 0) continue;
    cumulative += static_cast<int64_t>(b);
    floor = LatencyHistogram::BucketFloor(i);
    if (cumulative >= rank) return floor;
  }
  return floor;
}

MetricGateway* MetricGateway::Noop() {
  static NoopMetricGateway gateway;
  return &gateway;
}

MetricRegistry::~MetricRegistry() {
  for (HistogramCell* cell : histogram_cells_) {
    munmap(cell, sizeof(HistogramCell));
  }
}

MetricRegistry::Family* MetricRegistry::FindOrCreateFamily(
    std::string_view name, std::string_view help, InstrumentType type) {
  for (Family& family : families_) {
    if (family.name == name) {
      // Re-registering a name as a different type is a wiring bug, not a
      // runtime condition.
      PDM_CHECK(family.type == type);
      return &family;
    }
  }
  Family family;
  family.name = std::string(name);
  family.help = std::string(help);
  family.type = type;
  families_.push_back(std::move(family));
  return &families_.back();
}

MetricRegistry::Instrument* MetricRegistry::FindOrCreateInstrument(
    Family* family, std::vector<Label> labels) {
  for (Instrument& instrument : family->instruments) {
    if (instrument.labels == labels) return &instrument;
  }
  Instrument instrument;
  instrument.labels = std::move(labels);
  family->instruments.push_back(std::move(instrument));
  return &family->instruments.back();
}

Counter MetricRegistry::GetCounter(std::string_view name, std::string_view help,
                                   std::vector<Label> labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FindOrCreateFamily(name, help, InstrumentType::kCounter);
  Instrument* instrument = FindOrCreateInstrument(family, std::move(labels));
  if (instrument->counter == nullptr) {
    instrument->counter = &counter_cells_.emplace_back();
  }
  return Counter(instrument->counter);
}

Gauge MetricRegistry::GetGauge(std::string_view name, std::string_view help,
                               std::vector<Label> labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FindOrCreateFamily(name, help, InstrumentType::kGauge);
  Instrument* instrument = FindOrCreateInstrument(family, std::move(labels));
  if (instrument->gauge == nullptr) {
    instrument->gauge = &gauge_cells_.emplace_back();
  }
  return Gauge(instrument->gauge);
}

Histogram MetricRegistry::GetHistogram(std::string_view name,
                                       std::string_view help,
                                       std::vector<Label> labels) {
  std::lock_guard<std::mutex> lock(mu_);
  Family* family = FindOrCreateFamily(name, help, InstrumentType::kHistogram);
  Instrument* instrument = FindOrCreateInstrument(family, std::move(labels));
  if (instrument->histogram == nullptr) {
    // Fresh anonymous pages read as zero, which is an empty HistogramCell;
    // nothing writes them until a Record does.
    void* pages = mmap(nullptr, sizeof(HistogramCell), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    PDM_CHECK(pages != MAP_FAILED);
    // Keep THP=always hosts from backing sparse bucket writes with 2 MiB.
    madvise(pages, sizeof(HistogramCell), MADV_NOHUGEPAGE);
    histogram_cells_.push_back(static_cast<HistogramCell*>(pages));
    instrument->histogram = histogram_cells_.back();
  }
  return Histogram(instrument->histogram);
}

const DumpInstrument* MetricsDump::Find(std::string_view name) const {
  for (const DumpInstrument& instrument : instruments) {
    if (instrument.name == name && instrument.labels.empty()) {
      return &instrument;
    }
  }
  return nullptr;
}

const DumpInstrument* MetricsDump::Find(std::string_view name,
                                        std::string_view label,
                                        std::string_view value) const {
  for (const DumpInstrument& instrument : instruments) {
    if (instrument.name != name) continue;
    for (const Label& l : instrument.labels) {
      if (l.name == label && l.value == value) return &instrument;
    }
  }
  return nullptr;
}

uint64_t MetricsDump::CounterValue(std::string_view name) const {
  const DumpInstrument* instrument = Find(name);
  return instrument != nullptr ? instrument->counter : 0;
}

uint64_t DumpInstrument::HistogramQuantile(double q) const {
  if (hist_count <= 0) return 0;
  int64_t rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(hist_count)));
  rank = std::clamp<int64_t>(rank, 1, hist_count);
  int64_t cumulative = 0;
  uint64_t floor = 0;
  for (const auto& [index, count] : hist_buckets) {
    cumulative += static_cast<int64_t>(count);
    floor = LatencyHistogram::BucketFloor(index);
    if (cumulative >= rank) return floor;
  }
  return floor;
}

}  // namespace pdm::metrics
