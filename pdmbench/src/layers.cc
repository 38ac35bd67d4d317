// Layer probes for the traced run: the ellipsoid/linalg kernel rows and the
// pricing-engine row, each timed through the layer's public API with no
// broker in between, replaying the workload's own query ring; the snapshot
// codec on one of the workload's sessions; and a render of its registry.

#include <algorithm>
#include <memory>

#include "broker/snapshot.h"
#include "ellipsoid/ellipsoid.h"
#include "harness.h"
#include "pricing/pricing_engine.h"

namespace pdmbench {

namespace {

/// Keeps results observable so the timed calls cannot be elided.
volatile double g_sink = 0.0;

}  // namespace

KernelTimes TimeKernels(const std::vector<pdm::MarketRound>& ring, int n,
                        double radius, double budget_s) {
  const pdm::Ellipsoid base = pdm::Ellipsoid::Ball(n, radius);
  const size_t queries = ring.size();
  const uint64_t slice_ns = static_cast<uint64_t>(budget_s * 1e9 / 3.0);
  KernelTimes times;

  {  // Support, one query at a time.
    pdm::SupportInterval out;
    uint64_t calls = 0, elapsed = 0;
    double sink = 0.0;
    while (elapsed < slice_ns) {
      uint64_t t0 = NowNs();
      for (const pdm::MarketRound& round : ring) {
        base.Support(round.features, &out);
        sink += out.midpoint;
      }
      elapsed += NowNs() - t0;
      calls += queries;
    }
    g_sink = sink;
    times.support_ns = static_cast<double>(elapsed) / static_cast<double>(calls);
  }

  {  // SupportBatch over 8-query panels.
    constexpr int kBatch = 8;
    const size_t panels = queries / kBatch;
    std::vector<double> panel(panels * kBatch * static_cast<size_t>(n));
    for (size_t q = 0; q < panels * kBatch; ++q) {
      std::copy(ring[q].features.begin(), ring[q].features.end(),
                panel.begin() + static_cast<ptrdiff_t>(q * static_cast<size_t>(n)));
    }
    std::vector<pdm::SupportInterval> out(kBatch);
    uint64_t calls = 0, elapsed = 0;
    double sink = 0.0;
    while (elapsed < slice_ns) {
      uint64_t t0 = NowNs();
      for (size_t p = 0; p < panels; ++p) {
        base.SupportBatch(panel.data() + p * kBatch * static_cast<size_t>(n), kBatch,
                          out.data());
        sink += out[0].midpoint;
      }
      elapsed += NowNs() - t0;
      calls += panels * kBatch;
    }
    g_sink = sink;
    times.support_batch8_ns = static_cast<double>(elapsed) / static_cast<double>(calls);
  }

  {  // Central cuts on the current support, restarting from the ball every
     // 32 cuts so the shape stays well conditioned. The cut row is the
     // (support + cut) time minus the support row.
    constexpr size_t kChain = 32;
    pdm::Ellipsoid e = base;
    pdm::SupportInterval s;
    uint64_t calls = 0, elapsed = 0;
    size_t cursor = 0;
    while (elapsed < slice_ns) {
      e = base;
      uint64_t t0 = NowNs();
      for (size_t k = 0; k < kChain; ++k) {
        const pdm::MarketRound& round = ring[cursor];
        cursor = cursor + 1 == queries ? 0 : cursor + 1;
        e.Support(round.features, &s);
        if (round.value < s.midpoint) {
          e.CutKeepBelow(s, 0.0);
        } else {
          e.CutKeepAbove(s, 0.0);
        }
      }
      elapsed += NowNs() - t0;
      calls += kChain;
    }
    g_sink = e.center()[0];
    times.cut_ns =
        static_cast<double>(elapsed) / static_cast<double>(calls) - times.support_ns;
  }
  return times;
}

EngineTimes TimeEngines(pdm::scenario::StreamFactory* factory,
                        const std::vector<pdm::scenario::ScenarioSpec>& specs,
                        const std::vector<std::vector<pdm::MarketRound>>& rings,
                        double budget_s) {
  const uint64_t slice_ns =
      static_cast<uint64_t>(budget_s * 1e9 / static_cast<double>(specs.size()));
  double ns_sum = 0.0;
  int64_t rounds = 0, cuts = 0;
  for (size_t i = 0; i < specs.size(); ++i) {
    pdm::scenario::WorkloadInfo info = factory->Prepare(specs[i]);
    std::unique_ptr<pdm::PricingEngine> engine =
        pdm::scenario::MechanismRegistry::Builtin().Build(specs[i], info);
    uint64_t calls = 0, elapsed = 0;
    while (elapsed < slice_ns) {
      uint64_t t0 = NowNs();
      for (const pdm::MarketRound& round : rings[i]) {
        pdm::PostedPrice posted = engine->PostPrice(round.features, round.reserve);
        engine->Observe(Accepts(posted.price, posted.certain_no_sale, round));
      }
      elapsed += NowNs() - t0;
      calls += rings[i].size();
    }
    ns_sum += static_cast<double>(elapsed) / static_cast<double>(calls);
    rounds += engine->counters().rounds;
    cuts += engine->counters().cuts_applied;
  }
  EngineTimes times;
  times.round_ns = ns_sum / static_cast<double>(specs.size());
  times.cuts_per_round = rounds > 0 ? static_cast<double>(cuts) / static_cast<double>(rounds)
                                    : 0.0;
  return times;
}

EngineTimes ProbeLayers(const pdm::broker::Broker& broker, const std::string& product,
                        const pdm::metrics::MetricRegistry& registry,
                        const std::vector<pdm::scenario::ScenarioSpec>& specs,
                        const std::vector<std::vector<pdm::MarketRound>>& rings, double budget_s,
                        Result* result) {
  pdm::broker::SessionSnapshot snapshot;
  const pdm::Status snapshotted = broker.Snapshot(product, &snapshot);
  result->Check(snapshotted.ok(), "snapshot: " + snapshotted.ToString());
  Samples encode_us, decode_us;
  std::string bytes;
  for (int i = 0; i < 200; ++i) {
    uint64_t start = NowNs();
    bytes = pdm::broker::EncodeSessionSnapshotV2(snapshot);
    encode_us.Add(1e-3 * static_cast<double>(NowNs() - start));
    pdm::broker::SessionSnapshot decoded;
    start = NowNs();
    const pdm::Status decoded_ok = pdm::broker::DecodeSessionSnapshot(bytes, &decoded);
    decode_us.Add(1e-3 * static_cast<double>(NowNs() - start));
    if (!decoded_ok.ok()) result->Check(false, "snapshot decode: " + decoded_ok.ToString());
  }
  result->Metric("snapshot.encode_us", encode_us.Quantile(0.5), "us");
  result->Metric("snapshot.decode_us", decode_us.Quantile(0.5), "us");
  result->Metric("snapshot.bytes", static_cast<double>(bytes.size()), "bytes");

  pdm::scenario::StreamFactory factory;
  const EngineTimes engine = TimeEngines(&factory, specs, rings, budget_s / 2);
  const pdm::scenario::WorkloadInfo info = factory.Prepare(specs[0]);
  const KernelTimes kernel =
      TimeKernels(rings[0], specs[0].n, info.initial_radius, budget_s / 2);
  result->Metric("engine.round_ns", engine.round_ns, "ns");
  result->Metric("kernel.support_ns", kernel.support_ns, "ns");
  result->Metric("kernel.support_batch8_ns", kernel.support_batch8_ns, "ns");
  result->Metric("kernel.cut_ns", kernel.cut_ns, "ns");
  result->Metric("kernel.share",
                 (kernel.support_ns + engine.cuts_per_round * kernel.cut_ns) / engine.round_ns,
                 "ratio");

  Samples render_us;
  std::string text;
  for (int i = 0; i < 50; ++i) {
    text.clear();
    const uint64_t t0 = NowNs();
    registry.RenderPrometheus(&text);
    render_us.Add(1e-3 * static_cast<double>(NowNs() - t0));
  }
  result->Metric("metrics.render_us", render_us.Quantile(0.5), "us");
  return engine;
}

}  // namespace pdmbench
