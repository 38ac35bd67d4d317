#ifndef PDM_MARKET_ADVERSARIAL_H_
#define PDM_MARKET_ADVERSARIAL_H_

#include <cstdint>

#include "market/round.h"

/// \file
/// The Lemma 8 adversary (Appendix, Fig. 6): why conservative prices must
/// not cut the ellipsoid.
///
/// Phase 1 (rounds 1..⌊T/2⌋): every query probes the first coordinate
/// (x = e₁) and the adversary sets the reserve to the engine's current
/// mid-price. An engine that (unsafely) cuts on conservative feedback keeps
/// halving the e₁ width; each such Löwner–John update *expands* every other
/// axis by n/√(n²−1), so the e₂ width grows exponentially.
/// Phase 2 (remaining rounds): queries probe e₂ with no reserve. The safe
/// engine still has an O(1)-width knowledge set along e₂ and pays polylog
/// regret; the unsafe engine must bisect an exponentially inflated width,
/// paying Ω(T) regret. `pdm_run --scenarios=lemma8` reproduces the
/// separation.

namespace pdm {

struct AdversarialStreamConfig {
  /// Dimension n ≥ 2. Lemma 8 uses R = 1, S = 1.
  int dim = 2;
  /// Total horizon T (phase 1 is ⌊T/2⌋ rounds).
  int64_t horizon = 1000;
  /// θ* components along e₁/e₂; must keep ‖θ*‖ ≤ 1.
  double theta1 = 0.3;
  double theta2 = 0.8;
};

class AdversarialQueryStream : public QueryStream {
 public:
  explicit AdversarialQueryStream(const AdversarialStreamConfig& config);

  using QueryStream::Next;
  void Next(Rng* rng, MarketRound* round) override;
  void BindEngine(const PricingEngine* engine) override { engine_ = engine; }

  int64_t phase_one_rounds() const { return config_.horizon / 2; }

 private:
  AdversarialStreamConfig config_;
  const PricingEngine* engine_ = nullptr;
  int64_t round_index_ = 0;
};

}  // namespace pdm

#endif  // PDM_MARKET_ADVERSARIAL_H_
