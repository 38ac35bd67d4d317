#ifndef PDM_MARKET_KERNEL_MARKET_H_
#define PDM_MARKET_KERNEL_MARKET_H_

#include <memory>

#include "learning/kernels.h"
#include "market/round.h"

/// \file
/// Kernelized market values (the fourth non-linear model of Section IV-A):
/// v_t = Σ_j θ*_j · K(x_t, l_j).
///
/// The paper's formulation expands over all past rounds (dimension grows with
/// t); the fixed-budget landmark substitution (learning/kernels.h) keeps the
/// weight dimension at m. Both the kernel K and the landmarks l_j are public
/// knowledge — only θ* over the kernel features is learned from price
/// feedback, exactly the Theorem 2 reduction.
///
/// This workload exercises a value surface that is *non-linear in the raw
/// features*: a plain linear engine on x is misspecified and plateaus at the
/// misspecification error, while the kernelized engine converges — the
/// comparison `pdm_run --scenarios=kernel` renders.

namespace pdm {

struct KernelMarketConfig {
  /// Raw feature dimension of a product.
  int input_dim = 4;
  /// Number of kernel landmarks m (the learned weight dimension).
  int num_landmarks = 10;
  /// RBF bandwidth γ in K(a,b) = exp(−γ‖a−b‖²).
  double rbf_gamma = 0.5;
  /// Reserve price as a fraction of market value (0 disables).
  double reserve_fraction = 0.6;
  /// Offset added so market values stay positive.
  double value_offset = 2.0;
};

class KernelQueryStream : public QueryStream {
 public:
  /// Draws landmarks (uniform in [−1,1]^d) and θ* (standard normal over the
  /// m kernel features) from `rng`.
  KernelQueryStream(const KernelMarketConfig& config, Rng* rng);

  using QueryStream::Next;
  void Next(Rng* rng, MarketRound* round) override;

  /// The public feature map φ(x) = (K(x, l_1), …, K(x, l_m)) the engine
  /// should price over.
  std::shared_ptr<const LandmarkKernelMap> feature_map() const { return map_; }

  /// True weights over the kernel features (plus the offset on the last
  /// slot, see implementation).
  const Vector& theta() const { return theta_; }

  /// Suggested initial knowledge radius 2‖θ*‖.
  double RecommendedRadius() const;

  const KernelMarketConfig& config() const { return config_; }

 private:
  KernelMarketConfig config_;
  std::shared_ptr<const LandmarkKernelMap> map_;
  Vector theta_;
  /// φ(x) scratch reused across rounds (kept out of MarketRound: the engine
  /// prices the *raw* features; φ is applied by its own feature map).
  Vector phi_scratch_;
};

}  // namespace pdm

#endif  // PDM_MARKET_KERNEL_MARKET_H_
