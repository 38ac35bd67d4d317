#ifndef PDM_PRICING_ENGINE_STATE_H_
#define PDM_PRICING_ENGINE_STATE_H_

#include <cstdint>
#include <string>

#include "ellipsoid/ellipsoid.h"
#include "linalg/matrix.h"
#include "linalg/vector_ops.h"
#include "pricing/pricing_engine.h"

/// \file
/// Externalized engine state for the serving layer (DESIGN.md §9).
///
/// The Fig. 2 protocol binds PostPrice and Observe into a strict
/// alternation because the knowledge-set update needs the *posting-time*
/// context of the round being answered (the support interval the ellipsoid
/// engine probed, the feature scalar of the 1-d engine). A serving broker
/// cannot hold an engine hostage to that alternation: feedback arrives late,
/// out of order across products, and in batches. These two value types break
/// the coupling:
///
///  - `PendingCut` is the posting-time cut context of one quoted round,
///    detached from the engine right after PostPrice (PricingEngine::
///    DetachPending) and re-injected when that round's feedback finally
///    arrives (ObserveDetached). Detach-then-observe immediately is
///    bit-identical to the classic Observe call.
///  - `EngineSnapshot` is the full persistent state of an engine between
///    rounds — knowledge set, effective threshold, counters — used by the
///    broker's session checkpoint/migration path.
///
/// Both structs reuse their vector buffers on assignment, so a broker that
/// recycles `PendingCut` slots keeps the steady-state zero-allocation
/// guarantee of DESIGN.md §6.

namespace pdm {

/// Posting-time feedback context of one round, detached from the engine so
/// the accept/reject bit can be applied later (and interleaved with other
/// rounds' contexts). Which fields are meaningful depends on the engine
/// family; `kind` is the engine's own PendingKind encoding and is only ever
/// round-tripped back into the engine that produced it.
struct PendingCut {
  /// Engine-specific pending-round kind (0 = none/idle).
  int kind = 0;
  /// The posted (z-space, for wrapped engines) price of the round.
  double price = 0.0;
  /// 1-d engines: the pending feature scalar x_t.
  double x = 0.0;
  /// Generalized adapter: the round was short-circuited by the link range
  /// check and never reached the base engine.
  bool wrapped_skip = false;
  /// Ellipsoid engines: the support interval probed at posting time. Its
  /// `direction` buffer is reused across slot recycles.
  SupportInterval support;
};

/// Full serializable state of a pricing engine between rounds. One flat
/// struct covers every built-in family; `engine` tags which fields are live
/// ("ellipsoid", "interval", "baseline", or "generalized(<base>)" for the
/// link/feature-map adapter, whose own wrapper adds no persistent state).
struct EngineSnapshot {
  /// Engine family tag; LoadSnapshot refuses a mismatched tag.
  std::string engine;
  /// Engine (z-space) dimension.
  int dim = 0;
  /// Effective exploration threshold ε in use (after defaulting).
  double epsilon = 0.0;
  /// Uncertainty buffer δ.
  double delta = 0.0;
  /// Ellipsoid state: center c_t and shape A_t of the knowledge set (the
  /// dense mirror of the packed triangle), plus the cut count mod 32 that
  /// the format has carried since dense storage re-symmetrized on that
  /// schedule (Ellipsoid::cuts_since_symmetrize) — restoring it keeps a
  /// restored blob's re-encode byte-exact.
  Vector center;
  Matrix shape{0, 0};
  int cuts_since_symmetrize = 0;
  /// Interval (1-d) state: K_t = [lo, hi].
  double lo = 0.0;
  double hi = 0.0;
  EngineCounters counters;
};

}  // namespace pdm

#endif  // PDM_PRICING_ENGINE_STATE_H_
