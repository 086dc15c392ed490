// Linear Threshold (LT) diffusion: the live-edge rule and the single-item
// spread simulator.
//
// The paper notes (§5) that all results carry over unchanged to any
// *triggering model*; LT is the canonical second instance. In live-edge
// form, each node independently selects at most one in-neighbor, choosing
// in-neighbor u of v with probability w(u,v) (and none with probability
// 1 − Σ_u w(u,v)); v is activated iff its selected in-neighbor is.
//
// Edge weights are read from the graph's probability field and must
// satisfy Σ_u w(u,v) <= 1 per node (the weighted-cascade assignment
// 1/din(v) satisfies this with equality). Live in-edges are sampled
// lazily, one per touched node per diffusion, so a run costs
// O(touched-state), mirroring the IC simulators. UIC dynamics over LT are
// `UicSimulator(graph, DiffusionModel::kLinearThreshold)` (uic_model.h),
// which draws live in-neighbors with the same `SampleLtLiveSource`.
#pragma once

#include <vector>

#include "common/random.h"
#include "graph/graph.h"

namespace uic {

/// Returned by `SampleLtLiveSource` when v selected no in-neighbor.
inline constexpr NodeId kNoLiveSource = ~NodeId{0};

/// Sample v's live in-neighbor from the LT live-edge distribution: pick
/// in-neighbor u with probability w(u,v), none (`kNoLiveSource`) with
/// probability 1 − Σ_u w(u,v).
NodeId SampleLtLiveSource(const Graph& graph, NodeId v, Rng& rng);

/// \brief Single-item LT spread simulator (live-edge formulation).
class LtSimulator {
 public:
  explicit LtSimulator(const Graph& graph);

  /// Run one diffusion; returns the number of activated nodes.
  size_t RunOnce(const std::vector<NodeId>& seeds, Rng& rng);

 private:
  /// Lazily sample v's live in-neighbor for the current run.
  /// Returns true and sets `*src` if v selected one.
  bool LiveInNeighbor(NodeId v, Rng& rng, NodeId* src);

  const Graph& graph_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> visited_epoch_;
  std::vector<uint32_t> live_epoch_;
  std::vector<NodeId> live_src_;     // sampled in-neighbor (or kNoLiveSource)
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_;
};

/// \brief Monte-Carlo LT spread estimate.
double EstimateSpreadLt(const Graph& graph, const std::vector<NodeId>& seeds,
                        size_t num_simulations, uint64_t seed,
                        unsigned workers = 0);

}  // namespace uic
