// Classic single-item Independent Cascade (IC) simulation (§2.1).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "graph/graph.h"
#include "graph/sampling_plan.h"

namespace uic {

/// \brief Reusable IC forward simulator (buffers amortized across runs).
///
/// Out-edges are drawn through a forward-direction `SamplingPlan`
/// (kIcBuckets), which picks per node between per-edge trials and
/// geometric skips (graph/sampling_plan.h). A supplied plan must be built
/// for this graph and outlive the simulator; with `plan == nullptr` the
/// simulator builds its own.
class IcSimulator {
 public:
  explicit IcSimulator(const Graph& graph,
                       const SamplingPlan* plan = nullptr);

  /// Run one cascade from `seeds`; returns the number of activated nodes.
  /// If `activated_out` is non-null it receives the activated node list.
  size_t RunOnce(const std::vector<NodeId>& seeds, Rng& rng,
                 std::vector<NodeId>* activated_out = nullptr);

 private:
  void TryActivate(NodeId v, std::vector<NodeId>* activated_out,
                   size_t* activated);

  std::shared_ptr<const SamplingPlan> owned_plan_;
  const SamplingPlan* plan_;
  std::vector<uint32_t> visited_epoch_;
  uint32_t epoch_ = 0;
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_;
};

/// \brief Monte-Carlo estimate of the influence spread σ(S).
///
/// Runs `num_simulations` cascades on the fixed stream grid (independent
/// deterministic RNG streams derived from `seed`, every stream sampling
/// through one shared forward plan); the result depends on `seed` alone,
/// `workers` only bounds concurrency.
double EstimateSpread(const Graph& graph, const std::vector<NodeId>& seeds,
                      size_t num_simulations, uint64_t seed,
                      unsigned workers = 0);

}  // namespace uic
