// The Utility-driven Independent Cascade (UIC) diffusion model (§3.2).
//
// A UIC diffusion proceeds as follows (Fig. 1):
//   * The per-item noise terms are sampled once at the start, fixing the
//     utility of every itemset for the whole diffusion (a *noise world*).
//   * At t=1 each seed node desires its allocated items and adopts the
//     utility-maximizing subset (ties → larger cardinality / union).
//   * At t>1, every node that adopted new items at t−1 tests its untested
//     out-edges (liveness sampled once, remembered for the whole
//     diffusion); live edges add the sender's adopted items to the
//     receiver's desire set, and the receiver adopts the utility-maximizing
//     superset of its current adoption within its desire set.
//   * Both desire and adoption are progressive (never shrink).
//
// The adoption rules and guarantees hold for any triggering model (§5);
// only the edge rule differs. Under IC edge (u,v) is live w.p. p_uv; under
// LT v selects at most one live in-neighbor (see lt_model.h).
#pragma once

#include <span>
#include <vector>

#include "common/random.h"
#include "diffusion/allocation.h"
#include "graph/graph.h"
#include "items/utility_table.h"

namespace uic {

/// \brief Outcome of one UIC diffusion in one possible world.
struct UicOutcome {
  /// Sum of adopters' utilities Σ_v U_w(A_v) in this world.
  double welfare = 0.0;
  /// Number of nodes that adopted at least one item.
  size_t num_adopters = 0;
  /// Total item adoptions Σ_v |A_v|.
  size_t num_adoptions = 0;
};

/// Propagation model (UIC results hold for any triggering model, §5; IC
/// and LT are provided).
enum class DiffusionModel { kIndependentCascade, kLinearThreshold };

/// \brief Reusable UIC forward simulator under IC or LT propagation.
///
/// All state is per node and epoch-stamped: construction is O(n), and a
/// run costs O(touched nodes + Σ out-degree of adopters).
class UicSimulator {
 public:
  explicit UicSimulator(
      const Graph& graph,
      DiffusionModel model = DiffusionModel::kIndependentCascade);

  /// Run one diffusion under a fixed noise world (`utilities`) with fresh
  /// edge randomness from `rng`. Returns aggregate outcome.
  UicOutcome Run(const Allocation& allocation, const UtilityTable& utilities,
                 Rng& rng);

  /// As Run(), but also exposes per-node final adoption sets for the nodes
  /// that adopted anything (pairs of node → itemset).
  UicOutcome RunDetailed(const Allocation& allocation,
                         const UtilityTable& utilities, Rng& rng,
                         std::vector<std::pair<NodeId, ItemSet>>* adoptions);

 private:
  template <DiffusionModel kModel>
  UicOutcome RunModel(const Allocation& allocation,
                      const UtilityTable& utilities, Rng& rng,
                      std::vector<std::pair<NodeId, ItemSet>>* adoptions);

  /// IC: u's live out-neighbors in the current diffusion. The first call
  /// per diffusion flips each out-edge's coin in CSR order and keeps the
  /// live targets; later calls replay them without drawing. The span
  /// points into `live_` and is valid until the next LiveOut call.
  std::span<const NodeId> LiveOut(NodeId u, Rng& rng);

  /// LT: v's one live in-neighbor (or kNoLiveSource) in the current
  /// diffusion, drawn on first contact.
  NodeId LiveSource(NodeId v, Rng& rng);

  /// Deliver `send` along a live edge to v; v re-optimizes its adoption
  /// and joins the next frontier if it grew.
  void Receive(NodeId v, ItemSet send, const UtilityTable& utilities);

  /// First contact with v in this diffusion: reset its state and record
  /// it in `touched_`.
  void Touch(NodeId v) {
    if (node_epoch_[v] != epoch_) {
      node_epoch_[v] = epoch_;
      desire_[v] = kEmptyItemSet;
      adoption_[v] = kEmptyItemSet;
      touched_.push_back(v);
    }
  }

  /// Where u's live out-neighbors sit in `live_` (valid when epoch matches).
  struct LiveSlice {
    uint32_t epoch = 0;
    uint32_t size = 0;
    size_t begin = 0;
  };

  const Graph& graph_;
  const DiffusionModel model_;
  uint32_t epoch_ = 0;
  std::vector<uint32_t> node_epoch_;
  std::vector<ItemSet> desire_;
  std::vector<ItemSet> adoption_;
  // IC: per-node slice into the run's arena of live out-neighbors.
  std::vector<LiveSlice> live_out_;
  std::vector<NodeId> live_;
  // LT: per-node memo of the one live in-neighbor, indexed by receiver.
  std::vector<uint32_t> source_epoch_;
  std::vector<NodeId> live_source_;
  std::vector<NodeId> frontier_;
  std::vector<NodeId> next_;
  std::vector<NodeId> touched_;
};

/// \brief Monte-Carlo estimate of expected social welfare ρ(𝒮) (§3.3).
///
/// Each simulation samples a fresh noise world and a fresh edge world
/// under `model`. Deterministic in `seed` alone: simulations run on the
/// fixed stream grid of `ParallelForStreams`, so `workers` only affects
/// wall-clock.
struct WelfareEstimate {
  double welfare = 0.0;        ///< mean of ρ_W over sampled worlds
  double std_error = 0.0;        ///< standard error of the mean
  double avg_adopters = 0.0;   ///< mean #nodes adopting ≥ 1 item
  double avg_adoptions = 0.0;  ///< mean Σ_v |A_v|
};

WelfareEstimate EstimateWelfare(const Graph& graph,
                                const Allocation& allocation,
                                const ItemParams& params,
                                size_t num_simulations, uint64_t seed,
                                unsigned workers = 0,
                                DiffusionModel model =
                                    DiffusionModel::kIndependentCascade);

}  // namespace uic
