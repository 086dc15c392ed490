#include "diffusion/uic_model.h"

#include <cmath>

#include "common/check.h"
#include "common/parallel.h"
#include "diffusion/lt_model.h"

namespace uic {

UicSimulator::UicSimulator(const Graph& graph, DiffusionModel model)
    : graph_(graph),
      model_(model),
      node_epoch_(graph.num_nodes(), 0),
      desire_(graph.num_nodes(), 0),
      adoption_(graph.num_nodes(), 0) {
  if (model_ == DiffusionModel::kIndependentCascade) {
    live_out_.resize(graph.num_nodes());
  } else {
    source_epoch_.assign(graph.num_nodes(), 0);
    live_source_.assign(graph.num_nodes(), kNoLiveSource);
  }
}

UicOutcome UicSimulator::Run(const Allocation& allocation,
                             const UtilityTable& utilities, Rng& rng) {
  return RunDetailed(allocation, utilities, rng, nullptr);
}

UicOutcome UicSimulator::RunDetailed(
    const Allocation& allocation, const UtilityTable& utilities, Rng& rng,
    std::vector<std::pair<NodeId, ItemSet>>* adoptions) {
  // One dispatch per run; the edge rule is a compile-time branch below.
  return model_ == DiffusionModel::kLinearThreshold
             ? RunModel<DiffusionModel::kLinearThreshold>(allocation,
                                                          utilities, rng,
                                                          adoptions)
             : RunModel<DiffusionModel::kIndependentCascade>(
                   allocation, utilities, rng, adoptions);
}

std::span<const NodeId> UicSimulator::LiveOut(NodeId u, Rng& rng) {
  LiveSlice& slice = live_out_[u];
  if (slice.epoch != epoch_) {
    // Each edge is tested at most once per diffusion (Fig. 1 step 1), all
    // of u's at its first expansion; only the live targets are kept.
    slice.epoch = epoch_;
    slice.begin = live_.size();
    const auto nbrs = graph_.OutNeighbors(u);
    const auto probs = graph_.OutProbs(u);
    for (size_t k = 0; k < nbrs.size(); ++k) {
      if (rng.NextBernoulli(probs[k])) live_.push_back(nbrs[k]);
    }
    slice.size = static_cast<uint32_t>(live_.size() - slice.begin);
  }
  return {live_.data() + slice.begin, slice.size};
}

NodeId UicSimulator::LiveSource(NodeId v, Rng& rng) {
  if (source_epoch_[v] != epoch_) {
    source_epoch_[v] = epoch_;
    live_source_[v] = SampleLtLiveSource(graph_, v, rng);
  }
  return live_source_[v];
}

void UicSimulator::Receive(NodeId v, ItemSet send,
                           const UtilityTable& utilities) {
  Touch(v);
  if (IsSubset(send, desire_[v])) return;  // nothing new to desire
  desire_[v] |= send;
  const ItemSet best = utilities.BestAdoption(adoption_[v], desire_[v]);
  if (best != adoption_[v]) {
    adoption_[v] = best;
    // Re-activate v so it (re-)propagates its enlarged adoption set.
    next_.push_back(v);
  }
}

template <DiffusionModel kModel>
UicOutcome UicSimulator::RunModel(
    const Allocation& allocation, const UtilityTable& utilities, Rng& rng,
    std::vector<std::pair<NodeId, ItemSet>>* adoptions) {
  ++epoch_;
  frontier_.clear();
  touched_.clear();
  live_.clear();
  UicOutcome outcome;

  // t = 1: seeds desire their allocated items and adopt the best subset.
  for (const auto& [v, items] : allocation.entries()) {
    UIC_DCHECK(v < graph_.num_nodes());
    Touch(v);
    desire_[v] |= items;
  }
  for (const auto& [v, items] : allocation.entries()) {
    const ItemSet best = utilities.BestAdoption(adoption_[v], desire_[v]);
    if (best != adoption_[v]) {
      adoption_[v] = best;
      frontier_.push_back(v);
    }
  }

  // t > 1: adopters test out-edges; receivers re-optimize their adoption.
  while (!frontier_.empty()) {
    next_.clear();
    for (NodeId u : frontier_) {
      const ItemSet send = adoption_[u];
      if constexpr (kModel == DiffusionModel::kIndependentCascade) {
        for (NodeId v : LiveOut(u, rng)) Receive(v, send, utilities);
      } else {
        // u reaches v iff it is v's one live in-neighbor.
        for (NodeId v : graph_.OutNeighbors(u)) {
          if (LiveSource(v, rng) == u) Receive(v, send, utilities);
        }
      }
    }
    frontier_.swap(next_);
  }

  if (adoptions) adoptions->clear();
  for (NodeId v : touched_) {
    const ItemSet a = adoption_[v];
    if (a == kEmptyItemSet) continue;
    outcome.welfare += utilities.Utility(a);
    outcome.num_adopters += 1;
    outcome.num_adoptions += Cardinality(a);
    if (adoptions) adoptions->emplace_back(v, a);
  }
  return outcome;
}

WelfareEstimate EstimateWelfare(const Graph& graph,
                                const Allocation& allocation,
                                const ItemParams& params,
                                size_t num_simulations, uint64_t seed,
                                unsigned workers, DiffusionModel model) {
  WelfareEstimate estimate;
  if (num_simulations == 0) return estimate;

  struct Accum {
    double sum = 0.0;
    double sum_sq = 0.0;
    double adopters = 0.0;
    double adoptions = 0.0;
  };
  // Fixed-grid stream partition + serial stream-order reduction: the
  // estimate is bit-identical at any worker count (see parallel.h).
  std::vector<Accum> per_stream(kRngStreams);

  ParallelForStreams(num_simulations, workers,
                     [&](unsigned s, size_t begin, size_t end) {
                       UicSimulator sim(graph, model);
                       Rng rng = Rng::Split(seed, s);
                       Accum acc;
                       // Noise buffer and table hoisted out of the loop:
                       // per simulation only the draws and the in-place
                       // rebuild remain (identical values and RNG
                       // sequence to fresh construction).
                       std::vector<double> noise;
                       UtilityTable table(params);
                       for (size_t i = begin; i < end; ++i) {
                         params.noise().Sample(rng, &noise);
                         table.Rebuild(params, noise);
                         const UicOutcome out = sim.Run(allocation, table, rng);
                         acc.sum += out.welfare;
                         acc.sum_sq += out.welfare * out.welfare;
                         acc.adopters += static_cast<double>(out.num_adopters);
                         acc.adoptions +=
                             static_cast<double>(out.num_adoptions);
                       }
                       per_stream[s] = acc;
                     });

  Accum total;
  for (const Accum& a : per_stream) {
    total.sum += a.sum;
    total.sum_sq += a.sum_sq;
    total.adopters += a.adopters;
    total.adoptions += a.adoptions;
  }
  const double n = static_cast<double>(num_simulations);
  estimate.welfare = total.sum / n;
  const double var =
      n > 1 ? (total.sum_sq - total.sum * total.sum / n) / (n - 1) : 0.0;
  estimate.std_error = var > 0 ? std::sqrt(var / n) : 0.0;
  estimate.avg_adopters = total.adopters / n;
  estimate.avg_adoptions = total.adoptions / n;
  return estimate;
}

}  // namespace uic
