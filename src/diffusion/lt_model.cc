#include "diffusion/lt_model.h"

#include "common/parallel.h"

namespace uic {

NodeId SampleLtLiveSource(const Graph& graph, NodeId v, Rng& rng) {
  auto srcs = graph.InNeighbors(v);
  auto probs = graph.InProbs(v);
  if (srcs.empty()) return kNoLiveSource;
  double r = rng.NextDouble();
  for (size_t k = 0; k < srcs.size(); ++k) {
    if (r < probs[k]) return srcs[k];
    r -= probs[k];
  }
  return kNoLiveSource;
}

LtSimulator::LtSimulator(const Graph& graph)
    : graph_(graph),
      visited_epoch_(graph.num_nodes(), 0),
      live_epoch_(graph.num_nodes(), 0),
      live_src_(graph.num_nodes(), kNoLiveSource) {}

bool LtSimulator::LiveInNeighbor(NodeId v, Rng& rng, NodeId* src) {
  if (live_epoch_[v] != epoch_) {
    live_epoch_[v] = epoch_;
    live_src_[v] = SampleLtLiveSource(graph_, v, rng);
  }
  *src = live_src_[v];
  return live_src_[v] != kNoLiveSource;
}

size_t LtSimulator::RunOnce(const std::vector<NodeId>& seeds, Rng& rng) {
  ++epoch_;
  frontier_.clear();
  size_t activated = 0;
  for (NodeId s : seeds) {
    if (visited_epoch_[s] == epoch_) continue;
    visited_epoch_[s] = epoch_;
    frontier_.push_back(s);
    ++activated;
  }
  while (!frontier_.empty()) {
    next_.clear();
    for (NodeId u : frontier_) {
      for (NodeId v : graph_.OutNeighbors(u)) {
        if (visited_epoch_[v] == epoch_) continue;
        NodeId src;
        if (!LiveInNeighbor(v, rng, &src) || src != u) continue;
        visited_epoch_[v] = epoch_;
        next_.push_back(v);
        ++activated;
      }
    }
    frontier_.swap(next_);
  }
  return activated;
}

double EstimateSpreadLt(const Graph& graph, const std::vector<NodeId>& seeds,
                        size_t num_simulations, uint64_t seed,
                        unsigned workers) {
  if (num_simulations == 0) return 0.0;
  std::vector<double> totals(kRngStreams, 0.0);
  ParallelForStreams(num_simulations, workers,
                     [&](unsigned s, size_t begin, size_t end) {
                       LtSimulator sim(graph);
                       Rng rng = Rng::Split(seed, s);
                       double local = 0.0;
                       for (size_t i = begin; i < end; ++i) {
                         local += static_cast<double>(sim.RunOnce(seeds, rng));
                       }
                       totals[s] = local;
                     });
  double total = 0.0;
  for (double t : totals) total += t;
  return total / static_cast<double>(num_simulations);
}

}  // namespace uic
