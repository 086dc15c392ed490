#include "diffusion/ic_model.h"

#include <atomic>
#include <memory>

#include "common/check.h"
#include "common/parallel.h"

namespace uic {

IcSimulator::IcSimulator(const Graph& graph, const SamplingPlan* plan)
    : plan_(plan), visited_epoch_(graph.num_nodes(), 0) {
  if (plan_ == nullptr) {
    owned_plan_ = SamplingPlan::Build(graph, SamplingPlan::Direction::kForward,
                                      SamplingPlan::kIcBuckets);
    plan_ = owned_plan_.get();
  }
  UIC_CHECK(plan_->direction() == SamplingPlan::Direction::kForward);
  UIC_CHECK(plan_->has_ic_buckets());
}

void IcSimulator::TryActivate(NodeId v, std::vector<NodeId>* activated_out,
                              size_t* activated) {
  if (visited_epoch_[v] == epoch_) return;
  visited_epoch_[v] = epoch_;
  next_.push_back(v);
  ++*activated;
  if (activated_out) activated_out->push_back(v);
}

size_t IcSimulator::RunOnce(const std::vector<NodeId>& seeds, Rng& rng,
                            std::vector<NodeId>* activated_out) {
  ++epoch_;
  if (activated_out) activated_out->clear();
  frontier_.clear();
  size_t activated = 0;
  for (NodeId s : seeds) {
    if (visited_epoch_[s] == epoch_) continue;
    visited_epoch_[s] = epoch_;
    frontier_.push_back(s);
    ++activated;
    if (activated_out) activated_out->push_back(s);
  }
  while (!frontier_.empty()) {
    next_.clear();
    for (NodeId u : frontier_) {
      plan_->ForEachLiveEdge(
          u, rng, [&](NodeId v) { return visited_epoch_[v] == epoch_; },
          [&](NodeId v) { TryActivate(v, activated_out, &activated); });
    }
    frontier_.swap(next_);
  }
  return activated;
}

double EstimateSpread(const Graph& graph, const std::vector<NodeId>& seeds,
                      size_t num_simulations, uint64_t seed,
                      unsigned workers) {
  if (num_simulations == 0) return 0.0;
  // One forward plan shared (read-only) by every stream's simulator.
  const std::shared_ptr<const SamplingPlan> plan = SamplingPlan::Build(
      graph, SamplingPlan::Direction::kForward, SamplingPlan::kIcBuckets);
  std::atomic<uint64_t> total{0};
  ParallelForStreams(num_simulations, workers,
                     [&](unsigned s, size_t begin, size_t end) {
                       IcSimulator sim(graph, plan.get());
                       Rng rng = Rng::Split(seed, s);
                       uint64_t local = 0;
                       for (size_t i = begin; i < end; ++i) {
                         local += sim.RunOnce(seeds, rng);
                       }
                       total.fetch_add(local, std::memory_order_relaxed);
                     });
  return static_cast<double>(total.load()) /
         static_cast<double>(num_simulations);
}

}  // namespace uic
