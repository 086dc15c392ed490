#include <cstdio>

#include "common/random.h"
#include "common/thread_pool.h"
#include "diffusion/uic_model.h"
#include "exp/configs.h"
#include "perf.h"
#include "serve/session.h"
#include "solver/registry.h"

namespace uic::perf {

bool CheckPrefixAllocation(
    const std::vector<std::pair<NodeId, ItemSet>>& entries,
    const std::vector<NodeId>& ranking, const std::vector<uint32_t>& budgets) {
  std::vector<uint32_t> seen(budgets.size(), 0);
  for (const auto& [node, items] : entries) {
    size_t rank = 0;
    while (rank < ranking.size() && ranking[rank] != node) ++rank;
    if (rank == ranking.size()) return false;
    for (ItemId i = 0; i < budgets.size(); ++i) {
      // Item i must hold exactly the top-b_i nodes of the ranking.
      if (Contains(items, i) != (rank < budgets[i])) return false;
      seen[i] += Contains(items, i) ? 1 : 0;
    }
    if ((items >> budgets.size()) != 0) return false;  // unknown item
  }
  for (ItemId i = 0; i < budgets.size(); ++i) {
    if (seen[i] != budgets[i]) return false;
  }
  return true;
}

bool AllocationFromJson(const serve::Json& allocation, ItemId num_items,
                        std::vector<std::pair<NodeId, ItemSet>>* entries) {
  if (!allocation.is_array()) return false;
  entries->clear();
  for (const serve::Json& entry : allocation.items()) {
    const serve::Json* node = entry.Find("node");
    const serve::Json* items = entry.Find("items");
    if (node == nullptr || items == nullptr || !items->is_array()) {
      return false;
    }
    ItemSet set = 0;
    for (const serve::Json& item : items->items()) {
      const long long i = item.AsInt(-1);
      if (i < 0 || i >= static_cast<long long>(num_items)) return false;
      set |= ItemBit(static_cast<ItemId>(i));
    }
    entries->emplace_back(static_cast<NodeId>(node->AsInt(-1)), set);
  }
  return true;
}

bool CheckPrefixAllocationJson(const serve::Json& allocation,
                               const std::vector<uint32_t>& budgets) {
  std::vector<std::pair<NodeId, ItemSet>> entries;
  if (!AllocationFromJson(allocation, static_cast<ItemId>(budgets.size()),
                          &entries)) {
    return false;
  }
  std::vector<NodeId> ranking;
  for (const auto& entry : entries) ranking.push_back(entry.first);
  return CheckPrefixAllocation(entries, ranking, budgets);
}

const char* PinnedCheck::GraphSpec() {
  return "\"network\":\"er\",\"nodes\":8,\"edges\":10,\"net_seed\":8";
}

std::vector<uint32_t> PinnedCheck::Budgets() { return {2, 2}; }

const std::vector<std::pair<NodeId, ItemSet>>& PinnedCheck::Allocation() {
  static const auto* pinned = new std::vector<std::pair<NodeId, ItemSet>>{
      {1, ItemBit(0) | ItemBit(1)}, {2, ItemBit(0) | ItemBit(1)}};
  return *pinned;
}

namespace {

Result<Graph> PinnedGraph() {
  Result<serve::Json> spec =
      serve::Json::Parse(std::string("{") + PinnedCheck::GraphSpec() + "}");
  if (!spec.ok()) return spec.status();
  return serve::BuildGraphFromSpec(spec.value());
}

}  // namespace

bool RunPinnedCheckInProcess() {
  Result<Graph> graph = PinnedGraph();
  if (!graph.ok()) return false;
  const ItemParams params = MakeTwoItemConfig12();

  SolverOptions options;
  options.seed = PinnedCheck::kSolverSeed;
  options.workers = kWorkers;
  WelfareProblem problem;
  problem.graph = &graph.value();
  problem.budgets = PinnedCheck::Budgets();
  Result<AllocationResult> solved =
      SolverRegistry::Create("bundle-grd", options)->Solve(problem);
  if (!solved.ok() ||
      solved.value().allocation.entries() != PinnedCheck::Allocation()) {
    std::fprintf(stderr, "uic_perf: pinned check: allocation changed\n");
    return false;
  }
  const WelfareEstimate estimate =
      EstimateWelfare(graph.value(), solved.value().allocation, params,
                      PinnedCheck::kSims, /*seed=*/20190701, kWorkers);
  if (!PinnedCheck::WelfareOk(estimate.welfare)) {
    std::fprintf(stderr, "uic_perf: pinned check: welfare %.6f vs %.6f\n",
                 estimate.welfare, PinnedCheck::kReference);
    return false;
  }
  return true;
}

Result<double> PinnedReference(size_t noise_worlds, uint64_t seed) {
  Result<Graph> graph = PinnedGraph();
  if (!graph.ok()) return graph.status();
  const Graph& g = graph.value();
  std::vector<Edge> edges;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (uint32_t k = 0; k < g.OutDegree(u); ++k) {
      edges.push_back({u, g.OutNeighbors(u)[k], g.OutProbs(u)[k]});
    }
  }
  if (edges.size() > 16) {
    return Status::InvalidArgument("pinned graph too large to enumerate");
  }
  // Edge world `mask` keeps edge e iff bit e is set; its live edges get
  // p = 1, so one simulation on it is that world's exact outcome.
  std::vector<Graph> worlds;
  std::vector<double> world_prob;
  for (uint32_t mask = 0; mask < (1u << edges.size()); ++mask) {
    GraphBuilder builder(g.num_nodes());
    double prob = 1.0;
    for (size_t e = 0; e < edges.size(); ++e) {
      const bool live = (mask >> e) & 1u;
      prob *= live ? edges[e].prob : 1.0 - edges[e].prob;
      if (live) builder.AddEdge(edges[e].from, edges[e].to, 1.0);
    }
    Result<Graph> world = builder.Build();
    if (!world.ok()) return world.status();
    worlds.push_back(std::move(world.value()));
    world_prob.push_back(prob);
  }
  Allocation allocation;
  for (const auto& [node, items] : PinnedCheck::Allocation()) {
    allocation.Add(node, items);
  }
  const ItemParams params = MakeTwoItemConfig12();
  std::vector<double> sums(kWorkers, 0.0);
  ThreadPool::Shared().ParallelFor(
      noise_worlds, kWorkers, [&](unsigned worker, size_t begin, size_t end) {
        std::vector<UicSimulator> sims;
        for (const Graph& world : worlds) sims.emplace_back(world);
        UtilityTable table(params);
        std::vector<double> noise;
        for (size_t i = begin; i < end; ++i) {
          // Noise world i draws from its own stream, so the value does
          // not depend on how the worlds are split among workers.
          Rng rng = Rng::Split(seed, i);
          params.noise().Sample(rng, &noise);
          table.Rebuild(params, noise);
          for (size_t w = 0; w < worlds.size(); ++w) {
            sums[worker] +=
                world_prob[w] * sims[w].Run(allocation, table, rng).welfare;
          }
        }
      });
  double total = 0.0;
  for (const double sum : sums) total += sum;
  return total / static_cast<double>(noise_worlds);
}

}  // namespace uic::perf
