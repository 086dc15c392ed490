#include "core/bundle_grd.h"

#include "common/check.h"
#include "common/timer.h"
#include "rrset/prima.h"

namespace uic {

AllocationResult BundleGrd(const Graph& graph,
                           const std::vector<uint32_t>& budgets, double eps,
                           double ell, uint64_t seed, unsigned workers,
                           DiffusionModel model, RrOptions rr_options) {
  WallTimer timer;
  AllocationResult result;
  if (budgets.empty()) return result;

  rr_options.linear_threshold = model == DiffusionModel::kLinearThreshold;

  // Line 2: one prefix-preserving ranking for the maximum budget.
  ImResult prima = Prima(graph, budgets, eps, ell, seed, workers, {},
                         rr_options);
  result.num_rr_sets = prima.num_rr_sets;
  result.ranking = prima.seeds;

  // Lines 3-5: every item gets the top-b_i prefix.
  for (ItemId i = 0; i < budgets.size(); ++i) {
    const size_t bi = std::min<size_t>(budgets[i], prima.seeds.size());
    for (size_t r = 0; r < bi; ++r) {
      result.allocation.AddItem(prima.seeds[r], i);
    }
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace uic
