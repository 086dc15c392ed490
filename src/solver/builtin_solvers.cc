// Adapters mapping the seven allocation algorithms of §6 onto the unified
// Solver contract. Each adapter is a thin shim: translate WelfareProblem +
// SolverOptions into the legacy positional signature, call it, and return
// the AllocationResult. All input checking already happened in
// Solver::Solve via the declared Traits.
#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "bdhs/bdhs.h"
#include "comic/rr_sim.h"
#include "common/timer.h"
#include "core/baselines.h"
#include "core/bundle_grd.h"
#include "core/mc_greedy.h"
#include "items/gap.h"
#include "solver/registry.h"

namespace uic {
namespace {

/// Generic adapter: every legacy algorithm is a pure function of
/// (problem, options), so one class parameterized by name/traits/impl
/// covers all seven registrations.
class FunctionSolver final : public Solver {
 public:
  using Impl = std::function<AllocationResult(const WelfareProblem&,
                                              const SolverOptions&)>;

  FunctionSolver(std::string name, Traits traits, Impl impl,
                 SolverOptions options)
      : Solver(std::move(options)),
        name_(std::move(name)),
        traits_(traits),
        impl_(std::move(impl)) {}

  const std::string& name() const override { return name_; }
  Traits traits() const override { return traits_; }

 protected:
  Result<AllocationResult> SolveValidated(
      const WelfareProblem& problem) override {
    return impl_(problem, options());
  }

 private:
  std::string name_;
  Traits traits_;
  Impl impl_;
};

void RegisterFunctionSolver(const std::string& name, Solver::Traits traits,
                            FunctionSolver::Impl impl) {
  detail::RegisterSolverFactory(
      name, [name, traits, impl = std::move(impl)](const SolverOptions& o) {
        return std::make_unique<FunctionSolver>(name, traits, impl, o);
      });
}

/// RR options with the sampling model taken from the problem: its
/// DiffusionModel is the only model input (rr_options.linear_threshold is
/// overwritten, never read).
RrOptions EffectiveRrOptions(const WelfareProblem& p, const SolverOptions& o) {
  RrOptions rr = o.rr_options;
  rr.linear_threshold = p.model == DiffusionModel::kLinearThreshold;
  return rr;
}

ComIcBaselineOptions ToComIcOptions(const SolverOptions& o) {
  ComIcBaselineOptions comic;
  comic.eps = o.eps;
  comic.ell = o.ell;
  comic.cim_forward_simulations = o.comic.cim_forward_simulations;
  // The pool-reuse hook reaches the Com-IC samplers too (their node-coin
  // pools key cache entries by coin contents, so reuse stays sound).
  comic.stream_cache = o.rr_options.stream_cache;
  return comic;
}

AllocationResult SolveBdhs(const WelfareProblem& p, const SolverOptions& o) {
  WallTimer timer;
  BdhsResult bdhs;
  if (o.bdhs.variant == BdhsVariant::kConcave) {
    // BDHS-Concave is only valid under a uniform edge probability; evaluate
    // it on a re-weighted copy, as the Fig. 9 bench does.
    Graph uniform = *p.graph;
    uniform.ApplyConstantProbability(o.bdhs.uniform_p);
    bdhs = BdhsConcave(uniform, *p.params, o.bdhs.uniform_p);
  } else {
    bdhs = BdhsStep(*p.graph, *p.params, o.bdhs.kappa);
  }
  AllocationResult result;
  result.objective = bdhs.welfare;
  // BDHS is budget-free: it assigns the optimal bundle to every node.
  if (bdhs.bundle != kEmptyItemSet) {
    for (NodeId v = 0; v < p.graph->num_nodes(); ++v) {
      result.allocation.AppendNew(v, bdhs.bundle);
    }
  }
  result.seconds = timer.ElapsedSeconds();
  return result;
}

}  // namespace

namespace detail {

void RegisterBuiltinSolvers() {
  Solver::Traits prima_family;  // utility-oblivious, LT-capable
  prima_family.supports_linear_threshold = true;

  RegisterFunctionSolver(
      "bundle-grd", prima_family,
      [](const WelfareProblem& p, const SolverOptions& o) {
        return BundleGrd(*p.graph, p.budgets, o.eps, o.ell, o.seed, o.workers,
                         p.model, EffectiveRrOptions(p, o));
      });

  RegisterFunctionSolver(
      "item-disj", prima_family,
      [](const WelfareProblem& p, const SolverOptions& o) {
        return ItemDisjoint(*p.graph, p.budgets, o.eps, o.ell, o.seed,
                            o.workers, EffectiveRrOptions(p, o));
      });

  Solver::Traits bundle_disj_traits = prima_family;
  bundle_disj_traits.needs_params = true;
  RegisterFunctionSolver(
      "bundle-disj", bundle_disj_traits,
      [](const WelfareProblem& p, const SolverOptions& o) {
        return BundleDisjoint(*p.graph, p.budgets, *p.params, o.eps, o.ell,
                              o.seed, o.workers, EffectiveRrOptions(p, o));
      });

  Solver::Traits mc_greedy_traits;  // simulates UIC forward — IC only
  mc_greedy_traits.needs_params = true;
  RegisterFunctionSolver(
      "mc-greedy", mc_greedy_traits,
      [](const WelfareProblem& p, const SolverOptions& o) {
        McGreedyOptions greedy;
        greedy.simulations_per_eval = o.mc_greedy.simulations_per_eval;
        greedy.seed = o.seed;
        greedy.workers = o.workers;
        greedy.candidates = o.mc_greedy.candidates;
        return McGreedyAllocate(*p.graph, p.budgets, *p.params, greedy);
      });

  Solver::Traits comic_traits;  // Com-IC: two items, IC only
  comic_traits.needs_params = true;
  comic_traits.two_items_only = true;
  RegisterFunctionSolver(
      "rr-sim+", comic_traits,
      [](const WelfareProblem& p, const SolverOptions& o) {
        return RrSimPlus(*p.graph, DeriveTwoItemGap(*p.params), p.budgets[0],
                         p.budgets[1], ToComIcOptions(o), o.seed, o.workers);
      });
  RegisterFunctionSolver(
      "rr-cim", comic_traits,
      [](const WelfareProblem& p, const SolverOptions& o) {
        return RrCim(*p.graph, DeriveTwoItemGap(*p.params), p.budgets[0],
                     p.budgets[1], ToComIcOptions(o), o.seed, o.workers);
      });

  Solver::Traits bdhs_traits;  // live-edge IC externality, needs utilities
  bdhs_traits.needs_params = true;
  RegisterFunctionSolver("bdhs", bdhs_traits, SolveBdhs);
}

}  // namespace detail
}  // namespace uic
