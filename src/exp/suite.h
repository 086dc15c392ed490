// Shared experiment-runner plumbing for the bench binaries: run a
// registered solver on a WelfareProblem, evaluate its expected welfare
// under UIC, and collect (welfare, time, RR sets) rows.
#pragma once

#include <memory>
#include <string>

#include "common/check.h"
#include "diffusion/uic_model.h"
#include "solver/registry.h"

namespace uic {

/// \brief One (algorithm, budget point) measurement.
struct SuiteRow {
  std::string algorithm;
  std::string setting;     ///< e.g. "k=30" or "total=500"
  double welfare = 0.0;
  double welfare_std_error = 0.0;
  double seconds = 0.0;
  size_t num_rr_sets = 0;
};

/// \brief Evaluate an allocation's expected welfare under the problem's
/// diffusion model and fill a row. `problem.params` must be set.
inline SuiteRow EvaluateRow(const std::string& algorithm,
                            const std::string& setting,
                            const WelfareProblem& problem,
                            const AllocationResult& result, size_t mc,
                            uint64_t eval_seed, unsigned workers = 0) {
  UIC_CHECK_MSG(problem.params.has_value(),
                "EvaluateRow needs a problem with params");
  SuiteRow row;
  row.algorithm = algorithm;
  row.setting = setting;
  const WelfareEstimate est =
      EstimateWelfare(*problem.graph, result.allocation, *problem.params, mc,
                      eval_seed, workers, problem.model);
  row.welfare = est.welfare;
  row.welfare_std_error = est.std_error;
  row.seconds = result.seconds;
  row.num_rr_sets = result.num_rr_sets;
  return row;
}

/// \brief Run the registered solver `algorithm` on `problem`.
///
/// Forwards any registry or validation failure as a Status; use MustSolve
/// in bench binaries where a malformed setup should abort loudly.
[[nodiscard]] inline Result<AllocationResult> RunSolver(const std::string& algorithm,
                                          const WelfareProblem& problem,
                                          const SolverOptions& options = {}) {
  Result<std::unique_ptr<Solver>> solver =
      SolverRegistry::CreateOrError(algorithm, options);
  if (!solver.ok()) return solver.status();
  return solver.value()->Solve(problem);
}

/// \brief RunSolver that aborts with the status message on any failure —
/// the bench binaries prefer a loud crash over a silently skipped series.
inline AllocationResult MustSolve(const std::string& algorithm,
                                  const WelfareProblem& problem,
                                  const SolverOptions& options = {}) {
  Result<AllocationResult> result = RunSolver(algorithm, problem, options);
  UIC_CHECK_MSG(result.ok(), "solver '%s' failed: %s", algorithm.c_str(),
                result.status().ToString().c_str());
  return result.MoveValue();
}

}  // namespace uic
