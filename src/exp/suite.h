// Solve-once helpers for the bench binaries that are not sweep-shaped
// (tables, Fig. 9, ablations) and for the examples. Sweep-shaped figures
// are spec files run by `uic_run --spec`, which scores every cell through
// SweepRunner (exp/spec_file.h).
#pragma once

#include <memory>
#include <string>

#include "common/check.h"
#include "solver/registry.h"

namespace uic {

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
