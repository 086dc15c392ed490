// Sweep spec files: the paper's sweep-shaped figures as data
// (bench/specs/*.json), run by `uic_run --spec`.
//
// A file is a JSON object. Its optional "groups" array lists the figure's
// panels, and each group inherits every top-level key it does not set
// itself (one level deep: "graph" and "params" are replaced whole). A file
// without "groups" is one group. Group keys reuse the serve protocol's
// names and meanings (docs/serving.md):
//
//   graph       a load_graph body (serve::BuildGraphFromSpec)      required
//   params      a load_params body (serve::BuildParamsFromSpec);
//               absent = no welfare evaluation
//   model, seed, eps, ell, eval_sims, eval_seed     as in `solve`
//   algorithms  array of solver registry names                    required
//   sweep       budget points in the ParseSweepPoints grammar     required
//               (a group without params needs explicit vectors)
//   warm        false samples every cell cold (default true)
//   title       printed above the group's table
//
// An unknown key or a wrong type is an InvalidArgument naming the key.
// uic_run's flag mode builds one such group from its flags, so every CLI
// solve goes through LoadSweepGroups and SweepRunner.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "exp/sweep.h"
#include "serve/json.h"

namespace uic {

/// \brief One loaded group: a runnable SweepSpec and the graph it runs on.
struct SweepGroup {
  std::string title;
  /// Shared by the groups of one load whose `graph` bodies are identical.
  std::shared_ptr<const Graph> graph;
  /// `spec.graph` points at `*graph`.
  SweepSpec spec;
};

/// \brief Split a spec document into self-contained groups (top-level keys
/// merged into each entry of "groups"), checking every key and its type.
[[nodiscard]] Result<std::vector<serve::Json>> ExpandSpecGroups(
    const serve::Json& doc);

/// \brief Build each group's graph, params and SweepSpec. Every spec starts
/// from `base` (workers and per-solver knobs); the group sets
/// seed, eps and ell on top. Identical `graph` bodies build one Graph.
[[nodiscard]] Result<std::vector<SweepGroup>> LoadSweepGroups(
    const std::vector<serve::Json>& groups, const SolverOptions& base);

}  // namespace uic
