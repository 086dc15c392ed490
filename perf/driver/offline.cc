// The allocation loop (cold bundle-grd solve + MC welfare estimate) and
// the traced run every workload shares.
#include <cmath>
#include <cstdio>
#include <optional>

#include "common/timer.h"
#include "diffusion/uic_model.h"
#include "exp/configs.h"
#include "obs/metrics.h"
#include "perf.h"
#include "serve/session.h"
#include "solver/registry.h"

namespace uic::perf {
namespace {

constexpr size_t kEvalSims = 100;
// Set-ups per run; setup_s reports their median.
constexpr int kSetups = 3;
// Share of a traced run spent on allocations and layer probes; the rest
// goes to the serve probe.
constexpr double kOfflineLayerShare = 0.7;
constexpr double kServeLayerShare = 0.3;

uint64_t SolverSeed(uint64_t workload_seed, uint64_t k) {
  return workload_seed * 1000003 + k;
}

struct Instance {
  std::vector<Graph> graphs;
  std::optional<ItemParams> params;  // ItemParams has no empty state
  /// Allocation k runs on graph k mod |graphs|.
  const Graph& For(uint64_t k) const { return graphs[k % graphs.size()]; }
};

struct AllocRun {
  bool ok = false;
  AllocationResult result;
  double solve_ms = 0.0, eval_ms = 0.0, total_ms = 0.0;
  std::map<std::string, double> solve_counts;  ///< registry deltas
};

/// One allocation: a cold bundle-grd solve, then a kEvalSims-simulation
/// welfare estimate. Spans go to `log` when it is set.
AllocRun RunAlloc(const Graph& graph, const ItemParams& params,
                  const std::vector<uint32_t>& budgets, double eps,
                  uint64_t seed, SpanLog* log, uint64_t request,
                  bool read_counts = false) {
  AllocRun run;
  SpanLog::Scope root(log, "alloc", request);
  SolverOptions options;
  options.eps = eps;
  options.seed = seed;
  options.workers = kWorkers;
  WelfareProblem problem;
  problem.graph = &graph;
  problem.budgets = budgets;
  problem.params = params;
  std::unique_ptr<Solver> solver = SolverRegistry::Create("bundle-grd", options);
  std::map<std::string, double> before;
  if (read_counts) {
    before = ParseExposition(
        obs::MetricsRegistry::Global().ExpositionText(false));
  }
  Result<AllocationResult> solved = [&] {
    SpanLog::Scope span(log, "solve", request);
    Result<AllocationResult> r = solver->Solve(problem);
    run.solve_ms = span.Finish();
    return r;
  }();
  if (read_counts) {
    for (const auto& [name, value] : ParseExposition(
             obs::MetricsRegistry::Global().ExpositionText(false))) {
      run.solve_counts[name] = value - before[name];
    }
  }
  if (!solved.ok()) {
    std::fprintf(stderr, "uic_perf: solve: %s\n",
                 solved.status().ToString().c_str());
    return run;
  }
  run.result = std::move(solved.value());
  WelfareEstimate estimate;
  {
    SpanLog::Scope span(log, "eval", request);
    estimate = EstimateWelfare(graph, run.result.allocation, params,
                               kEvalSims, seed, kWorkers);
    run.eval_ms = span.Finish();
  }
  run.total_ms = root.Finish();
  run.ok = std::isfinite(estimate.welfare) &&
           std::isfinite(estimate.std_error) &&
           CheckPrefixAllocation(run.result.allocation.entries(),
                                 run.result.ranking, budgets);
  return run;
}

/// Graph builds + params load + Workload::warmup_allocs untimed
/// allocations (seeds 0, 1, ...), kSetups times. Reports setup_s (and
/// graph.build_ms when `trace`). Returns the last instance and its first
/// warm-up allocation.
bool SetUp(const RunConfig& config, Instance* in, AllocRun* warmup,
           Report* report) {
  const Workload& w = config.workload;
  std::vector<double> setup_s, build_ms;
  for (int r = 0; r < kSetups; ++r) {
    WallTimer setup;
    *in = Instance();
    for (size_t g = 0; g < w.graphs; ++g) {
      Result<Graph> graph = serve::BuildGraphFromSpec(GraphSpec(w, g));
      if (!graph.ok()) {
        std::fprintf(stderr, "uic_perf: %s\n",
                     graph.status().ToString().c_str());
        return false;
      }
      in->graphs.push_back(std::move(graph.value()));
    }
    build_ms.push_back(setup.ElapsedMillis() / static_cast<double>(w.graphs));
    in->params = MakeTwoItemConfig12();
    // The first allocations of a process are slower than later ones; the
    // warm-up runs them before timing starts, at set-up's cost.
    for (uint64_t k = 0; k < w.warmup_allocs; ++k) {
      AllocRun run = RunAlloc(in->For(k), *in->params, w.budgets.back(),
                              w.eps, SolverSeed(config.seed, k), nullptr, k);
      report->CountOp(run.ok);
      if (k == 0) *warmup = std::move(run);
    }
    setup_s.push_back(setup.ElapsedSeconds());
  }
  if (config.trace) {
    report->Add("graph.build_ms", Median(build_ms), "ms");
  } else {
    report->Add("setup_s", Median(setup_s), "s");
  }
  return true;
}

/// Repeating a solver seed must give the same allocation.
void CheckRepeat(const AllocRun& a, const AllocRun& b, Report* report) {
  report->CountOp(a.ok && b.ok &&
                  a.result.allocation.entries() == b.result.allocation.entries());
}

}  // namespace

void RunOffline(const RunConfig& config, Report* report) {
  const Workload& w = config.workload;
  const std::vector<uint32_t>& budgets = w.budgets.back();
  Instance in;
  AllocRun warmup;
  if (!SetUp(config, &in, &warmup, report)) return report->CountOp(false);

  std::vector<double> solve_ms, eval_ms, alloc_ms;
  WallTimer clock;
  const uint64_t first = w.warmup_allocs;
  for (uint64_t k = first; clock.ElapsedSeconds() < config.seconds; ++k) {
    AllocRun run = RunAlloc(in.For(k), *in.params, budgets, w.eps,
                            SolverSeed(config.seed, k), nullptr, k);
    if (config.corrupt && k == first && !run.result.allocation.empty()) {
      run.ok = CheckPrefixAllocation(
          {run.result.allocation.entries().begin() + 1,
           run.result.allocation.entries().end()},
          run.result.ranking, budgets);
    }
    report->CountOp(run.ok);
    if (!run.ok) continue;
    solve_ms.push_back(run.solve_ms);
    eval_ms.push_back(run.eval_ms);
    alloc_ms.push_back(run.total_ms);
  }
  const double elapsed = clock.ElapsedSeconds();

  CheckRepeat(warmup,
              RunAlloc(in.For(0), *in.params, budgets, w.eps,
                       SolverSeed(config.seed, 0), nullptr, 0),
              report);
  report->CountOp(RunPinnedCheckInProcess());

  report->Add("solve_ms_p50", Quantile(solve_ms, 0.5), "ms");
  report->Add("solve_ms_p90", Quantile(solve_ms, 0.9), "ms");
  report->Add("eval_ms_p50", Quantile(eval_ms, 0.5), "ms");
  // One allocation is one request offline, so allocs_per_s and req_per_s
  // are the same measurement here.
  report->Add("allocs_per_s", static_cast<double>(alloc_ms.size()) / elapsed,
              "1/s");
  report->Add("req_per_s", static_cast<double>(alloc_ms.size()) / elapsed,
              "1/s");
  report->Add("req_ms_p50", Quantile(alloc_ms, 0.5), "ms");
  // A run holds 100-500 allocations, too few for a steady p99: the tail
  // slot carries their p90, which has at least 10 samples beyond it.
  report->Add("req_ms_p99", Quantile(alloc_ms, 0.9), "ms");
  report->Add("peak_rss_mb", PeakRssMb(), "MiB");
}

void RunTraced(const RunConfig& config, Report* report) {
  const Workload& w = config.workload;
  const std::vector<uint32_t>& budgets = w.budgets.back();
  SpanLog log;
  Instance in;
  AllocRun warmup;
  if (!SetUp(config, &in, &warmup, report)) return report->CountOp(false);

  // Allocations alternate untraced and traced (same seed, order swapped
  // every iteration); the traced one is followed by the layer probes.
  const double layer_seconds =
      config.seconds * (w.offline ? kOfflineLayerShare : kServeLayerShare);
  std::vector<double> plain_ms, traced_ms;
  std::vector<LayerProbe> probes;
  WallTimer clock;
  for (uint64_t k = 1; k == 1 || clock.ElapsedSeconds() < layer_seconds;
       ++k) {
    const uint64_t seed = SolverSeed(config.seed, k);
    AllocRun plain, traced;
    for (int pass = 0; pass < 2; ++pass) {
      if ((pass == 0) == (k % 2 == 1)) {
        plain = RunAlloc(in.For(k), *in.params, budgets, w.eps, seed,
                         nullptr, k);
      } else {
        traced = RunAlloc(in.For(k), *in.params, budgets, w.eps, seed, &log,
                          k, k == 1);
      }
    }
    report->CountOp(plain.ok);
    report->CountOp(traced.ok);
    CheckRepeat(plain, traced, report);
    plain_ms.push_back(plain.total_ms);
    traced_ms.push_back(traced.total_ms);
    if (k == 1) {
      // Exact per-solve counts for a seed fixed by the workload seed.
      report->Add("rrset.sets_sampled",
                  traced.solve_counts["uic_rr_sets_sampled_total"], "count");
      report->Add("rrset.edges_examined",
                  traced.solve_counts["uic_rr_edges_examined_total"], "count");
      report->Add("rrset.index_merges",
                  traced.solve_counts["uic_rr_index_merges_total"], "count");
    }
    probes.push_back(ProbeLayers(in.For(k), *in.params, budgets, w.eps, seed,
                                 &log, k));
  }
  ReportLayerProbes(probes, report);
  report->Add("trace.overhead_pct",
              100.0 * (Median(traced_ms) / Median(plain_ms) - 1.0), "%");

  RunServeProbe(config, config.seconds - clock.ElapsedSeconds(), &log, report);
  report->CountOp(RunPinnedCheckInProcess());
  FinishTrace(config, log, report);
}

}  // namespace uic::perf
