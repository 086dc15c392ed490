// Per-layer probes: each layer's public entry point called from outside
// on the workload's problem, one span per call.
#include <algorithm>
#include <cmath>

#include "common/random.h"
#include "common/thread_pool.h"
#include "diffusion/uic_model.h"
#include "graph/sampling_plan.h"
#include "items/utility_table.h"
#include "perf.h"
#include "rrset/node_selection.h"
#include "rrset/prima.h"
#include "rrset/rr_collection.h"

namespace uic::perf {
namespace {

constexpr double kPrimaEll = 1.0;  // SolverOptions' default ℓ
constexpr size_t kUtilityTableBuilds = 2000;
constexpr size_t kProbeSims = 20;

}  // namespace

LayerProbe ProbeLayers(const Graph& graph, const ItemParams& params,
                       const std::vector<uint32_t>& budgets, double eps,
                       uint64_t seed, SpanLog* log, uint64_t request) {
  LayerProbe probe;
  SpanLog::Scope root(log, "layers", request);

  // graph: the reverse IC sampling plan every cold solve builds.
  std::shared_ptr<const SamplingPlan> plan;
  {
    SpanLog::Scope span(log, "graph.plan", request);
    plan = SamplingPlan::Build(graph, SamplingPlan::Direction::kReverse,
                               SamplingPlan::kIcBuckets);
    probe.plan_ms = span.Finish();
  }

  // rrset: PRIMA with the solve's inputs, then its phases one by one at
  // the solve's final pool size θ.
  std::vector<NodeId> ranking;
  {
    SpanLog::Scope span(log, "rrset.prima", request);
    ImResult prima = Prima(graph, budgets, eps, kPrimaEll, seed, kWorkers);
    probe.prima_ms = span.Finish();
    probe.num_rr_sets = prima.num_rr_sets;
    probe.total_rr_nodes = prima.total_rr_nodes;
    ranking = std::move(prima.seeds);
  }
  const size_t theta = probe.num_rr_sets;
  RrOptions rr_options;
  rr_options.sampling_plan = plan.get();
  {
    SpanLog::Scope span(log, "rrset.sample", request);
    ThreadPool::Shared().ParallelFor(
        theta, kWorkers, [&](unsigned worker, size_t begin, size_t end) {
          RrSampler sampler(graph, rr_options);
          Rng rng = Rng::Split(seed, worker);
          std::vector<NodeId> arena;
          for (size_t i = begin; i < end; ++i) sampler.SampleAppend(rng, &arena);
        });
    probe.sample_ms = span.Finish();
  }
  RrCollection pool(graph, seed, kWorkers, rr_options);
  {
    SpanLog::Scope span(log, "rrset.generate", request);
    pool.GenerateUntil(theta);
    probe.generate_ms = span.Finish();
  }
  const uint32_t max_budget = *std::max_element(budgets.begin(), budgets.end());
  {
    SpanLog::Scope span(log, "rrset.select", request);
    const SeedSelection selection = NodeSelection(pool, max_budget);
    probe.select_ms = span.Finish();
  }

  // items: utility tables for fresh noise worlds.
  Rng rng(seed);
  std::vector<double> noise;
  {
    SpanLog::Scope span(log, "items.utility_table", request);
    double sink = 0.0;
    for (size_t k = 0; k < kUtilityTableBuilds; ++k) {
      params.noise().Sample(rng, &noise);
      const UtilityTable table(params, noise);
      sink += table.Utility(params.full_set());
    }
    probe.utility_table_us = span.Finish() * 1e3 / kUtilityTableBuilds;
    // Reading the tables' values keeps the build loop from being elided.
    if (!std::isfinite(sink)) probe.utility_table_us = 0.0;
  }

  // diffusion: single-threaded UIC simulations of the PRIMA allocation.
  Allocation allocation;
  for (ItemId i = 0; i < budgets.size(); ++i) {
    for (size_t r = 0; r < std::min<size_t>(budgets[i], ranking.size());
         ++r) {
      allocation.AddItem(ranking[r], i);
    }
  }
  {
    SpanLog::Scope span(log, "diffusion.sims", request);
    UicSimulator simulator(graph);
    UtilityTable table(params);
    size_t adopters = 0;
    for (size_t k = 0; k < kProbeSims; ++k) {
      params.noise().Sample(rng, &noise);
      table.Rebuild(params, noise);
      adopters += simulator.Run(allocation, table, rng).num_adopters;
    }
    probe.sim_us = span.Finish() * 1e3 / kProbeSims;
    probe.adopters_per_sim =
        static_cast<double>(adopters) / static_cast<double>(kProbeSims);
  }
  return probe;
}

void ReportLayerProbes(const std::vector<LayerProbe>& probes,
                       Report* report) {
  if (probes.empty()) return;
  const auto median = [&](double LayerProbe::*field) {
    std::vector<double> values;
    for (const LayerProbe& p : probes) values.push_back(p.*field);
    return Median(values);
  };
  report->Add("graph.plan_ms", median(&LayerProbe::plan_ms), "ms");
  report->Add("rrset.prima_ms", median(&LayerProbe::prima_ms), "ms");
  report->Add("rrset.sample_ms", median(&LayerProbe::sample_ms), "ms");
  // Derived: growing a pool to θ samples the same θ sets and builds the
  // coverage index, so the index share is the difference of the two.
  report->Add("rrset.index_ms",
              median(&LayerProbe::generate_ms) - median(&LayerProbe::sample_ms),
              "ms");
  report->Add("rrset.select_ms", median(&LayerProbe::select_ms), "ms");
  report->Add("items.utility_table_us",
              median(&LayerProbe::utility_table_us), "us");
  report->Add("diffusion.sim_us", median(&LayerProbe::sim_us), "us");

  // Exact counts come from the first probe, whose seed is fixed by the
  // workload seed alone.
  const LayerProbe& first = probes.front();
  report->Add("rrset.nodes_per_set",
              static_cast<double>(first.total_rr_nodes) /
                  static_cast<double>(std::max<size_t>(first.num_rr_sets, 1)),
              "count");
  // Computed: node ids once in the set arenas and once in the coverage
  // index (4 B each), plus a 16 B span per set.
  report->Add("rrset.pool_mb",
              (8.0 * static_cast<double>(first.total_rr_nodes) +
               16.0 * static_cast<double>(first.num_rr_sets)) /
                  (1024.0 * 1024.0),
              "MiB");
  report->Add("diffusion.adopters_per_sim", first.adopters_per_sim, "count");
}

}  // namespace uic::perf
