// SweepRunner: warm-swept cells must be bit-identical to independent cold
// solves (the sweep engine's hard contract), sample strictly fewer RR sets
// than cold per-point runs, and be invariant to the worker count. Also
// covers the CLI budget-point grammar, spec validation and the sweep spec
// file loader.
#include "exp/sweep.h"

#include <gtest/gtest.h>

#include <vector>

#include "exp/configs.h"
#include "exp/spec_file.h"
#include "exp/suite.h"
#include "graph/generators.h"

namespace uic {
namespace {

Graph SweepGraph(uint64_t seed = 17) {
  Graph g = GenerateErdosRenyi(150, 900, seed);
  g.ApplyWeightedCascade();
  return g;
}

SweepSpec BaseSpec(const Graph& graph) {
  SweepSpec spec;
  spec.graph = &graph;
  spec.params = MakeTwoItemConfig12();
  spec.budget_points = {{1, 1}, {3, 3}, {5, 5}};
  spec.options.seed = 7;
  spec.options.workers = 4;
  spec.options.comic.cim_forward_simulations = 30;
  spec.eval_simulations = 0;  // identity checks don't need welfare
  return spec;
}

// Every RR-based solver of §6; mc-greedy and bdhs are exercised separately
// (they ignore the cache but must still run under a sweep).
const std::vector<std::string> kRrSolvers = {
    "bundle-grd", "item-disj", "bundle-disj", "rr-sim+", "rr-cim"};

TEST(SweepRunner, WarmCellsBitIdenticalToIndependentColdSolves) {
  const Graph graph = SweepGraph();
  SweepSpec spec = BaseSpec(graph);
  spec.algorithms = kRrSolvers;

  SweepRunner runner(spec);
  Result<SweepReport> report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().rows.size(),
            kRrSolvers.size() * spec.budget_points.size());

  // Cold reference: same options, NO cache — a fresh per-point run.
  for (const SweepRow& row : report.value().rows) {
    WelfareProblem problem;
    problem.graph = &graph;
    problem.params = spec.params;
    problem.budgets = row.budgets;
    const AllocationResult cold =
        MustSolve(row.algorithm, problem, spec.options);
    EXPECT_EQ(row.result.allocation.entries(), cold.allocation.entries())
        << row.algorithm << " " << row.setting;
    EXPECT_EQ(row.result.ranking, cold.ranking)
        << row.algorithm << " " << row.setting;
    EXPECT_EQ(row.num_rr_sets(), cold.num_rr_sets)
        << row.algorithm << " " << row.setting;
    EXPECT_EQ(row.objective(), cold.objective)
        << row.algorithm << " " << row.setting;
  }
}

TEST(SweepRunner, WarmAndColdModesProduceIdenticalRows) {
  const Graph graph = SweepGraph();
  SweepSpec spec = BaseSpec(graph);
  spec.algorithms = {"bundle-grd", "item-disj"};
  spec.eval_simulations = 200;  // exercise the welfare columns too

  SweepSpec cold_spec = spec;
  cold_spec.warm = false;

  SweepRunner warm(spec);
  SweepRunner cold(cold_spec);
  Result<SweepReport> wr = warm.Run();
  Result<SweepReport> cr = cold.Run();
  ASSERT_TRUE(wr.ok()) << wr.status().ToString();
  ASSERT_TRUE(cr.ok()) << cr.status().ToString();
  ASSERT_EQ(wr.value().rows.size(), cr.value().rows.size());
  for (size_t i = 0; i < wr.value().rows.size(); ++i) {
    const SweepRow& w = wr.value().rows[i];
    const SweepRow& c = cr.value().rows[i];
    EXPECT_EQ(w.result.allocation.entries(), c.result.allocation.entries())
        << w.algorithm << " " << w.setting;
    EXPECT_EQ(w.welfare, c.welfare) << w.algorithm << " " << w.setting;
    EXPECT_EQ(w.welfare_std_error, c.welfare_std_error);
    EXPECT_EQ(w.num_rr_sets(), c.num_rr_sets());
    EXPECT_EQ(w.objective(), c.objective());
  }
  EXPECT_EQ(wr.value().total_rr_sets, cr.value().total_rr_sets);
}

TEST(SweepRunner, WarmSweepSamplesFewerSetsThanColdPerPointRuns) {
  const Graph graph = SweepGraph();
  SweepSpec spec = BaseSpec(graph);
  spec.algorithms = {"bundle-grd"};
  spec.budget_points = {{2, 2}, {4, 4}, {6, 6}, {8, 8}};

  SweepSpec cold_spec = spec;
  cold_spec.warm = false;

  SweepRunner warm(spec);
  SweepRunner cold(cold_spec);
  Result<SweepReport> wr = warm.Run();
  Result<SweepReport> cr = cold.Run();
  ASSERT_TRUE(wr.ok());
  ASSERT_TRUE(cr.ok());
  // Cold samples every point from scratch; warm only ever extends shared
  // streams, so the 4-point sweep must draw strictly fewer sets total.
  EXPECT_LT(wr.value().total_rr_sampled, cr.value().total_rr_sampled);
  // Points after the first should be (almost entirely) served from the
  // pool; in particular the warm total can't reach 2 cold points' worth.
  EXPECT_LT(2 * wr.value().total_rr_sampled, cr.value().total_rr_sampled);
}

TEST(SweepRunner, RowsAreInvariantToWorkerCount) {
  const Graph graph = SweepGraph();
  SweepSpec spec = BaseSpec(graph);
  spec.algorithms = {"bundle-grd", "rr-sim+"};
  spec.eval_simulations = 100;

  SweepSpec spec4 = spec;
  spec.options.workers = 1;
  spec4.options.workers = 4;
  SweepRunner a(spec);
  SweepRunner b(spec4);
  Result<SweepReport> ra = a.Run();
  Result<SweepReport> rb = b.Run();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  ASSERT_EQ(ra.value().rows.size(), rb.value().rows.size());
  for (size_t i = 0; i < ra.value().rows.size(); ++i) {
    EXPECT_EQ(ra.value().rows[i].result.allocation.entries(),
              rb.value().rows[i].result.allocation.entries());
    EXPECT_EQ(ra.value().rows[i].welfare, rb.value().rows[i].welfare);
    EXPECT_EQ(ra.value().rows[i].num_rr_sets(),
              rb.value().rows[i].num_rr_sets());
    EXPECT_EQ(ra.value().rows[i].rr_sets_sampled,
              rb.value().rows[i].rr_sets_sampled);
  }
}

TEST(SweepRunner, NonRrSolversRunUnderASweep) {
  const Graph graph = SweepGraph();
  SweepSpec spec = BaseSpec(graph);
  spec.algorithms = {"bdhs", "mc-greedy"};
  spec.budget_points = {{1, 1}, {2, 2}};
  spec.options.mc_greedy.simulations_per_eval = 10;
  SweepRunner runner(spec);
  Result<SweepReport> report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().rows.size(), 4u);
  EXPECT_EQ(report.value().total_rr_sampled, 0u);  // nothing touches the pool
  // BDHS reports its externality objective.
  EXPECT_NE(report.value().rows[0].objective(), 0.0);
}

TEST(SweepRunner, ReportSerializesToCsvAndJson) {
  const Graph graph = SweepGraph();
  SweepSpec spec = BaseSpec(graph);
  spec.algorithms = {"bundle-grd"};
  spec.budget_points = {{2, 2}};
  SweepRunner runner(spec);
  Result<SweepReport> report = runner.Run();
  ASSERT_TRUE(report.ok());
  const std::string csv = report.value().ToCsv(/*include_timing=*/false);
  EXPECT_NE(csv.find("algorithm,budgets,"), std::string::npos);
  EXPECT_NE(csv.find("bundle-grd,2|2,"), std::string::npos);
  EXPECT_NE(csv.find(",-,"), std::string::npos);  // timing suppressed
  const std::string json = report.value().ToJson(/*include_timing=*/false);
  EXPECT_NE(json.find("\"rows\""), std::string::npos);
  EXPECT_NE(json.find("\"seconds\": null"), std::string::npos);
  EXPECT_NE(json.find("\"total_rr_sampled\""), std::string::npos);
}

TEST(SweepRunner, InvalidSpecsFailCleanly) {
  const Graph graph = SweepGraph();
  {
    SweepSpec spec = BaseSpec(graph);
    spec.graph = nullptr;
    spec.algorithms = {"bundle-grd"};
    Result<SweepReport> r = SweepRunner(spec).Run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kInvalidArgument);
  }
  {
    SweepSpec spec = BaseSpec(graph);  // no algorithms
    Result<SweepReport> r = SweepRunner(spec).Run();
    ASSERT_FALSE(r.ok());
  }
  {
    SweepSpec spec = BaseSpec(graph);
    spec.algorithms = {"no-such-solver"};
    Result<SweepReport> r = SweepRunner(spec).Run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kNotFound);
  }
  {
    SweepSpec spec = BaseSpec(graph);
    spec.algorithms = {"bundle-disj"};
    spec.params.reset();  // needs params -> FailedPrecondition, cell-labeled
    Result<SweepReport> r = SweepRunner(spec).Run();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kFailedPrecondition);
    EXPECT_NE(r.status().message().find("bundle-disj"), std::string::npos);
  }
}

TEST(SweepRunner, LinearThresholdRowsAreScoredUnderLt) {
  // Welfare is scored under the spec's model: every LT sweep row equals
  // the LT estimate of its allocation bit for bit, and the IC estimate of
  // the same allocation differs.
  const Graph graph = SweepGraph();
  SweepSpec spec = BaseSpec(graph);
  spec.model = DiffusionModel::kLinearThreshold;
  spec.algorithms = {"bundle-grd"};
  spec.eval_simulations = 200;

  SweepRunner runner(spec);
  Result<SweepReport> report = runner.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().rows.size(), spec.budget_points.size());
  for (const SweepRow& row : report.value().rows) {
    const WelfareEstimate lt = EstimateWelfare(
        graph, row.result.allocation, *spec.params, spec.eval_simulations,
        spec.eval_seed, spec.options.workers,
        DiffusionModel::kLinearThreshold);
    EXPECT_EQ(row.welfare, lt.welfare) << row.setting;
    EXPECT_EQ(row.welfare_std_error, lt.std_error) << row.setting;
  }
  const SweepRow& last = report.value().rows.back();
  EXPECT_NE(last.welfare,
            EstimateWelfare(graph, last.result.allocation, *spec.params,
                            spec.eval_simulations, spec.eval_seed,
                            spec.options.workers)
                .welfare);
}

// --- sweep spec files (exp/spec_file.h) ----------------------------------

serve::Json ParseSpec(const std::string& text) {
  Result<serve::Json> doc = serve::Json::Parse(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  return doc.ok() ? doc.MoveValue() : serve::Json::Object();
}

Result<std::vector<SweepGroup>> LoadSpec(const std::string& text,
                                         const SolverOptions& base = {}) {
  Result<std::vector<serve::Json>> groups =
      ExpandSpecGroups(ParseSpec(text));
  if (!groups.ok()) return groups.status();
  return LoadSweepGroups(groups.value(), base);
}

constexpr const char* kTinyGraph =
    R"({"network": "er", "nodes": 150, "edges": 900, "net_seed": 17})";

TEST(SpecFile, GroupsInheritTopLevelKeysAndOverrideThem) {
  SolverOptions base;
  base.workers = 3;
  base.comic.cim_forward_simulations = 30;
  Result<std::vector<SweepGroup>> groups = LoadSpec(
      std::string(R"({"graph": )") + kTinyGraph + R"(,
        "params": {"config": "config12"},
        "algorithms": ["bundle-grd", "item-disj"],
        "seed": 7, "eps": 0.4, "eval_sims": 50, "eval_seed": 5,
        "sweep": "2,4",
        "groups": [
          {"title": "inherits"},
          {"title": "overrides", "seed": 9, "model": "lt", "warm": false,
           "graph": {"network": "er", "nodes": 100},
           "params": {"config": "additive", "items": 3},
           "algorithms": ["bundle-grd"], "sweep": "1,2,3;4,5,6"}
        ]})",
      base);
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  ASSERT_EQ(groups.value().size(), 2u);

  const SweepSpec& a = groups.value()[0].spec;
  EXPECT_EQ(groups.value()[0].title, "inherits");
  EXPECT_EQ(a.graph->num_nodes(), 150u);
  EXPECT_EQ(a.params->num_items(), 2);
  EXPECT_EQ(a.algorithms,
            (std::vector<std::string>{"bundle-grd", "item-disj"}));
  EXPECT_EQ(a.options.seed, 7u);
  EXPECT_EQ(a.options.eps, 0.4);
  EXPECT_EQ(a.options.workers, 3u);  // the base options reach every group
  EXPECT_EQ(a.options.comic.cim_forward_simulations, 30u);
  EXPECT_EQ(a.eval_simulations, 50u);
  EXPECT_EQ(a.eval_seed, 5u);
  EXPECT_EQ(a.model, DiffusionModel::kIndependentCascade);
  EXPECT_TRUE(a.warm);
  EXPECT_EQ(a.budget_points,
            (std::vector<std::vector<uint32_t>>{{2, 2}, {4, 4}}));

  const SweepSpec& b = groups.value()[1].spec;
  EXPECT_EQ(groups.value()[1].title, "overrides");
  // "graph" is replaced whole: edges fall back to 6 * nodes, not 900.
  EXPECT_EQ(b.graph->num_nodes(), 100u);
  EXPECT_EQ(b.graph->num_edges(), 600u);
  EXPECT_EQ(b.params->num_items(), 3);
  EXPECT_EQ(b.algorithms, (std::vector<std::string>{"bundle-grd"}));
  EXPECT_EQ(b.options.seed, 9u);
  EXPECT_EQ(b.options.eps, 0.4);
  EXPECT_EQ(b.model, DiffusionModel::kLinearThreshold);
  EXPECT_FALSE(b.warm);
  EXPECT_EQ(b.budget_points,
            (std::vector<std::vector<uint32_t>>{{1, 2, 3}, {4, 5, 6}}));
}

TEST(SpecFile, RejectsUnknownKeysWrongTypesAndBadSweeps) {
  const std::string graph = std::string(R"("graph": )") + kTinyGraph;
  struct Case {
    std::string text;
    std::string named;  // the message must name this key
  };
  const std::vector<Case> cases = {
      {"{" + graph + R"(, "algorithms": ["bundle-grd"], "sweep": "2",
         "budget": 3})", "budget"},
      {"{" + graph + R"(, "algorithms": ["bundle-grd"], "sweep": "2",
         "groups": [{"sweeps": "3"}]})", "sweeps"},
      {"{" + graph + R"(, "algorithms": ["bundle-grd"], "sweep": "2",
         "groups": [{"groups": []}]})", "groups"},
      {"{" + graph + R"(, "algorithms": ["bundle-grd"], "sweep": 2})",
       "sweep"},
      {"{" + graph + R"(, "algorithms": "bundle-grd", "sweep": "2"})",
       "algorithms"},
      {"{" + graph + R"(, "algorithms": [3], "sweep": "2"})", "algorithms"},
      {"{" + graph + R"(, "algorithms": ["bundle-grd"], "sweep": "2",
         "seed": "7"})", "seed"},
      {"{" + graph + R"(, "algorithms": ["bundle-grd"], "sweep": "2",
         "seed": -1})", "seed"},
      {"{" + graph + R"(, "algorithms": ["bundle-grd"], "sweep": "2",
         "eps": 3})", "eps"},
      {"{" + graph + R"(, "algorithms": ["bundle-grd"], "sweep": "2",
         "warm": 1})", "warm"},
      {"{" + graph + R"(, "algorithms": ["bundle-grd"], "sweep": "2",
         "model": "sir"})", "model"},
      {"{" + graph + R"(, "algorithms": ["bundle-grd"], "sweep": "2",
         "groups": 1})", "groups"},
      {"{" + graph + R"(, "params": {"config": "config12"},
         "algorithms": ["bundle-grd"], "sweep": "10:5:2"})", "sweep"},
      {"{" + graph + R"(, "algorithms": ["bundle-grd"], "sweep": "2"})",
       "params"},  // uniform points need params to size them
      {"{" + graph + R"(, "algorithms": ["bundle-grd"]})", "sweep"},
  };
  for (const Case& c : cases) {
    Result<std::vector<SweepGroup>> groups = LoadSpec(c.text);
    ASSERT_FALSE(groups.ok()) << c.text;
    EXPECT_EQ(groups.status().code(), Status::Code::kInvalidArgument)
        << c.text;
    EXPECT_NE(groups.status().message().find(c.named), std::string::npos)
        << groups.status().message();
  }
  // A bad graph body fails through the load_graph builder.
  EXPECT_FALSE(LoadSpec(R"({"graph": {"network": "mars"},
                            "algorithms": ["bundle-grd"], "sweep": "2;"})")
                   .ok());
}

TEST(SpecFile, IdenticalGraphBodiesBuildOneGraph) {
  Result<std::vector<SweepGroup>> groups = LoadSpec(
      std::string(R"({"graph": )") + kTinyGraph + R"(,
        "params": {"config": "config12"},
        "algorithms": ["bundle-grd"], "sweep": "2",
        "groups": [
          {"title": "a"},
          {"title": "b", "params": {"config": "config34"}},
          {"title": "c", "graph": )" + kTinyGraph + R"(},
          {"title": "d", "graph": {"network": "er", "nodes": 150,
                                   "edges": 900, "net_seed": 18}}
        ]})");
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  const std::vector<SweepGroup>& g = groups.value();
  ASSERT_EQ(g.size(), 4u);
  EXPECT_EQ(g[0].graph.get(), g[1].graph.get());
  EXPECT_EQ(g[0].graph.get(), g[2].graph.get());  // spelled again, same body
  EXPECT_NE(g[0].graph.get(), g[3].graph.get());
  for (const SweepGroup& group : g) {
    EXPECT_EQ(group.spec.graph, group.graph.get());
  }
}

TEST(SpecFile, GroupsWithoutParamsSkipEvaluation) {
  Result<std::vector<SweepGroup>> groups = LoadSpec(
      std::string(R"({"graph": )") + kTinyGraph + R"(,
        "algorithms": ["bundle-grd"], "sweep": "2,2;4,4",
        "eval_sims": 100, "seed": 7})");
  ASSERT_TRUE(groups.ok()) << groups.status().ToString();
  const SweepSpec& spec = groups.value()[0].spec;
  EXPECT_FALSE(spec.params.has_value());
  Result<SweepReport> report = SweepRunner(spec).Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report.value().rows.size(), 2u);
  for (const SweepRow& row : report.value().rows) {
    EXPECT_GT(row.result.allocation.num_seed_nodes(), 0u);
    EXPECT_EQ(row.welfare, 0.0);
    EXPECT_EQ(row.welfare_std_error, 0.0);
  }
}

TEST(ParseSweepPoints, AcceptsAllThreeGrammars) {
  auto uniform = ParseSweepPoints("10,30,50", 2);
  ASSERT_TRUE(uniform.ok());
  EXPECT_EQ(uniform.value(),
            (std::vector<std::vector<uint32_t>>{{10, 10}, {30, 30}, {50, 50}}));

  auto range = ParseSweepPoints("10:50:20", 3);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range.value(), (std::vector<std::vector<uint32_t>>{
                               {10, 10, 10}, {30, 30, 30}, {50, 50, 50}}));

  auto inclusive = ParseSweepPoints("5:7:2", 1);
  ASSERT_TRUE(inclusive.ok());
  EXPECT_EQ(inclusive.value(),
            (std::vector<std::vector<uint32_t>>{{5}, {7}}));

  auto explicit_points = ParseSweepPoints("70,30;70,70;70,110", 5);
  ASSERT_TRUE(explicit_points.ok());  // explicit length overrides num_items
  EXPECT_EQ(explicit_points.value(), (std::vector<std::vector<uint32_t>>{
                                         {70, 30}, {70, 70}, {70, 110}}));

  auto trailing = ParseSweepPoints("70,30;", 2);
  ASSERT_TRUE(trailing.ok());
  EXPECT_EQ(trailing.value(),
            (std::vector<std::vector<uint32_t>>{{70, 30}}));
}

TEST(ParseSweepPoints, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseSweepPoints("", 2).ok());
  EXPECT_FALSE(ParseSweepPoints("10,x,30", 2).ok());
  EXPECT_FALSE(ParseSweepPoints("10:50", 2).ok());        // missing step
  EXPECT_FALSE(ParseSweepPoints("10:50:0", 2).ok());      // zero step
  EXPECT_FALSE(ParseSweepPoints("50:10:5", 2).ok());      // lo > hi
  EXPECT_FALSE(ParseSweepPoints("0:4000000000:1", 2).ok());  // point-count cap
  EXPECT_FALSE(ParseSweepPoints("10,20;10", 2).ok());     // ragged vectors
  EXPECT_FALSE(ParseSweepPoints("99999999999", 2).ok());  // out of range
  EXPECT_FALSE(ParseSweepPoints("10,30", 0).ok());        // no items
}

}  // namespace
}  // namespace uic
