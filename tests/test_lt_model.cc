#include "diffusion/lt_model.h"

#include <gtest/gtest.h>

#include "core/bundle_grd.h"
#include "diffusion/uic_model.h"
#include "exp/configs.h"
#include "graph/generators.h"
#include "items/supermodular_generators.h"
#include "rrset/rr_collection.h"

namespace uic {
namespace {

Graph Chain(int n, double w) {
  GraphBuilder builder(n);
  for (int i = 0; i + 1 < n; ++i) builder.AddEdge(i, i + 1, w);
  return builder.Build().MoveValue();
}

TEST(LtSimulator, WeightOneChainActivatesEverything) {
  Graph g = Chain(6, 1.0);
  LtSimulator sim(g);
  Rng rng(1);
  EXPECT_EQ(sim.RunOnce({0}, rng), 6u);
}

TEST(LtSimulator, WeightZeroChainActivatesOnlySeeds) {
  Graph g = Chain(6, 0.0);
  LtSimulator sim(g);
  Rng rng(2);
  EXPECT_EQ(sim.RunOnce({0, 3}, rng), 2u);
}

TEST(LtSimulator, ActivationProbabilityEqualsEdgeWeight) {
  // Single edge 0 -> 1 with weight 0.4: E[spread({0})] = 1.4.
  GraphBuilder builder(2);
  builder.AddEdge(0, 1, 0.4);
  Graph g = builder.Build().MoveValue();
  const double spread = EstimateSpreadLt(g, {0}, 200000, 3, 4);
  EXPECT_NEAR(spread, 1.4, 0.01);
}

TEST(LtSimulator, AtMostOneLiveInEdgePerNode) {
  // v has two in-neighbors with weights 0.5 each; only ONE can ever be
  // live (weights sum to 1). Seeding both sources: v always activates;
  // seeding one source: v activates with prob exactly 0.5, NOT 0.75 (the
  // IC value) — the discriminating test between LT and IC.
  GraphBuilder builder(3);
  builder.AddEdge(0, 2, 0.5);
  builder.AddEdge(1, 2, 0.5);
  Graph g = builder.Build().MoveValue();
  const double both = EstimateSpreadLt(g, {0, 1}, 100000, 4, 4);
  EXPECT_NEAR(both, 3.0, 0.01);
  const double one = EstimateSpreadLt(g, {0}, 200000, 5, 4);
  EXPECT_NEAR(one, 1.5, 0.01);
}

TEST(UicSimulatorLt, BundlePropagatesAlongLivePath) {
  Graph g = Chain(4, 1.0);
  ItemParams params = MakeTwoItemConfig12();
  const UtilityTable table(params);  // zero noise: only the pair pays
  UicSimulator sim(g, DiffusionModel::kLinearThreshold);
  Rng rng(6);
  Allocation alloc;
  alloc.Add(0, 0b11);
  const UicOutcome out = sim.Run(alloc, table, rng);
  EXPECT_DOUBLE_EQ(out.welfare, 4.0);  // all 4 nodes adopt the +1 pair
  EXPECT_EQ(out.num_adopters, 4u);
}

TEST(UicSimulatorLt, RationalAdoptionStillHolds) {
  Graph g = Chain(3, 1.0);
  // Negative-alone items: seeding only one item yields nothing.
  const std::vector<double> prices = {1.0, 1.0};
  auto value = MakeValueFromUtilities(2, prices, {0.0, -0.5, -0.5, 1.0});
  ItemParams params(std::move(value), prices, NoiseModel::Zero(2));
  const UtilityTable table(params);
  UicSimulator sim(g, DiffusionModel::kLinearThreshold);
  Rng rng(7);
  Allocation alloc;
  alloc.AddItem(0, 0);
  EXPECT_DOUBLE_EQ(sim.Run(alloc, table, rng).welfare, 0.0);
  Allocation bundled;
  bundled.Add(0, 0b11);
  EXPECT_DOUBLE_EQ(sim.Run(bundled, table, rng).welfare, 3.0);
}

TEST(EstimateWelfareUnderLt, DeterministicAndPositiveUnderSynergy) {
  Graph g = GenerateErdosRenyi(300, 1800, 8);
  g.ApplyWeightedCascade();
  ItemParams params = MakeTwoItemConfig12();
  Allocation alloc;
  for (NodeId v = 0; v < 15; ++v) alloc.Add(v, 0b11);
  const WelfareEstimate a = EstimateWelfare(g, alloc, params, 300, 9, 4,
                                            DiffusionModel::kLinearThreshold);
  const WelfareEstimate b = EstimateWelfare(g, alloc, params, 300, 9, 4,
                                            DiffusionModel::kLinearThreshold);
  EXPECT_DOUBLE_EQ(a.welfare, b.welfare);
  EXPECT_GT(a.welfare, 0.0);
}

TEST(EstimateWelfareUnderLt, PinnedEstimateOnWeightedCascadeEr) {
  // Bit-exact pin of the UIC-LT Monte-Carlo estimate (no golden transcript
  // covers LT welfare): any change to the LT edge rule, its RNG draw order
  // or the reduction shows up here.
  Graph g = GenerateErdosRenyi(400, 2400, 21);
  g.ApplyWeightedCascade();
  ItemParams params = MakeTwoItemConfig12();
  Allocation alloc;
  for (NodeId v = 0; v < 20; ++v) alloc.Add(v, v % 3 == 0 ? 0b01 : 0b11);
  for (unsigned workers : {1u, 4u}) {
    const WelfareEstimate e = EstimateWelfare(
        g, alloc, params, 500, 31, workers, DiffusionModel::kLinearThreshold);
    EXPECT_EQ(e.welfare, 0x1.355e9cd1737bp+8);        // 309.3695803553519
    EXPECT_EQ(e.std_error, 0x1.b4867de020364p+3);     // 13.641417443986661
    EXPECT_EQ(e.avg_adopters, 0x1.ad6353f7ced91p+7);  // 214.694
    EXPECT_EQ(e.avg_adoptions, 0x1.7024dd2f1a9fcp+8);  // 368.144
  }
}

TEST(LtRrSampling, ReverseWalkOnChain) {
  Graph g = Chain(5, 1.0);
  RrOptions options;
  options.linear_threshold = true;
  RrSampler sampler(g, options);
  Rng rng(10);
  std::vector<NodeId> rr;
  sampler.SampleRootedInto(4, rng, &rr);
  // Weight-1 chain: the walk always climbs to the source.
  EXPECT_EQ(rr.size(), 5u);
}

TEST(LtRrSampling, WalkPicksOneBranch) {
  // Node 2 has two in-neighbors at weight 0.5: an LT RR set rooted at 2
  // contains exactly one of them (never both).
  GraphBuilder builder(3);
  builder.AddEdge(0, 2, 0.5);
  builder.AddEdge(1, 2, 0.5);
  Graph g = builder.Build().MoveValue();
  RrOptions options;
  options.linear_threshold = true;
  RrSampler sampler(g, options);
  Rng rng(11);
  std::vector<NodeId> rr;
  for (int trial = 0; trial < 200; ++trial) {
    sampler.SampleRootedInto(2, rng, &rr);
    EXPECT_EQ(rr.size(), 2u);  // root + exactly one source
  }
}

TEST(LtRrSampling, CoverageEstimatesLtSpread) {
  // σ_LT(S) = n * E[S covers R] must hold for LT RR sets too.
  Graph g = GenerateErdosRenyi(80, 400, 12);
  g.ApplyWeightedCascade();
  RrOptions options;
  options.linear_threshold = true;
  RrCollection pool(g, 13, 2, options);
  pool.GenerateUntil(60000);
  const std::vector<NodeId> seeds = {0, 1, 2};
  size_t covered = 0;
  for (size_t r = 0; r < pool.size(); ++r) {
    for (NodeId v : pool.Set(r)) {
      if (v <= 2) {
        ++covered;
        break;
      }
    }
  }
  const double rr_estimate =
      static_cast<double>(g.num_nodes()) * covered / pool.size();
  const double mc = EstimateSpreadLt(g, seeds, 60000, 14, 4);
  EXPECT_NEAR(rr_estimate, mc, 0.05 * mc + 0.2);
}

TEST(BundleGrdLt, SelectsSeedsUnderLinearThreshold) {
  Graph g = GenerateErdosRenyi(300, 1800, 15);
  g.ApplyWeightedCascade();
  const std::vector<uint32_t> budgets = {10, 10};
  const AllocationResult r =
      BundleGrd(g, budgets, 0.5, 1.0, 16, 0,
                DiffusionModel::kLinearThreshold);
  EXPECT_TRUE(r.allocation.ValidateBudgets(budgets).ok());
  EXPECT_EQ(r.allocation.SeedCount(0), 10u);
  // LT-selected seeds should outperform arbitrary seeds under LT welfare.
  ItemParams params = MakeTwoItemConfig12();
  Allocation arbitrary;
  for (NodeId v = 200; v < 210; ++v) arbitrary.Add(v, 0b11);
  const double w_sel = EstimateWelfare(g, r.allocation, params, 400, 17, 4,
                                       DiffusionModel::kLinearThreshold)
                           .welfare;
  const double w_arb = EstimateWelfare(g, arbitrary, params, 400, 17, 4,
                                       DiffusionModel::kLinearThreshold)
                           .welfare;
  EXPECT_GT(w_sel, w_arb);
}

}  // namespace
}  // namespace uic
